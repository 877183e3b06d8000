"""Exact determinants of integer and polynomial matrices.

The routes and their parts:

* ``det_integer``      - fraction-free (Bareiss) elimination on Python ints.
* ``_char_rev_by_characters`` - the one modular engine: det(I - u*X) for the
  lift X of an r x r pattern over a cyclic group Z/m, given as one dense
  (r, r, m) integer array, X[i, j, h] the weight of label h in Z/m on entry
  (i, j).  The lift is block-circulant over Z/m, so the determinant is the
  product over the m characters of Z/m of r x r twisted determinants.  These
  are taken modulo word-sized primes p = 1 (mod m), where the characters take
  values in GF(p): every twisted block sum_h X[:, :, h] * w**(c*h) mod p of
  a slice of blocks comes out of one product of a (blocks x m) table of
  w**(c*h) mod p with X's label rows, then one remainder by each block's
  prime (``_twisted_blocks``).  While top * max(p) < 2**53, top = m
  max|X|, that is one float64 BLAS product and one balanced remainder, every
  partial sum an integer a double holds exactly; beyond it, and for X of
  Python ints, one int64 product per prime of X reduced mod that prime,
  then one remainder.  The characters fall into
  Galois orbits {chi^t : t a unit mod m}, the classes of gcd(c, m) of the
  characters chi_c (``_character_orbits``), and each orbit's product is an
  integer polynomial of degree at most |O|*r: it is recombined by CRT on
  its own, under the Hadamard-style bound of |O|*r rows of norm rho, rho**2
  the largest squared row norm of the pattern with its group labels
  collapsed onto their cells.  The kernel work goes as the sum of |O|**2,
  not m**2; the orbit factors are multiplied exactly, by object-array
  ``np.convolve``.  All of this but X's label rows (the orbits, their
  bounds and prime prefixes, the block list, its slices and each slice's
  table of w**(c*h) mod p) depends on (r, m, rho**2) alone and is memoised
  as a plan (``_engine_plan``), so an X of a size and bound seen before
  pays only for its blocks, the kernel and the CRT.
  Exact integer arithmetic throughout, carried out residue-wise; where
  floats carry it, they carry integers a double holds exactly.
* ``_charpolys_power_sums`` and ``_charpolys_mod`` - the two
  characteristic-polynomial kernels, each run at once on a stack of
  matrices, each slice modulo its own prime, on float64 through BLAS:
  balanced residues, primes below ``_float_prime_limit(r)``, so that every
  product and partial sum is an integer of magnitude at most 2**53, which a
  double holds exactly.  Blocks below ``_FLOAT_MIN_ROWS`` rows take power
  sums: baby powers X**1 .. X**s and giant powers Y**1 .. Y**t, Y =
  (X**s)^T, about 2 sqrt(r) products, and every trace tr(X**(a*s+b)), a >=
  1, from one batched product of the two flattened stacks; then Newton's
  identities in int64.  A cross trace sums r**2 products of residues, so
  these primes obey ((p + 1)/2)**2 r**2 <= 2**53 - 2**25 (21.8 bits at
  r = 52).  Larger blocks take the Hessenberg reduction and the standard
  recurrence, whose row operations are delayed: up to nb =
  ``_block_steps(r)`` of them stay pending as a product F R and are applied
  with one matmul and one remainder; its sums have at most r + 1 terms, so
  its primes stay below 2**((55 - bitlen r) // 2).  The engine makes one
  list of the (orbit, prime, character) blocks and hands it over in slices
  whose working set (``_kernel``) fits ``_CHUNK_ENTRIES`` entries.
* The period-3 product, one per kind of input.  Every operator of the
  paper raises the vertex type by one, so det(I - uM) = det(I - u^3 X), X =
  M^3 on one class V_0 of the Z/3 grading (``grading_classes``, a
  breadth-first search over the pattern's entry arrays, ``_type_grading``).
  A labelled pattern takes its ``path_table``: the length-3 paths from V_0
  back to it, each with its cell, the product of its weights and its three
  entries, so that X is one scatter of the paths' label sums
  (``_path_product``).  A dense matrix takes ``_cube_rows``: its three
  blocks between the classes and two plain block products.  Both run in
  float64 while (W d)**3 <= 2**53 (``_exact_float``), every partial sum an
  integer a double holds, and on Python ints beyond, and give X as the
  engine's (r, r, m) array, int64 or Python ints in an object array.
* ``char_rev_labelled`` - det(I - u*M) for the lift M over Z/m of an n x n
  pattern whose entries carry labels in Z/m, given as entry arrays
  (repeated entries sum) with the classes of its grading and its path
  table, built when the caller holds none.  It takes X from the path table
  (without a grading, X is the pattern), runs the engine, spreads the
  coefficients back to u and, under ``SELF_CHECK``, checks the result
  (``_char_rev_reduced``).  No lift is built.  zeta passes a presented
  complex's base quotient operators, labelled by the voltages of their
  edges, with the path tables it keeps per presentation, and a complex of
  explicit lists its own operators over the orbits of the free cyclic
  symmetry it finds (``symmetry.quotient_pattern``).
* ``char_rev`` - det(I - u*M) for an integer matrix: the case m = 1, every
  label 0, on the grading found in M's own pattern, X by ``_cube_rows``:
  injected operators, and a complex of explicit lists with no free
  symmetry.
* ``_self_check`` - the one self-check (under ``SELF_CHECK``): the unreduced
  dense operator's characteristic polynomial modulo a prime the engine's CRT
  did not take, by the Hessenberg kernel on an int64 stack (residues in
  [0, p), numpy's own integer loops): every determinant is checked in
  integer arithmetic on the unreduced operator, and one the power-sum kernel
  took by another algorithm as well.

The primes (``polynomials.primes_with_root``) and the CRT
(``polynomials.crt_symmetric``) are shared with the modular gcd.  The CRT is
Garner's algorithm: mixed-radix digits in int64 on whole coefficient
vectors, then one object-array product into Python ints.
``det_poly_matrix`` (a matrix of IntPoly, by evaluation at small integers and
Lagrange interpolation), ``char_rev_interpolated`` and ``det_cofactor`` are
independent slow routes kept as test references.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .errors import ExactArithmeticError
from .polynomials import PRIME_CAP, IntPoly, _poly, crt_symmetric, primes_with_root

# When enabled (the test suite turns it on), every char_rev_labelled call
# (char_rev's included) compares each coefficient of its result with the
# unreduced dense operator's characteristic polynomial modulo a prime outside
# its CRT set (``_self_check``); SELF_CHECK_CALLS counts the checked calls.
SELF_CHECK = False
SELF_CHECK_CALLS = 0


def _as_int_rows(M):
    if hasattr(M, "to_dense"):
        M = M.to_dense()
    rows = [list(r) for r in M]
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("square matrix required")
    return rows


def det_integer(M):
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    a = _as_int_rows(M)
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pkk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pkk
    return sign * a[n - 1][n - 1]


def det_cofactor(M):
    """Naive cofactor expansion; exponential, test oracle for small matrices."""
    a = _as_int_rows(M)
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * det_cofactor(minor)
    return total


# -- polynomial-matrix determinant -------------------------------------------


def _eval_points(count):
    """0, 1, -1, 2, -2, ... keeping magnitudes small for Bareiss growth."""
    pts = [0]
    k = 1
    while len(pts) < count:
        pts.append(k)
        if len(pts) < count:
            pts.append(-k)
        k += 1
    return pts[:count]


def _lagrange_integer(xs, ys):
    """Interpolating polynomial through (xs, ys); must have integer coefficients."""
    npts = len(xs)
    master = [1]
    for x in xs:
        master = [0] + master
        for j in range(len(master) - 1):
            master[j] -= master[j + 1] * x
    acc = [Fraction(0)] * npts
    for x, y in zip(xs, ys):
        if y == 0:
            continue
        # master / (u - x) by synthetic division
        num = [0] * npts
        carry = master[npts]
        for j in range(npts - 1, -1, -1):
            num[j] = carry
            carry = master[j] + carry * x
        denom = 0
        powx = 1
        for c in num:
            denom += c * powx
            powx *= x
        scale = Fraction(y, denom)
        for j in range(npts):
            acc[j] += num[j] * scale
    out = []
    for fr in acc:
        if fr.denominator != 1:
            raise ExactArithmeticError(
                f"interpolation produced non-integer coefficient {fr}; "
                "internal determinant bug"
            )
        out.append(int(fr))
    return IntPoly(out)


def _interpolated_det(count, matrix_at):
    """The polynomial through det_integer(matrix_at(x)) at count small x."""
    xs = _eval_points(count)
    return _lagrange_integer(xs, [det_integer(matrix_at(x)) for x in xs])


def det_poly_matrix(M):
    """Exact determinant of a square matrix of IntPoly entries.

    Entries must have degree <= 3.  Evaluates the matrix at 3n+1 small
    integers, takes exact integer determinants, and interpolates; the
    interpolation must clear to integer coefficients.  A test reference:
    P_A is char_rev of the vertex companion (zeta.vertex_companion).
    """
    n = len(M)
    rows = []
    for row in M:
        row = list(row)
        if len(row) != n:
            raise ValueError("square matrix required")
        for e in row:
            if not isinstance(e, IntPoly):
                raise TypeError("IntPoly entries required")
            if e.degree > 3:
                raise ValueError("entry degree exceeds 3")
        rows.append(row)
    return _interpolated_det(3 * n + 1, lambda x: [[e(x) for e in row] for row in rows])


# -- reverse characteristic polynomial ---------------------------------------


def _block_steps(r):
    """Hessenberg steps per block of delayed row operations in
    ``_charpolys_mod`` for r x r slices: one per 8 rows, at least one."""
    return max(1, r // 8)


# blocks of at least this many rows take the float64 Hessenberg kernel
# (``_charpolys_mod``), smaller ones the power-sum kernel
# (``_charpolys_power_sums``).  Measured on a 2-vCPU x86-64 machine, one BLAS
# thread, min of 7 x 20 calls, power sums against Hessenberg on one stack of
# B blocks, primes below the power-sum limit: r = 52 1.07/4.16 ms (B = 7) and
# 1.89/5.81 (B = 13); r = 64 1.76/5.68 and 5.43/8.31; r = 80 3.34/7.88 and
# 8.28/10.19; r = 104 10.18/11.06 and 20.56/16.85.  Through the engine, one
# random {-1, 0, 1} X of r rows, each kernel on its own primes and slices:
# r = 64 3.2/6.8 ms, 80 7.4/9.8, 88 10.4-11.2/11.4-11.9, 92 15.1-15.2/
# 12.8-12.9, 104 28.0/17.4.  So the crossover lies near r = 90, where the
# working-set budget leaves the power-sum kernel one block a call; no block
# of the paper's operators has 64 to 89 rows (7 to 52 and 104 and up)
_FLOAT_MIN_ROWS = 64


def _float_prime_limit(r):
    """The engine's float64 kernels take primes below this for r x r blocks,
    by the kernel ``_kernel(r)`` runs:

    * power sums (r < ``_FLOAT_MIN_ROWS``): min(PRIME_CAP, 2 isqrt((2**53 -
      2**25) // r**2)).  A prime p below it has balanced residues of
      magnitude at most h = (p + 1)/2 <= isqrt((2**53 - 2**25) // r**2), so
      a cross trace's r**2 products of two residues sum to at most h**2 r**2
      <= 2**53 - 2**25, which leaves its remainder the margin h <= 2**24
      (``_charpolys_power_sums``).  r <= 5 keeps PRIME_CAP, r = 52 takes
      primes below 3650240 (21.8 bits).
    * Hessenberg (from ``_FLOAT_MIN_ROWS`` rows): min(PRIME_CAP,
      2**((55 - bitlen r) // 2)), so that a sum of r + 1 products of two
      residues stays within 2**53 (``_charpolys_mod``).

    The cap keeps every prime of the engine's stream within the int64
    kernel's range, so the self-check can take the next one."""
    if r < _FLOAT_MIN_ROWS:
        return min(PRIME_CAP, 2 * isqrt(((1 << 53) - (1 << 25)) // max(1, r * r)))
    return min(PRIME_CAP, 1 << ((55 - r.bit_length()) // 2))


def _remainder(x, p, out=None, tmp=None):
    """x % p: the int64 kernel's residues, in [0, p)."""
    return np.remainder(x, p, out=out)


def _balanced_remainder(x, p, out=None, tmp=None):
    """x - p * rint(x / p): the float64 kernel's residues, of magnitude at
    most (p + 1) / 2 (``_charpolys_mod``).  ``tmp``, shaped like x, spares
    the quotient an allocation."""
    q = np.divide(x, p, out=tmp)
    np.rint(q, out=q)
    q *= p
    return np.subtract(x, q, out=out)


def _charpolys_mod(H, p):
    """Coefficients c_0..c_r of det(xI - H_b) over GF(p_b), for every slice b
    of a stack.

    H is a (B, r, r) array with slice b reduced mod p_b, p a length-B int64
    array of primes; H is overwritten.  Returns a (B, r + 1) int64 array of
    residues in [0, p_b), lowest degree first.  Each step of the Hessenberg
    reduction and of the recurrence runs on the whole stack at once.

    The reduction is by Gauss transforms, with delayed updates: step k's row
    operation (rows below k + 1 lose multiples of row k + 1) is kept pending,
    as column t of F and row t of R, so that the reduced matrix is
    H - F R.  A step builds only its pivot column and row from that, and
    its column operation (column k + 1 gains H f) as H f - F (R f).  Every
    nb = ``_block_steps(r)`` steps the pending block, that step's included,
    is applied with one product and one remainder over the trailing block,
    instead of a remainder over it at every step.

    Every value reduced is a sum of at most r + 1 terms, each a product of
    two residues or one residue: a flush sums nb <= r products and an entry,
    the column operation r - k - 2 + j <= r - 1 products (j <= k + 1 steps
    pending) and an entry, the recurrence's step k k - 1 products, a product
    and a residue.  Two stacks share that arithmetic:

    * int64, residues in [0, p) with p < 2**25: products stay below 2**50
      and every sum below 2**63, as r < 4096.  The self-check's stack.
    * float64, through BLAS, residues reduced by x - p*rint(x/p) with p below
      ``_float_prime_limit(r)`` <= 2**e, e = (55 - bitlen r) // 2: the
      engine's stack for blocks of ``_FLOAT_MIN_ROWS`` rows or more.  x/p is
      correctly rounded, so rint(x/p) is the integer nearest x/p, or its
      neighbour when x/p lies within half an ulp of a half-integer; either
      way the residue has magnitude at most (p + 1)/2 <= 2**(e - 1).  A
      product is then at most 2**(2e - 2), and a sum of r + 1 <= 2**bitlen r
      of them, with every partial sum in any order, at most
      2**(bitlen r + 2e - 2) <= 2**53: an integer a double holds exactly,
      for every r < 4096.  Floats carry exact integers only.

    Memory beyond H stays a fraction of it: a flush runs in strips of rows
    through one buffer, and the recurrence keeps its polynomials in the
    columns of H it has read for the last time.
    """
    B, r, _ = H.shape
    mod = _balanced_remainder if H.dtype == np.float64 else _remainder
    pf = p.astype(H.dtype)
    p1 = pf[:, None]
    p2 = pf[:, None, None]
    primes = p.tolist()
    nb = max(1, min(_block_steps(r), r - 2))
    # pending steps s .. k - 1, j = k - s of them: F's column t is written in
    # rows from s + t + 2 and must be zero in rows s + 2 .. s + t + 1; R's row
    # t is written in columns from s + t, and what it holds before them only
    # reaches entries below the subdiagonal, which nothing reads
    F = np.zeros((B, r, nb), dtype=H.dtype)
    R = np.zeros((B, nb, r), dtype=H.dtype)
    j = 0
    # rows per strip of a flush: its buffer holds at most a quarter of the
    # working-set budget
    strip = max(1, _CHUNK_ENTRIES // max(1, 4 * B * r))
    work = np.empty(B * min(strip, r) * r, dtype=H.dtype)
    for k in range(r - 2):
        below = H[:, k + 1 :, k]
        if j:
            below = mod(below - np.matmul(F[:, k + 1 :, :j], R[:, :j, k, None])[:, :, 0], p1)
        # each slice's pivot: the first nonzero of column k below row k; a
        # slice without one keeps row k+1 (a zero) and gets multipliers 0.
        # Random residues almost never give a zero subdiagonal entry, so the
        # search runs only when some slice has one
        if not below[:, 0].all():
            off = np.argmax(below != 0, axis=1)
            moved = np.nonzero(off)[0]
            if moved.size:
                to = k + 1 + off[moved]
                H[moved, to], H[moved, k + 1] = H[moved, k + 1], H[moved, to]
                H[moved, :, to], H[moved, :, k + 1] = H[moved, :, k + 1], H[moved, :, to]
                # with nothing pending, F and R hold no live entry there, and
                # below is a view of H that moved with its rows
                if j:
                    F[moved, to], F[moved, k + 1] = F[moved, k + 1], F[moved, to]
                    R[moved, :, to], R[moved, :, k + 1] = R[moved, :, k + 1], R[moved, :, to]
                    at = off[moved]
                    below[moved, at], below[moved, 0] = below[moved, 0], below[moved, at]
        inv = np.array([pow(int(a), -1, q) if a else 0
                        for a, q in zip(below[:, 0].tolist(), primes)], dtype=H.dtype)
        f = mod(below[:, 1:] * inv[:, None], p1)
        row = H[:, k + 1, k:]
        if j:
            row = mod(row - np.matmul(F[:, k + 1, None, :j], R[:, :j, k:])[:, 0], p1)
        F[:, k + 2 :, j] = f
        R[:, j, k:] = row
        if j < nb - 1 and k < r - 3:
            j += 1
        else:
            # apply the j + 1 pending row operations with one product, then
            # one remainder over the trailing block, a strip of rows at a time
            s = k - j
            for a in range(s + 2, r, strip):
                trailing = H[:, a : a + strip, s:]
                product = work[: trailing.size].reshape(trailing.shape)
                np.matmul(F[:, a : a + strip, : j + 1], R[:, : j + 1, s:], out=product)
                trailing -= product
                mod(trailing, p2, out=trailing, tmp=product)
            F[:, :, 1 : j + 1] = 0
            j = 0
        # column k + 1 gains the reduced matrix times f, less what the
        # pending row operations owe
        col = H[:, :, k + 1]
        col += np.matmul(H[:, :, k + 2 :], f[:, :, None])[:, :, 0]
        if j:
            s = k + 1 - j
            Rf = mod(np.matmul(R[:, :j, k + 2 :], f[:, :, None]), p2)
            col[:, s + 2 :] -= np.matmul(F[:, s + 2 :, :j], Rf)[:, :, 0]
        mod(col, p1, out=col)

    # det(xI_k - H_k) by expansion along the last column:
    # p_k = (x - H[k-1,k-1]) p_{k-1}
    #       - sum_{i<k-1} H[i,k-1] * (prod_{j=i}^{k-2} H[j+1,j]) * p_i,
    # with beta[:, i] the product of subdiagonal entries, kept step by step.
    # Step k reads column k-1 for the last time; p_{k-1} (degree k-1, zero
    # past it) then takes its place, so p_0 .. p_{k-2} are H[:, :k-1, :k-1]
    # and need no table of their own.  p_k is formed in the buffer of p_{k-2}.
    neg_diag = -np.diagonal(H, 0, 1, 2)
    beta = np.zeros((B, r), dtype=H.dtype)
    prev, poly = np.zeros((2, B, r + 1), dtype=H.dtype)
    prev[:, 0] = 1
    for k in range(1, r + 1):
        np.multiply(neg_diag[:, k - 1, None], prev[:, :k], out=poly[:, :k])
        poly[:, 1 : k + 1] += prev[:, :k]
        if k >= 2:
            w = mod(beta[:, : k - 1] * H[:, : k - 1, k - 1], p1)
            poly[:, : k - 1] -= np.matmul(H[:, : k - 1, : k - 1], w[:, :, None])[:, :, 0]
        mod(poly[:, : k + 1], p1, out=poly[:, : k + 1])
        if k < r:
            # beta for step k + 1 takes the subdiagonal entry of column k-1
            beta[:, : k - 1] *= H[:, k, k - 1, None]
            beta[:, k - 1] = H[:, k, k - 1]
            mod(beta[:, :k], p1, out=beta[:, :k])
            H[:, :, k - 1] = prev[:, :r]
        prev, poly = poly, prev
    if prev.dtype == np.int64:
        return prev
    return np.remainder(prev.astype(np.int64), p[:, None])


def _baby_steps(r):
    """s = ceil(sqrt r), at least 1: the powers X**1 .. X**s that
    ``_charpolys_power_sums`` stores for r x r slices."""
    return 1 + isqrt(max(r - 1, 0))


@lru_cache(maxsize=256)
def _negated_inverses(p, r):
    """-1/k mod p for k = 0 .. r (0 at k = 0), p > r, as a read-only int64
    array: the divisions of Newton's identities in ``_charpolys_power_sums``,
    one table per prime and block size."""
    table = np.array([0] + [-pow(k, -1, p) % p for k in range(1, r + 1)], dtype=np.int64)
    table.flags.writeable = False
    return table


def _giant_steps(r):
    """t = ceil(r/s) - 1, at least 0, s = ``_baby_steps(r)``: the giant powers
    Y**1 .. Y**t, Y = (X**s)^T, that ``_charpolys_power_sums`` stores for
    r x r slices, so that a*s + b, 0 <= a <= t and 1 <= b <= s, covers
    1 .. r."""
    return max(0, -(-r // _baby_steps(r)) - 1)


def _charpolys_power_sums(H, p):
    """``_charpolys_mod`` for the blocks below ``_FLOAT_MIN_ROWS`` rows, by
    power sums and Newton's identities.

    H is a (B, r, r) float64 stack of balanced residues, slice b modulo p_b
    with |H_b| <= (p_b + 1)/2, and p a length-B int64 array of primes above r
    and below ``_float_prime_limit(r)``; H is overwritten.  Returns, as
    ``_charpolys_mod`` does, the (B, r + 1) int64 residues in [0, p_b) of the
    coefficients of det(xI - H_b), lowest degree first.

    det(I - tX) = exp(-sum_k tr(X**k) t**k / k), so its coefficients c_k
    follow from the power sums p_k = tr(X**k), k <= r, by Newton's identities
    k c_k = -sum_(i=1..k) p_i c_(k-i), which divide by k <= r < p; and
    det(xI - X) = sum_k c_k x**(r-k).  The power sums come from s =
    ``_baby_steps(r)`` baby powers X**1 .. X**s, an (s, B, r, r) stack, and
    t = ``_giant_steps(r)`` giant powers Y**1 .. Y**t, Y = (X**s)^T, a
    (t, B, r, r) stack.  p_1 .. p_s are the traces of the baby powers, and
    p_(a*s+b) = tr(X**(a*s) X**b), a >= 1, is the sum over all (i, j) of
    Y**a[i, j] X**b[i, j]: the dot product of the two powers flattened.  So
    every one of them comes out of one batched product of the flattened
    stacks, (B, s, r**2) times (B, r**2, t), then one remainder.  That takes
    s - 1 products for the baby powers and t - 1 for the giant ones, about
    2 sqrt(r) products of r x r slices in place of r Hessenberg steps, and
    one product for every cross trace.

    The float64 arithmetic is exact: with p below ``_float_prime_limit(r)``
    every residue has magnitude at most h = (p + 1)/2, h**2 r**2 <= 2**53 -
    2**25 and h <= 2**24, so a cross trace, which sums r**2 products of two
    residues, and an entry of a power, which sums r of them, is an integer of
    magnitude at most 2**53 - 2**25 with every partial sum, in whatever
    order BLAS adds; a double holds each exactly.  Each is reduced by
    x - p*rint(x/p) (``_balanced_remainder``) before it is used: rint(x/p)
    lies within 1/2 + 1/p of x/p, so the residue is an integer of magnitude
    at most h, p*rint(x/p) one of magnitude at most |x| + h < 2**53, both
    exact.  A trace of a baby power adds r residues.  Newton's identities
    run in int64 on residues in [0, p): a sum of k <= r products, each below
    p**2 <= 2**55 / r**2, stays below 2**55, and -1/k mod p comes from a
    per-prime table (``_negated_inverses``).

    Working set: the two stacks of powers, H (the remainders' scratch) and
    the primes as a full stack of H's shape, (s + t + 2) B r**2 floats.
    """
    B, r, _ = H.shape
    if r >= int(p.min()):
        raise ValueError("Newton's identities need primes above the block size")
    s, t = _baby_steps(r), _giant_steps(r)
    # the remainders of powers run faster on a full stack of primes than
    # broadcast from a (B, 1, 1) column
    column = p.astype(np.float64)[:, None]
    pf = np.empty_like(H)
    pf[...] = column[:, :, None]
    baby = np.empty((s, B, r, r))
    baby[0] = H
    for b in range(1, s):
        np.matmul(baby[b - 1], baby[0], out=baby[b])
        _balanced_remainder(baby[b], pf, out=baby[b], tmp=H)
    # sums[:, k] = p_k; the traces of the baby powers give p_1 .. p_min(s, r)
    sums = np.zeros((B, r + 1))
    sums[:, 1 : s + 1] = np.trace(baby, axis1=2, axis2=3).T[:, :r]
    if t:
        giant = np.empty((t, B, r, r))
        giant[0] = baby[s - 1].transpose(0, 2, 1)
        for a in range(1, t):
            np.matmul(giant[a - 1], giant[0], out=giant[a])
            _balanced_remainder(giant[a], pf, out=giant[a], tmp=H)
        # cross[:, b - 1, a - 1] = p_(a*s+b), unreduced: the remainder of
        # every power sum below reduces it
        cross = np.matmul(baby.reshape(s, B, r * r).transpose(1, 0, 2),
                          giant.reshape(t, B, r * r).transpose(1, 2, 0))
        sums[:, s + 1 :] = cross.transpose(0, 2, 1).reshape(B, t * s)[:, : r - s]
    _balanced_remainder(sums, column, out=sums)
    power_sums = np.remainder(sums.astype(np.int64), p[:, None])
    inverses = np.stack([_negated_inverses(q, r) for q in p.tolist()])
    c = np.zeros((B, r + 1), dtype=np.int64)
    c[:, 0] = 1
    for k in range(1, r + 1):
        total = np.einsum("bi,bi->b", power_sums[:, 1 : k + 1], c[:, k - 1 :: -1])
        c[:, k] = total % p * inverses[:, k] % p
    return c[:, ::-1]


NORM_FRACTION_BITS = 32


def _row_norm_ceiling(norm_sq):
    """sqrt(norm_sq) rounded up in fixed point: the least integer s with
    s / 2**NORM_FRACTION_BITS >= sqrt(norm_sq)."""
    scaled = norm_sq << (2 * NORM_FRACTION_BITS)
    s = isqrt(scaled)
    return s if s * s == scaled else s + 1


def _coefficient_bound(norm_sq, n):
    """2 * ceil((1 + rho)**n), rho = sqrt(norm_sq) rounded up by
    ``_row_norm_ceiling``.

    A coefficient c_d of det(I - uM) is a signed sum of the C(n, d) principal
    d x d minors, each at most rho**d by Hadamard when every row of M has
    Euclidean norm <= rho; so sum_d |c_d| <= (1 + rho)**n, and a CRT modulus
    above twice that recovers every coefficient in the symmetric range.
    """
    one = 1 << NORM_FRACTION_BITS
    power = (one + _row_norm_ceiling(norm_sq)) ** n
    return 2 * -(-power // one ** n)


def _character_orbits(m):
    """The characters chi_c(h) = zeta**(c*h) of Z/m grouped into Galois
    orbits: lists of c, one per value of gcd(c, m), in order of first c.

    The automorphism zeta -> zeta**t of Q(zeta), zeta of order m and t a unit
    mod m, takes chi_c to chi_(t*c), and the units carry c exactly onto the
    residues with the same gcd with m.  An orbit's product of twisted
    determinants is fixed by every automorphism, so its coefficients are
    rational algebraic integers, that is integers; modulo p = 1 (mod m), with
    w in place of zeta, the engine takes their residues.
    """
    orbits = {}
    for c in range(m):
        orbits.setdefault(gcd(c, m), []).append(c)
    return list(orbits.values())


def _block_norm_sq(x):
    """rho**2 = max over pattern rows i of sum_j (sum_h |x[i, j, h]|)**2:
    |M_c[i, j]| is at most that cell sum for every character c, so every
    row of every twisted block has Euclidean norm at most rho.  ``x`` is the
    engine's (r, r, m) labelled array."""
    cells = np.abs(x).sum(axis=2)
    if cells.dtype != object and int(cells.max()) ** 2 * len(cells) >= 1 << 63:
        cells = cells.astype(object)
    return int((cells * cells).sum(axis=1).max())


# the kernels' working-set budget: entries (2.5 MiB of float64) per call of
# ``_charpolys_power_sums`` or ``_charpolys_mod`` (``_kernel``).  The working
# set grows with it, while a call's interpreter time goes with r alone, so the
# budget takes the 14 blocks of a q=3 m=2 cover's P_B over Z/2 (52 rows, power
# sums) in two calls of 7, the 68 of a q=2 m=7 P_B (21 rows) in two of 34, and
# all 13 primes of a one-orbit 104-row X (dense P_B of a q=3 m=2 cover,
# Hessenberg kernel) in one call.  Measured against it, in-process on a 2-vCPU
# x86-64 machine with one BLAS thread (medians of 15 rounds' minima):
# 9 * 2**14 (five calls at 52 rows) was 13-17% slower on the q=3 cover's
# `zeta3 verify`, 9 * 2**16 (one call of 68 blocks at 21 rows, past the 2 MiB
# L2 cache) 26-27% slower on the q=2 m=7 cover's `zeta_parts`, and 5 * 2**17
# (one call of 14 blocks at 52 rows) 21-22% slower on the q=3 cover
_CHUNK_ENTRIES = 5 << 16


def _kernel(r):
    """(kernel, working set per block in entries): the characteristic-
    polynomial kernel the engine runs on r x r blocks.  Below
    ``_FLOAT_MIN_ROWS`` rows the power-sum kernel, whose s baby and t giant
    powers, the stack itself and its primes make (s + t + 2) r**2 entries a
    block, s = ``_baby_steps(r)`` and t = ``_giant_steps(r)``; from there the
    float64 Hessenberg kernel, whose stack is its working set up to the flush
    buffer (a quarter of the budget at most)."""
    if r < _FLOAT_MIN_ROWS:
        return _charpolys_power_sums, (_baby_steps(r) + _giant_steps(r) + 2) * r * r
    return _charpolys_mod, r * r


def _powers_mod(w, e, p):
    """w[t] ** e mod p[t] for every t and every exponent of the vector e, as
    a (len(w), len(e)) int64 array, by binary powering: residues below
    p < 2**25, so every product stays below 2**50."""
    out = np.ones((len(w), len(e)), dtype=np.int64)
    p = p[:, None]
    square = w[:, None] % p
    e = e.copy()
    while e.any():
        odd = (e & 1).astype(bool)
        out[:, odd] = out[:, odd] * square % p
        square = square * square % p
        e >>= 1
    return out


def _twisted_blocks(flat, top, table, p):
    """The twisted blocks of one slice, as the (B, r*r) float64 stack of
    balanced residues the kernels take: row b is table[b] @ flat modulo p[b],
    table[b, h] = w**(c*h) mod p[b] for block b's character c.

    While top * max(p) < 2**53 (``top`` m times the largest |entry| of an
    int64 ``flat``), one float64 BLAS product and one balanced remainder
    build the whole slice: an entry of the product sums m terms, each an
    entry times a residue in [0, p), so every partial sum is an integer of
    magnitude below top * max(p) < 2**53, which a double holds exactly (at
    m = 1 the table is a column of ones).  The remainder x - p*rint(x/p) of
    such an x is exact, as in ``_charpolys_mod``: rint(x/p) lies within one
    of x/p, so p*rint(x/p) and the residue are integers of magnitude at most
    |x| + p, below 2**53 (|x| <= top (p - 1): below top * p when top >= p,
    below p**2 + p otherwise, p < 2**25), and the residue has magnitude at
    most (p + 1)/2.

    Beyond that bound, and for Python ints (``top`` None), each prime q of
    the slice takes its blocks' rows of the table times ``flat`` mod q in
    int64, then mod q: an entry sums m < 8192 products below q**2 < 2**50.
    """
    pf = p[:, None].astype(np.float64)
    if top is not None and top * int(p.max()) < 1 << 53:
        stack = table.astype(np.float64) @ flat.astype(np.float64)
    else:
        # residues in [0, q) are exact doubles
        stack = np.empty((len(p), flat.shape[1]))
        for q in np.unique(p).tolist():
            at = p == q
            stack[at] = table[at] @ (flat % q).astype(np.int64) % q
    return _balanced_remainder(stack, pf, out=stack)


class _EnginePlan(NamedTuple):
    """What ``_char_rev_by_characters`` does for an (r, r, m) array X of
    squared row-norm bound rho**2, apart from X itself: the primes its CRT
    takes, how many of them each Galois orbit takes, and the slices of the
    (orbit, prime, character) block list, each as its blocks' (orbit, prime
    index, prime), their primes as an int64 array and their rows of the
    table of w**(c*h) mod p."""

    primes: tuple
    takes: tuple
    slices: tuple


@lru_cache(maxsize=128)
def _engine_plan(r, m, norm_sq, budget, min_rows):
    """The ``_EnginePlan`` of an (r, r, m) array whose pattern has squared
    row-norm bound ``norm_sq``.  It depends on nothing else but the kernels'
    working-set budget and block-size threshold, ``budget`` and
    ``min_rows``, which are ``_CHUNK_ENTRIES`` and ``_FLOAT_MIN_ROWS`` at
    call time: keying on them gives a changed value a plan of its own."""
    # orbit O takes the shortest prefix of the primes whose product exceeds its bound
    orbits = _character_orbits(m)
    bounds = [_coefficient_bound(norm_sq, len(orbit) * r) for orbit in orbits]
    roots = []
    moduli = []
    for p, w in primes_with_root(m, _float_prime_limit(r)):
        roots.append((p, w))
        moduli.append(p * moduli[-1] if moduli else p)
        if moduli[-1] > max(bounds):
            break
    takes = [next(t + 1 for t, mod in enumerate(moduli) if mod > bound) for bound in bounds]
    blocks = [(o, t, c) for o, orbit in enumerate(orbits) for t in range(takes[o]) for c in orbit]
    prime_of, character = np.array(blocks, dtype=np.int64)[:, 1:].T
    primes = np.array([p for p, _w in roots], dtype=np.int64)
    # powers[t, e] = w**e mod p for the t-th (p, w), e < m: w has order m,
    # so block b takes w**(c*h) from exponent c*h mod m
    powers = _powers_mod(np.array([w for _p, w in roots], dtype=np.int64),
                         np.arange(m), primes)
    exponents = character[:, None] * np.arange(m) % m
    # as few slices as fit the kernel's working set in the budget, of equal
    # size, so that no slice holds more blocks than that takes
    slices = -(-len(blocks) // max(1, budget // _kernel(r)[1]))
    size = -(-len(blocks) // slices)
    plan = []
    for start in range(0, len(blocks), size):
        at = slice(start, start + size)
        pb = primes[prime_of[at]]
        owners = [(o, t, p) for (o, t, _c), p in zip(blocks[at], pb.tolist())]
        table = powers[prime_of[at, None], exponents[at]]
        for a in (pb, table):
            a.flags.writeable = False
        plan.append((owners, pb, table))
    return _EnginePlan(tuple(primes.tolist()), tuple(takes), tuple(plan))


def _char_rev_by_characters(x):
    """(det(I - u*M) as an IntPoly, the rest of its prime stream), M the
    mr x mr lift of an r x r pattern over Z/m.  The stream is
    ``primes_with_root(m, _float_prime_limit(r))`` past the primes the CRT
    took, so its next prime lies outside the CRT set (``_self_check``).

    The pattern ``x`` is an (r, r, m) integer array, int64 or Python ints in
    an object array: x[i, j, h] is the weight of the entry from row i to
    column j of label h in Z/m.  Modulo a prime p = 1 (mod m) with w of exact
    order m, character c takes the value w**(c*h) on label h, so the twisted
    block M_c[i, j] = sum over h of x[i, j, h] * w**(c*h).  det(I - uM) is
    the product of det(I - u M_c) over the m characters.

    The characters are split into Galois orbits (``_character_orbits``).  An
    orbit O's product is an integer polynomial: det(I - u D), D the
    block-diagonal of its |O| twisted blocks, whose every row has Euclidean
    norm at most rho (``_block_norm_sq``).  So its coefficients obey
    ``_coefficient_bound(rho**2, |O|*r)``, and it is CRT-combined from the
    shortest prefix of the stream whose product exceeds that bound.  The
    kernel work goes as the sum of |O|**2 rather than m**2.  The orbit factors
    are multiplied exactly, one object-array ``np.convolve`` each.

    The (orbit, prime, character) blocks form one list, orbit by orbit, and
    go through a batched kernel (``_kernel``: power sums below
    ``_FLOAT_MIN_ROWS`` rows, the float64 Hessenberg reduction from there) as
    float64 stacks of balanced residues, in slices of the list: a call's
    interpreter time goes with r, not with the number of blocks (r = 7 to 104
    for the paper's operators), so one call per block would spend its time
    in the interpreter rather than in arithmetic.  The slices are as few as
    keep the kernel's working set within ``_CHUNK_ENTRIES`` entries (at least
    one block each), and of equal size.  Every block of a slice is built at
    once (``_twisted_blocks``): its row of the table of w**(c*h) mod p, taken
    from the powers of each root (``_powers_mod``), goes into one product
    with X's label rows, float64 below 2**53 and int64 beyond, then one
    remainder by the block's prime.
    So memory stays bounded however many primes the bounds need.  Each
    (orbit, prime) product accumulates across slices.

    All of that but X's label rows depends on (r, m, rho**2) alone and is
    memoised as a plan (``_engine_plan``), so an X of a size and bound seen
    before pays only for its blocks, the kernel and the CRT.
    """
    r, _, m = x.shape
    limit = _float_prime_limit(r)
    if m * r == 0:
        return IntPoly.one(), primes_with_root(m, limit)
    if r >= 4096:
        # the kernel's sums stay exact only below this
        raise ValueError("char_rev supports blocks below 4096 rows")
    if m >= 8192:
        # a block entry sums m products of residues below 2**25 in int64
        raise ValueError("char_rev supports groups of order below 8192")

    plan = _engine_plan(r, m, _block_norm_sq(x), _CHUNK_ENTRIES, _FLOAT_MIN_ROWS)
    # row h of flat holds label h of every entry, so the block of character c
    # modulo p is the row vector (w**(c*h))_h times flat mod p
    flat = x.reshape(r * r, m).T
    top = None if x.dtype == object else int(np.abs(x).max()) * m
    per_orbit = [[np.ones(1, dtype=np.int64)] * take for take in plan.takes]
    kernel = _kernel(r)[0]
    for owners, pb, table in plan.slices:
        stack = _twisted_blocks(flat, top, table, pb)
        factors = kernel(stack.reshape(len(pb), r, r), pb)
        for (o, t, p), factor in zip(owners, factors):
            # each product term is below p**2 < 2**50 and an output
            # coefficient sums at most r + 1 <= 8192 of them, so int64
            # cannot overflow
            per_orbit[o][t] = np.convolve(per_orbit[o][t], factor[::-1]) % p

    product = None
    for residues in per_orbit:
        part = np.array(crt_symmetric(residues, plan.primes[: len(residues)]), dtype=object)
        product = part if product is None else np.convolve(product, part)
    # the CRT gives Python ints, and object-array products keep them so
    poly = _poly(product.tolist())

    # the lift's diagonal holds, m times, the diagonal entries of label 0
    trace = m * sum(np.diagonal(x[:, :, 0]).tolist())
    if poly.cf(0) != 1 or poly.cf(1) != -trace:
        raise ExactArithmeticError("characteristic polynomial consistency check failed")
    return poly, islice(primes_with_root(m, limit), len(plan.primes), None)


def _self_check(poly, n, operator, stream):
    """Raise unless every coefficient of ``poly`` matches det(I - u*A) modulo
    the next prime of ``stream``, A = operator() the unreduced n x n dense
    operator.

    ``stream`` is the engine's prime stream past the primes its CRT took, so
    the prime lies outside the CRT set: an error that is a multiple of the CRT
    modulus, invisible to every CRT prime, shows here.  det(I - u*A) is the
    reversed characteristic polynomial from ``_charpolys_mod``.
    """
    global SELF_CHECK_CALLS
    SELF_CHECK_CALLS += 1
    if n >= 4096:
        # int64 dot products of residues < 2**25 stay exact only below this
        raise ValueError("the self-check supports operators below 4096 rows")
    dense = _as_int_rows(operator())
    if len(dense) != n:
        raise ExactArithmeticError(
            f"char_rev self-check: operator of dimension {len(dense)}, expected {n}"
        )
    p, _w = next(stream)
    stack = np.array([[[v % p for v in row] for row in dense]], dtype=np.int64)
    direct = _charpolys_mod(stack, np.array([p], dtype=np.int64))[0, ::-1].tolist()
    if poly.degree > n or any((poly.cf(d) - c) % p for d, c in enumerate(direct)):
        raise ExactArithmeticError(f"char_rev self-check failed modulo {p}")


def _type_grading(n, rows, cols):
    """Labels g in Z/3 of 0..n-1 (an int64 array) with g(j) = g(i) + 1 on
    every entry (rows[k], cols[k]), or None when there are none.

    A breadth-first search over the pattern, component by component, each
    started at its least index with label 0: every step labels, across
    every entry with one end labelled, the other end, one step on along the
    entry.  Where a grading exists every label is forced, so the search
    finds it; otherwise no labelling passes the check on every entry.
    """
    g = np.full(n, -1)
    while True:
        unlabelled = np.flatnonzero(g < 0)
        if not len(unlabelled):
            break
        g[unlabelled[0]] = 0
        while True:
            known = g >= 0
            at_row, at_col = known[rows], known[cols]
            forward = at_row > at_col
            backward = at_col > at_row
            if not (forward.any() or backward.any()):
                break
            g[cols[forward]] = (g[rows[forward]] + 1) % 3
            g[rows[backward]] = (g[cols[backward]] + 2) % 3
    return g if np.array_equal(g[cols], (g[rows] + 1) % 3) else None


def _top(values):
    """The largest |value| of a weight array, as a Python int (0 if empty)."""
    return int(np.abs(values).max()) if len(values) else 0


def _labelled_array(n, m, rows, cols, labels, values):
    """The (n, n, m) array x of a Z/m-labelled pattern given as entry arrays:
    x[i, j, h] the sum of the weights of its entries (i, j, h), zero off the
    entries.  int64 when those sums stay below 2**62 in magnitude, else
    Python ints in an object array."""
    small = values.dtype != object and _top(values) * len(values) < 1 << 62
    x = np.zeros((n, n, m), dtype=np.int64 if small else object)
    np.add.at(x, (rows, cols, labels), values)
    return x


def _exact_float(rows, values):
    """Whether (W d)**3 <= 2**53, W the largest |weight| and d the most
    entries of a row: W d bounds every row's absolute sum, so every partial
    sum of a product of two or three of the pattern's blocks, or of a
    length-3 path's weight, is an integer of magnitude at most (W d)**3,
    which a double holds exactly."""
    d = np.bincount(rows, minlength=1).max()
    return (_top(values) * int(d)) ** 3 <= 1 << 53


def _cube_rows(n, rows, cols, values, classes):
    """X = M^3 on the rows of one class, as the engine's (r, r, 1) array
    (``_char_rev_by_characters``), M an n x n integer matrix given as its
    entry arrays: entry k from row rows[k] to column cols[k] with weight
    values[k], entries that repeat a (row, column) summing.

    ``classes`` = (V_0, V_1, V_2) is a Z/3 grading of M's pattern
    (``grading_classes``), every entry from a row of V_t going to a column
    of V_(t+1); so X = B_0 B_1 B_2 on V_0, B_t the rows of V_t and columns
    of V_(t+1).  The products run on float64 through BLAS under
    ``_exact_float``'s bound, on Python ints in object arrays beyond it.
    """
    exact_float = _exact_float(rows, values)
    dtype = np.float64 if exact_float else object
    weights = values.astype(dtype)
    local = np.zeros(n, dtype=np.int64)
    side = np.zeros(n, dtype=np.int64)
    for t, members in enumerate(classes):
        local[members] = np.arange(len(members))
        side[members] = t
    blocks = []
    for t in range(3):
        sel = side[rows] == t
        block = np.zeros((len(classes[t]), len(classes[(t + 1) % 3])), dtype=dtype)
        np.add.at(block, (local[rows[sel]], local[cols[sel]]), weights[sel])
        blocks.append(block)
    cube = blocks[0] @ blocks[1] @ blocks[2]
    return cube.astype(np.int64 if exact_float else object)[:, :, None]


def grading_classes(n, rows, cols):
    """The classes (V_0, V_1, V_2) of the Z/3 grading of an n x n pattern
    with entries (rows[k], cols[k]) (``_type_grading``), rotated so that V_0
    is the smallest, or None when it has none."""
    grading = _type_grading(n, rows, cols)
    if grading is None:
        return None
    classes = [np.flatnonzero(grading == t) for t in range(3)]
    t = min(range(3), key=lambda t: len(classes[t]))
    return tuple(classes[t:] + classes[:t])


class PathTable(NamedTuple):
    """The length-3 paths of a graded pattern from its class V_0 back to it
    (``path_table``): path k runs from V_0's row a to its row b, through the
    pattern's entries entries[0, k], entries[1, k] and entries[2, k]; cells[k]
    = a*r + b and weights[k] is the product of the three entries' weights,
    as a float64 under ``_exact_float``'s bound and a Python int beyond it.
    r = |V_0|.  Every array is read-only."""

    r: int
    cells: np.ndarray
    weights: np.ndarray
    entries: np.ndarray


def _steps_on(order, start, ends):
    """(path, entry) for every entry out of each row ends[path]: ``order``
    lists the entries by row, those of row i at order[start[i]:start[i + 1]]."""
    count = (start[1:] - start[:-1])[ends]
    path = np.repeat(np.arange(len(ends)), count)
    first = np.repeat(start[ends] - np.cumsum(count) + count, count)
    return path, order[first + np.arange(len(path))]


def path_table(n, rows, cols, values, classes):
    """The ``PathTable`` of an n x n pattern given as entry arrays, with
    ``classes`` its Z/3 grading (``grading_classes``).

    ``_path_product`` takes X = M^3 on V_0 from it for any labels of the
    entries, so a pattern whose weights stay and whose labels change pays
    for its paths once.
    """
    order = np.argsort(rows, kind="stable")
    start = np.searchsorted(rows[order], np.arange(n + 1))
    v0 = classes[0]
    local = np.zeros(n, dtype=np.int64)
    local[v0] = np.arange(len(v0))
    first = np.flatnonzero(np.isin(rows, v0))
    path, second = _steps_on(order, start, cols[first])
    path2, third = _steps_on(order, start, cols[second])
    entries = np.stack([first[path][path2], second[path2], third])
    cells = local[rows[entries[0]]] * len(v0) + local[cols[entries[2]]]
    dtype = np.float64 if _exact_float(rows, values) else object
    weights = values.astype(dtype)[entries].prod(axis=0)
    for a in (cells, weights, entries):
        a.flags.writeable = False
    return PathTable(len(v0), cells, weights, entries)


def _path_product(paths, m, labels):
    """X = M^3 on V_0 as the engine's (r, r, m) array, M the lift over Z/m
    of the pattern of ``paths`` (``path_table``) with entry k labelled
    labels[k]: each path carries the sum of its entries' labels mod m, and
    X[a, b, h] sums the weights of the paths from a to b of label h.  Float64
    weights take one ``np.bincount``, every partial sum an integer of
    magnitude at most (W d)**3 <= 2**53 (``_exact_float``), and give int64;
    Python-int weights are summed into an object array."""
    r = paths.r
    at = paths.cells * m + labels[paths.entries].sum(axis=0) % m
    if paths.weights.dtype == object:
        x = np.zeros(r * r * m, dtype=object)
        np.add.at(x, at, paths.weights)
    else:
        x = np.bincount(at, paths.weights, minlength=r * r * m).astype(np.int64)
    return x.reshape(r, r, m)


def _cyclic_reduction(n, m, rows, cols, labels, values, classes, paths=None):
    """(d, X): det(I - uM) = det(I - u^d X), M the lift over Z/m of the
    labelled pattern of ``char_rev_labelled`` and X the engine's (r, r, m)
    array.

    With the classes V_0, V_1, V_2 of a Z/3 grading, M maps V_t into V_(t+1)
    by blocks B_t, and Sylvester's identity det(I - AB) = det(I - BA) gives
    det(I - uM) = det(I - u^3 B_0 B_1 B_2); X is that product on V_0, i.e.
    M^3 restricted to it: from the pattern's ``path_table``
    (``_path_product``), or, without one, for a dense matrix (m = 1, every
    label 0), by ``_cube_rows``.  Without a grading (``classes`` None),
    d = 1 and X is the pattern itself.
    """
    if classes is None:
        return 1, _labelled_array(n, m, rows, cols, labels, values)
    if paths is None:
        return 3, _cube_rows(n, rows, cols, values, classes)
    return 3, _path_product(paths, m, labels)


def _char_rev_reduced(n, m, d, x, operator):
    """det(I - u*M) from det(I - u^d X) (``_cyclic_reduction``): the engine
    on X, its coefficients spread to u^d and, under ``SELF_CHECK``, the
    result compared with operator(), the unreduced mn x mn M up to a
    relabelling of its rows and columns."""
    reduced, stream = _char_rev_by_characters(x)
    coeffs = [0] * (d * reduced.degree + 1)
    coeffs[::d] = reduced.coeffs
    poly = _poly(coeffs)
    if SELF_CHECK and n:
        _self_check(poly, m * n, operator, stream)
    return poly


def char_rev_labelled(n, m, rows, cols, labels, values, classes, operator, paths=None):
    """det(I - u*M) as an IntPoly, M the mn x mn lift over Z/m of an n x n
    pattern whose entry k goes from rows[k] to cols[k] with label labels[k]
    in Z/m and weight values[k] (int64, or Python ints in an object array);
    entries that repeat a (row, column, label) sum.

    ``classes`` is the pattern's Z/3 grading (``grading_classes``), or None,
    and ``paths`` its ``path_table``, built here when the caller holds none.
    ``_cyclic_reduction`` takes the pattern to X with det(I - uM) =
    det(I - u^d X) and ``_char_rev_reduced`` the rest; no lift is built.
    """
    if classes is not None and paths is None:
        paths = path_table(n, rows, cols, values, classes)
    d, x = _cyclic_reduction(n, m, rows, cols, labels, values, classes, paths)
    return _char_rev_reduced(n, m, d, x, operator)


def char_rev(M):
    """det(I - u*M) as an IntPoly, for a square integer matrix: the case m = 1
    of ``char_rev_labelled``, every label 0, with no path table: X is two
    plain block products (``_cube_rows``).

    The grading is the one in M's own nonzero pattern (vertex type, edge tail
    type, chamber rotation), so X is the period-3 product on its smallest
    class; without one, X = M.  The self-check compares with M itself, so it
    also sees a wrong reduction.
    """
    if hasattr(M, "to_dense"):
        n, rows, cols, values = M.n, M.rows, M.cols, M.values
    else:
        dense = _as_int_rows(M)
        n = len(dense)
        cells = np.array(dense, dtype=object).reshape(n, n)
        rows, cols = np.nonzero(cells)
        values = cells[rows, cols]
        if _top(values) < 1 << 62:
            values = values.astype(np.int64)
    labels = np.zeros(len(rows), dtype=np.int64)
    d, x = _cyclic_reduction(n, 1, rows, cols, labels, values, grading_classes(n, rows, cols))
    return _char_rev_reduced(n, 1, d, x, lambda: M)


def char_rev_interpolated(M):
    """det(I - u*M) by evaluation + interpolation over det_integer.

    Independent slow route used by the tests to cross-check char_rev.
    """
    dense = _as_int_rows(M)
    n = len(dense)
    return _interpolated_det(n + 1, lambda x: [
        [(1 if i == j else 0) - x * dense[i][j] for j in range(n)] for i in range(n)])
