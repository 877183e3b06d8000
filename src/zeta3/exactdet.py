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
  Python ints, an int64 product and remainder, X reduced mod each prime
  first only where that product could overflow.  The characters fall into
  Galois orbits {chi^t : t a unit mod m}, the classes of gcd(c, m) of the
  characters chi_c (``_character_orbits``), and each orbit's product is an
  integer polynomial of degree at most |O|*r: it is recombined by CRT on
  its own, under the Hadamard-style bound of |O|*r rows of norm rho, rho**2
  the largest squared row norm of the pattern with its group labels
  collapsed onto their cells.  The kernel work goes as the sum of |O|**2,
  not m**2; the orbit factors are multiplied exactly.
  Exact integer arithmetic throughout, carried out residue-wise; where
  floats carry it, they carry integers a double holds exactly.
* ``_charpolys_power_sums`` and ``_charpolys_mod`` - the two
  characteristic-polynomial kernels, each run at once on a stack of
  matrices, each slice modulo its own prime, on float64 through BLAS:
  balanced residues, primes below ``_float_prime_limit(r)``, so that every
  product and partial sum is an integer of magnitude at most 2**53, which a
  double holds exactly.  Blocks below ``_FLOAT_MIN_ROWS`` rows take power
  sums: tr(X**k) for k <= r from about 2 sqrt(r) products, then Newton's
  identities in int64.  Larger blocks take the Hessenberg reduction and the
  standard recurrence, whose row operations are delayed: up to nb =
  ``_block_steps(r)`` of them stay pending as a product F R and are applied
  with one matmul and one remainder.  The engine makes one list of the
  (orbit, prime, character) blocks and hands it over in slices whose
  working set (``_kernel``) fits ``_CHUNK_ENTRIES`` entries.
* ``_cube_rows`` - the one period-3 product.  Every operator of the paper
  raises the vertex type by one, so det(I - uM) = det(I - u^3 X), X = M^3
  on one class of the Z/3 grading.  It multiplies the pattern's three blocks
  (on the factored route the whole pattern, built once) as Z/m-labelled
  arrays, adding labels mod m, on float64 through BLAS while every partial
  sum stays below 2**53 and on Python ints beyond, and returns X as the
  engine's (r, r, m) array, int64 or, when the weights outgrow it, Python
  ints in an object array; a dense matrix is the case m = 1.
* ``char_rev`` - det(I - u*M) for an integer matrix: X on the smallest class
  of a grading found in M's pattern (``_type_grading``, a breadth-first
  search over its entry arrays; else X = M), over the trivial group.
* ``char_rev_factored`` - det(I - u*M) for the lift M of a voltage-labelled
  pattern (operators.LabelledMatrix), without building the lift: X on sheet
  0 is the lift of an r x r pattern over the deck group Z/m, taken with its
  m characters.
* ``_char_rev_reduced`` - the tail of both routes: engine, spread to u^d, self-check.
* ``_self_check`` - the one self-check of both routes (under ``SELF_CHECK``):
  the unreduced dense operator's characteristic polynomial modulo a prime
  the engine's CRT did not take, by the Hessenberg kernel on an int64 stack
  (residues in [0, p), numpy's own integer loops): every determinant is
  checked in integer arithmetic on the unreduced operator, and one the
  power-sum kernel took by another algorithm as well.

The primes (``polynomials.primes_with_root``) and the CRT
(``polynomials.crt_symmetric``) are shared with the modular gcd.
``det_poly_matrix`` (a matrix of IntPoly, by evaluation at small integers and
Lagrange interpolation), ``char_rev_interpolated`` and ``det_cofactor`` are
independent slow routes kept as test references.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt

import numpy as np

from .errors import ExactArithmeticError
from .polynomials import PRIME_CAP, IntPoly, crt_symmetric, primes_with_root

# When enabled (the test suite turns it on), every char_rev and
# char_rev_factored call compares each coefficient of its result with the
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
# (``_charpolys_power_sums``): below the measured crossover, where the
# working-set budget leaves the power-sum kernel so few blocks a call that
# its interpreter time outweighs the Hessenberg kernel's r pivot steps
_FLOAT_MIN_ROWS = 64


def _float_prime_limit(r):
    """min(PRIME_CAP, 2**((55 - bitlen r) // 2)): the engine's float64
    kernels take primes below this for r x r blocks (``_charpolys_mod``).
    The cap keeps every prime of the engine's stream within the int64
    kernel's range, so the self-check can take the next one."""
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
    ``_baby_steps(r)`` stored powers X**1 .. X**s and giant powers formed one
    at a time: p_(a*s+b) = tr(X**(a*s) X**b) is the sum over rows i of the
    dot product of row i of X**b with row i of Y**a, Y = (X**s)^T.  That
    takes s - 1 products for the stored powers and about r/s for the giant
    ones, about 2 sqrt(r) products of r x r slices in place of r Hessenberg
    steps, and one batch of dot products per giant power.

    The float64 arithmetic is exact by ``_charpolys_mod``'s argument: every
    entry of a product and every dot product sums r products of balanced
    residues, each partial sum at most r ((p + 1)/2)**2 <= 2**53, and is
    reduced before it is used; a trace adds r reduced dot products, or r
    diagonal residues.  Newton's identities run in int64 on residues in
    [0, p): a sum of k <= r products, each below p**2 < 2**(55 - bitlen r),
    stays below 2**55, and -1/k mod p comes from a per-prime table
    (``_negated_inverses``).

    Working set: H, the s stored powers and two more buffers of H's size,
    (s + 3) B r**2 floats.
    """
    B, r, _ = H.shape
    if r >= int(p.min()):
        raise ValueError("Newton's identities need primes above the block size")
    p2 = p.astype(np.float64)[:, None, None]
    s = _baby_steps(r)
    powers = np.empty((B, s, r, r))
    powers[:, 0] = H
    for b in range(1, s):
        np.matmul(powers[:, b - 1], powers[:, 0], out=powers[:, b])
        _balanced_remainder(powers[:, b], p2, out=powers[:, b], tmp=H)
    # sums[:, k] = p_k; the traces of the stored powers give p_1 .. p_min(s, r)
    sums = np.zeros((B, r + 1))
    sums[:, 1 : s + 1] = np.trace(powers, axis1=2, axis2=3)[:, :r]
    # rows[:, i, b] is row i of X**(b + 1)
    rows = powers.transpose(0, 2, 1, 3)
    # Y = (X**s)^T; Y**a, a >= 2, alternates between H and one more buffer,
    # the other of the two serving the remainder
    y = np.ascontiguousarray(powers[:, s - 1].transpose(0, 2, 1))
    spare = (H, np.empty_like(H))
    giant = y
    for a in range(1, -(-r // s)):
        if a > 1:
            giant = np.matmul(giant, y, out=spare[a % 2])
            _balanced_remainder(giant, p2, out=giant, tmp=spare[1 - a % 2])
        n = min(s, r - a * s)
        dots = np.matmul(rows[:, :, :n], giant[:, :, :, None])[:, :, :, 0]
        _balanced_remainder(dots, p2, out=dots)
        sums[:, a * s + 1 : a * s + n + 1] = dots.sum(axis=1)
    _balanced_remainder(sums, p2[:, :, 0], out=sums)
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


# the kernels' working-set budget: entries (1.125 MiB of float64) per call of
# ``_charpolys_power_sums`` or ``_charpolys_mod`` (``_kernel``).  The working
# set grows with it, while a call's interpreter time goes with r alone, so the
# budget takes all 13 primes of a one-orbit 104-row X (dense P_B of a q=3 m=2
# cover, Hessenberg kernel) in one call
_CHUNK_ENTRIES = 9 << 14


def _kernel(r):
    """(kernel, working set per block in entries): the characteristic-
    polynomial kernel the engine runs on r x r blocks.  Below
    ``_FLOAT_MIN_ROWS`` rows the power-sum kernel, whose s + 3 buffers of the
    stack's size make (s + 3) r**2 entries a block, s = ``_baby_steps(r)``;
    from there the float64 Hessenberg kernel, whose stack is its working set
    up to the flush buffer (a quarter of the budget at most)."""
    if r < _FLOAT_MIN_ROWS:
        return _charpolys_power_sums, (_baby_steps(r) + 3) * r * r
    return _charpolys_mod, r * r


def _int64_labels(flat, top, p):
    """The engine's labels (``flat``, one row per label h in Z/m) as the
    int64 factor of the product with the powers of w modulo p.  ``top`` is m
    times the largest |entry| for an int64 ``flat`` (None for Python ints):
    while top * (p - 1) < 2**63, a block entry, a sum of m products of an
    entry and a residue in [0, p), cannot overflow, and ``flat`` goes in as it
    is; otherwise it is reduced mod p first, so each product stays below
    p**2 < 2**50 and m < 8192 of them sum within int64."""
    if top is not None and top * (p - 1) < 1 << 63:
        return flat
    return np.remainder(flat, p).astype(np.int64, copy=False)


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

    Beyond that bound, and for Python ints (``top`` None), the product runs
    in int64, then one remainder by each block's prime: one product builds
    the slice while ``_int64_labels`` lets ``flat`` go in unreduced at the
    slice's largest prime, and so at every prime of it; otherwise each prime
    takes its own product with ``flat`` reduced as ``_int64_labels`` says.
    """
    pf = p[:, None].astype(np.float64)
    if top is not None and top * int(p.max()) < 1 << 53:
        stack = table.astype(np.float64) @ flat.astype(np.float64)
        return _balanced_remainder(stack, pf, out=stack)
    labels = _int64_labels(flat, top, int(p.max()))
    if labels is flat:
        values = table @ flat
    else:
        values = np.empty((len(p), flat.shape[1]), dtype=np.int64)
        for q in np.unique(p).tolist():
            at = p == q
            values[at] = table[at] @ _int64_labels(flat, top, q)
    np.remainder(values, p[:, None], out=values)
    # residues in [0, p) are exact doubles; balanced, |v| <= (p - 1)/2
    stack = values.astype(np.float64)
    return _balanced_remainder(stack, pf, out=stack)


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
    are multiplied exactly, smallest first.

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
    """
    r, _, m = x.shape
    n = m * r
    stream = primes_with_root(m, _float_prime_limit(r))
    if n == 0:
        return IntPoly.one(), stream
    if r >= 4096:
        # the kernel's sums stay exact only below this
        raise ValueError("char_rev supports blocks below 4096 rows")
    if m >= 8192:
        # a block entry sums m products of residues below 2**25 in int64
        raise ValueError("char_rev supports groups of order below 8192")

    norm_sq = _block_norm_sq(x)
    # orbit O takes the shortest prefix of the primes whose product exceeds its bound
    orbits = _character_orbits(m)
    bounds = [_coefficient_bound(norm_sq, len(orbit) * r) for orbit in orbits]
    roots = []
    moduli = []
    for p, w in stream:
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

    # row h of flat holds label h of every entry, so the block of character c
    # modulo p is the row vector (w**(c*h))_h times flat mod p
    flat = x.reshape(r * r, m).T
    top = None if x.dtype == object else int(np.abs(x).max()) * m
    per_orbit = [[np.ones(1, dtype=np.int64)] * take for take in takes]
    # as few slices as fit the kernel's working set in the budget, of equal
    # size, so that no slice holds more blocks than that takes
    kernel, entries = _kernel(r)
    slices = -(-len(blocks) // max(1, _CHUNK_ENTRIES // entries))
    size = -(-len(blocks) // slices)
    for start in range(0, len(blocks), size):
        at = slice(start, start + size)
        pb = primes[prime_of[at]]
        table = powers[prime_of[at, None], exponents[at]]
        stack = _twisted_blocks(flat, top, table, pb)
        factors = kernel(stack.reshape(len(pb), r, r), pb)
        for (o, t, _c), p, factor in zip(blocks[at], pb.tolist(), factors):
            # each product term is below p**2 < 2**50 and an output
            # coefficient sums at most r + 1 <= 8192 of them, so int64
            # cannot overflow
            per_orbit[o][t] = np.convolve(per_orbit[o][t], factor[::-1]) % p

    primes = primes.tolist()
    parts = sorted((IntPoly(crt_symmetric(residues, primes[: len(residues)]))
                    for residues in per_orbit), key=lambda f: f.degree)
    poly = parts[0]
    for part in parts[1:]:
        poly = poly * part

    # the lift's diagonal holds, m times, the diagonal entries of label 0
    trace = m * sum(np.diagonal(x[:, :, 0]).tolist())
    if poly.cf(0) != 1 or poly.cf(1) != -trace:
        raise ExactArithmeticError("characteristic polynomial consistency check failed")
    return poly, stream


def _self_check(route, poly, n, operator, stream):
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
            f"{route} self-check: operator of dimension {len(dense)}, expected {n}"
        )
    p, _w = next(stream)
    stack = np.array([[[v % p for v in row] for row in dense]], dtype=np.int64)
    direct = _charpolys_mod(stack, np.array([p], dtype=np.int64))[0, ::-1].tolist()
    if poly.degree > n or any((poly.cf(d) - c) % p for d, c in enumerate(direct)):
        raise ExactArithmeticError(f"{route} self-check failed modulo {p}")


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


def _entry_arrays(entries):
    """A Z/m-labelled pattern, the dict (i, j, h) -> weight, as four arrays:
    rows, columns, labels and weights, the weights int64 when every one is
    below 2**62 in magnitude, else Python ints in an object array."""
    keys = np.fromiter(chain.from_iterable(entries), np.int64, 3 * len(entries)).reshape(-1, 3)
    values = list(entries.values())
    small = max(map(abs, values), default=0) < 1 << 62
    return (*keys.T, np.array(values, dtype=np.int64 if small else object))


def _top(values):
    """The largest |value| of a weight array, as a Python int (0 if empty)."""
    return int(np.abs(values).max()) if len(values) else 0


def _labelled_array(n, m, rows, cols, labels, values):
    """The (n, n, m) array x of a Z/m-labelled pattern given as entry arrays
    (``_entry_arrays``): x[i, j, h] the weight of (i, j, h), zero off the
    entries.  int64 when every weight is below 2**62 in magnitude, else
    Python ints in an object array."""
    small = values.dtype != object and _top(values) < 1 << 62
    x = np.zeros((n, n, m), dtype=np.int64 if small else object)
    x[rows, cols, labels] = values
    return x


def _group_product(a, b):
    """c[i, h, j] = sum over k and h1 + h2 = h (mod m) of a[i, h1, k] * b[k, h2, j]:
    the product of two Z/m-labelled matrices, each entry's labels along an axis."""
    ra, m, rk = a.shape
    rb = b.shape[2]
    flat_b = b.reshape(rk, m * rb)
    c = np.zeros((ra, m, rb), dtype=a.dtype)
    for h1 in range(m):
        product = (a[:, h1, :] @ flat_b).reshape(ra, m, rb)
        c[:, h1:] += product[:, : m - h1]
        c[:, :h1] += product[:, m - h1 :]
    return c


def _cube_rows(n, m, rows, cols, labels, values, classes=None):
    """X = M^3 on the rows of one class, as the engine's (r, r, m) labelled
    array (``_char_rev_by_characters``): X[a, b, h] the entry from the
    class's row a to deck h of its row b.

    M is the lift over the deck group Z/m of an n x n pattern, given as its
    entry arrays (``_entry_arrays``: entry k from row rows[k] to column
    cols[k] with label labels[k] in Z/m and weight values[k]), and
    ``classes`` = (V_0, V_1, V_2), every entry from a row of V_t going to a
    column of V_(t+1); so X = B_0 B_1 B_2 on V_0, B_t the pattern's rows of
    V_t and columns of V_(t+1), each built from the entries alone.  Dense
    char_rev passes the classes of a Z/3 grading of M, at m = 1 with every
    label 0.  char_rev_factored passes None, for its three sheets, each all
    n rows, since every entry raises the sheet of a Z/3 x Z/m lift by one:
    there B_0 = B_1 = B_2 is the whole pattern, built once.  The products
    are of Z/m-labelled matrices (``_group_product``): labels add mod m
    along each path.

    The products run on float64 through BLAS when (W d)**3 <= 2**53, W the
    largest |weight| and d the most entries of a row: W d bounds every row's
    absolute sum, so every partial sum of the first product is at most
    (W d)**2 and of the second at most (W d)**3, integers a double holds
    exactly.  Larger weights take Python ints in object arrays, exact at any
    size.
    """
    d = np.bincount(rows, minlength=1).max()
    exact_float = (_top(values) * int(d)) ** 3 <= 1 << 53
    dtype = np.float64 if exact_float else object
    weights = values.astype(dtype)
    # each block's layout: (row, label, column)
    if classes is None:
        block = np.zeros((n, m, n), dtype=dtype)
        block[rows, labels, cols] = weights
        blocks = [block] * 3
    else:
        local = np.zeros(n, dtype=np.int64)
        for members in classes:
            local[members] = np.arange(len(members))
        blocks = []
        for t in range(3):
            source = np.zeros(n, dtype=bool)
            source[classes[t]] = True
            sel = source[rows]
            block = np.zeros((len(classes[t]), m, len(classes[(t + 1) % 3])), dtype=dtype)
            block[local[rows[sel]], labels[sel], local[cols[sel]]] = weights[sel]
            blocks.append(block)
    cube = _group_product(_group_product(blocks[0], blocks[1]), blocks[2]).transpose(0, 2, 1)
    return cube.astype(np.int64 if exact_float else object, order="C")


def _cyclic_reduction(n, rows, cols, values):
    """(d, X): det(I - uM) = det(I - u^d X) for X an r x r matrix.

    When M's pattern carries a Z/3 grading with classes V_0, V_1, V_2, M maps
    V_t into V_(t+1) by blocks B_t, and Sylvester's identity
    det(I - AB) = det(I - BA) gives det(I - uM) = det(I - u^3 B_t B_(t+1) B_(t+2));
    X is that product on the smallest class, i.e. M^3 restricted to it
    (``_cube_rows``).  Without a grading, d = 1 and X = M.  M's nonzero
    entries are values[k] at (rows[k], cols[k]), the weights int64 or Python
    ints in an object array; X is the engine's (r, r, 1) labelled array.
    """
    labels = np.zeros(len(rows), dtype=np.int64)
    grading = _type_grading(n, rows, cols)
    if grading is None:
        return 1, _labelled_array(n, 1, rows, cols, labels, values)
    classes = [np.flatnonzero(grading == t) for t in range(3)]
    t = min(range(3), key=lambda t: len(classes[t]))
    return 3, _cube_rows(n, 1, rows, cols, labels, values, classes[t:] + classes[:t])


def _char_rev_reduced(route, d, x, n, operator):
    """det(I - u*M) = det(I - u^d X) for both routes: det(I - tX) from the
    engine (X the (r, r, m) labelled array of an r x r pattern over Z/m), its
    coefficients spread to t = u^d, then (under ``SELF_CHECK``) compared with
    operator(), the unreduced n x n M."""
    reduced, stream = _char_rev_by_characters(x)
    coeffs = [0] * (d * reduced.degree + 1)
    coeffs[::d] = reduced.coeffs
    poly = IntPoly(coeffs)
    if SELF_CHECK and n:
        _self_check(route, poly, n, operator, stream)
    return poly


def char_rev(M):
    """det(I - u*M) as an IntPoly, for a square integer matrix.

    ``_cyclic_reduction`` takes M to X with det(I - uM) = det(I - u^d X): the
    period-3 product of a Z/3-graded M (vertex type, edge tail type, chamber
    rotation), else d = 1 and X = M.  The engine's trivial-group case takes
    det(I - tX), whose coefficients are then spread to t = u^d.  The
    self-check compares with M itself, so it also sees a wrong reduction.
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
    d, x = _cyclic_reduction(n, rows, cols, values)
    return _char_rev_reduced("char_rev", d, x, n, lambda: M)


def char_rev_factored(pattern, reference=None):
    """det(I - u*M) as an IntPoly, M the 3mr x 3mr lift of a LabelledMatrix.

    Every entry raises the sheet by one, so det(I - uM) = det(I - u^3 X), X =
    M^3 on sheet 0: the lift over the deck group Z/m of the r x r pattern that
    ``_cube_rows`` walks from the pattern's own entries, labels adding mod m
    along each path.  No lift is built.  The engine takes det(I - tX) over
    the m characters of Z/m, and its coefficients are spread to t = u^3.
    ``reference`` returns the dense operator the self-check compares with, up
    to a relabelling of rows and columns (default: the lift); zeta passes the
    incidence-rule operator or the dense vertex companion, so the check
    compares two independent constructions.
    """
    r, m = pattern.r, pattern.m
    x = _cube_rows(r, m, *_entry_arrays(pattern.entries))
    return _char_rev_reduced("char_rev_factored", 3, x, 3 * m * r, reference or pattern.lift)


def char_rev_interpolated(M):
    """det(I - u*M) by evaluation + interpolation over det_integer.

    Independent slow route used by the tests to cross-check char_rev.
    """
    dense = _as_int_rows(M)
    n = len(dense)
    return _interpolated_det(n + 1, lambda x: [
        [(1 if i == j else 0) - x * dense[i][j] for j in range(n)] for i in range(n)])
