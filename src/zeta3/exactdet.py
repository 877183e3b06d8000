"""Exact determinants of integer and polynomial matrices.

The routes and their parts:

* ``det_integer``      - fraction-free (Bareiss) elimination on Python ints.
* ``_char_rev_by_characters`` - the one modular engine: det(I - u*X) for the
  lift X of an r x r pattern over a cyclic group Z/m, given as the dict
  (i, j, h) -> weight, h in Z/m the label of entry (i, j).  The lift is
  block-circulant over Z/m, so the determinant is the product over the m
  characters of Z/m of r x r twisted determinants.  These are taken modulo
  word-sized primes p = 1 (mod m), where the characters take values in
  GF(p).  The characters fall into Galois orbits {chi^t : t a unit mod m},
  the classes of gcd(c, m) of the characters chi_c (``_character_orbits``),
  and each orbit's product is an integer polynomial of degree at most |O|*r:
  it is recombined by CRT on its own, under the Hadamard-style bound of
  |O|*r rows of norm rho, rho**2 the largest squared row norm of the pattern
  with its group labels collapsed onto their cells.  The kernel work goes as
  the sum of |O|**2, not m**2; the orbit factors are multiplied exactly.
  Exact integer arithmetic throughout, just carried out residue-wise.
* ``_charpolys_mod`` - the one characteristic-polynomial kernel: Hessenberg
  reduction and the standard recurrence, each step run at once on a stack of
  matrices, each slice modulo its own prime.  The reduction delays its row
  operations: up to nb = ``_block_steps(r)`` of them stay pending as a
  product F R and are applied with one int64 matmul and one remainder,
  exact because nb*(p-1)**2 and r*(p-1)**2 stay below 2**63 (p < 2**25).
  No floats and no BLAS.  The engine makes one list of the (orbit, prime,
  character) blocks and hands it over in slices of at most
  ``_CHUNK_ENTRIES`` int64 entries, the kernel's working-set budget.
* ``_cube_rows`` - the one period-3 product.  Every operator of the paper
  raises the vertex type by one, so det(I - uM) = det(I - u^3 X), X = M^3
  on one class of the Z/3 grading.  It walks a Z/m-labelled pattern three
  steps, adding labels mod m, and returns X as the engine's dict; a dense
  matrix is the case m = 1, labels 0.
* ``char_rev`` - det(I - u*M) for an integer matrix: X on the smallest class
  of a grading found in M's pattern (else X = M), over the trivial group.
* ``char_rev_factored`` - det(I - u*M) for the lift M of a voltage-labelled
  pattern (operators.LabelledMatrix), without building the lift: X on sheet
  0 is the lift of an r x r pattern over the deck group Z/m, taken with its
  m characters.
* ``_char_rev_reduced`` - the tail of both routes: engine, spread to u^d, self-check.
* ``_self_check`` - the one self-check of both routes (under ``SELF_CHECK``):
  the unreduced dense operator's characteristic polynomial modulo a prime
  the engine's CRT did not take.

The primes (``polynomials.primes_with_root``) and the CRT
(``polynomials.crt_symmetric``) are shared with the modular gcd.
``det_poly_matrix`` (a matrix of IntPoly, by evaluation at small integers and
Lagrange interpolation), ``char_rev_interpolated`` and ``det_cofactor`` are
independent slow routes kept as test references.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, isqrt

import numpy as np

from .errors import ExactArithmeticError
from .polynomials import IntPoly, crt_symmetric, primes_with_root

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
    ``_charpolys_mod`` for r x r slices: one per 16 rows, at least one."""
    return max(1, r // 16)


def _charpolys_mod(H, p):
    """Coefficients c_0..c_r of det(xI - H_b) over GF(p_b), for every slice b
    of a stack.

    H is a (B, r, r) int64 array with slice b reduced mod p_b, p a length-B
    int64 array of primes below 2**25; H is overwritten.  Returns a (B, r + 1)
    int64 array, lowest degree first.  Each step of the Hessenberg reduction
    and of the recurrence runs on the whole stack at once.

    The reduction is by Gauss transforms, with delayed updates: step k's row
    operation (rows below k + 1 lose multiples of row k + 1) is kept pending,
    as column t of F and row t of R, so that the reduced matrix is
    H - F R.  A step builds only its pivot column and row from that, and
    its column operation (column k + 1 gains H f) as H f - F (R f).  Every
    nb = ``_block_steps(r)`` steps the pending block, that step's included,
    is applied with one product and one remainder over the trailing block,
    instead of a remainder over it at every step.  All of it stays exact in
    int64 with residues below 2**25: a flush sums nb products below 2**50
    and a matrix-vector product r of them.

    Memory beyond H stays a fraction of it: a flush runs in strips of rows,
    and the recurrence keeps its polynomials in the columns of H it has
    read for the last time.
    """
    B, r, _ = H.shape
    p1 = p[:, None]
    p2 = p[:, None, None]
    primes = p.tolist()
    nb = max(1, min(_block_steps(r), r - 2))
    # pending steps s .. k - 1, j = k - s of them: F's column t is written in
    # rows from s + t + 2 and must be zero in rows s + 2 .. s + t + 1; R's row
    # t is written in columns from s + t, and what it holds before them only
    # reaches entries below the subdiagonal, which nothing reads
    F = np.zeros((B, r, nb), dtype=np.int64)
    R = np.zeros((B, nb, r), dtype=np.int64)
    j = 0
    # rows per strip of a flush: its temporaries hold at most a quarter of
    # the working-set budget
    strip = max(1, _CHUNK_ENTRIES // max(1, 4 * B * r))
    for k in range(r - 2):
        below = H[:, k + 1 :, k]
        if j:
            below = (below - np.matmul(F[:, k + 1 :, :j], R[:, :j, k, None])[:, :, 0]) % p1
        # each slice's pivot: the first nonzero of column k below row k; a
        # slice without one keeps row k+1 (a zero) and gets multipliers 0
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
        inv = np.array([pow(a, -1, q) if a else 0
                        for a, q in zip(below[:, 0].tolist(), primes)], dtype=np.int64)
        f = below[:, 1:] * inv[:, None] % p1
        row = H[:, k + 1, k:]
        if j:
            row = (row - np.matmul(F[:, k + 1, None, :j], R[:, :j, k:])[:, 0]) % p1
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
                trailing -= np.matmul(F[:, a : a + strip, : j + 1], R[:, : j + 1, s:])
                trailing %= p2
            F[:, :, 1 : j + 1] = 0
            j = 0
        # column k + 1 gains the reduced matrix times f, less what the
        # pending row operations owe
        col = H[:, :, k + 1]
        col += np.matmul(H[:, :, k + 2 :], f[:, :, None])[:, :, 0]
        if j:
            s = k + 1 - j
            Rf = np.matmul(R[:, :j, k + 2 :], f[:, :, None]) % p2
            col[:, s + 2 :] -= np.matmul(F[:, s + 2 :, :j], Rf)[:, :, 0]
        col %= p1

    # det(xI_k - H_k) by expansion along the last column:
    # p_k = (x - H[k-1,k-1]) p_{k-1}
    #       - sum_{i<k-1} H[i,k-1] * (prod_{j=i}^{k-2} H[j+1,j]) * p_i,
    # with beta[:, i] the product of subdiagonal entries, kept step by step.
    # Step k reads column k-1 for the last time; p_{k-1} (degree k-1, zero
    # past it) then takes its place, so p_0 .. p_{k-2} are H[:, :k-1, :k-1]
    # and need no table of their own.  p_k is formed in the buffer of p_{k-2}.
    neg_diag = -np.diagonal(H, 0, 1, 2)
    beta = np.zeros((B, r), dtype=np.int64)
    prev, poly = np.zeros((2, B, r + 1), dtype=np.int64)
    prev[:, 0] = 1
    for k in range(1, r + 1):
        np.multiply(neg_diag[:, k - 1, None], prev[:, :k], out=poly[:, :k])
        poly[:, 1 : k + 1] += prev[:, :k]
        if k >= 2:
            w = beta[:, : k - 1] * H[:, : k - 1, k - 1] % p1
            poly[:, : k - 1] -= np.matmul(H[:, : k - 1, : k - 1], w[:, :, None])[:, :, 0]
        poly[:, : k + 1] %= p1
        if k < r:
            # beta for step k + 1 takes the subdiagonal entry of column k-1
            beta[:, : k - 1] *= H[:, k, k - 1, None]
            beta[:, k - 1] = H[:, k, k - 1]
            beta[:, :k] %= p1
            H[:, :, k - 1] = prev[:, :r]
        prev, poly = poly, prev
    return prev


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


def _block_norm_sq(r, x):
    """rho**2 = max over pattern rows i of sum_j (sum_h |x[i, j, h]|)**2:
    |M_c[i, j]| is at most that cell sum for every character c, so every
    row of every twisted block has Euclidean norm at most rho."""
    cells = {}
    for (i, j, _h), v in x.items():
        cells[i, j] = cells.get((i, j), 0) + abs(v)
    row_norm_sq = [0] * r
    for (i, _j), s in cells.items():
        row_norm_sq[i] += s * s
    return max(row_norm_sq)


# the kernel's working-set budget: int64 block entries (1 MiB) per call of
# ``_charpolys_mod``.  The stack and the kernel's temporaries (a quarter of
# it at most) grow with it, while a call's interpreter time goes with r
# alone, so the budget takes all 12 primes of a one-orbit 104-row X (dense
# P_B of a q=3 m=2 cover) in one call
_CHUNK_ENTRIES = 1 << 17


def _char_rev_by_characters(r, m, x):
    """(det(I - u*M) as an IntPoly, the rest of its prime stream), M the
    mr x mr lift of an r x r pattern over Z/m.  The stream is
    ``primes_with_root(m)`` past the primes the CRT took, so its next prime
    lies outside the CRT set (``_self_check``).

    The pattern is the dict ``x``: (i, j, h) -> weight, h in Z/m the label
    of entry (i, j).  Modulo a prime p = 1 (mod m) with w of exact order m,
    character c takes the value w**(c*h) on that entry, so the twisted block
    M_c[i, j] = sum over h of x[i, j, h] * w**(c*h).  det(I - uM) is the
    product of det(I - u M_c) over the m characters.

    The characters are split into Galois orbits (``_character_orbits``).  An
    orbit O's product is an integer polynomial: det(I - u D), D the
    block-diagonal of its |O| twisted blocks, whose every row has Euclidean
    norm at most rho (``_block_norm_sq``).  So its coefficients obey
    ``_coefficient_bound(rho**2, |O|*r)``, and it is CRT-combined from the
    shortest prefix of ``primes_with_root(m)`` whose product exceeds that
    bound.  The kernel work goes as the sum of |O|**2 rather than m**2.  The
    orbit factors are multiplied exactly, smallest first.

    The (orbit, prime, character) blocks form one list, orbit by orbit, and
    go through the batched kernel ``_charpolys_mod`` in slices of it: a
    call's interpreter time goes with r, not with the number of blocks (r =
    7 to 104 for the paper's operators), so one call per block would spend
    its time in the interpreter rather than in arithmetic.  A slice holds as
    many blocks as fit ``_CHUNK_ENTRIES`` entries (r*r per block), and at
    least one, and the weights are reduced modulo its primes alone, so
    memory stays bounded however many primes the bounds need.  Each (orbit,
    prime) product accumulates across slices.
    """
    n = m * r
    stream = primes_with_root(m)
    if n == 0:
        return IntPoly.one(), stream
    if r >= 4096:
        # int64 dot products of residues < 2**25 stay exact only below this
        raise ValueError("char_rev supports blocks below 4096 rows")

    norm_sq = _block_norm_sq(r, x)
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

    rows, cols, labels = np.fromiter(chain.from_iterable(x), np.int64, 3 * len(x)).reshape(-1, 3).T
    weights = list(x.values())
    flat = rows * r + cols
    per_orbit = [[np.ones(1, dtype=np.int64)] * take for take in takes]
    size = max(1, _CHUNK_ENTRIES // (r * r))
    for start in range(0, len(blocks), size):
        chunk = blocks[start : start + size]
        # block b is character chars[b] modulo the prime of here[slot[b]]
        _o, t_b, chars = (np.array(v, dtype=np.int64) for v in zip(*chunk))
        ts, slot = np.unique(t_b, return_inverse=True)
        here = [roots[t] for t in ts.tolist()]
        pb = np.array([p for p, _w in here], dtype=np.int64)[slot]
        powers = np.array([[pow(w, e, p) for e in range(m)] for p, w in here], dtype=np.int64)
        wp = np.array([[v % p for v in weights] for p, _w in here], dtype=np.int64)
        values = wp[slot] * powers[slot[:, None], chars[:, None] * labels % m] % pb[:, None]
        stack = np.zeros((len(chunk), r * r), dtype=np.int64)
        np.add.at(stack, (np.arange(len(chunk))[:, None], flat[None, :]), values)
        del wp, values  # as large as the stack: free them before the kernel runs
        stack %= pb[:, None]
        factors = _charpolys_mod(stack.reshape(len(chunk), r, r), pb)
        for (o, t, _c), p, factor in zip(chunk, pb.tolist(), factors):
            # each product term is below p**2 < 2**50 and an output
            # coefficient sums at most r + 1 <= 8192 of them, so int64
            # cannot overflow
            per_orbit[o][t] = np.convolve(per_orbit[o][t], factor[::-1]) % p

    primes = [p for p, _w in roots]
    parts = sorted((IntPoly(crt_symmetric(residues, primes[: len(residues)]))
                    for residues in per_orbit), key=lambda f: f.degree)
    poly = parts[0]
    for part in parts[1:]:
        poly = poly * part

    # the lift's diagonal holds, m times, the diagonal entries of label 0
    trace = m * sum(x.get((i, i, 0), 0) for i in range(r))
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


def _type_grading(n, keys):
    """Labels g in Z/3 of 0..n-1 with g(j) = g(i) + 1 on every (i, j) in keys,
    or None when there are none.

    A graph search over the pattern, each component started at label 0.
    """
    steps = [[] for _ in range(n)]
    for i, j in keys:
        steps[i].append((j, 1))
        steps[j].append((i, 2))
    g = [None] * n
    for start in range(n):
        if g[start] is not None:
            continue
        g[start] = 0
        stack = [start]
        while stack:
            i = stack.pop()
            for j, step in steps[i]:
                want = (g[i] + step) % 3
                if g[j] is None:
                    g[j] = want
                    stack.append(j)
                elif g[j] != want:
                    return None
    return g


def _cube_rows(r, m, entries, starts):
    """X = M^3 on sheet 0, restricted to the nodes ``starts`` of deck 0 and
    their translates, as a dict (a, b, h) -> nonzero weight formed exactly in
    Python ints: the entry from starts[a] to deck h of starts[b].

    M is the lift of an r x r pattern over the sheets Z/3 and the deck group
    Z/m whose every entry raises the sheet by one; ``entries`` maps (i, j, h),
    h in Z/m, to the weight of the entries from (sheet s, deck g, row i) to
    (s + 1, g + h, j).  The walk takes three steps from each (0, 0, i) along
    the pattern's entries, adding labels mod m, and must end on ``starts``;
    entries that cancel are dropped.  Dense char_rev is the case m = 1 with
    every label 0, where X is M^3 on one class of a Z/3 grading.
    """
    index = {i: a for a, i in enumerate(starts)}
    # the successors of node k = g * r + i, one sheet up
    out_of = [[] for _ in range(m * r)]
    for (i, j, h), v in entries.items():
        for g in range(m):
            out_of[g * r + i].append(((g + h) % m * r + j, v))
    x = {}
    for a, i in enumerate(starts):
        row = {i: 1}
        for _ in range(3):
            step = {}
            for j, c in row.items():
                for k, v in out_of[j]:
                    step[k] = step.get(k, 0) + c * v
            row = step
        for k, c in row.items():
            if c:
                x[a, index[k % r], k // r] = c
    return x


def _cyclic_reduction(n, entries):
    """(d, r, X): det(I - uM) = det(I - u^d X) for X an r x r matrix.

    When M's pattern carries a Z/3 grading with classes V_0, V_1, V_2, M maps
    V_t into V_(t+1) by blocks B_t, and Sylvester's identity
    det(I - AB) = det(I - BA) gives det(I - uM) = det(I - u^3 B_t B_(t+1) B_(t+2));
    X is that product on the smallest class, i.e. M^3 restricted to it
    (``_cube_rows``).  Without a grading, d = 1 and X = M.  ``entries`` maps
    (row, col) to an integer; X is the engine's dict, every label 0.
    """
    labelled = {(i, j, 0): v for (i, j), v in entries.items()}
    grading = _type_grading(n, entries)
    if grading is None:
        return 1, n, labelled
    keep = min(([i for i, g in enumerate(grading) if g == t] for t in range(3)), key=len)
    return 3, len(keep), _cube_rows(n, 1, labelled, keep)


def _char_rev_reduced(route, d, r, m, x, n, operator):
    """det(I - u*M) = det(I - u^d X) for both routes: det(I - tX) from the
    engine (X r x r over Z/m), its coefficients spread to t = u^d, then
    (under ``SELF_CHECK``) compared with operator(), the unreduced n x n M."""
    reduced, stream = _char_rev_by_characters(r, m, x)
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
        n, entries = M.n, M.entries
    else:
        dense = _as_int_rows(M)
        n = len(dense)
        entries = {(i, j): v for i, row in enumerate(dense) for j, v in enumerate(row) if v}
    d, r, x = _cyclic_reduction(n, entries)
    return _char_rev_reduced("char_rev", d, r, 1, x, n, lambda: M)


def char_rev_factored(pattern, reference=None):
    """det(I - u*M) as an IntPoly, M the 3mr x 3mr lift of a LabelledMatrix.

    Every entry raises the sheet by one, so det(I - uM) = det(I - u^3 X), X =
    M^3 on sheet 0: the lift over the deck group Z/m of the r x r pattern that
    ``_cube_rows`` walks from the pattern's own entries, labels adding mod m
    along each path; entries that cancel are dropped.  No lift is built.  The
    engine takes det(I - tX) over the m characters of Z/m, and its
    coefficients are spread to t = u^3.  ``reference`` returns the dense
    operator the self-check compares with, up to a relabelling of rows and
    columns (default: the lift); zeta passes the incidence-rule operator or
    the dense vertex companion, so the check compares two independent
    constructions.
    """
    r, m = pattern.r, pattern.m
    x = _cube_rows(r, m, pattern.entries, range(r))
    return _char_rev_reduced("char_rev_factored", 3, r, m, x, 3 * m * r,
                             reference or pattern.lift)


def char_rev_interpolated(M):
    """det(I - u*M) by evaluation + interpolation over det_integer.

    Independent slow route used by the tests to cross-check char_rev.
    """
    dense = _as_int_rows(M)
    n = len(dense)
    return _interpolated_det(n + 1, lambda x: [
        [(1 if i == j else 0) - x * dense[i][j] for j in range(n)] for i in range(n)])
