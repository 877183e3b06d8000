import math
import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta3 import exactdet, polynomials
from zeta3.errors import ExactArithmeticError
from zeta3.exactdet import (
    _lagrange_integer,
    char_rev,
    char_rev_interpolated,
    char_rev_labelled,
    det_cofactor,
    det_integer,
    det_poly_matrix,
)
from zeta3.operators import _weights
from zeta3.polynomials import PRIME_CAP, IntPoly, _is_probable_prime, primes_with_root

from generator_rules import LabelledMatrix, char_rev_pattern, three_sheets


def square_matrix(n, lo=-9, hi=9, seed=0):
    rng = random.Random(seed)
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def test_det_identity():
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert det_integer(eye) == 1


def test_det_2x2():
    assert det_integer([[1, 2], [3, 4]]) == -2


def test_det_singular():
    assert det_integer([[1, 2], [2, 4]]) == 0


def test_det_needs_square():
    with pytest.raises(ValueError):
        det_integer([[1, 2]])


@pytest.mark.parametrize("seed", range(8))
def test_det_random_vs_cofactor(seed):
    m = square_matrix(6, seed=seed)
    assert det_integer(m) == det_cofactor(m)


@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_det_property_vs_cofactor(m):
    assert det_integer(m) == det_cofactor(m)


# -- polynomial-matrix determinants ----------------------------------------


def test_det_poly_single_entry():
    assert det_poly_matrix([[IntPoly([1, -1])]]) == IntPoly([1, -1])


def test_det_poly_diagonal():
    m = [
        [IntPoly([1, -1]), IntPoly.zero()],
        [IntPoly.zero(), IntPoly([1, 1])],
    ]
    assert det_poly_matrix(m) == IntPoly([1, 0, -1])


def test_det_poly_rejects_high_degree():
    with pytest.raises(ValueError):
        det_poly_matrix([[IntPoly([1, 0, 0, 0, 5])]])


def test_lagrange_rejects_non_integer():
    # points of (u^2 + u)/2: integer values, non-integer coefficients
    with pytest.raises(ExactArithmeticError):
        _lagrange_integer([0, 1, 2], [0, 1, 3])


# -- reverse characteristic polynomials -------------------------------------


def test_char_rev_zero_matrix():
    assert char_rev([[0, 0], [0, 0]]) == IntPoly.one()


def test_char_rev_1x1():
    assert char_rev([[2]]) == IntPoly([1, -2])


def test_char_rev_small_known():
    # det(I - u [[1,1],[0,1]]) = (1-u)^2
    assert char_rev([[1, 1], [0, 1]]) == IntPoly([1, -2, 1])


@pytest.mark.parametrize("n,seed", [(3, 1), (5, 2), (8, 3), (8, 4)])
def test_char_rev_vs_interpolated(n, seed):
    m = square_matrix(n, lo=-4, hi=4, seed=seed)
    assert char_rev(m) == char_rev_interpolated(m)


@pytest.mark.parametrize("seed", range(5))
def test_char_rev_transpose_invariant(seed):
    m = square_matrix(7, lo=-3, hi=3, seed=seed)
    mt = [list(row) for row in zip(*m)]
    assert char_rev(m) == char_rev(mt)


def test_char_rev_value_matches_direct_det():
    m = square_matrix(6, seed=11)
    p = char_rev(m)
    for x in (1, -2, 3):
        direct = det_integer(
            [[(1 if i == j else 0) - x * m[i][j] for j in range(6)] for i in range(6)]
        )
        assert p(x) == direct


def test_char_rev_vs_interpolated_on_chamber_operator(base2):
    # full cross-check of the modular route at a production size
    from zeta3.operators import build_lb

    lb = build_lb(base2).negated()
    assert char_rev(lb) == char_rev_interpolated(lb.to_dense())


def test_char_rev_repeated_eigenvalues():
    # block diag of two equal companion blocks: char poly is a square
    block = [[0, -1], [1, 2]]  # char (x-1)^2
    m = [[0] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            m[i][j] = block[i][j]
            m[i + 2][j + 2] = block[i][j]
    assert char_rev(m) == IntPoly([1, -1]) ** 4


@pytest.mark.parametrize("seed", range(3))
def test_char_rev_block_multiplicative(seed):
    a = square_matrix(5, lo=-6, hi=6, seed=seed)
    b = square_matrix(4, lo=-6, hi=6, seed=seed + 100)
    m = [[0] * 9 for _ in range(9)]
    for i in range(5):
        for j in range(5):
            m[i][j] = a[i][j]
    for i in range(4):
        for j in range(4):
            m[i + 5][j + 5] = b[i][j]
    assert char_rev(m) == char_rev(a) * char_rev(b)


def test_char_rev_self_check_catches_wrong_result(monkeypatch):
    # bump the top coefficient of det(I - uM): the cf(0)/cf(1) consistency
    # checks cannot see it, the modular check on M must
    m = square_matrix(5, seed=14)
    before = exactdet.SELF_CHECK_CALLS
    char_rev(m)
    assert exactdet.SELF_CHECK_CALLS == before + 1
    crt = exactdet.crt_symmetric

    def bumped(rows, primes):
        coeffs = crt(rows, primes)
        coeffs[-1] += 1  # det(I - uM) lowest degree first: the u^n coefficient
        return coeffs

    monkeypatch.setattr(exactdet, "crt_symmetric", bumped)
    for k in (2, 3):
        with pytest.raises(ExactArithmeticError, match="char_rev self-check failed"):
            char_rev(m)
        assert exactdet.SELF_CHECK_CALLS == before + k


def test_char_rev_wide_entries():
    m = square_matrix(12, lo=-50, hi=50, seed=77)
    assert char_rev(m) == char_rev_interpolated(m)


def test_char_rev_entries_beyond_int64():
    # weights are reduced modulo each prime as Python ints, so entries of any
    # size take the same route as small ones
    m = square_matrix(5, lo=-9, hi=9, seed=21)
    m[0][0] = 3 * (1 << 63) + 5
    m[1][3] = -(1 << 70) - 1
    m[4][2] = (1 << 64)
    assert char_rev(m) == char_rev_interpolated(m)


@pytest.mark.parametrize("big", [1 << 20, 3 * (1 << 63) + 5])
def test_char_rev_graded_entries_beyond_int64(big):
    # a Z/3-graded matrix takes the period-3 product: with an entry of 2**20
    # the products' bound (largest weight times most entries of a row, cubed)
    # leaves a double's exact range, and 3 * 2**63 + 5 does not fit int64, so
    # both products run on Python ints, and X reaches the engine as them
    m = block_cyclic((3, 4, 3), 40, density=0.8)
    i, j = next((i, j) for i in range(len(m)) for j in range(len(m)) if m[i][j])
    m[i][j] = big
    m[j if m[j][i] == 0 else i][i] = 0  # keep the grading: no entry back
    d, x = reduce_dense(m)
    assert d == 3 and x.dtype == object
    assert (max(abs(v) for v in x.ravel().tolist()) > 1 << 63) == (big > 1 << 63)
    assert char_rev(m) == char_rev_interpolated(m)


# -- character-factored reverse characteristic polynomials ------------------


@pytest.mark.parametrize("k", [1, 3, 6, 21, 24])
def test_primes_with_root(k):
    pairs = []
    for pair in primes_with_root(k):
        pairs.append(pair)
        if len(pairs) == 12:
            break
    primes = [p for p, _w in pairs]
    assert primes == sorted(primes, reverse=True) and len(set(primes)) == 12
    for p, w in pairs:
        assert _is_probable_prime(p) and p < PRIME_CAP and (p - 1) % k == 0
        assert pow(w, k, p) == 1
        assert all(pow(w, d, p) != 1 for d in range(1, k))
    if k == 1:
        assert all(w == 1 for _p, w in pairs)
        odd = [n for n in range(PRIME_CAP, PRIME_CAP - 2000, -2) if _is_probable_prime(n)]
        assert primes == odd[:12]


@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("rows", [exactdet._FLOAT_MIN_ROWS, 4095])
def test_primes_with_root_below_a_limit(k, rows):
    # the float64 kernel's stream: primes below its limit, from a table of its
    # own, so it never searches the ~10**6 primes between the limit and 2**25
    limit = exactdet._float_prime_limit(rows)
    assert limit == {exactdet._FLOAT_MIN_ROWS: 1 << 24, 4095: 1 << 21}[rows]
    pairs = [pair for pair, _ in zip(primes_with_root(k, limit), range(12))]
    primes = [p for p, _w in pairs]
    assert primes == sorted(primes, reverse=True) and len(set(primes)) == 12
    for p, w in pairs:
        assert _is_probable_prime(p) and p < limit and (p - 1) % k == 0
        assert pow(w, k, p) == 1 and all(pow(w, d, p) != 1 for d in range(1, k))
    if k == 1:
        odd = [n for n in range(limit - 1, limit - 2000, -2) if _is_probable_prime(n)]
        assert primes == odd[:12]
    assert set(primes) <= set(polynomials._PRIME_TABLES[limit])
    assert all(p > 1 << 24 for p in polynomials._PRIME_TABLES.get(PRIME_CAP, []))


def fresh_primes_with_root(k, limit):
    """The stream primes_with_root(k, limit) promises, searched afresh:
    every odd n below limit, descending, that is prime and 1 mod k, with the
    first a**((n - 1)/k), a = 2, 3, ..., of exact order k."""
    for n in range((limit - 2) | 1, 2, -2):
        if (n - 1) % k or not _is_probable_prime(n):
            continue
        for a in range(2, n):
            w = pow(a, (n - 1) // k, n)
            if all(pow(w, d, n) != 1 for d in range(1, k) if k % d == 0):
                yield n, w
                break


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8])
@pytest.mark.parametrize("rows", [7, exactdet._FLOAT_MIN_ROWS, 128])
def test_memoised_primes_with_root_match_a_fresh_search(k, rows, monkeypatch):
    # at the engine's limits (PRIME_CAP, 2**24 and 2**23): a stream read past
    # the table's end extends it, and a second stream reads the same pairs
    # without searching for w again
    limit = exactdet._float_prime_limit(rows)
    head = list(islice(primes_with_root(k, limit), 3))
    searches = []
    root = polynomials._root_of_order
    monkeypatch.setattr(polynomials, "_root_of_order",
                        lambda k, p: searches.append(p) or root(k, p))
    stream = primes_with_root(k, limit)
    longer = list(islice(stream, 40))
    expected = list(islice(fresh_primes_with_root(k, limit), 41))
    assert longer[:3] == head and longer == expected[:40]
    found = len(searches)
    assert list(islice(primes_with_root(k, limit), 40)) == longer and len(searches) == found
    # the first stream goes on past every pair the table holds, and no
    # prime's w is searched twice
    assert next(stream) == expected[40] and len(set(searches)) == len(searches)


def random_pattern(r, m, seed, nnz=None, lo=-3, hi=3):
    rng = random.Random(seed)
    pattern = LabelledMatrix(r, m)
    for _ in range(nnz or 2 * r):
        pattern.add(rng.randrange(r), rng.randrange(r), rng.randrange(m), rng.randint(lo, hi))
    return pattern


@pytest.mark.parametrize("r,m,seed", [(1, 1, 0), (3, 1, 1), (4, 2, 2), (3, 5, 3), (5, 4, 4)])
def test_char_rev_factored_vs_dense_lift(r, m, seed):
    pattern = random_pattern(r, m, seed)
    assert char_rev_pattern(pattern) == char_rev(pattern.lift())


def test_char_rev_factored_wide_weights():
    pattern = random_pattern(4, 3, 9, nnz=12, lo=-60, hi=60)
    assert char_rev_pattern(pattern) == char_rev(pattern.lift())


def test_char_rev_factored_empty_pattern():
    assert char_rev_pattern(LabelledMatrix(3, 2)) == IntPoly.one()
    assert char_rev_pattern(LabelledMatrix(0, 2)) == IntPoly.one()


def test_char_rev_factored_self_check_counted():
    before = exactdet.SELF_CHECK_CALLS
    char_rev_pattern(random_pattern(3, 2, 5))
    assert exactdet.SELF_CHECK_CALLS == before + 1


def test_char_rev_factored_self_check_rejects_other_operator():
    pattern = random_pattern(3, 2, 6)
    other = pattern.lift().with_increment(0, 1)
    with pytest.raises(ExactArithmeticError):
        char_rev_pattern(pattern, lambda: other)


def add_modulus_to_top(monkeypatch, compute):
    """Patch the engine's CRT so that every orbit factor recombined from all
    of a call's primes gets its CRT modulus added to its top coefficient.

    The result is then off by a nonzero multiple of that modulus, so every
    CRT prime sees the right residues."""
    crt = exactdet.crt_symmetric
    calls = []
    monkeypatch.setattr(exactdet, "crt_symmetric",
                        lambda rows, primes: calls.append(primes) or crt(rows, primes))
    right = compute()
    primes = max(calls, key=len)

    def bumped(rows, used):
        coeffs = crt(rows, used)
        if len(used) == len(primes):
            coeffs[-1] += math.prod(used)
        return coeffs

    monkeypatch.setattr(exactdet, "crt_symmetric", bumped)
    monkeypatch.setattr(exactdet, "SELF_CHECK", False)
    error = compute() - right
    monkeypatch.setattr(exactdet, "SELF_CHECK", True)
    assert not error.is_zero() and all(c % p == 0 for c in error.coeffs for p in primes)


def spy_kernels(monkeypatch, record):
    """Wrap both characteristic-polynomial kernels so that record(name, H, p)
    sees every call, with the kernel's name, before the kernel runs."""
    for name in ("_charpolys_power_sums", "_charpolys_mod"):
        monkeypatch.setattr(exactdet, name, lambda H, p, name=name, kernel=getattr(exactdet, name):
                            record(name, H, p) or kernel(H, p))


@pytest.mark.parametrize("route", ["char_rev", "char_rev_factored", "char_rev_float64"])
def test_self_check_prime_lies_outside_the_crt_set(monkeypatch, route):
    # char_rev_float64: an ungraded matrix of _FLOAT_MIN_ROWS rows, whose
    # engine runs the float64 Hessenberg kernel; the other two run the
    # power-sum kernel, and every self-check the int64 Hessenberg kernel
    float_rows = exactdet._FLOAT_MIN_ROWS
    compute = {
        "char_rev": lambda: char_rev(square_matrix(5, seed=14)),
        "char_rev_factored": lambda: char_rev_pattern(random_pattern(3, 2, 5)),
        "char_rev_float64": lambda: char_rev(square_matrix(float_rows, lo=-1, hi=1, seed=15)),
    }[route]
    calls = []
    spy_kernels(monkeypatch, lambda name, H, p: calls.append((name, H.dtype.name)))
    add_modulus_to_top(monkeypatch, compute)
    calls.clear()
    with pytest.raises(ExactArithmeticError, match="char_rev self-check failed"):
        compute()
    engine = "_charpolys_mod" if route == "char_rev_float64" else "_charpolys_power_sums"
    assert set(calls[:-1]) == {(engine, "float64")}
    assert calls[-1] == ("_charpolys_mod", "int64")


# -- the period-3 product and the Galois orbits of Z/m ------------------------


def engine_inputs(monkeypatch):
    """The labelled array X of every ``_char_rev_by_characters`` call."""
    engine = exactdet._char_rev_by_characters
    calls = []
    monkeypatch.setattr(exactdet, "_char_rev_by_characters",
                        lambda x: calls.append(x) or engine(x))
    return calls


def as_dict(x):
    """The engine's (r, r, m) labelled array as the dict (i, j, h) -> weight
    of its nonzero entries."""
    return {key: int(v) for key, v in np.ndenumerate(x) if v}


def test_period3_product_zeroes_cancelled_entries(monkeypatch):
    # two length-3 paths from row 0 back to row 0, both of label 2 and of
    # weights +2 and -2: 0 -> 1 -> 2 -> 0 and 0 -> 3 -> 2 -> 0
    m = 3
    pattern = LabelledMatrix(4, m, {
        (0, 1, 1): 1, (1, 2, 0): 1, (0, 3, 0): 1, (3, 2, 1): -1, (2, 0, 1): 2,
        (1, 1, 2): 1, (2, 3, 0): -1, (3, 0, 2): 1,
    })
    calls = engine_inputs(monkeypatch)
    assert char_rev_pattern(pattern) == char_rev_interpolated(pattern.lift())
    x, = calls
    assert x.shape == (4, 4, m) and x.dtype == np.int64
    assert x[0, 0, 2] == 0 and (0, 0, 2) not in as_dict(x)
    # every (i, j, h) of X, zeros included, is the dense period-3 product of
    # the lift from sheet 0 to deck h of sheet 0
    lifted = pattern.lift()
    cube = np.linalg.matrix_power(np.array(lifted.to_dense(), dtype=np.int64), 3)
    assert cube[0, 2 * 4] == 0
    for (i, j, h), v in np.ndenumerate(x):
        assert cube[i, h * 4 + j] == v


@pytest.mark.parametrize("m,seed,hi,dtype", [
    (1, 40, 3, np.int64),
    (3, 41, 3, np.int64),
    (7, 42, 60, np.int64),
    (2, 43, 1 << 20, object),   # int64 weights whose cube outgrows 2**53
    (3, 44, 1 << 70, object),   # weights beyond int64
])
def test_cube_rows_sums_repeated_entries(m, seed, hi, dtype):
    # a pattern over Z/3 x Z/m given entry by entry, half its entries given a
    # second time and a quarter a third time, split in two: the period-3
    # product from the path table (float64 weights under the bound, Python
    # ints beyond) sums the entries that repeat a (row, col, label), as the
    # lift does and as the parallel edges of a base quotient's A1 need; the
    # dense product of the unlabelled pattern sums repeated (row, col)s, and
    # is X with its labels collapsed
    r = 6
    rng = random.Random(seed)
    entries = [(rng.randrange(r), rng.randrange(r), rng.randrange(m), rng.randint(-hi, hi))
               for _ in range(4 * r)]
    entries += entries[: 2 * r] + [(i, j, h, v - 1) for i, j, h, v in entries[: r]]
    entries += [(i, j, h, 1) for i, j, h, _v in entries[: r]]
    pattern = LabelledMatrix(r, m)
    for entry in entries:
        pattern.add(*entry)
    rows, cols, labels, values, classes = three_sheets(r, entries)
    assert len(set(zip(rows.tolist(), cols.tolist(), labels.tolist()))) < len(rows)
    x = exactdet._path_product(exactdet.path_table(3 * r, rows, cols, values, classes),
                               m, labels)
    s_rows, s_cols, s_labels, s_values, _classes = three_sheets(
        r, [(*key, v) for key, v in pattern.entries.items()])
    once = exactdet._path_product(exactdet.path_table(3 * r, s_rows, s_cols, s_values, classes),
                                  m, s_labels)
    assert x.dtype == once.dtype == dtype
    assert x.shape == (r, r, m) and x.tolist() == once.tolist()
    dense = exactdet._cube_rows(3 * r, rows, cols, values, classes)
    assert dense.dtype == dtype and dense[:, :, 0].tolist() == x.sum(axis=2).tolist()
    det = char_rev_labelled(3 * r, m, rows, cols, labels, values, classes, pattern.lift)
    assert det == char_rev(pattern.lift())


@pytest.mark.parametrize("m,sizes", [
    (3, [1, 2]),           # Z/3: the trivial character and the pair of order 3
    (7, [1, 6]),           # Z/7: one orbit per order 1, 7
    (8, [1, 1, 2, 4]),     # Z/8: one orbit per divisor of 8
])
def test_character_orbits_partition(m, sizes):
    orbits = exactdet._character_orbits(m)
    assert sorted(c for orbit in orbits for c in orbit) == list(range(m))
    assert sorted(len(orbit) for orbit in orbits) == sizes
    units = [t for t in range(1, m + 1) if math.gcd(t, m) == 1]
    for orbit in orbits:
        assert set(orbit) == {t * orbit[0] % m for t in units}


def shared_cell_entries(r, m, seed, lo=-5, hi=5):
    """A random r x r pattern over Z/m as the engine takes it, the dict
    (i, j, h) -> weight, whose cell (0, 1) carries two more entries: weight
    -hi of label 0 and weight hi - 1 of label m - 1 (the same label at m = 1).
    Entries that meet on one key are summed."""
    rng = random.Random(seed)
    entries = [(rng.randrange(r), rng.randrange(r), rng.randrange(m), rng.randint(lo, hi))
               for _ in range(2 * r)]
    entries += [(0, 1, 0, -hi), (0, 1, m - 1, hi - 1)]
    x = {}
    for i, j, h, v in entries:
        x[i, j, h] = x.get((i, j, h), 0) + v
    return x


def labelled_array(r, m, x):
    """The engine's (r, r, m) array of a pattern given as a dict."""
    keys = np.array(list(x), dtype=np.int64).reshape(-1, 3)
    values = np.array(list(x.values()), dtype=np.int64)
    return exactdet._labelled_array(r, m, *keys.T, values)


def cyclic_lift(r, m, x):
    """The mr x mr dense lift over Z/m: entry (g*r + i, (g + h)*r + j)."""
    lifted = [[0] * (m * r) for _ in range(m * r)]
    for g in range(m):
        for (i, j, h), v in x.items():
            lifted[g * r + i][(g + h) % m * r + j] += v
    return lifted


@pytest.mark.parametrize("m,seed", [(1, 30), (3, 31), (8, 32)])
def test_block_norm_bounds_every_character(m, seed):
    x = shared_cell_entries(3, m, seed)
    norm_sq = exactdet._block_norm_sq(labelled_array(3, m, x))
    # row 0 collapses its cell (0, 1): the bound is the collapsed row's norm
    collapsed = {}
    for (i, j, _h), v in x.items():
        collapsed[i, j] = collapsed.get((i, j), 0) + abs(v)
    assert norm_sq == max(sum(s * s for (i, _j), s in collapsed.items() if i == row)
                          for row in range(3))
    # and above the lifted operator's largest row norm, which ignores the
    # sharing; at m = 1 the cell's two entries are one key, nothing is
    # shared, and the bound is exactly that norm
    lifted = np.array(cyclic_lift(3, m, x))
    if m == 1:
        assert norm_sq == (lifted ** 2).sum(axis=1).max()
    else:
        assert norm_sq > (lifted ** 2).sum(axis=1).max()
    # every twisted block over the complex characters of Z/m stays within it
    for c in range(m):
        block = np.zeros((3, 3), dtype=complex)
        for (i, j, h), v in x.items():
            block[i, j] += v * np.exp(2j * np.pi * c * h / m)
        assert (np.abs(block) ** 2).sum(axis=1).max() <= norm_sq + 1e-9


@pytest.mark.parametrize("r,m,seed", [(2, 1, 10), (3, 2, 11), (2, 3, 12), (2, 4, 13), (2, 5, 14),
                                      (exactdet._FLOAT_MIN_ROWS, 3, 15)])
def test_orbit_engine_vs_dense_routes(monkeypatch, r, m, seed):
    # the small cases take the power-sum kernel; the last builds twisted
    # blocks of a nontrivial group for the float64 Hessenberg kernel, and
    # its 192-row lift is beyond the interpolated route, so the dense route
    # over the trivial group is the reference there
    x = shared_cell_entries(r, m, seed)
    lifted = cyclic_lift(r, m, x)
    kernels = set()
    spy_kernels(monkeypatch, lambda name, H, p: kernels.add((name, H.dtype.name)))
    engine, _stream = exactdet._char_rev_by_characters(labelled_array(r, m, x))
    hessenberg = r >= exactdet._FLOAT_MIN_ROWS
    assert kernels == {("_charpolys_mod" if hessenberg else "_charpolys_power_sums", "float64")}
    assert engine == char_rev(lifted)
    if not hessenberg:
        assert engine == char_rev_interpolated(lifted)


@pytest.mark.parametrize("m", [3, 8])
def test_orbit_engine_wide_weights(m):
    # weights up to 80, one cell carrying two labels
    x = shared_cell_entries(4, m, 20 + m, lo=-80, hi=80)
    engine, _stream = exactdet._char_rev_by_characters(labelled_array(4, m, x))
    assert engine == char_rev(cyclic_lift(4, m, x))


def test_orbit_engine_group_entries_beyond_int64(monkeypatch):
    # an entry of 3 * 2**63 + 5 at m = 3: the period-3 product runs on Python
    # ints, and the engine reduces X's object array modulo each prime before
    # building the twisted blocks of the characters of Z/3
    pattern = random_pattern(3, 3, 16)
    pattern.add(0, 1, 2, 3 * (1 << 63) + 5)
    calls = engine_inputs(monkeypatch)
    assert char_rev_pattern(pattern) == char_rev_interpolated(pattern.lift())
    x, = calls
    assert x.shape == (3, 3, 3) and x.dtype == object
    assert max(abs(v) for v in x.ravel().tolist()) > 1 << 63


@pytest.mark.parametrize("m", [1, 2, 7, 8191])
def test_powers_mod_matches_pow(m):
    roots = list(islice(primes_with_root(m), 3))
    w = np.array([w for _p, w in roots], dtype=np.int64)
    p = np.array([p for p, _w in roots], dtype=np.int64)
    e = np.arange(m)
    table = exactdet._powers_mod(w, e, p)
    assert table.tolist() == [[pow(a, k, q) for k in range(m)] for q, a in roots]
    # w has exact order m: its powers below m are distinct
    assert all(len(set(row)) == m for row in table.tolist())


@pytest.mark.parametrize("beyond", [False, True])
def test_orbit_engine_entries_at_and_beyond_the_label_bound(beyond):
    # int64 entries as large as an unreduced int64 product with the first
    # prime's powers of w allows, and one more: far beyond the float64
    # bound, so every prime takes its own int64 product of the entries
    # reduced mod that prime
    r, m = 2, 3
    p, _w = next(primes_with_root(m, exactdet._float_prime_limit(r)))
    big = ((1 << 63) - 1) // ((p - 1) * m) + beyond
    x = {(0, 1, 2): big, (1, 0, 1): -big, (1, 1, 0): 3, (0, 0, 2): 1}
    engine, _stream = exactdet._char_rev_by_characters(labelled_array(r, m, x))
    assert engine == char_rev_interpolated(cyclic_lift(r, m, x))


@pytest.mark.parametrize("m", [1, 2, 7, 8191])
def test_twisted_blocks_float_route_matches_int64_route(m):
    # a block entry sums m terms, an entry times a residue below p, so its
    # partial sums stay below top * max(p), top m times the largest |entry|:
    # one float64 product while that is below 2**53, the int64 product from
    # there and for Python ints.  Entries at the bound and one more, against
    # Python-int products; for m > 1 a column of extreme entries takes its
    # sums to about half the bound
    r = 2
    roots = list(islice(primes_with_root(m, exactdet._float_prime_limit(r)), 3))
    p = np.repeat(np.array([q for q, _w in roots], dtype=np.int64), 2)
    w = np.repeat(np.array([a for _q, a in roots], dtype=np.int64), 2)
    # two characters a prime, the trivial one at m = 1 (a column of ones)
    characters = np.tile([1 % m, m - 1], 3)
    powers = exactdet._powers_mod(w, np.arange(m), p)
    table = powers[np.arange(len(p))[:, None], characters[:, None] * np.arange(m) % m]
    if m == 1:
        assert table.tolist() == [[1]] * len(p)
    most = ((1 << 53) - 1) // (int(p.max()) * m)
    rng = np.random.default_rng(m)
    for extra in (0, 1):
        flat = rng.integers(-most, most + 1, size=(m, r * r))
        flat[:, 0], flat[:, -1] = most + extra, -most - extra
        top = (most + extra) * m
        assert (top * int(p.max()) < 1 << 53) is not extra
        expected = (table.astype(object) @ flat.astype(object)) % p.astype(object)[:, None]
        for x, x_top in ((flat, top), (flat.astype(object), None)):
            stack = exactdet._twisted_blocks(x, x_top, table, p)
            assert stack.dtype == np.float64 and stack.shape == (len(p), r * r)
            assert (np.abs(stack) <= (p[:, None] + 1) // 2).all()
            residues = np.remainder(stack.astype(np.int64), p[:, None])
            assert residues.tolist() == expected.tolist()


def test_orbit_engine_rejects_groups_beyond_int64_sums():
    # a block entry sums m products of residues below 2**25 in int64, exact
    # only for m below 8192; the check comes before any prime is taken
    with pytest.raises(ValueError, match="groups of order below 8192"):
        exactdet._char_rev_by_characters(np.zeros((1, 1, 8192), dtype=np.int64))


def test_orbit_engine_equal_characters(monkeypatch):
    # every label even, m = 4: the labels do not generate Z/4, and the
    # characters 0 and 2, and 1 and 3, agree on every entry, yet the orbits
    # stay the gcd classes {0}, {1, 3}, {2}
    pattern = LabelledMatrix(3, 4)
    for i, j, h, v in [(0, 1, 0, 2), (1, 2, 2, -3), (2, 0, 2, 1), (0, 0, 2, -1), (2, 0, 0, 4)]:
        pattern.add(i, j, h, v)
    calls = engine_inputs(monkeypatch)
    assert char_rev_pattern(pattern) == char_rev_interpolated(pattern.lift())
    assert all(h % 2 == 0 for _i, _j, h in as_dict(calls[0]))
    assert exactdet._character_orbits(4) == [[0], [1, 3], [2]]


# -- batched modular characteristic polynomials ------------------------------


def charpoly_reference(block, p):
    """Coefficients of det(xI - block) mod p, lowest degree first, from
    char_rev_interpolated of the slice."""
    rev = char_rev_interpolated(block)
    return [rev.cf(d) % p for d in range(len(block) + 1)][::-1]


# Hessenberg steps per block of delayed updates the kernel cases run at: every
# step at once, short blocks, the kernel's own choice (None), and one block
# longer than any reduction
BLOCK_STEPS = (1, 2, 3, None, 1 << 20)


def kernel_stack(blocks, primes, dtype):
    """The stack of ``blocks`` (residues in [0, p)) as the kernel takes it:
    int64 as given, float64 as balanced residues."""
    r = len(blocks[0])
    stack = np.array(blocks, dtype=np.int64).reshape(len(blocks), r, r)
    if dtype == np.float64:
        p = np.array(primes, dtype=np.int64)[:, None, None]
        stack = np.where(stack > p // 2, stack - p, stack).astype(np.float64)
    return stack


def run_kernel(blocks, primes, steps, dtype=np.int64):
    """_charpolys_mod of a fresh stack of ``dtype``, ``steps`` steps per
    block of delayed updates (None: ``exactdet._block_steps``)."""
    stack = kernel_stack(blocks, primes, dtype)
    with pytest.MonkeyPatch.context() as mp:
        if steps is not None:
            mp.setattr(exactdet, "_block_steps", lambda _r: steps)
        return exactdet._charpolys_mod(stack, np.array(primes, dtype=np.int64))


def assert_kernel_matches(blocks, primes, reference=True):
    """Immediate updates on the int64 stack match the reference (when
    ``reference``), and every block length of BLOCK_STEPS gives output
    bit-identical to them, on the int64 stack and, when every prime lies
    below the float64 kernel's limit for the block size, on the float64
    stack."""
    r = len(blocks[0])
    immediate = run_kernel(blocks, primes, 1)
    assert immediate.shape == (len(blocks), r + 1) and immediate.dtype == np.int64
    if reference:
        for row, block, p in zip(immediate.tolist(), blocks, primes):
            assert row == charpoly_reference(block, p)
    dtypes = [np.int64]
    if max(primes) < exactdet._float_prime_limit(r):
        dtypes.append(np.float64)
    for dtype in dtypes:
        for steps in BLOCK_STEPS:
            out = run_kernel(blocks, primes, steps, dtype)
            assert out.dtype == np.int64 and np.array_equal(out, immediate), (dtype, steps)
    return dtypes


# the engine's largest prime and small ones, where zero pivots are common
MIXED_PRIMES = [next(p for p, _w in primes_with_root(1)), 101, 7, 5, 3]


def random_block(r, p, rng, density):
    return [[rng.randrange(p) if rng.random() < density else 0 for _ in range(r)]
            for _ in range(r)]


@pytest.mark.parametrize("r", [3, 4, 6, 9])
@pytest.mark.parametrize("seed", range(3))
def test_charpolys_mod_mixed_primes(r, seed):
    rng = random.Random(seed)
    primes = [MIXED_PRIMES[i % len(MIXED_PRIMES)] for i in range(12)]
    blocks = [random_block(r, p, rng, rng.choice((0.2, 0.5, 1.0))) for p in primes]
    assert_kernel_matches(blocks, primes)


def test_charpolys_mod_pivots_differ_per_slice():
    # at step 0: slice 0 keeps row 1, slice 1 swaps in row 2, slice 2 row 4,
    # and slice 3 has an empty column 0 below the diagonal while they pivot
    r = 5
    rng = random.Random(7)
    primes = [MIXED_PRIMES[0], 7, 101, 5]
    blocks = [random_block(r, p, rng, 0.8) for p in primes]
    for block, p, first in zip(blocks, primes, (1, 2, 4, None)):
        for i in range(1, r):
            block[i][0] = 0
        if first is not None:
            block[first][0] = p - 1
    column = np.array(blocks, dtype=np.int64)[:, 1:, 0]
    assert [int(np.argmax(c != 0)) if c.any() else None for c in column] == [0, 1, 3, None]
    assert_kernel_matches(blocks, primes)


def test_charpolys_mod_empty_pivot_column_mid_reduction():
    # slice 1's column 1 below row 2 is zero (the first step does nothing to
    # it), while slice 0 needs a swap at that step
    p = 101
    a = [[1, 2, 3, 4, 5],
         [6, 0, 1, 2, 3],
         [0, 0, 4, 5, 6],
         [0, 7, 1, 0, 2],
         [0, 0, 3, 8, 9]]
    b = [[1, 2, 3, 4, 5],
         [6, 5, 1, 2, 3],
         [0, 0, 4, 5, 6],
         [0, 0, 1, 0, 2],
         [0, 0, 3, 8, 9]]
    assert_kernel_matches([a, b, a], [p, p, 7])


def first_step(a, p):
    """The matrix after the reduction's step 0 with pivot row 1, in Python
    ints: rows 2.. lose multiples of row 1, then column 1 gains the
    multiples of the columns 2.. ."""
    a = [row[:] for row in a]
    inv = pow(a[1][0], -1, p)
    f = {i: a[i][0] * inv % p for i in range(2, len(a))}
    for i, fi in f.items():
        a[i] = [(x - fi * y) % p for x, y in zip(a[i], a[1])]
    for row in a:
        row[1] = (row[1] + sum(fi * row[i] for i, fi in f.items())) % p
    return a


def test_charpolys_mod_pivot_swap_inside_pending_block():
    # slice 0 is set up so that after step 0 its column 1 is zero in row 2
    # and not in row 3: step 1 swaps rows 2 and 3 while step 0's row
    # operation is still pending (block lengths 2 and up); slice 1 is a
    # random block beside it
    p, r = 101, 7
    rng = random.Random(11)
    a = random_block(r, p, rng, 1.0)
    a[1][0] = 1 + a[1][0] % (p - 1)
    a[2][1] = 0
    a[2][1] = -first_step(a, p)[2][1] % p
    reduced = first_step(a, p)
    assert reduced[2][1] == 0 and reduced[3][1] != 0
    assert_kernel_matches([a, random_block(r, p, rng, 1.0)], [p, p])


def test_charpolys_mod_zero_and_full_slices():
    # an all-zero slice between slices whose every entry is p - 1
    r = 6
    primes = [MIXED_PRIMES[0], 7, 3]
    blocks = [[[p - 1] * r for _ in range(r)] for p in primes]
    blocks[1] = [[0] * r for _ in range(r)]
    assert_kernel_matches(blocks, primes)
    out = exactdet._charpolys_mod(np.array(blocks, dtype=np.int64),
                                  np.array(primes, dtype=np.int64))
    assert out[1].tolist() == [0] * r + [1]


@pytest.mark.parametrize("r", [0, 1, 2])
def test_charpolys_mod_tiny(r):
    rng = random.Random(r)
    primes = [MIXED_PRIMES[0], 7, 5, 3]
    assert_kernel_matches([random_block(r, p, rng, 0.7) for p in primes], primes)


def test_charpolys_mod_batch_of_one():
    rng = random.Random(3)
    p = MIXED_PRIMES[0]
    assert_kernel_matches([random_block(8, p, rng, 0.4)], [p])


def test_small_blocks_run_on_both_stacks():
    # the cases above are small enough for the float64 kernel's primes to
    # include the int64 kernel's largest, so every one of them compares the
    # two stacks
    assert all(exactdet._float_prime_limit(r) > MIXED_PRIMES[0] for r in range(10))


@pytest.mark.parametrize("r", [1, exactdet._FLOAT_MIN_ROWS, 4095])
def test_balanced_remainder_range(r):
    # x - p*rint(x/p) on integers up to the kernel's bound 2**53: a residue of
    # x, of magnitude at most (p + 1)/2, even where x/p lies within an ulp of
    # a half-integer
    rng = random.Random(r)
    limit = exactdet._float_prime_limit(r)
    for p in float_primes(r, 3) + [3, 7]:
        half = (p - 1) // 2
        xs = [rng.randrange(-(1 << 53), (1 << 53) + 1) for _ in range(2000)]
        top = (1 << 53) // p * p
        xs += [0, 1 << 53, -(1 << 53), half, -half, half + 1, top + half, top - p + half + 1,
               -top - half, top - half - 1]
        xs = [x for x in xs if abs(x) <= 1 << 53]
        out = exactdet._balanced_remainder(np.array(xs, dtype=np.float64), float(p))
        assert p < limit
        for x, residue in zip(xs, out.tolist()):
            assert residue == int(residue) and (x - int(residue)) % p == 0
            assert abs(residue) <= (p + 1) // 2


def float_primes(r, count):
    """The first ``count`` primes of the float64 kernel's stream for r rows."""
    return [p for (p, _w), _ in zip(primes_with_root(1, exactdet._float_prime_limit(r)),
                                    range(count))]


@pytest.mark.parametrize("r", [exactdet._FLOAT_MIN_ROWS - 1, exactdet._FLOAT_MIN_ROWS,
                               2 * exactdet._FLOAT_MIN_ROWS])
@pytest.mark.parametrize("batch", [1, 3])
def test_charpolys_mod_float64_at_the_threshold(r, batch):
    # around the engine's switch, and at twice it, where the float64 primes
    # are a bit shorter: both stacks give the same residues, with the primes
    # the float64 kernel would take and 7 beside them
    rng = random.Random(r * 10 + batch)
    primes = (float_primes(r, 2) + [7])[:batch]
    blocks = [random_block(r, p, rng, rng.choice((0.3, 1.0))) for p in primes]
    assert assert_kernel_matches(blocks, primes, reference=False) == [np.int64, np.float64]


@pytest.mark.parametrize("r", [exactdet._FLOAT_MIN_ROWS, 2 * exactdet._FLOAT_MIN_ROWS])
def test_charpolys_mod_float64_extreme_residues(r):
    # every entry +-(p-1)/2, the largest balanced residues, at the largest
    # prime the float64 kernel takes for r rows: the sums come near their bound
    rng = random.Random(r)
    p, = float_primes(r, 1)
    half = (p - 1) // 2
    block = [[half if rng.random() < 0.5 else p - half for _ in range(r)] for _ in range(r)]
    ones = [[p - half] * r for _ in range(r)]
    assert kernel_stack([block], [p], np.float64).max() == half
    assert assert_kernel_matches([block, ones], [p, p], reference=False) == [np.int64, np.float64]


def test_float_prime_limit_within_the_int64_kernel():
    # the engine's stream is the float64 kernels', capped at PRIME_CAP, so
    # the self-check's int64 kernel can take its next prime
    assert [exactdet._float_prime_limit(r) for r in (1, 7, 8, 31, 32, 63, 64)] == (
        [PRIME_CAP] * 4 + [1 << 24] * 3)


def power_sum_stacks(r, p, rng):
    """Four r x r blocks modulo p, residues in [0, p): every entry +-(p-1)/2
    (the largest balanced residues), random residues, a nilpotent block
    (strictly upper triangular) and 7*I."""
    half = (p - 1) // 2
    extreme = [[half if rng.random() < 0.5 else p - half for _ in range(r)] for _ in range(r)]
    uniform = random_block(r, p, rng, 1.0)
    nilpotent = [[rng.randrange(p) if j > i else 0 for j in range(r)] for i in range(r)]
    scalar = [[7 if i == j else 0 for j in range(r)] for i in range(r)]
    return [extreme, uniform, nilpotent, scalar]


@pytest.mark.parametrize("r", range(1, exactdet._FLOAT_MIN_ROWS))
def test_power_sums_vs_hessenberg(r):
    # every block size the engine gives the power-sum kernel, at the largest
    # prime of its stream for that size, where the float64 sums come nearest
    # their bound: the int64 Hessenberg kernel gives the same residues
    p, = float_primes(r, 1)
    rng = random.Random(r)
    blocks = power_sum_stacks(r, p, rng)
    primes = [p] * len(blocks)
    expected = run_kernel(blocks, primes, None)
    stack = kernel_stack(blocks, primes, np.float64)
    assert np.abs(stack).max() == (p - 1) // 2
    out = exactdet._charpolys_power_sums(stack, np.array(primes, dtype=np.int64))
    assert out.dtype == np.int64 and np.array_equal(out, expected)
    # det(xI - N) = x**r for nilpotent N; det(xI - 7I) = (x - 7)**r, whose
    # reversal (1 - 7t)**r has coefficients C(r, k) (-7)**k
    assert out[2].tolist() == [0] * r + [1]
    assert out[3].tolist()[::-1] == [math.comb(r, k) * (-7) ** k % p for k in range(r + 1)]


def test_power_sums_tiny_and_mixed_primes():
    # no rows, and slices modulo the small primes the Hessenberg tests use
    assert exactdet._charpolys_power_sums(np.zeros((2, 0, 0)),
                                          np.array([7, 5], dtype=np.int64)).tolist() == [[1], [1]]
    rng = random.Random(5)
    r = 4
    primes = [MIXED_PRIMES[0], 101, 7, 5]
    blocks = [random_block(r, p, rng, 0.7) for p in primes]
    out = exactdet._charpolys_power_sums(kernel_stack(blocks, primes, np.float64),
                                         np.array(primes, dtype=np.int64))
    assert np.array_equal(out, run_kernel(blocks, primes, None))


@pytest.mark.parametrize("r,p", [(5, 5), (5, 3), (7, 7)])
def test_power_sums_need_primes_above_the_block_size(r, p):
    # Newton's identities divide by k = 1 .. r; one slice modulo p <= r
    # among larger primes is refused
    stack = np.zeros((2, r, r))
    with pytest.raises(ValueError, match="primes above the block size"):
        exactdet._charpolys_power_sums(stack, np.array([MIXED_PRIMES[0], p], dtype=np.int64))


def test_power_sums_at_a_prime_just_above_the_block_size():
    r, p = 6, 7
    rng = random.Random(6)
    blocks = [random_block(r, p, rng, 1.0) for _ in range(3)]
    primes = [p] * 3
    out = exactdet._charpolys_power_sums(kernel_stack(blocks, primes, np.float64),
                                         np.array(primes, dtype=np.int64))
    assert np.array_equal(out, run_kernel(blocks, primes, None))


@pytest.mark.parametrize("r", [exactdet._FLOAT_MIN_ROWS - 1, exactdet._FLOAT_MIN_ROWS])
def test_engine_kernel_by_block_size(monkeypatch, r):
    # below _FLOAT_MIN_ROWS rows the engine runs the power-sum kernel, from
    # there the Hessenberg one, both on float64 stacks of balanced residues
    # modulo primes below the float64 limit; the other kernel gives the same
    # determinant
    x = labelled_array(r, 1, shared_cell_entries(r, 1, r))
    calls = []

    def recorded(name, H, p):
        assert H.dtype == np.float64
        assert (np.abs(H) <= (p // 2)[:, None, None]).all()
        calls.append((name, int(p.max())))

    spy_kernels(monkeypatch, recorded)
    poly, _stream = exactdet._char_rev_by_characters(x)
    hessenberg = r >= exactdet._FLOAT_MIN_ROWS
    kernel, other = "_charpolys_mod", "_charpolys_power_sums"
    if not hessenberg:
        kernel, other = other, kernel
    assert {name for name, _p in calls} == {kernel}
    assert all(p < exactdet._float_prime_limit(r) for _name, p in calls)
    calls.clear()
    monkeypatch.setattr(exactdet, "_FLOAT_MIN_ROWS", 1 << 20 if hessenberg else 0)
    assert exactdet._char_rev_by_characters(x)[0] == poly
    assert {name for name, _p in calls} == {other}


# -- chunking of the modular engine ------------------------------------------


def results_by_chunk(monkeypatch, compute, *more):
    """compute() and the batch sizes of its kernel calls, at the default
    budget, a budget of 1 entry, one above every stack, and then at the
    budgets ``more``; no call may take more than max(1, budget // w) slices
    of r x r, w the kernel's working set per slice (``exactdet._kernel``)."""
    calls = []

    def counted(_name, H, p):
        assert len(p) <= max(1, exactdet._CHUNK_ENTRIES // exactdet._kernel(H.shape[1])[1])
        calls.append(len(p))

    spy_kernels(monkeypatch, counted)
    out = []
    for entries in (exactdet._CHUNK_ENTRIES, 1, 1 << 60, *more):
        monkeypatch.setattr(exactdet, "_CHUNK_ENTRIES", entries)
        calls.clear()
        out.append((compute(), list(calls)))
    return out


def test_chunking_invariant_factored(monkeypatch, cover_m3):
    from generator_rules import build_lb_pattern

    pattern = build_lb_pattern(cover_m3).negated()
    # the power-sum kernel's working set per 21 x 21 block: 5 stored powers
    # and three more buffers of the block's size
    block = exactdet._kernel(21)[1]
    assert block == (5 + 3) * 21 * 21
    (default, split), (single, ones), (whole, one), (sixes, six), (fours, four) = (
        results_by_chunk(monkeypatch, lambda: char_rev_pattern(pattern), 6 * block, 4 * block))
    # the period-3 product of the 21 x 21 pattern is again 21 x 21 (rho**2 =
    # 10) over Z/3, whose three characters fall into two Galois orbits: the
    # trivial one (degree 21, a 45-bit bound) takes 2 primes and {1, 2}
    # (degree 42, 88 bits) 4, so 10 blocks in all, in one call by default
    # (each run ends with the self-check's call).  A budget of 6 blocks
    # takes two calls of 5 blocks: the trivial orbit's 2, the 2 of {1, 2} at
    # its first prime and 1 of the 2 at its second, then the rest, splitting
    # an (orbit, prime) product across calls; one of 4 blocks takes three
    # calls, of 4, 4 and 2 blocks
    assert split == one == [10, 1] and ones == [1] * 11
    assert six == [5, 5, 1] and four == [4, 4, 2, 1]
    assert default == single == whole == sixes == fours


@pytest.mark.parametrize("graded", [True, False])
def test_chunking_invariant_dense(monkeypatch, graded):
    m = block_cyclic((5, 5, 5), 30, density=0.7, lo=-9, hi=9)
    if not graded:
        m[0][0] = 3
    assert reduce_dense(m)[0] == (3 if graded else 1)
    (default, split), (single, ones), (whole, one) = results_by_chunk(
        monkeypatch, lambda: char_rev(m))
    # each run ends with the self-check's call on the 15 x 15 matrix
    assert len(split) == len(one) == 2 and split[-1] == one[-1] == 1
    assert len(ones) == ones.count(1) > 2
    assert default == single == whole == char_rev_interpolated(m)


# -- coefficient bound -------------------------------------------------------


def matrix_with_row_norm_sq(n, norm_sq, seed):
    """n x n integer matrix whose every row has squared Euclidean norm norm_sq."""
    rng = random.Random(seed)
    parts = {2: [1, 1], 3: [1, 1, 1], 5: [2, 1]}[norm_sq]
    m = []
    for _ in range(n):
        row = [0] * n
        for col, v in zip(rng.sample(range(n), len(parts)), parts):
            row[col] = rng.choice((-1, 1)) * v
        m.append(row)
    return m


@pytest.mark.parametrize("norm_sq", [2, 3, 5])
@pytest.mark.parametrize("seed", range(3))
def test_coefficient_bound_covers_coefficients(norm_sq, seed):
    one = 1 << exactdet.NORM_FRACTION_BITS
    rho = exactdet._row_norm_ceiling(norm_sq)
    # rho / 2**32 is sqrt(norm_sq) rounded up: above it, and by less than 2**-32
    assert (rho - 1) ** 2 < norm_sq * one ** 2 < rho ** 2
    n = 7
    m = matrix_with_row_norm_sq(n, norm_sq, seed)
    coefficient_sum = sum(abs(c) for c in char_rev_interpolated(m).coeffs)
    bound = exactdet._coefficient_bound(norm_sq, n)
    assert bound >= 2 * coefficient_sum
    assert bound == 2 * -(-((one + rho) ** n) // one ** n)


def test_row_norm_ceiling_exact_on_squares():
    one = 1 << exactdet.NORM_FRACTION_BITS
    assert [exactdet._row_norm_ceiling(v) for v in (0, 1, 4, 9)] == [0, one, 2 * one, 3 * one]
    assert exactdet._coefficient_bound(1, 3) == 2 * 2 ** 3


# -- period-3 reduction --------------------------------------------------------


def dense_arrays(m):
    """A dense matrix's nonzero entries: rows, columns and weights, the
    weights int64, or Python ints when one outgrows it."""
    cells = [(i, j, v) for i, row in enumerate(m) for j, v in enumerate(row) if v]
    rows, cols, values = zip(*cells) if cells else ((), (), ())
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), _weights(list(values))


def reduce_dense(m):
    """``_cyclic_reduction`` of a dense matrix as char_rev takes it: m = 1,
    every label 0, on the grading of its own pattern."""
    n = len(m)
    rows, cols, values = dense_arrays(m)
    return exactdet._cyclic_reduction(n, 1, rows, cols, np.zeros_like(rows), values,
                                      exactdet.grading_classes(n, rows, cols))


def block_cyclic(sizes, seed, density=0.5, lo=-4, hi=4, isolated=0):
    """Random matrix with entries only from class t to class t + 1 (mod 3),
    classes of the given sizes interleaved in random order, plus `isolated`
    rows and columns that hold no entry."""
    rng = random.Random(seed)
    labels = [t for t, size in enumerate(sizes) for _ in range(size)] + [None] * isolated
    rng.shuffle(labels)
    n = len(labels)
    m = [[0] * n for _ in range(n)]
    for i, t in enumerate(labels):
        for j, s in enumerate(labels):
            if t is not None and s == (t + 1) % 3 and rng.random() < density:
                m[i][j] = rng.choice([v for v in range(lo, hi + 1) if v])
    return m


@pytest.mark.parametrize(
    "sizes,seed,isolated,hi",
    [((3, 3, 3), 0, 0, 4), ((2, 4, 3), 1, 0, 4), ((5, 1, 2), 2, 2, 4), ((4, 0, 3), 3, 0, 4),
     ((3, 2, 4), 4, 3, 4), ((1, 1, 1), 5, 0, 4), ((6, 5, 4), 6, 1, 4), ((4, 3, 5), 7, 0, 40)],
)
def test_char_rev_block_cyclic_vs_interpolated(sizes, seed, isolated, hi):
    m = block_cyclic(sizes, seed, lo=-hi, hi=hi, isolated=isolated)
    n = len(m)
    d, x = reduce_dense(m)
    r = len(x)
    assert d == 3 and x.shape == (r, r, 1) and 3 * r <= n
    assert char_rev(m) == char_rev_interpolated(m)


def reference_grading(n, keys):
    """The grading search before it took index arrays: a graph search over
    the (row, col) keys, each component started at its least index with
    label 0; None when some entry breaks the labels."""
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


@pytest.mark.parametrize("seed", range(40))
def test_type_grading_matches_reference_search(seed):
    # graded patterns, with isolated indices and several components, and the
    # same with one entry that may break the grading (a loop, an entry
    # against the grading, or one joining two components)
    rng = random.Random(seed)
    sizes = tuple(rng.randrange(4) for _ in range(3))
    m = block_cyclic(sizes, seed, density=rng.choice((0.1, 0.3, 0.7)), isolated=rng.randrange(3))
    if rng.random() < 0.5:
        m = [row + [0] * len(m) for row in m] + [[0] * len(m) + row for row in m]
    n = len(m)
    patterns = [m]
    for _ in range(3):
        broken = [row[:] for row in m]
        if n:
            broken[rng.randrange(n)][rng.randrange(n)] = 1
        patterns.append(broken)
    graded = 0
    for pattern in patterns:
        rows, cols, _values = dense_arrays(pattern)
        want = reference_grading(n, zip(rows.tolist(), cols.tolist()))
        got = exactdet._type_grading(n, rows, cols)
        assert (got is None) == (want is None)
        if want is not None:
            graded += 1
            assert got.tolist() == want
    assert graded >= 1


@pytest.mark.parametrize("seed", range(3))
def test_char_rev_ungraded_matches(seed):
    # a diagonal entry or a 2-cycle leaves no grading: the route is X = M
    m = block_cyclic((3, 3, 2), 10 + seed, density=0.6)
    n = len(m)
    i, j = next((i, j) for i in range(n) for j in range(n) if m[i][j])
    looped = [row[:] for row in m]
    looped[i][i] = 2
    two_cycle = [row[:] for row in m]
    two_cycle[j][i] = -3
    for mat in (looped, two_cycle):
        assert reduce_dense(mat)[0] == 1
        assert char_rev(mat) == char_rev_interpolated(mat)


def test_char_rev_self_check_catches_corrupted_reduction(monkeypatch):
    # the engine's cf(0)/cf(1) checks run on X itself; only the self-check
    # on the unreduced M can see a wrong X
    m = block_cyclic((3, 4, 3), 12, density=0.8)
    reduction = exactdet._cyclic_reduction

    def corrupted(n, *arrays):
        d, x = reduction(n, *arrays)
        assert d == 3
        x = x.copy()
        x[0, 0, 0] += 1
        return d, x

    monkeypatch.setattr(exactdet, "_cyclic_reduction", corrupted)
    with pytest.raises(ExactArithmeticError, match="char_rev self-check failed"):
        char_rev(m)
