import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_gcd, gf_strip
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta3 import polynomials
from zeta3.errors import ExactArithmeticError
from zeta3.polynomials import (
    IntPoly,
    content,
    gcd_polys,
    primitive_part,
    real_root_count,
    squarefree_decomposition,
    unit_circle_root_count,
)

small_polys = st.lists(st.integers(-30, 30), min_size=0, max_size=8).map(IntPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


def cube():
    return IntPoly([1, 0, 0, -1])


def test_normalization_strips_trailing_zeros():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPoly([0, 0]).is_zero()
    assert IntPoly([]).degree == -1


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        IntPoly([1.5])


def test_basic_arithmetic():
    p = IntPoly([1, 2])  # 1 + 2u
    q = IntPoly([0, 0, 3])  # 3u^2
    assert (p + q).to_list() == [1, 2, 3]
    assert (p - p).is_zero()
    assert (p * q).to_list() == [0, 0, 3, 6]
    assert (p * 2).to_list() == [2, 4]
    assert (p ** 3).to_list() == [1, 6, 12, 8]
    assert p(3) == 7
    assert p(Fraction(1, 2)) == 2


def _schoolbook(f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@pytest.mark.parametrize("seed", range(20))
def test_mul_with_interior_zeros_matches_schoolbook(seed):
    # polynomials in u^3 and u^6, like the determinants, and random zeros
    rng = random.Random(seed)

    def sparse(degree, stride):
        coeffs = [rng.randint(-9, 9) if k % stride == 0 and rng.random() < 0.8 else 0
                  for k in range(degree + 1)]
        coeffs[0] = coeffs[-1] = rng.choice([-2, -1, 1, 3])
        return coeffs

    f = sparse(rng.randint(0, 30), rng.choice([1, 2, 3]))
    g = sparse(rng.randint(0, 30), rng.choice([1, 3, 6]))
    assert (IntPoly(f) * IntPoly(g)).to_list() == _schoolbook(f, g)
    assert (IntPoly(g) * IntPoly(f)).to_list() == _schoolbook(f, g)
    assert (IntPoly(f) * IntPoly([])).is_zero()


def test_substitute_square():
    assert IntPoly([1, -3]).substitute_square().to_list() == [1, 0, -3]
    assert IntPoly([]).substitute_square().is_zero()


def test_exact_divide_spec_cases():
    sq = cube() * cube()
    assert sq.exact_divide(cube()) == cube()
    with pytest.raises(ExactArithmeticError):
        (cube() + 1).exact_divide(cube())
    with pytest.raises(ExactArithmeticError):
        IntPoly([1, 1]).exact_divide(IntPoly([0, 2]))  # 1+u by 2u


def test_series_inverse_of_one_minus_u():
    assert IntPoly([1, -1]).series_inverse(4) == [1, 1, 1, 1, 1]


def test_series_inverse_requires_unit_constant():
    with pytest.raises(ExactArithmeticError):
        IntPoly([2, 1]).series_inverse(3)


def test_log_derivative_power_sums():
    # (1 - 2u)(1 - 3u): power sums of {2, 3}
    p = IntPoly([1, -2]) * IntPoly([1, -3])
    s = p.log_derivative_series(4)
    assert [-s[m] for m in range(1, 5)] == [5, 13, 35, 97]


def test_derivative():
    assert IntPoly([5, 1, 0, 2]).derivative().to_list() == [1, 0, 6]


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)


@given(small_polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_exact_division_roundtrip(f, g):
    assert (f * g).exact_divide(g) == f


@given(small_polys, small_polys, small_polys, st.sampled_from([1, -1, 6, -10]))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(f, g, h, c):
    # f, g as drawn, then with a common factor h and a scalar c that leaves
    # f h c non-primitive or with a negative leading coefficient; the
    # cofactors keep each input's content and sign
    for f, g in ((f, g), (f * h * c, g * h), (g * c, f * c)):
        d = gcd_polys(f, g)
        gcd, f_over, g_over = polynomials._gcd_cofactors(f, g)
        assert gcd == d
        assert gcd * f_over == f and gcd * g_over == g
        if f.is_zero() and g.is_zero():
            continue
        assert d.leading > 0 and content(d) == 1
        if not f.is_zero():
            assert d.divides(f)
        if not g.is_zero():
            assert d.divides(g)


def test_gcd_known_factors():
    f = cube() ** 2 * IntPoly([1, -2])
    g = cube() * IntPoly([1, 5])
    assert gcd_polys(f, g) == primitive_part(cube())


def _gf_gcd_reference(a, b, p):
    """The monic gcd over GF(p) from sympy's dense GF(p) arithmetic."""
    to_gf = lambda c: gf_strip([x % p for x in reversed(c)])
    return list(reversed(gf_gcd(to_gf(a), to_gf(b), p, ZZ)))


def assert_gcd_kernels_agree(a, b, p):
    """Both GF(p) gcd kernels and the size dispatch give the reference's
    monic gcd."""
    want = _gf_gcd_reference(a, b, p)
    assert polynomials._gcd_mod_p_ints(list(a), list(b), p) == want
    assert polynomials._gcd_mod_p_numpy(list(a), list(b), p) == want
    assert polynomials._gcd_mod_p(list(a), list(b), p) == want


def _random_coeffs(n, p, rng):
    coeffs = [rng.randrange(-p, p) for _ in range(n)]
    if coeffs and coeffs[-1] % p == 0:
        coeffs[-1] = 1
    return coeffs


_BIG_PRIME = next(p for p, _w in polynomials.primes_with_root(1))


@pytest.mark.parametrize("p", [_BIG_PRIME, 101, 3])
@pytest.mark.parametrize("seed", range(3))
def test_gcd_kernels_agree_around_the_size_constant(p, seed):
    rng = random.Random(seed)
    cut = polynomials._GCD_NUMPY_MIN
    for n in (1, 2, 5, cut - 1, cut, cut + 1, 2 * cut + 3):
        # a planted common factor, so the gcd has degree > 0 for most primes
        common = _random_coeffs(rng.randint(1, max(1, n // 3)), p, rng)
        a = _schoolbook(common, _random_coeffs(n - len(common) + 1, p, rng))
        b = _schoolbook(common, _random_coeffs(rng.randint(1, n - len(common) + 1), p, rng))
        assert_gcd_kernels_agree(a, b, p)
        assert_gcd_kernels_agree(b, a, p)
        # coprime inputs: a constant gcd
        assert_gcd_kernels_agree(_random_coeffs(n, p, rng), _random_coeffs(max(1, n - 1), p, rng), p)
        # b divides a: the first remainder is zero
        divisor = _random_coeffs(rng.randint(1, n), p, rng)
        assert_gcd_kernels_agree(_schoolbook(divisor, _random_coeffs(rng.randint(1, 4), p, rng)), divisor, p)
        # wide coefficients, reduced mod p first
        assert_gcd_kernels_agree([c * (1 << 70) + 1 for c in a], [c - (1 << 90) for c in b], p)


def test_gcd_kernels_edge_cases():
    p = _BIG_PRIME
    assert_gcd_kernels_agree([5], [7], p)  # single coefficients
    assert_gcd_kernels_agree([5], [], p)
    assert_gcd_kernels_agree([], [0, 0, 3], p)  # zero input: the other, monic
    assert_gcd_kernels_agree([], [], p)
    assert_gcd_kernels_agree([p, 2 * p], [3], p)  # a multiple of p is zero
    assert_gcd_kernels_agree([1, 2, 1], [1, 1], 3)
    big = [1] * (polynomials._GCD_NUMPY_MIN + 4)
    assert_gcd_kernels_agree(big, [1], p)
    assert_gcd_kernels_agree(big, big, p)


def test_gcd_wide_common_factor(monkeypatch):
    # the common factor's coefficients exceed 2**60, so no prime below 2**25
    # determines them alone: the gcd is reconstructed from several primes
    common = IntPoly([3 * (1 << 61) + 1, -(1 << 62) - 7, 5, (1 << 61) + 3])
    f = common * IntPoly([1, -2, 7])
    g = common * IntPoly([4, 1])
    crt = polynomials.crt_symmetric
    added = []  # each call extends the reconstruction by one prime

    def counted(rows, primes):
        added.append(primes[-1])
        return crt(rows, primes)

    monkeypatch.setattr(polynomials, "crt_symmetric", counted)
    assert gcd_polys(f, g) == primitive_part(common)
    assert len(set(added)) >= 3


def test_gcd_restarts_after_an_unlucky_prime(monkeypatch):
    # 5 and 5 + p agree modulo the gcd's first prime p, whose image is then
    # (x - 3)(x - 5), of degree 2: the next prime's image, of degree 1,
    # starts the lift afresh, without p's image
    first, second = (p for (p, _w), _ in zip(polynomials.primes_with_root(1), range(2)))
    f = IntPoly([-3, 1]) * IntPoly([-5, 1])
    g = IntPoly([-3, 1]) * IntPoly([-5 - first, 1])
    crt = polynomials.crt_symmetric
    lifted = []

    def recorded(rows, primes):
        lifted.append(list(primes))
        return crt(rows, primes)

    monkeypatch.setattr(polynomials, "crt_symmetric", recorded)
    assert gcd_polys(f, g) == IntPoly([-3, 1])
    assert lifted == [[first], [second]]


@given(nonzero_polys, nonzero_polys, st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_squarefree_recombines(f, g, k):
    product = f * g ** k
    if product.degree < 1:
        return
    parts = squarefree_decomposition(product)
    rebuilt = IntPoly.one()
    for factor, mult in parts:
        assert gcd_polys(factor, factor.derivative()).degree == 0
        rebuilt = rebuilt * factor ** mult
    assert rebuilt == primitive_part(product)


def test_squarefree_multiplicities():
    f = cube() ** 3 * IntPoly([1, -2])
    parts = dict((m, p) for p, m in squarefree_decomposition(f))
    assert parts[3] == primitive_part(cube())
    assert parts[1] == IntPoly([-1, 2]) or parts[1] == IntPoly([1, -2])


def test_content_and_primitive_part():
    f = IntPoly([6, -9, 3])
    assert content(f) == 3
    assert primitive_part(f).to_list() == [2, -3, 1]
    assert primitive_part(IntPoly([-2, 0, -4])).leading > 0


# -- Graeffe, Sturm and unit-circle counts -------------------------------------


def _from_roots(roots):
    """prod (u - r) for integer roots r."""
    p = IntPoly.one()
    for r in roots:
        p = p * IntPoly([-r, 1])
    return p


@given(small_polys)
@settings(max_examples=40, deadline=None)
def test_graeffe_defining_identity(f):
    # g(u^2) = f(u) f(-u)
    minus = IntPoly([c * (-1) ** i for i, c in enumerate(f.coeffs)])
    assert f.graeffe().substitute_square() == f * minus
    assert f.graeffe().degree == f.degree


def test_graeffe_squares_the_zeros():
    roots = [3, -3, 2, 0, -5]
    assert _from_roots(roots).graeffe() == -_from_roots([r * r for r in roots])
    # +-i and the primitive cube roots of unity w, w^2: squares -1, -1, w^2, w
    assert IntPoly([1, 0, 1]).graeffe() == IntPoly([1, 1]) ** 2
    assert IntPoly([1, 1, 1]).graeffe() == IntPoly([1, 1, 1])
    # two steps give the fourth powers: the zeros of 1 - 2u^4 all go to 1/2
    assert IntPoly([1, 0, 0, 0, -2]).graeffe().graeffe() == IntPoly([1, -2]) ** 4


def _random_squarefree(rng):
    """An integer polynomial with known-distinct roots: rationals of both
    signs (some clustered 1/1000 apart) and non-real pairs."""
    factors = set()
    for _ in range(rng.randint(1, 4)):
        factors.add((rng.randint(-40, 40), rng.randint(1, 6)))  # root -a/b
    if rng.random() < 0.5:
        a = rng.randint(-3000, 3000)
        factors |= {(a, 1000), (a + 1, 1000)}
    out = IntPoly.one()
    for a, b in factors:
        out = out * IntPoly([a, b])
    for _ in range(rng.randint(0, 3)):
        s, t = rng.randint(-10, 10), rng.randint(1, 30)  # (u - s)^2 + t
        out = out * IntPoly([s * s + t, -2 * s, 1])
    return primitive_part(out) if squarefree_decomposition(out) == [(primitive_part(out), 1)] else None


@pytest.mark.parametrize("seed", range(6))
def test_real_root_count_against_sympy(seed):
    rng = random.Random(seed)
    x = sympy.Symbol("x")
    checked = 0
    while checked < 25:
        p = _random_squarefree(rng)
        if p is None:
            continue
        poly = sympy.Poly(list(reversed(p.coeffs)), x)
        lo = Fraction(rng.randint(-50, 10), rng.randint(1, 4))
        hi = lo + Fraction(rng.randint(1, 80), rng.randint(1, 5))
        a, b = sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator)
        # count_roots counts the closed interval
        want = poly.count_roots(a, b) - (poly.eval(a) == 0) - (poly.eval(b) == 0)
        assert real_root_count(p, lo, hi) == want, (p, lo, hi)
        assert real_root_count(p, -(10 ** 6), 10 ** 6) == poly.count_roots()
        checked += 1


def test_real_root_count_small_dense_coefficients():
    # small leading coefficients let some pseudo-division steps divide
    # exactly, so the number of scalings differs from the degree gap
    rng = random.Random(5)
    x = sympy.Symbol("x")
    checked = 0
    while checked < 200:
        p = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(3, 8))])
        if p.degree < 2 or squarefree_decomposition(p) != [(primitive_part(p), 1)]:
            continue
        poly = sympy.Poly(list(reversed(p.coeffs)), x)
        lo, hi = rng.randint(-4, 0), rng.randint(1, 4)
        want = poly.count_roots(lo, hi) - (p(lo) == 0) - (p(hi) == 0)
        assert real_root_count(p, lo, hi) == want, (p, lo, hi)
        assert real_root_count(p, -(10 ** 4), 10 ** 4) == poly.count_roots()
        checked += 1
    assert real_root_count(IntPoly([5, -3, 0, -2]), -10, 10) == 1
    assert real_root_count(IntPoly([-1, 2, 5, 4, -2]), -10, 10) == 2


def test_real_root_count_edges():
    p = _from_roots([-2, 0, 1, 3])
    assert real_root_count(p, -2, 3) == 2  # open interval: the endpoints are out
    assert real_root_count(p, Fraction(-5, 2), Fraction(7, 2)) == 4
    assert real_root_count(p, 3, -2) == 0
    assert real_root_count(IntPoly([7]), -1, 1) == 0
    # repeated roots count once
    assert real_root_count(_from_roots([1, 1, 1, -1]) * IntPoly([1, 0, 1]), -2, 2) == 2
    # a negative leading coefficient flips the sign of every pseudo-remainder
    assert real_root_count(-_from_roots([-3, -1, 2, 5, 6]), 0, 10) == 3
    with pytest.raises(ValueError):
        real_root_count(IntPoly(), 0, 1)


@pytest.mark.parametrize(
    "poly, want",
    [
        (IntPoly([1, 0, 0, -1]), 3),  # cube roots of unity
        (IntPoly([-1, 1]) ** 3 * IntPoly([1, 1]), 4),  # +-1 with multiplicity
        (IntPoly([1, 1, 1]) * IntPoly([1, -2]), 2),
        (IntPoly([2, -5, 2]), 0),  # 2 and 1/2: a reciprocal pair off the circle
        (IntPoly([2, -3, 2]), 2),  # |v| = 1, not a root of unity
        (IntPoly([2, -3, 2]) ** 2 * IntPoly([5, 1]) * IntPoly([0, 0, 1]), 4),
        (IntPoly([1, 0, 1]) * IntPoly([4, 0, 1]) * IntPoly([1, 0, 4]), 2),
        (IntPoly([3]), 0),
        # multiplicities from the Sturm chain: +-z, +-iz three times each,
        # and circle zeros of R repeated next to a repeated reciprocal pair
        (IntPoly([1, 0, 0, 0, 1]) ** 3, 12),
        (IntPoly([1, 1]) ** 5 * IntPoly([-1, 1]) ** 2 * IntPoly([1, 0, 1]), 9),
        (IntPoly([2, -3, 2]) ** 3 * IntPoly([1, 0, 1]) ** 2, 10),
        (IntPoly([2, -5, 2]) ** 2 * IntPoly([1, 1, 1]) ** 3 * IntPoly([0, 1]) ** 2, 6),
    ],
)
def test_unit_circle_root_count(poly, want):
    assert unit_circle_root_count(poly) == want


def test_strip_root_and_dilate():
    p = _from_roots([1, 1, 1, -1, 2])
    assert p.strip_root(1) == (_from_roots([-1, 2]), 3)
    assert p.strip_root(-1) == (_from_roots([1, 1, 1, 2]), 1)
    assert p.strip_root(3) == (p, 0)
    assert IntPoly([4]).strip_root(1) == (IntPoly([4]), 0)
    assert (-_from_roots([2, 2])).strip_root(2) == (IntPoly([-1]), 2)
    # the zeros times c: (u - 2)(u + 3) -> (u - 10)(u + 15)
    assert _from_roots([2, -3]).dilate(5) == _from_roots([10, -15])
    assert IntPoly([1, -2, 3]).dilate(1) == IntPoly([1, -2, 3])
    assert IntPoly([7, 0, 1]).dilate(-3) == IntPoly([63, 0, 1])
    with pytest.raises(TypeError):
        p.dilate(0.5)


def test_deflation():
    assert IntPoly([1, 0, 0, -1, 0, 0, 5]).deflation() == (IntPoly([1, -1, 5]), 3)
    assert IntPoly([1, 0, 3, 0, 2]).deflation() == (IntPoly([1, 3, 2]), 2)
    assert IntPoly([1, 0, 0, 0, 2]).deflation() == (IntPoly([1, 2]), 4)
    assert IntPoly([0, 0, 0, 0, 2]).deflation() == (IntPoly([0, 2]), 4)
    assert IntPoly([1, 1, 0, 2]).deflation() == (IntPoly([1, 1, 0, 2]), 1)
    assert IntPoly([7]).deflation() == (IntPoly([7]), 1)
    assert IntPoly([]).deflation() == (IntPoly([]), 1)


def loop_crt(rows, primes):
    """crt_symmetric before Garner's algorithm: one Python loop per prime
    and coefficient, each step lifting the running value by the product of
    the moduli before it."""
    acc = [int(c) for c in rows[0]]
    modulus = primes[0]
    for residues, p in zip(rows[1:], primes[1:]):
        inv = pow(modulus % p, p - 2, p)
        for j, r in enumerate(residues):
            t = (int(r) - acc[j]) * inv % p
            acc[j] += modulus * t
        modulus *= p
    half = modulus // 2
    return [c - modulus if c > half else c for c in acc]


@pytest.mark.parametrize("count", [1, 2, 12, 30])
@pytest.mark.parametrize("seed", range(3))
def test_crt_symmetric_matches_the_loop(count, seed):
    # residues as the determinant engine hands them (int64 arrays in [0, p))
    # and as lists of Python ints, at the engine's primes and at the cap
    rng = np.random.default_rng(seed)
    limit = (1 << 24, polynomials.PRIME_CAP)[seed % 2]
    primes = [p for (p, _w), _ in zip(polynomials.primes_with_root(1, limit), range(count))]
    rows = [rng.integers(0, p, 40 + seed) for p in primes]
    # every corner of the range: 0, p - 1 and the symmetric boundary
    for row, p in zip(rows, primes):
        row[:3] = 0, p - 1, p // 2
    got = polynomials.crt_symmetric(rows, primes)
    assert got == loop_crt(rows, primes)
    assert all(type(c) is int for c in got)
    assert polynomials.crt_symmetric([r.tolist() for r in rows], primes) == got
    modulus = math.prod(primes)
    assert all(-modulus // 2 <= c <= modulus // 2 for c in got)
