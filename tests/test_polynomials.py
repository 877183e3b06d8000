import random
from fractions import Fraction

import pytest
import sympy
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


@given(small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(f, g):
    d = gcd_polys(f, g)
    if f.is_zero() and g.is_zero():
        return
    if not f.is_zero():
        assert d.divides(f)
    if not g.is_zero():
        assert d.divides(g)


def test_gcd_known_factors():
    f = cube() ** 2 * IntPoly([1, -2])
    g = cube() * IntPoly([1, 5])
    assert gcd_polys(f, g) == primitive_part(cube())


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
    ],
)
def test_unit_circle_root_count(poly, want):
    assert unit_circle_root_count(poly) == want


def test_deflation():
    assert IntPoly([1, 0, 0, -1, 0, 0, 5]).deflation() == (IntPoly([1, -1, 5]), 3)
    assert IntPoly([1, 0, 3, 0, 2]).deflation() == (IntPoly([1, 3, 2]), 2)
    assert IntPoly([1, 0, 0, 0, 2]).deflation() == (IntPoly([1, 2]), 4)
    assert IntPoly([0, 0, 0, 0, 2]).deflation() == (IntPoly([0, 2]), 4)
    assert IntPoly([1, 1, 0, 2]).deflation() == (IntPoly([1, 1, 0, 2]), 1)
    assert IntPoly([7]).deflation() == (IntPoly([7]), 1)
    assert IntPoly([]).deflation() == (IntPoly([]), 1)
