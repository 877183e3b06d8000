from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeta3 import polynomials
from zeta3.errors import ExactArithmeticError
from zeta3.polynomials import (
    IntPoly,
    content,
    gcd_polys,
    primitive_part,
    squarefree_decomposition,
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
