import dataclasses
import math
import random

import mpmath as mp
import numpy as np
import pytest

from zeta3 import spectra
from zeta3.errors import ExactArithmeticError, Zeta3Error
from zeta3.polynomials import IntPoly, gcd_polys, real_root_count, squarefree_decomposition
from zeta3.spectra import (
    ADMISSIBLE_K,
    RootRefinementError,
    build_spectral_report,
    circle_counts,
    classify,
    cube_factor_multiplicity,
    ramanujan_verdicts,
    rep_census,
    split_trivial,
    steinberg_divisibility,
    trivial_factor,
    zero_moduli,
)
from zeta3.zeta import ZetaParts, zeta_parts


@pytest.fixture(scope="module")
def base_parts(base2):
    return zeta_parts(base2)


def test_zero_moduli_cube():
    assert zero_moduli(IntPoly([1, 0, 0, -1])) == pytest.approx([1.0, 1.0, 1.0])


def test_zero_moduli_linear():
    assert zero_moduli(IntPoly([1, -4])) == pytest.approx([0.25])
    # the monic coefficient is rounded once, so the start 1e-25 is already a
    # zero of the rounded polynomial and comes back unchanged
    assert zero_moduli(IntPoly([1, -(10 ** 25)])) == [1e-25]


def test_zero_moduli_requires_unit_constant():
    with pytest.raises(ValueError):
        zero_moduli(IntPoly([2, 1]))


def test_zero_moduli_multiplicity():
    p = IntPoly([1, -2]) ** 5 * IntPoly([1, 0, 3])
    mods = zero_moduli(p)
    assert len(mods) == 7
    assert sum(1 for m in mods if abs(m - 0.5) < 1e-9) == 5
    assert sum(1 for m in mods if abs(m - 3 ** -0.5) < 1e-9) == 2


def test_zero_moduli_near_collision_fallback():
    # roots 1e-40 apart coincide in double precision; both must still be
    # found, each at its modulus to five digits
    p = IntPoly([1, -(10 ** 20)]) * IntPoly([1, -(10 ** 20 + 1)])
    mods = zero_moduli(p)
    assert len(mods) == 2
    assert all(abs(m - 1e-20) < 1e-25 for m in mods)


def _reference_moduli(poly):
    with mp.workdps(80):
        roots = mp.polyroots(list(reversed(poly.coeffs)), maxsteps=400, extraprec=800)
        return sorted(float(abs(r)) for r in roots)


def test_zero_moduli_random_against_polyroots():
    # seeded random polynomials, times factors with zeros far inside and far
    # outside the unit circle; the moduli must match a high-precision root finder
    rng = random.Random(20240611)
    extras = [
        IntPoly([1, -(10 ** 25)]),  # a zero of modulus 1e-25
        IntPoly([1, 0, 5]),  # two zeros inside the unit circle
        IntPoly([1, -3, 1]),  # one zero inside, one outside
        IntPoly([1, 0, 0, 0, 1]),  # four zeros on the unit circle
    ]
    for k in range(12):
        bits = rng.choice([3, 30, 100])
        coeffs = [1] + [rng.randint(-(2 ** bits), 2 ** bits) for _ in range(rng.randint(2, 18))]
        coeffs[-1] = coeffs[-1] or 1
        poly = IntPoly(coeffs) * extras[k % len(extras)]
        got = zero_moduli(poly)
        want = _reference_moduli(poly)
        assert len(got) == poly.degree
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * w


def test_newton_non_convergence_raises():
    # equal starts make every Aberth correction to the Newton step undefined,
    # so no root can settle; the iteration must run to its cap and report it
    coeffs = np.array([2.0, -2.0, 0.0, 1.0])  # 2 - 2u + u^3
    with pytest.raises(RootRefinementError, match="within 100 steps for a degree-3"):
        spectra._aberth(coeffs, np.zeros(3, complex))


def test_newton_zero_derivative_raises():
    # f'(0) = 0 for u^2 - 2: with separated starts 0 and 1 the Newton step at
    # 0 is undefined, and that is a failure, not a step; a start just off the
    # critical point converges
    coeffs = np.array([-2.0, 0.0, 1.0])
    with pytest.raises(RootRefinementError, match="degree-2"):
        spectra._aberth(coeffs, np.array([0, 1], complex))
    roots = spectra._aberth(coeffs, np.array([0.1, 1], complex))
    assert np.allclose(sorted(roots.real), [-2 ** 0.5, 2 ** 0.5])


def test_pe_base_trivial_moduli(base_parts):
    mods = zero_moduli(base_parts.p_e)
    assert sum(1 for m in mods if abs(m - 0.25) <= 1e-6) >= 3


def test_trivial_factors_divide(base_parts):
    for tag, poly in (("A", base_parts.p_a), ("E", base_parts.p_e), ("B", base_parts.p_b)):
        reduced, exact = split_trivial(poly, 2, tag)
        assert exact
        assert reduced * trivial_factor(2, tag) == poly


def test_classify_base_vertex(base_parts):
    spec = classify(base_parts.p_a, 2, "A")
    assert spec.degree == 9
    assert spec.exact_trivial
    assert spec.unclassified == []
    assert spec.bucket_count("1", trivial=True) == 3
    assert spec.bucket_count("q^-1", trivial=True) == 3
    assert spec.bucket_count("q^-2", trivial=True) == 3
    assert spec.bucket_count("q^-1", trivial=False) == 0


def test_classify_base_chamber(base_parts):
    spec = classify(base_parts.p_b, 2, "B")
    assert spec.bucket_count("1", trivial=False) == 6  # 3(chi - 1)
    assert spec.bucket_count("q^-1/2") == 18
    assert spec.bucket_count("q^-1/4") == 36
    assert spec.bucket_count("q^-3/4") == 0
    total = sum(b.count for b in spec.buckets) + len(spec.unclassified)
    assert total == spec.degree


def test_classify_cube_for_chamber_operator():
    spec = classify(IntPoly([1, 0, 0, -1]), 2, "B")
    assert spec.bucket_count("1") == 3
    assert not spec.exact_trivial
    assert spec.unclassified == []


def test_bucket_counts_sum_to_degree(small_battery):
    for cx in small_battery:
        parts = zeta_parts(cx)
        for tag, poly in (("A", parts.p_a), ("E", parts.p_e), ("B", parts.p_b)):
            spec = classify(poly, cx.q, tag)
            trivials = 3 * (3 if tag == "A" else 1) if spec.exact_trivial else 0
            counted = sum(b.count for b in spec.buckets if not b.trivial or not spec.exact_trivial)
            assert trivials + counted + len(spec.unclassified) == spec.degree


def test_verdicts_base(base_parts):
    rep = ramanujan_verdicts(base_parts)
    assert rep.vertex_criterion and rep.edge_criterion and rep.chamber_criterion
    assert rep.agree
    assert rep.is_ramanujan


def test_verdicts_battery_agree(small_battery):
    for cx in small_battery:
        rep = ramanujan_verdicts(zeta_parts(cx))
        assert rep.agree, f"criteria disagree on {cx}"


def synthetic_parts(p_a=None, p_e=None, p_b=None, q=2, chi=3, n0=3, n1=21, n2=21):
    base_a = trivial_factor(q, "A")
    base_e = trivial_factor(q, "E")
    base_b = trivial_factor(q, "B")
    return ZetaParts(
        q=q,
        n0=n0,
        n1=n1,
        n2=n2,
        chi=chi,
        p_a=base_a * (p_a or IntPoly.one()),
        p_e=base_e * (p_e or IntPoly.one()),
        p_b=base_b * (p_b or IntPoly.one()),
    )


def test_planted_vertex_zero_fails_criterion():
    # a vertex zero of modulus q^-2 away from the trivial block
    parts = synthetic_parts(p_a=IntPoly([1, -4]) ** 3)
    rep = ramanujan_verdicts(parts)
    assert not rep.vertex_criterion


def test_conflicting_synthetic_parts_disagree():
    parts = synthetic_parts(p_e=IntPoly([1, -3]))  # edge zero at 1/3: off-spectrum
    rep = ramanujan_verdicts(parts)
    assert not rep.edge_criterion
    assert rep.vertex_criterion  # vacuously clean
    assert not rep.agree
    with pytest.raises(Zeta3Error):
        rep.is_ramanujan


def test_steinberg_divisibility_base(base_parts):
    assert steinberg_divisibility(base_parts.p_b, 3)
    assert cube_factor_multiplicity(base_parts.p_b) == 2  # exactly chi - 1


def test_steinberg_divisibility_battery(small_battery):
    for cx in small_battery:
        chi = cx.counts()[3]
        parts = zeta_parts(cx)
        assert steinberg_divisibility(parts.p_b, chi)
        assert cube_factor_multiplicity(parts.p_b) == chi - 1


def test_cube_factor_multiplicity_of_zero_raises():
    # every power of 1 - u^3 divides 0, so there is no largest one
    with pytest.raises(ValueError):
        cube_factor_multiplicity(IntPoly([]))
    assert cube_factor_multiplicity(IntPoly([1, 0, 0, -1]) ** 3 * IntPoly([1, 1])) == 3


def _cube_multiplicity_by_division(p):
    """The definition: divide by 1 - u^3 until the division is inexact."""
    cube = IntPoly([1, 0, 0, -1])
    k = 0
    try:
        while True:
            p = p.exact_divide(cube)
            k += 1
    except ExactArithmeticError:
        return k


def test_cube_factor_multiplicity_matches_division(small_battery, base3):
    cube = IntPoly([1, 0, 0, -1])
    # (1 - u)^4 (1 + u + u^2)^2 = (1 - u^3)^2 (1 - u)^2; in the last one
    # p_0 = (1 - w)^2 and p_1 = 1 - w hold the factor to different powers
    ungraded = [
        cube ** 2 * IntPoly([1, -1]),
        cube ** 3 * IntPoly([1, 2]),
        IntPoly([1, -1]) ** 4 * IntPoly([1, 1, 1]) ** 2,
        cube * (cube + IntPoly([0, 1])),
    ]
    polys = list(ungraded)
    for cx in small_battery + [base3]:
        parts = zeta_parts(cx)
        polys += [parts.p_a, parts.p_e, parts.p_b]
    for p in polys:
        k = _cube_multiplicity_by_division(p)
        assert cube_factor_multiplicity(p) == k
        for chi in range(1, k + 3):
            assert steinberg_divisibility(p, chi) == (cube ** (chi - 1)).divides(p)
    assert [cube_factor_multiplicity(p) for p in ungraded] == [2, 3, 2, 1]
    assert steinberg_divisibility(IntPoly([]), 5)


def test_steinberg_chi_one_trivial(base_parts):
    assert steinberg_divisibility(base_parts.p_b, 1)


def test_census_base(base2, base_parts):
    census = rep_census(base_parts, base2.counts())
    assert (census.a, census.b, census.c, census.d, census.e) == (0, 3, 6, 0, 18)
    assert census.consistent
    assert census.type_d_count == 0


def test_census_battery(small_battery):
    for cx in small_battery:
        n0, n1, n2, _ = cx.counts()
        census = rep_census(zeta_parts(cx), cx.counts())
        assert census.consistent, census.diagnostics
        assert census.b == 3
        assert census.c == 3 * n0 - 3 * n1 + 3 * n2 - 3
        assert census.e - census.d == n1 - 3 * n0 + 6
        assert 6 * census.a + census.b + census.c + 3 * census.d + 3 * census.e == 3 * n2
        assert census.a + census.b + census.d == n0


def test_report_classifies_each_spectrum_once(base2, cover_m2, monkeypatch):
    tags = []
    original = spectra.classify

    def counted(poly, q, tag):
        tags.append(tag)
        return original(poly, q, tag)

    for cx in (base2, cover_m2):
        parts = zeta_parts(cx)
        monkeypatch.setattr(spectra, "classify", counted)
        tags.clear()
        report = build_spectral_report(cx, parts)
        assert tags == ["A", "E", "B"]
        monkeypatch.setattr(spectra, "classify", original)
        census = rep_census(parts, cx.counts())
        assert report["census"] == {
            "a": census.a, "b": census.b, "c": census.c, "d": census.d, "e": census.e,
            "consistent": census.consistent, "diagnostics": census.diagnostics,
        }


def test_census_flags_corruption(base2, base_parts):
    bad = ZetaParts(
        q=2,
        n0=3,
        n1=21,
        n2=21,
        chi=3,
        p_a=base_parts.p_a,
        p_e=base_parts.p_e,
        p_b=base_parts.p_b * IntPoly([1, -1]),  # spurious modulus-1 zero
    )
    census = rep_census(bad, base2.counts())
    assert not census.consistent
    assert census.diagnostics


def test_moduli_accuracy(base_parts):
    # refined moduli hit the exact targets far inside the 1e-9 contract
    mods = zero_moduli(base_parts.p_b)
    targets = [1.0, 0.5, 2 ** -0.5, 2 ** -0.25]
    for m in mods:
        err = min(abs(m - t) for t in targets)
        assert err < 1e-11


# -- the admissible-moduli table, pinned bucket for bucket ---------------------

_Q3_HALF = 3 ** -0.5
_Q3_QUARTER = 3 ** -0.25
_Q3_THREE_QUARTERS = 3 ** -0.75


def _bucket_rows(spec):
    return [(b.label, b.modulus, b.count, b.trivial) for b in spec.buckets]


@pytest.fixture(scope="module")
def base3_parts(base3):
    return zeta_parts(base3)


def test_classify_base3_exact_buckets(base3_parts):
    spec_a = classify(base3_parts.p_a, 3, "A")
    spec_e = classify(base3_parts.p_e, 3, "E")
    spec_b = classify(base3_parts.p_b, 3, "B")
    assert all(s.exact_trivial and s.unclassified == [] for s in (spec_a, spec_e, spec_b))
    assert _bucket_rows(spec_a) == [
        ("1", 1.0, 3, True),
        ("q^-1", 1 / 3, 3, True),
        ("q^-2", 1 / 9, 3, True),
        ("q^-1", 1 / 3, 0, False),
    ]
    assert _bucket_rows(spec_e) == [
        ("q^-2", 1 / 9, 3, True),
        ("q^-1", 1 / 3, 0, False),
        ("q^-1/2", _Q3_HALF, 36, False),
    ]
    assert _bucket_rows(spec_b) == [
        ("q^-1", 1 / 3, 3, True),
        ("1", 1.0, 45, False),
        ("q^-1/2", _Q3_HALF, 36, False),
        ("q^-1/4", _Q3_QUARTER, 72, False),
        ("q^-3/4", _Q3_THREE_QUARTERS, 0, False),
    ]


def test_classify_merged_buckets():
    # 1 - u^3 is not divisible by the vertex trivial factor: merged matching
    spec = classify(IntPoly([1, 0, 0, -1]), 3, "A")
    assert not spec.exact_trivial and spec.unclassified == []
    assert _bucket_rows(spec) == [
        ("1", 1.0, 3, True),
        ("q^-1", 1 / 3, 0, False),
        ("q^-2", 1 / 9, 0, True),
    ]
    # a synthetic P_E at q=3 without the trivial block 1 - 3^6 u^3: three
    # zeros of modulus q^-2 from 1 + 3^6 u^3, two at q^-1, two at q^-1/2 and
    # one at 1/2, which matches nothing
    p_e = (
        IntPoly([1, 0, 0, 3 ** 6])
        * IntPoly([1, 0, 9])
        * IntPoly([1, 0, -3])
        * IntPoly([1, -2])
    )
    spec = classify(p_e, 3, "E")
    assert not spec.exact_trivial
    assert spec.unclassified == pytest.approx([0.5])
    assert _bucket_rows(spec) == [
        ("q^-2", 1 / 9, 3, True),
        ("q^-1", 1 / 3, 2, False),
        ("q^-1/2", _Q3_HALF, 2, False),
    ]


@pytest.mark.parametrize("q", [2, 3])
def test_trivial_factor_zeros_sit_on_the_table(q):
    moduli = {
        "A": [1.0, q ** -1.0, q ** -2.0],
        "E": [q ** -2.0],
        "B": [q ** -1.0],
    }
    for tag, want in moduli.items():
        got = zero_moduli(trivial_factor(q, tag))
        assert got == pytest.approx(sorted(want * 3), rel=1e-12)


def test_unknown_tag_rejected():
    with pytest.raises(ValueError):
        trivial_factor(2, "X")
    with pytest.raises(ValueError):
        classify(IntPoly([1, -1]), 2, "X")


def test_criteria_on_merged_and_chamber_buckets():
    q = 2
    cube = lambda a: IntPoly([1, 0, 0, a])
    whole_a = cube(-1) * cube(-8) * cube(64)  # 1 + q^6 u^3 in place of 1 - q^6 u^3
    parts = ZetaParts(
        q=q, n0=3, n1=21, n2=21, chi=3,
        p_a=whole_a,
        p_e=cube(-64) * IntPoly([1, 0, -2]),
        p_b=cube(8) * IntPoly([1, 0, 0, 0, -8]),  # four zeros of modulus q^-3/4
    )
    rep = ramanujan_verdicts(parts)
    assert not rep.spectra["A"].exact_trivial
    assert rep.vertex_criterion  # merged: three zeros each at 1 and q^-2
    assert rep.edge_criterion
    assert not rep.chamber_criterion
    missing_one = dataclasses.replace(parts, p_a=cube(-8) * cube(64))  # no modulus-1 zeros
    assert not ramanujan_verdicts(missing_one).vertex_criterion


# -- exact circle counts ---------------------------------------------------------


def _on_circle(q, k, rng):
    """A factor with every zero on |u| = q^(-k/4), and its degree."""
    if k % 2 == 0:  # 1 - t u + q^(k/2) u^2 with t^2 < 4 q^(k/2)
        c = q ** (k // 2)
        t = rng.choice([t for t in range(-2 * math.isqrt(c), 2 * math.isqrt(c) + 1) if t * t < 4 * c])
        return IntPoly([1, -t, c]), 2
    c = q ** k  # 1 + a u^2 + q^k u^4 with a^2 < 4 q^k
    a = rng.choice([a for a in range(-2 * math.isqrt(c), 2 * math.isqrt(c) + 1) if a * a < 4 * c])
    return IntPoly([1, 0, a, 0, c]), 4


def _planted(q, ks, rng, off_circle=()):
    """A product with known zero counts on each circle q^(-k/4), k in ks."""
    poly, want = IntPoly.one(), [0] * len(ks)
    for i, k in enumerate(ks):
        for _ in range(rng.randint(0, 3)):
            factor, d = _on_circle(q, k, rng)
            mult = rng.choice([1, 1, 2, 3])
            poly = poly * factor ** mult
            want[i] += d * mult
    # zeros that collide under squaring: +-z and +-iz on one circle, to a
    # power 1 to 3, and +-1 with multiplicity on the unit circle
    for i, k in enumerate(ks):
        if rng.random() < 0.5:
            mult = rng.randint(1, 3)
            poly = poly * IntPoly([1, 0, 0, 0, q ** k]) ** mult
            want[i] += 4 * mult
        if k == 0:
            at_one, at_minus_one = rng.randint(0, 3), rng.randint(0, 3)
            poly = poly * IntPoly([1, -1]) ** at_one * IntPoly([1, 1]) ** at_minus_one
            want[i] += at_one + at_minus_one
    residue = 0
    for factor in off_circle:
        poly = poly * factor
        residue += factor.degree
    return poly, want, residue


# moduli 1/5, 5^-1/2 and 7^-1/3: on no circle q^(-k/4) for q = 2, 3
_OFF = (IntPoly([1, -5]), IntPoly([1, 1, 5]), IntPoly([1, 0, 0, 7]))


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("tag", ["A", "E", "B"])
@pytest.mark.parametrize("seed", range(3))
def test_classify_planted_counts_exact_split(q, tag, seed):
    rng = random.Random(100 * seed + 10 * q + ord(tag))
    trivial_ks, nontrivial_ks = ADMISSIBLE_K[tag]
    off = [f for f in _OFF if rng.random() < 0.5]
    planted, want, residue = _planted(q, nontrivial_ks, rng, off)
    spec = classify(trivial_factor(q, tag) * planted, q, tag)
    assert spec.exact_trivial
    assert [(b.count, b.trivial) for b in spec.buckets] == (
        [(3, True)] * len(trivial_ks) + [(n, False) for n in want]
    )
    assert len(spec.unclassified) == residue


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("tag", ["A", "E", "B"])
@pytest.mark.parametrize("seed", range(3))
def test_classify_planted_counts_merged(q, tag, seed):
    # without the exact trivial factor, every admissible circle is counted
    rng = random.Random(1000 + 100 * seed + 10 * q + ord(tag))
    trivial_ks, nontrivial_ks = ADMISSIBLE_K[tag]
    ks = tuple(dict.fromkeys(trivial_ks + nontrivial_ks))
    planted, want, residue = _planted(q, ks, rng, _OFF)
    if split_trivial(planted, q, tag)[1]:
        planted = planted * IntPoly([1, -1, 1])  # on |u| = 1, which no tag lists alone
        if 0 in ks:
            want[ks.index(0)] += 2
        else:
            residue += 2
    spec = classify(planted, q, tag)
    assert not spec.exact_trivial
    assert [(b.count, b.trivial) for b in spec.buckets] == [
        (n, k not in nontrivial_ks) for k, n in zip(ks, want)
    ]
    assert len(spec.unclassified) == residue


def test_circle_counts_modulus_above_one():
    # the four zeros of modulus q^(3/4) are not counted on the reciprocal
    # circle q^(-3/4), which holds the other four
    poly = IntPoly([8, 0, 3, 0, 1]) * IntPoly([1, 0, 0, 0, -8]) * IntPoly([1, -1, 2])
    assert circle_counts(poly, 2, (3, 2)) == [4, 2]


def test_exact_counts_match_float_route(small_battery, base3):
    # the independent float route: every modulus matched to the nontrivial ones
    for cx in small_battery + [base3]:
        parts = zeta_parts(cx)
        for tag, poly in (("A", parts.p_a), ("E", parts.p_e), ("B", parts.p_b)):
            spec = classify(poly, cx.q, tag)
            assert spec.exact_trivial
            reduced, _exact = split_trivial(poly, cx.q, tag)
            targets = [cx.q ** (-k / 4) for k in ADMISSIBLE_K[tag][1]]
            counts, rest = spectra._match_buckets(zero_moduli(reduced), targets)
            assert [b.count for b in spec.buckets if not b.trivial] == counts
            assert rest == spec.unclassified == []


def test_verdicts_are_float_free(small_battery, base3, monkeypatch):
    def refuse(poly):
        raise AssertionError("the verdict path must not root-find")

    monkeypatch.setattr(spectra, "zero_moduli", refuse)
    for cx in small_battery + [base3]:
        report = build_spectral_report(cx, zeta_parts(cx))
        assert report["ramanujan"]["is_ramanujan"]
        assert report["census"]["consistent"]


def test_float_disagreement_raises(monkeypatch):
    # one zero at 1/2, off every circle: the float route must report it
    # unclassified, and moduli that land in a bucket instead are an error
    poly = trivial_factor(3, "E") * IntPoly([1, -2])
    assert classify(poly, 3, "E").unclassified == pytest.approx([0.5])
    monkeypatch.setattr(spectra, "zero_moduli", lambda p: [3 ** -0.5])
    with pytest.raises(RootRefinementError):
        classify(poly, 3, "E")


def test_chamber_note_is_decided_exactly():
    # no chamber zero has modulus q^(3/4), so no note for one is needed:
    # P_B(0) = 1, so the reciprocal 1/alpha of every zero alpha, and of its
    # conjugate (also a zero), is an algebraic integer.  Then so is
    # |1/alpha|^4 = q^-3 for |alpha| = q^(3/4), but a rational algebraic
    # integer is an integer.  A residue off every circle is decided by the
    # exact counts alone.
    near = IntPoly([1, 0, 0, 0, -7])  # zeros of modulus 7^(-1/4), on no circle
    parts = synthetic_parts(p_b=near)
    rep = ramanujan_verdicts(parts)
    assert not rep.chamber_criterion
    assert len(rep.spectra["B"].unclassified) == 4


def _chebyshev(s):
    """R with s(v) = v^n R(v + 1/v), for s self-reciprocal of degree 2n."""
    n = s.degree // 2
    x = IntPoly([0, 1])
    acc, prev, cur = IntPoly([s.cf(n)]), IntPoly([2]), x
    for j in range(1, n + 1):
        acc = acc + cur * s.cf(n + j)
        prev, cur = cur, x * cur - prev
    return acc


def _unit_circle_count_by_parts(p):
    """Zeros of p on |v| = 1: each square-free part of gcd(p, p reversed)
    loses its zeros +-1, and one Sturm count of its R in (-2, 2) gives the
    rest in pairs, times the part's multiplicity."""
    low = next(i for i, c in enumerate(p.coeffs) if c)
    p = IntPoly(p.coeffs[low:])
    total = 0
    for part, mult in squarefree_decomposition(gcd_polys(p, p.reversed())):
        on_circle = 0
        for root in (1, -1):
            if part(root) == 0:
                part = part.exact_divide(IntPoly([-root, 1]))
                on_circle += 1
        assert part.reversed() == part
        on_circle += 2 * real_root_count(_chebyshev(part), -2, 2)
        total += on_circle * mult
    return total


def _circle_counts_u_route(poly, q, ks):
    """An oracle for circle_counts that shares none of its circle code: no
    reduction to w = u^e, two Graeffe steps on every circle, and the circle
    zeros counted per square-free part of gcd(H, H reversed)."""
    counts = [0] * len(ks)
    for factor, mult in squarefree_decomposition(poly):
        h = factor.graeffe().graeffe()
        d = h.degree
        left = d
        for i, k in enumerate(ks):
            if not left:
                break
            scaled = IntPoly([c * q ** (k * (d - j)) for j, c in enumerate(h.coeffs)])
            n = _unit_circle_count_by_parts(scaled)
            counts[i] += n * mult
            left -= n
    return counts


def _all_ks(tag):
    trivial_ks, nontrivial_ks = ADMISSIBLE_K[tag]
    return tuple(dict.fromkeys(trivial_ks + nontrivial_ks))


def test_circle_counts_match_u_route_on_complexes(small_battery, base3, p4_m2_covers):
    for cx in small_battery + [base3] + p4_m2_covers:
        parts = zeta_parts(cx)
        for tag, poly in (("A", parts.p_a), ("E", parts.p_e), ("B", parts.p_b)):
            assert poly.deflation()[1] == 3  # the type grading
            for p in (poly, split_trivial(poly, cx.q, tag)[0]):
                ks = _all_ks(tag)
                assert circle_counts(p, cx.q, ks) == _circle_counts_u_route(p, cx.q, ks)


def _in_power(poly, e):
    """poly(u^e)."""
    coeffs = [0] * (e * poly.degree + 1)
    coeffs[::e] = poly.coeffs
    return IntPoly(coeffs)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("e", [2, 3, 6])
def test_circle_counts_match_u_route_on_planted(q, e):
    # zeros planted on |v| = q^(-ek/4) land on |u| = q^(-k/4) under v = u^e;
    # off-circle factors and zeros of modulus above 1 are counted on no circle
    rng = random.Random(10 * q + e)
    for tag in ("A", "E", "B"):
        ks = ADMISSIBLE_K[tag][1]
        planted, want, _residue = _planted(q, [e * k for k in ks], rng, _OFF)
        above, _d = _on_circle(q, e * max(ks), rng)
        in_v = planted * above.reversed()
        poly = _in_power(in_v, e)
        assert poly.deflation() == (in_v, e)
        counts = circle_counts(poly, q, ks)
        assert counts == [e * n for n in want]
        assert counts == _circle_counts_u_route(poly, q, ks)
        assert len(zero_moduli(_in_power(planted, e))) == e * planted.degree


def test_residue_moduli_in_w():
    # 1 - 7u^3: three zeros of modulus 7^(-1/3), on no circle, found as one
    # zero w = 1/7 of 1 - 7w; times 1 - 2u the product is ungraded (e = 1)
    spec = classify(trivial_factor(3, "E") * IntPoly([1, 0, 0, -7]), 3, "E")
    assert spec.unclassified == pytest.approx([7 ** (-1 / 3)] * 3, rel=1e-12)
    assert zero_moduli(IntPoly([1, 0, 0, -7]) * IntPoly([1, -2])) == pytest.approx(
        sorted([7 ** (-1 / 3)] * 3 + [0.5]), rel=1e-12
    )
