"""End-to-end run at q=3; slower than the q=2 path but still desk-scale."""

import pytest

from zeta3.construct import connected_covers
from zeta3 import exactdet, spectra
from zeta3.complexes import ComplexDescription, Geometric
from zeta3.exactdet import char_rev
from zeta3.operators import build_a1, build_a2, build_lb, build_le
from zeta3.spectra import (
    ADMISSIBLE_K,
    build_spectral_report,
    ramanujan_verdicts,
    rep_census,
    split_trivial,
    steinberg_divisibility,
    zero_moduli,
)
from zeta3.zeta import verify_identity, vertex_companion, zeta_parts

from generator_rules import (
    build_companion_pattern,
    build_lb_pattern,
    build_le_pattern,
    char_rev_pattern,
)


def test_counts_and_degrees(base3):
    assert base3.counts() == (3, 39, 52, 16)
    assert base3.validate().ok


def test_regularity(base3):
    assert set(build_a1(base3).row_sums()) == {13}
    assert set(build_le(base3).row_sums()) == {9}
    assert set(build_lb(base3).row_sums()) == {3}


def test_identity_and_spectra(base3):
    parts = zeta_parts(base3)
    assert (parts.p_a.degree, parts.p_e.degree, parts.p_b.degree) == (9, 39, 156)
    assert verify_identity(parts).holds
    chi = base3.counts()[3]
    assert steinberg_divisibility(parts.p_b, chi)
    rep = ramanujan_verdicts(parts)
    assert rep.agree
    census = rep_census(parts, base3.counts())
    assert census.consistent
    assert census.b == 3 and census.c == 3 * chi - 3


def test_factored_pa_matches_dense_companion(base3, presentations3, p4_m2_covers):
    # the base, presentation 0's m=2 cover, and presentation 4's three m=2
    # covers and its m=8 cover (voltage 2)
    covers = [base3, connected_covers(presentations3[0], 2)[0][1]] + p4_m2_covers
    covers += [cx for v, cx in connected_covers(presentations3[4], 8) if v == 2]
    assert len(covers) == 6
    for cx in covers:
        companion = vertex_companion(build_a1(cx), build_a2(cx), cx.q)
        assert char_rev_pattern(build_companion_pattern(cx)) == char_rev(companion)


def test_factored_parts_match_dense(base3, p4_m2_covers):
    for cx in [base3] + p4_m2_covers:
        assert char_rev_pattern(build_le_pattern(cx)) == char_rev(build_le(cx))
        assert char_rev_pattern(build_lb_pattern(cx).negated()) == char_rev(
            build_lb(cx).negated()
        )


def test_dense_chamber_determinant_in_one_kernel_call(monkeypatch, p4_m2_covers):
    # the geometric copy of the first cover takes the dense route: P_B's X
    # (104 rows) takes the float64 kernel, whose primes lie below 2**24, and
    # needs 13 of them, which go through the kernel in one call; the
    # self-check's call holds the 312-row L_B, on the int64 kernel
    cx = p4_m2_covers[0]
    geometric = ComplexDescription(q=cx.q, vertices=cx.vertices, edges=cx.edges,
                                   chambers=cx.chambers, provenance=Geometric())
    factored = zeta_parts(cx)
    kernel = exactdet._charpolys_mod
    shapes = []

    def counted(H, p):
        shapes.append((H.shape, H.dtype.name))
        return kernel(H, p)

    monkeypatch.setattr(exactdet, "_charpolys_mod", counted)
    assert zeta_parts(geometric) == factored
    assert [s for s in shapes if s[0][1] > 100] == [((13, 104, 104), "float64"),
                                                    ((1, 312, 312), "int64")]


@pytest.mark.parametrize("index", [4, 0])
def test_identity_on_first_m2_cover(presentations3, index):
    cx = connected_covers(presentations3[index], 2)[0][1]
    assert cx.counts() == (6, 78, 104, 32)
    parts = zeta_parts(cx)
    assert parts.full_rank_edge() and parts.full_rank_chamber()
    assert verify_identity(parts).holds


def _nontrivial_counts(report):
    return {
        tag: [(b["label"], b["count"]) for b in op["buckets"] if not b["trivial"]]
        for tag, op in report["operators"].items()
    }


def _refuse(poly):
    raise AssertionError("the verdict path must not root-find")


def _assert_ramanujan(report):
    assert all(op["trivial_removed_exactly"] and op["unclassified"] == []
               for op in report["operators"].values())
    assert report["ramanujan"]["vertex_criterion"]
    assert report["ramanujan"]["edge_criterion"]
    assert report["ramanujan"]["chamber_criterion"]
    assert report["ramanujan"]["is_ramanujan"]
    assert report["census"]["consistent"], report["census"]["diagnostics"]


def _assert_float_moduli_match(report, parts, tags):
    # the float display route, forced on the reduced polynomials, puts every
    # zero in the bucket the exact counts give it
    counts = _nontrivial_counts(report)
    for tag in tags:
        reduced, _exact = split_trivial(getattr(parts, f"p_{tag.lower()}"), parts.q, tag)
        targets = [parts.q ** (-k / 4) for k in ADMISSIBLE_K[tag][1]]
        assert spectra._match_buckets(zero_moduli(reduced), targets) == (
            [n for _label, n in counts[tag]], []
        )


def test_spectra_on_presentation0_m2_cover(presentations3, monkeypatch):
    # the counts are exact, so the report runs no root finding; the float
    # route still places all zeros, those of the degree-138 P_B factor too
    voltage, cx = connected_covers(presentations3[0], 2)[0]
    assert voltage == 1
    parts = zeta_parts(cx)
    monkeypatch.setattr(spectra, "zero_moduli", _refuse)
    report = build_spectral_report(cx, parts)
    assert _nontrivial_counts(report) == {
        "A": [("q^-1", 9)],
        "E": [("q^-1", 9), ("q^-1/2", 66)],
        "B": [("1", 93), ("q^-1/2", 84), ("q^-1/4", 132), ("q^-3/4", 0)],
    }
    _assert_ramanujan(report)
    _assert_float_moduli_match(report, parts, "AEB")


def test_spectra_on_presentation4_m8_cover(presentations3, monkeypatch):
    # L_B has 1248 rows.  The parts take the factored route without its
    # self-check, which adds ~10 s at this size; the identity is the check.
    monkeypatch.setattr(exactdet, "SELF_CHECK", False)
    voltage, cx = connected_covers(presentations3[4], 8)[0]
    assert voltage == 2
    assert cx.counts() == (24, 312, 416, 128)
    parts = zeta_parts(cx)
    assert verify_identity(parts).holds
    monkeypatch.setattr(spectra, "zero_moduli", _refuse)
    report = build_spectral_report(cx, parts)
    assert _nontrivial_counts(report) == {
        "A": [("q^-1", 63)],
        "E": [("q^-1", 63), ("q^-1/2", 246)],
        "B": [("1", 381), ("q^-1/2", 372), ("q^-1/4", 492), ("q^-3/4", 0)],
    }
    _assert_ramanujan(report)
    # the degree-147 edge and degree-354 chamber factors are too ill-conditioned
    # for double precision, so only the vertex moduli are checked
    _assert_float_moduli_match(report, parts, "A")
