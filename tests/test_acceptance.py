"""Acceptance criteria, one test per numbered criterion.

Each test prints a single ``criterion N: PASS ...`` line (visible with -s);
any failure fails the corresponding test.  The battery is the lex-first base
quotient plus connected covers drawn from the earliest presentations in
search order that admit them: every connected m=2, m=3 and m=7 cover.  An
exhaustive scan shows no q=2 presentation admits a nonzero voltage mod 5, so
the m=5 slot of the cover grid is provably empty.
"""

import time

import pytest

from zeta3 import exactdet
from zeta3.construct import (
    base_quotient,
    connected_covers,
    find_triangle_presentation,
    first_presentation_with_covers,
    iter_triangle_presentations,
    projective_plane,
)
from zeta3.operators import build_a1, build_a2, build_le, build_lb
from zeta3.spectra import (
    classify,
    cube_factor_multiplicity,
    ramanujan_verdicts,
    rep_census,
    steinberg_divisibility,
)
from zeta3.zeta import (
    counts_from_traces,
    edge_trace_powers,
    geodesic_counts,
    verify_identity,
    walk_count_oracle,
    zeta_parts,
)


@pytest.fixture(scope="module")
def state():
    """Build the whole acceptance battery once, keeping timings."""
    st = {}
    plane = projective_plane(2)

    t0 = time.perf_counter()
    pres = find_triangle_presentation(plane)
    base = base_quotient(pres)
    st["search_seconds"] = time.perf_counter() - t0
    st["presentation"] = pres
    st["base"] = base

    covers = {1: [base]}
    covers[2] = [cx for _i, cx in connected_covers(first_presentation_with_covers(plane, 2), 2)]
    covers[3] = [cx for _i, cx in connected_covers(first_presentation_with_covers(plane, 3), 3)]
    covers[7] = [cx for _i, cx in connected_covers(first_presentation_with_covers(plane, 7), 7)]

    # exhaustive fact: no q=2 presentation admits a nonzero voltage mod 5
    mod5_possible = False
    for candidate in iter_triangle_presentations(plane):
        diag, _v = candidate.relation_diagonal
        if any(s % 5 == 0 for s in diag):
            mod5_possible = True
            break
    st["mod5_possible"] = mod5_possible
    covers[5] = []

    st["covers"] = covers
    # identity/spectra battery: base and every connected m=2, m=3 and m=7
    # cover; their P_E and P_B are factored over the characters of the deck
    # group Z/m, so the 441-dimensional m=7 chamber operators cost well under
    # a second
    battery = [base] + covers[2] + covers[3] + covers[7]
    st["battery"] = battery

    t0 = time.perf_counter()
    st["parts"] = [zeta_parts(cx) for cx in battery]
    st["verdicts"] = [verify_identity(p) for p in st["parts"]]
    st["identity_seconds"] = time.perf_counter() - t0
    return st


def test_criterion_1_construction(state):
    pres = state["presentation"]
    base = state["base"]
    assert len(pres.triples) == 21
    assert base.counts() == (3, 21, 21, 3)
    assert state["search_seconds"] < 10.0
    print(
        f"\ncriterion 1: PASS - |T|=21, counts (3,21,21,3), "
        f"search {state['search_seconds']:.2f}s < 10s"
    )


def test_criterion_2_regularity(state):
    checked = 0
    for m, covers in sorted(state["covers"].items()):
        for cx in covers:
            assert set(build_a1(cx).row_sums()) == {7}
            assert set(build_le(cx).row_sums()) == {4}
            assert set(build_lb(cx).row_sums()) == {2}
            checked += 1
    assert not state["mod5_possible"]
    print(
        f"criterion 2: PASS - row sums (7,4,2) exact on {checked} complexes, "
        f"m in (1,2,3,7); m=5 has no connected cover for any q=2 presentation"
    )


def test_criterion_3_identity(state):
    battery = state["battery"]
    assert len(battery) >= 5  # base + at least 4 covers
    for cx, verdict in zip(battery, state["verdicts"]):
        assert verdict.holds, f"identity failed on {cx}"
    assert state["identity_seconds"] < 120.0

    base = state["base"]
    mutated = []
    ops = (build_a1(base), build_a2(base), build_le(base), build_lb(base))
    for k in range(3):
        corrupted = list(ops)
        corrupted[0 if k == 0 else k + 1] = corrupted[0 if k == 0 else k + 1].with_increment(0, 0)
        parts = zeta_parts(base, operators=tuple(corrupted))
        v = verify_identity(parts)
        assert not v.holds and v.witness_index is not None
        mutated.append(v.witness_index)
    print(
        f"criterion 3: PASS - identity exact on base + {len(battery) - 1} covers "
        f"in {state['identity_seconds']:.1f}s < 120s; "
        f"mutations break it with witnesses at u^{mutated}"
    )


def test_criterion_4_steinberg(state):
    for cx, parts in zip(state["battery"], state["parts"]):
        chi = cx.counts()[3]
        assert steinberg_divisibility(parts.p_b, chi)
        assert cube_factor_multiplicity(parts.p_b) == chi - 1
        spec = classify(parts.p_b, cx.q, "B")
        assert spec.bucket_count("1", trivial=False) == 3 * (chi - 1)
    print(
        "criterion 4: PASS - (1-u^3)^(chi-1) divides P_B exactly (and "
        "(1-u^3)^chi does not); modulus-1 zero count = 3(chi-1) numerically"
    )


def test_criterion_5_equivalence(state):
    verdict_sets = []
    for parts in state["parts"]:
        rep = ramanujan_verdicts(parts)
        assert rep.agree, "criteria disagree"
        verdict_sets.append(rep.is_ramanujan)
    print(
        f"criterion 5: PASS - all three criteria agree on every battery "
        f"complex (verdicts: {verdict_sets})"
    )


def test_criterion_6_full_rank(state):
    for parts in state["parts"]:
        assert parts.p_e.cf(0) == 1 and parts.p_b.cf(0) == 1
        assert parts.full_rank_edge(), "det(L_E) = 0"
        assert parts.full_rank_chamber(), "det(L_B) = 0"
    print("criterion 6: PASS - L_E and L_B have full rank on every battery complex")


def test_criterion_7_geodesics(state):
    base = state["base"]
    m2 = state["covers"][2][0]
    for cx in (base, m2):
        assert walk_count_oracle(cx, 6) == edge_trace_powers(build_le(cx), 6)
    for cx, parts in zip(state["battery"], state["parts"]):
        counts = geodesic_counts(parts, 12)
        assert all(n >= 0 for n in counts)
        assert counts == counts_from_traces(edge_trace_powers(build_le(cx), 12))
    print(
        "criterion 7: PASS - walk enumeration equals trace(L_E^m) for m<=6 "
        "on base and an m=2 cover; N_l >= 0 for l<=12 battery-wide"
    )


def test_criterion_8_census(state):
    for cx, parts in zip(state["battery"], state["parts"]):
        n0, n1, n2, _chi = cx.counts()
        census = rep_census(parts, cx.counts())
        assert census.consistent, census.diagnostics
        assert census.b == 3
        assert census.c == 3 * n0 - 3 * n1 + 3 * n2 - 3
    print("criterion 8: PASS - census system integrally consistent; b=3 and c=3N0-3N1+3N2-3")


def test_criterion_9_exact_arithmetic_self_check(state):
    assert exactdet.SELF_CHECK, "self-check mode must be on under pytest"
    before = exactdet.SELF_CHECK_CALLS
    assert before >= len(state["battery"])  # one P_A per battery complex
    zeta_parts(state["base"])
    # P_A, P_E and P_B all by char_rev_labelled on the base's own operators
    # (m = 1, every label 0), one self-check each
    assert exactdet.SELF_CHECK_CALLS == before + 3
    print(
        f"criterion 9: PASS - char_rev_labelled dense mod-p self-checks "
        f"(a prime outside each CRT set) ran on all {exactdet.SELF_CHECK_CALLS} calls in test mode"
    )
