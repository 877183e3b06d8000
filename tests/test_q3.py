"""End-to-end run at q=3; slower than the q=2 path but still desk-scale."""

import pytest

from zeta3.construct import (
    connected_covers,
    iter_triangle_presentations,
    projective_plane,
)
from zeta3.exactdet import char_rev, char_rev_factored
from zeta3.operators import build_a1, build_lb, build_lb_pattern, build_le, build_le_pattern
from zeta3.spectra import ramanujan_verdicts, rep_census, steinberg_divisibility
from zeta3.zeta import verify_identity, zeta_parts


@pytest.fixture(scope="module")
def presentations3():
    search = iter_triangle_presentations(projective_plane(3))
    return [next(search) for _ in range(5)]


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


def test_factored_parts_match_dense(base3):
    assert char_rev_factored(build_le_pattern(base3)) == char_rev(build_le(base3))
    assert char_rev_factored(build_lb_pattern(base3).negated()) == char_rev(
        build_lb(base3).negated()
    )


@pytest.mark.parametrize("index", [4, 0])
def test_identity_on_first_m2_cover(presentations3, index):
    # spectra are left out: presentation 0's cover raises RootRefinementError
    cx = connected_covers(presentations3[index], 2)[0][1]
    assert cx.counts() == (6, 78, 104, 32)
    parts = zeta_parts(cx)
    assert parts.full_rank_edge() and parts.full_rank_chamber()
    assert verify_identity(parts).holds
