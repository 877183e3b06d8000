"""The free cyclic symmetry search and the quotient patterns it gives."""

import numpy as np
import pytest

from zeta3 import exactdet, zeta
from zeta3.construct import connected_covers
from zeta3.errors import ExactArithmeticError
from zeta3.symmetry import quotient_pattern

from conftest import dense_parts, geometric_copy


@pytest.fixture(scope="module")
def symmetric_copies(cover_m7, presentations3, p4_m2_covers):
    """Geometric copies of q=2 m=7, q=3 p0 m=2, p4 m=2 v1 and v2 and p4 m=8
    (voltage 2)."""
    covers = [cover_m7, connected_covers(presentations3[0], 2)[0][1]] + p4_m2_covers[:2]
    covers.append(dict(connected_covers(presentations3[4], 8))[2])
    return [geometric_copy(cx) for cx in covers]


def test_search_finds_order_of_type_class(symmetric_copies):
    for cx in symmetric_copies:
        symmetry = cx.free_symmetry()
        assert symmetry is not None, cx
        assert symmetry.m == cx.counts()[0] // 3, cx
        assert cx.free_symmetry() is symmetry


def test_search_finds_none_without_symmetry(base2, base3, rewired2, rewired_m2):
    for cx in (geometric_copy(base2), geometric_copy(base3), rewired2, rewired_m2):
        assert cx.free_symmetry() is None, cx


def test_quotient_parts_equal_dense(symmetric_copies):
    # every copy but p4 m=8, whose dense P_B takes seconds; its parts are
    # compared with the presented cover's below
    for cx in symmetric_copies[:-1]:
        assert zeta.zeta_parts(cx) == dense_parts(cx), cx


def test_geometric_m8_matches_presented(presentations3, monkeypatch):
    # without the self-check, which builds the 1248-row L_B densely
    monkeypatch.setattr(exactdet, "SELF_CHECK", False)
    cx = dict(connected_covers(presentations3[4], 8))[2]
    assert zeta.zeta_parts(geometric_copy(cx)) == zeta.zeta_parts(cx)


def test_non_commuting_operator_raises(cover_m2):
    cx = geometric_copy(cover_m2)
    symmetry = cx.free_symmetry()
    le = zeta._OPERATORS["E"](cx)
    with pytest.raises(ExactArithmeticError, match=r"entry \(0, 0\)"):
        quotient_pattern(le.with_increment(0, 0), symmetry.edges, symmetry.m)


def test_short_orbit_raises(cover_m2):
    cx = geometric_copy(cover_m2)
    symmetry = cx.free_symmetry()
    le = zeta._OPERATORS["E"](cx)
    g = symmetry.edges.copy()
    # swap the images of one orbit's two members: both become fixed points
    i = 5
    j = int(g[i])
    g[i], g[j] = i, j
    with pytest.raises(ExactArithmeticError, match=f"index {min(i, j)} has an orbit"):
        quotient_pattern(le, g, symmetry.m)
