import hashlib
import random
from itertools import islice, product

import pytest

from zeta3 import construct
from zeta3.construct import (
    TrianglePresentation,
    VoltageAssignment,
    abelian_cover,
    base_quotient,
    connected_covers,
    find_triangle_presentation,
    iter_triangle_presentations,
    projective_plane,
    relation_matrix,
    solve_voltages,
)
from zeta3.errors import ConstructionError


def test_plane_q2_counts(plane2):
    assert plane2.n == 7
    assert len(plane2.incidence) == 21
    assert plane2.validate_plane() == []


def test_plane_q3_counts():
    plane = projective_plane(3)
    assert plane.n == 13
    assert len(plane.incidence) == 52
    assert plane.validate_plane() == []


def test_plane_unsupported_order():
    with pytest.raises(ConstructionError):
        projective_plane(6)


def test_presentation_q2(pres2):
    assert len(pres2.triples) == 21
    assert pres2.check() == []


def test_presentation_rotation_closed(pres2):
    for (x, y, z) in pres2.triples:
        assert (y, z, x) in pres2.triples
        assert (z, x, y) in pres2.triples


def test_presentation_prefix_degree(pres2, plane2):
    line_pts = plane2.all_line_points
    for x in range(7):
        starts = [t for t in pres2.triples if t[0] == x]
        assert len(starts) == 3  # q + 1
        assert sorted(t[1] for t in starts) == sorted(line_pts[pres2.lam[x]])


def test_search_is_deterministic(plane2, pres2):
    again = find_triangle_presentation(plane2)
    assert again == pres2
    assert again.lam == (0, 1, 4, 3, 5, 2, 6)


def test_presentation_q3():
    pres = find_triangle_presentation(projective_plane(3))
    assert len(pres.triples) == 52
    assert pres.check() == []
    assert base_quotient(pres).counts() == (3, 39, 52, 16)


def test_bad_presentation_rejected(plane2, pres2):
    broken = set(pres2.triples)
    victim = next(iter(broken))
    broken.remove(victim)
    with pytest.raises(ConstructionError):
        TrianglePresentation(plane=plane2, lam=pres2.lam, triples=frozenset(broken))


@pytest.mark.parametrize("point", [99, -1])
def test_triple_outside_the_plane_rejected(plane2, pres2, point):
    # reported before any lookup: 99 would index past lam, -1 would wrap to
    # the last point
    victim = min(pres2.triples)
    triples = (pres2.triples - {victim}) | {(point,) + victim[1:]}
    with pytest.raises(ConstructionError, match=rf"triple \({point}, .* outside 0\.\.6"):
        TrianglePresentation(plane=plane2, lam=pres2.lam, triples=frozenset(triples))


def test_base_quotient(base2):
    assert base2.counts() == (3, 21, 21, 3)
    assert base2.validate().ok
    out = {}
    for e in base2.edges:
        out[e.tail] = out.get(e.tail, 0) + 1
    assert set(out.values()) == {7}
    per_edge = {e.id: 0 for e in base2.edges}
    for c in base2.chambers:
        for eid in c.edge_ids:
            per_edge[eid] += 1
    assert set(per_edge.values()) == {3}  # q + 1


def test_solve_voltages_m1(pres2):
    sols = solve_voltages(pres2, 1)
    assert len(sols) == 1
    assert sols[0].c == (0,) * 7


def test_solve_voltages_all_satisfy(pres_m2):
    for m in (2, 3, 4, 5):
        for v in solve_voltages(pres_m2, m):
            assert v.satisfies(pres_m2)


def test_solve_voltages_m2_power_of_two(pres2, pres_m2):
    for pres in (pres2, pres_m2):
        count = len(solve_voltages(pres, 2))
        assert count & (count - 1) == 0  # kernel of a Z/2-linear map


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_solve_voltages_vs_bruteforce(pres_m2, m):
    classes = pres_m2.rotation_classes()
    brute = sorted(
        c
        for c in product(range(m), repeat=7)
        if all((c[x] + c[y] + c[z]) % m == 0 for (x, y, z) in classes)
    )
    solved = sorted(v.c for v in solve_voltages(pres_m2, m))
    assert solved == brute


def test_solve_voltages_composite_modulus(plane2):
    # presentation whose relation matrix has elementary divisor 42: rich
    # solution sets at the composite moduli dividing it
    from zeta3.construct import iter_triangle_presentations

    pres = None
    for k, cand in enumerate(iter_triangle_presentations(plane2)):
        if k == 17:
            pres = cand
            break
    classes = pres.rotation_classes()
    solved = sorted(v.c for v in solve_voltages(pres, 6))
    brute = sorted(
        c
        for c in product(range(6), repeat=7)
        if all((c[x] + c[y] + c[z]) % 6 == 0 for (x, y, z) in classes)
    )
    assert solved == brute
    assert len(solved) == 6  # single elementary divisor 42: gcd(42, 6) classes
    # m = 14 is too big to brute force; the count is pinned by gcd(42, 14)
    sols14 = solve_voltages(pres, 14)
    assert len(sols14) == 14
    assert all(v.satisfies(pres) for v in sols14)


def test_solve_voltages_sorted_and_contains_zero(pres_m2):
    sols = [v.c for v in solve_voltages(pres_m2, 2)]
    assert sols == sorted(sols)
    assert (0,) * 7 in sols


def test_identity_cover_equals_base(pres2, base2):
    cover = abelian_cover(pres2, VoltageAssignment(m=1, c=(0,) * 7))
    assert cover == base2


def test_cover_m2_counts(cover_m2):
    assert cover_m2.counts() == (6, 42, 42, 6)
    assert cover_m2.validate().ok


def test_cover_counts_scale(pres_m3):
    for _idx, cx in connected_covers(pres_m3, 3):
        assert cx.counts() == (9, 63, 63, 9)
        assert cx.validate().ok


def test_disconnected_cover_rejected(pres2):
    with pytest.raises(ConstructionError) as err:
        abelian_cover(pres2, VoltageAssignment(m=5, c=(0,) * 7))
    assert "subgroup of order 3 of 15" in str(err.value)


def test_cover_wrong_voltage_rejected(pres2):
    with pytest.raises(ConstructionError):
        abelian_cover(pres2, VoltageAssignment(m=5, c=(1, 0, 0, 0, 0, 0, 0)))


def test_edge_continuation_count(pres2, plane2):
    # continuations of an edge avoid the q+1 points of lam(x): exactly q^2
    line_pts = plane2.all_line_points
    for x in range(7):
        off = [y for y in range(7) if y not in line_pts[pres2.lam[x]]]
        assert len(off) == 4


def test_relation_matrix_row_structure(pres2):
    rows = relation_matrix(pres2)
    assert len(rows) == 7
    for row in rows:
        assert sum(row) == 3


def test_prime_power_modulus_covers(pres_m3):
    # the m=3-capable presentation also has connected Z/9 covers; the solver
    # must handle the non-field modulus and the covers must validate
    covers = connected_covers(pres_m3, 9)
    assert len(covers) == 18
    cx = covers[0][1]
    assert cx.counts() == (27, 189, 189, 27)
    assert cx.validate().ok
    out = {}
    for e in cx.edges:
        out[e.tail] = out.get(e.tail, 0) + 1
    assert set(out.values()) == {7}


def _kuhn_saturating_matching(candidates):
    """Reference for ``_hall_condition``: True iff a bipartite matching
    saturates every left node, by Kuhn augmentation.  ``candidates[i]`` lists
    the right nodes usable by left node i."""
    match = {}

    def augment(i, seen):
        for z in candidates[i]:
            if z in seen:
                continue
            seen.add(z)
            if z not in match or augment(match[z], seen):
                match[z] = i
                return True
        return False

    return all(augment(i, set()) for i in range(len(candidates)))


def _nodes(mask):
    return [z for z in range(mask.bit_length()) if mask >> z & 1]


def test_hall_condition_matches_kuhn():
    # every family of at most 3 rows over 4 right nodes
    checked = 0
    for k in range(4):
        for rows in product(range(16), repeat=k):
            expected = _kuhn_saturating_matching([_nodes(r) for r in rows])
            assert construct._hall_condition(list(rows)) is expected, rows
            checked += 1
    assert checked == 1 + 16 + 16**2 + 16**3
    # seeded random 4-row families, over the 4 points of a q=3 line and over
    # a 13-point plane
    rng = random.Random(20)
    verdicts = set()
    for width in (4, 13):
        for _ in range(2000):
            rows = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(4)]
            expected = _kuhn_saturating_matching([_nodes(r) for r in rows])
            assert construct._hall_condition(rows) is expected, rows
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_search_pruning_drops_nothing(plane2, monkeypatch):
    # the Hall prune must be conservative: with the predicate the search calls
    # accepting every prefix, the same solutions come in the same order
    full = [(p.lam, p.triples) for p in iter_triangle_presentations(plane2)]
    calls = []

    def accept(rows):
        calls.append(rows)
        return True

    monkeypatch.setattr(construct, "_hall_condition", accept)
    weak = [(p.lam, p.triples) for p in iter_triangle_presentations(plane2)]
    assert calls  # the search reads the patched predicate
    assert len(full) == 744
    assert weak == full


def test_relation_diagonal_computed_once(plane2, monkeypatch):
    # solve_voltages reads the presentation's one diagonalization for every m
    calls = []
    diagonalize = construct._diagonalize

    def counting(rows, n_cols):
        calls.append(n_cols)
        return diagonalize(rows, n_cols)

    monkeypatch.setattr(construct, "_diagonalize", counting)
    fresh = list(islice(iter_triangle_presentations(plane2), 20))
    covers = 0
    for pres in fresh:
        for m in (2, 3, 7):
            covers += len(connected_covers(pres, m))
    assert calls == [7] * len(fresh)
    assert covers > 0


def test_solve_voltages_pinned(plane2, presentations3):
    # the cached diagonalization gives the solution sets recorded before it:
    # every 8th q=2 presentation, and q=3 presentations 0 and 4
    q2 = list(iter_triangle_presentations(plane2))
    record = []
    for k in range(0, len(q2), 8):
        for m in (2, 3, 6, 7, 14):
            record.append((2, k, m, [v.c for v in solve_voltages(q2[k], m)]))
    for k in (0, 4):
        for m in (2, 4, 8):
            record.append((3, k, m, [v.c for v in solve_voltages(presentations3[k], m)]))
    assert sum(len(r[3]) for r in record) == 1985
    assert hashlib.sha256(repr(record).encode()).hexdigest() == (
        "209a54505bfb58c6bce571b691fd33346988f947ef17bd3a681fef686a45d1d6"
    )


def test_connected_covers_propagates_cover_errors(pres_m2, monkeypatch):
    # only disconnected voltages are skipped; any other error from
    # abelian_cover reaches the caller
    def broken(presentation, voltage):
        raise ConstructionError("cover failed")

    assert connected_covers(pres_m2, 2)
    monkeypatch.setattr(construct, "abelian_cover", broken)
    with pytest.raises(ConstructionError, match="cover failed"):
        connected_covers(pres_m2, 2)
    # a modulus with no connected cover never reaches abelian_cover
    assert connected_covers(pres_m2, 5) == []


def test_every_generated_complex_validates(plane2):
    # the first handful of presentations, their bases, and small covers
    for k, pres in enumerate(iter_triangle_presentations(plane2)):
        if k >= 5:
            break
        assert base_quotient(pres).validate().ok
        for m in (2, 3):
            for _idx, cx in connected_covers(pres, m):
                assert cx.validate().ok


def test_search_stream_pinned(plane2):
    # the search's prunes may only skip dead prefixes: the solutions and their
    # order stay as recorded (all 744 at q=2, then the first 62 at q=3)
    q2 = list(iter_triangle_presentations(plane2))
    q3 = list(islice(iter_triangle_presentations(projective_plane(3)), 62))
    stream = [(p.lam, sorted(p.triples)) for p in q2 + q3]
    assert hashlib.sha256(repr(stream).encode()).hexdigest() == (
        "6d49250d804dfb43821729e23c222e4b5ea6ca101c8955b478a4e6df28a11c0e"
    )
    # (x, x, x) is the one triple whose three rotation keys coincide; pin how
    # often it and the other triples with a repeated point occur
    repeated = [any(len(set(t)) < 3 for t in p.triples) for p in q2]
    constant = [any(len(set(t)) == 1 for t in p.triples) for p in q2]
    assert (sum(repeated), sum(constant)) == (672, 336)
    assert all(any(len(set(t)) == 1 for t in p.triples) for p in q3)
