import numpy as np
import pytest

from zeta3 import exactdet, zeta
from zeta3.complexes import ComplexDescription, Geometric, Presented
from zeta3.construct import connected_covers
from zeta3.exactdet import det_integer
from zeta3.symmetry import quotient_pattern
from zeta3.zeta import vertex_companion
from zeta3.operators import (
    SparseIntegerMatrix,
    build_a1,
    build_a2,
    build_le,
    build_lb,
)

from conftest import geometric_copy
from generator_rules import (
    LabelledMatrix,
    build_companion_pattern,
    build_lb_pattern,
    build_le_pattern,
)


# -- per-entry references -------------------------------------------------------
#
# The builders before they took the incidence tables: a walk over the edges
# and chambers, one dict entry at a time.  Each returns the dict
# (row, col) -> value of its operator.


def _bump(entries, key, v=1):
    entries[key] = entries.get(key, 0) + v
    if not entries[key]:
        del entries[key]


def reference_a1(cx):
    vidx = {v.id: k for k, v in enumerate(cx.vertices)}
    out = {}
    for e in cx.edges:
        _bump(out, (vidx[e.tail], vidx[e.head]))
    return out


def reference_le(cx):
    eidx = {e.id: k for k, e in enumerate(cx.edges)}
    by_tail = {}
    for e in cx.edges:
        by_tail.setdefault(e.tail, []).append(e)
    chambers_of = {e.id: set() for e in cx.edges}
    for c in cx.chambers:
        for eid in c.edge_ids:
            chambers_of[eid].add(c.id)
    out = {}
    for e in cx.edges:
        for succ in by_tail.get(e.head, ()):
            if chambers_of[e.id].isdisjoint(chambers_of[succ.id]):
                _bump(out, (eidx[e.id], eidx[succ.id]))
    return out


def reference_lb(cx):
    dcs = cx.directed_chambers()
    didx = {dc: k for k, dc in enumerate(dcs)}
    chamber_by_id = {c.id: c for c in cx.chambers}
    slot_map = {}
    for c in cx.chambers:
        for pos, eid in enumerate(c.edge_ids):
            slot_map.setdefault((eid, pos), []).append(c.id)
    out = {}
    for dc in dcs:
        c = chamber_by_id[dc.chamber_id]
        r2 = (dc.rotation + 1) % 3
        for cid in slot_map.get((c.edge_ids[r2], r2), ()):
            if cid != c.id:
                _bump(out, (didx[dc], didx[(cid, r2)]))
    return out


def reference_companion(a1, a2, q, n):
    out = dict(a1)
    for (i, j), v in a2.items():
        _bump(out, (i, n + j), -q * v)
    for i in range(n):
        _bump(out, (i, 2 * n + i), q ** 3)
        _bump(out, (n + i, i))
        _bump(out, (2 * n + i, n + i))
    return out


def test_builders_match_per_entry_references(reference_battery):
    # multiplicities included: A1 of a q=2 base holds 7 parallel edges a cell
    for cx in reference_battery:
        a1, a2 = reference_a1(cx), {(j, i): v for (i, j), v in reference_a1(cx).items()}
        le, lb = reference_le(cx), reference_lb(cx)
        built = {"A1": build_a1(cx), "A2": build_a2(cx), "LE": build_le(cx), "LB": build_lb(cx)}
        for name, want in (("A1", a1), ("A2", a2), ("LE", le), ("LB", lb)):
            assert built[name].entries == want, (cx, name)
            assert built[name].triplets() == [(i, j, v) for (i, j), v in sorted(want.items())]
        assert built["LB"].negated().entries == {k: -v for k, v in lb.items()}
        companion = vertex_companion(built["A1"], built["A2"], cx.q)
        assert companion.entries == reference_companion(a1, a2, cx.q, len(cx.vertices))


def test_sparse_matrix_basics():
    m = SparseIntegerMatrix(3, {(0, 1): 2, (2, 2): 1})
    assert m.get(0, 1) == 2
    assert m.get(1, 0) == 0
    m2 = m.with_increment(0, 1)
    assert m2.get(0, 1) == 3 and m.get(0, 1) == 2
    assert m.transpose().get(1, 0) == 2
    assert m.trace() == 1
    assert m.row_sums() == [2, 0, 1]
    assert m.col_sums() == [0, 2, 1]
    assert m.triplets() == [(0, 1, 2), (2, 2, 1)]
    canceled = m.with_increment(2, 2, -1)
    assert (2, 2) not in canceled.entries
    assert len(canceled.entries) == 1 and canceled.values.tolist() == [2]


def test_sparse_matrix_from_arrays():
    # repeated cells sum, cells summing to zero drop, and the arrays come out
    # in (row, col) order; an entry outside the matrix raises
    m = SparseIntegerMatrix.from_arrays(
        3, np.array([2, 0, 2, 1, 0]), np.array([1, 2, 1, 1, 2]), np.array([4, 5, -1, 2, -5]))
    assert m.triplets() == [(1, 1, 2), (2, 1, 3)]
    assert m == SparseIntegerMatrix(3, {(2, 1): 3, (1, 1): 2})
    swap = SparseIntegerMatrix.from_arrays(2, np.array([1, 0]), np.array([0, 1]), 1)
    assert swap.triplets() == [(0, 1, 1), (1, 0, 1)]
    for i, j in ((3, 0), (0, -1)):
        with pytest.raises(IndexError):
            SparseIntegerMatrix.from_arrays(3, np.array([i]), np.array([j]), 1)
        with pytest.raises(IndexError):
            SparseIntegerMatrix(3, {(i, j): 1})
    # weights beyond int64 stay Python ints
    big = SparseIntegerMatrix(2, {(0, 1): 3 << 63, (1, 0): -1})
    assert big.values.dtype == object and big.negated().get(0, 1) == -(3 << 63)
    assert big.to_dense() == [[0, 3 << 63], [-1, 0]]
    # and so do int64 weights whose sum outgrows int64
    top = (1 << 63) - 1
    doubled = SparseIntegerMatrix(2, {(1, 1): top}).with_increment(1, 1, top)
    assert doubled.triplets() == [(1, 1, 2 * top)] and doubled.row_sums() == [0, 2 * top]


def test_labelled_matrix_basics():
    m = LabelledMatrix(2, 3, {(0, 1, 2): 2})
    m.add(0, 1, 5, -2)  # labels reduce mod m: cancels the entry
    assert m.entries == {}
    m.add(1, 0, 2)
    assert m.negated().entries == {(1, 0, 2): -1}
    lift = m.lift()
    assert lift.n == 18
    # every entry raises the sheet by one: (g, 1) -> (g + (1, 2), 0), lifted
    # index (g3 * 3 + gm) * 2 + i
    assert lift.get(1, ((1 * 3 + 2) * 2)) == 1
    assert sorted(lift.row_sums()) == [0] * 9 + [1] * 9


def test_patterns_lift_to_regular_operators(small_battery):
    for cx in small_battery:
        q = cx.q
        le = build_le_pattern(cx).lift()
        lb = build_lb_pattern(cx).lift()
        assert le.n == build_le(cx).n and lb.n == build_lb(cx).n
        assert set(le.row_sums()) == set(le.col_sums()) == {q * q}
        assert set(lb.row_sums()) == set(lb.col_sums()) == {q}


def test_patterns_need_presented_complex(base2):
    geo = ComplexDescription(
        q=base2.q, vertices=base2.vertices, edges=base2.edges,
        chambers=base2.chambers, provenance=Geometric(),
    )
    with pytest.raises(ValueError):
        build_le_pattern(geo)
    with pytest.raises(ValueError):
        build_lb_pattern(geo)
    with pytest.raises(ValueError):
        build_companion_pattern(geo)


def test_a1_base_is_seven_times_cycle(base2):
    a1 = build_a1(base2)
    assert a1.n == 3
    assert a1.entries == {(0, 1): 7, (1, 2): 7, (2, 0): 7}


def test_a2_is_transpose(base2):
    a1 = build_a1(base2)
    a2 = build_a2(base2)
    assert a2 == a1.transpose()
    assert a2.transpose() == a1
    assert set(a2.row_sums()) == {7}


def test_row_sums_battery(small_battery):
    for cx in small_battery:
        q = cx.q
        assert set(build_a1(cx).row_sums()) == {q * q + q + 1}
        le = build_le(cx)
        assert set(le.row_sums()) == {q * q}
        assert set(le.col_sums()) == {q * q}
        lb = build_lb(cx)
        assert set(lb.row_sums()) == {q}
        assert set(lb.col_sums()) == {q}


def test_block_cyclic_structure(small_battery):
    for cx in small_battery:
        vtype = cx.vertex_type()
        vid = [v.id for v in cx.vertices]
        a1 = build_a1(cx)
        for (i, j) in a1.entries:
            assert vtype[vid[j]] == (vtype[vid[i]] + 1) % 3


def test_le_trace_zero(small_battery):
    for cx in small_battery:
        assert build_le(cx).trace() == 0


def test_generator_rule_matches_geometric_rule(small_battery):
    # the generator rule's L_E pattern lifts to the incidence-rule operator
    # entry for entry; L_B lifts only up to the order of directed chambers,
    # and tests/test_zeta.py compares its determinant over Z
    for cx in small_battery:
        assert build_le_pattern(cx).lift() == build_le(cx)


def test_companion_pattern_lifts_to_vertex_companion(small_battery):
    # lifted index (s * m + g) * 3 + b holds vertex (t, g) = (s + b, g) of
    # companion block b, whose index is b * N0 + t * m + g
    for cx in small_battery:
        m = cx.provenance.voltage.m
        n0 = 3 * m
        place = [b * n0 + (s + b) % 3 * m + g
                 for s in range(3) for g in range(m) for b in range(3)]
        lift = build_companion_pattern(cx).lift()
        relabelled = SparseIntegerMatrix(
            lift.n, {(place[i], place[j]): v for (i, j), v in lift.entries.items()})
        assert relabelled == vertex_companion(build_a1(cx), build_a2(cx), cx.q)


def test_lb_sizes(base2, cover_m3):
    assert build_lb(base2).n == 63
    assert build_lb(cover_m3).n == 189
    assert set(build_lb(cover_m3).row_sums()) == {2}


def test_lb_diagonal_bounded(base2):
    lb = build_lb(base2)
    sums = lb.row_sums()
    for (i, j), v in lb.entries.items():
        if i == j:
            assert v <= sums[i]


def test_full_rank_small(base2, cover_m2):
    for cx in (base2, cover_m2):
        assert det_integer(build_le(cx).to_dense()) != 0
        assert det_integer(build_lb(cx).to_dense()) != 0


def test_entry_bounds(small_battery):
    for cx in small_battery:
        for m in (build_le(cx), build_lb(cx)):
            assert all(v >= 1 for v in m.entries.values())


# -- the labelled base quotient operators -------------------------------------


def labelled_call(cx, tag, monkeypatch):
    """The arguments zeta hands exactdet.char_rev_labelled for determinant
    ``tag`` of a presented complex, (n, m, rows, cols, labels, values,
    classes, operator, paths), taking none."""
    calls = []
    monkeypatch.setattr(zeta, "char_rev_labelled", lambda *args: calls.append(args))
    zeta._determinant(cx, tag)
    (args,) = calls
    return args


def labelled_inputs(cx, tag, monkeypatch):
    """(n, m, rows, cols, labels, values) of ``labelled_call``."""
    return labelled_call(cx, tag, monkeypatch)[:6]


def cyclic_lift(n, m, rows, cols, labels, values, place):
    """The lift over Z/m of a labelled n x n pattern, from h*n + i to
    (h + label)*n + j (mod mn) for each sheet h, with index k put at
    place[k]."""
    assert sorted(place.tolist()) == list(range(m * n))
    sheet = np.arange(m)[:, None]
    lifted_rows = (sheet * n + rows).ravel()
    lifted_cols = ((sheet + labels) % m * n + cols).ravel()
    return SparseIntegerMatrix.from_arrays(
        m * n, place[lifted_rows], place[lifted_cols], np.tile(values, m))


def placements(cx, tag):
    """Where index h*n + i of the Z/m lift of base operator ``tag`` sits in
    the cover's own operator and in the generator-rule lift: the lift of a
    base simplex on sheet h is the one whose (first) edge leaves sheet h.

    ``abelian_cover`` numbers vertex (t, h) t*m + h, the edge of generator x
    leaving it (t*m + h)*n + x, and chamber a of triple ti a*|T| + ti, whose
    slot-r edge leaves sheet a plus the voltages of the slots before r."""
    pres, volt = cx.provenance.presentation, cx.provenance.voltage
    m, c, n = volt.m, volt.c, pres.plane.n
    if tag == "A":
        # base index b*3 + t is vertex t of companion block b
        cover = [b * 3 * m + t * m + h for h in range(m) for b in range(3) for t in range(3)]
        rule = [((t - b) % 3 * m + h) * 3 + b for h in range(m) for b in range(3) for t in range(3)]
    elif tag == "E":
        cover = rule = [(t * m + h) * n + x for h in range(m) for t in range(3) for x in range(n)]
    else:
        triples = pres.sorted_triples()
        index = {t: i for i, t in enumerate(triples)}
        cover, rule = [], []
        for h in range(m):
            for ti, (x, y, z) in enumerate(triples):
                before = (0, c[x], c[x] + c[y])
                rotated = ((x, y, z), (y, z, x), (z, x, y))
                for r in range(3):
                    cover.append(3 * ((h - before[r]) % m * len(triples) + ti) + r)
                    rule.append((r * m + h) * len(triples) + index[rotated[r]])
    return np.array(cover), np.array(rule)


def test_labelled_base_operators_lift_to_both_rules(reference_battery, cover_m7, presentations3,
                                                    monkeypatch):
    # the base quotient's operators labelled by a cover's voltages lift over
    # Z/m to the cover's own incidence-rule operators and to the generator
    # rule's, up to one relabelling of rows and columns each; the q=2 and
    # q=3 bases are the case m = 1
    p4_m8 = dict(connected_covers(presentations3[4], 8))[2]
    own = {"A": lambda cx: vertex_companion(build_a1(cx), build_a2(cx), cx.q),
           "E": build_le, "B": lambda cx: build_lb(cx).negated()}
    rule = {"A": build_companion_pattern, "E": build_le_pattern,
            "B": lambda cx: build_lb_pattern(cx).negated()}
    presented = [cx for cx in reference_battery if isinstance(cx.provenance, Presented)]
    assert len(presented) == 9
    for cx in presented + [cover_m7, p4_m8]:
        for tag in "AEB":
            n, m, *pattern = labelled_inputs(cx, tag, monkeypatch)
            to_cover, to_rule = placements(cx, tag)
            assert cyclic_lift(n, m, *pattern, to_cover) == own[tag](cx), (cx, tag)
            assert cyclic_lift(n, m, *pattern, to_rule) == rule[tag](cx).lift(), (cx, tag)


def test_path_tables_give_the_period3_product(reference_battery, cover_m7, presentations3,
                                              monkeypatch):
    # X of a presented complex comes from its base operator's path table: one
    # scatter of the paths' labels, equal to the dense period-3 product of
    # the lift from V_0 on sheet 0 to V_0 on each sheet h, int64 and entry
    # for entry, on every cover's labels
    p4_m8 = dict(connected_covers(presentations3[4], 8))[2]
    presented = [cx for cx in reference_battery if isinstance(cx.provenance, Presented)]
    for cx in presented + [cover_m7, p4_m8]:
        for tag in "AEB":
            n, m, rows, cols, labels, values, classes, _operator, paths = labelled_call(
                cx, tag, monkeypatch)
            assert paths.r == len(classes[0])
            d, x = exactdet._cyclic_reduction(n, m, rows, cols, labels, values, classes, paths)
            lifted = cyclic_lift(n, m, rows, cols, labels, values, np.arange(m * n)).to_numpy()
            v0 = classes[0]
            cube = (lifted @ lifted @ lifted)[v0][:, np.arange(m) * n + v0[:, None]]
            assert d == 3 and x.dtype == np.int64, (cx, tag)
            assert x.shape == cube.shape and np.array_equal(x, cube), (cx, tag)


def test_path_table_sizes(cover_m7, presentations3):
    # the length-3 paths from the smallest class back to it, per operator
    # (companion, L_E, -L_B), on q=2 presentation 17 and q=3 presentation 4:
    # one entry triple each, never a table over the generators
    pinned = {cover_m7.provenance.presentation: (1025, 448, 168),
              presentations3[4]: (5489, 9477, 1404)}
    for pres, sizes in pinned.items():
        operators = zeta._base_operators(pres)
        tables = [operators[tag].paths for tag in "AEB"]
        assert tuple(len(t.cells) for t in tables) == sizes
        for table, tag in zip(tables, "AEB"):
            assert table.entries.shape == (3, len(table.cells))
            assert table.weights.dtype == np.float64
            assert not table.entries.flags.writeable
            # every path starts on the first class, steps along the grading
            # and returns to the first class
            op = operators[tag]
            rows, cols = op.rows[table.entries], op.cols[table.entries]
            assert np.array_equal(cols[:2], rows[1:])
            assert np.isin(rows[0], op.classes[0]).all() and np.isin(cols[2], op.classes[0]).all()


def test_quotient_patterns_lift_to_own_operators(reference_battery, cover_m7, presentations3,
                                                 monkeypatch):
    # a geometric copy's operator over the orbits of its free symmetry g
    # lifts over Z/m to the operator itself, index h*n + i at g^h of orbit
    # i's least member
    p4_m8 = dict(connected_covers(presentations3[4], 8))[2]
    copies = [cx for cx in reference_battery if not isinstance(cx.provenance, Presented)]
    copies += [geometric_copy(cx) for cx in (cover_m7, p4_m8)]
    lifted = 0
    for cx in copies:
        symmetry = cx.free_symmetry()
        if symmetry is None:
            continue
        for tag in "AEB":
            operator = zeta._OPERATORS[tag](cx)
            g = zeta._ACTIONS[tag](symmetry)
            n, m, *pattern, _classes = quotient_pattern(operator, g, symmetry.m)
            orbits = {}
            for i in range(len(g)):
                j, orbit = int(g[i]), [i]
                while j != i:
                    orbit.append(j)
                    j = int(g[j])
                orbits.setdefault(min(orbit), orbit)
            place = np.empty(m * n, dtype=np.int64)
            for k, least in enumerate(sorted(orbits)):
                member = least
                for h in range(m):
                    place[h * n + k] = member
                    member = int(g[member])
            assert cyclic_lift(n, m, *pattern, place) == operator, (cx, tag)
        lifted += 1
    assert lifted == 8
