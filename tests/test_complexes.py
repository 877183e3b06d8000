import random

import pytest

from zeta3.complexes import ComplexDescription, Geometric, ValidationReport
from zeta3.errors import InvalidComplexError
from zeta3.zeta import zeta_parts


def rebuild(cx, vertices=None, edges=None, chambers=None):
    return ComplexDescription(
        q=cx.q,
        vertices=vertices if vertices is not None else cx.vertices,
        edges=edges if edges is not None else cx.edges,
        chambers=chambers if chambers is not None else cx.chambers,
        provenance=Geometric(),
    )


def test_base_is_valid(base2):
    assert base2.validate().ok
    assert base2.validate() is base2.validate()  # cached


def test_counts_base(base2):
    assert base2.counts() == (3, 21, 21, 3)


def test_disconnected_complex_rejected(two_bases):
    # each copy is a valid complex; together they have two components
    report = two_bases.validate()
    assert not report.structural
    assert report.violations == ["1-skeleton has 2 connected components, expected 1"]
    with pytest.raises(InvalidComplexError, match="2 connected components"):
        zeta_parts(two_bases)


def test_counts_cover_scale(cover_m2):
    assert cover_m2.counts() == (6, 42, 42, 6)


def test_counts_relabel_invariant(base2):
    shift = 100
    vertices = [(v.id + shift, v.vtype) for v in base2.vertices]
    edges = [(e.id + shift, e.tail + shift, e.head + shift) for e in base2.edges]
    eid = {e.id: e.id + shift for e in base2.edges}
    chambers = [(c.id + shift, eid[c.e01], eid[c.e12], eid[c.e20]) for c in base2.chambers]
    relabeled = rebuild(base2, vertices, edges, chambers)
    assert relabeled.validate().ok
    assert relabeled.counts() == base2.counts()


def test_empty_complex_rejected():
    cx = ComplexDescription(q=2, vertices=(), edges=(), chambers=())
    assert not cx.is_valid
    assert any("empty" in v for v in cx.validate().violations)
    with pytest.raises(InvalidComplexError):
        cx.counts()


def test_directed_chambers_base(base2):
    dcs = base2.directed_chambers()
    assert len(dcs) == 63
    assert len(set(dcs)) == 63
    assert dcs == sorted(dcs)


def test_directed_chambers_cover(cover_m3):
    assert len(cover_m3.directed_chambers()) == 3 * cover_m3.counts()[2]


def test_deleted_chamber_breaks_incidence(base2):
    removed = base2.chambers[0]
    cx = rebuild(base2, chambers=base2.chambers[1:])
    rep = cx.validate()
    assert not rep.ok
    incidence = [v for v in rep.violations if "chambers" in v]
    assert len(incidence) == 3
    for eid in removed.edge_ids:
        assert any(f"edge {eid} " in v for v in incidence)


def test_retyped_vertex_breaks_incident_edges(base2):
    target = base2.vertices[0]
    vertices = [(target.id, (target.vtype + 1) % 3)] + [
        (v.id, v.vtype) for v in base2.vertices[1:]
    ]
    cx = rebuild(base2, vertices=vertices)
    rep = cx.validate()
    assert not rep.ok
    incident = [e.id for e in base2.edges if target.id in (e.tail, e.head)]
    flagged = " ".join(v for v in rep.violations if "type rule" in v)
    for eid in incident:
        assert f"edge {eid} " in flagged
    assert any("type classes" in v for v in rep.violations)


def test_missing_vertex_is_structural(base2):
    edges = [(999, 12345, base2.edges[0].head)] + [tuple(e) for e in base2.edges]
    cx = rebuild(base2, edges=edges)
    rep = cx.validate()
    assert rep.structural
    assert any("missing vertex" in s for s in rep.structural)
    assert not rep.violations  # axioms not reported on broken references


def test_duplicate_ids_are_structural(base2):
    edges = [tuple(base2.edges[0])] + [tuple(e) for e in base2.edges]
    cx = rebuild(base2, edges=edges)
    assert any("duplicate edge" in s for s in cx.validate().structural)


def test_incidence_totals(small_battery):
    # sum of out-degrees = N1 and total edge-chamber incidences = 3*N2 = (q+1)*N1
    for cx in small_battery:
        n0, n1, n2, _ = cx.counts()
        assert n1 == n0 * (cx.q ** 2 + cx.q + 1)
        assert 3 * n2 == (cx.q + 1) * n1


# -- the per-entry reference ------------------------------------------------
#
# validate before it took index arrays: one walk over the records per check,
# with a dict per id.  Every message, in the same order.


def reference_report(cx):
    rep = ValidationReport()
    q = cx.q
    if q < 2:
        rep.structural.append(f"q={q} below 2")
    vtypes = {}
    for v in cx.vertices:
        if v.id in vtypes:
            rep.structural.append(f"duplicate vertex id {v.id}")
        vtypes[v.id] = v.vtype
        if v.vtype not in (0, 1, 2):
            rep.structural.append(f"vertex {v.id} has type {v.vtype} outside Z/3")
    edges = {}
    for e in cx.edges:
        if e.id in edges:
            rep.structural.append(f"duplicate edge id {e.id}")
        edges[e.id] = e
        for endpoint in (e.tail, e.head):
            if endpoint not in vtypes:
                rep.structural.append(f"edge {e.id} references missing vertex {endpoint}")
    seen = set()
    for c in cx.chambers:
        if c.id in seen:
            rep.structural.append(f"duplicate chamber id {c.id}")
        seen.add(c.id)
        for eid in c.edge_ids:
            if eid not in edges:
                rep.structural.append(f"chamber {c.id} references missing edge {eid}")
    if rep.structural:
        return rep
    if not cx.vertices:
        rep.violations.append("complex is empty")
        return rep
    for e in cx.edges:
        if vtypes[e.head] != (vtypes[e.tail] + 1) % 3:
            rep.violations.append(
                f"edge {e.id} breaks the type rule: {vtypes[e.tail]} -> {vtypes[e.head]}")
    for c in cx.chambers:
        es = [edges[eid] for eid in c.edge_ids]
        for pos, e in enumerate(es):
            if vtypes[e.tail] != pos:
                rep.violations.append(f"chamber {c.id} edge {e.id} at position {pos} "
                                      f"has tail type {vtypes[e.tail]}")
        if not (es[0].head == es[1].tail and es[1].head == es[2].tail
                and es[2].head == es[0].tail):
            rep.violations.append(f"chamber {c.id} edges do not close a triangle")
    target = q * q + q + 1
    outdeg = {v.id: 0 for v in cx.vertices}
    indeg = {v.id: 0 for v in cx.vertices}
    for e in cx.edges:
        outdeg[e.tail] += 1
        indeg[e.head] += 1
    for v in cx.vertices:
        if outdeg[v.id] != target:
            rep.violations.append(f"vertex {v.id} has out-degree {outdeg[v.id]}, expected {target}")
        if indeg[v.id] != target:
            rep.violations.append(f"vertex {v.id} has in-degree {indeg[v.id]}, expected {target}")
    count = {e.id: 0 for e in cx.edges}
    for c in cx.chambers:
        for eid in c.edge_ids:
            count[eid] += 1
    for e in cx.edges:
        if count[e.id] != q + 1:
            rep.violations.append(f"edge {e.id} lies in {count[e.id]} chambers, expected {q + 1}")
    sizes = [0, 0, 0]
    for v in cx.vertices:
        sizes[v.vtype] += 1
    if len(cx.vertices) % 3 != 0 or len(set(sizes)) != 1:
        rep.violations.append(f"vertex type classes have sizes {sizes}, expected equal thirds")
    neighbours = {v.id: [] for v in cx.vertices}
    for e in cx.edges:
        neighbours[e.tail].append(e.head)
        neighbours[e.head].append(e.tail)
    reached = set()
    components = 0
    for v in cx.vertices:
        if v.id in reached:
            continue
        components += 1
        reached.add(v.id)
        stack = [v.id]
        while stack:
            for w in neighbours[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
    if components > 1:
        rep.violations.append(f"1-skeleton has {components} connected components, expected 1")
    return rep


def mutate(cx, rng):
    """A copy of ``cx`` with one to three random faults: a retyped vertex
    (inside or outside Z/3, or far beyond int64), a repeated, dropped or
    extra record, a field naming a missing or another id, or q below 2."""
    q = cx.q
    vertices = [list(v) for v in cx.vertices]
    edges = [list(e) for e in cx.edges]
    chambers = [list(c) for c in cx.chambers]
    tables = (vertices, edges, chambers)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(8)
        table = rng.choice(tables)
        if kind == 0:
            rng.choice(vertices)[1] = rng.choice([0, 1, 2, -1, 3, 1 << 70])
        elif kind == 1 and table:
            table.append(list(rng.choice(table)))
        elif kind == 2 and table:
            table.pop(rng.randrange(len(table)))
        elif kind == 3 and table:
            record = rng.choice(table)
            record[rng.randrange(len(record))] = rng.choice([10 ** 6, -5, 1 << 80])
        elif kind == 4 and table:
            record = rng.choice(table)
            field = rng.randrange(1, len(record)) if table is not vertices else 0
            record[field] = rng.choice(table)[field]
        elif kind == 5:
            vertices.append([10 ** 5 + rng.randrange(100), rng.randrange(3)])
        elif kind == 6 and chambers:
            c = rng.choice(chambers)
            c[1:] = rng.sample(c[1:], 3)
        elif kind == 7:
            q = rng.choice([1, q])
    return ComplexDescription(q, vertices, edges, chambers)


@pytest.mark.parametrize("seed", range(4))
def test_validate_matches_per_entry_reference(seed, base2, cover_m2, base3, two_bases):
    rng = random.Random(seed)
    for cx in (base2, cover_m2, base3, two_bases):
        for _ in range(40):
            broken = mutate(cx, rng)
            report = broken.validate()
            expected = reference_report(broken)
            assert (report.structural, report.violations) == (expected.structural,
                                                              expected.violations)
        report = rebuild(cx).validate()
        assert (report.structural, report.violations) == ([], reference_report(cx).violations)
