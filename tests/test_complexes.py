import pytest

from zeta3.complexes import ComplexDescription, Geometric
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
