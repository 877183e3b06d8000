"""Data model for finite 2-dimensional complexes with Z/3-typed vertices.

A complex stores directed type-one edges only (the type-two edge between the
same endpoints is the reverse orientation and is never materialized) and
triangular chambers, each recorded as the cyclic triple of its type-one edges
through vertex types 0 -> 1 -> 2 -> 0.  Parallel edges and repeated chamber
incidences are legal and expected: quotients this small identify simplices
aggressively, so every count below is a count with multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import InvalidComplexError


class Vertex(NamedTuple):
    id: int
    vtype: int


class Edge(NamedTuple):
    id: int
    tail: int
    head: int


class Chamber(NamedTuple):
    id: int
    e01: int
    e12: int
    e20: int

    @property
    def edge_ids(self):
        return (self.e01, self.e12, self.e20)


class DirectedChamber(NamedTuple):
    """A chamber with a distinguished base rotation (starting type-one edge)."""

    chamber_id: int
    rotation: int


@dataclass
class ValidationReport:
    """Outcome of validate(): structural errors and violated axioms, by id."""

    structural: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.structural and not self.violations

    def lines(self):
        return [f"structural: {m}" for m in self.structural] + [
            f"axiom: {m}" for m in self.violations
        ]


class Incidence(NamedTuple):
    """The incidence tables of a valid complex as int64 index arrays, every
    simplex named by its position in the sorted vertex, edge and chamber
    tuples.

    ``tail`` and ``head`` hold each edge's end vertices.  ``chamber_edges``
    (N2 x 3) holds each chamber's edges by slot: slot k goes from type k to
    type k + 1, so a valid complex has each edge at the one slot of its tail
    type.  Place 3c + k of ``chamber_edges.ravel()`` is slot k of chamber c,
    which is also the index of the directed chamber (c, k).  ``out_edges``
    (N0 x (q^2+q+1)) lists the edges leaving each vertex, and
    ``edge_places`` (N1 x (q+1)) the places of each edge; both rows are in
    ascending order.  The two fixed widths are the local axioms."""

    tail: np.ndarray
    head: np.ndarray
    chamber_edges: np.ndarray
    out_edges: np.ndarray
    edge_places: np.ndarray


@dataclass(frozen=True)
class Presented:
    """Provenance of a complex built from a triangle presentation + voltages."""

    presentation: object  # construct.TrianglePresentation
    voltage: object  # construct.VoltageAssignment


@dataclass(frozen=True)
class Geometric:
    """Provenance of a complex given by explicit vertex/edge/chamber lists."""


class ComplexDescription:
    """A finite complex; immutable after construction, validation and
    incidence tables cached."""

    def __init__(self, q, vertices, edges, chambers, provenance=None):
        self.q = int(q)
        self.vertices = tuple(sorted(Vertex(*v) for v in vertices))
        self.edges = tuple(sorted(Edge(*e) for e in edges))
        self.chambers = tuple(sorted(Chamber(*c) for c in chambers))
        self.provenance = provenance if provenance is not None else Geometric()
        self._report = None
        self._incidence = None

    def __eq__(self, other):
        if not isinstance(other, ComplexDescription):
            return NotImplemented
        return (
            self.q == other.q
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.chambers == other.chambers
            and self.provenance == other.provenance
        )

    def __repr__(self):
        return (
            f"ComplexDescription(q={self.q}, N0={len(self.vertices)}, "
            f"N1={len(self.edges)}, N2={len(self.chambers)})"
        )

    # -- derived lookups -----------------------------------------------------

    def vertex_type(self):
        return {v.id: v.vtype for v in self.vertices}

    # -- validation ------------------------------------------------------

    def validate(self):
        """Check every structural requirement and local axiom; cached."""
        if self._report is not None:
            return self._report
        rep = ValidationReport()
        q = self.q
        if q < 2:
            rep.structural.append(f"q={q} below 2")

        vtypes = {}
        for v in self.vertices:
            if v.id in vtypes:
                rep.structural.append(f"duplicate vertex id {v.id}")
            vtypes[v.id] = v.vtype
            if v.vtype not in (0, 1, 2):
                rep.structural.append(f"vertex {v.id} has type {v.vtype} outside Z/3")

        edges = {}
        for e in self.edges:
            if e.id in edges:
                rep.structural.append(f"duplicate edge id {e.id}")
            edges[e.id] = e
            for endpoint in (e.tail, e.head):
                if endpoint not in vtypes:
                    rep.structural.append(f"edge {e.id} references missing vertex {endpoint}")

        seen_cids = set()
        for c in self.chambers:
            if c.id in seen_cids:
                rep.structural.append(f"duplicate chamber id {c.id}")
            seen_cids.add(c.id)
            for eid in c.edge_ids:
                if eid not in edges:
                    rep.structural.append(f"chamber {c.id} references missing edge {eid}")

        if rep.structural:
            self._report = rep
            return rep

        if not self.vertices:
            rep.violations.append("complex is empty")
            self._report = rep
            return rep

        # typed edge rule: head type = tail type + 1 (mod 3)
        for e in self.edges:
            if vtypes[e.head] != (vtypes[e.tail] + 1) % 3:
                rep.violations.append(
                    f"edge {e.id} breaks the type rule: "
                    f"{vtypes[e.tail]} -> {vtypes[e.head]}"
                )

        # chamber closure through types 0 -> 1 -> 2 -> 0
        for c in self.chambers:
            es = [edges[eid] for eid in c.edge_ids]
            for pos, e in enumerate(es):
                if vtypes[e.tail] != pos:
                    rep.violations.append(
                        f"chamber {c.id} edge {e.id} at position {pos} "
                        f"has tail type {vtypes[e.tail]}"
                    )
            if not (es[0].head == es[1].tail and es[1].head == es[2].tail and es[2].head == es[0].tail):
                rep.violations.append(f"chamber {c.id} edges do not close a triangle")

        # regular in/out degree q^2 + q + 1
        target_deg = q * q + q + 1
        outdeg = {v.id: 0 for v in self.vertices}
        indeg = {v.id: 0 for v in self.vertices}
        for e in self.edges:
            outdeg[e.tail] += 1
            indeg[e.head] += 1
        for v in self.vertices:
            if outdeg[v.id] != target_deg:
                rep.violations.append(
                    f"vertex {v.id} has out-degree {outdeg[v.id]}, expected {target_deg}"
                )
            if indeg[v.id] != target_deg:
                rep.violations.append(
                    f"vertex {v.id} has in-degree {indeg[v.id]}, expected {target_deg}"
                )

        # every edge in q+1 chambers, with multiplicity
        chamber_count = {e.id: 0 for e in self.edges}
        for c in self.chambers:
            for eid in c.edge_ids:
                chamber_count[eid] += 1
        for e in self.edges:
            if chamber_count[e.id] != q + 1:
                rep.violations.append(
                    f"edge {e.id} lies in {chamber_count[e.id]} chambers, expected {q + 1}"
                )

        # type-preserving quotient: the three type classes have equal size
        class_sizes = [0, 0, 0]
        for v in self.vertices:
            class_sizes[v.vtype] += 1
        if len(self.vertices) % 3 != 0 or len(set(class_sizes)) != 1:
            rep.violations.append(
                f"vertex type classes have sizes {class_sizes}, expected equal thirds"
            )

        # one component: the trivial zeros, the census and the criteria all
        # count the complex once (abelian_cover rejects disconnected covers)
        neighbours = {v.id: [] for v in self.vertices}
        for e in self.edges:
            neighbours[e.tail].append(e.head)
            neighbours[e.head].append(e.tail)
        reached = set()
        components = 0
        for v in self.vertices:
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
            rep.violations.append(
                f"1-skeleton has {components} connected components, expected 1"
            )

        self._report = rep
        return rep

    @property
    def is_valid(self):
        return self.validate().ok

    def require_valid(self):
        rep = self.validate()
        if not rep.ok:
            raise InvalidComplexError("; ".join(rep.lines()[:5]))

    def incidence(self):
        """The complex's ``Incidence`` tables; cached, valid complexes only."""
        if self._incidence is not None:
            return self._incidence
        self.require_valid()
        vertex_ids = np.array([v.id for v in self.vertices], dtype=np.int64)
        edges = np.fromiter(chain.from_iterable(self.edges), np.int64).reshape(-1, 3)
        chambers = np.fromiter(chain.from_iterable(self.chambers), np.int64).reshape(-1, 4)
        # the tuples are sorted by id, so an id's position is its rank
        tail, head = np.searchsorted(vertex_ids, edges[:, 1:].T)
        chamber_edges = np.searchsorted(edges[:, 0], chambers[:, 1:])
        q = self.q
        self._incidence = Incidence(
            tail=tail,
            head=head,
            chamber_edges=chamber_edges,
            out_edges=np.argsort(tail, kind="stable").reshape(-1, q * q + q + 1),
            edge_places=np.argsort(chamber_edges.ravel(), kind="stable").reshape(-1, q + 1),
        )
        return self._incidence

    # -- counts and directed chambers -------------------------------------

    def counts(self):
        """(N0, N1, N2, chi) with chi = N0 - N1 + N2."""
        self.require_valid()
        n0 = len(self.vertices)
        n1 = len(self.edges)
        n2 = len(self.chambers)
        return n0, n1, n2, n0 - n1 + n2

    def directed_chambers(self):
        """All (chamber, rotation) pairs in canonical order; length 3*N2."""
        self.require_valid()
        return [
            DirectedChamber(c.id, r) for c in self.chambers for r in range(3)
        ]
