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


def _fields(records, width):
    """The records (tuples of ``width`` ints) as a (len, width) int64 array,
    or as Python ints in an object array when one outgrows int64."""
    try:
        flat = np.fromiter(chain.from_iterable(records), np.int64, width * len(records))
    except OverflowError:
        flat = np.array(list(chain.from_iterable(records)), dtype=object)
    return flat.reshape(-1, width)


def _repeats(ids):
    """Whether each of the sorted ``ids`` repeats an earlier one."""
    return np.concatenate(([False], ids[1:] == ids[:-1]))


def _positions(ids, refs):
    """(position of each of ``refs`` in the sorted ``ids``, whether it is
    there): the position is the first of that id, or meaningless where the id
    is missing."""
    at = np.searchsorted(ids, refs)
    if not len(ids):
        return at, np.zeros(at.shape, dtype=bool)
    return at, ids[np.minimum(at, len(ids) - 1)] == refs


def _component_count(n, a, b):
    """The connected components of the graph on 0..n-1 with an edge between
    a[k] and b[k] for every k, counted by a breadth-first search from each
    least unreached vertex that reaches a whole frontier per step."""
    reached = np.zeros(n, dtype=bool)
    count = 0
    while not reached.all():
        count += 1
        reached[np.argmin(reached)] = True
        while True:
            at_a, at_b = reached[a], reached[b]
            frontier = np.concatenate((b[at_a & ~at_b], a[at_b & ~at_a]))
            if not len(frontier):
                break
            reached[frontier] = True
    return count


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
        self._index = None
        self._incidence = None
        self._symmetry = None

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
        """Check every structural requirement and local axiom; cached.

        The checks run on arrays of the ids and of the positions they name
        (``_fields``, ``_positions``); the messages, by id, are built only
        for the records a check fails, in the order of the records.
        """
        if self._report is None:
            report = ValidationReport()
            self._check(report)
            self._report = report
        return self._report

    def _check(self, rep):
        """Fill ``rep`` with the messages of ``validate``."""
        q = self.q
        if q < 2:
            rep.structural.append(f"q={q} below 2")

        vid, vtype = _fields(self.vertices, 2).T
        edges = _fields(self.edges, 3)
        chambers = _fields(self.chambers, 4)
        tail, tail_found = _positions(vid, edges[:, 1])
        head, head_found = _positions(vid, edges[:, 2])
        slots, slot_found = _positions(edges[:, 0], chambers[:, 1:])

        repeat = _repeats(vid)
        bad_type = (vtype < 0) | (vtype > 2)
        for i in np.flatnonzero(repeat | bad_type).tolist():
            v = self.vertices[i]
            if repeat[i]:
                rep.structural.append(f"duplicate vertex id {v.id}")
            if bad_type[i]:
                rep.structural.append(f"vertex {v.id} has type {v.vtype} outside Z/3")

        repeat = _repeats(edges[:, 0])
        for i in np.flatnonzero(repeat | ~tail_found | ~head_found).tolist():
            e = self.edges[i]
            if repeat[i]:
                rep.structural.append(f"duplicate edge id {e.id}")
            for endpoint, found in ((e.tail, tail_found[i]), (e.head, head_found[i])):
                if not found:
                    rep.structural.append(f"edge {e.id} references missing vertex {endpoint}")

        repeat = _repeats(chambers[:, 0])
        for i in np.flatnonzero(repeat | ~slot_found.all(axis=1)).tolist():
            c = self.chambers[i]
            if repeat[i]:
                rep.structural.append(f"duplicate chamber id {c.id}")
            for eid, found in zip(c.edge_ids, slot_found[i]):
                if not found:
                    rep.structural.append(f"chamber {c.id} references missing edge {eid}")

        if rep.structural:
            return

        if not self.vertices:
            rep.violations.append("complex is empty")
            return

        # typed edge rule: head type = tail type + 1 (mod 3)
        vtype = vtype.astype(np.int64)
        tail_type, head_type = vtype[tail], vtype[head]
        for i in np.flatnonzero(head_type != (tail_type + 1) % 3).tolist():
            rep.violations.append(
                f"edge {self.edges[i].id} breaks the type rule: "
                f"{tail_type[i]} -> {head_type[i]}"
            )

        # chamber closure through types 0 -> 1 -> 2 -> 0: slot k has tail
        # type k, and each slot's head is the next slot's tail
        slot_type = tail_type[slots]
        misplaced = slot_type != np.arange(3)
        unclosed = (head[slots] != tail[slots][:, [1, 2, 0]]).any(axis=1)
        for i in np.flatnonzero(misplaced.any(axis=1) | unclosed).tolist():
            c = self.chambers[i]
            for pos in np.flatnonzero(misplaced[i]).tolist():
                rep.violations.append(
                    f"chamber {c.id} edge {c.edge_ids[pos]} at position {pos} "
                    f"has tail type {slot_type[i, pos]}"
                )
            if unclosed[i]:
                rep.violations.append(f"chamber {c.id} edges do not close a triangle")

        # regular in/out degree q^2 + q + 1
        n0 = len(self.vertices)
        target_deg = q * q + q + 1
        outdeg = np.bincount(tail, minlength=n0)
        indeg = np.bincount(head, minlength=n0)
        for i in np.flatnonzero((outdeg != target_deg) | (indeg != target_deg)).tolist():
            v = self.vertices[i]
            if outdeg[i] != target_deg:
                rep.violations.append(
                    f"vertex {v.id} has out-degree {outdeg[i]}, expected {target_deg}"
                )
            if indeg[i] != target_deg:
                rep.violations.append(
                    f"vertex {v.id} has in-degree {indeg[i]}, expected {target_deg}"
                )

        # every edge in q+1 chambers, with multiplicity
        chamber_count = np.bincount(slots.ravel(), minlength=len(self.edges))
        for i in np.flatnonzero(chamber_count != q + 1).tolist():
            rep.violations.append(
                f"edge {self.edges[i].id} lies in {chamber_count[i]} chambers, expected {q + 1}"
            )

        # type-preserving quotient: the three type classes have equal size
        class_sizes = np.bincount(vtype, minlength=3).tolist()
        if n0 % 3 != 0 or len(set(class_sizes)) != 1:
            rep.violations.append(
                f"vertex type classes have sizes {class_sizes}, expected equal thirds"
            )

        # one component: the trivial zeros, the census and the criteria all
        # count the complex once (abelian_cover rejects disconnected covers)
        components = _component_count(n0, tail, head)
        if components > 1:
            rep.violations.append(
                f"1-skeleton has {components} connected components, expected 1"
            )

        self._index = (tail, head, slots)

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
        # validate's positions of the ids: the tuples are sorted by id, so an
        # id's position is its rank
        tail, head, chamber_edges = self._index
        q = self.q
        self._incidence = Incidence(
            tail=tail,
            head=head,
            chamber_edges=chamber_edges,
            out_edges=np.argsort(tail, kind="stable").reshape(-1, q * q + q + 1),
            edge_places=np.argsort(chamber_edges.ravel(), kind="stable").reshape(-1, q + 1),
        )
        return self._incidence

    def free_symmetry(self):
        """The free cyclic automorphism of largest order that
        ``symmetry.find_free_symmetry`` finds on the complex, or None; the
        search runs once, valid complexes only."""
        if self._symmetry is None:
            # symmetry builds on this module's complexes
            from .symmetry import find_free_symmetry

            self._symmetry = (find_free_symmetry(self),)
        return self._symmetry[0]

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
