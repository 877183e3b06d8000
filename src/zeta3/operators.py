"""The four adjacency operators of a complex, as sparse integer matrices.

Out-degrees are forced by the local structure: q^2+q+1 for the vertex
operator A1, q^2 for the edge operator, q for the directed-chamber operator.
Those row sums double as the cross-check that the combinatorial successor
rules below implement the intended coset actions.

Every complex, presented or given by explicit lists, gets L_E and L_B from
the incidence rules.

Presented complexes also have a voltage-labelled base form of L_E, L_B and
the vertex companion (``LabelledMatrix``, from the generator rules): G =
Z/3 x Z/m acts freely on them, so each is the lift of a small pattern.
Every entry raises the sheet (the Z/3 part, the vertex type) by one and
carries a label in the cover's deck group Z/m.  The determinants take the
pattern; the tests compare its lift with the incidence-rule operators.
"""

from __future__ import annotations

import numpy as np

from .complexes import ComplexDescription, Presented


class SparseIntegerMatrix:
    """Square integer matrix in sparse form: (row, col) -> multiplicity."""

    __slots__ = ("n", "entries")

    def __init__(self, n, entries=None):
        self.n = int(n)
        self.entries = {}
        if entries:
            for (i, j), v in dict(entries).items():
                self.add(i, j, v)

    def add(self, i, j, v=1):
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError((i, j))
        if v == 0:
            return
        key = (i, j)
        new = self.entries.get(key, 0) + v
        if new == 0:
            del self.entries[key]
        else:
            self.entries[key] = new

    def get(self, i, j):
        return self.entries.get((i, j), 0)

    def __eq__(self, other):
        if not isinstance(other, SparseIntegerMatrix):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __repr__(self):
        return f"SparseIntegerMatrix(n={self.n}, nnz={len(self.entries)})"

    def transpose(self):
        return SparseIntegerMatrix(
            self.n, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def negated(self):
        return SparseIntegerMatrix(
            self.n, {k: -v for k, v in self.entries.items()}
        )

    def row_sums(self):
        sums = [0] * self.n
        for (i, _j), v in self.entries.items():
            sums[i] += v
        return sums

    def col_sums(self):
        sums = [0] * self.n
        for (_i, j), v in self.entries.items():
            sums[j] += v
        return sums

    def trace(self):
        return sum(v for (i, j), v in self.entries.items() if i == j)

    def to_dense(self):
        rows = [[0] * self.n for _ in range(self.n)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def to_numpy(self):
        a = np.zeros((self.n, self.n), dtype=np.int64)
        for (i, j), v in self.entries.items():
            a[i, j] = v
        return a

    def with_increment(self, i, j, delta=1):
        """Copy with one entry bumped; used by identity mutation tests."""
        out = SparseIntegerMatrix(self.n, self.entries)
        out.add(i, j, delta)
        return out

    def triplets(self):
        """Sorted (row, col, value) triples."""
        return [(i, j, v) for (i, j), v in sorted(self.entries.items())]


class LabelledMatrix:
    """Square r x r pattern whose entries carry the group element (1, h) of
    G = Z/3 x Z/m: every entry raises the sheet by one, h is its deck label.

    ``entries`` maps (i, j, h), h in Z/m, to an integer weight.  The lift is
    the 3mr x 3mr matrix whose entry ((g, i), (g + (1, h), j)) is the weight
    of (i, j, h), the lifted index of (g, i) being (g3 * m + gm) * r + i.
    """

    __slots__ = ("r", "m", "entries")

    def __init__(self, r, m, entries=None):
        self.r = int(r)
        self.m = int(m)
        self.entries = {}
        if entries:
            for (i, j, h), v in dict(entries).items():
                self.add(i, j, h, v)

    def add(self, i, j, h, v=1):
        if not (0 <= i < self.r and 0 <= j < self.r):
            raise IndexError((i, j))
        if v == 0:
            return
        key = (i, j, h % self.m)
        new = self.entries.get(key, 0) + v
        if new == 0:
            del self.entries[key]
        else:
            self.entries[key] = new

    def negated(self):
        return LabelledMatrix(self.r, self.m, {k: -v for k, v in self.entries.items()})

    def lift(self):
        """The 3mr x 3mr matrix the pattern stands for."""
        r, m = self.r, self.m
        out = SparseIntegerMatrix(3 * m * r)
        for g3 in range(3):
            for gm in range(m):
                for (i, j, h), v in self.entries.items():
                    tgt = (((g3 + 1) % 3) * m + (gm + h) % m) * r + j
                    out.add((g3 * m + gm) * r + i, tgt, v)
        return out


# -- index orderings ----------------------------------------------------------


def vertex_index(cx: ComplexDescription):
    return {v.id: k for k, v in enumerate(cx.vertices)}

def edge_index(cx: ComplexDescription):
    return {e.id: k for k, e in enumerate(cx.edges)}


# -- vertex operators ---------------------------------------------------------


def build_a1(cx: ComplexDescription):
    """A1[u][v] = number of type-one edges u -> v; row sums q^2+q+1."""
    cx.require_valid()
    vidx = vertex_index(cx)
    m = SparseIntegerMatrix(len(cx.vertices))
    for e in cx.edges:
        m.add(vidx[e.tail], vidx[e.head])
    return m


def build_a2(cx: ComplexDescription):
    """The type-two vertex operator: exactly the transpose of A1."""
    return build_a1(cx).transpose()


def build_companion_pattern(cx: ComplexDescription):
    """The block companion of the vertex pencil (zeta.vertex_companion) as a
    labelled 3 x 3 pattern over its blocks.

    A1 steps vertex (t, g) to (t + 1, g + c(x)) and A2 to (t - 1, g - c(x)),
    for every point x.  Put vertex (t, g) of block b on sheet t - b: then every
    entry of the companion raises the sheet by one, and its blocks are
    (0, 0) = A1 (label c(x), weight 1), (0, 1) = -q A2 (label -c(x), weight
    -q), (0, 2) = q^3 I, (1, 0) = I and (2, 1) = I (label 0).  Its lift is
    the companion up to the order of rows and columns."""
    cx.require_valid()
    _pres, n, m_mod, c = _presented_data(cx)
    q = cx.q
    pattern = LabelledMatrix(3, m_mod)
    for x in range(n):
        pattern.add(0, 0, c[x])
        pattern.add(0, 1, -c[x], -q)
    pattern.add(0, 2, 0, q ** 3)
    pattern.add(1, 0, 0)
    pattern.add(2, 1, 0)
    return pattern


# -- edge operator ------------------------------------------------------------


def build_le(cx: ComplexDescription):
    """Edge adjacency operator, row sums q^2: e -> e' when head(e) = tail(e')
    and no chamber contains both."""
    cx.require_valid()
    eidx = edge_index(cx)
    by_tail = {}
    for e in cx.edges:
        by_tail.setdefault(e.tail, []).append(e)
    chambers_of = {e.id: set() for e in cx.edges}
    for c in cx.chambers:
        for eid in c.edge_ids:
            chambers_of[eid].add(c.id)
    m = SparseIntegerMatrix(len(cx.edges))
    for e in cx.edges:
        mine = chambers_of[e.id]
        for succ in by_tail.get(e.head, ()):
            if mine.isdisjoint(chambers_of[succ.id]):
                m.add(eidx[e.id], eidx[succ.id])
    return m


def _presented_data(cx):
    if not isinstance(cx.provenance, Presented):
        raise ValueError("a presented complex is required")
    pres = cx.provenance.presentation
    volt = cx.provenance.voltage
    return pres, pres.plane.n, volt.m, volt.c


def build_le_pattern(cx: ComplexDescription):
    """L_E as a labelled n x n pattern by the generator rule: (x, y) carries
    c(x) for every y off lam(x).  Its lift is build_le entry for entry."""
    cx.require_valid()
    pres, n, m_mod, c = _presented_data(cx)
    line_pts = pres.plane.all_line_points
    pattern = LabelledMatrix(n, m_mod)
    for x in range(n):
        on_line = line_pts[pres.lam[x]]
        for y in range(n):
            if y not in on_line:
                pattern.add(x, y, c[x])
    return pattern


# -- directed chamber operator --------------------------------------------


def build_lb(cx: ComplexDescription):
    """Directed chamber adjacency operator, row sums q: (c, r) steps to
    (c', r+1) for every chamber c' != c containing the second edge of (c, r)
    at slot r+1."""
    cx.require_valid()
    dcs = cx.directed_chambers()
    didx = {dc: k for k, dc in enumerate(dcs)}
    chamber_by_id = {c.id: c for c in cx.chambers}
    slot_map = {}
    for c in cx.chambers:
        for pos, eid in enumerate(c.edge_ids):
            slot_map.setdefault((eid, pos), []).append(c.id)
    m = SparseIntegerMatrix(len(dcs))
    for dc in dcs:
        c = chamber_by_id[dc.chamber_id]
        r2 = (dc.rotation + 1) % 3
        f2 = c.edge_ids[r2]
        src = didx[dc]
        for cid in slot_map.get((f2, r2), ()):
            if cid != c.id:
                m.add(src, didx[(cid, r2)])
    return m


def build_lb_pattern(cx: ComplexDescription):
    """L_B as a labelled pattern over the sorted triples by the generator
    rule: (t, t') carries c(t0) when t'0 = t1 and t'1 != t2.  Its lift is
    build_lb up to the order of directed chambers."""
    cx.require_valid()
    pres, _n, m_mod, c = _presented_data(cx)
    triples = pres.sorted_triples()
    pattern = LabelledMatrix(len(triples), m_mod)
    for i, t in enumerate(triples):
        for j, s in enumerate(triples):
            if s[0] == t[1] and s[1] != t[2]:
                pattern.add(i, j, c[t[0]])
    return pattern
