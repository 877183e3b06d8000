"""The four adjacency operators of a complex, as sparse integer matrices.

Out-degrees are forced by the local structure: q^2+q+1 for the vertex
operator A1, q^2 for the edge operator, q for the directed-chamber operator.
Those row sums double as the cross-check that the combinatorial successor
rules below implement the intended coset actions.

Every complex, presented or given by explicit lists, gets A1, L_E and L_B
from the incidence rules, applied with whole-array operations to its cached
incidence tables (``ComplexDescription.incidence``).

Presented complexes also have a voltage-labelled base form of L_E, L_B and
the vertex companion (``LabelledMatrix``, from the generator rules): G =
Z/3 x Z/m acts freely on them, so each is the lift of a small pattern.
Every entry raises the sheet (the Z/3 part, the vertex type) by one and
carries a label in the cover's deck group Z/m.  The determinants take the
pattern; the tests compare its lift with the incidence-rule operators.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .complexes import ComplexDescription, Presented


def _weights(values):
    """A list of ints as an int64 array, or as Python ints in an object
    array when one outgrows int64."""
    big = max(map(abs, values), default=0) >= 1 << 63
    return np.array(values, dtype=object if big else np.int64)


class SparseIntegerMatrix:
    """Square integer matrix in sparse form: (row, col) -> multiplicity.

    The nonzero entries are three aligned arrays, ``rows``, ``cols`` and
    ``values``, in ascending (row, col) order with one entry per cell: int64,
    the values Python ints in an object array when one outgrows int64.
    ``entries`` is the same as a read-only mapping.  Immutable: every method
    that changes an entry returns a new matrix.
    """

    __slots__ = ("n", "rows", "cols", "values", "_entries")

    def __init__(self, n, entries=None):
        entries = dict(entries) if entries else {}
        keys = np.array(list(entries), dtype=np.int64).reshape(len(entries), 2)
        self._assign(n, keys[:, 0], keys[:, 1], _weights(list(entries.values())))

    @classmethod
    def from_arrays(cls, n, rows, cols, values):
        """The n x n matrix with entry values[k] added at (rows[k], cols[k]):
        repeated cells sum, and cells summing to zero are dropped.  ``values``
        may be one int for every entry."""
        values = np.asarray(values)
        if values.dtype != object:
            values = values.astype(np.int64, copy=False)
        if values.ndim == 0:
            values = np.full(len(rows), values, dtype=values.dtype)
        out = cls.__new__(cls)
        out._assign(n, rows, cols, values)
        return out

    def _assign(self, n, rows, cols, values):
        self.n = n = int(n)
        self._entries = None
        # a negative index wraps to a large unsigned one
        if len(rows) and np.concatenate((rows, cols)).astype(np.uint64).max() >= n:
            raise IndexError(f"an entry lies outside the {n} x {n} matrix")
        cells = rows * n + cols
        if (cells[1:] <= cells[:-1]).any():
            # sort, then sum each run of one cell, in Python ints where an
            # int64 sum could overflow
            if values.dtype != object and len(values) * int(np.abs(values).max()) >= 1 << 63:
                values = values.astype(object)
            order = cells.argsort(kind="stable")
            cells = cells[order]
            first = np.concatenate(([True], cells[1:] != cells[:-1])).nonzero()[0]
            values = np.add.reduceat(values[order], first)
            cells = cells[first]
        nonzero = values != 0
        if not nonzero.all():
            cells, values = cells[nonzero], values[nonzero]
        self.rows, self.cols = np.divmod(cells, max(n, 1))
        self.values = np.array(values)

    @property
    def entries(self):
        if self._entries is None:
            cells = zip(self.rows.tolist(), self.cols.tolist())
            self._entries = MappingProxyType(dict(zip(cells, self.values.tolist())))
        return self._entries

    def get(self, i, j):
        return self.entries.get((i, j), 0)

    def __eq__(self, other):
        if not isinstance(other, SparseIntegerMatrix):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.values, other.values))

    def __repr__(self):
        return f"SparseIntegerMatrix(n={self.n}, nnz={len(self.values)})"

    def transpose(self):
        return SparseIntegerMatrix.from_arrays(self.n, self.cols, self.rows, self.values)

    def negated(self):
        return SparseIntegerMatrix.from_arrays(self.n, self.rows, self.cols, -self.values)

    def _sums(self, index):
        sums = [0] * self.n
        for i, v in zip(index.tolist(), self.values.tolist()):
            sums[i] += v
        return sums

    def row_sums(self):
        return self._sums(self.rows)

    def col_sums(self):
        return self._sums(self.cols)

    def trace(self):
        return int(self.values[self.rows == self.cols].sum())

    def to_dense(self):
        return self.to_numpy().tolist()

    def to_numpy(self):
        a = np.zeros((self.n, self.n), dtype=self.values.dtype)
        a[self.rows, self.cols] = self.values
        return a

    def with_increment(self, i, j, delta=1):
        """Copy with one entry bumped; used by identity mutation tests."""
        return SparseIntegerMatrix.from_arrays(
            self.n, np.append(self.rows, i), np.append(self.cols, j),
            np.append(self.values, delta))

    def triplets(self):
        """Sorted (row, col, value) triples."""
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.values.tolist()))


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
        keys = np.array(list(self.entries), dtype=np.int64).reshape(-1, 3)
        i, j, h = keys.T
        g3 = np.arange(3)[:, None, None]
        gm = np.arange(m)[:, None]
        rows = (g3 * m + gm) * r + i
        cols = (((g3 + 1) % 3) * m + (gm + h) % m) * r + j
        values = np.broadcast_to(_weights(list(self.entries.values())), rows.shape).ravel()
        return SparseIntegerMatrix.from_arrays(3 * m * r, rows.ravel(), cols.ravel(), values)


# -- vertex operators ---------------------------------------------------------


def build_a1(cx: ComplexDescription):
    """A1[u][v] = number of type-one edges u -> v; row sums q^2+q+1."""
    inc = cx.incidence()
    return SparseIntegerMatrix.from_arrays(len(cx.vertices), inc.tail, inc.head, 1)


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
    and no chamber contains both.

    The candidates e' of row e are the out-edges of head(e).  A chamber
    holding e and a candidate holds them at consecutive slots, e' after e
    (the slots run through types 0 -> 1 -> 2 -> 0), so those are the pairs
    struck out."""
    inc = cx.incidence()
    d = inc.out_edges.shape[1]
    candidates = inc.out_edges[inc.head]
    # the slot of each edge among its tail's out-edges
    slot = np.empty(len(inc.tail), dtype=np.int64)
    slot[inc.out_edges] = np.arange(d)
    keep = np.ones(candidates.shape, dtype=bool)
    ce = inc.chamber_edges
    keep[ce, slot[ce[:, [1, 2, 0]]]] = False
    rows, slots = np.nonzero(keep)
    return SparseIntegerMatrix.from_arrays(len(inc.tail), rows, candidates[rows, slots], 1)


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
    at slot r+1.

    Directed chamber (c, r) is place 3c + r of the chamber-edge table
    (``Incidence``): its second edge sits at place 3c + r + 1 (mod 3 within
    c), and the row's entries are the other places of that edge."""
    inc = cx.incidence()
    n = inc.chamber_edges.size
    second = np.arange(n).reshape(-1, 3)[:, [1, 2, 0]].ravel()
    candidates = inc.edge_places[inc.chamber_edges.ravel()[second]]
    rows, k = np.nonzero(candidates != second[:, None])
    return SparseIntegerMatrix.from_arrays(n, rows, candidates[rows, k], 1)


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
