"""The four adjacency operators of a complex, as sparse integer matrices.

Out-degrees are forced by the local structure: q^2+q+1 for the vertex
operator A1, q^2 for the edge operator, q for the directed-chamber operator.
Those row sums double as the cross-check that the combinatorial successor
rules below implement the intended coset actions.

Every complex, presented or given by explicit lists, gets A1, L_E and L_B
from the incidence rules, applied with whole-array operations to its cached
incidence tables (``ComplexDescription.incidence``).

Each rule also says which edge every entry steps across (``a1_steps``,
``le_steps``, ``lb_steps``): A1's entry is its edge, L_E's the row's edge,
and L_B's the edge of the row's chamber at the row's slot.  In a cover cut
out by voltages on a base's edges, an entry of the base's operator lifts to
the entries that step from sheet g to sheet g + c, c that edge's voltage,
so the base's operator labelled with the voltages is the cover's over its
deck group (zeta takes a presented complex's determinants this way).
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .complexes import ComplexDescription


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


# -- vertex operators ---------------------------------------------------------


def a1_steps(cx: ComplexDescription):
    """A1's entries, one per edge, as (n, rows, cols, edges): entry k steps
    from vertex rows[k] to vertex cols[k] across edge edges[k]."""
    inc = cx.incidence()
    return len(cx.vertices), inc.tail, inc.head, np.arange(len(inc.tail))


def build_a1(cx: ComplexDescription):
    """A1[u][v] = number of type-one edges u -> v; row sums q^2+q+1."""
    n, rows, cols, _edges = a1_steps(cx)
    return SparseIntegerMatrix.from_arrays(n, rows, cols, 1)


def build_a2(cx: ComplexDescription):
    """The type-two vertex operator: exactly the transpose of A1."""
    return build_a1(cx).transpose()


# -- edge operator ------------------------------------------------------------


def le_steps(cx: ComplexDescription):
    """L_E's entries as (n, rows, cols, edges): entry k steps from edge
    rows[k] to edge cols[k] across edges[k] = rows[k].

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
    return len(inc.tail), rows, candidates[rows, slots], rows


def build_le(cx: ComplexDescription):
    """Edge adjacency operator, row sums q^2: e -> e' when head(e) = tail(e')
    and no chamber contains both (``le_steps``)."""
    n, rows, cols, _edges = le_steps(cx)
    return SparseIntegerMatrix.from_arrays(n, rows, cols, 1)


# -- directed chamber operator --------------------------------------------


def lb_steps(cx: ComplexDescription):
    """L_B's entries as (n, rows, cols, edges): entry k steps from directed
    chamber rows[k] to cols[k] across edges[k], the edge of the row's
    chamber at the row's slot.

    Directed chamber (c, r) is place 3c + r of the chamber-edge table
    (``Incidence``): its second edge sits at place 3c + r + 1 (mod 3 within
    c), and the row's entries are the other places of that edge."""
    inc = cx.incidence()
    places = inc.chamber_edges.ravel()
    n = len(places)
    second = np.arange(n).reshape(-1, 3)[:, [1, 2, 0]].ravel()
    candidates = inc.edge_places[places[second]]
    rows, k = np.nonzero(candidates != second[:, None])
    return n, rows, candidates[rows, k], places[rows]


def build_lb(cx: ComplexDescription):
    """Directed chamber adjacency operator, row sums q: (c, r) steps to
    (c', r+1) for every chamber c' != c containing the second edge of (c, r)
    at slot r+1 (``lb_steps``)."""
    n, rows, cols, _edges = lb_steps(cx)
    return SparseIntegerMatrix.from_arrays(n, rows, cols, 1)
