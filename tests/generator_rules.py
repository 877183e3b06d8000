"""Generator-rule references for a presented complex's operators.

A presented complex's operators written down from its presentation and
voltage alone, apart from the incidence rules: each is the lift of a small
voltage-labelled pattern (``LabelledMatrix``) over G = Z/3 x Z/m, which acts
freely on the cover.  The tests compare these lifts with the incidence-rule
operators and with zeta's labelled base quotient operators, and take their
determinants by ``char_rev_pattern``.
"""

import numpy as np

from zeta3.complexes import Presented
from zeta3.exactdet import char_rev_labelled
from zeta3.operators import SparseIntegerMatrix, _weights


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


def three_sheets(r, entries):
    """The 3r x 3r pattern over Z/m that r rows of entries (i, j, h, weight)
    over Z/3 x Z/m stand for, as exactdet.char_rev_labelled takes it: entry
    (i, j, h) from row s*r + i to column (s + 1)*r + j (mod 3r) on each sheet
    s, as (rows, cols, labels, values, classes), the classes the sheets.
    Entries repeating an (i, j, h) stay apart."""
    i, j, h, v = zip(*entries) if entries else ((),) * 4
    i, j, h = (np.array(a, dtype=np.int64) for a in (i, j, h))
    sheet = np.arange(3)[:, None]
    rows = (sheet * r + i).ravel()
    cols = ((sheet + 1) % 3 * r + j).ravel()
    classes = tuple(s * r + np.arange(r) for s in range(3))
    return rows, cols, np.tile(h, 3), np.tile(_weights(list(v)), 3), classes


def char_rev_pattern(pattern, reference=None):
    """det(I - uM), M the lift of ``pattern``, by exactdet.char_rev_labelled
    on its three sheets (``three_sheets``).  The self-check compares with
    ``reference()`` (default: the lift)."""
    entries = [(*key, v) for key, v in pattern.entries.items()]
    rows, cols, labels, values, classes = three_sheets(pattern.r, entries)
    return char_rev_labelled(3 * pattern.r, pattern.m, rows, cols, labels, values, classes,
                             reference or pattern.lift)


def _presented_data(cx):
    if not isinstance(cx.provenance, Presented):
        raise ValueError("a presented complex is required")
    pres = cx.provenance.presentation
    volt = cx.provenance.voltage
    return pres, pres.plane.n, volt.m, volt.c


def build_companion_pattern(cx):
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


def build_le_pattern(cx):
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


def build_lb_pattern(cx):
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
