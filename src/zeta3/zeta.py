"""Assembly and exact verification of the determinant identity.

The three polynomials are

    P_A = det(I - A1 u + q A2 u^2 - q^3 u^3 I)     degree 3*N0
    P_E = det(I - L_E u)                           degree N1 (full rank)
    P_B = det(I + L_B u)                           degree 3*N2 (full rank)

and the identity checked, in cleared-denominator form, is

    (1 - u^3)^chi * P_E(u) * P_E(u^2) = P_A(u) * P_B(u)        (chi >= 0)

with the cube factor moved to the right-hand side when chi < 0.  The factor
P_E(u^2) is det(I - L_E^t u^2): reversed characteristic polynomials are
transpose-invariant, so the type-two edge operator never needs to be built.
The check (``verify_identity``) runs in w = u^e, e = 3 for every genuine
complex, whose three determinants are polynomials in u^3 by the type
grading below, and e = 1 otherwise: products of object arrays of Python
ints, exact at any size, and (1 - u^3)^|chi| as |chi| differences.

Every one of these operators raises the vertex type by one step (A1 and the
companion by vertex type, L_E by tail type, L_B by rotation r -> r+1), so
each determinant is det(I - u^3 X), X the period-3 product.  P_A is the
determinant of the 3*N0 x 3*N0 block companion of the vertex pencil
(vertex_companion).  A complex given by explicit lists, and injected
operators, take dense char_rev of the four operators: the case m = 1 with
every label 0, on the grading it finds in the operator's own pattern, X by
two plain block products (an operator without a grading takes the
unreduced route).  A presented complex takes exactdet.char_rev_labelled: it
is its base quotient, the 3-vertex complex of its presentation, with
voltages on the base's edges: each entry of the base's incidence-rule
operators steps across one edge (``operators.a1_steps``, ``le_steps``,
``lb_steps``) and carries that edge's voltage c(x) in the deck group Z/m,
A2's entries in the companion -c(x) and its identity blocks 0.  The lift of
each labelled operator is the cover's operator up to the order of rows and
columns, so X is the lift of a small pattern over Z/m, and its determinant
is a product over the m characters of Z/m of twisted determinants, taken
orbit by orbit: each Galois orbit of characters gives an integer factor
under its own CRT bound, and the factors are multiplied back exactly.  All
of that but the labels depends on the presentation alone and is built once
per presentation (``_base_operators``), down to each operator's length-3
paths (``exactdet.path_table``); the engine's plan depends on X's size, m
and row-norm bound alone and is memoised too.  A cover seen after its
presentation pays for its labels, one scatter of its paths' labels into X,
the kernel and the CRT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple, Optional

import numpy as np

from .complexes import ComplexDescription, Presented
from .construct import base_quotient
from .exactdet import (
    PathTable,
    _cyclic_reduction,
    char_rev,
    char_rev_labelled,
    grading_classes,
    path_table,
)
from .errors import ExactArithmeticError
from .operators import (
    SparseIntegerMatrix,
    a1_steps,
    build_a1,
    build_a2,
    build_lb,
    build_le,
    lb_steps,
    le_steps,
)
from .polynomials import IntPoly


@dataclass(frozen=True)
class ZetaParts:
    """The three determinants plus the complex invariants they refer to."""

    q: int
    n0: int
    n1: int
    n2: int
    chi: int
    p_a: IntPoly
    p_e: IntPoly
    p_b: IntPoly

    def full_rank_edge(self):
        return self.p_e.degree == self.n1

    def full_rank_chamber(self):
        return self.p_b.degree == 3 * self.n2


def _companion_entries(n, a1, a2, q):
    """The entries (rows, cols, values) of the block companion of n x n
    operators A1 and A2, each given as (rows, cols, values): A1's entries
    first, then those of -q A2, then the 3n of the identity blocks."""
    eye = np.arange(n)
    ones = np.ones(n, dtype=np.int64)
    rows = np.concatenate([a1[0], a2[0], eye, n + eye, 2 * n + eye])
    cols = np.concatenate([a1[1], n + a2[1], 2 * n + eye, eye, n + eye])
    values = np.concatenate([a1[2], -q * a2[2], q ** 3 * ones, ones, ones])
    return rows, cols, values


def vertex_companion(a1: SparseIntegerMatrix, a2: SparseIntegerMatrix, q):
    """The block companion [[A1, -q A2, q^3 I], [I, 0, 0], [0, I, 0]].

    Its reversed characteristic polynomial is the vertex determinant:
    det(I - u C) = det(I - A1 u + q A2 u^2 - q^3 u^3 I).
    """
    entries = _companion_entries(
        a1.n, (a1.rows, a1.cols, a1.values), (a2.rows, a2.cols, a2.values), q)
    return SparseIntegerMatrix.from_arrays(3 * a1.n, *entries)


class _BaseOperator(NamedTuple):
    """An operator of a base quotient as char_rev_labelled takes it: entry k
    from rows[k] to cols[k] with weight values[k], parallel entries kept
    apart, carrying sign[k] * c(generator[k]) in a cover of voltage c; the
    classes of its Z/3 grading; and its length-3 paths from the smallest
    class back to it (``exactdet.path_table``).  Every array is read-only."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    generator: np.ndarray
    sign: np.ndarray
    classes: tuple
    paths: PathTable


@lru_cache(maxsize=64)
def _base_operators(presentation):
    """The companion, L_E and -L_B of a presentation's base quotient as
    ``_BaseOperator``, keyed "A", "E" and "B".

    They depend on the presentation alone, so they are built once per
    presentation, path tables included, and every cover adds only its
    labels: X is one scatter of its paths' labels.  The base numbers
    the edge of generator x leaving vertex type t as t*n + x
    (``construct.abelian_cover``), so an entry stepping across edge e
    carries generator e mod n.
    """
    base = base_quotient(presentation)
    gens = presentation.plane.n

    def labelled(n, rows, cols, values, edges, sign):
        arrays = (rows, cols, values, edges % gens, sign)
        classes = grading_classes(n, rows, cols)
        for a in arrays + classes:
            a.flags.writeable = False
        return _BaseOperator(n, *arrays, classes, path_table(n, rows, cols, values, classes))

    n0, tail, head, edges = a1_steps(base)
    ones = np.ones(len(edges), dtype=np.int64)
    identity = np.zeros(3 * n0, dtype=np.int64)
    n1, le_rows, le_cols, le_edges = le_steps(base)
    nb, lb_rows, lb_cols, lb_edges = lb_steps(base)
    return {
        "A": labelled(3 * n0,
                      *_companion_entries(n0, (tail, head, ones), (head, tail, ones), base.q),
                      np.concatenate([edges, edges, identity]),
                      np.concatenate([ones, -ones, identity])),
        "E": labelled(n1, le_rows, le_cols, np.ones(len(le_rows), dtype=np.int64),
                      le_edges, np.ones(len(le_rows), dtype=np.int64)),
        "B": labelled(nb, lb_rows, lb_cols, -np.ones(len(lb_rows), dtype=np.int64),
                      lb_edges, np.ones(len(lb_rows), dtype=np.int64)),
    }


# the complex's own operator of each determinant; build_* are looked up at
# call time, so rebinding them in this module takes effect
_OPERATORS = {
    "A": lambda cx: vertex_companion(build_a1(cx), build_a2(cx), cx.q),
    "E": lambda cx: build_le(cx),
    "B": lambda cx: build_lb(cx).negated(),
}


def _determinant(cx: ComplexDescription, tag):
    """det(I - uM) for M = _OPERATORS[tag](cx), the complex's own operator.

    A presented complex takes its base quotient's operator, each entry
    labelled by the cover's voltage (``_base_operators``): what it pays for
    is its labels, the scatter of its paths' labels into X
    (``exactdet.path_table``), the engine on X, whose plan is memoised
    per (r, m, rho**2), and the CRT.  It builds M only for the self-check;
    any other complex takes dense char_rev of M.
    """
    cx.require_valid()
    operator = partial(_OPERATORS[tag], cx)
    if not isinstance(cx.provenance, Presented):
        return char_rev(operator())
    voltage = cx.provenance.voltage
    base = _base_operators(cx.provenance.presentation)[tag]
    labels = base.sign * np.asarray(voltage.c, dtype=np.int64)[base.generator] % voltage.m
    return char_rev_labelled(base.n, voltage.m, base.rows, base.cols, labels, base.values,
                             base.classes, operator, base.paths)


def edge_determinant(cx: ComplexDescription):
    """P_E = det(I - L_E u) alone (``_determinant``)."""
    return _determinant(cx, "E")


def zeta_parts(cx: ComplexDescription, operators=None):
    """Build (P_A, P_E, P_B) for a valid complex.

    The complex's determinants take ``_determinant``: a presented complex
    its base quotient's operators labelled by its voltages, any other dense
    char_rev of its own operators.  ``operators``, prebuilt (A1, A2, LE, LB)
    injected to corrupt an entry, take dense char_rev.  A presented complex
    builds its own operators only under ``exactdet.SELF_CHECK``, which
    compares each determinant with them (the dense companion for P_A).
    """
    cx.require_valid()
    n0, n1, n2, chi = cx.counts()
    q = cx.q
    if operators is None:
        p_e, p_b, p_a = (_determinant(cx, tag) for tag in "EBA")
    else:
        a1, a2, le, lb = operators
        p_e = char_rev(le)
        p_b = char_rev(lb.negated())
        p_a = char_rev(vertex_companion(a1, a2, q))
    if p_a.degree != 3 * n0 or p_a.cf(0) != 1:
        raise ExactArithmeticError("vertex determinant has wrong shape")
    return ZetaParts(q=q, n0=n0, n1=n1, n2=n2, chi=chi, p_a=p_a, p_e=p_e, p_b=p_b)


@dataclass(frozen=True)
class IdentityVerdict:
    holds: bool
    # on failure: the first differing coefficient index and both values
    witness_index: Optional[int] = None
    lhs_coefficient: Optional[int] = None
    rhs_coefficient: Optional[int] = None
    lhs: Optional[IntPoly] = None
    rhs: Optional[IntPoly] = None


def _times_one_minus(x, lag):
    """x * (1 - w**lag) for a coefficient array x: new[n] = x[n] - x[n - lag]."""
    out = np.concatenate([x, np.zeros(lag, dtype=object)])
    out[lag:] -= x
    return out


def _spread(x, e):
    """The IntPoly in u of a coefficient array x in w = u**e."""
    coeffs = [0] * (e * (len(x) - 1) + 1)
    coeffs[::e] = x.tolist()
    return IntPoly(coeffs)


def verify_identity(parts: ZetaParts):
    """Exact coefficient-by-coefficient check of the cleared identity.

    Both sides are polynomials in w = u**e, e = 3 when P_A, P_E and P_B all
    are, as the Z/3 type grading makes them for every genuine complex, and
    e = 1 otherwise (a corrupted operator).  The check runs in w, on object
    arrays of Python ints, whose products and sums numpy's loop takes in
    Python-int arithmetic, exact at any size: A(w) B(w) is one
    ``np.convolve``, and E(w) E(w^2) two of half the size, E's even and odd
    halves Ee and Eo times E, as E(w) = Ee(w^2) + w Eo(w^2); the factor
    (1 - u^3)^|chi| = (1 - w^(3/e))^|chi| goes onto its side as |chi|
    lag-(3/e) differences, new[n] = old[n] - old[n - 3/e].  Every
    coefficient of u not at a multiple of e is zero on both sides, so the
    first differing coefficient of u is the first differing one of w, at e
    times its index; a failure's witness and both sides are read from the w
    arrays spread back to u.
    """
    polys = (parts.p_a, parts.p_e, parts.p_b)
    e = 1 if any(any(p.coeffs[1::3]) or any(p.coeffs[2::3]) for p in polys) else 3
    a, pe, b = (np.array(p.coeffs[::e] or (0,), dtype=object) for p in polys)
    # E(w) E(w^2) is Ee(v) E(v) on the even powers of w, Eo(v) E(v) on the
    # odd ones, v = w^2
    lhs = np.zeros(3 * len(pe) - 2, dtype=object)
    lhs[::2] = np.convolve(pe[::2], pe)
    if len(pe) > 1:
        lhs[1::2] = np.convolve(pe[1::2], pe)
    rhs = np.convolve(a, b)
    for _ in range(max(parts.chi, 0)):
        lhs = _times_one_minus(lhs, 3 // e)
    for _ in range(max(-parts.chi, 0)):
        rhs = _times_one_minus(rhs, 3 // e)
    size = max(len(lhs), len(rhs))
    lhs, rhs = (np.concatenate([x, np.zeros(size - len(x), dtype=object)]) for x in (lhs, rhs))
    differ = np.flatnonzero(lhs != rhs)
    if not len(differ):
        return IdentityVerdict(holds=True)
    k = int(differ[0])
    return IdentityVerdict(
        holds=False,
        witness_index=e * k,
        lhs_coefficient=lhs[k],
        rhs_coefficient=rhs[k],
        lhs=_spread(lhs, e),
        rhs=_spread(rhs, e),
    )


# -- geodesic counting --------------------------------------------------------


def geodesic_counts(parts: ZetaParts, max_len):
    """N_1..N_max_len: coefficients of u d/du log Z, Z = 1/(P_E(u) P_E(u^2)).
    Only P_E enters (``counts_from_edge_determinant``)."""
    return counts_from_edge_determinant(parts.p_e, max_len)


def counts_from_edge_determinant(p_e: IntPoly, max_len):
    """N_1..N_max_len from P_E alone, by exact power-series arithmetic; the
    result must be a sequence of nonnegative integers because an actual count
    underlies it."""
    if max_len < 1:
        return []
    # g = P_E(u) P_E(u^2) up to u^max_len, all of g that the series reads
    a = list(p_e.coeffs[: max_len + 1])
    a += [0] * (max_len + 1 - len(a))
    g = IntPoly([sum(a[k - 2 * j] * a[j] for j in range(k // 2 + 1)) for k in range(max_len + 1)])
    series = g.log_derivative_series(max_len)  # u g'/g
    counts = [-series[m] for m in range(1, max_len + 1)]
    for ell, value in enumerate(counts, start=1):
        if value < 0:
            raise ExactArithmeticError(
                f"negative geodesic count N_{ell} = {value}; inconsistent parts"
            )
    return counts


def _exact_dtype(bound):
    """The cheapest dtype whose products and sums are exact on integers up
    to ``bound`` in magnitude: float64 (BLAS) below 2**53, int64 below
    2**62, else Python ints in object arrays."""
    if bound < 2 ** 53:
        return np.float64
    if bound < 2 ** 62:
        return np.int64
    return object


def edge_trace_powers(le: SparseIntegerMatrix, max_len):
    """[trace(L_E^k) for k = 1..max_len], exact.

    L_E raises the tail type by one, so its pattern carries a Z/3 grading
    and ``exactdet._cyclic_reduction`` gives (3, X), X = L_E^3 on the
    smallest class: L_E^k maps each class into another unless 3 | k, so
    trace(L_E^k) is 0 for 3 not dividing k, and trace((L_E^3)^j) is 3
    trace(X^j), the three cyclic products of the blocks having equal traces.
    An L_E without a grading (a corrupted operator) gives (1, L_E) and takes
    every power of L_E itself.

    With R the largest absolute row sum of L_E, every partial sum of every
    product and trace taken, of L_E's powers or of X's (X^j is L_E^(3j) on
    one class, 3j <= max_len), is an integer of magnitude at most
    n * R**max_len; the powers run in float64 (BLAS) when that is below
    2**53, else in int64 when it is below 2**62, else in Python ints
    (``_exact_dtype``).
    """
    if max_len < 1:
        return []
    n = le.n
    rows, cols = le.rows, le.cols
    d, x = _cyclic_reduction(n, 1, rows, cols, np.zeros_like(rows), le.values,
                             grading_classes(n, rows, cols))
    row_sum = int(np.abs(le.to_numpy()).sum(axis=1).max()) if n else 0
    work = x[:, :, 0].astype(_exact_dtype(n * max(1, row_sum) ** max_len))
    traces = [0] * max_len
    power = work
    for k in range(d, max_len + 1, d):
        if k > d:
            power = power @ work
        traces[k - 1] = d * int(np.trace(power))
    return traces


def counts_from_traces(traces):
    """Geodesic counts from edge traces: N_m = tr^m + 2 tr^{m/2} (m even)."""
    out = []
    for m in range(1, len(traces) + 1):
        value = traces[m - 1]
        if m % 2 == 0:
            value += 2 * traces[m // 2 - 1]
        out.append(value)
    return out


def walk_count_oracle(cx: ComplexDescription, max_len):
    """[closed m-step admissible edge sequences for m = 1..max_len], counted
    by stepping walks one edge at a time.

    Walks over type-one edges where consecutive edges share no chamber: e'
    may follow e when head(e) = tail(e') and no chamber lists both, read off
    the complex's edge ends and chamber edge lists (``cx.incidence()``) by a
    rule of its own, apart from ``build_le``'s.  A count matrix, row s for
    start edge s, holds the number of sequences of each length from s by the
    edge they end at; one step moves every count to the successors of its
    edge, and after m steps the closed ones are the counts at their own
    start, the diagonal.  Entry m - 1 must equal trace(L_E^m).  Never
    touches the operator matrices.

    The counts are nonnegative and a step multiplies a row's total by at
    most R, the most successors of an edge, so every partial sum stays at
    most N1 * R**max_len: exact in float64 while that is below 2**53
    (``_exact_dtype``), in integers beyond.
    """
    if max_len < 1:
        raise ValueError("walk length must be >= 1")
    inc = cx.incidence()
    follows = inc.head[:, None] == inc.tail[None, :]
    lists = inc.chamber_edges
    # every pair of edges of one chamber, in either order
    follows[lists[:, :, None], lists[:, None, :]] = False
    n1 = len(follows)
    most = int(follows.sum(axis=1).max())
    succ = follows.astype(np.int64).astype(_exact_dtype(n1 * max(1, most) ** max_len))
    counts = np.eye(n1, dtype=succ.dtype)
    totals = []
    for _ in range(max_len):
        counts = counts @ succ
        totals.append(int(np.trace(counts)))
    return totals
