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
grading below, and e = 1 otherwise: two products of object arrays of Python
ints, exact at any size, and (1 - u^3)^|chi| as |chi| differences.

Every one of these operators raises the vertex type by one step (A1 and the
companion by vertex type, L_E by tail type, L_B by rotation r -> r+1), so
each determinant is det(I - u^3 X), X the period-3 product, and both
determinant routes take that product.  P_A is the determinant of the
3*N0 x 3*N0 block companion of the vertex pencil (vertex_companion).  For a
presented complex, all three come from exactdet.char_rev_factored on
voltage-labelled patterns (the 3 x 3 companion pattern, L_E's and L_B's):
there X is the lift of a small pattern over the cover's deck group Z/m, and
its determinant is a product over the m characters of Z/m of twisted
determinants, taken orbit by orbit: each Galois orbit of characters gives an
integer factor under its own CRT bound, and the factors are multiplied back
exactly.  Every other complex, and injected operators, take the other
route: dense char_rev of the four operators, the engine's one-orbit case.
It finds the Z/3 grading in the matrix's own nonzero pattern and takes X on
the smallest class, a third of the size; an operator without the grading
takes the unreduced route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .complexes import ComplexDescription, Presented
from .exactdet import _cyclic_reduction, char_rev, char_rev_factored
from .errors import ExactArithmeticError
from .operators import (
    SparseIntegerMatrix,
    build_a1,
    build_a2,
    build_companion_pattern,
    build_lb,
    build_lb_pattern,
    build_le,
    build_le_pattern,
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


def vertex_companion(a1: SparseIntegerMatrix, a2: SparseIntegerMatrix, q):
    """The block companion [[A1, -q A2, q^3 I], [I, 0, 0], [0, I, 0]].

    Its reversed characteristic polynomial is the vertex determinant:
    det(I - u C) = det(I - A1 u + q A2 u^2 - q^3 u^3 I).
    """
    n = a1.n
    eye = np.arange(n)
    rows = np.concatenate([a1.rows, a2.rows, eye, n + eye, 2 * n + eye])
    cols = np.concatenate([a1.cols, n + a2.cols, 2 * n + eye, eye, n + eye])
    ones = np.ones(n, dtype=np.int64)
    values = np.concatenate([a1.values, -q * a2.values, q ** 3 * ones, ones, ones])
    return SparseIntegerMatrix.from_arrays(3 * n, rows, cols, values)


def edge_determinant(cx: ComplexDescription):
    """P_E = det(I - L_E u) alone: from the L_E pattern for a presented
    complex, else by dense char_rev of the incidence-rule operator."""
    if isinstance(cx.provenance, Presented):
        return char_rev_factored(build_le_pattern(cx), lambda: build_le(cx))
    return char_rev(build_le(cx))


def zeta_parts(cx: ComplexDescription, operators=None):
    """Build (P_A, P_E, P_B) for a valid complex.

    A presented complex takes char_rev_factored on its patterns; any other
    takes dense char_rev on its four operators, as do ``operators``, prebuilt
    (A1, A2, LE, LB) injected to corrupt an entry.  The factored P_A checks
    against the dense companion, so ``build_a1`` and ``build_a2`` run on a
    presented complex only under ``exactdet.SELF_CHECK``.
    """
    cx.require_valid()
    n0, n1, n2, chi = cx.counts()
    q = cx.q
    if operators is None and isinstance(cx.provenance, Presented):
        p_e = edge_determinant(cx)
        p_b = char_rev_factored(build_lb_pattern(cx).negated(), lambda: build_lb(cx).negated())
        p_a = char_rev_factored(build_companion_pattern(cx),
                                lambda: vertex_companion(build_a1(cx), build_a2(cx), q))
    else:
        a1, a2, le, lb = operators or (build_a1(cx), build_a2(cx), build_le(cx), build_lb(cx))
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
    e = 1 otherwise (a corrupted operator).  The check runs in w: E(w) E(w^2)
    and A(w) B(w) are one ``np.convolve`` each on object arrays of Python
    ints, whose products and sums numpy's loop takes in Python-int
    arithmetic, exact at any size; the factor (1 - u^3)^|chi| =
    (1 - w^(3/e))^|chi| goes onto its side as |chi| lag-(3/e) differences,
    new[n] = old[n] - old[n - 3/e].  Every coefficient of u not at a
    multiple of e is zero on both sides, so the first differing coefficient
    of u is the first differing one of w, at e times its index; a failure's
    witness and both sides are read from the w arrays spread back to u.
    """
    polys = (parts.p_a, parts.p_e, parts.p_b)
    e = 1 if any(any(p.coeffs[1::3]) or any(p.coeffs[2::3]) for p in polys) else 3
    a, pe, b = (np.array(p.coeffs[::e] or (0,), dtype=object) for p in polys)
    pe_square = np.zeros(2 * len(pe) - 1, dtype=object)
    pe_square[::2] = pe
    lhs = np.convolve(pe, pe_square)
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
    d, x = _cyclic_reduction(n, le.rows, le.cols, le.values)
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
