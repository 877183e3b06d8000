"""Zero-modulus analysis: classification buckets, Ramanujan criteria, census.

Zeros of the three determinants are classified by modulus against the
admissible values for each operator.  Every admissible modulus is q^(-k/4),
and ``ADMISSIBLE_K`` lists the quarter exponents k per operator:

    operator      trivial zeros (3 each)    nontrivial zeros
    A (vertex)    0, 4, 8                   4
    E (edge)      8                         4, 2
    B (chamber)   4                         0, 2, 1, 3

The labels, the float moduli, the exact trivial factors, the classification
buckets and the three criteria all derive from this one table.  Trivial zeros
(the three constant-sheet characters) are removed by exact polynomial division
whenever the division is exact; otherwise the trivial and nontrivial moduli
are counted together.

Every bucket count is an exact integer count, so the verdicts, the buckets,
the criteria and the census involve no floating point.  Each operator raises
the vertex type by one (mod 3), so each determinant is a polynomial in u^3;
this is the type grading behind ``exactdet``'s X = M^3.  The spectral layer
writes the reduced polynomial as g(u^e), e the gcd of the exponents of its
nonzero terms (``IntPoly.deflation``): e = 3 for every determinant of a
complex, e = 1 for a generic polynomial, and everything below runs on g, a
third of the degree.  A zero u on |u| = q^(-k/4) is a zero w = u^e on
|w| = q^(-ek/4), and as g(0) != 0 each zero of g of multiplicity mu stands
for e zeros of the same multiplicity, so every count on g is multiplied by
e.  For each square-free factor f of g (with its multiplicity) and each
circle k, s Graeffe steps give h_s, whose zeros are the 2^s-th powers of
f's, where s is the least s >= 0 with 4 | e k 2^s: at e = 3 no step for
k = 0, 4, 8, one for k = 2 and two for k = 1, 3.  Each image is made once
per factor, and only as deep as some circle needs.  The zeros of f on
|w| = q^(-ek/4) are the zeros of h_s on |v| = 1/Q, with the integer
Q = q^(e k 2^s / 4), and H(v) = Q^(deg h_s) h_s(v / Q) (``IntPoly.dilate``,
one running power of Q) moves them to the unit circle.  There
``polynomials.unit_circle_root_count`` counts them with multiplicity from
one gcd(H, H reversed): the zeros +-1 by synthetic division, the rest by
the Sturm chain of a real polynomial, repeated on the chain's last element
for the multiple roots.  Whatever lies on no admissible circle is the
unclassified residue, and for genuine complexes it is direct
non-Ramanujan evidence.

Floating point only lists the moduli of a nonempty residue for display.  Each
square-free factor of g is made monic with every coefficient rounded once to
a double, and its ``np.roots`` eigenvalues are refined together by
Aberth-Ehrlich steps in double precision.  A root stops after one last step
once its residual is within Horner's rounding bound 4 d eps sum |c_i| |z|^i;
roots with |z| > 1 are evaluated through the reversed polynomial, so no power
overflows.  A zero w stands for e moduli |w|^(1/e).  The float moduli are
matched to the admissible moduli within ``TOL_CLASSIFY``, and a failure to
converge or any disagreement with the exact counts raises
``RootRefinementError``.

The Steinberg check counts the factors 1 - u^3 of P_B without dividing by a
power of it: writing P_B = sum over r = 0, 1, 2 of u^r p_r(u^3), the
multiplicity of 1 - u^3 is the least multiplicity of the zero w = 1 among
the nonzero p_r, and repeated synthetic division by w - 1 finds each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ExactArithmeticError, Zeta3Error
from .polynomials import IntPoly, squarefree_decomposition, unit_circle_root_count
from .zeta import ZetaParts

TOL_ROOT = 1e-9
TOL_CLASSIFY = 1e-6

CENSUS_COLLISION_NOTE = (
    "census buckets use only collision-free moduli (1, q^-1/4, q^-3/4): "
    "principal-series zeros can share modulus q^-1/2 with other types"
)


class RootRefinementError(Zeta3Error):
    """The float root finder failed, or its moduli disagree with the exact counts."""


# -- the admissible moduli ----------------------------------------------------

# tag -> (k of the trivial zeros, k of the nontrivial zeros), modulus q^(-k/4),
# each in report order
ADMISSIBLE_K = {
    "A": ((0, 4, 8), (4,)),
    "E": ((8,), (4, 2)),
    "B": ((4,), (0, 2, 1, 3)),
}


def _label(k):
    return "1" if k == 0 else f"q^-{Fraction(k, 4)}"


def trivial_factor(q, tag):
    """The exact product of the three constant-sheet zeros' factors.

    Each trivial modulus q^(-k/4) contributes 1 + s q^(3k/4) u^3, with s = +1
    for the chamber operator and -1 for the others.
    """
    if tag not in ADMISSIBLE_K:
        raise ValueError(f"unknown operator tag {tag!r}")
    sign = 1 if tag == "B" else -1
    factor = IntPoly.one()
    for k in ADMISSIBLE_K[tag][0]:
        factor = factor * IntPoly([1, 0, 0, sign * q ** (3 * k // 4)])
    return factor


def split_trivial(poly, q, tag):
    """(poly / trivial factor, True) when division is exact, else (poly, False)."""
    factor = trivial_factor(q, tag)
    try:
        return poly.exact_divide(factor), True
    except ExactArithmeticError:
        return poly, False


# -- numerical roots ----------------------------------------------------------


def _aberth(coeffs, z):
    """Refine the starts z to all roots of the monic polynomial sum coeffs[i] u^i.

    Vectorised Aberth-Ehrlich steps.  A root with |z| > 1 is evaluated through
    the reversed polynomial at 1/z, so no power exceeds 1 in size.  A root
    freezes after one last step once its residual is within Horner's rounding
    bound.  Raises RootRefinementError if roots still move after 100 steps.
    """
    d = len(coeffs) - 1
    z = np.array(z, complex)
    live = np.ones(d, bool)
    with np.errstate(all="ignore"):
        for _ in range(100):
            idx = np.flatnonzero(live)
            x = z[idx]
            out = np.abs(x) > 1
            w = np.where(out, 1 / x, x)
            f = np.zeros_like(w)
            df = np.zeros_like(w)
            size = np.zeros(len(w))
            for i in range(d + 1):
                a = np.where(out, coeffs[i], coeffs[d - i])
                df = df * w + f
                f = f * w + a
                size = size * np.abs(w) + np.abs(a)
            # the Newton step p/p'; outside the unit circle f is the reversal at w
            step = np.where(out, f / (w * (d * f - w * df)), f / df)
            pull = 1 / (x[:, None] - z[None, :])
            pull[np.arange(len(idx)), idx] = 0
            z[idx] = x - step / (1 - step * pull.sum(axis=1))
            live[idx[np.abs(f) <= 4 * d * np.finfo(float).eps * size]] = False
            if not live.any():
                return z
    raise RootRefinementError(
        f"Aberth iteration did not converge within 100 steps for a degree-{d} factor"
    )


def zero_moduli(poly):
    """Sorted moduli of all complex roots, with multiplicity.

    Requires the constant term to be 1 (all three determinants have it).
    The roots are found for g, where poly(u) = g(u^e) (``IntPoly.deflation``),
    and each zero w of multiplicity mu stands for e * mu moduli |w|^(1/e).
    The moduli are double precision and unchecked here: on an
    ill-conditioned factor they can converge into the wrong buckets.  Only
    ``classify`` checks them against the exact circle counts.
    """
    if poly.cf(0) != 1:
        raise ValueError("polynomial must have constant term 1")
    g, e = poly.deflation()
    out = []
    for factor, mult in squarefree_decomposition(g):
        lead = factor.coeffs[-1]
        coeffs = np.array([float(Fraction(c, lead)) for c in factor.coeffs])
        roots = _aberth(coeffs, np.roots(coeffs[::-1]))
        out.extend(np.repeat(np.abs(roots) ** (1 / e), e * mult).tolist())
    return sorted(out)


# -- exact circle counts --------------------------------------------------------


def circle_counts(poly, q, ks):
    """The number of zeros of poly on each circle |u| = q^(-k/4), k in ks.

    Exact, with multiplicity.  Needs poly(0) != 0.  The zeros are counted
    for g, poly(u) = g(u^e): on |w| = q^(-ek/4), each counted e times.  A
    factor's Graeffe images are made only as deep as some circle needs.
    """
    g, e = poly.deflation()
    counts = [0] * len(ks)
    for factor, mult in squarefree_decomposition(g):
        images = [factor]  # images[s]: the zeros raised to the power 2^s
        left = factor.degree
        for i, k in enumerate(ks):
            if not left:  # every zero of this factor is already counted
                break
            s = _graeffe_depth(e * k)
            while len(images) <= s:
                images.append(images[-1].graeffe())
            n = unit_circle_root_count(images[s].dilate(q ** (e * k * 2**s // 4)))
            counts[i] += e * n * mult
            left -= n
    return counts


def _graeffe_depth(ek):
    """The least s >= 0 with 4 | ek 2^s: after s Graeffe steps the circle
    |w| = q^(-ek/4) is |v| = 1/Q for the integer Q = q^(ek 2^s / 4)."""
    s = 0
    while ek * 2**s % 4:
        s += 1
    return s


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class ZeroBucket:
    operator: str
    label: str
    modulus: float
    count: int
    trivial: bool


@dataclass
class ClassifiedSpectrum:
    operator: str
    degree: int
    exact_trivial: bool
    buckets: list
    unclassified: list  # moduli that matched nothing

    def bucket_count(self, label, trivial=None):
        total = 0
        for b in self.buckets:
            if b.label == label and (trivial is None or b.trivial == trivial):
                total += b.count
        return total


def _match_buckets(moduli, targets, tol=TOL_CLASSIFY):
    """Assign each modulus to the nearest target within tol; return counts, rest."""
    counts = [0] * len(targets)
    rest = []
    for m in moduli:
        best = None
        for k, target in enumerate(targets):
            err = abs(m - target)
            if err <= tol and (best is None or err < best[0]):
                best = (err, k)
        if best is None:
            rest.append(m)
        else:
            counts[best[1]] += 1
    return counts, rest


def classify(poly, q, tag):
    """Bucket the zeros of one determinant by admissible modulus.

    Trivial zeros are split off exactly when possible.  Otherwise the trivial
    and nontrivial moduli are counted together, since the two share circles,
    and a bucket counts as trivial when its modulus is trivial only.  The
    counts are exact; the zeros on no admissible circle are the residue, and
    ``unclassified`` lists their float moduli, which must match no admissible
    modulus and leave every bucket count as it is.
    """
    if poly.cf(0) != 1:
        raise ValueError("polynomial must have constant term 1")
    reduced, exact = split_trivial(poly, q, tag)
    trivial_ks, nontrivial_ks = ADMISSIBLE_K[tag]
    matched = nontrivial_ks if exact else tuple(dict.fromkeys(trivial_ks + nontrivial_ks))
    counts = circle_counts(reduced, q, matched)
    residue = reduced.degree - sum(counts)
    rest = []
    if residue:
        float_counts, rest = _match_buckets(zero_moduli(reduced), [q ** (-k / 4) for k in matched])
        if float_counts != counts or len(rest) != residue:
            raise RootRefinementError(
                f"float moduli of the {tag} zeros give buckets {float_counts} and "
                f"{len(rest)} unclassified, the exact counts {counts} and {residue}"
            )
    rows = [(k, 3, True) for k in trivial_ks] if exact else []
    rows += [(k, n, not exact and k not in nontrivial_ks) for k, n in zip(matched, counts)]
    buckets = [ZeroBucket(tag, _label(k), q ** (-k / 4), n, trivial) for k, n, trivial in rows]
    return ClassifiedSpectrum(
        operator=tag,
        degree=poly.degree,
        exact_trivial=exact,
        buckets=buckets,
        unclassified=rest,
    )


# -- Ramanujan criteria -------------------------------------------------------


@dataclass
class RamanujanReport:
    vertex_criterion: bool  # nontrivial vertex-operator zeros at modulus q^-1
    edge_criterion: bool  # nontrivial edge zeros at q^-1 and q^-1/2
    chamber_criterion: bool  # nontrivial chamber zeros at 1, q^-1/2, q^-1/4
    spectra: dict  # tag -> ClassifiedSpectrum

    @property
    def agree(self):
        return self.vertex_criterion == self.edge_criterion == self.chamber_criterion

    @property
    def is_ramanujan(self):
        if not self.agree:
            raise Zeta3Error("criteria disagree; no combined verdict")
        return self.vertex_criterion


def _criterion(spec):
    """One operator's criterion: every zero sits at an admissible modulus.

    Without an exact trivial split, each trivial-only modulus must hold
    exactly its three zeros.  No nontrivial zero may sit at q^-3/4, a bucket
    only the chamber operator has.
    """
    trivial_ks, nontrivial_ks = ADMISSIBLE_K[spec.operator]
    return (
        not spec.unclassified
        and (
            spec.exact_trivial
            or all(spec.bucket_count(_label(k)) == 3 for k in trivial_ks if k not in nontrivial_ks)
        )
        and spec.bucket_count("q^-3/4", trivial=False) == 0
    )


def ramanujan_verdicts(parts: ZetaParts):
    """The three equivalent spectral criteria, each decided independently.

    They must agree; disagreement is an inconsistency surfaced to the caller
    (never averaged away).
    """
    q = parts.q
    spec_a = classify(parts.p_a, q, "A")
    spec_e = classify(parts.p_e, q, "E")
    spec_b = classify(parts.p_b, q, "B")
    return RamanujanReport(
        vertex_criterion=_criterion(spec_a),
        edge_criterion=_criterion(spec_e),
        chamber_criterion=_criterion(spec_b),
        spectra={"A": spec_a, "E": spec_e, "B": spec_b},
    )


# -- multiplicity of the cube-root factor --------------------------------


def steinberg_divisibility(p_b, chi):
    """Whether (1 - u^3)^(chi-1) divides det(I + L_B u) exactly."""
    if chi < 1:
        raise ValueError("chi must be >= 1")
    return p_b.is_zero() or cube_factor_multiplicity(p_b) >= chi - 1


def cube_factor_multiplicity(p_b):
    """Largest k with (1 - u^3)^k dividing p_b exactly; ValueError for the
    zero polynomial, which every power divides.

    With p_b = sum over r = 0, 1, 2 of u^r p_r(u^3), (1 - u^3)^k divides p_b
    exactly when (1 - w)^k divides every p_r, so k is the least multiplicity
    of the zero w = 1 among the nonzero p_r.
    """
    if p_b.is_zero():
        raise ValueError("every power of 1 - u^3 divides the zero polynomial")
    parts = (IntPoly(p_b.coeffs[r::3]) for r in range(3))
    return min(p.strip_root(1)[1] for p in parts if not p.is_zero())


# -- representation census ----------------------------------------------------


@dataclass
class RepCensus:
    a: int
    b: int
    c: int
    d: int
    e: int
    consistent: bool
    diagnostics: list

    @property
    def type_d_count(self):
        return self.d


def rep_census(parts: ZetaParts, counts):
    """Counts of the five representation types from the chamber spectrum.

    Only collision-free buckets are used: modulus 1 for the Steinberg count,
    q^-1/4 and q^-3/4 (two zeros per representation) for types e and d; the
    principal-series count then follows from dimension bookkeeping.  All
    census identities are asserted and failures collected as diagnostics.
    """
    return _census(classify(parts.p_b, parts.q, "B"), counts)


def _census(spec_b, counts):
    """The census from an already classified chamber spectrum."""
    n0, n1, n2, _chi = counts
    diagnostics = []
    if not spec_b.exact_trivial:
        diagnostics.append("trivial chamber zeros could not be removed exactly")
    if spec_b.unclassified:
        diagnostics.append(f"{len(spec_b.unclassified)} unclassifiable chamber zeros")

    c_count = spec_b.bucket_count("1", trivial=False)
    d_twice = spec_b.bucket_count("q^-3/4", trivial=False)
    e_twice = spec_b.bucket_count("q^-1/4", trivial=False)
    if d_twice % 2:
        diagnostics.append(f"odd zero count {d_twice} at modulus q^-3/4")
    if e_twice % 2:
        diagnostics.append(f"odd zero count {e_twice} at modulus q^-1/4")
    b = 3
    d = d_twice // 2
    e = e_twice // 2
    a = n0 - b - d

    checks = [
        ("c = 3N0 - 3N1 + 3N2 - 3", c_count == 3 * n0 - 3 * n1 + 3 * n2 - 3),
        ("e - d = N1 - 3N0 + 6", e - d == n1 - 3 * n0 + 6),
        ("6a + b + c + 3d + 3e = 3N2", 6 * a + b + c_count + 3 * d + 3 * e == 3 * n2),
        ("3a + b + 2d + e = N1", 3 * a + b + 2 * d + e == n1),
        ("a + b + d = N0", a + b + d == n0),
        ("a >= 0", a >= 0),
    ]
    for label, ok in checks:
        if not ok:
            diagnostics.append(f"census identity failed: {label}")
    return RepCensus(
        a=a, b=b, c=c_count, d=d, e=e,
        consistent=not diagnostics,
        diagnostics=diagnostics,
    )


# -- full report --------------------------------------------------------------


def build_spectral_report(cx, parts: ZetaParts):
    """JSON-ready spectral report for a complex and its zeta parts."""
    counts = cx.counts()
    n0, n1, n2, chi = counts
    rama = ramanujan_verdicts(parts)
    spec_b = rama.spectra["B"]
    census = _census(spec_b, counts)
    steinberg_ok = steinberg_divisibility(parts.p_b, chi) if chi >= 1 else None
    report = {
        "q": cx.q,
        "counts": {"N0": n0, "N1": n1, "N2": n2, "chi": chi},
        "operators": {
            tag: {
                "degree": spec.degree,
                "trivial_removed_exactly": spec.exact_trivial,
                "buckets": [
                    {
                        "label": bk.label,
                        "modulus": bk.modulus,
                        "count": bk.count,
                        "trivial": bk.trivial,
                    }
                    for bk in spec.buckets
                ],
                "unclassified": list(spec.unclassified),
            }
            for tag, spec in rama.spectra.items()
        },
        "ramanujan": {
            "vertex_criterion": rama.vertex_criterion,
            "edge_criterion": rama.edge_criterion,
            "chamber_criterion": rama.chamber_criterion,
            "agree": rama.agree,
            "is_ramanujan": rama.is_ramanujan if rama.agree else None,
        },
        "steinberg": {
            "expected_cube_multiplicity": chi - 1,
            "divides": steinberg_ok,
            "modulus_one_count": spec_b.bucket_count("1", trivial=False),
        },
        "census": {
            "a": census.a,
            "b": census.b,
            "c": census.c,
            "d": census.d,
            "e": census.e,
            "consistent": census.consistent,
            "diagnostics": census.diagnostics,
        },
        "full_rank": {
            "edge": parts.full_rank_edge(),
            "chamber": parts.full_rank_chamber(),
        },
        "tolerances": {"root": TOL_ROOT, "classification": TOL_CLASSIFY},
        "notes": [CENSUS_COLLISION_NOTE],
    }
    return report
