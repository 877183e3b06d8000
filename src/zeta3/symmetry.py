"""A complex's own free cyclic symmetry, and operators taken to its quotient.

A regular cover is a voltage graph on its quotient (Gross-Tucker): a complex
on which an automorphism g of order m acts freely is the Z/m cover of its
orbit complex, each simplex on the sheet g^s of its orbit's representative.
Every operator of the paper commutes with g, so it is the lift over Z/m of a
pattern on the orbits whose entry (i, j) carries the sheet of j
(``quotient_pattern``), and its determinant is a product over the characters
of Z/m (Stark-Terras): ``exactdet.char_rev_labelled`` takes it as it takes a
presented cover's labelled base operators.

A complex given by explicit lists names no deck group, so
``find_free_symmetry`` searches its incidence arrays for one, once per complex
(``ComplexDescription.free_symmetry`` caches it).  Fix v0, the first vertex
of type 0, and e0, its first out-edge.  A candidate g maps e0 to an out-edge
f of another vertex of v0's type.  Each side colours every edge by its
walk-count profile from the individualized edges: the row and the column of
L_E^k at each of them, k = 0..K (``_profiles``).  An automorphism carries
the left colouring onto the right one, so the colour classes must match in
size; when every class is a single edge the colouring is an edge map, and
otherwise the first member of the first larger class is individualized and
the search branches over the members of the matching class on the right.
A discrete colouring is kept if it is a free automorphism of the complex
(``_free_automorphism``): its vertex map read off tails and heads, its
chamber map off the chambers' edge triples, every orbit on vertices, edges
and chambers of the one size ord(g).  The search stops at the first g whose
order is the size of v0's type class, the largest a free g can have; it
gives up after ``_BRANCH_CAP`` individualizations, keeping the largest order
found.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ExactArithmeticError
from .exactdet import grading_classes
from .operators import SparseIntegerMatrix, le_steps

# the most edges the search individualizes on the right, one per candidate
# image it tries, before it gives up
_BRANCH_CAP = 64
# the walk lengths of an edge's profile, 0..K, K at most this
_WALK_STEPS = 6


class FreeSymmetry(NamedTuple):
    """A free automorphism g of order m of a complex, as the permutations it
    makes of the positions of its sorted vertices, edges and chambers, each
    a read-only int64 array."""

    m: int
    vertices: np.ndarray
    edges: np.ndarray
    chambers: np.ndarray


def _walk_steps(q):
    """The largest K <= _WALK_STEPS with q**(2K) < 2**53.  L_E has row and
    column sums q**2, so every entry of L_E^k, and every partial sum of a
    walk-count vector's step, is a nonnegative integer at most q**(2k): exact
    in float64 for k <= K."""
    k = _WALK_STEPS
    while k and q ** (2 * k) >= 1 << 53:
        k -= 1
    return k


def _profiles(n, rows, cols, steps, e):
    """The (2 (steps + 1), n) walk counts of edge e: row 2k holds row e of
    L_E^k and row 2k + 1 its column e, L_E the pattern of entries (rows[k],
    cols[k]), one mat-vec a step."""
    out = np.zeros((2 * (steps + 1), n))
    out[:2, e] = 1
    for k in range(1, steps + 1):
        out[2 * k] = np.bincount(cols, out[2 * k - 2, rows], minlength=n)
        out[2 * k + 1] = np.bincount(rows, out[2 * k - 1, cols], minlength=n)
    return out


def _orbit_sizes_equal(perms, m):
    """Whether every orbit of every permutation of ``perms`` has m members:
    g^m is the identity and no g^s, 0 < s < m, fixes a point."""
    for g in perms:
        identity = np.arange(len(g))
        power = g
        for _ in range(1, m):
            if (power == identity).any():
                return False
            power = g[power]
        if not np.array_equal(power, identity):
            return False
    return True


def _free_automorphism(inc, vtype, sigma):
    """The ``FreeSymmetry`` whose edge map is ``sigma``, or None when sigma is
    no free automorphism of the complex of incidence tables ``inc``.

    The vertex map takes tail(e) to tail(sigma(e)) and head(e) to
    head(sigma(e)), and must be one map that keeps vertex types; the chamber
    map takes a chamber to one with its edges' images at its slots, chambers
    with one edge triple matched in order of position, and must reach every
    chamber.  g's order is e0's orbit size under sigma."""
    tau = np.empty(len(vtype), dtype=np.int64)
    tau[inc.tail] = inc.tail[sigma]
    if not (np.array_equal(tau[inc.tail], inc.tail[sigma])
            and np.array_equal(tau[inc.head], inc.head[sigma])
            and np.array_equal(vtype[tau], vtype)):
        return None
    triples = inc.chamber_edges
    images = sigma[triples]
    at = np.lexsort(triples.T[::-1])
    image_at = np.lexsort(images.T[::-1])
    if not np.array_equal(triples[at], images[image_at]):
        return None
    pi = np.empty(len(triples), dtype=np.int64)
    pi[image_at] = at
    m, e = 1, sigma[0]
    while e != 0:
        m, e = m + 1, sigma[e]
    if m == 1 or not _orbit_sizes_equal((tau, sigma, pi), m):
        return None
    for perm in (tau, sigma, pi):
        perm.flags.writeable = False
    return FreeSymmetry(m, tau, sigma, pi)


def _edge_maps(left, right, profile, budget):
    """Every edge map carrying the colouring ``left`` onto ``right`` (each a
    (rows, N1) array of walk counts, an edge's colour its column) that the
    search reaches, individualizing edges while a colour class holds more
    than one; ``profile(e)`` gives edge e's walk counts and ``budget`` (a
    one-item list) the individualizations left."""
    at, image_at = np.lexsort(left[::-1]), np.lexsort(right[::-1])
    ranked = left[:, at]
    if not np.array_equal(ranked, right[:, image_at]):
        return
    tied = (ranked[:, 1:] == ranked[:, :-1]).all(axis=0)
    if not tied.any():
        sigma = np.empty(len(at), dtype=np.int64)
        sigma[at] = image_at
        yield sigma
        return
    first = int(np.argmax(tied))
    end = first + 1 + int(np.argmin(np.append(tied[first:], False)))
    fixed = profile(at[first])
    for f in image_at[first:end].tolist():
        if budget[0] <= 0:
            return
        budget[0] -= 1
        yield from _edge_maps(np.vstack([left, fixed]), np.vstack([right, profile(f)]),
                              profile, budget)


def find_free_symmetry(cx):
    """The free automorphism of largest order the search finds on a valid
    complex (module docstring), or None when it finds none; a complex with
    one vertex of each type has none."""
    inc = cx.incidence()
    vtype = np.array([v.vtype for v in cx.vertices], dtype=np.int64)
    mates = np.flatnonzero(vtype == 0)
    if len(mates) < 2:
        return None
    n1, rows, cols, _edges = le_steps(cx)
    steps = _walk_steps(cx.q)

    def profile(e):
        return _profiles(n1, rows, cols, steps, e)

    start = profile(inc.out_edges[mates[0], 0])
    budget = [_BRANCH_CAP]
    best = None
    for f in inc.out_edges[mates[1:]].ravel().tolist():
        if budget[0] <= 0:
            break
        budget[0] -= 1
        for sigma in _edge_maps(start, profile(f), profile, budget):
            found = _free_automorphism(inc, vtype, sigma)
            if found is not None and (best is None or found.m > best.m):
                best = found
                if best.m == len(mates):
                    return best
    return best


def quotient_pattern(M: SparseIntegerMatrix, g, m):
    """(n, m, rows, cols, labels, values, classes) for
    ``exactdet.char_rev_labelled``: the pattern over Z/m whose lift is M, for
    a permutation g of M's indices, all of whose orbits have m members, with
    M[g i, g j] = M[i, j].

    Each orbit's least index is its representative, on sheet 0, and g^s of
    it is on sheet s.  An entry (i, j, w) of a representative's row becomes
    (orbit(i), orbit(j), sheet(j), w): M[g^h i, g^(h+s) j] = M[i, g^s j], so
    the lift, from sheet h of orbit(i) to sheet h + s of orbit(j), is M with
    its indices relabelled.  ``classes`` is the pattern's Z/3 grading
    (``exactdet.grading_classes``).  A short orbit, or an entry of M whose
    image under g is not one of M's with its weight, raises
    ExactArithmeticError naming the first offending index.
    """
    size = M.n
    g = np.asarray(g, dtype=np.int64)
    identity = np.arange(size)
    representative = identity.copy()
    power = identity
    for s in range(1, m + 1):
        power = g[power]
        fixed = power == identity
        if s < m and fixed.any() or s == m and not fixed.all():
            i = int(np.argmax(fixed if s < m else ~fixed))
            raise ExactArithmeticError(
                f"index {i} has an orbit of other than {m} members under the symmetry")
        np.minimum(representative, power, out=representative)
    cells = M.rows * size + M.cols
    moved = g[M.rows] * size + g[M.cols]
    at = np.minimum(np.searchsorted(cells, moved), max(len(cells) - 1, 0))
    kept = (cells[at] == moved) & (M.values[at] == M.values)
    if not kept.all():
        k = int(np.argmin(kept))
        raise ExactArithmeticError(
            f"entry ({M.rows[k]}, {M.cols[k]}) of the operator does not commute with "
            f"the symmetry")
    leaders = np.flatnonzero(representative == identity)
    orbit = np.empty(size, dtype=np.int64)
    sheet = np.empty(size, dtype=np.int64)
    power = leaders
    for s in range(m):
        orbit[power] = np.arange(len(leaders))
        sheet[power] = s
        power = g[power]
    keep = sheet[M.rows] == 0
    n = len(leaders)
    rows, cols = orbit[M.rows[keep]], orbit[M.cols[keep]]
    return (n, m, rows, cols, sheet[M.cols[keep]], M.values[keep],
            grading_classes(n, rows, cols))
