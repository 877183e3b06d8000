"""Concrete valid complexes from combinatorial data.

The pipeline is: projective plane of order q -> triangle presentation
(point-line bijection ``lam`` plus a rotation-closed set T of ordered point
triples) -> 3-vertex base quotient -> abelian covers cut out by voltage
labelings of the generators.

The presentation search backtracks over lam on bitmasks of plane points
and prunes each prefix by Hall's condition on the completions its pairs
still need.  Each presentation diagonalizes its relation matrix once
(``TrianglePresentation.relation_diagonal``); ``solve_voltages`` reads that
for every modulus.

Operators downstream are computed from this generator bookkeeping, so the
small quotients produced here carry correct multiplicities even when many
simplices collapse onto each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd

from .complexes import ComplexDescription, Presented
from .errors import ConstructionError


# -- projective planes -------------------------------------------------------


@dataclass(frozen=True)
class IncidenceStructure:
    """A finite point/line incidence structure with the plane axioms."""

    q: int
    n: int  # number of points = number of lines = q^2 + q + 1
    incidence: frozenset  # of (point, line) pairs

    @cached_property
    def all_line_points(self):
        """The sorted points of each line, computed once per plane."""
        table = [[] for _ in range(self.n)]
        for p, l in self.incidence:
            table[l].append(p)
        return tuple(tuple(sorted(ps)) for ps in table)

    @cached_property
    def all_point_lines(self):
        """The sorted lines through each point, computed once per plane."""
        table = [[] for _ in range(self.n)]
        for p, l in self.incidence:
            table[p].append(l)
        return tuple(tuple(sorted(ls)) for ls in table)

    def validate_plane(self):
        """Return a list of violated plane axioms (empty when valid)."""
        problems = []
        lines = self.all_line_points
        points = self.all_point_lines
        for l, ps in enumerate(lines):
            if len(ps) != self.q + 1:
                problems.append(f"line {l} has {len(ps)} points")
        for p, ls in enumerate(points):
            if len(ls) != self.q + 1:
                problems.append(f"point {p} on {len(ls)} lines")
        for p1 in range(self.n):
            for p2 in range(p1 + 1, self.n):
                common = set(points[p1]) & set(points[p2])
                if len(common) != 1:
                    problems.append(f"points {p1},{p2} lie on {len(common)} common lines")
        return problems


def projective_plane(q):
    """Field plane of order q over Z/q, canonical homogeneous-coordinate order."""
    if q not in (2, 3):
        raise ConstructionError(f"q={q} unsupported; only the field planes q=2,3 are built")
    vecs = []
    for v in product(range(q), repeat=3):
        if v == (0, 0, 0):
            continue
        lead = next(c for c in v if c != 0)
        if lead == 1:  # normalized representative of the projective class
            vecs.append(v)
    vecs.sort()
    n = q * q + q + 1
    assert len(vecs) == n
    incidence = frozenset(
        (pi, li)
        for pi, pv in enumerate(vecs)
        for li, lv in enumerate(vecs)
        if sum(a * b for a, b in zip(pv, lv)) % q == 0
    )
    return IncidenceStructure(q=q, n=n, incidence=incidence)


# -- triangle presentations ---------------------------------------------------


@dataclass(frozen=True)
class TrianglePresentation:
    """A plane, a point->line bijection, and a rotation-closed triple set.

    Ordered triples (x, y, z) in T satisfy y on lam(x), z on lam(y), x on
    lam(z); each directed pair (x, y) with y on lam(x) extends to exactly one
    triple, and T is closed under cyclic rotation.
    """

    plane: IncidenceStructure
    lam: tuple  # lam[x] = line index
    triples: frozenset  # of ordered (x, y, z)

    def __post_init__(self):
        problems = self.check()
        if problems:
            raise ConstructionError("bad triangle presentation: " + "; ".join(problems[:5]))

    def check(self):
        plane = self.plane
        n = plane.n
        problems = []
        if sorted(self.lam) != list(range(n)):
            problems.append("lam is not a bijection")
            return problems
        outside = sorted(t for t in self.triples if not all(0 <= v < n for v in t))
        if outside:
            return [f"triple {t} names a point outside 0..{n - 1}" for t in outside]
        line_pts = plane.all_line_points
        expected = n * (plane.q + 1)
        if len(self.triples) != expected:
            problems.append(f"|T| = {len(self.triples)}, expected {expected}")
        by_prefix = {}
        for (x, y, z) in self.triples:
            if (y, z, x) not in self.triples:
                problems.append(f"rotation of {(x, y, z)} missing")
            if y not in line_pts[self.lam[x]]:
                problems.append(f"triple {(x, y, z)}: {y} not on lam({x})")
            if (x, y) in by_prefix:
                problems.append(f"pair ({x},{y}) completed twice")
            by_prefix[(x, y)] = z
        for x in range(n):
            for y in line_pts[self.lam[x]]:
                if (x, y) not in by_prefix:
                    problems.append(f"pair ({x},{y}) has no completion")
        return problems

    def sorted_triples(self):
        return tuple(sorted(self.triples))

    def rotation_classes(self):
        """Canonical representatives (minimal rotation) of each triple class."""
        reps = set()
        for t in self.triples:
            x, y, z = t
            reps.add(min(t, (y, z, x), (z, x, y)))
        return tuple(sorted(reps))

    @cached_property
    def relation_diagonal(self):
        """(diag, V) of ``_diagonalize(relation_matrix(self), n)``.

        The relation matrix depends on the presentation alone, so it is
        diagonalized once and ``solve_voltages`` reads the result for every
        modulus.
        """
        diag, V = _diagonalize(relation_matrix(self), self.plane.n)
        return tuple(diag), tuple(tuple(row) for row in V)


def _hall_condition(rows):
    """True iff the bitmask ``rows`` have distinct representatives.

    Row i is the set of right nodes usable by left node i.  By Hall's theorem
    a matching saturates every row exactly when every subset of the rows
    covers at least as many nodes as it has rows.  The search passes at most
    q + 1 rows, so this is at most 2^(q+1) - 1 unions.
    """
    unions = [0]  # unions[s]: the union of the rows in subset s (bit i = row i)
    for row in rows:
        for s in range(len(unions)):
            u = unions[s] | row
            if u.bit_count() <= s.bit_count():
                return False
            unions.append(u)
    return True


def _bits(mask):
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_triangle_presentations(plane):
    """Exhaustive backtracking over bijections lam and triple completions.

    lam is assigned in point order, and each new lam(x0) is pruned by a Hall
    check (``_hall_condition``) for every decided point whose pairs or
    candidates it changes.  Point sets are bitmasks: one per line, the
    ``decided`` prefix, and ``holders[x]``, the decided z with x on lam(z),
    updated when lam is set and unset.  The prune is a necessary condition,
    so it drops no solution and changes no order; every solution is valid by
    construction and checked again by ``TrianglePresentation``.

    Yields every solution, lexicographically: ordered first by the tuple
    (lam(0), ..., lam(n-1)), then by the triple set (the first unfinished
    pair always receives its smallest feasible completion first).
    """
    n = plane.n
    line_pts = plane.all_line_points
    line_mask = [sum(1 << p for p in pts) for pts in line_pts]
    lam = [None] * n
    used = [False] * n
    holders = [0] * n

    def prefix_feasible(x0):
        # The pairs (x, y) into each decided y (x in holders[y]) need
        # completions z on lam(y), undecided or with x on lam(z), matched
        # injectively (rotation classes share completions).  Setting lam(x0)
        # changes only y = x0, the y on lam(x0) (new pair (x0, y)) and the y
        # with x0 on lam(y) (candidate z = x0 decided); every other y keeps
        # its verdict from the parent prefix.
        decided = (1 << (x0 + 1)) - 1
        free = ~decided
        reach = ((1 << x0) | line_mask[lam[x0]] | holders[x0]) & decided
        for y in _bits(reach):
            line = line_mask[lam[y]]
            if not _hall_condition([line & (free | holders[x]) for x in _bits(holders[y])]):
                return False
        return True

    def complete_triples():
        edges = [(x, y) for x in range(n) for y in line_pts[lam[x]]]
        assigned = {}

        def dfs(idx):
            while idx < len(edges) and edges[idx] in assigned:
                idx += 1
            if idx == len(edges):
                yield frozenset((x, y, z) for (x, y), z in assigned.items())
                return
            x, y = edges[idx]
            for z in _bits(line_mask[lam[y]] & holders[x]):
                # keys coincide only when x = y = z, and then so do completions
                parts = {(x, y): z, (y, z): x, (z, x): y}
                if any(pair in assigned for pair in parts):
                    continue
                assigned.update(parts)
                yield from dfs(idx + 1)
                for pair in parts:
                    del assigned[pair]

        yield from dfs(0)

    def dfs_lambda(x):
        if x == n:
            for triples in complete_triples():
                yield TrianglePresentation(plane=plane, lam=tuple(lam), triples=triples)
            return
        bit = 1 << x
        for l in range(n):
            if used[l]:
                continue
            lam[x] = l
            used[l] = True
            for p in line_pts[l]:
                holders[p] |= bit
            if prefix_feasible(x):
                yield from dfs_lambda(x + 1)
            for p in line_pts[l]:
                holders[p] ^= bit
            lam[x] = None
            used[l] = False

    yield from dfs_lambda(0)


def find_triangle_presentation(plane):
    """The lexicographically first triangle presentation of the plane.

    Exhaustive backtracking; exhaustion without a solution is a hard error
    (it cannot happen for the supported planes).
    """
    for pres in iter_triangle_presentations(plane):
        return pres
    raise ConstructionError(f"no triangle presentation exists for this plane (q={plane.q})")


# -- voltage assignments ------------------------------------------------------


@dataclass(frozen=True)
class VoltageAssignment:
    """Generator labels in Z/m whose sum vanishes over every relation triple."""

    m: int
    c: tuple

    def satisfies(self, presentation):
        return all(
            (self.c[x] + self.c[y] + self.c[z]) % self.m == 0
            for (x, y, z) in presentation.triples
        )


def _diagonalize(rows, n_cols):
    """Integer diagonalization A -> U A V = diag(s); returns (diag, V).

    Only column operations are tracked (V), since solving A c = 0 needs the
    change of variables d = V^{-1} c, i.e. c = V d.
    """
    A = [list(r) for r in rows]
    n_rows = len(A)
    V = [[1 if i == j else 0 for j in range(n_cols)] for i in range(n_cols)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, f):
        A[dst] = [a + f * b for a, b in zip(A[dst], A[src])]

    def addmul_col(dst, src, f):
        for row in A:
            row[dst] += f * row[src]
        for row in V:
            row[dst] += f * row[src]

    t = 0
    while t < min(n_rows, n_cols):
        # locate the entry of minimal nonzero magnitude in the trailing block
        best = None
        for i in range(t, n_rows):
            for j in range(t, n_cols):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, n_rows):
            if A[i][t] != 0:
                addmul_row(i, t, -(A[i][t] // A[t][t]))
                if A[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n_cols):
            if A[t][j] != 0:
                addmul_col(j, t, -(A[t][j] // A[t][t]))
                if A[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        t += 1
    diag = [abs(A[i][i]) if i < n_rows else 0 for i in range(n_cols)]
    return diag, V


def relation_matrix(presentation):
    """One row per rotation class; entry = occurrences of each generator."""
    n = presentation.plane.n
    rows = []
    for (x, y, z) in presentation.rotation_classes():
        row = [0] * n
        for g in (x, y, z):
            row[g] += 1
        rows.append(row)
    return rows


def solve_voltages(presentation, m):
    """All labelings c: generators -> Z/m with zero sum over every triple.

    Complete solution set of the linear system, in lexicographic order;
    always contains the zero assignment.
    """
    if m < 1:
        raise ConstructionError(f"modulus m={m} below 1")
    n = presentation.plane.n
    if m == 1:
        return [VoltageAssignment(m=1, c=(0,) * n)]
    diag, V = presentation.relation_diagonal
    choice_sets = []
    for s in diag:
        g = gcd(s, m)
        step = m // g
        choice_sets.append([k * step % m for k in range(g)])
    sols = set()
    for d in product(*choice_sets):
        c = tuple(sum(V[i][j] * d[j] for j in range(n)) % m for i in range(n))
        sols.add(c)
    out = [VoltageAssignment(m=m, c=c) for c in sorted(sols)]
    for v in out:
        if not v.satisfies(presentation):
            raise ConstructionError("voltage solver produced a non-solution")  # pragma: no cover
    return out


# -- quotient complexes -------------------------------------------------------


def _generated_subgroup(m, labels):
    """Subgroup of Z/3 x Z/m generated by {(1, c) : c in labels}."""
    elems = {(0, 0)}
    frontier = [(0, 0)]
    gens = {(1, c % m) for c in labels}
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = ((a[0] + g[0]) % 3, (a[1] + g[1]) % m)
            if b not in elems:
                elems.add(b)
                frontier.append(b)
    return elems


def abelian_cover(presentation, voltage):
    """The cover with vertex set Z/3 x Z/m cut out by a voltage assignment."""
    m = voltage.m
    n = presentation.plane.n
    if m < 1:
        raise ConstructionError(f"modulus m={m} below 1")
    if len(voltage.c) != n:
        raise ConstructionError("voltage vector length mismatch")
    if not voltage.satisfies(presentation):
        raise ConstructionError("voltage does not vanish on every relation triple")
    sub = _generated_subgroup(m, voltage.c)
    if len(sub) != 3 * m:
        listing = ", ".join(str(e) for e in sorted(sub))
        raise ConstructionError(
            f"cover is disconnected: labels generate a subgroup of order "
            f"{len(sub)} of {3 * m}: {{{listing}}}"
        )

    c = voltage.c

    def vid(g3, gm):
        return g3 * m + gm

    def eid(g3, gm, x):
        return (g3 * m + gm) * n + x

    vertices = [(vid(g3, gm), g3) for g3 in range(3) for gm in range(m)]
    edges = [
        (eid(g3, gm, x), vid(g3, gm), vid((g3 + 1) % 3, (gm + c[x]) % m))
        for g3 in range(3)
        for gm in range(m)
        for x in range(n)
    ]
    triples = presentation.sorted_triples()
    chambers = []
    for a in range(m):
        for ti, (x, y, z) in enumerate(triples):
            cid = a * len(triples) + ti
            chambers.append(
                (
                    cid,
                    eid(0, a, x),
                    eid(1, (a + c[x]) % m, y),
                    eid(2, (a + c[x] + c[y]) % m, z),
                )
            )
    return ComplexDescription(
        q=presentation.plane.q,
        vertices=vertices,
        edges=edges,
        chambers=chambers,
        provenance=Presented(presentation=presentation, voltage=voltage),
    )


def base_quotient(presentation):
    """The 3-vertex quotient: one vertex per type, one edge per generator."""
    n = presentation.plane.n
    return abelian_cover(presentation, VoltageAssignment(m=1, c=(0,) * n))


def connected_covers(presentation, m):
    """All connected degree-m covers, as (voltage index, complex) pairs.

    Indices refer to the solve_voltages ordering; disconnected assignments
    are skipped, and any other error building a cover propagates.  Many
    presentations admit none for a given m.
    """
    return [
        (idx, abelian_cover(presentation, voltage))
        for idx, voltage in enumerate(solve_voltages(presentation, m))
        if len(_generated_subgroup(m, voltage.c)) == 3 * m
    ]


def first_presentation_with_covers(plane, m, minimum=1):
    """Lexicographically first presentation admitting >= minimum connected
    m-covers, or None when the exhaustive scan finds none."""
    for pres in iter_triangle_presentations(plane):
        if len(connected_covers(pres, m)) >= minimum:
            return pres
    return None
