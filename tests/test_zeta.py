import numpy as np
import pytest

from zeta3 import zeta
from zeta3.complexes import ComplexDescription, Geometric
from zeta3.errors import ExactArithmeticError
from zeta3.exactdet import char_rev, char_rev_factored, det_integer, det_poly_matrix
from zeta3.operators import (
    SparseIntegerMatrix,
    build_a1,
    build_a2,
    build_companion_pattern,
    build_lb,
    build_lb_pattern,
    build_le,
    build_le_pattern,
)
from zeta3.polynomials import IntPoly
from zeta3.zeta import (
    counts_from_traces,
    edge_trace_powers,
    geodesic_counts,
    verify_identity,
    vertex_companion,
    walk_count_oracle,
    zeta_parts,
)


@pytest.fixture(scope="module")
def base_parts(base2):
    return zeta_parts(base2)


def test_degrees_base(base_parts):
    assert (base_parts.p_a.degree, base_parts.p_e.degree, base_parts.p_b.degree) == (9, 21, 63)


def test_constant_terms(base_parts):
    assert base_parts.p_a.cf(0) == 1
    assert base_parts.p_e.cf(0) == 1
    assert base_parts.p_b.cf(0) == 1


def test_pa_base_by_circulant_oracle(base_parts):
    # A1 = 7P on the type cycle, so the pencil determinant reduces to the
    # circulant identity det(aI + bP + bP^2...) = a^3 + b^3 + c^3 - 3abc
    a = IntPoly([1, 0, 0, -8])
    b = IntPoly([0, -7])
    c = IntPoly([0, 0, 14])
    oracle = a ** 3 + b ** 3 + c ** 3 - 3 * a * b * c
    assert base_parts.p_a == oracle
    assert base_parts.p_a.to_list() == [1, 0, 0, -73, 0, 0, 584, 0, 0, -512]


def test_pa_value_at_one_matches_direct_det(base2, base_parts):
    # P_A(1) = det(I - A1 + q A2 - q^3 I), from the operators directly
    q = base2.q
    a1 = build_a1(base2).to_dense()
    a2 = build_a2(base2).to_dense()
    n = len(a1)
    direct = det_integer(
        [[(1 - q ** 3 if i == j else 0) - a1[i][j] + q * a2[i][j] for j in range(n)]
         for i in range(n)]
    )
    assert base_parts.p_a(1) == direct


def vertex_pencil(cx):
    """The cubic pencil I - A1 u + q A2 u^2 - q^3 u^3 I as IntPoly entries."""
    q = cx.q
    a1 = build_a1(cx)
    a2 = build_a2(cx)
    return [
        [IntPoly([1 if i == j else 0, -a1.get(i, j), q * a2.get(i, j),
                  -(q ** 3) if i == j else 0]) for j in range(a1.n)]
        for i in range(a1.n)
    ]


def test_pa_companion_matches_pencil_determinant(small_battery, base3):
    # block-companion linearization against interpolation of the pencil
    for cx in small_battery + [base3]:
        companion = vertex_companion(build_a1(cx), build_a2(cx), cx.q)
        assert companion.n == 3 * cx.counts()[0]
        assert char_rev(companion) == det_poly_matrix(vertex_pencil(cx))


def test_pb_value_matches_direct_det(base2, base_parts):
    lb = build_lb(base2)
    dense = lb.to_dense()
    direct = det_integer(
        [[(1 if i == j else 0) + dense[i][j] for j in range(lb.n)] for i in range(lb.n)]
    )
    assert base_parts.p_b(1) == direct


def test_pe_transpose_substitution(base2, base_parts):
    # det(I - LE^t u^2) = P_E(u^2), used silently by the identity
    from zeta3.exactdet import char_rev

    le_t = build_le(base2).transpose()
    sub = char_rev(le_t.to_dense()).substitute_square()
    assert sub == base_parts.p_e.substitute_square()


def test_identity_base(base_parts):
    assert verify_identity(base_parts).holds


def test_identity_small_battery(small_battery):
    for cx in small_battery:
        parts = zeta_parts(cx)
        assert parts.full_rank_edge()
        assert parts.full_rank_chamber()
        assert verify_identity(parts).holds


@pytest.mark.parametrize("which", ["A1", "LE", "LB"])
def test_single_entry_mutation_breaks_identity(base2, which):
    a1 = build_a1(base2)
    a2 = build_a2(base2)
    le = build_le(base2)
    lb = build_lb(base2)
    if which == "A1":
        a1 = a1.with_increment(0, 0)
    elif which == "LE":
        le = le.with_increment(0, 0)
    else:
        lb = lb.with_increment(0, 0)
    parts = zeta_parts(base2, operators=(a1, a2, le, lb))
    verdict = verify_identity(parts)
    assert not verdict.holds
    assert verdict.witness_index is not None
    assert verdict.lhs_coefficient != verdict.rhs_coefficient


def test_mutation_off_diagonal(base2):
    le = build_le(base2)
    target = next(iter(sorted(le.entries)))
    mutated = le.with_increment(*target)
    parts = zeta_parts(
        base2, operators=(build_a1(base2), build_a2(base2), mutated, build_lb(base2))
    )
    assert not verify_identity(parts).holds


def test_identity_through_geometric_lists(base2, cover_m2):
    # strip provenance: operators then come from the incidence rules alone
    for cx in (base2, cover_m2):
        geo = ComplexDescription(
            q=cx.q, vertices=cx.vertices, edges=cx.edges, chambers=cx.chambers,
            provenance=Geometric(),
        )
        parts = zeta_parts(geo)
        assert parts == zeta_parts(cx)
        assert verify_identity(parts).holds


def test_factored_parts_match_dense(small_battery):
    for cx in small_battery:
        companion = vertex_companion(build_a1(cx), build_a2(cx), cx.q)
        assert char_rev_factored(build_companion_pattern(cx)) == char_rev(companion)
        assert char_rev_factored(build_le_pattern(cx)) == char_rev(build_le(cx))
        assert char_rev_factored(build_lb_pattern(cx).negated()) == char_rev(
            build_lb(cx).negated()
        )


def test_dense_matches_factored_at_full_size(cover_m7, monkeypatch):
    # P_E and P_B of a q=2 m=7 cover (L_B of dimension 441): the presented
    # complex takes char_rev_factored, the same cover as geometric lists
    # dense char_rev, and both self-check against the incidence-rule operator
    # modulo a prime outside their CRT sets.
    presented = zeta_parts(cover_m7)
    geo = ComplexDescription(
        q=cover_m7.q, vertices=cover_m7.vertices, edges=cover_m7.edges,
        chambers=cover_m7.chambers, provenance=Geometric(),
    )
    monkeypatch.setattr(zeta, "char_rev_factored", _refuse)
    parts = zeta_parts(geo)
    assert parts == presented
    assert verify_identity(parts).holds


def _refuse(*_args, **_kwargs):
    raise AssertionError("route must not run")


@pytest.fixture()
def dense_calls(monkeypatch):
    """Dimensions of the matrices zeta_parts hands to dense char_rev."""
    calls = []

    def counting(m):
        calls.append(m.n)
        return char_rev(m)

    monkeypatch.setattr(zeta, "char_rev", counting)
    return calls


def test_presented_cover_takes_factored_route(cover_m3, dense_calls):
    # P_A, P_E and P_B all come from their labelled patterns: no dense char_rev
    assert verify_identity(zeta_parts(cover_m3)).holds
    assert dense_calls == []


def test_stripped_copy_takes_dense_route(cover_m2, dense_calls, monkeypatch):
    monkeypatch.setattr(zeta, "char_rev_factored", _refuse)
    geo = ComplexDescription(
        q=cover_m2.q, vertices=cover_m2.vertices, edges=cover_m2.edges,
        chambers=cover_m2.chambers, provenance=Geometric(),
    )
    assert verify_identity(zeta_parts(geo)).holds
    assert dense_calls == [42, 126, 18]


def test_self_check_catches_corrupted_pattern(cover_m2, monkeypatch):
    # move one entry of the L_E pattern to another group label: the twisted
    # blocks change, the dense operator the self-check compares with does not
    def corrupted(cx):
        pattern = build_le_pattern(cx)
        (i, j, h), v = sorted(pattern.entries.items())[0]
        pattern.add(i, j, h, -v)
        pattern.add(i, j, h + 1, v)
        return pattern

    monkeypatch.setattr(zeta, "build_le_pattern", corrupted)
    with pytest.raises(ExactArithmeticError, match="self-check failed"):
        zeta_parts(cover_m2)


def test_identity_negative_chi_branch():
    # synthetic parts exercising the chi < 0 clearing: the cube factor moves
    # to the right-hand side, so P_E(u) P_E(u^2) = (1-u^3) P_A P_B here
    from zeta3.zeta import ZetaParts

    parts = ZetaParts(
        q=2, n0=1, n1=3, n2=1, chi=-1,
        p_a=IntPoly([1, 0, 0, 0, 0, 0, -1]),  # 1 - u^6
        p_e=IntPoly([1, 0, 0, -1]),  # 1 - u^3
        p_b=IntPoly.one(),
    )
    assert verify_identity(parts).holds
    broken = ZetaParts(
        q=2, n0=1, n1=3, n2=1, chi=-1,
        p_a=IntPoly([1, 0, 0, 0, 0, 0, -1]),
        p_e=IntPoly([1, 0, 0, 1]),
        p_b=IntPoly.one(),
    )
    assert not verify_identity(broken).holds


def test_corrupted_geometric_complex_fails_identity(base2):
    # swap the type-0 edges of two chambers: locally valid, globally wrong
    chambers = [list(c) for c in base2.chambers]
    chambers[0][1], chambers[3][1] = chambers[3][1], chambers[0][1]
    cx = ComplexDescription(
        q=2,
        vertices=base2.vertices,
        edges=base2.edges,
        chambers=chambers,
        provenance=Geometric(),
    )
    assert cx.validate().ok
    verdict = verify_identity(zeta_parts(cx))
    assert not verdict.holds


# -- geodesics ---------------------------------------------------------------


def test_geodesic_counts_match_traces(base2, base_parts):
    counts = geodesic_counts(base_parts, 12)
    traces = edge_trace_powers(build_le(base2), 12)
    assert counts == counts_from_traces(traces)
    assert all(c >= 0 for c in counts)


def test_geodesic_counts_cover(cover_m2):
    parts = zeta_parts(cover_m2)
    counts = geodesic_counts(parts, 12)
    traces = edge_trace_powers(build_le(cover_m2), 12)
    assert counts == counts_from_traces(traces)


def spy(monkeypatch, name):
    """Replace zeta's ``name`` by a wrapper that records its results."""
    results = []
    fn = getattr(zeta, name)

    def recorded(*args):
        results.append(fn(*args))
        return results[-1]

    monkeypatch.setattr(zeta, name, recorded)
    return results


def reference_traces(le, max_len):
    """trace(L_E^k), k = 1..max_len, by dense powers in Python ints."""
    n = le.n
    m = [[le.get(i, j) for j in range(n)] for i in range(n)]
    power, out = m, []
    for _ in range(max_len):
        out.append(sum(power[i][i] for i in range(n)))
        power = [[sum(row[t] * m[t][j] for t in range(n) if row[t]) for j in range(n)]
                 for row in power]
    return out


@pytest.mark.parametrize("name", ["base2", "cover_m2", "base3", "ungraded"])
def test_edge_trace_powers_match_python_int_powers(name, request, monkeypatch):
    # a genuine L_E takes its period-3 block; the corrupted L_E of the
    # benchmark's self-test (one diagonal entry more) has no grading and
    # takes its own powers
    le = build_le(request.getfixturevalue("base2" if name == "ungraded" else name))
    if name == "ungraded":
        le = le.with_increment(0, 0)
    reductions = spy(monkeypatch, "_cyclic_reduction")
    assert edge_trace_powers(le, 9) == reference_traces(le, 9)
    assert [d for d, _x in reductions] == [1 if name == "ungraded" else 3]


def test_edge_trace_routes_agree(base2, monkeypatch):
    # L_E of the base is 21 x 21 and 4-regular: lengths up to 24 take float64,
    # 25 to 30 int64 and longer ones Python ints, on its 7-row period-3 block
    le = build_le(base2)
    assert 21 * 4 ** 24 < 2 ** 53 <= 21 * 4 ** 25 and 21 * 4 ** 31 >= 2 ** 62
    dtypes = spy(monkeypatch, "_exact_dtype")
    reductions = spy(monkeypatch, "_cyclic_reduction")
    exact = edge_trace_powers(le, 31)
    assert edge_trace_powers(le, 24) == exact[:24]
    assert edge_trace_powers(le, 25) == exact[:25]
    assert dtypes == [object, np.float64, np.int64]
    assert [(d, x.shape) for d, x in reductions] == [(3, (7, 7, 1))] * 3
    assert all(isinstance(t, int) for t in exact) and exact[23] > 2 ** 48
    assert exact == reference_traces(le, 31)


def test_edge_trace_powers_negative_entries():
    # signed row sums of 1 would let int64 take powers that overflow it; the
    # absolute row sum 2**21 - 1 sends them to Python ints
    big = 1 << 20
    m = [[big, 1 - big], [1 - big, big]]
    le = SparseIntegerMatrix(2, {(i, j): v for i, row in enumerate(m) for j, v in enumerate(row)})
    expected = []
    power = m
    for _ in range(5):
        expected.append(power[0][0] + power[1][1])
        power = [[sum(power[i][t] * m[t][j] for t in range(2)) for j in range(2)]
                 for i in range(2)]
    assert edge_trace_powers(le, 5) == expected
    assert expected[-1] == 40564722493330005353948619210752


def test_first_counts_are_traces(base2, base_parts):
    traces = edge_trace_powers(build_le(base2), 2)
    counts = geodesic_counts(base_parts, 2)
    assert counts[0] == traces[0]  # N_1 = trace(L_E)
    assert counts[1] == traces[1] + 2 * traces[0]  # N_2


def test_type_one_walks_need_length_multiple_of_three(base_parts):
    counts = geodesic_counts(base_parts, 12)
    traces_nonzero = [m for m in range(1, 13) if counts[m - 1] and m % 3]
    # lengths 1..12 not divisible by 3 can only carry the doubled
    # half-length contribution (type-two steps), never odd ones
    assert all(m % 2 == 0 for m in traces_nonzero)


def test_geodesics_empty_request(base_parts):
    assert geodesic_counts(base_parts, 0) == []


def test_negative_counts_raise():
    bogus = type(
        "P",
        (),
        {"p_e": IntPoly([1, 1]), "chi": 0},
    )
    with pytest.raises(ExactArithmeticError):
        geodesic_counts(bogus, 3)


def reference_walk_counts(cx, max_len):
    """The oracle before its count matrix: successor lists from the chambers,
    then one dict walk per start edge, counting the sequences of each length
    by the edge they end at."""
    edges = cx.edges
    chambers_of = {e.id: set() for e in edges}
    for c in cx.chambers:
        for eid in c.edge_ids:
            chambers_of[eid].add(c.id)
    by_tail = {}
    for k, e in enumerate(edges):
        by_tail.setdefault(e.tail, []).append(k)
    succ = [[k for k in by_tail.get(e.head, ())
             if chambers_of[e.id].isdisjoint(chambers_of[edges[k].id])] for e in edges]
    totals = [0] * max_len
    for start in range(len(edges)):
        ending_at = {start: 1}
        for length in range(max_len):
            step = {}
            for k, count in ending_at.items():
                for nxt in succ[k]:
                    step[nxt] = step.get(nxt, 0) + count
            ending_at = step
            totals[length] += ending_at.get(start, 0)
    return totals


def test_walk_oracle_matches_reference_walk(reference_battery):
    for cx in reference_battery:
        assert walk_count_oracle(cx, 8) == reference_walk_counts(cx, 8), cx


def test_walk_oracle_routes_agree(base3):
    # the q=3 base has 39 edges of 9 successors each: lengths up to 15 count
    # in float64, 16 and 17 in int64, longer ones in Python ints
    assert 39 * 9 ** 15 < 2 ** 53 <= 39 * 9 ** 16 and 39 * 9 ** 17 < 2 ** 62 <= 39 * 9 ** 18
    exact = reference_walk_counts(base3, 21)
    for length in (15, 16, 17, 18, 21):
        assert walk_count_oracle(base3, length) == exact[:length]
    # past a double's exact range at 18, past int64 at 21
    assert exact[17] > 2 ** 53 and exact[20] > 2 ** 63


def test_counts_read_only_the_series_prefix(small_battery, base3):
    # counts_from_edge_determinant forms P_E(u) P_E(u^2) only up to u^max_len,
    # past deg P_E as well
    for cx in small_battery + [base3]:
        p_e = zeta_parts(cx).p_e
        full = p_e * p_e.substitute_square()
        for max_len in (1, 7, p_e.degree + 5):
            series = full.log_derivative_series(max_len)
            assert zeta.counts_from_edge_determinant(p_e, max_len) == [-c for c in series[1:]]


def test_walk_oracle_matches_traces(base2, cover_m2):
    # one walk records the closed walks of every length up to 6
    for cx in (base2, cover_m2):
        assert walk_count_oracle(cx, 6) == edge_trace_powers(build_le(cx), 6)


def test_walk_oracle_reaches_length_eight(base3):
    # every step raises the vertex type, so only lengths divisible by 3 close
    traces = edge_trace_powers(build_le(base3), 8)
    assert traces[5] > 0 and traces[6] == traces[7] == 0
    assert walk_count_oracle(base3, 8) == traces


def test_walk_oracle_guard(base2, base3, cover_m2):
    # counting is linear in the length, so long walks need no cap
    for cx in (base3, cover_m2):
        assert walk_count_oracle(cx, 12) == edge_trace_powers(build_le(cx), 12)
    walks = walk_count_oracle(base3, 12)
    assert walks[8] == 1162261467
    assert walks[11] == 847288618191
    assert walk_count_oracle(base2, 1) == edge_trace_powers(build_le(base2), 1)
    with pytest.raises(ValueError):
        walk_count_oracle(base2, 0)
