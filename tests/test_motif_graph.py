"""Carry graph structure, SCC/negative-cycle verification, walk tracing."""

import random

import numpy as np
import pytest
from oracles import (
    best_walks_oracle,
    cycle_cost,
    family_carries_oracle,
    induced,
    min_short_cycle_cost,
    scc_oracle,
    ternary,
    vertex_id,
    weight,
)

from triweil import digits, motif_graph, proof_lab
from triweil.report import passed
from triweil.motif_graph import (
    _check_cost_mirror,
    _distances,
    _reduced_costs,
    _walk_tables,
    CostGraph,
    PAIR_VERTICES,
    bellman_ford,
    build_graph,
    graph_report,
    strong_components,
    trace_cycle,
    vertex_tuple,
    walk_extremes,
)


def test_vertex_encoding_roundtrip():
    for vid in range(729):
        assert vertex_id(vertex_tuple(vid)) == vid
    assert vertex_id((1, 0, 0, 0, 0, 0)) == 3**5  # xi0 most significant


def test_graph_size_and_degrees():
    g = build_graph()
    assert len(g.succ) == len(g.cost) == 729
    assert sum(map(len, g.succ)) == 2187
    degrees = [len(set(s)) for s in g.succ]
    assert degrees == [3] * 729
    assert all(list(s) == sorted(s) for s in g.succ)


def test_successors_shift_the_window_and_append_the_carry():
    # (xi0, xi1, g0, g1, g2, g3) -> (xi1, k, g1, g2, g3, floor((xi0 + 2*xi1 + g0)/3))
    g = build_graph()
    for u in range(729):
        xi0, xi1, g0, g1, g2, g3 = vertex_tuple(u)
        carry = (xi0 + 2 * xi1 + g0) // 3
        assert g.succ[u] == tuple(vertex_id((xi1, k, g1, g2, g3, carry)) for k in range(3))
        assert g.cost[u] == 1 + 2 * (xi1 - g0)


def test_origin_successors():
    g = build_graph()
    succ = set(g.succ[vertex_id((0, 0, 0, 0, 0, 0))])
    assert succ == {vertex_id((0, k, 0, 0, 0, 0)) for k in range(3)}


def test_published_pair_edge_exists():
    g = build_graph()
    u, v = (vertex_id(t) for t in PAIR_VERTICES)
    assert v in g.succ[u] and u in g.succ[v]


def test_edge_costs_range():
    g = build_graph()
    assert set(g.cost) <= {-3, -1, 1, 3, 5}


def test_scc_decomposition():
    g = build_graph()
    components = strong_components(g)
    assert len(components) == 258
    assert sorted(v for m in components for v in m) == list(range(729))
    nontrivial = [m for m in components if len(m) > 1 or m[0] in g.succ[m[0]]]
    assert sorted(map(len, nontrivial), reverse=True) == [471, 2]
    pair = next(m for m in nontrivial if len(m) == 2)
    assert {vertex_tuple(v) for v in pair} == set(PAIR_VERTICES)
    rep = graph_report()
    assert (rep.num_components, rep.nontrivial_sizes) == (258, (471, 2))


def test_no_negative_cycle_in_the_carry_graph():
    # one run over all 729 vertices; its distances satisfy every edge
    g = build_graph()
    dist, cycle = bellman_ford(g)
    assert cycle is None and (dist, cycle) == _distances()
    assert all(dist[v] <= dist[u] + g.cost[u] for u in range(729) for v in g.succ[u])
    assert len(dist) == 729 and max(dist) == 0


def test_pair_cycle_cost_is_two():
    # each of the two edges of the order-2 component costs 1; graph_report
    # sums the costs of its two vertices, the oracle walks the 2-cycle
    g = build_graph()
    pair = [vertex_id(t) for t in PAIR_VERTICES]
    assert graph_report().pair_cycle_cost == cycle_cost(g, pair) == 2


def test_short_cycle_oracle_backs_bellman_ford():
    # every cycle lies in a nontrivial component, so these scans cover the
    # whole graph the verdict is about
    g = build_graph()
    assert _distances()[1] is None
    for members in strong_components(g):
        if len(members) > 1 or members[0] in g.succ[members[0]]:
            best = min_short_cycle_cost(g, members, max_len=8)
            assert best is not None and best >= 0


def test_bellman_ford_finds_synthetic_negative_cycle():
    g = CostGraph(succ=((1,), (0,)), cost=(-1, -1))
    dist, cyc = bellman_ford(g)
    assert dist is None and cyc is not None
    assert cycle_cost(g, cyc) < 0


def test_singleton_component_is_nontrivial_only_with_a_self_loop(monkeypatch):
    # the carry graph's self-loop vertices (0, 364, 728) all sit in the
    # 471-vertex component, so only a synthetic graph reaches this branch
    g = CostGraph(succ=((0,), (0,)), cost=(1, 1))
    assert sorted(strong_components(g)) == [(0,), (1,)]
    monkeypatch.setattr(motif_graph, "build_graph", lambda: g)
    monkeypatch.setattr(motif_graph, "_distances", lambda: bellman_ford(g))
    rep = graph_report()
    assert (rep.num_components, rep.nontrivial_sizes, rep.pair_cycle_cost) == (2, (1,), None)


def test_bellman_ford_reads_only_the_given_vertices():
    # a negative 2-cycle on {0, 1}, a nonnegative one on {2, 3}, and 1 -> 2
    g = CostGraph(succ=((1,), (0, 2), (3,), (2,)), cost=(-1, -1, 0, 1))
    assert bellman_ford(induced(g, [2, 3])) == ([0, 0], None)
    dist, cyc = bellman_ford(g)
    assert dist is None and set(cyc) == {0, 1}
    assert cycle_cost(g, cyc) == -2


def test_bellman_ford_reaches_a_cycle_no_single_source_reaches():
    # vertex 0 reaches only itself, so a search from 0 alone misses {1, 2}
    g = CostGraph(succ=((0,), (2,), (1,)), cost=(1, -1, -1))
    dist, cyc = bellman_ford(g)
    assert dist is None and set(cyc) == {1, 2}
    assert cycle_cost(g, cyc) == -2


def _random_graph(rng: random.Random, size: int) -> CostGraph:
    """size vertices, each with 0-4 distinct successors and a cost in -3..3."""
    succ = [sorted(rng.sample(range(size), rng.randint(0, min(4, size)))) for _ in range(size)]
    return CostGraph(
        succ=tuple(map(tuple, succ)),
        cost=tuple(rng.randint(-3, 3) for _ in range(size)),
    )


def test_strong_components_match_mutual_reachability_on_random_graphs():
    rng = random.Random(18)
    for _ in range(300):
        g = _random_graph(rng, rng.randint(1, 39))
        components, comps = strong_components(g), scc_oracle(g)
        assert all(list(m) == sorted(m) for m in components)
        assert len(components) == len(comps)
        assert set(map(frozenset, components)) == comps


def test_bellman_ford_matches_exhaustive_cycle_scan_on_random_subsets():
    rng = random.Random(18)
    for _ in range(3000):
        g = _random_graph(rng, rng.randint(1, 10))
        verts = rng.sample(range(len(g.succ)), rng.randint(1, min(7, len(g.succ))))
        best = min_short_cycle_cost(g, verts, max_len=len(verts))
        h = induced(g, verts)
        dist, cyc = bellman_ford(h)
        assert (cyc is not None) == (best is not None and best < 0) == (dist is None)
        if cyc is not None:
            assert cycle_cost(h, cyc) < 0
        else:  # dist solves dist(v) = min(0, dist(u) + cost(u) over edges u -> v)
            edges = [(u, v, h.cost[u]) for u, targets in enumerate(h.succ) for v in targets]
            assert len(dist) == len(verts)
            assert all(
                dist[v] == min([0] + [dist[u] + c for u, w, c in edges if w == v])
                for v in range(len(verts))
            )


def test_cycle_cost_raises_on_a_non_edge():
    g = CostGraph(succ=((1,), (0,)), cost=(-1, -1))
    assert cycle_cost(g, [0, 1]) == -2
    with pytest.raises(KeyError):
        cycle_cost(g, [0, 0])
    with pytest.raises(KeyError):
        cycle_cost(build_graph(), [0, 1])


def test_trace_cycle_unit_example():
    out = trace_cycle(5, 1)
    assert len(out.walk) == 5
    assert out.cost == 5 + weight(83, 3, 5) - 1 == 7


def test_trace_cycle_exhaustive_n5():
    costs = [trace_cycle(5, x).cost for x in range(1, 3**5 - 1)]
    assert min(costs) == 1
    assert all(c > 0 and c % 2 == 1 for c in costs)


def test_trace_cycle_exhaustive_n7():
    costs = [trace_cycle(7, x).cost for x in range(1, 3**7 - 1)]
    assert all(c > 0 and c % 2 == 1 for c in costs)


def test_trace_cycle_sampled_n9_n11():
    import random

    rng = random.Random(5)
    for n in (9, 11):
        m = 3**n - 1
        for _ in range(300):
            x = rng.randrange(1, m)
            out = trace_cycle(n, x)
            assert out.cost > 0 and out.cost % 2 == 1


def _oracle_walk(n: int, x: int) -> tuple[tuple[int, ...], int]:
    """The walk of x and its cost, from the closed-form carries of
    2*x_i + x_{i-r} + z_i against the all-2 string (z = -d*x)."""
    fam = digits.family_params(n)
    xd, _, c = family_carries_oracle(n, x)
    X = [xd[(fam.r * j) % n] for j in range(n)]
    C = [c[(fam.r * j) % n] for j in range(n)]
    walk = tuple(
        vertex_id((X[j - 1], X[j], *(C[(j + k) % n] for k in (-4, -3, -2, -1))))
        for j in range(n)
    )
    return walk, n + sum(ternary(fam.d * x, n)) - sum(xd)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_trace_cycle_matches_oracle_carries_exhaustive(n):
    for x in range(1, 3**n - 1):
        out = trace_cycle(n, x)
        assert (out.walk, out.cost) == _oracle_walk(n, x), x


def _extreme_residues(n: int) -> list[int]:
    """1, -1, all-ones, 3^((n-1)/2) and the family witness: the residues
    with the longest carry chains."""
    m = 3**n - 1
    return [1, m - 1, m // 2, 3 ** ((n - 1) // 2), digits.family_witness(n)]


def test_trace_cycle_matches_oracle_carries_n15():
    rng = random.Random(15)
    for x in [rng.randrange(1, 3**15 - 1) for _ in range(200)] + _extreme_residues(15):
        out = trace_cycle(15, x)
        assert (out.n, out.x) == (15, x)
        assert (out.walk, out.cost) == _oracle_walk(15, x), x


def test_trace_cycle_at_n_1001():
    # each lap of the walk is n successor lookups: 1001 steps are milliseconds
    n = 1001
    d, m = digits.family_params(n).d, 3**n - 1
    rng = random.Random(1001)
    for x in [rng.randrange(1, m) for _ in range(3)] + _extreme_residues(n):
        out = trace_cycle(n, x)
        assert len(out.walk) == n and all(0 <= v < 729 for v in out.walk)
        assert out.cost == n + sum(ternary(d * x, n)) - sum(ternary(x, n))


def _trace_on(monkeypatch, g: CostGraph, n: int, x: int):
    monkeypatch.setattr(motif_graph, "build_graph", lambda: g)
    return trace_cycle(n, x)


def test_trace_cycle_catches_a_wrong_cost(monkeypatch):
    n, x = 7, digits.family_witness(7)
    g = build_graph()
    v = trace_cycle(n, x).walk[-1]
    cost = g.cost[:v] + (g.cost[v] + 2,) + g.cost[v + 1 :]  # still odd
    with pytest.raises(AssertionError, match="walk cost"):
        _trace_on(monkeypatch, CostGraph(succ=g.succ, cost=cost), n, x)


def test_trace_cycle_catches_a_wrong_successor_order(monkeypatch):
    n, x = 7, digits.family_witness(7)
    g = build_graph()
    v = trace_cycle(n, x).walk[0]
    succ = g.succ[:v] + (g.succ[v][1:] + g.succ[v][:1],) + g.succ[v + 1 :]
    with pytest.raises(AssertionError, match="walk digits"):
        _trace_on(monkeypatch, CostGraph(succ=succ, cost=g.cost), n, x)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_trace_cycle_catches_a_wrong_carry_rule(monkeypatch, n):
    # g3' = (g0 + 1) mod 3 in place of floor((xi0 + 2*xi1 + g0)/3): no lap closes
    def successors(u):
        base = 243 * (u // 81 % 3) + 3 * (u % 27) + (u // 27 % 3 + 1) % 3
        return (base, base + 81, base + 162)

    g = CostGraph(succ=tuple(map(successors, range(729))), cost=build_graph().cost)
    with pytest.raises(AssertionError, match="within 9 laps"):
        _trace_on(monkeypatch, g, n, digits.family_witness(n))


def test_trace_cycle_rejects_zero_and_even_n():
    with pytest.raises(ValueError):
        trace_cycle(5, 0)
    with pytest.raises(ValueError):
        trace_cycle(6, 1)


def test_graph_report_passes():
    rep = graph_report()
    assert passed(rep.checks), [c.line() for c in rep.checks if not c.ok]
    assert rep.pair_cycle_cost == 2


def test_graph_is_built_once_and_immutable():
    g = build_graph()
    assert build_graph() is g
    assert isinstance(g.succ, tuple) and all(isinstance(s, tuple) for s in g.succ)
    assert isinstance(g.cost, tuple)
    with pytest.raises(AttributeError):
        g.succ = ()
    with pytest.raises(AttributeError):
        g.cost = ()
    assert graph_report() == graph_report()


def test_walk_tables_are_the_graph_tables():
    # the graph's own cost table, and one reduced cost per edge, aligned with succ
    g = build_graph()
    cost, reduced = _walk_tables()
    assert cost is g.cost
    assert [len(row) for row in reduced] == [len(targets) for targets in g.succ] == [3] * 729


def test_walk_tables_are_read_only():
    # cached once per process: a write would reach every later walk search
    cost, reduced = _walk_tables()
    assert isinstance(cost, tuple) and isinstance(reduced, tuple)
    assert all(isinstance(row, tuple) for row in reduced)
    with pytest.raises(TypeError):
        reduced[0][0] = 0


@pytest.mark.parametrize("n", range(3, 22, 2))
def test_best_walks_match_per_vertex_oracle(n):
    # the largest closed-walk cost over the whole graph, and how many walks
    # attain it: one per minimizer, as each nonzero residue is one walk
    B, N = best_walks_oracle(n)
    closed, counts = np.diagonal(B), np.diagonal(N)
    ext = walk_extremes(n)
    assert closed.max() == 3 * n - ext.min_weight_sum == 2 * n - 1
    assert counts[closed == closed.max()].sum() == len(ext.minimizers)
    if n >= 15:
        assert len(ext.minimizers) == {15: 3615, 17: 8585, 19: 20121, 21: 46641}[n]
    if n >= 17:
        # beyond the weight scan (n <= 15): each minimizer's own walk, read
        # off the graph, has the largest cost, and its weight is the digit sum
        pairs = list(zip(ext.minimizers, ext.weights))
        if n > 17:
            pairs = random.Random(n).sample(pairs, 1000)
        for x, w in pairs:
            assert trace_cycle(n, x).cost == 2 * n - 1, x
            assert w == sum(ternary(x, n)), x


def _potential() -> list[int]:
    """phi(v) = -dist(728 - v) from the whole-graph Bellman-Ford distances."""
    dist, _ = bellman_ford(build_graph())
    return [-dist[728 - v] for v in range(729)]


def test_potential_certifies_the_walk_tables():
    # reduced costs <= 0, with 246 edges at -1 and 627 at 0
    g = build_graph()
    cost, reduced = _walk_tables()
    assert reduced == _reduced_costs(g.succ, cost, _potential())
    values = [c for row in reduced for c in row]
    assert max(values) <= 0
    assert (values.count(-1), values.count(0)) == (246, 627)


def test_potential_check_raises_on_even_cost_or_heavy_cycle():
    succ, cost = build_graph().succ, list(_walk_tables()[0])
    phi = _potential()
    loop = next(v for v in range(len(cost)) if v in succ[v])  # a self-loop of cost 1
    assert cost[loop] == 1
    even = cost.copy()
    even[loop] += 1
    with pytest.raises(AssertionError, match="even vertex cost"):
        _reduced_costs(succ, even, phi)
    heavy = cost.copy()
    heavy[loop] += 2  # the loop now costs 3 per step, still odd
    with pytest.raises(AssertionError, match="reduced cost > 0"):
        _reduced_costs(succ, heavy, phi)


def test_negative_loop_fails_the_verdict_and_the_potential(monkeypatch):
    # vertex 0's loop at -1 and its mirror 728's at 3: the mirror and the
    # parity hold, so one defect breaks both bounds of the walk cost
    g = build_graph()
    cost = list(g.cost)
    cost[0], cost[728] = -1, 3
    bad = g._replace(cost=tuple(cost))
    _check_cost_mirror(bad)
    dist, cycle = bellman_ford(bad)
    assert dist is None and 0 in cycle and cycle_cost(bad, cycle) < 0
    with pytest.raises(AssertionError, match="reduced cost > 0"):
        _reduced_costs(g.succ, cost, _potential())
    # the same defect through the cached tables of one process
    monkeypatch.setattr(motif_graph, "build_graph", lambda: bad)
    monkeypatch.setattr(motif_graph, "_distances", lambda: (dist, cycle))
    rep = graph_report()
    assert not passed(rep.checks) and rep.negative_cycle == tuple(cycle)
    with pytest.raises(AssertionError, match="negative cycle"):
        _walk_tables.__wrapped__()


def test_walk_cost_is_read_off_the_tables(monkeypatch):
    # raise one vertex cost on the witness walk by 2 (it stays odd): the
    # walks found no longer agree on the largest cost
    n = 7
    cost, reduced = _walk_tables()
    heavy = list(cost)
    heavy[trace_cycle(n, digits.family_witness(n)).walk[0]] += 2
    monkeypatch.setattr(motif_graph, "_walk_tables", lambda: (tuple(heavy), reduced))
    with pytest.raises(AssertionError, match="the walks found cost"):
        walk_extremes.__wrapped__(n)


def test_reduced_costs_sum_along_traced_walks():
    # a closed walk of n steps costs 2n plus its reduced costs
    succ, reduced = build_graph().succ, _walk_tables()[1]
    rng = random.Random(15)
    for _ in range(200):
        out = trace_cycle(15, rng.randrange(1, 3**15 - 1))
        walk = list(out.walk)
        total = sum(
            reduced[u][succ[u].index(v)] for u, v in zip(walk, walk[1:] + walk[:1])
        )
        assert total == out.cost - 2 * 15, out.x


def test_carry_graph_is_its_own_cost_mirror():
    # tau(v) = 728 - v maps edges to edges and cost to 2 - cost
    g = build_graph()
    _check_cost_mirror(g)
    u = vertex_id((1, 0, 2, 1, 0, 2))
    cost = list(g.cost)
    cost[u] += 1
    with pytest.raises(AssertionError, match="no cost mirror"):
        _check_cost_mirror(g._replace(cost=tuple(cost)))
    succ = list(g.succ)
    succ[u] = (succ[u][0], succ[u][1], (succ[u][2] + 1) % 729)
    with pytest.raises(AssertionError, match="no cost mirror"):
        _check_cost_mirror(g._replace(succ=tuple(succ)))


def test_closed_walks_number_3_to_the_n():
    # trace(A^n) = 3^n: one walk per nonzero residue plus two for zero.  Float
    # products are exact here: every entry of A^k is at most 3^k < 2^53.
    g = build_graph()
    A = np.zeros((729, 729))
    for u, targets in enumerate(g.succ):
        for v in targets:
            A[u, v] += 1
    power = A
    for n in range(2, 12):
        power = power @ A
        if n % 2:
            assert int(np.trace(power)) == 3**n, n


def test_zero_residue_walks_cost_n():
    # X all 0 with carries 0, and X all 2 with carries 2: self-loops of cost 1,
    # so each closed walk of n loops costs n
    g = build_graph()
    loops = {u for u, targets in enumerate(g.succ) if u in targets}
    for digit in (0, 2):
        v = vertex_id((digit,) * 6)
        assert v in loops and g.cost[v] == 1
    for n in range(3, 16, 2):
        ext = walk_extremes(n)
        # neither zero walk is extreme: least cost < n < largest cost
        assert n + ext.min_diff < n < 3 * n - ext.min_weight_sum


def test_walks_of_nonzero_residues_are_distinct_n5():
    # with the two zero walks they exhaust the 3^5 closed walks of length 5
    walks = {trace_cycle(5, x).walk for x in range(1, 3**5 - 1)}
    zero_walks = {(vertex_id((d,) * 6),) * 5 for d in (0, 2)}
    assert len(walks) == 3**5 - 2 and not walks & zero_walks


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15])
def test_walk_extremes_match_weight_scan(n):
    fam = digits.family_params(n)
    w, min_sum, mins, min_diff = digits.weight_sums(3, n, fam.d, ceiling=3**15)
    ext = walk_extremes(n)
    assert ext.min_weight_sum == min_sum == n + 1
    assert ext.min_diff == min_diff
    assert list(ext.minimizers) == mins.tolist()  # ascending, every one
    assert list(ext.weights) == w[mins].tolist()

    k = int(w[mins].min())
    doubly = mins[w[mins] == k].tolist()
    div = digits.verify_divisibility(n, ceiling=3**15)
    assert passed(div.checks) and div.num_minimizers == mins.size
    assert list(div.minimizers) == mins[: digits.MAX_WITNESSES].tolist()
    rep = proof_lab.check_minimizer_structure(n, ceiling=3**15)
    assert passed(rep.checks) and (rep.k, rep.num_doubly_minimal) == (k, len(doubly))
    assert [x for x, wx in zip(ext.minimizers, ext.weights) if wx == k] == doubly
    if n == 15:
        assert (mins.size, len(doubly)) == (3615, 15)


def test_walk_extremes_rejects_even_n():
    with pytest.raises(ValueError, match="odd n"):
        walk_extremes(6)
