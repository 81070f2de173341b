"""Carry graph structure, SCC/negative-cycle verification, walk tracing."""

import dataclasses
import random

import numpy as np
import pytest
from oracles import family_carries_oracle, min_short_cycle_cost, ternary

from triweil import digits, proof_lab
from triweil.motif_graph import (
    _walk_tables,
    CostGraph,
    PAIR_VERTICES,
    build_graph,
    cycle_cost,
    edge_cost,
    find_negative_cycle,
    graph_report,
    tarjan_scc,
    trace_cycle,
    vertex_id,
    vertex_tuple,
    walk_extremes,
)


def test_vertex_encoding_roundtrip():
    for vid in range(729):
        assert vertex_id(vertex_tuple(vid)) == vid
    assert vertex_id((1, 0, 0, 0, 0, 0)) == 3**5  # xi0 most significant


def test_graph_size_and_degrees():
    g = build_graph()
    assert g.num_vertices == 729
    assert len(g.edges) == 2187
    degrees = [len(s) for s in g.successors()]
    assert degrees == [3] * 729


def test_origin_successors():
    g = build_graph()
    succ = {v for u, v, _ in g.edges if u == vertex_id((0, 0, 0, 0, 0, 0))}
    assert succ == {vertex_id((0, k, 0, 0, 0, 0)) for k in range(3)}


def test_published_pair_edge_exists():
    g = build_graph()
    u, v = (vertex_id(t) for t in PAIR_VERTICES)
    pairs = {(a, b) for a, b, _ in g.edges}
    assert (u, v) in pairs and (v, u) in pairs


def test_edge_costs_range():
    g = build_graph()
    assert {c for _, _, c in g.edges} <= {-3, -1, 1, 3, 5}


def test_scc_decomposition():
    g = build_graph()
    scc = tarjan_scc(g)
    assert scc.num_components == 258
    assert sum(scc.sizes) == 729
    sizes = sorted((len(m) for m in scc.nontrivial), reverse=True)
    assert sizes == [471, 2]
    pair = next(m for m in scc.nontrivial if len(m) == 2)
    assert {vertex_tuple(v) for v in pair} == set(PAIR_VERTICES)


def test_no_negative_cycle_in_any_component():
    g = build_graph()
    scc = tarjan_scc(g)
    for members in scc.nontrivial:
        assert find_negative_cycle(g, members) is None


def test_pair_cycle_cost_is_two():
    # each of the two edges of the order-2 component costs 1
    g = build_graph()
    pair = [vertex_id(t) for t in PAIR_VERTICES]
    assert cycle_cost(g, pair) == 2


def test_short_cycle_oracle_backs_bellman_ford():
    g = build_graph()
    scc = tarjan_scc(g)
    for members in scc.nontrivial:
        best = min_short_cycle_cost(g, members, max_len=8)
        assert best is not None and best >= 0


def test_bellman_ford_finds_synthetic_negative_cycle():
    g = CostGraph(num_vertices=2, edges=((0, 1, -1), (1, 0, -1)))
    cyc = find_negative_cycle(g, [0, 1])
    assert cyc is not None
    assert cycle_cost(g, cyc) < 0


def test_trace_cycle_unit_example():
    out = trace_cycle(5, 1)
    assert len(out.walk) == 5
    assert out.cost == 5 + digits.weight(83, 3, 5) - 1 == 7


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


@pytest.mark.parametrize("n", [5, 7])
def test_trace_cycle_matches_oracle_carries_exhaustive(n):
    for x in range(1, 3**n - 1):
        out = trace_cycle(n, x)
        assert (out.walk, out.cost) == _oracle_walk(n, x), x


def test_trace_cycle_matches_oracle_carries_n15():
    rng = random.Random(15)
    for _ in range(200):
        x = rng.randrange(1, 3**15 - 1)
        out = trace_cycle(15, x)
        assert (out.n, out.x) == (15, x)
        assert (out.walk, out.cost) == _oracle_walk(15, x), x


def test_trace_cycle_at_n_1001():
    # the carries come in one pass: a walk of 1001 steps is milliseconds
    n = 1001
    d, m = digits.family_params(n).d, 3**n - 1
    rng = random.Random(1001)
    for _ in range(3):
        x = rng.randrange(1, m)
        out = trace_cycle(n, x)
        assert len(out.walk) == n and all(0 <= v < 729 for v in out.walk)
        assert out.cost == n + sum(ternary(d * x, n)) - sum(ternary(x, n))


def test_trace_cycle_rejects_zero_and_even_n():
    with pytest.raises(ValueError):
        trace_cycle(5, 0)
    with pytest.raises(ValueError):
        trace_cycle(6, 1)


def test_graph_report_passes():
    rep = graph_report()
    assert rep.passed, [c.line() for c in rep.checks if not c.ok]
    assert rep.pair_cycle_cost == 2


def test_graph_is_built_once_and_immutable():
    g = build_graph()
    assert build_graph() is g
    assert isinstance(g.edges, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.edges = ()
    assert graph_report() == graph_report()


def test_walk_tables_agree_with_graph_report():
    # the DP's vertices are those of the two nontrivial components, and their
    # in-component predecessors split into the same two components
    rep = graph_report()
    pred, cost, xi1 = _walk_tables()
    V = len(pred)
    assert V == sum(rep.nontrivial_sizes) == 473
    assert len(cost) == V + 1 and cost[V] == 0 and len(xi1) == V
    comp = list(range(V + 1))  # union-find over the predecessor pairs

    def root(i):
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    for v in range(V):
        for u in pred[v]:
            if u != V:
                comp[root(u)] = root(v)
    groups: dict[int, list[int]] = {}
    for v in range(V):
        groups.setdefault(root(v), []).append(v)
    sizes = tuple(sorted(map(len, groups.values()), reverse=True))
    assert sizes == rep.nontrivial_sizes == (471, 2)
    pair = next(g for g in groups.values() if len(g) == 2)
    assert int(cost[pair].sum()) == rep.pair_cycle_cost
    assert sorted(xi1[pair].tolist()) == sorted(t[1] for t in rep.pair_component)


def test_closed_walks_number_3_to_the_n():
    # trace(A^n) = 3^n: one walk per nonzero residue plus two for zero.  Float
    # products are exact here: every entry of A^k is at most 3^k < 2^53.
    g = build_graph()
    A = np.zeros((729, 729))
    for u, v, _ in g.edges:
        A[u, v] += 1
    power = A
    for n in range(2, 12):
        power = power @ A
        if n % 2:
            assert int(np.trace(power)) == 3**n, n


def test_zero_residue_walks_cost_n():
    # X all 0 with carries 0, and X all 2 with carries 2: self-loops of cost 1,
    # so each closed walk of n loops costs n
    loops = {u for u, v, _ in build_graph().edges if u == v}
    for digit in (0, 2):
        v = vertex_id((digit,) * 6)
        assert v in loops and edge_cost(v) == 1
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
    assert div.passed and div.num_minimizers == mins.size
    assert list(div.minimizers) == mins[: digits.MAX_WITNESSES].tolist()
    rep = proof_lab.check_minimizer_structure(n, ceiling=3**15)
    assert rep.passed and (rep.k, rep.num_doubly_minimal) == (k, len(doubly))
    assert [x for x, wx in zip(ext.minimizers, ext.weights) if wx == k] == doubly
    if n == 15:
        assert (mins.size, len(doubly)) == (3615, 15)


def test_walk_extremes_rejects_even_n():
    with pytest.raises(ValueError, match="odd n"):
        walk_extremes(6)
