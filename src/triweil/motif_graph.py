"""The 729-vertex digit/carry cost graph and its verification.

Vertices are sextuples (xi0, xi1, g0, g1, g2, g3) in {0,1,2}^6, packed
into ids 0..728 base 3 with xi0 most significant.  There is an edge to
(xi0', xi1', g0', g1', g2', g3') iff xi0' = xi1, the g-window shifts,
and g3' = floor((xi0 + 2*xi1 + g0)/3); xi1' is free, so every vertex has
out-degree 3 and the graph has 2187 edges.  Every edge out of a vertex
costs the same, so the graph is held as a successor table, succ (vertex
-> its three successors, ascending), and one cost per vertex, cost (the
cost of every edge leaving it); build_graph writes the cost rule, and
every reader reads these two tables.

Walks and residues.  Fix odd n, r = 4^-1 mod n and d = 3^r + 2, and
write X_j = x_{r*j} for the digits of a residue x mod 3^n - 1.  Then
d*x = sum_j (2*X_j + X_{j-1}) * 3^(r*j), and the carry out of position
r*j lands at r*j + 1 = r*(j + 4), so the digits Y_j = (d*x)_{r*j} obey
Y_j + 3*C_j = 2*X_j + X_{j-1} + C_{j-4}, the carries C being unique by
the carry lemma (digits).  A closed walk of length n, with vertices
T_j = (X_{j-1}, X_j, C_{j-4}, C_{j-3}, C_{j-2}, C_{j-1}), gives X_j = xi1
of T_j and carries C_j = floor((X_{j-1} + 2*X_j + C_{j-4})/3), hence
digits Y_j of d*x for x = sum_j X_j * 3^(r*j), and costs n + w(d*x) - w(x).
Two digit strings in {0,1,2}^n name the same residue only for zero (all
0s and all 2s), and the two strings X of zero force carries 0 and 2, so
each of the 3^n strings X has at most one walk, and, as there are 3^n
closed walks of length n (the trace of A^n for the adjacency matrix A),
exactly one: each nonzero residue has one walk, and zero two of cost n.
trace_cycle, the one code that turns a residue into its walk, reads it
off succ, where successor k of a vertex has xi1' = k: from T_0 with all
carries 0 it follows X lap after lap until a lap ends where it began.
The carry rule is monotone in g0, so the map from one lap's carry window
(C_{-4}, .., C_{-1}) in {0,1,2}^4 to the next lap's is monotone: from 0s
the window only rises, at most 8 times, to the least closed walk with
these X, for x != 0 its only one.  trace_cycle checks the digits Y_j of
its steps against d*x, and its cost.  The rest read the walk: as -d*x
has digits Z_j = 2 - Y_j, the motif balance of proof_lab.motif_word,
2 + 3*C_j = 2*X_j + X_{j-1} + Z_j + C_{j-4}, is the recurrence above,
with X_{j-1}, X_j and C_{j-4} read off T_j and C_j off T_{j+1}.

The extremes follow.  x = -1 has weight 2n - 1 and d*x = -d has weight
2n - 3, so some walk costs n - 2; the family witness (digits) costs
2n - 1.  Neither zero walk is therefore extreme, and the least and
largest walk costs are n + min w(d*x) - w(x) and, since w(-y) = 2n - w(y)
for nonzero y, 3n - min (w(x) + w(-d*x)), both over nonzero x.  The
graph is its own cost mirror: tau(v) = 728 - v complements every digit,
which turns xi0 + 2*xi1 + g0 into 8 minus itself and so the carry g3'
into 2 - g3'; it maps edges to edges, and cost(tau u) = 2 - cost(u).  It
sends each closed walk of length n and cost c to one of cost 2n - c (the
walk of x to that of -x), so the least walk cost is 2n minus the largest.
walk_extremes finds the largest from the potential phi(v) = -dist(tau v)
of the graph's Bellman-Ford distances (below): as tau maps each edge
u -> v to the edge tau u -> tau v of cost 2 - cost(u), dist(tau v) is at
most dist(tau u) + 2 - cost(u), so every reduced cost
phi(u) + cost(u) - 2 - phi(v) is at most 0.  _walk_tables checks that,
and that every vertex cost is odd, in one pass over the edges.  A closed
walk of n steps then costs 2n plus its reduced costs, at most 2n, and
n mod 2, so at odd n at most 2n - 1, exactly when one of its edges has
reduced cost -1 and the rest 0: these edges form the critical graph of
the potential, the certificate of Karp's characterization of the cycle
mean.  The family witness costs 2n - 1, so a path search along the
0-edges finds every maximal walk and with them the weight-sum
minimizers.  It meets in the middle: 0-edge paths of about n/2 steps
forward from the head of each -1 edge meet paths of the other steps
backward from its tail, on (tail, meeting vertex), and the paths carry
the sums a walk's residue, cost and weight are made of, not their
vertices.  Only one rotation of each walk is searched, the one that
starts at the head of its -1 edge: rotating a walk by s steps rotates
its digits X_j, so it multiplies its residue by 3^(-r*s) mod 3^n - 1.
No table of 3^n entries is built; the exhaustive digit-weight scan
(digits.weight_sums) is the tests' oracle, and tests/oracles.py keeps a
(max, count) walk DP as the oracle of the largest cost and of the number
of walks attaining it.

Any ternary carry walk of the divisibility argument traces a closed walk
here whose total cost is n + w(d*x) - w(x); the absence of a negative
cycle therefore proves the weight inequality.  Bellman-Ford certifies
that there is none, starting every vertex at distance 0 so that no cycle
is out of its reach.  It runs once per process on the whole graph, and
that one run gives both graph_report's verdict and, through the mirror,
the potential of walk_extremes.  Kosaraju's two searches, forward over
succ and back over the predecessor lists, split the graph into the
strongly connected components graph_report counts.  The graph is built
once per process and shared by graph_report, walk_extremes and
trace_cycle.  The oracle for the verdict is min_short_cycle_cost in
tests/oracles.py, a bounded exhaustive scan of simple cycles; only the
tests run it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from . import digits
from .ff import code_digits
from .report import Check

NUM_VERTICES = 3**6


def vertex_tuple(vid: int) -> tuple[int, ...]:
    return code_digits(vid, 3, 6)[::-1]  # big-endian: xi0 is the top digit


class CostGraph(NamedTuple):
    succ: tuple[tuple[int, ...], ...]  # vertex -> its successors, ascending
    cost: tuple[int, ...]  # vertex -> the cost of every edge leaving it


@functools.cache
def build_graph() -> CostGraph:
    """The full carry-propagation graph.

    Built once per process; the graph and its tables are immutable.  The
    successors of u = 243*xi0 + 81*xi1 + 27*g0 + (9*g1 + 3*g2 + g3) are
    243*xi1 + 81*k + 3*(9*g1 + 3*g2 + g3) + g3' for k = 0, 1, 2.
    """
    succ = []
    cost = []
    for u in range(NUM_VERTICES):
        xi0, xi1, g0, window = u // 243, u // 81 % 3, u // 27 % 3, u % 27
        base = 243 * xi1 + 3 * window + (xi0 + 2 * xi1 + g0) // 3
        succ.append((base, base + 81, base + 162))
        cost.append(1 + 2 * (xi1 - g0))
    return CostGraph(succ=tuple(succ), cost=tuple(cost))


def strong_components(g: CostGraph) -> list[tuple[int, ...]]:
    """The strongly connected components of g, each a sorted tuple.

    Kosaraju's two passes: a DFS over succ records the finish order, then
    a search over the predecessor lists, latest-finished vertex first,
    collects each component.
    """
    succ = g.succ
    order: list[int] = []
    seen = [False] * len(succ)
    for root in range(len(succ)):
        if seen[root]:
            continue
        seen[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if not seen[w]:
                    seen[w] = True
                    work.append((w, iter(succ[w])))
                    break
            else:  # every successor of v is done: v finishes
                work.pop()
                order.append(v)
    pred: list[list[int]] = [[] for _ in succ]
    for u, targets in enumerate(succ):
        for v in targets:
            pred[v].append(u)
    components = []
    for root in reversed(order):
        if not seen[root]:
            continue
        seen[root] = False
        members, todo = [root], [root]
        while todo:
            for w in pred[todo.pop()]:
                if seen[w]:
                    seen[w] = False
                    members.append(w)
                    todo.append(w)
        components.append(tuple(sorted(members)))
    return components


def bellman_ford(g: CostGraph) -> tuple[list[int] | None, list[int] | None]:
    """Bellman-Ford on the whole of g.

    Every vertex starts at distance 0, as if a source were joined to all
    of them, so every negative cycle is in reach.  A round of relaxation
    that changes nothing proves there is none and returns (dist, None),
    dist[v] being the least cost of a walk that ends at v (0 for the empty
    walk).  If round |V| still relaxes, |V| predecessor steps back from
    the last vertex it relaxed land on a negative cycle, returned as
    (None, cycle) with cycle a vertex list.
    """
    edges = [(u, v, g.cost[u]) for u, targets in enumerate(g.succ) for v in targets]
    dist = [0] * len(g.succ)
    pred: dict[int, int] = {}
    for _ in g.succ:
        x = None  # the last vertex relaxed in this round
        for u, v, c in edges:
            if dist[u] + c < dist[v]:
                dist[v], pred[v], x = dist[u] + c, u, v
        if x is None:
            return dist, None
    for _ in g.succ:
        x = pred[x]
    cycle = [x]
    while pred[cycle[-1]] != x:
        cycle.append(pred[cycle[-1]])
    return None, cycle[::-1]


@functools.cache
def _distances() -> tuple[list[int] | None, list[int] | None]:
    """bellman_ford over the whole carry graph, run once per process: its
    cycle is graph_report's verdict, its distances the walk potential."""
    return bellman_ford(build_graph())


class TraceResult(NamedTuple):
    n: int
    x: int
    walk: tuple[int, ...]  # n vertex ids, T_0 .. T_{n-1}
    cost: int


def trace_cycle(n: int, x: int) -> TraceResult:
    """Trace the carry walk of one nonzero residue through the graph.

    The one derivation of a residue's walk: read off succ lap by lap from
    all carries 0 (the module docstring says why lap 9 at the latest
    closes).  Raises AssertionError if none does, if the digits
    xi0 + 2*xi1 + g0 - 3*g3' of its steps are not those of d*x, or if it
    does not cost n + w(d*x) - w(x).
    """
    return _trace(n, x)


def _trace(n: int, x: int) -> TraceResult:
    # The body of trace_cycle.  proof_lab.motif_word calls it directly, so
    # trace_cycle is entered only for the walks a caller asks to trace:
    # perfbench times it and counts its calls as the seeded spot walks.
    _, r, d, m = digits.family_params(n)
    x %= m
    if x == 0:
        raise ValueError("x must be a nonzero residue")
    xd = digits.canonical_digits(x, 3, n)
    X = [xd[(r * j) % n] for j in range(n)]
    succ, cost = build_graph()
    v = 243 * X[-1] + 81 * X[0]  # T_0 with every carry 0
    for _ in range(9):  # the carry window rises at most 8 times
        walk = [v]
        for k in X[1:]:
            walk.append(succ[walk[-1]][k])
        v = succ[walk[-1]][X[0]]
        if v == walk[0]:
            break
    else:
        raise AssertionError(f"the walk of x = {x} does not close within 9 laps")
    yd = digits.canonical_digits(d * x, 3, n)
    Y = [u // 243 + 2 * (u // 81 % 3) + u // 27 % 3 - 3 * (nxt % 3)
         for u, nxt in zip(walk, walk[1:] + walk[:1])]
    if Y != [yd[(r * j) % n] for j in range(n)]:
        raise AssertionError(f"walk digits {Y} are not those of d*x for x = {x}")
    total = sum(cost[u] for u in walk)
    expected = n + sum(yd) - sum(xd)
    if total != expected:
        raise AssertionError(f"walk cost {total} != n + w(dx) - w(x) = {expected} for x = {x}")
    return TraceResult(n=n, x=x, walk=tuple(walk), cost=total)


class WalkExtremes(NamedTuple):
    """The family's weight extremes over nonzero x, read off the closed
    walks of length n, and the residues of the largest-cost walks."""

    min_diff: int  # min w(d*x) - w(x): the least walk cost (2n minus the largest) minus n
    min_weight_sum: int  # min w(x) + w(-d*x): 3n minus the largest walk cost
    minimizers: tuple[int, ...]  # every x attaining min_weight_sum, ascending
    weights: tuple[int, ...]  # w(x) of each minimizer


def _check_cost_mirror(g: CostGraph) -> None:
    """Raise AssertionError unless tau(v) = 728 - v maps the edges out of
    each u onto those out of tau(u), with cost(tau u) = 2 - cost(u)."""
    top = len(g.succ) - 1
    for u, targets in enumerate(g.succ):
        mirror = (tuple(top - v for v in reversed(targets)), 2 - g.cost[u])
        if (g.succ[top - u], g.cost[top - u]) != mirror:
            raise AssertionError(f"tau = {top} - v is no cost mirror at vertex {u}")


@functools.cache
def _walk_tables() -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The graph's own cost table, and the reduced cost of each edge under
    the potential phi(v) = -dist(tau v) of the graph's Bellman-Ford
    distances (_reduced_costs; the module docstring says why it is one),
    aligned with succ: reduced[u][k] is that of u -> succ[u][k].  Checks
    the cost mirror first.  Both are tuples, shared by every caller."""
    g = build_graph()
    _check_cost_mirror(g)
    dist, cycle = _distances()
    if cycle is not None:
        raise AssertionError(f"no potential: negative cycle {cycle}")
    top = len(g.succ) - 1
    phi = [-dist[top - v] for v in range(len(g.succ))]  # tau(v) = 728 - v
    return g.cost, _reduced_costs(g.succ, g.cost, phi)


def _reduced_costs(succ, cost, phi) -> tuple[tuple[int, ...], ...]:
    """reduced[u][k] = phi(u) + cost(u) - 2 - phi(succ[u][k]); AssertionError
    unless every cost is odd and every reduced cost is <= 0.  One pass
    over the edges, which does not depend on how phi was found."""
    even = [u for u, c in enumerate(cost) if c % 2 == 0]
    if even:
        raise AssertionError(f"even vertex cost at vertices {even}")
    reduced = tuple(
        tuple(phi[u] + cost[u] - 2 - phi[v] for v in targets) for u, targets in enumerate(succ)
    )
    bad = [u for u, row in enumerate(reduced) if max(row) > 0]
    if bad:
        raise AssertionError(f"no potential: reduced cost > 0 out of vertices {bad}")
    return reduced


@functools.cache
def walk_extremes(n: int) -> WalkExtremes:
    """Both weight extremes of the family at odd n and the weight-sum
    minimizers, from the critical graph of the potential of _walk_tables
    (the module docstring says why the cost extremes are those over
    nonzero x, why the least is 2n minus the largest, and why the largest
    is 2n - 1, on the walks with one edge of reduced cost -1 and the rest
    0).  That largest cost is read off the walks found, as the sum of
    their vertex costs, and every walk must agree.

    Each such walk, written T_0 .. T_{n-1} from the head T_0 of its -1
    edge to its tail T_{n-1}, is found once, by meeting in the middle at
    T_a, a = (n - 1)//2: the 0-edge paths of a steps forward from each
    head, and of n - 1 - a steps backward over the 0-edge predecessors
    from each tail, are joined on (tail, T_a).  A path carries, instead
    of its vertices, the sums over the T_j it has left of X_j * 3^(r*j)
    (X_j = xi1 of T_j), of the vertex costs and of the X_j; the join adds
    T_a.  So each walk decodes once, into x = sum X_j * 3^(r*j) mod 3^n - 1,
    its cost and w(x).  A walk with one -1 edge has no shorter period, so
    its n rotations are distinct walks, and the rotation that starts at
    T_s has the digits X_{j+s}: its residue is x * 3^(-r*s), the digits
    of x shifted cyclically, of the same weight.  Computed once per n in
    a process.
    """
    fam = digits.family_params(n)
    succ = build_graph().succ
    cost, reduced = _walk_tables()
    zero_succ = [[v for v, c in zip(succ[u], reduced[u]) if c == 0] for u in range(len(succ))]
    zero_pred: list[list[int]] = [[] for _ in succ]
    for u, targets in enumerate(zero_succ):
        for v in targets:
            zero_pred[v].append(u)
    critical = [(u, v) for u in range(len(succ)) for v, c in zip(succ[u], reduced[u]) if c == -1]
    place = [3 ** (fam.r * j % n) for j in range(n)]
    X = [v // 81 % 3 for v in range(len(succ))]  # xi1 of each vertex

    def grow(paths, positions, neighbours):
        # paths: (tail, end vertex, sums); each step leaves the end vertex,
        # which is T_j, for each of its neighbours
        for j in positions:
            paths = [
                (tail, u, x + X[v] * place[j], c + cost[v], w + X[v])
                for tail, v, x, c, w in paths
                for u in neighbours[v]
            ]
        return paths

    a = (n - 1) // 2
    ahead = grow([(u, v, 0, 0, 0) for u, v in critical], range(a), zero_succ)
    tails = dict.fromkeys(u for u, _ in critical)  # each tail once
    behind = grow([(u, u, 0, 0, 0) for u in tails], range(n - 1, a, -1), zero_pred)
    meet: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for tail, v, x, c, w in behind:  # the join adds T_a = v
        meet.setdefault((tail, v), []).append((x + X[v] * place[a], c + cost[v], w + X[v]))
    walks = [
        (fx + bx, fc + bc, fw + bw)
        for tail, v, fx, fc, fw in ahead
        for bx, bc, bw in meet.get((tail, v), ())
    ]
    if not walks:  # unreachable: the family witness costs 2n - 1
        raise AssertionError(f"no closed walk costs 2n - 1 at n = {n}")
    costs = sorted({c for _, c, _ in walks})
    if len(costs) > 1:
        raise AssertionError(f"the walks found cost {costs} at n = {n}")
    max_cost = costs[0]

    turns = [pow(3, -fam.r * s, fam.m) for s in range(n)]
    weight_of = {}  # the residue of each rotation -> its weight, that of its walk
    for x, _, w in walks:
        weight_of.update(dict.fromkeys([x * t % fam.m for t in turns], w))
    minimizers = tuple(sorted(weight_of))
    return WalkExtremes(
        min_diff=n - max_cost,  # the least walk cost 2n - max_cost, minus n
        min_weight_sum=3 * n - max_cost,  # w(-y) = 2n - w(y)
        minimizers=minimizers,
        weights=tuple(map(weight_of.__getitem__, minimizers)),
    )


class GraphReport(NamedTuple):
    num_vertices: int
    num_edges: int
    num_components: int
    nontrivial_sizes: tuple[int, ...]
    pair_component: tuple[tuple[int, ...], ...]  # tuples of the order-2 members
    pair_cycle_cost: int | None
    negative_cycle: tuple[int, ...] | None
    checks: list[Check]


PAIR_VERTICES = ((0, 2, 2, 0, 2, 0), (2, 0, 0, 2, 0, 2))


def graph_report() -> GraphReport:
    """Reproduce all published graph statistics and the Bellman-Ford
    no-negative-cycle verdict; the tests back it with the bounded
    exhaustive cycle scan."""
    g = build_graph()
    components = strong_components(g)
    nontrivial = [m for m in components if len(m) > 1 or m[0] in g.succ[m[0]]]
    sizes = tuple(sorted((len(m) for m in nontrivial), reverse=True))

    # a 2-vertex component holds both edges of the 2-cycle through it
    pair = next((m for m in nontrivial if len(m) == 2), None)
    pair_tuples = tuple(vertex_tuple(v) for v in pair) if pair else ()
    pair_cost = sum(g.cost[v] for v in pair) if pair else None

    cycle = _distances()[1]
    neg = tuple(cycle) if cycle else None

    num_vertices, num_edges = len(g.succ), sum(map(len, g.succ))
    checks = [
        Check("graph.vertices", 729, num_vertices),
        Check("graph.edges", 2187, num_edges),
        Check("graph.scc-count", 258, len(components)),
        Check("graph.nontrivial-sizes", (471, 2), sizes),
        Check("graph.pair-members", tuple(sorted(PAIR_VERTICES)), tuple(sorted(pair_tuples))),
        Check("graph.negative-cycle", None, neg),
    ]
    return GraphReport(
        num_vertices=num_vertices,
        num_edges=num_edges,
        num_components=len(components),
        nontrivial_sizes=sizes,
        pair_component=pair_tuples,
        pair_cycle_cost=pair_cost,
        negative_cycle=neg,
        checks=checks,
    )
