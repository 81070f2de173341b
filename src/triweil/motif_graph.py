"""The 729-vertex digit/carry cost graph and its verification.

Vertices are sextuples (xi0, xi1, g0, g1, g2, g3) in {0,1,2}^6, packed
into ids 0..728 base 3 with xi0 most significant.  There is an edge to
(xi0', xi1', g0', g1', g2', g3') iff xi0' = xi1, the g-window shifts,
and g3' = floor((xi0 + 2*xi1 + g0)/3); xi1' is free, so every vertex has
out-degree 3 and the graph has 2187 edges.  Edge cost is
1 + 2*(xi1 - g0).

Walks and residues.  Fix odd n, r = 4^-1 mod n and d = 3^r + 2, and
write X_j = x_{r*j} for the digits of a residue x mod 3^n - 1.  Then
d*x = sum_j (2*X_j + X_{j-1}) * 3^(r*j), and the carry out of position
r*j lands at r*j + 1 = r*(j + 4), so the digits Y_j = (d*x)_{r*j} obey
Y_j + 3*C_j = 2*X_j + X_{j-1} + C_{j-4}.  The carries C are unique by the
carry lemma (digits) and lie in {0,1,2} (trace_cycle asserts both), so
the vertices T_j = (X_{j-1}, X_j, C_{j-4}, C_{j-3}, C_{j-2}, C_{j-1})
form a closed walk of length n whose cost is n + w(d*x) - w(x).
Conversely a closed walk of length n gives X_j = xi1 of T_j and carries
C_j = floor((X_{j-1} + 2*X_j + C_{j-4})/3), hence digits Y_j of d*x for
x = sum_j X_j * 3^(r*j).  Two digit strings in {0,1,2}^n name the same
residue only for zero (all 0s and all 2s), so each nonzero residue has
exactly one walk and the zero residue has two: X all 0 with carries 0,
and X all 2 with carries 2, each of cost n.  There are 3^n closed walks
of length n in all, the trace of A^n for the adjacency matrix A.
trace_cycle is the one code that turns a residue into its walk, and the
rest read the walk: as -d*x has digits Z_j = 2 - Y_j, the motif balance
2 + 3*C_j = 2*X_j + X_{j-1} + Z_j + C_{j-4} of proof_lab.motif_word is
the recurrence above, with X_{j-1}, X_j and C_{j-4} read off T_j and C_j
off T_{j+1}.

The extremes follow.  x = -1 has weight 2n - 1 and d*x = -d has weight
2n - 3, so some walk costs n - 2; the family witness (digits) costs
2n - 1.  Neither zero walk is therefore extreme, and the least and
largest walk costs are n + min w(d*x) - w(x) and, since w(-y) = 2n - w(y)
for nonzero y, 3n - min (w(x) + w(-d*x)), both over nonzero x.
walk_extremes finds both by a max-plus dynamic program over walks of n
steps that stay in the two nontrivial components (a closed walk never
leaves its component), then backtracks the maximum-cost walks into the
weight-sum minimizers.  No table of 3^n entries is built; the
exhaustive digit-weight scan (digits.weight_sums) is the tests' oracle.

Any ternary carry walk of the divisibility argument traces a closed walk
here whose total cost is n + w(d*x) - w(x); the absence of a negative
cycle therefore proves the weight inequality.  Tarjan's algorithm splits
the graph into strongly connected components and Bellman-Ford certifies
that none of them carries a negative cycle.  The graph and its
components are built once per process and shared by graph_report,
walk_extremes and trace_cycle.  The oracle for that verdict
is min_short_cycle_cost in tests/oracles.py, a bounded exhaustive scan of
the simple cycles of each component; only the tests run it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import digits
from .ff import code_digits, digits_code
from .report import Check, Verdict

NUM_VERTICES = 3**6


def vertex_id(t: tuple[int, ...]) -> int:
    return digits_code(t[::-1], 3)  # big-endian: xi0 is the top digit


def vertex_tuple(vid: int) -> tuple[int, ...]:
    return code_digits(vid, 3, 6)[::-1]


@dataclass(frozen=True)
class CostGraph:
    num_vertices: int
    edges: tuple[tuple[int, int, int], ...]  # (source, target, cost)

    def successors(self) -> list[list[tuple[int, int]]]:
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.num_vertices)]
        for u, v, c in self.edges:
            adj[u].append((v, c))
        return adj


def edge_cost(u: int) -> int:
    xi0, xi1, g0, g1, g2, g3 = vertex_tuple(u)
    return 1 + 2 * (xi1 - g0)


@functools.cache
def build_graph() -> CostGraph:
    """The full carry-propagation graph, edges sorted by (source, target).

    Built once per process; the graph and its edge tuple are immutable.
    """
    edges = []
    for u in range(NUM_VERTICES):
        xi0, xi1, g0, g1, g2, g3 = vertex_tuple(u)
        g3_next = (xi0 + 2 * xi1 + g0) // 3
        cost = edge_cost(u)
        for xi1_next in range(3):
            v = vertex_id((xi1, xi1_next, g1, g2, g3, g3_next))
            edges.append((u, v, cost))
    edges.sort()
    return CostGraph(num_vertices=NUM_VERTICES, edges=tuple(edges))


@dataclass(frozen=True)
class SCCReport:
    component_of: tuple[int, ...]  # vertex -> component id
    sizes: tuple[int, ...]  # component id -> size
    nontrivial: tuple[tuple[int, ...], ...]  # members of size>1 or self-loop comps

    @property
    def num_components(self) -> int:
        return len(self.sizes)


def tarjan_scc(g: CostGraph) -> SCCReport:
    """Iterative Tarjan; components are numbered in discovery order."""
    adj = g.successors()
    n = g.num_vertices
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    num_comps = 0
    components: list[list[int]] = []

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi][0]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if lowlink[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = num_comps
                    members.append(w)
                    if w == v:
                        break
                components.append(members)
                num_comps += 1
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])

    self_loops = {u for u, v, _ in g.edges if u == v}
    nontrivial = tuple(
        tuple(sorted(members))
        for members in components
        if len(members) > 1 or members[0] in self_loops
    )
    return SCCReport(
        component_of=tuple(comp),
        sizes=tuple(len(m) for m in components),
        nontrivial=nontrivial,
    )


@functools.cache
def _components() -> SCCReport:
    """tarjan_scc of the carry graph, computed once per process."""
    return tarjan_scc(build_graph())


def find_negative_cycle(g: CostGraph, vertices) -> list[int] | None:
    """Bellman-Ford on the subgraph induced by the given vertex set.

    Runs |V| - 1 relaxation rounds from an arbitrary source; a final
    pass that still relaxes proves a negative cycle, which is then
    extracted through the predecessor chain.  Returns the cycle as a
    vertex list, or None.
    """
    vset = set(vertices)
    sub = [(u, v, c) for u, v, c in g.edges if u in vset and v in vset]
    if not sub:
        return None
    source = next(iter(vset))
    dist = {v: 0 if v == source else None for v in vset}
    pred: dict[int, int] = {}
    for _ in range(len(vset) - 1):
        changed = False
        for u, v, c in sub:
            if dist[u] is not None and (dist[v] is None or dist[u] + c < dist[v]):
                dist[v] = dist[u] + c
                pred[v] = u
                changed = True
        if not changed:
            break
    for u, v, c in sub:
        if dist[u] is not None and (dist[v] is None or dist[u] + c < dist[v]):
            # walk back |V| steps to land inside the cycle, then collect it
            pred[v] = u
            x = v
            for _ in range(len(vset)):
                x = pred[x]
            cycle = [x]
            y = pred[x]
            while y != x:
                cycle.append(y)
                y = pred[y]
            cycle.reverse()
            return cycle
    return None


def cycle_cost(g: CostGraph, cycle: list[int]) -> int:
    cost_of = {(u, v): c for u, v, c in g.edges}
    total = 0
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        total += cost_of[(u, v)]
    return total


@dataclass(frozen=True)
class TraceResult:
    n: int
    x: int
    walk: tuple[int, ...]  # n vertex ids, T_0 .. T_{n-1}
    cost: int


def trace_cycle(n: int, x: int) -> TraceResult:
    """Trace the carry walk of one nonzero residue through the graph.

    The one derivation of a residue's walk.  Expands x and Y = d*x once,
    builds X_j = x_{r*j} and the carries C_j = c_{r*j} of 2*x_i + x_{i-r}
    against the digits of d*x (digits.carry_sequence: one closed-form
    carry, then the carry recurrence, O(n) steps in all), and the vertex
    sequence T_j = (X_{j-1}, X_j, C_{j-4}, C_{j-3}, C_{j-2}, C_{j-1}),
    each step costing 1 + 2*(X_j - C_{j-4}) as edge_cost would read off T_j.
    Asserts that every carry lies in {0,1,2}, that every step is a graph
    edge, and that the total cost equals n + w(d*x) - w(x).
    """
    return _trace(n, x)


def _trace(n: int, x: int) -> TraceResult:
    # The body of trace_cycle.  proof_lab.motif_word calls it directly, so
    # trace_cycle is entered only for the walks a caller asks to trace:
    # perfbench times it and counts its calls as the seeded spot walks.
    fam = digits.family_params(n)
    x %= fam.m
    if x == 0:
        raise ValueError("x must be a nonzero residue")
    r = fam.r
    xd = digits.canonical_digits(x, 3, n)
    yd = digits.canonical_digits(fam.d * x, 3, n)
    c = digits.carry_sequence([2 * xd[i] + xd[(i - r) % n] for i in range(n)], yd, 3, n)
    X = [xd[(r * j) % n] for j in range(n)]
    C = [c[(r * j) % n] for j in range(n)]
    if any(cj not in (0, 1, 2) for cj in C):
        raise AssertionError(f"carry out of range for x = {x}: {C}")

    walk = []
    total = 0
    for j in range(n):
        g0 = C[(j - 4) % n]
        walk.append(vertex_id((X[j - 1], X[j], g0, C[(j - 3) % n], C[(j - 2) % n], C[j - 1])))
        total += 1 + 2 * (X[j] - g0)
    valid = _edge_targets()
    for j in range(n):
        u, v = walk[j], walk[(j + 1) % n]
        if v not in valid[u]:
            raise AssertionError(f"non-edge step {u} -> {v} for x = {x}")

    expected = n + sum(yd) - sum(xd)
    if total != expected:
        raise AssertionError(
            f"walk cost {total} != n + w(dx) - w(x) = {expected} for x = {x}"
        )
    return TraceResult(n=n, x=x, walk=tuple(walk), cost=total)


@functools.cache
def _edge_targets() -> tuple[frozenset[int], ...]:
    targets: list[set[int]] = [set() for _ in range(NUM_VERTICES)]
    for u, v, _ in build_graph().edges:
        targets[u].add(v)
    return tuple(map(frozenset, targets))


@dataclass(frozen=True)
class WalkExtremes:
    """The family's weight extremes over nonzero x, read off the closed
    walks of length n, and the residues of the largest-cost walks."""

    min_diff: int  # min w(d*x) - w(x): the least walk cost minus n
    min_weight_sum: int  # min w(x) + w(-d*x): 3n minus the largest walk cost
    minimizers: tuple[int, ...]  # every x attaining min_weight_sum, ascending
    weights: tuple[int, ...]  # w(x) of each minimizer


@functools.cache
def _walk_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertices of the nontrivial components, renumbered 0..V-1: their
    in-component predecessors padded with the index V, their costs (V
    costs 0) and their xi1 digits."""
    g = build_graph()
    scc = _components()
    members = [v for comp in scc.nontrivial for v in comp]
    local = {v: i for i, v in enumerate(members)}
    preds: list[list[int]] = [[] for _ in members]
    for u, v, _ in g.edges:
        if u in local and v in local and scc.component_of[u] == scc.component_of[v]:
            preds[local[v]].append(local[u])
    pred = np.full((len(members), max(map(len, preds))), len(members), dtype=np.intp)
    for i, p in enumerate(preds):
        pred[i, : len(p)] = p
    cost = np.array([edge_cost(v) for v in members] + [0], dtype=np.int32)
    xi1 = np.array([vertex_tuple(v)[1] for v in members], dtype=np.int8)
    return pred, cost, xi1


def _best_walks(n: int, cost: np.ndarray) -> list[np.ndarray]:
    """F[k][v, s], k = 0..n: the largest cost of a walk of k steps from s
    to v, counting the cost of each vertex it leaves.

    Where there is no such walk the entry stays within 5n of a sentinel
    near -2^30, far below any walk cost.
    """
    pred = _walk_tables()[0]
    V = len(pred)
    F = np.full((V + 1, V), -(2**30), dtype=np.int32)
    F[np.arange(V), np.arange(V)] = 0
    history = [F]
    for _ in range(n):
        G = F + cost[:, None]
        F = np.concatenate([G[pred[:, 0]], G[V:]])  # row V keeps the sentinel
        for j in range(1, pred.shape[1]):
            np.maximum(F[:V], G[pred[:, j]], out=F[:V])
        history.append(F)
    return history


@functools.cache
def walk_extremes(n: int) -> WalkExtremes:
    """Both weight extremes of the family at odd n and the weight-sum
    minimizers, from the closed walks of length n (see the module
    docstring for why their cost extremes are those over nonzero x).

    Backtracks every tight step from each maximum-cost closed walk's end
    to its start and decodes X_j = xi1 of T_j into x = sum X_j * 3^(r*j).
    Computed once per n in a process.
    """
    fam = digits.family_params(n)
    pred, cost, xi1 = _walk_tables()
    V = len(pred)
    loops = np.arange(V), np.arange(V)
    min_cost = -int(_best_walks(n, -cost)[n][loops].max())
    history = _best_walks(n, cost)
    closed = history[n][loops]
    max_cost = int(closed.max())
    if not min_cost < n < max_cost:
        raise AssertionError(f"a zero-residue walk is extreme at n = {n}")  # unreachable

    # one row per partial walk T_k .. T_{n-1} back to its start
    start = np.flatnonzero(closed == max_cost)
    vertex = start
    steps = []
    for k in range(n - 1, -1, -1):
        cand = pred[vertex]
        reach = history[k][cand, start[:, None]] + cost[cand]
        row, col = np.nonzero(reach == history[k + 1][vertex, start][:, None])
        vertex, start = cand[row, col], start[row]
        steps.append((vertex, row))

    X = np.empty((len(vertex), n), dtype=np.int8)
    row = np.arange(len(vertex))
    for j, (vertex_j, parent) in enumerate(reversed(steps)):  # T_0 first
        X[:, j] = xi1[vertex_j[row]]
        row = parent[row]
    digits_le = np.empty_like(X)
    digits_le[:, [(fam.r * j) % n for j in range(n)]] = X
    text = (digits_le[:, ::-1] + ord("0")).astype(np.uint8).tobytes()  # big-endian rows
    residues = (int(text[i * n : (i + 1) * n], 3) for i in range(len(X)))
    ranked = sorted(zip(residues, X.sum(axis=1).tolist()))  # Python ints at any n
    return WalkExtremes(
        min_diff=min_cost - n,
        min_weight_sum=3 * n - max_cost,  # w(-y) = 2n - w(y)
        minimizers=tuple(x for x, _ in ranked),
        weights=tuple(w for _, w in ranked),
    )


@dataclass(frozen=True)
class GraphReport(Verdict):
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
    scc = _components()
    nontrivial = scc.nontrivial
    sizes = tuple(sorted((len(m) for m in nontrivial), reverse=True))

    pair = next((m for m in nontrivial if len(m) == 2), None)
    pair_tuples = tuple(vertex_tuple(v) for v in pair) if pair else ()
    pair_cost = cycle_cost(g, list(pair)) if pair else None

    neg = None
    for members in nontrivial:
        cyc = find_negative_cycle(g, members)
        if cyc is not None:
            neg = tuple(cyc)
            break

    checks = [
        Check("graph.vertices", 729, g.num_vertices),
        Check("graph.edges", 2187, len(g.edges)),
        Check("graph.scc-count", 258, scc.num_components),
        Check("graph.nontrivial-sizes", (471, 2), sizes),
        Check("graph.pair-members", tuple(sorted(PAIR_VERTICES)), tuple(sorted(pair_tuples))),
        Check("graph.negative-cycle", None, neg),
    ]
    return GraphReport(
        num_vertices=g.num_vertices,
        num_edges=len(g.edges),
        num_components=scc.num_components,
        nontrivial_sizes=sizes,
        pair_component=pair_tuples,
        pair_cycle_cost=pair_cost,
        negative_cycle=neg,
        checks=checks,
    )
