"""The 729-vertex digit/carry cost graph and its verification.

Vertices are sextuples (xi0, xi1, g0, g1, g2, g3) in {0,1,2}^6, packed
into ids 0..728 base 3 with xi0 most significant.  There is an edge to
(xi0', xi1', g0', g1', g2', g3') iff xi0' = xi1, the g-window shifts,
and g3' = floor((xi0 + 2*xi1 + g0)/3); xi1' is free, so every vertex has
out-degree 3 and the graph has 2187 edges.  Edge cost is
1 + 2*(xi1 - g0).

Any ternary carry walk of the divisibility argument traces a closed walk
here whose total cost is n + w(d*x) - w(x); the absence of a negative
cycle therefore proves the weight inequality.  Tarjan's algorithm splits
the graph into strongly connected components and Bellman-Ford certifies
that none of them carries a negative cycle.  The oracle for that verdict
is min_short_cycle_cost in tests/oracles.py, a bounded exhaustive scan of
the simple cycles of each component; only the tests run it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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


def build_graph() -> CostGraph:
    """The full carry-propagation graph, edges sorted by (source, target)."""
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

    Builds X_j = x_{r*j}, the carries C_j of the multiply-by-d
    recurrence Y_j + 3*C_j = 2*X_j + X_{j-1} + C_{j-4} with Y = d*x
    (those of digits.family_carries, as -d*x has digits 2 - Y_j), and
    the vertex sequence T_j = (X_{j-1}, X_j, C_{j-4}, C_{j-3}, C_{j-2}, C_{j-1}).
    Asserts that every carry lies in {0,1,2}, that every step is a graph
    edge, and that the total cost equals n + w(d*x) - w(x).
    """
    fam, x, xd, _, c = digits.family_carries(n, x)
    X = [xd[(fam.r * j) % n] for j in range(n)]
    C = [c[(fam.r * j) % n] for j in range(n)]
    if any(cj not in (0, 1, 2) for cj in C):
        raise AssertionError(f"carry out of range for x = {x}: {C}")

    walk = [
        vertex_id((
            X[(j - 1) % n], X[j],
            C[(j - 4) % n], C[(j - 3) % n], C[(j - 2) % n], C[(j - 1) % n],
        ))
        for j in range(n)
    ]
    valid = _edge_targets()
    total = 0
    for j in range(n):
        u, v = walk[j], walk[(j + 1) % n]
        if v not in valid[u]:
            raise AssertionError(f"non-edge step {u} -> {v} for x = {x}")
        total += edge_cost(u)

    expected = n + digits.weight(fam.d * x, 3, n) - digits.weight(x, 3, n)
    if total != expected:
        raise AssertionError(
            f"walk cost {total} != n + w(dx) - w(x) = {expected} for x = {x}"
        )
    return TraceResult(n=n, x=x, walk=tuple(walk), cost=total)


@functools.cache
def _edge_targets() -> list[set[int]]:
    g = build_graph()
    targets: list[set[int]] = [set() for _ in range(g.num_vertices)]
    for u, v, _ in g.edges:
        targets[u].add(v)
    return targets


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
    scc = tarjan_scc(g)
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
