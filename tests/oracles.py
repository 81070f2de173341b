"""Slow, independent oracles for the fast paths; only the tests use them.

- RefField rebuilds GF(p^n) from a field's modulus and generator with
  schoolbook polynomial arithmetic: one polynomial multiplication by the
  generator per power.  It shares no code with triweil.ff's construction
  (no multiplication matrices, no doubling, no linear tables) and never
  reads a FieldCtx table, so a wrong table entry shows up as a
  disagreement.
- weil_sum_oracle: the trace-fiber counts of one Weil sum on a RefField,
  one x at a time, each trace the sum of its n Frobenius conjugates; the
  oracle for weil.weil_sum and, through it, for weil.spectrum.
- linear_table_naive: the table of an F_p-linear map on codes, one code
  at a time with Python ints, the oracle for triweil.ff._linear_table.
- kernel_count_naive and on_curve: the O(q^2) scan of the trilinear kernel
  on a RefField, the oracle for kernel_curve.kernel_count_direct and
  kernel_count_charsum.
- digits_code and vertex_id: a code from its digits, and a carry-graph
  vertex id from its tuple (xi0 most significant), the packing that
  motif_graph's arithmetic on ids must agree with.
- min_short_cycle_cost: a bounded exhaustive cycle scan, the oracle for
  the single whole-graph Bellman-Ford verdict of motif_graph.graph_report
  (scanned per nontrivial component, where every cycle lies) and, with
  max_len = |V|, for motif_graph.bellman_ford on small graphs.
- induced and cycle_cost: the subgraph a vertex set induces, relabelled
  0..k-1, which the tests hand to motif_graph.bellman_ford; and the cost
  of a closed walk, edge by edge, which reads its negative cycles.
- scc_oracle: the strongly connected components by mutual reachability,
  one set-based DFS per vertex, the oracle for
  motif_graph.strong_components.
- closed_form_carries: every carry of the carry lemma from its own closed
  form, O(n) big-integer terms per carry, checked against the lemma's
  identities; acceptance criterion 6 and the carry tests run on it.
- best_walks_oracle: a (max, count) walk DP over the whole carry graph,
  every walk of k steps between every two vertices, the oracle for the
  largest closed-walk cost of motif_graph.walk_extremes and for the
  number of its minimizers.
- family_carries_oracle: the digits of a family residue x and of -d*x by
  repeated division, and the closed-form carries of 2*x_i + x_{i-r} + z_i
  against the all-2 string; the tests rebuild from them the walks of
  motif_graph.trace_cycle (which reads its walk off the graph's
  successor table and computes no carry) and the motif words of
  proof_lab.motif_word.
- weight and check_surgery: the digit sum of a residue, by division, and
  one of proof_lab's surgeries applied at one pivot of a residue, with its
  identity z' = -d*x' and both weight contracts checked; the surgery
  tests and acceptance criterion 7 run on them.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from triweil.digits import family_params
from triweil.motif_graph import CostGraph, build_graph
from triweil.proof_lab import SURGERIES, _term_value, surgery_identity_holds


def poly_mulmod(a, b, modulus, p: int) -> tuple[int, ...]:
    """a * b for little-endian digit vectors of length n, reduced by the
    monic modulus (length n + 1) over F_p."""
    n = len(modulus) - 1
    res = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            res[i + j] = (res[i + j] + ai * bj) % p
    for k in range(2 * n - 2, n - 1, -1):  # x^n = -sum modulus[j] x^j
        c = res[k]
        if c:
            for j in range(n):
                res[k - n + j] = (res[k - n + j] - c * modulus[j]) % p
    return tuple(res[:n])


class RefField:
    """GF(p^n) on the codes sum(c_i * p^i), by polynomial arithmetic.

    powers[i] is the code of gen^i, each one polynomial product from the
    one before; log inverts it.  Construction fails unless the powers run
    through every nonzero code and gen^(q-1) = 1.  Once they do, products
    and powers are read off these powers (the O(q^2) kernel scan needs
    them fast); poly_mulmod remains the direct polynomial product.
    """

    def __init__(self, p: int, n: int, modulus, gen: int):
        self.p, self.n, self.q = p, n, p**n
        self.modulus = tuple(modulus)
        self.vecs = [tuple(x // p**i % p for i in range(n)) for x in range(self.q)]
        self.powers: list[int] = []
        cur, g = self.vecs[1], self.vecs[gen]
        for _ in range(self.q - 1):
            self.powers.append(self.code(cur))
            cur = poly_mulmod(cur, g, self.modulus, p)
        self.log = {x: i for i, x in enumerate(self.powers)}
        if cur != self.vecs[1] or len(self.log) != self.q - 1 or 0 in self.log:
            raise AssertionError(f"code {gen} does not generate GF({p}^{n})^*")

    def code(self, v) -> int:
        return sum(c * self.p**i for i, c in enumerate(v))

    def add(self, x: int, y: int) -> int:
        return self.code((a + b) % self.p for a, b in zip(self.vecs[x], self.vecs[y]))

    def neg(self, x: int) -> int:
        return self.code(-a % self.p for a in self.vecs[x])

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.powers[(self.log[x] + self.log[y]) % (self.q - 1)]

    def pow(self, x: int, e: int) -> int:
        """x^e for e >= 0."""
        if x == 0:
            return 0 if e else 1
        return self.powers[self.log[x] * e % (self.q - 1)]

    def poly_mul(self, x: int, y: int) -> int:
        """x * y by one polynomial product, without the powers."""
        return self.code(poly_mulmod(self.vecs[x], self.vecs[y], self.modulus, self.p))

    def trace(self, x: int) -> int:
        """x + x^p + ... + x^(p^(n-1)), which lies in F_p."""
        total = 0
        for i in range(self.n):
            total = self.add(total, self.pow(x, self.p**i))
        if total >= self.p:
            raise AssertionError(f"trace of {x} left the prime field")
        return total


@functools.cache
def weil_sum_oracle(F: RefField, d: int, a: int) -> tuple[int, ...]:
    """#{x in F : Tr(x^d) - Tr(a*x) = t} for t in F_p, one x at a time;
    a*x is one polynomial product.  Cached, as the GF(27) spectrum oracle
    and the per-coefficient test ask for the same sums."""
    counts = [0] * F.p
    for x in range(F.q):
        counts[(F.trace(F.pow(x, d)) - F.trace(F.poly_mul(a, x))) % F.p] += 1
    return tuple(counts)


def linear_table_naive(images, p: int, width: int) -> list[int]:
    """Code of sum_k x_k * images[k], digit by digit mod p, for every code
    x of len(images) digits; images[k] holds at most width digits."""
    table = []
    for x in range(p ** len(images)):
        out = [0] * width
        for k, image in enumerate(images):
            xk = x // p**k % p
            for j, c in enumerate(image):
                out[j] = (out[j] + xk * c) % p
        table.append(sum(d * p**j for j, d in enumerate(out)))
    return table


@functools.cache
def ref_of(ctx) -> RefField:
    """The RefField on a FieldCtx's modulus and generator, which is all it reads."""
    return RefField(ctx.p, ctx.n, ctx.modulus, ctx.gen)


def on_curve(F: RefField, r: int, x: int, y: int) -> bool:
    """x^(p^2r) * y^(p^r) + x^(p^r) * y^(p^2r) + x*y = 0."""
    a, b = F.p**r, F.p ** (2 * r)
    lhs = F.add(
        F.add(F.mul(F.pow(x, b), F.pow(y, a)), F.mul(F.pow(x, a), F.pow(y, b))),
        F.mul(x, y),
    )
    return lhs == 0


def kernel_count_naive(F: RefField, r: int) -> int:
    """|K| by an O(q^2) scan of all pairs; small fields only."""
    return sum(on_curve(F, r, x, y) for x in range(F.q) for y in range(F.q))


def digits_code(digs, p: int) -> int:
    """The code of a little-endian digit sequence."""
    code = 0
    for d in reversed(digs):
        code = code * p + d
    return code


def vertex_id(t) -> int:
    """The id of a vertex tuple (xi0, xi1, g0, g1, g2, g3), base 3 with xi0
    most significant."""
    return digits_code(t[::-1], 3)


def min_short_cycle_cost(g, vertices, max_len: int = 8) -> int | None:
    """Minimum total cost over all simple cycles of length <= max_len.

    Independent, brute-force backup for the Bellman-Ford verdict.  Each
    cycle is counted at its lexicographically smallest starting vertex.
    """
    vset = set(vertices)
    adj = {u: [(v, g.cost[u]) for v in g.succ[u] if v in vset] for u in vset}
    best: int | None = None
    for start in sorted(vset):
        # DFS over paths from start that avoid vertices below start
        stack = [(start, 0, 0, {start})]
        while stack:
            v, cost, depth, seen = stack.pop()
            for w, c in adj[v]:
                if w == start:
                    total = cost + c
                    if best is None or total < best:
                        best = total
                elif w > start and w not in seen and depth + 1 < max_len:
                    stack.append((w, cost + c, depth + 1, seen | {w}))
    return best


def induced(g, vertices) -> CostGraph:
    """The subgraph of g on the given vertices, the i-th of them (in the
    order given) relabelled i; each vertex keeps its cost."""
    label = {v: i for i, v in enumerate(vertices)}
    return CostGraph(
        succ=tuple(tuple(sorted(label[w] for w in g.succ[v] if w in label)) for v in vertices),
        cost=tuple(g.cost[v] for v in vertices),
    )


def cycle_cost(g, cycle) -> int:
    """The cost of the closed walk through cycle; KeyError on a non-edge."""
    total = 0
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        if v not in g.succ[u]:
            raise KeyError((u, v))
        total += g.cost[u]
    return total


def scc_oracle(g) -> set[frozenset[int]]:
    """The strongly connected components of g: u and v share one iff each
    reaches the other.  One DFS over Python sets per vertex."""
    reach = []
    for s in range(len(g.succ)):
        seen, todo = {s}, [s]
        while todo:
            for w in g.succ[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    return {frozenset(w for w in reach[v] if v in reach[w]) for v in range(len(reach))}


def best_walks_oracle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, N) over the 729 vertices of build_graph: B[v, s] the largest
    cost of a walk of n steps from v to s, counting the cost of each
    vertex it leaves, and N[v, s] the number of walks attaining it (0
    where there is none).  Each step gathers the three successor rows of
    every vertex, keeps their maximum and adds the counts that reach it;
    an entry with no walk holds the sentinel -2^30, drifted by the costs.
    """
    g = build_graph()
    succ = np.array(g.succ)
    cost = np.array(g.cost, dtype=np.int64)
    B = np.full((len(cost), len(cost)), -(2**30), dtype=np.int64)
    np.fill_diagonal(B, 0)
    N = np.eye(len(cost), dtype=np.int64)
    for _ in range(n):
        gathered = B[succ]
        best = gathered.max(axis=1)
        N = np.where(gathered == best[:, None], N[succ], 0).sum(axis=1)
        B = best + cost[:, None]
    return B, N


class CarryError(ValueError):
    """The two digit lists do not represent the same residue."""


def closed_form_carries(s, t, b: int, n: int) -> list[int]:
    """c_i = (1/(b^n-1)) * sum_j (s_{j+i+1} - t_{j+i+1}) * b^j for each i.

    Raises CarryError when s and t are not congruent mod b^n - 1, and
    fails unless the carries satisfy s_i + c_{i-1} = t_i + b*c_i and sum
    to (sum s - sum t)/(b - 1).
    """
    m = b**n - 1
    diff = (sum(si * b**i for i, si in enumerate(s)) - sum(ti * b**i for i, ti in enumerate(t))) % m
    if diff != 0:
        raise CarryError(f"digit lists differ by residue {diff} mod {m}")
    c = []
    for i in range(n):
        num = sum((s[(j + i + 1) % n] - t[(j + i + 1) % n]) * b**j for j in range(n))
        if num % m != 0:
            raise AssertionError(f"carry numerator {num} not divisible by {m}")
        c.append(num // m)
    for i in range(n):
        if s[i] + c[i - 1] != t[i] + b * c[i]:
            raise AssertionError(f"carry identity fails at index {i}")
    if (b - 1) * sum(c) != sum(s) - sum(t):
        raise AssertionError("carries do not sum to the weight difference")
    return c


def ternary(x: int, n: int) -> list[int]:
    """The n base-3 digits of x mod 3^n - 1, little-endian, by division."""
    x %= 3**n - 1
    out = []
    for _ in range(n):
        x, digit = divmod(x, 3)
        out.append(digit)
    return out


def family_carries_oracle(n: int, x: int) -> tuple[list[int], list[int], list[int]]:
    """(digits of x, digits of z = -d*x, carries) at odd n, r = 4^-1 mod n,
    d = 3^r + 2: the closed-form carries of 2*x_i + x_{i-r} + z_i against
    the all-2 string, the digits of the zero residue."""
    r = pow(4, -1, n)
    xd, zd = ternary(x, n), ternary(-(3**r + 2) * x, n)
    s = [2 * xd[i] + xd[(i - r) % n] + zd[i] for i in range(n)]
    return xd, zd, closed_form_carries(s, [2] * n, 3, n)


def weight(x: int, b: int, n: int) -> int:
    """The digit sum of x mod b^n - 1 in base b, by division (the zero
    residue has weight 0, not (b - 1)*n)."""
    x %= b**n - 1
    total = 0
    for _ in range(n):
        x, digit = divmod(x, b)
        total += digit
    return total


class SurgeryVerdict(NamedTuple):
    sid: str
    applicable: bool
    identity_ok: bool
    x_new: int | None
    z_new: int | None
    weight_drop_ok: bool | None  # w(x') < w(x)
    weight_sum_ok: bool | None  # w(x') + w(z') <= w(x) + w(z)


def check_surgery(sid: str, n: int, x: int, i: int) -> SurgeryVerdict:
    """Try one surgery at pivot position i of a candidate minimizer x.

    The exponent is the family's, d = 3^r + 2 with 4r = 1 mod n.
    Inapplicability (digit conditions unmet) is a normal outcome.  When
    applicable, verifies z' = -d*x' exactly and both weight contracts.
    """
    fam = family_params(n)
    r, d, m = fam.r, fam.d, fam.m
    s = SURGERIES[sid]
    x %= m
    z = (-d * x) % m
    identity_ok = surgery_identity_holds(sid, n, r, i)

    digs = {"x": ternary(x, n), "z": ternary(z, n)}
    applicable = x != 0 and all(
        digs[var][(i + const + rmult * r) % n] >= lo
        for var, (const, rmult), lo in s.conditions
    )
    if not applicable:
        return SurgeryVerdict(sid, False, identity_ok, None, None, None, None)

    x2 = (x + _term_value(s.delta_x, i, r, n, m)) % m
    z2 = (z + _term_value(s.delta_z, i, r, n, m)) % m
    if identity_ok and (z2 + d * x2) % m != 0:
        raise AssertionError("surgery produced z' != -d*x'")
    w = lambda v: weight(v, 3, n)
    return SurgeryVerdict(
        sid=sid,
        applicable=True,
        identity_ok=identity_ok,
        x_new=x2,
        z_new=z2,
        weight_drop_ok=w(x2) < w(x),
        weight_sum_ok=w(x2) + w(z2) <= w(x) + w(z),
    )
