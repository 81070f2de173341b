"""Slow, independent oracles for the fast paths; only the tests use them.

- RefField rebuilds GF(p^n) from a field's modulus and generator with
  schoolbook polynomial arithmetic: one polynomial multiplication by the
  generator per power.  It shares no code with triweil.ff's construction
  (no multiplication matrices, no doubling, no linear tables) and never
  reads a FieldCtx table, so a wrong table entry shows up as a
  disagreement.
- linear_table_naive: the table of an F_p-linear map on codes, one code
  at a time with Python ints, the oracle for triweil.ff._linear_table.
- kernel_count_naive and on_curve: the O(q^2) scan of the trilinear kernel
  on a RefField, the oracle for kernel_curve.kernel_count_direct and
  kernel_count_charsum.
- min_short_cycle_cost: a bounded exhaustive cycle scan, the oracle for
  the Bellman-Ford no-negative-cycle verdict of motif_graph.graph_report.
- closed_form_carries: every carry of the carry lemma from its own closed
  form, O(n) big-integer terms per carry, the oracle for
  digits.carry_sequence (one closed form, then the recurrence).
- family_carries_oracle: the digits of a family residue x and of -d*x by
  repeated division, and the closed-form carries of 2*x_i + x_{i-r} + z_i
  against the all-2 string; the tests rebuild from them the walks of
  motif_graph.trace_cycle (which carries against the digits of d*x) and
  the motif words of proof_lab.motif_word.
"""

from __future__ import annotations

import functools

from triweil.digits import CarryError


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


def min_short_cycle_cost(g, vertices, max_len: int = 8) -> int | None:
    """Minimum total cost over all simple cycles of length <= max_len.

    Independent, brute-force backup for the Bellman-Ford verdict.  Each
    cycle is counted at its lexicographically smallest starting vertex.
    """
    vset = set(vertices)
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in vset}
    for u, v, c in g.edges:
        if u in vset and v in vset:
            adj[u].append((v, c))
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
