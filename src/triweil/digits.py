"""Base-b digit weights on Z/(b^n - 1)Z and the add-and-carry machinery.

A residue is written with n digits in {0..b-1}; the canonical expansion
of the zero residue is all zeros (the all-(b-1) string is excluded).
Digit lists serialize little-endian: d_0 first.

The carry lemma: whenever two integer digit lists s and t represent the
same residue, there is a unique integer carry sequence c with
s_i + c_{i-1} = t_i + b*c_i at every index, given in closed form by
c_i = (1/(b^n-1)) * sum_j (s_{j+i+1} - t_{j+i+1}) * b^j, and the carries
sum to (sum s - sum t)/(b - 1).

For the family exponent the lemma turns residues into walks (the full
argument is in the motif_graph docstring): the carries of d*x are unique
and lie in {0,1,2}, so each nonzero x mod 3^n - 1 is exactly one closed
walk of length n in the 729-vertex carry graph, of cost n + w(d*x) - w(x),
and the zero residue is two walks of cost n.  Some walk costs n - 2
(x = -1) and the family witness costs 2n - 1, so the extremes over all
walks are the extremes over nonzero x.  verify_divisibility reads both
from those walks; weight_sums, the exhaustive table scan, serves general
p and d and is the tests' oracle for the family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ff import check_ceiling, code_digits
from .report import Check, Verdict


MAX_WITNESSES = 64  # minimizers listed in a report; the count is always exact


class CarryError(ValueError):
    """The two digit lists do not represent the same residue."""


@dataclass(frozen=True)
class FamilyParams:
    """The family at odd n: q = 3^n, r = 4^-1 mod n, d = 3^r + 2, and the
    digit modulus m = 3^n - 1."""

    n: int
    r: int
    d: int
    m: int


def family_params(n: int) -> FamilyParams:
    """The one derivation of the family parameters for odd n > 1.

    gcd(d, 3^n - 1) always divides 13, and d mod 13 avoids 0, so the
    gcd is 1; it is recomputed here rather than assumed.
    """
    if n <= 1 or n % 2 == 0:
        raise ValueError(f"family exponent needs odd n > 1, got {n}")
    r = pow(4, -1, n)
    d = 3**r + 2
    m = 3**n - 1
    g = math.gcd(d, m)
    if g != 1:
        raise ValueError(f"gcd(3^{r}+2, 3^{n}-1) = {g} != 1")  # never for odd n
    return FamilyParams(n=n, r=r, d=d, m=m)


def canonical_digits(x: int, b: int, n: int) -> tuple[int, ...]:
    """Canonical n-digit expansion of x mod b^n - 1, little-endian."""
    return code_digits(x % (b**n - 1), b, n)


def weight(x: int, b: int, n: int) -> int:
    """Digit sum of the canonical expansion of x mod b^n - 1."""
    return sum(canonical_digits(x, b, n))


def _weight_dtype(b: int, n: int) -> np.dtype:
    # weights are below (b-1)*n, so this dtype holds any sum or difference of two
    return np.min_scalar_type(-2 * (b - 1) * n)


def weight_table(b: int, n: int) -> np.ndarray:
    """weight(x) for every residue x in 0..b^n-2, built one digit at a time."""
    dtype = _weight_dtype(b, n)
    w = np.zeros(1, dtype=dtype)
    for _ in range(n):
        w = (np.arange(b, dtype=dtype)[:, None] + w).ravel()  # prepend a top digit
    return w[:-1]  # the all-(b-1) string is the zero residue, already at index 0


def carry_sequence(s, t, b: int, n: int) -> list[int]:
    """The unique integer carries between congruent digit lists s and t."""
    s, t = list(s), list(t)
    if len(s) != n or len(t) != n:
        raise ValueError(f"digit lists must have length n = {n}")
    m = b**n - 1
    diff = (sum(si * pow(b, i, m) for i, si in enumerate(s))
            - sum(ti * pow(b, i, m) for i, ti in enumerate(t))) % m
    if diff != 0:
        raise CarryError(f"digit lists differ by residue {diff} mod {m}")
    c = []
    for i in range(n):
        num = sum((s[(j + i + 1) % n] - t[(j + i + 1) % n]) * b**j for j in range(n))
        if num % m != 0:
            raise AssertionError("carry numerator not divisible")  # unreachable
        c.append(num // m)
    # both defining identities, rechecked post hoc
    for i in range(n):
        if s[i] + c[(i - 1) % n] != t[i] + b * c[i]:
            raise AssertionError(f"carry identity fails at index {i}")  # unreachable
    if (b - 1) * sum(c) != sum(s) - sum(t):
        raise AssertionError("carries do not sum to the weight difference")  # unreachable
    return c


def family_carries(n: int, x: int):
    """The carries of one nonzero family residue x at odd n.

    Returns (fam, x mod 3^n - 1, digits of x, digits of z = -d*x, c), where c
    carries 2*x_i + x_{i-r} + z_i against the all-2 string (the zero residue).
    """
    fam = family_params(n)
    x %= fam.m
    if x == 0:
        raise ValueError("x must be a nonzero residue")
    xd = canonical_digits(x, 3, n)
    zd = canonical_digits(-fam.d * x, 3, n)
    s = [2 * xd[i] + xd[(i - fam.r) % n] + zd[i] for i in range(n)]
    return fam, x, xd, zd, carry_sequence(s, [2] * n, 3, n)


def weight_sums(
    p: int, n: int, d: int, *, ceiling: int | None = None
) -> tuple[np.ndarray, int, np.ndarray, int]:
    """The digit-weight scan: (w, min_sum, minimizers, min_diff).

    w is the weight table; min_sum = min w(j) + w(-d*j) over nonzero j mod
    p^n - 1, attained at the ascending minimizers; min_diff = min w(d*j) - w(j).
    It serves any p and d (stickelberger_bound); for the family exponent
    the walk route of motif_graph gives the same numbers without a table,
    and the tests hold the two equal.
    """
    m = p**n - 1
    if math.gcd(d, m) != 1:
        raise ValueError(f"d = {d} is not coprime to {p}^{n} - 1")
    # the weight table and its int64 index d*j mod m
    check_ceiling(p, n, ceiling, entry_bytes=_weight_dtype(p, n).itemsize + 8)
    w = weight_table(p, n)
    dj = np.arange(1, m, dtype=np.int64)
    dj *= d % m
    dj %= m  # d*j mod m, nonzero; int64 while m < 3e9
    min_diff = int((w[dj] - w[1:]).min())
    total = w[np.subtract(m, dj, out=dj)] + w[1:]  # dj now holds -d*j mod m
    min_sum = int(total.min())
    return w, min_sum, np.flatnonzero(total == min_sum) + 1, min_diff


@dataclass(frozen=True)
class StickelbergerReport:
    p: int
    n: int
    d: int
    m: int  # min over nonzero j of w(j) + w(-d*j)
    witness: int  # smallest minimizing j
    minimizers: tuple[int, ...]  # the first MAX_WITNESSES minimizers
    alt_form_equal: bool  # (p-1)n + min(w(d*j) - w(j)) gives the same m


def stickelberger_bound(p: int, n: int, d: int) -> StickelbergerReport:
    """Divisibility exponent from digit weights.

    m = min over nonzero residues j of w(j) + w(-d*j); every value of the
    binomial sum then has p-adic valuation at least m/(p-1), with
    equality attained.  The equivalent form (p-1)*n + min(w(d*j) - w(j))
    is computed independently and compared.
    """
    _, m, mins, min_diff = weight_sums(p, n, d)
    return StickelbergerReport(
        p=p, n=n, d=d, m=m,
        witness=int(mins[0]),
        minimizers=tuple(int(v) for v in mins[:MAX_WITNESSES]),
        alt_form_equal=((p - 1) * n + min_diff == m),
    )


@dataclass(frozen=True)
class WitnessReport(Verdict):
    n: int
    r: int
    d: int
    a: int
    checks: list[Check]


def family_witness(n: int) -> WitnessReport:
    """The explicit residue attaining weight sum n + 1 for the family.

    a = 1 + 3^(2r) + 3^(4r) + ... + 3^((n-3)r) has weight (n-1)/2 and
    -d*a has weight (n+3)/2.
    """
    fam = family_params(n)
    a = sum(pow(3, (2 * fam.r * k) % n, fam.m) for k in range((n - 1) // 2)) % fam.m
    checks = [
        Check("witness.weight-a", (n - 1) // 2, weight(a, 3, n)),
        Check("witness.weight-minus-da", (n + 3) // 2, weight(-fam.d * a, 3, n)),
        Check("witness.weight-sum", n + 1, weight(a, 3, n) + weight(-fam.d * a, 3, n)),
    ]
    return WitnessReport(n=n, r=fam.r, d=fam.d, a=a, checks=checks)


@dataclass(frozen=True)
class DivisibilityReport(Verdict):
    n: int
    r: int
    d: int
    min_weight_sum: int
    num_minimizers: int
    minimizers: tuple[int, ...]
    checks: list[Check]


def verify_divisibility(
    n: int, *, ceiling: int | None = None
) -> DivisibilityReport:
    """Check both weight inequalities for the family exponent at every
    nonzero residue.

    For every nonzero x mod 3^n - 1: w(x) + w(-d*x) >= n + 1 and
    n + w(d*x) - w(x) > 0, with the first minimum attained exactly at
    n + 1 (the explicit witness is among the minimizers).  Every nonzero x
    is one closed walk of length n in the carry graph, of cost
    n + w(d*x) - w(x), so both extremes and the minimizers come from
    motif_graph.walk_extremes; no weight table is built.  The ceiling
    still admits only 3^n <= ceiling.
    """
    from . import motif_graph  # motif_graph imports this module

    fam = family_params(n)
    check_ceiling(3, n, ceiling, entry_bytes=None)
    walks = motif_graph.walk_extremes(n)
    witness = family_witness(n)
    checks = [
        Check("divisibility.min-weight-sum", n + 1, walks.min_weight_sum),
        Check("divisibility.strict-positivity", True, n + walks.min_diff > 0),
        Check("divisibility.witness-attains", True, witness.a in walks.minimizers),
    ]
    return DivisibilityReport(
        n=n, r=fam.r, d=fam.d,
        min_weight_sum=walks.min_weight_sum,
        num_minimizers=len(walks.minimizers),
        minimizers=walks.minimizers[:MAX_WITNESSES],
        checks=checks,
    )
