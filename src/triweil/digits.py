"""Base-b digit weights on Z/(b^n - 1)Z and the add-and-carry machinery.

A residue is written with n digits in {0..b-1}; the canonical expansion
of the zero residue is all zeros (the all-(b-1) string is excluded).
Digit lists serialize little-endian: d_0 first.

The carry lemma: whenever two integer digit lists s and t represent the
same residue, there is a unique integer carry sequence c with
s_i + c_{i-1} = t_i + b*c_i at every index, given in closed form by
c_i = (1/(b^n-1)) * sum_j (s_{j+i+1} - t_{j+i+1}) * b^j, and the carries
sum to (sum s - sum t)/(b - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .report import Check, Verdict


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
    m = b**n - 1
    x %= m
    digs = []
    for _ in range(n):
        digs.append(x % b)
        x //= b
    return tuple(digs)


def digits_value(digs, b: int, n: int) -> int:
    m = b**n - 1
    return sum(d * pow(b, i, m) for i, d in enumerate(digs)) % m


def weight(x: int, b: int, n: int) -> int:
    """Digit sum of the canonical expansion of x mod b^n - 1."""
    return sum(canonical_digits(x, b, n))


def weight_table(b: int, n: int) -> np.ndarray:
    """weight(x) for every residue x in 0..b^n-2, vectorized."""
    m = b**n - 1
    arr = np.arange(m, dtype=np.int64)
    w = np.zeros(m, dtype=np.int64)
    for _ in range(n):
        w += arr % b
        arr //= b
    return w


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


@dataclass(frozen=True)
class StickelbergerReport:
    p: int
    n: int
    d: int
    m: int  # min over nonzero j of w(j) + w(-d*j)
    witness: int  # smallest minimizing j
    minimizers: tuple[int, ...]  # all minimizers, capped
    alt_form_equal: bool  # (p-1)n + min(w(d*j) - w(j)) gives the same m


def stickelberger_bound(p: int, n: int, d: int, *, max_witnesses: int = 64) -> StickelbergerReport:
    """Divisibility exponent from digit weights.

    m = min over nonzero residues j of w(j) + w(-d*j); every value of the
    binomial sum then has p-adic valuation at least m/(p-1), with
    equality attained.  The equivalent form (p-1)*n + min(w(d*j) - w(j))
    is computed independently and compared.
    """
    m_mod = p**n - 1
    if math.gcd(d, m_mod) != 1:
        raise ValueError(f"d = {d} is not coprime to {p}^{n} - 1")
    w = weight_table(p, n)
    j = np.arange(1, m_mod, dtype=np.int64)
    total = w[j] + w[(-d * j) % m_mod]
    m = int(total.min())
    mins = j[total == m]
    alt = (p - 1) * n + int((w[(d * j) % m_mod] - w[j]).min())
    return StickelbergerReport(
        p=p, n=n, d=d, m=m,
        witness=int(mins[0]),
        minimizers=tuple(int(v) for v in mins[:max_witnesses]),
        alt_form_equal=(alt == m),
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


def verify_divisibility(n: int, *, max_witnesses: int = 64) -> DivisibilityReport:
    """Exhaustively check both weight inequalities for the family exponent.

    For every nonzero x mod 3^n - 1: w(x) + w(-d*x) >= n + 1 and
    n + w(d*x) - w(x) > 0, with the first minimum attained exactly at
    n + 1 (the explicit witness is among the minimizers).
    """
    fam = family_params(n)
    w = weight_table(3, n)
    x = np.arange(1, fam.m, dtype=np.int64)
    sum_form = w[x] + w[(-fam.d * x) % fam.m]
    diff_form = n + w[(fam.d * x) % fam.m] - w[x]
    min_sum = int(sum_form.min())
    mins = x[sum_form == min_sum]
    witness = family_witness(n)
    checks = [
        Check("divisibility.min-weight-sum", n + 1, min_sum),
        Check("divisibility.strict-positivity", True, bool(diff_form.min() > 0)),
        Check("divisibility.witness-attains", True, bool(np.isin(witness.a, mins))),
    ]
    return DivisibilityReport(
        n=n, r=fam.r, d=fam.d,
        min_weight_sum=min_sum,
        num_minimizers=int(mins.size),
        minimizers=tuple(int(v) for v in mins[:max_witnesses]),
        checks=checks,
    )
