"""Base-b digit weights on Z/(b^n - 1)Z and the add-and-carry machinery.

A residue is written with n digits in {0..b-1}; the canonical expansion
of the zero residue is all zeros (the all-(b-1) string is excluded).
Digit lists serialize little-endian: d_0 first.

The carry lemma: whenever two integer digit lists s and t represent the
same residue, there is a unique integer carry sequence c with
s_i + c_{i-1} = t_i + b*c_i at every index, given in closed form by
c_i = (1/(b^n-1)) * sum_j (s_{j+i+1} - t_{j+i+1}) * b^j, and the carries
sum to (sum s - sum t)/(b - 1).  carry_sequence evaluates the closed form
once, for the last carry c_{n-1}, whose numerator sum_j (s_j - t_j) * b^j
is also the congruence test, and derives the others in one pass from
c_i = (s_i + c_{i-1} - t_i)/b: one sum over integers of n digits and n
small divisions, where evaluating every closed form takes n such sums.

For the family exponent the lemma makes each nonzero residue one closed
walk in the carry graph (the argument is in the motif_graph docstring,
and motif_graph.trace_cycle derives the walk).  verify_divisibility reads
both weight extremes from those walks; weight_sums, the exhaustive table
scan, serves general p and d and is the tests' oracle for the family.
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
    _check_family_n(n)
    r = pow(4, -1, n)
    d = 3**r + 2
    m = 3**n - 1
    g = math.gcd(d, m)
    if g != 1:
        raise ValueError(f"gcd(3^{r}+2, 3^{n}-1) = {g} != 1")  # never for odd n
    return FamilyParams(n=n, r=r, d=d, m=m)


def admitted_family(
    n: int, ceiling: int | None, entry_bytes: int | None = None
) -> FamilyParams:
    """family_params(n) for a request that 3^n <= ceiling must admit.

    The odd-n error comes first and the ceiling (check_ceiling, with the
    caller's entry_bytes) second, both before any arithmetic on integers
    of n digits: the gcd in family_params alone takes seconds at n = 10^6.
    """
    _check_family_n(n)
    check_ceiling(3, n, ceiling, entry_bytes=entry_bytes)
    return family_params(n)


def _check_family_n(n: int) -> None:
    if n <= 1 or n % 2 == 0:
        raise ValueError(f"family exponent needs odd n > 1, got {n}")


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
    """The unique integer carries between congruent digit lists s and t.

    One closed-form carry, c_{n-1} = sum_j (s_j - t_j) * b^j / (b^n - 1),
    whose numerator fails to divide exactly when the lists are
    incongruent; the rest follow from the recurrence (see _carry_pass).
    """
    s, t = list(s), list(t)
    if len(s) != n or len(t) != n:
        raise ValueError(f"digit lists must have length n = {n}")
    m = b**n - 1
    num = 0
    for si, ti in zip(reversed(s), reversed(t)):
        num = num * b + si - ti
    if num % m != 0:
        raise CarryError(f"digit lists differ by residue {num % m} mod {m}")
    return _carry_pass(s, t, b, num // m)


def _carry_pass(s: list[int], t: list[int], b: int, last: int) -> list[int]:
    """c_i = (s_i + c_{i-1} - t_i)/b for i = 0..n-1 from c_{-1} = last.

    Checks that every division is exact, that the pass returns to last
    (the carries close the cycle) and that the carries sum to the weight
    difference; each check fails only when last is not the true c_{n-1}.
    """
    c = []
    prev = last
    for i, (si, ti) in enumerate(zip(s, t)):
        prev, rem = divmod(si + prev - ti, b)
        if rem != 0:
            raise AssertionError(f"carry division not exact at index {i}")
        c.append(prev)
    if prev != last:
        raise AssertionError(f"carries do not close: c_{len(c) - 1} = {prev} != {last}")
    if (b - 1) * sum(c) != sum(s) - sum(t):
        raise AssertionError("carries do not sum to the weight difference")
    return c


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
    # the weight table and its int64 index d*j mod m; refused before p^n is built
    check_ceiling(p, n, ceiling, entry_bytes=_weight_dtype(p, n).itemsize + 8)
    m = p**n - 1
    if math.gcd(d, m) != 1:
        raise ValueError(f"d = {d} is not coprime to {p}^{n} - 1")
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


def family_witness(n: int) -> int:
    """The explicit residue a attaining weight sum n + 1 for the family.

    a = 1 + 3^(2r) + 3^(4r) + ... + 3^((n-3)r) has weight (n-1)/2 and
    -d*a has weight (n+3)/2.  The reports imply both: a is a weight-sum
    minimizer (sum n + 1) of the least weight among them, k = (n-1)/2.
    """
    fam = family_params(n)
    return sum(pow(3, (2 * fam.r * k) % n, fam.m) for k in range((n - 1) // 2)) % fam.m


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
    n + 1 (the explicit witness is among the minimizers).  Both extremes
    and the minimizers come from the closed walks of motif_graph.walk_extremes
    (the module docstring of motif_graph says why); no weight table is
    built.  The ceiling still admits only 3^n <= ceiling.
    """
    from . import motif_graph  # motif_graph imports this module

    fam = admitted_family(n, ceiling)
    walks = motif_graph.walk_extremes(n)
    checks = [
        Check("divisibility.min-weight-sum", n + 1, walks.min_weight_sum),
        Check("divisibility.strict-positivity", True, n + walks.min_diff > 0),
        Check("divisibility.witness-attains", True, family_witness(n) in walks.minimizers),
    ]
    return DivisibilityReport(
        n=n, r=fam.r, d=fam.d,
        min_weight_sum=walks.min_weight_sum,
        num_minimizers=len(walks.minimizers),
        minimizers=walks.minimizers[:MAX_WITNESSES],
        checks=checks,
    )
