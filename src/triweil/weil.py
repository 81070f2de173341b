"""Weil sums of binomials, their value spectra and power moments.

The sum over x in F of psi(x^d - a*x) is represented exactly by the p
counts of x with Tr(x^d - a*x) = t; no floating point is involved.  When
the counts on the nonzero trace fibers agree the sum is the rational
integer N_0 - N_1, which for odd characteristic happens exactly when
d = 1 mod p-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .digits import family_params
from .ff import FieldCtx, build_field
from .report import Check, Verdict


class SpectrumError(ValueError):
    """Raised when an operation needs an integer-valued spectrum."""


@dataclass(frozen=True)
class CharSumValue:
    """One character sum, as exact trace-fiber counts."""

    p: int
    fiber_counts: tuple[int, ...]  # index t in F_p -> #{x : Tr(x^d - a x) = t}

    @property
    def is_integer(self) -> bool:
        return len(set(self.fiber_counts[1:])) <= 1

    @property
    def value(self) -> int:
        """Exact integer value; defined when the nonzero fibers agree."""
        if not self.is_integer:
            raise SpectrumError(f"fibers {self.fiber_counts} do not rationalize")
        # sum of all p-th roots of unity is 0, so W = N_0 - N_1
        return self.fiber_counts[0] - self.fiber_counts[1]


@dataclass(frozen=True)
class Spectrum:
    """Multiplicities of the sum's values over nonzero coefficients a."""

    p: int
    n: int
    d: int
    fiber_entries: dict[tuple[int, ...], int]
    entries: dict[int, int] | None  # integer value -> multiplicity, if defined

    @property
    def is_integer(self) -> bool:
        return self.entries is not None


def _trace_of_powers(ctx: FieldCtx, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(trexp, trd): traces of gen^u and of (gen^u)^d, for u = 0..q-2."""
    Q = ctx.q - 1
    u = np.arange(Q)
    trexp = ctx.trace_table[ctx.exp].astype(np.int64)
    trd = trexp[(u * (d % Q)) % Q]
    return trexp, trd


def _fiber_counts(trd: np.ndarray, tra: np.ndarray | int, p: int) -> tuple[int, ...]:
    """Counts of x in F with Tr(x^d) - Tr(a*x) = t, for t in F_p.

    trd and tra are the two traces over the nonzero x (tra may be the
    scalar 0 for a = 0).
    """
    raw = np.bincount(trd - tra + p, minlength=2 * p)
    # raw counts are indexed by (t1 - t2 + p) in 1..2p-1; fold mod p
    counts = raw[p : 2 * p].copy()
    counts[1:] += raw[1:p]
    counts[0] += 1  # x = 0 contributes trace 0
    return tuple(int(c) for c in counts)


def weil_sum(ctx: FieldCtx, d: int, a: int) -> CharSumValue:
    """Exact fiber counts of sum over x of psi(x^d - a*x)."""
    if d < 1:
        raise ValueError("exponent must be positive")
    trexp, trd = _trace_of_powers(ctx, d)
    tra = 0 if a == 0 else np.roll(trexp, -ctx.index(a))
    return CharSumValue(p=ctx.p, fiber_counts=_fiber_counts(trd, tra, ctx.p))


def spectrum(ctx: FieldCtx, d: int) -> Spectrum:
    """Spectrum of the sum as a runs over the nonzero field elements.

    O(q) per coefficient with precomputed trace tables, O(q^2) overall.
    """
    if d < 1:
        raise ValueError("exponent must be positive")
    p, Q = ctx.p, ctx.q - 1
    trexp, trd = _trace_of_powers(ctx, d)
    doubled = np.concatenate([trexp, trexp])
    fibers: dict[tuple[int, ...], int] = {}
    for la in range(Q):
        key = _fiber_counts(trd, doubled[la : la + Q], p)
        fibers[key] = fibers.get(key, 0) + 1

    entries: dict[int, int] | None = {}
    for key, mult in fibers.items():
        csv = CharSumValue(p=p, fiber_counts=key)
        if not csv.is_integer:
            entries = None
            break
        entries[csv.value] = entries.get(csv.value, 0) + mult
    return Spectrum(p=p, n=ctx.n, d=d, fiber_entries=fibers, entries=entries)


def power_moment(s: Spectrum, k: int) -> int:
    """Sum of value^k times multiplicity, exact."""
    if k < 1:
        raise ValueError("moment order must be positive")
    if s.entries is None:
        raise SpectrumError("power moments need an integer spectrum")
    return sum(v**k * m for v, m in s.entries.items())


def is_degenerate(d: int, p: int, n: int) -> bool:
    """True iff d is a power of p modulo p^n - 1 (linearized exponent)."""
    Q = p**n - 1
    dm = d % Q
    return any(dm == pow(p, k, Q) for k in range(n))


@dataclass(frozen=True)
class FamilyReport(Verdict):
    n: int
    r: int
    d: int
    ctx: FieldCtx  # the field the spectrum was computed over
    spectrum: Spectrum
    checks: list[Check] = field(default_factory=list)


def check_family(n: int, *, ceiling: int | None = None) -> FamilyReport:
    """Verify the three-valued spectrum claim for one odd n.

    Asserts the value set {0, +-3^((n+1)/2)}, the three multiplicities,
    and the power moments of orders 1, 2 and 4.  Failures are collected
    per item, not raised.
    """
    fam = family_params(n)
    ctx = build_field(3, n, ceiling=ceiling)
    spec = spectrum(ctx, fam.d)
    q = ctx.q
    s = 3 ** ((n + 1) // 2)  # sqrt(3q)

    checks = [
        Check("spectrum.integer-valued", True, spec.is_integer),
    ]
    if spec.is_integer:
        expected = {0: q - q // 3 - 1, s: (q + s) // 6, -s: (q - s) // 6}
        checks += [
            Check("spectrum.values", sorted(expected), sorted(spec.entries)),
            Check("spectrum.counts", expected, dict(spec.entries)),
            Check("moment.1", q, power_moment(spec, 1)),
            Check("moment.2", q**2, power_moment(spec, 2)),
            Check("moment.4", 3 * q**3, power_moment(spec, 4)),
        ]
    return FamilyReport(n=n, r=fam.r, d=fam.d, ctx=ctx, spectrum=spec, checks=checks)
