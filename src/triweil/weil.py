"""Weil sums of binomials, their value spectra and power moments.

The sum over x in F of psi(x^d - a*x) is represented exactly by the p
counts of x with Tr(x^d - a*x) = t; no floating point is involved.  When
the counts on the nonzero trace fibers agree the sum is the rational
integer N_0 - N_1, which for odd characteristic happens exactly when
d = 1 mod p-1.

One sum costs O(q) with the trace tables.  The whole spectrum over the
nonzero coefficients is one exact p-ary Walsh-Hadamard transform of the
fiber indicator of Tr(x^d): n*p^2*q integer adds in an O(q) working set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .digits import admitted_family
from .ff import (
    CEILING_ENV_VAR, FIELD_ENTRY_BYTES, FieldCtx, FieldError, build_field, default_ceiling,
)
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


@functools.lru_cache(maxsize=1)
def _trace_of_powers(ctx: FieldCtx, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(trexp, trd): traces of gen^u and of (gen^u)^d, for u = 0..q-2.

    Kept for the last (ctx, d), so repeated weil_sum calls on one field and
    exponent share the tables; both are read-only.
    """
    Q = ctx.q - 1
    u = np.arange(Q)
    trexp = ctx.trace_table[ctx.exp].astype(np.int64)
    trd = trexp[(u * (d % Q)) % Q]
    trexp.setflags(write=False)
    trd.setflags(write=False)
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


def _shift_axis(T: np.ndarray) -> np.ndarray:
    """One digit axis of the transform, (c, rest, s) -> (rest, b, s).

    out[r, b, s] = sum over c of T[c, r, (s + c*b) mod p]: the fiber axis
    of slice c is shifted cyclically by c*b.  Integer adds only.  The new b
    axis goes behind the rest, so n - 1 steps visit each digit axis once.
    """
    p = T.shape[0]
    ar = np.arange(p)
    shift = (ar[:, None] + ar) % p  # shift[k, s] = (k + s) mod p
    out = np.repeat(T[0][:, None, :], p, axis=1)
    buf = np.empty_like(out)
    for c in range(1, p):
        # indices are in range; "clip" skips the buffered bounds check
        np.take(T[c], shift[c * ar % p], axis=1, out=buf, mode="clip")
        out += buf
    return out


def spectrum(ctx: FieldCtx, d: int) -> Spectrum:
    """Spectrum of the sum as a runs over the nonzero field elements.

    Write x = sum c_j alpha^j with digit vector c and put b_j = Tr(a*alpha^j).
    Tr is F_p-linear, so Tr(a*x) = <c, b> and the fiber counts of the sum
    at a are N_t(b) = #{c : Tr(x^d) - <c, b> = t}.  The trace form is
    nondegenerate, so a -> b is an F_p-linear bijection of F onto F_p^n:
    the multiset of sums over a != 0 equals the multiset of N(b) over
    b != 0, and no a -> b map is needed (b -> -b is a bijection too, so the
    direction of the shift is equally free).

    N is a p-ary Walsh-Hadamard transform of the fiber indicator of
    Tr(x^d) over the digits of c, taken one digit axis at a time with
    cyclic shifts of the fiber axis: integer adds, no roots of unity, any p,
    n*p^2*q element operations.  It runs in chunks of one top digit of b,
    so the working set is a few arrays of q counts, never q*p.
    """
    if d < 1:
        raise ValueError("exponent must be positive")
    p, n, q = ctx.p, ctx.n, ctx.q
    Q = q - 1
    tr_xd = np.zeros(q, dtype=np.int64)  # Tr(x^d) by the code of x; 0 at x = 0
    tr_xd[1:] = ctx.trace_table[ctx.exp[ctx.log[1:] * (d % Q) % Q]]
    tr_xd = tr_xd.reshape(p, q // p)  # row = top digit of the code
    top = np.arange(p)[:, None]
    low = np.arange(q // p) * p  # flat index of (remaining digits, fiber 0)
    count_dtype = np.min_scalar_type(q)  # every count is at most q
    fibers: dict[tuple[int, ...], int] = {}
    for beta in range(p):
        # the top axis at b_{n-1} = beta, then the other n - 1 axes
        T = np.bincount(((tr_xd - top * beta) % p + low).ravel(), minlength=q).astype(count_dtype)
        for _ in range(n - 1):
            T = _shift_axis(T.reshape(p, -1, p))
        rows = T.reshape(-1, p)[1 if beta == 0 else 0 :]  # drop b = 0: row 0, chunk 0
        # count equal rows through one void view of each row
        row_dtype = np.dtype((np.void, rows.itemsize * p))
        keys, mults = np.unique(rows.view(row_dtype), return_counts=True)
        for key, mult in zip(keys.view(count_dtype).reshape(-1, p).tolist(), mults.tolist()):
            key = tuple(key)
            fibers[key] = fibers.get(key, 0) + mult

    entries: dict[int, int] | None = {}
    for key, mult in fibers.items():
        csv = CharSumValue(p=p, fiber_counts=key)
        if not csv.is_integer:
            entries = None
            break
        entries[csv.value] = entries.get(csv.value, 0) + mult
    return Spectrum(p=p, n=n, d=d, fiber_entries=fibers, entries=entries)


def check_spectrum_work(p: int, n: int, ceiling: int | None = None) -> None:
    """Refuse, before the field is built, a spectrum that would run too long.

    The transform does p*q*(1 + (n-1)*p) element operations: p chunks of
    one bincount over q and n - 1 shift steps of p*q each.  The budget is
    the family's own count at q = ceiling, 9*k*ceiling with
    k = floor(log_3 ceiling), so the family is admitted whenever its tables
    are; a prime field near the ceiling, whose work is about q^2, is not.
    A q over the ceiling, or an n < 1 (0^-1 has no value), is left to
    build_field, which states its tables or refuses the degree.
    """
    if n < 1:
        return
    limit = ceiling if ceiling is not None else default_ceiling()
    q = p**n
    k = 0
    while 3 ** (k + 1) <= limit:
        k += 1
    work, budget = p * q * (1 + (n - 1) * p), 9 * k * limit
    if q <= limit and work > budget:
        raise FieldError(
            f"spectrum at q = {p}^{n} needs ~{work} element operations, over the "
            f"budget {budget} of the family at q = ceiling {limit}; "
            f"raise it via ceiling= or ${CEILING_ENV_VAR}"
        )


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
    fam = admitted_family(n, ceiling, entry_bytes=FIELD_ENTRY_BYTES)
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
