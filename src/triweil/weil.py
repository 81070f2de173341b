"""Weil sums of binomials, their value spectra and power moments.

The sum over x in F of psi(x^d - a*x) is represented exactly by the p
counts of x with Tr(x^d - a*x) = t; no floating point is involved.  When
the counts on the nonzero trace fibers agree the sum is the rational
integer N_0 - N_1, which for odd characteristic happens exactly when
d = 1 mod p-1.

Both routes read the trace by discrete log, from the field's table of
Tr(gen^u).  One sum is p - 1 count passes over q one-byte entries (for
p < 128): the cached traces of x^d less the field's trace table, both
read in place (see weil_sum).  The whole spectrum over the nonzero
coefficients is one exact p-ary Walsh-Hadamard transform of the fiber
indicator of Tr(x^d): p*q*(1 + (n-1)*p) integer operations on counts
laid out fiber-first, in an O(q) working set of the input, two count
arrays and one block.  A small extension field runs it in one chunk, any
other field in p chunks.  Its equal fiber vectors are counted on one
exact int64 key per vector, sorted in place.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from . import ff
from .digits import admitted_family
from .ff import (
    CEILING_ENV_VAR, FIELD_ENTRY_BYTES, FieldCtx, FieldError, build_field, default_ceiling,
    log_blocks, power_exceeds,
)
from .report import Check

UNCHUNKED_COUNTS = 1 << 18  # p*q counts (0.5-1 MiB) a one-chunk transform may hold


class SpectrumError(ValueError):
    """Raised when an operation needs an integer-valued spectrum."""


class CharSumValue(NamedTuple):
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


class Spectrum(NamedTuple):
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
def _trace_of_powers(ctx: FieldCtx, d: int) -> np.ndarray:
    """p + Tr(gen^(d*u)) for u = 0..2q-3: two periods of q - 1 entries.

    It reads the trace table, which is indexed by log, at d*u mod q-1: one
    gather per block of int64 logs (ff.log_blocks), never a q-sized int64
    index.  Its values up to 2p - 1 are held in the narrowest unsigned
    dtype that holds them (uint8 for p < 128), so a trace subtracted from
    them never wraps: 2 bytes per element.  Kept for the last (ctx, d), so
    repeated weil_sum calls on one field and exponent share it; read-only.
    """
    import numpy as np
    tr, Q = ctx.trace_table, ctx.q - 1
    doubled = np.empty(2 * Q, dtype=np.min_scalar_type(2 * ctx.p - 1))
    for u in log_blocks(Q):
        doubled[u[0] : u[-1] + 1] = tr[u * (d % Q) % Q]
    doubled[:Q] += doubled.dtype.type(ctx.p)
    doubled[Q:] = doubled[:Q]
    doubled.setflags(write=False)
    return doubled


def weil_sum(ctx: FieldCtx, d: int, a: int) -> CharSumValue:
    """Exact fiber counts of sum over x of psi(x^d - a*x).

    For a = gen^k, x = gen^(v-k) has Tr(a*x) = Tr(gen^v), the trace
    table's entry v, and p + Tr(x^d) at entry q-1-k+v of _trace_of_powers:
    one view of each, read in place, gives p + Tr(x^d) - Tr(a*x) over the
    nonzero x (a = 0 is k = 0 with 0 subtracted).  That lies in 1..2p-1;
    one subtraction of p where it reaches p reduces it mod p (below p the
    unsigned subtraction wraps above it, and the smaller of the two is the
    residue).  N_1..N_{p-1} are then p - 1 count passes over that one
    narrow array, and N_0 is the rest (x = 0 has trace 0).  A call holds at
    most two narrow arrays of q - 1 entries at once, nothing wider.  The
    passes make a large prime field slower than one bincount would
    (~0.3 ms at p = 131, n = 1); no command runs weil_sum there.
    """
    import numpy as np
    if d < 1:
        raise ValueError("exponent must be positive")
    p, Q = ctx.p, ctx.q - 1
    k, tr_ax = (ctx.index(a), ctx.trace_table) if a else (0, 0)
    diff = _trace_of_powers(ctx, d)[Q - k : 2 * Q - k] - tr_ax
    np.minimum(diff, diff - diff.dtype.type(p), out=diff)
    counts = [int(np.count_nonzero(diff == t)) for t in range(1, p)]
    return CharSumValue(p=p, fiber_counts=(ctx.q - sum(counts), *counts))


def _shift_axis(T: np.ndarray) -> np.ndarray:
    """One digit axis of the transform, fiber-first: (s, rest, c) -> (s, b, rest).

    out[s, b, r] = sum over c of T[(s + c*b) mod p, r, c]: the fiber axis
    of slice c is shifted cyclically by c*b.  The c = 0 term is a broadcast
    copy.  Each c >= 1 is one np.take of whole rows along the fiber axis,
    with the p x p index (s + c*b) mod p, added into out a block of about
    ff.LOG_BLOCK counts at a time, so a step holds its input, its output
    and one block.  Integer adds only.  The new b axis goes in front of the
    rest and c is always the last axis, so the steps visit each digit axis
    once.
    """
    import numpy as np
    p, rest = T.shape[0], T.shape[1]
    ar = np.arange(p)
    shift = (ar[:, None] + ar) % p  # shift[s, k] = (s + k) mod p
    times = ar[:, None] * ar % p  # times[c, b] = c*b mod p
    out = np.empty((p, p, rest), dtype=T.dtype)
    out[...] = T[:, None, :, 0]
    block = max(1, ff.LOG_BLOCK // (p * p))  # columns of the rest per gather
    blocks = [(out[:, :, j : j + block], T[:, j : j + block]) for j in range(0, rest, block)]
    for c in range(1, p):
        rows = shift.take(times[c], axis=1)  # rows[s, b] = (s + c*b) mod p
        for dst, src in blocks:
            # indices are in range; "clip" skips the buffered bounds check
            dst += src[..., c].take(rows, axis=0, mode="clip")
    return out


def _tally_rows(rows: np.ndarray, mults: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(distinct rows in ascending order, the multiplicity of each) of a 2-D
    array; with mults, each row counts mults times (to merge tallies).

    Each row is one exact int64 key: its entries less their column minimum,
    as digits in mixed radix over the column spans.  Where the next column
    would take a key to 2^63, the keys are first replaced by their ranks
    among the distinct keys, kept for decoding.  Equal rows are then runs of
    the sorted keys: 8 B per row, no sorted copy of the rows.
    """
    import numpy as np
    if len(rows) < 2:  # nothing to sort: a prime field's chunk is one row
        return rows, np.ones(len(rows), dtype=np.int64) if mults is None else mults
    keys = np.zeros(len(rows), dtype=np.int64)
    bound, levels = 1, [(None, [])]  # per level: the distinct keys it ranks, its columns
    lows, highs = rows.min(axis=0).tolist(), rows.max(axis=0).tolist()
    for j, (low, high) in enumerate(zip(lows, highs)):
        col = rows[:, j]
        span = high - low + 1
        if bound * span > 1 << 63:
            distinct, keys = np.unique(keys, return_inverse=True)
            levels.append((distinct, []))
            bound = distinct.size
        keys *= span
        keys += col
        keys -= low
        bound *= span
        levels[-1][1].append((j, low, span))
    if mults is None:
        keys.sort()
    else:
        order = keys.argsort()
        keys, mults = keys[order], mults[order]
    new = np.empty(keys.size, dtype=bool)  # a run of equal keys starts here
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    counts = np.diff(starts, append=keys.size) if mults is None else np.add.reduceat(mults, starts)
    key = keys[starts]
    out = np.empty((key.size, rows.shape[1]), dtype=rows.dtype)
    for distinct, cols in reversed(levels):
        for j, low, span in reversed(cols):
            key, digit = np.divmod(key, span)
            out[:, j] = digit + low
        if distinct is not None:
            key = distinct[key]
    return out, counts


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
    p*q*(1 + (n-1)*p) element operations.  Its counts are laid out
    fiber-first, (s, digits).  The top axis is counted by bincount, one
    value beta of the top digit of b at a time; the other n - 1 axes are
    _shift_axis steps.  A field with n >= 2 whose p*q counts are few runs
    as one chunk that holds every beta, with one tally and no merge; any
    other runs p chunks of q counts, one beta each.  The work is the same
    either way.

    The input, Tr(x^d) by the code of x, is one array of q traces in the
    narrowest unsigned dtype that holds 2p - 1: at the code exp[u] it is
    the table's entry at d*u mod q-1, scattered one block of int64 logs u
    at a time (ff.log_blocks), so no log table is read.  Row c of it (the
    top digit of the code) is stepped in place from Tr(x^d) - c*beta to
    Tr(x^d) - c*(beta + 1) mod p after each bincount, with no division.
    The counts go a block of columns at a time straight into the narrowest
    unsigned dtype that holds q.  The working set is thus that input, two
    count arrays of one chunk and one block (see _shift_axis), and no
    q-sized int64 array.  Each chunk's fiber vectors are tallied on int64
    keys (8 B each, see _tally_rows); p tallies are merged once, at the end.
    """
    import numpy as np
    if d < 1:
        raise ValueError("exponent must be positive")
    p, n, q, Q = ctx.p, ctx.n, ctx.q, ctx.q - 1
    fdtype = np.min_scalar_type(2 * p - 1)  # a residue plus p - 1, as in weil_sum
    fiber = np.zeros(q, dtype=fdtype)  # Tr(x^d) by the code of x; 0 at x = 0
    for u in log_blocks(Q):
        fiber[ctx.exp[u[0] : u[-1] + 1]] = ctx.trace_table[u * (d % Q) % Q]
    del u  # the last block of int64 logs, not kept through the transform
    fiber = fiber.reshape(p, q // p)  # row = top digit c of the code
    down = (-np.arange(p) % p).astype(fdtype)[:, None]  # -c mod p, by row
    # top digits of b fixed per chunk: none (one chunk of p*q counts) for a
    # small extension field; else the top one (p chunks of q counts).  A
    # prime field keeps its p chunks: each is one fiber vector and no step.
    k = 0 if p < q and p * q <= UNCHUNKED_COUNTS else 1
    per = p ** (1 - k)  # values of the top digit of b in one chunk: all p, or one
    width = max(1, ff.LOG_BLOCK // p)  # columns per bincount
    low = np.arange(width) * p  # flat index of (column in the block, fiber 0)
    count_dtype = np.min_scalar_type(q)  # every count is at most q
    tallies = []
    for chunk in range(p**k):
        T = np.empty((p, per, q // p), dtype=count_dtype)  # (s, top digit of b, other digits of c)
        for i in range(per):  # the top axis at the chunk's i-th beta
            for j in range(0, q // p, width):
                cols = fiber[:, j : j + width]  # Tr(x^d) - c*beta mod p
                m = cols.shape[1]
                counts = np.bincount((cols + low[:m]).ravel(), minlength=m * p)
                T[:, i, j : j + m] = counts.reshape(m, p).T
                cols += down  # at beta + 1, up to 2p - 2: less p where that is smaller
                np.minimum(cols, cols - fdtype.type(p), out=cols)
        for _ in range(n - 1):  # then the other n - 1 axes
            T = _shift_axis(T.reshape(p, -1, p))
        T = T.reshape(p, -1)[:, 0 if chunk else 1 :]  # drop b = 0: column 0 of chunk 0
        tallies.append(_tally_rows(T.T))  # one fiber vector per column
        del T  # before the next chunk allocates its own counts
    rows, mults = tallies[0] if k == 0 else _tally_rows(*map(np.concatenate, zip(*tallies)))
    fibers = dict(zip(map(tuple, rows.tolist()), mults.tolist()))

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

    The transform does p*q*(1 + (n-1)*p) element operations whether it
    runs in one chunk or in p (see spectrum): p bincount passes over q
    codes, then n - 1 shift steps over the p*q counts of all chunks, p^2*q
    operations each.  The budget is the family's own count at q = ceiling,
    9*k*ceiling with k = floor(log_3 ceiling), so the family is admitted
    whenever its tables are; a prime field near the ceiling, whose work is
    about q^2, is not.  A q over the ceiling (decided without building q),
    a p < 2 or an n < 1 (0^-1 has no value) is left to build_field, which
    states its tables or refuses the prime or the degree.  So is a
    composite p whose work is over the budget: primality is tested only
    there, where p is at most the ceiling, so an admitted p pays
    build_field's trial division once.
    """
    limit = ceiling if ceiling is not None else default_ceiling()
    if p < 2 or n < 1 or power_exceeds(p, n, limit):
        return
    q = p**n
    k = 0
    while 3 ** (k + 1) <= limit:
        k += 1
    work, budget = p * q * (1 + (n - 1) * p), 9 * k * limit
    if work > budget and ff.is_prime(p):
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


class FamilyReport(NamedTuple):
    n: int
    r: int
    d: int
    ctx: FieldCtx  # the field the spectrum was computed over
    spectrum: Spectrum
    checks: list[Check]


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
            Check("spectrum.counts", expected, dict(sorted(spec.entries.items()))),
            Check("moment.1", q, power_moment(spec, 1)),
            Check("moment.2", q**2, power_moment(spec, 2)),
            Check("moment.4", 3 * q**3, power_moment(spec, 4)),
        ]
    return FamilyReport(n=n, r=fam.r, d=fam.d, ctx=ctx, spectrum=spec, checks=checks)
