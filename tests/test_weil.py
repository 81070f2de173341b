"""Character sums, spectra and moments, with a fully independent
mini-field oracle for the smallest interesting field."""

import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from oracles import ref_of, weil_sum_oracle

from triweil import ff, weil
from triweil.digits import family_params
from triweil.ff import FieldCtx, build_field
from triweil.report import passed
from triweil.weil import (
    SpectrumError,
    check_family,
    is_degenerate,
    power_moment,
    spectrum,
    weil_sum,
)


# ---------------------------------------------------------------------------
# Oracle: GF(27) rebuilt with polynomial arithmetic only (tests/oracles.py).


def oracle_spectrum_q27(d):
    F = ref_of(build_field(3, 3))  # reads the modulus and generator only
    spec = {}
    for a in range(1, F.q):
        fibers = weil_sum_oracle(F, d, a)
        assert fibers[1] == fibers[2]  # d odd over GF(3^n) always rationalizes
        val = fibers[0] - fibers[1]
        spec[val] = spec.get(val, 0) + 1
    return spec


def test_spectrum_against_independent_oracle_q27():
    ctx = build_field(3, 3)
    for d in (1, 5, 7, 11):
        assert spectrum(ctx, d).entries == oracle_spectrum_q27(d)


@pytest.mark.parametrize(
    "p, n, ds",
    [
        (3, 3, (1, 5, 7, 11)),
        (2, 5, (3,)),
        (7, 2, (5,)),  # fibers that are not integer
    ],
)
def test_weil_sum_against_independent_oracle(p, n, ds):
    ctx = build_field(p, n)
    F = ref_of(ctx)
    for d in ds:
        for a in range(ctx.q):  # a = 0 included
            assert weil_sum(ctx, d, a).fiber_counts == weil_sum_oracle(F, d, a), (d, a)


@pytest.mark.parametrize(
    "p, n, d",
    [
        (2, 5, 3),
        (3, 1, 1),
        (3, 4, 2),  # d not coprime to q - 1
        (3, 5, 83),
        (3, 6, 1),  # degenerate
        (5, 3, 3),
        (5, 4, 7),
        (7, 3, 5),
        (7, 2, 5),
        (11, 1, 3),
        (3, 9, 2189),  # the family at n = 9: 19682 sums
        (131, 1, 3),  # traces fit uint8, their differences plus p do not
        (257, 1, 5),  # traces need uint16
    ],
)
def test_spectrum_transform_matches_per_coefficient_sums(p, n, d):
    # the transform against one O(q) weil_sum per nonzero coefficient
    ctx = build_field(p, n)
    sums = [weil_sum(ctx, d, int(a)) for a in ctx.exp]  # every nonzero coefficient
    spec = spectrum(ctx, d)
    assert spec.fiber_entries == Counter(v.fiber_counts for v in sums)
    if all(v.is_integer for v in sums):
        assert spec.entries == Counter(v.value for v in sums)
    else:
        assert spec.entries is None


@pytest.mark.parametrize("p, n, d", [(3, 5, 83), (5, 3, 3), (7, 2, 5)])
def test_spectrum_reads_no_log_table(p, n, d):
    # the input is filled at the codes exp[u] from Tr(gen^(d*u)), so a
    # context without its log table gives the same spectrum
    ctx = build_field(p, n)
    tables = {name: getattr(ctx, name) for name in FieldCtx.__slots__}
    no_log = FieldCtx(**{**tables, "log": None})
    assert spectrum(no_log, d) == spectrum(ctx, d)


def test_weil_sum_reads_no_exp_table():
    # the sums read the trace table by log alone, so a context without its
    # exp table gives the same sums
    ctx = build_field(5, 3)
    tables = {name: getattr(ctx, name) for name in FieldCtx.__slots__}
    no_exp = FieldCtx(**{**tables, "exp": None})
    coefficients = range(ctx.q)
    for d in (3, 7):
        full = [weil_sum(ctx, d, a) for a in coefficients]
        assert [weil_sum(no_exp, d, a) for a in coefficients] == full


@pytest.mark.parametrize("p, n, d", [(3, 7, 11), (5, 3, 3), (131, 1, 3)])
def test_spectrum_block_does_not_change_the_spectrum(monkeypatch, p, n, d):
    ctx = build_field(p, n)
    default = spectrum(ctx, d)
    for block in (7, ctx.q):  # ragged blocks (one column each at p = 131); a single block
        monkeypatch.setattr(ff, "LOG_BLOCK", block)
        assert spectrum(ctx, d) == default, block


@pytest.mark.parametrize(
    "p, n, d",
    [(2, 5, 3), (3, 5, 83), (5, 3, 3), (7, 2, 5), (3, 7, 11), (3, 9, 2189), (5, 6, 11), (7, 5, 5),
     (131, 1, 3)],
)
def test_chunk_depth_does_not_change_the_spectrum_or_its_work(monkeypatch, p, n, d):
    # one chunk of p*q counts, one tally and no merge (n >= 2 only), or p
    # chunks of q and a merge: the same spectrum, and shift steps of
    # (n-1)*p^2*q element operations in all
    ctx = build_field(p, n)
    default = spectrum(ctx, d)
    step, sizes = weil._shift_axis, []
    tally, tallies = weil._tally_rows, []
    monkeypatch.setattr(weil, "_shift_axis", lambda T: sizes.append(T.size) or step(T))
    monkeypatch.setattr(weil, "_tally_rows", lambda *a: tallies.append(len(a)) or tally(*a))
    for counts, chunks in ((1 << 62, 1 if n >= 2 else p), (0, p)):
        monkeypatch.setattr(weil, "UNCHUNKED_COUNTS", counts)
        sizes.clear()
        tallies.clear()
        assert spectrum(ctx, d) == default, chunks
        assert tallies == [1] * chunks + [2] * (chunks > 1), chunks
        assert p * sum(sizes) == (n - 1) * p * p * ctx.q, chunks


def test_prime_field_runs_no_shift_step(monkeypatch):
    # a prime field keeps its p chunks, each one bincount and no step
    ctx = build_field(701, 1)
    step, calls = weil._shift_axis, []
    monkeypatch.setattr(weil, "_shift_axis", lambda T: calls.append(T.shape) or step(T))
    assert sum(spectrum(ctx, 5).fiber_entries.values()) == 700
    assert calls == []


def test_prime_field_spectrum_takes_milliseconds():
    # tens of milliseconds; a transform that ran its n shift steps over the
    # indicator of all p*q fibers would take seconds here (p^3 work)
    ctx = build_field(701, 1)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        spectrum(ctx, 5)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.5, times


def test_shift_step_holds_its_output_and_one_block(monkeypatch):
    # input and output of a step are one chunk each; the gather adds one
    # block of about LOG_BLOCK counts, not a third chunk-sized array
    monkeypatch.setattr(ff, "LOG_BLOCK", 1 << 10)
    step, seen = weil._shift_axis, []

    def traced(T):
        tracemalloc.start()
        try:
            out = step(T)
            seen.append((tracemalloc.get_traced_memory()[1], T.nbytes))
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(weil, "_shift_axis", traced)
    spectrum(build_field(3, 11), family_params(11).d)
    assert len(seen) == 3 * 10 and all(peak < 1.5 * nbytes for peak, nbytes in seen), seen


def _tally_by_counter(rows, mults):
    tally = Counter()
    for row, mult in zip(map(tuple, rows.tolist()), mults):
        tally[row] += mult
    return tally


@pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
@pytest.mark.parametrize(
    "case", ["small", "one-column", "constant-columns", "empty", "one-row", "full-span", "wide"]
)
def test_tally_rows_matches_counter(dtype, case):
    rng = np.random.default_rng(27)
    top = int(np.iinfo(dtype).max)
    if case == "small":
        rows = rng.integers(0, 6, (2000, 5))
    elif case == "one-column":
        rows = rng.integers(0, 40, (500, 1))
    elif case == "constant-columns":  # spans of 1, at 0 and at the dtype's maximum
        cols = rng.integers(0, 3, (800, 2))
        rows = np.column_stack([np.zeros(800, int), cols[:, 0], np.full(800, top), cols[:, 1]])
    elif case == "empty":
        rows = np.zeros((0, 4), dtype=int)
    elif case == "one-row":  # a prime field's chunk: nothing to sort
        rows = rng.integers(0, top + 1, (1, 131))
    elif case == "full-span":  # a span of 2^16 (2^32) wraps to 0 if taken in the dtype
        rows = np.array([[0, 5], [top, 5], [0, 5]])
    else:  # 24 full-range columns: the keys must be ranked several times over
        rows = rng.integers(0, top + 1, (300, 24))
        rows = np.concatenate([rows, rows[:100], rows[:7]])
        assert math.prod(int(c.max() - c.min()) + 1 for c in rows.T) > 2**63
    rows = rows.astype(dtype)
    distinct, mults = weil._tally_rows(rows)
    assert distinct.dtype == rows.dtype and distinct.shape == (len(mults), rows.shape[1])
    got = dict(zip(map(tuple, distinct.tolist()), mults.tolist()))
    assert got == _tally_by_counter(rows, [1] * len(rows))
    assert list(got) == sorted(got)  # ascending rows
    weights = rng.integers(1, 1000, len(rows))  # merging tallies: each row counts weights[i] times
    distinct, mults = weil._tally_rows(rows, weights)
    assert dict(zip(map(tuple, distinct.tolist()), mults.tolist())) == _tally_by_counter(rows, weights)


def test_tally_of_one_chunk_allocates_less_than_its_rows(monkeypatch):
    # one int64 key per row of the chunk at n = 11 (8 B), against 3 uint32 counts (12 B)
    tally, seen = weil._tally_rows, []

    def traced(rows, mults=None):
        if mults is not None:  # the final merge of the p tallies
            return tally(rows, mults)
        tracemalloc.start()
        try:
            out = tally(rows)
            seen.append((tracemalloc.get_traced_memory()[1], rows.nbytes))
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(weil, "_tally_rows", traced)
    spectrum(build_field(3, 11), family_params(11).d)
    assert len(seen) == 3 and all(peak < nbytes for peak, nbytes in seen), seen


def test_trace_tables_take_the_logs_a_block_at_a_time(monkeypatch):
    # 4 B per element of one-byte tables at the peak, no q-sized int64 index
    ctx = build_field(3, 9)
    monkeypatch.setattr(ff, "LOG_BLOCK", 1 << 10)
    weil._trace_of_powers.cache_clear()
    tracemalloc.start()
    try:
        weil._trace_of_powers(ctx, 2189)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        weil._trace_of_powers.cache_clear()
    assert peak < 5 * ctx.q, peak


# ---------------------------------------------------------------------------


def test_weil_sum_tables_shared_per_field_and_exponent():
    from triweil.weil import _trace_of_powers

    ctx5, ctx7 = build_field(3, 5), build_field(3, 7)
    first = [weil_sum(ctx5, 29, a) for a in range(1, 40)]
    doubled = _trace_of_powers(ctx5, 29)
    assert doubled is _trace_of_powers(ctx5, 29)
    assert not doubled.flags.writeable
    assert doubled.itemsize == 1  # p + Tr fits uint8
    # one table, p + Tr(gen^(29u)) twice over; the field's trace table is not copied
    assert isinstance(doubled, np.ndarray) and doubled.shape == (2 * 242,)
    assert doubled.tolist() == 2 * [3 + int(ctx5.trace_table[29 * u % 242]) for u in range(242)]
    weil_sum(ctx5, 11, 3)
    weil_sum(ctx7, 29, 3)  # each switch of (ctx, d) replaces the kept tables
    assert [weil_sum(ctx5, 29, a) for a in range(1, 40)] == first


def test_weil_sum_allocates_nothing_wide_per_call():
    # at most two one-byte arrays of q - 1 entries alive at once, nothing int64
    ctx = build_field(3, 9)
    weil_sum(ctx, 2189, 1)  # builds and keeps the tables
    tracemalloc.start()
    try:
        weil_sum(ctx, 2189, 12345)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * ctx.q, peak


def test_sum_at_zero_vanishes():
    ctx = build_field(3, 5)
    for d in (5, 83):
        assert weil_sum(ctx, d, 0).value == 0


def test_degenerate_exponent():
    ctx = build_field(3, 5)
    assert weil_sum(ctx, 1, 1).value == ctx.q
    assert weil_sum(ctx, 1, 2).value == 0
    assert spectrum(ctx, 1).entries == {0: ctx.q - 2, ctx.q: 1}


def test_degenerate_spectrum_where_log_times_d_passes_int32():
    # Tr(x^(3^10)) = Tr(x), and log * 3^10 reaches ~10^10 at n = 11: the
    # product must be taken on int64 logs, not on the int32 log table
    ctx = build_field(3, 11)
    assert ctx.log.dtype == np.int32 and (ctx.q - 2) * 3**10 > 2**31
    assert spectrum(ctx, 3**10).entries == {0: ctx.q - 2, ctx.q: 1}


def test_family_values_n5():
    ctx = build_field(3, 5)
    for a in range(1, ctx.q):
        assert weil_sum(ctx, 83, a).value in (0, 27, -27)


def test_family_spectra():
    assert spectrum(build_field(3, 5), 83).entries == {0: 161, 27: 45, -27: 36}
    assert spectrum(build_field(3, 7), 11).entries == {0: 1457, 81: 378, -81: 351}


def test_moments_n5():
    s = spectrum(build_field(3, 5), 83)
    assert power_moment(s, 1) == 243
    assert power_moment(s, 2) == 243**2
    assert power_moment(s, 4) == 3 * 243**3 == 43046721


def test_fourth_moment_non_family_instances():
    # only gcd(r, n) = gcd(d, q-1) = 1 is needed, not 4r = 1 mod n
    for n, r in [(3, 1), (5, 1), (7, 1), (9, 2)]:
        ctx = build_field(3, n)
        d = 3**r + 2
        assert math.gcd(d, ctx.q - 1) == 1
        assert power_moment(spectrum(ctx, d), 4) == 3 * ctx.q**3


def test_family_params():
    assert (family_params(5).r, family_params(5).d) == (4, 83)
    assert (family_params(7).r, family_params(7).d) == (2, 11)
    assert (family_params(9).r, family_params(9).d) == (7, 2189)
    for n in (5, 7, 9, 11, 13):
        fam = family_params(n)
        assert fam.m == 3**n - 1
        assert math.gcd(fam.d, fam.m) == 1
        assert fam.d % 13 in (3, 5, 11)
    with pytest.raises(ValueError):
        family_params(6)
    with pytest.raises(ValueError):
        family_params(1)


def test_is_degenerate():
    assert is_degenerate(3, 3, 5)
    assert is_degenerate(9 * (3**5 - 1) + 9, 3, 5)
    assert not is_degenerate(83, 3, 5)


def test_nondegenerate_at_least_three_valued_q243():
    ctx = build_field(3, 5)
    for d in range(1, ctx.q - 1, 2):
        if math.gcd(d, ctx.q - 1) != 1:
            continue
        spec = spectrum(ctx, d)
        if is_degenerate(d, 3, 5):
            assert set(spec.entries) == {0, ctx.q}
        else:
            assert len(spec.entries) >= 3, d


def test_helleseth_integrality_criterion_p5():
    # integer values iff d = 1 mod p-1, both directions over GF(25)
    ctx = build_field(5, 2)
    for d in range(1, ctx.q - 1):
        if math.gcd(d, ctx.q - 1) != 1:
            continue
        spec = spectrum(ctx, d)
        assert spec.is_integer == (d % 4 == 1), d
        if not spec.is_integer:
            with pytest.raises(SpectrumError):
                power_moment(spec, 1)


def test_first_two_moments_generic():
    for p, n, ds in [(3, 4, (5, 7, 11)), (3, 6, (5, 11)), (5, 2, (1, 5, 13))]:
        ctx = build_field(p, n)
        for d in ds:
            if math.gcd(d, ctx.q - 1) != 1:
                continue
            spec = spectrum(ctx, d)
            if spec.is_integer:
                assert power_moment(spec, 1) == ctx.q
                assert power_moment(spec, 2) == ctx.q**2


def test_check_family_reports():
    for n in (5, 7):
        rep = check_family(n)
        assert passed(rep.checks), [c.line() for c in rep.checks if not c.ok]
