"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines.
"""

import math
import random
import time

import numpy as np
from oracles import check_surgery, closed_form_carries

from triweil import digits, kernel_curve, motif_graph, proof_lab, weil
from triweil.ff import build_field
from triweil.report import passed


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{mark}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_family_spectra():
    expected = {
        5: ({0: 161, 27: 45, -27: 36}, 1.0),
        7: ({0: 1457, 81: 378, -81: 351}, 1.0),
        9: ({0: 13121, 243: 3321, -243: 3240}, 60.0),
        11: ({0: 118097, 729: 29646, -729: 29403}, 10.0),
        13: ({0: 1062881, 2187: 266085, -2187: 265356}, 10.0),
    }
    for n, (spec_expected, budget) in expected.items():
        ctx = build_field(3, n)  # table construction excluded from the budget
        d = digits.family_params(n).d
        t0 = time.perf_counter()
        spec = weil.spectrum(ctx, d)
        elapsed = time.perf_counter() - t0
        _verdict(
            f"criterion-1 family spectrum n={n}",
            spec.entries == spec_expected and elapsed < budget,
            f"{elapsed:.2f}s",
        )


def test_criterion_2_moment_identities():
    ok = True
    for n in range(1, 10):
        ctx = build_field(3, n)
        q1 = ctx.q - 1
        candidates = [d for d in range(1, min(q1, 50), 2) if math.gcd(d, q1) == 1]
        for d in candidates[:6]:
            spec = weil.spectrum(ctx, d)
            ok &= weil.power_moment(spec, 1) == ctx.q
            ok &= weil.power_moment(spec, 2) == ctx.q**2
    _verdict("criterion-2 first two power moments", ok)

    ok = True
    for n, r in [(3, 1), (5, 1), (5, 4), (7, 1), (7, 2), (9, 2), (9, 7)]:
        ctx = build_field(3, n)
        d = 3**r + 2
        assert math.gcd(r, n) == 1 and math.gcd(d, ctx.q - 1) == 1
        ok &= weil.power_moment(weil.spectrum(ctx, d), 4) == 3 * ctx.q**3
    _verdict("criterion-2 fourth power moment", ok)


def test_criterion_3_kernel_counts():
    t0 = time.perf_counter()
    ok = True
    for n, r in [(5, 1), (5, 4), (7, 2), (9, 7), (11, 3)]:
        ctx = build_field(3, n)
        direct = kernel_curve.kernel_count_direct(ctx, r)
        charsum = kernel_curve.kernel_count_charsum(ctx, r)
        ok &= direct == charsum == 3 * ctx.q
        moment4 = weil.power_moment(weil.spectrum(ctx, 3**r + 2), 4)
        ok &= ctx.q**2 * charsum == moment4
    elapsed = time.perf_counter() - t0
    _verdict("criterion-3 kernel counts", ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_4_graph_verification():
    t0 = time.perf_counter()
    rep = motif_graph.graph_report()
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion-4 graph verification",
        passed(rep.checks) and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_5_divisibility_bound():
    for n in (5, 7, 9, 11, 13):
        t0 = time.perf_counter()
        rep = digits.verify_divisibility(n)
        elapsed = time.perf_counter() - t0
        budget = 60.0 if n == 13 else math.inf
        _verdict(
            f"criterion-5 divisibility bound n={n}",
            passed(rep.checks) and rep.min_weight_sum == n + 1 and elapsed < budget,
            f"{elapsed:.2f}s",
        )


def test_criterion_6_carry_lemma():
    rng = random.Random(2024)
    failures = 0
    for b, n in [(3, 5), (3, 9), (2, 7), (5, 4)]:
        m = b**n - 1
        for _ in range(10_000):
            s = [rng.randrange(0, 3 * b) for _ in range(n)]
            value = sum(si * pow(b, i, m) for i, si in enumerate(s)) % m
            t = list(digits.canonical_digits(value, b, n))
            c = closed_form_carries(s, t, b, n)
            for i in range(n):
                if s[i] + c[(i - 1) % n] != t[i] + b * c[i]:
                    failures += 1
            if (b - 1) * sum(c) != sum(s) - sum(t):
                failures += 1
    _verdict("criterion-6 carry lemma", failures == 0, f"{failures} failures")


def test_criterion_7_proof_machinery():
    motifs = proof_lab.derive_motifs()
    _verdict("criterion-7 nine motifs", len(motifs) == 9)

    sequences = proof_lab.enumerate_sequences()
    _verdict("criterion-7 ten sequences", len(sequences) == 10)

    ok = True
    n = 5
    for x in range(1, 3**n - 1):
        for i in range(n):
            for sid in proof_lab.SURGERIES:
                v = check_surgery(sid, n, x, i)
                ok &= v.identity_ok
                if v.applicable:
                    ok &= v.weight_drop_ok and v.weight_sum_ok
    rng = random.Random(99)
    for n in (7, 9):
        for _ in range(1000):
            x = rng.randrange(1, 3**n - 1)
            i = rng.randrange(n)
            for sid in proof_lab.SURGERIES:
                v = check_surgery(sid, n, x, i)
                ok &= v.identity_ok
                if v.applicable:
                    ok &= v.weight_drop_ok and v.weight_sum_ok
    _verdict("criterion-7 surgery identities", ok)

    ok = True
    for n in (5, 7, 9, 11, 13):
        rep = proof_lab.check_minimizer_structure(n)
        ok &= passed(rep.checks) and rep.k == (n - 1) // 2
    _verdict("criterion-7 S2/S4 decomposition", ok)


def test_criterion_8_cross_consistency():
    def val3(v):
        k = 0
        while v % 3 == 0:
            v //= 3
            k += 1
        return k

    ok = True
    for n in (5, 7, 9):
        d = digits.family_params(n).d
        m = digits.stickelberger_bound(3, n, d).m
        spec = weil.spectrum(build_field(3, n), d)
        min_val = min(val3(abs(v)) for v in spec.entries if v != 0)
        ok &= 2 * min_val == m
    _verdict("criterion-8 valuation cross-consistency", ok)
