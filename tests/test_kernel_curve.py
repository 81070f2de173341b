"""Kernel point counts: three routes must agree, and tie to moment 4.

The naive route is the O(q^2) scan of tests/oracles.py on the reference
field, which reads nothing of the FieldCtx but its modulus and generator."""

import math

import pytest
from oracles import kernel_count_naive, on_curve, ref_of

from triweil import ff, kernel_curve
from triweil.ff import FieldError, build_field
from triweil.report import passed
from triweil.kernel_curve import (
    kernel_count_charsum,
    kernel_count_direct,
    kernel_report,
)
from triweil.weil import power_moment, spectrum


def test_axes_always_on_curve():
    F = ref_of(build_field(3, 3))
    # x = 0 or y = 0 alone contributes 2q - 1 points for any r
    for r in (1, 2):
        axes = sum(
            1
            for x in range(F.q)
            for y in range(F.q)
            if (x == 0 or y == 0) and on_curve(F, r, x, y)
        )
        assert axes == 2 * F.q - 1


@pytest.mark.parametrize("n,r", [(3, 1), (5, 1), (5, 4)])
def test_three_routes_agree_small(n, r):
    ctx = build_field(3, n)
    naive = kernel_count_naive(ref_of(ctx), r)
    assert naive == kernel_count_direct(ctx, r)
    assert naive == kernel_count_charsum(ctx, r)
    assert naive == 3 * ctx.q


@pytest.mark.parametrize("n,r", [(7, 2), (7, 1), (9, 7)])
def test_direct_equals_charsum_larger(n, r):
    ctx = build_field(3, n)
    assert kernel_count_direct(ctx, r) == kernel_count_charsum(ctx, r) == 3 * ctx.q


def test_eta_shift_sum_is_minus_one():
    for n in (3, 5, 7):
        ctx = build_field(3, n)
        assert kernel_report(ctx, 1).eta_sum == -1


def test_fourth_moment_matches_spectrum():
    for n, r in [(3, 1), (5, 1), (5, 4)]:
        ctx = build_field(3, n)
        d = 3**r + 2
        moment4 = ctx.q**2 * kernel_count_charsum(ctx, r)
        assert moment4 == power_moment(spectrum(ctx, d), 4)
    assert 27**2 * kernel_count_charsum(build_field(3, 3), 1) == 27**2 * 3 * 27
    assert 3 * 27**3 == 59049


def test_gcd_reductions_used_in_proof():
    for n, r in [(5, 1), (5, 4), (7, 2), (9, 7)]:
        q1 = 3**n - 1
        assert math.gcd(2 - 3**r - 3 ** (2 * r), q1) == 2
        assert math.gcd(3 ** (2 * r) - 3**r, q1) == 2


def hypotheses_ok(rep):
    return next(c.ok for c in rep.checks if c.claim == "kernel.hypotheses")


def test_hypothesis_flag_reported_not_raised():
    ctx = build_field(3, 9)
    rep = kernel_report(ctx, 3)  # gcd(3, 9) != 1: outside the lemma
    assert hypotheses_ok(rep) is False
    assert rep.count_charsum == kernel_count_charsum(ctx, 3)


def test_hypothesis_flag_needs_d_coprime_to_q_minus_1():
    # d = 3^2 + 2 = 11 divides 3^5 - 1 = 242: the character sum misses
    ctx = build_field(3, 5)
    naive = kernel_count_naive(ref_of(ctx), 2)
    assert naive == kernel_count_direct(ctx, 2) == 969
    assert kernel_count_charsum(ctx, 2) == 729
    rep = kernel_report(ctx, 2)
    assert hypotheses_ok(rep) is False
    assert not passed(rep.checks)
    assert [c.claim for c in rep.checks if not c.ok] == [
        "kernel.direct-equals-charsum", "kernel.count", "kernel.hypotheses"
    ]


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_hypothesis_flag_holds_exactly_where_the_routes_agree_on_3q(n):
    ctx = build_field(3, n)
    for r in range(-2, 2 * n + 1):
        rep = kernel_report(ctx, r)
        assert hypotheses_ok(rep) == (rep.count_direct == rep.count_charsum == 3 * ctx.q), r


def test_report_passes():
    rep = kernel_report(build_field(3, 5), 4)
    assert passed(rep.checks)
    assert rep.axes_count == 2 * 243 - 1


@pytest.mark.parametrize("n,direct,charsum", [(2, 21, 27), (4, 381, 243)])
def test_even_n_counts_differ(n, direct, charsum):
    ctx = build_field(3, n)
    assert kernel_count_direct(ctx, 1) == direct
    assert kernel_count_charsum(ctx, 1) == charsum
    assert hypotheses_ok(kernel_report(ctx, 1)) is False


@pytest.mark.parametrize("p,n,r", [(3, 5, 4), (3, 4, 1), (5, 3, 1), (7, 2, 1)])
def test_counts_do_not_depend_on_the_block(monkeypatch, p, n, r):
    ctx = build_field(p, n)
    whole = kernel_count_direct(ctx, r), kernel_count_charsum(ctx, r)
    monkeypatch.setattr(ff, "LOG_BLOCK", 7)  # many blocks, a ragged last one
    kernel_curve._eta_sum.cache_clear()  # else the charsum reads the sum taken above
    assert (kernel_count_direct(ctx, r), kernel_count_charsum(ctx, r)) == whole


@pytest.mark.parametrize("p, n", [(3, 4), (5, 3), (7, 2)])
def test_eta_power_plus_one_against_a_loop_over_the_logs(p, n):
    # every e in 0..q-1, so gcd(e, q - 1) takes 1, 2, q - 1 and every other divisor
    ctx = build_field(p, n)
    F, Q = ref_of(ctx), ctx.q - 1
    for e in range(Q + 1):
        total = zeros = 0
        for lw in range(Q):
            s = F.add(F.powers[lw * e % Q], 1)  # w^e + 1
            if s == 0:
                zeros += 1
            else:
                total += 1 if F.log[s] % 2 == 0 else -1
        # the sums depend on e only through g = gcd(e, q - 1)
        assert kernel_curve._eta_sum(ctx, math.gcd(e, Q)) == (total, zeros), e


def test_minus_one_branch_unreachable_for_odd_p():
    # p^2r - p^r = p^r (p^r - 1) is even, so w^(p^2r - p^r) is a square and
    # never equals a non-square -1: the ArithmeticError branch cannot fire
    for p, n in [(3, 3), (3, 5), (7, 3), (11, 3)]:  # p = 3 mod 4, n odd
        ctx = build_field(p, n)
        Q = ctx.q - 1
        assert ctx.index(ctx.p - 1) % 2 == 1
        for r in range(1, n):
            e2 = (p ** (2 * r) - p**r) % Q
            assert e2 % 2 == 0
            assert kernel_curve._eta_sum(ctx, math.gcd(e2, Q))[1] == 0


def test_minus_one_branch_raises(monkeypatch):
    # force the subgroup index to 1: w = -1 meets the non-square -1 of GF(3^5)
    orig = kernel_curve._eta_sum
    assert orig(build_field(3, 5), 1)[1] == 1
    monkeypatch.setattr(kernel_curve, "_eta_sum", lambda ctx, g: orig(ctx, 1))
    with pytest.raises(ArithmeticError, match="non-square"):
        kernel_count_charsum(build_field(3, 5), 1)


def test_eta_sum_needs_odd_characteristic():
    with pytest.raises(FieldError, match="odd characteristic"):
        kernel_count_charsum(build_field(2, 5), 1)


def test_kernel_report_takes_one_pass_over_the_squares(monkeypatch):
    # at (n, r) = (7, 2) the charsum's subgroup has index 2, so the conic
    # sum over the squares u^2 is the sum the count has just taken
    ctx = ff._build_field.__wrapped__(3, 7)  # a fresh context: nothing memoized for it
    orig, steps = kernel_curve.log_blocks, []

    def counted(Q, step=1):
        steps.append(step)
        return orig(Q, step)

    monkeypatch.setattr(kernel_curve, "log_blocks", counted)
    rep = kernel_report(ctx, 2)
    assert steps == [1, 2]  # the direct count's pass, then one over the squares
    assert rep.eta_sum == -1 and passed(rep.checks)
