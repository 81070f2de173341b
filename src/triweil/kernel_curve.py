"""Counting the kernel of the trilinear trace form.

For d = 2 + p^r the fourth power moment of the binomial sum equals
q^2 * |K|, where K is the set of pairs (x, y) with
x^(p^2r) * y^(p^r) + x^(p^r) * y^(p^2r) + x*y = 0.  Two independent
routes compute |K|: direct point counting via the x = w*y substitution,
and a quadratic character sum.  Both are O(q).  Their oracle is the naive
O(q^2) scan of all pairs, kernel_count_naive in tests/oracles.py, which
runs on a polynomial-arithmetic field that shares no table with FieldCtx;
the tests compare it with both routes.

Both O(q) routes run on discrete logs as array operations: the nonzero w
is gen^lw, a power w^e has the log lw*e mod (q-1), a quotient is a
difference of logs, and the quadratic character is the parity of the
log.  The one sum either route needs, 1 + w^e, is the Zech logarithm
FieldCtx.zech, which is -1 where the sum is 0; no code is added digit by
digit.  A character sum of w^e + 1 runs over the image of w -> w^e, the
logs divisible by g = gcd(e, q - 1), each counted g times, so it is taken
once per field and g: in the family g = 2, and the count's sum is also
the conic sum of eta(u^2 + 1) that kernel_report checks.  The logs
are taken in blocks of ff.LOG_BLOCK (ff.log_blocks), so the temporaries
stay a few blocks in size, far below the field's own tables.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .ff import FieldCtx, FieldError, log_blocks
from .report import Check

def kernel_count_direct(ctx: FieldCtx, r: int) -> int:
    """Direct count through the x = w*y parameterization, O(q).

    Pairs with x = 0 or y = 0 always satisfy the equation (2q - 1
    points).  For x, y nonzero the equation becomes
    A(w) * y^e = -w with e = p^r + p^2r - 2 and A(w) = w^(p^2r) + w^(p^r),
    and the number of y solving it is read off the discrete log: with
    w = gen^lw, log(-w/A(w)) = log(-1) + lw - log(A(w)) mod q - 1, and
    there are g = gcd(e, q - 1) solutions y when g divides it, none when
    A(w) = 0 (then A(w)*y^e is 0 but -w is not).  Since
    A(w) = w^(p^r) * (1 + w^(p^2r - p^r)), log(A(w)) = lw*p^r + Z(lw*e2)
    with the Zech log Z and e2 = p^2r - p^r, and A(w) = 0 exactly where
    Z is -1.  As g divides q - 1, the test needs the logs only mod g.
    Each block of logs is one array step.
    """
    import numpy as np
    p, q, Q = ctx.p, ctx.q, ctx.q - 1
    frob_r, frob_2r = pow(p, r, Q), pow(p, 2 * r, Q)
    g = math.gcd((frob_r + frob_2r - 2) % Q, Q)
    e2 = (frob_2r - frob_r) % Q
    log_minus_one = ctx.index(ctx.p - 1)
    count = 2 * q - 1
    for lw in log_blocks(Q):
        z = ctx.zech(lw * e2 % Q)
        solvable = (log_minus_one + lw * ((1 - frob_r) % g) - z) % g == 0
        count += g * int(np.count_nonzero(solvable & (z != -1)))
    return count


@functools.cache
def _eta_sum(ctx: FieldCtx, g: int) -> tuple[int, int]:
    """(sum of eta(w^e + 1), number of w with w^e = -1) over the nonzero w,
    for every e with gcd(e, q - 1) = g.

    As w runs over the nonzero elements, w^e runs over the gen^k with g | k
    and hits each g times, so the sums depend on e only through g: they run
    over those (q - 1)/g logs k and count each g times.  1 + gen^k =
    gen^Z(k) with the Zech log Z, so eta is the parity of Z, and gen^k = -1
    exactly where Z is -1 (eta(0) = 0), one block of logs at a time.  Odd
    characteristic only; memoized per field and g.
    """
    import numpy as np
    if ctx.p == 2:
        raise FieldError("quadratic character needs odd characteristic")
    total = zeros = 0
    for k in log_blocks(ctx.q - 1, g):
        z = ctx.zech(k)
        hits = int(np.count_nonzero(z == -1))
        odd = int(np.count_nonzero(z & 1)) - hits  # -1 is odd in any signed dtype
        total += z.size - hits - 2 * odd
        zeros += hits
    return g * total, g * zeros


def kernel_count_charsum(ctx: FieldCtx, r: int) -> int:
    """|K| through the quadratic character, O(q).

    |K| = (2q - 1) + (q - 1) - sum over nonzero w of eta(w^(p^2r - p^r) + 1).
    Outside the hypotheses (n odd, gcd(r, n) = 1, and d = p^r + 2 coprime
    to q - 1) the count is still returned, and kernel_report flags it, so
    the identity can be observed failing.  The character sum runs over the
    logs of the image subgroup, one block of logs at a time.
    """
    p, q, Q = ctx.p, ctx.q, ctx.q - 1
    e2 = (pow(p, 2 * r, Q) - pow(p, r, Q)) % Q
    s, hits_minus_one = _eta_sum(ctx, math.gcd(e2, Q))
    # w^(p^2r - p^r) is a square, so it meets -1 only when -1 is a square
    if hits_minus_one and ctx.index(p - 1) % 2:
        raise ArithmeticError("w^(p^2r - p^r) = -1 although -1 is a non-square")
    return (2 * q - 1) + (q - 1) - s


class KernelReport(NamedTuple):
    q: int
    r: int
    count_direct: int
    count_charsum: int
    axes_count: int
    eta_sum: int
    checks: list[Check]


def kernel_report(ctx: FieldCtx, r: int) -> KernelReport:
    """Both counts of |K|, the sum of eta(u^2 + 1) over u in F, and whether
    r meets the hypotheses of the character-sum identity (n odd,
    gcd(r, n) = 1 and gcd(p^r + 2, q - 1) = 1)."""
    p, q, Q = ctx.p, ctx.q, ctx.q - 1
    direct = kernel_count_direct(ctx, r)
    charsum = kernel_count_charsum(ctx, r)
    # u = 0 gives eta(1) = 1; the nonzero u^2 are the image of index 2,
    # the charsum's own pass whenever gcd(p^2r - p^r, q - 1) = 2
    eta_sum = 1 + _eta_sum(ctx, 2)[0]
    hyp = (
        ctx.n % 2 == 1
        and math.gcd(r, ctx.n) == 1
        and math.gcd((pow(p, r, Q) + 2) % Q, Q) == 1
    )
    checks = [
        Check("kernel.direct-equals-charsum", direct, charsum),
        Check("kernel.count", 3 * q, direct),
        Check("kernel.eta-shift-sum", -1, eta_sum),
        Check("kernel.hypotheses", True, hyp),
    ]
    return KernelReport(
        q=q,
        r=r,
        count_direct=direct,
        count_charsum=charsum,
        axes_count=2 * q - 1,
        eta_sum=eta_sum,
        checks=checks,
    )
