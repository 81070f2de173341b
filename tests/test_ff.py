"""Field construction and its tables, cross-checked against the
independent polynomial-arithmetic field of tests/oracles.py and sympy."""

import math
import random
import time

import numpy as np
import pytest
import sympy
from oracles import linear_table_naive, ref_of

from triweil import ff
from triweil.ff import FieldError, build_field, code_digits, digits_code, is_irreducible


# products and powers read off the field's exp/log tables
def tmul(ctx, x, y):
    if x == 0 or y == 0:
        return 0
    return int(ctx.exp[(ctx.log[x] + ctx.log[y]) % (ctx.q - 1)])


def tpow(ctx, x, e):
    if x == 0:
        return 0 if e else 1
    return int(ctx.exp[ctx.log[x] * e % (ctx.q - 1)])


def test_is_prime_matches_sympy():
    for m in range(5001):
        assert ff.is_prime(m) == sympy.isprime(m), m


def test_composite_p_with_large_cofactor_is_refused_at_once():
    # 2 * (10^18 + 3): trial division stops at 2 instead of running to the
    # square root of the prime cofactor
    t0 = time.perf_counter()
    with pytest.raises(FieldError, match="not prime"):
        build_field(2 * (10**18 + 3), 1)
    assert time.perf_counter() - t0 < 1.0


def sympy_irreducible(mod, p):
    return sympy.Poly(list(reversed(mod)), sympy.symbols("x"), modulus=p).is_irreducible


def test_prime_field_trivial():
    ctx = build_field(3, 1)
    assert ctx.q == 3
    assert ctx.modulus == (0, 1)
    assert ctx.trace_table.tolist() == [0, 1, 2]


def test_trace_of_one_is_n_mod_p():
    ctx = build_field(3, 5)
    assert ctx.trace_table[1] == 5 % 3 == 2


def test_rejects_bad_parameters():
    with pytest.raises(FieldError):
        build_field(4, 2)
    with pytest.raises(FieldError):
        build_field(3, 0)
    with pytest.raises(FieldError):
        build_field(3, 20)  # over the ceiling


def test_modulus_is_irreducible_sympy_oracle():
    for p, n in [(3, 2), (3, 3), (3, 5), (3, 7), (5, 2), (5, 3), (2, 4)]:
        ctx = build_field(p, n)
        assert sympy_irreducible(ctx.modulus, p), (p, n, ctx.modulus)


@pytest.mark.parametrize("p,max_degree", [(2, 8), (3, 6), (5, 4), (7, 3)])
def test_is_irreducible_matches_sympy_exhaustive(p, max_degree):
    # every monic polynomial of each degree, so both the rejections and the
    # gcd leg at composite degrees are covered
    for n in range(1, max_degree + 1):
        for code in range(p**n):
            mod = code_digits(code, p, n) + (1,)
            assert is_irreducible(mod, p) == sympy_irreducible(mod, p), (p, mod)


# the conventions behind the byte-stable reports; no report shows gen
CONVENTION_FIELDS = [(3, 3), (2, 6), (3, 4), (3, 6), (5, 3), (7, 2)]


def test_modulus_is_smallest():
    for p, n in CONVENTION_FIELDS:
        ctx = build_field(p, n)
        assert sympy_irreducible(ctx.modulus, p), (p, n)
        for smaller in range(digits_code(ctx.modulus[:n], p)):
            assert not sympy_irreducible(code_digits(smaller, p, n) + (1,), p), (p, n, smaller)


@pytest.mark.parametrize("p,n", CONVENTION_FIELDS)
def test_generator_is_smallest_full_order_code(p, n):
    # c has full order iff its log to any generator is prime to q - 1
    ctx = build_field(p, n)
    F = ref_of(ctx)
    assert ctx.gen == next(c for c in range(1, ctx.q) if math.gcd(F.log[c], ctx.q - 1) == 1)


def test_generator_has_full_order():
    for p, n in [(3, 3), (3, 5), (5, 2)]:
        ctx = build_field(p, n)
        q = ctx.q
        # order divides q-1; full order iff no proper power hits 1
        F = ref_of(ctx)
        for ell in [f for f in range(2, q) if (q - 1) % f == 0 and sympy.isprime(f)]:
            assert F.powers[(q - 1) // ell] != 1  # a product of polynomials
            assert ctx.exp[(q - 1) // ell] != 1


def test_mul_matches_polynomial_route_exhaustive_q27():
    ctx = build_field(3, 3)
    F = ref_of(ctx)
    for x in range(ctx.q):
        for y in range(ctx.q):
            assert tmul(ctx, x, y) == F.poly_mul(x, y)


def test_field_axioms_exhaustive_q27():
    ctx = build_field(3, 3)
    add = ref_of(ctx).add  # digit-wise, the addition the codes stand for
    els = list(range(ctx.q))
    for x in els:
        for y in els:
            assert add(x, y) == add(y, x)
            assert tmul(ctx, x, y) == tmul(ctx, y, x)
    rng = random.Random(7)
    for _ in range(500):
        x, y, z = rng.choice(els), rng.choice(els), rng.choice(els)
        assert add(add(x, y), z) == add(x, add(y, z))
        assert tmul(ctx, tmul(ctx, x, y), z) == tmul(ctx, x, tmul(ctx, y, z))
        assert tmul(ctx, x, add(y, z)) == add(tmul(ctx, x, y), tmul(ctx, x, z))


def test_field_axioms_random_q243():
    ctx = build_field(3, 5)
    add = ref_of(ctx).add
    rng = random.Random(11)
    for _ in range(300):
        x, y, z = (rng.randrange(ctx.q) for _ in range(3))
        assert add(add(x, y), z) == add(x, add(y, z))
        assert tmul(ctx, x, add(y, z)) == add(tmul(ctx, x, y), tmul(ctx, x, z))
        assert tmul(ctx, tmul(ctx, x, y), z) == tmul(ctx, x, tmul(ctx, y, z))


def test_inverse_and_negation():
    ctx = build_field(3, 5)
    F = ref_of(ctx)
    for x in range(1, ctx.q):
        inv = int(ctx.exp[-ctx.index(x) % (ctx.q - 1)])
        assert F.poly_mul(x, inv) == 1
        assert tmul(ctx, x, ctx.p - 1) == F.neg(x)  # the code p - 1 is -1
    with pytest.raises(FieldError):
        ctx.index(0)  # zero has no discrete log, hence no inverse


def test_trace_linear_and_surjective():
    for p, n in [(3, 5), (5, 2)]:
        ctx = build_field(p, n)
        tr = ctx.trace_table
        fibers = np.bincount(tr, minlength=p)
        assert list(fibers) == [ctx.q // p] * p
        F = ref_of(ctx)
        rng = random.Random(3)
        for _ in range(200):
            x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
            assert tr[F.add(x, y)] == (tr[x] + tr[y]) % p
        # x + x^p + ... + x^(p^(n-1)), term by term
        assert tr.tolist() == [F.trace(x) for x in range(ctx.q)]


def test_frobenius_additive_exhaustive_q243():
    ctx = build_field(3, 5)
    add = ref_of(ctx).add
    frob = [tpow(ctx, x, 3) for x in range(ctx.q)]
    for x in range(ctx.q):
        for y in range(x, ctx.q):
            assert frob[add(x, y)] == add(frob[x], frob[y])


def test_frobenius_matches_cube_all_elements():
    ctx = build_field(3, 5)
    F = ref_of(ctx)
    for x in range(ctx.q):
        cube = F.poly_mul(F.poly_mul(x, x), x)
        assert tpow(ctx, x, 3) == cube
        assert tpow(ctx, x, 3**ctx.n) == x  # Frobenius has order n
    assert tpow(ctx, 0, 3**3) == 0


def test_index_roundtrip():
    for p, n in [(3, 5), (3, 9), (2, 7)]:
        ctx = build_field(p, n)
        assert np.array_equal(ctx.log[ctx.exp], np.arange(ctx.q - 1))
        assert ctx.log[0] == -1


@pytest.mark.parametrize(
    "p,n", [(2, 5), (3, 1), (3, 7), (5, 3), (7, 2), (1009, 1), (3, 9)]
)
def test_exp_table_steps_by_generator(p, n):
    # the block-filled table against one polynomial multiplication per step
    ctx = build_field(p, n)
    Q = ctx.q - 1
    exp = ctx.exp.tolist()
    assert exp[0] == 1
    assert exp == ref_of(ctx).powers
    assert np.array_equal(np.sort(ctx.exp), np.arange(1, ctx.q))
    assert np.array_equal(ctx.log[ctx.exp], np.arange(Q))


def test_quadratic_character():
    ctx = build_field(3, 5)
    assert ctx.eta(0) == 0
    F = ref_of(ctx)
    assert F.neg(1) == ctx.p - 1  # the code kernel_curve reads as -1
    assert ctx.eta(F.neg(1)) == -1  # -1 is a non-square when n is odd
    assert sum(ctx.eta(x) for x in range(1, ctx.q)) == 0
    squares = {F.poly_mul(x, x) for x in range(1, ctx.q)}
    for x in range(1, ctx.q):
        assert ctx.eta(x) == (1 if x in squares else -1)


@pytest.mark.parametrize(
    "p,width,images",
    [
        (2, 4, [[1, 1], [0, 1, 1], [1, 0, 1, 1], [1]]),  # images shorter than the width
        (3, 3, [[2, 1, 2], [0, 0, 1], [1, 2]]),
        (3, 1, [[2], [0], [1], [1], [2]]),  # the trace table's shape
        (5, 2, [[4, 3], [1, 4], [0, 2]]),
        (1009, 1, [[1008]]),  # planes wider than int8
        (1009, 2, [[17, 1008], [1008, 0]]),
    ],
)
def test_linear_table_matches_digit_by_digit_oracle(p, width, images):
    table = ff._linear_table(images, p, width)
    assert table.dtype == np.int64
    assert table.tolist() == linear_table_naive(images, p, width)


@pytest.fixture
def fresh_fields():
    # _build_field is cached per (p, n); rebuild under the test's EXP_BLOCK
    ff._build_field.cache_clear()
    yield
    ff._build_field.cache_clear()


@pytest.mark.parametrize("p,n", [(2, 5), (3, 7), (5, 3), (7, 2), (1009, 1), (3, 9)])
def test_exp_block_does_not_change_the_tables(monkeypatch, fresh_fields, p, n):
    default = build_field(p, n)
    for block in (7, p**n):  # a ragged last block; one block of all q - 1 powers
        monkeypatch.setattr(ff, "EXP_BLOCK", block)
        ff._build_field.cache_clear()
        ctx = build_field(p, n)
        assert ctx is not default
        for name in ("exp", "log", "trace_table"):
            got, want = getattr(ctx, name), getattr(default, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (block, name)


@pytest.mark.parametrize("p,n", [(3, 5), (5, 3), (2, 5)])
def test_zech_log_matches_reference_field(p, n):
    ctx = build_field(p, n)
    F = ref_of(ctx)
    Q = ctx.q - 1
    want = []
    for k in range(Q):
        s = F.add(1, F.powers[k])
        want.append(F.log[s] if s else -1)
    assert ctx.zech(np.arange(Q, dtype=np.int64)).tolist() == want
    # 1 + gen^k = 0 exactly where gen^k = -1: k = Q/2 for odd p, k = 0 for p = 2
    assert [k for k, z in enumerate(want) if z == -1] == [Q // 2 if p % 2 else 0]


def test_ceiling_check_from_logarithms_agrees_with_exact_powers(monkeypatch):
    # near the boundary the powers are compared exactly
    for p, n in [(2, 64), (3, 13), (3, 40), (5, 200), (1009, 7)]:
        q = p**n
        assert ff.power_exceeds(p, n, q - 1)
        assert not ff.power_exceeds(p, n, q)
        assert not ff.power_exceeds(p, n, q + 1)
    # the stated figures, from the exact value's decimal digits
    def stated(p, n, entry_bytes):
        v = p**n if entry_bytes is None else (p**n * entry_bytes + 2**19) // 2**20
        if v < 10**18:
            return str(v) if entry_bytes is None else f"~{v}"
        return f"~10^{len(str(v)) - 1}"

    cases = [(2, 59, 24), (2, 60, 24), (3, 37, None), (3, 38, None), (3, 38, 9),
             (7, 21, 24), (1009, 7, None), (1594301, 3, 24), (2, 2000, 24),
             (2, 2000, None), (3, 2000, 10), (10007, 900, None)]
    want = [stated(p, n, eb) for p, n, eb in cases]
    assert want[2:4] == ["450283905890997363", "~10^18"]
    assert [ff._stated(p, n, eb) for p, n, eb in cases] == want
    # every figure computed exactly instead, as for a value next to a power of ten
    monkeypatch.setattr(ff, "_NEAR", 0)
    assert [ff._stated(p, n, eb) for p, n, eb in cases] == want
