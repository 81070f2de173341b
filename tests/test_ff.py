"""Field construction and its tables, cross-checked against the
independent polynomial-arithmetic field of tests/oracles.py and sympy."""

import itertools
import math
import random
import time

import numpy as np
import pytest
import sympy
from oracles import digits_code, linear_table_naive, ref_of

from triweil import ff
from triweil.ff import FieldError, build_field, code_digits
from triweil.weil import weil_sum


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
    # square root of the prime cofactor; the ceiling admits q, so the
    # refusal comes from is_prime
    t0 = time.perf_counter()
    with pytest.raises(FieldError, match="not prime"):
        build_field(2 * (10**18 + 3), 1, ceiling=10**19)
    assert time.perf_counter() - t0 < 1.0


def test_p_below_2_is_refused_before_its_power_is_built():
    # the ceiling check's exact test needs p >= 0, so such a p is refused
    # as not prime without it: (-3)^(10^9) is a 200 MB integer
    t0 = time.perf_counter()
    for p in (-3, -2, 0, 1):
        with pytest.raises(FieldError, match="not prime"):
            build_field(p, 10**9)
    assert time.perf_counter() - t0 < 1.0


def sympy_irreducible(mod, p):
    return sympy.Poly(list(reversed(mod)), sympy.symbols("x"), modulus=p).is_irreducible


def test_prime_field_trivial():
    ctx = build_field(3, 1)
    assert ctx.q == 3
    assert ctx.modulus == (0, 1)
    assert ctx.gen == 2
    assert ctx.trace_table.tolist() == [1, 2]  # Tr(gen^0), Tr(gen^1): by log


def test_trace_of_one_is_n_mod_p():
    ctx = build_field(3, 5)
    assert ctx.trace_table[0] == 5 % 3 == 2  # gen^0 = 1


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
            assert bool(ff._irreducible(np.array([mod]), p)[0]) == sympy_irreducible(mod, p), (p, mod)


@pytest.mark.parametrize("p,n", [(2, 8), (3, 6), (5, 4), (7, 3)])
def test_irreducible_on_one_stack_matches_sympy(p, n):
    # every monic polynomial of degree n tested as one stack, as the modulus
    # search tests its batches: each row must get its own verdict
    mods = np.array([code_digits(code, p, n) + (1,) for code in range(p**n)])
    got = ff._irreducible(mods, p)
    assert got.dtype == bool and got.shape == (p**n,)
    assert got.tolist() == [sympy_irreducible(tuple(m), p) for m in mods.tolist()]


# the conventions behind the byte-stable reports; no report shows gen
CONVENTION_FIELDS = [(3, 3), (2, 6), (3, 4), (3, 6), (5, 3), (7, 2)]


def test_modulus_is_smallest():
    for p, n in CONVENTION_FIELDS:
        ctx = build_field(p, n)
        assert sympy_irreducible(ctx.modulus, p), (p, n)
        for smaller in range(digits_code(ctx.modulus[:n], p)):
            assert not sympy_irreducible(code_digits(smaller, p, n) + (1,), p), (p, n, smaller)
    # the fields of the goldens and the benchmark, and 3^15 past the default
    # ceiling, through the search alone: the first code sympy calls irreducible
    for p, n in [(3, 7), (3, 9), (3, 11), (5, 6), (7, 5), (2, 10), (2, 12), (3, 15)]:
        mods = (code_digits(code, p, n) + (1,) for code in itertools.count())
        first = next(mod for mod in mods if sympy_irreducible(mod, p))
        assert ff._smallest_modulus(p, n) == first, (p, n)


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
        F = ref_of(ctx)
        # the table is indexed by log: x + x^p + ... + x^(p^(n-1)) at
        # x = gen^u, term by term
        assert ctx.trace_table.tolist() == [F.trace(x) for x in F.powers]
        fibers = np.bincount(ctx.trace_table, minlength=p)
        assert list(fibers) == [ctx.q // p - 1] + [ctx.q // p] * (p - 1)  # x = 0 is no power

        def tr(x):
            return 0 if x == 0 else int(ctx.trace_table[F.log[x]])

        rng = random.Random(3)
        for _ in range(200):
            x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
            assert tr(F.add(x, y)) == (tr(x) + tr(y)) % p


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
    # the character the kernel routes read off the logs: squares have even logs
    ctx = build_field(3, 5)
    F = ref_of(ctx)
    assert F.neg(1) == ctx.p - 1  # the code kernel_curve reads as -1
    assert ctx.index(F.neg(1)) % 2 == 1  # -1 is a non-square when n is odd
    squares = {F.poly_mul(x, x) for x in range(1, ctx.q)}
    assert len(squares) == (ctx.q - 1) // 2
    for x in range(1, ctx.q):
        assert (x in squares) == (ctx.index(x) % 2 == 0), x


def test_field_tables_are_read_only():
    # build_field shares one context per (p, n): a write would reach every caller
    ctx = build_field(3, 5)
    for name in ("exp", "log", "trace_table"):
        table = getattr(ctx, name)
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 2
    assert build_field(3, 5).exp[0] == 1


def test_index_and_weil_sum_refuse_codes_outside_the_field():
    # log[-1] is the log of code q - 1, so an unchecked index(-1) would
    # quietly make weil_sum(ctx, d, -1) equal weil_sum(ctx, d, q - 1)
    ctx = build_field(3, 3)
    q = ctx.q
    for bad in (-1, 0, q):
        with pytest.raises(FieldError):
            ctx.index(bad)
    for bad in (-1, q):
        with pytest.raises(FieldError):
            weil_sum(ctx, 5, bad)
    assert [ctx.index(x) for x in range(1, q)] == ctx.log[1:].tolist()

@pytest.mark.parametrize(
    "p,width,images",
    [
        (2, 4, [[1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1], [1, 0, 0, 0]]),
        (3, 3, [[2, 1, 2], [0, 0, 1], [1, 2, 0]]),
        (3, 1, [[2], [0], [1], [1], [2]]),  # the trace table's shape
        (5, 2, [[4, 3], [1, 4], [0, 2]]),
        (1009, 1, [[1008]]),  # planes wider than int8
        (1009, 2, [[17, 1008], [1008, 0]]),
    ],
)
def test_linear_table_matches_digit_by_digit_oracle(p, width, images):
    table = ff._linear_table(images, p)
    assert table.dtype == np.min_scalar_type(p**width - 1)  # the narrowest that holds every code
    assert table.tolist() == linear_table_naive(images, p, width)
    packed = ff._linear_table(images, p, np.int32)  # exp's dtype, for the gather that fills exp
    assert packed.dtype == np.int32 and np.array_equal(packed, table)


@pytest.mark.parametrize("p,n", [(2, 10), (3, 5), (3, 9), (5, 4), (7, 3), (251, 2)])
def test_field_tables_fit_the_stated_bytes_per_element(p, n):
    # the refusal message states FIELD_ENTRY_BYTES per element, exact for q < 2^31 and p < 256
    ctx = build_field(p, n)
    table_bytes = ctx.exp.nbytes + ctx.log.nbytes + ctx.trace_table.nbytes
    assert table_bytes <= ff.FIELD_ENTRY_BYTES * ctx.q
    assert (ctx.exp.dtype, ctx.log.dtype, ctx.trace_table.dtype) == (np.int32, np.int32, np.uint8)


def test_index_dtype_holds_every_code_plus_one():
    # decided from q alone; no table is built
    for q in (3**19, 2**31 - 1):
        assert ff._index_dtype(q) == np.int32 and q <= np.iinfo(np.int32).max
    for q in (2**31, 3**21):
        assert ff._index_dtype(q) == np.int64


@pytest.mark.parametrize("p", [2, 3, 7, 1009])
def test_powers_match_one_product_at_a_time(p):
    n = 6
    rng = np.random.default_rng([1, p])
    M = rng.integers(0, p, size=(n, n), dtype=np.int64)
    v = rng.integers(0, p, size=n, dtype=np.int64)
    expected = [v]
    for _ in range(2 * n - 2):
        expected.append(expected[-1] @ M % p)
    assert len({tuple(row) for row in expected}) == 2 * n - 1  # no row repeats
    for count in (1, 2, 3, 5, 8, 9, 2 * n - 1):
        rows = ff._powers(v, M, p, count)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, expected[:count])


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
    # every power against limits on both sides of it and far from it
    for p in (2, 3, 5, 7, 1009, 10**18 + 3):
        powers = [p**k for k in range(81)]
        limits = [0, 1] + [pk + e for pk in powers for e in (-1, 0, 1)]
        for n in range(81):
            for limit in limits:
                assert ff.power_exceeds(p, n, limit) == (powers[n] > limit), (p, n, limit)
    # an exponent of 10^9 is decided from bit lengths alone
    t0 = time.perf_counter()
    for p in (2, 3, 1009, 10**18 + 3):
        for limit in (0, 1, 3**15, 2**64):
            assert ff.power_exceeds(p, 10**9, limit)
    assert time.perf_counter() - t0 < 1.0
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
