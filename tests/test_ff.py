"""Field construction and arithmetic, cross-checked against an
independent polynomial-arithmetic implementation and sympy."""

import random

import numpy as np
import pytest
import sympy

from triweil.ff import FieldError, build_field, code_digits, digits_code, is_irreducible


# naive polynomial-route multiplication, independent of the log tables
def poly_mul(ctx, x, y):
    p, n = ctx.p, ctx.n
    a, b = ctx.digits(x), ctx.digits(y)
    res = [0] * (2 * n - 1)
    for i in range(n):
        for j in range(n):
            res[i + j] = (res[i + j] + a[i] * b[j]) % p
    for k in range(2 * n - 2, n - 1, -1):
        c = res[k]
        if c:
            res[k] = 0
            for j in range(n):
                res[k - n + j] = (res[k - n + j] - c * ctx.modulus[j]) % p
    return digits_code(res[:n], p)


def test_prime_field_trivial():
    ctx = build_field(3, 1)
    assert ctx.q == 3
    assert ctx.modulus == (0, 1)
    assert [ctx.trace(x) for x in range(3)] == [0, 1, 2]


def test_trace_of_one_is_n_mod_p():
    ctx = build_field(3, 5)
    assert ctx.trace(1) == 5 % 3 == 2


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
        x = sympy.symbols("x")
        poly = sympy.Poly(list(reversed(ctx.modulus)), x, modulus=p)
        assert poly.is_irreducible, (p, n, ctx.modulus)


def test_modulus_is_smallest():
    ctx = build_field(3, 3)
    code = digits_code(ctx.modulus[:3], 3)
    for smaller in range(code):
        mod = code_digits(smaller, 3, 3) + (1,)
        assert not is_irreducible(mod, 3)


def test_generator_has_full_order():
    for p, n in [(3, 3), (3, 5), (5, 2)]:
        ctx = build_field(p, n)
        q = ctx.q
        # order divides q-1; full order iff no proper power hits 1
        for ell in [f for f in range(2, q) if (q - 1) % f == 0 and sympy.isprime(f)]:
            assert ctx.pow(ctx.gen, (q - 1) // ell) != 1


def test_mul_matches_polynomial_route_exhaustive_q27():
    ctx = build_field(3, 3)
    for x in ctx.elements():
        for y in ctx.elements():
            assert ctx.mul(x, y) == poly_mul(ctx, x, y)


def test_field_axioms_exhaustive_q27():
    ctx = build_field(3, 3)
    els = list(ctx.elements())
    for x in els:
        for y in els:
            assert ctx.add(x, y) == ctx.add(y, x)
            assert ctx.mul(x, y) == ctx.mul(y, x)
    rng = random.Random(7)
    for _ in range(500):
        x, y, z = rng.choice(els), rng.choice(els), rng.choice(els)
        assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
        assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
        assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))


def test_field_axioms_random_q243():
    ctx = build_field(3, 5)
    rng = random.Random(11)
    for _ in range(300):
        x, y, z = (rng.randrange(ctx.q) for _ in range(3))
        assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
        assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
        assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))


def test_inverse_and_negation():
    ctx = build_field(3, 5)
    for x in range(1, ctx.q):
        assert ctx.mul(x, ctx.inv(x)) == 1
        assert ctx.add(x, ctx.neg(x)) == 0
    with pytest.raises(FieldError):
        ctx.inv(0)


def test_trace_linear_and_surjective():
    for p, n in [(3, 5), (5, 2)]:
        ctx = build_field(p, n)
        fibers = np.bincount(ctx.trace_table, minlength=p)
        assert list(fibers) == [ctx.q // p] * p
        rng = random.Random(3)
        for _ in range(200):
            x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
            assert ctx.trace(ctx.add(x, y)) == (ctx.trace(x) + ctx.trace(y)) % p


def test_frobenius_additive_exhaustive_q243():
    ctx = build_field(3, 5)
    for x in ctx.elements():
        for y in range(x, ctx.q):
            assert ctx.frobenius(ctx.add(x, y), 1) == ctx.add(
                ctx.frobenius(x, 1), ctx.frobenius(y, 1)
            )


def test_frobenius_matches_cube_all_elements():
    ctx = build_field(3, 5)
    for x in ctx.elements():
        cube = poly_mul(ctx, poly_mul(ctx, x, x), x)
        assert ctx.frobenius(x, 1) == cube
        assert ctx.frobenius(x, ctx.n) == x  # Frobenius has order n
    assert ctx.frobenius(0, 3) == 0


def test_index_roundtrip():
    for p, n in [(3, 5), (3, 9), (2, 7)]:
        ctx = build_field(p, n)
        assert np.array_equal(ctx.log[ctx.exp], np.arange(ctx.q - 1))
        assert ctx.log[0] == -1


@pytest.mark.parametrize(
    "p,n", [(2, 5), (3, 1), (3, 7), (5, 3), (7, 2), (1009, 1), (3, 9)]
)
def test_exp_table_steps_by_generator(p, n):
    # the doubled table against one polynomial-route multiplication per step
    ctx = build_field(p, n)
    Q = ctx.q - 1
    exp = ctx.exp.tolist()
    assert exp[0] == 1
    for i in range(Q):
        assert exp[(i + 1) % Q] == poly_mul(ctx, exp[i], ctx.gen), i
    assert np.array_equal(np.sort(ctx.exp), np.arange(1, ctx.q))
    assert np.array_equal(ctx.log[ctx.exp], np.arange(Q))


@pytest.mark.parametrize("p,n", [(2, 7), (3, 5), (5, 3), (7, 2), (1009, 1)])
def test_add_neg_on_arrays_match_scalars(p, n):
    ctx = build_field(p, n)
    rng = np.random.default_rng(5)
    x = rng.integers(0, ctx.q, 500)
    y = rng.integers(0, ctx.q, 500)
    x0, y0 = x.copy(), y.copy()
    s, m = ctx.add(x, y), ctx.neg(x)
    assert s.dtype == m.dtype == np.int64
    assert s.tolist() == [ctx.add(a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert m.tolist() == [ctx.neg(a) for a in x.tolist()]
    assert np.array_equal(x, x0) and np.array_equal(y, y0)  # inputs untouched
    assert type(ctx.add(int(x[0]), int(y[0]))) is int
    assert type(ctx.neg(int(x[0]))) is int
    assert type(ctx.add(x[0], y[0])) is int  # numpy scalars in, Python int out


def test_quadratic_character():
    ctx = build_field(3, 5)
    assert ctx.eta(0) == 0
    minus_one = ctx.neg(1)
    assert ctx.eta(minus_one) == -1  # -1 is a non-square when n is odd
    assert sum(ctx.eta(x) for x in range(1, ctx.q)) == 0
    squares = {ctx.mul(x, x) for x in range(1, ctx.q)}
    for x in range(1, ctx.q):
        assert ctx.eta(x) == (1 if x in squares else -1)
