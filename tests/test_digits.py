"""Digit weights, the carry lemma, and the divisibility bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triweil.digits import (
    CarryError,
    canonical_digits,
    carry_sequence,
    family_carries,
    family_params,
    family_witness,
    stickelberger_bound,
    verify_divisibility,
    weight,
    weight_table,
)
from triweil.ff import digits_code


def test_weight_basics():
    assert weight(0, 3, 5) == 0
    assert weight(83, 3, 5) == 3  # digits (2, 0, 0, 0, 1)
    assert canonical_digits(83, 3, 5) == (2, 0, 0, 0, 1)
    assert weight(3**5 - 1, 3, 5) == 0  # the zero residue, not the all-2 string


def test_weight_of_family_witness_element():
    # a = 1 + 3^(2r) with r = 4 and n = 5: two digits, weight (n-1)/2
    n, r = 5, 4
    a = 1 + 3 ** ((2 * r) % n)
    assert a == 28
    assert weight(a, 3, n) == 2 == (n - 1) // 2


@pytest.mark.parametrize("b,n", [(3, 5), (3, 9), (2, 7), (5, 4), (67, 1)])
def test_weight_negation_identity_exhaustive(b, n):
    m = b**n - 1
    w = weight_table(b, n)
    j = np.arange(1, m)
    assert np.array_equal(w[j] + w[(-j) % m], np.full(m - 1, (b - 1) * n))


def test_weight_table_matches_scalar():
    w = weight_table(3, 5)
    assert w.dtype == np.int8 and w.size == 3**5 - 1
    for x in range(3**5 - 1):
        assert w[x] == weight(x, 3, 5)


@given(st.integers(min_value=0, max_value=3**7 - 2))
def test_digits_roundtrip(x):
    assert digits_code(canonical_digits(x, 3, 7), 3) == x


def test_carry_equal_lists_gives_zero():
    assert carry_sequence([1, 2, 0, 1, 2], [1, 2, 0, 1, 2], 3, 5) == [0] * 5


def test_carry_adding_modulus_gives_ones():
    s = [d + 2 for d in (0, 1, 2, 0, 1)]
    assert carry_sequence(s, [0, 1, 2, 0, 1], 3, 5) == [1] * 5


def test_carry_rejects_incongruent():
    with pytest.raises(CarryError):
        carry_sequence([1, 0, 0, 0, 0], [2, 0, 0, 0, 0], 3, 5)


def test_carry_multiply_by_d_example():
    # s represents d*x for x = 1, d = 83 = 2 + 3^4, n = 5
    n, r = 5, 4
    x = canonical_digits(1, 3, n)
    s = [2 * x[i] + x[(i - r) % n] for i in range(n)]
    t = list(canonical_digits(83, 3, n))
    c = carry_sequence(s, t, 3, n)
    assert 2 * sum(c) == sum(s) - sum(t)


@settings(max_examples=200)
@given(
    st.integers(min_value=2, max_value=5),
    st.data(),
)
def test_carry_roundtrip_arbitrary_integers(b, data):
    # build t from s and a chosen carry vector; recovery must be exact
    n = data.draw(st.integers(min_value=2, max_value=8))
    s = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    c = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    t = [s[i] + c[(i - 1) % n] - b * c[i] for i in range(n)]
    assert carry_sequence(s, t, b, n) == c


def test_stickelberger_family_bounds():
    assert stickelberger_bound(3, 5, 83).m == 6
    assert stickelberger_bound(3, 7, 11).m == 8
    for n, d in [(5, 83), (7, 11)]:
        rep = stickelberger_bound(3, n, d)
        assert rep.alt_form_equal
        assert rep.witness == rep.minimizers[0]
        w = weight_table(3, n)
        m_mod = 3**n - 1
        for j in rep.minimizers:
            assert w[j] + w[(-d * j) % m_mod] == rep.m


@pytest.mark.parametrize("d", [5, 65])
def test_stickelberger_wide_digits(d):
    # base 67 needs int16 weights: at d = -1 the sum w(65) + w(65) exceeds int8
    want = min(weight(j, 67, 1) + weight(-d * j, 67, 1) for j in range(1, 66))
    rep = stickelberger_bound(67, 1, d)
    assert rep.m == want
    assert rep.alt_form_equal


@pytest.mark.parametrize("n", [5, 7])
def test_family_carries_match_multiply_by_d(n):
    # carries against the all-2 string equal those of 2x_i + x_{i-r} against d*x
    fam = family_params(n)
    for x in range(1, fam.m):
        _, _, xd, _, c = family_carries(n, x)
        s = [2 * xd[i] + xd[(i - fam.r) % n] for i in range(n)]
        assert c == carry_sequence(s, canonical_digits(fam.d * x, 3, n), 3, n)


def test_stickelberger_identity_exponent():
    rep = stickelberger_bound(3, 5, 1)
    assert rep.m == 2 * 5  # w(j) + w(-j) = (p-1)n for every nonzero j


def test_stickelberger_rejects_noncoprime():
    with pytest.raises(ValueError):
        stickelberger_bound(3, 5, 22)  # gcd(22, 242) = 22


def test_family_witness_reports():
    for n, wa, wda in [(5, 2, 4), (7, 3, 5), (9, 4, 6)]:
        rep = family_witness(n)
        assert rep.passed, [c.line() for c in rep.checks if not c.ok]
        assert weight(rep.a, 3, n) == wa
        assert weight(-rep.d * rep.a, 3, n) == wda


def test_verify_divisibility_small():
    for n in (5, 7, 11):
        rep = verify_divisibility(n)
        assert rep.passed, [c.line() for c in rep.checks if not c.ok]
        assert rep.min_weight_sum == n + 1
