"""Digit weights, the carry lemma, and the divisibility bound."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import closed_form_carries

from triweil import digits
from triweil.digits import (
    CarryError,
    canonical_digits,
    carry_sequence,
    family_params,
    family_witness,
    stickelberger_bound,
    verify_divisibility,
    weight,
    weight_table,
)
from triweil.ff import FieldError, digits_code


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


def _value(digs, b):
    return sum(v * b**i for i, v in enumerate(digs))


@st.composite
def _digit_list_pairs(draw, congruent: bool):
    """(s, t, b, n): arbitrary integer lists, t shifted at one index so that
    it is congruent to s mod b^n - 1, or off by a nonzero residue."""
    b = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=2, max_value=8))
    m = b**n - 1
    s = draw(st.lists(st.integers(-100, 100), min_size=n, max_size=n))
    t = draw(st.lists(st.integers(-100, 100), min_size=n, max_size=n))
    k = draw(st.integers(0, n - 1))
    off = 0 if congruent else draw(st.integers(1, m - 1))
    # adding delta to t_k adds delta * b^k to the value of t
    delta = (_value(s, b) - _value(t, b) - off) * pow(b, -k, m) % m
    t[k] += delta + draw(st.integers(-3, 3)) * m
    return s, t, b, n


@settings(max_examples=300)
@given(_digit_list_pairs(congruent=True))
def test_carry_sequence_matches_closed_form(case):
    s, t, b, n = case
    assert carry_sequence(s, t, b, n) == closed_form_carries(s, t, b, n)


@settings(max_examples=200)
@given(_digit_list_pairs(congruent=False))
def test_carry_sequence_rejects_incongruent(case):
    s, t, b, n = case
    with pytest.raises(CarryError) as fast:
        carry_sequence(s, t, b, n)
    with pytest.raises(CarryError) as slow:
        closed_form_carries(s, t, b, n)
    assert str(fast.value) == str(slow.value)


def test_carry_pass_refuses_a_wrong_last_carry():
    # from a wrong c_{n-1} the recurrence either divides inexactly or, off
    # by a multiple of b^n, divides exactly but does not close the cycle
    b, n = 3, 5
    s, t = [4, -2, 7, 0, 5], [1, 2, 0, 1, 2]
    t[0] += (_value(s, b) - _value(t, b)) % (b**n - 1)
    c = carry_sequence(s, t, b, n)
    assert digits._carry_pass(s, t, b, c[-1]) == c
    with pytest.raises(AssertionError, match="not exact"):
        digits._carry_pass(s, t, b, c[-1] + 1)
    with pytest.raises(AssertionError, match="do not close"):
        digits._carry_pass(s, t, b, c[-1] + b**n)


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


def test_stickelberger_identity_exponent():
    rep = stickelberger_bound(3, 5, 1)
    assert rep.m == 2 * 5  # w(j) + w(-j) = (p-1)n for every nonzero j


def test_stickelberger_rejects_noncoprime():
    with pytest.raises(ValueError):
        stickelberger_bound(3, 5, 22)  # gcd(22, 242) = 22


def test_stickelberger_refuses_huge_n_at_once():
    # the ceiling is decided before p^n - 1 and its gcd with d are built
    t0 = time.perf_counter()
    with pytest.raises(FieldError, match="exceeds"):
        stickelberger_bound(3, 10**7 + 1, 5)
    assert time.perf_counter() - t0 < 1.0


def test_family_witness_reports():
    # the two weights sum to n + 1, the least weight sum
    for n in (5, 7, 9):
        a = family_witness(n)
        d = family_params(n).d
        assert weight(a, 3, n) == (n - 1) // 2
        assert weight(-d * a, 3, n) == (n + 3) // 2


def test_verify_divisibility_small():
    for n in (5, 7, 11):
        rep = verify_divisibility(n)
        assert rep.passed, [c.line() for c in rep.checks if not c.ok]
        assert rep.min_weight_sum == n + 1
