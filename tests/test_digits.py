"""Digit weights, the carry lemma, and the divisibility bound."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import CarryError, closed_form_carries, digits_code, weight

from triweil import digits
from triweil.digits import (
    canonical_digits,
    family_params,
    family_witness,
    stickelberger_bound,
    verify_divisibility,
    weight_table,
)
from triweil.ff import FieldError
from triweil.report import passed


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
    assert closed_form_carries([1, 2, 0, 1, 2], [1, 2, 0, 1, 2], 3, 5) == [0] * 5


def test_carry_adding_modulus_gives_ones():
    s = [d + 2 for d in (0, 1, 2, 0, 1)]
    assert closed_form_carries(s, [0, 1, 2, 0, 1], 3, 5) == [1] * 5


def test_carry_rejects_incongruent():
    with pytest.raises(CarryError):
        closed_form_carries([1, 0, 0, 0, 0], [2, 0, 0, 0, 0], 3, 5)


def test_carry_multiply_by_d_example():
    # s represents d*x for x = 1, d = 83 = 2 + 3^4, n = 5
    n, r = 5, 4
    x = canonical_digits(1, 3, n)
    s = [2 * x[i] + x[(i - r) % n] for i in range(n)]
    t = list(canonical_digits(83, 3, n))
    c = closed_form_carries(s, t, 3, n)
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
    assert closed_form_carries(s, t, b, n) == c


def _value(digs, b):
    return sum(v * b**i for i, v in enumerate(digs))


@st.composite
def _incongruent_pairs(draw):
    """(s, t, b, n): arbitrary integer lists, t shifted at one index so that
    it differs from s by a nonzero residue mod b^n - 1."""
    b = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=2, max_value=8))
    m = b**n - 1
    s = draw(st.lists(st.integers(-100, 100), min_size=n, max_size=n))
    t = draw(st.lists(st.integers(-100, 100), min_size=n, max_size=n))
    k = draw(st.integers(0, n - 1))
    off = draw(st.integers(1, m - 1))
    # adding delta to t_k adds delta * b^k to the value of t
    delta = (_value(s, b) - _value(t, b) - off) * pow(b, -k, m) % m
    t[k] += delta + draw(st.integers(-3, 3)) * m
    return s, t, b, n


@settings(max_examples=200)
@given(_incongruent_pairs())
def test_carry_sequence_rejects_incongruent(case):
    s, t, b, n = case
    m = b**n - 1
    residue = (_value(s, b) - _value(t, b)) % m
    with pytest.raises(CarryError, match=f"^digit lists differ by residue {residue} mod {m}$"):
        closed_form_carries(s, t, b, n)


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


def test_stickelberger_refuses_p_below_2_at_once():
    # as build_field does, before the ceiling check, which needs p >= 0
    t0 = time.perf_counter()
    for p in (-3, -2, 0, 1):
        with pytest.raises(FieldError, match=f"^p = {p} is not prime$"):
            stickelberger_bound(p, 10**7, 5)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("n", [-1, 0])
def test_stickelberger_refuses_degree_below_1(n):
    # build_field's message, before the ceiling check or the gcd with p^n - 1
    with pytest.raises(FieldError, match=f"^extension degree must be >= 1, got {n}$"):
        stickelberger_bound(3, n, 5)


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
        assert passed(rep.checks), [c.line() for c in rep.checks if not c.ok]
        assert rep.min_weight_sum == n + 1
