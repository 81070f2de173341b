"""Surgery identities, motif derivation, sequence enumeration, and the
minimizer-structure check."""

import random

import pytest
from oracles import check_surgery, family_carries_oracle, weight

from triweil.digits import family_witness
from triweil.report import passed
from triweil.proof_lab import (
    FORBIDDEN_EDGE,
    MOTIF_TABLE,
    SEQUENCE_TABLE,
    SURGERIES,
    check_minimizer_structure,
    decompose_s2_s4,
    derive_motifs,
    enumerate_sequences,
    motif_word,
    succession_edges,
    surgery_identity_holds,
)


def test_surgery_identities_any_r_for_first_three():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.choice([5, 7, 9, 11])
        r = rng.randrange(0, n)
        i = rng.randrange(n)
        for sid in ("I", "II", "III"):
            assert surgery_identity_holds(sid, n, r, i)


def test_surgery_iv_v_need_family_r():
    for n in (5, 7, 9):
        r = pow(4, -1, n)
        for sid in ("IV", "V"):
            assert surgery_identity_holds(sid, n, r)
    # a mismatched r breaks the last two identities
    assert not surgery_identity_holds("IV", 7, 1)
    assert not surgery_identity_holds("V", 7, 1)


def test_surgeries_exhaustive_n5():
    n = 5
    applicable_seen = {sid: 0 for sid in SURGERIES}
    for x in range(1, 3**n - 1):
        for i in range(n):
            for sid in SURGERIES:
                v = check_surgery(sid, n, x, i)
                assert v.identity_ok
                if v.applicable:
                    applicable_seen[sid] += 1
                    assert v.weight_drop_ok, (sid, x, i)
                    assert v.weight_sum_ok, (sid, x, i)
    assert all(count > 0 for count in applicable_seen.values())


@pytest.mark.parametrize("n", [7, 9])
def test_surgeries_randomized(n):
    rng = random.Random(n)
    for _ in range(1000):
        x = rng.randrange(1, 3**n - 1)
        i = rng.randrange(n)
        for sid in SURGERIES:
            v = check_surgery(sid, n, x, i)
            assert v.identity_ok
            if v.applicable:
                assert v.weight_drop_ok and v.weight_sum_ok, (sid, x, i)


def test_no_surgery_applies_to_zero():
    for sid in SURGERIES:
        for i in range(5):
            assert not check_surgery(sid, 5, 0, i).applicable


def test_derive_motifs():
    motifs = derive_motifs()
    assert len(motifs) == 9
    by_name = {m.name: m for m in motifs}
    assert by_name["5A"].values == (1, 2, 0, 0, 1)
    digit_sums = [2 * m.x + m.x_prev + m.z for m in motifs]
    assert all(2 + 3 * m.c_out == s + m.c_in for m, s in zip(motifs, digit_sums))
    assert all(int(m.name[0]) == s for m, s in zip(motifs, digit_sums))
    # the surgery-I combination never appears
    assert not any(m.x >= 1 and m.z >= 1 for m in motifs)


def test_enumerate_sequences():
    seqs = enumerate_sequences()
    assert len(seqs) == 10
    by_name = {s.name: s for s in seqs}
    assert by_name["S6"].motifs == ("2B", "5A", "4B", "1B")
    assert FORBIDDEN_EDGE not in succession_edges()
    # boundary flags per the definition
    starts = {m.name for m in MOTIF_TABLE if m.x_prev == 0}
    ends = {m.name for m in MOTIF_TABLE if m.x == 0}
    for s in seqs:
        assert s.motifs[0] in starts
        assert s.motifs[-1] in ends
        for interior in s.motifs[1:-1]:
            assert interior not in starts and interior not in ends


def test_sequence_table_is_what_enumeration_returns():
    assert {s.motifs for s in enumerate_sequences()} == {s.motifs for s in SEQUENCE_TABLE}


def test_decompose_s2_s4():
    assert decompose_s2_s4(("2A", "2B", "2C", "2A")) == {"S2": 2, "S4": 1}
    assert decompose_s2_s4(("2C", "2A", "2B")) == {"S2": 1, "S4": 1}  # cyclic wrap
    assert decompose_s2_s4(("2B", "2A", "2C")) is None
    assert decompose_s2_s4(("2A", "1A")) is None


@pytest.mark.parametrize("n", [5, 7, 9])
def test_minimizer_structure(n):
    rep = check_minimizer_structure(n)
    assert passed(rep.checks), [c.line() for c in rep.checks if not c.ok]
    assert rep.k == (n - 1) // 2
    assert rep.min_weight_sum == n + 1


def test_witness_word_decomposes():
    for n in (5, 7, 9):
        a = family_witness(n)
        word = motif_word(n, a)
        blocks = decompose_s2_s4(word)
        assert blocks is not None
        assert blocks["S4"] == weight(a, 3, n)


def test_motif_word_rejects_zero():
    with pytest.raises(ValueError):
        motif_word(5, 0)


def _oracle_word(n: int, x: int) -> tuple[str, ...]:
    """The motif word of x from the closed-form carries of
    2*x_i + x_{i-r} + z_i against the all-2 string (z = -d*x)."""
    r = pow(4, -1, n)
    xd, zd, c = family_carries_oracle(n, x)
    names = {m.values: m.name for m in MOTIF_TABLE}
    word = []
    for j in range(n):
        values = (
            xd[r * (j - 1) % n], xd[r * j % n], zd[r * j % n], c[r * (j - 4) % n], c[r * j % n]
        )
        if values not in names:
            raise AssertionError(f"position {j} of x = {x} is no motif: {values}")
        word.append(names[values])
    return tuple(word)


def _word_or_raise(f, n: int, x: int):
    try:
        return f(n, x)
    except AssertionError as e:
        return str(e)


@pytest.mark.parametrize("n", [5, 7])
def test_motif_word_matches_oracle_carries_exhaustive(n):
    words = 0
    for x in range(1, 3**n - 1):
        got = _word_or_raise(motif_word, n, x)
        assert got == _word_or_raise(_oracle_word, n, x), x
        words += isinstance(got, tuple)
    assert words > 0  # some residues do have a motif word
