"""Mechanical checks for the combinatorial divisibility argument.

The argument constrains a weight-sum minimizer x (with z = -d*x) through
five local digit surgeries, reduces the per-position digit/carry data to
nine admissible motifs, chains motifs into ten start-to-end sequences,
and concludes that a doubly-minimal x decomposes into S2/S4 blocks only.
Everything here is re-derived from the defining constraints.  Each
surgery's identity is checked here (surgery_identity_holds); its weight
contracts, at every pivot of every residue, by check_surgery in
tests/oracles.py.

The final claim is checked at every minimizer.  Each nonzero residue is
one closed walk in the carry graph (the argument is in the motif_graph
docstring), so the weight-sum minimizers are the maximum-cost walks, and
a motif word is read off the walk that motif_graph.trace_cycle derives.
The tests hold this walk route equal to the exhaustive weight-table scan
digits.weight_sums.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

from . import digits, motif_graph
from .report import Check

# ---------------------------------------------------------------------------
# Surgeries.  Digit positions are (const + rmult*r) away from the pivot i;
# term lists are (coefficient, (const, rmult)) meaning coeff * 3^(i+const+rmult*r).

_Cond = tuple[str, tuple[int, int], int]  # (variable, offset, minimum digit)
_Term = tuple[int, tuple[int, int]]


class Surgery(NamedTuple):
    sid: str
    conditions: tuple[_Cond, ...]
    delta_x: tuple[_Term, ...]
    delta_z: tuple[_Term, ...]


SURGERIES: dict[str, Surgery] = {
    s.sid: s
    for s in (
        Surgery(
            "I",
            conditions=(("x", (0, 0), 1), ("z", (0, 0), 1)),
            delta_x=((-1, (0, 0)),),
            delta_z=((-1, (0, 0)), (1, (1, 0)), (1, (0, 1))),
        ),
        Surgery(
            "II",
            conditions=(("x", (0, 0), 2), ("z", (0, 1), 1)),
            delta_x=((-2, (0, 0)),),
            delta_z=((1, (0, 0)), (1, (1, 0)), (-1, (0, 1)), (1, (1, 1))),
        ),
        Surgery(
            "III",
            conditions=(("x", (0, 0), 2), ("z", (0, 2), 1)),
            delta_x=((-2, (0, 0)), (1, (0, 1))),
            delta_z=((1, (0, 0)), (1, (1, 0)), (-1, (0, 2))),
        ),
        Surgery(
            "IV",
            conditions=(("x", (0, 0), 2), ("x", (0, 2), 2)),
            delta_x=((-2, (0, 0)), (1, (0, 1)), (-2, (0, 2)), (1, (0, 3))),
            delta_z=((1, (0, 0)), (1, (1, 2))),
        ),
        Surgery(
            "V",
            conditions=(("x", (0, 0), 2), ("x", (0, 2), 1), ("z", (0, 3), 1)),
            delta_x=((-2, (0, 0)), (1, (0, 1)), (-1, (0, 2)), (1, (0, 3))),
            delta_z=((1, (0, 0)), (1, (0, 2)), (-1, (0, 3))),
        ),
    )
}


def _term_value(terms: tuple[_Term, ...], i: int, r: int, n: int, m: int) -> int:
    return sum(c * pow(3, (i + const + rmult * r) % n, m) for c, (const, rmult) in terms) % m


def surgery_identity_holds(sid: str, n: int, r: int, i: int = 0) -> bool:
    """Does delta_z = -d * delta_x hold mod 3^n - 1 for this (n, r)?

    The first three surgeries hold for any r; IV and V need 4r = 1 mod n.
    """
    s = SURGERIES[sid]
    m = 3**n - 1
    d = (2 + pow(3, r % n, m)) % m
    dx = _term_value(s.delta_x, i, r, n, m)
    dz = _term_value(s.delta_z, i, r, n, m)
    return (dz + d * dx) % m == 0


# ---------------------------------------------------------------------------
# Motifs: admissible per-position values (X_{j-1}, X_j, Z_j, C_{j-4}, C_j).


class Motif(NamedTuple):
    name: str
    x_prev: int
    x: int
    z: int
    c_in: int
    c_out: int

    @property
    def values(self) -> tuple[int, int, int, int, int]:
        return (self.x_prev, self.x, self.z, self.c_in, self.c_out)


MOTIF_TABLE: tuple[Motif, ...] = (
    Motif("1A", 0, 0, 1, 1, 0),
    Motif("1B", 1, 0, 0, 1, 0),
    Motif("2A", 0, 0, 2, 0, 0),
    Motif("2B", 0, 1, 0, 0, 0),
    Motif("2C", 1, 0, 1, 0, 0),
    Motif("2D", 2, 0, 0, 0, 0),
    Motif("4A", 0, 2, 0, 1, 1),
    Motif("4B", 2, 1, 0, 1, 1),
    Motif("5A", 1, 2, 0, 0, 1),
)

_MOTIF_BY_VALUES = {m.values: m for m in MOTIF_TABLE}


def derive_motifs() -> tuple[Motif, ...]:
    """Re-derive the motif list from first principles.

    Enumerates all digit/carry combinations satisfying the balance
    relation 2 + 3*C_j = 2*X_j + X_{j-1} + Z_j + C_{j-4}, minus the
    combinations killed by the first two surgeries (X_j and Z_j both
    nonzero; X_{j-1} = 2 with Z_j nonzero).  Asserts the result matches
    the nine known rows.
    """
    derived = set()
    for x_prev, x, z in product(range(3), repeat=3):
        for c_in, c_out in product(range(2), repeat=2):
            if 2 + 3 * c_out != 2 * x + x_prev + z + c_in:
                continue
            if x >= 1 and z >= 1:
                continue  # surgery I would apply
            if x_prev == 2 and z >= 1:
                continue  # surgery II would apply (shifted one position)
            derived.add((x_prev, x, z, c_in, c_out))
    if derived != set(_MOTIF_BY_VALUES):
        raise AssertionError(f"derived motifs {sorted(derived)} differ from table")
    return tuple(sorted((_MOTIF_BY_VALUES[v] for v in derived), key=lambda m: m.name))


# ---------------------------------------------------------------------------
# Sequences: start-to-end chains in the succession digraph.


class SequencePattern(NamedTuple):
    name: str
    motifs: tuple[str, ...]


SEQUENCE_TABLE: tuple[SequencePattern, ...] = (
    SequencePattern("S1", ("1A",)),
    SequencePattern("S2", ("2A",)),
    SequencePattern("S3", ("2B", "1B")),
    SequencePattern("S4", ("2B", "2C")),
    SequencePattern("S5", ("2B", "5A", "2D")),
    SequencePattern("S6", ("2B", "5A", "4B", "1B")),
    SequencePattern("S7", ("2B", "5A", "4B", "2C")),
    SequencePattern("S8", ("4A", "2D")),
    SequencePattern("S9", ("4A", "4B", "1B")),
    SequencePattern("S10", ("4A", "4B", "2C")),
)

FORBIDDEN_EDGE = ("4B", "5A")


def succession_edges() -> set[tuple[str, str]]:
    """M -> N iff M's X_j matches N's X_{j-1}, minus the forbidden edge."""
    edges = {
        (m.name, nxt.name)
        for m in MOTIF_TABLE
        for nxt in MOTIF_TABLE
        if m.x == nxt.x_prev
    }
    edges.discard(FORBIDDEN_EDGE)
    return edges


def enumerate_sequences() -> tuple[SequencePattern, ...]:
    """All start-to-end motif chains with non-start/non-end interiors.

    Grows chains from every starting motif on a worklist until each ends.
    No successor needs a start test: a successor N of a non-ending motif M
    has N's X_{j-1} = M's X_j != 0, so N is never a start.  Asserts that
    the enumeration gives exactly the ten known sequences.
    """
    by_name = {m.name: m for m in MOTIF_TABLE}
    edges = succession_edges()
    found: set[tuple[str, ...]] = set()
    chains = [(m.name,) for m in MOTIF_TABLE if m.x_prev == 0]
    while chains:
        path = chains.pop()
        if by_name[path[-1]].x == 0:
            found.add(path)
        else:
            chains.extend(path + (b,) for a, b in edges if a == path[-1])

    expected = {s.motifs for s in SEQUENCE_TABLE}
    if found != expected:
        raise AssertionError(f"enumerated sequences {sorted(found)} differ from table")
    by_motifs = {s.motifs: s for s in SEQUENCE_TABLE}
    return tuple(sorted((by_motifs[f] for f in found), key=lambda s: int(s.name[1:])))


# ---------------------------------------------------------------------------
# The conclusion, checked at every minimizer.


def motif_word(n: int, x: int) -> tuple[str, ...]:
    """The cyclic motif word of a candidate minimizer x (z = -d*x).

    Position j reads X_{j-1}, X_j and C_{j-4} off the walk's vertex T_j
    and C_j off T_{j+1}; the balance 2 + 3*C_j = 2*X_j + X_{j-1} + Z_j +
    C_{j-4} gives Z_j.
    """
    trace = motif_graph._trace(n, x)
    T = [motif_graph.vertex_tuple(v) for v in trace.walk]
    word = []
    for j in range(n):
        x_prev, x_j, c_in = T[j][:3]
        c_out = T[(j + 1) % n][5]
        values = (x_prev, x_j, 2 + 3 * c_out - 2 * x_j - x_prev - c_in, c_in, c_out)
        motif = _MOTIF_BY_VALUES.get(values)
        if motif is None:
            raise AssertionError(f"position {j} of x = {trace.x} is no motif: {values}")
        word.append(motif.name)
    return tuple(word)


def decompose_s2_s4(word: tuple[str, ...]) -> dict[str, int] | None:
    """Split a cyclic motif word into S2 (2A) and S4 (2B-2C) blocks.

    Returns block counts, or None if the word uses any other motif or
    breaks a 2B-2C pairing.
    """
    n = len(word)
    if any(w not in ("2A", "2B", "2C") for w in word):
        return None
    for j, w in enumerate(word):
        if w == "2B" and word[(j + 1) % n] != "2C":
            return None
        if w == "2C" and word[(j - 1) % n] != "2B":
            return None
    return {"S2": word.count("2A"), "S4": word.count("2B")}


class MinimizerReport(NamedTuple):
    n: int
    r: int
    d: int
    k: int  # weight of every doubly-minimal x
    min_weight_sum: int
    num_minimizers: int
    num_doubly_minimal: int
    checks: list[Check]


def check_minimizer_structure(n: int, *, ceiling: int | None = None) -> MinimizerReport:
    """Check the final structure claim at every minimizer.

    Finds every nonzero x minimizing w(x) + w(-d*x), as the maximum-cost
    closed walks of motif_graph.walk_extremes (the motif_graph docstring
    says why), restricts to those with minimal w(x), and checks that each
    decomposes into S2/S4 blocks with w(x) = k = (n-1)/2 and
    w(x) + w(z) = 2n - 2k = n + 1.  The ceiling still admits only
    3^n <= ceiling.
    """
    fam = digits.admitted_family(n, ceiling)
    walks = motif_graph.walk_extremes(n)
    min_sum = walks.min_weight_sum
    k = min(walks.weights)
    doubly = [x for x, w in zip(walks.minimizers, walks.weights) if w == k]

    bad_words = []
    s4_counts = set()
    for x in doubly:
        word = motif_word(n, x)
        blocks = decompose_s2_s4(word)
        if blocks is None:
            bad_words.append((x, word))
        else:
            s4_counts.add(blocks["S4"])

    checks = [
        Check("minimizer.weight-sum", n + 1, min_sum),
        Check("minimizer.k", (n - 1) // 2, k),
        Check("minimizer.s2-s4-only", [], bad_words),
        Check("minimizer.s4-count", {k}, s4_counts),
        Check("minimizer.witness-doubly-minimal", True, digits.family_witness(n) in doubly),
    ]
    return MinimizerReport(
        n=n, r=fam.r, d=fam.d, k=k,
        min_weight_sum=min_sum,
        num_minimizers=len(walks.minimizers),
        num_doubly_minimal=len(doubly),
        checks=checks,
    )
