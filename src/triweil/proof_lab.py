"""Mechanical checks for the combinatorial divisibility argument.

The argument constrains a weight-sum minimizer x (with z = -d*x) through
five local digit surgeries, reduces the per-position digit/carry data to
nine admissible motifs, chains motifs into ten start-to-end sequences,
and concludes that a doubly-minimal x decomposes into S2/S4 blocks only.
Everything here is re-derived from the defining constraints.

The final claim is checked at every minimizer.  Each nonzero residue is
one closed walk in the carry graph (the argument is in the motif_graph
docstring), so the weight-sum minimizers are the maximum-cost walks, and
a motif word is read off the walk that motif_graph.trace_cycle derives.
The tests hold this walk route equal to the exhaustive weight-table scan
digits.weight_sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import digits, motif_graph
from .report import Check, Verdict

# ---------------------------------------------------------------------------
# Surgeries.  Digit positions are (const + rmult*r) away from the pivot i;
# term lists are (coefficient, (const, rmult)) meaning coeff * 3^(i+const+rmult*r).

_Cond = tuple[str, tuple[int, int], int]  # (variable, offset, minimum digit)
_Term = tuple[int, tuple[int, int]]


@dataclass(frozen=True)
class Surgery:
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


@dataclass(frozen=True)
class SurgeryVerdict:
    sid: str
    applicable: bool
    identity_ok: bool
    x_new: int | None
    z_new: int | None
    weight_drop_ok: bool | None  # w(x') < w(x)
    weight_sum_ok: bool | None  # w(x') + w(z') <= w(x) + w(z)


def check_surgery(sid: str, n: int, x: int, i: int) -> SurgeryVerdict:
    """Try one surgery at pivot position i of a candidate minimizer x.

    The exponent is the family's, d = 3^r + 2 with 4r = 1 mod n.
    Inapplicability (digit conditions unmet) is a normal outcome.  When
    applicable, verifies z' = -d*x' exactly and both weight contracts.
    """
    fam = digits.family_params(n)
    r, d, m = fam.r, fam.d, fam.m
    s = SURGERIES[sid]
    x %= m
    z = (-d * x) % m
    xd = digits.canonical_digits(x, 3, n)
    zd = digits.canonical_digits(z, 3, n)

    identity_ok = surgery_identity_holds(sid, n, r, i)

    digs = {"x": xd, "z": zd}
    applicable = x != 0 and all(
        digs[var][(i + const + rmult * r) % n] >= lo
        for var, (const, rmult), lo in s.conditions
    )
    if not applicable:
        return SurgeryVerdict(sid, False, identity_ok, None, None, None, None)

    x2 = (x + _term_value(s.delta_x, i, r, n, m)) % m
    z2 = (z + _term_value(s.delta_z, i, r, n, m)) % m
    if identity_ok and (z2 + d * x2) % m != 0:
        raise AssertionError("surgery produced z' != -d*x'")  # unreachable
    w = lambda v: digits.weight(v, 3, n)
    return SurgeryVerdict(
        sid=sid,
        applicable=True,
        identity_ok=identity_ok,
        x_new=x2,
        z_new=z2,
        weight_drop_ok=w(x2) < w(x),
        weight_sum_ok=w(x2) + w(z2) <= w(x) + w(z),
    )


# ---------------------------------------------------------------------------
# Motifs: admissible per-position values (X_{j-1}, X_j, Z_j, C_{j-4}, C_j).


@dataclass(frozen=True)
class Motif:
    name: str
    x_prev: int
    x: int
    z: int
    c_in: int
    c_out: int

    @property
    def values(self) -> tuple[int, int, int, int, int]:
        return (self.x_prev, self.x, self.z, self.c_in, self.c_out)

    @property
    def digit_sum(self) -> int:
        return 2 * self.x + self.x_prev + self.z


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


@dataclass(frozen=True)
class SequencePattern:
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


def is_starting(m: Motif) -> bool:
    return m.x_prev == 0


def is_ending(m: Motif) -> bool:
    return m.x == 0


def enumerate_sequences() -> tuple[SequencePattern, ...]:
    """All start-to-end motif chains with non-start/non-end interiors.

    Asserts that the enumeration gives exactly the ten known sequences.
    """
    by_name = {m.name: m for m in MOTIF_TABLE}
    edges = succession_edges()
    found: set[tuple[str, ...]] = set()

    def extend(path: tuple[str, ...]) -> None:
        last = by_name[path[-1]]
        if is_ending(last):
            found.add(path)
            return
        for a, b in edges:
            if a != path[-1]:
                continue
            nxt = by_name[b]
            if is_ending(nxt):
                found.add(path + (b,))
            elif not is_starting(nxt):
                extend(path + (b,))

    for m in MOTIF_TABLE:
        if is_starting(m):
            extend((m.name,))

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


@dataclass(frozen=True)
class MinimizerReport(Verdict):
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
