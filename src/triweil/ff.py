"""Exact arithmetic in GF(p^n).

Elements are integer codes in 0..q-1: an element with coordinates
(c_0, ..., c_{n-1}) in the power basis 1, alpha, ..., alpha^{n-1} has
code sum(c_i * p^i).  A FieldCtx is its tables: exp and log for a fixed
generator, and the absolute trace of every code.  Callers multiply, take
powers and apply Frobenius on discrete logs held in arrays (gen^i * gen^j
is exp[(i + j) mod q-1]); adding 1 is the Zech logarithm,
log(1 + gen^k), read off the tables for an array of logs.  The context
also reads discrete logs and the quadratic character one at a time; -1
is the code p - 1.

All tables are built once at construction; a FieldCtx is immutable, and
build_field returns one shared instance per (p, n).  The construction
multiplies elements one way only, as n x n matrices over F_p: the matrix
of an element holds the digits of its products with the basis.  The
modulus search, the generator search and the closing check raise
matrices to powers, and the trace of alpha^j is the trace of its matrix.
An F_p-linear map on codes (multiplication by gen^EXP_BLOCK, the trace)
is tabulated by _linear_table from the images of the basis, keeping
their digits as small-int planes and packing them into codes at the end.
exp is filled in blocks of EXP_BLOCK: a first block by doubling on digit
vectors, then one gather per block through the table of multiplication
by gen^EXP_BLOCK.  The construction divides no q-sized array, and the
Zech logarithm takes one residue mod p per log.  The tests check the
tables against an independent polynomial-arithmetic field.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

DEFAULT_Q_CEILING = 3**13
EXP_BLOCK = 1 << 12  # powers of the generator per gather when filling exp
CEILING_ENV_VAR = "TRIWEIL_CEILING"


class FieldError(ValueError):
    """Invalid field parameters or out-of-budget field size."""


def is_prime(m: int) -> bool:
    # stops at the first divisor, so a composite m with a small factor is
    # refused at once, however large its cofactor
    return m >= 2 and all(m % i for i in range(2, math.isqrt(m) + 1))


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, by trial division (m is small here)."""
    out = []
    i = 2
    while i * i <= m:
        if m % i == 0:
            out.append(i)
            while m % i == 0:
                m //= i
        i += 1
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# Multiplication matrices over F_p.  Row k of the matrix M_y of an element y
# holds the digits of alpha^k * y, so the digits of x * y are
# digits(x) @ M_y % p and the matrix of x * y is M_x @ M_y % p.  Entries
# stay below p, so every entry of a product of two is below n * p^2.


def _companion(modulus: tuple[int, ...], p: int) -> np.ndarray:
    """The matrix of alpha for a monic modulus: alpha^k * alpha = alpha^(k+1),
    and alpha^n = -sum modulus[j] * alpha^j."""
    n = len(modulus) - 1
    C = np.eye(n, k=1, dtype=np.int64)
    C[-1] = [-c % p for c in modulus[:-1]]
    return C


def _mult_matrix(digits, C: np.ndarray, p: int) -> np.ndarray:
    """The matrix of the element with these digits: row k + 1 is row k times
    alpha."""
    rows = [np.asarray(digits, dtype=np.int64)]
    for _ in range(len(C) - 1):
        rows.append(rows[-1] @ C % p)
    return np.array(rows)


def _matpow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """M^e mod p for e >= 0, by square-and-multiply."""
    result = np.eye(len(M), dtype=np.int64)
    while e:
        if e & 1:
            result = result @ M % p
        M = M @ M % p
        e >>= 1
    return result


def _invertible(M: np.ndarray, p: int) -> bool:
    """Whether M is invertible mod p, by Gaussian elimination."""
    A = M % p
    for col in range(len(A)):
        pivots = np.flatnonzero(A[col:, col])
        if not len(pivots):
            return False
        A[[col, col + pivots[0]]] = A[[col + pivots[0], col]]
        A[col] = A[col] * pow(int(A[col, col]), -1, p) % p
        A[col + 1 :] = (A[col + 1 :] - A[col + 1 :, col, None] * A[col]) % p
    return True


def is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Monic mod is irreducible iff x^(p^n) = x mod it and, for every prime
    l | n, gcd(x^(p^(n/l)) - x, mod) is constant.

    On the matrix C of x modulo mod: C^(p^n) = C, and each C^(p^(n/l)) - C
    is invertible, since a polynomial in C is invertible exactly when the
    polynomial is prime to mod.
    """
    n = len(mod) - 1
    C = _companion(mod, p)
    if not np.array_equal(_matpow(C, p**n, p), C):
        return False
    return all(_invertible(_matpow(C, p ** (n // ell), p) - C, p) for ell in prime_factors(n))


def code_digits(code: int, p: int, n: int) -> tuple[int, ...]:
    digs = []
    for _ in range(n):
        digs.append(code % p)
        code //= p
    return tuple(digs)


def digits_code(digs, p: int) -> int:
    """The code of a little-endian digit sequence."""
    code = 0
    for d in reversed(digs):
        code = code * p + d
    return code


def _smallest_modulus(p: int, n: int) -> tuple[int, ...]:
    # monic degree-n polynomials ordered by their packed lower-coefficient code
    for code in range(p**n):
        mod = code_digits(code, p, n) + (1,)
        if is_irreducible(mod, p):
            return mod
    raise FieldError(f"no irreducible of degree {n} over F_{p}")  # unreachable


@dataclass(frozen=True, eq=False)
class FieldCtx:
    """Immutable description of GF(p^n) with precomputed tables."""

    p: int
    n: int
    q: int
    modulus: tuple[int, ...]  # monic, little-endian, length n+1
    gen: int  # code of the fixed multiplicative generator
    exp: np.ndarray  # exp[i] = code of gen^i, length q-1
    log: np.ndarray  # log[code] = i; log[0] = -1
    trace_table: np.ndarray  # absolute trace per code, values in 0..p-1

    def index(self, x: int) -> int:
        """Discrete log of a nonzero element."""
        if x == 0:
            raise FieldError("zero has no discrete log")
        return int(self.log[x])

    def zech(self, k: np.ndarray) -> np.ndarray:
        """log(1 + gen^k) for an int64 array of logs k in 0..q-2, and -1
        where 1 + gen^k = 0 (the Zech logarithm).

        Adding 1 to a code changes only its digit 0, which wraps from
        p - 1 to 0: exactly where the code plus 1 is divisible by p.
        """
        c = self.exp[k] + 1
        c -= self.p * (c % self.p == 0)
        return self.log[c]

    def eta(self, x: int) -> int:
        """Quadratic character: 0 at zero, +1 on nonzero squares, -1 otherwise."""
        if self.p == 2:
            raise FieldError("quadratic character needs odd characteristic")
        if x == 0:
            return 0
        return 1 if int(self.log[x]) % 2 == 0 else -1


def default_ceiling() -> int:
    env = os.environ.get(CEILING_ENV_VAR)
    if not env:
        return DEFAULT_Q_CEILING
    try:
        return int(env)
    except ValueError:
        raise FieldError(f"${CEILING_ENV_VAR} must be an integer, got {env!r}") from None


FIELD_ENTRY_BYTES = 24  # exp, log and trace_table: one int64 each per element
_LONG = 10**18  # check_ceiling states larger numbers by their size
_NEAR = 20  # _stated computes a value exactly when its log10 is within 10^-_NEAR of an integer


def power_exceeds(p: int, n: int, limit: int) -> bool:
    """p^n > limit, decided from logarithms; p^n is computed only when they
    are too close to call, and then it is about the size of limit."""
    if p < 2 or n < 1:
        return p**n > limit
    if limit < 2:
        return True
    a, b = n * math.log(p), math.log(limit)
    if abs(a - b) > 1e-9 * (a + b + 1):  # far beyond the float error of either
        return a > b
    return p**n > limit


def _stated(p: int, n: int, entry_bytes: int | None = None) -> str:
    """p^n, or with entry_bytes the MiB of its tables as ~m, in full below
    _LONG and as ~10^k above.

    k is the floor of a logarithm to 30 digits beyond the integer part,
    far more than _NEAR; the value itself is computed only when it lies
    near _LONG or within 10^-_NEAR of a power of ten in log10.
    """
    # imported here: only a refusal states a size, and the module costs
    # about 0.4 MiB at start-up
    from decimal import Decimal, localcontext

    with localcontext() as dec:
        dec.prec = 30 + len(str(n))
        size = n * Decimal(p).log10()
        if entry_bytes is not None:
            size += (Decimal(entry_bytes) / 2**20).log10()
        k, near = int(size), Decimal(10) ** -_NEAR
        if size > 20 and near < size - k < 1 - near:
            return f"~10^{k}"
    value = p**n if entry_bytes is None else (p**n * entry_bytes + 2**19) // 2**20
    if value < _LONG:
        return str(value) if entry_bytes is None else f"~{value}"
    k = round(size)  # value lies between 10^(k - 1) and 10^(k + 1)
    return f"~10^{k if value >= 10**k else k - 1}"


def check_ceiling(
    p: int, n: int, ceiling: int | None = None, entry_bytes: int | None = FIELD_ENTRY_BYTES
) -> None:
    """Refuse, before allocating, tables of p^n > ceiling entries.

    entry_bytes (the table bytes per entry, the field's by default) only
    sizes the message, which states the memory the tables would take;
    None means the caller builds no q-sized table, and the message names
    none.  A q or a memory figure of 19 digits or more is stated as ~10^k.
    Neither the decision nor the message builds p^n unless it is close
    to the ceiling or to a power of ten, so a refusal costs no time at
    any n.
    """
    limit = ceiling if ceiling is not None else default_ceiling()
    if power_exceeds(p, n, limit):
        over = f"the ceiling {limit}"
        if entry_bytes is not None:
            over = f"the table ceiling {limit} ({_stated(p, n, entry_bytes)} MiB of tables)"
        raise FieldError(
            f"q = {p}^{n} = {_stated(p, n)} exceeds {over}; "
            f"raise it via ceiling= or ${CEILING_ENV_VAR}"
        )


def build_field(p: int, n: int, *, ceiling: int | None = None) -> FieldCtx:
    """Construct GF(p^n) deterministically.

    The modulus is the monic irreducible of degree n with the smallest
    packed coefficient code; the generator is the full-order element with
    the smallest code.  Both choices only affect internal representation:
    spectra, counts and weights are representation-independent.
    """
    if not is_prime(p):
        raise FieldError(f"p = {p} is not prime")
    if n < 1:
        raise FieldError(f"extension degree must be >= 1, got {n}")
    check_ceiling(p, n, ceiling)
    return _build_field(p, n)


@functools.lru_cache(maxsize=None)
def _build_field(p: int, n: int) -> FieldCtx:
    q = p**n
    modulus = _smallest_modulus(p, n)

    C = _companion(modulus, p)
    one = np.eye(n, dtype=np.int64)
    qm1_factors = prime_factors(q - 1)

    def has_full_order(code: int) -> bool:
        M = _mult_matrix(code_digits(code, p, n), C, p)
        return not any(np.array_equal(_matpow(M, (q - 1) // ell, p), one) for ell in qm1_factors)

    gen = next(c for c in range(1, q) if has_full_order(c))
    M_gen = _mult_matrix(code_digits(gen, p, n), C, p)

    # exp in blocks of B: the first block by doubling on digit vectors,
    # then each block is the block before it times gen^B, one gather
    # through the table of that multiplication
    Q = q - 1
    B = min(EXP_BLOCK, Q)
    exp = np.empty(Q, dtype=np.int64)
    exp[:B] = _first_powers(M_gen, p, B)
    if B < Q:
        times_gen_b = _linear_table(_matpow(M_gen, B, p), p, n)
        for start in range(B, Q, B):
            m = min(B, Q - start)
            np.take(times_gen_b, exp[start - B : start - B + m], out=exp[start : start + m])
        del times_gen_b
    if not np.array_equal(np.array(code_digits(int(exp[-1]), p, n)) @ M_gen % p, one[0]):
        raise FieldError("generator power cycle did not close")  # defensive

    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(Q)

    # Tr(alpha^j) is the trace of multiplication by alpha^j, the matrix C^j
    power, basis_tr = one, []
    for _ in range(n):
        basis_tr.append([int(np.trace(power)) % p])
        power = power @ C % p
    trace_table = _linear_table(basis_tr, p, 1)

    return FieldCtx(
        p=p, n=n, q=q, modulus=modulus, gen=gen,
        exp=exp, log=log, trace_table=trace_table,
    )


def _first_powers(M: np.ndarray, p: int, count: int) -> np.ndarray:
    """Codes of gen^0, ..., gen^(count-1), where M is the matrix of gen.

    The digit vectors double: with the rows of gen^0..gen^(k-1) at hand,
    the next k rows are those times M, the matrix of gen^k, which then
    squares.
    """
    n = len(M)
    rows = np.eye(1, n, dtype=np.int64)
    while len(rows) < count:
        rows = np.concatenate([rows, rows @ M % p])
        M = M @ M % p
    return rows[:count] @ p ** np.arange(n, dtype=np.int64)


def _linear_table(images: list[list[int]], p: int, width: int) -> np.ndarray:
    """Codes of an F_p-linear map on all p^len(images) codes.

    images[k] holds the digits (little-endian, at most width of them) of
    the image of alpha^k.  The table grows one digit of the argument at a
    time: the codes with top digit c at position k map to
    c * images[k] + (the image of the lower digits), added digit-wise.
    Each digit of the image is a plane of small ints while the table
    grows; the last step packs the planes into codes one top digit at a
    time, in the narrowest unsigned dtype that holds every code, so no
    q-sized array is divided.
    """
    planes = [np.zeros(1, dtype=np.min_scalar_type(2 * p - 2))] * width
    *lower, last = images
    for image in lower:
        planes = [_plane_step(plane, c, p) for plane, c in zip_longest(planes, image, fillvalue=0)]
    steps = reversed(list(zip_longest(planes, last, fillvalue=0)))
    table = _plane_step(*next(steps), p).astype(np.min_scalar_type(p**width - 1))
    for plane, c in steps:
        table *= table.dtype.type(p)
        table += _plane_step(plane, c, p)
    return table.astype(np.int64)


def _plane_step(plane: np.ndarray, c: int, p: int) -> np.ndarray:
    """One digit plane grown by a digit of the argument: c * x + plane mod p
    for x = 0..p-1 in turn.

    Both terms are below p, so the sum is reduced by one subtraction of p
    where it reaches p.  The plane's dtype is unsigned and holds 2p - 2, so
    where the sum is below p the subtraction wraps around above it, and the
    smaller of the two is the reduced digit.
    """
    grown = (np.arange(p) * c % p).astype(plane.dtype)[:, None] + plane
    np.minimum(grown, grown - plane.dtype.type(p), out=grown)
    return grown.ravel()

