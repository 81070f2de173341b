"""Exact arithmetic in GF(p^n).

Elements are integer codes in 0..q-1: an element with coordinates
(c_0, ..., c_{n-1}) in the power basis 1, alpha, ..., alpha^{n-1} has
code sum(c_i * p^i).  A FieldCtx is its tables: exp and log for a fixed
generator, and the absolute trace of every code.  Callers multiply, take
powers and apply Frobenius on discrete logs held in arrays (gen^i * gen^j
is exp[(i + j) mod q-1]); adding 1 is the Zech logarithm,
log(1 + gen^k), read off the tables for an array of logs.  The context
also adds codes digit-wise, negates them, and reads discrete logs and
the quadratic character one at a time.

All tables are built once at construction; a FieldCtx is immutable, and
build_field returns one shared instance per (p, n).  An F_p-linear map
on codes (multiplication by a fixed element, the trace) is tabulated by
_linear_table, which keeps the digits of the images as small-int planes
and packs them into codes at the end.  exp is filled in blocks of
EXP_BLOCK: a first block by doubling on digit vectors, then one gather
per block through the table of multiplication by gen^EXP_BLOCK.  The
construction divides no q-sized array, and the Zech logarithm takes one
residue mod p per log.  The tests check the tables against an
independent polynomial-arithmetic field.
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
    if m < 2:
        return False
    i = 2
    while i * i <= m:
        if m % i == 0:
            return False
        i += 1
    return True


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
# Polynomial arithmetic over F_p, little-endian coefficient lists.
# Used only during construction; bulk arithmetic goes through the log tables.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _reduce(a: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    # mod is monic; fold x^k for k >= deg(mod) down using x^n = -sum mod[j] x^j
    n = len(mod) - 1
    a = list(a)
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k]
        if c:
            a[k] = 0
            for j in range(n):
                a[k - n + j] = (a[k - n + j] - c * mod[j]) % p
    return _trim(a[:n])


def _mulmod(a: list[int], b: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    if not a or not b:
        return []
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _reduce(res, mod, p)


def _powmod(base: list[int], e: int, mod: tuple[int, ...], p: int) -> list[int]:
    result = [1]
    b = _reduce(base, mod, p)
    while e:
        if e & 1:
            result = _mulmod(result, b, mod, p)
        b = _mulmod(b, b, mod, p)
        e >>= 1
    return result


def _rem(a: list[int], b: list[int], p: int) -> list[int]:
    a = _trim(list(a))
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while a and len(a) - 1 >= db:
        c = (a[-1] * inv) % p
        k = len(a) - 1 - db
        for j in range(db + 1):
            a[k + j] = (a[k + j] - c * b[j]) % p
        a = _trim(a)
    return a


def _polygcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _rem(a, b, p)
    return a


def is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Monic mod is irreducible iff x^(p^n) = x mod it and, for every prime
    l | n, gcd(x^(p^(n/l)) - x, mod) is constant."""
    n = len(mod) - 1
    if n == 1:
        return True
    x = [0, 1]
    if _powmod(x, p**n, mod, p) != x:
        return False
    for ell in prime_factors(n):
        xk = _powmod(x, p ** (n // ell), mod, p)
        diff = [0] * max(len(xk), 2)
        for i, c in enumerate(xk):
            diff[i] = c
        diff[1] = (diff[1] - 1) % p
        g = _polygcd(diff, list(mod), p)
        if len(g) > 1:
            return False
    return True


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

    def add(self, x, y):
        """x + y for codes given as Python ints (returns an int) or int64 arrays."""
        p = self.p
        s, mult = 0, 1
        for _ in range(self.n):
            s += (x + y) % p * mult
            x, y = x // p, y // p  # never in place: x and y may be the caller's arrays
            mult *= p
        return s if isinstance(s, np.ndarray) else int(s)

    def neg(self, x):
        """-x for a code given as a Python int (returns an int) or an int64 array."""
        p = self.p
        s, mult = 0, 1
        for _ in range(self.n):
            s += -x % p * mult
            x = x // p  # never in place: x may be the caller's array
            mult *= p
        return s if isinstance(s, np.ndarray) else int(s)

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

    qm1_factors = prime_factors(q - 1)

    def has_full_order(code: int) -> bool:
        digs = list(code_digits(code, p, n))
        for ell in qm1_factors:
            if digits_code(_powmod(digs, (q - 1) // ell, modulus, p), p) == 1:
                return False
        return True

    gen = next(c for c in range(1, q) if has_full_order(c))
    gen_digits = list(code_digits(gen, p, n))

    # exp in blocks of B: the first block by doubling on digit vectors,
    # then each block is the block before it times gen^B, one gather
    # through the table of that multiplication
    Q = q - 1
    B = min(EXP_BLOCK, Q)
    exp = np.empty(Q, dtype=np.int64)
    exp[:B] = _first_powers(_basis_images(gen_digits, modulus, p), p, B)
    if B < Q:
        gen_b = _powmod(gen_digits, B, modulus, p)
        times_gen_b = _linear_table(_basis_images(gen_b, modulus, p), p, n)
        for start in range(B, Q, B):
            m = min(B, Q - start)
            np.take(times_gen_b, exp[start - B : start - B + m], out=exp[start : start + m])
        del times_gen_b
    if _mulmod(list(code_digits(int(exp[-1]), p, n)), gen_digits, modulus, p) != [1]:
        raise FieldError("generator power cycle did not close")  # defensive

    log = np.full(q, -1, dtype=np.int64)
    log[exp] = np.arange(Q)

    trace_table = _trace_table(p, n, q, exp, log)

    return FieldCtx(
        p=p, n=n, q=q, modulus=modulus, gen=gen,
        exp=exp, log=log, trace_table=trace_table,
    )


def _basis_images(x: list[int], modulus: tuple[int, ...], p: int) -> list[list[int]]:
    """Digits of x * alpha^k for k = 0..n-1: multiplication by x on the basis."""
    return [_reduce([0] * k + x, modulus, p) for k in range(len(modulus) - 1)]


def _first_powers(images: list[list[int]], p: int, count: int) -> np.ndarray:
    """Codes of gen^0, ..., gen^(count-1), where images[k] holds the digits
    of gen * alpha^k.

    The digit vectors double: with the rows of gen^0..gen^(k-1) at hand,
    the next k rows are those times the matrix M of multiplication by
    gen^k, which then squares.  Entries stay below n * p^2.
    """
    n = len(images)
    M = np.zeros((n, n), dtype=np.int64)
    for k, image in enumerate(images):
        M[k, : len(image)] = image
    rows = np.zeros((1, n), dtype=np.int64)
    rows[0, 0] = 1
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


def _trace_table(p, n, q, exp, log) -> np.ndarray:
    # Tr is F_p-linear: evaluate it on the power basis, then extend by digits.
    qm1 = q - 1
    basis_tr = []
    for j in range(n):
        code = p**j  # alpha^j
        acc_digits = [0] * n
        for i in range(n):
            fr = int(exp[(int(log[code]) * pow(p, i, qm1)) % qm1])
            fd = code_digits(fr, p, n)
            acc_digits = [(a + b) % p for a, b in zip(acc_digits, fd)]
        if any(acc_digits[1:]):
            raise FieldError("trace left the prime field")  # defensive
        basis_tr.append(acc_digits[:1])
    return _linear_table(basis_tr, p, 1)
