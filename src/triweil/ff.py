"""Exact arithmetic in GF(p^n).

Elements are integer codes in 0..q-1: an element with coordinates
(c_0, ..., c_{n-1}) in the power basis 1, alpha, ..., alpha^{n-1} has
code sum(c_i * p^i).  A FieldCtx is its tables: exp and log for a fixed
generator, and the absolute trace of every power of it, by discrete log
(the one index both routes to the Weil sum read).  Callers multiply, take
powers and apply Frobenius on discrete logs held in arrays (gen^i * gen^j
is exp[(i + j) mod q-1]); adding 1 is the Zech logarithm,
log(1 + gen^k), read off the tables for an array of logs.  The context
also reads discrete logs one at a time; -1 is the code p - 1, and for
odd p a nonzero element is a square exactly when its log is even.

All tables are built once at construction and are read-only; a FieldCtx
is immutable, and build_field returns one shared instance per (p, n).
The construction multiplies elements one way only, as n x n matrices
over F_p: the matrix of an element holds the digits of its products with
the basis.  The modulus search tests 32 candidates at a time as one stack
of companion matrices C, by matrix powers alone (_irreducible: C^q = C,
then for each prime l | n the matrix of x^(p^(n/l)) - x raised to q - 1
is the identity); the generator search and the closing check raise
matrices to powers too.  One doubling routine, _powers, gives the rows
v * M^k mod p: the matrix of an element, the first block of exp, and the
digits of alpha^0..alpha^(2n-2), whose rows j..j+n-1 are the matrix of
alpha^j, so Tr(alpha^j) is their trace.  An F_p-linear map on codes
(multiplication by gen^EXP_BLOCK, the trace) is tabulated by
_linear_table from the images of the basis, keeping their digits as
small-int planes and packing them into codes at the end.  exp is filled
in blocks of EXP_BLOCK: the first by _powers, then one gather per block
through the table of multiplication by gen^EXP_BLOCK.  log and
trace_table are then filled a block of exp at a time, the second by a
gather of the tabulated trace at the codes in the block.  The
construction divides no q-sized array, and the Zech logarithm takes one
residue mod p per log.  The tests check the tables against an
independent polynomial-arithmetic field.

Each table is held at the width its values need: exp and log are int32
below q = 2^31 (int64 above), and trace_table is the narrowest unsigned
dtype that holds p - 1 (uint8 for p < 256), so a field takes 9 bytes per
element.  An int32 log times an exponent can pass 2^31, and NumPy keeps
int32 times a Python int in int32, so callers take such products on
int64 logs, LOG_BLOCK at a time (log_blocks).

NumPy is imported by the functions that build or read tables, here and
in weil, kernel_curve and digits, not by the modules: the carry-graph
commands build no field and run without it.
"""

from __future__ import annotations

import functools
import math
import os

DEFAULT_Q_CEILING = 3**13
EXP_BLOCK = 1 << 12  # powers of the generator per gather when filling exp
LOG_BLOCK = 1 << 15  # int64 discrete logs (or field elements) per array step
CEILING_ENV_VAR = "TRIWEIL_CEILING"


class FieldError(ValueError):
    """Invalid field parameters or out-of-budget field size."""


def log_blocks(Q: int, step: int = 1):
    """The logs 0, step, 2*step, ... below Q, as int64 blocks of LOG_BLOCK."""
    import numpy as np
    stride = LOG_BLOCK * step
    for start in range(0, Q, stride):
        yield np.arange(start, min(start + stride, Q), step, dtype=np.int64)


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


def _companion(modulus, p: int) -> np.ndarray:
    """The matrix of alpha for a monic modulus: alpha^k * alpha = alpha^(k+1),
    and alpha^n = -sum modulus[j] * alpha^j.  A stack of moduli (one per
    row) gives the stack of their matrices."""
    import numpy as np
    modulus = np.asarray(modulus, dtype=np.int64)
    n = modulus.shape[-1] - 1
    C = np.zeros(modulus.shape[:-1] + (n, n), dtype=np.int64)
    C[..., :-1, 1:] = np.eye(n - 1, dtype=np.int64)
    C[..., -1, :] = -modulus[..., :-1] % p
    return C


def _powers(v, M: np.ndarray, p: int, count: int) -> np.ndarray:
    """The int64 rows v @ M^k % p for k < count, for v with entries below p.

    The rows double: the rows for k < j, times M^j, are the next j rows, and
    M^j squares before each doubling but the first.  For M = C and v the
    digits of y, n rows are y's matrix.
    """
    import numpy as np
    rows = np.asarray(v, dtype=np.int64)[None]
    while len(rows) < count:
        if len(rows) > 1:
            M = M @ M % p
        rows = np.concatenate([rows, rows @ M % p])
    return rows[:count]


def _matpow(M: np.ndarray, e: int, p: int) -> np.ndarray:
    """M^e mod p for e >= 0, by square-and-multiply (for a stack, each)."""
    import numpy as np
    result = np.eye(M.shape[-1], dtype=np.int64)
    while e:
        if e & 1:
            result = result @ M % p
        M = M @ M % p
        e >>= 1
    return result


def _irreducible(mods: np.ndarray, p: int) -> np.ndarray:
    """Which of a stack of monic moduli (rows of n + 1 coefficients) are
    irreducible, by Rabin's test on their companion matrices C, all moduli
    at once.

    The matrix of a polynomial y in x is y(C), so x^(p^n) = x is
    C^q = C.  Then F_p[x]/mod is a product of fields F_(p^d) with d | n,
    and an element is a unit exactly when its (q - 1)-th power is 1.  The
    second leg asks, for each prime l | n, that x^(p^(n/l)) - x be such a
    unit, i.e. prime to the modulus.
    """
    import numpy as np
    C = _companion(mods, p)
    n = C.shape[-1]
    q = p**n
    ok = (_matpow(C, q, p) == C).all(axis=(1, 2))
    for ell in prime_factors(n):  # only on the moduli still in the running
        unit = (_matpow(C[ok], p ** (n // ell), p) - C[ok]) % p
        ok[ok] = (_matpow(unit, q - 1, p) == np.eye(n, dtype=np.int64)).all(axis=(1, 2))
    return ok


def code_digits(code: int, p: int, n: int) -> tuple[int, ...]:
    digs = []
    for _ in range(n):
        digs.append(code % p)
        code //= p
    return tuple(digs)


def _smallest_modulus(p: int, n: int) -> tuple[int, ...]:
    # monic degree-n polynomials ordered by their packed lower-coefficient
    # code, tested 32 at a time
    import numpy as np
    for start in range(0, p**n, 32):
        codes = range(start, min(start + 32, p**n))
        mods = np.array([code_digits(code, p, n) + (1,) for code in codes], dtype=np.int64)
        found = np.flatnonzero(_irreducible(mods, p))
        if len(found):
            return tuple(int(c) for c in mods[found[0]])
    raise FieldError(f"no irreducible of degree {n} over F_{p}")  # unreachable


class FieldCtx:
    """Immutable description of GF(p^n) with precomputed tables.

    Equal and hashed by identity: build_field shares one per (p, n), and
    caches keyed by a context never compare its arrays.
    """

    __slots__ = (
        "p", "n", "q",
        "modulus",  # monic, little-endian, length n+1
        "gen",  # code of the fixed multiplicative generator
        "exp",  # exp[i] = code of gen^i, length q-1; int32 below q = 2^31
        "log",  # log[code] = i; log[0] = -1; the dtype of exp
        "trace_table",  # Tr(gen^i) by log i, length q-1, values in 0..p-1; uint8 for p < 256
    )

    def __init__(
        self, *, p: int, n: int, q: int, modulus: tuple[int, ...], gen: int,
        exp: np.ndarray, log: np.ndarray, trace_table: np.ndarray,
    ) -> None:
        for name in self.__slots__:
            object.__setattr__(self, name, locals()[name])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"FieldCtx is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def index(self, x: int) -> int:
        """Discrete log of a nonzero element, the code x in 1..q-1."""
        if not 0 < x < self.q:
            raise FieldError(f"code {x} is not a nonzero element of GF({self.q})")
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


def default_ceiling() -> int:
    env = os.environ.get(CEILING_ENV_VAR)
    if not env:
        return DEFAULT_Q_CEILING
    try:
        return int(env)
    except ValueError:
        raise FieldError(f"${CEILING_ENV_VAR} must be an integer, got {env!r}") from None


# exp, log and trace_table per element: int32, int32 and uint8 for q < 2^31
# and p < 256; a larger field holds wider tables, so its stated MiB is a
# lower bound
FIELD_ENTRY_BYTES = 9
_LONG = 10**18  # check_ceiling states larger numbers by their size
_NEAR = 20  # _stated computes a value exactly when its log10 is within 10^-_NEAR of an integer


def power_exceeds(p: int, n: int, limit: int) -> bool:
    """p^n > limit for p >= 0, in exact integers: p^n >= 2^(n*(b-1)) for
    the bit length b of p decides a p^n far above limit at once, and any
    other p^n has at most about twice the bits of limit."""
    if n * (p.bit_length() - 1) > limit.bit_length():
        return True
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
    The decision builds p^n only when it has at most about twice the
    bits of the ceiling, and the message only when it is close to the
    ceiling or to a power of ten, so a refusal costs no time at any n.
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
    if n < 1:  # first: p^n has no value at p = 0, n < 0
        raise FieldError(f"extension degree must be >= 1, got {n}")
    if p >= 2:  # before trial division, which runs to sqrt(p) for a prime p
        check_ceiling(p, n, ceiling)
    if not is_prime(p):
        raise FieldError(f"p = {p} is not prime")
    return _build_field(p, n)


@functools.lru_cache(maxsize=None)
def _build_field(p: int, n: int) -> FieldCtx:
    import numpy as np
    q = p**n
    modulus = _smallest_modulus(p, n)

    C = _companion(modulus, p)
    one = np.eye(n, dtype=np.int64)
    qm1_factors = prime_factors(q - 1)

    def has_full_order(code: int) -> bool:
        M = _powers(code_digits(code, p, n), C, p, n)
        return not any(np.array_equal(_matpow(M, (q - 1) // ell, p), one) for ell in qm1_factors)

    gen = next(c for c in range(1, q) if has_full_order(c))
    M_gen = _powers(code_digits(gen, p, n), C, p, n)

    # exp in blocks of B: the first block from the digits of gen^0..gen^(B-1),
    # then each block is the block before it times gen^B, one gather
    # through the table of that multiplication; then log and trace_table, a
    # block of exp at a time.  At most two tables of exp's width are alive
    # at once: the gather table and exp, then exp and log.
    Q = q - 1
    B = min(EXP_BLOCK, Q)
    dtype = _index_dtype(q)
    times_gen_b = _linear_table(_matpow(M_gen, B, p), p, dtype) if B < Q else None
    exp = np.empty(Q, dtype=dtype)
    exp[:B] = _powers(one[0], M_gen, p, B) @ p ** np.arange(n, dtype=np.int64)
    for start in range(B, Q, B):
        m = min(B, Q - start)
        np.take(times_gen_b, exp[start - B : start - B + m], out=exp[start : start + m])
    del times_gen_b
    if not np.array_equal(np.array(code_digits(int(exp[-1]), p, n)) @ M_gen % p, one[0]):
        raise FieldError("generator power cycle did not close")  # defensive

    # Tr(alpha^j) is the trace of multiplication by alpha^j, whose row k
    # holds the digits of alpha^(j+k): rows j..j+n-1 of alpha's powers;
    # the trace of every code is then read at the codes exp[u]
    alpha = _powers(one[0], C, p, 2 * n - 1)
    trace_of_code = _linear_table([[int(np.trace(alpha[j : j + n])) % p] for j in range(n)], p)
    log = np.full(q, -1, dtype=dtype)
    trace_table = np.empty(Q, dtype=trace_of_code.dtype)
    for start in range(0, Q, B):
        codes = exp[start : start + B]
        log[codes] = np.arange(start, start + codes.size, dtype=dtype)
        trace_table[start : start + B] = trace_of_code[codes]
    for table in (exp, log, trace_table):
        table.setflags(write=False)  # shared by every caller of build_field(p, n)

    return FieldCtx(
        p=p, n=n, q=q, modulus=modulus, gen=gen,
        exp=exp, log=log, trace_table=trace_table,
    )


def _index_dtype(q: int) -> np.dtype:
    """The dtype of exp and log: int32 while every code plus one fits in
    it, int64 above that."""
    import numpy as np
    return np.dtype(np.int32 if q < 2**31 else np.int64)


def _linear_table(images, p: int, dtype=None) -> np.ndarray:
    """Codes of an F_p-linear map on all p^len(images) codes.

    images[k] holds the width = len(images[0]) digits (little-endian) of
    the image of alpha^k.  The table grows one digit of the argument at a
    time: the codes with top digit c at position k map to
    c * images[k] + (the image of the lower digits), added digit-wise.
    Each digit of the image is a plane of small ints while the table
    grows; the last step packs the planes into codes one top digit at a
    time, in dtype (which must hold every code; by default the narrowest
    unsigned dtype that does), so no q-sized array is divided or cast.
    """
    import numpy as np
    width = len(images[0])
    if dtype is None:
        dtype = np.min_scalar_type(p**width - 1)
    planes = [np.zeros(1, dtype=np.min_scalar_type(2 * p - 2))] * width
    *lower, last = images
    for image in lower:
        planes = [_plane_step(plane, c, p) for plane, c in zip(planes, image, strict=True)]
    table = np.zeros(len(planes[0]) * p, dtype=dtype)
    for c in reversed(last):  # top digit first; each plane is released once packed
        table *= table.dtype.type(p)
        table += _plane_step(planes.pop(), c, p)
    return table


def _plane_step(plane: np.ndarray, c: int, p: int) -> np.ndarray:
    """One digit plane grown by a digit of the argument: c * x + plane mod p
    for x = 0..p-1 in turn.

    Both terms are below p, so the sum is reduced by one subtraction of p
    where it reaches p.  The plane's dtype is unsigned and holds 2p - 2, so
    where the sum is below p the subtraction wraps around above it, and the
    smaller of the two is the reduced digit.
    """
    import numpy as np
    grown = (np.arange(p) * c % p).astype(plane.dtype)[:, None] + plane
    np.minimum(grown, grown - plane.dtype.type(p), out=grown)
    return grown.ravel()

