"""Information-theoretically secure message authentication.

The family is a polynomial-evaluation hash over GF(2^w) combined with a
one-time pad: the key material is ``x || y`` (w bits each), the message
is split into w-bit blocks ``c_1 .. c_L`` (zero-padded to a block
boundary, then one block carrying the message bit length mod 2^w), and

    tag = c_1*x^L + c_2*x^(L-1) + ... + c_L*x + y        (over GF(2^w))

Two distinct messages of L blocks disagree in some coefficient, so their
tag difference is a nonzero polynomial in x with at most L roots: after
one observed message-tag pair a forger succeeds with probability at most
L / 2^w.  A session authenticates its two messages under two disjoint
2w-bit sub-keys of one reserved key segment (``protocol._key_parts``),
so the observed pair in one direction tells a forger nothing about the
other direction's sub-key.

The session calls :func:`_tag_value`, the tag on plain integers, and
each transport hop calls :func:`_hash_value` once; the exhaustive
forgery oracle (``sim.mac_forgery_exact``) calls :func:`_hash_value`
once per hash key and message.
:class:`MacKey` and :func:`tag` are the same tag over :class:`BitString`
values (a tag is the w-bit string itself); only the demo and the
benchmark use them.

Each word size w reduces by the lexicographically smallest irreducible
polynomial of degree w (for example 0x11B at w = 8 and 0x1002B at
w = 16), found by :func:`reduction_polynomial` on first use and pinned
by tests.

Every Horner step ``acc = acc*x + c`` is one multiply by the fixed hash
key x, and :func:`_hash_value` has four kernels for it:

* w <= 8: one lookup in a multiplication row, ``_mul_rows(w)[x][acc]``
  (256 rows of 256 at w = 8, built in pure Python from the reduction
  polynomial alone, every byte lane of a packed-integer row at once:
  about 0.3 ms, keeping 0.55 MB).  The session's w = 8 is
  tested first and reads its row through a module-level reference to
  the built table, with the pad shift and byte count computed directly;
  w < 8 walks its blocks by shift and mask;
* w = 16 at :data:`_CLOSED_FORM_MIN_BLOCKS` content blocks or more: the
  closed form below;
* w > 16: the bit-serial shift-and-add multiply;
* every other w, 9 <= w <= 16: ``exp[log[acc] + log[x]]`` over
  log/antilog tables built once per word size from a primitive element
  (Plank, Greenan & Miller, FAST 2013), whose zero tail in ``exp``
  makes zero operands need no branch.

The table fill itself finds the generator: a candidate whose powers
reach 1 early is abandoned, so 2^w - 1 is never factored.  At w = 16
x has order 21845 and is abandoned at the block of powers
16384 .. 32767, so the build (3 is kept) takes 4-6 ms and 0.75 MB.

A w = 16 message of at least :data:`_CLOSED_FORM_MIN_BLOCKS` content
blocks is hashed in closed form instead, in one numpy pass.  Expanding
Horner's rule over the content blocks c_1 .. c_nb gives

    h = XOR_i exp[log c_i + ((nb + 2 - i) * log x mod (2^16 - 1))]
        ^ exp[log L + log x]

with L = nbits mod 2^16.  The blocks are read as little-endian words
(``"<u2"``, last block first) against an ascending exponent ramp and
gathered with ``take`` from ``np.frombuffer`` views of the same tables;
a zero block's log points into the zero tail of ``exp``, and x = 0 gives
h = 0.  The pass costs a roughly fixed 6-10 us against 0.2-0.3 us per
block for the table loop, so the two cross at 30-44 blocks (2-vCPU Xeon,
Python 3.11, numpy 2.4); at 194 blocks it takes 8-12 us against the
loop's 47-70.  Shorter messages and other word sizes keep their loops.

numpy is imported only inside the functions that run a numpy kernel
(the log/antilog table build and the w = 16 closed form), so no MAC
call below w = 9 loads it.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from functools import lru_cache

from .bits import BitString
from .errors import OutOfRange, ParameterViolation, shown


def _mul_generic(a: int, b: int, w: int, poly: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a >> w:
            a ^= poly
        b >>= 1
    return acc


def _is_irreducible(poly: int, w: int) -> bool:
    def pgcd(u, v):
        while v:
            while u and u.bit_length() >= v.bit_length():
                u ^= v << (u.bit_length() - v.bit_length())
            u, v = v, u
        return u

    x = 0b10 ^ poly if w == 1 else 0b10   # x mod poly
    r = x
    for d in range(1, w + 1):
        r = _mul_generic(r, r, w, poly)
        if d < w and w % d == 0 and pgcd(poly, r ^ x).bit_length() > 1:
            return False
    return r == x


@lru_cache(maxsize=None)
def reduction_polynomial(w: int) -> int:
    """Reduction polynomial used for GF(2^w), as an integer with bit w set."""
    if w < 1:
        raise ParameterViolation(f"word size must be >= 1, got {shown(w)}")
    for candidate in range(1 << w, 1 << (w + 1)):
        if candidate & 1 and _is_irreducible(candidate, w):
            return candidate
    raise ParameterViolation(f"no irreducible polynomial found for w={w}")


def _mul_vector(v, c: int, w: int, poly: int):
    """Every element of the uint32 vector ``v`` times the constant ``c``."""
    acc = v & 0     # zeros of v's dtype
    while c:
        if c & 1:
            acc ^= v
        v = v << 1
        v ^= (v >> w) * poly
        c >>= 1
    return acc


@lru_cache(maxsize=None)
def _log_tables(w: int):
    """Antilog and log tables of GF(2^w), 1 <= w <= 16.

    ``exp[i] = g^i`` for the smallest primitive element g, stored twice
    over (indices 0 .. 2*order - 1) so a sum of two logs needs no
    reduction.  ``log[a]`` is the discrete log of a != 0; ``log[0]``
    points at a zero tail of ``exp`` long enough that
    ``exp[log[a] + log[b]] == a*b`` holds for zero operands too.  The
    powers are filled by doubling (``exp[n:2n] = exp[:n] * g^n``,
    vectorised).  The polynomial is irreducible, so the nonzero elements
    form a group of this order and g is primitive iff none of
    g^1 .. g^(order-1) is 1: the candidates are filled in ascending
    order, a fill stops at the first block holding a 1, and the first
    complete fill is kept.
    """
    import numpy as np

    poly = reduction_polynomial(w)
    order = (1 << w) - 1
    zero = 2 * order
    exp = np.zeros(2 * zero + 1, np.uint32)
    exp[0] = 1
    for g in range(1, 1 << w):
        n, gn = 1, g
        while n < order:
            m = min(n, order - n)
            block = _mul_vector(exp[:m], gn, w, poly)
            if (block == 1).any():
                break       # g^k == 1 for some 0 < k < order: not primitive
            exp[n:n + m] = block
            gn = _mul_generic(gn, gn, w, poly)
            n += m
        else:
            break
    exp[order:2 * order] = exp[:order]
    log = np.zeros(1 << w, np.uint32)
    log[exp[:order]] = np.arange(order, dtype=np.uint32)
    log[0] = zero
    return (array("H", exp.astype(np.ushort).tobytes()),
            array("I", log.astype(np.uintc).tobytes()))


#: Shortest w = 16 message, in content blocks, that :func:`_hash_value`
#: evaluates in closed form; the measured crossover with the table loop.
_CLOSED_FORM_MIN_BLOCKS = 44


@lru_cache(maxsize=None)
def _table_views(w: int):
    """Zero-copy numpy views (exp, log) of the ``_log_tables(w)`` arrays."""
    import numpy as np

    exp, log = _log_tables(w)
    return np.frombuffer(exp, np.ushort), np.frombuffer(log, np.uintc)


@lru_cache(maxsize=64)
def _exponent_ramp(nb: int):
    """``[2, ..., nb + 1]``: the power of x of each block, last block first."""
    import numpy as np

    ramp = np.arange(2, nb + 2, dtype=np.int64)
    ramp.flags.writeable = False
    return ramp


@lru_cache(maxsize=None)
def _mul_rows(w: int):
    """GF(2^w) multiplication rows for w <= 8: ``rows[x][a] == a*x``.

    :func:`_hash_value` multiplies by x through row x at every w <= 8;
    the log/antilog tables serve only 9 <= w <= 16.

    Multiplication is linear over GF(2) in both operands, so the rows
    are built lane-parallel: each row is held as one integer of 2^w byte
    lanes, lane a holding a*x.  Row 1 is the identity; row 2^(j+1) is
    row 2^j times the field's x in every lane at once (shift each lane
    left, and fold each lane's carried-out top bit back in as the
    reduction polynomial's low w bits); every other row x is the XOR of
    row (x minus its lowest set bit) and that bit's row.  That is w - 1
    lane-wise doublings and 2^w - w - 1 row XORs, then one ``to_bytes``
    unpack per row.  Pure Python, with no log table: about 0.3 ms at
    w = 8.
    """
    size = 1 << w
    low = reduction_polynomial(w) & (size - 1)
    top = int.from_bytes(bytes([1 << (w - 1)]) * size, "little")
    packed = [0, int.from_bytes(bytes(range(size)), "little")]
    for x in range(2, size):
        bit = x & -x
        if x == bit:
            half = packed[x >> 1]
            carry = half & top
            packed.append(((half ^ carry) << 1) ^ (carry >> (w - 1)) * low)
        else:
            packed.append(packed[x ^ bit] ^ packed[bit])
    return [list(v.to_bytes(size, "little")) for v in packed]


#: ``_mul_rows(8)`` once built: :func:`_hash_value` reads its w = 8 rows
#: through this name, not through the ``lru_cache`` call.
_rows8 = None


def _bind_rows8():
    global _rows8
    _rows8 = _mul_rows(8)
    return _rows8


def _hash_value(w: int, x: int, value: int, nbits: int) -> int:
    """Polynomial hash (no pad key) of ``nbits`` bits held in ``value``.

    Horner's rule over the content blocks c_1 .. c_nb and the length
    block L = nbits mod 2^w, with one multiply by x per block (the
    kernels are described in the module docstring).  At w = 16 a message
    of at least :data:`_CLOSED_FORM_MIN_BLOCKS` content blocks is
    evaluated in closed form instead, in one numpy pass; both give the
    same value.
    """
    if w == 8:
        row = (_rows8 or _bind_rows8())[x]
        nb = (nbits + 7) >> 3
        acc = 0
        for c in (value << (-nbits & 7)).to_bytes(nb, "big"):
            acc = row[acc] ^ c
        return row[row[acc] ^ (nbits & 0xFF)]
    mask = (1 << w) - 1
    nb = (nbits + w - 1) // w
    padded = value << (nb * w - nbits) if nbits else 0
    if w < 8:
        row = _mul_rows(w)[x]
        acc = 0
        for i in range((nb - 1) * w, -1, -w):
            acc = row[acc] ^ ((padded >> i) & mask)
        return row[row[acc] ^ (nbits & mask)]
    if w > 16:
        poly = reduction_polynomial(w)
        acc = 0
        for i in range((nb - 1) * w, -1, -w):
            acc = _mul_generic(acc, x, w, poly) ^ ((padded >> i) & mask)
        acc = _mul_generic(acc, x, w, poly) ^ (nbits & mask)
        return _mul_generic(acc, x, w, poly)
    exp, log = _log_tables(w)
    lx = log[x]
    if w == 16 and nb >= _CLOSED_FORM_MIN_BLOCKS:
        if not x:
            return 0
        import numpy as np

        exp_v, log_v = _table_views(16)
        # little-endian read: element j is block c_(nb - j), power j + 2
        blocks = np.frombuffer(padded.to_bytes(2 * nb, "little"), "<u2")
        e = _exponent_ramp(nb) * lx
        e %= mask
        e += log_v.take(blocks)
        h = int(np.bitwise_xor.reduce(exp_v.take(e)))
        return h ^ exp[log[nbits & mask] + lx]
    acc = 0
    for i in range((nb - 1) * w, -1, -w):
        acc = exp[log[acc] + lx] ^ ((padded >> i) & mask)
    acc = exp[log[acc] + lx] ^ (nbits & mask)
    return exp[log[acc] + lx]


def _tag_value(w: int, key2w: int, value: int, nbits: int) -> int:
    """Tag of ``nbits`` message bits under a 2w-bit key, all as integers.

    Hot-path form used by the session (the transport hop calls
    :func:`_hash_value` itself); :func:`tag` is the public wrapper over
    BitString values.
    """
    x = key2w >> w
    y = key2w & ((1 << w) - 1)
    return _hash_value(w, x, value, nbits) ^ y


class MacKey(namedtuple("MacKey", "material")):
    """2w bits of key material: hash key x (first w bits) || pad key y."""

    __slots__ = ()

    def __new__(cls, material: BitString):
        self = tuple.__new__(cls, (material,))
        if self.material.length < 2 or self.material.length % 2:
            raise OutOfRange(
                f"MAC key material must have even length >= 2, "
                f"got {self.material.length}"
            )
        return self

    _make = classmethod(lambda cls, it: cls(*it))  # _replace runs __new__ too

    @property
    def word_bits(self) -> int:
        return self.material.length // 2


def tag(key: MacKey, message: BitString) -> BitString:
    """The w-bit authentication tag of ``message`` under ``key``.

    Deterministic; the word size w is inferred from the key material
    length (2w bits).
    """
    w = key.word_bits
    return BitString.from_int(
        _tag_value(w, key.material.value, message.value, message.length), w
    )


def impersonation_bound(w: int, message_bits: int) -> float:
    """Forgery probability bound L / 2^w with L = ceil(message_bits/w) + 1
    for word size ``w``.

    L counts the w-bit blocks of the padded message including the length
    block.  Clamped to 1.0, since for tiny word sizes the formula can
    exceed a probability; the clamp compares bit lengths and the
    quotient scales a float in [1/2, 1) by 2^-w, so neither a message
    too long for a float nor a word too wide to build 2^w fails.
    Raises :class:`OutOfRange` unless both arguments are ints (not
    bools), w >= 1 and message_bits >= 0.
    """
    for name, value in (("w", w), ("message_bits", message_bits)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise OutOfRange(f"{name} must be an integer, got {shown(value)}")
    if w < 1:
        raise OutOfRange(f"word size must be >= 1, got {shown(w)}")
    if message_bits < 0:
        raise OutOfRange(f"message_bits must be >= 0, got {shown(message_bits)}")
    blocks = -(-message_bits // w) + 1
    width = blocks.bit_length()
    return 1.0 if width > w else math.ldexp(blocks / (1 << width), width - w)
