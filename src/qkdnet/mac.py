"""Information-theoretically secure message authentication.

The family is a polynomial-evaluation hash over GF(2^w) combined with a
one-time pad: the key material is ``x || y`` (w bits each), the message
is split into w-bit blocks ``c_1 .. c_L`` (zero-padded to a block
boundary, then one block carrying the message bit length mod 2^w), and

    tag = c_1*x^L + c_2*x^(L-1) + ... + c_L*x + y        (over GF(2^w))

Two distinct messages of L blocks disagree in some coefficient, so their
tag difference is a nonzero polynomial in x with at most L roots: after
one observed message-tag pair a forger succeeds with probability at most
L / 2^w.  One reserved key segment authenticates two messages via
:func:`split_for_two_messages` (disjoint halves, so the two-message
impersonation probability is at most twice the single-message one).

Reduction polynomials are fixed per word size for bit-exact interop; see
:data:`REDUCTION_POLYNOMIALS`.  Word sizes without a table entry use the
lexicographically smallest irreducible polynomial of that degree.

Every Horner step ``acc = acc*x + c`` is one multiply by the fixed hash
key x.  For w <= 16 it is a log/antilog lookup,
``exp[log[acc] + log[x]]``, over tables built once per word size from a
primitive element of the field (Plank, Greenan & Miller, FAST 2013); a
zero tail in ``exp`` makes zero operands need no branch.  The tables
cost about 0.2 ms at w = 8 and 2-5 ms and 0.75 MB at w = 16.  Word
sizes above 16 use the bit-serial shift-and-add multiply.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import BitString
from .errors import OutOfRange, ParameterViolation

#: Fixed reduction polynomials (bit w set; e.g. 0x11B = x^8+x^4+x^3+x+1).
REDUCTION_POLYNOMIALS = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    8: 0x11B,
    16: 0x1002B,
}

_LITTLE_ENDIAN = sys.byteorder == "little"


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

    x = 0b10 % poly if w == 1 else 0b10
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
        raise ParameterViolation(f"word size must be >= 1, got {w}")
    if w in REDUCTION_POLYNOMIALS:
        return REDUCTION_POLYNOMIALS[w]
    for candidate in range(1 << w, 1 << (w + 1)):
        if candidate & 1 and _is_irreducible(candidate, w):
            return candidate
    raise ParameterViolation(f"no irreducible polynomial found for w={w}")


def _prime_factors(n: int) -> list[int]:
    factors = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        factors.append(n)
    return factors


def _gf_pow(a: int, e: int, w: int, poly: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = _mul_generic(r, a, w, poly)
        a = _mul_generic(a, a, w, poly)
        e >>= 1
    return r


def _mul_vector(v, c: int, w: int, poly: int):
    """Every element of the uint32 vector ``v`` times the constant ``c``."""
    acc = np.zeros_like(v)
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

    ``exp[i] = g^i`` for a primitive element g, stored twice over
    (indices 0 .. 2*order - 1) so a sum of two logs needs no reduction.
    ``log[a]`` is the discrete log of a != 0; ``log[0]`` points at a zero
    tail of ``exp`` long enough that ``exp[log[a] + log[b]] == a*b``
    holds for zero operands too.  The powers are filled by doubling
    (``exp[n:2n] = exp[:n] * g^n``, vectorised).  Lists for w <= 8,
    compact arrays above.
    """
    poly = reduction_polynomial(w)
    order = (1 << w) - 1
    exponents = [order // q for q in _prime_factors(order)]
    g = next(
        c for c in range(1, 1 << w)
        if all(_gf_pow(c, e, w, poly) != 1 for e in exponents)
    )
    zero = 2 * order
    exp = np.zeros(2 * zero + 1, np.uint32)
    exp[0] = 1
    n, gn = 1, g
    while n < order:
        m = min(n, order - n)
        exp[n:n + m] = _mul_vector(exp[:m], gn, w, poly)
        gn = _mul_generic(gn, gn, w, poly)
        n += m
    exp[order:2 * order] = exp[:order]
    log = np.zeros(1 << w, np.uint32)
    log[exp[:order]] = np.arange(order, dtype=np.uint32)
    log[0] = zero
    if w <= 8:
        return exp.tolist(), log.tolist()
    return (array("H", exp.astype(np.ushort).tobytes()),
            array("I", log.astype(np.uintc).tobytes()))


def _hash_value(w: int, x: int, value: int, nbits: int) -> int:
    """Polynomial hash (no pad key) of ``nbits`` bits held in ``value``."""
    mask = (1 << w) - 1
    nb = (nbits + w - 1) // w
    padded = value << (nb * w - nbits) if nbits else 0
    if w > 16:
        poly = reduction_polynomial(w)
        acc = 0
        for i in range((nb - 1) * w, -1, -w):
            acc = _mul_generic(acc, x, w, poly) ^ ((padded >> i) & mask)
        acc = _mul_generic(acc, x, w, poly) ^ (nbits & mask)
        return _mul_generic(acc, x, w, poly)
    exp, log = _log_tables(w)
    lx = log[x]
    acc = 0
    if w & 7:
        for i in range((nb - 1) * w, -1, -w):
            acc = exp[log[acc] + lx] ^ ((padded >> i) & mask)
    else:  # w is 8 or 16: whole bytes, read as big-endian blocks
        blocks = padded.to_bytes(nb * (w >> 3), "big")
        if w == 16:
            blocks = array("H", blocks)
            if _LITTLE_ENDIAN:
                blocks.byteswap()
        for c in blocks:
            acc = exp[log[acc] + lx] ^ c
    acc = exp[log[acc] + lx] ^ (nbits & mask)
    return exp[log[acc] + lx]


def _tag_value(w: int, key2w: int, value: int, nbits: int) -> int:
    """Tag of ``nbits`` message bits under a 2w-bit key, all as integers.

    Hot-path form used by the transport layer; :func:`tag` is the
    public wrapper over BitString values.
    """
    x = key2w >> w
    y = key2w & ((1 << w) - 1)
    return _hash_value(w, x, value, nbits) ^ y


@dataclass(frozen=True)
class MacParams:
    """Parameters of the polynomial-evaluation MAC family.

    ``word_bits`` is the field size exponent w; tags are w bits and each
    authenticated message consumes a fresh 2w-bit key.
    """

    word_bits: int

    def __post_init__(self):
        if self.word_bits < 1:
            raise ParameterViolation(
                f"word_bits must be >= 1, got {self.word_bits}"
            )

    @property
    def tag_bits(self) -> int:
        return self.word_bits

    @property
    def key_bits_per_message(self) -> int:
        return 2 * self.word_bits


@dataclass(frozen=True)
class MacKey:
    """2w bits of key material: hash key x (first w bits) || pad key y."""

    material: BitString

    def __post_init__(self):
        if self.material.length < 2 or self.material.length % 2:
            raise OutOfRange(
                f"MAC key material must have even length >= 2, "
                f"got {self.material.length}"
            )

    @property
    def word_bits(self) -> int:
        return self.material.length // 2


@dataclass(frozen=True)
class Tag:
    """A w-bit authentication tag."""

    value: BitString


def tag(key: MacKey, message: BitString) -> Tag:
    """Authentication tag of ``message`` under ``key``.

    Deterministic; the word size w is inferred from the key material
    length (2w bits).
    """
    w = key.word_bits
    return Tag(BitString.from_int(
        _tag_value(w, key.material.value, message.value, message.length), w
    ))


def verify(key: MacKey, message: BitString, t: Tag) -> bool:
    """Accept iff ``t`` equals the tag of ``message`` under ``key``."""
    if t.value.length != key.word_bits:
        return False
    return tag(key, message) == t


def split_for_two_messages(key2: BitString) -> tuple[MacKey, MacKey]:
    """Split a 4w-bit reserved segment into two independent MAC keys.

    The first half authenticates the initiator's message and the second
    half the responder's, giving impersonation probability at most
    2 * p_im against the pair of message-tag exchanges.
    """
    if key2.length % 4 or key2.length == 0:
        raise OutOfRange(
            f"two-message key material must have length 4w, got {key2.length}"
        )
    half = key2.length // 2
    return MacKey(key2.slice(1, half)), MacKey(key2.slice(half + 1, key2.length))


def impersonation_bound(params: MacParams, message_bits: int) -> float:
    """Forgery probability bound L / 2^w with L = ceil(message_bits/w) + 1.

    L counts the w-bit blocks of the padded message including the length
    block.  Clamped to 1.0, since for tiny word sizes the formula can
    exceed a probability.
    """
    if message_bits < 0:
        raise OutOfRange(f"message_bits must be >= 0, got {message_bits}")
    w = params.word_bits
    blocks = -(-message_bits // w) + 1
    return min(1.0, blocks / (1 << w))
