"""Bit-string primitive: a fixed-length binary string with slicing.

Only the public MAC API (keys, messages and tags) and the exhaustive
MAC forgery oracle carry :class:`BitString` values; a session, its
adversary, distillation and the other oracles run on plain integers and
never build one.  Positions are 1-based: bit 1 is the leftmost character
of the textual form, so ``BitString("0110").slice(1, 2)`` is ``"01"``.
The textual encoding used in files and logs is the plain ASCII '0'/'1'
string.
"""

from __future__ import annotations

from .errors import OutOfRange

_VALID_CHARS = frozenset("01")


class BitString:
    """Immutable fixed-length binary string.

    Backed by a non-negative integer whose most significant bit (within
    ``length``) is bit 1, so that shifts realize slicing.  Values are
    hashable and compare by value and length.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, text: str = ""):
        if not _VALID_CHARS.issuperset(text):
            raise ValueError(f"bit string may contain only '0'/'1': {text!r}")
        self._value = int(text, 2) if text else 0
        self._length = len(text)

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """Wrap a non-negative integer as a bit string of ``length`` bits."""
        if length < 0:
            raise OutOfRange(f"length must be >= 0, got {length}")
        if value < 0 or value >> length:
            raise OutOfRange(f"value {value} does not fit in {length} bits")
        bs = cls.__new__(cls)
        bs._value = value
        bs._length = length
        return bs

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls.from_int(0, length)

    @classmethod
    def random(cls, length: int, rng) -> "BitString":
        """Uniform random bit string drawn from ``rng.getrandbits``."""
        if length < 0:
            raise OutOfRange(f"length must be >= 0, got {length}")
        return cls.from_int(rng.getrandbits(length) if length else 0, length)

    @property
    def value(self) -> int:
        """Integer value; bit 1 of the string is the most significant bit."""
        return self._value

    @property
    def length(self) -> int:
        return self._length

    def __len__(self) -> int:
        return self._length

    def slice(self, a: int, b: int) -> "BitString":
        """Return bits ``a..b`` inclusive (1-based); length is b-a+1."""
        if not 1 <= a or not a <= b or not b <= self._length:
            raise OutOfRange(f"slice {a}..{b} invalid for length {self._length}")
        width = b - a + 1
        return BitString.from_int(
            (self._value >> (self._length - b)) & ((1 << width) - 1), width
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._value == other._value and self._length == other._length

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __str__(self) -> str:
        return format(self._value, f"0{self._length}b") if self._length else ""

    def __repr__(self) -> str:
        return f"BitString({str(self)!r})"
