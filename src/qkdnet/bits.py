"""Bit-string primitive: a fixed-length binary value.

Only the public MAC API (keys, messages and tags) carries
:class:`BitString` values; a session, its adversary, distillation and
the exhaustive oracles run on plain integers and never build one.  A
bit string is built from an integer and its length
(:meth:`BitString.from_int`, :meth:`BitString.zeros`); bit 1 is the most
significant bit of the value.
"""

from __future__ import annotations

from .errors import OutOfRange


class BitString:
    """Immutable fixed-length binary string.

    Backed by a non-negative integer whose most significant bit (within
    ``length``) is bit 1.  Values are hashable and compare by value and
    length.
    """

    __slots__ = ("_value", "_length")

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

    @property
    def value(self) -> int:
        """Integer value; bit 1 of the string is the most significant bit."""
        return self._value

    @property
    def length(self) -> int:
        return self._length

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._value == other._value and self._length == other._length

    def __hash__(self) -> int:
        return hash((self._value, self._length))
