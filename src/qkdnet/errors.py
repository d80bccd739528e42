"""Exception hierarchy shared by all qkdnet modules.

I/O failures are reported with the built-in ``OSError`` family; everything
protocol- or model-specific derives from :class:`QkdNetError`.
"""


class QkdNetError(Exception):
    """Base class for all qkdnet errors."""


class LengthMismatch(QkdNetError):
    """Operands that must share a bit length do not."""


class OutOfRange(QkdNetError):
    """An index, split point, or key length is outside its valid range."""


class ParameterViolation(QkdNetError):
    """Security parameters violate a structural constraint (e.g. m >= n-2s)."""


class InsufficientConnectivity(QkdNetError):
    """Fewer vertex-disjoint paths exist than requested.

    ``max_paths`` carries the maximum achievable count.
    """

    def __init__(self, requested, max_paths):
        super().__init__(
            f"requested {requested} vertex-disjoint paths, only {max_paths} exist"
        )
        self.requested = requested
        self.max_paths = max_paths


class InsufficientKey(QkdNetError):
    """A link key pool ran out of bits."""


class LinkDown(QkdNetError):
    """The link has aborted (eavesdropping-induced or administrative)."""


class TooLarge(QkdNetError):
    """The instance exceeds the exhaustive-mode size limit."""


class ParseError(QkdNetError):
    """A scenario document is not well-formed."""


class ValidationError(QkdNetError):
    """A scenario document is well-formed but violates an invariant."""


def shown(value) -> str:
    """``repr(value)`` for an error message; an int past the interpreter's
    int-to-str digit limit is given by its bit length instead."""
    try:
        return repr(value)
    except ValueError:
        return f"{'-' * (value < 0)}<{value.bit_length()}-bit int>"
