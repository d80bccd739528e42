"""Exception hierarchy shared by all qkdnet modules.

I/O failures are reported with the built-in ``OSError`` family; everything
protocol- or model-specific derives from :class:`QkdNetError`.
"""


class QkdNetError(Exception):
    """Base class for all qkdnet errors."""


class LengthMismatch(QkdNetError):
    """Operands that must share a bit length do not."""


class EmptyInput(QkdNetError):
    """An operation requiring at least one element received none."""


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


class BoundExceeded(QkdNetError):
    """More nodes corrupted than the adversary's t-bound allows."""


class EndpointCorruption(QkdNetError):
    """Attempted to corrupt one of the session endpoints."""


class TooLarge(QkdNetError):
    """The instance exceeds the exhaustive-mode size limit."""


class ParseError(QkdNetError):
    """A scenario document is not well-formed."""


class ValidationError(QkdNetError):
    """A scenario document is well-formed but violates an invariant."""
