"""Exception types shared across the package."""


class TwgiError(Exception):
    """Base class for all errors raised by this package."""


class BoundsError(TwgiError, IndexError):
    """A position argument lies outside the valid range of a structure."""


class NotFoundError(TwgiError, LookupError):
    """A requested ordinal/edge does not exist (distinct from out-of-bounds)."""


class ValidationError(TwgiError, ValueError):
    """Input data violates a structural requirement (graph axioms, block
    conditions, malformed edge lists)."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class InvariantError(TwgiError, RuntimeError):
    """An internal invariant of a graph or index does not hold: its
    structures contradict each other (a corrupt index that loaded) or the
    code has a bug."""


class FormatError(TwgiError, ValueError):
    """Base class for serialized-file problems."""


class BadMagicError(FormatError):
    """File does not start with the expected magic bytes."""


class VersionError(FormatError):
    """File format version is not supported by this reader."""


class ChecksumError(FormatError):
    """Stored checksum does not match the file contents."""


class TruncatedError(FormatError):
    """File ended before a declared section was complete."""
