"""Exception types shared across the package."""


class SegembedError(ValueError):
    """Base class for all package errors."""


class ParseError(SegembedError):
    """A line or document could not be parsed."""


class DimensionError(SegembedError):
    """Inconsistent vector or feature dimensions."""


class EmptyCorpusError(SegembedError):
    """A corpus file or segment list contained no segments."""


class ConfigError(SegembedError):
    """Invalid configuration value or unknown configuration key."""


class DataError(SegembedError):
    """Input data violates a documented precondition."""


class EvaluationError(SegembedError):
    """An evaluation protocol cannot be applied to the given inputs."""


class NumericError(SegembedError):
    """Non-finite values or undefined numeric operations."""


# What converting parsed JSON to numbers can raise; the file readers type it.
DECODE_ERRORS = (TypeError, ValueError, OverflowError)
