"""Exception types shared across the package, and the conversion of parsed
JSON numbers that the file readers type."""

import numpy as np


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


def has_bool_literal(text: str) -> bool:
    """Whether JSON ``text`` may hold a boolean: one substring test."""
    return "true" in text or "false" in text


def _holds_bool(value) -> bool:
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def json_numbers(value, scan_bools: bool = False) -> np.ndarray:
    """``value``, JSON numbers in nested lists, as a float64 array.

    A JSON string or boolean among them raises TypeError, so that one of
    DECODE_ERRORS is all a reader catches. A string is found by the dtype
    of the array built without one (or, in an object array, by each
    element). A boolean mixed with numbers becomes a float there, so it is
    found by a scan of each element of ``value``, which runs only with
    ``scan_bools``: when ``has_bool_literal`` of the text that ``value``
    was parsed from.
    """
    arr = np.asarray(value)
    if arr.dtype.kind in "SU" or arr.dtype.kind == "O" and any(
        isinstance(x, str) for x in arr.flat
    ):
        raise TypeError("could not convert string to float: a JSON string is not a number")
    if arr.dtype.kind == "b" or scan_bools and _holds_bool(value):
        raise TypeError("could not convert boolean to float: a JSON boolean is not a number")
    return arr.astype(np.float64, copy=False)
