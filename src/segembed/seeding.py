"""Deterministic seed derivation.

Every randomized step in the package draws from a generator seeded by
``derive_seed(master_seed, tag)`` so that independent steps never share or
shift each other's random streams. Every generator is made by
``seeded_rng``, which takes an integer seed >= 0 and raises ``DataError``
for anything else. ``check_fields`` is the one check of every config
field, against its annotated type and the bound in its class's ``KEYS``
table; it shares the integer test with the seed checks here.
"""

import hashlib
import math
import numbers
from dataclasses import fields

import numpy as np

from .errors import ConfigError, DataError

__all__ = ["derive_seed"]


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_integer(value, what: str, minimum=None, error=DataError) -> None:
    if not _is_integer(value) or minimum is not None and value < minimum:
        bound = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise error(f"{what} must be {bound}, got {value!r}")


def _within(value, bound) -> bool:
    """Whether ``value`` meets ``bound``: ``None``, ``"> x"`` or ``">= x"``."""
    if bound is None:
        return True
    op, limit = bound.split()
    return value > float(limit) if op == ">" else value >= float(limit)


def check_fields(config, error=ConfigError) -> None:
    """``error`` naming the key of the first field of the dataclass ``config``
    that misses its annotated type or its bound in ``config.KEYS``, the table
    of each field's config key (ending in the field name) and bound: ``"> x"``
    or ``">= x"`` (NaN meets neither) for a number or each integer of a tuple,
    the allowed values of a ``str``, or ``None``. An ``int`` is an integer (a
    numpy integer too) and a ``float`` a finite real number, neither a bool; a
    ``tuple`` is a non-empty tuple; ``float | None`` also takes ``None``."""
    kinds = {f.name: f.type for f in fields(config)}
    for key, bound in config.KEYS.items():
        name = key.rpartition(".")[2]
        value, kind = getattr(config, name), kinds[name]
        if kind == float | None and value is None:
            continue
        if kind is str:
            if not isinstance(value, str) or value not in bound:
                raise error(f"{key} must be one of {bound}, got {value!r}")
        elif kind is bool:
            if not isinstance(value, bool):
                raise error(f"{key} must be a bool, got {value!r}")
        elif kind is tuple:
            if not (isinstance(value, tuple) and value
                    and all(_is_integer(v) and _within(v, bound) for v in value)):
                raise error(f"{key} must list integers {bound}, got {value!r}")
        else:
            if kind is int:
                _check_integer(value, key, error=error)
            elif (not isinstance(value, numbers.Real) or isinstance(value, bool)
                  or math.isinf(value)):
                raise error(f"{key} must be a finite real number, got {value!r}")
            if not _within(value, bound):
                raise error(f"{key} must be {bound}, got {value!r}")


def derive_seed(master_seed: int, tag: str) -> int:
    """Derive a 64-bit seed from a master seed and a step tag.

    Pure function: the same (master_seed, tag) always yields the same seed,
    on every platform. The master seed may be any integer, negative too.
    """
    _check_integer(master_seed, "master seed")
    digest = hashlib.sha256(f"{master_seed:d}|{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def seeded_rng(seed: int) -> np.random.Generator:
    """Generator seeded by ``seed``, an integer >= 0 (a numpy integer too);
    ``None``, a bool, any other type or a negative seed is a ``DataError``."""
    _check_integer(seed, "seed", minimum=0)
    return np.random.default_rng(seed)


def rng_for(master_seed: int, tag: str) -> np.random.Generator:
    """Generator seeded from (master_seed, tag)."""
    return seeded_rng(derive_seed(master_seed, tag))
