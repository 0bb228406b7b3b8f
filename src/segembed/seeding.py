"""Deterministic seed derivation.

Every randomized step in the package draws from a generator seeded by
``derive_seed(master_seed, tag)`` so that independent steps never share or
shift each other's random streams. Every generator is made by
``seeded_rng``, which takes an integer seed >= 0 and raises ``DataError``
for anything else. ``check_integer_fields`` gives the training configs'
seed and count fields the same integer check, as ``ConfigError``.
"""

import hashlib
import numbers

import numpy as np

from .errors import ConfigError, DataError

__all__ = ["derive_seed"]


def _check_integer(value, what: str, minimum=None, error=DataError) -> None:
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or minimum is not None and value < minimum):
        bound = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise error(f"{what} must be {bound}, got {value!r}")


def check_integer_fields(config, names) -> None:
    """``ConfigError`` naming the first of ``config``'s fields ``names``
    whose value is not an integer: a bool, ``None`` or a float is not, a
    numpy integer is. Ranges are the caller's checks."""
    for name in names:
        _check_integer(getattr(config, name), name, error=ConfigError)


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
