"""Small shared utilities: integer math, bit-length helpers, RNG plumbing.

Everything in this module is deterministic and dependency-light; it is used
by every other subpackage.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import AlgorithmError

__all__ = [
    "bits_for",
    "bits_for_count",
    "iroot",
    "as_rng",
    "spawn_rngs",
    "check_positive_int",
    "check_input_int",
    "check_seed",
    "polylog",
]


def bits_for(n_values: int) -> int:
    """Number of bits needed to address one of ``n_values`` distinct values.

    ``bits_for(1) == 1`` by convention (a message still occupies a slot).
    """
    if n_values <= 0:
        raise ValueError(f"n_values must be positive, got {n_values}")
    return max(1, math.ceil(math.log2(n_values))) if n_values > 1 else 1


def bits_for_count(max_count: int) -> int:
    """Bits needed to encode an integer count in ``[0, max_count]``."""
    if max_count < 0:
        raise ValueError(f"max_count must be non-negative, got {max_count}")
    return bits_for(max_count + 1)


def iroot(n: int, r: int) -> int:
    """Integer r-th root: largest ``x`` with ``x**r <= n``."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        return 0
    x = round(n ** (1.0 / r))
    # Fix float rounding either way.
    while x**r > n:
        x -= 1
    while (x + 1) ** r <= n:
        x += 1
    return x


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce ``seed`` (int, Generator, or None) into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` independent, reproducible Generators from one seed.

    Uses :class:`numpy.random.SeedSequence` spawning so per-machine streams
    are statistically independent yet fully determined by ``seed``.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive int and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


def check_input_int(value, name: str, minimum: int) -> None:
    """Raise :class:`~repro.errors.AlgorithmError` unless ``value`` is an int >= ``minimum``.

    For numbers from outside the program (the command line, ``/run``
    requests), checked before any graph or generator is built from them.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise AlgorithmError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_seed(seed) -> None:
    """A run seed is ``None`` (fresh entropy) or an integer >= 0, as numpy requires."""
    if seed is not None:
        check_input_int(seed, "seed", 0)


def polylog(n: int, factor: int = 32, power: int = 1) -> int:
    """A concrete ``Θ(polylog n)`` value: ``factor * ceil(log2 n)**power``.

    Used as the default link bandwidth ``B``.
    """
    check_positive_int(n, "n")
    check_positive_int(factor, "factor")
    check_positive_int(power, "power")
    return factor * (max(1, math.ceil(math.log2(max(2, n)))) ** power)


def stable_hash64_array(xs: "np.ndarray", salt: int = 0) -> "np.ndarray":
    """Vectorized splitmix64 over an integer array (returns uint64 array)."""
    z = xs.astype(np.uint64, copy=True)
    z += np.uint64((0x9E3779B97F4A7C15 + salt * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))
