"""Shared exception types, the one integer check and the one positive-number check."""

import math
import operator


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ValueError):
    """A run configuration cannot be parsed or validated."""


def _check_count(value, name, least, below=None) -> int:
    """value as a Python int with least <= value < below (no upper bound when below is None).

    numpy integers pass; bools, floats and strings do not.  The one
    integer check of the package: counts, seeds, stream key words, path
    addresses, row ranges, spectrum sizes, truncations, shift components,
    drift directions and the CLI's integer settings pass through it.
    """
    try:
        value = operator.index(None if isinstance(value, bool) else value)  # a bool is no count
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    if below is not None and value >= below:
        raise DomainError(f"{name} must be below {below}, got {value}")
    return value


def _check_positive(value, name) -> float:
    """value as a Python float with 0 < value < inf.

    The one scalar positivity check of the package: rates, alpha, beta,
    horizons, times, omega and the CLI's lambda and log grid lo pass
    through it, and constants._as_rates refuses an array's first bad
    value through it.
    """
    value = float(value)
    if not 0.0 < value < math.inf:  # NaN fails too
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value
