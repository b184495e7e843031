"""Exception types and the parameter validators shared across the package."""

import math


class InvalidParameterError(ValueError):
    """An argument violates one of the documented preconditions."""


class NumericalDomainError(ArithmeticError):
    """An input lies outside the numerical domain of an operation, e.g. a
    matrix that must be positive definite is not."""


_INT_KINDS = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}


def check_int(v, name, low=None):
    """``v`` as a Python int, or InvalidParameterError.

    Accepts ints, numpy integers and integral floats; with ``low`` given,
    also requires ``v >= low``.
    """
    try:
        iv = int(v)
    except (TypeError, ValueError, OverflowError):
        iv = None
    if iv is None or iv != v or (low is not None and iv < low):
        kind = _INT_KINDS.get(low, f"an integer >= {low}")
        raise InvalidParameterError(f"{name} must be {kind}")
    return iv


def check_positive(x, name):
    """Raise InvalidParameterError unless ``x`` is finite and positive."""
    if not (math.isfinite(x) and x > 0):
        raise InvalidParameterError(f"{name} must be positive")
