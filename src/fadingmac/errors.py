"""Exception types and the parameter validators shared across the package.

Each input rule is written once, here: check_int, check_positive, check_type,
check_choice, check_fraction, check_subset_size, check_interval, check_matrix,
check_gain and check_binomial, where 2^x - 1 and C(n, k) must be floats, and
check_capacity, the domain of the sum capacity C every bound and engine uses.
"""

import math

import numpy as np

_LN2 = math.log(2.0)


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


def check_type(v, cls, name):
    if not isinstance(v, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise InvalidParameterError(f"{name} must be {article} {cls.__name__}")


def check_choice(v, choices, name):
    if v not in choices:
        names = [repr(c) for c in choices]
        raise InvalidParameterError(f"{name} must be {', '.join(names[:-1])} or {names[-1]}")


def check_fraction(x, name):
    if not 0.0 < x < 1.0:
        raise InvalidParameterError(f"{name} must lie in (0, 1)")


def check_subset_size(k, n_users):
    k = check_int(k, "k", 1)
    if k > n_users:
        raise InvalidParameterError("k must lie in [1, n_users]")
    return k


def check_interval(x, name, low, high, tol):
    """``x``, finite and within ``tol`` of [low, high], clamped to it as a float."""
    if not (math.isfinite(x) and low - tol <= x <= high + tol):
        raise InvalidParameterError(f"{name} must lie in [{low}, {high}]")
    return float(min(max(x, low), high))


def check_matrix(m, name):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise InvalidParameterError(f"{name} must be two-dimensional")
    if not np.all(np.isfinite(m.view(float))):
        raise InvalidParameterError(f"{name} has non-finite entries")
    return m


def check_gain(bits, name):
    """2^bits - 1 as expm1(bits ln 2) for bits >= 0; it must be a finite float,
    which holds up to 1024 bits."""
    if not (math.isfinite(bits) and bits >= 0):
        raise InvalidParameterError(f"{name} must be non-negative and finite")
    try:
        return math.expm1(bits * _LN2)
    except OverflowError:
        raise InvalidParameterError(
            f"{name} is too large: 2**C - 1 overflows a float (got {bits})") from None


def check_binomial(n, k):
    """math.comb(n, k) as a float; below 2^1024, as for every k up to n = 1029."""
    try:
        return float(math.comb(n, k))
    except OverflowError:
        raise InvalidParameterError(f"binomial coefficient C({n}, {k}) is too large: it "
                                    "overflows a float (limit 2**1024)") from None


def check_capacity(bits):
    """2^C - 1 for a sum capacity C, which must be positive with 2^C - 1 a
    finite float (up to 1024 bits)."""
    if not (math.isfinite(bits) and bits > 0):
        raise InvalidParameterError("sum capacity must be positive")
    return check_gain(bits, "sum capacity")
