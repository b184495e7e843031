"""Mutual-information quantities of a multiple-access channel realization.

A realization is a set of per-user channel matrices (transmit power and noise
level absorbed into the gains).  All rates are in bits.  The symmetric
capacity is the largest equal per-user rate times the number of users, i.e.
the bottleneck over non-empty user subsets S of (N/|S|) * C(S) where C(S) is
the subset mutual information log2 det(I + sum_{i in S} H_i H_i^H).

C(S) is the sum of log1p(sigma^2) / ln 2 over the singular values of the
stacked W_S = [H_i for i in S], with no I + W_S W_S^H formed; a gain sum,
sigma^2 or squared norm that overflows a float (about 1024 bits) is refused.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, check_matrix

_LN2 = math.log(2.0)

# Subset enumeration is exponential in the number of users; beyond this we
# refuse rather than silently burn time.  Scalar channels have a closed-form
# shortcut, see scalar_symmetric_capacity.
MAX_ENUM_USERS = 20


def check_enumerable(n_users):
    if n_users > MAX_ENUM_USERS:
        raise InvalidParameterError(f"subset enumeration is limited to {MAX_ENUM_USERS} users")


@dataclass(frozen=True)
class SubsetReport:
    """Bottleneck subset of a symmetric-capacity evaluation (0-based indices)."""

    subset: tuple
    rate_bits: float
    scaled_rate_bits: float


class MacChannel:
    """One realization of an N-user MIMO MAC, all users with equal antenna counts."""

    def __init__(self, user_matrices):
        mats = tuple(check_matrix(np.atleast_2d(m), "channel matrix") for m in user_matrices)
        if len(mats) == 0:
            raise InvalidParameterError("at least one user required")
        shape = mats[0].shape
        for m in mats:
            if m.shape != shape:
                raise InvalidParameterError("all user matrices must share one shape")
        self.user_matrices = mats

    @classmethod
    def from_scalar(cls, coefficients):
        """Build a scalar-user channel from complex coefficients h_i."""
        return cls([np.array([[h]], dtype=complex) for h in coefficients])

    @property
    def n_users(self):
        return len(self.user_matrices)

    @property
    def n_tx(self):
        return self.user_matrices[0].shape[1]


def _validate_subset(ch, subset):
    idx = tuple(sorted(int(i) for i in subset))
    if len(idx) == 0:
        raise InvalidParameterError("subset must be non-empty")
    if len(set(idx)) != len(idx):
        raise InvalidParameterError("subset has repeated indices")
    if idx[0] < 0 or idx[-1] >= ch.n_users:
        raise InvalidParameterError("subset indices out of range")
    return idx


def _subset_rate(ch, subset):
    sigma = np.linalg.svd(np.hstack([ch.user_matrices[i] for i in subset]), compute_uv=False)
    with np.errstate(over="ignore"):
        power = sigma * sigma
    if not np.all(np.isfinite(power)):
        raise InvalidParameterError("channel is too large: a sigma^2 overflows a float")
    return float(np.sum(np.log1p(power))) / _LN2


def subset_mutual_info(ch, subset):
    """C(S) = log2 det(I + sum_{i in S} H_i H_i^H) in bits."""
    return _subset_rate(ch, _validate_subset(ch, subset))


def sum_capacity(ch):
    """Mutual information of the full user set."""
    return _subset_rate(ch, range(ch.n_users))


def symmetric_capacity(ch):
    """Symmetric capacity and its bottleneck subset.

    Enumerates all non-empty subsets, so it doubles as the reference
    implementation the scalar shortcut is checked against.
    """
    n = ch.n_users
    check_enumerable(n)
    best = None
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            rate = _subset_rate(ch, subset)
            if best is None or n / k * rate < best.scaled_rate_bits:
                best = SubsetReport(subset, rate, n / k * rate)
    return best.scaled_rate_bits, best


def scalar_symmetric_capacity(gains):
    """Symmetric capacity of a scalar (1x1 per user) channel from |h_i|^2.

    For scalar users the worst subset of each cardinality k is the k weakest
    users, because C(S) only grows when a gain is added.  Sorting the gains
    therefore reduces the 2^N - 1 subsets to N candidates.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise InvalidParameterError("gains must be a non-empty vector")
    if not np.all(np.isfinite(g)) or np.any(g < 0):
        raise InvalidParameterError("gains must be finite and non-negative")
    with np.errstate(over="ignore"):
        rates = scaled_subset_rates(np.sort(g))
    if not np.isfinite(rates[-1]):
        raise InvalidParameterError("gains are too large: their sum overflows a float")
    return float(rates.min())


def scaled_subset_rates(gains_sorted, n_users=None):
    """(N/k) * log2(1 + sum of the k weakest gains) for k = 1..len(gains_sorted)
    (N = n_users, by default all), from gains sorted ascending along the first
    axis, the users': a scalar channel's candidate subset rates, for one
    channel or a stack of them in the columns.  The sums run row by row, in
    np.cumsum's order; np.cumsum along axis 0 makes a strided pass per column."""
    n = len(gains_sorted)
    sums = gains_sorted.copy()
    for k in range(1, n):
        sums[k] += sums[k - 1]
    scale = ((n_users or n) / np.arange(1, n + 1)).reshape(n, *(1,) * (gains_sorted.ndim - 1))
    return scale * np.log1p(sums) / _LN2


def frobenius_subset_info(ch, subset):
    """log2(1 + ||H_S||_F^2): mutual information with the subset's stacked
    matrix replaced by its Frobenius norm.  Never exceeds subset_mutual_info
    and coincides with it for scalar users."""
    idx = _validate_subset(ch, subset)
    with np.errstate(over="ignore"):
        total = sum(float(np.sum(np.abs(ch.user_matrices[i]) ** 2)) for i in idx)
    if not math.isfinite(total):
        raise InvalidParameterError("channel is too large: its squared norm overflows a float")
    return math.log1p(total) / _LN2
