"""Mutual-information quantities of a multiple-access channel realization.

A realization is a set of per-user channel matrices (transmit power and noise
level absorbed into the gains).  All rates are in bits.  The symmetric
capacity is the largest equal per-user rate times the number of users, i.e.
the bottleneck over non-empty user subsets S of (N/|S|) * C(S) where C(S) is
the subset mutual information log2 det(I + sum_{i in S} H_i H_i^H).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, check_matrix
from .linalg import cholesky_lower

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
    def n_rx(self):
        return self.user_matrices[0].shape[0]

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


def _logdet2_eye_plus_gram(mats, n_rx):
    gram = np.eye(n_rx, dtype=complex)
    for m in mats:
        gram += m @ m.conj().T
    low = cholesky_lower(gram)
    return 2.0 * float(np.sum(np.log2(np.diagonal(low).real)))


def subset_mutual_info(ch, subset):
    """C(S) = log2 det(I + sum_{i in S} H_i H_i^H) in bits."""
    idx = _validate_subset(ch, subset)
    return _logdet2_eye_plus_gram([ch.user_matrices[i] for i in idx], ch.n_rx)


def sum_capacity(ch):
    """Mutual information of the full user set."""
    return _logdet2_eye_plus_gram(ch.user_matrices, ch.n_rx)


def symmetric_capacity(ch):
    """Symmetric capacity and its bottleneck subset.

    Enumerates all non-empty subsets, so it doubles as the reference
    implementation the scalar shortcut is checked against.
    """
    n = ch.n_users
    check_enumerable(n)
    best = None
    for k in range(1, n + 1):
        scale = n / k
        for subset in itertools.combinations(range(n), k):
            rate = _logdet2_eye_plus_gram(
                [ch.user_matrices[i] for i in subset], ch.n_rx)
            scaled = scale * rate
            if best is None or scaled < best.scaled_rate_bits:
                best = SubsetReport(subset, rate, scaled)
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
    return float(scaled_subset_rates(np.sort(g)).min())


def scaled_subset_rates(gains_sorted):
    """(N/k) * log2(1 + sum of the k weakest gains) for k = 1..N, from gains
    sorted ascending along the last axis: the candidate subset rates of a
    scalar channel, for one channel or for a stack of them."""
    n = gains_sorted.shape[-1]
    return (n / np.arange(1, n + 1)) * np.log1p(np.cumsum(gains_sorted, axis=-1)) / _LN2


def frobenius_subset_info(ch, subset):
    """log2(1 + ||H_S||_F^2): mutual information with the subset's stacked
    matrix replaced by its Frobenius norm.  Never exceeds subset_mutual_info
    and coincides with it for scalar users."""
    idx = _validate_subset(ch, subset)
    total = sum(float(np.sum(np.abs(ch.user_matrices[i]) ** 2)) for i in idx)
    return math.log1p(total) / _LN2
