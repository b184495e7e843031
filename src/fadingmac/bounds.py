"""Closed-form conditional outage CDFs and bounds for the fading MAC.

All results condition on a sum-rate statistic of the realization: either the
true sum capacity C (scalar users) or the Frobenius-norm surrogate (MIMO
users).  Conditioned on C, a scalar channel is uniform on a sphere, and
normalized partial gain sums follow Beta laws with integer parameters; every
CDF here is therefore an incomplete beta function that reduces to a finite
binomial sum, evaluated exactly (no continued fractions).
"""

import math
from dataclasses import dataclass

from .errors import InvalidParameterError, check_int, check_positive

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ScenarioDims:
    """Users and per-user antenna counts of a MAC scenario."""

    n_users: int
    n_tx: int
    n_rx: int

    def __post_init__(self):
        for name in ("n_users", "n_tx", "n_rx"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 1))


@dataclass(frozen=True)
class BoundPair:
    """Lower/upper bounds on an outage probability.

    ``upper`` is clamped to 1; ``upper_raw`` keeps the unclamped union-bound
    value for diagnostics.
    """

    lower: float
    upper: float
    upper_raw: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise InvalidParameterError("bounds must satisfy 0 <= lower <= upper <= 1")


def _pow2m1(y):
    # 2**y - 1 without cancellation for small y
    return math.expm1(y * _LN2)


def regularized_incomplete_beta(x, a, b):
    """I_x(a, b) for integer a, b >= 1, evaluated as a binomial tail.

    For integer parameters I_x(a, b) = P(Bin(a+b-1, x) >= a), a finite sum
    of non-negative terms, so the evaluation is exact to rounding with no
    cancellation.
    """
    a = check_int(a, "a")
    b = check_int(b, "b")
    if a < 1 or b < 1:
        raise InvalidParameterError("beta parameters must be >= 1")
    if not (0.0 <= x <= 1.0):
        raise InvalidParameterError("x must lie in [0, 1]")
    n = a + b - 1
    return min(1.0, sum(math.comb(n, j) * x ** j * (1.0 - x) ** (n - j)
                        for j in range(a, n + 1)))


def incomplete_beta(x, a, b):
    """Unnormalized incomplete beta integral of u^(a-1) (1-u)^(b-1) on [0, x]."""
    a = check_int(a, "a")
    b = check_int(b, "b")
    if a < 1 or b < 1:
        raise InvalidParameterError("beta parameters must be >= 1")
    # B(a, b) = (a-1)! (b-1)! / (a+b-1)! exactly, via one integer binomial
    complete = 1.0 / (math.comb(a + b - 2, a - 1) * (a + b - 1))
    return regularized_incomplete_beta(x, a, b) * complete


def two_user_cdf(rate_bits, sum_cap_bits):
    """P(symmetric capacity < R | sum capacity C) for two scalar users.

    Exact for R <= C: 2 (2^(R/2) - 1) / (2^C - 1).  The distribution also
    has an atom at R = C, so the CDF stays strictly below 1 on [0, C].
    """
    _check_rate_cap(rate_bits, sum_cap_bits)
    return 2.0 * _pow2m1(rate_bits / 2.0) / _pow2m1(sum_cap_bits)


def atom_probability(sum_cap_bits):
    """Mass of the atom at R = C: the chance the symmetric-rate point lies on
    the dominant face of the capacity pentagon (two scalar users)."""
    check_positive(sum_cap_bits, "sum capacity")
    return 1.0 - two_user_cdf(sum_cap_bits, sum_cap_bits)


def _check_rate_cap(rate_bits, sum_cap_bits):
    check_positive(sum_cap_bits, "sum capacity")
    if not (math.isfinite(rate_bits) and rate_bits >= 0):
        raise InvalidParameterError("rate must be non-negative")
    if rate_bits > sum_cap_bits:
        raise InvalidParameterError("rate must not exceed the conditioning capacity")


def p_out_k(k, n_users, rate_bits, sum_cap_bits):
    """Per-cardinality outage P((N/k) C(S) < R | C) for any fixed |S| = k.

    Scalar users: the normalized subset gain sum is Beta(k, N-k), so this is
    the regularized incomplete beta at x = (2^(Rk/N) - 1) / (2^C - 1).
    k = N is the deterministic event R > C, impossible under R <= C.
    """
    k = check_int(k, "k")
    n_users = check_int(n_users, "n_users")
    if n_users < 1:
        raise InvalidParameterError("n_users must be >= 1")
    if k < 1 or k > n_users:
        raise InvalidParameterError("k must lie in [1, n_users]")
    _check_rate_cap(rate_bits, sum_cap_bits)
    if k == n_users:
        return 0.0
    x = _pow2m1(rate_bits * k / n_users) / _pow2m1(sum_cap_bits)
    return regularized_incomplete_beta(min(x, 1.0), k, n_users - k)


def scalar_bounds(n_users, rate_bits, sum_cap_bits):
    """Bracketing of P(symmetric capacity < R | C) for N scalar users.

    Lower bound: the largest single per-cardinality term.  Upper bound: the
    union bound sum over cardinalities weighted by binomial subset counts,
    clamped to 1.  For N = 2 the upper bound is exact.
    """
    n_users = check_int(n_users, "n_users")
    if n_users < 2:
        raise InvalidParameterError("n_users must be >= 2")
    _check_rate_cap(rate_bits, sum_cap_bits)
    lower = 0.0
    raw = 0.0
    for k in range(1, n_users):
        p = p_out_k(k, n_users, rate_bits, sum_cap_bits)
        lower = max(lower, p)
        raw += math.comb(n_users, k) * p
    return BoundPair(lower=lower, upper=min(1.0, raw), upper_raw=raw)


def mimo_p_out_k(k, dims, rate_bits, frob_cap_bits):
    """Per-cardinality term of the Frobenius-conditioned union bound.

    Conditioned on the Frobenius sum rate, the per-user squared norms behave
    like aggregated coordinates of a sphere of dimension N*N_r*N_t, inflating
    the beta parameters to (k N_r N_t, (N-k) N_r N_t).
    """
    if not isinstance(dims, ScenarioDims):
        raise InvalidParameterError("dims must be a ScenarioDims")
    k = check_int(k, "k")
    if k < 1 or k > dims.n_users:
        raise InvalidParameterError("k must lie in [1, n_users]")
    _check_rate_cap(rate_bits, frob_cap_bits)
    if k == dims.n_users:
        return 0.0
    m = dims.n_rx * dims.n_tx
    x = _pow2m1(rate_bits * k / dims.n_users) / _pow2m1(frob_cap_bits)
    return regularized_incomplete_beta(min(x, 1.0), k * m, (dims.n_users - k) * m)


def mimo_union_bound(dims, rate_bits, frob_cap_bits, clamped=True):
    """Union upper bound on P(symmetric capacity < R | Frobenius sum rate).

    Valid because the Frobenius rate never exceeds the true mutual
    information of any subset.  Reduces to the scalar bound when
    N_t = N_r = 1.
    """
    if not isinstance(dims, ScenarioDims):
        raise InvalidParameterError("dims must be a ScenarioDims")
    raw = sum(math.comb(dims.n_users, k) * mimo_p_out_k(k, dims, rate_bits, frob_cap_bits)
              for k in range(1, dims.n_users))
    return min(1.0, raw) if clamped else raw


def two_user_simo_bound(rate_bits, sum_cap_bits):
    """Upper bound 1 - sqrt(1 - 2^-(C-R)) for two single-antenna users and a
    multi-antenna receiver, conditioned on the true sum capacity."""
    _check_rate_cap(rate_bits, sum_cap_bits)
    gap = sum_cap_bits - rate_bits
    if gap == 0.0:
        return 1.0
    eps = math.exp(-gap * _LN2)
    return -math.expm1(0.5 * math.log1p(-eps))
