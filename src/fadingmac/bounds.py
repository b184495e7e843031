"""Closed-form conditional outage CDFs and bounds for the fading MAC.

All results condition on a sum-rate statistic of the realization: either the
true sum capacity C (scalar users) or the Frobenius-norm surrogate (MIMO
users).  Conditioned on C, a scalar channel is uniform on a sphere, and
normalized partial gain sums follow Beta laws with integer parameters; every
CDF here is therefore an incomplete beta function that reduces to a finite
binomial sum, evaluated exactly (no continued fractions).  The joint (ML)
receiver's quantile and mean invert and integrate two_user_cdf (beyond two
users the quantile inverts the union bound).

Scalar users are the 1x1 Frobenius case: p_out_k, scalar_bounds and
mimo_union_bound wrap mimo_p_out_k and mimo_bounds for any N >= 1 (one user
is the trivial MAC, whose bracket is 0).  The union and SIMO bounds have
array forms too (one binomial tail serves both union forms); the scalar
forms stay on Python floats as their reference, as a one-row array call
differs in the last bit (2 of 50 union rates, 2x3 at C = 8; 2 of 200 SIMO
rates; numpy 2.4, AVX-512) and np.minimum on a float costs 1.5 us against
0.3 us for min.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidParameterError, check_binomial, check_capacity, check_fraction,
                     check_gain, check_int, check_subset_size, check_type)

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

    ``upper`` is capped at 1; ``upper_raw`` keeps the uncapped union-bound
    value for diagnostics.
    """

    lower: float
    upper: float
    upper_raw: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise InvalidParameterError("bounds must satisfy 0 <= lower <= upper <= 1")


def _binomial_tail(x, a, b):
    # P(Bin(a+b-1, x) >= a) term by term, for a float or an array of x;
    # the caller clamps the sum to 1.  C(n, j) steps from term to term as
    # an exact integer, so each weight is math.comb's without its cost.
    n = a + b - 1
    check_binomial(n, max(a, n // 2))   # the largest coefficient of the sum
    total, w = 0, math.comb(n, a)
    for j in range(a, n + 1):
        total += w * x ** j * (1.0 - x) ** (n - j)
        w = w * (n - j) // (j + 1)
    return total


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
    return min(1.0, _binomial_tail(x, a, b))


def two_user_cdf(rate_bits, sum_cap_bits):
    """P(symmetric capacity < R | sum capacity C) for two scalar users.

    Exact for R <= C: 2 (2^(R/2) - 1) / (2^C - 1).  The distribution also
    has an atom at R = C, so the CDF stays strictly below 1 on [0, C].
    """
    gain = _check_rate_cap(rate_bits, sum_cap_bits)
    return 2.0 * check_gain(rate_bits / 2.0, "rate") / gain


def atom_probability(sum_cap_bits):
    """Mass of the atom at R = C: the chance the symmetric-rate point lies on
    the dominant face of the capacity pentagon (two scalar users)."""
    return 1.0 - two_user_cdf(sum_cap_bits, sum_cap_bits)


def _check_rate_cap(rate_bits, sum_cap_bits):
    """2^C - 1 once C and 0 <= R <= C are checked."""
    gain = check_capacity(sum_cap_bits)
    if not (math.isfinite(rate_bits) and rate_bits >= 0):
        raise InvalidParameterError("rate must be non-negative")
    if rate_bits > sum_cap_bits:
        raise InvalidParameterError("rate must not exceed the sum capacity")
    return gain


def p_out_k(k, n_users, rate_bits, sum_cap_bits):
    """Per-cardinality outage P((N/k) C(S) < R | C) for any fixed |S| = k.

    Scalar users: the normalized subset gain sum is Beta(k, N-k), so this is
    the regularized incomplete beta at x = (2^(Rk/N) - 1) / (2^C - 1).
    k = N is the deterministic event R > C, impossible under R <= C.
    """
    return mimo_p_out_k(k, ScenarioDims(n_users, 1, 1), rate_bits, sum_cap_bits)


def scalar_bounds(n_users, rate_bits, sum_cap_bits):
    """Bracketing of P(symmetric capacity < R | C) for N scalar users.

    Lower bound: the largest single per-cardinality term.  Upper bound: the
    union bound sum over cardinalities weighted by binomial subset counts,
    capped at 1.  For N = 2 the upper bound is exact; for N = 1 both are 0.
    """
    return mimo_bounds(ScenarioDims(n_users, 1, 1), rate_bits, sum_cap_bits)


def _p_out_term(k, n_users, m, rate_bits, cap_gain):
    # P((N/k) C_F(S) < R | C_F) for 1 <= k < N users of m sphere coordinates each
    x = check_gain(rate_bits * k / n_users, "rate") / cap_gain
    return min(1.0, _binomial_tail(min(x, 1.0), k * m, (n_users - k) * m))


def mimo_p_out_k(k, dims, rate_bits, frob_cap_bits):
    """Per-cardinality term of the Frobenius-conditioned union bound.

    Conditioned on the Frobenius sum rate, the per-user squared norms behave
    like aggregated coordinates of a sphere of dimension N*N_r*N_t, inflating
    the beta parameters to (k N_r N_t, (N-k) N_r N_t).
    """
    check_type(dims, ScenarioDims, "dims")
    k = check_subset_size(k, dims.n_users)
    gain = _check_rate_cap(rate_bits, frob_cap_bits)
    if k == dims.n_users:
        return 0.0
    return _p_out_term(k, dims.n_users, dims.n_rx * dims.n_tx, rate_bits, gain)


def mimo_bounds(dims, rate_bits, frob_cap_bits):
    """Bracketing of P(symmetric capacity < R | Frobenius sum rate).

    Lower bound: the largest per-cardinality term.  Upper bound: the union
    sum of the terms weighted by binomial subset counts, capped at 1;
    upper_raw keeps the uncapped sum.
    """
    check_type(dims, ScenarioDims, "dims")
    gain = _check_rate_cap(rate_bits, frob_cap_bits)
    n, m = dims.n_users, dims.n_rx * dims.n_tx
    check_binomial(n, n // 2)   # the largest union weight
    lower = raw = 0.0
    for k in range(1, n):
        p = _p_out_term(k, n, m, rate_bits, gain)
        lower = max(lower, p)
        raw += math.comb(n, k) * p
    return BoundPair(lower=lower, upper=min(1.0, raw), upper_raw=raw)


def mimo_union_bound(dims, rate_bits, frob_cap_bits):
    """Union upper bound on P(symmetric capacity < R | Frobenius sum rate).

    Valid because the Frobenius rate never exceeds the true mutual
    information of any subset.  Reduces to the scalar bound when
    N_t = N_r = 1.
    """
    return mimo_bounds(dims, rate_bits, frob_cap_bits).upper


def _log1m_pow2(gap):
    """log(1 - 2^-gap) for gap > 0 (a float or an array) to full precision.

    Below one bit 1 - 2^-gap cancels, so it is taken as -expm1; above, the
    log of a value near 1 would round to 0, so log1p is used instead
    (Maechler's log1mexp split).
    """
    x = np.multiply(gap, _LN2)
    return np.where(x <= _LN2, np.log(-np.expm1(-x)), np.log1p(-np.exp(-x)))


def two_user_simo_bound(rate_bits, sum_cap_bits):
    """Upper bound 1 - sqrt(1 - 2^-(C-R)) for two single-antenna users and a
    multi-antenna receiver, conditioned on the true sum capacity."""
    _check_rate_cap(rate_bits, sum_cap_bits)
    gap = sum_cap_bits - rate_bits
    if gap == 0.0:
        return 1.0
    return -math.expm1(0.5 * _log1m_pow2(gap))


def _check_rate_caps(rate_bits, caps_bits):
    """Conditioning values as a float array, each checked like _check_rate_cap."""
    caps = np.asarray(caps_bits, dtype=float)
    if caps.size:
        _check_rate_cap(rate_bits, float(caps.min()))
        check_capacity(float(caps.max()))
    return caps


def mimo_union_bound_array(dims, rate_bits, frob_caps_bits):
    """mimo_union_bound at each of an array of Frobenius sum rates.

    Agrees with the scalar function to rounding: numpy's powers and
    logarithms may differ from Python's in the last digit.
    """
    check_type(dims, ScenarioDims, "dims")
    caps = _check_rate_caps(rate_bits, frob_caps_bits)
    n, m = dims.n_users, dims.n_rx * dims.n_tx
    check_binomial(n, n // 2)   # the largest union weight
    denom = np.expm1(caps * _LN2)
    raw = np.zeros_like(caps)
    for k in range(1, n):
        x = np.minimum(check_gain(rate_bits * k / n, "rate") / denom, 1.0)
        raw += math.comb(n, k) * np.minimum(_binomial_tail(x, k * m, (n - k) * m), 1.0)
    return np.minimum(raw, 1.0)


def two_user_simo_bound_array(rate_bits, sum_caps_bits):
    """two_user_simo_bound at each of an array of sum capacities, to rounding."""
    caps = _check_rate_caps(rate_bits, sum_caps_bits)
    out = np.ones_like(caps)
    gap = caps - rate_bits
    above = gap > 0.0
    out[above] = -np.expm1(0.5 * _log1m_pow2(gap[above]))
    return out


def ml_rate_quantile(n_users, sum_cap_bits, outage_level):
    """Largest total rate whose conditional outage stays within outage_level
    for a joint (maximum-likelihood) receiver.

    Exact CDF inversion for two users; for more users the capped union
    upper bound is inverted instead, giving a conservative quantile.
    """
    check_fraction(outage_level, "outage_level")
    gain = check_capacity(sum_cap_bits)
    if n_users == 2:
        return min(sum_cap_bits, 2.0 * math.log1p(0.5 * outage_level * gain) / _LN2)
    if scalar_bounds(n_users, sum_cap_bits, sum_cap_bits).upper <= outage_level:
        return sum_cap_bits
    lo, hi = 0.0, sum_cap_bits
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if scalar_bounds(n_users, mid, sum_cap_bits).upper <= outage_level:
            lo = mid
        else:
            hi = mid
    return lo


def ml_mean_rate_fraction(sum_cap_bits):
    """E[symmetric capacity | C] / C for two scalar users, in closed form.

    Integrates the exact conditional CDF: E = C - int_0^C F(R) dR with
    F(R) = 2 (2^(R/2) - 1) / (2^C - 1).
    """
    c = sum_cap_bits
    denom = check_capacity(c)
    integral = 2.0 * ((2.0 / _LN2) * check_gain(c / 2.0, "sum capacity") - c) / denom
    return (c - integral) / c
