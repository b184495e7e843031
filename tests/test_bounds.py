"""Closed-form outage CDFs and bounds, cross-checked against quadrature."""

import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from fadingmac.bounds import (
    BoundPair,
    ScenarioDims,
    _binomial_tail,
    atom_probability,
    mimo_bounds,
    mimo_p_out_k,
    mimo_union_bound,
    mimo_union_bound_array,
    p_out_k,
    regularized_incomplete_beta,
    scalar_bounds,
    two_user_cdf,
    two_user_simo_bound,
)
from fadingmac.errors import InvalidParameterError
from fadingmac.linalg import RngStream


def quad_beta(x, a, b):
    val, err = integrate.quad(lambda u: u ** (a - 1) * (1.0 - u) ** (b - 1),
                              0.0, x, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-11
    return val


def test_regularized_beta_pinned_values():
    assert abs(regularized_incomplete_beta(1.0, 2, 3) - 1.0) < 1e-15
    assert abs(regularized_incomplete_beta(0.5, 1, 1) - 0.5) < 1e-15
    assert abs(regularized_incomplete_beta(0.3, 1, 2) - 0.51) < 1e-15


def test_regularized_beta_matches_quadrature():
    rng = RngStream(200).generator()
    for _ in range(60):
        a = int(rng.integers(1, 9))
        b = int(rng.integers(1, 9))
        x = float(rng.uniform())
        assert abs(regularized_incomplete_beta(x, a, b)
                   - quad_beta(x, a, b) / quad_beta(1.0, a, b)) < 1e-10


def test_regularized_beta_endpoints_and_monotonicity():
    for a in (1, 3, 6):
        for b in (1, 2, 5):
            assert regularized_incomplete_beta(0.0, a, b) == 0.0
            assert abs(regularized_incomplete_beta(1.0, a, b) - 1.0) < 1e-14
            grid = np.linspace(0.0, 1.0, 21)
            vals = [regularized_incomplete_beta(float(x), a, b) for x in grid]
            assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(vals, vals[1:]))


def test_beta_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        regularized_incomplete_beta(-0.1, 1, 1)
    with pytest.raises(InvalidParameterError):
        regularized_incomplete_beta(1.1, 1, 1)
    with pytest.raises(InvalidParameterError):
        regularized_incomplete_beta(0.5, 0, 1)
    with pytest.raises(InvalidParameterError):
        regularized_incomplete_beta(0.5, 1.5, 1)


@pytest.mark.parametrize("call, coefficient", [
    (lambda: scalar_bounds(1030, 4.0, 8.0), "C(1030, 515)"),
    (lambda: regularized_incomplete_beta(0.3, 515, 516), "C(1030, 515)"),
    (lambda: mimo_union_bound_array(ScenarioDims(2, 1, 516), 3.0, [8.0]), "C(1031, 516)"),
    (lambda: mimo_union_bound_array(ScenarioDims(2, 1, 1100), 3.0, [8.0]), "C(2199, 1100)"),
], ids=["scalar-1030", "beta-515-516", "union-array-516", "union-array-1100"])
def test_binomials_beyond_a_float_are_a_parameter_error(call, coefficient):
    with pytest.raises(InvalidParameterError, match=re.escape(
            f"binomial coefficient {coefficient} is too large: it overflows a float")):
        call()


def test_the_last_binomials_that_are_floats_keep_their_values():
    # Next to the first sizes that overflow.
    assert regularized_incomplete_beta(0.3, 515, 515) == 3.1187199815382094e-41
    assert mimo_union_bound_array(ScenarioDims(2, 1, 515), 3.0, [8.0]).tolist() == [0.0]
    assert scalar_bounds(1029, 4.0, 8.0) == BoundPair(
        lower=0.010818094125708635, upper=1.0, upper_raw=1216761393964.1575)


def _per_term_tail(x, a, b):
    n = a + b - 1
    return sum(math.comb(n, j) * x ** j * (1.0 - x) ** (n - j) for j in range(a, n + 1))


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       a=st.integers(1, 300), b=st.integers(1, 300))
def test_binomial_tail_equals_the_per_term_comb_sum(xs, a, b):
    # Bit for bit, for one float and for an array of them.
    assert np.float64(_binomial_tail(xs[0], a, b)).tobytes() == \
        np.float64(_per_term_tail(xs[0], a, b)).tobytes()
    x = np.array(xs)
    assert _binomial_tail(x, a, b).tobytes() == _per_term_tail(x, a, b).tobytes()


def test_two_user_cdf_pinned_values():
    assert abs(two_user_cdf(2.0, 2.0) - 2.0 / 3.0) < 1e-15
    assert two_user_cdf(0.0, 5.0) == 0.0
    assert abs(two_user_cdf(10.0, 10.0) - 62.0 / 1023.0) < 1e-15
    assert two_user_cdf(10.0, 10.0) < 1.0


def test_two_user_cdf_domain():
    with pytest.raises(InvalidParameterError):
        two_user_cdf(3.0, 2.0)
    with pytest.raises(InvalidParameterError):
        two_user_cdf(1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        two_user_cdf(-0.5, 2.0)


def test_atom_probability_values_and_limits():
    assert abs(atom_probability(2.0) - 1.0 / 3.0) < 1e-15
    assert abs(atom_probability(10.0) - 961.0 / 1023.0) < 1e-15
    assert atom_probability(1e-6) < 1e-3
    assert atom_probability(60.0) > 1.0 - 1e-8
    caps = np.linspace(0.5, 20.0, 40)
    vals = [atom_probability(float(c)) for c in caps]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    assert abs(atom_probability(4.0) + two_user_cdf(4.0, 4.0) - 1.0) < 1e-15


def test_p_out_k_examples():
    # one-user subsets of a two-user channel carry half the weight each
    for r in (0.5, 1.0, 2.0):
        expect = (2.0 ** (r / 2.0) - 1.0) / 3.0
        assert abs(p_out_k(1, 2, r, 2.0) - expect) < 1e-14
    expect = 1.0 - (1.0 - 3.0 / 255.0) ** 3
    assert abs(p_out_k(1, 4, 8.0, 8.0) - expect) < 1e-14
    assert p_out_k(2, 4, 0.0, 8.0) == 0.0
    assert p_out_k(4, 4, 8.0, 8.0) == 0.0


def test_p_out_k_is_beta_law():
    # P((N/k) log2(1 + S_k) < R | C) with S_k/(2^C - 1) ~ Beta(k, N-k)
    for (k, n, r, c) in ((1, 3, 2.0, 6.0), (2, 5, 4.0, 7.0), (3, 4, 5.0, 8.0)):
        x = (2.0 ** (r * k / n) - 1.0) / (2.0 ** c - 1.0)
        expect = quad_beta(x, k, n - k) / quad_beta(1.0, k, n - k)
        assert abs(p_out_k(k, n, r, c) - expect) < 1e-12


def test_scalar_bounds_two_users_equals_exact_cdf():
    for c in (2.0, 6.0, 12.0):
        for r in np.linspace(0.0, c, 15):
            pair = scalar_bounds(2, float(r), c)
            assert abs(pair.upper_raw - two_user_cdf(float(r), c)) < 1e-14
            assert abs(pair.lower - p_out_k(1, 2, float(r), c)) < 1e-14


def test_scalar_bounds_pinned_four_user_values():
    pair = scalar_bounds(4, 0.0, 8.0)
    assert pair.lower == 0.0 and pair.upper == 0.0
    pair = scalar_bounds(4, 8.0, 8.0)
    p1, p2, p3 = (p_out_k(k, 4, 8.0, 8.0) for k in (1, 2, 3))
    assert abs(pair.lower - max(p1, p2, p3)) < 1e-15
    assert abs(pair.upper_raw - (4 * p1 + 6 * p2 + 4 * p3)) < 1e-15
    assert abs(pair.lower - 0.034880521066558125) < 1e-15
    assert abs(pair.upper_raw - 0.2596832892326481) < 1e-15


@pytest.mark.parametrize("rate", [0.0, 1.0, 4.0])
def test_scalar_bounds_at_one_user_are_the_1x1_frobenius_bounds(rate):
    pair = scalar_bounds(1, rate, 4.0)
    assert pair == mimo_bounds(ScenarioDims(1, 1, 1), rate, 4.0)
    assert pair == BoundPair(lower=0.0, upper=0.0, upper_raw=0.0)


def test_scalar_bounds_clamping():
    # push the union sum beyond 1 with many users near R = C
    pair = scalar_bounds(10, 6.0, 6.0)
    assert pair.upper == 1.0
    assert pair.upper_raw > 1.0
    assert pair.lower <= 1.0


def test_scalar_bounds_monotone_in_rate_and_cap():
    rates = np.linspace(0.0, 6.0, 13)
    uppers = [scalar_bounds(3, float(r), 6.0).upper for r in rates]
    lowers = [scalar_bounds(3, float(r), 6.0).lower for r in rates]
    assert all(u2 >= u1 - 1e-14 for u1, u2 in zip(uppers, uppers[1:]))
    assert all(l2 >= l1 - 1e-14 for l1, l2 in zip(lowers, lowers[1:]))
    assert (scalar_bounds(3, 3.0, 8.0).upper
            <= scalar_bounds(3, 3.0, 6.0).upper + 1e-14)


def test_bound_pair_invariant():
    with pytest.raises(InvalidParameterError):
        BoundPair(lower=0.5, upper=0.4, upper_raw=0.4)
    with pytest.raises(InvalidParameterError):
        BoundPair(lower=-0.1, upper=0.4, upper_raw=0.4)


def test_mimo_collapse_to_scalar():
    dims = ScenarioDims(3, 1, 1)
    for k in (1, 2):
        for r in (1.0, 2.5, 4.0):
            assert abs(mimo_p_out_k(k, dims, r, 5.0)
                       - p_out_k(k, 3, r, 5.0)) < 1e-14
    assert abs(mimo_bounds(dims, 3.0, 5.0).upper_raw
               - scalar_bounds(3, 3.0, 5.0).upper_raw) < 1e-14


def test_mimo_bounds_bracket_the_per_cardinality_terms():
    # lower = largest term, upper_raw = subset-count-weighted sum, upper =
    # that sum capped at 1; R = C = 1 exercises the cap.
    for dims in (ScenarioDims(3, 2, 2), ScenarioDims(4, 1, 2), ScenarioDims(1, 2, 2)):
        for rate, cap in ((0.5, 5.0), (3.0, 5.0), (1.0, 1.0)):
            terms = [mimo_p_out_k(k, dims, rate, cap) for k in range(1, dims.n_users + 1)]
            pair = mimo_bounds(dims, rate, cap)
            assert pair.lower == max(terms)
            assert pair.upper_raw == sum(math.comb(dims.n_users, k) * p
                                         for k, p in enumerate(terms, 1))
            assert pair.upper == min(1.0, pair.upper_raw) == mimo_union_bound(dims, rate, cap)
    assert mimo_bounds(ScenarioDims(4, 1, 2), 1.0, 1.0).upper_raw > 1.0
    # one user has no terms, but the rate is still checked against the cap
    with pytest.raises(InvalidParameterError):
        mimo_bounds(ScenarioDims(1, 2, 2), 6.0, 5.0)


def test_mimo_p_out_k_pinned_value():
    dims = ScenarioDims(2, 2, 3)
    x = (2.0 ** 1.5 - 1.0) / 63.0
    expect = quad_beta(x, 6, 6) / quad_beta(1.0, 6, 6)
    got = mimo_p_out_k(1, dims, 3.0, 6.0)
    assert abs(got - expect) < 1e-12
    assert abs(got - 2.434567129774609e-07) < 1e-18
    assert mimo_p_out_k(1, dims, 0.0, 6.0) == 0.0


def test_mimo_p_out_k_high_capacity_decay_is_diversity_six():
    # I_x(6, 6) ~ x^6 with x ~ 2^-C: each extra bit of conditioning capacity
    # (3 dB of SNR at high SNR) divides the k=1 term by 2^6.  This is the
    # SNR^-6 decay of the averaged union bound checked by acceptance
    # criterion 4, and it matches symmetric_mac_dmt(2, 2, 3, 0) = 6.
    dims = ScenarioDims(2, 2, 3)
    for cap in range(20, 41):
        ratio = mimo_p_out_k(1, dims, 3.0, cap + 1.0) / mimo_p_out_k(1, dims, 3.0, cap)
        assert abs(math.log2(ratio) + 6.0) < 1e-2


def test_mimo_union_bound_clamps():
    dims = ScenarioDims(4, 2, 2)
    raw = mimo_bounds(dims, 1.0, 1.0).upper_raw
    clamped = mimo_union_bound(dims, 1.0, 1.0)
    assert clamped <= 1.0
    assert raw >= clamped


def test_simo_bound_values():
    assert two_user_simo_bound(3.0, 3.0) == 1.0
    assert abs(two_user_simo_bound(2.0, 3.0) - (1.0 - 1.0 / math.sqrt(2.0))) < 1e-15
    got = two_user_simo_bound(0.0, 10.0)
    expect = 1.0 - math.sqrt(1.0 - 2.0 ** -10.0)
    assert abs(got - expect) < 1e-15
    assert abs(got - 4.884005175327388e-04) < 1e-15


def test_simo_bound_no_cancellation_at_large_gap():
    # naive 1 - sqrt(1 - eps) loses digits; the implementation must not
    got = two_user_simo_bound(1.0, 61.0)
    expect = 0.5 * 2.0 ** -60.0
    assert got > 0.0
    assert abs(got / expect - 1.0) < 1e-9


def test_simo_bound_matches_a_decimal_oracle():
    # 1 - sqrt(1 - 2^-gap) at 50 digits; the float form must not cancel as
    # the gap C - R goes to 0, nor lose the tail at large gaps.
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        for gap in (1e-12, 3.5e-9, 1e-6, 1e-3, 0.5, 1.0, 7.0, 60.0):
            d = decimal.Decimal(gap)
            exact = 1 - (1 - decimal.Decimal(2) ** -d).sqrt()
            got = two_user_simo_bound(0.0, gap)
            assert abs(decimal.Decimal(got) / exact - 1) < decimal.Decimal("1e-13")


def test_simo_bound_monotone_and_domain():
    gaps = np.linspace(0.0, 12.0, 25)
    vals = [two_user_simo_bound(12.0 - g, 12.0) for g in gaps]
    assert all(v2 <= v1 for v1, v2 in zip(vals, vals[1:]))
    with pytest.raises(InvalidParameterError):
        two_user_simo_bound(4.0, 3.0)


def test_outputs_stay_in_unit_interval():
    rng = RngStream(201).generator()
    for _ in range(200):
        n = int(rng.integers(2, 7))
        c = float(rng.uniform(0.2, 14.0))
        r = float(rng.uniform(0.0, c))
        pair = scalar_bounds(n, r, c)
        assert 0.0 <= pair.lower <= pair.upper <= 1.0
        k = int(rng.integers(1, n + 1))
        assert 0.0 <= p_out_k(k, n, r, c) <= 1.0


def test_numpy_integer_dimensions_are_accepted_and_stored_as_int():
    dims = ScenarioDims(np.int64(2), np.int64(2), 3)
    assert (dims.n_users, dims.n_tx, dims.n_rx) == (2, 2, 3)
    assert all(type(v) is int for v in (dims.n_users, dims.n_tx, dims.n_rx))
    assert mimo_union_bound(dims, 3.0, 8.0) == mimo_union_bound(ScenarioDims(2, 2, 3), 3.0, 8.0)


def test_non_finite_integer_parameter_is_a_parameter_error():
    with pytest.raises(InvalidParameterError):
        p_out_k(float("inf"), 2, 1.0, 2.0)
    with pytest.raises(InvalidParameterError):
        scalar_bounds(float("nan"), 1.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(cap=st.floats(1e-3, 80.0), frac=st.floats(0.0, 1.0), n_users=st.integers(3, 6))
def test_scalar_bracket_holds_on_generated_points(cap, frac, n_users):
    rate = frac * cap
    two = scalar_bounds(2, rate, cap)
    exact = two_user_cdf(rate, cap)
    tol = 1e-12 * exact + 1e-300   # the floor covers subnormal results
    assert two.lower <= exact + tol
    assert exact <= two.upper + tol
    many = scalar_bounds(n_users, rate, cap)
    assert 0.0 <= many.lower <= many.upper + 1e-12
