"""Mutual-information quantities of fixed channel realizations."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fadingmac.capacity import (
    MacChannel,
    frobenius_subset_info,
    scalar_symmetric_capacity,
    subset_mutual_info,
    sum_capacity,
    symmetric_capacity,
)
from fadingmac.errors import InvalidParameterError
from fadingmac.linalg import RngStream, sample_complex_gaussian


def test_subset_info_scalar_examples():
    ch = MacChannel.from_scalar([1.0, 1.0])
    assert abs(subset_mutual_info(ch, [0]) - 1.0) < 1e-12
    ch2 = MacChannel.from_scalar([1.0, math.sqrt(2.0)])
    assert abs(subset_mutual_info(ch2, [0, 1]) - 2.0) < 1e-12


def test_subset_info_zero_channel():
    ch = MacChannel.from_scalar([0.0, 0.0, 0.0])
    assert subset_mutual_info(ch, [0, 2]) == 0.0
    assert sum_capacity(ch) == 0.0
    assert frobenius_subset_info(ch, range(ch.n_users)) == 0.0


def test_subset_validation():
    ch = MacChannel.from_scalar([1.0, 1.0])
    with pytest.raises(InvalidParameterError):
        subset_mutual_info(ch, [])
    with pytest.raises(InvalidParameterError):
        subset_mutual_info(ch, [2])
    with pytest.raises(InvalidParameterError):
        subset_mutual_info(ch, [0, 0])


def test_sum_capacity_two_equal_users():
    ch = MacChannel.from_scalar([1.0, 1.0])
    assert abs(sum_capacity(ch) - math.log2(3.0)) < 1e-12


def test_symmetric_capacity_two_equal_users():
    ch = MacChannel.from_scalar([1.0, 1.0])
    rate, report = symmetric_capacity(ch)
    assert abs(rate - math.log2(3.0)) < 1e-12
    assert report.subset == (0, 1)
    assert abs(report.scaled_rate_bits - rate) < 1e-12


def test_symmetric_capacity_single_user_equals_sum():
    ch = MacChannel.from_scalar([2.5])
    rate, _ = symmetric_capacity(ch)
    assert abs(rate - sum_capacity(ch)) < 1e-12


def test_symmetric_capacity_zero_user_dominates():
    ch = MacChannel.from_scalar([math.sqrt(3.0), 0.0])
    rate, report = symmetric_capacity(ch)
    assert rate == 0.0
    assert report.subset == (1,)


def test_symmetric_capacity_refuses_huge_enumeration():
    ch = MacChannel.from_scalar([1.0] * 21)
    with pytest.raises(InvalidParameterError):
        symmetric_capacity(ch)


def test_scalar_shortcut_matches_enumeration():
    for trial in range(60):
        rng = RngStream(90, trial).generator()
        n = int(rng.integers(2, 9))
        gains = rng.exponential(1.0, n)
        ch = MacChannel.from_scalar(np.sqrt(gains))
        rate, _ = symmetric_capacity(ch)
        assert abs(scalar_symmetric_capacity(gains) - rate) < 1e-12


def test_scalar_shortcut_permutation_invariance():
    gains = np.array([0.3, 2.0, 0.9, 5.0])
    base = scalar_symmetric_capacity(gains)
    rng = RngStream(91).generator()
    for _ in range(10):
        assert scalar_symmetric_capacity(rng.permutation(gains)) == base


def test_symmetric_le_sum_and_permutation_invariance():
    for trial in range(30):
        rng = RngStream(92, trial).generator()
        mats = [sample_complex_gaussian(2, 2, 1.0, rng) for _ in range(3)]
        ch = MacChannel(mats)
        rate, _ = symmetric_capacity(ch)
        assert rate <= sum_capacity(ch) + 1e-12
        perm = [mats[2], mats[0], mats[1]]
        rate_p, _ = symmetric_capacity(MacChannel(perm))
        assert abs(rate - rate_p) < 1e-12


def test_scaling_up_never_decreases():
    rng = RngStream(93).generator()
    mats = [sample_complex_gaussian(2, 2, 1.0, rng) for _ in range(2)]
    ch = MacChannel(mats)
    big = MacChannel([2.0 * m for m in mats])
    assert sum_capacity(big) >= sum_capacity(ch)
    assert symmetric_capacity(big)[0] >= symmetric_capacity(ch)[0]


def test_frobenius_bound_below_true_info():
    for trial in range(40):
        rng = RngStream(94, trial).generator()
        mats = [sample_complex_gaussian(3, 2, 1.0, rng) for _ in range(2)]
        ch = MacChannel(mats)
        for subset in ([0], [1], [0, 1]):
            assert (frobenius_subset_info(ch, subset)
                    <= subset_mutual_info(ch, subset) + 1e-12)
        assert frobenius_subset_info(ch, range(ch.n_users)) <= sum_capacity(ch) + 1e-12


def test_frobenius_equals_true_for_scalars():
    # The second channel carries C = 0.01 bits in all, one user a millionth
    # of it: forming 1 + g would round away the last digits of its gain, so
    # it is compared relatively.
    ch = MacChannel.from_scalar([1.2, 0.7, 2.0])
    shares = np.array([1e-6, 0.4, 0.6 - 1e-6])
    small = MacChannel.from_scalar(np.sqrt(shares * math.expm1(0.01 * math.log(2.0))))
    for subset in ([0], [1, 2], [0, 1, 2]):
        assert abs(frobenius_subset_info(ch, subset)
                   - subset_mutual_info(ch, subset)) < 1e-12
        assert math.isclose(frobenius_subset_info(small, subset),
                            subset_mutual_info(small, subset), rel_tol=1e-12)
    assert math.isclose(sum_capacity(small), 0.01, rel_tol=1e-12)


def test_frobenius_identity_matrix_example():
    ch = MacChannel([np.eye(2, dtype=complex)])
    assert abs(frobenius_subset_info(ch, range(ch.n_users)) - math.log2(3.0)) < 1e-12
    assert abs(sum_capacity(ch) - 2.0) < 1e-12


def test_channel_validation():
    with pytest.raises(InvalidParameterError):
        MacChannel([])
    with pytest.raises(InvalidParameterError):
        MacChannel([np.eye(2), np.eye(3)])
    with pytest.raises(InvalidParameterError):
        MacChannel([np.array([[np.nan]])])
    for gains in ([], [[1.0, 2.0]]):
        with pytest.raises(InvalidParameterError, match="gains must be a non-empty vector"):
            scalar_symmetric_capacity(gains)
    for gains in ([1.0, -0.5], [1.0, math.nan], [math.inf, 1.0]):
        with pytest.raises(InvalidParameterError, match="gains must be finite and non-negative"):
            scalar_symmetric_capacity(gains)


# Gains span 1e-300 to 1e300: a tiny gain's rate is its own size, which
# 1 + g would round to 0 bits, so the two agree relatively.  Subnormal gains
# are left out: their rates are subnormal too, with only a few bits.
_GAINS = st.floats(0.0, 1e300, allow_subnormal=False) | st.floats(1e-300, 1e-3)


@settings(max_examples=150, deadline=None)
@given(gains=st.lists(_GAINS, min_size=1, max_size=7))
@example(gains=[1e-300, 1e-10, 1e300])
def test_scalar_shortcut_equals_subset_enumeration(gains):
    enumerated, _ = symmetric_capacity(MacChannel.from_scalar(np.sqrt(gains)))
    shortcut = scalar_symmetric_capacity(gains)
    assert abs(shortcut - enumerated) <= 1e-12 * enumerated


@pytest.mark.filterwarnings("error")
def test_scalar_shortcut_refuses_an_overflowing_gain_sum():
    # 1e308 + 1e308 is inf: log2 of it would make the pair's rate infinite and
    # return the single user's 2 * 1023.2 bits, not the true 1024.15.
    with pytest.raises(InvalidParameterError, match="^gains are too large: their sum overflows"):
        scalar_symmetric_capacity([1e308, 1e308])
    assert math.isclose(scalar_symmetric_capacity([8e307, 8e307]), math.log2(1.6e308),
                        rel_tol=1e-12)


@pytest.mark.filterwarnings("error")
def test_subset_rates_refuse_an_overflowing_squared_singular_value():
    # Each user's |h|^2 = 1e308 is finite; the pair's sigma^2 = 2e308 is not.
    ch = MacChannel.from_scalar([1e154, 1e154])
    for rate in (lambda: symmetric_capacity(ch), lambda: sum_capacity(ch),
                 lambda: subset_mutual_info(ch, [0, 1])):
        with pytest.raises(InvalidParameterError, match="^channel is too large: a sigma"):
            rate()
    assert math.isclose(subset_mutual_info(ch, [1]), math.log2(1e308), rel_tol=1e-12)


@pytest.mark.filterwarnings("error")
def test_frobenius_rate_refuses_an_overflowing_squared_norm():
    # |h|^2 = 1e310 overflows in numpy's square; 1e308 + 1e308 overflows in
    # the float sum over users.  Both are refused, with no RuntimeWarning.
    for gains, subset in (([1e155], [0]), ([1e154, 1e154], [0, 1])):
        with pytest.raises(InvalidParameterError, match="^channel is too large: its squared"):
            frobenius_subset_info(MacChannel.from_scalar(gains), subset)
    assert math.isclose(frobenius_subset_info(MacChannel.from_scalar([1e154, 1e154]), [1]),
                        math.log2(1e308), rel_tol=1e-12)
