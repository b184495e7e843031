"""Mutual-information quantities of fixed channel realizations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    ch = MacChannel.from_scalar([1.2, 0.7, 2.0])
    for subset in ([0], [1, 2], [0, 1, 2]):
        assert abs(frobenius_subset_info(ch, subset)
                   - subset_mutual_info(ch, subset)) < 1e-12


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


@settings(max_examples=150, deadline=None)
@given(gains=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=7))
def test_scalar_shortcut_equals_subset_enumeration(gains):
    enumerated, _ = symmetric_capacity(MacChannel.from_scalar(np.sqrt(gains)))
    shortcut = scalar_symmetric_capacity(gains)
    assert abs(shortcut - enumerated) <= 1e-12 * max(1.0, enumerated)
