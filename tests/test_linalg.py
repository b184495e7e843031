"""Sampler distributions and matrix kernels."""

import math

import numpy as np
import pytest
from scipy import stats

from fadingmac.errors import InvalidParameterError, NumericalDomainError
from fadingmac.linalg import (
    RngStream,
    cholesky_lower,
    hermitian_inverse,
    sample_capacity_sphere,
    sample_complex_gaussian,
    sample_haar_unitary,
    trial_generators,
)


def test_rng_stream_is_deterministic():
    a = RngStream(42, 3).generator().standard_normal(8)
    b = RngStream(42, 3).generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_rng_streams_differ_across_ids_and_seeds():
    base = RngStream(42, 0).generator().standard_normal(8)
    other_stream = RngStream(42, 1).generator().standard_normal(8)
    other_seed = RngStream(43, 0).generator().standard_normal(8)
    assert not np.array_equal(base, other_stream)
    assert not np.array_equal(base, other_seed)


def test_rng_stream_validation():
    with pytest.raises(InvalidParameterError):
        RngStream(-1)
    with pytest.raises(InvalidParameterError):
        RngStream(1, -2)
    with pytest.raises(InvalidParameterError):
        RngStream(1.5)


def test_complex_gaussian_moments():
    z = sample_complex_gaussian(200, 200, 2.0, RngStream(0))
    var = np.mean(np.abs(z) ** 2)
    assert abs(var - 2.0) < 0.02
    assert abs(np.mean(z.real)) < 0.01
    assert abs(np.mean(z.imag)) < 0.01


def test_complex_gaussian_rejects_bad_args():
    with pytest.raises(InvalidParameterError):
        sample_complex_gaussian(0, 3, 1.0, RngStream(0))
    with pytest.raises(InvalidParameterError):
        sample_complex_gaussian(2, 2, 0.0, RngStream(0))
    with pytest.raises(InvalidParameterError):
        sample_complex_gaussian(2, 2, 1.0, "not an rng")


def test_haar_unitary_is_unitary():
    for n in (1, 2, 5):
        u = sample_haar_unitary(n, RngStream(1, n))
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12


def test_haar_first_entry_magnitude_law():
    # for Haar 2x2, |U_00|^2 is uniform on [0, 1]
    rng = RngStream(5).generator()
    vals = np.array([abs(sample_haar_unitary(2, rng)[0, 0]) ** 2
                     for _ in range(20000)])
    d, _ = stats.kstest(vals, "uniform")
    assert d < 0.015


def test_haar_left_invariance():
    # a fixed unitary times a Haar draw is still Haar: compare |U_00|^2 laws
    theta = 0.7
    fixed = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]], dtype=complex)
    rng = RngStream(6).generator()
    plain = np.empty(8000)
    rotated = np.empty(8000)
    for i in range(8000):
        u = sample_haar_unitary(2, rng)
        plain[i] = abs(u[0, 0]) ** 2
        rotated[i] = abs((fixed @ u)[0, 0]) ** 2
    d, _ = stats.ks_2samp(plain, rotated)
    assert d < 0.03


def test_capacity_sphere_norm_is_exact():
    for cap in (0.5, 2.0, 10.0):
        h = sample_capacity_sphere(4, cap, RngStream(2, int(cap * 10)))
        got = math.log2(1.0 + float(np.sum(np.abs(h) ** 2)))
        assert abs(got - cap) < 1e-12


def test_capacity_sphere_zero_cap():
    h = sample_capacity_sphere(3, 0.0, RngStream(0))
    assert np.max(np.abs(h)) == 0.0


def test_capacity_sphere_partial_sums_follow_beta_law():
    # fraction of the squared norm in the first k of n coordinates ~ Beta(k, n-k)
    n, k, cap = 4, 2, 3.0
    total = math.pow(2.0, cap) - 1.0
    rng = RngStream(3).generator()
    fracs = np.empty(20000)
    for i in range(20000):
        h = sample_capacity_sphere(n, cap, rng)
        fracs[i] = float(np.sum(np.abs(h[:k]) ** 2)) / total
    d, _ = stats.kstest(fracs, stats.beta(k, n - k).cdf)
    assert d < 0.015


def test_cholesky_and_inverse_roundtrip():
    rng = RngStream(4).generator()
    for n in (1, 3, 6):
        z = sample_complex_gaussian(n, n, 1.0, rng)
        k = np.eye(n) + z @ z.conj().T
        low = cholesky_lower(k)
        assert np.max(np.abs(low @ low.conj().T - k)) < 1e-10
        inv = hermitian_inverse(k)
        assert np.max(np.abs(inv @ k - np.eye(n))) < 1e-10
        assert np.max(np.abs(inv - inv.conj().T)) == 0.0


def test_cholesky_rejects_non_hermitian_and_indefinite():
    with pytest.raises(InvalidParameterError):
        cholesky_lower(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NumericalDomainError):
        cholesky_lower(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(InvalidParameterError):
        cholesky_lower(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_trial_generators_follow_the_seed_sequence_layout():
    # The reproducibility contract: trial t of seed s is SeedSequence(s, spawn_key=(t,)).
    draws = [g.standard_normal(4) for g in trial_generators(7, 3)]
    assert len(draws) == 3
    for t, d in enumerate(draws):
        ss = np.random.SeedSequence(entropy=7, spawn_key=(t,))
        assert np.array_equal(d, np.random.default_rng(ss).standard_normal(4))
        assert np.array_equal(d, RngStream(7, t).generator().standard_normal(4))
    assert list(trial_generators(7, 0)) == []
