"""Sampler distributions and matrix kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fadingmac import linalg
from fadingmac.errors import InvalidParameterError, NumericalDomainError, check_gain
from fadingmac.linalg import (
    RngStream,
    cholesky_lower,
    hermitian_inverse,
    sample_capacity_sphere,
    sample_complex_gaussian,
    sample_haar_unitary,
    trial_gammas,
    trial_generators,
    trial_normals,
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
    z = sample_complex_gaussian(200, 200, 2.0, RngStream(0).generator())
    var = np.mean(np.abs(z) ** 2)
    assert abs(var - 2.0) < 0.02
    assert abs(np.mean(z.real)) < 0.01
    assert abs(np.mean(z.imag)) < 0.01


def test_complex_gaussian_rejects_bad_args():
    with pytest.raises(InvalidParameterError):
        sample_complex_gaussian(0, 3, 1.0, RngStream(0).generator())
    with pytest.raises(InvalidParameterError):
        sample_complex_gaussian(2, 2, 0.0, RngStream(0).generator())
    with pytest.raises(InvalidParameterError):
        sample_complex_gaussian(2, 2, 1.0, "not an rng")
    with pytest.raises(InvalidParameterError):
        sample_complex_gaussian(2.0001, 2, 1.0, RngStream(0).generator())


@pytest.mark.parametrize("rng", [RngStream(0), None])
def test_samplers_take_a_numpy_generator_only(rng):
    # A stream names draws but is not a generator: callers pass
    # RngStream.generator(), so one generator can serve several draws.
    for draw in (lambda: sample_complex_gaussian(2, 2, 1.0, rng),
                 lambda: sample_haar_unitary(2, rng),
                 lambda: sample_capacity_sphere(2, 1.0, rng)):
        with pytest.raises(InvalidParameterError, match="rng must be a Generator"):
            draw()


def test_samplers_reject_non_integral_dimensions():
    for bad in (0, 2.5):
        with pytest.raises(InvalidParameterError):
            sample_capacity_sphere(bad, 1.0, RngStream(0).generator())
        with pytest.raises(InvalidParameterError):
            sample_haar_unitary(bad, RngStream(0).generator())
    assert sample_haar_unitary(np.int64(2), RngStream(0).generator()).shape == (2, 2)


def test_haar_unitary_is_unitary():
    for n in (1, 2, 5):
        u = sample_haar_unitary(n, RngStream(1, n).generator())
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_haar_rows_equal_the_qr_of_each_draw(n):
    # Per matrix: unit-variance complex Gaussian, 2-D QR, column phases.
    z = np.concatenate(list(trial_normals(9, 500, (3, 2, n, n))))
    got = linalg.haar_unitary_rows(z)
    for zt, ut in zip(z.reshape(-1, 2, n, n), got.reshape(-1, n, n)):
        q, r = np.linalg.qr(math.sqrt(0.5) * (zt[0] + 1j * zt[1]))
        d = np.diagonal(r)
        assert np.array_equal(ut, q * (d / np.abs(d)))
    g = RngStream(9, 0).generator()
    assert np.array_equal(got[0], [sample_haar_unitary(n, g) for _ in range(3)])


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
        h = sample_capacity_sphere(4, cap, RngStream(2, int(cap * 10)).generator())
        got = math.log2(1.0 + float(np.sum(np.abs(h) ** 2)))
        assert abs(got - cap) < 1e-12


@pytest.mark.parametrize("cap", [1024.5, 1100.0, 1e6])
def test_capacity_sphere_rejects_capacities_whose_radius_overflows(cap):
    # 2**C - 1 overflows a float from about C = 1024 bits on.
    with pytest.raises(InvalidParameterError, match="too large"):
        sample_capacity_sphere(2, cap, RngStream(0).generator())
    with pytest.raises(InvalidParameterError, match="too large"):
        linalg.capacity_sphere_rows(np.ones((3, 2, 2)), cap)
    assert np.all(np.isfinite(sample_capacity_sphere(2, 1023.0, RngStream(0).generator())))


def test_capacity_sphere_zero_cap():
    h = sample_capacity_sphere(3, 0.0, RngStream(0).generator())
    assert np.max(np.abs(h)) == 0.0


class _ZeroNormals(np.random.Generator):
    """A generator whose standard normals are all zero."""

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        return np.zeros(size)


def test_an_all_zero_draw_raises_in_the_sampler():
    # Such a draw has no direction on the sphere; the sampler raises rather
    # than redraw, as every engine does on an all-zero row.
    with pytest.raises(NumericalDomainError, match="all zero"):
        sample_capacity_sphere(3, 6.0, _ZeroNormals(np.random.PCG64(0)))
    with pytest.raises(NumericalDomainError, match="all zero"):
        linalg.capacity_sphere_rows(np.array([np.ones((2, 3)), np.zeros((2, 3))]), 6.0)


_MAGNITUDE = st.floats(1e-3, 10.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda dim: st.lists(
           st.lists(st.one_of(_MAGNITUDE, _MAGNITUDE.map(lambda x: -x), st.just(0.0)),
                    min_size=2 * dim, max_size=2 * dim), min_size=1, max_size=20)),
       st.floats(0.0, 1023.0))
def test_sphere_rows_equal_the_sampler_normalization(rows, cap):
    # Row by row, bit for bit: v * (radius / ||v||) with the sampler's
    # radius and its 1-D norm.
    z = np.array(rows).reshape(len(rows), 2, -1)
    radius = math.sqrt(check_gain(cap, "sum capacity"))
    vs = [zt[0] + 1j * zt[1] for zt in z]
    norms = [np.linalg.norm(v) for v in vs]
    if min(norms) == 0.0:
        with pytest.raises(NumericalDomainError):
            linalg.capacity_sphere_rows(z, cap)
        return
    want = np.array([v * (radius / nrm) for v, nrm in zip(vs, norms)])
    assert np.array_equal(linalg.capacity_sphere_rows(z, cap), want)


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
    with pytest.raises(InvalidParameterError, match="square"):
        cholesky_lower(np.ones((2, 3)))


def test_trial_generators_follow_the_seed_sequence_layout():
    # The reproducibility contract, RNG layout 3: trials come in streams of
    # 4,096, stream b of seed s is SeedSequence(s, spawn_key=(b,)), and each
    # trial takes the next draws of its stream.
    assert (linalg.RNG_LAYOUT, linalg.RNG_BLOCK) == (3, 4096)
    draws = [g.standard_normal(4) for g in trial_generators(7, 3)]
    assert len(draws) == 3
    want = RngStream(7, 0).generator().standard_normal((3, 4))
    ss = np.random.SeedSequence(entropy=7, spawn_key=(0,))
    assert np.array_equal(want, np.random.default_rng(ss).standard_normal((3, 4)))
    assert np.array_equal(np.array(draws), want)
    gens = list(trial_generators(7, 4097))
    assert gens[4095] is gens[0] and gens[4096] is not gens[0]
    assert np.array_equal(gens[4096].standard_normal(4),
                          RngStream(7, 1).generator().standard_normal(4))
    assert list(trial_generators(7, 0)) == []


@pytest.mark.parametrize("trials", [1, 4096, 4097, 9000])
@pytest.mark.parametrize("shape", [(2,), (2, 3), (2, 2, 1, 3)])
def test_trial_normals_equal_a_loop_over_trial_generators(trials, shape):
    blocks = list(trial_normals(2**33 + 5, trials, shape))
    assert [len(b) for b in blocks][:-1] == [4096] * (len(blocks) - 1)
    got = np.concatenate(blocks)
    want = np.array([g.standard_normal(shape) for g in trial_generators(2**33 + 5, trials)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [1, 2, 6])
def test_trial_gammas_equal_a_loop_over_trial_generators(m):
    # 4,097 trials cross into the second stream; Gamma(1, 1) variates are
    # standard_exponential's numbers, bit for bit.
    blocks = list(trial_gammas(2**33 + 5, 4097, m, 3))
    assert [len(b) for b in blocks] == [4096, 1]
    got = np.concatenate(blocks)
    want = np.array([g.standard_gamma(m, 3) for g in trial_generators(2**33 + 5, 4097)])
    assert np.array_equal(got, want)
    if m == 1:
        want = [g.standard_exponential(3) for g in trial_generators(2**33 + 5, 4097)]
        assert np.array_equal(got, np.array(want))


def test_trial_normals_do_not_depend_on_the_chunk_size(monkeypatch):
    # Chunks are drawn from their stream in order and never span two
    # streams, so any chunk size gives the same rows.
    whole = np.concatenate(list(trial_normals(11, 4100, (2, 3))))
    for chunk in (7, 1000, 5000):
        monkeypatch.setattr(linalg, "_TRIAL_BLOCK", chunk)
        blocks = list(trial_normals(11, 4100, (2, 3)))
        assert max(len(b) for b in blocks) <= chunk
        assert np.array_equal(np.concatenate(blocks), whole)
