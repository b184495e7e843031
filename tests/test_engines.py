"""The batched Monte-Carlo engines against a per-trial reference.

The reference below is written from the public samplers, trial by trial,
with subset enumeration from ``capacity`` and the scalar bounds.  It draws
the same random numbers as the engines, so counted statistics (CDF
probabilities, atoms, outage counts) must match exactly and averaged bounds
to rounding.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadingmac import linalg, montecarlo
from fadingmac.bounds import (
    ScenarioDims,
    mimo_bounds,
    mimo_union_bound,
    mimo_union_bound_array,
    two_user_simo_bound,
    two_user_simo_bound_array,
)
from fadingmac.capacity import (
    MacChannel,
    frobenius_subset_info,
    subset_mutual_info,
    sum_capacity,
    symmetric_capacity,
)
from fadingmac.errors import InvalidParameterError, NumericalDomainError
from fadingmac.linalg import sample_capacity_sphere, sample_complex_gaussian, trial_generators
from fadingmac.montecarlo import (
    SimConfig,
    averaged_bound_vs_snr,
    conditional_cdf_cardinality,
    conditional_cdf_mimo_frobenius,
    conditional_cdf_scalar,
    outage_vs_snr,
)

_LN2 = math.log(2.0)
_SNR_DB = np.array([-10.0, -4.0, 0.0, 4.0, 10.0, 20.0])
_REL = 1e-12


# ---------------------------------------------------------------------------
# per-trial reference

def _counts_below(samples, grid):
    return np.array([sum(s < r for s in samples) for r in grid]) / len(samples)


def _reference_conditioned(n_users, cap, seed, trials, block_dim=1):
    """Samples of the conditioned symmetric capacity and the atom count.

    Scalar users go through symmetric_capacity; Frobenius users through
    frobenius_subset_info over every proper subset."""
    samples, atom = [], 0
    for rng in trial_generators(seed, trials):
        h = sample_capacity_sphere(n_users * block_dim, cap, rng)
        if block_dim == 1:
            sym, report = symmetric_capacity(MacChannel.from_scalar(h))
            in_atom = len(report.subset) == n_users
        else:
            ch = MacChannel([blk.reshape(1, block_dim) for blk in h.reshape(n_users, -1)])
            sym = min((n_users / k) * frobenius_subset_info(ch, s)
                      for k in range(1, n_users)
                      for s in itertools.combinations(range(n_users), k))
            in_atom = sym >= cap
        atom += in_atom
        samples.append(cap if in_atom else sym)
    return samples, atom


def _draw_users(dims, rng):
    return [sample_complex_gaussian(dims.n_rx, dims.n_tx, 1.0, rng)
            for _ in range(dims.n_users)]


def _reference_symmetric_capacity(dims, seed, trials, snrs):
    """symmetric_capacity of each trial's channel at each linear SNR."""
    out = np.empty((trials, len(snrs)))
    for t, rng in enumerate(trial_generators(seed, trials)):
        mats = _draw_users(dims, rng)
        for j, snr in enumerate(snrs):
            out[t, j] = symmetric_capacity(MacChannel([math.sqrt(snr) * m for m in mats]))[0]
    return out


def _reference_averaged_bound(dims, target, which, seed, trials, snrs):
    """Means and standard errors of the bound, accumulated trial by trial."""
    acc = np.zeros(len(snrs))
    acc_sq = np.zeros(len(snrs))
    for rng in trial_generators(seed, trials):
        mats = _draw_users(dims, rng)
        frob = sum(float(np.sum(np.abs(m) ** 2)) for m in mats)
        for j, snr in enumerate(snrs):
            if which == "union":
                cond = math.log1p(snr * frob) / _LN2
                v = 1.0 if target >= cond else mimo_union_bound(dims, target, cond)
            else:
                cond = sum_capacity(MacChannel([math.sqrt(snr) * m for m in mats]))
                v = 1.0 if target >= cond else two_user_simo_bound(target, cond)
            acc[j] += v
            acc_sq[j] += v * v
    means = acc / trials
    return means, np.sqrt(np.maximum(acc_sq / trials - means ** 2, 0.0) / trials)


# ---------------------------------------------------------------------------
# conditioned CDF engines

@pytest.mark.parametrize("n_users, cap", [(2, 2.0), (4, 8.0)])
def test_scalar_cdf_equals_the_per_trial_reference(n_users, cap):
    cfg = SimConfig(trials=1500, seed=31)
    curve = conditional_cdf_scalar(n_users, cap, cfg)
    samples, atom = _reference_conditioned(n_users, cap, cfg.seed, cfg.trials)
    assert curve.atom_mass == atom / cfg.trials
    assert np.array_equal(curve.probs, _counts_below(samples, curve.rates))


def test_frobenius_cdf_equals_the_per_trial_reference():
    dims = ScenarioDims(2, 2, 3)
    cfg = SimConfig(trials=1500, seed=32)
    curve = conditional_cdf_mimo_frobenius(dims, 3.0, cfg)
    samples, atom = _reference_conditioned(2, 3.0, cfg.seed, cfg.trials, block_dim=6)
    assert 0 < atom < cfg.trials
    assert curve.atom_mass == atom / cfg.trials
    assert np.array_equal(curve.probs, _counts_below(samples, curve.rates))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cardinality_cdf_equals_the_per_trial_reference(k):
    n_users, cap = 4, 8.0
    cfg = SimConfig(trials=1500, seed=33)
    curve = conditional_cdf_cardinality(k, n_users, cap, cfg)
    samples = [(n_users / k) * subset_mutual_info(
                   MacChannel.from_scalar(sample_capacity_sphere(n_users, cap, rng)), range(k))
               for rng in trial_generators(cfg.seed, cfg.trials)]
    assert np.array_equal(curve.probs, _counts_below(samples, curve.rates))


def test_results_do_not_depend_on_the_trial_block(monkeypatch):
    dims = ScenarioDims(3, 2, 2)
    cfg = SimConfig(trials=50, seed=34, snr_grid_db=_SNR_DB)
    runs = []
    for block in (linalg._TRIAL_BLOCK, 7):
        monkeypatch.setattr(linalg, "_TRIAL_BLOCK", block)
        runs.append((conditional_cdf_scalar(4, 8.0, cfg).probs,
                     conditional_cdf_cardinality(2, 4, 8.0, cfg).probs,
                     [e.p_hat for e in outage_vs_snr(dims, 3.0, cfg)],
                     [e.p_hat for e in averaged_bound_vs_snr(dims, 3.0, "union", cfg)]))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert runs[0][2] == runs[1][2]
    np.testing.assert_allclose(runs[0][3], runs[1][3], rtol=_REL, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 12])
def test_sphere_rows_equal_the_sampler_bit_for_bit(dim):
    # np.linalg.norm(v, axis=1) rounds differently from the 1-D norm the
    # sampler takes on about one row in seven; the engines must not.
    h = linalg.capacity_sphere_rows(next(linalg.trial_normals(41, 3000, (2, dim))), 7.0)
    want = np.array([sample_capacity_sphere(dim, 7.0, rng)
                     for rng in trial_generators(41, 3000)])
    assert np.array_equal(h, want)


def _zeroed(real, rows):
    """trial_normals with the given trials' rows set to zero."""
    def patched(seed, trials, shape):
        first = 0
        for block in real(seed, trials, shape):
            block[[t - first for t in rows if first <= t < first + len(block)]] = 0.0
            first += len(block)
            yield block
    return patched


@pytest.mark.parametrize("engine", [
    lambda cfg: conditional_cdf_scalar(3, 5.0, cfg),
    lambda cfg: conditional_cdf_mimo_frobenius(ScenarioDims(2, 2, 3), 8.0, cfg),
    lambda cfg: conditional_cdf_cardinality(2, 4, 8.0, cfg),
], ids=["scalar", "frobenius", "cardinality"])
def test_an_all_zero_sphere_draw_raises(monkeypatch, engine):
    # An all-zero row has no direction on the sphere.  Every engine raises on
    # it, as the sampler does, at any block size; trial 4100 sits in the
    # second stream.  The engines bind trial_normals by name, so the patch
    # goes on montecarlo.
    cfg = SimConfig(trials=4200, seed=35)
    engine(cfg)
    for block in (linalg._TRIAL_BLOCK, 7):
        monkeypatch.setattr(linalg, "_TRIAL_BLOCK", block)
        monkeypatch.setattr(montecarlo, "trial_normals", _zeroed(linalg.trial_normals, (4100,)))
        with pytest.raises(NumericalDomainError, match="all zero"):
            engine(cfg)


# ---------------------------------------------------------------------------
# SNR sweeps

def test_outage_shares_the_subset_enumeration_limit_of_the_reference():
    # 2^21 - 1 subsets a trial: both refuse at once, with one message.
    cfg = SimConfig(trials=1, snr_grid_db=np.array([0.0]))
    message = "^subset enumeration is limited to 20 users$"
    with pytest.raises(InvalidParameterError, match=message):
        outage_vs_snr(ScenarioDims(21, 1, 2), 2.0, cfg)
    with pytest.raises(InvalidParameterError, match=message):
        symmetric_capacity(MacChannel.from_scalar([1.0] * 21))


@pytest.mark.parametrize("dims", [(2, 2, 3), (4, 1, 2), (2, 1, 6), (3, 2, 2)])
def test_outage_counts_equal_the_per_trial_reference(dims):
    dims = ScenarioDims(*dims)
    trials, seed = 120, 36
    sym = _reference_symmetric_capacity(dims, seed, trials, 10.0 ** (_SNR_DB / 10.0))
    cfg = SimConfig(trials=trials, seed=seed, snr_grid_db=_SNR_DB)
    # The second target is 1 bit per user, passed as its total.
    for threshold in (3.0, 1.0 * dims.n_users):
        got = [e.p_hat for e in outage_vs_snr(dims, threshold, cfg)]
        want = list(np.sum(sym < threshold, axis=0) / trials)
        assert got == want
        assert 0.0 < got[1] and got[-1] < 1.0


@pytest.mark.parametrize("dims, which", [((2, 2, 3), "union"), ((4, 1, 2), "union"),
                                         ((2, 1, 6), "union"), ((2, 1, 6), "simo")])
def test_averaged_bounds_equal_the_per_trial_reference(dims, which):
    dims = ScenarioDims(*dims)
    cfg = SimConfig(trials=120, seed=37, snr_grid_db=_SNR_DB)
    got = averaged_bound_vs_snr(dims, 3.0, which, cfg)
    means, sems = _reference_averaged_bound(dims, 3.0, which, cfg.seed, cfg.trials,
                                            10.0 ** (_SNR_DB / 10.0))
    np.testing.assert_allclose([e.p_hat for e in got], means, rtol=_REL, atol=0.0)
    np.testing.assert_allclose([e.stderr for e in got], sems, rtol=_REL, atol=0.0)


# ---------------------------------------------------------------------------
# array forms of the bounds

def test_union_bound_array_matches_the_scalar_bound():
    for dims in (ScenarioDims(2, 2, 3), ScenarioDims(4, 1, 2), ScenarioDims(3, 1, 1)):
        for rate in (0.5, 3.0, 9.0):
            # cond == rate exercises the clamp of the raw union sum at 1
            conds = np.concatenate([[rate], rate + np.geomspace(1e-9, 40.0, 60)])
            want = np.array([mimo_union_bound(dims, rate, float(c)) for c in conds])
            got = mimo_union_bound_array(dims, rate, conds)
            np.testing.assert_allclose(got, want, rtol=_REL, atol=0.0)
    for dims in (ScenarioDims(4, 1, 2), ScenarioDims(3, 1, 1)):
        assert mimo_bounds(dims, 3.0, 3.0).upper_raw > 1.0
        assert mimo_union_bound_array(dims, 3.0, np.array([3.0]))[0] == 1.0


def test_simo_bound_array_matches_the_scalar_bound():
    for rate in (0.5, 3.0, 9.0):
        conds = np.concatenate([[rate], rate + np.geomspace(1e-12, 60.0, 80)])
        want = np.array([two_user_simo_bound(rate, float(c)) for c in conds])
        got = two_user_simo_bound_array(rate, conds)
        np.testing.assert_allclose(got, want, rtol=_REL, atol=0.0)
        assert got[0] == 1.0


def test_bound_arrays_check_their_conditioning_values():
    dims = ScenarioDims(2, 1, 1)
    for bad in ([2.0, 0.5], [np.inf], [np.nan], [0.0]):
        with pytest.raises(InvalidParameterError):
            mimo_union_bound_array(dims, 1.0, np.array(bad))
        with pytest.raises(InvalidParameterError):
            two_user_simo_bound_array(1.0, np.array(bad))
    with pytest.raises(InvalidParameterError):
        mimo_union_bound_array((2, 1, 1), 1.0, np.array([2.0]))
    assert mimo_union_bound_array(dims, 1.0, np.array([])).size == 0


# ---------------------------------------------------------------------------
# property: batched draws and symmetric capacity

@settings(max_examples=40, deadline=None)
@given(n_users=st.integers(1, 4), n_tx=st.integers(1, 2), n_rx=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_symmetric_capacity_equals_subset_enumeration(n_users, n_tx, n_rx, seed):
    dims = ScenarioDims(n_users, n_tx, n_rx)
    trials = 5
    snrs = 10.0 ** (np.array([-10.0, 0.0, 15.0]) / 10.0)
    (mats,) = montecarlo._user_matrix_blocks(dims, SimConfig(trials=trials, seed=seed))
    for t, rng in enumerate(trial_generators(seed, trials)):
        for i, m in enumerate(_draw_users(dims, rng)):
            assert np.array_equal(mats[t, i], m)
    got = montecarlo._symmetric_capacity(mats, snrs)
    want = _reference_symmetric_capacity(dims, seed, trials, snrs)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
