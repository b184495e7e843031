"""The batched Monte-Carlo engines against a per-trial reference.

The reference below is written trial by trial from trial_generators, with
subset enumeration from ``capacity`` and the scalar bounds.  It draws the
same random numbers as the engines: the users' matrices for the SNR sweeps,
each user's Gamma(m, 1) squared norm for the conditioned CDFs.  Counted
statistics (CDF probabilities, atoms, outage counts) must therefore match
exactly and averaged bounds to rounding.
"""

import hashlib
import itertools
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    binomial_stderr,
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


def _sphere_channel(n_users, m, cap, rng):
    """Scalar users whose gains are one trial's Gamma(m, 1) draws, each as a
    share of their total, times 2^C - 1."""
    g = rng.standard_gamma(m, n_users)
    return MacChannel.from_scalar(np.sqrt(g / g.sum() * math.expm1(cap * _LN2)))


def _reference_conditioned(n_users, cap, seed, trials, m=1):
    """Samples of the conditioned symmetric capacity and the atom count.

    Scalar users (m = 1) go through symmetric_capacity, users with m entries
    through frobenius_subset_info over every proper subset, a log1p of the
    subset's squared norm."""
    samples, atom = [], 0
    for rng in trial_generators(seed, trials):
        ch = _sphere_channel(n_users, m, cap, rng)
        if m == 1:
            sym, report = symmetric_capacity(ch)
            in_atom = len(report.subset) == n_users
        else:
            sym = min((n_users / k) * frobenius_subset_info(ch, s)
                      for k in range(1, n_users)
                      for s in itertools.combinations(range(n_users), k))
            in_atom = sym >= cap
        atom += in_atom
        samples.append(cap if in_atom else sym)
    return samples, atom


def _reference_cardinality(k, n_users, cap, seed, trials):
    """(N/k) C(S) of the first k users of each trial's sphere draw."""
    return [(n_users / k) * subset_mutual_info(_sphere_channel(n_users, 1, cap, rng), range(k))
            for rng in trial_generators(seed, trials)]


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
    samples, atom = _reference_conditioned(2, 3.0, cfg.seed, cfg.trials, m=6)
    assert 0 < atom < cfg.trials
    assert curve.atom_mass == atom / cfg.trials
    assert np.array_equal(curve.probs, _counts_below(samples, curve.rates))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cardinality_cdf_equals_the_per_trial_reference(k):
    n_users, cap = 4, 8.0
    cfg = SimConfig(trials=1500, seed=33)
    curve = conditional_cdf_cardinality(k, n_users, cap, cfg)
    samples = _reference_cardinality(k, n_users, cap, cfg.seed, cfg.trials)
    assert np.array_equal(curve.probs, _counts_below(samples, curve.rates))


# At C = 1,023 bits 2^C - 1 is within a factor of two of the largest double,
# so a gain scaled before its share is taken overflows.  At this C every
# scalar and Frobenius draw lies in the atom; the cardinality samples lie a
# few bits below (N/k) C.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("engine", ["scalar", "frobenius", "cardinality"])
def test_engines_at_1023_bits_equal_the_per_trial_reference(engine):
    cap, n_users, k = 1023.0, 3, 2
    if engine == "cardinality":
        cfg = SimConfig(trials=400, seed=42, rate_grid=1.5 * cap + np.linspace(-8.0, 0.0, 33))
        curve = conditional_cdf_cardinality(k, n_users, cap, cfg)
        samples = _reference_cardinality(k, n_users, cap, cfg.seed, cfg.trials)
        assert 0.0 < curve.probs[16] < 1.0
    else:
        cfg = SimConfig(trials=400, seed=42)
        m = 1 if engine == "scalar" else 4
        curve = conditional_cdf_mimo_frobenius(ScenarioDims(n_users, 1, m), cap, cfg)
        samples, atom = _reference_conditioned(n_users, cap, cfg.seed, cfg.trials, m)
        assert curve.atom_mass == atom / cfg.trials == 1.0
    assert np.array_equal(curve.probs, _counts_below(samples, curve.rates))


# Eight users sort with np.sort, fewer with a network of minima and maxima.
@settings(max_examples=30, deadline=None)
@given(n_users=st.integers(2, 8), m=st.integers(1, 3), cap=st.floats(0.01, 1023.0),
       seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 7))
@example(n_users=8, m=1, cap=3.0, seed=0, k=7)
@example(n_users=7, m=2, cap=3.0, seed=1, k=3)
@example(n_users=3, m=3, cap=1023.0, seed=2, k=2)
def test_conditioned_engines_equal_the_per_trial_samplers(n_users, m, cap, seed, k):
    # Counts and atoms equal the references exactly; samples, recorded as the
    # engines hand them to empirical_cdf, agree with them to rounding.
    k = min(k, n_users - 1)
    cfg = SimConfig(trials=16, seed=seed)
    recorded = []
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setattr(montecarlo, "empirical_cdf",
                      lambda s, *rest, cdf=montecarlo.empirical_cdf: recorded.append(s)
                      or cdf(s, *rest))
        frob = conditional_cdf_mimo_frobenius(ScenarioDims(n_users, 1, m), cap, cfg)
        card = conditional_cdf_cardinality(k, n_users, cap, cfg)
    samples, atom = _reference_conditioned(n_users, cap, seed, cfg.trials, m)
    assert frob.atom_mass == atom / cfg.trials
    assert np.array_equal(frob.probs, _counts_below(samples, frob.rates))
    np.testing.assert_allclose(recorded[0], samples, rtol=_REL, atol=0.0)
    samples = _reference_cardinality(k, n_users, cap, seed, cfg.trials)
    assert np.array_equal(card.probs, _counts_below(samples, card.rates))
    np.testing.assert_allclose(recorded[1], samples, rtol=_REL, atol=0.0)


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
    # sampler takes on about one row in seven; the integer-forcing engine,
    # which normalizes its sphere draws here, must not.
    h = linalg.capacity_sphere_rows(next(linalg.trial_normals(41, 3000, (2, dim))), 7.0)
    want = np.array([sample_capacity_sphere(dim, 7.0, rng)
                     for rng in trial_generators(41, 3000)])
    assert np.array_equal(h, want)


def _zeroed(real, rows):
    """trial_gammas with the given trials' rows set to zero."""
    def patched(*args):
        first = 0
        for block in real(*args):
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
    # An all-zero row of gains has no direction on the sphere.  Every engine
    # raises on it, as the sampler does on all-zero normals, at any block
    # size; trial 4100 sits in the second stream.  The engines bind
    # trial_gammas by name, so the patch goes on montecarlo.
    cfg = SimConfig(trials=4200, seed=35)
    engine(cfg)
    for block in (linalg._TRIAL_BLOCK, 7):
        monkeypatch.setattr(linalg, "_TRIAL_BLOCK", block)
        monkeypatch.setattr(montecarlo, "trial_gammas", _zeroed(linalg.trial_gammas, (4100,)))
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


# (2, 2, 4): the full set's Gram has rank 4, so its determinant polynomial
# comes from eigenvalues.  (6, 1, 1) and (3, 2, 1): one receive antenna, so
# every subset Gram is 1 x 1.
@pytest.mark.parametrize("dims", [(2, 2, 3), (4, 1, 2), (2, 1, 6), (3, 2, 2), (2, 2, 4),
                                  (6, 1, 1), (3, 2, 1)])
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


# At 3,000 dB every 2u2x3 subset's det(I + sG) overflows a double (symmetric
# rates near 3,000 bits), so its log comes from the log-domain sum of terms;
# (3, 2, 1) has 1 x 1 subset Grams.  2u1x6 subsets have rank at most 2, so
# an eigendecomposition of their 6 x 6 Grams would add noise eigenvalues
# worth hundreds of bits at these SNRs.  4u1x2: the full set, of rank 2,
# sets the symmetric rate, 665-669 bits at 1,000 dB and 1,994-1,998 bits at
# 3,000 dB, so its target is 1,000 bits.  No overflow warning may escape.
@pytest.mark.parametrize("dims, target", [((2, 2, 3), 2000.0), ((3, 2, 1), 700.0),
                                          ((2, 1, 6), 1500.0), ((4, 1, 2), 1000.0)])
def test_outage_at_extreme_snr_equals_the_per_trial_reference(dims, target):
    dims = ScenarioDims(*dims)
    snr_db = np.array([0.0, 1000.0, 3000.0])
    snrs = 10.0 ** (snr_db / 10.0)
    trials, seed = 40, 38
    cfg = SimConfig(trials=trials, seed=seed, snr_grid_db=snr_db)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [e.p_hat for e in outage_vs_snr(dims, target, cfg)]
        (mats,) = montecarlo._user_matrix_blocks(dims, cfg)
        rates = montecarlo._symmetric_capacity(mats, snrs)
    sym = _reference_symmetric_capacity(dims, seed, trials, snrs)
    assert got == list(np.sum(sym < target, axis=0) / trials) == [1.0, 1.0, 0.0]
    np.testing.assert_allclose(rates, sym, rtol=_REL, atol=0.0)


@pytest.mark.parametrize("n_users, n_tx", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)])
def test_orthogonal_users_add_their_single_stream_rates(n_users, n_tx):
    # Each column of each user on its own receive axis: every subset Gram is
    # diagonal, so C(S) = sum over the columns of S of log2(1 + s |w|^2).
    # The subsets then reach every Gram rank from 1 to n_users * n_tx.
    gains = np.array([0.3, 1.7, 4.0, 0.9, 2.5, 0.05])[:n_users * n_tx]
    mats = np.zeros((1, n_users, n_users * n_tx, n_tx), dtype=complex)
    for c, g in enumerate(gains):
        mats[0, c // n_tx, c, c % n_tx] = math.sqrt(g) * np.exp(1j * (c + 1))
    snrs = 10.0 ** (np.array([-10.0, 0.0, 15.0, 40.0, 3000.0]) / 10.0)
    want = [min((n_users / k) * sum(math.log1p(s * g) / _LN2
                                    for i in subset for g in gains[i * n_tx:(i + 1) * n_tx])
                for k in range(1, n_users + 1)
                for subset in itertools.combinations(range(n_users), k))
            for s in snrs]
    got = montecarlo._symmetric_capacity(mats, snrs)
    np.testing.assert_allclose(got[0], want, rtol=_REL, atol=0.0)


# (2, 1, 2): the SIMO Gram of both users is the 2 x 2 sum of W_i W_i^H.
@pytest.mark.parametrize("dims, which", [((2, 2, 3), "union"), ((4, 1, 2), "union"),
                                         ((2, 1, 6), "union"), ((2, 1, 6), "simo"),
                                         ((2, 1, 2), "simo")])
def test_averaged_bounds_equal_the_per_trial_reference(dims, which):
    dims = ScenarioDims(*dims)
    cfg = SimConfig(trials=120, seed=37, snr_grid_db=_SNR_DB)
    got = averaged_bound_vs_snr(dims, 3.0, which, cfg)
    means, sems = _reference_averaged_bound(dims, 3.0, which, cfg.seed, cfg.trials,
                                            10.0 ** (_SNR_DB / 10.0))
    np.testing.assert_allclose([e.p_hat for e in got], means, rtol=_REL, atol=0.0)
    np.testing.assert_allclose([e.stderr for e in got], sems, rtol=_REL, atol=0.0)


# 2u1x6 sum capacities near 71, 138 and 204 bits at these SNRs; each target
# lies a few bits below the median.  The Gram of both users has rank 2, so
# its 6 x 6 eigendecomposition would add noise eigenvalues worth 6e-5 bits
# at 100 dB and tens of bits above: the conditioning value must come from
# the 2 x 2 Gram.  The reference conditions each trial on sum_capacity,
# which sums over the singular values of the stacked matrix.
@pytest.mark.parametrize("snr_db, target", [(100.0, 68.0), (200.0, 134.0), (300.0, 201.0)])
def test_simo_bound_at_high_snr_conditions_on_the_singular_values(snr_db, target):
    dims = ScenarioDims(2, 1, 6)
    cfg = SimConfig(trials=100, seed=39, snr_grid_db=np.array([snr_db]))
    (mean,), (sem,) = _reference_averaged_bound(dims, target, "simo", cfg.seed, cfg.trials,
                                                [10.0 ** (snr_db / 10.0)])
    (got,) = averaged_bound_vs_snr(dims, target, "simo", cfg)
    assert 0.0 < mean < 1.0
    np.testing.assert_allclose([got.p_hat, got.stderr], [mean, sem], rtol=_REL, atol=0.0)


# At 3,080 dB s times the Frobenius total or the Gram's determinant passes the
# largest double.  The log-domain sum keeps the conditioning value finite and
# silent, so the bounds refuse it for its 2**C - 1, not as a non-positive C.
@pytest.mark.parametrize("dims, which", [((2, 1, 6), "union"), ((2, 2, 3), "union"),
                                         ((2, 1, 6), "simo")])
def test_averaged_bounds_refuse_an_overflowing_capacity_without_a_warning(dims, which):
    cfg = SimConfig(trials=20, seed=1, snr_grid_db=np.array([3080.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError,
                           match=r"^sum capacity is too large: 2\*\*C - 1 overflows"):
            averaged_bound_vs_snr(ScenarioDims(*dims), 3.0, which, cfg)


@pytest.mark.parametrize("seed", [40, 41])
@pytest.mark.parametrize("dims", [(2, 2, 3), (4, 1, 2), (2, 1, 6)])
def test_estimates_are_python_numbers_equal_to_the_per_point_formulas(monkeypatch, dims,
                                                                       seed):
    # The formulas run on Python floats, point by point, from the engines'
    # own counts and conditioning values (recorded from _log_det).
    dims = ScenarioDims(*dims)
    cfg = SimConfig(trials=100, seed=seed, snr_grid_db=_SNR_DB)
    trials, target = cfg.trials, 3.0

    def check(got, want):
        assert [type(v) for e in got for v in (e.point, e.p_hat, e.stderr, e.trials)] \
            == [float, float, float, int] * len(_SNR_DB)
        assert [e.point for e in got] == _SNR_DB.tolist()
        assert [(e.p_hat, e.stderr) for e in got] == want
        assert all(e.trials == trials for e in got)

    (mats,) = montecarlo._user_matrix_blocks(dims, cfg)
    below = montecarlo._symmetric_capacity(mats, 10.0 ** (_SNR_DB / 10.0)) < target
    check(outage_vs_snr(dims, target, cfg),
          [(c / trials, binomial_stderr(c / trials, trials)) for c in below.sum(axis=0).tolist()])
    logs = []
    log_det = montecarlo._log_det
    monkeypatch.setattr(montecarlo, "_log_det", lambda *a: logs.append(log_det(*a)) or logs[-1])
    branches = [("union", partial(mimo_union_bound_array, dims))]
    if dims == ScenarioDims(2, 1, 6):
        branches.append(("simo", two_user_simo_bound_array))
    for which, bound in branches:
        got = averaged_bound_vs_snr(dims, target, which, cfg)
        conds = logs.pop() / _LN2
        values = np.ones_like(conds)
        values[target < conds] = bound(target, conds[target < conds])
        want = []
        sums = zip(values.sum(axis=0).tolist(), (values * values).sum(axis=0).tolist())
        for acc, acc_sq in sums:
            mean = acc / trials
            want.append((mean, math.sqrt(max(acc_sq / trials - mean * mean, 0.0) / trials)))
        check(got, want)


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
@given(n_users=st.integers(1, 4), n_tx=st.integers(1, 2), n_rx=st.integers(1, 5),
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


# ---------------------------------------------------------------------------
# digest pin of the SNR-sweep kernel

# sha256 per dims of _symmetric_capacity and of the outage, union and SIMO
# estimates (point, p_hat, stderr, trials), at 300 trials, seeds 51 and 52,
# target 3 bits, on -10..20 dB in 2 dB steps and on {0, 1,000, 3,000} dB,
# where det overflows and the log-domain sum takes over.  A bound that
# refuses its conditioning value is hashed by its message.  Recorded with the
# out-of-place Horner loop and one minimum per subset that preceded the
# in-place loop and the running minimum per subset size.
_SWEEP_DIGESTS = {
    ((2, 2, 3), "capacity"):
        "3b2713e00046e5f8f8fa246bc19402185f4d3ac764d1a0300e96a186ff93cd53",
    ((2, 2, 3), "outage"):
        "33901db87983ec286d99303ae7630bb65e9dc9959bbeeb8ccca16de927a30527",
    ((2, 2, 3), "union"):
        "5090d8c732cfbf71e337c4a66e4aaaf1efa49f5f0affaacbf6598e9ed65f7bd2",
    ((4, 1, 2), "capacity"):
        "216167ff3dd13fe6df3782a9aaa4f024c616f1a84a573883d0fd08bf06abcc50",
    ((4, 1, 2), "outage"):
        "cf8bef5e14de802133a6184ccd7352f0272578ef93281025b98d99738ffd1c9b",
    ((4, 1, 2), "union"):
        "39864b6edd7dac9ff804b01489ce6874c9f0477b07f4734c31fb5c357dd019b3",
    ((2, 1, 6), "capacity"):
        "1ce3e15f75d296c6a8ea3ac8119ef656db3248ea1a561b3354bd5173af53632b",
    ((2, 1, 6), "outage"):
        "cf5ddc3bde00cfe340dfc5606a65b54bcf36e4c905fd0a0b934e8b76351964f2",
    ((2, 1, 6), "union"):
        "5090d8c732cfbf71e337c4a66e4aaaf1efa49f5f0affaacbf6598e9ed65f7bd2",
    ((2, 1, 6), "simo"):
        "11ab2306da9cd90febdbe7663bfa0191aed8ebc3abef7864824dc6d689c2f879",
    ((3, 2, 4), "capacity"):
        "a4425a8e429364da5fd221a5769674ac9258944c4864ea927c97961150386225",
    ((3, 2, 4), "outage"):
        "b83b8014e2728af75a414adbb01ab2c73181f827dbf082091134d990b2a38245",
    ((3, 2, 4), "union"):
        "fa9908a2671f83c9b66c9b84864d0586c2426ca0aff9ef0b4d6aa41e4911daf9",
    ((6, 1, 2), "capacity"):
        "87b74135ab5e11fc6237876d5af9c37006083398f867c07d83ad23de510d0580",
    ((6, 1, 2), "outage"):
        "a6c0108c731010508e9443ecf3f00efc0c0adeadd6e35033ffaff5db0e8063b9",
    ((6, 1, 2), "union"):
        "86c7227b73be66b0b25536fb2fb83abe067553b5bfb97741f14056c05f010df8"}
_SWEEP_GRIDS = (np.arange(-10.0, 20.0 + 1e-9, 2.0), np.array([0.0, 1000.0, 3000.0]))


def _estimate_bytes(run):
    try:
        estimates = run()
    except InvalidParameterError as exc:
        return str(exc).encode()
    return np.array([[e.point, e.p_hat, e.stderr, e.trials] for e in estimates]).tobytes()


def _sweep_digests(dims):
    dims = ScenarioDims(*dims)
    bounds = ("union", "simo") if (dims.n_users, dims.n_tx) == (2, 1) else ("union",)
    digests = {name: hashlib.sha256() for name in ("capacity", "outage", *bounds)}
    for seed, grid_db in itertools.product((51, 52), _SWEEP_GRIDS):
        cfg = SimConfig(trials=300, seed=seed, snr_grid_db=grid_db)
        for mats in montecarlo._user_matrix_blocks(dims, cfg):
            digests["capacity"].update(
                montecarlo._symmetric_capacity(mats, 10.0 ** (grid_db / 10.0)).tobytes())
        digests["outage"].update(_estimate_bytes(partial(outage_vs_snr, dims, 3.0, cfg)))
        for which in bounds:
            digests[which].update(
                _estimate_bytes(partial(averaged_bound_vs_snr, dims, 3.0, which, cfg)))
    return {name: h.hexdigest() for name, h in digests.items()}


@pytest.mark.parametrize("dims", [(2, 2, 3), (4, 1, 2), (2, 1, 6), (3, 2, 4), (6, 1, 2)])
def test_sweep_outputs_keep_their_digests(dims):
    got = _sweep_digests(dims)
    assert got == {name: _SWEEP_DIGESTS[dims, name] for name in got}
