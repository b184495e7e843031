"""Monte-Carlo engine tests.

Cheap checks are exact (determinism, atom bookkeeping, hand-recomputed
averages); statistical checks compare against the closed forms within a
few standard errors at moderate trial counts.
"""

import inspect
import math
import pickle

import numpy as np
import pytest

from fadingmac.bounds import (
    ScenarioDims,
    atom_probability,
    mimo_union_bound,
    p_out_k,
    two_user_cdf,
)
from fadingmac.errors import InvalidParameterError
from fadingmac.linalg import sample_complex_gaussian, trial_generators
from fadingmac.montecarlo import (
    OutageEstimate,
    SimConfig,
    averaged_bound_vs_snr,
    binomial_stderr,
    conditional_cdf_cardinality,
    conditional_cdf_mimo_frobenius,
    conditional_cdf_scalar,
    default_rate_grid,
    empirical_cdf,
    outage_vs_snr,
)

_LN2 = math.log(2.0)


def _sigma_tol(stderr, floor=2e-3, mult=4.0):
    return mult * max(float(stderr), floor)


def test_binomial_stderr_values():
    assert binomial_stderr(0.5, 100) == pytest.approx(0.05, abs=1e-15)
    assert binomial_stderr(0.0, 10) == 0.0
    assert binomial_stderr(1.0, 10) == 0.0


def test_default_rate_grid_endpoints():
    grid = default_rate_grid(8.0)
    assert grid.size == 50
    assert grid[0] == 0.0 and grid[-1] == 8.0
    assert default_rate_grid(2.0, points=11).size == 11


def test_empirical_cdf_uses_strict_inequality():
    samples = np.array([1.0, 2.0])
    grid = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    curve = empirical_cdf(samples, grid, trials=2, atom_count=1)
    assert np.array_equal(curve.probs, np.array([0.0, 0.0, 0.5, 0.5, 1.0]))
    assert curve.atom_mass == 0.5
    assert curve.atom_stderr == binomial_stderr(0.5, 2)
    assert curve.trials == 2


def test_simconfig_validation():
    with pytest.raises(InvalidParameterError):
        SimConfig(trials=0)
    with pytest.raises(InvalidParameterError):
        SimConfig(trials=2.5)
    with pytest.raises(InvalidParameterError):
        SimConfig(trials=10, rate_grid=[2.0, 1.0])
    with pytest.raises(InvalidParameterError):
        SimConfig(trials=10, snr_grid_db=[])
    with pytest.raises(InvalidParameterError):
        SimConfig(trials=10, rate_grid=[[0.0, 1.0]])
    cfg = SimConfig(trials=10, rate_grid=[0, 1, 2])
    assert cfg.rate_grid.dtype == float


# nan passes the sort check (every comparison with it is false), and a sorted
# grid may end in inf: the finiteness check must catch both.
@pytest.mark.parametrize("name", ["rate_grid", "snr_grid_db"])
@pytest.mark.parametrize("grid", [[0.0, math.nan], [math.nan, 1.0], [0.0, math.inf],
                                  [-math.inf, 0.0], [math.nan]])
def test_simconfig_rejects_non_finite_grid_points(name, grid):
    with pytest.raises(InvalidParameterError, match=f"^{name} must be finite$"):
        SimConfig(trials=10, **{name: grid})


def test_scalar_cdf_matches_two_user_closed_form():
    cap = 2.0
    grid = np.array([0.5, 1.0, 1.5, cap])
    cfg = SimConfig(trials=4000, seed=7, rate_grid=grid)
    curve = conditional_cdf_scalar(2, cap, cfg)
    for rate, p_hat, se in zip(curve.rates[:-1], curve.probs[:-1], curve.stderr[:-1]):
        assert abs(p_hat - two_user_cdf(float(rate), cap)) < _sigma_tol(se)
    assert abs(curve.atom_mass - atom_probability(cap)) < _sigma_tol(curve.atom_stderr)
    # All mass not in the atom sits strictly below the conditioning value.
    assert abs(curve.probs[-1] - (1.0 - curve.atom_mass)) < 1e-12


# 400,000 trials hold each estimate within 4 of its standard errors, taken
# at the exact value, with no floor.
_LARGE = 400_000


def test_three_user_atom_is_exactly_33_over_49():
    # N = 3, C = 6: the protocol attains the sum capacity when the weakest
    # user's share of 2^C - 1 = 63 is at least 3/63 = 1/21 and the two
    # weakest hold at least 15/63 = 5/21.  In the simplex of sorted shares
    # that polygon has area 33/98 under a density of 2, so the atom is 33/49,
    # a value that needs no library code.
    curve = conditional_cdf_scalar(3, 6.0, SimConfig(trials=_LARGE, seed=101,
                                                     rate_grid=np.array([6.0])))
    exact = 33 / 49
    assert abs(curve.atom_mass - exact) < 4.0 * binomial_stderr(exact, _LARGE)


def test_two_user_cdf_matches_the_closed_form_at_large_samples():
    cap = 2.0
    cfg = SimConfig(trials=_LARGE, seed=102, rate_grid=np.array([0.5, 1.0, 1.5]))
    curve = conditional_cdf_scalar(2, cap, cfg)
    for rate, p_hat in zip(curve.rates, curve.probs):
        exact = two_user_cdf(float(rate), cap)
        assert abs(p_hat - exact) < 4.0 * binomial_stderr(exact, _LARGE)
    exact = atom_probability(cap)
    assert abs(curve.atom_mass - exact) < 4.0 * binomial_stderr(exact, _LARGE)


def test_scalar_cdf_bit_reproducible():
    grid = np.linspace(0.0, 2.0, 9)
    a = conditional_cdf_scalar(2, 2.0, SimConfig(trials=800, seed=3, rate_grid=grid))
    b = conditional_cdf_scalar(2, 2.0, SimConfig(trials=800, seed=3, rate_grid=grid))
    c = conditional_cdf_scalar(2, 2.0, SimConfig(trials=800, seed=4, rate_grid=grid))
    assert np.array_equal(a.probs, b.probs)
    assert a.atom_mass == b.atom_mass
    assert not np.array_equal(a.probs, c.probs)


def test_single_user_conditioning_is_pure_atom():
    cfg = SimConfig(trials=50, seed=0, rate_grid=np.array([1.0, 2.0]))
    curve = conditional_cdf_scalar(1, 2.0, cfg)
    assert curve.atom_mass == 1.0
    assert np.array_equal(curve.probs, np.zeros(2))


def test_cardinality_cdf_matches_beta_law():
    n_users, cap = 4, 8.0
    cfg = SimConfig(trials=4000, seed=11, rate_grid=np.array([2.0, 4.0, 6.0]))
    for k in (1, 3):
        curve = conditional_cdf_cardinality(k, n_users, cap, cfg)
        for rate, p_hat, se in zip(curve.rates, curve.probs, curve.stderr):
            assert abs(p_hat - p_out_k(k, n_users, float(rate), cap)) < _sigma_tol(se)


def test_full_set_cardinality_law_is_the_point_mass_at_c():
    # (N/N) C(S) over the full set is C itself, so P(rate < R) is 0 up to
    # and including R = C, as p_out_k(N, N, R, C) says.
    for n_users, cap in ((2, 4.0), (4, 8.0), (3, 2.0)):
        cfg = SimConfig(trials=2000, seed=2, rate_grid=np.linspace(0.0, cap, 9))
        curve = conditional_cdf_cardinality(n_users, n_users, cap, cfg)
        assert np.array_equal(curve.probs, np.zeros(9))
        assert all(p_out_k(n_users, n_users, float(r), cap) == 0.0 for r in curve.rates)


def test_frobenius_sampler_with_single_antennas_reduces_to_scalar():
    grid = np.linspace(0.0, 8.0, 17)
    cfg = SimConfig(trials=600, seed=5, rate_grid=grid)
    scalar = conditional_cdf_scalar(4, 8.0, cfg)
    mimo = conditional_cdf_mimo_frobenius(ScenarioDims(4, 1, 1), 8.0, cfg)
    assert np.array_equal(scalar.probs, mimo.probs)
    assert scalar.atom_mass == mimo.atom_mass


def test_frobenius_sampler_matches_inflated_beta_for_two_users():
    # With two users the union over the single non-trivial cardinality is
    # exact: P(min share < x) = 2 * I_x(a, a) for x <= 1/2.
    dims = ScenarioDims(2, 2, 3)
    cap = 8.0
    cfg = SimConfig(trials=3000, seed=2, rate_grid=np.array([3.0, 5.0]))
    curve = conditional_cdf_mimo_frobenius(dims, cap, cfg)
    for rate, p_hat, se in zip(curve.rates, curve.probs, curve.stderr):
        assert abs(p_hat - mimo_union_bound(dims, float(rate), cap)) < _sigma_tol(se)


def test_outage_curve_monotone_and_deterministic():
    dims = ScenarioDims(2, 2, 3)
    cfg = SimConfig(trials=400, seed=1, snr_grid_db=np.array([-5.0, 0.0, 5.0, 10.0]))
    pts = outage_vs_snr(dims, 3.0, cfg)
    again = outage_vs_snr(dims, 3.0, cfg)
    assert [p.p_hat for p in pts] == [p.p_hat for p in again]
    probs = [p.p_hat for p in pts]
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    for p in pts:
        assert p.stderr == binomial_stderr(p.p_hat, cfg.trials)
        assert p.trials == cfg.trials


def test_outage_estimate_is_an_immutable_value():
    est = OutageEstimate(-2.0, 0.25, 0.0125, 400)
    assert list(inspect.signature(OutageEstimate).parameters) == [
        "point", "p_hat", "stderr", "trials"]
    assert repr(est) == "OutageEstimate(point=-2.0, p_hat=0.25, stderr=0.0125, trials=400)"
    with pytest.raises(AttributeError):
        est.p_hat = 0.5
    assert pickle.loads(pickle.dumps(est)) == est
    assert est == OutageEstimate(point=-2.0, p_hat=0.25, stderr=0.0125, trials=400)
    assert est != OutageEstimate(-2.0, 0.25, 0.0125, 401)


def test_outage_estimates_hold_python_numbers():
    dims = ScenarioDims(2, 1, 2)
    cfg = SimConfig(trials=50, seed=4, snr_grid_db=np.array([0.0, 10.0]))
    for which in ("outage", "union", "simo"):
        pts = (outage_vs_snr(dims, 2.0, cfg) if which == "outage"
               else averaged_bound_vs_snr(dims, 2.0, which, cfg))
        assert [p.point for p in pts] == [0.0, 10.0], which
        for p in pts:
            assert [type(v) for v in (p.point, p.p_hat, p.stderr, p.trials)] == [
                float, float, float, int], which


def test_per_user_target_rescales_threshold():
    # A per-user target of 1 bit is a total target of 1 bit times the users.
    dims = ScenarioDims(3, 1, 2)
    grid = np.array([0.0, 6.0, 12.0])
    cfg = SimConfig(trials=300, seed=9, snr_grid_db=grid)
    total = outage_vs_snr(dims, 3.0, cfg)
    per_user = outage_vs_snr(dims, 1.0 * dims.n_users, cfg)
    assert [p.p_hat for p in total] == [p.p_hat for p in per_user]


def test_union_average_hand_recomputed():
    dims = ScenarioDims(2, 2, 3)
    target, trials, seed = 3.0, 8, 21
    grid = np.array([0.0, 10.0])
    pts = averaged_bound_vs_snr(
        dims, target, "union", SimConfig(trials=trials, seed=seed, snr_grid_db=grid))
    for j, snr_db in enumerate(grid):
        snr = 10.0 ** (snr_db / 10.0)
        vals = []
        for rng in trial_generators(seed, trials):
            mats = [sample_complex_gaussian(dims.n_rx, dims.n_tx, 1.0, rng)
                    for _ in range(dims.n_users)]
            frob = sum(float(np.sum(np.abs(m) ** 2)) for m in mats)
            cond = math.log1p(snr * frob) / _LN2
            vals.append(1.0 if target >= cond else mimo_union_bound(dims, target, cond))
        mean = sum(vals) / trials
        var = max(sum(v * v for v in vals) / trials - mean ** 2, 0.0)
        assert abs(pts[j].p_hat - mean) < 1e-12
        assert abs(pts[j].stderr - math.sqrt(var / trials)) < 1e-12


def test_averaged_bounds_dominate_empirical_outage():
    dims = ScenarioDims(2, 1, 6)
    grid = np.array([0.0, 10.0, 20.0, 30.0])
    cfg = SimConfig(trials=1000, seed=17, snr_grid_db=grid)
    emp = outage_vs_snr(dims, 2.0, cfg)
    union = averaged_bound_vs_snr(dims, 2.0, "union", cfg)
    simo = averaged_bound_vs_snr(dims, 2.0, "simo", cfg)
    for e, b in zip(emp, union):
        assert b.p_hat >= e.p_hat - 3.0 * (b.stderr + e.stderr) - 1e-3
    for e, b in zip(emp, simo):
        assert b.p_hat >= e.p_hat - 3.0 * (b.stderr + e.stderr) - 1e-3


def test_engine_validation_errors():
    dims = ScenarioDims(2, 1, 2)
    no_snr = SimConfig(trials=10)
    with pytest.raises(InvalidParameterError):
        outage_vs_snr(dims, 1.0, no_snr)
    snr_cfg = SimConfig(trials=10, snr_grid_db=np.array([0.0]))
    with pytest.raises(InvalidParameterError):
        outage_vs_snr((2, 1, 2), 1.0, snr_cfg)
    with pytest.raises(InvalidParameterError):
        outage_vs_snr(dims, 0.0, snr_cfg)
    with pytest.raises(InvalidParameterError):
        averaged_bound_vs_snr(dims, 1.0, "exact", snr_cfg)
    with pytest.raises(InvalidParameterError):
        averaged_bound_vs_snr(ScenarioDims(2, 2, 3), 1.0, "simo", snr_cfg)
    with pytest.raises(InvalidParameterError):
        conditional_cdf_scalar(2, 0.0, SimConfig(trials=10))
    with pytest.raises(InvalidParameterError):
        conditional_cdf_cardinality(0, 4, 8.0, SimConfig(trials=10))
    with pytest.raises(InvalidParameterError):
        conditional_cdf_cardinality(5, 4, 8.0, SimConfig(trials=10))
    with pytest.raises(InvalidParameterError):
        conditional_cdf_mimo_frobenius((2, 2, 3), 8.0, SimConfig(trials=10))


def test_simconfig_accepts_numpy_integer_trials():
    cfg = SimConfig(trials=np.int64(5))
    assert cfg.trials == 5 and type(cfg.trials) is int
    assert SimConfig(trials=5.0).trials == 5


def test_cardinality_k_must_be_an_integer():
    cfg = SimConfig(trials=20, seed=1)
    with pytest.raises(InvalidParameterError):
        conditional_cdf_cardinality(1.5, 4, 8.0, cfg)
    with pytest.raises(InvalidParameterError):
        conditional_cdf_scalar(0, 2.0, cfg)
    a = conditional_cdf_cardinality(np.int64(2), 4, 8.0, cfg)
    assert np.array_equal(a.probs, conditional_cdf_cardinality(2, 4, 8.0, cfg).probs)
