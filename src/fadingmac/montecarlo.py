"""Monte-Carlo engines for the conditioned and unconditioned outage curves.

The engines work on blocks of trials at once.  linalg.trial_normals hands
them each trial's draws as one row of an array, in the package's RNG layout:
one standard_normal call per block draws the rows of consecutive trials of
one stream, so no engine builds a generator per trial.
Every step after the draw (sphere normalization, subset rates,
subset-Gram eigenvalues, the averaged bounds) is an array operation over the
block.  Results are therefore bit-reproducible, independent of scheduling and
of the block size, and use the same random numbers as a per-trial loop over
the public samplers; aggregation is pure counting.  Empirical CDFs use the
strict event {rate < R}, matching the analytic formulas, and report the atom
mass at the conditioning capacity separately.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bounds import ScenarioDims, mimo_union_bound_array, two_user_simo_bound_array
from .capacity import check_enumerable, scaled_subset_rates
from .errors import (InvalidParameterError, check_capacity, check_choice, check_int,
                     check_positive, check_subset_size, check_type)
from .linalg import capacity_sphere_rows, trial_normals

_LN2 = math.log(2.0)


@dataclass
class SimConfig:
    """Knobs of a Monte-Carlo run."""

    trials: int
    seed: int = 0
    rate_grid: np.ndarray = None
    snr_grid_db: np.ndarray = None

    def __post_init__(self):
        self.trials = check_int(self.trials, "trials", 1)
        for name in ("rate_grid", "snr_grid_db"):
            grid = getattr(self, name)
            if grid is None:
                continue
            grid = np.asarray(grid, dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise InvalidParameterError(f"{name} must be a non-empty vector")
            if not np.all(np.isfinite(grid)):
                raise InvalidParameterError(f"{name} must be finite")
            if np.any(np.diff(grid) < 0):
                raise InvalidParameterError(f"{name} must be sorted ascending")
            setattr(self, name, grid)


@dataclass(frozen=True)
class OutageEstimate:
    """One point of an empirical curve with its standard error."""

    point: float
    p_hat: float
    stderr: float
    trials: int


@dataclass
class CdfCurve:
    """Sampled CDF: P(rate < R) over a rate grid, plus any atom at the top."""

    rates: np.ndarray
    probs: np.ndarray
    stderr: np.ndarray = None
    trials: int = None
    atom_mass: float = None
    atom_stderr: float = None


def binomial_stderr(p_hat, trials):
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)


def default_rate_grid(sum_cap_bits, points=50):
    return np.linspace(0.0, sum_cap_bits, points)


def empirical_cdf(samples, grid, trials, atom_count=None):
    s = np.sort(samples)
    counts = np.searchsorted(s, grid, side="left")
    probs = counts / trials
    stderr = np.sqrt(np.maximum(probs * (1 - probs), 0) / trials)
    atom_mass = atom_stderr = None
    if atom_count is not None:
        atom_mass = atom_count / trials
        atom_stderr = binomial_stderr(atom_mass, trials)
    return CdfCurve(rates=np.asarray(grid, dtype=float), probs=probs, stderr=stderr,
                    trials=trials, atom_mass=atom_mass, atom_stderr=atom_stderr)


def _conditioned_sym_samples(n_users, sum_cap_bits, cfg, block_dim=1):
    """Symmetric-capacity draws conditioned on the (Frobenius) sum rate.

    block_dim > 1 groups that many sphere coordinates per user, which turns
    the scalar sampler into the Frobenius-norm MIMO sampler.  Returns the
    samples (capped at the conditioning value) and the exact atom count.
    """
    if n_users == 1:
        return np.full(cfg.trials, float(sum_cap_bits)), cfg.trials
    samples = []
    atom = 0
    for z in trial_normals(cfg.seed, cfg.trials, (2, n_users * block_dim)):
        h = capacity_sphere_rows(z, sum_cap_bits)
        gains = (np.abs(h) ** 2).reshape(len(h), n_users, block_dim).sum(axis=2)
        partial_min = scaled_subset_rates(np.sort(gains, axis=1))[:, :-1].min(axis=1)
        in_atom = partial_min >= sum_cap_bits
        atom += int(np.count_nonzero(in_atom))
        samples.append(np.where(in_atom, sum_cap_bits, partial_min))
    return np.concatenate(samples), atom


def conditional_cdf_scalar(n_users, sum_cap_bits, cfg):
    """Empirical CDF of the symmetric capacity of N scalar users given C.

    Draws channels uniformly on the capacity sphere, so the conditioning is
    exact rather than a rejection step.  Scalar users are the 1x1 case of
    conditional_cdf_mimo_frobenius, whose draws they share.
    """
    return conditional_cdf_mimo_frobenius(ScenarioDims(n_users, 1, 1), sum_cap_bits, cfg)


def conditional_cdf_cardinality(k, n_users, sum_cap_bits, cfg):
    """Empirical CDF of (N/k) C(S) for one fixed subset S of size k, given C.

    Uses the first k sphere coordinates (unsorted: the law of a fixed subset,
    not of the weakest one), which is what the per-cardinality beta formula
    describes.
    """
    check_capacity(sum_cap_bits)
    n_users = check_int(n_users, "n_users", 1)
    k = check_subset_size(k, n_users)
    grid = cfg.rate_grid if cfg.rate_grid is not None else default_rate_grid(sum_cap_bits)
    if k == n_users:
        # The full set's rate is C on every draw; summing the sphere would
        # only add rounding noise around it.
        return empirical_cdf(np.full(cfg.trials, float(sum_cap_bits)), grid, cfg.trials)
    samples = np.concatenate([
        (n_users / k) * np.log1p((np.abs(capacity_sphere_rows(z, sum_cap_bits)[:, :k]) ** 2)
                                 .sum(axis=1)) / _LN2
        for z in trial_normals(cfg.seed, cfg.trials, (2, n_users))])
    return empirical_cdf(samples, grid, cfg.trials)


def conditional_cdf_mimo_frobenius(dims, frob_cap_bits, cfg):
    """Empirical CDF of the Frobenius-surrogate symmetric capacity given the
    Frobenius sum rate.  Validates the inflated-parameter beta law: each
    user's squared norm aggregates N_r*N_t coordinates of one big sphere."""
    check_type(dims, ScenarioDims, "dims")
    check_capacity(frob_cap_bits)
    grid = cfg.rate_grid if cfg.rate_grid is not None else default_rate_grid(frob_cap_bits)
    samples, atom = _conditioned_sym_samples(
        dims.n_users, frob_cap_bits, cfg, block_dim=dims.n_rx * dims.n_tx)
    return empirical_cdf(samples, grid, cfg.trials, atom)


def _user_matrix_blocks(dims, cfg):
    """Blocks of unit-variance user matrices, shape (rows, n_users, n_rx, n_tx):
    row t holds the matrices sample_complex_gaussian draws, user by user,
    from trial t's generator."""
    shape = (dims.n_users, 2, dims.n_rx, dims.n_tx)
    for z in trial_normals(cfg.seed, cfg.trials, shape):
        yield math.sqrt(0.5) * (z[:, :, 0] + 1j * z[:, :, 1])


def _rates_at_snrs(lam, snrs):
    """sum log2(1 + s * lam) over the last axis of lam, per row (trial) and
    column (SNR s): the mutual information of Gram eigenvalues lam at SNR s."""
    return np.log1p(snrs[:, None] * lam[:, None, :]).sum(axis=2) / _LN2


def _symmetric_capacity(mats, snrs):
    """Symmetric capacity of each trial of a block (rows) at each linear SNR
    (columns), by enumerating the user subsets S.

    Channel draws enter only through the eigenvalues of the subset Grams
    sum_{i in S} W_i W_i^H, so one batched eigendecomposition per subset
    serves the whole SNR grid."""
    n = mats.shape[1]
    grams = mats @ mats.conj().swapaxes(-1, -2)
    best = np.full((len(mats), snrs.size), np.inf)
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        acc = np.zeros_like(grams[:, 0])
        for i in members:
            acc += grams[:, i]
        lam = np.clip(np.linalg.eigvalsh(acc), 0.0, None)
        best = np.minimum(best, (n / len(members)) * _rates_at_snrs(lam, snrs))
    return best


def _snr_grid_linear(cfg):
    if cfg.snr_grid_db is None:
        raise InvalidParameterError("snr_grid_db is required")
    return cfg.snr_grid_db, 10.0 ** (np.asarray(cfg.snr_grid_db) / 10.0)


def outage_vs_snr(dims, target_rate_bits, cfg):
    """Unconditioned outage P(symmetric capacity < target) across an SNR grid.

    Per-entry channel variance equals the linear SNR.  The same trial index
    reuses one normalized channel draw at every grid point, so curves are
    smooth in SNR and comparable with averaged_bound_vs_snr run on the same
    seed.
    """
    check_type(dims, ScenarioDims, "dims")
    check_enumerable(dims.n_users)
    check_positive(target_rate_bits, "target rate")
    grid_db, grid_lin = _snr_grid_linear(cfg)
    counts = np.zeros(grid_lin.size, dtype=int)
    for mats in _user_matrix_blocks(dims, cfg):
        counts += (_symmetric_capacity(mats, grid_lin) < target_rate_bits).sum(axis=0)
    return [OutageEstimate(point=float(db), p_hat=c / cfg.trials,
                           stderr=binomial_stderr(c / cfg.trials, cfg.trials),
                           trials=cfg.trials)
            for db, c in zip(grid_db, counts)]


def averaged_bound_vs_snr(dims, target_rate_bits, which, cfg):
    """Average of a conditional outage bound over channel draws, per SNR.

    which = "union": Frobenius-conditioned union bound, any dims.
    which = "simo":  two scalar users, multi-antenna receiver bound,
                         conditioned on the true sum capacity.
    Draws with conditioning value below the target contribute probability 1.
    stderr is the standard error of the mean of the averaged bound values.
    """
    check_type(dims, ScenarioDims, "dims")
    check_choice(which, ("union", "simo"), "which")
    if which == "simo" and (dims.n_users != 2 or dims.n_tx != 1):
        raise InvalidParameterError("the SIMO bound needs 2 users with one tx antenna")
    check_positive(target_rate_bits, "target rate")
    grid_db, grid_lin = _snr_grid_linear(cfg)
    bound = partial(mimo_union_bound_array, dims) if which == "union" \
        else two_user_simo_bound_array
    acc = np.zeros(grid_lin.size)
    acc_sq = np.zeros(grid_lin.size)
    for mats in _user_matrix_blocks(dims, cfg):
        if which == "union":
            unit_frob = (np.abs(mats) ** 2).reshape(len(mats), dims.n_users, -1).sum(axis=2)
            conds = np.log1p(np.multiply.outer(unit_frob.sum(axis=1), grid_lin)) / _LN2
        else:
            stack = mats.transpose(0, 2, 1, 3).reshape(len(mats), dims.n_rx, -1)
            lam = np.clip(np.linalg.eigvalsh(stack @ stack.conj().swapaxes(-1, -2)), 0.0, None)
            conds = _rates_at_snrs(lam, grid_lin)
        above = target_rate_bits < conds
        values = np.ones_like(conds)
        values[above] = bound(target_rate_bits, conds[above])
        acc += values.sum(axis=0)
        acc_sq += (values * values).sum(axis=0)
    means = acc / cfg.trials
    variances = np.maximum(acc_sq / cfg.trials - means ** 2, 0.0)
    sems = np.sqrt(variances / cfg.trials)
    return [OutageEstimate(point=float(db), p_hat=float(m), stderr=float(s),
                           trials=cfg.trials)
            for db, m, s in zip(grid_db, means, sems)]
