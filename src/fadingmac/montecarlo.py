"""Monte-Carlo engines for the conditioned and unconditioned outage curves.

Every driver iterates over linalg.trial_generators, so results are
bit-reproducible and independent of scheduling; aggregation is pure
counting.  Empirical CDFs use the strict event {rate < R}, matching the
analytic formulas, and report the atom mass at the conditioning capacity
separately.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bounds import ScenarioDims, mimo_union_bound, two_user_simo_bound
from .capacity import scaled_subset_rates
from .errors import InvalidParameterError, check_int, check_positive
from .linalg import sample_capacity_sphere, sample_complex_gaussian, trial_generators

_LN2 = math.log(2.0)


@dataclass
class SimConfig:
    """Knobs of a Monte-Carlo run."""

    trials: int
    seed: int = 0
    rate_grid: np.ndarray = None
    snr_grid_db: np.ndarray = None
    per_user_target: bool = False

    def __post_init__(self):
        self.trials = check_int(self.trials, "trials", 1)
        for name in ("rate_grid", "snr_grid_db"):
            grid = getattr(self, name)
            if grid is None:
                continue
            grid = np.asarray(grid, dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise InvalidParameterError(f"{name} must be a non-empty vector")
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
    stderr = np.array([binomial_stderr(p, trials) for p in probs])
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
    trials = cfg.trials
    samples = np.empty(trials)
    atom = 0
    for t, rng in enumerate(trial_generators(cfg.seed, trials)):
        h = sample_capacity_sphere(n_users * block_dim, sum_cap_bits, rng)
        mags = np.abs(h) ** 2
        gains = mags if block_dim == 1 else mags.reshape(n_users, block_dim).sum(axis=1)
        if n_users == 1:
            samples[t] = sum_cap_bits
            atom += 1
            continue
        scaled = scaled_subset_rates(np.sort(gains))
        partial_min = scaled[:-1].min()
        if partial_min >= sum_cap_bits:
            atom += 1
            samples[t] = sum_cap_bits
        else:
            samples[t] = partial_min
    return samples, atom


def conditional_cdf_scalar(n_users, sum_cap_bits, cfg):
    """Empirical CDF of the symmetric capacity of N scalar users given C.

    Draws channels uniformly on the capacity sphere, so the conditioning is
    exact rather than a rejection step.
    """
    check_positive(sum_cap_bits, "conditioning capacity")
    grid = cfg.rate_grid if cfg.rate_grid is not None else default_rate_grid(sum_cap_bits)
    samples, atom = _conditioned_sym_samples(n_users, sum_cap_bits, cfg)
    return empirical_cdf(samples, grid, cfg.trials, atom)


def conditional_cdf_cardinality(k, n_users, sum_cap_bits, cfg):
    """Empirical CDF of (N/k) C(S) for one fixed subset S of size k, given C.

    Uses the first k sphere coordinates (unsorted: the law of a fixed subset,
    not of the weakest one), which is what the per-cardinality beta formula
    describes.
    """
    check_positive(sum_cap_bits, "conditioning capacity")
    if not 1 <= k <= n_users:
        raise InvalidParameterError("k must lie in [1, n_users]")
    grid = cfg.rate_grid if cfg.rate_grid is not None else default_rate_grid(sum_cap_bits)
    samples = np.empty(cfg.trials)
    for t, rng in enumerate(trial_generators(cfg.seed, cfg.trials)):
        h = sample_capacity_sphere(n_users, sum_cap_bits, rng)
        part = float(np.sum(np.abs(h[:k]) ** 2))
        samples[t] = (n_users / k) * math.log1p(part) / _LN2
    return empirical_cdf(samples, grid, cfg.trials)


def conditional_cdf_mimo_frobenius(dims, frob_cap_bits, cfg):
    """Empirical CDF of the Frobenius-surrogate symmetric capacity given the
    Frobenius sum rate.  Validates the inflated-parameter beta law: each
    user's squared norm aggregates N_r*N_t coordinates of one big sphere."""
    if not isinstance(dims, ScenarioDims):
        raise InvalidParameterError("dims must be a ScenarioDims")
    check_positive(frob_cap_bits, "conditioning capacity")
    grid = cfg.rate_grid if cfg.rate_grid is not None else default_rate_grid(frob_cap_bits)
    samples, atom = _conditioned_sym_samples(
        dims.n_users, frob_cap_bits, cfg, block_dim=dims.n_rx * dims.n_tx)
    return empirical_cdf(samples, grid, cfg.trials, atom)


def _draw_unit_user_matrices(dims, rng):
    return [sample_complex_gaussian(dims.n_rx, dims.n_tx, 1.0, rng)
            for _ in range(dims.n_users)]


def _subset_eigenvalues(dims, mats):
    """Eigenvalues of sum_{i in S} W_i W_i^H for every non-empty subset.

    Channel draws enter outage curves only through these spectra: at SNR s
    the subset rate is sum log2(1 + s*lam).  Computing them once per trial
    makes the SNR sweep cheap."""
    n = dims.n_users
    grams = [m @ m.conj().T for m in mats]
    out = []
    for mask in range(1, 1 << n):
        acc = np.zeros((dims.n_rx, dims.n_rx), dtype=complex)
        size = 0
        for i in range(n):
            if mask & (1 << i):
                acc += grams[i]
                size += 1
        lam = np.clip(np.linalg.eigvalsh(acc), 0.0, None)
        out.append((size, lam))
    return out


def _sym_capacity_at_snr(subset_eigs, n_users, snr):
    best = math.inf
    for size, lam in subset_eigs:
        rate = float(np.sum(np.log1p(snr * lam))) / _LN2
        best = min(best, (n_users / size) * rate)
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
    if not isinstance(dims, ScenarioDims):
        raise InvalidParameterError("dims must be a ScenarioDims")
    check_positive(target_rate_bits, "target rate")
    grid_db, grid_lin = _snr_grid_linear(cfg)
    threshold = target_rate_bits * (dims.n_users if cfg.per_user_target else 1)
    counts = np.zeros(grid_lin.size, dtype=int)
    for rng in trial_generators(cfg.seed, cfg.trials):
        eigs = _subset_eigenvalues(dims, _draw_unit_user_matrices(dims, rng))
        for j, snr in enumerate(grid_lin):
            if _sym_capacity_at_snr(eigs, dims.n_users, snr) < threshold:
                counts[j] += 1
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
    if not isinstance(dims, ScenarioDims):
        raise InvalidParameterError("dims must be a ScenarioDims")
    if which not in ("union", "simo"):
        raise InvalidParameterError("which must be 'union' or 'simo'")
    if which == "simo" and (dims.n_users != 2 or dims.n_tx != 1):
        raise InvalidParameterError("the SIMO bound needs 2 users with one tx antenna")
    check_positive(target_rate_bits, "target rate")
    grid_db, grid_lin = _snr_grid_linear(cfg)
    target = target_rate_bits * (dims.n_users if cfg.per_user_target else 1)
    bound = partial(mimo_union_bound, dims) if which == "union" else two_user_simo_bound
    acc = np.zeros(grid_lin.size)
    acc_sq = np.zeros(grid_lin.size)
    for rng in trial_generators(cfg.seed, cfg.trials):
        mats = _draw_unit_user_matrices(dims, rng)
        if which == "union":
            unit_frob = sum(float(np.sum(np.abs(m) ** 2)) for m in mats)
            conds = [math.log1p(snr * unit_frob) / _LN2 for snr in grid_lin]
        else:
            stackg = np.hstack(mats)
            lam = np.clip(np.linalg.eigvalsh(stackg @ stackg.conj().T), 0.0, None)
            conds = [float(np.sum(np.log1p(snr * lam))) / _LN2 for snr in grid_lin]
        for j, cond in enumerate(conds):
            v = 1.0 if target >= cond else bound(target, cond)
            acc[j] += v
            acc_sq[j] += v * v
    means = acc / cfg.trials
    variances = np.maximum(acc_sq / cfg.trials - means ** 2, 0.0)
    sems = np.sqrt(variances / cfg.trials)
    return [OutageEstimate(point=float(db), p_hat=float(m), stderr=float(s),
                           trials=cfg.trials)
            for db, m, s in zip(grid_db, means, sems)]
