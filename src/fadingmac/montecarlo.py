"""Monte-Carlo engines for the conditioned and unconditioned outage curves.

The engines work on blocks of trials at once.  linalg.trial_gammas and
linalg.trial_normals hand them each trial's draws as one row of an array, in
the package's RNG layout, one call per block of consecutive trials of one
stream.  The conditioned CDF engines draw each user's squared norm, Gamma(m,
1) for m channel entries, and take the users' shares of the capacity sphere
with users on the leading axis: sample_capacity_sphere's law, not its draws;
each passes its per-block samples to one tail, _sphere_cdf, which samples
exactly C with no draw where the full set is the only subset.  The sweeps
turn normals into user matrices with linalg.complex_gaussian_rows, whose
one-row call is sample_complex_gaussian, and read the subset Grams'
determinant polynomials.
Every step after the draw is an array operation over the block, so results
are bit-reproducible and independent of scheduling and of the block size;
aggregation is counting.
Empirical CDFs use the strict event {rate < R}, matching the analytic
formulas, and report the atom mass at the conditioning capacity separately.
"""

import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import NamedTuple

import numpy as np

from .bounds import ScenarioDims, mimo_union_bound_array, two_user_simo_bound_array
from .capacity import check_enumerable, scaled_subset_rates
from .errors import (InvalidParameterError, NumericalDomainError, check_capacity, check_choice,
                     check_gain, check_int, check_positive, check_subset_size, check_type)
from .linalg import complex_gaussian_rows, trial_gammas, trial_normals

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


class OutageEstimate(NamedTuple):
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


def _sphere_gains(g, sum_cap_bits, first=None):
    """Users' gains on the capacity sphere of sum capacity C, shape (N, rows),
    from their squared norms g, shape (rows, N): shares of the row's total
    times 2^C - 1, or with first=k the first k users' summed.  Shares lie in
    [0, 1], so the scaling stays finite at any C.  An all-zero row has no
    direction and raises, as sample_capacity_sphere does."""
    g = np.ascontiguousarray(g.T)
    total = g.sum(axis=0)
    if not np.all(total > 0):
        raise NumericalDomainError("capacity-sphere gains are all zero")
    return (g if first is None else g[:first].sum(axis=0)) / total \
        * check_gain(sum_cap_bits, "sum capacity")


def _sorted_users(gains):
    """gains sorted along the user axis; up to seven users in place, by a
    bubble network of minima and maxima over whole rows, which beats
    np.sort's call per column."""
    if len(gains) > 7:
        return np.sort(gains, axis=0)
    for top in range(len(gains) - 1, 0, -1):
        for j in range(top):
            low = np.minimum(gains[j], gains[j + 1])
            np.maximum(gains[j], gains[j + 1], out=gains[j + 1])
            gains[j] = low
    return gains


def conditional_cdf_scalar(n_users, sum_cap_bits, cfg):
    """Empirical CDF of the symmetric capacity of N scalar users given C.

    Draws the users' gains uniformly on the capacity sphere's simplex, so
    the conditioning is exact rather than a rejection step.  Scalar users are
    the 1x1 case of conditional_cdf_mimo_frobenius, whose draws they share.
    """
    return conditional_cdf_mimo_frobenius(ScenarioDims(n_users, 1, 1), sum_cap_bits, cfg)


def conditional_cdf_cardinality(k, n_users, sum_cap_bits, cfg):
    """Empirical CDF of (N/k) C(S) for one fixed subset S of size k, given C.

    Uses the first k users' gains on the capacity sphere (unsorted: the law
    of a fixed subset, not of the weakest one), which is what the
    per-cardinality beta formula describes.
    """
    check_capacity(sum_cap_bits)
    n_users = check_int(n_users, "n_users", 1)
    k = check_subset_size(k, n_users)
    def sample(g):
        return (n_users / k) * np.log1p(_sphere_gains(g, sum_cap_bits, k)) / _LN2
    return _sphere_cdf(cfg, sum_cap_bits, 1, n_users, sample if k < n_users else None, atom=False)


def conditional_cdf_mimo_frobenius(dims, frob_cap_bits, cfg):
    """Empirical CDF of the Frobenius-surrogate symmetric capacity given the
    Frobenius sum rate.  Validates the inflated-parameter beta law: each
    user's squared norm, Gamma(N_r*N_t, 1), aggregates N_r*N_t coordinates
    of one big sphere.  Samples are capped at the conditioning value, whose
    atom is counted exactly."""
    check_type(dims, ScenarioDims, "dims")
    check_capacity(frob_cap_bits)
    n, m = dims.n_users, dims.n_rx * dims.n_tx
    def sample(g):
        rates = scaled_subset_rates(_sorted_users(_sphere_gains(g, frob_cap_bits))[:-1], n)
        return np.minimum(rates.min(axis=0), frob_cap_bits)
    return _sphere_cdf(cfg, frob_cap_bits, m, n, sample if n > 1 else None, atom=True)


def _sphere_cdf(cfg, cap, m, n, sample, atom):
    """Empirical CDF given C of sample(g) over the blocks g, shape (rows, n), of
    n users' Gamma(m, 1) squared norms; if atom, the samples equal to C are the
    atom.  sample=None: the only subset is the full set (k = N, or one user),
    whose rate is C on every draw, so each sample is exactly C; nothing is drawn."""
    grid = cfg.rate_grid if cfg.rate_grid is not None else default_rate_grid(cap)
    samples = np.full(cfg.trials, float(cap)) if sample is None else np.concatenate(
        [sample(g) for g in trial_gammas(cfg.seed, cfg.trials, m, n)])
    return empirical_cdf(samples, grid, cfg.trials,
                         int(np.count_nonzero(samples == cap)) if atom else None)


def _user_matrix_blocks(dims, cfg):
    """Blocks of unit-variance user matrices, shape (rows, n_users, n_rx, n_tx):
    row t holds the matrices sample_complex_gaussian draws, user by user,
    from trial t's generator."""
    shape = (dims.n_users, 2, dims.n_rx, dims.n_tx)
    for z in trial_normals(cfg.seed, cfg.trials, shape):
        yield complex_gaussian_rows(z)


def _det_coefficients(grams):
    """[e_1, ..., e_r] of det(I + s G) = 1 + e_1 s + ... + e_r s^r for a
    stack of Hermitian r x r Grams G.  e_k is the sum of G's k x k principal
    minors: closed forms for r <= 3, elementary symmetric sums of the
    eigenvalues above.  Rounding can leave a minor of a PSD Gram slightly
    negative, so the closed forms are clipped at 0."""
    r = grams.shape[-1]
    if r > 3:
        lam = np.clip(np.linalg.eigvalsh(grams), 0.0, None)
        coeffs = [np.zeros(grams.shape[:-2]) for _ in range(r)]
        for j in range(r):
            for k in range(j, 0, -1):
                coeffs[k] += lam[..., j] * coeffs[k - 1]
            coeffs[0] += lam[..., j]
        return coeffs
    d = [grams[..., i, i].real for i in range(r)]
    off = {(i, j): grams[..., i, j] for i in range(r) for j in range(i + 1, r)}
    sq = {ij: g.real ** 2 + g.imag ** 2 for ij, g in off.items()}
    if r == 1:
        coeffs = d
    elif r == 2:
        coeffs = [d[0] + d[1], d[0] * d[1] - sq[0, 1]]
    else:
        minors = [d[i] * d[j] - sq[i, j] for i, j in sq]
        coeffs = [d[0] + d[1] + d[2], minors[0] + minors[1] + minors[2],
                  d[0] * minors[2] - d[1] * sq[0, 2] - d[2] * sq[0, 1]
                  + 2.0 * (off[0, 1] * off[1, 2] * off[0, 2].conj()).real]
    return [np.maximum(e, 0.0) for e in coeffs]


def _log_det(coeffs, snrs):
    """ln det(I + s G) from det's coefficients [e_1, ..., e_r] (arrays of one
    shape), at every SNR s on a new last axis.

    Horner's rule evaluates the polynomial, so each value costs one log1p.
    Where det overflows (a rate above about 1,024 bits) the terms e_k s^k
    are summed in the log domain instead."""
    with np.errstate(over="ignore"):
        poly = coeffs[-1][..., None] * snrs
        for e in coeffs[-2::-1]:
            poly += e[..., None]
            poly *= snrs
    if poly.max(initial=0.0) < np.inf:
        return np.log1p(poly, out=poly)
    out = np.log1p(poly)
    over = np.isinf(poly)
    *at, col = np.nonzero(over)
    log_s = np.log(snrs[col])
    with np.errstate(divide="ignore"):
        terms = np.stack([np.zeros_like(log_s)] + [np.log(e[tuple(at)]) + k * log_s
                                                  for k, e in enumerate(coeffs, 1)])
    top = terms.max(axis=0)
    out[over] = top + np.log(np.exp(terms - top).sum(axis=0))
    return out


def _subset_gram(mats, members, grams=None):
    """G_S, the Gram of subset S's stacked matrix W_S in its smaller dimension
    r = min(n_rx, |S| n_t): W_S^H W_S when |S| n_t < n_rx, otherwise the sum
    of the users' grams[:, i] = W_i W_i^H (formed here if not given)."""
    if len(members) * mats.shape[-1] < mats.shape[-2]:
        stacked = np.concatenate([mats[:, i] for i in members], axis=-1)
        return stacked.conj().swapaxes(-1, -2) @ stacked
    grams = mats @ mats.conj().swapaxes(-1, -2) if grams is None else grams
    return sum(grams[:, i] for i in members)


def _symmetric_capacity(mats, snrs):
    """Symmetric capacity of each trial of a block (rows) at each linear SNR
    (columns), by enumerating the user subsets S.

    Subset S's rate is log2 det(I + s G_S) for its _subset_gram G_S, whose
    determinant polynomial is evaluated on the whole SNR grid.  The users'
    n_rx x n_rx Grams are formed once, and only if the full set reads them.
    Subsets of one size k share the scale n / (k ln 2), so it is applied once
    to their least ln det: rounding is monotone, so the scaled minimum is the
    minimum of the scaled rates."""
    _, n, n_rx, n_tx = mats.shape
    grams = mats @ mats.conj().swapaxes(-1, -2) if n * n_tx >= n_rx else None
    least = {}   # subset size -> least ln det over the subsets of that size
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        log_det = _log_det(_det_coefficients(_subset_gram(mats, members, grams)), snrs)
        k = len(members)
        least[k] = np.minimum(least[k], log_det, out=log_det) if k in least else log_det
    return reduce(np.minimum, (m * (n / k / _LN2) for k, m in least.items()))


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
    p_hat = counts / cfg.trials
    return _estimates(grid_db, p_hat, np.maximum(p_hat * (1.0 - p_hat), 0.0), cfg.trials)


def averaged_bound_vs_snr(dims, target_rate_bits, which, cfg):
    """Average of a conditional outage bound over channel draws, per SNR.

    which = "union": Frobenius-conditioned union bound, any dims.
    which = "simo":  two scalar users, multi-antenna receiver bound,
                         conditioned on the true sum capacity.
    Both take the conditioning value from _log_det, as the outage engine
    does: the union from 1 + s F (F the Frobenius total), the SIMO from the
    determinant polynomial of both users' _subset_gram.
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
    acc, acc_sq = np.zeros((2, grid_lin.size))
    for mats in _user_matrix_blocks(dims, cfg):
        if which == "union":  # the Frobenius total, summed user by user
            unit_frob = (np.abs(mats) ** 2).reshape(len(mats), dims.n_users, -1).sum(axis=2)
            coeffs = [unit_frob.sum(axis=1)]
        else:
            coeffs = _det_coefficients(_subset_gram(mats, (0, 1)))
        conds = _log_det(coeffs, grid_lin) / _LN2
        above = target_rate_bits < conds
        values = np.ones_like(conds)
        values[above] = bound(target_rate_bits, conds[above])
        acc += values.sum(axis=0)
        acc_sq += (values * values).sum(axis=0)
    means = acc / cfg.trials
    return _estimates(grid_db, means, np.maximum(acc_sq / cfg.trials - means ** 2, 0.0),
                      cfg.trials)


def _estimates(grid_db, p_hat, variances, trials):
    """OutageEstimates of Python numbers, stderr = sqrt(variance / trials)."""
    return [OutageEstimate(db, p, se, trials) for db, p, se in
            zip(grid_db.tolist(), p_hat.tolist(), np.sqrt(variances / trials).tolist())]
