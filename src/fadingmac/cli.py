"""Command-line front end.

Subcommands reproduce the standard experiment set (``fig``), evaluate single
analytic bounds (``bound``), run Monte-Carlo validations (``simulate``,
``if-sim``, ``validate``), and replay any previous run from its manifest
(``rerun``).  Every data-producing run writes a CSV (curve, x, y, stderr) and
a JSON manifest carrying the full parameter set, the seed of a run that
draws, the library, numpy and python versions and the RNG layout id;
replaying a manifest reproduces the CSV byte for byte, and a manifest of
another RNG layout is refused.  The library works in total rates (N x the
per-user rate); the "per-user" rate convention is converted here only.

Exit codes: 0 success, 1 usage or parameter error, 2 numerical-domain error.
"""

import argparse
import csv
import json
import math
import platform
import sys
import time
from dataclasses import asdict
from functools import cache, partial
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .bounds import (
    BoundPair,
    ScenarioDims,
    atom_probability,
    mimo_bounds,
    mimo_p_out_k,
    mimo_union_bound,
    ml_mean_rate_fraction,
    ml_rate_quantile,
    p_out_k,
    regularized_incomplete_beta,
    scalar_bounds,
    two_user_cdf,
    two_user_simo_bound,
)
from .dmt import single_user_dmt, symmetric_mac_dmt, symmetric_mac_dmt_curve
from .errors import InvalidParameterError, NumericalDomainError, check_capacity, check_gain, \
    check_int
from .integer_forcing import (
    EffectiveChannel,
    brute_force_search,
    check_if_capacity,
    conditioned_rate_samples,
    fraction_of_capacity,
    if_rate,
    lll_search,
)
from .linalg import RNG_LAYOUT, hermitian_inverse, sample_complex_gaussian, trial_generators
from .montecarlo import (
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

_PRECODER_NAMES = {"none": "none", "haar": "haar", "bb": "badr_belfiore"}

class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# output plumbing

def _fmt(value):
    if value is None:
        return ""
    return repr(float(value))


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["curve", "x", "y", "stderr"])
        for curve, x, y, err in rows:
            writer.writerow([curve, _fmt(x), _fmt(y), _fmt(err)])


def _write_manifest(path, command, run, params, wall_time_s, csv_path, extra=None):
    doc = {
        "command": command,
        "params": params,
        "version": __version__,
        "rng_layout": RNG_LAYOUT,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "wall_time_s": wall_time_s,
        "csv": csv_path,
        **(extra or {}),
    }
    if "seed" in run.reads:   # a run that draws nothing has no seed to record
        doc["seed"] = params["seed"]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_paths(base):
    if base.endswith(".csv"):
        return base, base[:-4] + ".json"
    if base.endswith(".json"):
        return base[:-5] + ".csv", base
    return base + ".csv", base + ".json"


def _cdf_rows(curve_name, cdf, atom_name=None):
    rows = [(curve_name, r, p, e)
            for r, p, e in zip(cdf.rates, cdf.probs, cdf.stderr)]
    if atom_name is not None and cdf.atom_mass is not None:
        rows.append((atom_name, cdf.rates[-1], cdf.atom_mass, cdf.atom_stderr))
    return rows


def _estimate_rows(curve_name, estimates):
    return [(curve_name, e.point, e.p_hat, e.stderr) for e in estimates]


def _parse_snr_list(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InvalidParameterError(
            "--snr-db-list must be comma-separated numbers") from exc
    if not values:
        raise InvalidParameterError("--snr-db-list must be non-empty")
    return values


# ---------------------------------------------------------------------------
# figure handlers: each takes the resolved parameter dict and returns rows

def _fig_1(params):
    users, nt, nr = params["users"], params["nt"], params["nr"]
    rows = []
    for r, d in symmetric_mac_dmt_curve(users, nt, nr):
        rows.append(("mac-symmetric", r, d, None))
    for k in range(min(nt, nr) + 1):
        rows.append(("single-user", float(k), single_user_dmt(nt, nr, float(k)), None))
    return rows


def _fig_2(params):
    cap = params["sum_cap"]
    gain_total = check_capacity(cap)
    rows = []
    for u in (0.1, 0.5, 0.8):
        c1 = math.log1p(u * gain_total) / _LN2
        c2 = math.log1p((1.0 - u) * gain_total) / _LN2
        verts = [(0.0, 0.0), (c1, 0.0), (c1, cap - c1), (cap - c2, c2),
                 (0.0, c2), (0.0, 0.0)]
        rows.extend((f"region-u{u:g}", x, y, None) for x, y in verts)
    rows.extend(("density", r, _two_user_density(r, cap), None)
                for r in default_rate_grid(cap))
    rows.append(("atom", cap, atom_probability(cap), None))
    return rows


def _two_user_density(r, cap):
    """Density of the two-user symmetric capacity below C, given C."""
    return _LN2 * 2.0 ** (r / 2.0) / check_capacity(cap)


def _cfg(params):
    return SimConfig(trials=params["trials"], seed=params["seed"])


def _dims(params):
    return ScenarioDims(params["users"], params["nt"], params["nr"])


def _cardinality_rows(params, k):
    users, cap = params["users"], params["sum_cap"]
    cdf = conditional_cdf_cardinality(k, users, cap, _cfg(params))
    return _cdf_rows(f"empirical-k{k}", cdf) + [
        (f"analytic-k{k}", r, p_out_k(k, users, float(r), cap), None) for r in cdf.rates]


def _bracket_rows(params, with_atom=True):
    """Conditioned empirical CDF plus the bracket at each rate: scalar users
    list lower then upper, MIMO users upper then lower.  Unset antenna counts
    are 1, and two scalar users add the analytic atom."""
    users, cap, cfg = params["users"], params["sum_cap"], _cfg(params)
    nt, nr = (1 if params[f] is None else params[f] for f in ("nt", "nr"))
    dims = ScenarioDims(users, nt, nr)   # rejects an explicit 0
    cdf = conditional_cdf_mimo_frobenius(dims, cap, cfg)
    rows = _cdf_rows("empirical", cdf, atom_name="empirical-atom")
    order = ("lower", "upper") if nt == nr == 1 else ("upper", "lower")
    for r in cdf.rates:
        pair = mimo_bounds(dims, float(r), cap)
        rows.extend((end, r, getattr(pair, end), None) for end in order)
    if with_atom and (users, nt, nr) == (2, 1, 1):
        rows.append(("analytic-atom", cap, atom_probability(cap), None))
    return rows


def _fig_3(params):
    # The curves run over subset sizes k = 1 .. N - 1.
    users = check_int(params["users"], "n_users", 2)
    return [row for k in range(1, users) for row in _cardinality_rows(params, k)]


def _snr_sweep_rows(params, with_simo=True):
    dims = _dims(params)
    cfg = SimConfig(trials=params["trials"], seed=params["seed"],
                    snr_grid_db=np.asarray(params["snr_db_list"], dtype=float))
    per_user = params.get("rate_convention") == "per-user"
    target = params["rate"] * (dims.n_users if per_user else 1)
    rows = _estimate_rows("empirical", outage_vs_snr(dims, target, cfg))
    rows += _estimate_rows("union-avg",
                           averaged_bound_vs_snr(dims, target, "union", cfg))
    if with_simo and dims.n_users == 2 and dims.n_tx == 1:
        rows += _estimate_rows("simo-avg",
                               averaged_bound_vs_snr(dims, target, "simo", cfg))
    return rows


def _if_schemes(users, with_haar):
    """(mode, precoder) pairs of an IF figure; bb is a two-user precoder."""
    precoders = ("none", "bb", "haar") if with_haar else ("none", "bb")
    return [(mode, pre) for pre in precoders if users == 2 or pre != "bb"
            for mode in ("if", "if-sic")]


def _ml_cdf_rows(users, cap, grid, scale):
    rows = []
    for r in grid:
        total = min(float(r) * scale, cap)
        if users == 2:
            rows.append(("ml", r, two_user_cdf(total, cap), None))
        else:
            pair = scalar_bounds(users, total, cap)
            rows.extend((f"ml-{end}", r, getattr(pair, end), None) for end in ("lower", "upper"))
    return rows


def _if_cdf_rows(params, schemes):
    """The ML conditional CDF, then the IF rate CDF of each (mode, precoder)
    scheme, on one rate grid of the run's rate convention."""
    users, cap = params["users"], params["sum_cap"]
    check_if_capacity(cap)   # reported before the trial count
    cfg = _cfg(params)
    scale = users if params["rate_convention"] == "per-user" else 1
    grid = default_rate_grid(cap / scale)
    cdfs = {f"{mode}-{pre}": empirical_cdf(conditioned_rate_samples(
                users, cap, _PRECODER_NAMES[pre], mode, cfg) / scale, grid, cfg.trials)
            for mode, pre in schemes}
    rows = _ml_cdf_rows(users, cap, grid, scale)
    for name, cdf in cdfs.items():
        rows.extend(_cdf_rows(name, cdf))
    return rows


def _histogram_rows(curve_name, samples, edges, trials):
    counts, _ = np.histogram(samples, bins=edges)
    widths = np.diff(edges)
    centers = (edges[:-1] + edges[1:]) / 2.0
    rows = []
    for c, x, w in zip(counts, centers, widths):
        rows.append((curve_name, float(x), c / (trials * w),
                     math.sqrt(c) / (trials * w)))
    return rows


def _fig_8(params):
    users, cap = params["users"], params["sum_cap"]
    check_if_capacity(cap)   # before the bins are laid out on it
    cfg = _cfg(params)
    edges = np.linspace(0.0, cap, 51)
    centers = (edges[:-1] + edges[1:]) / 2.0
    rows = []
    if users == 2:
        rows.extend(("ml-density", r, _two_user_density(r, cap), None) for r in centers)
        rows.append(("ml-atom", cap, atom_probability(cap), None))
    for mode, pre in _if_schemes(users, with_haar=False):
        samples = conditioned_rate_samples(users, cap, _PRECODER_NAMES[pre],
                                           mode, cfg)
        rows.extend(_histogram_rows(f"{mode}-{pre}", samples, edges, cfg.trials))
    return rows


def _fig_9(params):
    outage_level = 0.01
    per_user_caps = [float(v) for v in range(1, 11)]
    rows = []
    for users in (2, 4, 6):
        caps = [users * puc for puc in per_user_caps]
        rows.extend((f"ml-n{users}", cap / users,
                     min(1.0, ml_rate_quantile(users, cap, outage_level) / cap), None)
                    for cap in caps)
    cfg = _cfg(params)
    caps2 = [2 * puc for puc in per_user_caps]
    pairs = fraction_of_capacity(2, caps2, outage_level, "if-sic", cfg,
                                 precoder_kind="badr_belfiore")
    rows.extend(("if-sic-bb-n2", cap / 2, frac, None) for cap, frac in pairs)
    return rows


def _fig_10(params):
    users = params["users"]
    cfg = _cfg(params)
    caps = [float(c) for c in range(2, 17, 2)]
    rows = []
    if users == 2:
        rows.extend(("ml", c, ml_mean_rate_fraction(c), None) for c in caps)
    # Both modes of each (precoder, C) run back to back, so the second is
    # served from the first's samples; the rows keep one curve after another.
    schemes = _if_schemes(users, with_haar=False)
    curves = {scheme: [] for scheme in schemes}
    for c in caps:
        for mode, pre in schemes:
            samples = conditioned_rate_samples(users, c, _PRECODER_NAMES[pre],
                                               mode, cfg)
            frac = float(samples.mean()) / c
            # One trial has no sample spread: leave the stderr empty.
            err = (float(samples.std(ddof=1)) / (math.sqrt(cfg.trials) * c)
                   if cfg.trials > 1 else None)
            curves[mode, pre].append((f"{mode}-{pre}", c, frac, err))
    for curve in curves.values():
        rows.extend(curve)
    return rows


class _Run(NamedTuple):
    """One kind of run: ``compute(params)`` gives its rows, value or checks.
    It reads the parameters in ``reads``, needs those in ``requires`` given,
    and takes ``defaults`` for flags left unset."""
    compute: Callable
    reads: set
    requires: tuple = ()
    defaults: dict = {}


_SNR_GRID_DB = [float(s) for s in range(-10, 21, 2)]

_MONTE_CARLO = {"trials", "seed"}
_SWEEP = {"users", "nt", "nr", "rate", "snr_db_list", "rate_convention", *_MONTE_CARLO}

# figure -> its run; its defaults go on top of the "fig" defaults of _COMMANDS
_FIGURES = {
    1: _Run(_fig_1, {"users", "nt", "nr"}),
    2: _Run(_fig_2, {"sum_cap"}, defaults={"sum_cap": 2.0}),
    3: _Run(_fig_3, {"users", "sum_cap", *_MONTE_CARLO},
            defaults={"users": 4, "sum_cap": 8.0, "trials": 100000}),
    4: _Run(partial(_bracket_rows, with_atom=False), {"users", "sum_cap", *_MONTE_CARLO},
            defaults={"users": 4, "sum_cap": 8.0, "trials": 100000}),
    5: _Run(partial(_snr_sweep_rows, with_simo=False), _SWEEP,
            defaults={"nt": 2, "nr": 3, "rate": 3.0, "snr_db_list": _SNR_GRID_DB}),
    6: _Run(_snr_sweep_rows, _SWEEP,
            defaults={"nr": 6, "rate": 3.0, "snr_db_list": _SNR_GRID_DB}),
    7: _Run(lambda p: _if_cdf_rows(p, _if_schemes(p["users"], with_haar=True)),
            {"users", "sum_cap", "rate_convention", *_MONTE_CARLO}, defaults={"sum_cap": 10.0}),
    8: _Run(_fig_8, {"users", "sum_cap", *_MONTE_CARLO}, defaults={"sum_cap": 10.0}),
    9: _Run(_fig_9, _MONTE_CARLO, defaults={"trials": 2000}),
    10: _Run(_fig_10, {"users", *_MONTE_CARLO}, defaults={"trials": 2000}),
}


# ---------------------------------------------------------------------------
# bound, simulate, if-sim runs

def _bound(value_of, *names):
    """A bound kind: it reads, and requires, exactly the named parameters."""
    return _Run(value_of, set(names), names)


_BOUNDS = {
    "two-user": _bound(lambda p: two_user_cdf(p["rate"], p["sum_cap"]), "rate", "sum_cap"),
    "atom": _bound(lambda p: atom_probability(p["sum_cap"]), "sum_cap"),
    "scalar-bracket": _bound(lambda p: scalar_bounds(p["users"], p["rate"], p["sum_cap"]),
                             "users", "rate", "sum_cap"),
    "frobenius-union": _bound(lambda p: mimo_union_bound(_dims(p), p["rate"], p["sum_cap"]),
                              "users", "nt", "nr", "rate", "sum_cap"),
    "simo": _bound(lambda p: two_user_simo_bound(p["rate"], p["sum_cap"]), "rate", "sum_cap"),
    "dmt": _bound(lambda p: symmetric_mac_dmt(p["users"], p["nt"], p["nr"], p["mux"]),
                  "users", "nt", "nr", "mux"),
}


# simulate branch -> its name in messages and its run.  --cardinality draws
# scalar users: --nt 1 and --nr 1 run, and its manifest records them as given.
_SIMULATE = {
    "sweep": ("an --snr-db-list sweep", _Run(_snr_sweep_rows, _SWEEP, ("rate", "nt", "nr"))),
    "cardinality": ("a --cardinality run", _Run(
        lambda p: _cardinality_rows(p, p["cardinality"]),
        {"users", "sum_cap", "cardinality", *_MONTE_CARLO}, ("sum_cap",),
        {"nt": 1, "nr": 1})),
    "bracket": ("a conditioned bracket", _Run(
        _bracket_rows, {"users", "nt", "nr", "sum_cap", *_MONTE_CARLO}, ("sum_cap",))),
}

_IF_SIM = ("if-sim", _Run(lambda p: _if_cdf_rows(p, [(p["mode"], p["precoder"])]),
                          {"users", "sum_cap", "precoder", "mode", "rate_convention",
                           *_MONTE_CARLO}, ("sum_cap",)))


# ---------------------------------------------------------------------------
# validation suites

def _suite_analytic(_params):
    checks = []
    checks.append(("two-user cdf at R=C=2",
                   abs(two_user_cdf(2.0, 2.0) - 2.0 / 3.0), 1e-12))
    checks.append(("atom mass at C=2",
                   abs(atom_probability(2.0) - 1.0 / 3.0), 1e-12))
    dev = 0.0
    for cap in (2.0, 10.0):
        for r in np.linspace(0.1 * cap, cap, 9):
            pair = scalar_bounds(2, float(r), cap)
            dev = max(dev, abs(pair.upper_raw - two_user_cdf(float(r), cap)))
    checks.append(("two-user union equals exact cdf", dev, 1e-12))
    # The Beta(k, N - k) CDF by N-node Gauss-Legendre quadrature, exact for its
    # polynomial density; k C(N - 1, k) = 1 / B(k, N - k).
    dev = 0.0
    for users in (2, 3, 4):
        dims = ScenarioDims(users, 1, 1)
        t, w = np.polynomial.legendre.leggauss(users)
        for k in range(1, users):
            for r in (1.0, 3.0, 5.0):
                x = check_gain(r * k / users, "rate") / check_capacity(6.0)
                u = 0.5 * x * (t + 1.0)
                beta = 0.5 * x * k * math.comb(users - 1, k) * float(
                    w @ (u ** (k - 1) * (1.0 - u) ** (users - k - 1)))
                dev = max(dev, abs(mimo_p_out_k(k, dims, r, 6.0) - beta))
    checks.append(("per-antenna law collapses to scalar at 1x1", dev, 1e-12))
    dev = 0.0
    for a in range(1, 7):
        for b in range(1, 7):
            for x in (0.0, 0.2, 0.5, 0.9, 1.0):
                total = (regularized_incomplete_beta(x, a, b)
                         + regularized_incomplete_beta(1.0 - x, b, a))
                dev = max(dev, abs(total - 1.0))
    checks.append(("beta tail symmetry", dev, 1e-12))
    dev = 0.0
    for users in range(2, 7):
        for nt in range(1, 5):
            for nr in range(1, 5):
                thr = min(nt, nr / (users + 1))
                rmax = min(users * nt, nr) / users
                if thr <= 0 or thr >= rmax:
                    continue
                lo = single_user_dmt(nt, nr, thr)
                hi = single_user_dmt(users * nt, nr, users * thr)
                dev = max(dev, abs(lo - hi))
    checks.append(("tradeoff continuity at branch point", dev, 1e-12))
    checks.append(("receive-array bound reaches one at R=C",
                   abs(two_user_simo_bound(3.0, 3.0) - 1.0), 1e-15))
    return checks


def _worst_sigma(cdf, exact):
    """Largest deviation of an empirical CDF from exact(rate), in binomial sigmas."""
    worst = 0.0
    for r, p in zip(cdf.rates, cdf.probs):
        e = exact(float(r))
        sigma = binomial_stderr(e, cdf.trials)
        dev = abs(p - e) / sigma if sigma > 0 else (0.0 if p == e else math.inf)
        worst = max(worst, dev)
    return worst


def _suite_montecarlo(params):
    trials = 20000 if params["trials"] is None else params["trials"]
    checks = []
    cfg = SimConfig(trials=trials, seed=params["seed"],
                    rate_grid=np.linspace(0.0, 2.0, 20))
    cdf = conditional_cdf_scalar(2, 2.0, cfg)
    checks.append(("two-user cdf deviation (sigmas)",
                   _worst_sigma(cdf, lambda r: two_user_cdf(r, 2.0)), 4.0))
    sigma = binomial_stderr(1.0 / 3.0, trials)
    checks.append(("atom mass deviation (sigmas)",
                   abs(cdf.atom_mass - 1.0 / 3.0) / sigma, 4.0))
    cfg = SimConfig(trials=trials, seed=params["seed"],
                    rate_grid=np.linspace(0.0, 8.0, 10))
    cdf = conditional_cdf_cardinality(2, 4, 8.0, cfg)
    checks.append(("fixed-pair cdf deviation (sigmas)",
                   _worst_sigma(cdf, lambda r: p_out_k(2, 4, r, 8.0)), 4.0))
    return checks


def _min_rate(gram, a):
    forms = np.einsum("mi,ij,mj->m", a.conj(), gram, a).real
    return float(np.min(-np.log(forms) / _LN2))


def _suite_if(params):
    instances = 100 if params["trials"] is None else params["trials"]
    checks = []
    agree = 0
    better = 0
    for rng in trial_generators(params["seed"], instances):
        h = sample_complex_gaussian(2, 2, 1.0, rng)
        gram = hermitian_inverse(np.eye(2) + h.conj().T @ h)
        r_lll = _min_rate(gram, lll_search(gram))
        r_opt = _min_rate(gram, brute_force_search(gram, 3))
        if r_lll > r_opt + 1e-9:
            better += 1
        if abs(r_lll - r_opt) <= 1e-9:
            agree += 1
    checks.append(("reduction beats oracle (count)", float(better), 0.0))
    checks.append(("reduction-oracle disagreement rate",
                   1.0 - agree / instances, 0.05))
    worst = 0.0
    for rng in trial_generators(params["seed"] + 1, 2 * instances):
        h = sample_complex_gaussian(3, 3, 1.0, rng)
        eff = EffectiveChannel(matrix=h, n_users=3, streams_per_user=1,
                               time_extension=1)
        plain = if_rate(eff, mode="if")
        sic = if_rate(eff, mode="if-sic", a=plain.a_matrix)
        gap = float(np.max(plain.per_stream_rate_bits - sic.per_stream_rate_bits))
        worst = max(worst, gap)
    checks.append(("successive worse than parallel (max bits)", worst, 1e-9))
    gain = 3.0
    eff = EffectiveChannel(matrix=math.sqrt(gain) * np.eye(2, dtype=complex),
                           n_users=2, streams_per_user=1, time_extension=1)
    res = if_rate(eff, mode="if")
    cap = 2.0 * math.log1p(gain) / _LN2
    checks.append(("orthogonal channel rate gap (bits)",
                   abs(2.0 * res.symmetric_rate_bits - cap), 1e-9))
    return checks


# suite -> its run; --trials counts the Monte-Carlo trials (default 20,000)
# and the search instances (default 100)
_VALIDATE = {
    "analytic": _Run(_suite_analytic, set()),
    "montecarlo": _Run(_suite_montecarlo, _MONTE_CARLO),
    "if": _Run(_suite_if, _MONTE_CARLO),
    "all": _Run(lambda p: _suite_analytic(p) + _suite_montecarlo(p) + _suite_if(p),
                _MONTE_CARLO),
}


def _run_validate(_command, run, params, _out):
    if params["trials"] is not None:
        check_int(params["trials"], "trials", 1)
    checks = run.compute(params)
    failures = 0
    for name, measured, threshold in checks:
        ok = measured <= threshold
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: measured {measured:.6g} vs threshold {threshold:.6g}")
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# runners: each takes the command name, its run, its parameter set and
# --out, and returns the exit code

def _run_rows(command, run, params, out):
    """Write a CSV command's rows and its manifest, named after --out or the
    command's stem."""
    start = time.perf_counter()
    rows = run.compute(params)
    wall = time.perf_counter() - start
    csv_path, manifest_path = _out_paths(out or _COMMANDS[command].stem.format(**params))
    _write_csv(csv_path, rows)
    _write_manifest(manifest_path, command, run, params, wall, csv_path)
    print(f"wrote {csv_path} and {manifest_path}")
    return 0


def _run_bound(command, run, params, out):
    start = time.perf_counter()
    result = run.compute(params)
    values = asdict(result) if isinstance(result, BoundPair) else {"value": result}
    wall = time.perf_counter() - start
    if set(values) == {"value"}:
        print(f"{values['value']:.6g}")
    else:
        print(" ".join(f"{k}={v:.6g}" for k, v in values.items()))
    if out:
        _, manifest_path = _out_paths(out)
        _write_manifest(manifest_path, command, run, params, wall, None, {"result": values})
        print(f"wrote {manifest_path}")
    return 0


def _run_rerun(_command, _run, params, out):
    try:
        with open(params["manifest"]) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParameterError(f"cannot read manifest: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidParameterError("manifest is not a JSON object")
    command = doc.get("command")
    if command not in _COMMANDS or _COMMANDS[command].run is not _run_rows:
        raise InvalidParameterError(
            f"manifest command {command!r} does not produce a CSV")
    recorded = doc.get("params")
    if not isinstance(recorded, dict):
        raise InvalidParameterError("manifest is missing its parameter set")
    # Manifests from before the layout was recorded used layout 1.
    layout = doc.get("rng_layout", 1)
    if layout != RNG_LAYOUT:
        raise InvalidParameterError(
            f"manifest was written with RNG layout {layout}; this version draws with "
            f"layout {RNG_LAYOUT} and cannot replay it")
    out = out or doc.get("csv")
    if not out or not isinstance(out, str):
        raise InvalidParameterError("manifest records no CSV path; pass --out")
    flags, positionals = [], []   # the recorded parameters, run as a fresh command line
    for arg in _COMMANDS[command].arguments:
        name = arg[0] if isinstance(arg, tuple) else "--" + arg
        value = recorded.pop(name.lstrip("-").replace("-", "_"), None)
        value = ",".join(map(repr, value)) if isinstance(value, list) else value
        if value is not None and name[0] == "-":
            flags.append(f"{name}={value}")
        elif value is not None:
            positionals.append(f"{value}")
    if recorded:
        raise InvalidParameterError(f"manifest parameters unknown to {command}: "
                                    + ", ".join(sorted(recorded)))
    # After "--", no recorded positional is read as an option.
    return main([command, *flags, f"--out={out}", *(["--", *positionals] if positionals else [])])


# ---------------------------------------------------------------------------
# the command table and its parser

_FLAGS = {
    "trials": dict(type=int, help="Monte-Carlo trial count"),
    "seed": dict(type=int, default=0, help="base seed (default 0)"),
    "out": dict(help="output path stem or .csv/.json path"),
    "users": dict(type=int, help="number of users"),
    "nr": dict(type=int, help="receive antennas"),
    "nt": dict(type=int, help="transmit antennas per user"),
    "sum-cap": dict(type=float, help="conditioning sum rate in bits"),
    "rate": dict(type=float, help="target rate in bits"),
    "snr-db-list": dict(help="comma-separated SNR grid in dB"),
    "precoder": dict(default="none", choices=sorted(_PRECODER_NAMES),
                     help="space-time precoder"),
    "mode": dict(default="if", choices=["if", "if-sic"], help="receiver variant"),
    "rate-convention": dict(choices=["total", "per-user"],
                            help="rate axis and outage-target convention"),
    "mux": dict(type=float, help="multiplexing gain"),
    "cardinality": dict(type=int, help="subset size for the per-cardinality law"),
}


class _Command(NamedTuple):
    """One subcommand.  ``arguments``: its positional and flags in parser
    order, each a _FLAGS name or a (name, add_argument keywords) pair.
    ``run_of(params)``: the name and the _Run of the run a command line
    selects.  ``defaults``: the values of its unset flags.  ``stem``: the
    default output of a command that writes a CSV."""
    help: str
    arguments: tuple
    run_of: Callable
    description: str = None
    defaults: dict = {}
    stem: str = None
    run: Callable = _run_rows


_RUN_DEFAULTS = {"users": 2, "trials": 10000, "rate_convention": "total"}

_COMMANDS = {
    "fig": _Command(
        "emit the data behind a standard figure",
        (("figure", dict(type=int, choices=sorted(_FIGURES), help="figure id")),
         "trials", "seed", "out", "users", "nr", "nt", "sum-cap", "rate", "snr-db-list",
         "rate-convention"),
        lambda p: (f"fig {p['figure']}", _FIGURES[p["figure"]]),
        description="Write one figure's curves as CSV plus a JSON manifest.",
        defaults={**_RUN_DEFAULTS, "nt": 1, "nr": 1}, stem="fig{figure}"),
    "bound": _Command(
        "evaluate one analytic quantity",
        (("which", dict(choices=list(_BOUNDS), help="which quantity")),
         "users", "nr", "nt", "rate", "sum-cap", "mux", "out"),
        lambda p: (f"bound {p['which']}", _BOUNDS[p["which"]]),
        description="Print a single bound value; with --out, also record it in a JSON "
                    "manifest.",
        run=_run_bound),
    "simulate": _Command(
        "Monte-Carlo conditional CDFs and outage sweeps",
        ("trials", "seed", "out", "users", "nr", "nt", "sum-cap", "rate", "snr-db-list",
         "rate-convention", "cardinality"),
        lambda p: _SIMULATE["sweep" if p["snr_db_list"] is not None
                            else "bracket" if p["cardinality"] is None else "cardinality"],
        defaults=_RUN_DEFAULTS, stem="simulate"),
    "if-sim": _Command(
        "conditioned integer-forcing rate CDF",
        ("trials", "seed", "out", "users", "sum-cap", "precoder", "mode", "rate-convention"),
        lambda p: _IF_SIM, defaults=_RUN_DEFAULTS, stem="if-sim"),
    "validate": _Command(
        "run a self-check suite",
        (("suite", dict(choices=list(_VALIDATE), help="which suite")), "trials", "seed"),
        lambda p: (f"validate {p['suite']}", _VALIDATE[p["suite"]]),
        run=_run_validate),
    "rerun": _Command(
        "replay a run from its manifest",
        (("--manifest", dict(required=True, help="path to a JSON manifest")),
         ("--out", dict(help="override the output path recorded in the manifest"))),
        lambda p: ("rerun", _Run(None, set())),
        run=_run_rerun),
}


def _resolve(command, params):
    """The run a command line selects, with the defaults of its unset flags
    filled in.  A flag the run does not read must be unset or hold the run's
    default, or the manifest would record a value that changed nothing; a
    flag it requires must be given.  The manifest records the command's
    defaults and the run's defaults of the flags it reads."""
    name, run = command.run_of(params)
    defaults = {**command.defaults, **run.defaults}
    for key, value in params.items():   # in parser order
        flag = key.replace("_", "-")
        if (flag in _FLAGS and key not in run.reads
                and value not in (None, defaults.get(key, _FLAGS[flag].get("default")))):
            raise InvalidParameterError(f"--{flag} does not apply to {name}")
    for key in run.requires:
        if params[key] is None:
            raise InvalidParameterError(f"--{key.replace('_', '-')} is required for {name}")
    params.update({key: value for key, value in defaults.items() if params[key] is None
                   and (key in command.defaults or key in run.reads)})
    return run


@cache
def build_parser():
    """The parser of _COMMANDS, built on first use; every later call returns
    the same parser, which callers must not change."""
    parser = _Parser(prog="fadingmac",
                     description="Bounds, simulations and integer-forcing rates "
                                 "for the Rayleigh-fading multiple access channel.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.description)
        for arg in command.arguments:
            flag, spec = arg if isinstance(arg, tuple) else ("--" + arg, _FLAGS[arg])
            p.add_argument(flag, **spec)
    return parser


def main(argv=None):
    # The parameter set a command runs with and its manifest records.
    params = vars(build_parser().parse_args(argv))
    name, out = params.pop("command"), params.pop("out", None)
    command = _COMMANDS[name]
    try:
        if params.get("snr_db_list") is not None:
            params["snr_db_list"] = _parse_snr_list(params["snr_db_list"])
        return command.run(name, _resolve(command, params), params, out)
    except (InvalidParameterError, OSError) as exc:
        print(f"fadingmac: error: {exc}", file=sys.stderr)
        return 1
    except NumericalDomainError as exc:
        print(f"fadingmac: numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
