"""Seeded workloads of the fadingmac benchmark.

Each workload is a closed loop from one process and one thread: run.py
issues the next call when the previous one returns.  A workload hands out
its calls one round at a time.  Every call gets its own seed, a fixed
function of the workload seed and the call's place in the run, so the
program only ever receives generated inputs and one seed always gives the
same calls.

Each call's output is checked as it returns, outside the timed region, and
pooled for statistical checks against the package's own closed forms when
the run ends.  The sigma multiples are those of tests/test_acceptance.py.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from fadingmac.bounds import (
    ScenarioDims,
    atom_probability,
    mimo_p_out_k,
    mimo_union_bound,
    p_out_k,
    scalar_bounds,
    two_user_cdf,
)
from fadingmac.cli import main as cli_main
from fadingmac.dmt import symmetric_mac_dmt
from fadingmac.integer_forcing import brute_force_search, conditioned_rate_samples, lll_search
from fadingmac.montecarlo import (
    SimConfig,
    averaged_bound_vs_snr,
    binomial_stderr,
    conditional_cdf_cardinality,
    conditional_cdf_mimo_frobenius,
    conditional_cdf_scalar,
    outage_vs_snr,
)

SNR_GRID_DB = np.arange(-10.0, 20.0 + 1e-9, 2.0)
TARGET_BITS = 3.0

# Leading element of a seed path, so the streams of calls, probes, Grams,
# checks and the traced run never collide.
ROUND, PROBE, GRAM, CHECK, TRACE = range(5)


def derive_seed(seed, *path):
    """Seed of one call: a fixed function of the workload seed and a path of ints."""
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1)[0])


@dataclass
class Call:
    """One timed invocation of the program."""

    case: str       # timing label, e.g. "outage-4u1x2"
    trials: int     # Monte-Carlo trials the call runs (0 for analytic CLI calls)
    run: object     # zero-argument callable: the timed work
    check: object   # callable(output) -> problem text or None; pools the output
    params: dict = field(default_factory=dict)


@dataclass
class Check:
    """Verdict of one pooled oracle check."""

    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# oracle checks, shared by the workloads and their self-tests

def sigma(p_hat, ref, trials):
    """Binomial standard error at the larger of the estimate's and the
    reference's own value, so an empty count still has a scale."""
    return max(binomial_stderr(p_hat, trials), binomial_stderr(ref, trials))


def worst_sigmas(probs, refs, trials):
    """Largest |estimate - reference| in standard errors over a grid."""
    worst = 0.0
    for p, ref in zip(probs, refs):
        dev = abs(float(p) - float(ref))
        if dev > 0.0:
            s = sigma(p, ref, trials)
            worst = max(worst, dev / s if s > 0.0 else math.inf)
    return worst


def bracket_violations(probs, lowers, uppers, trials, k_sigma=3.0):
    """Grid points where an estimate leaves [lower, upper] by more than k sigma."""
    bad = 0
    for p, lo, hi in zip(probs, lowers, uppers):
        if p < lo - k_sigma * sigma(p, lo, trials) - 1e-12:
            bad += 1
        elif p > hi + k_sigma * sigma(p, hi, trials) + 1e-12:
            bad += 1
    return bad


def cdf_problem(curve, cap=None):
    """Per-call CDF check: non-decreasing, inside [0, 1] and, when ``cap`` is
    given, every sample at most the conditioning capacity (the mass below C
    plus the atom at C is then exactly one)."""
    p = np.asarray(curve.probs)
    if np.any(p < 0.0) or np.any(p > 1.0):
        return "CDF leaves [0, 1]"
    if np.any(np.diff(p) < 0.0):
        return "CDF decreases"
    if cap is not None and abs(p[-1] + (curve.atom_mass or 0.0) - 1.0) > 1e-9:
        return f"samples exceed C={cap:g}"
    return None


def if_rate_problem(samples, cap):
    """Per-call IF check: every total rate n * per-user rate is in [0, C]."""
    s = np.asarray(samples)
    if not np.all(np.isfinite(s)) or np.any(s < 0.0):
        return "IF rate negative or not finite"
    if np.any(s > cap + 1e-9):
        return f"IF rate {float(s.max()):.6g} above C={cap:g}"
    return None


def replay_problem(first_csv, second_csv):
    """A replayed CSV must equal the original byte for byte."""
    with open(first_csv, "rb") as a, open(second_csv, "rb") as b:
        if a.read() != b.read():
            return f"rerun CSV {os.path.basename(second_csv)} differs"
    return None


def lll_vs_exhaustive(grams, radius=4):
    """Counts (matching, beaten) of lll_search against brute_force_search."""
    agree = beaten = 0
    for k in grams:
        r_lll = min_stream_rate(k, lll_search(k))
        r_opt = min_stream_rate(k, brute_force_search(k, radius))
        if r_lll > r_opt + 1e-9:
            beaten += 1
        elif abs(r_lll - r_opt) <= 1e-9:
            agree += 1
    return agree, beaten


def min_stream_rate(k, a):
    forms = np.einsum("mi,ij,mj->m", a.conj(), k, a).real
    return max(0.0, -math.log2(float(forms.max())))


def criterion9_grams(seed, count2, count4):
    """Noise Grams (I + h^H h)^-1 of n scalar users at one receive antenna,
    the construction of acceptance criterion 9, drawn from derived seeds."""
    grams = []
    for n, count in ((2, count2), (4, count4)):
        for i in range(count):
            rng = np.random.default_rng(derive_seed(seed, GRAM, n, i))
            h = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2.0)
            grams.append(np.linalg.inv(np.eye(n) + np.outer(h.conj(), h)))
    return grams


class _CdfPool:
    """Counts of several CDF calls on one grid, summed."""

    def __init__(self):
        self.counts = None
        self.atom = 0
        self.trials = 0
        self.rates = None

    def add(self, curve):
        self.add_probs(curve.probs, curve.trials, curve.atom_mass or 0.0)
        self.rates = np.asarray(curve.rates)

    def add_probs(self, probs, trials, atom_mass=0.0):
        counts = np.rint(np.asarray(probs) * trials)
        self.counts = counts if self.counts is None else self.counts + counts
        self.atom += int(round(atom_mass * trials))
        self.trials += trials

    @property
    def probs(self):
        return self.counts / self.trials


class _MeanPool:
    """Running mean and variance of per-SNR averages from several calls."""

    def __init__(self):
        self.total = self.total_sq = None
        self.trials = 0

    def add(self, estimates):
        t = estimates[0].trials
        means = np.array([e.p_hat for e in estimates])
        sems = np.array([e.stderr for e in estimates])
        sums, sums_sq = means * t, (sems ** 2 * t + means ** 2) * t
        if self.total is None:
            self.total, self.total_sq = sums, sums_sq
        else:
            self.total, self.total_sq = self.total + sums, self.total_sq + sums_sq
        self.trials += t

    @property
    def means(self):
        return self.total / self.trials

    @property
    def stderr(self):
        var = np.maximum(self.total_sq / self.trials - self.means ** 2, 0.0)
        return np.sqrt(var / self.trials)


# ---------------------------------------------------------------------------
# workloads

class CondCdf:
    """Conditioned CDF engines: many cheap trials, per-trial overhead dominates."""

    name = "cond-cdf"
    TRIALS = 2000
    FROB_DIMS = ScenarioDims(2, 2, 3)

    def __init__(self, seed, out_dir=None):
        self.seed = seed
        self.pools = {key: _CdfPool() for key in ("n2", "n4", "k1", "k2", "k3", "frob")}

    def _call(self, case, pool, engine, seed, cap, params):
        cfg = SimConfig(trials=self.TRIALS, seed=seed)

        def check(curve):
            problem = cdf_problem(curve, cap)
            if problem is None:
                self.pools[pool].add(curve)
            return problem

        return Call(case, cfg.trials, lambda: engine(cfg), check,
                    dict(params, seed=seed, trials=cfg.trials))

    def round(self, r):
        s = [derive_seed(self.seed, ROUND, r, slot) for slot in range(4)]
        k = r % 3 + 1
        dims = self.FROB_DIMS
        return [
            self._call("cdf_scalar-n2c2", "n2",
                       lambda cfg: conditional_cdf_scalar(2, 2.0, cfg), s[0], 2.0,
                       dict(kind="cdf_scalar", n_users=2, cap=2.0)),
            self._call("cdf_scalar-n4c8", "n4",
                       lambda cfg: conditional_cdf_scalar(4, 8.0, cfg), s[1], 8.0,
                       dict(kind="cdf_scalar", n_users=4, cap=8.0)),
            self._call("cdf_cardinality-n4c8", f"k{k}",
                       lambda cfg: conditional_cdf_cardinality(k, 4, 8.0, cfg), s[2], None,
                       dict(kind="cdf_cardinality", k=k, n_users=4, cap=8.0)),
            self._call("cdf_frobenius-2u2x3c8", "frob",
                       lambda cfg: conditional_cdf_mimo_frobenius(dims, 8.0, cfg), s[3], 8.0,
                       dict(kind="cdf_frobenius", dims=dims, cap=8.0)),
        ]

    def probes(self):
        return []

    def pooled_checks(self):
        out = []
        p = self.pools["n2"]
        if p.trials:
            worst = worst_sigmas(p.probs, [two_user_cdf(float(r), 2.0) for r in p.rates],
                                 p.trials)
            atom = abs(p.atom / p.trials - 1.0 / 3.0) / sigma(p.atom / p.trials, 1.0 / 3.0,
                                                               p.trials)
            out.append(Check("N=2 CDF vs two_user_cdf", worst < 4.0 and atom < 3.0,
                             f"worst {worst:.2f} sigma (<4), atom {atom:.2f} sigma (<3), "
                             f"{p.trials} trials"))
        p = self.pools["n4"]
        if p.trials:
            pairs = [scalar_bounds(4, float(r), 8.0) for r in p.rates]
            bad = bracket_violations(p.probs, [b.lower for b in pairs],
                                     [b.upper for b in pairs], p.trials)
            out.append(Check("N=4 CDF inside scalar_bounds", bad == 0,
                             f"{bad} of {len(pairs)} points outside by >3 sigma, "
                             f"{p.trials} trials"))
        for k in (1, 2, 3):
            p = self.pools[f"k{k}"]
            if p.trials:
                worst = worst_sigmas(p.probs, [p_out_k(k, 4, float(r), 8.0) for r in p.rates],
                                     p.trials)
                out.append(Check(f"cardinality k={k} vs p_out_k", worst < 4.0,
                                 f"worst {worst:.2f} sigma (<4), {p.trials} trials"))
        p = self.pools["frob"]
        if p.trials:
            dims = self.FROB_DIMS
            lowers = [max(mimo_p_out_k(k, dims, float(r), 8.0)
                          for k in range(1, dims.n_users + 1)) for r in p.rates]
            uppers = [mimo_union_bound(dims, float(r), 8.0) for r in p.rates]
            bad = bracket_violations(p.probs, lowers, uppers, p.trials)
            out.append(Check("Frobenius CDF inside mimo_p_out_k/mimo_union_bound", bad == 0,
                             f"{bad} of {len(lowers)} points outside by >3 sigma, "
                             f"{p.trials} trials"))
        return out


class SnrSweep:
    """Unconditioned outage and averaged bounds over the 16-point SNR grid."""

    name = "snr-sweep"
    TRIALS = 100
    DIMS = {"2u2x3": ScenarioDims(2, 2, 3), "4u1x2": ScenarioDims(4, 1, 2),
            "2u1x6": ScenarioDims(2, 1, 6)}
    CHECK_TRIALS = 500

    def __init__(self, seed, out_dir=None):
        self.seed = seed
        self.outage = {label: _CdfPool() for label in self.DIMS}
        self.union = {label: _MeanPool() for label in self.DIMS}

    def round(self, r):
        calls = []
        for slot, (label, dims) in enumerate(self.DIMS.items()):
            seed = derive_seed(self.seed, ROUND, r, slot)
            cfg = SimConfig(trials=self.TRIALS, seed=seed, snr_grid_db=SNR_GRID_DB)
            params = dict(dims=dims, seed=seed, trials=cfg.trials)
            calls.append(Call(f"outage-{label}", cfg.trials,
                              lambda d=dims, c=cfg: outage_vs_snr(d, TARGET_BITS, c),
                              lambda est, lb=label: self._check_outage(lb, est),
                              dict(params, kind="outage")))
            calls.append(Call(f"union_avg-{label}", cfg.trials,
                              lambda d=dims, c=cfg: averaged_bound_vs_snr(
                                  d, TARGET_BITS, "union", c),
                              lambda est, lb=label: self._check_bound(self.union[lb], est),
                              dict(params, kind="union_avg")))
            if label == "2u1x6":
                calls.append(Call(f"simo_avg-{label}", cfg.trials,
                                  lambda d=dims, c=cfg: averaged_bound_vs_snr(
                                      d, TARGET_BITS, "simo", c),
                                  lambda est: self._check_bound(None, est),
                                  dict(params, kind="simo_avg")))
        return calls

    def _check_outage(self, label, estimates):
        p = np.array([e.p_hat for e in estimates])
        if np.any(p < 0.0) or np.any(p > 1.0):
            return "outage leaves [0, 1]"
        if np.any(np.diff(p) > 0.0):
            return "outage increases with SNR"
        self.outage[label].add_probs(p, estimates[0].trials)
        return None

    @staticmethod
    def _check_bound(pool, estimates):
        p = np.array([e.p_hat for e in estimates])
        if np.any(p < 0.0) or np.any(p > 1.0 + 1e-12):
            return "averaged bound leaves [0, 1]"
        if pool is not None:
            pool.add(estimates)
        return None

    def probes(self):
        return []

    def pooled_checks(self):
        out = []
        for label in self.DIMS:
            emp, union = self.outage[label], self.union[label]
            if not emp.trials or not union.trials:
                continue
            probs = emp.probs
            se = np.sqrt(np.maximum(probs * (1.0 - probs), 0.0) / emp.trials)
            slack = union.means + 3.0 * np.sqrt(se ** 2 + union.stderr ** 2) - probs
            bad = int(np.sum(slack < 0.0))
            out.append(Check(f"outage {label} below averaged union bound", bad == 0,
                             f"{bad} of {len(probs)} SNR points above union + 3 sigma, "
                             f"{emp.trials} trials"))
        dims = self.DIMS["2u1x6"]
        cfg = SimConfig(trials=self.CHECK_TRIALS, seed=derive_seed(self.seed, CHECK, 0),
                        snr_grid_db=np.array([-5.0, 20.0]))
        union = averaged_bound_vs_snr(dims, TARGET_BITS, "union", cfg)
        simo = averaged_bound_vs_snr(dims, TARGET_BITS, "simo", cfg)
        ok = simo[0].p_hat < union[0].p_hat and simo[1].p_hat > union[1].p_hat
        out.append(Check("simo/union ordering reverses on 2u1x6", ok,
                         f"-5 dB simo {simo[0].p_hat:.4f} vs union {union[0].p_hat:.4f}; "
                         f"20 dB simo {simo[1].p_hat:.3e} vs union {union[1].p_hat:.3e}"))
        return out


class IfReceiver:
    """Integer-forcing rates: Gram inverses and LLL dominate each trial."""

    name = "if-receiver"
    TRIALS = 15
    CAP = 10.0
    HARD_CAP = 40.0
    PROBE_CAP = 60.0
    PRECODERS = ("none", "badr_belfiore", "haar")
    GRAMS = (100, 20)   # criterion-9 Grams of 2 and of 4 users

    def __init__(self, seed, out_dir=None):
        self.seed = seed
        self._plain = {}

    def _call(self, precoder, mode, cap, seed, case):
        cfg = SimConfig(trials=self.TRIALS, seed=seed)
        params = dict(kind="if", precoder=precoder, mode=mode, cap=cap, seed=seed,
                      trials=cfg.trials)

        def check(samples):
            problem = if_rate_problem(samples, cap)
            if problem is None and mode == "if":
                self._plain[(precoder, cap)] = samples
            elif problem is None:
                plain = self._plain.pop((precoder, cap), None)
                if plain is not None and np.any(samples < plain - 1e-9):
                    problem = "if-sic below if on the same seed"
            return problem

        return Call(case, cfg.trials,
                    lambda: conditioned_rate_samples(2, cap, precoder, mode, cfg),
                    check, params)

    def round(self, r):
        calls = []
        for slot, pre in enumerate(self.PRECODERS):
            seed = derive_seed(self.seed, ROUND, r, slot)
            for mode in ("if", "if-sic"):
                calls.append(self._call(pre, mode, self.CAP, seed, f"{pre}-{mode}"))
        seed = derive_seed(self.seed, ROUND, r, len(self.PRECODERS))
        calls.append(self._call("badr_belfiore", "if-sic", self.HARD_CAP, seed,
                                "badr_belfiore-if-sic-c40"))
        return calls

    def probes(self):
        """C=60 domain probes, one per precoder; excluded from every timing."""
        return [self._call(pre, "if", self.PROBE_CAP, derive_seed(self.seed, PROBE, i),
                           f"{pre}-if-c60")
                for i, pre in enumerate(self.PRECODERS)]

    def pooled_checks(self):
        grams = criterion9_grams(self.seed, *self.GRAMS)
        agree, beaten = lll_vs_exhaustive(grams)
        share = agree / len(grams)
        return [Check("lll_search vs brute_force_search", beaten == 0 and share >= 0.95,
                      f"matches on {agree}/{len(grams)} ({100 * share:.1f}%, >=95%), "
                      f"beaten {beaten} times (=0)")]


class CliReplay:
    """In-process CLI: figures with replay, and single bound values."""

    name = "cli-replay"
    FIG4_TRIALS = 200
    FIG6_TRIALS = 50

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out_dir = out_dir
        self.replays = 0

    def _path(self, stem):
        return os.path.join(self.out_dir, stem)

    def _invoke(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(argv)
        return code, sink.getvalue()

    def _fig(self, case, argv, trials, stem, csv_problem=None):
        def check(result):
            code, text = result
            if code != 0:
                return f"exit {code}: {text.strip()}"
            return csv_problem(self._path(stem) + ".csv") if csv_problem else None

        return Call(case, trials, lambda: self._invoke(argv + ["--out", self._path(stem)]),
                    check, dict(kind="cli", command=case, argv=argv, stem=stem))

    def _rerun(self, fig_case, trials, stem):
        argv = ["rerun", "--manifest", self._path(stem) + ".json",
                "--out", self._path(stem + "-rerun")]

        def check(result):
            code, text = result
            if code != 0:
                return f"exit {code}: {text.strip()}"
            self.replays += 1
            return replay_problem(self._path(stem) + ".csv",
                                  self._path(stem + "-rerun") + ".csv")

        return Call("rerun", trials, lambda: self._invoke(argv), check,
                    dict(kind="cli", command="rerun", of=fig_case, argv=argv,
                         stem=stem + "-rerun"))

    def _bound(self, which, argv, expected, stem):
        def check(result):
            code, text = result
            if code != 0:
                return f"exit {code}: {text.strip()}"
            with open(self._path(stem) + ".json") as fh:
                value = json.load(fh)["result"]["value"]
            if value != expected:
                return f"bound {which} printed {value!r}, library gives {expected!r}"
            return None

        return Call("bound", 0,
                    lambda: self._invoke(["bound", which] + argv + ["--out", self._path(stem)]),
                    check, dict(kind="cli", command="bound", which=which, argv=argv,
                                stem=stem))

    def round(self, r):
        rng = np.random.default_rng(derive_seed(self.seed, ROUND, r, 0))
        users = int(rng.integers(2, 5))
        nt = int(rng.integers(1, 3))
        nr = int(rng.integers(1, 5))
        cap = float(rng.uniform(1.0, 10.0))
        rate = float(rng.uniform(0.0, cap))
        mux = float(rng.uniform(0.0, min(users * nt, nr) / users))
        seed = derive_seed(self.seed, ROUND, r, 1)
        fig6_trials = 3 * self.FIG6_TRIALS   # outage, union and simo curves
        return [
            self._fig("fig1", ["fig", "1", "--users", str(users), "--nt", str(nt),
                               "--nr", str(nr)], 0, "fig1"),
            self._rerun("fig1", 0, "fig1"),
            self._fig("fig2", ["fig", "2", "--sum-cap", repr(cap)], 0, "fig2"),
            self._rerun("fig2", 0, "fig2"),
            self._fig("fig4", ["fig", "4", "--trials", str(self.FIG4_TRIALS),
                               "--seed", str(seed)], self.FIG4_TRIALS, "fig4",
                      lambda path: _csv_curve_problem(path, "empirical", +1)),
            self._rerun("fig4", self.FIG4_TRIALS, "fig4"),
            self._fig("fig6", ["fig", "6", "--trials", str(self.FIG6_TRIALS),
                               "--seed", str(seed)], fig6_trials, "fig6",
                      lambda path: _csv_curve_problem(path, "empirical", -1)),
            self._rerun("fig6", fig6_trials, "fig6"),
            self._bound("two-user", ["--rate", repr(rate), "--sum-cap", repr(cap)],
                        two_user_cdf(rate, cap), "bound-two-user"),
            self._bound("atom", ["--sum-cap", repr(cap)], atom_probability(cap),
                        "bound-atom"),
            self._bound("dmt", ["--users", str(users), "--nt", str(nt), "--nr", str(nr),
                                "--mux", repr(mux)],
                        symmetric_mac_dmt(users, nt, nr, mux), "bound-dmt"),
        ]

    def probes(self):
        return []

    def pooled_checks(self):
        return []


def _csv_curve_problem(path, curve, direction):
    """A CSV probability curve must stay in [0, 1] and move monotonically:
    up along the rate axis (+1) or down along the SNR axis (-1)."""
    with open(path) as fh:
        ys = [float(line.split(",")[2]) for line in fh.readlines()[1:]
              if line.split(",")[0] == curve]
    if not ys:
        return f"{os.path.basename(path)} has no {curve} curve"
    if min(ys) < 0.0 or max(ys) > 1.0:
        return f"{curve} curve leaves [0, 1]"
    if any(direction * (b - a) < 0.0 for a, b in zip(ys, ys[1:])):
        return f"{curve} curve is not monotone"
    return None


# Workload classes by name; each is built as cls(seed, out_dir), and only the
# CLI workload writes, under out_dir.
WORKLOADS = {w.name: w for w in (CondCdf, SnrSweep, IfReceiver, CliReplay)}
