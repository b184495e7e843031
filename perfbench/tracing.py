"""Traced per-layer run of the fadingmac benchmark.

The spans are recorded from the benchmark's own files, around the calls it
makes into the package's public functions; nothing inside ``src/`` is
instrumented.  Each pass of the traced run does the following for every case
of all four workloads, with the same seeds on every pass:

* it times the engine call itself over a few trials, as the parent span;
* it replays each of those trials as the sequence of public calls the engine
  makes (stream set-up, sampler, capacity, bound, lattice search, rate), with
  one child span per call that carries the trial id.

Replayed children are attributed to the engine span that caused them, so a
span's self time is its duration minus the summed durations of its children,
clipped at zero.  For each CLI call, the ``wall_time_s`` of its manifest is a
child span in the layer the command drives, so the ``cli`` self time is the
argument, CSV and manifest plumbing around it.

README.md lists which end-to-end metric each layer metric should move, on
which workload, and where it should not.
"""

import json
import math
import os
import statistics
import time

import numpy as np

from fadingmac.bounds import (
    mimo_union_bound,
    p_out_k,
    scalar_bounds,
    two_user_simo_bound,
)
from fadingmac.capacity import MacChannel, symmetric_capacity
from fadingmac.dmt import symmetric_mac_dmt_curve
from fadingmac.errors import NumericalDomainError
from fadingmac.integer_forcing import (
    Precoder,
    brute_force_search,
    build_effective_channel,
    if_rate,
    lll_search,
)
from fadingmac.linalg import (
    RngStream,
    hermitian_inverse,
    sample_capacity_sphere,
    sample_complex_gaussian,
    sample_haar_unitary,
)
from fadingmac.montecarlo import SimConfig, averaged_bound_vs_snr, empirical_cdf

import workloads
from run import source_lines
from workloads import SNR_GRID_DB, TARGET_BITS, TRACE, derive_seed

MODULES = ("linalg", "capacity", "bounds", "dmt", "montecarlo", "integer_forcing", "cli")

# Trials per traced engine call: enough that the engine's per-call overhead
# is small beside its trials, few enough that a pass takes about a second.
TRACE_TRIALS = {"cond-cdf": 200, "snr-sweep": 20, "if-receiver": 4}
GRAMS = (16, 4)
SLOPE_TRIALS = 500

PER_CALL_US = {
    "linalg.rng_setup_us": "linalg.rng_setup",
    "linalg.sphere_us": "linalg.sphere",
    "linalg.gaussian_us": "linalg.gaussian",
    "linalg.haar_us": "linalg.haar",
    "linalg.hermitian_inverse_us": "linalg.hermitian_inverse",
    "capacity.symmetric_capacity_us": "capacity.symmetric_capacity",
    "bounds.mimo_union_bound_us": "bounds.mimo_union_bound",
    "bounds.two_user_simo_bound_us": "bounds.two_user_simo_bound",
    "bounds.scalar_bounds_us": "bounds.scalar_bounds",
    "bounds.p_out_k_us": "bounds.p_out_k",
    "dmt.curve_us": "dmt.curve",
    "montecarlo.empirical_cdf_us": "montecarlo.empirical_cdf",
    "integer_forcing.effective_channel_us": "integer_forcing.effective_channel",
    "integer_forcing.lll_search_us": "integer_forcing.lll_search",
    "integer_forcing.lll_search_us.c40": "integer_forcing.lll_search.c40",
    "integer_forcing.if_rate_us": "integer_forcing.if_rate",
    "integer_forcing.brute_force_us": "integer_forcing.brute_force_search",
}
CLI_COMMANDS = ("fig1", "fig2", "fig4", "fig6", "rerun", "bound")
# Layer whose work a CLI command's manifest wall_time_s measures.
CLI_HANDLER_LAYER = {"fig1": "dmt", "fig2": "bounds", "fig4": "montecarlo",
                     "fig6": "montecarlo", "two-user": "bounds", "atom": "bounds",
                     "dmt": "dmt"}


class Tracer:
    """Spans kept in memory as (name, start_ns, end_ns, parent, trial, pass)."""

    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []
        self.pass_no = 0

    def call(self, name, fn, *args, parent=None, trial=None):
        """Call fn(*args) inside a span; return its result."""
        if not self.enabled:
            return fn(*args)
        start = time.perf_counter_ns()
        out = fn(*args)
        self.spans.append((name, start, time.perf_counter_ns(), parent, trial, self.pass_no))
        return out

    def add(self, name, start, end, parent=None):
        """Record a span measured elsewhere; return its id."""
        self.spans.append((name, start, end, parent, None, self.pass_no))
        return len(self.spans) - 1

    @property
    def last(self):
        return len(self.spans) - 1 if self.enabled else None


def _generator(seed, t):
    return RngStream(seed, t).generator()


# ---------------------------------------------------------------------------
# replays: one trial of an engine as the public calls it makes

def _replay_cdf(tr, p, parent):
    frob = p["kind"] == "cdf_frobenius"
    n = p["dims"].n_users if frob else p["n_users"]
    block = p["dims"].n_rx * p["dims"].n_tx if frob else 1
    for t in range(p["trials"]):
        g = tr.call("linalg.rng_setup", _generator, p["seed"], t, parent=parent, trial=t)
        tr.call("linalg.sphere", sample_capacity_sphere, n * block, p["cap"], g,
                parent=parent, trial=t)
        # The subset rates that follow are array arithmetic inside the engine,
        # so they count as its glue.


def _draw_users(tr, p, g, parent, t):
    dims = p["dims"]
    return [tr.call("linalg.gaussian", sample_complex_gaussian, dims.n_rx, dims.n_tx, 1.0, g,
                    parent=parent, trial=t) for _ in range(dims.n_users)]


def _replay_outage(tr, p, parent):
    # The engine reuses one eigen-decomposition per subset across the SNR
    # grid; the public equivalent is one symmetric_capacity call at 10 dB.
    scale = math.sqrt(10.0)
    for t in range(p["trials"]):
        g = tr.call("linalg.rng_setup", _generator, p["seed"], t, parent=parent, trial=t)
        mats = _draw_users(tr, p, g, parent, t)
        tr.call("capacity.symmetric_capacity", symmetric_capacity,
                MacChannel([m * scale for m in mats]), parent=parent, trial=t)


def _replay_bound(tr, p, parent):
    dims = p["dims"]
    snrs = 10.0 ** (SNR_GRID_DB / 10.0)
    for t in range(p["trials"]):
        g = tr.call("linalg.rng_setup", _generator, p["seed"], t, parent=parent, trial=t)
        mats = _draw_users(tr, p, g, parent, t)
        if p["kind"] == "union_avg":
            frob = sum(float(np.sum(np.abs(m) ** 2)) for m in mats)
            conds = [math.log1p(s * frob) / math.log(2.0) for s in snrs]
            name, fn, args = "bounds.mimo_union_bound", mimo_union_bound, (dims,)
        else:
            stack = np.hstack(mats)
            lam = np.clip(np.linalg.eigvalsh(stack @ stack.conj().T), 0.0, None)
            conds = [float(np.sum(np.log1p(s * lam))) / math.log(2.0) for s in snrs]
            name, fn, args = "bounds.two_user_simo_bound", two_user_simo_bound, ()
        for cond in conds:
            if TARGET_BITS < cond:
                tr.call(name, fn, *args, TARGET_BITS, cond, parent=parent, trial=t)


def _replay_if(tr, p, parent, stats):
    fixed = {"none": Precoder.identity(2), "haar": None,
             "badr_belfiore": Precoder.badr_belfiore(2)}[p["precoder"]]
    lll_name = ("integer_forcing.lll_search" if p["cap"] <= workloads.IfReceiver.CAP
                else "integer_forcing.lll_search.c40")
    for t in range(p["trials"]):
        g = tr.call("linalg.rng_setup", _generator, p["seed"], t, parent=parent, trial=t)
        h = tr.call("linalg.sphere", sample_capacity_sphere, 2, p["cap"], g,
                    parent=parent, trial=t)
        pre = fixed
        if pre is None:
            pre = Precoder(kind="haar", matrices=tuple(
                tr.call("linalg.haar", sample_haar_unitary, 2, g, parent=parent, trial=t)
                for _ in range(2)))
        eff = tr.call("integer_forcing.effective_channel", build_effective_channel,
                      MacChannel.from_scalar(h), pre, parent=parent, trial=t)
        hm = eff.matrix
        k = tr.call("linalg.hermitian_inverse", hermitian_inverse,
                    np.eye(hm.shape[1]) + hm.conj().T @ hm, parent=parent, trial=t)
        a = tr.call(lll_name, lll_search, k, parent=parent, trial=t)
        res = tr.call("integer_forcing.if_rate", if_rate, eff, p["mode"], a,
                      parent=parent, trial=t)
        stats["zero_streams"] += int(np.sum(res.per_stream_rate_bits == 0.0))
        stats["streams"] += res.per_stream_rate_bits.size


def replay(tr, call, parent, stats):
    """The public calls of each trial of ``call``, as children of ``parent``."""
    kind = call.params["kind"]
    if kind.startswith("cdf_"):
        _replay_cdf(tr, call.params, parent)
    elif kind == "outage":
        _replay_outage(tr, call.params, parent)
    elif kind in ("union_avg", "simo_avg"):
        _replay_bound(tr, call.params, parent)
    elif kind == "if":
        _replay_if(tr, call.params, parent, stats)


# ---------------------------------------------------------------------------
# one traced pass over every case

class TracedRun:
    def __init__(self, seed, out_dir, report):
        self.seed = seed
        self.report = report
        self.stats = {"zero_streams": 0, "streams": 0, "reruns": 0, "reruns_identical": 0}
        self.counts = {}
        self.wls = {}
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(seed, os.path.join(out_dir, "trace-" + name))
            if name in TRACE_TRIALS:
                wl.TRIALS = TRACE_TRIALS[name]
            if name == "cli-replay":
                os.makedirs(wl.out_dir, exist_ok=True)
            self.wls[name] = wl
        self.calls = {name: wl.round(0) for name, wl in self.wls.items()}

    def _engine(self, tr, call):
        """Time the engine call as the parent span, check its output, and
        return the span's id."""
        layer = "integer_forcing" if call.params["kind"] == "if" else "montecarlo"
        try:
            out = tr.call(f"{layer}.{call.case}", call.run)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.report.fail(call.case, f"{type(exc).__name__}: {exc}")
            return None
        problem = call.check(out)
        if problem is None:
            self.report.ok()
        else:
            self.report.fail(call.case, problem)
        return tr.last

    def _cli(self, tr, call):
        start = time.perf_counter_ns()
        out = call.run()
        end = time.perf_counter_ns()
        problem = call.check(out)
        if problem is None:
            self.report.ok()
        else:
            self.report.fail(call.case, problem)
        if call.case == "rerun":
            self.stats["reruns"] += 1
            self.stats["reruns_identical"] += problem is None
        if not tr.enabled:
            return
        parent = tr.add(f"cli.main.{call.case}", start, end)
        with open(os.path.join(self.wls["cli-replay"].out_dir,
                               call.params["stem"] + ".json")) as fh:
            wall_ns = int(json.load(fh)["wall_time_s"] * 1e9)
        key = call.params.get("which") or call.params.get("of") or call.case
        tr.add(f"{CLI_HANDLER_LAYER[key]}.cli_handler", start, start + wall_ns, parent)

    def workload_pass(self, tr, name, with_engine=True):
        """Trace one workload's cases; return the trials replayed and their time."""
        trials, busy = 0, 0.0
        for call in self.calls[name]:
            if name == "cli-replay":
                start = time.perf_counter()
                self._cli(tr, call)
                busy += time.perf_counter() - start
                trials += call.trials
                continue
            parent = self._engine(tr, call) if with_engine else None
            start = time.perf_counter()
            replay(tr, call, parent, self.stats)
            busy += time.perf_counter() - start
            trials += call.params["trials"]
        return trials, busy

    def micro_pass(self, tr):
        """Library calls the workloads make outside the engines: pooled-check
        oracles, DMT curves, CDF binning and the exhaustive lattice search."""
        for r in np.linspace(0.0, 8.0, 10):
            tr.call("bounds.scalar_bounds", scalar_bounds, 4, float(r), 8.0)
            for k in (1, 2, 3):
                tr.call("bounds.p_out_k", p_out_k, k, 4, float(r), 8.0)
        for users, nt, nr in ((2, 1, 1), (2, 2, 3), (4, 1, 2), (3, 2, 4)):
            tr.call("dmt.curve", symmetric_mac_dmt_curve, users, nt, nr)
        rng = np.random.default_rng(derive_seed(self.seed, TRACE, 0))
        samples = rng.uniform(0.0, 2.0, 2000)
        grid = np.linspace(0.0, 2.0, 50)
        for _ in range(5):
            tr.call("montecarlo.empirical_cdf", empirical_cdf, samples, grid, 2000, 600)
        agree = 0
        for k in workloads.criterion9_grams(self.seed, *GRAMS):
            r_opt = workloads.min_stream_rate(
                k, tr.call("integer_forcing.brute_force_search", brute_force_search, k, 4))
            agree += abs(workloads.min_stream_rate(k, lll_search(k)) - r_opt) <= 1e-9
        self.counts["lll_optimal"] = agree / sum(GRAMS)

    def once(self):
        """Counts that need one evaluation only: domain probes, the atom share
        and the union-bound slope that acceptance criterion 4 gates."""
        errors = 0
        for call in workloads.IfReceiver(self.seed).probes():   # at full trial count
            try:
                call.run()
            except NumericalDomainError:
                errors += 1
        self.counts["domain_errors"] = errors
        atom = self.wls["cond-cdf"].pools["n2"]
        self.counts["atom_share"] = atom.atom / atom.trials
        dims = workloads.SnrSweep.DIMS["2u2x3"]
        cfg = SimConfig(trials=SLOPE_TRIALS, seed=derive_seed(self.seed, TRACE, 1),
                        snr_grid_db=SNR_GRID_DB)
        top = [e for e in averaged_bound_vs_snr(dims, TARGET_BITS, "union", cfg)
               if e.point >= SNR_GRID_DB[-1] - 10.0]
        xs = np.array([e.point / 10.0 for e in top])
        self.counts["union_slope"] = float(np.polyfit(xs, np.log10([e.p_hat for e in top]), 1)[0])


def _self_times(spans):
    child_ns = {}
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    per_layer = dict.fromkeys(MODULES, 0)
    for i, (name, start, end, _, _, _) in enumerate(spans):
        layer = name.split(".")[0]
        per_layer[layer] += max(0, end - start - child_ns.get(i, 0))
    return per_layer, child_ns


def metrics_from(spans, run, overheads, root):
    by_name = {}
    for name, start, end, _, _, pass_no in spans:
        by_name.setdefault(name, []).append((end - start, pass_no))
    out = {}

    def put(name, value, unit, count):
        out[name] = (value, unit, count)

    for metric, span in PER_CALL_US.items():
        durs = [d for d, _ in by_name.get(span, [])]
        put(metric, statistics.median(durs) / 1e3, "us", len(durs))

    self_ns, child_ns = _self_times(spans)
    glue = {}
    for name in ("cond-cdf", "snr-sweep", "if-receiver"):
        for call in run.calls[name]:
            layer = "integer_forcing" if name == "if-receiver" else "montecarlo"
            prefix = f"{layer}.trial_us."
            per_trial = [d / call.params["trials"] / 1e3
                         for d, _ in by_name.get(f"{layer}.{call.case}", [])]
            put(prefix + call.case, statistics.median(per_trial), "us", len(per_trial))
    for i, (name, start, end, _, _, pass_no) in enumerate(spans):
        if name.startswith("montecarlo.cdf_"):
            eng, kids = glue.get(pass_no, (0, 0))
            glue[pass_no] = (eng + end - start, kids + child_ns.get(i, 0))
    put("montecarlo.glue_share",
        statistics.median(1.0 - kids / eng for eng, kids in glue.values()), "share", len(glue))

    overhead = []
    for cmd in CLI_COMMANDS:
        durs = [d / 1e9 for d, _ in by_name.get(f"cli.main.{cmd}", [])]
        put(f"cli.command_s.{cmd}", statistics.median(durs), "s", len(durs))
    for i, (name, start, end, _, _, _) in enumerate(spans):
        if name.startswith("cli.main."):
            overhead.append((end - start - child_ns.get(i, 0)) / 1e9)
    put("cli.overhead_s", statistics.median(overhead), "s", len(overhead))
    put("cli.rerun_identical_share", run.stats["reruns_identical"] / run.stats["reruns"],
        "share", run.stats["reruns"])

    total = sum(self_ns.values())
    for m in MODULES:
        put(f"{m}.self_share", self_ns[m] / total, "share", len(spans))
    put("montecarlo.atom_share", run.counts["atom_share"], "share",
        TRACE_TRIALS["cond-cdf"])
    put("integer_forcing.lll_optimal_share", run.counts["lll_optimal"], "share", sum(GRAMS))
    put("integer_forcing.zero_rate_stream_share",
        run.stats["zero_streams"] / run.stats["streams"], "share", run.stats["streams"])
    put("integer_forcing.domain_errors", run.counts["domain_errors"], "count",
        len(workloads.IfReceiver.PRECODERS))
    put("bounds.union_slope_top10db", run.counts["union_slope"], "decades/decade",
        SLOPE_TRIALS)

    lines = source_lines(root)
    for m in MODULES:
        put(f"{m}.source_lines", lines.get(m, 0), "lines", 1)
    put("src.source_lines", sum(lines.values()), "lines", len(lines))
    put("trace.overhead_share", statistics.median(overheads), "share", len(overheads))
    return out


def run(workload, seed, seconds, root, out_dir, report):
    """Traced passes over every case until ``seconds`` have passed.

    Each pass also replays ``workload``'s cases once with tracing off, in
    alternating order, for ``trace.overhead_share``: one minus the traced
    over the untraced trials per second.  Returns the per-layer metrics and
    the spans as dicts, ready to be written out.
    """
    traced = TracedRun(seed, out_dir, report)
    tr, off = Tracer(), Tracer(enabled=False)
    overheads = []
    start = time.perf_counter()
    while True:
        first, second = ((tr, off), (off, tr))[tr.pass_no % 2]
        rates = {}
        for t in (first, second):
            trials, busy = traced.workload_pass(t, workload, with_engine=t.enabled)
            rates[t.enabled] = trials / busy
        for name in workloads.WORKLOADS:
            if name != workload:
                traced.workload_pass(tr, name)
        traced.micro_pass(tr)
        if tr.pass_no == 0:
            traced.once()
        overheads.append(1.0 - rates[True] / rates[False])
        tr.pass_no += 1
        if time.perf_counter() - start >= seconds:
            break
    metrics = metrics_from(tr.spans, traced, overheads, root)
    spans = [{"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p, "trial": t,
              "pass": k} for i, (n, s, e, p, t, k) in enumerate(tr.spans)]
    return metrics, spans
