"""fadingmac benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cond-cdf --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it measures one workload end to end (set-up time, trials
per second, per-call latency, peak memory) with tracing off.  With
``--trace 1`` it runs the traced per-layer decomposition instead (see
tracing.py).  Either way it checks the program's outputs, prints one line per
metric with its unit and sample count, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

The benchmark imports the package from ``src/`` of the current directory
and refuses to run without it.  It pins BLAS and OpenMP pools to one thread,
so one workload process uses one core.  Outputs go to ``.bench_out/``.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

WORKLOAD_NAMES = ("cond-cdf", "snr-sweep", "if-receiver", "cli-replay")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 9
# What host_probe() reads on an idle core of the host the benchmark was
# built on (2-core Xeon under KVM, python 3.11, numpy 2.4); see normalized().
HOST_PROBE_S = 150e-6
HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    p = argparse.ArgumentParser(description="fadingmac benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def source_lines(root):
    """Line counts of src/fadingmac/*.py, as ``wc -l`` gives them."""
    pkg = os.path.join(root, "src", "fadingmac")
    counts = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                counts[name[:-3]] = fh.read().count(b"\n")
    return counts


def environment(root):
    import numpy
    import fadingmac
    sha = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    lines = source_lines(root)
    return {
        "git_sha": sha,
        "fadingmac_version": fadingmac.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "source_lines": dict(lines, total=sum(lines.values())),
    }


def host_probe():
    """Seconds a fixed piece of numpy and interpreter work takes, the
    fastest of three repetitions so that caches left cold by the call before
    do not count.  The work belongs to the benchmark, not the program, and is
    the same kind of small-array numpy and Python work as the workloads."""
    import numpy
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        rng = numpy.random.default_rng(7)
        acc = 0.0
        for _ in range(25):
            z = rng.standard_normal((2, 8))
            acc += float(numpy.linalg.norm(z[0] + 1j * z[1]))
        best = min(best, time.perf_counter() - start)
    return best


def normalized(seconds, probe_before, probe_after):
    """Seconds scaled to a host on which host_probe() reads HOST_PROBE_S.

    Hosts shared with other tenants switch between a fast state and one
    about twice as slow, many times a minute.  Both the probe and the call
    slow down alike, so their ratio holds steady where raw seconds do not.
    """
    return seconds * HOST_PROBE_S / ((probe_before + probe_after) / 2.0)


def setup_once(workload, seed, out_dir):
    """Seconds a fresh process takes to import fadingmac and build the
    workload's inputs up to its first call, as the process measures it,
    and its host probe read right after."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed), out_dir]
    out = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
    taken, probe = out.stdout.split()
    return float(taken), float(probe)


def run_call(call, timed, report):
    """Run one call; time it when ``timed``; check its output afterwards.
    Returns the duration, or None when the call failed."""
    start = time.perf_counter()
    try:
        out = call.run()
    except Exception as exc:  # a failed operation is counted, the run goes on
        report.fail(call.case, f"{type(exc).__name__}: {exc}")
        return None
    elapsed = time.perf_counter() - start
    problem = call.check(out)
    if problem is not None:
        report.fail(call.case, problem)
        return None
    report.ok()
    return elapsed if timed else None


class Report:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures = []

    def ok(self):
        self.attempted += 1

    def fail(self, what, why):
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {why}")


def closed_loop(wl, seconds, report, setup=None):
    """Warm-up round untimed, then whole rounds until ``seconds`` have passed.

    A host probe runs between calls and is recorded with each timed call.
    ``setup``, when given, runs SETUP_REPEATS times spread over the run,
    between rounds.  Returns one record (slot, trials, seconds, probe before,
    probe after) per call that succeeded, and (set-up seconds, probe before,
    the set-up process's own probe) per set-up.
    """
    for call in wl.round(0):
        run_call(call, False, report)
    calls, setups = [], []
    start = time.perf_counter()
    before = host_probe()
    r = 1
    while True:
        elapsed = time.perf_counter() - start
        if setup is not None and len(setups) < SETUP_REPEATS \
                and elapsed >= seconds * len(setups) / SETUP_REPEATS:
            taken, probe = setup()
            setups.append((taken, before, probe))
            host_probe()   # the first probe after a fresh process reads cold
            before = host_probe()
        for slot, call in enumerate(wl.round(r)):
            dt = run_call(call, True, report)
            after = host_probe()
            if dt is not None:
                calls.append((slot, call.trials, dt, before, after))
            before = after
        r += 1
        if time.perf_counter() - start >= seconds:
            return calls, setups


def summarize(calls, setups):
    """End-to-end figures in normalized seconds: the set-up median, trials
    per second, and the 50th and 90th percentiles of call seconds.

    Trials per second is the trials of one round over the sum of the median
    seconds of each slot of a round (one case, one trial count), so a few
    calls that straddle a change of host speed do not move it.
    """
    import numpy
    slots = {}
    for slot, trials, seconds, before, after in calls:
        slots.setdefault(slot, (trials, []))[1].append(normalized(seconds, before, after))
    every = [s for _, secs in slots.values() for s in secs]
    per_round = sum(statistics.median(secs) for _, secs in slots.values())
    p50, p90 = numpy.percentile(every, [50, 90])
    setup = statistics.median(normalized(*s) for s in setups)
    return setup, sum(t for t, _ in slots.values()) / per_round, float(p50), float(p90)


def run_probes(wl):
    """Domain probes: attempted and checked, never timed.  Returns their own
    Report; they stay out of the run's count."""
    report = Report()
    for call in wl.probes():
        run_call(call, False, report)
    return report


def end_to_end(args, root, out_dir):
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    report = Report()
    calls, setups = closed_loop(
        wl, args.seconds, report, lambda: setup_once(args.workload, args.seed, out_dir))
    probes = run_probes(wl)
    checks = wl.pooled_checks()
    for c in checks:
        if c.ok:
            report.ok()
        else:
            report.fail(c.name, c.detail)
    setup_s, tps, p50, p90 = summarize(calls, setups)
    metrics = {
        "setup_s": (setup_s, "s", len(setups)),
        "trials_per_s": (tps, "1/s", len(calls)),
        "call_s_p50": (p50, "s", len(calls)),
        "call_s_p90": (p90, "s", len(calls)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    for c in checks:
        print(f"check {'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    for text in probes.failures:
        print(f"probe failed (not counted, not timed): {text}")
    print(f"probes {probes.attempted} attempted, {probes.failed} failed")
    print(f"failed_share {report.failed}/{report.attempted} = "
          f"{report.failed / report.attempted:.6g} (operations: calls and pooled checks)")
    return report, metrics, {"calls": calls, "setups": setups,
                             "checks": [c.__dict__ for c in checks],
                             "probes": {"attempted": probes.attempted,
                                        "failed": probes.failed,
                                        "failures": probes.failures}}


def traced(args, root, out_dir):
    import tracing
    report = Report()
    metrics, spans = tracing.run(args.workload, args.seed, args.seconds, root, out_dir, report)
    path = os.path.join(out_dir, f"trace-{args.workload}.jsonl")
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")
    print(f"wrote {len(spans)} spans to {os.path.relpath(path, root)}")
    return report, metrics, {}


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fadingmac", "__init__.py")):
        print("perfbench: src/fadingmac not found; run from the repository root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join([src, HERE])
    sys.path[:0] = [src, HERE]
    import fadingmac
    if not os.path.abspath(fadingmac.__file__).startswith(src + os.sep):
        print(f"perfbench: imported fadingmac from {fadingmac.__file__}, not {src}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)

    env = environment(root)
    print("env " + json.dumps(env, sort_keys=True))
    run = traced if args.trace else end_to_end
    report, metrics, extra = run(args, root, out_dir)
    for name, (value, unit, count) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={count})")
    for text in report.failures:
        print(f"failed: {text}")
    result = {"correct": report.failed == 0, "attempted": report.attempted,
              "failed": report.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _) in metrics.items()}}
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, env=env, seed=args.seed, seconds=args.seconds,
                       counts={n: c for n, (_, _, c) in metrics.items()}, **extra),
                  fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
