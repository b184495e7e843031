"""Self-tests of the benchmark, at tiny sizes.

    python3 -m pytest -q perfbench

Each workload completes; each oracle check fails on a perturbed output; the
C=60 domain probes stay out of the timings and the run's operation count;
the metric names match BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fadingmac.bounds import two_user_cdf  # noqa: E402
from fadingmac.errors import NumericalDomainError  # noqa: E402
from fadingmac.montecarlo import binomial_stderr  # noqa: E402
from workloads import Call  # noqa: E402

TINY = {
    (workloads.CondCdf, "TRIALS"): 50,
    (workloads.SnrSweep, "TRIALS"): 10,
    (workloads.SnrSweep, "CHECK_TRIALS"): 100,
    (workloads.IfReceiver, "TRIALS"): 2,
    (workloads.IfReceiver, "GRAMS"): (4, 1),
    (workloads.CliReplay, "FIG4_TRIALS"): 20,
    (workloads.CliReplay, "FIG6_TRIALS"): 5,
}


@pytest.fixture
def tiny(monkeypatch):
    for (cls, attr), value in TINY.items():
        monkeypatch.setattr(cls, attr, value)
    monkeypatch.setattr(tracing, "TRACE_TRIALS", {"cond-cdf": 20, "snr-sweep": 2,
                                                  "if-receiver": 1})
    monkeypatch.setattr(tracing, "GRAMS", (2, 1))
    monkeypatch.setattr(tracing, "SLOPE_TRIALS", 50)


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_round(wl, r, report):
    for call in wl.round(r):
        run.run_call(call, True, report)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_completes_at_tiny_size(name, tiny, tmp_path):
    wl = workloads.WORKLOADS[name](11, str(tmp_path))
    report = run.Report()
    calls, _ = run.closed_loop(wl, 0.0, report)
    checks = wl.pooled_checks()
    assert report.failed == 0, report.failures
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    assert len(calls) == len(wl.round(1))


def test_same_seed_gives_same_calls(tmp_path):
    a = workloads.WORKLOADS["snr-sweep"](5, str(tmp_path)).round(3)
    b = workloads.WORKLOADS["snr-sweep"](5, str(tmp_path)).round(3)
    c = workloads.WORKLOADS["snr-sweep"](6, str(tmp_path)).round(3)
    assert [x.params["seed"] for x in a] == [x.params["seed"] for x in b]
    assert [x.params["seed"] for x in a] != [x.params["seed"] for x in c]


def test_cdf_check_fails_when_shifted_by_five_sigma(tiny, tmp_path):
    wl = workloads.WORKLOADS["cond-cdf"](12, str(tmp_path))
    report = run.Report()
    for r in range(3):
        _run_round(wl, r, report)
    assert all(c.ok for c in wl.pooled_checks())
    pool = wl.pools["n2"]
    refs = np.array([two_user_cdf(float(x), 2.0) for x in pool.rates])
    shift = 5.0 * np.array([binomial_stderr(p, pool.trials) for p in refs])
    pool.counts = pool.counts + shift * pool.trials
    verdict = {c.name: c.ok for c in wl.pooled_checks()}
    assert verdict["N=2 CDF vs two_user_cdf"] is False


def test_if_check_fails_when_a_rate_exceeds_capacity(tiny, tmp_path):
    wl = workloads.WORKLOADS["if-receiver"](13, str(tmp_path))
    call = wl.round(1)[0]
    samples = call.run()
    assert call.check(samples.copy()) is None
    samples[0] = workloads.IfReceiver.CAP + 1e-6
    assert "above C" in call.check(samples)


def test_replay_check_fails_on_one_changed_byte(tiny, tmp_path):
    wl = workloads.WORKLOADS["cli-replay"](14, str(tmp_path))
    fig, rerun = wl.round(1)[:2]
    assert fig.check(fig.run()) is None
    out = rerun.run()
    assert rerun.check(out) is None
    path = os.path.join(str(tmp_path), "fig1-rerun.csv")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    assert "differs" in rerun.check(out)


def test_failed_call_is_counted_and_not_timed():
    def boom():
        raise NumericalDomainError("not positive definite")

    report = run.Report()
    assert run.run_call(Call("probe", 1, boom, lambda out: None), True, report) is None
    assert (report.attempted, report.failed) == (1, 1)


def test_domain_probes_stay_out_of_timings_and_counts(tiny, tmp_path):
    wl = workloads.WORKLOADS["if-receiver"](15, str(tmp_path))
    report = run.Report()
    calls, _ = run.closed_loop(wl, 0.0, report)
    probes = run.run_probes(wl)
    assert probes.attempted == len(workloads.IfReceiver.PRECODERS)
    # A probe fails by raising NumericalDomainError or by a rate above C;
    # either way it is counted in the probe report, and only there.
    assert probes.failed == len(probes.failures)
    assert all("-c60: " in f for f in probes.failures)
    assert len(calls) == len(wl.round(1))
    assert report.attempted == 2 * len(wl.round(1))


def test_traced_run_reports_every_per_layer_metric(tiny, tmp_path):
    report = run.Report()
    metrics, spans = tracing.run("cond-cdf", 16, 0.0, ROOT, str(tmp_path), report)
    assert report.failed == 0, report.failures
    assert set(metrics) == {m["name"] for m in _benchmark_json()["per_layer"]}
    assert all(np.isfinite(v) for v, _, _ in metrics.values())
    assert metrics["cli.rerun_identical_share"][0] == 1.0
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)


def test_command_prints_end_to_end_metrics(tmp_path):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-replay",
                          "--seed", "3", "--seconds", "1", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _benchmark_json()["end_to_end"]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cond-cdf",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
