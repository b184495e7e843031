"""Command-line interface tests.

These drive main() in process with small trial counts: printed values,
exit codes, CSV/manifest layout, and byte-identical replay from a manifest.
"""

import csv
import json
import os
import platform
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fadingmac
from fadingmac import cli, integer_forcing, montecarlo
from fadingmac.cli import build_parser, main
from fadingmac.integer_forcing import MAX_IF_CAPACITY_BITS

DATA = Path(__file__).parent / "data"


def test_bound_two_user_prints_value(capsys):
    assert main(["bound", "two-user", "--rate", "2", "--sum-cap", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "0.666667"


def test_bound_simo_saturates_at_capacity(capsys):
    assert main(["bound", "simo", "--rate", "4", "--sum-cap", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_bound_bracket_prints_both_ends(capsys):
    code = main(["bound", "scalar-bracket", "--users", "4",
                 "--rate", "4", "--sum-cap", "8"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("lower=") and "upper=" in out


@pytest.mark.parametrize("out", ["atom", "atom.json", "atom.csv"])
def test_bound_writes_manifest(tmp_path, capsys, out):
    # Every --out form names the manifest atom.json, as for the CSV commands.
    code = main(["bound", "atom", "--sum-cap", "2", "--out", str(tmp_path / out)])
    assert code == 0
    assert [p.name for p in tmp_path.iterdir()] == ["atom.json"]
    doc = json.loads((tmp_path / "atom.json").read_text())
    assert doc["command"] == "bound"
    assert abs(doc["result"]["value"] - 1.0 / 3.0) < 1e-12
    assert doc["csv"] is None
    assert "version" in doc and "wall_time_s" in doc


def test_bound_missing_parameter_exits_one(capsys):
    assert main(["bound", "two-user", "--rate", "2"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", [
    (["bound", "two-user", "--rate", "2"], "--sum-cap is required for bound two-user"),
    (["simulate", "--nt", "1", "--nr", "2", "--snr-db-list=0,5"],
     "--rate is required for an --snr-db-list sweep"),
    (["simulate", "--users", "3"], "--sum-cap is required for a conditioned bracket"),
])
def test_a_missing_required_flag_names_the_run(tmp_path, monkeypatch, capsys, argv, error):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"fadingmac: error: {error}"]
    assert list(tmp_path.iterdir()) == []


def test_bound_invalid_parameter_exits_one(capsys):
    assert main(["bound", "two-user", "--rate", "3", "--sum-cap", "2"]) == 1
    assert "error" in capsys.readouterr().err


def test_rate_above_the_sum_capacity_names_the_sum_capacity(capsys):
    assert main(["bound", "two-user", "--rate", "5", "--sum-cap", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fadingmac: error: rate must not exceed the sum capacity\n"


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "unknown-kind", "--rate", "1", "--sum-cap", "2"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "fadingmac" in capsys.readouterr().out


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_fig_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert main(["fig", "2", "--out", str(out)]) == 0
    rows = _read_rows(out)
    assert rows[0] == ["curve", "x", "y", "stderr"]
    curves = {r[0] for r in rows[1:]}
    assert any(c.startswith("region") for c in curves)
    assert "density" in curves
    assert "atom" in curves
    doc = json.loads((tmp_path / "fig2.json").read_text())
    assert doc["command"] == "fig"
    assert doc["params"]["figure"] == 2
    assert doc["csv"] == str(out)


def test_simulate_scalar_and_rerun_byte_identical(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--users", "2", "--sum-cap", "2",
                 "--trials", "200", "--seed", "5", "--out", str(out)])
    assert code == 0
    first = out.read_bytes()
    rows = _read_rows(out)
    assert rows[0] == ["curve", "x", "y", "stderr"]
    assert len(rows) > 10
    replay = tmp_path / "replay.csv"
    code = main(["rerun", "--manifest", str(tmp_path / "sim.json"),
                 "--out", str(replay)])
    assert code == 0
    assert replay.read_bytes() == first


def test_simulate_snr_sweep_includes_bound_curves(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["simulate", "--users", "2", "--nt", "2", "--nr", "3",
                 "--rate", "3", "--trials", "50", "--snr-db-list=-10,0,10",
                 "--out", str(out)])
    assert code == 0
    curves = {r[0] for r in _read_rows(out)[1:]}
    assert "empirical" in curves
    assert "union-avg" in curves


def test_if_sim_writes_cdf(tmp_path, capsys):
    out = tmp_path / "ifcdf.csv"
    code = main(["if-sim", "--users", "2", "--sum-cap", "10", "--trials", "60",
                 "--precoder", "bb", "--mode", "if-sic", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out)[1:]
    assert rows
    ys = [float(r[2]) for r in rows]
    assert all(0.0 <= y <= 1.0 for y in ys)


def test_fig10_with_one_trial_leaves_the_stderr_empty(tmp_path, capsys):
    # The sample standard deviation of one trial is undefined; the rows get
    # an empty stderr, as the analytic ml rows do, and no numpy
    # RuntimeWarning (which the test configuration turns into an error).
    out = tmp_path / "fig10.csv"
    assert main(["fig", "10", "--trials", "1", "--out", str(out)]) == 0
    rows = _read_rows(out)[1:]
    empirical = [r for r in rows if r[0] != "ml"]
    assert len(empirical) == 32
    assert all(r[3] == "" and 0.0 <= float(r[2]) <= 1.0 for r in empirical)
    assert "nan" not in out.read_text()


@pytest.mark.parametrize("argv, rows", [
    ("fig 7 --trials 20", 3 * 20), ("fig 8 --trials 20", 2 * 20),
    ("fig 9 --trials 5", 10 * 5), ("fig 10 --trials 5", 8 * 2 * 5),
    ("fig 10 --users 3 --trials 5", 8 * 5),
    ("if-sim --sum-cap 10 --precoder bb --mode if-sic --trials 20", 20)])
def test_an_if_run_searches_each_channel_once(tmp_path, monkeypatch, argv, rows):
    # One search per channel, per precoder and per C: a precoder's second
    # mode is served from the first's search.
    integer_forcing._both_mode_samples.cache_clear()
    search = integer_forcing._search
    searched = []
    monkeypatch.setattr(integer_forcing, "_search",
                        lambda f: searched.append(len(f)) or search(f))
    assert main(argv.split() + ["--out", str(tmp_path / "run")]) == 0
    assert sum(searched) == rows


@pytest.mark.parametrize("figure, trials", [("7", "10"), ("8", "10"), ("10", "2")])
def test_if_figures_omit_the_two_user_precoder_for_three_users(tmp_path, capsys,
                                                                figure, trials):
    # The golden-ratio (bb) precoder pairs two users: with three its curves
    # are left out, as fig 8 and fig 10 leave out their two-user ML rows.
    out = tmp_path / "fig.csv"
    assert main(["fig", figure, "--users", "3", "--trials", trials,
                 "--out", str(out)]) == 0
    curves = {r[0] for r in _read_rows(out)[1:]}
    assert {"if-none", "if-sic-none"} <= curves
    assert not any(c.endswith("-bb") for c in curves)


@pytest.mark.parametrize("extra", [["--users", "3"], ["--nt", "2"]])
def test_fig6_keeps_the_simo_bound_to_two_single_antenna_users(tmp_path, capsys, extra):
    out = tmp_path / "fig6.csv"
    assert main(["fig", "6", "--trials", "5", "--snr-db-list=0,10", "--out", str(out)]
                + extra) == 0
    curves = {r[0] for r in _read_rows(out)[1:]}
    assert curves == {"empirical", "union-avg"}


def test_rerun_rejects_bad_manifest(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "validate", "params": {}}))
    assert main(["rerun", "--manifest", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["rerun", "--manifest", str(missing)]) == 1


def test_manifest_records_the_rng_layout_and_versions(tmp_path, capsys):
    assert main(["simulate", "--sum-cap", "2", "--trials", "20",
                 "--out", str(tmp_path / "run")]) == 0
    doc = json.loads((tmp_path / "run.json").read_text())
    assert doc["rng_layout"] == 3
    assert doc["numpy"] == np.__version__
    assert doc["python"] == platform.python_version()


@pytest.mark.parametrize("layout", [None, 1, 2])
def test_rerun_refuses_another_rng_layout(tmp_path, capsys, layout):
    # A manifest without a layout id was written with layout 1.
    doc = json.loads((DATA / "simulate-scalar.json").read_text())
    del doc["rng_layout"]
    if layout is not None:
        doc["rng_layout"] = layout
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "old.csv"
    assert main(["rerun", "--manifest", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"RNG layout {layout or 1}" in err and "layout 3" in err
    assert not out.exists()


def _exit_code(argv):
    """main's exit code, whether it returns it or a usage error raises it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _with(stem, **params):
    doc = json.loads((DATA / f"{stem}.json").read_text())
    doc["params"].update(params)
    return doc


def _without(stem, key):
    doc = json.loads((DATA / f"{stem}.json").read_text())
    del doc["params"][key]
    return doc


_IF_SIM = {"command": "if-sim", "rng_layout": 3, "csv": "if-sim.csv",
           "params": {"users": 2, "sum_cap": 4.0, "trials": 3, "seed": 0, "precoder": "zz",
                      "mode": "if", "rate_convention": "total"}}


# A replayed manifest passes the parser's checks, as a fresh command line does:
# each bad manifest exits 1 with one error line (after the usage line for a
# usage error) and writes no file.
@pytest.mark.parametrize("doc, error", [
    (["fig"], "fadingmac: error: manifest is not a JSON object"),
    (_without("fig2", "figure"),
     "fadingmac fig: error: the following arguments are required: figure"),
    (_with("fig2", figure=11), "fadingmac fig: error: argument figure: invalid choice: 11 "),
    (_IF_SIM, "fadingmac if-sim: error: argument --precoder: invalid choice: 'zz' "),
    (_with("fig2", sum_cap="x"), "fadingmac fig: error: argument --sum-cap: invalid float "
                                 "value: 'x'"),
    (_with("fig6", snr_db_list="abc"),
     "fadingmac: error: --snr-db-list must be comma-separated numbers"),
    (_with("fig2", bogus=1, also=2), "fadingmac: error: manifest parameters unknown to fig: "
                                     "also, bogus"),
    ({**_with("fig2"), "csv": ["a", "b"]},
     "fadingmac: error: manifest records no CSV path; pass --out"),
    (_with("fig2", figure="-h"), "fadingmac fig: error: argument figure: invalid int value: "
                                 "'-h'"),
    (_without("fig2", "figure") | {"params": None},
     "fadingmac: error: manifest is missing its parameter set"),
    (_without("fig2", "figure") | {"params": [2]},
     "fadingmac: error: manifest is missing its parameter set"),
], ids=["list", "no-figure", "figure-11", "precoder-zz", "sum-cap-x", "snr-abc", "bogus",
        "csv-list", "figure-help", "no-params", "params-list"])
def test_rerun_rejects_a_malformed_manifest(tmp_path, monkeypatch, capsys, doc, error):
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text(json.dumps(doc))
    assert _exit_code(["rerun", "--manifest", "m.json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    *usage, last = captured.err.splitlines()
    assert last.startswith(error)
    assert not usage or usage[0].startswith("usage: fadingmac ")
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_manifests_record_the_packaged_version():
    # Manifests record __version__; a release must bump it with the package's.
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'(?m)^version = "([^"]+)"$', text).group(1) == fadingmac.__version__


@pytest.mark.parametrize("argv", [
    ["fig", "1"], ["bound", "atom", "--sum-cap", "2"],
    ["rerun", "--manifest", str(DATA / "fig2.json")],
], ids=["fig", "bound", "rerun"])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x"
    assert main(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "wrote" not in captured.out   # bound has printed its value by then
    # bound writes only its manifest; the CSV commands write the CSV first.
    first = f"{out}.json" if argv[0] == "bound" else f"{out}.csv"
    assert captured.err.splitlines() == [
        f"fadingmac: error: [Errno 2] No such file or directory: '{first}'"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("text, error", [
    ("0,,10", "comma-separated numbers"), ("5,", "comma-separated numbers"),
    (",5", "comma-separated numbers"), ("0, ,10", "comma-separated numbers"),
    (",", "comma-separated numbers"), (" ", "non-empty"), ("", "non-empty")])
def test_snr_list_refuses_an_empty_field(tmp_path, monkeypatch, capsys, text, error):
    # An empty field is not dropped: 0,,10 is not the grid 0,10.
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--users", "2", "--nt", "1", "--nr", "2", "--rate", "2",
                 f"--snr-db-list={text}", "--trials", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"fadingmac: error: --snr-db-list must be {error}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("point", ["nan", "inf"])
def test_snr_list_rejects_non_finite_points(tmp_path, monkeypatch, capsys, point):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--users", "2", "--nt", "1", "--nr", "2", "--rate", "2",
                 f"--snr-db-list=0,{point}", "--trials", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["fadingmac: error: snr_grid_db must be finite"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--users", "2", "--sum-cap", "1100", "--trials", "3"], 1),
    (["if-sim", "--users", "2", "--sum-cap", "1100", "--trials", "3"], 1),
    (["if-sim", "--users", "2", "--sum-cap", "500", "--trials", "3", "--precoder", "none"], 1),
])
def test_extreme_capacities_exit_without_a_traceback(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("fadingmac: ")
    assert list(tmp_path.iterdir()) == []


# Every command that reads --sum-cap, at each capacity outside the domain:
# C must be positive and 2^C - 1 a finite double, which holds up to 1024 bits.
# Each capacity gets one error line, whichever command reads it.
_CAPACITY_ERRORS = {
    **dict.fromkeys(["-1", "0", "nan", "inf"], "sum capacity must be positive"),
    "1100": "sum capacity is too large: 2**C - 1 overflows a float (got 1100.0)",
}
_CAPACITY_COMMANDS = [
    ["fig", "2"], ["fig", "3", "--trials", "5"], ["fig", "4", "--trials", "5"],
    ["fig", "7", "--trials", "3"], ["fig", "8", "--trials", "3"],
    ["fig", "8", "--users", "3", "--trials", "3"],
    ["bound", "two-user", "--rate", "1"], ["bound", "atom"],
    ["bound", "scalar-bracket", "--users", "3", "--rate", "1"],
    ["bound", "frobenius-union", "--users", "2", "--nt", "2", "--nr", "2", "--rate", "1"],
    ["bound", "frobenius-union", "--users", "1", "--nt", "2", "--nr", "2", "--rate", "1"],
    ["bound", "simo", "--rate", "1"],
    ["simulate", "--users", "2", "--trials", "5"],
    ["simulate", "--users", "2", "--nt", "2", "--nr", "2", "--trials", "5"],
    ["simulate", "--users", "1", "--nt", "2", "--nr", "2", "--trials", "5"],
    ["simulate", "--users", "3", "--cardinality", "1", "--trials", "5"],
    ["simulate", "--users", "3", "--cardinality", "3", "--trials", "5"],
    ["if-sim", "--trials", "3"], ["if-sim", "--trials", "3", "--precoder", "bb"],
    ["if-sim", "--trials", "3", "--precoder", "haar"],
]


@pytest.mark.parametrize("cap", list(_CAPACITY_ERRORS))
@pytest.mark.parametrize("argv", _CAPACITY_COMMANDS, ids=" ".join)
def test_every_capacity_command_rejects_a_capacity_outside_the_domain(
        tmp_path, monkeypatch, capsys, argv, cap):
    monkeypatch.chdir(tmp_path)
    assert main(argv + [f"--sum-cap={cap}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"fadingmac: error: {_CAPACITY_ERRORS[cap]}"]
    assert list(tmp_path.iterdir()) == []


# Inputs past a float's binomial coefficients or past subset enumeration are
# refused with one line, before any trial runs.  A bound's binomial
# coefficient must stay below 2^1024: the union weight C(N, N/2) passes it
# from N = 1030 users on, the beta tail's at about 1030 sphere coordinates
# (N n_t n_r).  Enumeration stops at 20 users (2^20 - 1 subsets a trial).
_BINOMIAL = "binomial coefficient {} is too large: it overflows a float (limit 2**1024)"
_ENUMERATION = "subset enumeration is limited to 20 users"


@pytest.mark.parametrize("argv, error", [
    (["bound", "scalar-bracket", "--users", "1030", "--rate", "4", "--sum-cap", "8"],
     _BINOMIAL.format("C(1030, 515)")),
    (["bound", "frobenius-union", "--users", "40", "--nt", "8", "--nr", "8", "--rate", "4",
      "--sum-cap", "8"], _BINOMIAL.format("C(2559, 1279)")),
    (["simulate", "--users", "40", "--nt", "8", "--nr", "8", "--sum-cap", "8", "--trials", "10"],
     _BINOMIAL.format("C(2559, 1279)")),
    (["simulate", "--users", "25", "--nt", "1", "--nr", "2", "--rate", "2", "--snr-db-list=0",
      "--trials", "1"], _ENUMERATION),
    (["fig", "5", "--users", "21", "--trials", "1"], _ENUMERATION),
    (["fig", "6", "--users", "21", "--trials", "1"], _ENUMERATION),
], ids=["scalar-bracket-1030", "frobenius-union-40x8x8", "simulate-40x8x8", "simulate-25",
        "fig5-21", "fig6-21"])
def test_inputs_past_a_float_binomial_or_the_enumeration_limit_exit_one(
        tmp_path, monkeypatch, capsys, argv, error):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"fadingmac: error: {error}"]
    assert list(tmp_path.iterdir()) == []


# --cardinality draws the per-cardinality law of scalar users under a sum
# capacity, so a sweep or antenna counts would be flags it ignores.  The
# first such flag in parser order is named.
_CARDINALITY_SWEEP = "--cardinality does not apply to an --snr-db-list sweep"
_CARDINALITY_DIMS = "--{} does not apply to a --cardinality run"


@pytest.mark.parametrize("argv, error", [
    (["--nt", "2", "--nr", "3", "--sum-cap", "6"], _CARDINALITY_DIMS.format("nr")),
    (["--nt", "2", "--sum-cap", "6"], _CARDINALITY_DIMS.format("nt")),
    (["--nr", "2", "--sum-cap", "6"], _CARDINALITY_DIMS.format("nr")),
    (["--nt", "1", "--nr", "1", "--rate", "2", "--snr-db-list=0,5"], _CARDINALITY_SWEEP),
    (["--sum-cap", "6", "--rate", "2", "--snr-db-list=0,5"],
     "--sum-cap does not apply to an --snr-db-list sweep"),
], ids=["2x3", "nt2", "nr2", "sweep", "sweep-with-sum-cap"])
def test_cardinality_rejects_the_flags_it_would_ignore(tmp_path, monkeypatch, capsys, argv,
                                                       error):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--users", "3", "--cardinality", "1", "--trials", "20"]
                + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"fadingmac: error: {error}"]
    assert list(tmp_path.iterdir()) == []


# Only a sweep reads --rate and --rate-convention, and only the conditioned
# branches read --sum-cap; each refuses the flags it would ignore, naming
# the first in parser order.
_RATE_OUTSIDE_SWEEP = "--{} does not apply to a {}"


@pytest.mark.parametrize("argv, error", [
    (["--users", "3", "--sum-cap", "6", "--rate", "2"],
     _RATE_OUTSIDE_SWEEP.format("rate", "conditioned bracket")),
    (["--users", "3", "--sum-cap", "6", "--rate-convention", "per-user"],
     _RATE_OUTSIDE_SWEEP.format("rate-convention", "conditioned bracket")),
    (["--users", "3", "--sum-cap", "6", "--rate", "2", "--rate-convention", "per-user"],
     _RATE_OUTSIDE_SWEEP.format("rate", "conditioned bracket")),
    (["--users", "2", "--nt", "2", "--nr", "3", "--sum-cap", "6", "--rate", "2"],
     _RATE_OUTSIDE_SWEEP.format("rate", "conditioned bracket")),
    (["--users", "3", "--cardinality", "1", "--sum-cap", "6", "--rate", "2",
      "--rate-convention", "per-user"], _RATE_OUTSIDE_SWEEP.format("rate", "--cardinality run")),
    (["--users", "3", "--cardinality", "1", "--sum-cap", "6", "--rate-convention", "per-user"],
     _RATE_OUTSIDE_SWEEP.format("rate-convention", "--cardinality run")),
    (["--users", "2", "--nt", "1", "--nr", "2", "--rate", "2", "--snr-db-list=0,5",
      "--sum-cap", "5"], "--sum-cap does not apply to an --snr-db-list sweep"),
], ids=["bracket-rate", "bracket-per-user", "bracket-both", "bracket-mimo-rate",
        "cardinality-both", "cardinality-per-user", "sweep-sum-cap"])
def test_simulate_rejects_the_flags_its_branch_would_ignore(tmp_path, monkeypatch, capsys,
                                                            argv, error):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--trials", "20"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"fadingmac: error: {error}"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--users", "3", "--sum-cap", "6"],
    ["--users", "3", "--cardinality", "1", "--sum-cap", "6"],
])
def test_simulate_accepts_the_default_rate_convention_outside_a_sweep(tmp_path, monkeypatch,
                                                                      argv):
    # Every simulate manifest records "total", so a replay passes it back.
    monkeypatch.chdir(tmp_path)
    base = ["simulate", "--trials", "20"] + argv
    assert main(base + ["--out", "plain"]) == 0
    assert main(base + ["--rate-convention", "total", "--out", "explicit"]) == 0
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()


# fig 9 runs its own user counts (2, 4 and 6), fig 10 its own capacities
# (2 to 16 bits), fig 4 scalar users and fig 2 no Monte Carlo: each refuses
# the flag it would ignore.
@pytest.mark.parametrize("argv, flag", [
    (["fig", "9", "--users", "4", "--trials", "30"], "--users"),
    (["fig", "10", "--sum-cap", "5", "--trials", "30"], "--sum-cap"),
    (["fig", "4", "--nt", "2", "--trials", "500"], "--nt"),
    (["fig", "2", "--trials", "500"], "--trials"),
], ids=["fig9-users", "fig10-sum-cap", "fig4-nt", "fig2-trials"])
def test_fig_rejects_the_flags_its_figure_would_ignore(tmp_path, monkeypatch, capsys,
                                                        argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"fadingmac: error: {flag} does not apply "
                                         f"to fig {argv[1]}"]
    assert list(tmp_path.iterdir()) == []


def test_fig_accepts_the_default_of_a_flag_it_does_not_read(tmp_path, monkeypatch):
    # A manifest records every flag, so a replay passes the defaults back.
    monkeypatch.chdir(tmp_path)
    base = ["fig", "9", "--trials", "3"]
    assert main(base + ["--out", "plain"]) == 0
    assert main(base + ["--users", "2", "--nt", "1", "--rate-convention", "total",
                        "--out", "explicit"]) == 0
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()


# A valid value of each flag a bound kind may read.
_BOUND_VALUES = {"users": "2", "nt": "1", "nr": "1", "rate": "1", "sum_cap": "2", "mux": "0.25"}


@pytest.mark.parametrize("which, flag", [
    (which, flag) for which, run in cli._BOUNDS.items()
    for flag in sorted(_BOUND_VALUES.keys() - run.reads)])
def test_bound_rejects_every_flag_its_kind_does_not_read(tmp_path, monkeypatch, capsys,
                                                         which, flag):
    # A bound kind reads exactly the flags it requires.
    assert cli._BOUNDS[which].reads == set(cli._BOUNDS[which].requires)
    monkeypatch.chdir(tmp_path)
    argv = ["bound", which] + [f"--{k.replace('_', '-')}={_BOUND_VALUES[k]}"
                               for k in cli._BOUNDS[which].requires]
    assert main(argv + ["--out", "b"]) == 0
    capsys.readouterr()
    (tmp_path / "b.json").unlink()
    dashed = flag.replace("_", "-")
    assert main(argv + [f"--{dashed}={_BOUND_VALUES[flag]}", "--out", "b"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"fadingmac: error: --{dashed} does not apply "
                                         f"to bound {which}"]
    assert list(tmp_path.iterdir()) == []


def test_bound_has_no_seed(capsys):
    # No bound kind draws anything.
    assert _exit_code(["bound", "atom", "--sum-cap", "2", "--seed", "0"]) == 1
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_only_runs_that_draw_record_a_seed(tmp_path, monkeypatch, capsys):
    # The top-level seed of a manifest is that of the draws: a bound, fig 1
    # and fig 2 draw nothing and record none; their parameter sets still
    # hold the command's default seed, which rerun reads.
    monkeypatch.chdir(tmp_path)
    assert main(["bound", "atom", "--sum-cap", "2", "--out", "b"]) == 0
    assert "seed" not in json.loads((tmp_path / "b.json").read_text())
    for figure in ("1", "2"):
        assert main(["fig", figure, "--out", "f"]) == 0
        doc = json.loads((tmp_path / "f.json").read_text())
        assert "seed" not in doc and doc["params"]["seed"] == 0
    assert main(["fig", "4", "--trials", "20", "--seed", "5", "--out", "f"]) == 0
    doc = json.loads((tmp_path / "f.json").read_text())
    assert doc["seed"] == doc["params"]["seed"] == 5


@pytest.mark.parametrize("argv, flag", [
    (["--trials", "5"], "--trials"), (["--trials", "5", "--seed", "9"], "--trials"),
    (["--seed", "9"], "--seed")])
def test_validate_analytic_rejects_trials_and_seed(capsys, argv, flag):
    # The analytic suite draws nothing; the default seed, which is 0, runs.
    assert main(["validate", "analytic"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"fadingmac: error: {flag} does not apply "
                                         "to validate analytic"]
    assert main(["validate", "analytic", "--seed", "0"]) == 0


def test_cardinality_runs_with_explicit_scalar_antennas(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = ["simulate", "--users", "3", "--sum-cap", "6", "--cardinality", "1",
            "--trials", "20"]
    assert main(base + ["--out", "plain"]) == 0
    assert main(base + ["--nt", "1", "--nr", "1", "--out", "explicit"]) == 0
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()


# One user is the trivial MAC: scalar and MIMO users alike run, with bracket 0.
@pytest.mark.parametrize("argv", [
    ["simulate", "--users", "1", "--sum-cap", "4", "--trials", "20"],
    ["fig", "4", "--users", "1", "--trials", "20"],
    ["fig", "7", "--users", "1", "--trials", "5"],
    ["if-sim", "--users", "1", "--sum-cap", "4", "--trials", "5"],
])
def test_one_user_runs_with_a_zero_bracket(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    (csv_path,) = tmp_path.glob("*.csv")
    with open(csv_path) as fh:
        bracket = [float(row["y"]) for row in csv.DictReader(fh)
                   if row["curve"] in ("lower", "upper", "ml-lower", "ml-upper")]
    assert bracket and set(bracket) == {0.0}


def test_one_user_bracket_is_the_1x1_frobenius_bound(capsys):
    assert main(["bound", "scalar-bracket", "--users", "1", "--rate", "1",
                 "--sum-cap", "4"]) == 0
    assert capsys.readouterr().out == "lower=0 upper=0 upper_raw=0\n"
    assert main(["bound", "frobenius-union", "--users", "1", "--nt", "1", "--nr", "1",
                 "--rate", "1", "--sum-cap", "4"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_golden_ratio_precoder_for_three_users_names_the_haar_kind(tmp_path, monkeypatch,
                                                                   capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["if-sim", "--users", "3", "--sum-cap", "8", "--trials", "3",
                 "--precoder", "bb"]) == 1
    err = capsys.readouterr().err
    assert "haar" in err and "haar_t2" not in err


def test_per_user_sweep_equals_the_total_sweep_at_the_scaled_rate(tmp_path, capsys):
    sweep = ["simulate", "--users", "2", "--nt", "1", "--nr", "3", "--trials", "40",
             "--snr-db-list=-10,0,10"]
    assert main(sweep + ["--rate", "1.5", "--rate-convention", "per-user",
                         "--out", str(tmp_path / "per-user")]) == 0
    assert main(sweep + ["--rate", "3", "--out", str(tmp_path / "total")]) == 0
    per_user = (tmp_path / "per-user.csv").read_bytes()
    assert per_user == (tmp_path / "total.csv").read_bytes()
    assert b"simo-avg" in per_user


def test_per_user_if_cdf_halves_the_total_rate_axis(tmp_path, capsys):
    # The convention only rescales the rate axis: halving is exact in binary,
    # so each per-user x is the total x / 2 and the y and stderr columns match.
    run = ["if-sim", "--users", "2", "--sum-cap", "10", "--trials", "40", "--seed", "14"]
    rows = {}
    for convention in ("total", "per-user"):
        out = tmp_path / f"{convention}.csv"
        assert main(run + ["--rate-convention", convention, "--out", str(out)]) == 0
        rows[convention] = _read_rows(out)[1:]
    total, per_user = rows["total"], rows["per-user"]
    assert [r[0] for r in per_user] == [r[0] for r in total]
    assert [r[2:] for r in per_user] == [r[2:] for r in total]
    assert [float(r[1]) for r in per_user] == [float(r[1]) / 2.0 for r in total]


def test_validate_analytic_suite_passes(capsys):
    assert main(["validate", "analytic"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_validate_if_suite_passes(capsys):
    assert main(["validate", "if", "--trials", "40"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_validate_montecarlo_suite_passes(capsys):
    assert main(["validate", "montecarlo", "--trials", "2000"]) == 0
    out = capsys.readouterr().out
    assert "3/3 checks passed" in out and "FAIL" not in out


# The committed runs: `fig 2`, `fig 3`, `fig 4`, `fig 6`, `fig 8`, `fig 9`
# and `simulate` on scalar and MIMO users and on one cardinality.  fig4 and
# simulate-mimo pin the bytes and the order of the bracket rows (lower then
# upper for scalar users, upper then lower for MIMO); fig6 pins the simo-avg
# rows of two single-antenna users, and fig8 the two-user ML density and atom.
_COMMITTED_RUNS = {
    "fig2": ["fig", "2"],
    "fig3": ["fig", "3", "--trials", "200", "--seed", "5"],
    "fig4": ["fig", "4", "--trials", "200", "--seed", "5"],
    "fig6": ["fig", "6", "--trials", "50", "--seed", "5"],
    "fig7": ["fig", "7", "--trials", "20", "--seed", "5"],
    "fig8": ["fig", "8", "--trials", "20", "--seed", "5"],
    "fig9": ["fig", "9", "--trials", "100", "--seed", "5"],
    "fig10": ["fig", "10", "--trials", "20", "--seed", "5"],
    "simulate-cardinality": ["simulate", "--users", "4", "--sum-cap", "8", "--cardinality", "2",
                             "--trials", "200", "--seed", "5"],
    "simulate-scalar": ["simulate", "--users", "2", "--sum-cap", "2",
                        "--trials", "200", "--seed", "5"],
    "simulate-mimo": ["simulate", "--users", "3", "--nt", "2", "--nr", "2",
                      "--sum-cap", "8", "--trials", "200", "--seed", "5"],
    # At C = 8 every Frobenius trial lies in the atom.  At C = 2 the atom is
    # 0.51 and 37 of the 50 empirical rows are non-zero.
    "simulate-mimo-c2": ["simulate", "--users", "3", "--nt", "2", "--nr", "2",
                         "--sum-cap", "2", "--trials", "200", "--seed", "5"],
}


@pytest.mark.parametrize("figure", ["8", "10"])
def test_if_figures_replay_without_the_sample_cache(tmp_path, capsys, figure):
    # In one process a replay's IF samples could be served by the one-entry
    # cache of the run before it; cleared, the replay draws and searches every
    # channel again.
    fresh, replay = tmp_path / "fresh", tmp_path / "replay"
    assert main(["fig", figure, "--trials", "20", "--seed", "3", "--out", str(fresh)]) == 0
    integer_forcing._both_mode_samples.cache_clear()
    assert main(["rerun", "--manifest", f"{fresh}.json", "--out", str(replay)]) == 0
    assert Path(f"{replay}.csv").read_bytes() == Path(f"{fresh}.csv").read_bytes()


@pytest.mark.parametrize("stem", sorted(_COMMITTED_RUNS))
def test_rerun_reproduces_committed_outputs(tmp_path, capsys, stem):
    # Manifest and CSV pairs written by an earlier release.
    out = tmp_path / f"{stem}.csv"
    assert main(["rerun", "--manifest", str(DATA / f"{stem}.json"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{stem}.csv").read_bytes()


# A conditioned bracket on unset antenna counts runs with 1 and 1, and a fresh
# manifest records them so; the committed one, from an earlier release,
# records them unset.
_FRESH_PARAMS = {"simulate-scalar": {"nt": 1, "nr": 1}}


def test_fresh_manifests_record_the_committed_parameter_sets(tmp_path, capsys):
    for stem, argv in _COMMITTED_RUNS.items():
        assert main(argv + ["--out", str(tmp_path / stem)]) == 0
        fresh = json.loads((tmp_path / f"{stem}.json").read_text())
        committed = json.loads((DATA / f"{stem}.json").read_text())
        assert fresh["params"] == {**committed["params"], **_FRESH_PARAMS.get(stem, {})}
        assert (tmp_path / f"{stem}.csv").read_bytes() == (DATA / f"{stem}.csv").read_bytes()


def _flag(draw, name, values):
    """``--name=value`` for a drawn value, or nothing, so that the command's
    default applies."""
    value = draw(st.none() | values)
    return [] if value is None else [f"--{name}={value}"]


_USERS = st.integers(1, 3)
_CAPS = st.floats(0.5, 12.0)
_SNR_LISTS = st.lists(st.floats(-20.0, 30.0), min_size=1, max_size=4).map(
    lambda snrs: ",".join(map(repr, sorted(snrs))))
_CONVENTIONS = st.sampled_from(["total", "per-user"])

# Each figure's flags beyond --trials and --seed, drawn or left to the default;
# they are the flags the figure reads (checked against the CLI's own table).
_FIGURE_FLAGS = {
    1: {"users": st.integers(1, 4), "nt": st.integers(1, 3), "nr": st.integers(1, 3)},
    2: {"sum-cap": _CAPS},
    3: {"users": st.integers(2, 4), "sum-cap": _CAPS},
    4: {"users": _USERS, "sum-cap": _CAPS},
    5: {"users": _USERS, "nt": st.integers(1, 2), "nr": st.integers(1, 3),
        "rate": st.floats(0.1, 4.0), "snr-db-list": _SNR_LISTS,
        "rate-convention": _CONVENTIONS},
    6: {"users": _USERS, "nt": st.integers(1, 2), "nr": st.integers(1, 3),
        "rate": st.floats(0.1, 4.0), "snr-db-list": _SNR_LISTS,
        "rate-convention": _CONVENTIONS},
    7: {"users": _USERS, "sum-cap": _CAPS, "rate-convention": _CONVENTIONS},
    8: {"users": _USERS, "sum-cap": _CAPS},
    9: {},
    10: {"users": _USERS},
}

# Each simulate branch's flags beyond --trials and --seed: those every line
# gives, and those drawn or left to the default.  Together they are the flags
# the branch reads (checked against the CLI's own table); a cardinality is at
# most the user count.
_CARDINALITY_USERS = st.shared(st.integers(1, 4), key="cardinality users")
_SIMULATE_FLAGS = {
    "sweep": ({"nt": st.integers(1, 2), "nr": st.integers(1, 3), "rate": st.floats(0.1, 4.0),
               "snr-db-list": _SNR_LISTS}, {"users": _USERS, "rate-convention": _CONVENTIONS}),
    "bracket": ({"sum-cap": _CAPS},
                {"users": _USERS, "nt": st.integers(1, 2), "nr": st.integers(1, 3)}),
    "cardinality": ({"users": _CARDINALITY_USERS, "sum-cap": _CAPS,
                     "cardinality": _CARDINALITY_USERS.flatmap(lambda n: st.integers(1, n))},
                    {}),
}


def _dashed(keys):
    return {k.replace("_", "-") for k in keys}


def test_each_figure_draws_exactly_the_flags_it_reads():
    for n, flags in _FIGURE_FLAGS.items():
        assert set(flags) == _dashed(cli._FIGURES[n].reads) - {"trials", "seed"}, n


def test_each_simulate_branch_draws_exactly_the_flags_it_reads():
    assert set(_SIMULATE_FLAGS) == set(cli._SIMULATE)
    for branch, (given, optional) in _SIMULATE_FLAGS.items():
        run = cli._SIMULATE[branch][1]
        assert set(given) | set(optional) == _dashed(run.reads) - {"trials", "seed"}, branch
        assert _dashed(run.requires) <= set(given), branch


@st.composite
def _fresh_line(draw, kind):
    """A valid command line of one kind of CSV run, with a few trials."""
    line = [f"--trials={draw(st.integers(1, 4))}", f"--seed={draw(st.integers(0, 99))}"]
    command, _, variant = kind.partition(" ")
    if command == "fig":
        flags = _FIGURE_FLAGS[int(variant)]
        # Figures 1 and 2 are analytic: they refuse --trials and --seed.
        return ["fig", variant] + (line if int(variant) > 2 else []) + [
            f for name, values in flags.items() for f in _flag(draw, name, values)]
    if command == "simulate":
        given, optional = _SIMULATE_FLAGS[variant]
        return (["simulate"] + [f"--{name}={draw(values)}" for name, values in given.items()]
                + line + [f for name, values in optional.items()
                          for f in _flag(draw, name, values)])
    precoder, mode = variant.split("/")
    users = st.just(2) if precoder == "bb" else _USERS   # bb pairs two users
    return ["if-sim", f"--users={draw(users)}", f"--sum-cap={draw(_CAPS)}",
            f"--precoder={precoder}", f"--mode={mode}"] + line + _flag(
                draw, "rate-convention", _CONVENTIONS)


def _manifest_text(path):
    """A manifest's bytes without its wall time and CSV path."""
    return re.sub(r'(?m)^  "(csv|wall_time_s)": .*\n', "", Path(path).read_text())


# fig 1-10, each simulate branch, and if-sim with each precoder and mode.
@pytest.mark.parametrize("kind", [f"fig {n}" for n in _FIGURE_FLAGS]
                         + [f"simulate {b}" for b in _SIMULATE_FLAGS]
                         + [f"if-sim {p}/{m}" for p in ("none", "bb", "haar")
                            for m in ("if", "if-sic")])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_rerun_reproduces_a_fresh_run_byte_for_byte(kind, data):
    argv = data.draw(_fresh_line(kind), label="argv")
    with tempfile.TemporaryDirectory() as tmp:
        fresh, replay = Path(tmp) / "fresh", Path(tmp) / "replay"
        assert main(argv + [f"--out={fresh}"]) == 0
        assert main(["rerun", f"--manifest={fresh}.json", f"--out={replay}"]) == 0
        assert Path(f"{replay}.csv").read_bytes() == Path(f"{fresh}.csv").read_bytes()
        assert _manifest_text(f"{replay}.json") == _manifest_text(f"{fresh}.json")


# One command line of each kind of CSV run, at a few trials: fig 1-10, each
# simulate branch (the bracket on scalar and on MIMO users), and if-sim with
# each precoder and mode.
_WRITER_RUNS = (
    [["fig", "1"], ["fig", "2"]]
    + [["fig", str(n), "--trials", "5"] for n in range(3, 11)]
    + [["simulate", "--nt", "2", "--nr", "2", "--rate", "1", "--snr-db-list", "0,10",
        "--trials", "5"],
       ["simulate", "--sum-cap", "2", "--trials", "5"],
       ["simulate", "--users", "3", "--nt", "2", "--nr", "2", "--sum-cap", "2", "--trials", "5"],
       ["simulate", "--users", "4", "--sum-cap", "8", "--cardinality", "2", "--trials", "5"]]
    + [["if-sim", "--sum-cap", "4", "--precoder", p, "--mode", m, "--trials", "3"]
       for p in ("none", "bb", "haar") for m in ("if", "if-sic")])


def _csv_module_bytes(path, rows):
    """The bytes csv.writer writes for the rows under _write_csv's header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["curve", "x", "y", "stderr"])
        writer.writerows([curve, cli._fmt(x), cli._fmt(y), cli._fmt(err)]
                         for curve, x, y, err in rows)
    return path.read_bytes()


@pytest.mark.parametrize("argv", _WRITER_RUNS, ids=" ".join)
def test_csv_bytes_equal_the_csv_module_on_every_run_kind(tmp_path, monkeypatch, capsys, argv):
    written = []
    write = cli._write_csv
    monkeypatch.setattr(cli, "_write_csv",
                        lambda path, rows: written.append(rows) or write(path, rows))
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    (rows,) = written
    assert rows and not any(set(curve) & set(',"\r\n') for curve, *_ in rows)
    assert (tmp_path / "run.csv").read_bytes() == _csv_module_bytes(tmp_path / "ref.csv", rows)


def test_csv_bytes_equal_the_csv_module_on_edge_values(tmp_path):
    rows = [("a", 0.0, -0.0, None), ("b", np.inf, -np.inf, 5e-324),
            ("c", np.float64(0.1), np.float64(-1e300), np.float64(2.5)),
            ("d", 1, np.float64("nan"), 0), ("e", -5e-324, 1.7976931348623157e308, None)]
    cli._write_csv(tmp_path / "run.csv", rows)
    assert (tmp_path / "run.csv").read_bytes() == _csv_module_bytes(tmp_path / "ref.csv", rows)
    assert (tmp_path / "run.csv").read_text().splitlines()[1:3] == [
        "a,0.0,-0.0,", "b,inf,-inf,5e-324"]


@pytest.mark.parametrize("argv", [
    ["fig", "4", "--trials", "5"],
    ["fig", "6", "--trials", "5", "--snr-db-list=-3.5,0,12"],
    ["if-sim", "--sum-cap", "4", "--trials", "3"],
    ["bound", "scalar-bracket", "--users", "4", "--rate", "4", "--sum-cap", "8"],
], ids=" ".join)
def test_manifest_bytes_equal_json_dump(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    doc = json.loads((tmp_path / "run.json").read_text())
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    assert (tmp_path / "run.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


# Each writer with a text that grows with n: the CSV with n rows, the
# manifest with an n-character parameter.
_WRITERS = {
    "csv": lambda path, n: cli._write_csv(path, [("c", float(i), 0.5, None) for i in range(n)]),
    "manifest": lambda path, n: cli._write_manifest(
        path, "fig", cli._Run(None, set()), {"pad": "p" * n}, 0.25, "run.csv"),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
@pytest.mark.parametrize("old", [5000, 10, None], ids=["over-longer", "over-shorter", "new"])
def test_writers_leave_exactly_the_new_bytes(tmp_path, writer, old):
    path, ref = tmp_path / "run", tmp_path / "ref"
    if old is not None:
        path.write_bytes(b"#" * old)
    _WRITERS[writer](path, 3)
    _WRITERS[writer](ref, 3)
    assert 10 < len(ref.read_bytes()) < 5000
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_writers_rewrite_an_existing_file_in_place(tmp_path, writer):
    # Same inode and mode, so a hard link sees the new bytes.
    path, link = tmp_path / "run", tmp_path / "link"
    _WRITERS[writer](path, 200)
    path.chmod(0o640)
    os.link(path, link)
    inode = path.stat().st_ino
    _WRITERS[writer](path, 3)
    assert path.stat().st_ino == inode
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    _WRITERS[writer](tmp_path / "ref", 3)
    assert link.read_bytes() == (tmp_path / "ref").read_bytes()


@pytest.mark.parametrize("writer", sorted(_WRITERS))
@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_a_new_file_takes_the_mode_open_gives(tmp_path, writer, umask):
    previous = os.umask(umask)
    try:
        open(tmp_path / "ref", "w").close()
        _WRITERS[writer](tmp_path / "run", 3)
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "run").stat().st_mode) == \
        stat.S_IMODE((tmp_path / "ref").stat().st_mode)


def test_bare_rerun_rewrites_its_own_files(tmp_path, monkeypatch, capsys):
    # fig N writes figN.csv and figN.json; a rerun with no --out writes back
    # onto the pair it replays, and must leave the same bytes each time.
    monkeypatch.chdir(tmp_path)
    for stem, argv in {"fig4": ["fig", "4", "--trials", "200"],
                       "fig6": ["fig", "6", "--trials", "50"]}.items():
        csv_path, manifest = tmp_path / f"{stem}.csv", tmp_path / f"{stem}.json"
        assert main(argv) == 0
        first_csv, first_doc = csv_path.read_bytes(), json.loads(manifest.read_text())
        for _ in range(2):
            assert main(["rerun", "--manifest", manifest.name]) == 0
            assert csv_path.read_bytes() == first_csv
            doc = json.loads(manifest.read_text())
            assert {**doc, "wall_time_s": 0} == {**first_doc, "wall_time_s": 0}
        # Padded with blank lines, the manifest is longer than its new text;
        # under a fixed clock it must hold exactly the bytes of a fresh write.
        manifest.write_text(manifest.read_text() + "\n" * 64)
        fresh = tmp_path / f"{stem}-fresh"
        fresh.mkdir()
        with monkeypatch.context() as fixed:
            fixed.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
            assert main(["rerun", "--manifest", manifest.name]) == 0
            fixed.chdir(fresh)   # the recorded CSV path is relative: new files here
            assert main(["rerun", "--manifest", str(manifest)]) == 0
        assert manifest.read_bytes() == (fresh / manifest.name).read_bytes()
        assert csv_path.read_bytes() == (fresh / csv_path.name).read_bytes() == first_csv


_PARAM_KEYS = {
    "fig": {"figure", "seed", "users", "nt", "nr", "sum_cap", "rate", "trials",
            "snr_db_list", "rate_convention"},
    "simulate": {"users", "sum_cap", "rate", "trials", "seed", "nt", "nr",
                 "cardinality", "snr_db_list", "rate_convention"},
    "if-sim": {"users", "sum_cap", "trials", "seed", "precoder", "mode",
               "rate_convention"},
    "bound": {"which", "users", "nt", "nr", "rate", "sum_cap", "mux"},
}


@pytest.mark.parametrize("argv", [
    ["fig", "1"],
    ["simulate", "--sum-cap", "2", "--trials", "20"],
    ["if-sim", "--sum-cap", "4", "--trials", "5"],
    ["bound", "atom", "--sum-cap", "2"],
])
def test_manifest_parameter_keys_are_pinned(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0
    doc = json.loads((tmp_path / "run.json").read_text())
    assert doc["command"] == argv[0]
    assert set(doc["params"]) == _PARAM_KEYS[argv[0]]


@pytest.mark.parametrize("argv", [
    ["simulate", "--users", "0", "--sum-cap", "2", "--trials", "0"],
    ["simulate", "--sum-cap", "2", "--trials", "0"],
    ["simulate", "--users", "0", "--sum-cap", "2", "--trials", "5"],
    ["simulate", "--users", "2", "--nt", "2", "--nr", "3", "--rate", "3",
     "--trials", "10", "--snr-db-list="],
    ["if-sim", "--sum-cap", "4", "--trials", "0"],
    ["if-sim", "--users", "0", "--sum-cap", "4", "--trials", "5"],
    ["fig", "4", "--trials", "0"],
    ["validate", "if", "--trials", "0"],
    ["validate", "montecarlo", "--trials", "0"],
    ["validate", "all", "--trials", "-3"],
])
def test_explicit_zero_is_a_value_not_a_missing_flag(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fadingmac: error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("nt, nr", [("0", "3"), ("2", "0"), ("0", "0")])
def test_simulate_rejects_zero_antenna_counts(tmp_path, monkeypatch, capsys, nt, nr):
    # A given 0 is a value, not a missing flag: it must not fall back to 1.
    monkeypatch.chdir(tmp_path)
    argv = ["simulate", "--users", "2", "--nt", nt, "--nr", nr, "--sum-cap", "4",
            "--trials", "10"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("fadingmac: error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("users", ["1", "0"])
def test_fig3_needs_two_users(tmp_path, monkeypatch, capsys, users):
    # Figure 3's curves run over subset sizes k = 1 .. N - 1: none at one user.
    monkeypatch.chdir(tmp_path)
    assert main(["fig", "3", "--users", users, "--trials", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "fadingmac: error: n_users must be an integer >= 2\n"
    assert list(tmp_path.iterdir()) == []


_IF_RANGE = ["if-sim --mode if-sic --precoder none", "if-sim --mode if-sic --precoder bb",
             "if-sim --mode if-sic --precoder haar", "if-sim --mode if --precoder haar",
             "fig 7", "fig 8", "fig 8 --users 3"]


@pytest.mark.parametrize("cap", [str(MAX_IF_CAPACITY_BITS + 1), "150"])
@pytest.mark.parametrize("argv", _IF_RANGE)
def test_capacities_above_the_if_range_exit_one(tmp_path, monkeypatch, capsys, argv, cap):
    # Integer forcing runs up to MAX_IF_CAPACITY_BITS: above it, if-sim,
    # fig 7 and fig 8 refuse the capacity with one line and write nothing.
    monkeypatch.chdir(tmp_path)
    assert main(argv.split() + ["--sum-cap", cap, "--trials", "60", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "fadingmac: error: integer forcing is limited to sum capacities up to "
        f"{MAX_IF_CAPACITY_BITS} bits"]
    assert list(tmp_path.iterdir()) == []
    assert main(argv.split() + ["--sum-cap", str(MAX_IF_CAPACITY_BITS), "--trials", "2",
                                "--out", "top"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["top.csv", "top.json"]


@pytest.mark.parametrize("argv", ["fig 7", "fig 8", "if-sim"])
def test_if_runs_report_the_if_range_before_the_trial_count(tmp_path, monkeypatch, capsys,
                                                            argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv.split() + ["--sum-cap", str(MAX_IF_CAPACITY_BITS + 1),
                                "--trials", "0"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "fadingmac: error: integer forcing is limited to sum capacities up to "
        f"{MAX_IF_CAPACITY_BITS} bits"]


def test_a_numerical_domain_error_exits_two(tmp_path, monkeypatch, capsys):
    # All-zero gains give a trial no direction on the capacity sphere: the
    # run stops with exit code 2 and one line, and writes no CSV or manifest.
    def zero_gammas(seed, trials, k, size):
        yield np.zeros((trials, size))

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(montecarlo, "trial_gammas", zero_gammas)
    assert main(["simulate", "--sum-cap", "2", "--trials", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "fadingmac: numerical error: capacity-sphere gains are all zero"]
    assert list(tmp_path.iterdir()) == []


# The flags, in order, and the choices each subcommand's --help lists.
_HELP = {
    "fig": (["--trials", "--seed", "--out", "--users", "--nr", "--nt", "--sum-cap", "--rate",
             "--snr-db-list", "--rate-convention"],
            ["{total,per-user}", "{1,2,3,4,5,6,7,8,9,10}"]),
    "bound": (["--users", "--nr", "--nt", "--rate", "--sum-cap", "--mux", "--out"],
              ["{two-user,atom,scalar-bracket,frobenius-union,simo,dmt}"]),
    "simulate": (["--trials", "--seed", "--out", "--users", "--nr", "--nt", "--sum-cap",
                  "--rate", "--snr-db-list", "--rate-convention", "--cardinality"],
                 ["{total,per-user}"]),
    "if-sim": (["--trials", "--seed", "--out", "--users", "--sum-cap", "--precoder", "--mode",
                "--rate-convention"],
               ["{bb,haar,none}", "{if,if-sic}", "{total,per-user}"]),
    "validate": (["--trials", "--seed"], ["{analytic,montecarlo,if,all}"]),
    "rerun": (["--manifest", "--out"], []),
}


@pytest.mark.parametrize("command", list(_HELP))
def test_help_lists_each_command_flags_and_choices(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    options = text.split("options:\n")[1]
    flags, choices = _HELP[command]
    assert re.findall(r"(?m)^  (--?[a-z-]+)", options) == ["-h"] + flags
    assert list(dict.fromkeys(re.findall(r"\{[^}]*\}", text))) == choices


def _fresh_process(code, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(fadingmac.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True).stdout


def test_parser_is_built_on_first_use_and_shared():
    assert _fresh_process("import fadingmac.cli as c; print(c.build_parser.cache_info())",
                          ".").strip().endswith("currsize=0)")
    assert build_parser() is build_parser()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # A usage error and a parameter error, then two runs, in one process ...
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    shared.mkdir()
    fresh.mkdir()
    with pytest.raises(SystemExit):
        main(["fig", "11"])
    assert main(["bound", "two-user", "--rate", "5", "--sum-cap", "4"]) == 1
    capsys.readouterr()
    runs = [["fig", "1", "--out", str(shared / "fig1")],
            ["bound", "atom", "--sum-cap", "2", "--out", str(shared / "atom")]]
    assert [main(argv) for argv in runs] == [0, 0]
    out = capsys.readouterr().out
    # ... print and write what the two runs alone write in a fresh process.
    code = ("from fadingmac.cli import main; "
            f"assert [main(a) for a in {runs!r}] == [0, 0]").replace(str(shared), str(fresh))
    assert _fresh_process(code, tmp_path) == out.replace(str(shared), str(fresh))
    assert (shared / "fig1.csv").read_bytes() == (fresh / "fig1.csv").read_bytes()
    for name in ("fig1.json", "atom.json"):
        docs = [json.loads((d / name).read_text()) for d in (shared, fresh)]
        for doc in docs:
            del doc["wall_time_s"]
            doc["csv"] = doc["csv"] and Path(doc["csv"]).name
        assert docs[0] == docs[1]
