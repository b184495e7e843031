"""Command-line interface tests.

These drive main() in process with small trial counts: printed values,
exit codes, CSV/manifest layout, and byte-identical replay from a manifest.
"""

import csv
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from fadingmac.cli import main


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


def test_bound_writes_manifest(tmp_path, capsys):
    stem = tmp_path / "atom"
    code = main(["bound", "atom", "--sum-cap", "2", "--out", str(stem)])
    assert code == 0
    doc = json.loads((tmp_path / "atom.json").read_text())
    assert doc["command"] == "bound"
    assert abs(doc["result"]["value"] - 1.0 / 3.0) < 1e-12
    assert doc["csv"] is None
    assert "version" in doc and "wall_time_s" in doc


def test_bound_missing_parameter_exits_one(capsys):
    assert main(["bound", "two-user", "--rate", "2"]) == 1
    assert "error" in capsys.readouterr().err


def test_bound_invalid_parameter_exits_one(capsys):
    assert main(["bound", "two-user", "--rate", "3", "--sum-cap", "2"]) == 1
    assert "error" in capsys.readouterr().err


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
    assert doc["rng_layout"] == 2
    assert doc["numpy"] == np.__version__
    assert doc["python"] == platform.python_version()


@pytest.mark.parametrize("layout", [None, 1, 3])
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
    assert f"RNG layout {layout or 1}" in err and "layout 2" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--users", "2", "--sum-cap", "1100", "--trials", "3"], 1),
    (["if-sim", "--users", "2", "--sum-cap", "1100", "--trials", "3"], 1),
    (["if-sim", "--users", "2", "--sum-cap", "500", "--trials", "3", "--precoder", "none"], 2),
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


DATA = Path(__file__).parent / "data"


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
    "fig8": ["fig", "8", "--trials", "20", "--seed", "5"],
    "fig9": ["fig", "9", "--trials", "100", "--seed", "5"],
    "simulate-cardinality": ["simulate", "--users", "4", "--sum-cap", "8", "--cardinality", "2",
                             "--trials", "200", "--seed", "5"],
    "simulate-scalar": ["simulate", "--users", "2", "--sum-cap", "2",
                        "--trials", "200", "--seed", "5"],
    "simulate-mimo": ["simulate", "--users", "3", "--nt", "2", "--nr", "2",
                      "--sum-cap", "8", "--trials", "200", "--seed", "5"],
}


@pytest.mark.parametrize("stem", sorted(_COMMITTED_RUNS))
def test_rerun_reproduces_committed_outputs(tmp_path, capsys, stem):
    # Manifest and CSV pairs written by an earlier release.
    out = tmp_path / f"{stem}.csv"
    assert main(["rerun", "--manifest", str(DATA / f"{stem}.json"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{stem}.csv").read_bytes()


def test_fresh_manifests_record_the_committed_parameter_sets(tmp_path, capsys):
    for stem, argv in _COMMITTED_RUNS.items():
        assert main(argv + ["--out", str(tmp_path / stem)]) == 0
        fresh = json.loads((tmp_path / f"{stem}.json").read_text())
        committed = json.loads((DATA / f"{stem}.json").read_text())
        assert fresh["params"] == committed["params"]
        assert (tmp_path / f"{stem}.csv").read_bytes() == (DATA / f"{stem}.csv").read_bytes()


_PARAM_KEYS = {
    "fig": {"figure", "seed", "users", "nt", "nr", "sum_cap", "rate", "trials",
            "snr_db_list", "rate_convention"},
    "simulate": {"users", "sum_cap", "rate", "trials", "seed", "nt", "nr",
                 "cardinality", "snr_db_list", "rate_convention"},
    "if-sim": {"users", "sum_cap", "trials", "seed", "precoder", "mode",
               "rate_convention"},
    "bound": {"which", "users", "nt", "nr", "rate", "sum_cap", "mux", "seed"},
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
