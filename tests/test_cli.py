"""Command-line interface tests.

These drive main() in process with small trial counts: printed values,
exit codes, CSV/manifest layout, and byte-identical replay from a manifest.
"""

import csv
import json
from pathlib import Path

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


def test_rerun_rejects_bad_manifest(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "validate", "params": {}}))
    assert main(["rerun", "--manifest", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert main(["rerun", "--manifest", str(missing)]) == 1


def test_validate_analytic_suite_passes(capsys):
    assert main(["validate", "analytic"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_validate_if_suite_passes(capsys):
    assert main(["validate", "if", "--trials", "40"]) == 0
    assert "FAIL" not in capsys.readouterr().out


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("stem", ["fig2", "simulate-scalar"])
def test_rerun_reproduces_committed_outputs(tmp_path, capsys, stem):
    # Manifest and CSV pairs written by an earlier release
    # (`fig 2`; `simulate --users 2 --sum-cap 2 --trials 200 --seed 5`).
    out = tmp_path / f"{stem}.csv"
    assert main(["rerun", "--manifest", str(DATA / f"{stem}.json"),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{stem}.csv").read_bytes()


def test_fresh_manifests_record_the_committed_parameter_sets(tmp_path, capsys):
    runs = {"fig2": ["fig", "2"],
            "simulate-scalar": ["simulate", "--users", "2", "--sum-cap", "2",
                                "--trials", "200", "--seed", "5"]}
    for stem, argv in runs.items():
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
