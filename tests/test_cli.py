import csv
import io
import json
import os

import numpy as np
import pytest

from ptlab import cli
from ptlab.cli import main
from ptlab.experiments import CSV_COLUMNS, SuccessRow, SuccessTable


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exactprob_table(capsys):
    code, out, err = run_cli(capsys, "exactprob", "--M", "6", "--m", "4",
                             "--B", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["ell"] == "0"
    by_ell = {r["ell"]: r for r in rows}
    assert float(by_ell["2"]["q_sb"]) == 0.5
    assert "ell* = 2" in err


def test_predict_complex_offset(capsys, tmp_path):
    out_file = tmp_path / "pred.csv"
    code, _, _ = run_cli(capsys, "predict", "--coeffset", "C", "--M", "192",
                         "--B", "192", "--delta", "0.5", "--order", "2",
                         "-o", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert len(rows) == 1
    assert float(rows[0]["rel_offset"]) == pytest.approx(0.19482, abs=5e-6)
    assert rows[0]["extrapolated"] == "False"


def test_missing_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--coeffset", "C"])
    assert exc.value.code != 0


def test_guard_violation_exit_code(capsys, tmp_path):
    cfg = {"ensemble": "dbuse", "coeffset": "box01", "ell": 2, "m": 32,
           "M": 64, "B": 65, "S": 2, "master_seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "trials", "--config", str(path),
                             "-o", str(tmp_path / "out"))
    assert code == 2
    assert "guard" in err


def trial_config(tmp_path, seed=9):
    cfg = {"ensemble": "dbuse", "coeffset": "real", "ell": 1, "m": 3,
           "M": 5, "B": 2, "S": 6, "master_seed": seed}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_trials_reproducible_artifacts(capsys, tmp_path):
    path = trial_config(tmp_path)
    code, _, _ = run_cli(capsys, "trials", "--config", str(path),
                         "-o", str(tmp_path / "a"), "--jobs", "1")
    assert code == 0
    code, _, _ = run_cli(capsys, "trials", "--config", str(path),
                         "-o", str(tmp_path / "b"), "--jobs", "1")
    assert code == 0
    csv_a = (tmp_path / "a" / "trials.csv").read_bytes()
    csv_b = (tmp_path / "b" / "trials.csv").read_bytes()
    assert csv_a == csv_b
    man_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    man_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    man_a.pop("timestamp")
    man_b.pop("timestamp")
    assert man_a == man_b


def test_trials_csv_numbers_round_trip(capsys, tmp_path):
    path = trial_config(tmp_path)
    run_cli(capsys, "trials", "--config", str(path), "-o", str(tmp_path / "a"), "--jobs", "1")
    rows = list(csv.DictReader(io.StringIO(
        (tmp_path / "a" / "trials.csv").read_text())))
    for r in rows:
        v = float(r["rel_error"])
        assert repr(v) == r["rel_error"]


def test_config_key_errors_exit_2(capsys, tmp_path):
    cfg = json.loads(trial_config(tmp_path).read_text())
    del cfg["master_seed"]
    path = tmp_path / "bad.json"
    for command, bad, key in (
            ("trials", cfg, "master_seed"),
            ("trials", dict(cfg, master_seed=9, matrix_polcy="fixed"),
             "matrix_polcy"),
            ("grid", dict(cfg, master_seed=9, ell_value=[0, 1]),
             "ell_value")):
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, command, "--config", str(path),
                               "-o", str(tmp_path / "out"), "--jobs", "1")
        assert code == 2
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


def test_jobs_below_one_is_usage_error(capsys, tmp_path):
    path = trial_config(tmp_path)
    for jobs in ("0", "-3"):
        for command in ("trials", "grid"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(path),
                      "-o", str(tmp_path / "out"), "--jobs", jobs])
            assert exc.value.code == 2
            assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert cli.build_parser().parse_args(
        ["trials", "--config", "c", "-o", "o"]).jobs == (os.cpu_count() or 1)


def test_grid_then_fit_round_trip(capsys, tmp_path):
    cfg = {"ensemble": "dbuse", "coeffset": "real", "ell": 0, "m": 4,
           "M": 8, "B": 2, "S": 40, "master_seed": 3,
           "ell_values": [0, 1, 2, 3, 4, 5]}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    code, _, _ = run_cli(capsys, "grid", "--config", str(path),
                         "-o", str(tmp_path / "g"), "--jobs", "1")
    assert code == 0
    table_path = tmp_path / "g" / "success_table.csv"
    rows = list(csv.DictReader(io.StringIO(table_path.read_text())))
    assert len(rows) == 6
    fit_out = tmp_path / "fit.csv"
    code, _, _ = run_cli(capsys, "fit", "--input", str(table_path),
                         "--link", "cll", "-o", str(fit_out))
    assert code == 0
    fit_rows = list(csv.DictReader(io.StringIO(fit_out.read_text())))
    assert len(fit_rows) == 1
    assert 0.0 < float(fit_rows[0]["eps_star"]) < 1.0


def grid_config(tmp_path):
    cfg = {"ensemble": "dbuse", "coeffset": "real", "ell": 0, "m": 4,
           "M": 8, "B": 2, "S": 10, "master_seed": 5,
           "ell_values": [0, 1, 2, 3, 4]}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(cfg))
    return path


def test_grid_table_independent_of_jobs(capsys, tmp_path):
    path = grid_config(tmp_path)
    for jobs in ("1", "2"):
        code, _, _ = run_cli(capsys, "grid", "--config", str(path),
                             "-o", str(tmp_path / f"j{jobs}"), "--jobs", jobs)
        assert code == 0
    assert (tmp_path / "j1" / "success_table.csv").read_bytes() == \
        (tmp_path / "j2" / "success_table.csv").read_bytes()


def test_grid_manifest_reproduces_table(capsys, tmp_path):
    path = tmp_path / "grid.json"
    cfg = json.loads(grid_config(tmp_path).read_text())
    path.write_text(json.dumps(dict(cfg, ell_values=[2, 0, 1])))
    code, _, _ = run_cli(capsys, "grid", "--config", str(path),
                         "-o", str(tmp_path / "a"), "--jobs", "1")
    assert code == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    rerun = tmp_path / "rerun.json"
    rerun.write_text(json.dumps(manifest["config"]))
    code, _, _ = run_cli(capsys, "grid", "--config", str(rerun),
                         "-o", str(tmp_path / "b"), "--jobs", "1")
    assert code == 0
    table = (tmp_path / "a" / "success_table.csv").read_bytes()
    assert len(table.splitlines()) == 4
    assert (tmp_path / "b" / "success_table.csv").read_bytes() == table
    assert manifest["config"]["ell_values"] == [2, 0, 1]


MANIFEST_SOLVER_BLOCK = {"tol": 1e-9, "feas_tol": 1e-7, "max_iters": 50000,
                         "rho": 1.0}


def test_grid_default_solver_block_gives_same_table(capsys, tmp_path):
    cfg = json.loads(grid_config(tmp_path).read_text())
    with_block = tmp_path / "with_block.json"
    with_block.write_text(json.dumps(dict(cfg, solver=MANIFEST_SOLVER_BLOCK)))
    for name, path in (("plain", tmp_path / "grid.json"),
                       ("block", with_block)):
        code, _, _ = run_cli(capsys, "grid", "--config", str(path),
                             "-o", str(tmp_path / name), "--jobs", "1")
        assert code == 0
    assert (tmp_path / "plain" / "success_table.csv").read_bytes() == \
        (tmp_path / "block" / "success_table.csv").read_bytes()


def test_grid_rejects_changed_solver_settings(capsys, tmp_path):
    cfg = json.loads(grid_config(tmp_path).read_text())
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(dict(
        cfg, solver=dict(MANIFEST_SOLVER_BLOCK, max_iters=10))))
    code, _, err = run_cli(capsys, "grid", "--config", str(path),
                           "-o", str(tmp_path / "out"), "--jobs", "1")
    assert code == 2
    assert "solver settings are fixed" in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--config", str(tmp_path / "grid.json"),
              "-o", str(tmp_path / "out"), "--max-iters", "10"])
    assert exc.value.code == 2


def test_interrupted_grid_leaves_no_partial_table(tmp_path, monkeypatch):
    def interrupted_to_csv(self, fh):
        fh.write(",".join(CSV_COLUMNS) + "\n")
        raise KeyboardInterrupt

    monkeypatch.setattr(SuccessTable, "to_csv", interrupted_to_csv)
    path = grid_config(tmp_path)
    outdir = tmp_path / "g"
    with pytest.raises(KeyboardInterrupt):
        main(["grid", "--config", str(path), "-o", str(outdir),
              "--jobs", "1"])
    assert os.listdir(outdir) == []


def test_interrupted_fit_leaves_no_partial_output(capsys, tmp_path,
                                                   monkeypatch):
    rows = [SuccessRow(ell, 4, 8, 2, 40, s, s / 40, "dbuse", "real", 3)
            for ell, s in enumerate([40, 38, 30, 15, 5, 0])]
    (tmp_path / "table.csv").write_text(SuccessTable(rows).to_csv_string())
    monkeypatch.chdir(tmp_path)   # "-o fit.csv" has no directory part

    def interrupted_fit(table, link):
        raise KeyboardInterrupt

    with monkeypatch.context() as patch:
        patch.setattr(cli, "fit_quantal", interrupted_fit)
        with pytest.raises(KeyboardInterrupt):
            main(["fit", "--input", "table.csv", "-o", "fit.csv"])
    assert os.listdir(tmp_path) == ["table.csv"]
    code, _, _ = run_cli(capsys, "fit", "--input", "table.csv",
                         "-o", "fit.csv")
    assert code == 0
    with open("fit.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 1


def test_test_subcommand_json(capsys):
    code, out, _ = run_cli(capsys, "test", "--ybar", "0.0045", "--S", "10000",
                           "--B", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "no_decision"
    assert payload["mu"] == pytest.approx(0.0045868, abs=1e-7)


def test_verify_subcommand(capsys, tmp_path):
    out_file = tmp_path / "verify.json"
    code, _, _ = run_cli(capsys, "verify", "--instances", "2",
                         "-o", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["pass"] is True
    assert len(report["gram"]) == 4
