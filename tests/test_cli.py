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
    rows = list(csv.DictReader(open(out_file)))
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
    rows = list(csv.DictReader(open(tmp_path / "a" / "trials.csv")))
    for r in rows:
        v = float(r["rel_error"])
        assert repr(v) == r["rel_error"]


def test_env_seed_override(capsys, tmp_path, monkeypatch):
    path = trial_config(tmp_path, seed=9)
    monkeypatch.setenv("PTLAB_SEED", "1234")
    run_cli(capsys, "trials", "--config", str(path), "-o", str(tmp_path / "a"), "--jobs", "1")
    man = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert man["master_seed"] == 1234


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
    rows = list(csv.DictReader(open(table_path)))
    assert len(rows) == 6
    fit_out = tmp_path / "fit.csv"
    code, _, _ = run_cli(capsys, "fit", "--input", str(table_path),
                         "--link", "cll", "-o", str(fit_out))
    assert code == 0
    fit_rows = list(csv.DictReader(open(fit_out)))
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
    assert len(list(csv.DictReader(open("fit.csv")))) == 1


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
