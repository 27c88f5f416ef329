import csv
import importlib.metadata
import io
import json
import os
import platform

import numpy as np
import pytest

from ptlab import cli, experiments
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


def test_exactprob_without_finite_transition(capsys):
    # Q_mb(0) = (15/16)^B is already below 1 - 1/e: the table is still
    # written, and stderr says there is no transition
    code, out, err = run_cli(capsys, "exactprob", "--M", "8", "--m", "6",
                             "--B", "100000")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["ell"] for r in rows] == [str(ell) for ell in range(9)]
    assert float(rows[0]["q_sb"]) == 1.0 - 1.0 / 16.0
    assert err.startswith("# no finite transition")


def test_predict_complex_offset(capsys, tmp_path):
    out_file = tmp_path / "pred.csv"
    code, _, _ = run_cli(capsys, "predict", "--coeffset", "C", "--M", "192",
                         "--B", "192", "--delta", "0.5", "-o", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert len(rows) == 1
    assert float(rows[0]["rel_offset_second"]) == \
        pytest.approx(0.19482, abs=5e-6)
    assert rows[0]["extrapolated"] == "False"


def test_predict_prints_both_orders(capsys):
    code, out, _ = run_cli(capsys, "predict", "--coeffset", "box01",
                           "--M", "48", "--B", "48", "--delta", "0.75")
    assert code == 0
    row, = csv.DictReader(io.StringIO(out))
    assert "order" not in row and "rel_offset" not in row
    eps_asy = float(row["eps_asy"])
    for order in ("first", "second"):
        assert float(row[f"eps_bd_{order}"]) == \
            eps_asy * (1.0 - float(row[f"rel_offset_{order}"]))
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--coeffset", "C", "--M", "192", "--B", "192",
              "--delta", "0.5", "--order", "2"])
    assert exc.value.code == 2


def test_predict_bad_input_writes_nothing(capsys, tmp_path):
    out_file = tmp_path / "pred.csv"
    for M, B, deltas in (("48", "1", ["0.75"]), ("1", "48", ["0.75"]),
                         ("48", "48", ["0"]), ("48", "48", ["1.5"]),
                         ("48", "48", ["0.5", "0"])):
        argv = ["predict", "--coeffset", "C", "--M", M, "--B", B,
                "--delta", *deltas]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")
        assert run_cli(capsys, *argv, "-o", str(out_file))[0] == 2
        assert not out_file.exists()


def test_exactprob_refuses_bad_sizes(capsys, tmp_path):
    out_file = tmp_path / "exact.csv"
    for M, m in (("-3", "2"), ("8", "9"), ("8", "0"), ("0", "1")):
        argv = ["exactprob", "--M", M, "--m", m]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: need 1 <= m <= M, got m={m}, M={M}\n"
        assert run_cli(capsys, *argv, "-o", str(out_file))[0] == 2
        assert not out_file.exists()


def test_predict_repeated_delta_flag_extends_the_list(capsys):
    argv = ["predict", "--coeffset", "real", "--M", "24", "--B", "24"]
    code, out, _ = run_cli(capsys, *argv, "--delta", "0.5", "--delta", "0.6")
    assert code == 0
    assert [r["delta"] for r in csv.DictReader(io.StringIO(out))] == \
        ["0.5", "0.6"]
    assert run_cli(capsys, *argv, "--delta", "0.5", "0.6")[1] == out


def test_exactprob_qstar_outside_unit_interval_is_refused(capsys, tmp_path):
    out_file = tmp_path / "exact.csv"
    for q_star in ("1.5", "1", "0", "-0.2", "nan"):
        argv = ["exactprob", "--M", "6", "--m", "4", "--B", "2",
                "--qstar", q_star]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "q_star must lie in (0, 1)" in err
        assert run_cli(capsys, *argv, "-o", str(out_file))[0] == 2
        assert not out_file.exists()


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


# the block every manifest held while the solver settings were configurable
MANIFEST_SOLVER_BLOCK = {"tol": 1e-9, "feas_tol": 1e-7, "max_iters": 50000,
                         "rho": 1.0}


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


def test_manifest_records_environment(capsys, tmp_path):
    path = trial_config(tmp_path)
    assert run_cli(capsys, "trials", "--config", str(path),
                   "-o", str(tmp_path / "a"), "--jobs", "1")[0] == 0
    env = json.loads((tmp_path / "a" / "manifest.json").read_text())[
        "environment"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "blas_version",
                        "cores"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert env["scipy"] == importlib.metadata.version("scipy")
    assert isinstance(env["blas"], str) and isinstance(env["blas_version"], str)
    assert 1 <= env["cores"] <= os.cpu_count()


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
             "ell_value"),
            ("trials", dict(cfg, master_seed=9, ell_values=[0, 1, 2]),
             "ell_values"),
            # older manifests carry these; both are refused as unknown keys
            ("trials", dict(cfg, master_seed=9, jobs=4), "jobs"),
            ("grid", dict(cfg, master_seed=9, jobs=4), "jobs"),
            ("trials", dict(cfg, master_seed=9, solver=MANIFEST_SOLVER_BLOCK),
             "solver"),
            ("grid", dict(cfg, master_seed=9, solver=MANIFEST_SOLVER_BLOCK),
             "solver")):
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, command, "--config", str(path),
                               "-o", str(tmp_path / "out"), "--jobs", "1")
        assert code == 2
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


def test_config_value_errors_exit_2(capsys, tmp_path):
    cfg = json.loads(trial_config(tmp_path).read_text())   # dbuse, m=3
    path = tmp_path / "bad.json"
    for command, bad, message in (
            ("trials", dict(cfg, S=0), "S >= 1 trials, got 0"),
            ("grid", dict(cfg, S=0), "S >= 1 trials, got 0"),
            ("trials", dict(cfg, S=-4), "S >= 1 trials, got -4"),
            ("grid", dict(cfg, S=-4), "S >= 1 trials, got -4"),
            ("trials", dict(cfg, ensemble="rbpft", m=5, K=[0, 1, 2]),
             "K has 3 entries, but m = 5"),
            ("trials", dict(cfg, ensemble="rbpft", K=[]),
             "K has 0 entries, but m = 3"),
            ("trials", dict(cfg, K=[0, 1, 2]), "'dbuse' has no use for it"),
            ("grid", dict(cfg, ensemble="rbuse", K=[0, 1, 2]),
             "'rbuse' has no use for it"),
            ("grid", dict(cfg, ell_values=[0, 6]),
             "need 0 <= ell <= M, got ell=6, M=5")):
        path.write_text(json.dumps(bad))
        code, _, err = run_cli(capsys, command, "--config", str(path),
                               "-o", str(tmp_path / "out"), "--jobs", "1")
        assert code == 2
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


def test_config_size_errors_exit_2(capsys, tmp_path, monkeypatch):
    # refused when the config loads, so no process pool ever starts
    starts = []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    cfg = json.loads(trial_config(tmp_path).read_text())   # dbuse 3x5, B=2
    path = tmp_path / "bad.json"
    for bad, message in ((dict(cfg, B=0), "B must be at least 1, got 0"),
                         (dict(cfg, m=9, M=8), "need 1 <= m <= M, got m=9, M=8"),
                         (dict(cfg, m=0), "need 1 <= m <= M, got m=0, M=5"),
                         (dict(cfg, ell=-1), "need 0 <= ell <= M, got ell=-1, M=5"),
                         (dict(cfg, ell=6), "need 0 <= ell <= M, got ell=6, M=5"),
                         # a grid runs each cell it names exactly once
                         (dict(cfg, ell_values=[]),
                          "ell_values is empty: a grid needs a cell"),
                         (dict(cfg, ell_values=[1, 1, 2, 0]),
                          "ell_values repeats an ell: [1, 1, 2, 0]"),
                         (dict(cfg, ell_values=[1.5, 2]),
                          "config key ell_values: 1.5 is not an integer")):
        path.write_text(json.dumps(bad))
        for command in ("trials", "grid"):
            code, out, err = run_cli(capsys, command, "--config", str(path),
                                     "-o", str(tmp_path / "out"), "--jobs", "2")
            assert code == 2 and out == ""
            assert err == f"error: {message}\n"
            assert not (tmp_path / "out").exists()
    assert starts == []


def test_config_values_must_be_json_integers(capsys, tmp_path):
    # 1.7, true, "4" and null are not JSON integers: each is refused, never
    # rounded or coerced
    cfg = json.loads(trial_config(tmp_path).read_text())   # dbuse 3x5, B=2
    rbpft = dict(cfg, ensemble="rbpft")
    path = tmp_path / "bad.json"
    for bad, key in ((dict(cfg, ell=1.7), "ell"),
                     (dict(cfg, ell=True), "ell"),
                     (dict(cfg, S="4"), "S"),
                     (dict(cfg, S=None), "S"),
                     (dict(cfg, m=3.0), "m"),
                     (dict(cfg, M=False), "M"),
                     (dict(cfg, B=[2]), "B"),
                     (dict(cfg, master_seed=9.5), "master_seed"),
                     (dict(rbpft, K=[0, 1.0, 2]), "K"),
                     (dict(rbpft, K=[0, True, 2]), "K"),
                     (dict(rbpft, K="012"), "K"),
                     (dict(cfg, ell_values=[1.5, 2]), "ell_values"),
                     (dict(cfg, ell_values=[0, None]), "ell_values"),
                     (dict(cfg, ell_values=3), "ell_values")):
        path.write_text(json.dumps(bad))
        for command in ("trials", "grid"):
            code, out, err = run_cli(capsys, command, "--config", str(path),
                                     "-o", str(tmp_path / "out"),
                                     "--jobs", "1")
            assert code == 2 and out == ""
            assert err.startswith(f"error: config key {key}: ")
            assert err.count("\n") == 1
            assert not (tmp_path / "out").exists()
    # K and ell_values may be null
    for good in (dict(cfg, K=None), dict(cfg, ell_values=None)):
        path.write_text(json.dumps(good))
        assert run_cli(capsys, "trials", "--config", str(path),
                       "-o", str(tmp_path / "ok"), "--jobs", "1")[0] == 0


def test_unreadable_inputs_exit_2(capsys, tmp_path):
    not_an_object = tmp_path / "number.json"
    not_an_object.write_text("42")
    missing = str(tmp_path / "none.json")
    campaign = ["-o", str(tmp_path / "out"), "--jobs", "1"]
    for argv, message in (
            (["trials", "--config", missing, *campaign], "No such file"),
            (["grid", "--config", missing, *campaign], "No such file"),
            (["trials", "--config", str(not_an_object), *campaign],
             "a config is a JSON object, got int"),
            (["fit", "--input", str(tmp_path / "none.csv"),
              "-o", str(tmp_path / "out" / "fit.csv")], "No such file")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()


def test_grid_default_window_at_one_block(capsys, tmp_path):
    # no ell_values: the window centres on the asymptotic curve at B = 1
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"ensemble": "dbuse", "coeffset": "box01",
                                "ell": 0, "m": 3, "M": 4, "B": 1, "S": 4,
                                "master_seed": 5}))
    code, _, _ = run_cli(capsys, "grid", "--config", str(path),
                         "-o", str(tmp_path / "g"), "--jobs", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(
        (tmp_path / "g" / "success_table.csv").read_text())))
    assert [int(r["ell"]) for r in rows] == [0, 1, 2, 3, 4]


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


def test_jobs_default_is_the_usable_cores(monkeypatch):
    # under taskset the affinity mask, not os.cpu_count(), says how many
    # cores a campaign may use; the default and the manifest both read it
    parse = cli.build_parser().parse_args
    assert parse(["grid", "--config", "c", "-o", "o"]).jobs == \
        len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    for command in ("trials", "grid"):
        assert cli.build_parser().parse_args(
            [command, "--config", "c", "-o", "o"]).jobs == 1
    assert cli._environment()["cores"] == 1


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
    # 3 workers split each cell's 10 trials into chunks of 4, 4 and 2
    path = grid_config(tmp_path)
    for jobs in ("1", "2", "3"):
        code, _, _ = run_cli(capsys, "grid", "--config", str(path),
                             "-o", str(tmp_path / f"j{jobs}"), "--jobs", jobs)
        assert code == 0
    table = (tmp_path / "j1" / "success_table.csv").read_bytes()
    for jobs in ("2", "3"):
        assert (tmp_path / f"j{jobs}" / "success_table.csv").read_bytes() \
            == table


def test_trials_csv_independent_of_jobs(capsys, tmp_path):
    # 7 trials over 3 workers: chunks of 3, 3 and 1 trials
    path = trial_config(tmp_path)
    path.write_text(json.dumps(dict(json.loads(path.read_text()), S=7)))
    manifests = []
    for jobs in ("1", "3"):
        code, _, _ = run_cli(capsys, "trials", "--config", str(path),
                             "-o", str(tmp_path / f"j{jobs}"), "--jobs", jobs)
        assert code == 0
        manifests.append(json.loads(
            (tmp_path / f"j{jobs}" / "manifest.json").read_text()))
    assert (tmp_path / "j1" / "trials.csv").read_bytes() == \
        (tmp_path / "j3" / "trials.csv").read_bytes()
    assert manifests[0]["config"] == manifests[1]["config"]
    assert [m["jobs"] for m in manifests] == [1, 3]


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
    assert experiments.ExperimentConfig.from_dict(
        manifest["config"]).ell_values == (2, 0, 1)


def test_trials_manifest_reruns(capsys, tmp_path):
    # a trials manifest's config holds "ell_values": null, and reruns
    path = trial_config(tmp_path)
    assert run_cli(capsys, "trials", "--config", str(path),
                   "-o", str(tmp_path / "a"), "--jobs", "1")[0] == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["config"]["ell_values"] is None
    rerun = tmp_path / "rerun.json"
    rerun.write_text(json.dumps(manifest["config"]))
    assert run_cli(capsys, "trials", "--config", str(rerun),
                   "-o", str(tmp_path / "b"), "--jobs", "1")[0] == 0
    for name in ("trials.csv", "success_table.csv"):
        assert (tmp_path / "b" / name).read_bytes() == \
            (tmp_path / "a" / name).read_bytes()


def test_grid_rejects_changed_solver_settings(capsys, tmp_path):
    cfg = json.loads(grid_config(tmp_path).read_text())
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(dict(
        cfg, solver=dict(MANIFEST_SOLVER_BLOCK, max_iters=10))))
    code, _, err = run_cli(capsys, "grid", "--config", str(path),
                           "-o", str(tmp_path / "out"), "--jobs", "1")
    assert code == 2
    assert "unknown ['solver']" in err
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
    with open(tmp_path / "table.csv", "w", newline="") as fh:
        SuccessTable(rows).to_csv(fh)
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


def test_fit_refuses_rising_success_rate(capsys, tmp_path):
    # success rises with sparsity: the fit converges with slope b > 0, and
    # -a/b is no transition, so the group is refused like a separation
    rows = [SuccessRow(ell, 4, 8, 2, 40, s, s / 40, "dbuse", "real", 3)
            for ell, s in enumerate([0, 5, 15, 30, 38, 40])]
    table = tmp_path / "table.csv"
    with open(table, "w", newline="") as fh:
        SuccessTable(rows).to_csv(fh)
    fit_out = tmp_path / "fit.csv"
    code, _, err = run_cli(capsys, "fit", "--input", str(table),
                           "-o", str(fit_out))
    assert code == 1
    assert "# fit failed at (m=4, M=8, B=2)" in err
    assert "negative" in err
    assert fit_out.read_text() == "m,M,B,delta,eps_star,se\n"


def test_fit_refuses_impossible_cells(capsys, tmp_path):
    # no cell has S = 0 trials, nor more successes than trials, nor fewer
    # than none: the table is refused before any fit, with no -o file
    header = ",".join(CSV_COLUMNS)
    good = ["0,4,8,2,6,6,1.0,dbuse,real,3", "1,4,8,2,6,3,0.5,dbuse,real,3"]
    table = tmp_path / "table.csv"
    fit_out = tmp_path / "fit.csv"
    for bad, message in (("2,4,8,2,0,0,0.0,dbuse,real,3",
                          "got successes=0, S=0 at ell=2"),
                         ("2,4,8,2,6,9,1.5,dbuse,real,3",
                          "got successes=9, S=6 at ell=2"),
                         ("2,4,8,2,6,-1,0.0,dbuse,real,3",
                          "got successes=-1, S=6 at ell=2")):
        table.write_text("\n".join([header, *good, bad]) + "\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(table),
                                 "-o", str(fit_out))
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err and "Warning" not in err
        assert not fit_out.exists()


def test_fit_table_missing_a_column_is_refused(capsys, tmp_path):
    rows = [SuccessRow(ell, 4, 8, 2, 40, s, s / 40, "dbuse", "real", 3)
            for ell, s in enumerate([40, 38, 30, 15, 5, 0])]
    buf = io.StringIO()
    SuccessTable(rows).to_csv(buf)
    table = tmp_path / "table.csv"
    with open(table, "w", newline="") as fh:
        for rec in csv.reader(io.StringIO(buf.getvalue())):
            fh.write(",".join(rec[:-1]) + "\n")  # drop the seed column
    fit_out = tmp_path / "fit.csv"
    code, out, err = run_cli(capsys, "fit", "--input", str(table),
                             "-o", str(fit_out))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "['seed']" in err
    assert not fit_out.exists()
    # a row shorter than the header is refused the same way
    with open(table, "w", newline="") as fh:
        fh.write(buf.getvalue().splitlines()[0] + "\n1,4,8,2,40,38\n")
    code, out, err = run_cli(capsys, "fit", "--input", str(table),
                             "-o", str(fit_out))
    assert code == 2 and out == "" and err.startswith("error:")
    assert not fit_out.exists()


def test_test_subcommand_json(capsys):
    code, out, _ = run_cli(capsys, "test", "--ybar", "0.0045", "--S", "10000",
                           "--B", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "no_decision"
    assert payload["mu"] == pytest.approx(0.0045868, abs=1e-7)


def test_test_rejects_impossible_failure_fractions(capsys):
    for fraction in (["--failures", "50"], ["--failures", "-2"],
                     ["--ybar", "1.7"], ["--ybar", "-0.1"]):
        code, out, err = run_cli(capsys, "test", *fraction, "--S", "10",
                                 "--B", "4")
        assert code == 2
        assert "must lie in [0, 1]" in err and out == ""
    for argv in (["--ybar", "0.1", "--failures", "1", "--S", "10"],
                 ["--S", "10"], ["--failures", "1", "--S", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(["test", *argv, "--B", "4"])
        assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_subcommand(capsys, tmp_path):
    out_file = tmp_path / "verify.json"
    code, _, _ = run_cli(capsys, "verify", "--instances", "2",
                         "-o", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["pass"] is True
    assert len(report["gram"]) == 4


def test_verify_instances_below_one_is_usage_error(capsys, tmp_path):
    out_file = tmp_path / "verify.json"
    for instances in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--instances", instances, "-o", str(out_file)])
        assert exc.value.code == 2
        assert "--instances" in capsys.readouterr().err
    assert not out_file.exists()
