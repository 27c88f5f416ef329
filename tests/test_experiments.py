import io
import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from ptlab import experiments
from ptlab.coeffsets import CoeffSet
from ptlab.ensembles import ProblemSizes
from ptlab.exactprob import q_sb_exact
from ptlab.experiments import (ExperimentConfig, SuccessRow, SuccessTable,
                               run_phase_grid, run_trials, summarize)
from ptlab.oracle import RESIDUAL_CERT
from ptlab.predict import predict_pt
from ptlab.solver import DEFAULT_OPTIONS, max_batch


def tiny_config(**kw):
    base = dict(ensemble="dbuse", coeff_set=CoeffSet.BOX01, ell=2, m=3, M=4,
                B=1, S=8, master_seed=77)
    base.update(kw)
    return ExperimentConfig(**base)


def test_zero_trials():
    # a campaign of no trials is refused when its config is built
    with pytest.raises(ValueError,
                       match="a campaign needs S >= 1 trials, got 0"):
        ExperimentConfig(ensemble="dbuse", coeff_set=CoeffSet.BOX01, ell=2,
                         m=3, M=4, B=1, S=0, master_seed=77)


def test_determinism_same_seed():
    a = run_trials(tiny_config(S=12))
    b = run_trials(tiny_config(S=12))
    assert [r.rel_error for r in a] == [r.rel_error for r in b]
    assert [r.success for r in a] == [r.success for r in b]


def test_determinism_across_workers():
    serial = run_trials(tiny_config(S=10))
    parallel = run_trials(tiny_config(S=10), jobs=2)
    assert [r.rel_error for r in serial] == [r.rel_error for r in parallel]


def test_success_flag_recomputable():
    for r in run_trials(tiny_config(S=20)):
        assert r.success == (r.rel_error < 0.001)


def test_trials_match_exact_formula_small():
    # fixed trigonometric-DFT block containing the constant row, columns in
    # general position: the operational success rate follows q_sb_exact
    config = tiny_config(S=900, master_seed=31, ensemble="rb_real_dft",
                         M=9, m=6, ell=3, matrix_policy="fixed",
                         K=(0, 1, 4, 6, 7, 8))
    records = run_trials(config)
    pi = sum(r.success for r in records) / len(records)
    q = q_sb_exact(3, 6, 9)
    assert q == 0.5
    se = np.sqrt(q * (1 - q) / len(records))
    assert abs(pi - q) <= 3 * se


def test_use_trials_sit_one_level_above_formula():
    # generic fresh blocks make the objective non-constant on the feasible
    # section: success adds one halfspace to the cone count, which lifts the
    # rate from q_sb_exact(ell) to the ell-1 value (checked vs the oracle
    # geometry in development; binomial count below is the frozen form)
    from ptlab.exactprob import binom_tail
    config = tiny_config(S=900, master_seed=5)  # dbuse, ell=2, m=3, M=4
    records = run_trials(config)
    pi = sum(r.success for r in records) / len(records)
    q_shifted = 1.0 - binom_tail(4 - 3, 4 - 2 + 1)
    assert q_shifted == 0.75
    se = np.sqrt(q_shifted * (1 - q_shifted) / len(records))
    assert abs(pi - q_shifted) <= 3 * se


def test_fixed_matrix_policy_deterministic():
    config = tiny_config(S=6, ensemble="rb_real_dft", M=9, m=6, ell=3,
                         matrix_policy="fixed")
    a = run_trials(config)
    b = run_trials(config)
    assert [r.rel_error for r in a] == [r.rel_error for r in b]


def test_multiblock_guard():
    # the guard refuses the config itself, before any trial can run
    with pytest.raises(ValueError, match="guard: multiblock N = B\\*M = "
                                         "4160 exceeds 4096"):
        tiny_config(B=65, M=64, m=32, ell=4)
    assert tiny_config(B=64, M=64, m=32, ell=4).sizes.N == 4096


def test_single_block_guard():
    with pytest.raises(ValueError,
                       match="guard: single-block M = 2000 exceeds 1024"):
        tiny_config(ell=2, m=600, M=2000, S=1, master_seed=0)
    assert tiny_config(ell=2, m=600, M=1024, S=1).sizes.M == 1024


def test_config_checks_sizes():
    # ProblemSizes checks the sizes of every config once, when it is built
    for ell in (-1, 5):
        with pytest.raises(ValueError,
                           match=f"need 0 <= ell <= M, got ell={ell}, M=4"):
            tiny_config(ell=ell)
    with pytest.raises(ValueError, match="need 0 <= ell <= M"):
        tiny_config(ell_values=(0, 5))
    assert tiny_config().sizes == ProblemSizes(2, 3, 4, 1)


def test_config_checks_ell_values():
    # a grid runs each cell it names once: an empty or repeating list is
    # refused when the config is built (an ell outside 0..M: see above)
    for ells, message in (((), "ell_values is empty"),
                          ((2, 2), r"ell_values repeats an ell: \[2, 2\]")):
        with pytest.raises(ValueError, match=message):
            tiny_config(ell_values=ells)
    assert tiny_config(ell_values=[3, 0]).ell_values == (3, 0)


def test_trials_refuse_a_grid_config():
    with pytest.raises(ValueError, match="ell_values is a grid key; a trials "
                                         "config runs the one cell at ell"):
        run_trials(tiny_config(ell_values=(0, 1)))


def test_grid_zero_sparsity_cell_is_certain():
    config = tiny_config(S=10, coeff_set=CoeffSet.REAL, M=6, m=3, B=2,
                         ell_values=(0,))
    table = run_phase_grid(config)
    assert table.rows[0].pi_hat == 1.0


def test_grid_monotone_within_noise():
    config = tiny_config(S=60, coeff_set=CoeffSet.REAL, M=8, m=4, B=2,
                         master_seed=21, ell_values=(0, 1, 2, 3, 4))
    table = run_phase_grid(config)
    pis = [r.pi_hat for r in table.rows]
    for i in range(len(pis) - 1):
        se = np.sqrt(max(pis[i + 1] * (1 - pis[i + 1]), 0.25 / 60) / 60)
        assert pis[i + 1] <= pis[i] + 3 * se


def test_grid_same_rows_across_workers():
    config = tiny_config(S=10, coeff_set=CoeffSet.REAL, M=8, m=4, B=2,
                         master_seed=21, ell_values=(0, 1, 2, 3, 4))
    serial = run_phase_grid(config)
    for jobs in (2, 3):   # 3 workers split each cell into 4, 4 and 2
        parallel = run_phase_grid(config, jobs=jobs)
        assert parallel.rows == serial.rows


def test_grid_runs_one_pool_per_campaign(monkeypatch):
    starts, cells = [], []

    class CountingPool(experiments.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs)
            super().__init__(*args, **kwargs)

    summarize = experiments.summarize

    def keep_records(cell, records):
        cells.append((cell, records))
        return summarize(cell, records)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(experiments, "summarize", keep_records)
    config = tiny_config(S=6, coeff_set=CoeffSet.REAL, M=8, m=4, B=2,
                         master_seed=21, ell_values=(0, 2, 4))
    run_phase_grid(config, jobs=2)
    assert starts == [{"max_workers": 2}]
    assert [cell.ell for cell, _ in cells] == [0, 2, 4]
    for cell, records in cells:
        serial = run_trials(cell)
        assert [r.trial_index for r in records] == list(range(6))
        assert [r.rel_error for r in records] == \
            [r.rel_error for r in serial]


def test_chunk_wall_times_share_the_solve_time():
    config = tiny_config(S=12, coeff_set=CoeffSet.REAL, M=8, m=4, B=2)
    t0 = time.perf_counter()
    records = experiments.run_chunk(config, 0, 12)
    elapsed = time.perf_counter() - t0
    assert [r.trial_index for r in records] == list(range(12))
    assert all(r.wall_time > 0.0 for r in records)
    assert sum(r.wall_time for r in records) <= elapsed


def test_chunk_size_from_the_operator():
    # criterion 7's shape, 48 real columns a block: one repeated block's
    # projector leaves room for 25 trials in one solver call, and 24
    # distinct blocks' projectors for 7
    for ensemble, shared, size in (("rbuse", True, 25), ("dbuse", False, 7)):
        cell = tiny_config(ensemble=ensemble, coeff_set=CoeffSet.COMPLEX,
                           ell=5, m=12, M=24, B=24, S=60)
        assert size == max_batch(24, 48, shared)
        assert experiments._chunks(cell, 1) == \
            [(a, min(a + size, 60)) for a in range(0, 60, size)]
    # 32 distinct blocks of 128 real columns: one trial's state (4.72 MB)
    # outgrows the solver's bound alone, and a call still takes one trial
    big = tiny_config(ensemble="dbuse", coeff_set=CoeffSet.COMPLEX, ell=5,
                      m=32, M=64, B=32, S=3)
    assert max_batch(32, 128, False) == 1
    assert experiments._chunks(big, 1) == [(0, 1), (1, 2), (2, 3)]
    # with more workers the trials are dealt out evenly first
    assert experiments._chunks(replace(cell, ensemble="rbuse"), 4) == \
        [(0, 15), (15, 30), (30, 45), (45, 60)]


def test_campaign_refuses_jobs_below_one():
    # the library path's counterpart of the CLI's --jobs check
    for jobs in (0, -1):
        with pytest.raises(ValueError,
                           match=f"jobs must be at least 1, got {jobs}"):
            run_trials(tiny_config(), jobs=jobs)


def failure_rate(config):
    records = run_trials(config)
    return sum(not r.success for r in records) / config.S


def test_single_block_campaign_certain_cases():
    # zero signal (no free entries in a zero-boundary set) always recovers
    config = tiny_config(ell=0, m=3, M=5, S=10, master_seed=1,
                         coeff_set=CoeffSet.REAL)
    assert failure_rate(config) == 0.0
    # fully determined system always recovers, whatever the set
    assert failure_rate(tiny_config(ell=3, m=5, M=5, S=10,
                                    master_seed=2)) == 0.0


def test_single_block_campaign_counts():
    config = tiny_config(ell=2, m=3, M=4, S=400, master_seed=3,
                         ensemble="rb_real_dft")
    q = q_sb_exact(2, 3, 4)
    se = np.sqrt(q * (1 - q) / 400)
    assert abs((1 - failure_rate(config)) - q) <= 3 * se


def test_success_table_csv_round_trip():
    config = tiny_config(S=5)
    table = SuccessTable([summarize(config, run_trials(config))])
    buf = io.StringIO()
    table.to_csv(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == \
        "ell,m,M,B,S,successes,pi_hat,ensemble,coeffset,seed"
    back = SuccessTable.from_csv(io.StringIO(text))
    assert back.rows == table.rows


def test_success_table_csv_round_trips_numpy_floats():
    # csv writes a numpy float as str(), not as its repr np.float64(...)
    rows = [SuccessRow(3, 4, 8, 2, 3, 1, np.float64(1 / 3), "dbuse", "real",
                       7),
            SuccessRow(4, 4, 8, 2, 3, 0, 1e-300, "dbuse", "real", 7)]
    buf = io.StringIO()
    SuccessTable(rows).to_csv(buf)
    assert buf.getvalue().splitlines()[1:] == [
        "3,4,8,2,3,1,0.3333333333333333,dbuse,real,7",
        "4,4,8,2,3,0,1e-300,dbuse,real,7"]
    assert SuccessTable.from_csv(io.StringIO(buf.getvalue())).rows == rows


def test_config_dict_round_trip():
    for config in (tiny_config(ensemble="rbpft", K=(0, 1, 2),
                               matrix_policy="fixed"),
                   tiny_config(ell_values=(2, 0, 1))):
        clone = ExperimentConfig.from_dict(config.to_dict())
        assert clone == config
    assert tiny_config().to_dict()["ell_values"] is None
    assert tiny_config(ell_values=(2, 0, 1)).to_dict()["ell_values"] == \
        [2, 0, 1]


# the block every manifest held while the solver settings were configurable
MANIFEST_SOLVER_BLOCK = {"tol": 1e-9, "feas_tol": 1e-7, "max_iters": 50000,
                         "rho": 1.0}


def test_config_solver_settings_are_fixed():
    # a config has no solver key: even the default block is refused
    config = tiny_config()
    d = config.to_dict()
    assert "solver" not in d
    assert config.solver is DEFAULT_OPTIONS
    for block in (MANIFEST_SOLVER_BLOCK, {"obj_tol": 1e-7},
                  dict(MANIFEST_SOLVER_BLOCK, max_iters=10)):
        with pytest.raises(ValueError, match=r"unknown \['solver'\]"):
            ExperimentConfig.from_dict(dict(d, solver=block))


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(ensemble="wishart")
    with pytest.raises(ValueError):
        tiny_config(matrix_policy="sticky")


def test_config_checks_S_and_K():
    with pytest.raises(ValueError, match="S >= 1 trials, got -4"):
        tiny_config(S=-4)
    assert tiny_config(ensemble="rb_real_dft", K=[0, 1, 2]).K == (0, 1, 2)
    with pytest.raises(ValueError, match="K has 3 entries, but m = 5"):
        tiny_config(ensemble="rbpft", m=5, K=(0, 1, 2))
    for ensemble in ("rbuse", "dbuse"):
        with pytest.raises(ValueError, match="has no use for it"):
            tiny_config(ensemble=ensemble, K=(0, 1, 2))


def test_config_checks_types():
    # the library path refuses what from_dict refuses, when the config is
    # built: a float, bool, string or None size, a non-integer K or
    # ell_values entry, and a coeff_set that is not a CoeffSet
    dft = dict(ensemble="rb_real_dft", m=3, K=(0, 1, 2))
    for kw, message in (
            (dict(ell=1.7), "config key ell: 1.7 is not an integer"),
            (dict(m="3"), "config key m: '3' is not an integer"),
            (dict(M=4.0), "config key M: 4.0 is not an integer"),
            (dict(B=True), "config key B: True is not an integer"),
            (dict(S=None), "config key S: None is not an integer"),
            (dict(master_seed=np.float64(7)),
             r"config key master_seed: np.float64\(7.0\) is not"),
            (dict(dft, K=(0, 1.0, 2)), "config key K: 1.0 is not"),
            (dict(ell_values=(1.5,)), "config key ell_values: 1.5 is not"),
            (dict(ell_values=(0, False)), "config key ell_values: False"),
            (dict(coeff_set="real"), "coeff_set must be a CoeffSet, got "
                                     "'real'")):
        with pytest.raises(ValueError, match=message):
            tiny_config(**kw)
    # NumPy integers are integers, and are kept as Python ones
    config = tiny_config(**dict(dft, ell=np.int64(2), S=np.int32(8),
                                K=np.arange(3), ell_values=(np.int64(1),)))
    assert config == tiny_config(**dict(dft, ell_values=(1,)))
    assert json.loads(json.dumps(config.to_dict())) == config.to_dict()


def test_default_window():
    # criterion 7's sweep: rbuse COMPLEX, m=12, M=24, B=24
    assert experiments.default_window(12, 24, 24, CoeffSet.COMPLEX) == \
        list(range(8))
    # one block: centred on the asymptotic (2 delta - 1) M = 24, width 19
    assert experiments.default_window(36, 48, 1, CoeffSet.BOX01) == \
        list(range(5, 44))


def test_config_keys_checked():
    d = tiny_config().to_dict()
    assert set(d) <= set(experiments.CONFIG_REQUIRED
                         + experiments.CONFIG_OPTIONAL)
    assert ExperimentConfig.from_dict(dict(d, ell_values=[0, 1])) == \
        tiny_config(ell_values=(0, 1))
    # older manifests hold the worker count in the config; it is refused
    assert "jobs" not in d
    with pytest.raises(ValueError, match=r"missing \[\], unknown \['jobs'\]"):
        ExperimentConfig.from_dict(dict(d, jobs=4))
    for not_an_object in (42, [d], "config", None):
        with pytest.raises(ValueError, match="a config is a JSON object"):
            ExperimentConfig.from_dict(not_an_object)
    with pytest.raises(ValueError,
                       match=r"missing \['ell', 'S'\], unknown \[\]"):
        ExperimentConfig.from_dict({k: v for k, v in d.items()
                                    if k not in ("ell", "S")})
    with pytest.raises(ValueError, match=r"missing \['M'\], "
                                         r"unknown \['matrix_polcy', 'mm'\]"):
        bad = dict(d, matrix_polcy="fixed", mm=4)
        del bad["M"]
        ExperimentConfig.from_dict(bad)


GUARD_SCRIPT = """
import json, sys
import numpy as np
import ptlab, ptlab.cli
from ptlab import (CoeffSet, ExperimentConfig, Link, fit_quantal,
                   run_phase_grid, run_trials)
from ptlab.oracle import socp_min_l1x
config = ExperimentConfig.from_dict(
    {"ensemble": "dbuse", "coeffset": "real", "ell": 1, "m": 3, "M": 5,
     "B": 2, "S": 6, "master_seed": 9})
records = run_trials(config)
table = run_phase_grid(ExperimentConfig.from_dict(dict(config.to_dict(), S=2)))
fit = fit_quantal([(0.1, 40, 38), (0.2, 40, 25), (0.3, 40, 4)], Link.CLL)
preds = {cs.value: repr(ptlab.predict_pt(18, 24, 24, cs).eps_bd_second)
         for cs in CoeffSet}
before = sorted(m for m in sys.modules if m.startswith("scipy"))
A = np.random.default_rng(3).standard_normal((6, 10))
y = A @ np.r_[1.5, -2.0, np.zeros(8)]
barrier = socp_min_l1x(A, y, CoeffSet.REAL)
print(json.dumps({"trials": len(records), "fit": fit.eps_star,
                  "cells": [r.ell for r in table.rows],
                  "scipy_before": before, "preds": preds,
                  "values": [ptlab.lp_oracle(A, y, CoeffSet.REAL).value,
                             barrier.value],
                  "barrier_residual": barrier.residual, "y_norm":
                  float(np.linalg.norm(y))}))
"""


def test_campaign_loads_no_scipy(tmp_path):
    """import ptlab, a campaign, a grid on its default window, a prediction
    for every set and a CLL fit use NumPy only; SciPy loads when the oracle
    first needs it."""
    src = os.path.dirname(os.path.dirname(experiments.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", GUARD_SCRIPT], env=env,
                         cwd=tmp_path, capture_output=True, text=True,
                         check=True, timeout=120)
    result = json.loads(out.stdout)
    assert result["scipy_before"] == []
    assert result["trials"] == 6 and 0.1 < result["fit"] < 0.3
    assert result["cells"] == experiments.default_window(3, 5, 2,
                                                         CoeffSet.REAL)
    assert result["preds"] == {
        cs.value: repr(predict_pt(18, 24, 24, cs).eps_bd_second)
        for cs in CoeffSet}
    assert result["values"][0] == pytest.approx(3.5, abs=1e-8)
    assert result["barrier_residual"] <= \
        RESIDUAL_CERT * (1.0 + result["y_norm"])
    assert result["values"][1] == pytest.approx(result["values"][0], abs=1e-8)
