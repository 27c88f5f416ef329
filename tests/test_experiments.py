import io
from dataclasses import replace

import numpy as np
import pytest

from ptlab import experiments
from ptlab.coeffsets import CoeffSet
from ptlab.exactprob import q_sb_exact
from ptlab.experiments import (ExperimentConfig, SuccessTable, run_phase_grid,
                               run_trials, single_block_campaign, summarize)
from ptlab.solver import DEFAULT_OPTIONS


def tiny_config(**kw):
    base = dict(ensemble="dbuse", coeff_set=CoeffSet.BOX01, ell=2, m=3, M=4,
                B=1, S=8, master_seed=77)
    base.update(kw)
    return ExperimentConfig(**base)


def test_zero_trials():
    assert run_trials(tiny_config(S=0)) == []


def test_determinism_same_seed():
    a = run_trials(tiny_config(S=12))
    b = run_trials(tiny_config(S=12))
    assert [r.rel_error for r in a] == [r.rel_error for r in b]
    assert [r.success for r in a] == [r.success for r in b]


def test_determinism_across_workers():
    serial = run_trials(tiny_config(S=10))
    parallel = run_trials(tiny_config(S=10, jobs=2))
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
    with pytest.raises(ValueError, match="guard"):
        run_trials(tiny_config(B=65, M=64, m=32, ell=4))


def test_single_block_guard():
    with pytest.raises(ValueError, match="guard"):
        single_block_campaign(2, 600, 2000, 1, seed=0)


def test_grid_zero_sparsity_cell_is_certain():
    config = tiny_config(S=10, coeff_set=CoeffSet.REAL, M=6, m=3, B=2)
    table = run_phase_grid(config, ell_values=[0])
    assert table.rows[0].pi_hat == 1.0


def test_grid_monotone_within_noise():
    config = tiny_config(S=60, coeff_set=CoeffSet.REAL, M=8, m=4, B=2,
                         master_seed=21)
    table = run_phase_grid(config, ell_values=[0, 1, 2, 3, 4])
    pis = [r.pi_hat for r in table.rows]
    for i in range(len(pis) - 1):
        se = np.sqrt(max(pis[i + 1] * (1 - pis[i + 1]), 0.25 / 60) / 60)
        assert pis[i + 1] <= pis[i] + 3 * se


def test_grid_same_rows_across_workers():
    config = tiny_config(S=12, coeff_set=CoeffSet.REAL, M=8, m=4, B=2,
                         master_seed=21)
    serial = run_phase_grid(config, ell_values=[0, 1, 2, 3, 4])
    parallel = run_phase_grid(replace(config, jobs=2),
                              ell_values=[0, 1, 2, 3, 4])
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
                         master_seed=21, jobs=2)
    run_phase_grid(config, ell_values=[0, 2, 4])
    assert starts == [{"max_workers": 2}]
    assert [cell.ell for cell, _ in cells] == [0, 2, 4]
    for cell, records in cells:
        serial = run_trials(replace(cell, jobs=1))
        assert [r.trial_index for r in records] == list(range(6))
        assert [r.rel_error for r in records] == \
            [r.rel_error for r in serial]


def test_single_block_campaign_certain_cases():
    # zero signal (no free entries in a zero-boundary set) always recovers
    out = single_block_campaign(0, 3, 5, 10, seed=1, coeff_set=CoeffSet.REAL)
    assert out.y_bar == 0.0
    # fully determined system always recovers, whatever the set
    assert single_block_campaign(3, 5, 5, 10, seed=2).y_bar == 0.0


def test_single_block_campaign_counts():
    out = single_block_campaign(2, 3, 4, 400, seed=3, ensemble="rb_real_dft")
    assert out.failures == round(out.y_bar * out.S)
    q = q_sb_exact(2, 3, 4)
    se = np.sqrt(q * (1 - q) / 400)
    assert abs((1 - out.y_bar) - q) <= 3 * se


def test_success_table_csv_round_trip():
    config = tiny_config(S=5)
    table = SuccessTable([summarize(config, run_trials(config))])
    text = table.to_csv_string()
    assert text.splitlines()[0] == \
        "ell,m,M,B,S,successes,pi_hat,ensemble,coeffset,seed"
    back = SuccessTable.from_csv(io.StringIO(text))
    assert back.rows == table.rows


def test_config_dict_round_trip():
    config = tiny_config(ensemble="rbpft", K=(0, 1, 2), matrix_policy="fixed")
    clone = ExperimentConfig.from_dict(config.to_dict())
    assert clone == config


def test_config_with_removed_obj_tol_loads_with_warning():
    config = tiny_config()
    d = config.to_dict()
    d["solver"] = {"obj_tol": 1e-7}
    with pytest.warns(UserWarning, match="obj_tol"):
        assert ExperimentConfig.from_dict(d) == config


# the block every manifest held while the solver settings were configurable
MANIFEST_SOLVER_BLOCK = {"tol": 1e-9, "feas_tol": 1e-7, "max_iters": 50000,
                         "rho": 1.0}


def test_config_solver_settings_are_fixed():
    config = tiny_config()
    d = config.to_dict()
    assert "solver" not in d
    assert config.solver is DEFAULT_OPTIONS
    assert ExperimentConfig.from_dict(
        dict(d, solver=MANIFEST_SOLVER_BLOCK)) == config
    for changed in ({"max_iters": 10}, {"rho": 2.0}, {"tol": 1e-6},
                    {"feas_tol": 1e-5}, {"adapt_every": 25}, {"gamma": 1}):
        with pytest.raises(ValueError, match="solver settings are fixed"):
            ExperimentConfig.from_dict(
                dict(d, solver=dict(MANIFEST_SOLVER_BLOCK, **changed)))


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(ensemble="wishart")
    with pytest.raises(ValueError):
        tiny_config(matrix_policy="sticky")


def test_config_keys_checked():
    d = tiny_config().to_dict()
    assert set(d) <= set(experiments.CONFIG_REQUIRED
                         + experiments.CONFIG_OPTIONAL)
    assert ExperimentConfig.from_dict(dict(d, ell_values=[0, 1])) == \
        tiny_config()
    with pytest.raises(ValueError,
                       match=r"missing \['ell', 'S'\], unknown \[\]"):
        ExperimentConfig.from_dict({k: v for k, v in d.items()
                                    if k not in ("ell", "S")})
    with pytest.raises(ValueError, match=r"missing \['M'\], "
                                         r"unknown \['matrix_polcy', 'mm'\]"):
        bad = dict(d, matrix_polcy="fixed", mm=4)
        del bad["M"]
        ExperimentConfig.from_dict(bad)
