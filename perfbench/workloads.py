"""The three benchmark workloads.

A round is a fixed amount of work: one whole campaign with its follow-up
steps.  A run repeats the round until the time budget is spent (always at
least once) and reports the median round, so every round counts all of its
trials, the ones that run to the 50,000-iteration cap included.

The inputs are fixed campaigns: the acceptance suite's, cut to fewer
trials per cell, except for the grid (see GRID_SEED).  A seed-drawn
campaign's cost is set by how many of its trials hit the cap (one capped
grid trial holds a pool worker for about 4.6 s): on a 2-core machine, ten
seed-drawn grid campaigns took 21-51 s, far more than any bound could
absorb.  So `--seed` orders the work instead: it permutes the grid's ell
cells, the Monte-Carlo cells and the criterion-9 instances, and seed 0
keeps the acceptance-suite order.
`--campaign-seed N` moves every campaign to held-out data (master seeds
shifted by 1000 * N; criterion 9 drawn from default_rng([99, N]) with the
same shapes), for confirming a claim on data it was not tuned on.

Round 0 is the only round checked, and its counts (iterations, caps, pool
starts) repeat exactly whatever the machine's speed; later rounds supply
timings and must reproduce round 0's per-trial outcomes.
"""

import contextlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ptlab import (cli, ensembles, exactprob, experiments, inference, oracle,
                   predict, solver, verify)
from ptlab.coeffsets import CoeffSet
from ptlab.ensembles import ProblemSizes
from ptlab.seeds import stream

from tracing import UNTRACED

VALUE_GAP_TOL = 1e-6     # criterion 9


def campaign_seed(base, held_out):
    return base + 1000 * held_out


def ordered(items, seed):
    """The benchmark seed's order of `items`; seed 0 keeps their order."""
    items = list(items)
    if seed == 0:
        return items
    return [items[i] for i in np.random.default_rng(seed).permutation(len(items))]


def admm_flop_per_iter(B, r, c):
    """Computed flops of one ADMM iteration: the two batched matvecs
    (A v and pinv(A) times the residual), two flops per multiply-add.
    Vector updates are not counted."""
    return 4 * B * r * c


@dataclass
class Trial:
    """One solve as the untraced run saw it."""
    cell: str
    index: int
    iterations: int
    status: str
    ok: bool               # recovery success, or agreement with the oracle
    solve_s: float         # solve_p1 alone
    flop_per_iter: int
    capped: bool

    @property
    def key(self):
        return (self.cell, self.index)

    @property
    def outcome(self):
        return (self.iterations, self.status, self.ok)


@dataclass
class Round:
    """One round of a workload, untraced."""
    wall_s: float          # the whole round, campaign plus the steps after it
    campaign_s: float      # the trials alone
    trials: list
    pool_starts: int = 0
    outputs: dict = field(default_factory=dict)   # what check() reads


@dataclass
class Timed:
    """Round 0 in full, and the timings of every round."""
    first: Round
    walls: list
    campaigns: list
    differ: list           # rounds whose per-trial outcomes differ from round 0

    @property
    def wall_s(self):
        return statistics.median(self.walls)

    @property
    def campaign_s(self):
        return statistics.median(self.campaigns)


def outcomes(trials):
    return sorted((t.key, t.outcome) for t in trials)


def run_rounds(workload, state, seconds, workdir):
    """Rounds until `seconds` have passed; only round 0's outputs are kept."""
    start = time.perf_counter()
    first = workload.round(state, 0, workdir)
    want = outcomes(first.trials)
    walls, campaigns, differ = [first.wall_s], [first.campaign_s], []
    while time.perf_counter() - start < seconds:
        rd = workload.round(state, len(walls), workdir)
        if outcomes(rd.trials) != want:
            differ.append(len(walls))
        walls.append(rd.wall_s)
        campaigns.append(rd.campaign_s)
    return Timed(first, walls, campaigns, differ)


class Checks:
    """Acceptance gates and integrity checks of one run.

    Integrity checks (reproducibility, well-formed artifacts) decide
    `correct`; every check, gate or integrity, counts toward fail_frac.
    """

    def __init__(self):
        self.items = []

    def add(self, name, ok, detail="", integrity=False):
        self.items.append((name, bool(ok), detail, integrity))

    @property
    def attempted(self):
        return len(self.items)

    @property
    def failed(self):
        return sum(not ok for _, ok, _, _ in self.items)

    @property
    def correct(self):
        return all(ok for _, ok, _, integ in self.items if integ)

    def failures(self):
        return [(n, d, i) for n, ok, d, i in self.items if not ok]


# ---------------------------------------------------------------------------
# one campaign trial, replayed through the public ensembles/solver calls

def replay_trial(tracer, config, t, fixed_op=None):
    """experiments.run_one_trial's work with the same seeds.stream keys."""
    call = tracer.call
    op = fixed_op
    if op is None:
        op = call(f"ensembles.{config.ensemble}", experiments._build_matrix,
                  config, stream(config.master_seed, "matrix", t))
    x0 = call("ensembles.sample_signal", ensembles.sample_signal,
              config.sizes, config.coeff_set,
              stream(config.master_seed, "signal", t))
    y = call("ensembles.apply", op.apply, x0.values, config.coeff_set)
    t0 = time.perf_counter()
    res = call("solver.solve_p1", solver.solve_p1, op, y, config.coeff_set,
               config.solver)
    wall = time.perf_counter() - t0
    rel = call("solver.relative_error", solver.relative_error, x0.values,
               res.x1.values)
    return experiments.TrialRecord(
        sizes=config.sizes, ensemble_id=config.ensemble,
        coeff_set=config.coeff_set, master_seed=config.master_seed,
        trial_index=t, rel_error=rel,
        success=rel < experiments.SUCCESS_THRESHOLD,
        solver_status=res.status.value, iterations=res.iterations,
        wall_time=wall)


def config_flop_per_iter(config):
    amb = config.coeff_set.ambient_dim
    # a complex block carries two real rows per measurement
    rows = 2 * config.m if config.field_name == "complex" else config.m
    return admm_flop_per_iter(config.B, rows, amb * config.M)


def trial_from_record(cell, rec, config):
    return Trial(cell=cell, index=rec.trial_index, iterations=rec.iterations,
                 status=rec.solver_status, ok=rec.success,
                 solve_s=rec.wall_time,
                 flop_per_iter=config_flop_per_iter(config),
                 capped=rec.iterations >= config.solver.max_iters)


def compare_replay(first, replayed, checks):
    """Per cell: iterations, status and success of every round-0 trial."""
    got = {}
    for (cell, index), outcome in replayed.items():
        got.setdefault(cell, {})[index] = outcome
    want = {}
    for tr in first.trials:
        want.setdefault(tr.cell, {})[tr.index] = tr.outcome
    for cell in sorted(want):
        w, g = want[cell], got.get(cell, {})
        bad = [i for i in w if g.get(i) != w[i]]
        checks.add(f"replay {cell}", not bad and len(g) == len(w),
                   f"{len(bad)} of {len(w)} trials differ in iterations, "
                   f"status or success (first: {bad[:3]})", integrity=True)


# ---------------------------------------------------------------------------
# grid_c24_complex: criterion 7 through `ptlab grid --jobs 2`, then `ptlab fit`

# The acceptance campaign (master seed 20240501) needs 128 trials per cell
# before its CLL fit is determined: below that only ell=4 has both successes
# and failures, and `ptlab fit` exits 1.  20240501 + 1000 * k for k = 1 is
# the first shift whose 32-trial table has two such cells.
GRID_SEED = 20241501
GRID_JOBS = 2
GRID_S = 32   # pool.map hands out chunks of 16: two chunks keep both workers busy
GRID_CONFIG = {"ensemble": "rbuse", "coeffset": "complex", "ell": 0,
               "m": 12, "M": 24, "B": 24, "S": GRID_S}


@contextlib.contextmanager
def tap_campaign(cells, pools):
    """Keep the per-trial records each grid cell hands to
    experiments.summarize, and count the process pools it starts."""
    summarize, pool = experiments.summarize, experiments.ProcessPoolExecutor

    def tapped_summarize(config, records):
        cells.append((config, list(records)))
        return summarize(config, records)

    def counted_pool(*args, **kwargs):
        pools.append(kwargs.get("max_workers"))
        return pool(*args, **kwargs)

    experiments.summarize = tapped_summarize
    experiments.ProcessPoolExecutor = counted_pool
    try:
        yield
    finally:
        experiments.summarize = summarize
        experiments.ProcessPoolExecutor = pool


def quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def cli_fit(table_csv, fit_csv):
    """`ptlab fit --link cll`: (exit status, (eps*, se) or None)."""
    status = quiet_cli(["fit", "--input", str(table_csv), "--link", "cll",
                        "-o", str(fit_csv)])
    with open(fit_csv) as fh:
        lines = fh.read().splitlines()
    if len(lines) != 2:
        return status, None
    eps, se = lines[1].split(",")[4:6]
    return status, (float(eps), float(se))


class Grid:
    name = "grid_c24_complex"
    jobs = GRID_JOBS

    def setup(self, seed, held_out=0):
        config = experiments.ExperimentConfig.from_dict(
            dict(GRID_CONFIG, master_seed=campaign_seed(GRID_SEED, held_out)))
        window = experiments.default_window(config.m, config.M, config.B,
                                            config.coeff_set)
        return {"master": config.master_seed, "window": window,
                "ells": ordered(window, seed)}

    def round(self, state, r, workdir):
        rdir = workdir / f"grid-r{r}"
        rdir.mkdir()
        cfg = rdir / "config.json"
        cfg.write_text(json.dumps(dict(GRID_CONFIG, master_seed=state["master"],
                                       ell_values=state["ells"])))
        cells, pools = [], []
        with tap_campaign(cells, pools):
            t0 = time.perf_counter()
            status = quiet_cli(["grid", "--config", str(cfg), "-o", str(rdir),
                                "--jobs", str(GRID_JOBS)])
            campaign = time.perf_counter() - t0
        fit_status, fit = cli_fit(rdir / "success_table.csv", rdir / "fit.csv")
        wall = time.perf_counter() - t0
        with open(rdir / "success_table.csv") as fh:
            table = experiments.SuccessTable.from_csv(fh)
        trials = [trial_from_record(f"ell{config.ell}", rec, config)
                  for config, records in cells for rec in records]
        if not trials:
            raise RuntimeError("ptlab grid returned no per-trial records "
                               "through experiments.summarize")
        return Round(wall, campaign, trials, len(pools),
                     {"status": status, "table": table, "cells": cells,
                      "fit_status": fit_status, "fit": fit})

    def check(self, state, first, checks):
        out = first.outputs
        checks.add("grid exit", out["status"] == 0,
                   f"ptlab grid exited {out['status']}", integrity=True)
        records = {c.ell: recs for c, recs in out["cells"]}
        rows = out["table"].rows
        checks.add("grid window", [row.ell for row in rows] == state["ells"],
                   f"cells {[row.ell for row in rows]} vs {state['ells']}",
                   integrity=True)
        for row in rows:
            recs = records.get(row.ell, [])
            succ = sum(rec.success for rec in recs)
            ok = (row.S == GRID_S == len(recs) and row.successes == succ
                  and row.pi_hat == succ / GRID_S
                  and [rec.trial_index for rec in recs] == list(range(GRID_S)))
            checks.add(f"grid ell{row.ell} table", ok,
                       f"success_table says {row.successes}/{row.S}, "
                       f"trial records say {succ}/{len(recs)}", integrity=True)
        gate = f"criterion 7 fit gate ({GRID_S} trials per cell)"
        fit = out["fit"]
        if fit is None:
            checks.add(gate, False,
                       f"ptlab fit exited {out['fit_status']} without a fit")
            return
        pred = predict.predict_pt(12, 24, 24, CoeffSet.COMPLEX)
        displacement = pred.eps_asy - fit[0]
        half_first = 0.5 * (pred.eps_asy - pred.eps_bd_first)
        err2 = abs(fit[0] - pred.eps_bd_second)
        checks.add(gate, displacement >= half_first and err2 <= 0.05,
                   f"eps*={fit[0]:.4f} (se {fit[1]:.4f}); displacement "
                   f"{displacement:.4f} >= {half_first:.4f}; |fit - order2| "
                   f"{err2:.4f} <= 0.05")

    def replay(self, state, first, tracer, workdir):
        cells = first.outputs["cells"]
        replayed, rows = {}, []
        head = cells[0][0]
        tracer.call("experiments.default_window", experiments.default_window,
                    head.m, head.M, head.B, head.coeff_set)
        for config, _ in cells:
            cell = f"ell{config.ell}"
            records = []
            for t in range(config.S):
                with tracer.span("bench.trial", trial=f"{cell}/{t}"):
                    rec = replay_trial(tracer, config, t)
                records.append(rec)
                replayed[(cell, t)] = (rec.iterations, rec.solver_status,
                                       rec.success)
            rows.append(tracer.call("experiments.summarize",
                                    experiments.summarize, config, records))
        table_csv = workdir / "replay-table.csv"
        with open(table_csv, "w", newline="") as fh:
            experiments.SuccessTable(rows).to_csv(fh)
        _, fit = tracer.call("cli.main", cli_fit, table_csv,
                             workdir / "replay-fit.csv")
        return replayed, {"fit": fit}

    def check_replay(self, first, replayed, extra, checks):
        compare_replay(first, replayed, checks)
        checks.add("replay fit", extra["fit"] == first.outputs["fit"],
                   f"serial fit {extra['fit']} vs --jobs {GRID_JOBS} fit "
                   f"{first.outputs['fit']}", integrity=True)


# ---------------------------------------------------------------------------
# mc_box01_small: criteria 1 and 2 through experiments.run_trials at jobs=1

MC_S = 40
MC_M, MC_m = 17, 13
MC_ROWS_SEED = 7
MC_CELLS = (  # name, ensemble, ell, m, M, B, acceptance seed, fixed matrix
    ("c1_ell7", "rb_real_dft", 7, MC_m, MC_M, 1, 100, True),
    ("c1_ell8", "rb_real_dft", 8, MC_m, MC_M, 1, 101, True),
    ("c1_ell9", "rb_real_dft", 9, MC_m, MC_M, 1, 102, True),
    ("c1_ell10", "rb_real_dft", 10, MC_m, MC_M, 1, 103, True),
    ("c2_B4", "dbuse", 3, 6, 8, 4, 41, False),
    ("c2_B1", "dbuse", 3, 6, 8, 1, 42, False),
)


class MonteCarlo:
    name = "mc_box01_small"
    jobs = 1

    def setup(self, seed, held_out=0):
        rows = ensembles.general_position_rows(MC_M, MC_m, seed=MC_ROWS_SEED,
                                               include_dc=True)
        minor = ensembles.min_column_minor(
            ensembles.partial_real_dft_block(MC_M, rows))
        if not minor > 1e-9:
            raise RuntimeError(f"criterion-1 rows {rows} are not in general "
                               f"position (min minor {minor})")
        cells = [(name, experiments.ExperimentConfig(
            ensemble=ens, coeff_set=CoeffSet.BOX01, ell=ell, m=m, M=M, B=B,
            S=MC_S, master_seed=campaign_seed(base, held_out),
            matrix_policy="fixed" if fixed else "fresh",
            K=tuple(int(r) for r in rows) if fixed else None))
            for name, ens, ell, m, M, B, base, fixed in MC_CELLS]
        return {"cells": ordered(cells, seed)}

    def round(self, state, r, workdir):
        trials, records = [], {}
        t0 = time.perf_counter()
        for name, config in state["cells"]:
            records[name] = experiments.run_trials(config)
        wall = time.perf_counter() - t0
        for name, config in state["cells"]:
            trials.extend(trial_from_record(name, rec, config)
                          for rec in records[name])
        return Round(wall, wall, trials, outputs={"records": records})

    def check(self, state, first, checks):
        records = first.outputs["records"]
        for name, recs in records.items():
            checks.add(f"mc {name} records",
                       [rec.trial_index for rec in recs] == list(range(MC_S)),
                       "trial records out of order or missing", integrity=True)
        for name, ens, ell, m, M, B, base, fixed in MC_CELLS:
            if not fixed:
                continue
            pi = sum(rec.success for rec in records[name]) / MC_S
            q = exactprob.q_sb_exact(ell, m, M)
            tol = 3.0 * math.sqrt(q * (1.0 - q) / MC_S)
            checks.add(f"criterion 1 {name}", abs(pi - q) <= tol,
                       f"pi={pi:.4f} vs Q={q:.5f} (3 SE {tol:.4f}, S={MC_S})")
        p_mb = sum(r.success for r in records["c2_B4"]) / MC_S
        p_sb = sum(r.success for r in records["c2_B1"]) / MC_S
        B = 4
        diff = abs(p_mb - p_sb ** B)
        pooled = math.sqrt(p_mb * (1 - p_mb) / MC_S + (B * p_sb ** (B - 1)) ** 2
                           * p_sb * (1 - p_sb) / MC_S)
        checks.add("criterion 2 product rule", diff <= 3 * pooled,
                   f"p_mb={p_mb:.4f} vs p_sb^4={p_sb ** B:.4f} (diff {diff:.4f}, "
                   f"3 pooled SE {3 * pooled:.4f}, S={MC_S})")

    def replay(self, state, first, tracer, workdir):
        replayed = {}
        for name, config in state["cells"]:
            fixed = None
            if config.matrix_policy == "fixed":
                with tracer.span("bench.fixed", trial=f"{name}/fixed"):
                    fixed = tracer.call(f"ensembles.{config.ensemble}",
                                        experiments._build_matrix, config,
                                        stream(config.master_seed, "matrix", 0))
            for t in range(config.S):
                with tracer.span("bench.trial", trial=f"{name}/{t}"):
                    rec = replay_trial(tracer, config, t, fixed)
                replayed[(name, t)] = (rec.iterations, rec.solver_status,
                                       rec.success)
        return replayed, {}

    def check_replay(self, first, replayed, extra, checks):
        compare_replay(first, replayed, checks)


# ---------------------------------------------------------------------------
# reference_check: criterion 9 plus the reference layers

REF_SEED = 99
REF_PER_SET = 50
REF_SETS = (CoeffSet.BOX01, CoeffSet.NONNEG, CoeffSet.REAL, CoeffSet.COMPLEX)
C5_SIZES = (48, 96, 192, 384, 768)
C6_SIZES = (48, 96, 192)
C8_SEED = 1
VERIFY_SEED = 0


@dataclass
class Instance:
    index: int
    coeff_set: CoeffSet
    M: int
    m: int
    ell: int
    op: object
    y: np.ndarray


def instance_id(cs, i):
    return f"{cs.value}/{i}"


def make_instances(tracer, rng, shapes=None):
    """The criterion-9 stream: 50 instances per coefficient set, drawn in
    order from one generator.  With `shapes` given, (M, m, ell) come from it
    and the generator draws only matrices and signals."""
    call = tracer.call
    out = []
    for i in range(REF_PER_SET * len(REF_SETS)):
        cs = REF_SETS[i // REF_PER_SET]
        if shapes is None:
            M = int(rng.integers(4, 33))
            m = int(rng.integers(2, M + 1))
            ell = int(rng.integers(0, m))
        else:
            M, m, ell = shapes[i]
        field_name = "complex" if cs.is_complex else "real"
        with tracer.span("bench.instance", trial=instance_id(cs, i)):
            A = call("ensembles.sample_use", ensembles.sample_use, m, M,
                     field_name, rng)
            op = call("ensembles.make_block_diagonal",
                      ensembles.make_block_diagonal, [A], 1, repeated=True)
            x0 = call("ensembles.sample_signal", ensembles.sample_signal,
                      ProblemSizes(ell, m, M, 1), cs, rng)
            y = call("ensembles.apply", op.apply, x0.values, cs)
        out.append(Instance(i, cs, M, m, ell, op, y))
    return out


def c8_cells(rng):
    a, b, S = 3.0, -10.0, 2000
    cells = []
    for eps in np.arange(0.05, 0.56, 0.05):
        p = 1.0 - math.exp(-math.exp(a + b * eps))
        cells.append((float(eps), S, int(rng.binomial(S, p))))
    return cells


class Reference:
    """Criterion 9's 200 instances (one generator, seed 99), solved in the
    benchmark seed's order, then the reference layers.  Held-out data keep
    the 200 shapes and redraw matrices and signals, so they differ in data
    but not in the mix of problem sizes."""

    name = "reference_check"
    jobs = 1

    def setup(self, seed, held_out=0):
        n = REF_PER_SET * len(REF_SETS)
        state = {"held_out": held_out, "order": ordered(range(n), seed)}
        if held_out:
            first = make_instances(UNTRACED, np.random.default_rng(REF_SEED))
            state["shapes"] = [(i.M, i.m, i.ell) for i in first]
        return state

    def instances(self, state, tracer):
        if not state["held_out"]:
            return make_instances(tracer, np.random.default_rng(REF_SEED))
        rng = np.random.default_rng([REF_SEED, state["held_out"]])
        return make_instances(tracer, rng, state["shapes"])

    def one_pass(self, state, tracer):
        """Solver vs oracle on every instance, then the reference layers."""
        call = tracer.call
        instances = self.instances(state, tracer)
        rows = []
        for i in state["order"]:
            inst = instances[i]
            with tracer.span("bench.instance",
                             trial=instance_id(inst.coeff_set, inst.index)):
                t0 = time.perf_counter()
                res = call("solver.solve_p1", solver.solve_p1, inst.op, inst.y,
                           inst.coeff_set)
                t1 = time.perf_counter()
                dense = call("ensembles.dense_real", inst.op.dense_real,
                             inst.coeff_set)
                orc = call("oracle.lp_oracle", oracle.lp_oracle, dense, inst.y,
                           inst.coeff_set)
                t2 = time.perf_counter()
            rows.append((inst, res, orc, dense, t1 - t0, t2 - t0))
        report = call("verify.run_verification_suite",
                      verify.run_verification_suite, seed=VERIFY_SEED)
        c5 = [call("exactprob.critical_ell", exactprob.critical_ell,
                   3 * M // 4, M, M).eps_star for M in C5_SIZES]
        c6 = []
        for M in C6_SIZES:
            m = 3 * M // 4
            exact = call("exactprob.critical_ell", exactprob.critical_ell, m, M, M)
            pred = call("predict.predict_pt", predict.predict_pt, m, M, M,
                        CoeffSet.BOX01)
            c6.append((exact.eps_star, pred))
        rng = np.random.default_rng(campaign_seed(C8_SEED, state["held_out"]))
        fit = call("inference.fit_quantal", inference.fit_quantal,
                   c8_cells(rng), inference.Link.CLL)
        return {"rows": rows, "verify": report, "c5": c5, "c6": c6, "c8": fit}

    def round(self, state, r, workdir):
        t0 = time.perf_counter()
        out = self.one_pass(state, UNTRACED)
        wall = time.perf_counter() - t0
        trials = []
        for inst, res, orc, dense, solve_s, _ in out["rows"]:
            rows, cols = dense.shape
            trials.append(Trial(
                cell=inst.coeff_set.value, index=inst.index,
                iterations=res.iterations, status=res.status.value,
                ok=abs(res.value - orc.value) < VALUE_GAP_TOL, solve_s=solve_s,
                flop_per_iter=admm_flop_per_iter(1, rows, cols),
                capped=res.iterations >= solver.DEFAULT_OPTIONS.max_iters))
        campaign = sum(row[5] for row in out["rows"])
        return Round(wall, campaign, trials, outputs=out)

    def check(self, state, first, checks):
        out = first.outputs
        for inst, res, orc, dense, _, _ in out["rows"]:
            gap = abs(res.value - orc.value)
            resid = float(np.linalg.norm(dense @ orc.x - inst.y))
            checks.add(f"criterion 9 #{inst.index}", gap < VALUE_GAP_TOL,
                       f"{inst.coeff_set.value} M={inst.M} m={inst.m} "
                       f"ell={inst.ell}: |solver - oracle| {gap:.3g}, solver "
                       f"{res.status.value} after {res.iterations} iterations, "
                       f"oracle residual {resid:.3g}")
        checks.add("verify suite", out["verify"]["pass"],
                   "run_verification_suite reported a failure")
        gammas = np.array([math.sqrt(2 * math.log(M) / M) for M in C5_SIZES])
        target = math.sqrt(2 * (1 - 0.75))
        offsets = np.array([0.5 - e for e in out["c5"]])
        slope = float((gammas * offsets).sum() / (gammas ** 2).sum())
        ratios = offsets / gammas
        checks.add("criterion 5",
                   abs(slope / target - 1.0) <= 0.15
                   and abs(ratios[-1] - target) < abs(ratios[0] - target),
                   f"slope {slope:.4f} vs {target:.4f}")
        errs = [(abs(pred.eps_bd_second - exact), abs(pred.eps_bd_first - exact))
                for exact, pred in out["c6"]]
        checks.add("criterion 6",
                   all(e2 <= 0.02 for e2, _ in errs) and errs[0][0] <= errs[0][1],
                   f"order-2 errors {[round(e2, 4) for e2, _ in errs]}")
        fit = out["c8"]
        checks.add("criterion 8 fit",
                   abs(fit.eps_star - 0.3) <= 2 * fit.se_eps_star,
                   f"eps*={fit.eps_star:.4f} (2 se {2 * fit.se_eps_star:.4f})")

    def replay(self, state, first, tracer, workdir):
        out = self.one_pass(state, tracer)
        replayed = {(inst.coeff_set.value, inst.index): (
            res.iterations, res.status.value,
            abs(res.value - orc.value) < VALUE_GAP_TOL)
            for inst, res, orc, _, _, _ in out["rows"]}
        return replayed, {}

    def check_replay(self, first, replayed, extra, checks):
        compare_replay(first, replayed, checks)


WORKLOADS = {w.name: w for w in (Grid(), MonteCarlo(), Reference())}
