"""Seeded Monte-Carlo campaigns over the (ell, m, M, B) grid.

A campaign is a pure function of its config and master seed: trial t draws
its matrix from stream (master, "matrix", t) (or a shared fixed matrix from
index 0) and its signal from (master, "signal", t), so results are identical
regardless of worker count or execution order.
"""

import csv
import functools
import io
import itertools
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import ensembles, predict
from .coeffsets import CoeffSet, parse_coeffset
from .ensembles import ProblemSizes
from .seeds import stream
# SUCCESS_THRESHOLD is unused here but stays importable: perfbench reads it
from .solver import (DEFAULT_OPTIONS, SUCCESS_THRESHOLD, declare_success,
                     relative_error, solve_p1)

MULTIBLOCK_N_LIMIT = 4096
SINGLE_BLOCK_M_LIMIT = 1024

CSV_COLUMNS = ["ell", "m", "M", "B", "S", "successes", "pi_hat",
               "ensemble", "coeffset", "seed"]

# the keys of a config file: to_dict's, plus the solver block older manifests
# carry and the ell_values list a grid run sweeps
CONFIG_REQUIRED = ("ensemble", "coeffset", "ell", "m", "M", "B", "S",
                   "master_seed")
CONFIG_OPTIONAL = ("matrix_policy", "K", "jobs", "solver", "ell_values")


@dataclass(frozen=True)
class ExperimentConfig:
    ensemble: str              # rbuse | dbuse | rbpft | rb_real_dft
    coeff_set: CoeffSet
    ell: int
    m: int
    M: int
    B: int
    S: int
    master_seed: int
    matrix_policy: str = "fresh"   # fresh matrix per trial, or "fixed"
    K: tuple = None                # frequencies/rows for the DFT ensembles
    jobs: int = 1

    def __post_init__(self):
        if self.matrix_policy not in ("fresh", "fixed"):
            raise ValueError("matrix_policy must be 'fresh' or 'fixed'")
        if self.ensemble not in ("rbuse", "dbuse", "rbpft", "rb_real_dft"):
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if self.K is not None:
            object.__setattr__(self, "K", tuple(int(k) for k in self.K))

    @property
    def solver(self):
        """Always solver.DEFAULT_OPTIONS, since the settings are fixed; kept
        for callers that pass a config's settings to solve_p1."""
        return DEFAULT_OPTIONS

    @property
    def sizes(self):
        return ProblemSizes(self.ell, self.m, self.M, self.B)

    @property
    def field_name(self):
        return "complex" if self.coeff_set is CoeffSet.COMPLEX else "real"

    def to_dict(self):
        d = {"ensemble": self.ensemble, "coeffset": self.coeff_set.value,
             "ell": self.ell, "m": self.m, "M": self.M, "B": self.B,
             "S": self.S, "master_seed": self.master_seed,
             "matrix_policy": self.matrix_policy,
             "K": list(self.K) if self.K is not None else None,
             "jobs": self.jobs}
        return d

    @classmethod
    def from_dict(cls, d):
        missing = [k for k in CONFIG_REQUIRED if k not in d]
        unknown = sorted(set(d) - set(CONFIG_REQUIRED + CONFIG_OPTIONAL))
        if missing or unknown:
            raise ValueError(f"config keys: missing {missing}, "
                             f"unknown {unknown}")
        sov = dict(d.get("solver") or {})   # older manifests carry one
        if "obj_tol" in sov:
            del sov["obj_tol"]
            warnings.warn("solver option obj_tol is no longer used; ignored")
        fixed = asdict(DEFAULT_OPTIONS)
        changed = {k: v for k, v in sov.items()
                   if k not in fixed or fixed[k] != v}
        if changed:
            raise ValueError(f"solver settings are fixed (ptlab.solver."
                             f"DEFAULT_OPTIONS); the config sets {changed}")
        return cls(ensemble=d["ensemble"],
                   coeff_set=parse_coeffset(d["coeffset"]),
                   ell=int(d["ell"]), m=int(d["m"]), M=int(d["M"]),
                   B=int(d["B"]), S=int(d["S"]),
                   master_seed=int(d["master_seed"]),
                   matrix_policy=d.get("matrix_policy", "fresh"),
                   K=tuple(d["K"]) if d.get("K") else None,
                   jobs=int(d.get("jobs", 1)))


@dataclass
class TrialRecord:
    sizes: ProblemSizes
    ensemble_id: str
    coeff_set: CoeffSet
    master_seed: int
    trial_index: int
    rel_error: float
    success: bool
    solver_status: str
    iterations: int
    wall_time: float


@dataclass(frozen=True)
class SuccessRow:
    ell: int
    m: int
    M: int
    B: int
    S: int
    successes: int
    pi_hat: float
    ensemble: str
    coeffset: str
    seed: int


@dataclass
class SuccessTable:
    rows: list

    def to_csv(self, fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([r.ell, r.m, r.M, r.B, r.S, r.successes,
                             repr(r.pi_hat), r.ensemble, r.coeffset, r.seed])

    def to_csv_string(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, fh):
        reader = csv.DictReader(fh)
        rows = []
        for rec in reader:
            rows.append(SuccessRow(
                ell=int(rec["ell"]), m=int(rec["m"]), M=int(rec["M"]),
                B=int(rec["B"]), S=int(rec["S"]),
                successes=int(rec["successes"]),
                pi_hat=float(rec["pi_hat"]), ensemble=rec["ensemble"],
                coeffset=rec["coeffset"], seed=int(rec["seed"])))
        return cls(rows)


def _build_matrix(config, rng):
    m, M, B = config.m, config.M, config.B
    if config.ensemble == "rbuse":
        return ensembles.rbuse(m, M, B, config.field_name, rng)
    if config.ensemble == "dbuse":
        return ensembles.dbuse(m, M, B, config.field_name, rng)
    if config.ensemble == "rbpft":
        K = config.K if config.K is not None \
            else np.sort(rng.choice(M, size=m, replace=False))
        return ensembles.rbpft(M, K, B)
    K = config.K if config.K is not None \
        else ensembles.general_position_rows(M, m, rng)
    return ensembles.rb_real_dft(M, K, B)


@functools.lru_cache(maxsize=8)
def _fixed_matrix(config):
    return _build_matrix(config, stream(config.master_seed, "matrix", 0))


def run_one_trial(config, t):
    """One seeded solve; pure function of (config, t)."""
    if config.matrix_policy == "fixed":
        op = _fixed_matrix(config)
    else:
        op = _build_matrix(config, stream(config.master_seed, "matrix", t))
    x0 = ensembles.sample_signal(config.sizes, config.coeff_set,
                                 stream(config.master_seed, "signal", t))
    y = op.apply(x0.values, config.coeff_set)
    t0 = time.perf_counter()
    res = solve_p1(op, y, config.coeff_set)
    wall = time.perf_counter() - t0
    return TrialRecord(sizes=config.sizes, ensemble_id=config.ensemble,
                       coeff_set=config.coeff_set,
                       master_seed=config.master_seed, trial_index=t,
                       rel_error=relative_error(x0.values, res.x1.values),
                       success=declare_success(x0.values, res.x1.values),
                       solver_status=res.status.value,
                       iterations=res.iterations, wall_time=wall)


def _guard(config):
    if config.B > 1 and config.B * config.M > MULTIBLOCK_N_LIMIT:
        raise ValueError(f"desk-scale guard: multiblock N = B*M = "
                         f"{config.B * config.M} exceeds {MULTIBLOCK_N_LIMIT}")
    if config.B == 1 and config.M > SINGLE_BLOCK_M_LIMIT:
        raise ValueError(f"desk-scale guard: single-block M = {config.M} "
                         f"exceeds {SINGLE_BLOCK_M_LIMIT}")


def _run_cells(cells, jobs):
    """Every (cell, trial) of `cells` as one work list over one process pool.

    The pool deals out one trial at a time, so a trial that runs to the
    iteration cap occupies one worker while the others take up the trials
    that follow it, whatever their cell.  Returns one record list per cell,
    in trial order.
    """
    for cell in cells:
        _guard(cell)
    configs = [cell for cell in cells for _ in range(cell.S)]
    indices = [t for cell in cells for t in range(cell.S)]
    if jobs > 1 and len(indices) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(indices))) as pool:
            records = list(pool.map(run_one_trial, configs, indices))
    else:
        records = list(map(run_one_trial, configs, indices))
    records = iter(records)
    return [list(itertools.islice(records, cell.S)) for cell in cells]


def run_trials(config):
    """S independent trials; records returned in trial order."""
    return _run_cells([config], config.jobs)[0]


def summarize(config, records):
    succ = sum(r.success for r in records)
    return SuccessRow(ell=config.ell, m=config.m, M=config.M, B=config.B,
                      S=len(records), successes=succ,
                      pi_hat=succ / len(records) if records else 0.0,
                      ensemble=config.ensemble,
                      coeffset=config.coeff_set.value,
                      seed=config.master_seed)


def default_window(m, M, B, coeff_set):
    """ell sweep centered on the order-2 predicted transition."""
    center = predict.predict_pt(m, M, B, coeff_set, order=2).eps_bd * M
    center = max(center, 0.0)
    w = max(3, round(0.8 * center))
    lo = max(0, int(np.floor(center)) - w)
    hi = min(M, int(np.ceil(center)) + w)
    return list(range(lo, hi + 1))


def run_phase_grid(config, ell_values=None):
    """Sweep ell at constant S per cell; each cell gets its own derived seed.
    The trials of all cells share one process pool (see _run_cells)."""
    if ell_values is None:
        ell_values = default_window(config.m, config.M, config.B,
                                    config.coeff_set)
    cells = []
    for ell in ell_values:
        cell_seed = int(stream(config.master_seed, "cell", ell)
                        .integers(2 ** 62))
        cells.append(replace(config, ell=int(ell), master_seed=cell_seed))
    return SuccessTable(list(map(summarize, cells,
                                 _run_cells(cells, config.jobs))))


@dataclass(frozen=True)
class CampaignResult:
    y_bar: float
    failures: int
    S: int


def single_block_campaign(ell, m, M, S, seed, coeff_set=CoeffSet.BOX01,
                          ensemble="dbuse", jobs=1):
    """S single-block solves; returns the mean failure rate and raw count."""
    config = ExperimentConfig(ensemble=ensemble, coeff_set=coeff_set,
                              ell=ell, m=m, M=M, B=1, S=S, master_seed=seed,
                              jobs=jobs)
    records = run_trials(config)
    failures = sum(1 - r.success for r in records)
    return CampaignResult(y_bar=failures / S if S else 0.0,
                          failures=failures, S=S)
