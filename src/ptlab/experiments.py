"""Seeded Monte-Carlo campaigns over the (ell, m, M, B) grid.

A campaign is a pure function of its config and master seed: trial t draws
its matrix from stream (master, "matrix", t) (or a shared fixed matrix from
index 0) and its signal from (master, "signal", t).  Trials are solved in
chunks of consecutive trials of one cell, one batched solver call per chunk,
and a trial's iterates do not depend on the chunk it shares; so results are
identical regardless of worker count, chunking or execution order.
"""

import csv
import functools
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import ensembles, predict
from .coeffsets import CoeffSet, parse_coeffset
from .ensembles import ProblemSizes
from .seeds import stream
# SUCCESS_THRESHOLD is unused here but stays importable: perfbench reads it
from .solver import (DEFAULT_OPTIONS, SUCCESS_THRESHOLD, declare_success,
                     max_batch, relative_error, solve_batch)

MULTIBLOCK_N_LIMIT = 4096
SINGLE_BLOCK_M_LIMIT = 1024

# the keys of a config file, to_dict's
CONFIG_REQUIRED = ("ensemble", "coeffset", "ell", "m", "M", "B", "S",
                   "master_seed")
CONFIG_OPTIONAL = ("matrix_policy", "K", "ell_values")


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
    ell_values: tuple = None       # a grid's cells; None: default_window

    def __post_init__(self):
        """Every rule a campaign must meet, checked once, before any trial
        runs."""
        if not isinstance(self.coeff_set, CoeffSet):
            raise ValueError(f"coeff_set must be a CoeffSet, got "
                             f"{self.coeff_set!r}")
        for name in ("ell", "m", "M", "B", "S", "master_seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        for name in ("K", "ell_values"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(
                    _integer(name, v) for v in getattr(self, name)))
        if self.matrix_policy not in ("fresh", "fixed"):
            raise ValueError("matrix_policy must be 'fresh' or 'fixed'")
        if self.ensemble not in ("rbuse", "dbuse", "rbpft", "rb_real_dft"):
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if self.S < 1:
            raise ValueError(f"a campaign needs S >= 1 trials, got {self.S}")
        if self.K is not None:
            if self.ensemble not in ("rbpft", "rb_real_dft"):
                raise ValueError(f"K picks the rows of a DFT ensemble; "
                                 f"{self.ensemble!r} has no use for it")
            if len(self.K) != self.m:
                raise ValueError(f"K has {len(self.K)} entries, but "
                                 f"m = {self.m}")
        # ProblemSizes refuses an ell outside 0..M, an m outside 1..M and B < 1
        object.__setattr__(self, "sizes",
                           ProblemSizes(self.ell, self.m, self.M, self.B))
        ells = self.ell_values
        if ells is not None:
            if not ells:
                raise ValueError("ell_values is empty: a grid needs a cell")
            if len(set(ells)) < len(ells):
                raise ValueError(f"ell_values repeats an ell: {list(ells)}")
            for ell in ells:
                ProblemSizes(ell, self.m, self.M, self.B)
        if self.B > 1 and self.B * self.M > MULTIBLOCK_N_LIMIT:
            raise ValueError(f"desk-scale guard: multiblock N = B*M = "
                             f"{self.B * self.M} exceeds {MULTIBLOCK_N_LIMIT}")
        if self.B == 1 and self.M > SINGLE_BLOCK_M_LIMIT:
            raise ValueError(f"desk-scale guard: single-block M = {self.M} "
                             f"exceeds {SINGLE_BLOCK_M_LIMIT}")

    @property
    def solver(self):
        """Always solver.DEFAULT_OPTIONS, which holds only the iteration cap;
        kept for callers that pass it to solve_p1 or read its max_iters."""
        return DEFAULT_OPTIONS

    @property
    def field_name(self):
        return "complex" if self.coeff_set is CoeffSet.COMPLEX else "real"

    def to_dict(self):
        return {"ensemble": self.ensemble, "coeffset": self.coeff_set.value,
                "ell": self.ell, "m": self.m, "M": self.M, "B": self.B,
                "S": self.S, "master_seed": self.master_seed,
                "matrix_policy": self.matrix_policy,
                "K": list(self.K) if self.K is not None else None,
                "ell_values": (list(self.ell_values)
                               if self.ell_values is not None else None)}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"a config is a JSON object, got "
                             f"{type(d).__name__}")
        missing = [k for k in CONFIG_REQUIRED if k not in d]
        unknown = sorted(set(d) - set(CONFIG_REQUIRED + CONFIG_OPTIONAL))
        if missing or unknown:
            raise ValueError(f"config keys: missing {missing}, "
                             f"unknown {unknown}")
        for key in ("K", "ell_values"):
            values = d.get(key)
            if values is not None and not isinstance(values, list):
                raise ValueError(f"config key {key}: {values!r} is not a "
                                 f"list")
        return cls(ensemble=d["ensemble"],
                   coeff_set=parse_coeffset(d["coeffset"]),
                   ell=d["ell"], m=d["m"], M=d["M"], B=d["B"], S=d["S"],
                   master_seed=d["master_seed"],
                   matrix_policy=d.get("matrix_policy", "fresh"),
                   K=d.get("K"), ell_values=d.get("ell_values"))


def _integer(key, value):
    """value as a Python int, if it is an integer (a NumPy one too, but not
    a bool, which JSON does not count as one); a float, string or None is
    refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"config key {key}: {value!r} is not an integer")
    return int(value)


@dataclass
class TrialRecord:
    """One trial's outcome.  wall_time is the trial's own solver set-up and
    polish time plus its share of the batched kernel call it ran in: the
    time between compaction events, divided among the problems active
    then.  A chunk's wall times therefore sum to its solve time, and a trial
    that runs on after the others stop is charged for those iterations
    alone."""
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

    def __post_init__(self):
        if self.S < 1 or not 0 <= self.successes <= self.S:
            raise ValueError(f"a cell needs S >= 1 and 0 <= successes <= S, "
                             f"got successes={self.successes}, S={self.S} "
                             f"at ell={self.ell}")


# success_table.csv holds one SuccessRow per line, its fields in order;
# csv writes a float as str(), its shortest form that reads back exactly
CSV_COLUMNS = [f.name for f in fields(SuccessRow)]


@dataclass
class SuccessTable:
    rows: list

    def to_csv(self, fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(astuple(r) for r in self.rows)

    @classmethod
    def from_csv(cls, fh):
        reader = csv.DictReader(fh, restval="")
        missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"success table lacks the columns {missing}")
        return cls([SuccessRow(**{f.name: f.type(rec[f.name])
                                  for f in fields(SuccessRow)})
                    for rec in reader])


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


def _trial_operator(config, t):
    """Trial t's operator: the cell's one fixed matrix, or its own draw."""
    if config.matrix_policy == "fixed":
        return _fixed_matrix(config)
    return _build_matrix(config, stream(config.master_seed, "matrix", t))


def run_chunk(config, start, stop):
    """Trials start..stop-1 of one cell, solved in one batched kernel call;
    each record is a pure function of (config, t)."""
    ops, x0s, ys = [], [], []
    for t in range(start, stop):
        op = _trial_operator(config, t)
        x0 = ensembles.sample_signal(config.sizes, config.coeff_set,
                                     stream(config.master_seed, "signal", t))
        ops.append(op)
        x0s.append(x0)
        ys.append(op.apply(x0.values, config.coeff_set))
    results = solve_batch(ops, ys, config.coeff_set)
    return [TrialRecord(sizes=config.sizes, ensemble_id=config.ensemble,
                        coeff_set=config.coeff_set,
                        master_seed=config.master_seed, trial_index=t,
                        rel_error=relative_error(x0.values, res.x1.values),
                        success=declare_success(x0.values, res.x1.values),
                        solver_status=res.status.value,
                        iterations=res.iterations, wall_time=res.wall_time)
            for t, x0, res in zip(range(start, stop), x0s, results)]


def _chunks(cell, jobs):
    """(start, stop) of each kernel call for the cell's trials: runs of
    at most ceil(S / jobs) consecutive trials, so that each of `jobs`
    workers gets one, and shorter where solver.max_batch takes fewer
    problems of trial 0's operator in one call."""
    op = _trial_operator(cell, 0)
    B, _, c = op.real_block_stack(cell.coeff_set).shape
    size = min(max_batch(B, c, op.shared), -(-cell.S // jobs))
    return [(a, min(a + size, cell.S)) for a in range(0, cell.S, size)]


def _run_cells(cells, jobs):
    """Every chunk of every cell (see _chunks) as one work list over one
    process pool.

    The pool deals out one chunk at a time, so a chunk held up by a trial
    that runs to the iteration cap occupies one worker while the others
    take up the chunks that follow it, whatever their cell.  Returns one
    record list per cell, in trial order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    work = [(cell, a, b) for cell in cells for a, b in _chunks(cell, jobs)]
    configs, starts, stops = zip(*work)
    if jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            chunks = list(pool.map(run_chunk, configs, starts, stops))
    else:
        chunks = list(map(run_chunk, configs, starts, stops))
    records = itertools.chain.from_iterable(chunks)
    return [list(itertools.islice(records, cell.S)) for cell in cells]


def run_trials(config, jobs=1):
    """S independent trials over `jobs` worker processes; records returned
    in trial order, the same for any `jobs`."""
    if config.ell_values is not None:
        raise ValueError("ell_values is a grid key; a trials config runs "
                         "the one cell at ell")
    return _run_cells([config], jobs)[0]


def summarize(config, records):
    succ = sum(r.success for r in records)
    return SuccessRow(ell=config.ell, m=config.m, M=config.M, B=config.B,
                      S=len(records), successes=succ,
                      pi_hat=succ / len(records),
                      ensemble=config.ensemble,
                      coeffset=config.coeff_set.value,
                      seed=config.master_seed)


def default_window(m, M, B, coeff_set):
    """ell sweep centered on the second-order predicted transition; at B = 1
    the offset's gamma = sqrt(2 log B / M) is 0, so on the asymptotic one."""
    if B == 1:
        eps = predict.asymptotic_pt(m / M, coeff_set)
    else:
        eps = predict.predict_pt(m, M, B, coeff_set).eps_bd_second
    center = max(eps * M, 0.0)
    w = max(3, round(0.8 * center))
    lo = max(0, int(np.floor(center)) - w)
    hi = min(M, int(np.ceil(center)) + w)
    return list(range(lo, hi + 1))


def run_phase_grid(config, jobs=1):
    """Sweep ell over config.ell_values (default_window when None) at
    constant S per cell; each cell gets its own derived seed.  The trials
    of all cells share one pool of `jobs` processes (see _run_cells)."""
    ell_values = config.ell_values or default_window(
        config.m, config.M, config.B, config.coeff_set)
    cells = []
    for ell in ell_values:
        cell_seed = int(stream(config.master_seed, "cell", ell)
                        .integers(2 ** 62))
        cells.append(replace(config, ell=ell, ell_values=None,
                             master_seed=cell_seed))
    return SuccessTable(list(map(summarize, cells,
                                 _run_cells(cells, jobs))))
