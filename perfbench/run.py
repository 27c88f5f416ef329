"""ptlab benchmark: seeded campaign workloads, end-to-end and per-layer metrics.

Run from the root of a ptlab checkout (no install needed; ptlab is imported
from src/):

    python3 perfbench/run.py --workload grid_c24_complex --seed 0 \
        --seconds 20 --trace 0 [--campaign-seed N]

Workloads (workloads.py), one round each:
  grid_c24_complex  criterion 7: `ptlab grid --jobs 2`, rbuse COMPLEX
                    m=12 M=24 B=24, ell window 0..7, 32 trials per cell,
                    then `ptlab fit --link cll` on its table.
  mc_box01_small    criteria 1 and 2 through experiments.run_trials at
                    jobs=1: rb_real_dft 17x13 fixed matrix at ell 7..10 and
                    dbuse 8x6 ell=3 at B=4 and B=1, 40 trials per cell.
  reference_check   criterion 9: 200 single-block instances solved by
                    solve_p1 and lp_oracle, then the verify suite, the
                    criterion-5/6 exactprob/predict sweeps and the
                    criterion-8 synthetic fit.
The campaigns are fixed; --seed orders the work and --campaign-seed moves
it to held-out data (see workloads.py).

Every run repeats the untraced round for --seconds (whole rounds, at least
one) and checks round 0.  With --trace 1 it then replays round 0 serially,
with a span around every call into ptlab, checks that each trial
reproduces, and writes the spans to .bench_out/.

End-to-end metrics (--trace 0):
  setup_s       median of 7 fresh interpreters, start to first trial
  wall_s        median round: every trial, capped ones included, pool
                starts, the CLI and the steps after the campaign
  trials_per_s  trials per round / median campaign time (grid: `ptlab
                grid`; reference_check: solve plus oracle per instance)
  peak_rss_mb   computed: peak RSS of this process plus, for each pool
                worker, its peak RSS less this process's peak before the
                run (forked workers share the parent's pages)
Per-layer metrics (--trace 1) are every "metric" line of a traced run; the
JSON result leaves out the timings in PRINT_ONLY.  fail_frac is printed as
e2e.fail_frac and reported with them: it is 0 on two workloads, and a
bounded metric may not be 0.

Output: "env", "checks", "counts" and "metric" lines, then one JSON object
as the last line: {"correct", "attempted", "failed", "metrics"}.  `correct`
is false when an output fails to reproduce or is malformed; acceptance-gate
failures (solver vs oracle, exact-formula and fit gates, verify) count in
`failed` and fail_frac.  "counts" holds round-0 figures that repeat exactly.
"""

import bootstrap  # first: pins threads and finds ptlab before NumPy loads

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import ptlab
import workloads
from tracing import Tracer

SETUP_REPEATS = 7
LAYERS = ("cli", "experiments", "ensembles", "solver", "oracle", "inference",
          "exactprob", "predict", "verify", "bench")
BUILD_SPANS = {"ensembles.rbuse", "ensembles.dbuse", "ensembles.rb_real_dft",
               "ensembles.sample_use", "ensembles.make_block_diagonal"}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "ptlab": ptlab.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in bootstrap.THREAD_VARS}}


def measure_setup(name, seed, held_out):
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, str(probe), name, str(seed),
                              str(held_out)],
                             capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def maxrss_kb(who):
    return resource.getrusage(who).ru_maxrss


def peak_rss_mb(jobs, parent_kb):
    """This process's peak plus each pool worker's peak above `parent_kb`,
    the parent's peak before the run: a forked worker's RSS counts the
    parent's pages it shares.  Read before any other child process ends."""
    own = maxrss_kb(resource.RUSAGE_SELF)
    if jobs == 1:
        return own / 1024.0
    child = maxrss_kb(resource.RUSAGE_CHILDREN)
    return (own + jobs * max(0, child - parent_kb)) / 1024.0


def median_or_zero(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def tail(samples):
    """Highest percentile with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (1.0 - pct / 100.0) >= 10:
            return pct, float(np.percentile(samples, pct))
    return 50.0, float(np.percentile(samples, 50))


def counts(first):
    """Round-0 counts: they repeat exactly."""
    iters = [t.iterations for t in first.trials]
    total = sum(iters)
    return {
        "solver.iters_total": total,
        "solver.iters_p50": float(np.percentile(iters, 50)),
        "solver.iters_p95": float(np.percentile(iters, 95)),
        "solver.iters_max": max(iters),
        "solver.capped": sum(t.capped for t in first.trials),
        "solver.capped_rescued": sum(t.capped and t.ok for t in first.trials),
        "solver.flop_per_iter": sum(t.iterations * t.flop_per_iter
                                    for t in first.trials) / total,
        "experiments.pool_starts": first.pool_starts,
    }


COUNT_UNITS = {"solver.iters_total": "iter", "solver.iters_p50": "iter",
               "solver.iters_p95": "iter", "solver.iters_max": "iter",
               "solver.flop_per_iter": "flop"}
# Timings of layers that only some workloads call: printed on every traced
# run, but kept out of the JSON result, where a layer a workload never calls
# would report the same 0 s on every run.
PRINT_ONLY = {"cli.self_s", "experiments.self_s", "oracle.self_s",
              "inference.self_s", "exactprob.self_s", "predict.self_s",
              "verify.self_s", "oracle.busy_s", "oracle.highs_ms_p50",
              "oracle.barrier_ms_p50", "inference.fit_ms",
              "exactprob.critical_ell_ms", "predict.predict_pt_ms",
              "verify.suite_s"}


def oracle_figures(first):
    """Worst oracle residual ||A x - y|| and value gap, round 0."""
    rows = first.outputs.get("rows")
    if not rows:
        return 0.0, 0.0
    resid = max(float(np.linalg.norm(dense @ orc.x - inst.y))
                for inst, _, orc, dense, _, _ in rows)
    gap = max(abs(res.value - orc.value) for _, res, orc, _, _, _ in rows)
    return resid, gap


def layer_metrics(timed, jobs, tracer, traced_wall):
    first = timed.first
    trials = first.trials
    selfs = tracer.self_seconds()
    m = {f"{layer}.self_s": (selfs.get(layer, 0.0), "s") for layer in LAYERS}

    lat = [t.solve_s for t in trials]
    m["experiments.idle_share"] = (
        1.0 - sum(lat) / (jobs * first.campaign_s), "ratio")
    m["experiments.speedup_vs_serial"] = (traced_wall / timed.wall_s, "ratio")
    for key, names in (("build", BUILD_SPANS), ("signal", {"ensembles.sample_signal"}),
                       ("apply", {"ensembles.apply"})):
        m[f"ensembles.{key}_us"] = (
            median_or_zero(list(tracer.per_trial(names).values()), 1e6), "us")

    busy = sum(tracer.durations({"solver.solve_p1"}))
    iters = sum(t.iterations for t in trials)
    flops = sum(t.iterations * t.flop_per_iter for t in trials)
    m["solver.busy_s"] = (busy, "s")
    m["solver.us_per_iter"] = (1e6 * busy / iters, "us")
    m["solver.gflops"] = (flops / busy / 1e9, "GFLOP/s")
    m["solver.capped_time_share"] = (
        sum(t.solve_s for t in trials if t.capped) / sum(lat), "ratio")
    m["solver.trial_p50_ms"] = (1e3 * float(np.percentile(lat, 50)), "ms")
    pct, value = tail(lat)
    m["solver.trial_tail_ms"] = (1e3 * value, "ms")
    m["solver.trial_tail_pct"] = (pct, "%")
    m["solver.trial_samples"] = (len(lat), "count")

    orc = [s for s in tracer.spans if s.name == "oracle.lp_oracle"]
    m["oracle.busy_s"] = (sum((s.duration for s in orc), 0.0), "s")
    m["oracle.highs_ms_p50"] = (median_or_zero(
        [s.duration for s in orc if not s.trial.startswith("complex/")], 1e3), "ms")
    m["oracle.barrier_ms_p50"] = (median_or_zero(
        [s.duration for s in orc if s.trial.startswith("complex/")], 1e3), "ms")
    resid, gap = oracle_figures(first)
    m["oracle.max_residual"] = (resid, "abs")
    m["oracle.max_value_gap"] = (gap, "abs")

    for name, span, scale, unit in (
            ("inference.fit_ms", "inference.fit_quantal", 1e3, "ms"),
            ("exactprob.critical_ell_ms", "exactprob.critical_ell", 1e3, "ms"),
            ("predict.predict_pt_ms", "predict.predict_pt", 1e3, "ms"),
            ("verify.suite_s", "verify.run_verification_suite", 1.0, "s")):
        m[name] = (median_or_zero(tracer.durations({span}), scale), unit)
    program = traced_wall - selfs.get("bench", 0.0)
    m["bench.trace_overhead"] = (selfs.get("bench", 0.0) / program, "ratio")
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--campaign-seed", type=int, default=0,
                        help="held-out campaign data; 0 = the benchmark's own")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.campaign_seed < 0 or args.seconds <= 0:
        parser.error("--seed and --campaign-seed must be >= 0, --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    bootstrap.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=bootstrap.OUT))
    env = environment()
    try:
        state = wl.setup(args.seed, args.campaign_seed)
        parent_kb = maxrss_kb(resource.RUSAGE_SELF)
        timed = workloads.run_rounds(wl, state, args.seconds, workdir)
        rss = peak_rss_mb(wl.jobs, parent_kb)
        checks = workloads.Checks()
        wl.check(state, timed.first, checks)
        checks.add("rounds reproduce round 0", not timed.differ,
                   f"rounds {timed.differ} differ from round 0 in iterations, "
                   f"status or success", integrity=True)
        if args.trace:
            tracer = Tracer()
            t0 = time.perf_counter()
            replayed, extra = wl.replay(state, timed.first, tracer, workdir)
            traced_wall = time.perf_counter() - t0
            wl.check_replay(timed.first, replayed, extra, checks)
            spans = bootstrap.OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
            tracer.write(spans, {"workload": wl.name, "seed": args.seed,
                                 "campaign_seed": args.campaign_seed, "env": env})
        else:
            setup_s = measure_setup(wl.name, args.seed, args.campaign_seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {wl.name} seed {args.seed} campaign_seed "
          f"{args.campaign_seed} jobs {wl.jobs} trials/round "
          f"{len(timed.first.trials)} rounds {len(timed.walls)} round_wall_s "
          f"{[round(w, 3) for w in timed.walls]}")
    for name, detail, integrity in checks.failures():
        print(f"check FAILED{' (integrity)' if integrity else ''} {name}: {detail}")
    print(f"checks attempted {checks.attempted} failed {checks.failed} "
          f"integrity {'ok' if checks.correct else 'FAILED'}")
    count = counts(timed.first)
    print(f"counts {json.dumps(count, sort_keys=True)}")

    fail_frac = checks.failed / checks.attempted
    if args.trace:
        metrics = {k: (v, COUNT_UNITS.get(k, "count")) for k, v in count.items()}
        metrics["e2e.fail_frac"] = (fail_frac, "ratio")
        metrics.update(layer_metrics(timed, wl.jobs, tracer, traced_wall))
        if wl.jobs == 1:
            print(f"tracing overhead (serial): traced {traced_wall:.3f} s vs "
                  f"untraced median round {timed.wall_s:.3f} s")
    else:
        print(f"metric e2e.fail_frac {fail_frac!r} ratio")
        metrics = {"setup_s": (setup_s, "s"),
                   "wall_s": (timed.wall_s, "s"),
                   "trials_per_s": (len(timed.first.trials) / timed.campaign_s,
                                    "1/s"),
                   "peak_rss_mb": (rss, "MB")}
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({"correct": checks.correct, "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()
                                  if k not in PRINT_ONLY}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
