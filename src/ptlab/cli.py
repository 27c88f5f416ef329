"""Command-line entry point.

Every run that produces artifacts also writes a manifest (config, seed,
worker count, package version, environment, timestamp) next to them;
re-running a manifest's config reproduces the result CSVs byte for byte, at
any --jobs.
Numeric CSV fields are written with repr(), which round-trips doubles
exactly.
"""

import argparse
import contextlib
import csv
import json
import os
import sys
import time

from . import __version__
from .coeffsets import parse_coeffset
from .exactprob import (Q_STAR_MULTI, critical_ell, default_q_star,
                        q_mb_exact, q_sb_exact)
from .experiments import ExperimentConfig, SuccessTable, run_trials, summarize, run_phase_grid
from .inference import (SeparationError, empirical_pt, fit_quantal,
                        hypothesis_test, parse_link)
from .predict import predict_pt_delta
from .verify import run_verification_suite


@contextlib.contextmanager
def _atomic_artifact(outdir, name):
    """Open outdir/name for writing through a temp file in outdir that is
    renamed into place only once the write completes, so an interrupted
    run leaves no truncated artifact and no temp file."""
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


@contextlib.contextmanager
def _output(path):
    """Yield stdout when no path is given; otherwise write path atomically."""
    if not path:
        yield sys.stdout
        return
    with _atomic_artifact(os.path.dirname(path) or ".",
                          os.path.basename(path)) as fh:
        yield fh


def _scipy_version():
    """SciPy's version, from the name of the dist-info directory beside the
    package `import scipy` would load (PEP 627: scipy-<version>.dist-info).
    This loads neither SciPy nor importlib.metadata, whose email parser
    alone adds 1 MB to a process that may fork pool workers afterwards."""
    import glob
    import importlib.util

    spec = importlib.util.find_spec("scipy")
    if spec is None:
        return None
    site = os.path.dirname(spec.submodule_search_locations[0])
    found = glob.glob(os.path.join(glob.escape(site), "scipy-*.dist-info"))
    if not found:
        return None
    return os.path.basename(found[0])[len("scipy-"):-len(".dist-info")]


def _environment():
    """The interpreter, the NumPy/SciPy/BLAS builds and the usable cores."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": _scipy_version(), "blas": blas.get("name"),
            "blas_version": blas.get("version"), "cores": cores}


def _write_manifest(outdir, command, payload, seed, jobs):
    manifest = {"command": command, "config": payload, "master_seed": seed,
                "jobs": jobs, "version": __version__,
                "environment": _environment(),
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    with _atomic_artifact(outdir, "manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _load_config(args):
    with open(args.config) as fh:
        raw = json.load(fh)
    config = ExperimentConfig.from_dict(raw)
    if config.S < 1:
        raise ValueError(f"a campaign needs S >= 1 trials, got {config.S}")
    return config, raw


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def cmd_exactprob(args):
    if not 1 <= args.m <= args.M:
        raise ValueError(f"need 1 <= m <= M, got m={args.m}, M={args.M}")
    rows = []
    q_star = args.qstar if args.qstar is not None else default_q_star(args.B)
    if not 0.0 < q_star < 1.0:
        raise ValueError(f"q_star must lie in (0, 1), got {q_star}")
    for ell in range(0, args.M + 1):
        rows.append((ell, q_sb_exact(ell, args.m, args.M),
                     q_mb_exact(ell, args.m, args.M, args.B)))
    with _output(args.output) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["ell", "q_sb", "q_mb"])
        for ell, qs, qm in rows:
            w.writerow([ell, repr(qs), repr(qm)])
    try:
        crit = critical_ell(args.m, args.M, args.B, q_star)
        print(f"# ell* = {crit.ell_star} (eps* = {repr(crit.eps_star)}, "
              f"q* = {repr(q_star)}, ell0 = {repr(crit.ell0)})", file=sys.stderr)
    except ValueError as exc:
        print(f"# no finite transition: {exc}", file=sys.stderr)
    return 0


def cmd_predict(args):
    cs = parse_coeffset(args.coeffset)
    rows = [(delta, predict_pt_delta(delta, args.M, args.B, cs))
            for delta in args.delta]
    with _output(args.output) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["delta", "eps_asy", "eps_bd_first", "eps_bd_second",
                    "rel_offset_first", "rel_offset_second", "gamma",
                    "extrapolated"])
        for delta, p in rows:
            w.writerow([repr(delta), repr(p.eps_asy), repr(p.eps_bd_first),
                        repr(p.eps_bd_second), repr(p.rel_offset_first),
                        repr(p.rel_offset_second), repr(p.gamma),
                        p.extrapolated])
    return 0


TRIAL_COLUMNS = ["trial", "ell", "m", "M", "B", "ensemble", "coeffset",
                 "seed", "rel_error", "success", "status", "iterations"]


def cmd_trials(args):
    config, raw = _load_config(args)
    if "ell_values" in raw:
        raise ValueError("ell_values is a grid key; a trials config runs "
                         "the one cell at ell")
    records = run_trials(config, jobs=args.jobs)
    with _atomic_artifact(args.outdir, "trials.csv") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRIAL_COLUMNS)
        for r in records:
            w.writerow([r.trial_index, r.sizes.ell, r.sizes.m, r.sizes.M,
                        r.sizes.B, r.ensemble_id, r.coeff_set.value,
                        r.master_seed, repr(r.rel_error), int(r.success),
                        r.solver_status, r.iterations])
    row = summarize(config, records)
    with _atomic_artifact(args.outdir, "success_table.csv") as fh:
        SuccessTable([row]).to_csv(fh)
    _write_manifest(args.outdir, "trials", config.to_dict(), config.master_seed,
                    args.jobs)
    print(f"pi_hat = {row.pi_hat} ({row.successes}/{row.S})")
    return 0


def cmd_grid(args):
    config, raw = _load_config(args)
    ell_values = raw.get("ell_values")
    table = run_phase_grid(config, ell_values, jobs=args.jobs)
    with _atomic_artifact(args.outdir, "success_table.csv") as fh:
        table.to_csv(fh)
    # the swept ells, in table order, so the manifest's config reproduces it
    payload = dict(config.to_dict(), ell_values=[r.ell for r in table.rows])
    _write_manifest(args.outdir, "grid", payload, config.master_seed,
                    args.jobs)
    print(f"{len(table.rows)} grid cells written to {args.outdir}")
    return 0


def cmd_fit(args):
    with open(args.input) as fh:
        table = SuccessTable.from_csv(fh)
    groups = {}
    for row in table.rows:
        groups.setdefault((row.m, row.M, row.B), []).append(row)
    link = parse_link(args.link)
    status = 0
    with _output(args.output) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["m", "M", "B", "delta", "eps_star", "se"])
        for (m, M, B), rows in sorted(groups.items()):
            try:
                fit = fit_quantal(SuccessTable(rows), link)
                eps_star = empirical_pt(fit)
            except (SeparationError, ValueError) as exc:
                print(f"# fit failed at (m={m}, M={M}, B={B}): {exc}",
                      file=sys.stderr)
                status = 1
                continue
            w.writerow([m, M, B, repr(m / M), repr(eps_star),
                        repr(fit.se_eps_star)])
    return status


def cmd_test(args):
    y_bar = args.ybar if args.ybar is not None else args.failures / args.S
    decision = hypothesis_test(y_bar, args.S, args.B, args.qstar, args.alpha)
    payload = {"y_bar": decision.y_bar, "mu": decision.mu,
               "band": list(decision.band), "outcome": decision.outcome.value,
               "S": args.S, "B": args.B, "q_star": args.qstar,
               "alpha": args.alpha}
    with _output(args.output) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args):
    report = run_verification_suite(seed=args.seed, instances=args.instances)
    with _output(args.output) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if report["pass"] else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="ptlab",
                                     description="Finite-size phase transitions for "
                                                 "block-diagonal and anisotropic "
                                                 "Fourier undersampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exactprob", help="exact success probability table")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--B", type=int, default=1)
    p.add_argument("--qstar", type=float, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_exactprob)

    p = sub.add_parser("predict", help="finite-size transition predictions")
    p.add_argument("--coeffset", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--delta", type=float, nargs="+", action="extend",
                   required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_predict)

    for name, fn in (("trials", cmd_trials), ("grid", cmd_grid)):
        p = sub.add_parser(name, help=f"run a Monte-Carlo {name} campaign")
        p.add_argument("--config", required=True)
        p.add_argument("-o", "--outdir", required=True)
        p.add_argument("--jobs", type=_positive_int,
                       default=os.cpu_count() or 1,
                       help="worker processes (default: available cores); "
                            "results never depend on this")
        p.set_defaults(func=fn)

    p = sub.add_parser("fit", help="quantal-response fit of a campaign CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--link", default="cll")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("test", help="large-size accept/reject hypothesis test")
    fraction = p.add_mutually_exclusive_group(required=True)
    fraction.add_argument("--ybar", type=float)
    fraction.add_argument("--failures", type=int)
    p.add_argument("--S", type=_positive_int, required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--qstar", type=float, default=Q_STAR_MULTI)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("verify", help="structural verification suite")
    p.add_argument("--instances", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
