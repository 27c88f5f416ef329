"""The benchmark under perfbench/ runs the program from its own checkout and
reads ptlab by name.  Renaming one of those names in src breaks the
benchmark, which no other test runs, so every name it reads must still
exist.  perfbench is parsed, never imported: its bootstrap pins BLAS
threads for the process."""

import ast
import importlib
from inspect import ismodule
from pathlib import Path

import numpy as np

from ptlab import experiments, solver
from ptlab.coeffsets import CoeffSet
from ptlab.ensembles import sample_signal
from ptlab.experiments import ExperimentConfig
from ptlab.seeds import stream

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MISSING = object()


def resolve(module, name):
    """What `from module import name` binds, or MISSING."""
    value = getattr(importlib.import_module(module), name, MISSING)
    if value is MISSING:
        try:
            return importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            pass
    return value


def ptlab_reads(tree):
    """(module, name) for each `from ptlab... import name` and each
    `<alias>.<attr>` where an import binds the alias to a ptlab module."""
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "ptlab":
                    bound = alias.asname or alias.name.partition(".")[0]
                    modules[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").partition(".")[0] == "ptlab":
            for alias in node.names:
                reads.append((node.module, alias.name))
                if ismodule(resolve(node.module, alias.name)):
                    modules[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.append((modules[node.value.id], node.attr))
    return reads


def test_every_name_perfbench_reads_exists():
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        reads |= set(ptlab_reads(ast.parse(path.read_text(), str(path))))
    assert len(reads) > 10   # the parse found the benchmark's reads
    missing = sorted(f"{module}.{name}" for module, name in reads
                     if resolve(module, name) is MISSING)
    assert missing == []


def test_the_solver_calls_perfbench_makes():
    # replay_trial passes a config's settings to solve_p1 positionally, and
    # the capped counts compare iterations with these two caps
    config = ExperimentConfig(ensemble="dbuse", coeff_set=CoeffSet.BOX01,
                              ell=2, m=3, M=4, B=2, S=1, master_seed=77)
    assert config.solver.max_iters == solver.DEFAULT_OPTIONS.max_iters \
        == solver.MAX_ITERS
    op = experiments._build_matrix(config, stream(77, "matrix", 0))
    x0 = sample_signal(config.sizes, config.coeff_set, stream(77, "signal", 0))
    y = op.apply(x0.values, config.coeff_set)
    got = solver.solve_p1(op, y, config.coeff_set, config.solver)
    ref = solver.solve_p1(op, y, config.coeff_set)
    assert (got.status, got.iterations) == (ref.status, ref.iterations)
    assert np.array_equal(got.x1.values, ref.x1.values)
    assert got.status is solver.SolveStatus.CONVERGED
