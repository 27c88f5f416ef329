"""The benchmark under perfbench/ runs the program from its own checkout and
reads ptlab by name.  Renaming one of those names in src breaks the
benchmark, which no other test runs, so every name it reads must still
exist.  perfbench is parsed, never imported: its bootstrap pins BLAS
threads for the process."""

import ast
import importlib
from inspect import ismodule
from pathlib import Path

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
