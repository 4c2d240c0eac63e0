"""Every module attribute the benchmark tracer wraps still exists, and the
catalog workload runs the package's catalog.

bench/tracing.py replaces module globals to time layers; a missing one only
shows as a name under hooks_missing in a traced run, with that layer reading
0. These tests read the hook table, the literal wrap calls and the workloads'
CATALOG from the source with ast, without importing the benchmark.
"""

import ast
import importlib
import pathlib

import kktprecond

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
BENCH_TRACING = BENCH / "tracing.py"

# Neither cli.py nor shocktrack.py has a dense solve any more: the reference
# solve and the SQP step are both one sparse direct solve, so the traced
# kkt.materialize_dense layer reads 0. Both stale hooks go with the next
# benchmark change (ROADMAP item 1, "The stale hooks").
KNOWN_STALE = {("kktprecond.cli", "materialize_dense"), ("kktprecond.shocktrack", "materialize_dense")}


def hooked_attributes() -> set[tuple[str, str]]:
    """(module, attribute) of every SPAN_HOOKS entry and every wrap call
    with literal arguments in bench/tracing.py."""
    tree = ast.parse(BENCH_TRACING.read_text())
    hooks = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPAN_HOOKS" for t in node.targets):
            hooks.update((module, attr) for module, attr, _ in ast.literal_eval(node.value))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "wrap":
            args = node.args[:2]
            if len(args) == 2 and all(isinstance(a, ast.Constant) and isinstance(a.value, str) for a in args):
                hooks.add((args[0].value, args[1].value))
    return hooks


def test_hook_table_is_found():
    hooks = hooked_attributes()
    assert ("kktprecond.cli", "cmd_solve") in hooks
    assert ("kktprecond.conprec", "assemble_coarse") in hooks
    assert len(hooks) >= 18


def test_every_benchmark_hook_exists():
    missing = {
        (module, attr)
        for module, attr in hooked_attributes()
        if getattr(importlib.import_module(module), attr, None) is None
    }
    assert missing == KNOWN_STALE


def test_catalog_workload_runs_the_catalog():
    """bench/workloads.py keeps its own literal CATALOG; it must list
    kktprecond.CATALOG's names in the same order."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    (value,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CATALOG" for t in node.targets)
    )
    assert ast.literal_eval(value) == kktprecond.CATALOG
