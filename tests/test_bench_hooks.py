"""Every module attribute the benchmark tracer wraps still exists.

bench/tracing.py replaces module globals to time layers; a missing one only
shows as a name under hooks_missing in a traced run, with that layer reading
0. This test reads the hook table and the literal wrap calls from the source
with ast, without importing the benchmark, and resolves each of them.
"""

import ast
import importlib
import pathlib

BENCH_TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# cli.py has had no dense solve since the sparse reference solve; the stale
# hook goes with the next benchmark change (ROADMAP item 5, "Stale hooks").
KNOWN_STALE = {("kktprecond.cli", "materialize_dense")}


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
