"""Every import in the package source is used, and every exported name exists
and is used.

A name bound by an import counts as used if the module refers to it anywhere
(annotations included) or lists it in its ``__all__``, which is how
``__init__`` re-exports the public API. A dotted ``import a.b`` binds ``a``.
Every name in ``__all__`` must be bound at module level, or
``from kktprecond.<module> import *`` fails. Every name in ``__all__`` must
also be referenced somewhere in the package source, or be a module
attribute that the benchmark tracer wraps: an exported name that nothing in
the package runs belongs in the tests.
"""

import ast
import pathlib

import pytest

from test_bench_hooks import hooked_attributes

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kktprecond"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of source and never referenced."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def _exported(tree) -> list[str]:
    """The names listed in a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def unbound_exports(source: str) -> list[str]:
    """Names listed in the ``__all__`` of source that no module-level import,
    definition or assignment binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return sorted(set(_exported(tree)) - bound)


def test_checker_finds_unused_and_accepts_reexports():
    assert unused_imports("import math\nimport os.path\nfrom a import b as c\n") == ["c", "math", "os"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nx: np.ndarray\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_export_checker_finds_unbound_names():
    assert unbound_exports("__all__ = ['a', 'b', 'c', 'd']\nfrom m import a\ndef b(): pass\nc: int = 1\n") == ["d"]
    assert unbound_exports("import os.path\nclass K: pass\nX, Y = 1, 2\n__all__ = ['os', 'K', 'X', 'Y']\n") == []
    assert unbound_exports("def f():\n    g = 1\n__all__ = ['g']\n") == ["g"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_module_exports_only_bound_names(path):
    assert unbound_exports(path.read_text()) == []


def unreferenced_exports(sources: dict[str, str], hooks) -> list[str]:
    """``module.name`` for each name in the ``__all__`` of sources[module]
    that no source loads, as a name or as an attribute, and that is not a
    (module, name) pair of hooks."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.add(node.attr)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _exported(tree)
        if name not in referenced and (module, name) not in hooks
    )


def test_reference_checker_finds_unused_exports():
    sources = {
        "m": "__all__ = ['a', 'b', 'c', 'd']\ndef a(): pass\ndef b(): a()\nc = 1\nd = 2\n",
        "n": "import m\n__all__ = []\nm.d\n",
    }
    assert unreferenced_exports(sources, {("m", "c")}) == ["m.b"]


def test_every_exported_name_is_referenced_or_hooked():
    sources = {
        "kktprecond" if path.stem == "__init__" else f"kktprecond.{path.stem}": path.read_text()
        for path in sorted(SRC.glob("*.py"))
    }
    assert unreferenced_exports(sources, hooked_attributes()) == []
