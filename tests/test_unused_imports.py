"""Every import in the package source is used.

A name bound by an import counts as used if the module refers to it anywhere
(annotations included) or lists it in its ``__all__``, which is how
``__init__`` re-exports the public API. A dotted ``import a.b`` binds ``a``.
"""

import ast
import pathlib

import pytest

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


def test_checker_finds_unused_and_accepts_reexports():
    assert unused_imports("import math\nimport os.path\nfrom a import b as c\n") == ["c", "math", "os"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from __future__ import annotations\nimport numpy as np\nx: np.ndarray\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
