"""README's "Library usage" block runs as written against the package's top
level, so a name it imports cannot drop out of kktprecond.__all__ unseen."""

import pathlib
import re

import kktprecond

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_usage_block() -> str:
    """The one python code block of README's "Library usage" section."""
    section = README.read_text().split("## Library usage", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_library_usage_block_runs_as_written(capsys):
    block = library_usage_block()
    exec(compile(block, str(README), "exec"), {})
    iterations, converged = capsys.readouterr().out.split()
    assert int(iterations) >= 1 and converged == "True"
    imported = re.search(r"from kktprecond import \((.*?)\)", block, flags=re.S).group(1)
    assert {name.strip() for name in imported.split(",") if name.strip()} <= set(kktprecond.__all__)
