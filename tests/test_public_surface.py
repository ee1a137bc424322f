"""The package's public surface: ``__all__`` names what the package
holds, and the README's Python example runs as written."""

import re
from pathlib import Path

import beliefmerge

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_exists_once():
    names = beliefmerge.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(beliefmerge, name)] == []


def test_readme_python_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out
