"""Every top-level import of the package and the test modules is used.

A name a module imports and never reads sends a reader looking for a
use that is not there. A module's top-level imports are checked against
every name it reads anywhere (an attribute chain counts by its root);
``from __future__`` imports and the names listed in ``__all__`` are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    [*(ROOT / "src" / "beliefmerge").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]
)


def unused_imports(source: str) -> list[str]:
    """The names bound by source's top-level imports that it never reads,
    in source order."""
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read | exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm\n"
        "from typing import Sequence\n"
        "from .weights import Fraction\n"
        "__all__ = ['Fraction']\n"
        "def f(v: Sequence[int]):\n"
        "    return gcd(*v)\n"
    )
    assert unused_imports(source) == ["os", "lcm"]
