"""Every import in src/, scripts/ and tests/ is used by name.

An import counts as used when the name it binds is read anywhere in its
file, or when it is listed in that file's __all__ (a package re-export).
``from __future__`` imports are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src", "scripts", "tests")


def _bound_names(node) -> list[tuple[str, int]]:
    """(name, line) of each name an import statement binds."""
    if isinstance(node, ast.Import):
        return [(alias.asname or alias.name.partition(".")[0], node.lineno)
                for alias in node.names]
    if node.module == "__future__":
        return []
    return [(alias.asname or alias.name, node.lineno)
            for alias in node.names if alias.name != "*"]


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = [pair for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for pair in _bound_names(node)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    rel = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path.name
    return [f"{rel}:{line} imports {name}, which is never used"
            for name, line in bound if name not in used]


def test_no_unused_imports():
    files = sorted(p for d in CHECKED for p in (ROOT / d).rglob("*.py"))
    assert files
    found = [hit for path in files for hit in _unused_imports(path)]
    assert found == []


def test_the_check_sees_unused_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n"
                     "import os.path\n"
                     "import numpy as np\n"
                     "from typing import Sequence, NamedTuple\n"
                     "from . import geom\n"
                     "__all__ = ['geom']\n"
                     "x: NamedTuple = np.zeros(1)\n", encoding="utf-8")
    assert _unused_imports(probe) == [
        "probe.py:2 imports os, which is never used",
        "probe.py:4 imports Sequence, which is never used",
    ]
