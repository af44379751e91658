"""Modules of the package use each other only through public names: a
relative import of a private name (``from .geom import _helper``) ties one
module to another's internals, so it fails here.  Dunders such as
``__version__`` are public."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netinfer"


def _private_relative_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__")
                                                 and name.endswith("__")):
                    found.append(f"{path.name}:{node.lineno} imports "
                                 f"{'.' * node.level}{node.module or ''}.{name}")
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _private_relative_imports(path)]
    assert found == []


def test_the_check_sees_private_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import __version__\n"
                     "from .geom import sample_er, _skip_er\n", encoding="utf-8")
    assert _private_relative_imports(probe) == ["probe.py:2 imports .geom._skip_er"]


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats takes about half a second and 45 MiB to import, and
    # scipy.sparse.csgraph about 60 ms; the functions that need them
    # (sbm.lecam_tv, graphcore.bfs_order, sbm.finest_partition) import
    # them when called
    lazy = ("scipy.stats", "scipy.sparse.csgraph")
    probe = ("import sys, netinfer.cli; "
             f"print([m for m in {lazy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, cwd=PACKAGE.parent,
                         timeout=120)
    assert out.stdout.strip() == "[]"
