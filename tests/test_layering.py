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


# a Graph's store: only graphcore reads these; other modules call edges(),
# csr() and to_dense()
STORE_ATTRIBUTES = {"adj", "_edges", "_csr"}


def _store_reads(path: Path) -> list[str]:
    return [f"{path.name}:{node.lineno} reads .{node.attr}"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in STORE_ATTRIBUTES]


def test_only_graphcore_reads_the_graph_store():
    modules = [path for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "graphcore.py"]
    assert modules
    assert [hit for path in modules for hit in _store_reads(path)] == []


def test_the_check_sees_store_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def f(lg, adj):\n"
                     "    return lg.graph.edges(), adj[0], lg.graph._csr\n",
                     encoding="utf-8")
    assert _store_reads(probe) == ["probe.py:2 reads ._csr"]


# sizes (cache blocks, dense-array limits) are stated once, in graphcore;
# other modules import them
def _size_names(path: Path) -> list[str]:
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        found += [f"{path.name}:{node.lineno} assigns {name.id}"
                  for target in targets for name in ast.walk(target)
                  if isinstance(name, ast.Name) and "BYTES" in name.id]
    return found


def test_only_graphcore_assigns_sizes():
    modules = [path for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "graphcore.py"]
    assert modules
    assert [hit for path in modules for hit in _size_names(path)] == []


def test_the_check_sees_size_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .graphcore import CACHE_BYTES\n"
                     "_BLOCK_BYTES = CACHE_BYTES // 2\n"
                     "def f():\n"
                     "    LOCAL_BYTES = 1\n", encoding="utf-8")
    assert _size_names(probe) == ["probe.py:2 assigns _BLOCK_BYTES"]


# a single graph takes the dense or the sparse kernel in one place:
# geom.triangle_count is the package's only caller of Graph.to_dense()
DENSE_CALLER = ("geom.py", "triangle_count")


def _to_dense_calls(path: Path) -> list[str]:
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "to_dense"
                    and (path.name, owner) != DENSE_CALLER):
                found.append(f"{path.name}:{child.lineno} calls .to_dense() "
                             f"in {owner}")
            visit(child, owner)
    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_triangle_count_builds_a_graph_matrix():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert [hit for path in modules for hit in _to_dense_calls(path)] == []


def test_the_check_sees_to_dense_calls(tmp_path):
    probe = tmp_path / "geom.py"
    probe.write_text("def triangle_count(g):\n"
                     "    return g.to_dense()\n"
                     "def signed_triangle_stat(g, p):\n"
                     "    return _tau(g.to_dense(), p)\n"
                     "ADJ = G.to_dense()\n", encoding="utf-8")
    assert _to_dense_calls(probe) == [
        "geom.py:4 calls .to_dense() in signed_triangle_stat",
        "geom.py:5 calls .to_dense() in None"]


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
