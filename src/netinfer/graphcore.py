"""Graph containers, reproducible random streams, and edge-list text I/O.

Vertices are 0-indexed in memory and 1-indexed in files; the parser and
serializer are the only places where the shift happens.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_KEY_LIMIT = 1 << 64  # each Philox key word is an unsigned 64-bit integer


class ParseError(ValueError):
    """Malformed edge-list text; the message names the offending line."""


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream identified by a (seed, stream) key pair.

    Backed by the Philox-4x64 bit generator with the 128-bit key set to
    (seed, stream): identical keys reproduce identical draws across runs
    and platforms, and distinct keys give statistically independent
    streams.  Monte Carlo replica i of an experiment uses stream id
    base + i (``substream(i)``), so results never depend on execution
    order or on how replicas are scheduled across workers.

    Both key words must lie in [0, 2^64): a value outside would alias
    another key, so it is rejected rather than reduced.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream id", self.stream)):
            if not 0 <= operator.index(value) < _KEY_LIMIT:
                raise ValueError(f"{name} must lie in [0, 2^64), got {value}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, index: int) -> "RngStream":
        """Stream for replica `index` relative to this base stream; raises
        ValueError when the stream id would pass 2^64 - 1."""
        if index < 0:
            raise ValueError("replica index must be nonnegative")
        return RngStream(self.seed, self.stream + index)


class Graph:
    """Undirected simple graph with a dense boolean adjacency matrix.

    The matrix is symmetric with a zero diagonal and is frozen after
    construction.  Dense storage is deliberate: the workloads are
    triangle-statistic heavy at desk scale (n up to a few thousand),
    where whole-matrix products beat adjacency lists.
    """

    __slots__ = ("adj", "m", "_edges")

    def __init__(self, adj: np.ndarray):
        adj = np.asarray(adj)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adj.dtype != np.bool_:
            adj = adj.astype(bool)
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        self._freeze(adj, int(np.count_nonzero(adj)) // 2, None)

    def _freeze(self, adj: np.ndarray, m: int, edges) -> None:
        adj.setflags(write=False)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def _trusted(cls, adj: np.ndarray, edges: np.ndarray | None = None) -> "Graph":
        """Wrap an adjacency already known to be boolean, symmetric, and
        zero-diagonal (samplers build these by construction)."""
        g = cls.__new__(cls)
        g._freeze(adj, int(np.count_nonzero(adj)) // 2, edges)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build from 0-indexed (u, v) pairs without revalidating the matrix."""
        g = cls.__new__(cls)
        adj = np.zeros((n, n), dtype=bool)
        edge_arr = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if edge_arr.size:
            u, v = edge_arr[:, 0], edge_arr[:, 1]
            if (u == v).any():
                raise ValueError("self-loops are not allowed")
            if u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n:
                raise ValueError("edge endpoint out of range")
            adj[u, v] = True
            adj[v, u] = True
        m = int(np.count_nonzero(adj)) // 2
        if m != edge_arr.shape[0]:
            raise ValueError("duplicate edges are not allowed")
        lo = np.minimum(edge_arr[:, 0], edge_arr[:, 1])
        hi = np.maximum(edge_arr[:, 0], edge_arr[:, 1])
        order = np.lexsort((hi, lo))
        g._freeze(adj, m, np.column_stack((lo, hi))[order])
        return g

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(np.count_nonzero(self.adj[v]))

    def degrees(self) -> np.ndarray:
        return np.count_nonzero(self.adj, axis=1)

    def neighbors(self, v: int) -> np.ndarray:
        self._check_vertex(v)
        return np.nonzero(self.adj[v])[0]

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        if self._edges is None:
            u, v = np.nonzero(np.triu(self.adj, 1))
            object.__setattr__(self, "_edges", np.column_stack((u, v)))
        return self._edges

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class Tree(Graph):
    """Connected acyclic Graph; optionally carries the growth parent array."""

    __slots__ = ("parent",)

    def __init__(self, adj: np.ndarray, parent: np.ndarray | None = None):
        super().__init__(adj)
        self._init_tree(parent)

    def _init_tree(self, parent: np.ndarray | None) -> None:
        if self.m != self.n - 1:
            raise ValueError(f"tree needs m == n-1, got m={self.m}, n={self.n}")
        order, _ = bfs_order(self, 0)
        if len(order) != self.n:
            raise ValueError("tree must be connected")
        object.__setattr__(self, "parent", parent)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]],
                   parent: np.ndarray | None = None) -> "Tree":
        g = Graph.from_edges(n, edges)
        t = cls.__new__(cls)
        t._freeze(g.adj, g.m, g._edges)
        t._init_tree(parent)
        return t

    @classmethod
    def from_parents(cls, parent: Sequence[int]) -> "Tree":
        """Tree from parent[i] for i >= 1; vertex 0 is the growth root."""
        parent = np.asarray(parent, dtype=np.int64)
        n = len(parent)
        if n == 0 or parent[0] != -1:
            raise ValueError("parent[0] must be -1 (root marker)")
        if n > 1 and not ((parent[1:] >= 0) & (parent[1:] < np.arange(1, n))).all():
            raise ValueError("parent[i] must be an earlier vertex")
        return cls.from_edges(n, [(int(parent[i]), i) for i in range(1, n)],
                              parent=parent)


def bfs_order(g: Graph, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first order and parent array of the component containing root.

    parent[root] == -1; vertices outside the component keep parent -2.
    """
    g._check_vertex(root)
    n = g.n
    parent = np.full(n, -2, dtype=np.int64)
    parent[root] = -1
    order = np.empty(n, dtype=np.int64)
    order[0] = root
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    head, tail = 0, 1
    while head < tail:
        v = order[head]
        head += 1
        nbrs = np.nonzero(g.adj[v] & ~seen)[0]
        if nbrs.size:
            seen[nbrs] = True
            parent[nbrs] = v
            order[tail:tail + nbrs.size] = nbrs
            tail += nbrs.size
    return order[:tail].copy(), parent


def components_after_removal(t: Tree, v: int) -> list[int]:
    """Sizes of the components of t - v, largest first; they sum to n - 1."""
    t._check_vertex(v)
    n = t.n
    if n == 1:
        return []
    sizes = []
    seen = np.zeros(n, dtype=bool)
    seen[v] = True
    for start in np.nonzero(t.adj[v])[0]:
        if seen[start]:
            continue
        stack = [int(start)]
        seen[start] = True
        count = 0
        while stack:
            u = stack.pop()
            count += 1
            for w in np.nonzero(t.adj[u] & ~seen)[0]:
                seen[w] = True
                stack.append(int(w))
        sizes.append(count)
    return sorted(sizes, reverse=True)


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" + edge-lines text format (1-indexed, u < v)."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("line 1: expected header 'n m'")
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError("line 1: expected header 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError("line 1: header values must be integers") from None
    if n < 0 or m < 0:
        raise ParseError("line 1: n and m must be nonnegative")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: vertices must be integers") from None
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u} {v}")
        if not (1 <= u < v <= n):
            raise ParseError(f"line {lineno}: edge {u} {v} violates 1 <= u < v <= n")
        if (u, v) in seen:
            raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u - 1, v - 1))
    if len(edges) != m:
        raise ParseError(f"line {lineno}: header declares m={m} but found {len(edges)} edges")
    return Graph.from_edges(n, edges)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; emits 1-indexed edges with u < v, sorted."""
    out = [f"{g.n} {g.m}"]
    for u, v in g.edges():
        out.append(f"{u + 1} {v + 1}")
    return "\n".join(out) + "\n"


def degree(g: Graph, v: int) -> int:
    """Number of neighbors of v."""
    return g.degree(v)
