"""Graph containers, reproducible random streams, and edge-list text I/O.

A graph is stored as its sorted (m, 2) int64 edge array, built by one
sort of the int64 keys lo * n + hi of its edges (Graph._from_keys).
prefers_dense is the rule that picks matrix kernels over edge-list ones
from the expected edge count, and check_dense refuses any n x n or n x d
array past DENSE_BYTES_LIMIT.  A tree is stored as its parent array; random edge
sets are skip-sampled over the candidate pairs (bernoulli_pairs).

Vertices are 0-indexed in memory and 1-indexed in files; the parser and
serializer are the only places where the shift happens.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_KEY_LIMIT = 1 << 64  # each Philox key word is an unsigned 64-bit integer

# floor(sqrt(2^63 - 1)): up to it the int64 pair keys lo * n + hi never wrap
_MAX_VERTICES = 3_037_000_499


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


class SubstreamGenerators:
    """The generators of substreams start .. stop - 1 of rng, in order.

    Iterating re-keys one Philox to (seed, stream + i) with a zero counter
    for each i in turn, which gives the draws of
    ``rng.substream(i).generator()`` at about a sixteenth of its cost
    (0.6 us against 9.7 us a replica, in blocks of 100 on a 2-vCPU Xeon).
    The same Generator is handed out each time, so use each one up before
    taking the next.
    """

    def __init__(self, rng: RngStream, start: int, stop: int):
        if not 0 <= start < stop:
            raise ValueError("need 0 <= start < stop")
        rng.substream(stop - 1)  # raises when a stream id would pass 2^64 - 1
        self.rng, self.start, self.stop = rng, start, stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __iter__(self):
        bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        gen = np.random.Generator(bits)
        # The state setter copies each word out of these plain ints, so the
        # same lists serve every replica.
        key = [self.rng.seed, 0]
        state = {"bit_generator": "Philox",
                 "state": {"counter": [0, 0, 0, 0], "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0,
                 "uinteger": 0}
        base = self.rng.stream
        for i in range(self.start, self.stop):
            key[1] = base + i
            bits.state = state
            yield gen


# A dense array is allocated only when it fits in this many bytes; past it
# the caller gets DenseSizeError at once instead of an out-of-memory kill.
DENSE_BYTES_LIMIT = 1 << 30

# Samplers and triangle statistics take whole n x n boolean matrices (n^2
# bytes) only when these cost at most this many bytes per expected edge.
# The edge store costs 16 B/edge, and 16 more once the compressed sparse
# rows are built.
DENSE_BYTES_PER_EDGE = 64


class DenseSizeError(ValueError):
    """A dense array would pass DENSE_BYTES_LIMIT."""


def check_dense(n: int, itemsize: int, what: str, cols: int | None = None) -> None:
    """Raise DenseSizeError before `what` allocates an n x cols array (n x n
    when cols is None) of `itemsize`-byte cells larger than
    DENSE_BYTES_LIMIT."""
    cols = n if cols is None else cols
    nbytes = n * cols * itemsize
    if nbytes > DENSE_BYTES_LIMIT:
        raise DenseSizeError(
            f"{what} needs a dense {n} x {cols} array of {nbytes / 2**30:.1f} GiB, "
            f"above the {DENSE_BYTES_LIMIT / 2**30:g} GiB limit")


def prefers_dense(n: int, expected_edges: float) -> bool:
    """The kernel rule: draw and count on an n x n matrix when its n^2 bytes
    cost at most DENSE_BYTES_PER_EDGE per expected edge, on the edge list
    otherwise.  It picks a sampler or a statistic, never a store."""
    return n * n <= DENSE_BYTES_PER_EDGE * expected_edges


class Graph:
    """Undirected simple graph, frozen after construction.

    It holds only its sorted (m, 2) int64 edge array, so its memory and time
    grow with the number of edges, whichever sampler drew it.  Degrees and
    neighbours come from compressed sparse rows built from the edges on
    first use; ``to_dense()`` builds the boolean matrix when asked.
    """

    __slots__ = ("m", "_n", "_edges", "_csr")

    def __init__(self, adj: np.ndarray):
        adj = np.asarray(adj).astype(bool, copy=False)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        n = adj.shape[0]
        self._freeze(n, _key_edges(n, np.flatnonzero(np.triu(adj, 1))))

    def _freeze(self, n: int, edges: np.ndarray | None, m: int | None = None) -> None:
        if n > _MAX_VERTICES:
            raise ValueError(f"n={n} is past the int64 pair-key limit {_MAX_VERTICES}")
        m = m if edges is None else len(edges)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_csr", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def _trusted(cls, adj: np.ndarray) -> "Graph":
        """Graph of an adjacency already known to be boolean, symmetric, and
        zero-diagonal (samplers build these by construction)."""
        return cls._from_keys(adj.shape[0], np.flatnonzero(np.triu(adj, 1)))

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray) -> "Graph":
        """Graph of the int64 keys lo * n + hi of distinct pairs lo < hi < n,
        in any order.  The keys are sorted in place."""
        g = cls.__new__(cls)
        g._freeze(n, _key_edges(n, keys))
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph of 0-indexed (u, v) pairs in any order."""
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edge_arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if n < 0:
            raise ValueError("n must be nonnegative")
        u, v = edge_arr[:, 0], edge_arr[:, 1]
        if edge_arr.size:
            if (u == v).any():
                raise ValueError("self-loops are not allowed")
            if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
                raise ValueError("edge endpoint out of range")
        keys = pair_keys(n, u, v)
        g = Graph._from_keys(n, keys)
        # a duplicate edge leaves two equal keys side by side
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("duplicate edges are not allowed")
        return g

    @property
    def n(self) -> int:
        return self._n

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        indptr, _ = self.csr()
        return int(indptr[v + 1] - indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.csr()[0])

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbours of v in ascending order."""
        self._check_vertex(v)
        indptr, indices = self.csr()
        return indices[indptr[v]:indptr[v + 1]]

    def edges(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        return self._edges

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Compressed sparse rows (indptr, indices), built on first use: the
        neighbours of v, ascending, are indices[indptr[v]:indptr[v + 1]]."""
        if self._csr is None:
            n, m, e = self.n, self.m, self.edges()
            lo, hi = e[:, 0], e[:, 1]
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(e.ravel(), minlength=n), out=indptr[1:])
            # the keys row * n + col of both orientations sort by row, then
            # by neighbour
            indices = np.empty(2 * m, dtype=np.int64)
            np.multiply(lo, n, out=indices[:m])
            indices[:m] += hi
            np.multiply(hi, n, out=indices[m:])
            indices[m:] += lo
            indices.sort()
            np.remainder(indices, n, out=indices)
            indptr.setflags(write=False)
            indices.setflags(write=False)
            object.__setattr__(self, "_csr", (indptr, indices))
        return self._csr

    def to_dense(self) -> np.ndarray:
        """A new read-only n x n boolean adjacency matrix, after check_dense."""
        check_dense(self.n, 1, "the adjacency matrix")
        adj = np.zeros((self.n, self.n), dtype=bool)
        e = self.edges()
        adj[e[:, 0], e[:, 1]] = True
        adj[e[:, 1], e[:, 0]] = True
        adj.setflags(write=False)
        return adj

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class Tree(Graph):
    """Tree stored as its parent array, rooted at vertex 0.

    parent[0] == -1 and parent[v] is the neighbour of v on its path to 0.
    Attachment trees number vertices in arrival order, so there
    parent[v] < v.  The edge list and sparse rows are derived on first
    use; a tree holds no matrix.
    """

    __slots__ = ("parent",)

    def __init__(self, parent: Sequence[int]):
        """Tree from parent[i] for i >= 1 with parent[i] < i; vertex 0 is
        the growth root."""
        parent = np.array(parent, dtype=np.int64)
        n = len(parent)
        if n == 0 or parent[0] != -1:
            raise ValueError("parent[0] must be -1 (root marker)")
        if n > 1 and not ((parent[1:] >= 0) & (parent[1:] < np.arange(1, n))).all():
            raise ValueError("parent[i] must be an earlier vertex")
        self._set_parent(parent)

    def _set_parent(self, parent: np.ndarray) -> None:
        self._freeze(len(parent), None, len(parent) - 1)
        parent.setflags(write=False)
        object.__setattr__(self, "parent", parent)

    @classmethod
    def _trusted_parents(cls, parent: np.ndarray) -> "Tree":
        """Wrap an int64 parent array already known to define a tree rooted
        at 0."""
        t = cls.__new__(cls)
        t._set_parent(parent)
        return t

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Tree":
        """Tree from 0-indexed (u, v) pairs; one breadth-first pass from
        vertex 0 gives the parent array."""
        g = Graph.from_edges(n, edges)
        if g.m != n - 1:
            raise ValueError(f"tree needs m == n-1, got m={g.m}, n={n}")
        order, parent = bfs_order(g, 0)
        if len(order) != n:
            raise ValueError("tree must be connected")
        t = cls._trusted_parents(parent)
        object.__setattr__(t, "_edges", g._edges)
        object.__setattr__(t, "_csr", g._csr)
        return t

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(np.count_nonzero(self.parent == v)) + (v != 0)

    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.parent[1:], minlength=self.n)
        deg[1:] += 1
        return deg

    def edges(self) -> np.ndarray:
        if self._edges is None:
            keys = pair_keys(self.n, self.parent[1:], np.arange(1, self.n))
            object.__setattr__(self, "_edges", _key_edges(self.n, keys))
        return self._edges


def bernoulli_positions(total: int, p: float, gen: np.random.Generator) -> np.ndarray:
    """Ascending Bernoulli(p) subset of range(total) via geometric skipping;
    exactly i.i.d. inclusions without touching every slot.  total must be
    below 2^63, the positions being int64."""
    if total >= 1 << 63:
        raise ValueError(f"cannot skip-sample {total} slots: the limit is 2^63 - 1")
    if p == 0.0 or total == 0:
        return np.empty(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(total, dtype=np.int64)
    mean = total * p
    parts = []
    last = -1
    while last < total - 1:
        need = int((total * p - max(last, 0) * p) + 12 * math.sqrt(mean + 1) + 16)
        # a gap of room or more ends the walk; clipped at room, the gaps
        # cannot wrap the unsigned sums before the first one to reach it
        room = np.uint64(total - last)
        steps = gen.geometric(p, size=max(need, 16)).view(np.uint64)
        np.cumsum(np.minimum(steps, room, out=steps), out=steps)
        past = steps >= room
        if past.any():
            parts.append(steps[:past.argmax()].view(np.int64) + last)
            break
        parts.append(steps.view(np.int64) + last)
        last = int(parts[-1][-1])
    return np.concatenate(parts)


def bernoulli_pairs(k: int, p: float, gen: np.random.Generator) -> np.ndarray:
    """Bernoulli(p) subset of the C(k, 2) pairs (i < j) of k vertices, as
    their ascending int64 keys i * k + j."""
    return _linear_to_pair(bernoulli_positions(k * (k - 1) // 2, p, gen), k)


def _linear_to_pair(k: np.ndarray, n: int) -> np.ndarray:
    """Keys i * n + j of the pairs (i < j) at the given indices of their
    row-major enumeration, where pair (i, j) has index
    i*n - i(i+1)/2 + (j - i - 1)."""

    def row_start(i):
        return i * n - i * (i + 1) // 2

    kf = k.astype(np.float64)
    i = np.floor(((2 * n - 1) - np.sqrt((2 * n - 1) ** 2 - 8.0 * kf)) / 2.0).astype(np.int64)
    i = np.clip(i, 0, n - 2)
    # float sqrt can land one row off; fix up exactly
    too_far = row_start(i) > k
    i[too_far] -= 1
    too_near = k >= row_start(i + 1)
    i[too_near] += 1
    return i * n + (k - row_start(i) + i + 1)


def pair_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Keys lo * n + hi of the unordered pairs {u[k], v[k]} given as int64
    arrays of vertices below n."""
    # lo * n + hi = lo * (n - 1) + u + v, in place: no array for hi
    keys = np.minimum(u, v)
    keys *= n - 1
    keys += u
    keys += v
    return keys


def _key_edges(n: int, keys: np.ndarray) -> np.ndarray:
    """Sort the int64 keys lo * n + hi in place and split them into a
    read-only (m, 2) edge array (lo, hi) in lexicographic order."""
    keys.sort()
    edges = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, n, out=(edges[:, 0], edges[:, 1]))
    edges.setflags(write=False)
    return edges


def bfs_order(g: Graph, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first order and parent array of the component containing root.

    Neighbours join in ascending id order.  parent[root] == -1; vertices
    outside the component keep parent -2.
    """
    # importing scipy.sparse.csgraph costs every command about 60 ms of
    # start-up, so only the callers of this function pay for it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order
    g._check_vertex(root)
    indptr, indices = g.csr()
    # the rows are symmetric and sorted, so the directed walk visits each
    # vertex's neighbours in ascending order, as a queue search does
    adj = csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr),
                     shape=(g.n, g.n))
    order, pred = breadth_first_order(adj, root, directed=True,
                                      return_predecessors=True)
    parent = np.full(g.n, -2, dtype=np.int64)
    parent[order[1:]] = pred[order[1:]]
    parent[root] = -1
    return order.astype(np.int64, copy=False), parent


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" + edge-lines text format (1-indexed, u < v), checking
    each line once, in order, and sorting the edge keys (u - 1) n + v - 1."""
    lines = text.splitlines()
    header = lines[0].split() if lines else []
    if len(header) != 2:
        raise ParseError("line 1: expected header 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError("line 1: header values must be integers") from None
    if n < 0 or m < 0:
        raise ParseError("line 1: n and m must be nonnegative")
    if n > _MAX_VERTICES:
        raise ParseError(f"line 1: n={n} is past the int64 pair-key limit {_MAX_VERTICES}")
    keys: set[int] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if not parts:
            continue
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
        key = (u - 1) * n + (v - 1)
        if key in keys:
            raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
        keys.add(key)
    if len(keys) != m:
        raise ParseError(f"line {len(lines)}: header declares m={m} but found {len(keys)} edges")
    return Graph._from_keys(n, np.fromiter(keys, dtype=np.int64, count=len(keys)))


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; emits 1-indexed edges with u < v, sorted."""
    e = g.edges() + 1
    lines = map("{} {}".format, e[:, 0].tolist(), e[:, 1].tolist())
    return "\n".join([f"{g.n} {g.m}", *lines]) + "\n"

