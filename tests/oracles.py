"""Reference implementations on dense adjacency matrices and Python loops.

These are the former library paths, kept as oracles: the edge store, the
parent-array trees and the block-pair SBM sampler are checked against them
for identical results (where the arithmetic is the same) or the same law.
"""

from __future__ import annotations

import numpy as np


def dense_adj(n: int, edges) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return adj


def dense_bfs(adj: np.ndarray, root: int) -> tuple[np.ndarray, np.ndarray]:
    """Queue BFS scanning dense rows; neighbours join in ascending order."""
    n = adj.shape[0]
    parent = np.full(n, -2, dtype=np.int64)
    parent[root] = -1
    seen = np.zeros(n, dtype=bool)
    seen[root] = True
    order = [root]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        nbrs = np.nonzero(adj[v] & ~seen)[0]
        seen[nbrs] = True
        parent[nbrs] = v
        order.extend(int(w) for w in nbrs)
    return np.array(order, dtype=np.int64), parent


def dense_branch_weights(adj: np.ndarray) -> np.ndarray:
    n = adj.shape[0]
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    order, parent = dense_bfs(adj, 0)
    sub = np.ones(n, dtype=np.int64)
    for v in order[:0:-1]:
        sub[parent[v]] += sub[v]
    child_max = np.zeros(n, dtype=np.int64)
    np.maximum.at(child_max, parent[order[1:]], sub[order[1:]])
    weights = np.maximum(child_max, n - sub)
    weights[0] = child_max[0]
    return weights


def dense_max_degree(adj: np.ndarray) -> tuple[int, int]:
    degs = np.count_nonzero(adj, axis=1)
    v = int(np.argmax(degs))
    return v, int(degs[v])


def loop_grow_parents(model: str, n: int, seed_edges: np.ndarray, n0: int,
                      rng) -> np.ndarray:
    """Attachment targets for vertices n0 .. n-1; pa fills the edge-endpoint
    slot list one step at a time."""
    gen = rng.generator()
    if n == n0:
        return np.empty(0, dtype=np.int64)
    if model == "ua":
        return gen.integers(0, np.arange(n0, n))
    us = gen.random(n - n0)
    slots = np.empty(2 * (n - 1), dtype=np.int64)
    fill = 2 * (n0 - 1)
    slots[0:fill:2] = seed_edges[:, 0]
    slots[1:fill:2] = seed_edges[:, 1]
    parents = np.empty(n - n0, dtype=np.int64)
    for t_idx in range(n - n0):
        p = int(slots[int(us[t_idx] * fill)])
        parents[t_idx] = p
        slots[fill] = p
        slots[fill + 1] = n0 + t_idx
        fill += 2
    return parents


def dense_root_finding_rate(model: str, n: int, K: int, replicas: int, rng,
                            seed_edges: np.ndarray, n0: int,
                            scoring: str = "root") -> float:
    """Grow, relabel into a new dense matrix, rank its branch weights."""
    hits = 0
    for i in range(replicas):
        parents = loop_grow_parents(model, n, seed_edges, n0, rng.substream(i))
        edges = [tuple(e) for e in seed_edges]
        edges += [(int(p), n0 + j) for j, p in enumerate(parents)]
        perm = rng.substream(replicas + i).generator().permutation(n)
        adj = dense_adj(n, [(perm[u], perm[v]) for u, v in edges])
        bw = dense_branch_weights(adj)
        conf = set(np.lexsort((np.arange(n), bw))[:K].tolist())
        targets = (0,) if scoring == "root" else (0, 1)
        hits += any(int(perm[v]) in conf for v in targets)
    return hits / replicas


def dense_sample_sbm(n: int, params, rng) -> tuple[np.ndarray, np.ndarray]:
    """(adjacency, labels): one uniform per vertex pair against its
    block's edge probability."""
    probs = params.edge_probabilities(n)
    gen = rng.generator()
    labels = gen.choice(params.k, size=n, p=params.p)
    block = gen.random((n, n)) < probs[np.ix_(labels, labels)]
    adj = np.triu(block, 1)
    return adj | adj.T, labels
