"""Reference implementations on dense adjacency matrices and Python loops.

These are the former library paths, kept as oracles: the edge store, the
parent-array trees, the block-pair SBM sampler, the one-hot product of
genie-aided recovery, the urn ensemble, the replica loops of `sbm
recover` and the degree-scaling experiment, and the one-matrix-at-a-time
geometry replicas are checked against them for identical results (where
the arithmetic is the same) or the same law.  The fair coins of dense
G(n, 1/2) and of Rademacher entries are read from raw Philox words by
shifts; the float and integer draws they replaced are kept as the
references for their law.  A queue search over dense rows and a pairwise
union of close communities check the breadth-first order and the
finest partition, which scipy.sparse.csgraph computes.
The tree helpers at the end (a uniform relabeling, component sizes, psi,
AHU signatures) are the definitions the tests check the library against.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse

from netinfer import sbm
from netinfer.geom import threshold
from netinfer.graphcore import Tree, bfs_order
from netinfer.trees import centroid, grow


def dense_adj(n: int, edges) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adj[u, v] = adj[v, u] = True
    return adj


def exact_pair(index: int, n: int) -> tuple[int, int]:
    """Row i and column j of the pair at `index` of the row-major
    enumeration of the pairs i < j < n, in Python integers.  Counted from
    the end, the rows from i on hold m(m + 1)/2 pairs with m = n - 1 - i,
    so an integer square root of the pairs after this one finds m."""
    after = n * (n - 1) // 2 - 1 - index
    m = (1 + math.isqrt(8 * after + 1)) // 2
    return n - 1 - m, n - 1 - (after - m * (m - 1) // 2)


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


def dense_root_ranks(model: str, n: int, replicas: int, rng,
                     seed_edges: np.ndarray, n0: int,
                     scoring: str = "root") -> np.ndarray:
    """Grow, relabel into a new dense matrix, and find each target's label
    in the lexsort order of its branch weights; the smaller position of
    the two seed-edge endpoints for either_endpoint."""
    ranks = np.empty(replicas, dtype=np.int64)
    for i in range(replicas):
        parents = loop_grow_parents(model, n, seed_edges, n0, rng.substream(i))
        edges = [tuple(e) for e in seed_edges]
        edges += [(int(p), n0 + j) for j, p in enumerate(parents)]
        perm = rng.substream(replicas + i).generator().permutation(n)
        adj = dense_adj(n, [(perm[u], perm[v]) for u, v in edges])
        order = np.lexsort((np.arange(n), dense_branch_weights(adj))).tolist()
        targets = (0,) if scoring == "root" else (0, 1)
        ranks[i] = min(order.index(int(perm[v])) for v in targets)
    return ranks


def dense_sample_sbm(n: int, params, rng) -> tuple[np.ndarray, np.ndarray]:
    """(adjacency, labels): one uniform per vertex pair against its
    block's edge probability."""
    probs = params.edge_probabilities(n)
    gen = rng.generator()
    labels = gen.choice(params.k, size=n, p=params.p)
    block = gen.random((n, n)) < probs[np.ix_(labels, labels)]
    adj = np.triu(block, 1)
    return adj | adj.T, labels


def union_of_close_pairs(params) -> list[list[int]]:
    """Blocks of communities joined pair by pair whenever D_+ < 1: each
    close pair merges the two sets holding it.  Listed by smallest member."""
    profiles = sbm.community_profiles(params)
    blocks = [{i} for i in range(params.k)]
    for i in range(params.k):
        for j in range(i + 1, params.k):
            if sbm.ch_divergence(profiles[i], profiles[j]).d_plus < 1.0:
                merged = blocks[i] | blocks[j]
                for v in merged:
                    blocks[v] = merged
    return sorted({min(b): sorted(b) for b in blocks}.values())


def loop_sbm_recover(n: int, params, corruption: float, rounds: int,
                     replicas: int, rng) -> tuple[float, float, float]:
    """(mean accuracy, exact-recovery rate, its binomial se): replica i
    samples on substream i and corrupts labels on substream replicas + i."""
    accuracies = np.empty(replicas, dtype=np.float64)
    exact = 0
    for i in range(replicas):
        lg = sbm.sample_sbm(n, params, rng.substream(i))
        recovered = sbm.genie_recover(lg, params, corruption, rounds,
                                      rng.substream(replicas + i))
        accuracies[i] = float((recovered == lg.labels).mean())
        exact += bool((recovered == lg.labels).all())
    rate = exact / replicas
    return float(accuracies.mean()), rate, math.sqrt(rate * (1 - rate) / replicas)


def product_genie_recover(lg, params, corruption: float, rounds: int,
                          rng) -> np.ndarray:
    """genie_recover with each round's label counts taken as the product of
    the CSR adjacency matrix and a float one-hot label matrix."""
    n, k = lg.graph.n, params.k
    gen = rng.generator()
    labels = lg.labels.copy()
    if corruption > 0.0 and k > 1:
        flip = gen.random(n) < corruption
        offset = gen.integers(1, k, size=n)
        labels[flip] = (labels[flip] + offset[flip]) % k
    L = math.log(n) * np.column_stack(sbm.community_profiles(params)).T
    indptr, indices = lg.graph.csr()
    adj = scipy.sparse.csr_matrix((np.ones(indices.size), indices, indptr),
                                  shape=(n, n))
    for _ in range(rounds):
        onehot = np.zeros((n, k), dtype=np.float64)
        onehot[np.arange(n), labels] = 1.0
        labels = np.argmax(sbm._map_scores(adj @ onehot, L, params.p), axis=1)
    return labels


def loop_degree_scaling(n_values, runs: int, rng, model: str) -> tuple[float, tuple]:
    """(slope, mean degrees) of vertex 0, one tree per run grown to
    max(n_values) on substream run from the default seed."""
    n0 = 1 if model == "ua" else 2
    base = 0 if model == "ua" else 1
    steps = np.asarray(n_values, dtype=np.int64) - n0
    sums = np.zeros(len(n_values), dtype=np.float64)
    for run in range(runs):
        parents = grow(model, n_values[-1], rng.substream(run)).parent[n0:]
        hits = np.concatenate([[0], np.cumsum(parents == 0)])
        sums += base + hits[steps]
    means = sums / runs
    slope = float(np.polyfit(np.log(n_values), np.log(means), 1)[0])
    return slope, tuple(float(x) for x in means)


def loop_urn_run_batch(initial, steps: int, runs: int, rng,
                       checkpoints=None) -> np.ndarray:
    """Urn ensemble stepped one draw at a time: a fresh gen.random(runs) per
    step, the color from cumulative per-run counts, its replacement row
    gathered and added."""
    marks = np.unique(np.asarray([steps] if checkpoints is None
                                 else list(checkpoints), dtype=np.int64))
    gen = rng.generator()
    m = initial.colors
    counts = np.tile(initial.counts.astype(np.int64), (runs, 1))
    repl = initial.replacement
    row_tot = repl.sum(axis=1)
    totals = np.full(runs, initial.total, dtype=np.int64)
    out = np.empty((marks.size, runs, m), dtype=np.int64)
    pos = 0
    if marks.size and marks[0] == 0:
        out[0] = counts
        pos = 1
    for s in range(1, steps + 1):
        x = gen.random(runs) * totals
        cum = np.cumsum(counts, axis=1)
        chosen = (cum <= x[:, None]).sum(axis=1)
        counts += repl[chosen]
        totals += row_tot[chosen]
        if pos < marks.size and marks[pos] == s:
            out[pos] = counts
            pos += 1
    return out


def replica_loop(fn, replicas: int, rng) -> np.ndarray:
    """fn on substreams 0..replicas-1 of rng, one replica at a time."""
    return np.array([fn(rng.substream(i)) for i in range(replicas)],
                    dtype=np.float64)


def loop_coins(gen, rows: int, cols: int) -> np.ndarray:
    """rows x cols int64 fair coins, 0 or 1: ceil(cols/64) raw Philox words
    per row, row after row, and coin k of a row the bit k mod 64 of its
    word k // 64, read by shifts."""
    per_row = -(-cols // 64)
    words = gen.bit_generator.random_raw((rows, per_row, 1))
    bits = (words >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    return bits.reshape(rows, 64 * per_row)[:, :cols].astype(np.int64)


def loop_er(n: int, p: float, gen) -> np.ndarray:
    """Dense G(n, p) adjacency: at p = 1/2 from one row of n^2 fair coins,
    otherwise from one n x n uniform mask."""
    if p != 0.5:
        return loop_er_uniform(n, p, gen)
    adj = np.triu(loop_coins(gen, 1, n * n).reshape(n, n) == 1, 1)
    return adj | adj.T


def loop_er_uniform(n: int, p: float, gen) -> np.ndarray:
    """Dense G(n, p) adjacency from one n x n uniform mask, below p: the
    float draw, kept at p = 1/2 as the reference for the law of the coins."""
    adj = np.triu(gen.random((n, n)) < p, 1)
    return adj | adj.T


def loop_bartlett(n: int, d: int, gen) -> np.ndarray:
    L = np.zeros((n, n))
    L[np.tril_indices(n, -1)] = gen.standard_normal(n * (n - 1) // 2)
    L[np.diag_indices(n)] = np.sqrt(gen.chisquare(d - np.arange(n)))
    return L


def loop_rgg(n: int, p: float, d: int, gen) -> np.ndarray:
    """Dense G(n, p, d) adjacency: Bartlett Gram matrix for n <= d, drawn
    sphere points otherwise."""
    t = threshold(p, d)
    if n <= d:
        X = loop_bartlett(n, d, gen)
        X /= np.linalg.norm(X, axis=1, keepdims=True)
    else:
        X = loop_sphere(n, d, gen)
    adj = np.triu(X @ X.T >= t, 1)
    return adj | adj.T


def loop_sphere(n: int, d: int, gen) -> np.ndarray:
    """n normalized standard Gaussian rows, an all-zero row drawn again
    until none is left."""
    X = gen.standard_normal((n, d))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    while (norms == 0.0).any():
        bad = norms[:, 0] == 0.0
        X[bad] = gen.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(X, axis=1, keepdims=True)
    return X / norms


def loop_entries(gen, shape, entry_dist: str) -> np.ndarray:
    """Entries of one law; Rademacher signs 2 b - 1 from the fair coins b
    of loop_coins, a row along the last axis."""
    if entry_dist == "gaussian":
        return gen.standard_normal(shape)
    if entry_dist == "uniform-scaled":
        return gen.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=shape)
    coins = loop_coins(gen, math.prod(shape[:-1]), shape[-1])
    return 2.0 * coins.reshape(shape) - 1.0


def integer_signs(gen, shape) -> np.ndarray:
    """Rademacher entries from one integer draw each: the former draw, kept
    as the reference for the law of the coins."""
    return 2.0 * gen.integers(0, 2, size=shape).astype(np.float64) - 1.0


def loop_wishart(n: int, d: int, entry_dist: str, kind: str, gen) -> np.ndarray:
    """One matrix of geom.sample_wishart's ensembles, with a non-Bartlett
    Wishart entry matrix drawn as one n x d array (the direct draw).
    sample_wishart draws it in column chunks, which gives the same bits
    only while d fits in one chunk."""
    if kind in ("wishart", "wishart_scaled_nodiag"):
        if entry_dist == "gaussian" and d >= n:
            L = loop_bartlett(n, d, gen)
            W = L @ L.T
        else:
            Y = loop_entries(gen, (n, d), entry_dist)
            W = Y @ Y.T
        W = (W + W.T) / 2.0
        if kind == "wishart_scaled_nodiag":
            np.fill_diagonal(W, 0.0)
            W /= math.sqrt(d)
        return W
    M = np.triu(loop_entries(gen, (n, n), entry_dist), 1)
    M = M + M.T
    if kind == "goe_nodiag":
        return M
    np.fill_diagonal(M, math.sqrt(2.0) * loop_entries(gen, (n,), entry_dist))
    return math.sqrt(d) * M + d * np.eye(n)


def chunked_gram(n: int, d: int, width: int, entry_dist: str, gen) -> np.ndarray:
    """Y Y^T summed over the column chunks of Y, each of `width` columns
    but the last, drawn one after another as fresh arrays."""
    W = np.zeros((n, n))
    for start in range(0, d, width):
        Y = loop_entries(gen, (n, min(width, d - start)), entry_dist)
        W += Y @ Y.T
    return W


def loop_signs(w: np.ndarray) -> np.ndarray:
    adj = w >= 0.0
    np.fill_diagonal(adj, False)
    return adj


def direct_tau(adj: np.ndarray, p: float) -> float:
    """The float64 Tr(B^3)/6 with B the adjacency centered by p off the
    diagonal: the former statistic kernel."""
    B = adj.astype(np.float64) - p
    np.fill_diagonal(B, 0.0)
    return float(((B @ B) * B).sum()) / 6.0


def loop_tau(adj: np.ndarray, p: float) -> float:
    """tau = T - p W + p^2 (n-2) m - p^3 C(n,3) from the triangle count T,
    the two-edge paths W = sum_i C(d_i, 2) and the edge count m, in the
    library's order of float operations."""
    n = adj.shape[0]
    degrees = [int(row.sum()) for row in adj]
    wedges = sum(d * (d - 1) // 2 for d in degrees)
    m = sum(degrees) // 2
    p2 = p * p
    return float(loop_triangles(adj) - p * wedges + p2 * ((n - 2) * m)
                 - p2 * p * math.comb(n, 3))


def loop_triangles(adj: np.ndarray) -> float:
    a = adj.astype(np.float32)
    return float(int(round(float(((a @ a) * a).sum(dtype=np.float64)) / 6.0)))


def loop_tr3(w: np.ndarray) -> float:
    return float(((w @ w) * w.T).sum())


def relabel_uniform(t: Tree, rng) -> tuple[Tree, int]:
    """Uniformly random relabeling of a grown tree; returns it with the new
    id of the chronologically first vertex (kept aside for scoring only)."""
    perm = rng.generator().permutation(t.n)
    relabeled = t if t.n == 1 else Tree.from_edges(t.n, perm[t.edges()])
    return relabeled, int(perm[0])


def components_after_removal(t, v: int) -> list[int]:
    """Sizes of the components of t - v, largest first; they sum to n - 1."""
    t._check_vertex(v)
    n = t.n
    if n == 1:
        return []
    sizes = []
    seen = np.zeros(n, dtype=bool)
    seen[v] = True
    for start in t.neighbors(v):
        if seen[start]:
            continue
        stack = [int(start)]
        seen[start] = True
        count = 0
        while stack:
            u = stack.pop()
            count += 1
            nbrs = t.neighbors(u)
            for w in nbrs[~seen[nbrs]]:
                seen[w] = True
                stack.append(int(w))
        sizes.append(count)
    return sorted(sizes, reverse=True)


def psi(t, v: int) -> int:
    """Size of the largest component remaining after deleting v."""
    sizes = components_after_removal(t, v)
    return max(sizes) if sizes else 0


def ahu_signature(t) -> str:
    """Canonical string for the isomorphism class (small-n test utility).

    Rooted signatures are nested parentheses with children sorted; the
    unrooted code roots at each centroid and keeps the smaller string.
    """
    return min(_rooted_signature(t, r) for r in sorted(centroid(t)))


def _rooted_signature(t, root: int) -> str:
    order, parent = bfs_order(t, root)
    children: list[list[int]] = [[] for _ in range(t.n)]
    for v in order[1:]:
        children[parent[v]].append(int(v))
    sig = [""] * t.n
    for v in order[::-1]:
        sig[v] = "(" + "".join(sorted(sig[c] for c in children[v])) + ")"
    return sig[root]
