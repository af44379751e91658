"""Uniform and preferential attachment trees and root-finding.

Seeded growth with vertices in arrival order, the branch-weight statistic
(size of the largest component left after deleting a vertex), centroids,
ranked root confidence sets with the centroid-bound sizes, and Monte Carlo
experiments for root-finding success and fixed-vertex degree growth.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .graphcore import Graph, RngStream, Tree
from .harness import binomial_se, replicate

MODELS = ("ua", "pa")


class MaxDegree(NamedTuple):
    vertex: int
    degree: int


class DegreeScaling(NamedTuple):
    slope: float  # least-squares slope of log mean degree vs log n
    mean_degree: tuple  # one mean per requested size


class RootFindingReport(NamedTuple):
    success_rate: float
    se: float  # binomial standard error of success_rate


def grow(model: str, n: int, rng: RngStream, seed: Tree | None = None) -> Tree:
    """Grow an n-vertex attachment tree from the seed.

    "ua" attaches each new vertex to a uniformly random existing vertex;
    "pa" picks the endpoint with probability degree/(2 * edges).  Defaults:
    a single vertex for ua, a single edge for pa (pa from one vertex has
    no degrees to bias and is rejected).  Vertices are numbered in arrival
    order, so seed vertices keep their ids and vertex 0 is the root.
    """
    model = _norm_model(model)
    if seed is None:
        seed = default_seed(model)
    if model == "pa" and seed.n < 2:
        raise ValueError("preferential attachment needs a seed with at least two vertices")
    if n < seed.n:
        raise ValueError("n must be at least the seed size")
    parent = np.concatenate([seed.parent, _grow_parents(model, n, seed, rng)])
    return Tree._trusted_parents(parent)


def branch_weights(t: Tree) -> np.ndarray:
    """psi for every vertex in one pass over the parent array.

    Rooted at 0, the components left by deleting v are its child subtrees
    plus everything above, so psi(v) is the larger of the biggest child
    subtree and n - subtree(v).
    """
    n = t.n
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    parent = t.parent
    sub = _subtree_sizes(parent)
    child_max = np.zeros(n, dtype=np.int64)
    np.maximum.at(child_max, parent[1:], sub[1:])
    weights = np.maximum(child_max, n - sub)
    weights[0] = child_max[0]
    return weights


def centroid(t: Tree) -> set:
    """Vertices minimizing the branch weight; a tree has one or two."""
    bw = branch_weights(t)
    return {int(v) for v in np.nonzero(bw == bw.min())[0]}


def root_confidence_set(t: Tree, K: int) -> np.ndarray:
    """The K vertices of smallest branch weight, ties broken by vertex id,
    as a read-only int64 array in that order (all n vertices if K > n)."""
    if K < 1:
        raise ValueError("K must be at least 1")
    picked = np.argsort(branch_weights(t), kind="stable")[:K]
    picked.setflags(write=False)
    return picked


def required_k(model: str, epsilon: float, c: float = 1.0) -> int:
    """Confidence-set size with guaranteed coverage at the given epsilon.

    ua ("centroid_ua"): ceil(2.5 * ln(1/eps) / eps), the size at which the
    branch-weight set covers the uniform-attachment root with probability
    at least 1 - 4*eps/(1-eps) as n grows.  pa ("paper_pa_upper"):
    ceil(c * ln(1/eps)^2 / eps^4); only the existence of a constant is
    known, so c (default 1) is an uncalibrated engineering choice and
    results using it report that caveat.
    """
    model = _norm_model(model)
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    log_inv = math.log(1.0 / epsilon)
    if model == "ua":
        return math.ceil(2.5 * log_inv / epsilon)
    return math.ceil(c * log_inv ** 2 / epsilon ** 4)


def max_degree(g: Graph) -> MaxDegree:
    """Highest-degree vertex, ties to the smallest id."""
    degs = g.degrees()
    v = int(np.argmax(degs))
    return MaxDegree(vertex=v, degree=int(degs[v]))


def fixed_vertex_degree_scaling(n_values: Sequence[int], runs: int,
                                rng: RngStream, model: str = "pa") -> DegreeScaling:
    """Log-log slope of the mean degree of the first vertex across sizes.

    Each run grows a single tree to max(n_values) from the default seed and
    reads the degree of vertex 0 at every requested size, so the per-size
    means ride the same trajectories.  Run i uses substream i.
    """
    model = _norm_model(model)
    n_values = [int(n) for n in n_values]
    if len(n_values) < 2 or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("need at least two strictly increasing sizes")
    if runs < 1:
        raise ValueError("runs must be positive")
    seed = default_seed(model)
    n0 = seed.n
    if n_values[0] < n0:
        raise ValueError("sizes must be at least the seed size")
    n_max = n_values[-1]
    base = seed.degree(0)
    steps = np.asarray(n_values, dtype=np.int64) - n0  # growth steps completed

    def degrees(s: RngStream) -> np.ndarray:
        parents = _grow_parents(model, n_max, seed, s)
        hits = np.concatenate([[0], np.cumsum(parents == 0)])
        return base + hits[steps]
    means = replicate(degrees, runs, rng).sum(axis=0) / runs
    slope = float(np.polyfit(np.log(n_values), np.log(means), 1)[0])
    return DegreeScaling(slope=slope,
                         mean_degree=tuple(float(x) for x in means))


def root_leaf_probability(model: str, n: int) -> float:
    """Exact P(the first vertex still has degree <= 1 at size n) from the
    default seed: every later arrival must avoid it, so the probability is
    a product over growth steps (1/(n-1) for ua, ~1/sqrt(n) for pa)."""
    model = _norm_model(model)
    if n < 2:
        raise ValueError("need n >= 2")
    if model == "ua":
        return float(np.prod(1.0 - 1.0 / np.arange(2, n)))
    return float(np.prod(1.0 - 0.5 / np.arange(1, n - 1)))


def root_ranks(model: str, n: int, replicas: int, rng: RngStream,
               scoring: str = "root", seed: Tree | None = None) -> np.ndarray:
    """How many vertices rank ahead of the hidden root, one int64 count per
    replica of a freshly grown, uniformly relabeled tree.

    Vertices rank by (branch weight, label), so the relabeled tree's size-K
    confidence set catches the target exactly when its rank is below K.
    scoring "root" targets the chronologically first vertex;
    "either_endpoint" takes the smaller rank of the two seed-edge endpoints
    (needs seed_size >= 2).  Growth uses substream i, relabeling substream
    replicas + i.
    """
    if replicas < 1:
        raise ValueError("replicas must be positive")
    if scoring not in ("root", "either_endpoint"):
        raise ValueError(f"unknown scoring mode: {scoring!r}")
    model = _norm_model(model)
    seed_size = default_seed(model).n if seed is None else seed.n
    if scoring == "either_endpoint" and seed_size < 2:
        raise ValueError("either_endpoint scoring needs a seed edge")
    targets = (0,) if scoring == "root" else (0, 1)

    def rank(s: RngStream) -> int:
        bw = branch_weights(grow(model, n, s, seed=seed))
        # vertex v carries label[v] in the relabeled tree
        label = s.substream(replicas).generator().permutation(n)
        return min(np.count_nonzero((bw < bw[v])
                                    | ((bw == bw[v]) & (label < label[v])))
                   for v in targets)
    return replicate(rank, replicas, rng).astype(np.int64)


def root_finding_success(model: str, n: int, K: int, replicas: int,
                         rng: RngStream, scoring: str = "root",
                         seed: Tree | None = None) -> RootFindingReport:
    """Fraction of replicas whose size-K branch-weight confidence set
    catches the hidden root: the share of root_ranks below K."""
    if K < 1:
        raise ValueError("K must be at least 1")
    rate = float((root_ranks(model, n, replicas, rng, scoring, seed) < K).mean())
    return RootFindingReport(success_rate=rate, se=binomial_se(rate, replicas))


def star(n: int) -> Tree:
    """Star with center 0."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Tree([-1] + [0] * (n - 1))


def path(n: int) -> Tree:
    """Path 0 - 1 - ... - (n-1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return Tree([-1] + list(range(n - 1)))


def default_seed(model: str) -> Tree:
    """The seed grow() starts from: one vertex for ua, one edge for pa."""
    return Tree([-1] if _norm_model(model) == "ua" else [-1, 0])


def _grow_parents(model: str, n: int, seed: Tree, rng: RngStream) -> np.ndarray:
    """Attachment targets for vertices seed.n .. n-1, in arrival order."""
    gen = rng.generator()
    n0 = seed.n
    if n == n0:
        return np.empty(0, dtype=np.int64)
    if model == "ua":
        return gen.integers(0, np.arange(n0, n))
    # pa: flat list of edge endpoints; each edge holds two slots, so a
    # uniform slot is a degree-biased vertex.  Step t draws slot
    # s_t = floor(u_t * (fill0 + 2t)).  The seed edges fill the first fill0
    # slots as (lo, hi) pairs; step t' then appends parents[t'] and
    # n0 + t'.  An even slot past the seed refers to an earlier step, and
    # pointer jumping resolves those chains in O(log length) rounds.
    steps = n - n0
    fill0 = 2 * (n0 - 1)
    slot = (gen.random(steps) * (fill0 + 2 * np.arange(steps))).astype(np.int64)
    parents = np.empty(steps, dtype=np.int64)
    from_seed = slot < fill0
    parents[from_seed] = seed.edges().ravel()[slot[from_seed]]
    later = slot[~from_seed] - fill0
    t_new = np.nonzero(~from_seed)[0]
    odd = later % 2 == 1
    parents[t_new[odd]] = n0 + later[odd] // 2
    link = np.arange(steps)  # an unresolved step copies the parent of link[t]
    pending = t_new[~odd]
    link[pending] = later[~odd] // 2
    known = np.ones(steps, dtype=bool)
    known[pending] = False
    while pending.size:
        target = link[pending]
        done = known[target]
        parents[pending[done]] = parents[target[done]]
        known[pending[done]] = True
        pending = pending[~done]
        link[pending] = link[target[~done]]
    return parents


def _subtree_sizes(parent: np.ndarray) -> np.ndarray:
    """Subtree sizes of the tree with this parent array, rooted at 0.

    Depths come from pointer jumping; the sizes then add up level by level
    from the deepest, so the pass costs O(n log n) plus one numpy call per
    level.
    """
    n = parent.size
    up = np.where(parent >= 0, parent, 0)
    depth = (parent >= 0).astype(np.int64)  # distance from v to up[v]
    while (up != 0).any():
        depth = depth + depth[up]
        up = up[up]
    order = np.argsort(depth, kind="stable")
    ends = np.cumsum(np.bincount(depth))
    sub = np.ones(n, dtype=np.int64)
    for d in range(len(ends) - 1, 0, -1):
        level = order[ends[d - 1]:ends[d]]
        np.add.at(sub, parent[level], sub[level])
    return sub


def _norm_model(model: str) -> str:
    low = model.lower()
    if low not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    return low
