"""Random geometric graphs on the sphere, triangle statistics, Wishart and
GOE ensembles, and dimension estimation.

The detection statistic throughout is the signed triangle count
tau(G) = sum over triples of (A_ij - p)(A_ik - p)(A_jk - p); geometry
inflates its mean by order n^3/sqrt(d) while the null keeps mean 0.  It is
computed from the triangle count, the degrees and the edge count, so a
sparse graph needs no n x n array for it.

Gaussian Wishart matrices W(n, d) with d >= n, and the Gram matrices of
dense sphere graphs with d >= n, are drawn through the Bartlett
decomposition W = L L^T from about n^2/2 numbers, so their cost does not
grow with d.  The Gram matrix of n uniform sphere points is W(n, d)
divided by its diagonal, so G(n, p, d) follows from the same draw.
Uniform entries and d < n draw all n d entries, but a cache-sized chunk
of columns at a time, summing the chunks' Gram products, so memory does
not grow with d.  Fair coins, the edges of dense G(n, 1/2) and the signs
of Rademacher entries, are single bits of raw Philox words, 64 to a word;
a Rademacher Gram matrix is counted from the packed bits of its rows,
W_ij = d - 2 popcount(y_i xor y_j), a cache-sized chunk of words at a
time.

Random graphs are drawn as matrices only when graphcore.prefers_dense
says they pay for the expected edge count; otherwise G(n, p) is drawn by
geometric skipping over the pairs and G(n, p, d) from sorted angles
(d = 2) or row-chunked Gram products, as int64 edge keys lo * n + hi.
Where few pairs lie within a proven rounding margin of the threshold,
those products are float32 and only screen the pairs; the pairs inside
the margin are decided in float64, so the edge rule is the float64 one up
to its summation order.  Otherwise they are float64.  Past the same rule
the triangle count multiplies the strict upper triangle, whose
compressed rows are the sorted edge array.

Monte Carlo replicas come from graph_replica and matrix_replica.  Where
the graph or matrix is dense these are harness.Batched: a stacked kernel
draws a block of replicas, each from its own substream, and scores the
block with stacked matrix products.  The single-graph samplers and
statistics run the same kernels on a block of one, so both paths give the
same bits.

Sphere points and matrix ensembles come back as read-only float64 arrays.
The two-arm experiments return harness.PowerReport with G(n, p) as the
null and G(n, p, d) as the alternative.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse as _sparse
from scipy.special import betainc, betaincinv

from .graphcore import (CACHE_BYTES, Graph, RngStream, bernoulli_pairs,
                        check_dense, fits_dense, pair_keys, prefers_dense)
from .harness import Batched, PowerReport, power_from_samples, two_arm

WISHART_KINDS = ("wishart", "goe_shifted", "wishart_scaled_nodiag", "goe_nodiag")
ENTRY_DISTS = ("gaussian", "uniform-scaled", "rademacher")


class TriangleMoments(NamedTuple):
    mean: float
    variance: float


@dataclass(frozen=True)
class DetectionResult:
    verdict: str
    statistic: float


def sample_sphere(n: int, d: int, rng: RngStream) -> np.ndarray:
    """n i.i.d. uniform points on S^{d-1}, the rows of a read-only (n, d)
    array: normalized standard Gaussians."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if n < 1:
        raise ValueError("n must be positive")
    check_dense(n, 8, "the sphere point matrix", d)
    points = _sphere_stack(n, d, (rng.generator(),))[0]
    points.setflags(write=False)
    return points


# Every sample_rgg call of a Monte Carlo loop asks for the same (p, d), and
# between large dense kernels the two special-function calls run cache-cold:
# 20-150 us a call against 3 us warm on a 2-vCPU 2.1 GHz Xeon.
@functools.lru_cache(maxsize=256)
def threshold(p: float, d: int) -> float:
    """The t with P(<X1, X2> >= t) = p for independent uniform sphere points.

    (1+T)/2 is Beta(a, a) distributed with a = (d-1)/2, so in closed form
    t = 2 I^{-1}_{1-p}(a, a) - 1 with I^{-1} the inverse regularized
    incomplete beta function.  Raises if the attained probability
    1 - I_{(1+t)/2}(a, a) misses p by more than 1e-10.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if d < 2:
        raise ValueError("dimension must be at least 2")
    a = (d - 1) / 2.0
    t = 2.0 * float(betaincinv(a, a, 1.0 - p)) - 1.0
    attained = 1.0 - float(betainc(a, a, (1.0 + t) / 2.0))
    if not abs(attained - p) <= 1e-10:
        raise ArithmeticError(
            f"threshold({p}, {d}) attains probability {attained}, not {p}")
    return t


def rgg_from_points(coords: np.ndarray, p: float) -> Graph:
    """Geometric graph on the rows of an (n, d) array of sphere points:
    edge iff inner product >= t_{p,d}."""
    n, d = coords.shape
    t = threshold(p, d)
    if prefers_dense(n, p * n * (n - 1) / 2):
        check_dense(n, 8, "the Gram matrix")
        return Graph._trusted(_dense_rgg(coords @ coords.T, t))
    if d == 2 and t > 0.0:
        return _rgg_circle(coords, t)
    return Graph._from_keys(n, _edges_by_chunks(coords, t))


def sample_rgg(n: int, p: float, d: int, rng: RngStream) -> Graph:
    """Random geometric graph G(n, p, d).

    For n <= d, when a matrix pays (prefers_dense), the Gram matrix
    of the sphere points is drawn as W_ij / sqrt(W_ii W_jj) with
    W = W(n, d) from the Bartlett decomposition; otherwise the points are
    drawn.
    """
    if 0 < n <= d and prefers_dense(n, p * n * (n - 1) / 2):
        return Graph._trusted(_rgg_stack(n, p, d, (rng.generator(),))[0])
    return rgg_from_points(sample_sphere(n, d, rng), p)


def sample_er(n: int, p: float, rng: RngStream) -> Graph:
    """Erdos-Renyi G(n, p) with i.i.d. Bernoulli(p) edges: a dense mask
    when a matrix pays (prefers_dense), geometric skipping over the pairs
    otherwise."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be positive")
    gen = rng.generator()
    if prefers_dense(n, p * n * (n - 1) / 2):
        check_dense(n, 8, "G(n, p)")
        return Graph._trusted(_er_stack(n, p, (gen,))[0])
    return Graph._from_keys(n, bernoulli_pairs(n, p, gen))


def triangle_count(g: Graph) -> int:
    """Number of triangles T(G) = Tr(A^3)/6.

    A dense matrix product when a matrix pays for the graph's edge count
    (prefers_dense).  Otherwise sparse products of the strict upper
    triangle U of A, whose compressed rows are the sorted edge array
    itself: T = sum((U U) o U) counts each triangle i < k < j once, at
    its edge (i, j).
    """
    n = g.n
    if prefers_dense(n, g.m):
        check_dense(n, 4, "the triangle count")
        return int(_triangles(g.to_dense()))
    e = g.edges()
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(e[:, 0], minlength=n), out=indptr[1:])
    U = _sparse.csr_matrix((np.ones(g.m), e[:, 1], indptr), shape=(n, n))
    return int((U @ U).multiply(U).sum())


def signed_triangle_stat(g: Graph, p: float) -> float:
    """Signed triangle statistic tau(G) = Tr(B^3)/6 with B the adjacency
    centered by p off the diagonal and zero on it.

    Expanding Tr((A - pK)^3) with K = J - I, K^2 = (n-2)K + (n-1)I and
    Tr(A^2 K) = S2 - 2m, where S2 is the sum of squared degrees, gives

        Tr(B^3) = 6T - 3p(S2 - 2m) + 6p^2 (n-2) m - p^3 n(n-1)(n-2),

    so tau comes from the triangle count T, the degrees and the edge count.
    Where a matrix pays for the graph's edge count (prefers_dense),
    T and the degrees come from one float32 product, the stacked kernel
    run on a block of one.  Otherwise T comes from triangle_count's sparse
    products and the degrees from the compressed rows, so a sparse graph
    needs no n x n array.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if prefers_dense(g.n, g.m):
        check_dense(g.n, 4, "the signed triangle statistic")
        return float(_tau(g.to_dense(), p))
    return float(_tau_from_counts(g.n, p, triangle_count(g), g.degrees()))


def triangle_moments_er(n: int, p: float) -> TriangleMoments:
    """Closed-form mean and variance of T(G(n, p)):
    mean = C(n,3) p^3,
    variance = C(n,3)(p^3 - p^6) + 2 C(n,4) C(4,2)(p^5 - p^6).

    The covariance sum runs over ordered pairs of distinct triangles
    sharing an edge: 2 C(4,2) per 4-subset.  Exact by enumeration over
    all graphs at small n.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    c3 = math.comb(n, 3)
    shared = 2 * math.comb(n, 4) * math.comb(4, 2)
    mean = c3 * p ** 3
    var = c3 * (p ** 3 - p ** 6) + shared * (p ** 5 - p ** 6)
    return TriangleMoments(float(mean), float(var))


def sample_wishart(n: int, d: int, entry_dist: str = "gaussian",
                   kind: str = "wishart", rng: RngStream | None = None) -> np.ndarray:
    """Sample one of the ensembles as a read-only n x n float64 array:

    - wishart: Y Y^T with Y an n x d matrix of i.i.d. unit-variance entries
      (for gaussian entries with d >= n, drawn as L L^T by Bartlett;
      otherwise Y is drawn a chunk of columns at a time and the chunks'
      Gram products are summed, so memory is O(n^2) plus one chunk of at
      most max(CACHE_BYTES, 8 n^2 bytes), whatever d is);
    - goe_shifted: sqrt(d) M(n) + d I with M(n) symmetric, off-diagonal
      variance 1 and diagonal variance 2;
    - wishart_scaled_nodiag: (X X^T - diag(X X^T)) / sqrt(d);
    - goe_nodiag: M(n) with the diagonal zeroed.

    entry_dist picks the entry law (mean 0, variance 1); the GOE kinds
    use it for the Wigner entries with the diagonal scaled by sqrt(2).
    """
    if rng is None:
        raise ValueError("rng stream is required")
    if kind not in WISHART_KINDS:
        raise ValueError(f"kind must be one of {WISHART_KINDS}")
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    check_dense(n, 8, f"the {kind} matrix")
    W = _wishart_stack(n, d, entry_dist, kind, (rng.generator(),))[0]
    W.setflags(write=False)
    return W


def h_map(w: np.ndarray) -> Graph:
    """Threshold a symmetric matrix to a graph: edge iff W_ij >= 0, i != j.

    Applied to a Wishart matrix W(n, d) this has exactly the law of
    G(n, 1/2, d); applied to the shifted GOE it gives G(n, 1/2).
    """
    values = np.asarray(w, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("need a square matrix")
    if not np.array_equal(values, values.T):
        raise ValueError("matrix must be symmetric")
    return Graph._trusted(_signs(values))


def tr_cubed(w: np.ndarray) -> float:
    """Trace of the matrix cube."""
    return float(_tr3(np.asarray(w, dtype=np.float64)))


def graph_replica(n: int, p: float, stat: str,
                  d: int | None = None) -> Callable[[RngStream], float]:
    """Replica function of a detection experiment: the statistic ("tau" or
    "t", the triangle count) of one G(n, p), or of one G(n, p, d) when d
    is given, drawn from the replica's stream.

    Where the graph is drawn as a matrix it is a harness.Batched whose
    stacked kernel draws and scores whole blocks of replicas, with the
    values of the single-graph functions.
    """
    score, stack_score = {
        "tau": (lambda g: signed_triangle_stat(g, p), lambda a: _tau(a, p)),
        "t": (lambda g: float(triangle_count(g)), _triangles),
    }[stat]
    if d is None:
        def one(s): return score(sample_er(n, p, s))
        def draw(gens): return _er_stack(n, p, gens)
    else:
        def one(s): return score(sample_rgg(n, p, d, s))
        def draw(gens): return _rgg_stack(n, p, d, gens)
    if not (0.0 < p < 1.0 and (d is None or d >= 2) and 1 <= n
            and fits_dense(n, 8) and prefers_dense(n, p * n * (n - 1) / 2)):
        return one
    return Batched(one, lambda gens: stack_score(draw(gens)), 8 * n * n)


def matrix_replica(n: int, d: int, entry_dist: str, kind: str,
                   stat: str) -> Callable[[RngStream], float]:
    """Replica function of a matrix experiment: the statistic ("tr3",
    tr(W^3), or "tau" of h_map(W) at p = 1/2) of one sample_wishart
    matrix drawn from the replica's stream.

    One scoring kernel per statistic scores a single matrix or a stack of
    them.  For the GOE kinds, and the Wishart kinds with gaussian entries
    and d >= n (Bartlett), the replica function is a harness.Batched whose
    stacked kernel draws and scores whole blocks of replicas, with the
    same values as one matrix at a time.
    """
    score = {"tr3": _tr3, "tau": lambda w: _tau(_signs(w), 0.5)}[stat]

    def one(s):
        return float(score(sample_wishart(n, d, entry_dist=entry_dist,
                                          kind=kind, rng=s)))
    bartlett = (kind in ("wishart", "wishart_scaled_nodiag")
                and entry_dist == "gaussian" and d >= n)
    if not (entry_dist in ENTRY_DISTS and d >= 1 and 1 <= n
            and fits_dense(n, 8)
            and (kind in ("goe_shifted", "goe_nodiag") or bartlett)):
        return one
    return Batched(one, lambda gens: score(
        _wishart_stack(n, d, entry_dist, kind, gens)), 8 * n * n)


def detect_geometry(g: Graph, n: int, p: float, tau_threshold: float) -> DetectionResult:
    """Threshold test on the signed triangle statistic."""
    if g.n != n:
        raise ValueError("graph size does not match n")
    stat = signed_triangle_stat(g, p)
    verdict = "geometric" if stat >= tau_threshold else "random"
    return DetectionResult(verdict=verdict, statistic=stat)


def calibrate_tau(n: int, p: float, d: int, replicas: int,
                  rng: RngStream) -> PowerReport:
    """Monte Carlo moments of tau under G(n,p) (the null) and G(n,p,d)
    (the alternative), plus the standard-deviation-weighted midpoint
    threshold between the means.

    Null replica i uses substream i, geometric replica i substream
    replicas + i.
    """
    if replicas < 100:
        raise ValueError("need at least 100 replicas for calibration")
    return power_from_samples(*two_arm(
        graph_replica(n, p, "tau"), graph_replica(n, p, "tau", d),
        replicas, rng))


def estimate_dimension(g: Graph, n: int, p: float, candidates: Sequence[int],
                       calibration_table: Mapping[int, float]) -> int:
    """Nearest-calibrated-mean dimension estimate; ties prefer smaller d."""
    if g.n != n:
        raise ValueError("graph size does not match n")
    cands = sorted(set(int(c) for c in candidates))
    if not cands:
        raise ValueError("candidates must be nonempty")
    missing = [c for c in cands if c not in calibration_table]
    if missing:
        raise ValueError(f"calibration table missing candidates {missing}")
    stat = signed_triangle_stat(g, p)
    best, best_gap = cands[0], math.inf
    for c in cands:
        gap = abs(calibration_table[c] - stat)
        if gap < best_gap:
            best, best_gap = c, gap
    return best


def sparse_triangle_experiment(n: int, c: float, d: int, replicas: int,
                               rng: RngStream) -> PowerReport:
    """Triangle-count test at edge probability c/n between G(n, c/n) and
    G(n, c/n, d); reports the two means and the power of the weighted-
    midpoint threshold test. No claim is made about the d >> log^3(n)
    conjecture; this is measurement machinery.
    """
    if c < 0 or c / n > 1.0:
        raise ValueError("need 0 <= c/n <= 1")
    if replicas < 2:
        raise ValueError("need at least two replicas")
    p = c / n
    return power_from_samples(*two_arm(
        graph_replica(n, p, "t"), graph_replica(n, p, "t", d),
        replicas, rng))


# Stacked kernels.  A sampler takes a sized iterable of generators, one per
# replica (a tuple of one for the single-graph functions above, a
# graphcore.SubstreamGenerators block under harness.replicate), draws each
# replica from its own generator in the order of the single-graph code, and
# returns a (replicas, n, n) array.  A statistic maps a stack of matrices
# (or one matrix) to one value per matrix with the arithmetic of the
# single-graph code, so a block gives bit for bit the values of its
# replicas computed one at a time.


def _er_stack(n: int, p: float, gens) -> np.ndarray:
    """Dense G(n, p) adjacency matrices from n x n Bernoulli(p) masks: at
    p = 1/2 the n^2 fair coins of _coins, ceil(n^2/64) raw words per
    replica; otherwise one float64 uniform per entry, below p."""
    if p == 0.5:
        masks = _coins(gens, 1, n * n).view(bool).reshape(len(gens), n, n)
    else:
        u = np.empty((len(gens), n, n))
        for out, gen in zip(u, gens):
            gen.random(out=out)
        masks = u < p
    return _symmetrize(masks)


def _rgg_stack(n: int, p: float, d: int, gens) -> np.ndarray:
    """Dense G(n, p, d) adjacency matrices: Gram matrices by Bartlett for
    n <= d, of drawn sphere points otherwise."""
    t = threshold(p, d)
    if n <= d:
        X = _bartlett_stack(n, d, gens)
        X /= np.sqrt(np.add.reduce(np.square(X), axis=-1, keepdims=True))
    else:
        X = _sphere_stack(n, d, gens)
    return _dense_rgg(X @ X.swapaxes(-1, -2), t)


def _sphere_stack(n: int, d: int, gens) -> np.ndarray:
    """n uniform points on S^{d-1} per generator: normalized standard
    Gaussians.  A replica whose squared entries are all positive has
    positive row norms; any other draws each all-zero row again from its
    own generator before the next replica is drawn.  The whole block is
    normalized at the end."""
    X = np.empty((len(gens), n, d))
    squares = np.empty_like(X)
    for x, sq, gen in zip(X, squares, gens):
        gen.standard_normal(out=x)
        np.square(x, out=sq)
        if np.count_nonzero(sq) == sq.size:
            continue
        while (bad := np.add.reduce(sq, axis=-1) == 0.0).any():
            x[bad] = gen.standard_normal((int(bad.sum()), d))
            np.square(x, out=sq)
    norms = np.add.reduce(squares, axis=-1, keepdims=True)
    X /= np.sqrt(norms, out=norms)
    return X


def _bartlett_stack(n: int, d: int, gens) -> np.ndarray:
    """Lower-triangular L with L L^T distributed as W(n, d), for d >= n.

    Bartlett decomposition: the strictly lower entries are N(0, 1) (drawn
    first, row-major) and L_ii = sqrt(chi^2_{d-i}) for i = 0..n-1, so the
    draw takes n(n+1)/2 numbers whatever d is.
    """
    check_dense(n, 8, "the Bartlett factor")
    normals = np.empty((len(gens), n * (n - 1) // 2))
    chi2 = np.empty((len(gens), n))
    dof = (d - np.arange(n)).astype(np.float64)
    for z, c, gen in zip(normals, chi2, gens):
        gen.standard_normal(out=z)
        c[...] = gen.chisquare(dof)
    L = np.zeros((len(gens), n, n))
    rows, cols = np.tril_indices(n, -1)
    L[:, rows, cols] = normals
    _diagonal(L)[...] = np.sqrt(chi2)
    return L


def _wishart_stack(n: int, d: int, entry_dist: str, kind: str,
                   gens) -> np.ndarray:
    """The matrices of sample_wishart.  Only gaussian Wishart kinds with
    d >= n and the GOE kinds are stacked; the others sum the Gram products
    of column chunks of the entry matrix (_entry_gram), one replica after
    another."""
    if kind in ("wishart", "wishart_scaled_nodiag"):
        if entry_dist == "gaussian" and d >= n:
            L = _bartlett_stack(n, d, gens)
            W = L @ L.swapaxes(-1, -2)
        else:
            W = np.empty((len(gens), n, n))
            for out, gen in zip(W, gens):
                _entry_gram(n, d, entry_dist, gen, out)
        W = (W + W.swapaxes(-1, -2)) / 2.0
        if kind == "wishart_scaled_nodiag":
            _diagonal(W)[...] = 0.0
            W /= math.sqrt(d)
        return W
    M = np.empty((len(gens), n, n))
    D = np.empty((len(gens), n))
    for flat, diag, gen in zip(M, D, gens):
        _draw_entries(gen, flat, entry_dist)
        if kind == "goe_shifted":
            _draw_entries(gen, diag, entry_dist)
    # zeroed, not masked by a product, which would leave -0.0 below negatives
    np.copyto(M, 0.0, where=np.tri(n, dtype=bool))
    M += M.swapaxes(-1, -2)
    if kind == "goe_nodiag":
        return M
    _diagonal(M)[...] = math.sqrt(2.0) * D
    M *= math.sqrt(d)
    _diagonal(M)[...] += d
    return M


def _entry_gram(n: int, d: int, entry_dist: str, gen, out: np.ndarray) -> None:
    """Y Y^T into out, for Y an n x d matrix of i.i.d. entry_dist entries.

    Y is drawn a chunk of c = max(n, CACHE_BYTES // (8 n)) columns at a
    time (the last chunk may be narrower), row-major within the chunk, and
    the chunk's Gram product is added, so memory is O(n c + n^2) whatever
    d is.  For d <= c, as for every gaussian draw (d < n here), that is
    the single draw of Y.  Rademacher entries take _sign_gram instead.
    """
    if entry_dist == "rademacher":
        _sign_gram(n, d, gen, out)
        return
    width = min(d, max(n, CACHE_BYTES // (8 * n)))
    Y = np.empty((n, width))
    for start in range(0, d, width):
        if d - start < width:  # a fill needs contiguous memory, not a slice
            Y = np.empty((n, d - start))
        _draw_entries(gen, Y, entry_dist)
        if start == 0:
            np.matmul(Y, Y.T, out=out)
        else:
            out += Y @ Y.T


def _sign_gram(n: int, d: int, gen, out: np.ndarray) -> None:
    """Y Y^T into out, for Y an n x d matrix of Rademacher entries 2 b - 1
    with b the fair coins of _coins, counted from the packed coins: with
    y_i the words of row i, W_ij = d - 2 popcount(y_i xor y_j), exact.

    The rows are drawn a chunk of w = max(1, CACHE_BYTES // (8 n)) words
    each at a time (the last chunk may be narrower), row-major within the
    chunk, so a chunk holds at most CACHE_BYTES unless n words take more;
    a chunk takes the words _coins draws for its 64 w columns, and the
    bits past d in the last word are cleared.  For d <= 64 w that is the
    one _coins draw of Y.  Each row is counted against the rows below it,
    one (n - 1 - i) x w block at a time: at n = 32, d = 1e5 that took
    1.6 ms, against 4.4 ms for one (n, n, w) block of all pairs.
    """
    words = -(-d // 64)
    width = min(words, max(1, CACHE_BYTES // (8 * n)))
    flips = np.zeros((n, n), dtype=np.int64)
    for start in range(0, words, width):
        y = gen.bit_generator.random_raw((n, min(width, words - start)))
        if start + width >= words and d % 64:
            y[:, -1] &= np.uint64((1 << (d % 64)) - 1)
        for i in range(n - 1):
            flips[i, i + 1:] += np.bitwise_count(y[i + 1:] ^ y[i]).sum(
                axis=-1, dtype=np.int64)
    flips += flips.T
    np.subtract(d, 2 * flips, out=out)


def _dense_rgg(gram: np.ndarray, t: float) -> np.ndarray:
    return _symmetrize(gram >= t)


def _symmetrize(adj: np.ndarray) -> np.ndarray:
    """Each boolean matrix cut to its strict upper triangle and mirrored,
    in place."""
    adj &= ~np.tri(adj.shape[-1], dtype=bool)
    adj |= adj.swapaxes(-1, -2)
    return adj


def _signs(w: np.ndarray) -> np.ndarray:
    """h_map's adjacency: W_ij >= 0 off the diagonal."""
    adj = w >= 0.0
    _diagonal(adj)[...] = False
    return adj


def _tau(adj: np.ndarray, p: float) -> np.ndarray:
    """Signed triangle statistic Tr(B^3)/6 of each adjacency matrix, from
    the triangle counts and degrees of one float32 product."""
    return _tau_from_counts(adj.shape[-1], p, *_triangles_and_degrees(adj))


def _tau_from_counts(n: int, p: float, triangles, degrees):
    """tau = Tr(B^3)/6 of graphs on n vertices from their triangle counts
    and (..., n) degree arrays.

    Each triple of vertices adds the product of its three centered pairs,
    so tau = T - p W + p^2 (n-2) m - p^3 C(n,3), with W = sum_i C(d_i, 2)
    = (S2 - 2m)/2 the number of two-edge paths and (n-2) m the number of
    (edge, third vertex) pairs: signed_triangle_stat's formula over 6.  T,
    W, (n-2) m and C(n,3) are integers, exact in float64 below 2^53.  At
    p = 1/2 every term and partial sum is a multiple of 1/8, so while
    C(n,3) < 2^50 tau is exact, and so is the float64 product Tr(B^3)/6:
    the two give the same bits.

    Rounding.  With u = 2^-53, p^2 = fl(p p) and p^3 = fl(p^2 p) carry
    relative errors of at most g_1 and g_2 (g_k = k u / (1 - k u)), the
    three products one more each, and the recursive sum of the four terms
    g_3 times the sum of their magnitudes S = T + p W + p^2 (n-2) m +
    p^3 C(n,3).  So the result is within g_6 S of tau.  Since T <= C(n,3),
    W <= 3 C(n,3) and (n-2) m <= 3 C(n,3), S <= (1 + p)^3 C(n,3): a few
    ulps of (1 + p)^3 C(n,3) at most.
    """
    two_m = degrees.sum(axis=-1)
    wedges = (degrees * (degrees - 1)).sum(axis=-1) // 2
    p2 = p * p
    return (triangles - p * wedges + p2 * ((n - 2) * (two_m // 2))
            - p2 * p * math.comb(n, 3))


def _triangles(adj: np.ndarray) -> np.ndarray:
    """Triangle count Tr(A^3)/6 of each adjacency matrix."""
    return _triangles_and_degrees(adj)[0]


def _triangles_and_degrees(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangle counts Tr(A^3)/6 and int64 degrees, the diagonal of A^2, of
    each adjacency matrix: exact in float32 products and a float64 sum."""
    a = adj.astype(np.float32)
    P = a @ a
    degrees = _diagonal(P).astype(np.int64)
    P *= a
    return np.rint(P.sum(axis=(-2, -1), dtype=np.float64) / 6.0), degrees


def _tr3(V: np.ndarray) -> np.ndarray:
    """Tr(V^3) of each matrix."""
    P = V @ V
    P *= V.swapaxes(-1, -2)
    return P.sum(axis=(-2, -1))


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of each matrix in a."""
    return np.einsum("...ii->...i", a)


def _draw_entries(gen: np.random.Generator, out: np.ndarray, entry_dist: str) -> None:
    """Fill the C-contiguous float64 array out with i.i.d. entry_dist
    entries, in C order.  Uniform-scaled entries are -sqrt(3) + 2 sqrt(3) u,
    the two roundings of gen.uniform(-sqrt(3), sqrt(3)) on the same u."""
    if entry_dist == "gaussian":
        gen.standard_normal(out=out)
    elif entry_dist == "uniform-scaled":
        gen.random(out=out)
        out *= 2.0 * math.sqrt(3.0)
        out += -math.sqrt(3.0)
    elif entry_dist == "rademacher":
        coins = _coins((gen,), math.prod(out.shape[:-1]), out.shape[-1])
        np.multiply(coins.reshape(out.shape), 2.0, out=out)
        out -= 1.0
    else:
        raise ValueError(f"entry_dist must be one of {ENTRY_DISTS}")


def _coins(gens, rows: int, cols: int) -> np.ndarray:
    """(len(gens), rows, cols) fair coins, uint8 0 or 1, one bit of a raw
    Philox word each.  Each generator in turn draws ceil(cols/64) words
    per row, row after row; coin k of a row is bit k mod 64 of its word
    k // 64.  The words are stored as "<u8" and unpacked little-endian, so
    the coins do not depend on the platform's byte order."""
    words = np.empty((len(gens), rows, -(-cols // 64)), dtype="<u8")
    for out, gen in zip(words, gens):
        out[...] = gen.bit_generator.random_raw(out.shape)
    return np.unpackbits(words.view(np.uint8), axis=-1, count=cols,
                         bitorder="little")


def _rgg_circle(coords: np.ndarray, t: float) -> Graph:
    """Exact d=2 geometric graph via sorted angles: edge iff the circular
    angle gap is at most arccos(t). Same edge rule as the Gram-matrix
    path, built in O(n log n + m)."""
    n = coords.shape[0]
    delta = math.acos(min(max(t, -1.0), 1.0))
    theta = np.arctan2(coords[:, 1], coords[:, 0])
    order = np.argsort(theta, kind="stable")
    th = theta[order]
    ext = np.concatenate([th, th + 2.0 * math.pi])
    hi = np.searchsorted(ext, th + delta, side="right")
    starts = np.arange(n) + 1
    lens = np.maximum(hi - starts, 0)
    i_flat = np.repeat(np.arange(n), lens)
    seg_starts = np.repeat(starts, lens)
    seg_offset = np.arange(i_flat.size) - np.repeat(np.cumsum(lens) - lens, lens)
    j_flat = (seg_starts + seg_offset) % n
    return Graph._from_keys(n, pair_keys(n, order[i_flat], order[j_flat]))


def _edges_by_chunks(coords: np.ndarray, t: float) -> np.ndarray:
    """Ascending int64 keys i * n + j of the geometric graph on the rows x_i
    of coords: its edges are the pairs i < j of float64 inner product >= t.

    Rows are taken in chunks of about 2e6 Gram entries; a chunk is
    multiplied only with the columns from its first row on, so the
    products cover the upper triangle.  Where that pays (see below), the
    products are float32 and only screen the pairs; float64 decides the
    ones near t.

    The screen's margin.  Let u = 2^-24 (float32 unit roundoff) and
    s = max_i |x_i|^2.  Rounding x_i and x_j to float32 moves their inner
    product by at most (2u + u^2) s, and summing the d float32 products in
    any order adds at most g_d (1 + u)^2 s with g_d = du / (1 - du); both
    sums are bounded through sum_k |x_ik x_jk| <= s (Cauchy-Schwarz).
    While (d + 2) u <= 1/2, so du <= 1/2 - 2u, g_d (1 + u)^2 <= 2du and
    the float32 product g is within (d + 2) u s, to first order, of the
    exact one, and within delta - (2u - u^2) s in all, where
    delta = 2 (d + 2) u s.  A float64 inner product, in any summation
    order, is within 2^-29 s of the exact one, below that slack.  So
    g < t - delta means a float64 product below t (no edge) and
    g >= t + delta one at least t (an edge).  The two float32 cut-offs
    are rounded outward.

    Only the pairs in between are computed again in float64, a batch of
    rows at a time whose two gathered blocks hold at most 4 MiB.  Such a
    pair costs about as much as 100 entries of a float64 chunk product,
    and the margin grows like d while the spread of the inner products
    shrinks like 1/sqrt(d).  So the chunks are screened only while the
    share of uniform sphere pairs within delta of t, from the law of the
    inner product, is at most 1/512, and (d + 2) u <= 1/2; otherwise they
    are float64 products.  A screened chunk with more than 1/512 of its
    entries in the margin is multiplied again in float64, and so are the
    chunks after it.  The edges are those of the float64 rule up to its
    summation order: a pair within float64 rounding of t can come out
    otherwise than from a float64 product of the whole chunk.  The
    float32 copy of the points is half their size.
    """
    n, d = coords.shape
    unit = 2.0 ** -24
    delta = 2 * (d + 2) * unit  # for unit vectors, s = 1
    a = (d - 1) / 2.0
    band = np.diff(betainc(a, a, np.clip([(1 + t - delta) / 2,
                                           (1 + t + delta) / 2], 0.0, 1.0)))
    x32 = None
    if (d + 2) * unit <= 0.5 and 512 * band[0] <= 1.0:
        delta *= float(np.einsum("ij,ij->i", coords, coords).max())
        lo = np.nextafter(np.float32(t - delta), np.float32(-np.inf))
        hi = np.nextafter(np.float32(t + delta), np.float32(np.inf))
        x32 = coords.astype(np.float32)
    chunk = max(1, 2_000_000 // n)
    batch = max(1, 4 * CACHE_BYTES // (16 * d))
    keys = []
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        if x32 is not None:
            gram = x32[start:stop] @ x32[start:].T
            flat, rows, cols = _upper_pairs(gram >= lo, start)
            near = np.flatnonzero(gram.ravel()[flat] < hi)
            wide = 512 * near.size > gram.size
            del gram  # before the float64 rows are gathered
            if not wide:
                keep = np.ones(flat.size, dtype=bool)
                for b in range(0, near.size, batch):
                    k = near[b:b + batch]
                    keep[k] = np.einsum("ij,ij->i", coords[rows[k]],
                                        coords[cols[k]]) >= t
                keys.append(rows[keep] * n + cols[keep])
                continue
            x32 = None
        _, rows, cols = _upper_pairs(coords[start:stop] @ coords[start:].T >= t,
                                     start)
        keys.append(rows * n + cols)
    return np.concatenate(keys)


def _upper_pairs(mask: np.ndarray, start: int):
    """Flat indices into the (rows, columns from start on) block mask of
    its true entries above the diagonal, with their global rows and
    columns."""
    flat = np.flatnonzero(mask)
    rows, cols = np.divmod(flat, mask.shape[1])
    upper = cols > rows
    return flat[upper], rows[upper] + start, cols[upper] + start
