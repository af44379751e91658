"""Stochastic block models and the exact-recovery pipeline.

Covers block-model sampling in three scaling regimes, the Chernoff-
Hellinger divergence between Poisson community profiles, the resulting
solvability threshold and finest recoverable partition, Poisson MAP
classification of degree profiles with its error sandwich, the
binomial-Poisson total-variation bound, and genie-aided label
correction rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, pdtrc, xlogy

from .graphcore import (Graph, RngStream, bernoulli_pairs, bernoulli_positions,
                        pair_keys)

REGIMES = ("constant", "logarithmic", "linear")


@dataclass(frozen=True)
class SbmParams:
    """Block-model parameters (community prior p, rate matrix Q, regime).

    The regime fixes how Q scales with n: "constant" uses Q as edge
    probabilities directly, "logarithmic" uses ln(n)Q/n, "linear" Q/n.
    """

    k: int
    p: np.ndarray
    Q: np.ndarray
    regime: str = "logarithmic"

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        Q = np.asarray(self.Q, dtype=np.float64)
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if p.shape != (self.k,):
            raise ValueError(f"p must have shape ({self.k},)")
        if not ((p > 0) & (p <= 1)).all():
            raise ValueError("prior entries must lie in (0, 1]")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("prior must sum to 1")
        if Q.shape != (self.k, self.k):
            raise ValueError(f"Q must have shape ({self.k}, {self.k})")
        if not np.array_equal(Q, Q.T):
            raise ValueError("Q must be symmetric")
        if (Q < 0).any():
            raise ValueError("Q entries must be nonnegative")
        regime = "constant" if self.regime == "constant-prob" else self.regime
        if regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")
        if regime == "logarithmic" and not (Q > 0).all():
            raise ValueError("logarithmic regime requires strictly positive Q")
        p.setflags(write=False)
        Q.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "regime", regime)

    @classmethod
    def symmetric(cls, k: int, a: float, b: float,
                  regime: str = "logarithmic") -> "SbmParams":
        """Uniform prior, within-rate a on the diagonal, cross-rate b off it."""
        Q = np.full((k, k), float(b))
        np.fill_diagonal(Q, float(a))
        return cls(k=k, p=np.full(k, 1.0 / k), Q=Q, regime=regime)

    def edge_probabilities(self, n: int) -> np.ndarray:
        """Regime-scaled edge probability matrix for a graph on n vertices."""
        if n < 1:
            raise ValueError("n must be positive")
        if self.regime == "constant":
            scaled = self.Q.copy()
        elif self.regime == "logarithmic":
            scaled = self.Q * (math.log(n) / n)
        else:
            scaled = self.Q / n
        if (scaled > 1.0).any():
            raise ValueError("scaled edge probability exceeds 1; refusing to clamp")
        return scaled


@dataclass(frozen=True)
class LabeledGraph:
    """Graph plus its hidden community labels (0-indexed)."""

    graph: Graph
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (self.graph.n,):
            raise ValueError("labels length must equal n")
        if labels.size and labels.min() < 0:
            raise ValueError("labels must be nonnegative")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)


class PoissonTestResult(NamedTuple):
    """Maximized profile divergence and its maximizer."""

    d_plus: float
    t_star: float


class PairwiseError(NamedTuple):
    """Truncated lattice min-sum and an upper bound on the neglected tail."""

    value: float
    tail_bound: float


class LeCamResult(NamedTuple):
    tv: float
    bound: float


@dataclass(frozen=True)
class SolvabilityResult:
    solvable: bool
    min_pair: tuple[int, int]
    min_value: float
    boundary: bool


def sample_sbm(n: int, params: SbmParams, rng: RngStream) -> LabeledGraph:
    """Draw labels i.i.d. from the prior and edges as independent Bernoullis.

    Each block pair's vertex pairs are sampled by geometric skipping into
    int64 keys lo * n + hi, sorted once, so the cost grows with the number
    of edges, not with n^2.
    """
    probs = params.edge_probabilities(n)
    gen = rng.generator()
    labels = gen.choice(params.k, size=n, p=params.p)
    members = [np.nonzero(labels == a)[0] for a in range(params.k)]
    keys = []
    for a, ma in enumerate(members):
        i, j = np.divmod(bernoulli_pairs(ma.size, probs[a, a], gen), ma.size)
        keys.append(pair_keys(n, ma[i], ma[j]))
        for b in range(a + 1, params.k):
            mb = members[b]
            pos = bernoulli_positions(ma.size * mb.size, probs[a, b], gen)
            i, j = np.divmod(pos, mb.size)
            keys.append(pair_keys(n, ma[i], mb[j]))
    keys = np.concatenate(keys)
    return LabeledGraph(graph=Graph._from_keys(n, keys), labels=labels)


def community_profiles(params: SbmParams) -> list[np.ndarray]:
    """Columns of diag(p) Q; entry l of profile j is p_l Q_{l,j}."""
    return [params.p * params.Q[:, j] for j in range(params.k)]


def d_t(c1, c2, t: float) -> float:
    """Divergence D_t = sum_x (t c1 + (1-t) c2 - c1^t c2^(1-t)).

    Nonnegative by weighted AM-GM, exactly 0 at t in {0, 1}, and concave
    in t; its maximum over [0,1] is the Chernoff-Hellinger divergence.
    """
    a, b = _check_profile_pair(c1, c2)
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if t == 0.0 or t == 1.0:
        return 0.0
    return _d_t_unchecked(a, b, t)


def _d_t_unchecked(a: np.ndarray, b: np.ndarray, t: float) -> float:
    geom = np.exp(t * np.log(a) + (1.0 - t) * np.log(b))
    return math.fsum(t * a + (1.0 - t) * b - geom)


def ch_divergence(c1, c2) -> PoissonTestResult:
    """Maximize t -> D_t(c1, c2) over [0, 1].

    D_t is concave, so its slope sum_x (a - b - a^t b^(1-t) ln(a/b)) falls
    from >= 0 at t = 0 to <= 0 at t = 1. Bisection on its sign takes at
    most 60 halvings and stops early at adjacent floats or at a slope of
    exactly 0 (equal or mirrored profiles).  Both sums are math.fsum, so
    permuted profile pairs get equal bits.  Where a and b are within a
    factor of 2, a - b is exact and ln(a/b) is taken as 2 atanh((a - b)/
    (a + b)), a few ulps of ln(a/b) itself, where la - lb would be off by
    about u |ln a| (u = 2^-53), far more as a -> b.  Elsewhere |ln(a/b)|
    >= ln 2 and la - lb is used, off by about u max(|ln a|, |ln b|); the
    atanh form would lose u a/b there and turn infinite once b/a < u.
    Both forms are odd under swapping a and b, so mirrored profiles still
    cancel exactly.  When every entry takes the atanh form, t* is off by at
    most about the slope's rounding error over D_t's curvature (L below,
    g = a^t b^(1-t)): u (10 + 11 L) sum_x g |ln(a/b)| / sum_x g
    ln(a/b)^2, which is 2.5e-9 for [3] vs [3 e^-r] at r = 1e-6 (the
    error seen is 8e-12).

    Rounding.  Take log and exp to be accurate within 4 ulp (relative
    error at most 8u, u = 2^-53) and write s = 1 - t, L = t|ln a| +
    s|ln b|, x = t ln a + s ln b.  Then fl(1 - t) adds u, t ln a carries
    9u and s ln b 10u, their sum u L, so x is off by at most 11u L and
    exp(x) by e^x (11u L + 8u).  The linear part t a + s b carries 3u, the
    subtraction u of |t a + s b| + e^x, and the fsum u of the sum of those.
    To first order the computed D_t is thus within 11u S of D_t, where S =
    sum_x (t a + s b + e^x (1 + L)); 12u S also covers the second-order
    terms.  A computed D_t inside that bound cannot tell the profiles
    apart, and the bisection has followed rounding noise in the slope.  As
    the profiles converge D_t tends to t (1 - t)/2 sum_x b ln(a/b)^2, whose
    maximizer is 1/2, so t* = 1/2 is returned then, with d_plus D_1/2.
    """
    a, b = _check_profile_pair(c1, c2)
    la, lb = np.log(a), np.log(b)
    diff = a - b
    x = diff / (a + b)
    # ln(a/b): 2 atanh x where a, b are within a factor of 2 (|x| <= 1/3),
    # la - lb elsewhere; the clip keeps atanh finite on the unused entries
    lr = np.where(np.abs(x) <= 1.0 / 3.0,
                  2.0 * np.arctanh(np.clip(x, -0.5, 0.5)), la - lb)
    lo, hi, t = 0.0, 1.0, 0.5
    for _ in range(60):
        slope = math.fsum(diff - np.exp(t * la + (1.0 - t) * lb) * lr)
        if slope == 0.0:
            break
        if slope > 0.0:
            lo = t
        else:
            hi = t
        t = 0.5 * (lo + hi)
        if not lo < t < hi:
            break
    lin = t * a + (1.0 - t) * b
    geo = np.exp(t * la + (1.0 - t) * lb)
    d = math.fsum(lin - geo)
    spread = t * np.abs(la) + (1.0 - t) * np.abs(lb)
    if abs(d) <= 12.0 * 2.0 ** -53 * math.fsum(lin + geo * (1.0 + spread)):
        t, d = 0.5, _d_t_unchecked(a, b, 0.5)
    return PoissonTestResult(d_plus=max(d, 0.0), t_star=t)


def exact_recovery_solvable(params: SbmParams) -> SolvabilityResult:
    """Threshold test: exact recovery is solvable iff the smallest pairwise
    Chernoff-Hellinger divergence between community profiles is >= 1.

    Values within 1e-9 of 1 are flagged as boundary rather than decided.
    """
    _require_logarithmic(params)
    if params.k < 2:
        raise ValueError("solvability needs at least two communities")
    profiles = community_profiles(params)
    min_value, min_pair = math.inf, (0, 1)
    for i in range(params.k):
        for j in range(i + 1, params.k):
            if np.array_equal(params.Q[i], params.Q[j]):
                raise ValueError(f"rows {i} and {j} of Q are identical")
            val = ch_divergence(profiles[i], profiles[j]).d_plus
            if val < min_value:
                min_value, min_pair = val, (i, j)
    return SolvabilityResult(
        solvable=min_value >= 1.0,
        min_pair=min_pair,
        min_value=min_value,
        boundary=abs(min_value - 1.0) <= 1e-9,
    )


def finest_partition(params: SbmParams) -> list[list[int]]:
    """Finest partition of the communities for which exact recovery of the
    blocks is solvable: join i and j whenever D_+ of their profiles is < 1
    and take connected components, so every cross-block pair has D_+ >= 1.
    """
    _require_logarithmic(params)
    k = params.k
    profiles = community_profiles(params)
    close = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            if ch_divergence(profiles[i], profiles[j]).d_plus < 1.0:
                close[i, j] = close[j, i] = True
    # importing scipy.sparse.csgraph costs every command about 60 ms of
    # start-up, so only the callers of this function pay for it
    from scipy.sparse.csgraph import connected_components
    # components are numbered in order of their smallest member
    count, label = connected_components(close, directed=False)
    return [np.flatnonzero(label == c).tolist() for c in range(count)]


def degree_profile(lg: LabeledGraph, v: int, k: int | None = None) -> np.ndarray:
    """Neighbor counts of v split by community label."""
    lg.graph._check_vertex(v)
    if k is None:
        k = int(lg.labels.max()) + 1 if lg.labels.size else 1
    return np.bincount(lg.labels[lg.graph.neighbors(v)], minlength=k)


def map_classify(d, means, prior) -> int:
    """MAP label for the Poisson degree-profile test.

    Maximizes log p_j + sum_i (d_i log lambda_i(j) - lambda_i(j)); a zero
    mean with a positive count rules the hypothesis out. Ties break
    toward the smallest index.
    """
    d = np.asarray(d, dtype=np.float64)
    L = np.asarray(means, dtype=np.float64)
    prior = np.asarray(prior, dtype=np.float64)
    if L.ndim != 2 or L.shape[0] != prior.shape[0] or L.shape[1] != d.shape[0]:
        raise ValueError("means must be a (k, len(d)) matrix matching the prior")
    scores = _map_scores(d[None, :], L, prior)[0]
    return int(np.argmax(scores))


def _map_scores(dmat: np.ndarray, L: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Score matrix (rows = observations, cols = hypotheses)."""
    with np.errstate(divide="ignore"):
        logL = np.log(L)
        logp = np.log(prior)
    scores = np.empty((dmat.shape[0], L.shape[0]), dtype=np.float64)
    for j in range(L.shape[0]):
        # 0 * log(0) cells are overwritten below, so the nan is harmless
        with np.errstate(invalid="ignore"):
            contrib = dmat * logL[j][None, :]
        contrib[:, L[j] == 0] = 0.0
        bad = (dmat[:, L[j] == 0] > 0).any(axis=1)
        scores[:, j] = logp[j] + contrib.sum(axis=1) - L[j].sum()
        scores[bad, j] = -np.inf
    return scores


def pairwise_error(lambda_i, lambda_j, p_i: float, p_j: float) -> PairwiseError:
    """Error term of the two-hypothesis Poisson test:
    sum over the integer lattice of min(P_{lambda_i}(x) p_i, P_{lambda_j}(x) p_j).

    The lattice is truncated per coordinate at mu + 12 sqrt(mu) + 30 with
    mu the larger of the two means; the reported tail_bound dominates
    everything the truncation drops.
    """
    li = np.atleast_1d(np.asarray(lambda_i, dtype=np.float64))
    lj = np.atleast_1d(np.asarray(lambda_j, dtype=np.float64))
    if li.shape != lj.shape or li.ndim != 1:
        raise ValueError("mean vectors must have the same length")
    if (li <= 0).any() or (lj <= 0).any():
        raise ValueError("means must be strictly positive")
    if p_i < 0 or p_j < 0:
        raise ValueError("priors must be nonnegative")
    if p_i == 0.0 or p_j == 0.0:
        return PairwiseError(0.0, 0.0)
    mu = np.maximum(li, lj)
    limits = np.ceil(mu + 12.0 * np.sqrt(mu) + 30.0).astype(np.int64)
    cells = int(np.prod(limits + 1))
    if cells > 200_000_000:
        raise ValueError("truncated lattice too large; reduce dimension or means")
    log_i = [_poisson_logpmf(nl, l) for nl, l in zip(limits, li)]
    log_j = [_poisson_logpmf(nl, l) for nl, l in zip(limits, lj)]
    si, sj = log_i[0], log_j[0]
    for axis in range(1, len(limits)):
        si = (si[:, None] + log_i[axis][None, :]).ravel()
        sj = (sj[:, None] + log_j[axis][None, :]).ravel()
    value = float(np.minimum(p_i * np.exp(si), p_j * np.exp(sj)).sum())
    tail = min(p_i * pdtrc(limits, li).sum(), p_j * pdtrc(limits, lj).sum())
    return PairwiseError(value, float(tail))


def _poisson_logpmf(limit: int, mean: float) -> np.ndarray:
    """log P(X = k) for k = 0..limit, X ~ Poisson(mean); the formula of
    scipy.stats.poisson.logpmf."""
    k = np.arange(limit + 1)
    return xlogy(k, mean) - gammaln(k + 1) - mean


def map_error_bounds(pairwise: np.ndarray) -> tuple[float, float]:
    """Sandwich for the overall MAP error from the pairwise error matrix:
    sum_{i<j} P_e(i,j) / (k-1) <= P_e <= sum_{i<j} P_e(i,j).
    """
    P = np.asarray(pairwise, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
        raise ValueError("need a square pairwise matrix with k >= 2")
    if (P < 0).any() or not np.allclose(P, P.T, rtol=0.0, atol=1e-12):
        raise ValueError("pairwise matrix must be symmetric and nonnegative")
    k = P.shape[0]
    total = float(np.triu(P, 1).sum())
    return total / (k - 1), total


def lecam_tv(n: int, a: float, b: float) -> LeCamResult:
    """Exact TV distance between Bin(na, ln(n)b/n) and Poi(ab ln n), with
    the Le Cam-style bound 2 a b^2 (ln n)^2 / n.

    The L1 sum runs over the binomial support; beyond it only Poisson
    mass remains and is added via the exact survival function, so there
    is no truncation error beyond float rounding.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    na = a * n
    if na <= 0 or abs(na - round(na)) > 1e-9:
        raise ValueError("n*a must be a positive integer")
    trials = int(round(na))
    q = math.log(n) * b / n
    if q < 0.0 or q > 1.0:
        raise ValueError("probability out of range")
    lam = a * b * math.log(n)
    if b == 0.0:
        return LeCamResult(0.0, 0.0)
    # binom.pmf has no scipy.special form, and importing scipy.stats costs
    # more than most commands, so only this function pays for it
    from scipy.stats import binom, poisson
    x = np.arange(trials + 1)
    diff = np.abs(binom.pmf(x, trials, q) - poisson.pmf(x, lam))
    tv = 0.5 * (float(diff.sum()) + float(pdtrc(trials, lam)))
    bound = 2.0 * a * b * b * math.log(n) ** 2 / n
    return LeCamResult(tv, bound)


def ambiguous_profile(params: SbmParams, i: int, j: int, n: int) -> np.ndarray:
    """Degree profile equally explained by communities i and j:
    x_l = floor((PQ)_{l,i}^t* (PQ)_{l,j}^(1-t*) ln n) at the maximizing t*.
    """
    if i == j:
        raise ValueError("communities i and j must differ")
    profiles = community_profiles(params)
    if not (0 <= i < params.k and 0 <= j < params.k):
        raise ValueError("community index out of range")
    t = ch_divergence(profiles[i], profiles[j]).t_star
    vals = profiles[i] ** t * profiles[j] ** (1.0 - t) * math.log(n)
    return np.floor(vals).astype(np.int64)


def genie_recover(lg: LabeledGraph, params: SbmParams, corruption: float,
                  rounds: int, rng: RngStream) -> np.ndarray:
    """Oracle-aided recovery: corrupt the true labels i.i.d. at the given
    rate, then run synchronous rounds that re-classify every vertex by the
    MAP rule on its degree profile measured against the previous round's
    labels, with Poisson means ln(n) (PQ)_j. A round counts all neighbours
    by label with two bincounts over the edge array, one per endpoint.
    """
    _require_logarithmic(params)
    if not 0.0 <= corruption < 0.5:
        raise ValueError("corruption must lie in [0, 0.5)")
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    n, k = lg.graph.n, params.k
    if lg.labels.size and lg.labels.max() >= k:
        raise ValueError("labels must lie below params.k")
    gen = rng.generator()
    labels = lg.labels.copy()
    if corruption > 0.0 and k > 1:
        flip = gen.random(n) < corruption
        offset = gen.integers(1, k, size=n)
        labels[flip] = (labels[flip] + offset[flip]) % k
    L = math.log(n) * np.column_stack(community_profiles(params)).T
    lo, hi = lg.graph.edges().T
    for _ in range(rounds):
        dmat = np.bincount(lo * k + labels[hi], minlength=n * k)
        dmat += np.bincount(hi * k + labels[lo], minlength=n * k)
        labels = np.argmax(_map_scores(dmat.reshape(n, k), L, params.p), axis=1)
    return labels


def _check_profile_pair(c1, c2) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(c1, dtype=np.float64)
    b = np.asarray(c2, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("profiles must be equal-length vectors")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("profiles must be nonnegative")
    if ((a > 0) != (b > 0)).any():
        raise ValueError("profiles must share the same support")
    # coordinates outside the support add exactly 0 to every sum
    return a[a > 0], b[a > 0]


def _require_logarithmic(params: SbmParams) -> None:
    if params.regime != "logarithmic":
        raise ValueError("operation requires the logarithmic regime")
