"""Monte Carlo plumbing: replication, two-arm experiments, KS distances,
and power estimation.

Replication is deterministic: replica i draws from substream i of the
caller's base stream and reductions run in fixed replica order, so a
repeated call with the same (seed, replicas) is bit-identical no matter
how the work is scheduled.  A Batched replica function is run in blocks
of whole replicas whose edges depend only on the replica count and the
size of one replica, one block after another on the calling thread.
Threads never paid for blocks: small ones lose to the interpreter lock,
and large ones already keep the cores busy in BLAS.  Only a plain replica
function is fanned out over worker threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .graphcore import CACHE_BYTES, RngStream, SubstreamGenerators


@dataclass(frozen=True)
class PowerReport:
    """Threshold-test summary for a null/alternative sample pair."""

    power: float
    size: float
    threshold: float
    power_se: float
    size_se: float
    mean_null: float
    mean_alt: float
    sd_null: float
    sd_alt: float


class Batched(NamedTuple):
    """A replica function with a stacked kernel.

    Called on a stream it is the plain replica function `one`.  replicate
    instead hands `block` the generators of a run of consecutive replicas
    (a graphcore.SubstreamGenerators) and takes back one value per
    replica, equal to what `one` gives on each stream.  `nbytes`, the size
    of one replica's largest array, sets how many replicas share a block.
    """

    one: Callable[[RngStream], float]
    block: Callable[[SubstreamGenerators], np.ndarray]
    nbytes: int

    def __call__(self, stream: RngStream) -> float:
        return self.one(stream)


def binomial_se(p: float, n: int) -> float:
    """Standard error of a success rate p estimated from n trials."""
    return float(np.sqrt(p * (1.0 - p) / n))


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup_x |F_a(x) - F_b(x)|."""
    xa = np.sort(_values(a))
    xb = np.sort(_values(b))
    grid = np.concatenate([xa, xb])
    fa = np.searchsorted(xa, grid, side="right") / xa.size
    fb = np.searchsorted(xb, grid, side="right") / xb.size
    return float(np.abs(fa - fb).max())


def ks_distance_cdf(samples, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample KS statistic of samples against a reference CDF."""
    x = np.sort(_values(samples))
    n = x.size
    fx = np.asarray(cdf(x), dtype=np.float64)
    upper = np.arange(1, n + 1) / n - fx
    lower = fx - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def tv_lower_bound(a, b) -> float:
    """Lower bound on the total variation distance between the two sampled
    distributions.

    Any event gives a TV lower bound; the KS statistic optimizes over
    half-line events, so it never exceeds the true TV up to sampling
    fluctuations and is exactly the TV in the large-sample limit for
    distributions whose densities cross once.
    """
    return ks_distance(a, b)


def weighted_midpoint(m0: float, s0: float, m1: float, s1: float) -> float:
    """Threshold between two sample clouds: the standard-deviation-weighted
    midpoint of the means, which equalizes the two Chebyshev tail bounds.
    Falls back to the plain midpoint when both spreads vanish."""
    if s0 + s1 == 0.0:
        return (m0 + m1) / 2.0
    return (m0 * s1 + m1 * s0) / (s0 + s1)


def power_from_samples(null_vals: np.ndarray, alt_vals: np.ndarray) -> PowerReport:
    """PowerReport for precomputed statistic samples; the test rejects on
    the alternative's side of the weighted midpoint.  A constant arm owns
    its value: with one constant arm the cut lies on that value, with two
    it lies halfway between them (which their means may round away from),
    and a cut on a constant null's value rejects only strictly past it.
    So a constant null is never rejected, nor are equal constant arms,
    while a constant alternative is always rejected."""
    null_vals = _values(null_vals)
    alt_vals = _values(alt_vals)
    if null_vals.size != alt_vals.size or null_vals.size < 2:
        raise ValueError("need equal sample counts of at least 2")
    replicas = null_vals.size
    m0, m1 = float(null_vals.mean()), float(alt_vals.mean())
    s0, s1 = float(null_vals.std(ddof=1)), float(alt_vals.std(ddof=1))
    constants = [v[0] for v in (null_vals, alt_vals) if np.ptp(v) == 0.0]
    thr = np.mean(constants) if constants else weighted_midpoint(m0, s0, m1, s1)
    strict = np.ptp(null_vals) == 0.0 and thr == null_vals[0]
    if m1 >= m0:
        beyond = np.greater if strict else np.greater_equal
    else:
        beyond = np.less if strict else np.less_equal
    power = float(beyond(alt_vals, thr).mean())
    size = float(beyond(null_vals, thr).mean())
    return PowerReport(
        power=power, size=size, threshold=float(thr),
        power_se=binomial_se(power, replicas), size_se=binomial_se(size, replicas),
        mean_null=m0, mean_alt=m1, sd_null=s0, sd_alt=s1,
    )


def replicate(fn: Callable[[RngStream], float | np.ndarray], replicas: int,
              rng: RngStream, jobs: int = 1) -> np.ndarray:
    """Evaluate fn on substreams 0..replicas-1 of rng, in index order.

    fn returns a scalar or a fixed-length 1-d array, giving a (replicas,)
    or (replicas, k) float64 array.  A Batched fn is evaluated in blocks of
    at most CACHE_BYTES of replicas (or one larger replica), in block order
    on the calling thread.  A plain fn is fanned out over min(jobs,
    replicas, CPU count) threads when that is more than one; results are
    collected by replica index, so the output is independent of jobs.
    """
    if replicas < 1:
        raise ValueError("replicas must be positive")
    if isinstance(fn, Batched):
        # the fewest blocks under the cap, of sizes that differ by at most one
        blocks = -(-replicas * fn.nbytes // CACHE_BYTES)
        blocks = min(replicas, max(1, blocks))
        edges = [replicas * k // blocks for k in range(blocks + 1)]
        return np.concatenate([fn.block(SubstreamGenerators(rng, start, stop))
                               for start, stop in zip(edges, edges[1:])]
                              ).astype(np.float64, copy=False)
    streams = map(rng.substream, range(replicas))
    workers = min(jobs, replicas, os.cpu_count() or 1)
    if workers <= 1:
        return np.array([fn(s) for s in streams], dtype=np.float64)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.array(list(pool.map(fn, streams)), dtype=np.float64)


def two_arm(null_fn: Callable[[RngStream], float],
            alt_fn: Callable[[RngStream], float],
            replicas: int, rng: RngStream,
            jobs: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Null and alternative statistic samples of one detection experiment.

    Null replica i uses substream i of rng and alternative replica i uses
    substream replicas + i, so both arms follow from (rng, replicas)
    alone and not from jobs.
    """
    null_vals = replicate(null_fn, replicas, rng, jobs=jobs)
    alt_vals = replicate(alt_fn, replicas, rng.substream(replicas), jobs=jobs)
    return null_vals, alt_vals


def _values(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a nonempty 1-d sample array")
    return arr
