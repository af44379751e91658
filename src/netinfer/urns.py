"""Polya urn simulators and limit-law checks.

Urns with nonnegative integer replacement matrices: single-run trajectories,
vectorized ensembles, the beta-binomial marginal law of the classical
two-color urn, and KS verification of the Beta / Dirichlet / scaled-Dirichlet
limits plus the sqrt-n scaling of the triangular replacement rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from scipy.special import betainc, gammaln

from .graphcore import CACHE_BYTES, RngStream
from .harness import ks_distance, ks_distance_cdf

# drawing color 0 adds two color-0 balls; drawing color 1 adds one of each
TRIANGULAR_REPLACEMENT = np.array([[2, 0], [1, 1]], dtype=np.int64)
TRIANGULAR_REPLACEMENT.setflags(write=False)

# urn_run_batch keeps its counts in float64, exact for integers up to 2^53
_EXACT_COUNT = 1 << 53


@dataclass(frozen=True, eq=False)
class UrnState:
    """Ball counts per color plus the replacement rule.

    ``replacement[i]`` lists the balls added, one entry per color, when a
    ball of color i is drawn.  Every row must add at least one ball so the
    urn grows at each step.
    """

    counts: np.ndarray
    replacement: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        counts = _int64(counts, "counts")
        if counts.size == 0:
            raise ValueError("counts must be a nonempty vector")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if int(counts.sum()) < 1:
            raise ValueError("urn must start with at least one ball")
        m = counts.size
        repl = np.asarray(self.replacement)
        if repl.shape != (m, m):
            raise ValueError(f"replacement must be {m}x{m} to match counts")
        repl = _int64(repl, "replacement")
        if np.any(repl < 0):
            raise ValueError("replacement entries must be nonnegative")
        if np.any(repl.sum(axis=1) == 0):
            raise ValueError("every replacement row must add at least one ball")
        counts.setflags(write=False)
        repl.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "replacement", repl)

    @classmethod
    def classic(cls, *counts: int) -> "UrnState":
        """Identity replacement: the drawn ball returns with one copy."""
        return cls(np.asarray(counts), np.eye(len(counts), dtype=np.int64))

    @classmethod
    def k_per_step(cls, counts: Sequence[int], k: int) -> "UrnState":
        """k copies of the drawn color are added at each step."""
        if k < 1:
            raise ValueError("k must be a positive integer")
        m = len(counts)
        return cls(np.asarray(counts), k * np.eye(m, dtype=np.int64))

    @classmethod
    def triangular(cls, blue: int, red: int) -> "UrnState":
        return cls(np.asarray([blue, red]), TRIANGULAR_REPLACEMENT)

    @property
    def colors(self) -> int:
        return int(self.counts.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


class UrnTrajectory(NamedTuple):
    """Counts of a single run recorded at requested checkpoints, as
    read-only int64 arrays."""

    totals: np.ndarray  # (s,) total balls at each checkpoint
    counts: np.ndarray  # (s, m) per-color counts


class LimitLawResult(NamedTuple):
    ks: float  # max KS over marginals
    marginal_ks: tuple
    alpha: tuple  # Beta parameters per marginal
    beta: tuple
    n_final: int  # terminal total actually reached


class TriangularScaling(NamedTuple):
    totals: tuple  # total-ball counts actually reached
    samples: tuple  # one array of Y_n/sqrt(n) per total
    ks_consecutive: tuple
    means: tuple


def urn_run(initial: UrnState, steps: int, checkpoints: Iterable[int],
            rng: RngStream) -> UrnTrajectory:
    """Run one urn for `steps` draws, recording (total, counts) snapshots.

    Checkpoints are draw indices in [0, steps]; index 0 is the initial
    state.  Each draw picks color i with probability counts_i/total and
    adds replacement row i.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    marks = _checkpoint_indices(checkpoints, steps)
    gen = rng.generator()
    us = gen.random(steps)
    counts = [int(c) for c in initial.counts]
    repl = [[int(x) for x in row] for row in initial.replacement]
    row_tot = [sum(row) for row in repl]
    m = len(counts)
    total = sum(counts)
    mark_set = set(marks.tolist())
    rec_t: list[int] = []
    rec_c: list[list[int]] = []
    if 0 in mark_set:
        rec_t.append(total)
        rec_c.append(counts.copy())
    for s in range(1, steps + 1):
        x = us[s - 1] * total
        acc = 0
        color = m - 1
        for i in range(m):
            acc += counts[i]
            if x < acc:
                color = i
                break
        row = repl[color]
        for i in range(m):
            counts[i] += row[i]
        total += row_tot[color]
        if s in mark_set:
            rec_t.append(total)
            rec_c.append(counts.copy())
    traj = UrnTrajectory(np.asarray(rec_t, dtype=np.int64),
                         np.asarray(rec_c, dtype=np.int64))
    for arr in traj:
        arr.setflags(write=False)
    return traj


def urn_run_batch(initial: UrnState, steps: int, runs: int, rng: RngStream,
                  checkpoints: Iterable[int] | None = None) -> np.ndarray:
    """Run an ensemble of urns in lockstep; returns counts of shape
    (len(checkpoints), runs, m).

    Checkpoints default to [steps].  The whole ensemble consumes a single
    stream (one uniform per run per step, in run order), so results are
    reproducible from (seed, stream) alone but do not match stitching
    `runs` calls of urn_run together; with runs = 1 they equal urn_run on
    the same stream.  Counts must stay below 2^53.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if runs < 1:
        raise ValueError("runs must be positive")
    marks = _checkpoint_indices([steps] if checkpoints is None else checkpoints, steps)
    m = initial.colors
    most = initial.total + steps * int(initial.replacement.sum(axis=1).max())
    if most > _EXACT_COUNT:
        raise ValueError("ball counts could pass 2^53")
    gen = rng.generator()
    # cum[j] holds the balls of colors 0..j in each run, so cum[-1] is the
    # total.  The drawn color c is the first j with u * total < cum[j], as
    # in urn_run, and the cumulative form of its replacement row is
    # cr[c] = cr[m-1] + sum_{j >= c} (cr[j] - cr[j+1]).  So with the m - 1
    # comparisons stacked over a row of ones, one product with step_rule
    # gives every run's increment of cum.
    cr = np.cumsum(initial.replacement, axis=1)
    step_rule = np.empty((m, m))
    step_rule[:, :-1] = (cr[:-1] - cr[1:]).T
    step_rule[:, -1] = cr[-1]
    cum = np.repeat(np.cumsum(initial.counts, dtype=np.float64)[:, None], runs, axis=1)
    x = np.empty(runs)
    drawn = np.ones((m, runs))
    inc = np.empty((m, runs))
    out = np.empty((marks.size, runs, m), dtype=np.int64)
    # uniforms come in CACHE_BYTES blocks of whole steps, step-major and in
    # run order within a step: the same stream as gen.random(runs) per step
    buf = np.empty((max(1, CACHE_BYTES // (8 * runs)), runs))
    pos = 0
    if marks[0] == 0:
        out[0] = np.diff(cum, axis=0, prepend=0).T
        pos = 1
    s = 0
    while s < steps:
        k = min(buf.shape[0], steps - s)
        gen.random(out=buf[:k])
        for u in buf[:k]:
            s += 1
            np.multiply(u, cum[-1], out=x)
            np.less(x, cum[:-1], out=drawn[:-1])
            np.matmul(step_rule, drawn, out=inc)
            cum += inc
            if pos < marks.size and marks[pos] == s:
                out[pos] = np.diff(cum, axis=0, prepend=0).T
                pos += 1
    return out


def beta_binomial_pmf(n: int, b: int, r: int, k: int) -> float:
    """P(k of the first n draws are the b-color) in a classical two-color
    urn started from (b, r) balls: C(n,k) * b^(k-rising) * r^((n-k)-rising)
    / (b+r)^(n-rising), evaluated in log space.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= k <= n:
        raise ValueError("k must lie in [0, n]")
    if b < 1 or r < 1:
        raise ValueError("initial counts must be positive")
    log_p = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
             + gammaln(b + k) - gammaln(b)
             + gammaln(r + n - k) - gammaln(r)
             + gammaln(b + r) - gammaln(b + r + n))
    return float(np.exp(log_p))


def limit_law_check(initial: UrnState, law: str, n_final: int, runs: int,
                    rng: RngStream) -> LimitLawResult:
    """KS distance between terminal color fractions and the stated limit.

    law "beta": two colors, identity replacement, limit Beta(b, r).
    law "dirichlet": identity replacement, marginal i ~ Beta(r_i, T - r_i).
    law "dirichlet_scaled": replacement k*I, marginal i ~ Beta(r_i/k, (T-r_i)/k).
    Dirichlet marginals come from the aggregation property (coordinate i
    versus everything else), so the reported value is the max marginal KS.
    """
    alpha, bet = _limit_marginals(initial, law)
    k = int(initial.replacement[0, 0])
    if n_final <= initial.total:
        raise ValueError("n_final must exceed the initial total")
    steps = (n_final - initial.total) // k
    reached = initial.total + steps * k
    final = urn_run_batch(initial, steps, runs, rng)[0]
    fractions = final / reached
    per_marginal = tuple(
        ks_distance_cdf(fractions[:, i],
                        lambda x, a=alpha[i], b=bet[i]: betainc(a, b, x))
        for i in range(initial.colors))
    return LimitLawResult(ks=max(per_marginal), marginal_ks=per_marginal,
                          alpha=alpha, beta=bet, n_final=reached)


def triangular_urn_scaling(initial: UrnState, n_values: Sequence[int],
                           runs: int, rng: RngStream) -> TriangularScaling:
    """Distribution of (red count)/sqrt(total) at each requested total.

    Requires the [[2, 0], [1, 1]] replacement rule and at least one red
    ball initially; red is the slow color whose count grows like sqrt(n).
    Each total gets an independent ensemble (substream i); the stability
    report is the KS distance between consecutive totals.
    """
    if not np.array_equal(initial.replacement, TRIANGULAR_REPLACEMENT):
        raise ValueError("scaling check requires replacement [[2, 0], [1, 1]]")
    if int(initial.counts[1]) < 1:
        raise ValueError("need at least one red ball initially")
    if runs < 2:
        raise ValueError("runs must be at least 2")
    n_values = [int(n) for n in n_values]
    if len(n_values) < 1 or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    if n_values[0] <= initial.total:
        raise ValueError("n_values must exceed the initial total")
    totals, samples, means = [], [], []
    for i, n in enumerate(n_values):
        steps = (n - initial.total) // 2  # every step adds exactly 2 balls
        reached = initial.total + 2 * steps
        final = urn_run_batch(initial, steps, runs, rng.substream(i))[0]
        scaled = final[:, 1] / np.sqrt(reached)
        totals.append(reached)
        samples.append(scaled)
        means.append(float(scaled.mean()))
    ks = tuple(ks_distance(a, b) for a, b in zip(samples, samples[1:]))
    return TriangularScaling(totals=tuple(totals), samples=tuple(samples),
                             ks_consecutive=ks, means=tuple(means))


def _limit_marginals(initial: UrnState, law: str) -> tuple[tuple, tuple]:
    """Beta parameters of the marginals of the Dirichlet(r/k) limit of a
    k*identity urn; "beta" and "dirichlet" take k = 1, "beta" two colors."""
    if law not in ("beta", "dirichlet", "dirichlet_scaled"):
        raise ValueError(f"unknown limit law: {law!r}")
    if law == "beta" and initial.colors != 2:
        raise ValueError("beta limit requires exactly two colors")
    scaled = law == "dirichlet_scaled"
    k = int(initial.replacement[0, 0]) if scaled else 1
    if k < 1 or not np.array_equal(initial.replacement,
                                   k * np.eye(initial.colors, dtype=np.int64)):
        raise ValueError("scaled dirichlet limit requires replacement "
                         "k*identity" if scaled else
                         f"{law} limit requires identity replacement")
    if np.any(initial.counts < 1):
        raise ValueError("limit laws require at least one ball of each color")
    r = initial.counts.astype(np.float64)
    total = float(initial.total)
    alpha = tuple(float(x / k) for x in r)
    bet = tuple(float((total - x) / k) for x in r)
    return alpha, bet


def _checkpoint_indices(checkpoints: Iterable[int], steps: int) -> np.ndarray:
    marks = np.unique(np.asarray(list(checkpoints), dtype=np.int64))
    if marks.size == 0:
        raise ValueError("need at least one checkpoint")
    if marks[0] < 0 or marks[-1] > steps:
        raise ValueError("checkpoints must lie in [0, steps]")
    return marks


def _int64(arr: np.ndarray, name: str) -> np.ndarray:
    out = arr.astype(np.int64)
    if not np.array_equal(out, arr):
        raise ValueError(f"{name} must be integers")
    return out
