import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from checks import assert_mean_close
from netinfer import urns
from netinfer.graphcore import RngStream
from netinfer.harness import ks_distance
from netinfer.urns import (
    TRIANGULAR_REPLACEMENT,
    UrnState,
    beta_binomial_pmf,
    limit_law_check,
    triangular_urn_scaling,
    urn_run,
    urn_run_batch,
)

# ----------------------------------------------------------- UrnState


def test_constructors():
    u = UrnState.classic(1, 1)
    assert (u.replacement == np.eye(2)).all()
    u = UrnState.k_per_step([2, 3], 4)
    assert (u.replacement == 4 * np.eye(2)).all()
    u = UrnState.triangular(2, 1)
    assert (u.replacement == [[2, 0], [1, 1]]).all()
    assert u.colors == 2 and u.total == 3


def test_triangular_replacement_is_write_protected():
    with pytest.raises(ValueError):
        TRIANGULAR_REPLACEMENT[0, 0] = 5


@pytest.mark.parametrize(
    "counts,repl,msg",
    [
        ([], np.eye(0), "nonempty"),
        ([-1, 2], np.eye(2), "nonnegative"),
        ([0, 0], np.eye(2), "at least one ball"),
        ([1, 1], np.eye(3), "2x2"),
        ([1, 1], [[1, 0.5], [0, 1]], "integers"),
        ([1, 1], [[1, -1], [0, 1]], "nonnegative"),
        ([1, 1], [[0, 0], [1, 1]], "row must add"),
    ],
)
def test_urn_state_validation(counts, repl, msg):
    with pytest.raises(ValueError, match=msg):
        UrnState(np.asarray(counts), np.asarray(repl))


def test_k_per_step_requires_positive_k():
    with pytest.raises(ValueError, match="positive"):
        UrnState.k_per_step([1, 1], 0)


# ------------------------------------------------------------ urn_run


def test_urn_run_checkpoints():
    traj = urn_run(UrnState.classic(1, 1), 10, [0, 1, 10], RngStream(1, 0))
    assert traj.totals.tolist() == [2, 3, 12]
    assert traj.counts[0].tolist() == [1, 1]
    assert (traj.counts.sum(axis=1) == traj.totals).all()


def test_urn_run_zero_steps():
    traj = urn_run(UrnState.classic(3, 4), 0, [0], RngStream(1, 0))
    assert traj.totals.tolist() == [7]
    assert traj.counts.tolist() == [[3, 4]]


def test_urn_run_triangular_total_is_deterministic():
    # both replacement rows add two balls, so total = 3 + 2s always
    traj = urn_run(UrnState.triangular(2, 1), 7, [7], RngStream(2, 0))
    assert traj.totals.tolist() == [17]


def test_urn_run_zero_count_color_never_drawn():
    traj = urn_run(UrnState(np.array([0, 5]), np.eye(2, dtype=int)),
                   50, [50], RngStream(3, 0))
    assert traj.counts[0, 0] == 0
    assert traj.counts[0, 1] == 55


def test_urn_run_checkpoint_validation():
    u = UrnState.classic(1, 1)
    with pytest.raises(ValueError, match="lie in"):
        urn_run(u, 5, [6], RngStream(0, 0))
    with pytest.raises(ValueError, match="lie in"):
        urn_run(u, 5, [-1], RngStream(0, 0))
    with pytest.raises(ValueError, match="at least one checkpoint"):
        urn_run(u, 5, [], RngStream(0, 0))
    with pytest.raises(ValueError, match="steps"):
        urn_run(u, -1, [0], RngStream(0, 0))


def test_urn_run_deterministic():
    u = UrnState.classic(2, 3)
    a = urn_run(u, 40, [40], RngStream(4, 9))
    b = urn_run(u, 40, [40], RngStream(4, 9))
    assert (a.counts == b.counts).all()


@given(st.integers(0, 3), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 30))
@settings(max_examples=60, derandomize=True)
def test_urn_run_trajectory_invariants(extra, blue, red, steps):
    repl = np.array([[1 + extra, 0], [1, 1]])
    u = UrnState(np.array([blue, red]), repl)
    marks = sorted({0, steps // 2, steps})
    traj = urn_run(u, steps, marks, RngStream(5, steps))
    assert (traj.counts >= 0).all()
    assert (traj.counts.sum(axis=1) == traj.totals).all()
    assert traj.totals[0] >= u.total
    assert (np.diff(traj.totals) > 0).all()
    assert traj.counts.shape == (len(marks), 2)
    for arr in traj:
        assert arr.dtype == np.int64 and not arr.flags.writeable


# ------------------------------------------------------------- batch


def test_batch_shape_and_initial_checkpoint():
    u = UrnState.classic(1, 2, 3)
    out = urn_run_batch(u, 10, 7, RngStream(6, 0), checkpoints=[0, 10])
    assert out.shape == (2, 7, 3)
    assert (out[0] == [1, 2, 3]).all()
    assert (out[1].sum(axis=1) == 16).all()


def test_batch_default_checkpoint_is_final():
    u = UrnState.classic(1, 1)
    out = urn_run_batch(u, 5, 4, RngStream(6, 1))
    assert out.shape == (1, 4, 2)
    assert (out[0].sum(axis=1) == 7).all()


def test_batch_matches_single_run_law():
    # same distribution through a different stream layout
    u = UrnState.classic(1, 2)
    steps, runs = 50, 800
    singles = np.array([urn_run(u, steps, [steps], RngStream(7, i)).counts[0, 0]
                        for i in range(runs)], dtype=float)
    batch = urn_run_batch(u, steps, runs, RngStream(8, 0))[0, :, 0].astype(float)
    assert ks_distance(singles, batch) < 0.08


def test_batch_martingale_fraction_preserved():
    u = UrnState.classic(2, 5)
    out = urn_run_batch(u, 200, 4000, RngStream(9, 0))[0]
    fracs = out[:, 0] / out.sum(axis=1)
    assert_mean_close(fracs, 2.0 / 7.0)


_RULES = [
    UrnState.classic(1, 1),
    UrnState.classic(3, 2),
    UrnState.classic(1, 1, 1),
    UrnState.classic(0, 2, 1),  # color 0 is never drawn
    UrnState.k_per_step((1, 1), 2),
    UrnState.triangular(1, 1),
    UrnState(np.array([1, 2, 1]), np.array([[1, 2, 0], [0, 3, 1], [1, 0, 0]])),
]

_SCHEDULES = [  # (steps, runs, checkpoints)
    (0, 5, None),
    (0, 3, [0]),
    (60, 1, [0, 7, 60]),
    (200, 37, [0, 1, 100, 199, 200]),
    (500, 64, None),
]


@pytest.mark.parametrize("steps,runs,marks", _SCHEDULES)
@pytest.mark.parametrize("state", _RULES)
def test_batch_matches_step_loop_oracle(state, steps, runs, marks):
    got = urn_run_batch(state, steps, runs, RngStream(41, 3), marks)
    want = oracles.loop_urn_run_batch(state, steps, runs, RngStream(41, 3), marks)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("state", _RULES)
def test_batch_matches_oracle_across_uniform_blocks(state, monkeypatch):
    # 3 steps of 7 runs per block: checkpoints 3, 4 and 21 and the last step
    # (50, in a 2-step block) sit on either side of block edges
    monkeypatch.setattr(urns, "CACHE_BYTES", 3 * 7 * 8)
    marks = [0, 2, 3, 4, 20, 21, 49, 50]
    got = urn_run_batch(state, 50, 7, RngStream(42, 0), marks)
    want = oracles.loop_urn_run_batch(state, 50, 7, RngStream(42, 0), marks)
    np.testing.assert_array_equal(got, want)


class _GridStream:
    """Stands in for an RngStream whose uniforms are rounded down to the grid
    k/8, so u * total often lands exactly on a cumulative count.  The
    rounding is elementwise, so block and per-step draws still agree."""

    def __init__(self, seed):
        self._gen = RngStream(seed).generator()

    def generator(self):
        return self

    def random(self, size=None, out=None):
        u = self._gen.random(size, out=out)
        np.floor(u * 8, out=u)
        u /= 8
        return u


@pytest.mark.parametrize("state", _RULES)
def test_ties_break_like_the_loops(state):
    marks = [0, 3, 40]
    want = oracles.loop_urn_run_batch(state, 40, 9, _GridStream(44), marks)
    np.testing.assert_array_equal(
        urn_run_batch(state, 40, 9, _GridStream(44), marks), want)
    np.testing.assert_array_equal(
        urn_run(state, 40, marks, _GridStream(45)).counts,
        urn_run_batch(state, 40, 1, _GridStream(45), marks)[:, 0, :])


@pytest.mark.parametrize("steps,marks", [(0, [0]), (1, [0, 1]), (60, [0, 7, 60]),
                                         (300, [0, 150, 299, 300])])
@pytest.mark.parametrize("state", _RULES)
def test_urn_run_matches_one_run_ensemble(state, steps, marks):
    traj = urn_run(state, steps, marks, RngStream(43, steps))
    batch = urn_run_batch(state, steps, 1, RngStream(43, steps), marks)
    np.testing.assert_array_equal(traj.counts, batch[:, 0, :])


def test_batch_refuses_counts_past_exact_range():
    big = UrnState(np.array([1, 1]), np.array([[1 << 50, 0], [0, 1]]))
    with pytest.raises(ValueError, match="2\\^53"):
        urn_run_batch(big, 8, 2, RngStream(0, 0))
    # just inside the range the counts are still exact
    np.testing.assert_array_equal(
        urn_run_batch(big, 7, 2, RngStream(0, 0)),
        oracles.loop_urn_run_batch(big, 7, 2, RngStream(0, 0)))


# ----------------------------------------------------- beta-binomial


def test_beta_binomial_sums_to_one():
    total = sum(beta_binomial_pmf(50, 3, 2, k) for k in range(51))
    assert abs(total - 1.0) <= 1e-12


def test_beta_binomial_single_draw():
    assert beta_binomial_pmf(1, 1, 1, 0) == pytest.approx(0.5)
    assert beta_binomial_pmf(1, 1, 1, 1) == pytest.approx(0.5)


def test_beta_binomial_color_swap_symmetry():
    for n, b, r, k in [(5, 3, 2, 1), (9, 2, 7, 4), (12, 1, 1, 12)]:
        assert beta_binomial_pmf(n, b, r, k) == pytest.approx(
            beta_binomial_pmf(n, r, b, n - k), rel=1e-12)


def test_beta_binomial_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        beta_binomial_pmf(-1, 1, 1, 0)
    with pytest.raises(ValueError, match="lie in"):
        beta_binomial_pmf(5, 1, 1, 6)
    with pytest.raises(ValueError, match="positive"):
        beta_binomial_pmf(5, 0, 1, 2)


def _sequence_probability(b0, r0, seq):
    """Exact probability of a specific draw sequence (True = blue)."""
    b, r, prob = b0, r0, 1.0
    for is_blue in seq:
        if is_blue:
            prob *= b / (b + r)
            b += 1
        else:
            prob *= r / (b + r)
            r += 1
    return prob


def test_draw_sequences_are_exchangeable():
    # every order of 3 blue and 2 red draws from (3,2) has equal probability
    probs = [_sequence_probability(3, 2, seq)
             for seq in itertools.permutations([1, 1, 1, 0, 0])]
    assert max(probs) == pytest.approx(min(probs), rel=1e-12)
    assert probs[0] == pytest.approx((3 * 4 * 5) * (2 * 3) / math.prod(range(5, 10)))


def test_beta_binomial_matches_exhaustive_enumeration():
    n, b, r = 5, 3, 2
    for k in range(n + 1):
        exact = sum(_sequence_probability(b, r, seq)
                    for seq in itertools.product([1, 0], repeat=n)
                    if sum(seq) == k)
        assert beta_binomial_pmf(n, b, r, k) == pytest.approx(exact, rel=1e-12)


def test_batch_draw_counts_follow_beta_binomial():
    # chi-squared on the number of blue draws in 5 steps from (3,2)
    n, runs = 5, 200_000
    out = urn_run_batch(UrnState.classic(3, 2), n, runs, RngStream(10, 0))[0]
    blues = out[:, 0] - 3
    observed = np.bincount(blues, minlength=n + 1)
    expected = runs * np.array([beta_binomial_pmf(n, 3, 2, k) for k in range(n + 1)])
    assert stats.chisquare(observed, expected).pvalue > 0.001


def test_classic_1_1_draw_count_uniform():
    n, runs = 10, 40_000
    out = urn_run_batch(UrnState.classic(1, 1), n, runs, RngStream(11, 0))[0]
    blues = out[:, 0] - 1
    observed = np.bincount(blues, minlength=n + 1)
    expected = np.full(n + 1, runs / (n + 1))
    assert stats.chisquare(observed, expected).pvalue > 0.001


# ------------------------------------------------------- limit laws


def test_limit_law_beta_uniform():
    res = limit_law_check(UrnState.classic(1, 1), "beta", 2000, 400,
                          RngStream(12, 0))
    assert res.ks < 0.1
    assert res.alpha == (1.0, 1.0) and res.beta == (1.0, 1.0)
    assert res.n_final == 2000
    assert len(res.marginal_ks) == 2


def test_limit_law_beta_skewed():
    res = limit_law_check(UrnState.classic(3, 2), "beta", 2000, 400,
                          RngStream(13, 0))
    assert res.ks < 0.1
    assert res.alpha == (3.0, 2.0) and res.beta == (2.0, 3.0)


def test_limit_law_dirichlet_marginals():
    res = limit_law_check(UrnState.classic(1, 1, 1), "dirichlet", 1501, 400,
                          RngStream(14, 0))
    assert res.ks < 0.1
    assert res.alpha == (1.0, 1.0, 1.0)
    assert res.beta == (2.0, 2.0, 2.0)


def test_limit_law_scaled_dirichlet():
    res = limit_law_check(UrnState.k_per_step([1, 1], 2), "dirichlet_scaled",
                          2000, 400, RngStream(15, 0))
    assert res.ks < 0.1
    assert res.alpha == (0.5, 0.5) and res.beta == (0.5, 0.5)


def test_limit_law_scaled_with_k1_equals_dirichlet():
    res = limit_law_check(UrnState.classic(2, 3), "dirichlet_scaled", 1000,
                          200, RngStream(16, 0))
    assert res.alpha == (2.0, 3.0) and res.beta == (3.0, 2.0)


@pytest.mark.parametrize("state,law,same_as", [
    (UrnState.classic(1, 2, 3), "dirichlet_scaled", "dirichlet"),
    (UrnState.classic(3, 2), "beta", "dirichlet"),
])
def test_limit_laws_are_one_dirichlet_rule(state, law, same_as):
    """beta is the two-color case and dirichlet the k = 1 case of the
    Dirichlet(r/k) limit of a k*identity urn: at one stream the results
    agree field for field."""
    assert (limit_law_check(state, law, 600, 200, RngStream(19, 0))
            == limit_law_check(state, same_as, 600, 200, RngStream(19, 0)))


def test_limit_law_respects_step_size():
    res = limit_law_check(UrnState.k_per_step([1, 1], 3), "dirichlet_scaled",
                          10, 150, RngStream(17, 0))
    assert res.n_final == 8  # (10 - 2) // 3 = 2 steps of 3 balls


@pytest.mark.parametrize(
    "state,law,msg",
    [
        (UrnState.classic(1, 1, 1), "beta", "exactly two colors"),
        (UrnState.k_per_step([1, 1], 2), "beta", "identity replacement"),
        (UrnState.triangular(1, 1), "dirichlet", "identity replacement"),
        (UrnState.triangular(1, 1), "dirichlet_scaled", "k\\*identity"),
        (UrnState.classic(1, 1), "gamma", "unknown limit law"),
        (UrnState(np.array([0, 5]), np.eye(2, dtype=int)), "beta",
         "each color"),
        (UrnState.k_per_step([1, 1], 2), "dirichlet", "identity replacement"),
        (UrnState.k_per_step([1, 1, 1], 2), "beta", "exactly two colors"),
    ],
)
def test_limit_law_validation(state, law, msg):
    with pytest.raises(ValueError, match=msg):
        limit_law_check(state, law, 1000, 150, RngStream(0, 0))


def test_limit_law_needs_room_to_grow():
    with pytest.raises(ValueError, match="exceed the initial total"):
        limit_law_check(UrnState.classic(1, 1), "beta", 2, 150, RngStream(0, 0))


# ------------------------------------------------------- triangular


def test_triangular_scaling_smoke():
    res = triangular_urn_scaling(UrnState.triangular(4, 2), [200, 400], 300,
                                 RngStream(18, 0))
    assert res.totals == (200, 400)
    assert len(res.samples) == 2 and all(len(s) == 300 for s in res.samples)
    assert len(res.ks_consecutive) == 1
    assert res.ks_consecutive[0] < 0.2
    assert all(m > 0 for m in res.means)


def test_triangular_scaling_validation():
    with pytest.raises(ValueError, match="replacement"):
        triangular_urn_scaling(UrnState.classic(1, 1), [100], 10,
                               RngStream(0, 0))
    with pytest.raises(ValueError, match="red ball"):
        triangular_urn_scaling(UrnState.triangular(3, 0), [100], 10,
                               RngStream(0, 0))
    with pytest.raises(ValueError, match="at least 2"):
        triangular_urn_scaling(UrnState.triangular(1, 1), [100], 1,
                               RngStream(0, 0))
    with pytest.raises(ValueError, match="strictly increasing"):
        triangular_urn_scaling(UrnState.triangular(1, 1), [200, 100], 10,
                               RngStream(0, 0))
    with pytest.raises(ValueError, match="exceed the initial total"):
        triangular_urn_scaling(UrnState.triangular(1, 1), [2, 100], 10,
                               RngStream(0, 0))
