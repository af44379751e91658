import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

import oracles
from checks import assert_prop_close, assert_rel_close
from netinfer.graphcore import DenseSizeError, Graph, RngStream
from netinfer.harness import ks_distance
from netinfer.sbm import (
    LabeledGraph,
    SbmParams,
    ambiguous_profile,
    ch_divergence,
    community_profiles,
    d_t,
    degree_profile,
    exact_recovery_solvable,
    finest_partition,
    genie_recover,
    lecam_tv,
    map_classify,
    map_error_bounds,
    pairwise_error,
    sample_sbm,
)

# ----------------------------------------------------------- parameters


def test_symmetric_params_and_profiles():
    params = SbmParams.symmetric(2, 9.0, 1.0)
    profs = community_profiles(params)
    assert np.allclose(profs[0], [4.5, 0.5])
    assert np.allclose(profs[1], [0.5, 4.5])


def test_single_community_profile():
    params = SbmParams(k=1, p=np.array([1.0]), Q=np.array([[3.0]]))
    assert np.allclose(community_profiles(params)[0], [3.0])


def test_uniform_three_block_profiles():
    params = SbmParams(k=3, p=np.full(3, 1 / 3), Q=np.ones((3, 3)))
    for prof in community_profiles(params):
        assert np.allclose(prof, [1 / 3, 1 / 3, 1 / 3])


@pytest.mark.parametrize(
    "kwargs,msg",
    [
        (dict(k=0, p=np.array([1.0]), Q=np.array([[1.0]])), "k must be at least 1"),
        (dict(k=2, p=np.array([0.5, 0.4]), Q=np.ones((2, 2))), "sum to 1"),
        (dict(k=2, p=np.array([1.5, -0.5]), Q=np.ones((2, 2))), "lie in"),
        (dict(k=2, p=np.array([0.5, 0.5]), Q=np.ones((2, 3))), "shape"),
        (dict(k=2, p=np.array([0.5, 0.5]), Q=np.array([[1.0, 2.0], [3.0, 1.0]])),
         "symmetric"),
        (dict(k=2, p=np.array([0.5, 0.5]), Q=np.array([[1.0, -1.0], [-1.0, 1.0]])),
         "nonnegative"),
        (dict(k=2, p=np.array([0.5, 0.5]), Q=np.ones((2, 2)), regime="cubic"),
         "regime"),
        (dict(k=2, p=np.array([0.5, 0.5]),
              Q=np.array([[1.0, 0.0], [0.0, 1.0]])), "strictly positive"),
    ],
)
def test_params_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        SbmParams(**kwargs)


def test_constant_prob_alias():
    params = SbmParams(k=1, p=np.array([1.0]), Q=np.array([[0.3]]),
                       regime="constant-prob")
    assert params.regime == "constant"
    assert params.edge_probabilities(50)[0, 0] == 0.3


def test_edge_probabilities_scaling():
    params = SbmParams.symmetric(2, 9.0, 1.0)
    P = params.edge_probabilities(10_000)
    assert np.allclose(P, np.array([[9.0, 1.0], [1.0, 9.0]]) * math.log(1e4) / 1e4)
    lin = SbmParams.symmetric(2, 9.0, 1.0, regime="linear").edge_probabilities(100)
    assert np.allclose(lin, np.array([[0.09, 0.01], [0.01, 0.09]]))


def test_edge_probabilities_refuse_clamp():
    params = SbmParams.symmetric(2, 13.0, 1.0)
    with pytest.raises(ValueError, match="refusing to clamp"):
        params.edge_probabilities(50)  # 13 ln(50)/50 > 1


# ----------------------------------------------------------- divergences


def test_d_t_hand_value():
    assert abs(d_t([4.5, 0.5], [0.5, 4.5], 0.5) - 2.0) <= 1e-12


def test_d_t_endpoints_and_equal_profiles():
    assert d_t([4.5, 0.5], [0.5, 4.5], 0.0) == 0.0
    assert d_t([4.5, 0.5], [0.5, 4.5], 1.0) == 0.0
    assert d_t([1.0, 2.0], [1.0, 2.0], 0.37) <= 1e-15


def test_d_t_validation():
    with pytest.raises(ValueError, match="t must lie in"):
        d_t([1.0], [2.0], 1.2)
    with pytest.raises(ValueError, match="t must lie in"):
        d_t([1.0], [2.0], -0.2)
    with pytest.raises(ValueError, match="equal-length"):
        d_t([1.0, 2.0], [1.0], 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        d_t([-1.0], [1.0], 0.5)
    with pytest.raises(ValueError, match="support"):
        d_t([0.0, 1.0], [1.0, 1.0], 0.5)


@given(
    st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=4),
    st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=120, derandomize=True)
def test_d_t_nonnegative(c1, c2, t):
    m = min(len(c1), len(c2))
    assert d_t(c1[:m], c2[:m], t) >= -1e-12


def _grid_max(c1, c2, step=1e-6):
    """Dense-grid maximization of D_t, independent of the search code."""
    a = np.asarray(c1, dtype=np.float64)
    b = np.asarray(c2, dtype=np.float64)
    t = np.arange(0.0, 1.0 + step / 2, step)[:, None]
    vals = (t * a + (1.0 - t) * b
            - np.exp(t * np.log(a) + (1.0 - t) * np.log(b))).sum(axis=1)
    i = int(np.argmax(vals))
    return float(vals[i]), float(t[i, 0])


def test_ch_divergence_symmetric_pair():
    res = ch_divergence([4.5, 0.5], [0.5, 4.5])
    assert abs(res.d_plus - 2.0) <= 1e-8
    assert abs(res.t_star - 0.5) <= 1e-6


def test_ch_divergence_matches_dense_grid():
    for c1, c2 in [([4.5, 0.5], [0.5, 4.5]),
                   ([1.2, 3.4], [2.0, 0.7]),
                   ([0.3, 5.0, 1.0], [2.2, 0.9, 1.4])]:
        res = ch_divergence(c1, c2)
        ref, t_ref = _grid_max(c1, c2)
        assert abs(res.d_plus - ref) <= 1e-8
        assert abs(res.t_star - t_ref) <= 2e-6


def test_ch_divergence_swap_symmetry():
    res = ch_divergence([1.2, 3.4], [2.0, 0.7])
    rev = ch_divergence([2.0, 0.7], [1.2, 3.4])
    assert abs(res.d_plus - rev.d_plus) <= 1e-10
    assert abs(res.t_star - (1.0 - rev.t_star)) <= 1e-6


def test_ch_divergence_equal_profiles_zero():
    res = ch_divergence([2.0, 1.0], [2.0, 1.0])
    assert res.d_plus == 0.0


def test_ch_divergence_symmetric_closed_form_spot():
    # uniform two-block case: D_+ = (sqrt(a) - sqrt(b))^2 / k
    for k, a, b in [(2, 9.0, 1.0), (4, 16.0, 1.0), (3, 7.3, 2.1)]:
        profs = community_profiles(SbmParams.symmetric(k, a, b))
        got = ch_divergence(profs[0], profs[1]).d_plus
        assert abs(got - (math.sqrt(a) - math.sqrt(b)) ** 2 / k) <= 1e-8


def test_ch_divergence_one_coordinate_t_star_closed_form():
    # the slope a - b - a^t b^(1-t) ln(a/b) vanishes at
    # t* = ln((a - b) / (b ln(a/b))) / ln(a/b)
    values = (0.3, 0.5, 1.0, 2.0, 3.7, 5.0, 9.0, 20.0)
    for a in values:
        for b in values:
            if a == b:
                continue
            r = math.log(a / b)
            closed = math.log((a - b) / (b * r)) / r
            assert abs(ch_divergence([a], [b]).t_star - closed) <= 1e-12, (a, b)


def test_ch_divergence_mirrored_pair_stops_at_one_half():
    for c1 in ([4.5, 0.5], [1.2, 3.4, 0.7], [0.1, 8.0, 2.5, 2.5]):
        res = ch_divergence(c1, c1[::-1])
        assert res.t_star == 0.5
        assert res.d_plus == ch_divergence(c1[::-1], c1).d_plus


def test_ch_divergence_profiles_equal_to_working_precision_take_one_half():
    # D_t is at rounding level here, so the sign of the slope is noise;
    # t* = 1/2 is the limit of t* as the profiles converge
    for c1, c2 in [([1.0, 2.0], [1.0, 2.0 + 1e-12]), ([3.0], [3.0 + 1e-13]),
                   ([1e-3, 5.0], [1e-3 + 1e-17, 5.0])]:
        for pair in ((c1, c2), (c2, c1)):
            res = ch_divergence(*pair)
            assert res.t_star == 0.5
            assert res.d_plus == max(d_t(*pair, 0.5), 0.0)
            assert res.d_plus <= 1e-15


def test_ch_divergence_t_star_tends_to_one_half():
    # one coordinate, b = a e^-r: t* = 1/2 + r/24 + O(r^2)
    for r in (1e-2, 1e-3, 1e-4):
        res = ch_divergence([3.0], [3.0 * math.exp(-r)])
        assert abs(res.t_star - 0.5) <= r
        assert res.d_plus > 0.0


@pytest.mark.parametrize("r", [1e-4, 1e-5, 1e-6])
def test_ch_divergence_t_star_near_equal_profiles(r):
    # swapping the profiles maps t* to 1 - t* and r to -r, so t* - 1/2 is
    # odd in r: t* = 1/2 + r/24 + O(r^3), in both orders
    a, b = [3.0], [3.0 * math.exp(-r)]
    assert abs(ch_divergence(a, b).t_star - (0.5 + r / 24)) <= 1e-9
    assert abs(ch_divergence(b, a).t_star - (0.5 - r / 24)) <= 1e-9


@pytest.mark.parametrize("b", [1e-20, 1e-300])
def test_ch_divergence_far_apart_entries(b):
    # [1] vs [b]: the slope 1 - b - b^(1-t) L (L = ln(1/b)) vanishes at
    # 1 - t* = ln(L/(1 - b))/L, and D = t* + (1 - t*) b - (1 - b)/L there
    lg = -math.log(b)
    t = 1.0 - math.log(lg / (1.0 - b)) / lg
    d = t + (1.0 - t) * b - (1.0 - b) / lg
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fwd, rev = ch_divergence([1.0], [b]), ch_divergence([b], [1.0])
    assert abs(fwd.t_star - t) <= 1e-12 and abs(rev.t_star - (1.0 - t)) <= 1e-12
    assert_rel_close(fwd.d_plus, d, 1e-12)
    assert_rel_close(rev.d_plus, d, 1e-12)


def test_ch_divergence_symmetric_model_with_tiny_b():
    # mirrored profiles [1/2, b/2] vs [b/2, 1/2] cancel, so t* = 1/2 exactly
    params = SbmParams.symmetric(2, 1.0, 1e-17)
    c1, c2 = community_profiles(params)
    res = ch_divergence(c1, c2)
    assert res.t_star == 0.5
    assert_rel_close(res.d_plus, (math.sqrt(0.5) - math.sqrt(0.5e-17)) ** 2, 1e-12)
    assert not exact_recovery_solvable(params).solvable


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
def test_symmetric_pairs_have_bit_equal_divergence(k):
    params = SbmParams.symmetric(k, 5.0, 0.5)
    profs = community_profiles(params)
    values = {ch_divergence(profs[i], profs[j]).d_plus
              for i in range(k) for j in range(i + 1, k)}
    assert len(values) == 1
    assert exact_recovery_solvable(params).min_pair == (0, 1)


# ----------------------------------------------------------- solvability


def test_solvable_two_block():
    res = exact_recovery_solvable(SbmParams.symmetric(2, 9.0, 1.0))
    assert res.solvable and not res.boundary
    assert res.min_pair == (0, 1)
    assert abs(res.min_value - 2.0) <= 1e-8


def test_not_solvable_near_equal_rates():
    res = exact_recovery_solvable(SbmParams.symmetric(2, 1.01, 1.0))
    assert not res.solvable
    assert_rel_close(res.min_value,
                     (math.sqrt(1.01) - 1.0) ** 2 / 2.0, 1e-3)


def test_solvable_four_block():
    res = exact_recovery_solvable(SbmParams.symmetric(4, 16.0, 1.0))
    assert res.solvable
    assert abs(res.min_value - 2.25) <= 1e-8


def test_solvable_boundary_flag():
    # (sqrt(a) - sqrt(b))^2 / 2 == 1 exactly at a = 3 + 2 sqrt(2), b = 1
    res = exact_recovery_solvable(
        SbmParams.symmetric(2, 3.0 + 2.0 * math.sqrt(2.0), 1.0))
    assert res.boundary
    assert abs(res.min_value - 1.0) <= 1e-9


def test_solvable_validation():
    with pytest.raises(ValueError, match="at least two communities"):
        exact_recovery_solvable(SbmParams(k=1, p=np.array([1.0]),
                                          Q=np.array([[2.0]])))
    with pytest.raises(ValueError, match="rows 0 and 1"):
        exact_recovery_solvable(SbmParams(k=2, p=np.array([0.5, 0.5]),
                                          Q=np.full((2, 2), 2.0)))
    with pytest.raises(ValueError, match="logarithmic"):
        exact_recovery_solvable(SbmParams.symmetric(2, 9.0, 1.0,
                                                    regime="linear"))


def test_finest_partition_extremes():
    assert finest_partition(SbmParams.symmetric(2, 9.0, 1.0)) == [[0], [1]]
    assert finest_partition(SbmParams.symmetric(3, 1.1, 1.0)) == [[0, 1, 2]]


def test_finest_partition_merges_close_pair():
    # columns 0 and 1 nearly coincide; column 2 is far from both
    Q = np.array([[9.0, 8.2, 1.0],
                  [8.2, 9.0, 1.0],
                  [1.0, 1.0, 16.0]])
    params = SbmParams(k=3, p=np.full(3, 1 / 3), Q=Q)
    profs = community_profiles(params)
    assert ch_divergence(profs[0], profs[1]).d_plus < 1.0
    assert ch_divergence(profs[0], profs[2]).d_plus >= 1.0
    assert ch_divergence(profs[1], profs[2]).d_plus >= 1.0
    assert finest_partition(params) == [[0, 1], [2]]


def _clustered_params(k: int, seed: int) -> SbmParams:
    """Non-symmetric model whose communities fall into a few types: the
    rows of Q within a type differ only by a little noise, so D_+ is small
    inside a type and mostly large across types."""
    gen = np.random.default_rng(seed)
    types = gen.integers(0, max(2, k // 2), size=k)
    centre = gen.uniform(1.0, 80.0, size=(k, k))
    noise = gen.uniform(0.0, 4.0, size=(k, k))
    Q = centre[types][:, types] + noise
    return SbmParams(k=k, p=gen.dirichlet(np.full(k, 4.0)), Q=(Q + Q.T) / 2)


_PARTITION_CASES = (
    [SbmParams.symmetric(k, a, b) for k in range(3, 8)
     for a, b in ((9.0, 1.0), (2.0, 1.0), (16.0, 4.0))]
    + [_clustered_params(k, seed) for k in range(3, 8) for seed in range(12)])


def test_finest_partition_matches_union_of_close_pairs():
    shapes = set()
    for params in _PARTITION_CASES:
        blocks = finest_partition(params)
        assert blocks == oracles.union_of_close_pairs(params)
        shapes.add((len(blocks) == 1, len(blocks) == params.k))
    # whole, singleton and mixed partitions all occur
    assert shapes == {(True, False), (False, True), (False, False)}


# ------------------------------------------------------- degree profiles


def test_degree_profile_triangle():
    g = sample_sbm(3, SbmParams(k=1, p=np.array([1.0]), Q=np.array([[1.0]]),
                                regime="constant"), RngStream(0, 0)).graph
    lg = LabeledGraph(g, np.array([0, 0, 1]))
    assert degree_profile(lg, 0).tolist() == [1, 1]


def test_degree_profile_isolated_vertex():
    params = SbmParams(k=2, p=np.array([0.5, 0.5]),
                       Q=np.zeros((2, 2)), regime="constant")
    lg = sample_sbm(6, params, RngStream(1, 0))
    assert degree_profile(lg, 3, k=2).tolist() == [0, 0]


def test_degree_profile_sums_to_degree():
    params = SbmParams.symmetric(3, 8.0, 2.0)
    lg = sample_sbm(200, params, RngStream(5, 0))
    for v in (0, 17, 199):
        prof = degree_profile(lg, v, k=3)
        assert prof.sum() == lg.graph.degree(v)


# ----------------------------------------------------------------- MAP


def test_map_classify_clear_cases():
    means = np.array([[10.0, 1.0], [1.0, 10.0]])
    prior = np.array([0.5, 0.5])
    assert map_classify([9.0, 0.0], means, prior) == 0
    assert map_classify([0.0, 9.0], means, prior) == 1


def test_map_classify_tie_breaks_low():
    means = np.array([[3.0, 7.0], [7.0, 3.0]])
    assert map_classify([5.0, 5.0], means, np.array([0.5, 0.5])) == 0


def test_map_classify_zero_mean_rules_out():
    means = np.array([[0.0, 5.0], [2.0, 2.0]])
    prior = np.array([0.9, 0.1])
    assert map_classify([1.0, 0.0], means, prior) == 1
    assert map_classify([0.0, 4.0], means, prior) == 0


def test_map_classify_validation():
    with pytest.raises(ValueError, match="matching the prior"):
        map_classify([1.0], np.array([[1.0, 2.0]]), np.array([0.5, 0.5]))


def _map_oracle(d, means, prior):
    """Posterior argmax computed through scipy pmfs, including log-factorial
    terms the score function drops."""
    post = [p * np.prod(poisson.pmf(d, mu)) for p, mu in zip(prior, means)]
    return int(np.argmax(post))


def test_map_classify_matches_posterior_argmax_exhaustively():
    rng = np.random.default_rng(2718)
    grid = [(x, y) for x in range(21) for y in range(21)]
    for _ in range(5):
        means = rng.uniform(0.2, 12.0, size=(2, 2))
        prior = rng.uniform(0.2, 1.0, size=2)
        prior = prior / prior.sum()
        for d in grid:
            d = np.array(d, dtype=float)
            assert map_classify(d, means, prior) == _map_oracle(d, means, prior)


# ------------------------------------------------------- pairwise error


def test_pairwise_error_equal_means():
    for q in (0.1, 0.5, 0.9):
        res = pairwise_error([3.0], [3.0], q, 1.0 - q)
        assert abs(res.value - min(q, 1.0 - q)) <= res.tail_bound + 1e-12


def test_pairwise_error_zero_prior():
    assert pairwise_error([2.0], [3.0], 0.0, 0.5) == (0.0, 0.0)
    assert pairwise_error([2.0], [3.0], 0.5, 0.0) == (0.0, 0.0)


def test_pairwise_error_scalar_oracle():
    res = pairwise_error([20.0], [30.0], 0.5, 0.5)
    x = np.arange(201)
    ref = np.minimum(0.5 * poisson.pmf(x, 20.0), 0.5 * poisson.pmf(x, 30.0)).sum()
    assert abs(res.value - ref) <= 1e-12
    assert res.tail_bound <= 1e-12


def test_pairwise_error_vector_oracle():
    res = pairwise_error([5.0, 3.0], [3.0, 5.0], 0.5, 0.5)
    x = np.arange(61)
    pi = np.outer(poisson.pmf(x, 5.0), poisson.pmf(x, 3.0))
    pj = np.outer(poisson.pmf(x, 3.0), poisson.pmf(x, 5.0))
    ref = np.minimum(0.5 * pi, 0.5 * pj).sum()
    assert abs(res.value - ref) <= 1e-10


def test_pairwise_error_validation():
    with pytest.raises(ValueError, match="same length"):
        pairwise_error([1.0, 2.0], [1.0], 0.5, 0.5)
    with pytest.raises(ValueError, match="strictly positive"):
        pairwise_error([0.0], [1.0], 0.5, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        pairwise_error([1.0], [1.0], -0.1, 0.5)
    with pytest.raises(DenseSizeError, match="truncated lattice"):
        pairwise_error([1e4] * 3, [1e4] * 3, 0.5, 0.5)


@pytest.mark.parametrize("mean", [math.inf, math.nan, -math.inf])
def test_pairwise_error_refuses_non_finite_means(mean):
    # an infinite or nan mean once gave a wrapped lattice size and a nan tail
    with pytest.raises(ValueError, match="strictly positive and finite"):
        pairwise_error([1.0, mean], [1.0, 2.0], 0.5, 0.5)
    with pytest.raises(ValueError, match="strictly positive and finite"):
        pairwise_error([1.0, 2.0], [1.0, mean], 0.5, 0.5)


# ------------------------------------------------------- error sandwich


def test_map_error_bounds_two_blocks_collapse():
    P = np.array([[0.0, 0.1], [0.1, 0.0]])
    lower, upper = map_error_bounds(P)
    assert lower == upper == pytest.approx(0.1)


def test_map_error_bounds_zero_matrix():
    assert map_error_bounds(np.zeros((3, 3))) == (0.0, 0.0)


def test_map_error_bounds_validation():
    with pytest.raises(ValueError, match="square"):
        map_error_bounds(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="square"):
        map_error_bounds(np.zeros((1, 1)))
    bad = np.array([[0.0, 0.1], [0.2, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        map_error_bounds(bad)


def test_map_error_bounds_sandwich_monte_carlo():
    # Bayesian three-hypothesis experiment: the realized MAP error must
    # land between sum/(k-1) and sum of the pairwise errors.
    L = np.array([[4.0, 1.0, 1.0], [1.0, 4.0, 1.0], [1.0, 1.0, 4.0]])
    prior = np.array([0.5, 0.3, 0.2])
    P = np.zeros((3, 3))
    for i in range(3):
        for j in range(i + 1, 3):
            P[i, j] = P[j, i] = pairwise_error(L[i], L[j],
                                               prior[i], prior[j]).value
    lower, upper = map_error_bounds(P)
    gen = RngStream(31, 0).generator()
    reps = 4000
    labels = gen.choice(3, size=reps, p=prior)
    counts = gen.poisson(L[labels])
    errors = sum(map_classify(counts[r], L, prior) != labels[r]
                 for r in range(reps))
    rate = errors / reps
    se = math.sqrt(rate * (1.0 - rate) / reps)
    assert lower - 3 * se <= rate <= upper + 3 * se


# ------------------------------------------------------------- Le Cam


def test_lecam_zero_cross_rate():
    assert lecam_tv(1000, 1.0, 0.0) == (0.0, 0.0)


def test_lecam_frozen_example():
    res = lecam_tv(10_000, 0.5, 2.0)
    bound = 2.0 * 0.5 * 4.0 * math.log(1e4) ** 2 / 1e4
    assert res.bound == pytest.approx(bound)
    assert res.bound == pytest.approx(0.03393215, rel=1e-5)
    assert 0.0 < res.tv <= res.bound


def test_lecam_tv_decreasing_in_n():
    vals = [lecam_tv(n, 1.0, 1.0).tv for n in (1000, 10_000, 100_000)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_lecam_bound_holds_on_grid():
    for n in (100, 1000, 10_000):
        for a, b in [(0.5, 2.0), (1.0, 1.0), (2.0, 0.5), (3.0, 0.2)]:
            res = lecam_tv(n, a, b)
            assert res.tv <= res.bound


def test_lecam_independent_summation():
    # recompute the truncated L1 + tail directly from scipy pmfs
    n, a, b = 1000, 1.0, 2.0
    res = lecam_tv(n, a, b)
    trials, prob = n * a, math.log(n) * b / n
    lam = a * b * math.log(n)
    from scipy.stats import binom
    x = np.arange(int(trials) + 1)
    l1 = np.abs(binom.pmf(x, int(trials), prob) - poisson.pmf(x, lam)).sum()
    ref = 0.5 * (l1 + poisson.sf(int(trials), lam))
    assert res.tv == pytest.approx(ref, abs=1e-12)


def test_lecam_validation():
    with pytest.raises(ValueError, match="n must be at least 2"):
        lecam_tv(1, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive integer"):
        lecam_tv(10, 0.55, 1.0)
    with pytest.raises(ValueError, match="probability out of range"):
        lecam_tv(10, 1.0, 5.0)  # ln(10) * 5 / 10 > 1


# ------------------------------------------------------------ ambiguity


def test_ambiguous_profile_symmetric_pair():
    params = SbmParams.symmetric(2, 9.0, 1.0)
    # geometric mean of the two profiles is (1.5, 1.5); times ln 3, floored
    assert ambiguous_profile(params, 0, 1, 3).tolist() == [1, 1]


def test_ambiguous_profile_matches_formula():
    params = SbmParams.symmetric(3, 12.0, 2.0)
    profs = community_profiles(params)
    t = ch_divergence(profs[0], profs[2]).t_star
    expect = np.floor(profs[0] ** t * profs[2] ** (1 - t) * math.log(50))
    assert (ambiguous_profile(params, 0, 2, 50) == expect.astype(int)).all()


def test_ambiguous_profile_validation():
    params = SbmParams.symmetric(2, 9.0, 1.0)
    with pytest.raises(ValueError, match="must differ"):
        ambiguous_profile(params, 1, 1, 10)
    with pytest.raises(ValueError, match="out of range"):
        ambiguous_profile(params, 0, 5, 10)


# ------------------------------------------------------------- sampling


def test_sample_sbm_constant_complete():
    params = SbmParams(k=1, p=np.array([1.0]), Q=np.array([[1.0]]),
                       regime="constant")
    lg = sample_sbm(100, params, RngStream(3, 0))
    assert lg.graph.m == 100 * 99 // 2
    assert (lg.labels == 0).all()


def test_sample_sbm_within_community_density():
    n = 10_000
    params = SbmParams.symmetric(2, 9.0, 1.0)
    lg = sample_sbm(n, params, RngStream(8, 0))
    adj, labels = lg.graph.to_dense(), lg.labels
    same = labels[:, None] == labels[None, :]
    pairs = (np.triu(same, 1)).sum()
    edges = (np.triu(adj & same, 1)).sum()
    assert_prop_close(edges / pairs, 9.0 * math.log(n) / n, int(pairs))


def test_sample_sbm_cross_community_density():
    n = 3000
    params = SbmParams.symmetric(2, 9.0, 1.0)
    lg = sample_sbm(n, params, RngStream(9, 0))
    adj, labels = lg.graph.to_dense(), lg.labels
    cross = labels[:, None] != labels[None, :]
    pairs = (np.triu(cross, 1)).sum()
    edges = (np.triu(adj & cross, 1)).sum()
    assert_prop_close(edges / pairs, math.log(n) / n, int(pairs))


def _block_edge_counts(adj, labels, k):
    """Edge counts within each block and between each pair of blocks."""
    u, v = np.nonzero(np.triu(adj, 1))
    a, b = np.minimum(labels[u], labels[v]), np.maximum(labels[u], labels[v])
    return np.bincount(a * k + b, minlength=k * k)[
        (np.arange(k)[:, None] * k + np.arange(k))[np.triu_indices(k)]]


@pytest.mark.parametrize("params,n", [
    (SbmParams.symmetric(2, 9.0, 1.0), 200),
    (SbmParams(k=3, p=np.array([0.5, 0.3, 0.2]),
               Q=np.array([[0.3, 0.05, 1.0], [0.05, 0.2, 0.0], [1.0, 0.0, 0.6]]),
               regime="constant"), 40),
])
def test_block_pair_sampler_matches_dense_law(params, n):
    """Block-pair skip sampling and one uniform per vertex pair give the
    same law of every within-block and cross-block edge count."""
    reps = 2000
    crit = math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2.0 / reps)
    base = RngStream(17, n)
    fast, dense = [], []
    for i in range(reps):
        lg = sample_sbm(n, params, base.substream(i))
        fast.append(_block_edge_counts(lg.graph.to_dense(), lg.labels, params.k))
        adj, labels = oracles.dense_sample_sbm(n, params, base.substream(reps + i))
        dense.append(_block_edge_counts(adj, labels, params.k))
    fast, dense = np.array(fast), np.array(dense)
    for col in range(fast.shape[1]):
        assert ks_distance(fast[:, col], dense[:, col]) < crit, col


def test_sample_sbm_deterministic():
    params = SbmParams.symmetric(2, 9.0, 1.0)
    a = sample_sbm(200, params, RngStream(4, 7))
    b = sample_sbm(200, params, RngStream(4, 7))
    assert (a.graph.to_dense() == b.graph.to_dense()).all()
    assert (a.labels == b.labels).all()


@pytest.mark.parametrize("n,params,seed", [
    (2000, SbmParams.symmetric(2, 9.0, 1.0), 11),
    (300, SbmParams.symmetric(3, 8.0, 2.0), 12),
    (6, SbmParams(k=2, p=np.array([0.5, 0.5]), Q=np.zeros((2, 2)),
                  regime="constant"), 13),
])
def test_sample_sbm_edges_are_what_from_edges_builds(n, params, seed):
    # the trusted pair constructor sorts the block pairs as the checked
    # one would, down to the last byte, and the empty graph included
    g = sample_sbm(n, params, RngStream(seed)).graph
    built = Graph.from_edges(n, g.edges())
    assert g.edges().dtype == np.int64 and g.edges().shape == (g.m, 2)
    assert g.edges().tobytes() == built.edges().tobytes()
    assert (g.m == 0) == (params.Q.max() == 0.0)


def test_sample_sbm_rejects_unscalable_rates():
    with pytest.raises(ValueError, match="refusing to clamp"):
        sample_sbm(50, SbmParams.symmetric(2, 13.0, 1.0), RngStream(0, 0))


def test_labeled_graph_validation():
    g = sample_sbm(5, SbmParams(k=1, p=np.array([1.0]), Q=np.array([[1.0]]),
                                regime="constant"), RngStream(0, 0)).graph
    with pytest.raises(ValueError, match="labels length"):
        LabeledGraph(g, np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="nonnegative"):
        LabeledGraph(g, np.array([0, 0, -1, 0, 0]))


# ------------------------------------------------------------- recovery


def test_genie_recover_rounds_zero_returns_corrupted_start():
    params = SbmParams.symmetric(2, 9.0, 1.0)
    lg = sample_sbm(100, params, RngStream(12, 0))
    out = genie_recover(lg, params, 0.0, 0, RngStream(12, 1))
    assert (out == lg.labels).all()


def test_genie_recover_single_community():
    params = SbmParams(k=1, p=np.array([1.0]), Q=np.array([[4.0]]))
    lg = sample_sbm(60, params, RngStream(13, 0))
    out = genie_recover(lg, params, 0.0, 2, RngStream(13, 1))
    assert (out == 0).all()


def test_genie_recover_clean_start_high_accuracy():
    params = SbmParams.symmetric(2, 9.0, 1.0)
    accs = []
    for i in range(5):
        lg = sample_sbm(300, params, RngStream(14, i))
        out = genie_recover(lg, params, 0.0, 1, RngStream(14, 100 + i))
        accs.append((out == lg.labels).mean())
    assert np.mean(accs) >= 0.97


def test_genie_recover_validation():
    params = SbmParams.symmetric(2, 9.0, 1.0)
    lg = sample_sbm(50, params, RngStream(15, 0))
    with pytest.raises(ValueError, match="corruption"):
        genie_recover(lg, params, 0.5, 1, RngStream(15, 1))
    with pytest.raises(ValueError, match="rounds"):
        genie_recover(lg, params, 0.1, -1, RngStream(15, 1))
    with pytest.raises(ValueError, match="logarithmic"):
        genie_recover(lg, SbmParams.symmetric(2, 9.0, 1.0, regime="constant"),
                      0.1, 1, RngStream(15, 1))


def test_genie_recover_accuracy_improves_with_rounds():
    # near-threshold rates and a heavily corrupted start: each synchronous
    # round must help on average
    params = SbmParams.symmetric(2, 6.0, 1.0)
    n, reps = 200, 100
    means = []
    for rounds in (0, 1, 2):
        acc = []
        for i in range(reps):
            lg = sample_sbm(n, params, RngStream(16, i))
            out = genie_recover(lg, params, 0.3, rounds, RngStream(17, i))
            acc.append((out == lg.labels).mean())
        means.append(np.mean(acc))
    assert means[0] < means[1] <= means[2] + 1e-9
    assert means[0] == pytest.approx(0.7, abs=0.02)


def _with_isolated_vertices(lg: LabeledGraph, extra: int) -> LabeledGraph:
    n = lg.graph.n + extra
    labels = np.concatenate((lg.labels, np.arange(extra) % (lg.labels.max() + 1)))
    return LabeledGraph(Graph.from_edges(n, lg.graph.edges()), labels)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_genie_recover_matches_one_hot_product(k):
    params = (SbmParams(k=1, p=np.array([1.0]), Q=np.array([[4.0]])) if k == 1
              else SbmParams.symmetric(k, 7.0, 1.5))
    for seed in range(3):
        lg = sample_sbm(150, params, RngStream(18, seed))
        graphs = (lg, _with_isolated_vertices(lg, 7))
        for g in graphs:
            for rounds in (0, 1, 3):
                for corruption in (0.0, 0.3):
                    got = genie_recover(g, params, corruption, rounds,
                                        RngStream(19, seed))
                    want = oracles.product_genie_recover(
                        g, params, corruption, rounds, RngStream(19, seed))
                    assert np.array_equal(got, want)


def test_genie_recover_rejects_labels_beyond_k():
    params = SbmParams.symmetric(2, 9.0, 1.0)
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="below params.k"):
        genie_recover(LabeledGraph(g, np.array([0, 1, 2])), params, 0.0, 1,
                      RngStream(20, 0))
