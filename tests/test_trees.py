"""Attachment trees: growth, branch weights, confidence sets, and the
degree / split laws behind root finding.

Split-law tests reduce the tree to its seed-edge sides and check the
exact urn law of the side degrees, so they double as a consistency check
between this module and the urn code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from checks import assert_prop_close
from oracles import ahu_signature, psi, relabel_uniform
from netinfer.graphcore import RngStream, Tree, parse_edge_list, serialize_edge_list
from netinfer.harness import ks_distance_cdf
from netinfer.trees import (
    branch_weights,
    centroid,
    default_seed,
    fixed_vertex_degree_scaling,
    grow,
    max_degree,
    path,
    required_k,
    root_confidence_set,
    root_finding_success,
    root_leaf_probability,
    root_ranks,
    star,
)


def _sides(t):
    """Seed-edge side (0 or 1) of every vertex, inherited from the parent."""
    parent = t.parent
    s = np.empty(t.n, dtype=np.int8)
    s[0], s[1] = 0, 1
    for i in range(2, t.n):
        s[i] = s[parent[i]]
    return s


@st.composite
def _parent_arrays(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    return [-1] + [draw(st.integers(0, i - 1)) for i in range(1, n)]


# ----------------------------------------------------------- growth


def test_grow_records_arrival_and_model():
    t = grow("UA", 9, RngStream(1))
    assert t.n == 9
    assert t.parent[0] == -1  # vertex 0 arrived first and is the root
    np.testing.assert_array_equal(
        t.parent, grow("ua", 9, RngStream(1), seed=default_seed("ua")).parent)
    t = grow("pa", 9, RngStream(1))
    assert t.degree(0) + t.degree(1) >= 2


def test_default_seed():
    np.testing.assert_array_equal(default_seed("UA").parent, [-1])
    np.testing.assert_array_equal(default_seed("ua").parent, [-1])
    np.testing.assert_array_equal(default_seed("PA").parent, [-1, 0])
    with pytest.raises(ValueError, match="model must be one of"):
        default_seed("random")


def test_grow_ua_two_vertices():
    t = grow("ua", 2, RngStream(3))
    np.testing.assert_array_equal(t.parent, [-1, 0])
    np.testing.assert_array_equal(t.edges(), [[0, 1]])


@pytest.mark.parametrize("model", ["ua", "pa"])
@pytest.mark.parametrize("n", [2, 3, 17, 60])
def test_grow_parents_precede_children(model, n):
    parent = grow(model, n, RngStream(11 + n)).parent
    assert parent is not None
    assert all(parent[i] < i for i in range(default_seed(model).n, n))


def test_grow_custom_seed_preserved():
    seed = path(5)
    t = grow("pa", 5, RngStream(7), seed=seed)
    np.testing.assert_array_equal(np.sort(t.edges(), axis=1),
                                  np.sort(seed.edges(), axis=1))
    assert t.n == 5
    t = grow("pa", 40, RngStream(7), seed=star(6))
    assert t.degree(0) >= 5


def test_grow_validation():
    with pytest.raises(ValueError, match="n must be at least the seed size"):
        grow("ua", 2, RngStream(0), seed=path(3))
    with pytest.raises(ValueError, match="at least two vertices"):
        grow("pa", 5, RngStream(0), seed=Tree([-1]))
    with pytest.raises(ValueError, match="model must be one of"):
        grow("random", 5, RngStream(0))


def test_grow_deterministic():
    for model in ("ua", "pa"):
        a = grow(model, 300, RngStream(99)).parent
        b = grow(model, 300, RngStream(99)).parent
        np.testing.assert_array_equal(a, b)


def test_grow_pa_first_attachment_balanced():
    # from the seed edge both endpoints have degree 1, so vertex 2 picks
    # either side with probability 1/2
    runs = 400
    rng = RngStream(205)
    hits = sum(grow("pa", 3, rng.substream(r)).parent[2] == 0
               for r in range(runs))
    assert_prop_close(hits / runs, 0.5, runs)


def test_grow_pa_degree_bias():
    # star(4) seed: hub degree 3 of 6, so the next arrival hits it half
    # the time even though it is 1 of 4 vertices
    runs = 600
    rng = RngStream(206)
    hits = sum(grow("pa", 5, rng.substream(r), seed=star(4)).parent[4] == 0
               for r in range(runs))
    assert_prop_close(hits / runs, 0.5, runs)


# ----------------------------------------------------------- branch weights


def test_psi_component_sizes():
    t = Tree([-1, 0, 0, 2, 2, 2, 2, 2])
    assert psi(t, 0) == 6
    assert psi(t, 1) == 7
    assert psi(t, 2) == 2
    assert psi(t, 3) == 7
    assert psi(star(7), 0) == 1
    assert psi(star(7), 3) == 6
    assert psi(Tree([-1]), 0) == 0


def test_branch_weights_match_psi_examples():
    for t in (Tree([-1, 0, 0, 2, 2, 2, 2, 2]), star(9), path(9),
              Tree([-1]), path(2)):
        np.testing.assert_array_equal(branch_weights(t),
                                      [psi(t, v) for v in range(t.n)])


@pytest.mark.parametrize("model,n", [("ua", 2), ("ua", 23), ("pa", 40), ("pa", 3)])
def test_branch_weights_match_psi_grown(model, n):
    t = grow(model, n, RngStream(31 + n))
    np.testing.assert_array_equal(branch_weights(t),
                                  [psi(t, v) for v in range(n)])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_parent_arrays())
def test_branch_weights_match_psi_property(parents):
    t = Tree(parents)
    np.testing.assert_array_equal(branch_weights(t),
                                  [psi(t, v) for v in range(t.n)])


def test_centroid_examples():
    assert centroid(path(4)) == {1, 2}
    assert centroid(path(5)) == {2}
    assert centroid(star(6)) == {0}
    assert centroid(Tree([-1])) == {0}
    assert centroid(path(2)) == {0, 1}


def test_centroid_weight_bound():
    # the centroid never leaves a component larger than n/2 behind
    for r in range(20):
        model = "ua" if r % 2 else "pa"
        t = grow(model, 50 + r, RngStream(500 + r))
        assert branch_weights(t).min() <= t.n // 2


# ----------------------------------------------------------- confidence sets


def test_confidence_set_examples():
    assert root_confidence_set(path(5), 1).tolist() == [2]
    assert root_confidence_set(star(5), 3).tolist() == [0, 1, 2]
    conf = root_confidence_set(path(4), 10)
    assert conf.tolist() == [1, 2, 0, 3]
    assert 3 in conf and 4 not in conf
    assert conf.dtype == np.int64 and not conf.flags.writeable


def test_confidence_set_heads_are_centroid():
    for r in range(20):
        t = grow("ua" if r % 2 else "pa", 40 + r, RngStream(700 + r))
        c = centroid(t)
        conf = root_confidence_set(t, len(c))
        assert set(conf.tolist()) == c


def test_confidence_set_ordering():
    for r in range(10):
        t = grow("pa", 60, RngStream(800 + r))
        bw = branch_weights(t)
        conf = root_confidence_set(t, 15)
        picked = bw[conf]
        assert all(a <= b for a, b in zip(picked, picked[1:]))
        for (u, wu), (v, wv) in zip(zip(conf, picked),
                                    zip(conf[1:], picked[1:])):
            if wu == wv:
                assert u < v


def test_confidence_set_validation():
    with pytest.raises(ValueError, match="K must be at least 1"):
        root_confidence_set(path(4), 0)


def test_required_k_values():
    assert required_k("ua", 0.1) == 58
    assert required_k("ua", 0.05) == 150
    assert required_k("pa", 0.1) == 53019
    assert required_k("pa", 0.1, c=2.0) == 106038
    assert required_k("pa", 0.3) == 179
    assert required_k("ua", 0.1) == 58


def test_required_k_monotone():
    for model in ("ua", "pa"):
        ks = [required_k(model, eps) for eps in (0.4, 0.2, 0.1, 0.05, 0.02)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))


def test_required_k_validation():
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match="epsilon must lie in"):
            required_k("ua", eps)


def test_max_degree():
    md = max_degree(star(6))
    assert (md.vertex, md.degree) == (0, 5)
    md = max_degree(path(4))  # vertices 1 and 2 tie at degree 2
    assert (md.vertex, md.degree) == (1, 2)
    t = grow("pa", 30, RngStream(9))
    assert max_degree(t).degree == t.degrees().max()


# ----------------------------------------------------------- root-leaf law


def _leaf_chain(model, n):
    """P(vertex 0 never gains a child) by stepping its degree distribution
    one arrival at a time."""
    dist = {1: 1.0}
    for m in range(2, n):  # a tree of size m receives vertex m
        nxt = {}
        for d, p in dist.items():
            hit = 1.0 / m if model == "ua" else d / (2.0 * (m - 1))
            nxt[d + 1] = nxt.get(d + 1, 0.0) + p * hit
            nxt[d] = nxt.get(d, 0.0) + p * (1.0 - hit)
        dist = nxt
    return dist.get(1, 0.0)


def test_root_leaf_probability_closed_form():
    assert root_leaf_probability("ua", 10) == pytest.approx(1 / 9, rel=1e-12)
    assert root_leaf_probability("pa", 3) == pytest.approx(0.5, rel=1e-12)
    assert root_leaf_probability("pa", 4) == pytest.approx(0.375, rel=1e-12)
    with pytest.raises(ValueError, match="need n >= 2"):
        root_leaf_probability("ua", 1)


def test_root_leaf_probability_matches_chain():
    for model in ("ua", "pa"):
        for n in range(2, 13):
            assert root_leaf_probability(model, n) == pytest.approx(
                _leaf_chain(model, n), rel=1e-12)


def test_root_leaf_probability_empirical():
    runs = 3000
    rng = RngStream(4028)
    hits = sum(grow("ua", 10, rng.substream(r)).degree(0) <= 1
               for r in range(runs))
    assert_prop_close(hits / runs, root_leaf_probability("ua", 10), runs)
    hits = sum(grow("pa", 8, rng.substream(10000 + r)).degree(0) <= 1
               for r in range(runs))
    assert_prop_close(hits / runs, root_leaf_probability("pa", 8), runs)


# ----------------------------------------------------------- relabeling


def test_relabel_preserves_structure():
    for r in range(10):
        t = grow("pa", 25, RngStream(900 + r))
        relabeled, root = relabel_uniform(t, RngStream(1900 + r))
        assert sorted(relabeled.degrees()) == sorted(t.degrees())
        assert ahu_signature(relabeled) == ahu_signature(t)
        assert relabeled.degree(root) == t.degree(0)


def test_relabel_root_position_uniform():
    t = grow("ua", 3, RngStream(0), seed=path(3))
    runs = 900
    rng = RngStream(901)
    counts = np.zeros(3)
    for r in range(runs):
        _, root = relabel_uniform(t, rng.substream(r))
        counts[root] += 1
    for c in counts:
        assert_prop_close(c / runs, 1 / 3, runs)


def test_ahu_signature():
    assert ahu_signature(star(6)) != ahu_signature(path(6))
    assert ahu_signature(star(4)) != ahu_signature(path(4))
    rebuilt = Tree.from_edges(6, [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)])
    assert ahu_signature(rebuilt) == ahu_signature(path(6))
    assert ahu_signature(Tree([-1])) == "()"


# ----------------------------------------------------------- split laws


def test_ua_seed_edge_split_uniform():
    # grown from an edge, the side of the first endpoint is uniform on
    # {1, .., n-1}: each arrival is a classic two-color urn draw
    n, runs = 120, 800
    rng = RngStream(4021)
    s0 = np.empty(runs)
    for r in range(runs):
        t = grow("ua", n, rng.substream(r), seed=Tree([-1, 0]))
        s0[r] = (_sides(t) == 0).sum()
    ks = ks_distance_cdf(s0, lambda x: np.clip(np.floor(x) / (n - 1), 0.0, 1.0))
    assert ks < 0.07


def test_pa_side_degrees_follow_polya_law():
    # each attachment adds 2 to the chosen side's degree sum, so the count
    # of side-0 attachments is exactly beta-binomial(n-2, 1/2, 1/2); the
    # fraction tends to the arcsine law
    n, runs = 120, 1500
    m = n - 2
    rng = RngStream(4030)
    b = np.empty(runs, dtype=np.int64)
    for r in range(runs):
        t = grow("pa", n, rng.substream(r))
        d0 = t.degrees()[_sides(t) == 0].sum()
        assert d0 % 2 == 1
        b[r] = (d0 - 1) // 2
    pmf = stats.betabinom(m, 0.5, 0.5).pmf(np.arange(m + 1))
    edges, acc = [0], 0.0
    for k in range(m):
        acc += pmf[k]
        if acc * runs >= 25:
            edges.append(k + 1)
            acc = 0.0
    edges.append(m + 1)
    expected = np.add.reduceat(pmf, edges[:-1]) * runs
    observed = np.histogram(b, bins=edges)[0]
    _, p = stats.chisquare(observed, expected * observed.sum() / expected.sum())
    assert p > 1e-3


def test_pa_star_seed_keeps_hub():
    runs = 200
    rng = RngStream(4023)
    kept, deg_star, deg_path = 0, [], []
    for r in range(runs):
        md = max_degree(grow("pa", 400, rng.substream(r), seed=star(8)))
        kept += md.vertex == 0
        deg_star.append(md.degree)
        deg_path.append(max_degree(grow("pa", 400, rng.substream(1000 + r),
                                        seed=path(8))).degree)
    assert kept / runs >= 0.85
    deg_star, deg_path = np.array(deg_star), np.array(deg_path)
    se = math.hypot(deg_star.std(ddof=1), deg_path.std(ddof=1)) / math.sqrt(runs)
    assert deg_star.mean() - deg_path.mean() > 6 * se


# ----------------------------------------------------------- degree scaling


def test_degree_scaling_pa():
    report = fixed_vertex_degree_scaling([300, 900, 2700], 100, RngStream(4026))
    assert 0.4 < report.slope < 0.6
    assert len(report.mean_degree) == 3
    assert all(a < b for a, b in zip(report.mean_degree, report.mean_degree[1:]))


def test_degree_scaling_ua_is_flatter():
    # ua degrees grow logarithmically, so the log-log slope sits near
    # 1/ln(n) instead of 1/2
    report = fixed_vertex_degree_scaling([300, 900, 2700], 100,
                                         RngStream(4027), model="ua")
    assert 0.02 < report.slope < 0.3
    assert all(a < b for a, b in zip(report.mean_degree, report.mean_degree[1:]))


@pytest.mark.parametrize("model,seed", [("ua", 4027), ("pa", 4026)])
def test_degree_scaling_matches_loop_oracle(model, seed):
    got = fixed_vertex_degree_scaling([300, 900, 2700], 60, RngStream(seed),
                                      model=model)
    slope, means = oracles.loop_degree_scaling([300, 900, 2700], 60,
                                               RngStream(seed), model)
    assert got.slope == slope
    assert got.mean_degree == means


def test_degree_scaling_validation():
    with pytest.raises(ValueError, match="two strictly increasing sizes"):
        fixed_vertex_degree_scaling([100], 10, RngStream(0))
    with pytest.raises(ValueError, match="two strictly increasing sizes"):
        fixed_vertex_degree_scaling([100, 100], 10, RngStream(0))
    with pytest.raises(ValueError, match="runs must be positive"):
        fixed_vertex_degree_scaling([100, 200], 0, RngStream(0))
    with pytest.raises(ValueError, match="sizes must be at least the seed size"):
        fixed_vertex_degree_scaling([1, 2], 10, RngStream(0), model="pa")


# ----------------------------------------------------------- success rates


def test_root_finding_full_coverage():
    report = root_finding_success("ua", 30, 30, 50, RngStream(4))
    assert report.success_rate == 1.0
    assert report.se == 0.0


def test_root_finding_deterministic():
    a = root_finding_success("pa", 80, 10, 40, RngStream(41))
    b = root_finding_success("pa", 80, 10, 40, RngStream(41))
    assert a == b


def test_root_finding_rate_and_fields():
    report = root_finding_success("ua", 300, 58, 200, RngStream(4024))
    assert report.success_rate >= 0.9
    r = report.success_rate
    assert report.se == pytest.approx(math.sqrt(r * (1 - r) / 200))


def test_root_finding_either_endpoint_dominates_root():
    # same streams grow the same trees, and the seed edge is a superset
    # of the root alone
    by_root = root_finding_success("pa", 150, 20, 150, RngStream(4025))
    by_edge = root_finding_success("pa", 150, 20, 150, RngStream(4025),
                                   scoring="either_endpoint")
    assert by_edge.success_rate >= by_root.success_rate
    assert by_root.success_rate >= 0.8


def test_root_finding_validation():
    with pytest.raises(ValueError, match="replicas must be positive"):
        root_finding_success("ua", 10, 2, 0, RngStream(0))
    with pytest.raises(ValueError, match="unknown scoring mode"):
        root_finding_success("ua", 10, 2, 5, RngStream(0), scoring="center")
    with pytest.raises(ValueError, match="needs a seed edge"):
        root_finding_success("ua", 10, 2, 5, RngStream(0),
                             scoring="either_endpoint")


def test_star_path_validation():
    with pytest.raises(ValueError, match="need n >= 1"):
        star(0)
    with pytest.raises(ValueError, match="need n >= 1"):
        path(0)
    np.testing.assert_array_equal(path(1).degrees(), [0])


# ------------------------------------------- parent arrays vs the dense oracle

_SEEDS = {"default": None, "star:4": star(4), "path:4": path(4)}


def _seed_parts(seed):
    seed = seed if seed is not None else Tree([-1, 0])
    return seed.edges(), seed.n


@pytest.mark.parametrize("seed_name", list(_SEEDS))
@pytest.mark.parametrize("n", [4, 5, 6, 40, 3000])
def test_pa_pointer_jumping_matches_slot_loop(seed_name, n):
    seed = _SEEDS[seed_name]
    edges, n0 = _seed_parts(seed)
    for r in range(5):
        rng = RngStream(3100 + n, r)
        expect = oracles.loop_grow_parents("pa", n, edges, n0, rng)
        got = grow("pa", n, rng, seed=seed).parent[n0:]
        np.testing.assert_array_equal(got, expect)


def _relabeled_file_tree(tmp_path, t, r):
    """A grown tree under a random relabeling, written to and read back
    from an edge-list file, so parent[v] < v no longer holds."""
    relabeled, _ = relabel_uniform(t, RngStream(3300, r))
    path_ = tmp_path / f"tree{r}.txt"
    path_.write_text(serialize_edge_list(relabeled))
    g = parse_edge_list(path_.read_text())
    return Tree.from_edges(g.n, g.edges())


@pytest.mark.parametrize("model", ["ua", "pa"])
def test_branch_weights_and_max_degree_match_dense_oracle(model, tmp_path):
    for r, n in enumerate((1, 2, 3, 17, 250)):
        if model == "pa" and n < 2:
            continue
        grown = grow(model, n, RngStream(3200, r))
        for t in (grown, _relabeled_file_tree(tmp_path, grown, r)):
            adj = oracles.dense_adj(t.n, t.edges())
            np.testing.assert_array_equal(branch_weights(t),
                                          oracles.dense_branch_weights(adj))
            assert tuple(max_degree(t)) == oracles.dense_max_degree(adj)


@pytest.mark.parametrize("model,scoring,K", [("ua", "root", 1), ("ua", "root", 9),
                                             ("pa", "root", 4),
                                             ("pa", "either_endpoint", 4)])
def test_root_finding_success_matches_dense_oracle(model, scoring, K):
    n, replicas = 60, 40
    edges, n0 = _seed_parts(None if model == "pa" else Tree([-1]))
    rng = RngStream(3400, K)
    got = root_finding_success(model, n, K, replicas, rng, scoring=scoring)
    expect = oracles.dense_root_finding_rate(model, n, K, replicas, rng,
                                             edges, n0, scoring=scoring)
    assert got.success_rate == expect


def test_root_finding_from_file_seed_matches_dense_oracle(tmp_path):
    seed = _relabeled_file_tree(tmp_path, grow("pa", 9, RngStream(3500)), 0)
    rng = RngStream(3501)
    got = root_finding_success("pa", 50, 5, 40, rng, seed=seed,
                               scoring="either_endpoint")
    expect = oracles.dense_root_finding_rate("pa", 50, 5, 40, rng, seed.edges(),
                                             seed.n, scoring="either_endpoint")
    assert got.success_rate == expect


@pytest.mark.parametrize("model,seed,scoring", [
    ("ua", None, "root"), ("pa", None, "root"),
    ("pa", None, "either_endpoint"), ("ua", star(3), "either_endpoint")])
def test_root_ranks_match_dense_oracle(model, seed, scoring):
    n, replicas = 60, 40
    edges, n0 = _seed_parts(seed if seed is not None else default_seed(model))
    rng = RngStream(3600, n0)
    got = root_ranks(model, n, replicas, rng, scoring=scoring, seed=seed)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(
        got, oracles.dense_root_ranks(model, n, replicas, rng, edges, n0,
                                      scoring=scoring))


def test_root_ranks_from_file_seed_match_dense_oracle(tmp_path):
    seed = _relabeled_file_tree(tmp_path, grow("pa", 9, RngStream(3700)), 0)
    rng = RngStream(3701)
    got = root_ranks("pa", 50, 40, rng, scoring="either_endpoint", seed=seed)
    np.testing.assert_array_equal(
        got, oracles.dense_root_ranks("pa", 50, 40, rng, seed.edges(), seed.n,
                                      scoring="either_endpoint"))
