import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.special import betainc, betaincinv

from checks import assert_mean_close, assert_prop_close, assert_rel_close
from oracles import (chunked_gram, dense_adj, direct_tau, integer_signs,
                     loop_entries, loop_er_uniform, loop_sphere, loop_tau,
                     loop_triangles, loop_wishart)
from netinfer import geom
from netinfer.geom import (
    calibrate_tau,
    detect_geometry,
    estimate_dimension,
    h_map,
    rgg_from_points,
    sample_er,
    sample_rgg,
    sample_sphere,
    sample_wishart,
    signed_triangle_stat,
    sparse_triangle_experiment,
    threshold,
    tr_cubed,
    triangle_count,
    triangle_moments_er,
    _bartlett_stack,
    _dense_rgg,
    _er_stack,
    _rgg_circle,
    _rgg_stack,
    _signs,
    _sphere_stack,
    _tau,
    _triangles,
    _wishart_stack,
)
from netinfer.graphcore import (DenseSizeError, Graph, RngStream,
                                SubstreamGenerators, Tree, _linear_to_pair,
                                bernoulli_pairs, bernoulli_positions,
                                prefers_dense)
from netinfer.harness import ks_distance, ks_distance_cdf, replicate

# ------------------------------------------------------------- sphere


def test_sphere_points_are_unit_norm():
    pts = sample_sphere(500, 7, RngStream(1, 0))
    norms = np.linalg.norm(pts, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12
    assert pts.shape == (500, 7)
    assert pts.dtype == np.float64 and not pts.flags.writeable


def test_sphere_d3_first_coordinate_uniform():
    # on S^2 each coordinate is uniform on [-1, 1]
    pts = sample_sphere(100_000, 3, RngStream(2, 0))
    x = pts[:, 0]
    d = ks_distance_cdf(x, lambda v: np.clip((v + 1.0) / 2.0, 0.0, 1.0))
    assert d < 0.01


def test_sphere_high_dim_inner_products():
    d = 100
    pts = sample_sphere(20_000, d, RngStream(3, 0))
    prods = (pts[0::2] * pts[1::2]).sum(axis=1)  # 10^4 pairs
    assert_mean_close(prods, 0.0)
    assert_rel_close(prods.var(ddof=1), 1.0 / d, 0.08)


def test_sphere_validation():
    with pytest.raises(ValueError, match="dimension"):
        sample_sphere(5, 1, RngStream(0, 0))
    with pytest.raises(ValueError, match="positive"):
        sample_sphere(0, 3, RngStream(0, 0))


class _Zeroed:
    """A Philox generator whose first `times` standard normal draws have
    their entries at `index` set to zero."""

    def __init__(self, seed, index, times):
        self._gen = np.random.Generator(np.random.Philox(seed))
        self._index, self._times = index, times

    def standard_normal(self, size=None, out=None):
        x = self._gen.standard_normal(size, out=out)
        if self._times > 0:
            x[self._index] = 0.0
            self._times -= 1
        return x


@pytest.mark.parametrize("index,times", [((1,), 1), ((0,), 2), ((2, 1), 1)],
                         ids=["zero-row", "zero-row-twice", "zero-entry"])
def test_sphere_stack_draws_zero_rows_again(index, times):
    # only the stubbed replica fails the all-squares-positive screen; it
    # takes the redraw loop (a zero entry alone redraws nothing), and every
    # replica keeps the bits of the one-replica loop
    def gens():
        return (np.random.Generator(np.random.Philox(7)),
                _Zeroed(8, index, times),
                np.random.Generator(np.random.Philox(9)))
    X = _sphere_stack(5, 3, gens())
    for x, gen in zip(X, gens()):
        assert x.tobytes() == loop_sphere(5, 3, gen).tobytes()


def test_n_by_d_draws_are_refused_before_allocation():
    with pytest.raises(DenseSizeError, match="dense 100000 x 100000 array"):
        sample_sphere(10**5, 10**5, RngStream(0, 0))


# ---------------------------------------------------------- threshold


def test_threshold_half_is_zero():
    for d in (2, 3, 10, 500):
        assert abs(threshold(0.5, d)) <= 1e-12


def test_threshold_d3_closed_form():
    # on S^2 the cap measure is linear in t: t_{p,3} = 1 - 2p
    for p in (0.1, 0.25, 0.6, 0.9):
        assert abs(threshold(p, 3) - (1.0 - 2.0 * p)) <= 1e-9


def test_threshold_decreasing_in_p():
    ts = [threshold(p, 6) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(a > b for a, b in zip(ts, ts[1:]))


def test_threshold_defining_equation():
    # P(<X1,X2> >= t) integrates the (1-x^2)^((d-3)/2) density
    for d in (3, 5, 10, 40):
        for p in (0.1, 0.5, 0.73):
            t = threshold(p, d)
            dens = lambda x: (1.0 - x * x) ** ((d - 3) / 2.0)
            upper, _ = integrate.quad(dens, t, 1.0)
            total, _ = integrate.quad(dens, -1.0, 1.0)
            assert abs(upper / total - p) <= 1e-9


def test_threshold_d2_beta_inverse():
    for p in (0.2, 0.5, 0.8):
        ref = 2.0 * betaincinv(0.5, 0.5, 1.0 - p) - 1.0
        assert abs(threshold(p, 2) - ref) <= 1e-9


def test_threshold_validation():
    with pytest.raises(ValueError):
        threshold(0.0, 3)
    with pytest.raises(ValueError):
        threshold(1.0, 3)
    with pytest.raises(ValueError):
        threshold(0.5, 1)


def test_threshold_closed_form_attains_p():
    # the attained probability of the closed form, far into both tails
    # and out to d = 1e8
    for d in (2, 3, 4, 7, 64, 2048, 16384, 40960, 10**6, 10**8):
        a = (d - 1) / 2.0
        for p in (1e-6, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0 - 1e-6):
            t = threshold(p, d)
            assert abs(1.0 - betainc(a, a, (1.0 + t) / 2.0) - p) <= 1e-10


# ------------------------------------------------------------- graphs


def test_sample_er_extreme_p():
    assert sample_er(50, 1.0, RngStream(4, 0)).m == 50 * 49 // 2
    assert sample_er(50, 0.0, RngStream(4, 0)).m == 0


def test_sample_er_edge_count():
    n, p, reps = 40, 0.3, 300
    total = sum(sample_er(n, p, RngStream(5, i)).m for i in range(reps))
    pairs = reps * n * (n - 1) // 2
    assert_prop_close(total / pairs, p, pairs)


def test_sample_er_deterministic():
    a = sample_er(100, 0.2, RngStream(6, 3))
    b = sample_er(100, 0.2, RngStream(6, 3))
    assert (a.to_dense() == b.to_dense()).all()


def test_sample_er_sparse_path_matches_law():
    # n > 4096 goes through geometric skipping instead of a dense mask
    g = sample_er(5000, 6e-4, RngStream(7, 0))
    total = 5000 * 4999 // 2
    mean, sd = total * 6e-4, math.sqrt(total * 6e-4 * (1 - 6e-4))
    assert abs(g.m - mean) <= 3 * sd
    assert sample_er(5000, 0.0, RngStream(7, 1)).m == 0


def test_sample_er_sparse_p_one_is_complete():
    g = sample_er(4200, 1.0, RngStream(7, 2))
    assert g.m == 4200 * 4199 // 2


@pytest.mark.parametrize("p", [1e-18, 1e-300])
def test_skip_positions_stay_in_range_at_tiny_p(p):
    """Gaps of order 1/p are past any int64 sum; the walk ends at the first
    one that passes the last slot instead of wrapping."""
    for total in (1, 1000, 10**9, 10**18, (1 << 63) - 1):
        for seed in range(5):
            pos = bernoulli_positions(total, p, np.random.default_rng(seed))
            assert pos.dtype == np.int64
            assert ((pos >= 0) & (pos < total)).all(), (total, seed, pos)


def test_skip_positions_refuse_totals_past_int64():
    with pytest.raises(ValueError, match="2\\^63 - 1"):
        bernoulli_positions(1 << 63, 0.5, np.random.default_rng(0))


def test_sample_er_at_tiny_p():
    assert [sample_er(1000, 1e-18, RngStream(s)).m for s in range(5)] == [0] * 5
    n = 10**9  # about 0.5 edges expected
    for s in range(5):
        e = sample_er(n, 1e-18, RngStream(s)).edges()
        assert ((e >= 0) & (e < n)).all() and (e[:, 0] < e[:, 1]).all()


def test_rgg_density_matches_p():
    n, p, d, reps = 100, 0.3, 10, 200
    pairs = n * (n - 1) // 2
    dens = [sample_rgg(n, p, d, RngStream(8, i)).m / pairs for i in range(reps)]
    assert_mean_close(dens, p)


def test_rgg_deterministic():
    a = sample_rgg(64, 0.4, 3, RngStream(9, 5))
    b = sample_rgg(64, 0.4, 3, RngStream(9, 5))
    assert (a.to_dense() == b.to_dense()).all()


def test_rgg_near_one_p_is_nearly_complete():
    g = sample_rgg(50, 0.999999, 4, RngStream(10, 0))
    assert g.m == 50 * 49 // 2


def test_rgg_circle_path_matches_dense_rule():
    pts = sample_sphere(4200, 2, RngStream(11, 0))
    g = rgg_from_points(pts, 0.3)  # 2.6e6 expected edges: dense Gram path
    t = threshold(0.3, 2)
    gram = pts @ pts.T
    adj = np.triu(gram >= t, 1)
    assert (g.to_dense() == (adj | adj.T)).all()


def test_rgg_circle_helper_direct():
    pts = sample_sphere(300, 2, RngStream(12, 0))
    t = threshold(0.25, 2)
    g = _rgg_circle(pts, t)
    gram = pts @ pts.T
    adj = np.triu(gram >= t, 1)
    assert (g.to_dense() == (adj | adj.T)).all()


@pytest.mark.parametrize("n,p,seed", [(10_000, 5e-4, 14), (300, 0.25, 15),
                                      (5, 1e-4, 16)])
def test_rgg_circle_edges_are_what_from_edges_builds(n, p, seed):
    # the trusted pair constructor sorts the window pairs as the checked
    # one would, down to the last byte, and the empty graph included
    g = _rgg_circle(sample_sphere(n, 2, RngStream(seed)), threshold(p, 2))
    built = Graph.from_edges(n, g.edges())
    assert g.edges().dtype == np.int64 and g.edges().shape == (g.m, 2)
    assert g.edges().tobytes() == built.edges().tobytes()
    assert (g.m == 0) == (n == 5)


@pytest.fixture
def chunk_calls(monkeypatch):
    """The calls made to geom._edges_by_chunks while the test runs."""
    calls = []
    chunked = geom._edges_by_chunks

    def spy(*args):
        calls.append(args)
        return chunked(*args)
    monkeypatch.setattr(geom, "_edges_by_chunks", spy)
    return calls


@pytest.mark.parametrize("d", [3, 513, 4096])
def test_screened_gram_gives_the_float64_edges(d, chunk_calls):
    """At n = 3000 (five row chunks) the float32-screened Gram products
    give exactly the edges of the float64 Gram rule.  Beside the float32
    points they hold one chunk and at most 4 MiB of gathered rows (about
    1300 pairs are gathered at d = 4096)."""
    n, p = 3000, 4 / 3000
    pts = sample_sphere(n, d, RngStream(47, d))
    tracemalloc.start()
    try:
        g = rgg_from_points(pts, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pts.nbytes / 2 + 16 * 2 ** 20
    assert len(chunk_calls) == 1
    u, v = np.nonzero(np.triu(pts @ pts.T >= threshold(p, d), 1))
    np.testing.assert_array_equal(g.edges(), np.column_stack((u, v)))


@pytest.mark.parametrize("pad", [0, 92], ids=["wide-margin", "screened"])
def test_screened_gram_decides_the_margin_in_float64(pad, chunk_calls):
    """Inner products within the float32 margin delta of t: those in
    (t - delta, t) give no edge, those in [t, t + delta) give one.  With
    8 rows the 7 pairs in the margin are more than 1/512 of the 64 Gram
    entries, so the chunk is multiplied again in float64; with 92 more
    rows orthogonal to all others they are computed again pair by pair."""
    d, p = 513, 4 / 3000
    t = threshold(p, d)
    delta = 2 * (d + 2) * 2.0 ** -24
    below = [t - 0.999 * delta, t - delta / 2, np.nextafter(t, -1.0)]
    above = [t, np.nextafter(t, 2.0), t + delta / 2, t + 0.999 * delta]
    # row 0 is e_0; row a is c_a e_0 + sqrt(1 - c_a^2) e_a, so the float64
    # inner product of rows 0 and a is exactly c_a, and c_a c_b < t; the
    # padding rows are the next unit vectors
    X = np.zeros((1 + len(below) + len(above) + pad, d))
    X[len(X) - pad:, len(X) - pad:len(X)] = np.eye(pad)
    X[0, 0] = 1.0
    for a, c in enumerate(below + above, start=1):
        X[a, 0], X[a, a] = c, math.sqrt(1.0 - c * c)
    g = rgg_from_points(X, p)
    assert len(chunk_calls) == 1
    assert g.edges().tolist() == [[0, a] for a in range(len(below) + 1,
                                                        len(X) - pad)]
    assert (g.to_dense() == _dense_rgg(X @ X.T, t)).all()


def test_screened_gram_without_edges():
    g = rgg_from_points(np.eye(100, 513), 4 / 3000)
    assert g.m == 0
    assert g.edges().shape == (0, 2) and g.edges().dtype == np.int64


def test_screened_gram_memory_peak():
    """The screen holds one float32 chunk, its boolean mask and the
    float32 points; float64 rows are gathered 4 MiB at a time."""
    pts = sample_sphere(3000, 513, RngStream(48))
    tracemalloc.start()
    try:
        rgg_from_points(pts, 4 / 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2 ** 20


@pytest.mark.parametrize("p", [0.02, 0.002])
def test_gram_at_large_dimension_stays_in_float64(p, chunk_calls):
    """At n = 200 and d = 20000 the margin 2(d + 2) 2^-24 is a third of
    the spread 1/sqrt(d) of the inner products, so the products stay
    float64: the edges are those of the float64 Gram rule, with no float32
    copy of the points and no gathered rows."""
    n, d = 200, 20000
    pts = sample_sphere(n, d, RngStream(50))
    tracemalloc.start()
    try:
        g = rgg_from_points(pts, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chunk_calls) == 1
    u, v = np.nonzero(np.triu(pts @ pts.T >= threshold(p, d), 1))
    np.testing.assert_array_equal(g.edges(), np.column_stack((u, v)))
    assert peak <= pts.nbytes / 16


def test_linear_to_pair_exhaustive():
    for n in (2, 3, 5, 17):
        k = np.arange(n * (n - 1) // 2)
        expect = [i * n + j for i, j in itertools.combinations(range(n), 2)]
        assert _linear_to_pair(k, n).tolist() == expect


# ---------------------------------------------------------- triangles


def _count_cubic(g: Graph) -> int:
    adj = g.to_dense()
    total = 0
    for i, j, k in itertools.combinations(range(g.n), 3):
        if adj[i, j] and adj[j, k] and adj[i, k]:
            total += 1
    return total


def _count_popcount(g: Graph) -> int:
    rows = [int("".join("1" if b else "0" for b in row[::-1]), 2) if row.any() else 0
            for row in g.to_dense()]
    total = 0
    for u, v in g.edges():
        total += (rows[u] & rows[v]).bit_count()
    return total // 3


def test_triangle_count_examples():
    k4 = Graph.from_edges(4, [(i, j) for i, j in itertools.combinations(range(4), 2)])
    assert triangle_count(k4) == 4
    star = Tree([-1] + [0] * 8)
    path = Tree([-1, 0, 1, 2, 3, 4, 5])
    assert triangle_count(star) == 0
    assert triangle_count(path) == 0


def test_triangle_count_three_routes_agree():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(3, 31))
        adj = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.9), 1)
        g = Graph(adj | adj.T)
        t = triangle_count(g)
        assert t == _count_cubic(g)
        assert t == _count_popcount(g)


def test_triangle_count_sparse_path_matches_dense_product():
    g = sample_er(2100, 0.003, RngStream(13, 0))  # ~6600 edges: sparse route
    a = g.to_dense().astype(np.float64)
    dense = int(round(((a @ a) * a).sum() / 6.0))
    assert triangle_count(g) == dense


def _dense_triangles_and_rows(adj: np.ndarray):
    """Triangle count from the common neighbours of each edge's dense rows,
    and the compressed rows read off the matrix."""
    u, v = np.nonzero(adj)
    u, v = u[u < v], v[u < v]
    common = 0
    for b in range(0, len(u), 1024):
        common += int(np.count_nonzero(adj[u[b:b + 1024]] & adj[v[b:b + 1024]]))
    indptr = np.concatenate(([0], np.cumsum(adj.sum(axis=1))))
    return common // 3, indptr, np.nonzero(adj)[1]


@pytest.mark.parametrize("build", [
    lambda: Graph.from_edges(100, [(2, 3), (0, 2), (1, 3), (0, 1), (1, 2),
                                   (97, 98)]),
    lambda: Graph.from_edges(50, []),
    lambda: sample_er(10_000, 5e-4, RngStream(49, 0)),
    lambda: sample_rgg(10_000, 5e-4, 2, RngStream(49, 2)),
    lambda: sample_rgg(10_000, 5e-4, 3, RngStream(49, 3)),
], ids=["isolated-last-vertex", "no-edges", "er-1e4", "rgg-d2-1e4",
        "rgg-d3-1e4"])
def test_edge_store_triangles_and_rows_match_dense_oracle(build):
    g = build()
    assert not prefers_dense(g.n, g.m)  # the sparse triangle count runs
    triangles, indptr, indices = _dense_triangles_and_rows(g.to_dense())
    assert triangle_count(g) == triangles
    np.testing.assert_array_equal(g.csr()[0], indptr)
    np.testing.assert_array_equal(g.csr()[1], indices)


def test_signed_triangle_examples():
    tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    empty = Graph.from_edges(3, [])
    assert signed_triangle_stat(tri, 0.5) == pytest.approx(0.125)
    assert signed_triangle_stat(empty, 0.5) == pytest.approx(-0.125)
    with pytest.raises(ValueError):
        signed_triangle_stat(tri, 0.0)


def test_signed_triangle_permutation_invariant():
    g = sample_er(25, 0.4, RngStream(14, 0))
    base = signed_triangle_stat(g, 0.4)
    rng = np.random.default_rng(15)
    for _ in range(20):
        perm = rng.permutation(25)
        h = Graph(g.to_dense()[np.ix_(perm, perm)])
        assert abs(signed_triangle_stat(h, 0.4) - base) <= 1e-8


def _exact_tau(adj, p):
    """Tr(B^3)/6 in exact rationals, B = A - p(J - I) at the float p."""
    q = Fraction(p)
    B = np.array([[Fraction(int(x)) - q if i != j else Fraction(0)
                   for j, x in enumerate(row)] for i, row in enumerate(adj)],
                 dtype=object)
    return ((B @ B) * B).sum() / 6


@pytest.mark.parametrize("p", [0.5, 0.3, 1 / 3, 0.9, 1e-3])
def test_tau_from_counts_is_within_its_rounding_bound(p):
    # the bound of geom._tau_from_counts: g_6 (1 + p)^3 C(n, 3) with
    # g_6 = 6u / (1 - 6u), u = 2^-53; exact at p = 1/2
    u = Fraction(1, 2 ** 53)
    gamma6 = 6 * u / (1 - 6 * u)
    rng = np.random.default_rng(41)
    for n in range(3, 11):
        pairs = list(itertools.combinations(range(n), 2))
        for density in (0.0, 0.2, 0.5, 0.8, 1.0):
            keep = rng.random(len(pairs)) < density
            adj = dense_adj(n, [e for e, k in zip(pairs, keep) if k])
            exact = _exact_tau(adj, p)
            tau = signed_triangle_stat(Graph(adj), p)
            assert _tau(adj[None], p).tobytes() == np.float64(tau).tobytes()
            bound = gamma6 * (1 + Fraction(p)) ** 3 * math.comb(n, 3)
            assert abs(Fraction(tau) - exact) <= bound, (n, density)
            if p == 0.5:
                assert Fraction(tau) == exact


def _half_stacks(n, gens):
    """Dense stacks at p = 1/2: G(n, 1/2), G(n, 1/2, 2) from sphere points,
    G(n, 1/2, 2n) by Bartlett, and h_map of Wishart and shifted GOE."""
    yield _er_stack(n, 0.5, gens)
    yield _rgg_stack(n, 0.5, 2, gens)
    yield _rgg_stack(n, 0.5, 2 * n, gens)
    yield _signs(_wishart_stack(n, 2 * n, "gaussian", "wishart", gens))
    yield _signs(_wishart_stack(n, 2 * n, "gaussian", "goe_shifted", gens))


@pytest.mark.parametrize("n", [3, 7, 16, 33, 64])
def test_tau_at_half_equals_the_direct_product(n):
    gens = SubstreamGenerators(RngStream(42, n), 0, 12)
    for adj in _half_stacks(n, gens):
        expect = np.array([direct_tau(a, 0.5) for a in adj])
        assert _tau(adj, 0.5).tobytes() == expect.tobytes()
        assert signed_triangle_stat(Graph(adj[0]), 0.5) == expect[0]


@pytest.mark.parametrize("p", [0.5, 0.3])
@pytest.mark.parametrize("n,q,d", [(40, 0.3, None), (300, 0.01, None),
                                   (300, 0.01, 2), (2000, 0.002, 5)])
def test_tau_is_the_same_on_both_stores(n, q, d, p):
    # the graph built from the edges, the one built from its matrix and the
    # stacked dense kernel (float32 triangle product) give the same bits
    rng = RngStream(43, n)
    g = sample_er(n, q, rng) if d is None else sample_rgg(n, q, d, rng)
    edge_built = Graph.from_edges(n, g.edges())
    dense = Graph(g.to_dense())
    assert edge_built.edges().tobytes() == dense.edges().tobytes()
    tau = signed_triangle_stat(edge_built, p)
    assert signed_triangle_stat(dense, p) == tau
    assert _tau(dense.to_dense(), p) == tau


def test_tau_on_the_edge_store_allocates_no_dense_matrix():
    # n = 20000: an n x n float64 matrix is 3.2 GB, a boolean one 400 MB
    g = sample_er(20_000, 2e-4, RngStream(44))
    assert not prefers_dense(g.n, g.m)
    tracemalloc.start()
    try:
        tau = signed_triangle_stat(g, 2e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(tau)
    assert peak < 16 << 20, peak


def test_triangle_moments_er_closed_form():
    assert triangle_moments_er(30, 1.0) == (4060.0, 0.0)
    assert triangle_moments_er(30, 0.0) == (0.0, 0.0)
    m = triangle_moments_er(30, 0.5)
    assert m.mean == pytest.approx(507.5)
    assert m.variance == pytest.approx(5582.5)


def test_triangle_moments_er_exact_enumeration():
    # full enumeration over all 2^C(n,2) graphs pins mean and variance
    for n, p in [(4, 0.5), (4, 0.3), (5, 0.5)]:
        pairs = list(itertools.combinations(range(n), 2))
        triples = list(itertools.combinations(range(n), 3))
        et = et2 = 0.0
        for bits in itertools.product([0, 1], repeat=len(pairs)):
            prob = math.prod(p if b else 1 - p for b in bits)
            present = {pr for pr, b in zip(pairs, bits) if b}
            t = sum(1 for a, b, c in triples
                    if (a, b) in present and (b, c) in present
                    and (a, c) in present)
            et += prob * t
            et2 += prob * t * t
        m = triangle_moments_er(n, p)
        assert m.mean == pytest.approx(et, abs=1e-12)
        assert m.variance == pytest.approx(et2 - et ** 2, abs=1e-12)


def test_triangle_moments_short_monte_carlo():
    # light version; the acceptance suite runs the full-length one
    n, p, reps = 30, 0.5, 3000
    counts = np.array([triangle_count(sample_er(n, p, RngStream(16, i)))
                       for i in range(reps)], dtype=float)
    m = triangle_moments_er(n, p)
    assert_mean_close(counts, m.mean)
    assert_rel_close(counts.var(ddof=1), m.variance, 0.1)


# ------------------------------------------------------------ ensembles


def test_wishart_shapes_and_symmetry():
    for kind in ("wishart", "goe_shifted", "wishart_scaled_nodiag", "goe_nodiag"):
        w = sample_wishart(12, 30, kind=kind, rng=RngStream(17, 0))
        assert w.shape == (12, 12)
        assert (w == w.T).all()
        assert w.dtype == np.float64 and not w.flags.writeable


def test_wishart_positive_semidefinite():
    for i in range(100):
        w = sample_wishart(10, 20, rng=RngStream(18, i))
        assert np.linalg.eigvalsh(w).min() >= -1e-9


def test_wishart_scaled_offdiag_moments():
    vals = []
    for i in range(30):
        w = sample_wishart(20, 10_000, kind="wishart_scaled_nodiag",
                           rng=RngStream(19, i))
        assert (np.diag(w) == 0.0).all()
        iu = np.triu_indices(20, 1)
        vals.append(w[iu])
    vals = np.concatenate(vals)
    assert_mean_close(vals, 0.0)
    assert_rel_close(vals.var(ddof=1), 1.0, 0.08)


def test_goe_shifted_diagonal_centered_at_d():
    d = 400
    diags = np.concatenate([
        np.diag(sample_wishart(25, d, kind="goe_shifted",
                               rng=RngStream(20, i)))
        for i in range(200)])
    assert_mean_close(diags, float(d))
    assert_rel_close(diags.var(ddof=1), 2.0 * d, 0.1)


@pytest.mark.parametrize("kind", ["goe_shifted", "goe_nodiag"])
def test_goe_stack_holds_no_block_sized_temporaries(kind):
    """A GOE block is drawn, symmetrized and shifted in place: besides the
    block itself it holds at most the copy that numpy makes for the
    overlapping M + M^T (a 64-replica block at n = 32)."""
    gens = SubstreamGenerators(RngStream(23), 0, 64)
    tracemalloc.start()
    try:
        W = _wishart_stack(32, 64, "gaussian", kind, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert W.shape == (64, 32, 32)
    assert peak <= 2.5 * W.nbytes


def test_entry_distributions():
    w = sample_wishart(80, 1, kind="goe_nodiag", entry_dist="rademacher",
                       rng=RngStream(21, 0))
    off = w[np.triu_indices(80, 1)]
    assert set(np.unique(off)) <= {-1.0, 1.0}
    w = sample_wishart(80, 1, kind="goe_nodiag", entry_dist="uniform-scaled",
                       rng=RngStream(21, 1))
    off = w[np.triu_indices(80, 1)]
    assert np.abs(off).max() <= math.sqrt(3.0) + 1e-12
    assert_rel_close(off.var(ddof=1), 1.0, 0.1)


def test_wishart_validation():
    with pytest.raises(ValueError, match="rng stream is required"):
        sample_wishart(4, 4)
    with pytest.raises(ValueError, match="kind"):
        sample_wishart(4, 4, kind="laplace", rng=RngStream(0, 0))
    with pytest.raises(ValueError):
        sample_wishart(4, 4, entry_dist="cauchy", rng=RngStream(0, 0))
    with pytest.raises(ValueError):
        sample_wishart(0, 4, rng=RngStream(0, 0))


def test_tr_cubed_values():
    assert tr_cubed(np.zeros((3, 3))) == 0.0
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert tr_cubed(swap) == 0.0
    ones = np.ones((2, 2))
    assert tr_cubed(ones) == pytest.approx(8.0)  # A^3 = 4A
    rng = np.random.default_rng(22)
    a = rng.normal(size=(6, 6))
    a = a + a.T
    assert tr_cubed(a) == pytest.approx(np.trace(a @ a @ a))


def test_tr_cubed_scaled_wishart_mean():
    # E[Tr(W^3)] = n(n-1)(n-2)/sqrt(d) for the scaled off-diagonal ensemble,
    # for every unit-variance entry law (only second moments enter)
    n, d, reps = 10, 50, 400
    expect = n * (n - 1) * (n - 2) / math.sqrt(d)
    for dist in ("gaussian", "uniform-scaled", "rademacher"):
        vals = [tr_cubed(sample_wishart(n, d, entry_dist=dist,
                                        kind="wishart_scaled_nodiag",
                                        rng=RngStream(23, i)))
                for i in range(reps)]
        assert_mean_close(vals, expect)


def test_tr_cubed_goe_mean_zero():
    vals = [tr_cubed(sample_wishart(16, 1, kind="goe_nodiag",
                                    rng=RngStream(24, i)))
            for i in range(400)]
    assert_mean_close(vals, 0.0)


# ------------------------------------------- Bartlett vs direct draws

# two-sample KS critical value at alpha = 1e-3 for R samples per arm
_R = 2000
_KS_CRIT = math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2.0 / _R)


@pytest.mark.parametrize("n,d", [(16, 64), (32, 64), (16, 40960)])
def test_bartlett_path_matches_direct_law(n, d):
    """Bartlett-drawn sphere graphs and Wishart matrices have the laws of
    the direct n x d draws: tau and edge count of G(n, 1/2, d), two
    off-diagonal entries of W(n, d) and tr(A^3) of the scaled ensemble."""
    base = RngStream(40, 0)

    def stats(g, W, A):
        return (signed_triangle_stat(g, 0.5), g.m, W[0, 1], W[n - 2, n - 1],
                tr_cubed(A))

    fast = []
    for i in range(_R):
        s = base.substream(i)
        fast.append(stats(sample_rgg(n, 0.5, d, s),
                          sample_wishart(n, d, rng=s),
                          sample_wishart(n, d, kind="wishart_scaled_nodiag",
                                         rng=s)))
    first = base.substream(_R)

    def direct(s):
        Y = s.generator().standard_normal((n, d))
        W = Y @ Y.T
        A = W - np.diag(np.diag(W))
        # the points sample_sphere(n, d, s) draws, from the same Y
        points = Y / np.linalg.norm(Y, axis=1, keepdims=True)
        if s == first:
            assert (points == sample_sphere(n, d, s)).all()
        return stats(rgg_from_points(points, 0.5), W, A / math.sqrt(d))
    fast = np.array(fast)
    direct = replicate(direct, _R, first, jobs=2)
    for k in range(fast.shape[1]):
        assert ks_distance(fast[:, k], direct[:, k]) < _KS_CRIT, k


def _direct_wishart(n, d, entry_dist, gen):
    """W(n, d) from one n x d draw of the entries; Rademacher entries from
    the former integer draw, the reference for the law of the coins."""
    if entry_dist == "rademacher":
        Y = integer_signs(gen, (n, d))
        return Y @ Y.T
    return loop_wishart(n, d, entry_dist, "wishart", gen)


def _assert_entry_law(n, d, entry_dist, base):
    """sample_wishart on substreams 0.._R-1 of base against _direct_wishart
    on the next _R: two-sample KS at alpha = 1e-3 of two off-diagonal
    entries of W(n, d), tr(A^3) of the scaled ensemble and tau of h_map(W).
    """
    def stats(W):
        A = W - np.diag(np.diag(W))
        return (W[0, 1], W[n - 2, n - 1], tr_cubed(A / math.sqrt(d)),
                signed_triangle_stat(h_map(W), 0.5))

    def drawn(s):
        W = sample_wishart(n, d, entry_dist=entry_dist, rng=s)
        A = sample_wishart(n, d, entry_dist=entry_dist,
                           kind="wishart_scaled_nodiag", rng=s)
        assert (A == (W - np.diag(np.diag(W))) / math.sqrt(d)).all()
        return stats(W)

    # the chunk layout, or the coins, put other numbers on the entries
    s = base.substream(0)
    assert (sample_wishart(n, d, entry_dist=entry_dist, rng=s)
            != _direct_wishart(n, d, entry_dist, s.generator())).any()
    fast = replicate(drawn, _R, base)
    slow = replicate(lambda s: stats(_direct_wishart(n, d, entry_dist,
                                                     s.generator())),
                     _R, base.substream(_R))
    for k in range(fast.shape[1]):
        assert ks_distance(fast[:, k], slow[:, k]) < _KS_CRIT, k


@pytest.mark.parametrize("entry_dist", ["uniform-scaled", "rademacher"])
@pytest.mark.parametrize("full,extra", [(1, 17), (3, 0)], ids=["c+17", "3c"])
def test_chunked_entry_gram_matches_direct_law(monkeypatch, entry_dist, full,
                                               extra):
    """Wishart matrices summed over column chunks of the entry matrix have
    the law of the one-array direct draw, at d = c + 17 (a partial last
    chunk) and d = 3c (_assert_entry_law).  The chunk cap is cut to
    c = 256 columns at n = 16 to keep d small: 8 n c bytes of uniform
    entries, or 4 words a row of packed Rademacher coins."""
    n, c = 16, 256
    packed = 64 if entry_dist == "rademacher" else 1
    monkeypatch.setattr(geom, "_CHUNK_BYTES", 8 * n * c // packed)
    d = full * c + extra
    _assert_entry_law(n, d, entry_dist, RngStream(45, d))


@pytest.mark.parametrize("d", [40, 4096])
def test_rademacher_coins_match_the_integer_draw_law(d):
    """Rademacher Wishart matrices from fair coins, in one chunk, have the
    law of the former integer draw (_assert_entry_law): d = 40 is part of
    one word a row, d = 4096 is 64 whole words."""
    _assert_entry_law(16, d, "rademacher", RngStream(49, d))


_CHUNKED = [(16, 273, 8 * 16 * 256), (16, 768, 8 * 16 * 256),
            (32, 10000, None)]


@pytest.mark.parametrize("n,d,cap,entry_dist", [
    *((n, d, cap, "uniform-scaled") for n, d, cap in _CHUNKED),
    (16, 17, 8 * 16 * 4, "uniform-scaled"),
    *((n, d, cap, "rademacher") for n, d, cap in _CHUNKED),
    (16, 150, 8 * 16 * 4, "rademacher"),
    (1, 100, 8, "uniform-scaled"), (1, 100, 8, "rademacher")])
def test_entry_gram_sums_its_column_chunks(monkeypatch, entry_dist, n, d, cap):
    """Each chunk is max(n, cap // 8n) columns, the last one partial, drawn
    in order from the replica's generator as a fresh array, and its Gram
    product is added.  (Gaussian entries are chunked only for d < n, which
    is always one chunk.)

    A Rademacher chunk is packed, 64 coins a word: its cap is cut to
    cap / 64, which leaves 64 max(1, cap // 512n) columns, and its Gram
    matrix is counted from the words, d - 2 popcount(y_i xor y_j).  The
    float Gram of the signs unpacked from the same words is the same
    integers, with the coins past each chunk's last column not counted."""
    if entry_dist == "rademacher":
        monkeypatch.setattr(geom, "_CHUNK_BYTES",
                            (cap or geom._CHUNK_BYTES) // 64)
        width = 64 * max(1, geom._CHUNK_BYTES // (8 * n))
    else:
        if cap is not None:
            monkeypatch.setattr(geom, "_CHUNK_BYTES", cap)
        width = max(n, geom._CHUNK_BYTES // (8 * n))
    assert width < d
    s = RngStream(46, d)
    expect = chunked_gram(n, d, width, entry_dist, s.generator())
    w = sample_wishart(n, d, entry_dist=entry_dist, rng=s)
    assert (w == (expect + expect.T) / 2.0).all()


@pytest.mark.parametrize("n,d,entry_dist,bartlett", [
    (12, 5, "gaussian", False),
    (12, 12, "gaussian", True),
    (12, 300, "gaussian", True),
    (12, 300, "uniform-scaled", False),
    (12, 300, "rademacher", False),
])
def test_wishart_path_follows_entry_law_and_dimension(n, d, entry_dist, bartlett):
    s = RngStream(42, d)
    if bartlett:
        L = _bartlett_stack(n, d, (s.generator(),))[0]
        expect = L @ L.T
    else:
        Y = loop_entries(s.generator(), (n, d), entry_dist)
        expect = Y @ Y.T
    w = sample_wishart(n, d, entry_dist=entry_dist, rng=s)
    assert (w == (expect + expect.T) / 2.0).all()
    assert np.linalg.matrix_rank(w) == min(n, d)
    assert w.dtype == np.float64 and not w.flags.writeable


@pytest.mark.parametrize("n,d,bartlett", [(20, 3, False), (20, 19, False),
                                          (20, 20, True), (20, 500, True)])
def test_rgg_path_follows_dimension(n, d, bartlett):
    s = RngStream(43, d)
    if bartlett:
        X = _bartlett_stack(n, d, (s.generator(),))[0]
        X /= np.linalg.norm(X, axis=1, keepdims=True)
    else:
        X = sample_sphere(n, d, s)
    adj = np.triu(X @ X.T >= threshold(0.4, d), 1)
    assert (sample_rgg(n, 0.4, d, s).to_dense() == (adj | adj.T)).all()


@pytest.mark.parametrize("n", [30, 64])
def test_fair_coin_er_matches_the_uniform_mask_law(n):
    """Dense G(n, 1/2) from fair coins has the law of the float draw it
    replaced: two-sample KS of the edge count, triangle count and tau at
    alpha = 1e-3, each path on its own substreams.  n^2 = 900 ends inside
    a word; 4096 is 64 whole words."""
    base = RngStream(47, n)
    coins = []
    for start in range(0, _R, 500):
        adj = _er_stack(n, 0.5, SubstreamGenerators(base, start, start + 500))
        coins.append(np.column_stack((adj.sum(axis=(1, 2)) // 2,
                                      _triangles(adj), _tau(adj, 0.5))))

    def uniform(s):
        adj = loop_er_uniform(n, 0.5, s.generator())
        return adj.sum() // 2, loop_triangles(adj), loop_tau(adj, 0.5)
    coins = np.concatenate(coins)
    floats = replicate(uniform, _R, base.substream(_R))
    for k in range(3):
        assert ks_distance(coins[:, k], floats[:, k]) < _KS_CRIT, k


@pytest.mark.parametrize("n,p,reps", [(40, 0.3, _R), (300, 0.01, 1000),
                                      (1200, 3e-3, 200)])
def test_skip_er_matches_dense_mask_law(n, p, reps):
    """The skip-sampled and dense-mask G(n, p) have the same edge and
    triangle count laws, each path on its own substreams."""
    base = RngStream(44, n)
    crit = math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2.0 / reps)
    arms = []

    def skip_er(n, p, gen):
        pairs = np.divmod(bernoulli_pairs(n, p, gen), n)
        return Graph.from_edges(n, np.column_stack(pairs))

    def _dense_er(n, p, gen):
        return Graph._trusted(_er_stack(n, p, (gen,))[0])
    for k, draw in enumerate((_dense_er, skip_er)):
        graphs = [draw(n, p, base.substream(k * reps + i).generator())
                  for i in range(reps)]
        arms.append(np.array([(g.m, triangle_count(g)) for g in graphs]))
    for col in range(2):
        assert ks_distance(arms[0][:, col], arms[1][:, col]) < crit, col


@pytest.mark.parametrize("n,p,reps", [(40, 0.3, _R), (300, 0.01, 1000),
                                      (1200, 3e-3, 200)])
def test_rgg_circle_matches_dense_gram_law(n, p, reps):
    """The sorted-angle and dense Gram G(n, p, 2) have the same edge and
    triangle count laws, each rule on its own sample_sphere draws."""
    base = RngStream(46, n)
    t = threshold(p, 2)
    crit = math.sqrt(-math.log(1e-3 / 2) / 2) * math.sqrt(2.0 / reps)
    arms = []
    for k, build in enumerate((lambda x: Graph._trusted(_dense_rgg(x @ x.T, t)),
                               lambda x: _rgg_circle(x, t))):
        graphs = [build(sample_sphere(n, 2, base.substream(k * reps + i)))
                  for i in range(reps)]
        arms.append(np.array([(g.m, triangle_count(g)) for g in graphs]))
    for col in range(2):
        assert ks_distance(arms[0][:, col], arms[1][:, col]) < crit, col


def test_store_follows_expected_edge_count():
    """The dense draw runs iff n^2 <= 64 bytes per expected edge: each
    sampler gives the edges of the path that rule picks, drawn from the
    same stream.  (From the same sphere points the Gram and sorted-angle
    rules give the same edges, so only G(n, p) tells the dense draw apart.)"""
    s = RngStream(45)
    sparse = 4 / 3000

    def dense_er(n, p):
        return Graph._trusted(_er_stack(n, p, (s.generator(),))[0])

    def dense_rgg(n, p, d):
        return Graph._trusted(_rgg_stack(n, p, d, (s.generator(),))[0])
    cases = [
        (sample_er(30, 0.3, s), dense_er(30, 0.3), True),
        (sample_er(3000, sparse, s), dense_er(3000, sparse), False),
        (sample_er(3000, sparse, s),
         Graph._from_keys(3000, bernoulli_pairs(3000, sparse, s.generator())),
         True),
        (sample_rgg(64, 0.5, 64, s), dense_rgg(64, 0.5, 64), True),
        (sample_rgg(3000, sparse, 2, s),
         _rgg_circle(sample_sphere(3000, 2, s), threshold(sparse, 2)), True),
        (sample_rgg(3000, sparse, 512, s),
         Graph._from_keys(3000, geom._edges_by_chunks(
             sample_sphere(3000, 512, s), threshold(sparse, 512))), True),
    ]
    assert prefers_dense(30, 0.3 * 435) and prefers_dense(64, 0.5 * 2016)
    assert not prefers_dense(3000, sparse * 3000 * 2999 / 2)
    for got, path, same in cases:
        assert np.array_equal(got.edges(), path.edges()) == same


# ---------------------------------------------------------------- h map


def test_h_map_all_positive_gives_complete_graph():
    g = h_map(np.full((5, 5), 2.0))
    assert g.m == 10


def test_h_map_scale_invariant():
    w = sample_wishart(20, 30, rng=RngStream(25, 0))
    a = h_map(w)
    b = h_map(3.7 * w)
    assert (a.to_dense() == b.to_dense()).all()


def test_h_map_density_half():
    dens = []
    for i in range(200):
        w = sample_wishart(24, 50, rng=RngStream(26, i))
        dens.append(h_map(w).m / (24 * 23 / 2))
    assert_mean_close(dens, 0.5)


def test_h_map_validation():
    with pytest.raises(ValueError, match="square"):
        h_map(np.zeros((2, 3)))
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        h_map(bad)


def test_h_map_wishart_matches_rgg_law():
    # H(W(n,d)) =d G(n, 1/2, d): compare tau samples and edge counts
    n, d, reps = 16, 32, 500
    tau_w, tau_g, m_w, m_g = [], [], [], []
    for i in range(reps):
        gw = h_map(sample_wishart(n, d, rng=RngStream(27, i)))
        gg = sample_rgg(n, 0.5, d, RngStream(28, i))
        tau_w.append(signed_triangle_stat(gw, 0.5))
        tau_g.append(signed_triangle_stat(gg, 0.5))
        m_w.append(gw.m)
        m_g.append(gg.m)
    assert ks_distance(np.array(tau_w), np.array(tau_g)) < 0.1
    assert ks_distance(np.array(m_w, float), np.array(m_g, float)) < 0.1


# ----------------------------------------------------------- detection


def test_detect_geometry_verdicts():
    tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert detect_geometry(tri, 3, 0.5, 0.1).verdict == "geometric"
    assert detect_geometry(tri, 3, 0.5, 0.2).verdict == "random"
    assert detect_geometry(tri, 3, 0.5, 0.1).statistic == pytest.approx(0.125)
    with pytest.raises(ValueError, match="does not match"):
        detect_geometry(tri, 4, 0.5, 0.1)


def test_calibrate_tau_requires_replicas():
    with pytest.raises(ValueError, match="at least 100 replicas"):
        calibrate_tau(20, 0.5, 2, 50, RngStream(0, 0))


def test_calibrate_tau_null_mean_zero():
    cal = calibrate_tau(30, 0.5, 9, 200, RngStream(29, 0))
    se = cal.sd_null / math.sqrt(200)
    assert abs(cal.mean_null) <= 3 * se


def test_calibrate_tau_variance_bound():
    n, p, d = 50, 0.5, 100
    cal = calibrate_tau(n, p, d, 300, RngStream(30, 0))
    bound = n ** 3 + 3 * n ** 4 / d
    # one-sided chi^2 fluctuation of the sample variance at 300 replicas
    assert cal.sd_alt ** 2 <= bound * 1.25


def test_detection_low_dimension_separates():
    n, reps = 64, 400
    cal = calibrate_tau(n, 0.5, 2, reps, RngStream(31, 0))
    hits = sum(
        detect_geometry(sample_rgg(n, 0.5, 2, RngStream(31, 0).substream(2 * reps + i)),
                        n, 0.5, cal.threshold).verdict == "geometric"
        for i in range(200))
    false = sum(
        detect_geometry(sample_er(n, 0.5, RngStream(32, i)),
                        n, 0.5, cal.threshold).verdict == "geometric"
        for i in range(200))
    assert hits / 200 >= 0.95
    assert false / 200 <= 0.05


# -------------------------------------------------- tau mean scaling


def _tau_mean_quadrature(n: int, d: int) -> float:
    """Exact E[tau(G(n,1/2,d))] = C(n,3)/8 E|1 - 2 theta/pi| where theta is
    the angle between two uniform sphere points, density prop. to
    sin^(d-2) theta. Independent of the sampling code entirely."""
    m = d - 2
    num, _ = integrate.quad(lambda u: (2 * u / math.pi) * math.cos(u) ** m,
                            0.0, math.pi / 2, epsabs=1e-13, limit=300)
    den, _ = integrate.quad(lambda u: math.cos(u) ** m,
                            0.0, math.pi / 2, epsabs=1e-13, limit=300)
    return math.comb(n, 3) / 8.0 * (num / den)


def test_tau_quadrature_d2_closed_form():
    # theta uniform on [0, pi]: E|1 - 2 theta/pi| = 1/2
    assert _tau_mean_quadrature(30, 2) == pytest.approx(4060 / 16, rel=1e-10)


def test_tau_mean_matches_quadrature_monte_carlo():
    n, d, reps = 30, 2, 600
    taus = np.array([signed_triangle_stat(sample_rgg(n, 0.5, d, RngStream(33, i)), 0.5)
                     for i in range(reps)])
    assert_mean_close(taus, _tau_mean_quadrature(n, d))


def test_tau_mean_scaling_slope_half():
    # exact means: log-log slope in d must sit at -1/2
    n = 50
    ds = [100, 1000, 10_000]
    means = [_tau_mean_quadrature(n, d) for d in ds]
    slope = np.polyfit(np.log(ds), np.log(means), 1)[0]
    assert abs(slope + 0.5) <= 0.1


def test_tau_mean_rescaled_constant():
    n = 50
    vals = [_tau_mean_quadrature(n, d) * math.sqrt(d) / n ** 3
            for d in (100, 1000, 10_000)]
    assert max(vals) / min(vals) <= 1.05


def test_calibration_consistent_with_quadrature():
    n, d = 50, 100
    cal = calibrate_tau(n, 0.5, d, 300, RngStream(34, 0))
    se = cal.sd_alt / math.sqrt(300)
    assert abs(cal.mean_alt - _tau_mean_quadrature(n, d)) <= 3 * se


# ------------------------------------------------- dimension estimate


def _calibration_table(n, p, cands, replicas, rng):
    return {d: calibrate_tau(n, p, d, replicas, rng.substream(97 * i)).mean_alt
            for i, d in enumerate(cands)}


def test_estimate_dimension_well_separated():
    n, p = 64, 0.5
    cands = [2, 2048]
    table = _calibration_table(n, p, cands, 150, RngStream(35, 0))
    correct = 0
    for i in range(200):
        g = sample_rgg(n, p, 2 if i % 2 == 0 else 2048, RngStream(36, i))
        truth = 2 if i % 2 == 0 else 2048
        correct += estimate_dimension(g, n, p, cands, table) == truth
    assert correct / 200 >= 0.95


def test_estimate_dimension_indistinguishable_pair():
    # d and d+1 with d >> n: accuracy collapses to a coin flip
    n, p = 16, 0.5
    cands = [4096, 4097]
    table = _calibration_table(n, p, cands, 150, RngStream(37, 0))
    correct = 0
    for i in range(100):
        truth = cands[i % 2]
        g = sample_rgg(n, p, truth, RngStream(38, i))
        correct += estimate_dimension(g, n, p, cands, table) == truth
    assert 0.3 <= correct / 100 <= 0.7


def test_estimate_dimension_moderate_gap():
    n, p = 256, 0.5
    cands = [8, 9]
    table = _calibration_table(n, p, cands, 100, RngStream(39, 0))
    correct = 0
    for i in range(100):
        truth = cands[i % 2]
        g = sample_rgg(n, p, truth, RngStream(40, i))
        correct += estimate_dimension(g, n, p, cands, table) == truth
    assert correct / 100 >= 0.9


def test_estimate_dimension_tie_prefers_smaller():
    tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    stat = signed_triangle_stat(tri, 0.5)
    table = {2: stat + 0.5, 7: stat - 0.5}
    assert estimate_dimension(tri, 3, 0.5, [2, 7], table) == 2


def test_estimate_dimension_validation():
    tri = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(ValueError, match="nonempty"):
        estimate_dimension(tri, 3, 0.5, [], {})
    with pytest.raises(ValueError, match="missing candidates \\[7\\]"):
        estimate_dimension(tri, 3, 0.5, [2, 7], {2: 0.0})
    with pytest.raises(ValueError, match="does not match"):
        estimate_dimension(tri, 5, 0.5, [2], {2: 0.0})


# ------------------------------------------------------ sparse regime


def test_sparse_triangle_mean_matches_formula():
    n, c = 1000, 5.0
    res = sparse_triangle_experiment(n, c, 2, 300, RngStream(41, 0))
    exact = math.comb(n, 3) * (c / n) ** 3  # ~ c^3/6 for large n
    assert_rel_close(res.mean_null, exact, 0.05)
    assert abs(exact - c ** 3 / 6.0) / (c ** 3 / 6.0) <= 3.0 / n


def test_sparse_triangle_low_dim_power():
    res = sparse_triangle_experiment(10_000, 5.0, 2, 300, RngStream(42, 0))
    assert res.power >= 0.9
    assert 0.0 <= res.size <= 1.0
    assert res.mean_alt > res.mean_null


def test_sparse_triangle_validation():
    with pytest.raises(ValueError, match="c/n"):
        sparse_triangle_experiment(10, 11.0, 2, 10, RngStream(0, 0))
    with pytest.raises(ValueError, match="two replicas"):
        sparse_triangle_experiment(100, 2.0, 2, 1, RngStream(0, 0))
