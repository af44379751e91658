"""Replica blocks: the stacked geometry kernels behind harness.Batched give
bit for bit the values of the one-replica-at-a-time oracles, whatever the
block edges, the number of workers, or the path (block or plain call)."""

import threading

import numpy as np
import pytest

from netinfer import geom, harness
from netinfer.graphcore import RngStream, SubstreamGenerators
from netinfer.harness import Batched, replicate, two_arm
from oracles import (loop_er, loop_rgg, loop_signs, loop_tau, loop_tr3,
                     loop_triangles, loop_wishart, replica_loop)

R = 20


def _graph(n, p, stat, d=None):
    score = {"tau": lambda a: loop_tau(a, p), "t": loop_triangles}[stat]
    if d is None:
        return lambda s: score(loop_er(n, p, s.generator()))
    return lambda s: score(loop_rgg(n, p, d, s.generator()))


def _matrix(n, d, entry_dist, kind, stat):
    score = {"tr3": loop_tr3,
             "tau": lambda w: loop_tau(loop_signs(w), 0.5)}[stat]
    return lambda s: score(loop_wishart(n, d, entry_dist, kind, s.generator()))


# (replica function, its oracle): every stacked sampler and statistic
CASES = {
    "er-tau": (geom.graph_replica(30, 0.3, "tau"), _graph(30, 0.3, "tau")),
    "er-t": (geom.graph_replica(30, 0.3, "t"), _graph(30, 0.3, "t")),
    # fair coins: n^2 = 900 ends inside a word, 256 fills exactly four
    "er-half-tau": (geom.graph_replica(30, 0.5, "tau"), _graph(30, 0.5, "tau")),
    "er-half-t": (geom.graph_replica(16, 0.5, "t"), _graph(16, 0.5, "t")),
    "rgg-bartlett-tau": (geom.graph_replica(16, 0.5, "tau", 40),
                         _graph(16, 0.5, "tau", 40)),
    "rgg-bartlett-t": (geom.graph_replica(16, 0.4, "t", 16),
                       _graph(16, 0.4, "t", 16)),
    "rgg-sphere-tau": (geom.graph_replica(24, 0.3, "tau", 3),
                       _graph(24, 0.3, "tau", 3)),
    "rgg-sphere-d2-t": (geom.graph_replica(64, 0.5, "t", 2),
                     _graph(64, 0.5, "t", 2)),
    "goe-shifted-tau": (geom.matrix_replica(16, 40, "gaussian", "goe_shifted", "tau"),
                        _matrix(16, 40, "gaussian", "goe_shifted", "tau")),
    "goe-shifted-rademacher-tau": (
        geom.matrix_replica(16, 40, "rademacher", "goe_shifted", "tau"),
        _matrix(16, 40, "rademacher", "goe_shifted", "tau")),
    "goe-nodiag-uniform-tr3": (
        geom.matrix_replica(12, 30, "uniform-scaled", "goe_nodiag", "tr3"),
        _matrix(12, 30, "uniform-scaled", "goe_nodiag", "tr3")),
    "wishart-bartlett-tau": (geom.matrix_replica(16, 40, "gaussian", "wishart", "tau"),
                             _matrix(16, 40, "gaussian", "wishart", "tau")),
    "wishart-scaled-bartlett-tr3": (
        geom.matrix_replica(12, 30, "gaussian", "wishart_scaled_nodiag", "tr3"),
        _matrix(12, 30, "gaussian", "wishart_scaled_nodiag", "tr3")),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_replicas_equal_the_one_replica_oracle(monkeypatch, name):
    fn, oracle = CASES[name]
    assert isinstance(fn, Batched)
    rng = RngStream(91, 7)
    expect = replica_loop(oracle, R, rng).tobytes()
    assert replica_loop(fn, R, rng).tobytes() == expect  # the plain calls
    assert replicate(fn, 1, rng).tobytes() == expect[:8]
    for per_block in (1, 7, R - 1):
        monkeypatch.setattr(harness, "CACHE_BYTES", per_block * fn.nbytes)
        for jobs in (1, 2, 4):
            assert replicate(fn, R, rng, jobs=jobs).tobytes() == expect, (
                per_block, jobs)


@pytest.mark.parametrize("kind", geom.WISHART_KINDS)
@pytest.mark.parametrize("entry_dist,d", [("gaussian", 30), ("gaussian", 5),
                                          ("uniform-scaled", 30),
                                          ("rademacher", 30)])
def test_sample_wishart_equals_the_one_matrix_oracle(kind, entry_dist, d):
    s = RngStream(92, d)
    w = geom.sample_wishart(12, d, entry_dist=entry_dist, kind=kind, rng=s)
    assert w.tobytes() == loop_wishart(12, d, entry_dist, kind,
                                       s.generator()).tobytes()


def test_unstackable_replicas_stay_plain_functions():
    # edge-list graphs, the chunked n x d entry draw, and parameters the
    # single-graph functions reject take the per-replica path
    assert not isinstance(geom.graph_replica(3000, 4 / 3000, "t"), Batched)
    assert not isinstance(geom.matrix_replica(
        32, 160000, "uniform-scaled", "wishart_scaled_nodiag", "tr3"), Batched)
    assert not isinstance(geom.matrix_replica(12, 5, "gaussian", "wishart",
                                              "tr3"), Batched)
    assert not isinstance(geom.graph_replica(30, 1.0, "tau"), Batched)
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        replicate(geom.graph_replica(30, 1.0, "tau"), 2, RngStream(1))


def _block_sizes(nbytes):
    sizes = []

    def block(gens):
        sizes.append(len(gens))
        return np.array([float(next(iter(gens)).random())] + [0.0] * (len(gens) - 1))
    return sizes, Batched(block, nbytes)


def test_a_replica_larger_than_the_cap_is_a_block_of_one():
    sizes, fn = _block_sizes(harness.CACHE_BYTES + 1)
    vals = replicate(fn, 5, RngStream(93), jobs=2)
    assert sizes == [1] * 5
    assert vals.tolist() == [RngStream(93).substream(i).generator().random()
                             for i in range(5)]


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("fit,expect", [(7, [6] * 5), (20, [15, 15])])
def test_block_edges_depend_on_replicas_and_size_only(jobs, fit, expect):
    # `fit` replicas fit under the cap: 30 replicas make the fewest blocks
    # of sizes that differ by at most one, whatever the number of workers
    sizes, fn = _block_sizes(harness.CACHE_BYTES // fit)
    replicate(fn, 30, RngStream(94), jobs=jobs)
    assert sizes == expect


@pytest.mark.parametrize("jobs", [2, 4])
def test_blocks_run_in_order_on_the_calling_thread(jobs):
    threads, starts = [], []

    def block(gens):
        threads.append(threading.get_ident())
        starts.append(gens.start)
        return np.array([gen.random() for gen in gens])
    fn = Batched(block, harness.CACHE_BYTES // 7)
    vals = replicate(fn, 30, RngStream(96), jobs=jobs)
    assert threads == [threading.get_ident()] * 5
    assert starts == [0, 6, 12, 18, 24]
    assert vals.tolist() == [RngStream(96).substream(i).generator().random()
                             for i in range(30)]


def test_two_arm_batched_arms_keep_the_substream_layout():
    fn, oracle = CASES["er-tau"]
    null_vals, alt_vals = two_arm(fn, fn, R, RngStream(95), jobs=2)
    assert null_vals.tobytes() == replica_loop(oracle, R, RngStream(95)).tobytes()
    assert alt_vals.tobytes() == replica_loop(
        oracle, R, RngStream(95).substream(R)).tobytes()


def test_substream_generators_validate_their_range():
    with pytest.raises(ValueError, match="start < stop"):
        SubstreamGenerators(RngStream(1), 3, 3)
    with pytest.raises(ValueError, match="2\\^64"):
        SubstreamGenerators(RngStream(1, 2**64 - 2), 0, 3)
