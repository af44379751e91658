import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from netinfer import harness
from netinfer.graphcore import RngStream
from netinfer.harness import (
    ks_distance,
    ks_distance_cdf,
    power_from_samples,
    replicate,
    tv_lower_bound,
    two_arm,
    weighted_midpoint,
)

# ------------------------------------------------------------- KS distance


def _ks(a, b):
    return ks_distance(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def test_ks_identical_samples_is_zero():
    x = np.array([0.3, 1.7, 2.2, 5.0])
    assert _ks(x, x) == 0.0


def test_ks_disjoint_supports_is_one():
    assert _ks([1.0, 2.0, 3.0], [7.0, 8.0]) == 1.0


def test_ks_hand_value():
    # ECDFs step at 1,2 vs 2,3: largest gap is 1/2 on [1,2)
    assert _ks([1.0, 2.0], [2.0, 3.0]) == 0.5


def test_ks_matches_scipy():
    rng = np.random.default_rng(42)
    for _ in range(40):
        a = rng.normal(size=rng.integers(2, 60))
        b = rng.normal(loc=rng.uniform(-1, 1), size=rng.integers(2, 60))
        ref = stats.ks_2samp(a, b, method="asymp").statistic
        assert abs(_ks(a, b) - ref) <= 1e-12


def test_ks_two_large_uniform_samples_small():
    rng = RngStream(2024, 0).generator()
    a = rng.random(10_000)
    b = rng.random(10_000)
    assert _ks(a, b) < 0.03


_float_lists = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    min_size=1, max_size=40)


@given(_float_lists, _float_lists)
@settings(max_examples=100, derandomize=True)
def test_ks_symmetric_and_bounded(a, b):
    d = _ks(a, b)
    assert 0.0 <= d <= 1.0
    assert d == _ks(b, a)


@given(_float_lists, _float_lists, _float_lists)
@settings(max_examples=100, derandomize=True)
def test_ks_triangle_inequality(a, b, c):
    assert _ks(a, c) <= _ks(a, b) + _ks(b, c) + 1e-12


def test_ks_cdf_hand_values():
    # single observation at the median of U(0,1)
    assert ks_distance_cdf(np.array([0.5]), lambda x: np.clip(x, 0, 1)) == 0.5
    d = ks_distance_cdf(np.array([0.25, 0.75]), lambda x: np.clip(x, 0, 1))
    assert abs(d - 0.25) <= 1e-15


def test_ks_cdf_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=rng.integers(1, 80))
        ref = stats.ks_1samp(x, stats.norm.cdf).statistic
        assert abs(ks_distance_cdf(x, stats.norm.cdf) - ref) <= 1e-12


# ------------------------------------------------------- TV lower bound


def test_tv_lower_bound_equals_ks():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=50), rng.normal(1.0, size=70)
    assert tv_lower_bound(a, b) == _ks(a, b)


def test_tv_lower_bound_never_exceeds_exact_bernoulli_tv():
    # empirical frequencies set exactly: Bernoulli(0.7) vs Bernoulli(0.3)
    a = np.array([0.0] * 300 + [1.0] * 700)
    b = np.array([0.0] * 700 + [1.0] * 300)
    exact_tv = 0.4
    assert tv_lower_bound(a, b) <= exact_tv + 1e-15
    # sampled version stays within Monte Carlo range of the exact value
    rng = RngStream(77, 0).generator()
    a = (rng.random(4000) < 0.7).astype(float)
    b = (rng.random(4000) < 0.3).astype(float)
    se = np.sqrt(2 * 0.7 * 0.3 / 4000)
    assert tv_lower_bound(a, b) <= exact_tv + 3 * se


def test_sample_set_validation():
    with pytest.raises(ValueError):
        ks_distance(np.empty(0), np.ones(2))
    with pytest.raises(ValueError):
        ks_distance(np.zeros((2, 2)), np.ones(2))


# ------------------------------------------------------------- thresholds


def test_weighted_midpoint():
    # equal spreads reduce to the plain midpoint
    assert weighted_midpoint(0.0, 2.0, 10.0, 2.0) == 5.0
    # the cut sits closer to the tighter population
    assert weighted_midpoint(0.0, 1.0, 10.0, 3.0) == 2.5
    # degenerate spreads fall back to the midpoint
    assert weighted_midpoint(4.0, 0.0, 6.0, 0.0) == 5.0


# ------------------------------------------------------------- replicate


def test_replicate_uses_offset_substreams():
    base = RngStream(11, 40)

    def draw(stream: RngStream) -> float:
        return float(stream.generator().random())

    vals = replicate(draw, 3, base.substream(5))
    expect = [draw(base.substream(5 + i)) for i in range(3)]
    assert vals.tolist() == expect


def test_replicate_parallel_matches_serial():
    base = RngStream(11, 0)

    def draw(stream: RngStream) -> float:
        return float(stream.generator().normal())

    serial = replicate(draw, 24, base)
    parallel = replicate(draw, 24, base, jobs=4)
    assert (serial == parallel).all()


@pytest.mark.parametrize("jobs", [2, 3])
def test_replicate_vector_results_are_rows_in_replica_order(jobs):
    base = RngStream(12, 3)

    def draw(stream: RngStream) -> np.ndarray:
        return stream.generator().normal(size=4)

    serial = replicate(draw, 7, base)
    assert serial.shape == (7, 4) and serial.dtype == np.float64
    assert serial.tolist() == [draw(base.substream(i)).tolist() for i in range(7)]
    assert serial.tobytes() == replicate(draw, 7, base, jobs=jobs).tobytes()


def test_replicate_fans_plain_functions_out_over_threads(monkeypatch):
    # two replicas can meet at the barrier only when they run at once; a
    # serial loop would leave the first one waiting until the timeout
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    barrier = threading.Barrier(2, timeout=10)

    def draw(stream: RngStream) -> float:
        barrier.wait()
        return float(stream.generator().random())

    vals = replicate(draw, 4, RngStream(13), jobs=2)
    assert vals.tolist() == [RngStream(13).substream(i).generator().random()
                             for i in range(4)]


@pytest.mark.parametrize("cpus, replicas, workers", [
    (2, 5, [2]), (8, 3, [3]), (None, 5, []), (1, 5, []), (4, 1, [])])
def test_replicate_threads_stay_under_replicas_and_cpus(monkeypatch, cpus,
                                                        replicas, workers):
    sizes = []

    class Pool:
        """Stand-in ThreadPoolExecutor: records max_workers, maps serially."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    base = RngStream(14)

    def draw(stream: RngStream) -> float:
        return float(stream.generator().random())

    vals = replicate(draw, replicas, base, jobs=10**6)
    assert sizes == workers
    assert vals.tolist() == [draw(base.substream(i)) for i in range(replicas)]


# ------------------------------------------------------- two-arm power test


def _normals(n: int, loc: float):
    """Mean of n draws from N(loc, 1): one replica of a two-arm statistic."""
    def stat(stream: RngStream) -> float:
        return float(stream.generator().normal(loc, 1.0, size=n).mean())
    return stat


def test_two_arm_substream_layout():
    base = RngStream(11, 40)

    def draw(stream: RngStream) -> float:
        return float(stream.generator().random())

    null_vals, alt_vals = two_arm(draw, draw, 3, base)
    assert null_vals.tolist() == [draw(base.substream(i)) for i in range(3)]
    assert alt_vals.tolist() == [draw(base.substream(3 + i)) for i in range(3)]


def test_power_test_deterministic_and_parallel_safe():
    args = (_normals(10, 0.0), _normals(10, 0.8), 150, RngStream(4, 0))
    a = power_from_samples(*two_arm(*args))
    b = power_from_samples(*two_arm(*args))
    c = power_from_samples(*two_arm(*args, jobs=3))
    assert a == b == c


def test_power_test_identical_generators_power_matches_size():
    gen = _normals(20, 0.0)
    rep = power_from_samples(*two_arm(gen, gen, 400, RngStream(9, 0)))
    se = np.sqrt(0.25 / 400)
    assert abs(rep.power - rep.size) <= 3 * np.sqrt(2) * se


def test_power_test_separated_means():
    rep = power_from_samples(*two_arm(_normals(25, 0.0), _normals(25, 3.0), 200,
                                      RngStream(2, 0)))
    assert rep.power >= 0.99
    assert rep.size <= 0.05
    assert rep.mean_null < rep.threshold < rep.mean_alt


def test_power_test_direction_flips_with_ordering():
    # alt mean below the null mean: rejections count on the low side
    rep = power_from_samples(*two_arm(_normals(25, 3.0), _normals(25, 0.0), 200,
                                      RngStream(2, 0)))
    assert rep.power >= 0.99 and rep.size <= 0.05
    assert rep.mean_alt < rep.threshold < rep.mean_null


def test_power_from_samples_validation():
    with pytest.raises(ValueError, match="equal sample counts"):
        power_from_samples(np.zeros(5), np.zeros(4))
    with pytest.raises(ValueError, match="equal sample counts"):
        power_from_samples(np.zeros(1), np.zeros(1))
