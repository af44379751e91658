"""Statistical assertion helpers shared by the test modules, and the
environment of the child interpreters that some tests start.

Monte Carlo assertions use a 3-standard-error band throughout; with the
replica counts in this suite each check has a false-alarm rate near
0.3%, and every sampler is seed-pinned so reruns are deterministic.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

import netinfer


def child_env() -> dict:
    """os.environ with the directory of the netinfer package under test
    first on PYTHONPATH, so that a child interpreter imports the same
    package, also from a checkout that is not installed."""
    src = str(Path(netinfer.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def binom_se(p: float, n: int) -> float:
    """Standard error of a proportion estimated from n Bernoulli trials."""
    return math.sqrt(p * (1.0 - p) / n)


def assert_prop_close(observed: float, expected: float, n: int, z: float = 3.0) -> None:
    """Proportion within z binomial standard errors of its expected value."""
    tol = z * binom_se(expected, n) + 1e-12
    assert abs(observed - expected) <= tol, (
        f"proportion {observed:.6g} outside {expected:.6g} +/- {tol:.3g} (n={n})")


def assert_mean_close(values, expected: float, z: float = 3.0) -> None:
    """Sample mean within z estimated standard errors of the expected value."""
    arr = np.asarray(values, dtype=np.float64)
    se = arr.std(ddof=1) / math.sqrt(arr.size)
    assert abs(arr.mean() - expected) <= z * se + 1e-12, (
        f"mean {arr.mean():.6g} outside {expected:.6g} +/- {z} * {se:.3g} "
        f"(n={arr.size})")


def assert_rel_close(observed: float, expected: float, rel: float) -> None:
    """Relative error below `rel` (expected must be nonzero)."""
    err = abs(observed - expected) / abs(expected)
    assert err <= rel, (
        f"{observed:.6g} vs {expected:.6g}: relative error {err:.3g} > {rel}")
