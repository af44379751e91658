"""Scale: trees with n = 10^6 and block models with n = 10^5 run through the
CLI in a fresh process, in well under a GiB of resident memory, and an urn
ensemble of 2 * 10^8 draws in under half a GiB.  Building a block model's
edges, rows and label counts takes at most 40 bytes an edge.

Each command runs under a small wrapper process, so RUSAGE_CHILDREN sees
that command alone and not other children of the pytest process.
"""

import json
import subprocess
import sys
import tracemalloc

import pytest

from checks import child_env
from netinfer.graphcore import RngStream
from netinfer.sbm import SbmParams, genie_recover, sample_sbm

_WRAPPER = """
import json, resource, subprocess, sys
proc = subprocess.run([sys.executable, "-m", "netinfer.cli"] + sys.argv[1:],
                      capture_output=True, text=True)
print(json.dumps({"code": proc.returncode, "out": proc.stdout,
                  "err": proc.stderr,
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
"""

_GIB_IN_KIB = 1 << 20

# runs the CLI with the process's address space capped at 4 GiB; when the
# command returns, the last stderr line is the process's own peak RSS
# (VmHWM: ru_maxrss would also count what a parent held before the exec)
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
from netinfer.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")),
          end="", file=sys.stderr)
sys.exit(code)
"""


def _run_wrapped(argv: str) -> tuple[dict, dict]:
    """(wrapper report, the command's JSON record) for one CLI command."""
    proc = subprocess.run([sys.executable, "-c", _WRAPPER] + argv.split(),
                          env=child_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["code"] == 0, run["err"]
    return run, json.loads(run["out"])


@pytest.mark.parametrize("argv,checks", [
    ("tree root --model ua --n 1000000 --k-set 10 --replicas 1 --seed 5",
     {"n": 1000000, "K": 10, "replicas": 1}),
    ("sbm recover --k 2 --a 9 --b 1 --n 100000 --replicas 1 --seed 5",
     {"rounds": 1, "corruption": 0.1}),
])
def test_large_command_stays_under_a_gib(argv, checks):
    run, record = _run_wrapped(argv)
    assert record["command"] == " ".join(argv.split()[:2])
    assert record["seed"] == 5 and record["replicas"] == 1
    for key, value in checks.items():
        assert record["result"][key] == value
    for key in ("success_rate", "mean_accuracy", "exact_rate"):
        if key in record["result"]:
            assert 0.0 <= record["result"][key] <= 1.0
    assert run["maxrss_kib"] < _GIB_IN_KIB, run["maxrss_kib"]


def test_long_urn_ensemble_stays_under_half_a_gib():
    """2 * 10^5 steps of 1000 runs: all their uniforms at once would take
    1.6 GB, so this pins that they are drawn a block of steps at a time."""
    run, record = _run_wrapped("urn check --counts 1,1 --law beta "
                               "--n-final 200000 --runs 1000 --seed 5")
    assert record["command"] == "urn check"
    assert record["seed"] == 5 and record["replicas"] == 1000
    res = record["result"]
    assert res["n_final"] == 200000 and res["runs"] == 1000
    assert 0.0 <= res["ks"] < 1.0 and isinstance(res["pass"], bool)
    assert run["maxrss_kib"] < _GIB_IN_KIB // 2, run["maxrss_kib"]


def test_dense_guard_exits_one_at_once():
    """A dense n x n request far past memory is refused before allocation."""
    proc = subprocess.run(
        [sys.executable, "-m", "netinfer.cli", "mc", "power", "--pair", "geom",
         "--stat", "tau", "--n", "200000", "--p", "0.5", "--d", "2",
         "--replicas", "100", "--seed", "1"],
        env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "dense 200000 x 200000 array" in proc.stderr
    assert "GiB limit" in proc.stderr


def test_n_by_d_guard_exits_one_at_once(tmp_path):
    """8 GB of sphere coordinates are refused before allocation; the child
    runs under a 4 GiB address-space cap, so a missing guard fails with a
    MemoryError instead of exhausting the host."""
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED, "geom", "gen", "--n", "5000", "--p",
         "0.001", "--d", "200000", "--seed", "1", "--out", str(tmp_path / "g.txt")],
        env=child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "sphere point matrix needs a dense 5000 x 200000 array" in proc.stderr
    assert "GiB limit" in proc.stderr


def test_vertex_count_past_int64_keys_exits_one_at_once(tmp_path):
    """G(10^10, p) has more vertex pairs than an int64 position can hold,
    so the skip sampler refuses it before drawing; the timeout turns a
    missing guard into a failure instead of a hung run."""
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED, "geom", "gen", "--n", "10000000000",
         "--p", "1e-19", "--seed", "1", "--out", str(tmp_path / "g.txt")],
        env=child_env(), capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert "the limit is 2^63 - 1" in proc.stderr


def test_wide_uniform_wishart_runs_in_little_memory():
    """A uniform-entry Wishart matrix at n = 32, d = 5 * 10^6 sums the Gram
    products of cache-sized column chunks, so no 1.3 GB entry matrix is
    drawn: the command succeeds and its peak RSS stays under 256 MiB."""
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED, "wishart", "sample", "--entry-dist",
         "uniform-scaled", "--n", "32", "--d", "5000000", "--replicas", "1",
         "--seed", "1"],
        env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["command"] == "wishart sample"
    assert record["result"]["d"] == 5000000
    label, peak, unit = proc.stderr.splitlines()[-1].split()
    assert (label, unit) == ("VmHWM:", "kB")
    assert int(peak) < 256 << 10, peak


def test_tau_on_the_edge_store_runs_in_little_memory():
    """The signed triangle statistic of a sparse graph comes from its
    triangle count, degrees and edge count, so at n = 20000 no 3 GB n x n
    float64 matrix is built: the command succeeds in under 256 MiB."""
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED, "mc", "power", "--pair", "geom",
         "--stat", "tau", "--n", "20000", "--p", "0.0002", "--d", "2",
         "--replicas", "100", "--seed", "1"],
        env=child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["command"] == "mc power"
    assert record["replicas"] == 100
    label, peak, unit = proc.stderr.splitlines()[-1].split()
    assert (label, unit) == ("VmHWM:", "kB")
    assert int(peak) < 256 << 10, peak


def test_block_model_phases_stay_within_40_bytes_an_edge():
    """At n = 2 * 10^5 (about 6 * 10^6 edges) sampling the block model, the
    first csr() and then one genie_recover round each peak at most 40 bytes
    an edge above what was allocated before them (tracemalloc).  The edge
    store itself is 16 B/edge, and the compressed rows 16 more."""
    params = SbmParams.symmetric(2, 9.0, 1.0)
    tracemalloc.start()
    try:
        lg = sample_sbm(200_000, params, RngStream(1))
        peaks = {"sample_sbm": tracemalloc.get_traced_memory()[1]}
        for name, phase in (
                ("csr", lg.graph.csr),
                ("genie_recover", lambda: genie_recover(lg, params, 0.1, 1,
                                                        RngStream(1, 1)))):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            phase()
            peaks[name] = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    per_edge = {name: peak / lg.graph.m for name, peak in peaks.items()}
    assert max(per_edge.values()) <= 40, per_edge
