"""netinfer benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload small_graph_mc --seed 1 --seconds 20 --trace 0

The client calls netinfer.cli.main(argv) in-process with stdout captured,
one generated command at a time, and parses and checks each JSON record
before it issues the next command. Commands come in cycles (see
workloads.py). Cycle 0 is an untimed warm-up; the timed phase then runs
whole cycles until --seconds have passed and at least MIN_OPS commands
were issued.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the public functions of each module are wrapped (tracing.py)
and the last line carries the per-layer metrics instead. The line before
it holds the environment, the command-list fingerprint, sample counts and
check details. Spans of a traced run go to .bench_out/ in the checkout.
The exit code is 0 whenever a result line is printed, even when checks
failed ("correct": false); without a usable netinfer source tree the
script exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_OPS = 100          # so that at least ten samples lie beyond op_p90_ms
MAX_TIMED_S = 120.0    # stop early, whatever MIN_OPS says, past this
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60
DETERMINISM_SAMPLE = 2  # commands of the first cycle rerun per workload

END_TO_END_UNITS = {
    "replicas_per_s": "replicas/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class SetupError(RuntimeError):
    """The checkout holds no usable netinfer source tree."""


def import_cli():
    """Import netinfer.cli from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import netinfer.cli as cli
    except ImportError as exc:
        raise SetupError(f"cannot import netinfer from {SRC}: {exc}") from None
    where = Path(cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"netinfer.cli was imported from {where}, not {SRC}")
    return cli


def setup_probe(workload: wl.Workload, seed: int) -> None:
    """Child-process body: time the import and the command generation."""
    t0 = time.perf_counter()
    import_cli()
    fingerprint = wl.list_fingerprint(workload, seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0,
                      "fingerprint": fingerprint}))


def measure_setup(workload: wl.Workload, seed: int) -> list:
    """Run SETUP_PROBES fresh processes in turn; returns their reports."""
    reports = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise SetupError("set-up probe failed: " + proc.stderr.strip())
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return reports


def environment() -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, AttributeError):
        pass
    sha, dirty = "unknown", None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout
            dirty = bool(status.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


def issue(cli, op: wl.Op):
    """Run one command in-process; returns (record or None, errors)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:  # a raising command is a failed command
        return None, [f"raised {type(exc).__name__}: {exc}"]
    if code != 0:
        return None, [f"exit code {code}: {err.getvalue().strip()}"]
    lines = out.getvalue().splitlines()
    if len(lines) != 1:
        return None, [f"expected one stdout line, got {len(lines)}"]
    try:
        rec = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return None, [f"bad JSON: {exc}"]
    return rec, wl.check_record(op, rec)


def quantile(values, q: float) -> float:
    """Inclusive-method quantile, q in (0, 1)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def canonical_without_jobs(rec) -> str:
    rec = json.loads(json.dumps(rec))
    rec["parameters"].pop("jobs", None)
    return json.dumps(rec, sort_keys=True)


def determinism_check(cli, workload, seed, first_cycle, records) -> list:
    """Rerun a seed-chosen sample of the first cycle at --jobs 1 (or as is,
    for commands without --jobs) and compare the records; records that
    failed their checks are passed as None and skipped."""
    rng = random.Random(f"{workload.name}/{seed}/determinism")
    picked = rng.sample(range(len(first_cycle)), DETERMINISM_SAMPLE)
    mismatches = []
    for i in picked:
        op = first_cycle[i]
        if records[i] is None:
            continue
        again = op.with_jobs(1) if op.jobs is not None else op
        rec, errors = issue(cli, again)
        if rec is None or canonical_without_jobs(rec) != canonical_without_jobs(records[i]):
            mismatches.append({"op": i, "argv": " ".join(op.argv),
                               "errors": errors or ["record differs at --jobs 1"]})
    return mismatches


class Log:
    """Every command issued in a run, with its record and failed checks."""

    def __init__(self):
        self.ops, self.records, self.failures = [], [], []

    def issue(self, cli, op: wl.Op, tracer=None) -> float:
        """Issue op and log it; returns its latency in seconds."""
        if tracer is not None:
            tracer.cmd = len(self.ops)
        t0 = time.perf_counter()
        rec, errors = issue(cli, op)
        latency = time.perf_counter() - t0
        if errors:
            self.failures.append({"op": len(self.ops),
                                  "argv": " ".join(op.argv), "errors": errors})
        self.ops.append(op)
        self.records.append(rec)
        return latency

    def check_pooled(self) -> set:
        """Run the pooled checks; returns the indices of failed commands."""
        failed = {f["op"] for f in self.failures}
        by_kind = {}
        for i, (op, rec) in enumerate(zip(self.ops, self.records)):
            if i not in failed:
                by_kind.setdefault(op.kind, []).append(i)
        for kind, idx in by_kind.items():
            errors = wl.check_pooled(kind, [(self.ops[i], self.records[i])
                                            for i in idx])
            if errors:
                self.failures.append({"op": None, "kind": kind,
                                      "errors": errors})
                failed.update(idx)
        return failed


def run(workload: wl.Workload, seed: int, seconds: float, trace: bool) -> tuple:
    setups = measure_setup(workload, seed)
    cli = import_cli()
    import netinfer

    fingerprint = wl.list_fingerprint(workload, seed)
    fingerprint_ok = all(r["fingerprint"] == fingerprint for r in setups)

    log = Log()
    # Cycle 0 warms up lazy imports, BLAS and allocator pools, untimed; its
    # records also feed the determinism check.
    warmup = wl.cycle(workload, seed, 0)
    for op in warmup:
        log.issue(cli, op)

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(netinfer)
    latencies = []
    objects = 0
    index = 1
    t_start = time.perf_counter()
    try:
        while True:
            ops = wl.cycle(workload, seed, index)
            latencies += [log.issue(cli, op, tracer) for op in ops]
            objects += sum(op.objects for op in ops)
            index += 1
            wall = time.perf_counter() - t_start
            if wall >= MAX_TIMED_S or (wall >= seconds
                                       and len(latencies) >= MIN_OPS):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    failed_ops = log.check_pooled()
    passed = [None if i in failed_ops else rec
              for i, rec in enumerate(log.records[:len(warmup)])]
    mismatches = determinism_check(cli, workload, seed, warmup, passed)
    failed_ops.update(m["op"] for m in mismatches)

    rps = objects / wall
    if tracer is not None:
        metrics, not_called = tracer.metrics(len(latencies), rps)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload.name}.csv.gz")
    else:
        values = {
            "replicas_per_s": rps,
            "op_p50_ms": 1e3 * quantile(latencies, 0.5),
            "op_p90_ms": 1e3 * quantile(latencies, 0.9),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
        not_called = []

    attempted = len(log.ops)
    info = {
        "workload": workload.name,
        "seed": seed,
        "jobs": workload.jobs,
        "trace": trace,
        "environment": environment(),
        "command_list_sha256": fingerprint,
        "command_list_repeatable": fingerprint_ok,
        "samples": {"commands": attempted, "timed_commands": len(latencies),
                    "timed_cycles": index - 1, "timed_replicas": objects,
                    "setup_probes": len(setups)},
        "timed_wall_s": wall,
        "failed_op_frac": len(failed_ops) / attempted,
        "failures": log.failures[:20],
        "determinism_mismatches": mismatches,
        "not_called": not_called,
    }
    result = {
        "correct": not failed_ops and fingerprint_ok,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": metrics,
    }
    return info, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            setup_probe(workload, args.seed)
            return 0
        info, result = run(workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
