"""Run every workload once and print the benchmark's tables.

    python3 bench/report.py --seed 1 [--trace]

Each workload runs in its own fresh process through run.py, for the
run_seconds of BENCHMARK.json. The first table holds the end-to-end
metrics, one row per workload, with units and sample counts. With --trace
every workload runs a second time with tracing on; the per-layer table and the tracing overhead (the gap
between untraced and traced replicas_per_s) follow.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import PER_LAYER
from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def run_workload(name: str, seed: int, trace: bool):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(int(trace))],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"{name}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    plain = {w: run_workload(w, args.seed, False) for w in WORKLOADS}
    env = next(iter(plain.values()))[0]["environment"]
    print("environment:", json.dumps(env, sort_keys=True))
    e2e = list(next(iter(plain.values()))[1]["metrics"])
    head = f"{'workload':16s} {'jobs':>4s}" + "".join(f" {m:>16s}" for m in e2e)
    print("\nend to end\n" + head + f" {'failed_op_frac':>14s} {'timed_ops':>9s}"
          f" {'attempted':>9s} correct")
    for w, (info, res) in plain.items():
        row = f"{w:16s} {str(info['jobs'] or 1):>4s}"
        for m in e2e:
            v = res["metrics"][m]
            row += f" {v['value']:>11.4g} {v['unit']:<4s}"
        s = info["samples"]
        row += (f" {info['failed_op_frac']:>14.4f} {s['timed_commands']:>9d}"
                f" {res['attempted']:>9d} {res['correct']}")
        print(row)
    print("samples: replicas_per_s over the timed phase; op_p50_ms and "
          "op_p90_ms over 'timed_ops' latencies; setup_s is the median of "
          f"{s['setup_probes']} fresh processes; peak_rss_mib is one reading "
          "of the workload process")
    for w, (info, _) in plain.items():
        for f in info["failures"] + info["determinism_mismatches"]:
            print(f"FAILED {w}: {json.dumps(f)}")

    if not args.trace:
        return 0
    traced = {w: run_workload(w, args.seed, True) for w in WORKLOADS}
    print("\nper layer (- = not called on this workload)")
    print(f"{'metric':42s} {'unit':>12s}" + "".join(f" {w:>16s}" for w in WORKLOADS))
    for metric, unit in PER_LAYER:
        row = f"{metric:42s} {unit:>12s}"
        for w in WORKLOADS:
            info, res = traced[w]
            if metric in info["not_called"]:
                row += f" {'-':>16s}"
            else:
                row += f" {res['metrics'][metric]['value']:>16.5g}"
        print(row)
    print("\ntracing overhead (1 - traced / untraced replicas_per_s)")
    for w in WORKLOADS:
        untraced = plain[w][1]["metrics"]["replicas_per_s"]["value"]
        with_trace = traced[w][1]["metrics"]["trace.replicas_per_s"]["value"]
        print(f"{w:16s} {1.0 - with_trace / untraced:+.3f}  "
              f"({untraced:.5g} -> {with_trace:.5g} replicas/s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
