#!/usr/bin/env python3
"""Sweep the signed-triangle detection power across sphere dimensions.

For fixed (n, p) the test separating G(n,p) from G(n,p,d) weakens as d
grows; this sweep traces power - size against d and writes one CSV row
per dimension.
"""

import argparse
import csv
import sys

from netinfer.geom import calibrate_tau
from netinfer.graphcore import RngStream


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--dims", default="2,8,32,128,512,2048,8192,32768")
    ap.add_argument("--replicas", type=int, default=200)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", default="detection_sweep.csv")
    args = ap.parse_args()
    if args.replicas < 100:
        ap.error("--replicas must be at least 100")

    dims = [int(x) for x in args.dims.split(",")]
    rng = RngStream(args.seed)
    rows = []
    for i, d in enumerate(dims):
        report = calibrate_tau(args.n, args.p, d, args.replicas,
                               rng.substream(2 * args.replicas * i))
        rows.append({"d": d, "power": report.power, "size": report.size,
                     "separation": report.power - report.size,
                     "threshold": report.threshold})
        print(f"d={d:>6}  power={report.power:.3f}  size={report.size:.3f}  "
              f"separation={report.power - report.size:+.3f}")

    with open(args.out, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
