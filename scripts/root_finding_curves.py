#!/usr/bin/env python3
"""Root-finding success rate as a function of the confidence-set size.

Grows attachment trees, hides the root by uniform relabeling, and scores
how often the K smallest-branch-weight vertices contain it, for a range
of K.  One set of replicas per model answers every K: the root is caught
exactly when fewer than K vertices rank ahead of it.  Writes one CSV row
per (model, K).
"""

import argparse
import csv
import sys

from netinfer.graphcore import RngStream
from netinfer.harness import binomial_se
from netinfer.trees import root_ranks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--models", default="ua,pa")
    ap.add_argument("--k-values", default="1,2,5,10,20,50,100")
    ap.add_argument("--replicas", type=int, default=300)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", default="root_finding_curves.csv")
    args = ap.parse_args()
    models = args.models.split(",")
    try:
        k_values = [int(x) for x in args.k_values.split(",")]
    except ValueError:
        ap.error(f"--k-values must be integers: {args.k_values!r}")
    if min(k_values) < 1:
        ap.error("every K must be at least 1")

    rng = RngStream(args.seed)
    rows = []
    for i, model in enumerate(models):
        try:
            ranks = root_ranks(model, args.n, args.replicas,
                               rng.substream(2 * args.replicas * i))
        except ValueError as e:
            ap.error(str(e))
        for K in k_values:
            rate = float((ranks < K).mean())
            se = binomial_se(rate, args.replicas)
            rows.append({"model": model, "n": args.n, "K": K,
                         "success_rate": rate, "se": se})
            print(f"{model}  K={K:>4}  success={rate:.3f} (+/- {3 * se:.3f})")

    with open(args.out, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
