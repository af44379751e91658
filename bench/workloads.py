"""Workload definitions: seeded command generation and result checks.

A workload is an endless sequence of cycles. Every cycle holds the same
command templates in a seed-shuffled order, each with its own seed-drawn
``--seed``, so whole cycles carry the same work whatever the workload
seed. Only the standard library is imported here, so that the set-up
probe times the import of netinfer and nothing else.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, replace

ENVELOPE_KEYS = {"command", "version", "seed", "replicas", "parameters",
                 "result"}

# Monte Carlo bands are this many standard errors wide (one- or two-sided),
# so that a sampler swap that keeps the law fails no command.
BAND_SE = 6.0
# KS level for the urn check: about the two-sided tail of a 5-SE band.
URN_KS_ALPHA = 1e-6

PREFIX_CYCLES = 10  # cycles hashed into the command-list fingerprint


@dataclass(frozen=True)
class Op:
    """One generated CLI command and what its record must echo."""

    kind: str
    argv: tuple
    seed: int
    replicas: int  # echoed as the record's "replicas"
    objects: int   # random objects sampled and scored, all arms
    params: dict   # the command's flags, for the result checks

    @property
    def jobs(self) -> int | None:
        return self.params.get("jobs")

    def with_jobs(self, jobs: int) -> "Op":
        argv = list(self.argv)
        argv[argv.index("--jobs") + 1] = str(jobs)
        return replace(self, argv=tuple(argv),
                       params={**self.params, "jobs": jobs})


def _kind(name: str, command: str, arms: int = 1, extra: int = 0, **flags):
    """Factory of one command kind: `command` with --flags and a --seed.

    arms x replicas (or runs) random objects are sampled and scored,
    plus extra.
    """
    count = flags.get("replicas", flags.get("runs"))

    def make(seed: int) -> Op:
        argv = command.split()
        for k, v in {**flags, "seed": seed}.items():
            argv += ["--" + k.replace("_", "-"), str(v)]
        return Op(name, tuple(argv), seed, count, arms * count + extra, flags)
    return make


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int | None
    templates: tuple  # one cycle: Op factories taking the command seed


def _small_graph_mc() -> Workload:
    # Tiny replicas: the per-replica fixed cost (Generator build, threshold
    # bisection, thread dispatch) dominates. Two geom detect commands put
    # op_p50_ms inside the mc_power_tau cluster rather than between two.
    j = 2
    cycle = [_kind("mc_power_t_n30", "mc power", arms=2, pair="geom",
                   stat="t", n=30, p=p, d=2, replicas=150, jobs=j)
             for p in (0.3, 0.5, 0.7)]
    detect = _kind("geom_detect_n64_d2", "geom detect", arms=2, extra=1,
                   n=64, p=0.5, d=2, replicas=100, jobs=j)
    cycle += [
        detect, detect,
        _kind("wishart_compare_tau", "wishart compare", arms=2, stat="tau",
              n=32, d=64, replicas=150, jobs=j),
        _kind("mc_power_tau_n32", "mc power", arms=2, pair="geom", stat="tau",
              n=32, p=0.5, d=64, replicas=150, jobs=j),
    ]
    return Workload("small_graph_mc", j, tuple(cycle))


def _high_dim_matrix() -> Workload:
    # Few replicas of n*d draws and BLAS each. Gaussian Wishart and RGG
    # commands are what Bartlett sampling would speed up; uniform entries
    # keep the direct path. The top d is 1.6e5 rather than 1e5 so that each
    # n*d draw (41 MB) lies above glibc's 32 MiB cap on its dynamic mmap
    # threshold: it is always unmapped on free, and peak_rss_mib does not
    # depend on which thread arenas kept freed memory. With the counts
    # below, op_p50_ms falls in the middle of the d = 2048 detect cluster.
    j = 2
    cycle = []
    for d, reps, times in ((1000, 16, 1), (10000, 8, 2), (160000, 2, 2)):
        for entry in ("gaussian", "uniform-scaled"):
            cycle += [_kind(f"wishart_sample_d{d}_{entry}", "wishart sample",
                            kind="wishart_scaled_nodiag", entry_dist=entry,
                            n=32, d=d, replicas=reps, jobs=j)] * times
    cycle += [
        _kind("geom_detect_n16_d2048", "geom detect", arms=2, extra=1,
              n=16, p=0.5, d=2048, replicas=100, jobs=j),
        _kind("mc_power_tau_n16_d8192", "mc power", arms=2, pair="geom",
              stat="tau", n=16, p=0.5, d=8192, replicas=100, jobs=j),
        _kind("geom_detect_n16_d16384", "geom detect", arms=2, extra=1,
              n=16, p=0.5, d=16384, replicas=100, jobs=j),
    ]
    return Workload("high_dim_matrix", j, tuple(cycle))


def _large_sparse() -> Workload:
    # Few large objects on the dense store, single-threaded. The light
    # commands fill the cycle so that a run holds at least 100 commands;
    # with 9 + 7 + 6 of them, op_p50_ms falls in the middle of the urn
    # cluster and op_p90_ms in the middle of the cheapest heavy command.
    cycle = [
        _kind(f"geom_sparse_d{d}", "geom sparse", arms=2, n=3000, c=4, d=d,
              replicas=2)
        for d in (2, 512)
    ]
    cycle.append(_kind("tree_seedtest_pa", "tree seedtest", arms=2,
                       model="pa", n=10000, seed_a="star:4", seed_b="path:4",
                       replicas=2))
    cycle += [_kind("tree_root_ua", "tree root", model="ua", n=1000,
                    epsilon=0.1, replicas=2)] * 9
    cycle += [_kind("urn_check_beta", "urn check", law="beta", counts="1,1",
                    n_final=1000, runs=1000)] * 7
    cycle += [_kind("sbm_recover_log", "sbm recover", k=2, a=9, b=1, n=2000,
                    replicas=1)] * 6
    return Workload("large_sparse", None, tuple(cycle))


WORKLOADS = {w.name: w for w in (_small_graph_mc(), _high_dim_matrix(),
                                 _large_sparse())}


def cycle(workload: Workload, seed: int, index: int) -> list:
    """Cycle `index` of the workload's command list for this seed."""
    rng = random.Random(f"{workload.name}/{seed}/{index}")
    ops = [make(rng.randrange(2 ** 31)) for make in workload.templates]
    rng.shuffle(ops)
    return ops


def list_fingerprint(workload: Workload, seed: int) -> str:
    """sha256 of the first PREFIX_CYCLES cycles of the command list."""
    h = hashlib.sha256()
    for i in range(PREFIX_CYCLES):
        for op in cycle(workload, seed, i):
            h.update(" ".join(op.argv).encode() + b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# result checks


def er_triangle_moments(n: int, p: float) -> tuple[float, float]:
    """Mean and variance of the triangle count of G(n, p)."""
    c3 = math.comb(n, 3)
    mean = c3 * p ** 3
    var = c3 * (p ** 3 - p ** 6) + 12 * math.comb(n, 4) * (p ** 5 - p ** 6)
    return mean, var


def er_tau_variance(n: int, p: float) -> float:
    """Variance of the signed triangle count of G(n, p); its mean is 0.
    Distinct triples share at most one edge, so their terms are
    uncorrelated."""
    return math.comb(n, 3) * (p * (1.0 - p)) ** 3


def _tau_null_mean(errors, label, mean, n, p, replicas):
    se = math.sqrt(er_tau_variance(n, p) / replicas)
    if abs(mean) > BAND_SE * se:
        errors.append(f"{label} tau null mean {mean:.4g} outside 0 +- "
                      f"{BAND_SE * se:.4g}")


def _in_unit(errors, result, *keys):
    for k in keys:
        v = result.get(k)
        if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
            errors.append(f"{k}={v!r} not in [0, 1]")


def check_envelope(op: Op, rec) -> list:
    if not isinstance(rec, dict) or set(rec) != ENVELOPE_KEYS:
        return [f"envelope keys {sorted(rec) if isinstance(rec, dict) else rec!r}"]
    errors = []
    expected = " ".join(op.argv[:2])
    if rec["command"] != expected:
        errors.append(f"command {rec['command']!r} != {expected!r}")
    if not str(rec["version"]).startswith("netinfer-"):
        errors.append(f"version {rec['version']!r}")
    if rec["seed"] != op.seed:
        errors.append(f"seed {rec['seed']!r} != {op.seed}")
    if rec["replicas"] != op.replicas:
        errors.append(f"replicas {rec['replicas']!r} != {op.replicas}")
    if not isinstance(rec["parameters"], dict) or not isinstance(rec["result"], dict):
        errors.append("parameters and result must be objects")
    elif op.jobs is not None and rec["parameters"].get("jobs") != op.jobs:
        errors.append(f"parameters.jobs {rec['parameters'].get('jobs')!r}")
    return errors


def check_record(op: Op, rec) -> list:
    """Errors in one record; laws that need more replicas than one command
    has are checked by check_pooled instead."""
    errors = check_envelope(op, rec)
    if errors:
        return errors
    r = rec["result"]
    P = op.params
    cmd = op.argv[:2]
    if cmd == ("mc", "power"):
        _in_unit(errors, r, "power", "size")
        if P["stat"] == "t":
            mean, var = er_triangle_moments(P["n"], P["p"])
            se = math.sqrt(var / op.replicas)
            if abs(r["mean_null"] - mean) > BAND_SE * se:
                errors.append(f"ER triangle mean {r['mean_null']:.6g} outside "
                              f"{mean:.6g} +- {BAND_SE * se:.4g}")
        else:
            _tau_null_mean(errors, "ER", r["mean_null"], P["n"], P["p"],
                           op.replicas)
    elif cmd == ("geom", "detect"):
        _in_unit(errors, r, "power", "size")
        cal = r["calibration"]
        _tau_null_mean(errors, "ER", cal["mean_null"], P["n"], P["p"],
                       op.replicas)
        if r["verdict"] not in ("geometric", "random"):
            errors.append(f"verdict {r['verdict']!r}")
        if P["d"] == 2 and r["power"] - r["size"] < 0.9:
            errors.append(f"power - size {r['power'] - r['size']:.3f} < 0.9 "
                          "at d = 2")
    elif cmd == ("wishart", "compare"):
        _in_unit(errors, r, "power", "size", "tv_lower_bound")
        # H(shifted GOE) is exactly G(n, 1/2)
        _tau_null_mean(errors, "H(GOE)", r["mean_null"], P["n"], 0.5,
                       op.replicas)
    elif cmd == ("wishart", "sample"):
        if r["n"] != P["n"] or r["d"] != P["d"] or r["entry_dist"] != P["entry_dist"]:
            errors.append("echoed n, d or entry_dist differ")
        if not (isinstance(r["sd"], float) and r["sd"] > 0):
            errors.append(f"sd {r['sd']!r}")
    elif cmd == ("geom", "sparse"):
        _in_unit(errors, r, "power", "size")
        if r["mean_T_er"] < 0 or r["mean_T_geo"] < 0:
            errors.append("negative mean triangle count")
    elif cmd == ("tree", "root"):
        _in_unit(errors, r, "success_rate")
        eps = P["epsilon"]
        k = math.ceil(2.5 * math.log(1.0 / eps) / eps)
        if r["K"] != k:
            errors.append(f"K {r['K']} != {k}")
    elif cmd == ("tree", "seedtest"):
        _in_unit(errors, r, "ks", "tv_lower_bound")
        for key in ("mean_a", "mean_b"):
            if not 1.0 <= r[key] <= P["n"] - 1:
                errors.append(f"{key} {r[key]!r} not a possible max degree")
    elif cmd == ("sbm", "recover"):
        _in_unit(errors, r, "exact_rate", "mean_accuracy")
        # far inside the exact-recovery region (D+ = 2), genie one round
        if r["mean_accuracy"] < 0.9:
            errors.append(f"mean accuracy {r['mean_accuracy']:.4f} < 0.9")
    elif cmd == ("urn", "check"):
        runs = P["runs"]
        crit = (math.sqrt(math.log(2.0 / URN_KS_ALPHA) / 2.0) / math.sqrt(runs)
                + 1.0 / P["n_final"])  # lattice of the finite-n fractions
        if not 0.0 <= r["ks"] <= crit:
            errors.append(f"urn KS {r['ks']:.4f} above critical {crit:.4f}")
    else:
        errors.append(f"no check for {' '.join(cmd)}")
    return errors


def check_pooled(kind: str, items: list) -> list:
    """Errors in a law checked over all records of one kind in a run.

    items holds (op, record) pairs whose records passed check_record.
    """
    if not items:
        return []
    op0 = items[0][0]
    cmd = op0.argv[:2]
    P = op0.params
    if cmd == ("wishart", "sample"):
        # tr(A^3) of the scaled, diagonal-free Wishart has mean
        # n(n-1)(n-2)/sqrt(d) for any unit-variance entry law
        n, d = P["n"], P["d"]
        total = sum(op.replicas for op, _ in items)
        mean = sum(op.replicas * rec["result"]["mean"] for op, rec in items) / total
        ss = sum((op.replicas - 1) * rec["result"]["sd"] ** 2
                 + op.replicas * (rec["result"]["mean"] - mean) ** 2
                 for op, rec in items)
        se = math.sqrt(ss / (total - 1) / total)
        expect = n * (n - 1) * (n - 2) / math.sqrt(d)
        if abs(mean - expect) > BAND_SE * se:
            return [f"pooled tr(A^3) mean {mean:.5g} outside {expect:.5g} +- "
                    f"{BAND_SE * se:.4g} over {total} replicas"]
    elif cmd == ("geom", "sparse"):
        n, c = P["n"], P["c"]
        total = sum(op.replicas for op, _ in items)
        mean = sum(op.replicas * rec["result"]["mean_T_er"] for op, rec in items) / total
        expect, var = er_triangle_moments(n, c / n)
        se = math.sqrt(var / total)
        if abs(mean - expect) > BAND_SE * se:
            return [f"pooled ER triangle mean {mean:.5g} outside {expect:.5g} "
                    f"+- {BAND_SE * se:.4g} over {total} replicas"]
    elif cmd == ("tree", "root"):
        eps = P["epsilon"]
        bound = 1.0 - 4.0 * eps / (1.0 - eps)
        total = sum(op.replicas for op, _ in items)
        rate = sum(op.replicas * rec["result"]["success_rate"]
                   for op, rec in items) / total
        se = math.sqrt(bound * (1.0 - bound) / total)
        if rate < bound - BAND_SE * se:
            return [f"pooled UA root-finding rate {rate:.4f} below "
                    f"{bound:.4f} - {BAND_SE * se:.4f} over {total} replicas"]
    return []
