"""Command-line surface for reproducible experiments.

Every invocation prints exactly one JSON record to stdout embedding
{seed, replicas, version, parameters, result}; sample dumps go to CSV
side files via --csv.  Seeds are never defaulted: commands that consume
randomness fail with exit code 2 unless --seed (or a config entry)
supplies one.  Exit codes: 0 success, 1 runtime failure, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, geom, sbm, trees, urns
from .graphcore import (Graph, ParseError, RngStream, Tree, parse_edge_list,
                        serialize_edge_list)
from .harness import (ks_distance, power_from_samples, replicate,
                      tv_lower_bound)

VERSION = f"netinfer-{__version__}"

KS_PASS_THRESHOLD = 0.05  # engineering choice for limit-law checks


class UsageError(Exception):
    """Bad or missing arguments discovered after parsing (exit code 2)."""


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed; 0 for --help, 2 for errors
        return int(exc.code or 0)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        opts = _Opts(args)
        record = args.handler(opts)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise
    except Exception as exc:  # malformed files, bad parameter combos, IO
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# option plumbing


class _Opts:
    """Post-parse option access merging --config values under the flags."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = {}
        path = getattr(args, "config", None)
        if path is not None:
            with open(path, "r", encoding="ascii") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise UsageError("--config must hold a JSON object")
            self.config = loaded

    def get(self, name: str, default=None, required: bool = False, cast=None):
        value = getattr(self.args, name, None)
        if value is None:
            value = self.config.get(name, None)
        if value is None:
            if required:
                raise UsageError(f"--{name.replace('_', '-')} is required")
            return default
        return cast(value) if cast is not None else value

    def seed(self) -> int:
        seed = self.get("seed", required=True, cast=int)
        try:
            RngStream(seed)
        except ValueError as exc:  # out of [0, 2^64) would alias another seed
            raise UsageError(f"--seed: {exc}") from None
        return seed

    def replicas(self, default=None, minimum: int = 1) -> int:
        value = self.get("replicas", default=default, required=default is None,
                         cast=int)
        if value < minimum:
            raise UsageError(f"--replicas must be at least {minimum}")
        return value

    def jobs(self) -> int:
        value = self.get("jobs", default=1, cast=int)
        if value < 1:
            raise UsageError("--jobs must be positive")
        return value


def _int_list(value) -> list:
    if isinstance(value, str):
        parts = [p for p in value.replace(",", " ").split() if p]
        return [int(p) for p in parts]
    return [int(v) for v in value]


def _float_pair_matrix(value) -> list:
    """Rows separated by ';', entries by ','; also accepts nested lists."""
    if isinstance(value, str):
        return [[float(x) for x in row.split(",")] for row in value.split(";")]
    return [[float(x) for x in row] for row in value]


def _record(command: str, parameters: dict, result: dict,
            seed=None, replicas=None) -> dict:
    return {
        "command": command,
        "version": VERSION,
        "seed": None if seed is None else int(seed),
        "replicas": None if replicas is None else int(replicas),
        "parameters": _jsonable(parameters),
        "result": _jsonable(result),
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


def _write_csv(path: str, header: str, values) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for v in values:
            fh.write(f"{v!r}\n" if isinstance(v, float) else f"{v}\n")


def _csv_pair_paths(base: str) -> tuple[str, str]:
    root, ext = os.path.splitext(base)
    ext = ext or ".csv"
    return root + "_null" + ext, root + "_alt" + ext


def _dump_pair(opts: _Opts, statistic: str, null_name: str, alt_name: str,
               null_vals, alt_vals) -> None:
    base = opts.get("csv")
    if base is None:
        return
    null_path, alt_path = _csv_pair_paths(base)
    _write_csv(null_path, f"{statistic},{null_name}", [float(v) for v in null_vals])
    _write_csv(alt_path, f"{statistic},{alt_name}", [float(v) for v in alt_vals])


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_edge_list(fh.read())


def _write_graph(path: str, g: Graph) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_edge_list(g))


# ---------------------------------------------------------------------------
# sbm


def _sbm_params(opts: _Opts) -> sbm.SbmParams:
    regime = opts.get("regime", default="logarithmic", cast=str)
    p = opts.get("p_vector")
    Q = opts.get("q_matrix")
    if p is not None or Q is not None:
        if p is None or Q is None:
            raise UsageError("p_vector and q_matrix must be given together")
        p = [float(x) for x in (p.split(",") if isinstance(p, str) else p)]
        Q = _float_pair_matrix(Q)
        return sbm.SbmParams(k=len(p), p=np.asarray(p), Q=np.asarray(Q),
                             regime=regime)
    k = opts.get("k", required=True, cast=int)
    a = opts.get("a", required=True, cast=float)
    b = opts.get("b", required=True, cast=float)
    return sbm.SbmParams.symmetric(k, a, b, regime=regime)


def _sbm_param_dict(params: sbm.SbmParams) -> dict:
    return {"k": params.k, "p": params.p, "Q": params.Q,
            "regime": params.regime}


def _cmd_sbm_gen(opts: _Opts) -> dict:
    params = _sbm_params(opts)
    n = opts.get("n", required=True, cast=int)
    seed = opts.seed()
    out = opts.get("out", required=True, cast=str)
    labels_out = opts.get("labels_out", cast=str)
    lg = sbm.sample_sbm(n, params, RngStream(seed))
    _write_graph(out, lg.graph)
    if labels_out is not None:
        with open(labels_out, "w", encoding="ascii") as fh:
            json.dump({"labels": lg.labels.tolist()}, fh, sort_keys=True)
    result = {"n": n, "edges": lg.graph.m, "out": out, "labels_out": labels_out}
    return _record("sbm gen", {**_sbm_param_dict(params), "n": n},
                   result, seed=seed)


def _cmd_sbm_chd(opts: _Opts) -> dict:
    params = _sbm_params(opts)
    sol = sbm.exact_recovery_solvable(params)
    profiles = sbm.community_profiles(params)
    i, j = sol.min_pair
    test = sbm.ch_divergence(profiles[i], profiles[j])
    result = {"d_plus": test.d_plus, "t_star": test.t_star,
              "solvable": sol.solvable, "min_pair": list(sol.min_pair),
              "boundary": sol.boundary}
    return _record("sbm chd", _sbm_param_dict(params), result)


def _cmd_sbm_solvable(opts: _Opts) -> dict:
    params = _sbm_params(opts)
    sol = sbm.exact_recovery_solvable(params)
    result = {"solvable": sol.solvable, "min_value": sol.min_value,
              "min_pair": list(sol.min_pair), "boundary": sol.boundary}
    return _record("sbm solvable", _sbm_param_dict(params), result)


def _cmd_sbm_partition(opts: _Opts) -> dict:
    params = _sbm_params(opts)
    blocks = sbm.finest_partition(params)
    result = {"blocks": blocks, "num_blocks": len(blocks)}
    return _record("sbm partition", _sbm_param_dict(params), result)


def _cmd_sbm_recover(opts: _Opts) -> dict:
    params = _sbm_params(opts)
    n = opts.get("n", required=True, cast=int)
    seed = opts.seed()
    replicas = opts.replicas(default=1)
    corruption = opts.get("corruption", default=0.1, cast=float)
    rounds = opts.get("rounds", default=1, cast=int)
    rng = RngStream(seed)
    accuracies = np.empty(replicas, dtype=np.float64)
    exact = 0
    for i in range(replicas):
        lg = sbm.sample_sbm(n, params, rng.substream(i))
        recovered = sbm.genie_recover(lg, params, corruption, rounds,
                                      rng.substream(replicas + i))
        accuracies[i] = float((recovered == lg.labels).mean())
        exact += bool((recovered == lg.labels).all())
    result = {
        "mean_accuracy": float(accuracies.mean()),
        "exact_rate": exact / replicas,
        "exact_se": math.sqrt((exact / replicas) * (1 - exact / replicas) / replicas),
        "corruption": corruption,
        "rounds": rounds,
    }
    params_dict = {**_sbm_param_dict(params), "n": n, "corruption": corruption,
                   "rounds": rounds}
    return _record("sbm recover", params_dict, result, seed=seed,
                   replicas=replicas)


# ---------------------------------------------------------------------------
# geom


def _cmd_geom_gen(opts: _Opts) -> dict:
    n = opts.get("n", required=True, cast=int)
    p = opts.get("p", required=True, cast=float)
    d = opts.get("d", cast=int)
    seed = opts.seed()
    out = opts.get("out", required=True, cast=str)
    if d is None:
        g = geom.sample_er(n, p, RngStream(seed))
        model = "er"
    else:
        g = geom.sample_rgg(n, p, d, RngStream(seed))
        model = "rgg"
    _write_graph(out, g)
    result = {"model": model, "n": n, "p": p, "d": d, "edges": g.m, "out": out}
    return _record("geom gen", {"n": n, "p": p, "d": d}, result, seed=seed)


def _cmd_geom_detect(opts: _Opts) -> dict:
    n = opts.get("n", required=True, cast=int)
    p = opts.get("p", required=True, cast=float)
    d = opts.get("d", required=True, cast=int)
    seed = opts.seed()
    replicas = opts.replicas(minimum=100)
    jobs = opts.jobs()
    in_path = opts.get("in_path", cast=str)
    rng = RngStream(seed)
    null_vals = replicate(
        lambda s: geom.signed_triangle_stat(geom.sample_er(n, p, s), p),
        replicas, rng, jobs=jobs)
    alt_vals = replicate(
        lambda s: geom.signed_triangle_stat(geom.sample_rgg(n, p, d, s), p),
        replicas, rng, jobs=jobs, offset=replicas)
    report = power_from_samples(null_vals, alt_vals)
    _dump_pair(opts, "tau", "er", "rgg", null_vals, alt_vals)
    if in_path is None:
        target = geom.sample_rgg(n, p, d, rng.substream(2 * replicas))
        target_src = "sampled-rgg"
    else:
        target = _read_graph(in_path)
        target_src = in_path
    detection = geom.detect_geometry(target, n, p, report.threshold)
    result = {
        "model": "er-vs-rgg", "n": n, "p": p, "d": d, "statistic": "tau",
        "verdict": detection.verdict, "stat_value": detection.statistic,
        "target": target_src,
        "power": report.power, "size": report.size,
        "power_se": report.power_se, "size_se": report.size_se,
        "calibration": {
            "threshold": report.threshold,
            "mean_null": report.mean_null, "mean_alt": report.mean_alt,
            "sd_null": report.sd_null, "sd_alt": report.sd_alt,
            "replicas": replicas,
        },
    }
    return _record("geom detect", {"n": n, "p": p, "d": d, "jobs": jobs},
                   result, seed=seed, replicas=replicas)


def _table_key(n: int, p: float, d: int) -> str:
    return f"{n},{float(p)!r},{d}"


def _load_table(path: str | None) -> dict:
    if path is None or not os.path.exists(path):
        return {}
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def _cmd_geom_calibrate(opts: _Opts) -> dict:
    n = opts.get("n", required=True, cast=int)
    p = opts.get("p", required=True, cast=float)
    d = opts.get("d", required=True, cast=int)
    seed = opts.seed()
    replicas = opts.replicas(minimum=100)
    table_path = opts.get("table", cast=str)
    cal = geom.calibrate_tau(n, p, d, replicas, RngStream(seed))
    entry = {
        "statistic": "tau", "tau_threshold": cal.tau_threshold,
        "mean_er": cal.mean_er, "mean_geo": cal.mean_geo,
        "sd_er": cal.sd_er, "sd_geo": cal.sd_geo,
        "replicas": replicas, "seed": seed,
    }
    if table_path is not None:
        table = _load_table(table_path)
        table[_table_key(n, p, d)] = _jsonable(entry)
        with open(table_path, "w", encoding="ascii") as fh:
            json.dump(table, fh, sort_keys=True, indent=2)
    result = {"n": n, "p": p, "d": d, "calibration": entry, "table": table_path}
    return _record("geom calibrate", {"n": n, "p": p, "d": d}, result,
                   seed=seed, replicas=replicas)


def _cmd_geom_dimest(opts: _Opts) -> dict:
    n = opts.get("n", required=True, cast=int)
    p = opts.get("p", required=True, cast=float)
    candidates = opts.get("candidates", required=True, cast=_int_list)
    seed = opts.seed()
    replicas = opts.replicas(minimum=2)
    jobs = opts.jobs()
    true_d = opts.get("true_d", cast=int)
    in_path = opts.get("in_path", cast=str)
    table_path = opts.get("table", cast=str)
    cands = sorted(set(candidates))
    rng = RngStream(seed)
    table_file = _load_table(table_path)
    means: dict[int, float] = {}
    computed = False
    for idx, cand in enumerate(cands):
        key = _table_key(n, p, cand)
        if key in table_file:
            means[cand] = float(table_file[key]["mean_geo"])
            continue
        vals = replicate(
            lambda s, dd=cand: geom.signed_triangle_stat(
                geom.sample_rgg(n, p, dd, s), p),
            replicas, rng, jobs=jobs, offset=idx * replicas)
        means[cand] = float(vals.mean())
        computed = True
        table_file[key] = {"statistic": "tau", "mean_geo": means[cand],
                           "replicas": replicas, "seed": seed}
    if table_path is not None and computed:
        with open(table_path, "w", encoding="ascii") as fh:
            json.dump(_jsonable(table_file), fh, sort_keys=True, indent=2)
    if in_path is not None:
        target = _read_graph(in_path)
        target_src = in_path
    else:
        if true_d is None:
            raise UsageError("need --in-path or --true-d for the target graph")
        target = geom.sample_rgg(n, p, true_d, rng.substream(len(cands) * replicas))
        target_src = "sampled-rgg"
    d_hat = geom.estimate_dimension(target, n, p, cands, means)
    result = {
        "d_hat": d_hat, "candidates": cands, "true_d": true_d,
        "target": target_src, "statistic": "tau",
        "stat_value": geom.signed_triangle_stat(target, p),
        "calibrated_means": {str(c): means[c] for c in cands},
        "table": table_path,
    }
    return _record("geom dimest",
                   {"n": n, "p": p, "candidates": cands, "true_d": true_d,
                    "jobs": jobs},
                   result, seed=seed, replicas=replicas)


def _cmd_geom_sparse(opts: _Opts) -> dict:
    n = opts.get("n", required=True, cast=int)
    c = opts.get("c", required=True, cast=float)
    d = opts.get("d", default=2, cast=int)
    seed = opts.seed()
    replicas = opts.replicas(minimum=2)
    res = geom.sparse_triangle_experiment(n, c, d, replicas, RngStream(seed))
    result = {
        "n": n, "c": c, "d": d, "statistic": "triangle-count",
        "mean_T_er": res.mean_T_er, "mean_T_geo": res.mean_T_geo,
        "power": res.power, "size": res.size, "threshold": res.threshold,
        "note": "sparse-regime separation is reported, not asserted",
    }
    return _record("geom sparse", {"n": n, "c": c, "d": d}, result,
                   seed=seed, replicas=replicas)


# ---------------------------------------------------------------------------
# wishart


def _cmd_wishart_sample(opts: _Opts) -> dict:
    n = opts.get("n", required=True, cast=int)
    d = opts.get("d", required=True, cast=int)
    kind = opts.get("kind", default="wishart_scaled_nodiag", cast=str)
    entry_dist = opts.get("entry_dist", default="gaussian", cast=str)
    seed = opts.seed()
    replicas = opts.replicas(default=1)
    jobs = opts.jobs()
    rng = RngStream(seed)
    vals = replicate(
        lambda s: geom.tr_cubed(geom.sample_wishart(n, d, entry_dist=entry_dist,
                                                    kind=kind, rng=s)),
        replicas, rng, jobs=jobs)
    csv = opts.get("csv", cast=str)
    if csv is not None:
        _write_csv(csv, f"tr_cubed,{kind}", [float(v) for v in vals])
    result = {
        "n": n, "d": d, "kind": kind, "entry_dist": entry_dist,
        "log_concave_entries": entry_dist != "rademacher",
        "statistic": "tr_cubed",
        "mean": float(vals.mean()),
        "sd": float(vals.std(ddof=1)) if replicas > 1 else None,
        "se": (float(vals.std(ddof=1) / math.sqrt(replicas))
               if replicas > 1 else None),
        "csv": csv,
    }
    return _record("wishart sample",
                   {"n": n, "d": d, "kind": kind, "entry_dist": entry_dist,
                    "jobs": jobs},
                   result, seed=seed, replicas=replicas)


def _cmd_wishart_compare(opts: _Opts) -> dict:
    n = opts.get("n", required=True, cast=int)
    d = opts.get("d", required=True, cast=int)
    entry_dist = opts.get("entry_dist", default="gaussian", cast=str)
    stat = opts.get("stat", default="tr3", cast=str)
    seed = opts.seed()
    replicas = opts.replicas(minimum=100)
    jobs = opts.jobs()
    rng = RngStream(seed)
    if stat == "tr3":
        null_kind, alt_kind = "goe_nodiag", "wishart_scaled_nodiag"

        def statistic(kind):
            return lambda s: geom.tr_cubed(
                geom.sample_wishart(n, d, entry_dist=entry_dist, kind=kind, rng=s))
    elif stat == "tau":
        null_kind, alt_kind = "goe_shifted", "wishart"

        def statistic(kind):
            return lambda s: geom.signed_triangle_stat(
                geom.h_map(geom.sample_wishart(n, d, entry_dist=entry_dist,
                                               kind=kind, rng=s)), 0.5)
    else:
        raise UsageError("--stat must be tr3 or tau")
    null_vals = replicate(statistic(null_kind), replicas, rng, jobs=jobs)
    alt_vals = replicate(statistic(alt_kind), replicas, rng, jobs=jobs,
                         offset=replicas)
    report = power_from_samples(null_vals, alt_vals)
    _dump_pair(opts, stat, null_kind, alt_kind, null_vals, alt_vals)
    result = {
        "n": n, "d": d, "entry_dist": entry_dist, "statistic": stat,
        "null_kind": null_kind, "alt_kind": alt_kind,
        "log_concave_entries": entry_dist != "rademacher",
        "power": report.power, "size": report.size,
        "power_se": report.power_se, "size_se": report.size_se,
        "threshold": report.threshold,
        "mean_null": report.mean_null, "mean_alt": report.mean_alt,
        "sd_null": report.sd_null, "sd_alt": report.sd_alt,
        "tv_lower_bound": tv_lower_bound(null_vals, alt_vals),
    }
    return _record("wishart compare",
                   {"n": n, "d": d, "entry_dist": entry_dist, "stat": stat,
                    "jobs": jobs},
                   result, seed=seed, replicas=replicas)


# ---------------------------------------------------------------------------
# urn


def _parse_replacement(value, m: int) -> np.ndarray:
    if value is None or value == "identity":
        return np.eye(m, dtype=np.int64)
    if isinstance(value, str):
        if value.startswith("identity:"):
            return int(value.split(":", 1)[1]) * np.eye(m, dtype=np.int64)
        if value == "triangular":
            return np.asarray(urns.TRIANGULAR_REPLACEMENT)
        return np.asarray(json.loads(value), dtype=np.int64)
    return np.asarray(value, dtype=np.int64)


def _urn_state(opts: _Opts) -> urns.UrnState:
    counts = opts.get("counts", required=True, cast=_int_list)
    replacement = _parse_replacement(opts.get("replacement"), len(counts))
    return urns.UrnState(np.asarray(counts), replacement)


def _cmd_urn_run(opts: _Opts) -> dict:
    state = _urn_state(opts)
    steps = opts.get("steps", required=True, cast=int)
    checkpoints = opts.get("checkpoints", default=[steps], cast=_int_list)
    seed = opts.seed()
    traj = urns.urn_run(state, steps, checkpoints, RngStream(seed))
    csv = opts.get("csv", cast=str)
    if csv is not None:
        m = state.colors
        header = "total," + ",".join(f"count_{i + 1}" for i in range(m))
        rows = [",".join([str(int(t))] + [str(int(c)) for c in row])
                for t, row in zip(traj.totals, traj.counts)]
        _write_csv(csv, header, rows)
    result = {
        "initial": state.counts, "replacement": state.replacement,
        "steps": steps,
        "snapshots": [[int(t), row.tolist()] for t, row in
                      zip(traj.totals, traj.counts)],
        "csv": csv,
    }
    params = {"counts": state.counts, "replacement": state.replacement,
              "steps": steps, "checkpoints": list(checkpoints)}
    return _record("urn run", params, result, seed=seed, replicas=1)


def _cmd_urn_check(opts: _Opts) -> dict:
    state = _urn_state(opts)
    law = opts.get("law", required=True, cast=str)
    runs = opts.get("runs", required=True, cast=int)
    seed = opts.seed()
    threshold = opts.get("threshold", default=KS_PASS_THRESHOLD, cast=float)
    params = {"counts": state.counts, "replacement": state.replacement,
              "law": law, "runs": runs, "threshold": threshold}
    if law == "triangular":
        n_values = opts.get("n_values", required=True, cast=_int_list)
        scaling = urns.triangular_urn_scaling(state, n_values, runs,
                                              RngStream(seed))
        result = {
            "initial": state.counts, "replacement": state.replacement,
            "law": law, "n_values": list(scaling.totals), "runs": runs,
            "ks_consecutive": list(scaling.ks_consecutive),
            "means": list(scaling.means),
            "ks": max(scaling.ks_consecutive),
            "pass": bool(max(scaling.ks_consecutive) < threshold),
        }
        params["n_values"] = list(n_values)
        return _record("urn check", params, result, seed=seed, replicas=runs)
    n_final = opts.get("n_final", required=True, cast=int)
    check = urns.limit_law_check(state, law, n_final, runs, RngStream(seed))
    result = {
        "initial": state.counts, "replacement": state.replacement,
        "law": law, "n_final": check.n_final, "runs": runs,
        "ks": check.ks, "marginal_ks": list(check.marginal_ks),
        "alpha": list(check.alpha), "beta": list(check.beta),
        "pass": bool(check.ks < threshold),
    }
    params["n_final"] = n_final
    return _record("urn check", params, result, seed=seed, replicas=runs)


# ---------------------------------------------------------------------------
# tree


def _parse_seed_tree(value) -> Tree | None:
    if value is None:
        return None
    if isinstance(value, str):
        if value.startswith("star:"):
            return trees.star(int(value.split(":", 1)[1]))
        if value.startswith("path:"):
            return trees.path(int(value.split(":", 1)[1]))
        if value == "singleton":
            return Tree.from_parents([-1])
        if value == "edge":
            return Tree.from_parents([-1, 0])
        g = _read_graph(value)
        return Tree.from_edges(g.n, g.edges())
    raise UsageError("--seed-tree must be star:N, path:N, singleton, edge, "
                     "or an edge-list file")


def _cmd_tree_grow(opts: _Opts) -> dict:
    model = opts.get("model", required=True, cast=str)
    n = opts.get("n", required=True, cast=int)
    seed = opts.seed()
    out = opts.get("out", required=True, cast=str)
    sidecar = opts.get("sidecar", cast=str)
    seed_tree = _parse_seed_tree(opts.get("seed_tree"))
    rt = trees.grow(model, n, RngStream(seed), seed=seed_tree)
    _write_graph(out, rt.tree)
    if sidecar is not None:
        with open(sidecar, "w", encoding="ascii") as fh:
            json.dump({"model": rt.model, "seed_size": rt.seed_size,
                       "arrival_permutation": [int(v) + 1 for v in rt.arrival]},
                      fh, sort_keys=True)
    md = trees.max_degree(rt)
    result = {
        "model": rt.model, "n": n, "seed_size": rt.seed_size,
        "edges": rt.tree.m,
        "max_degree": {"vertex": md.vertex + 1, "degree": md.degree},
        "centroid": sorted(v + 1 for v in trees.centroid(rt.tree)),
        "out": out, "sidecar": sidecar,
    }
    params = {"model": rt.model, "n": n,
              "seed_tree": opts.get("seed_tree", default=None)}
    return _record("tree grow", params, result, seed=seed)


def _cmd_tree_root(opts: _Opts) -> dict:
    model = opts.get("model", required=True, cast=str)
    n = opts.get("n", required=True, cast=int)
    seed = opts.seed()
    replicas = opts.replicas()
    epsilon = opts.get("epsilon", cast=float)
    k_opt = opts.get("k_set", cast=int)
    c = opts.get("c", default=1.0, cast=float)
    scoring = opts.get("scoring", default="root", cast=str)
    seed_tree = _parse_seed_tree(opts.get("seed_tree"))
    if k_opt is not None:
        K = k_opt
    elif epsilon is not None:
        K = trees.required_k(model, epsilon, c=c)
    else:
        raise UsageError("need --epsilon or --k-set")
    report = trees.root_finding_success(model, n, K, replicas, RngStream(seed),
                                        scoring=scoring, seed=seed_tree,
                                        epsilon=epsilon)
    result = {
        "model": report.model, "n": n, "epsilon": epsilon, "K": K,
        "scoring": scoring,
        "success_rate": report.success_rate, "se": report.se,
        "replicas": replicas,
    }
    if k_opt is None:  # the bound belongs to the K derived from epsilon
        result["coverage_bound"] = (1.0 - 4.0 * epsilon / (1.0 - epsilon)
                                    if report.model == "ua" else None)
        result["bound_note"] = (
            "asymptotic (liminf) coverage bound, checked at finite n"
            if report.model == "ua" else
            "set size uses an uncalibrated constant c in the upper bound")
    params = {"model": report.model, "n": n, "epsilon": epsilon, "K": K,
              "scoring": scoring, "c": c,
              "seed_tree": opts.get("seed_tree", default=None)}
    return _record("tree root", params, result, seed=seed, replicas=replicas)


def _cmd_tree_seedtest(opts: _Opts) -> dict:
    model = opts.get("model", required=True, cast=str)
    n = opts.get("n", required=True, cast=int)
    seed = opts.seed()
    replicas = opts.replicas(minimum=2)
    seed_a = _parse_seed_tree(opts.get("seed_a", required=True))
    seed_b = _parse_seed_tree(opts.get("seed_b", required=True))
    rng = RngStream(seed)
    vals_a = replicate(
        lambda s: float(trees.max_degree(trees.grow(model, n, s, seed=seed_a)).degree),
        replicas, rng)
    vals_b = replicate(
        lambda s: float(trees.max_degree(trees.grow(model, n, s, seed=seed_b)).degree),
        replicas, rng, offset=replicas)
    _dump_pair(opts, "max_degree", "seed_a", "seed_b", vals_a, vals_b)
    result = {
        "model": model, "n": n, "statistic": "max_degree",
        "seed_a": opts.get("seed_a"), "seed_b": opts.get("seed_b"),
        "mean_a": float(vals_a.mean()), "mean_b": float(vals_b.mean()),
        "ks": ks_distance(vals_a, vals_b),
        "tv_lower_bound": tv_lower_bound(vals_a, vals_b),
        "replicas": replicas,
    }
    params = {"model": model, "n": n, "seed_a": opts.get("seed_a"),
              "seed_b": opts.get("seed_b")}
    return _record("tree seedtest", params, result, seed=seed,
                   replicas=replicas)


# ---------------------------------------------------------------------------
# mc


def _mc_arms(opts: _Opts):
    """Null/alt generators plus statistic for the mc commands."""
    pair = opts.get("pair", default="geom", cast=str)
    n = opts.get("n", required=True, cast=int)
    stat = opts.get("stat", default="tau", cast=str)
    if pair == "geom":
        p = opts.get("p", required=True, cast=float)
        d = opts.get("d", required=True, cast=int)
        if stat == "tau":
            def statistic(g):
                return geom.signed_triangle_stat(g, p)
        elif stat == "t":
            def statistic(g):
                return float(geom.triangle_count(g))
        else:
            raise UsageError("--stat must be tau or t for the geom pair")
        gen_null = lambda s: geom.sample_er(n, p, s)
        gen_alt = lambda s: geom.sample_rgg(n, p, d, s)
        names = ("er", "rgg")
        params = {"pair": pair, "n": n, "p": p, "d": d, "stat": stat}
    elif pair == "wishart":
        d = opts.get("d", required=True, cast=int)
        entry_dist = opts.get("entry_dist", default="gaussian", cast=str)
        if stat not in ("tr3",):
            raise UsageError("--stat must be tr3 for the wishart pair")
        statistic = geom.tr_cubed
        gen_null = lambda s: geom.sample_wishart(n, d, entry_dist=entry_dist,
                                                 kind="goe_nodiag", rng=s)
        gen_alt = lambda s: geom.sample_wishart(n, d, entry_dist=entry_dist,
                                                kind="wishart_scaled_nodiag",
                                                rng=s)
        names = ("goe_nodiag", "wishart_scaled_nodiag")
        params = {"pair": pair, "n": n, "d": d, "stat": stat,
                  "entry_dist": entry_dist}
    else:
        raise UsageError("--pair must be geom or wishart")
    return gen_null, gen_alt, statistic, names, params


def _cmd_mc_power(opts: _Opts) -> dict:
    gen_null, gen_alt, statistic, names, params = _mc_arms(opts)
    seed = opts.seed()
    replicas = opts.replicas(minimum=100)
    jobs = opts.jobs()
    rng = RngStream(seed)
    null_vals = replicate(lambda s: statistic(gen_null(s)), replicas, rng,
                          jobs=jobs)
    alt_vals = replicate(lambda s: statistic(gen_alt(s)), replicas, rng,
                         jobs=jobs, offset=replicas)
    report = power_from_samples(null_vals, alt_vals)
    _dump_pair(opts, params["stat"], names[0], names[1], null_vals, alt_vals)
    result = {
        "null": names[0], "alt": names[1], "statistic": params["stat"],
        "power": report.power, "size": report.size,
        "power_se": report.power_se, "size_se": report.size_se,
        "threshold": report.threshold,
        "mean_null": report.mean_null, "mean_alt": report.mean_alt,
        "sd_null": report.sd_null, "sd_alt": report.sd_alt,
        "uncertainty_note": "standard errors are binomial; +/-3 se is the "
                            "reporting convention",
    }
    return _record("mc power", {**params, "jobs": jobs}, result, seed=seed,
                   replicas=replicas)


def _cmd_mc_tv(opts: _Opts) -> dict:
    gen_null, gen_alt, statistic, names, params = _mc_arms(opts)
    seed = opts.seed()
    replicas = opts.replicas(minimum=2)
    jobs = opts.jobs()
    rng = RngStream(seed)
    null_vals = replicate(lambda s: statistic(gen_null(s)), replicas, rng,
                          jobs=jobs)
    alt_vals = replicate(lambda s: statistic(gen_alt(s)), replicas, rng,
                         jobs=jobs, offset=replicas)
    _dump_pair(opts, params["stat"], names[0], names[1], null_vals, alt_vals)
    result = {
        "null": names[0], "alt": names[1], "statistic": params["stat"],
        "tv_lower_bound": tv_lower_bound(null_vals, alt_vals),
        "ks": ks_distance(null_vals, alt_vals),
        "mean_null": float(null_vals.mean()), "mean_alt": float(alt_vals.mean()),
        "note": "statistic-induced events lower-bound the model TV "
                "(data processing)",
    }
    return _record("mc tv", {**params, "jobs": jobs}, result, seed=seed,
                   replicas=replicas)


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser, *, seed: bool = True,
                replicas: bool = False, jobs: bool = False,
                csv: bool = False) -> None:
    sub.add_argument("--config", help="JSON file of option values; flags override")
    if seed:
        sub.add_argument("--seed", type=int, help="RNG seed (required; no default)")
    if replicas:
        sub.add_argument("--replicas", type=int, help="Monte Carlo replicas")
    if jobs:
        sub.add_argument("--jobs", type=int,
                         help="replica-level threads; output independent of N")
    if csv:
        sub.add_argument("--csv", help="write sample values to CSV side file(s)")


def _add_sbm_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k", type=int, help="number of communities")
    sub.add_argument("--a", type=float, help="within-community rate")
    sub.add_argument("--b", type=float, help="cross-community rate")
    sub.add_argument("--regime", choices=["constant", "constant-prob",
                                          "logarithmic", "linear"])
    sub.add_argument("--p-vector", help="prior as comma list (with --q-matrix)")
    sub.add_argument("--q-matrix", help="rate matrix, rows ';'-separated")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The whole parser tree; built once per process, since building it
    costs more than many commands do."""
    parser = argparse.ArgumentParser(
        prog="netinfer",
        description="Reproducible network-model experiments; one JSON record "
                    "per invocation on stdout.")
    parser.add_argument("--version", action="version", version=VERSION)
    top = parser.add_subparsers(dest="group")

    # --- sbm
    p_sbm = top.add_parser("sbm", help="block-model recovery experiments")
    sub = p_sbm.add_subparsers(dest="cmd")

    s = sub.add_parser("gen", help="sample a block-model graph to a file")
    _add_sbm_model_flags(s)
    s.add_argument("--n", type=int)
    s.add_argument("--out", help="edge-list output path")
    s.add_argument("--labels-out", dest="labels_out",
                   help="JSON path for the hidden labels")
    _add_common(s)
    s.set_defaults(handler=_cmd_sbm_gen)

    s = sub.add_parser("chd", help="divergence of the closest profile pair")
    _add_sbm_model_flags(s)
    _add_common(s, seed=False)
    s.set_defaults(handler=_cmd_sbm_chd)

    s = sub.add_parser("solvable", help="exact-recovery threshold test")
    _add_sbm_model_flags(s)
    _add_common(s, seed=False)
    s.set_defaults(handler=_cmd_sbm_solvable)

    s = sub.add_parser("partition", help="finest recoverable partition")
    _add_sbm_model_flags(s)
    _add_common(s, seed=False)
    s.set_defaults(handler=_cmd_sbm_partition)

    s = sub.add_parser("recover", help="genie-aided label recovery rate")
    _add_sbm_model_flags(s)
    s.add_argument("--n", type=int)
    s.add_argument("--corruption", type=float)
    s.add_argument("--rounds", type=int)
    _add_common(s, replicas=True)
    s.set_defaults(handler=_cmd_sbm_recover)

    # --- geom
    p_geom = top.add_parser("geom", help="geometry detection experiments")
    sub = p_geom.add_subparsers(dest="cmd")

    s = sub.add_parser("gen", help="sample an ER or geometric graph to a file")
    s.add_argument("--n", type=int)
    s.add_argument("--p", type=float)
    s.add_argument("--d", type=int, help="sphere dimension; omit for ER")
    s.add_argument("--out")
    _add_common(s)
    s.set_defaults(handler=_cmd_geom_gen)

    s = sub.add_parser("detect", help="calibrated geometric-vs-random verdict")
    s.add_argument("--n", type=int)
    s.add_argument("--p", type=float)
    s.add_argument("--d", type=int)
    s.add_argument("--in", dest="in_path", help="graph file to classify")
    _add_common(s, replicas=True, jobs=True, csv=True)
    s.set_defaults(handler=_cmd_geom_detect)

    s = sub.add_parser("calibrate", help="tau thresholds for (n, p, d)")
    s.add_argument("--n", type=int)
    s.add_argument("--p", type=float)
    s.add_argument("--d", type=int)
    s.add_argument("--table", help="JSON calibration table to update")
    _add_common(s, replicas=True)
    s.set_defaults(handler=_cmd_geom_calibrate)

    s = sub.add_parser("dimest", help="dimension estimate from tau means")
    s.add_argument("--n", type=int)
    s.add_argument("--p", type=float)
    s.add_argument("--candidates", help="comma list of candidate dimensions")
    s.add_argument("--true-d", dest="true_d", type=int,
                   help="dimension of the sampled target graph")
    s.add_argument("--in", dest="in_path", help="graph file to estimate")
    s.add_argument("--table", help="JSON calibration table to reuse/update")
    _add_common(s, replicas=True, jobs=True)
    s.set_defaults(handler=_cmd_geom_dimest)

    s = sub.add_parser("sparse", help="triangle counts at edge probability c/n")
    s.add_argument("--n", type=int)
    s.add_argument("--c", type=float)
    s.add_argument("--d", type=int)
    _add_common(s, replicas=True)
    s.set_defaults(handler=_cmd_geom_sparse)

    # --- wishart
    p_w = top.add_parser("wishart", help="random-matrix ensembles")
    sub = p_w.add_subparsers(dest="cmd")

    s = sub.add_parser("sample", help="tr(A^3) samples from one ensemble")
    s.add_argument("--n", type=int)
    s.add_argument("--d", type=int)
    s.add_argument("--kind", choices=list(geom.WISHART_KINDS))
    s.add_argument("--entry-dist", dest="entry_dist",
                   choices=list(geom.ENTRY_DISTS))
    _add_common(s, replicas=True, jobs=True, csv=True)
    s.set_defaults(handler=_cmd_wishart_sample)

    s = sub.add_parser("compare", help="Wishart vs GOE separation")
    s.add_argument("--n", type=int)
    s.add_argument("--d", type=int)
    s.add_argument("--entry-dist", dest="entry_dist",
                   choices=list(geom.ENTRY_DISTS))
    s.add_argument("--stat", choices=["tr3", "tau"])
    _add_common(s, replicas=True, jobs=True, csv=True)
    s.set_defaults(handler=_cmd_wishart_compare)

    # --- urn
    p_urn = top.add_parser("urn", help="Polya urn simulations")
    sub = p_urn.add_subparsers(dest="cmd")

    s = sub.add_parser("run", help="one trajectory with checkpoints")
    s.add_argument("--counts", help="initial counts, comma list")
    s.add_argument("--replacement",
                   help="identity | identity:K | triangular | JSON matrix")
    s.add_argument("--steps", type=int)
    s.add_argument("--checkpoints", help="comma list of draw indices")
    _add_common(s, csv=True)
    s.set_defaults(handler=_cmd_urn_run)

    s = sub.add_parser("check", help="limit-law KS check over an ensemble")
    s.add_argument("--counts", help="initial counts, comma list")
    s.add_argument("--replacement",
                   help="identity | identity:K | triangular | JSON matrix")
    s.add_argument("--law", choices=["beta", "dirichlet", "dirichlet_scaled",
                                     "triangular"])
    s.add_argument("--n-final", dest="n_final", type=int,
                   help="terminal total ball count")
    s.add_argument("--n-values", dest="n_values",
                   help="comma list of totals (triangular law)")
    s.add_argument("--runs", type=int)
    s.add_argument("--threshold", type=float,
                   help=f"KS pass threshold (default {KS_PASS_THRESHOLD})")
    _add_common(s)
    s.set_defaults(handler=_cmd_urn_check)

    # --- tree
    p_tree = top.add_parser("tree", help="attachment trees and root finding")
    sub = p_tree.add_subparsers(dest="cmd")

    s = sub.add_parser("grow", help="grow one tree to a file (+ sidecar)")
    s.add_argument("--model", choices=["ua", "pa"])
    s.add_argument("--n", type=int)
    s.add_argument("--seed-tree", dest="seed_tree",
                   help="star:N | path:N | singleton | edge | edge-list file")
    s.add_argument("--out")
    s.add_argument("--sidecar", help="JSON sidecar path")
    _add_common(s)
    s.set_defaults(handler=_cmd_tree_grow)

    s = sub.add_parser("root", help="confidence-set success rate")
    s.add_argument("--model", choices=["ua", "pa"])
    s.add_argument("--n", type=int)
    s.add_argument("--epsilon", type=float)
    s.add_argument("--k-set", dest="k_set", type=int,
                   help="explicit confidence-set size (overrides --epsilon)")
    s.add_argument("--c", type=float, help="constant for the pa size bound")
    s.add_argument("--scoring", choices=["root", "either_endpoint"])
    s.add_argument("--seed-tree", dest="seed_tree")
    _add_common(s, replicas=True)
    s.set_defaults(handler=_cmd_tree_root)

    s = sub.add_parser("seedtest", help="statistic separation between seeds")
    s.add_argument("--model", choices=["ua", "pa"])
    s.add_argument("--n", type=int)
    s.add_argument("--seed-a", dest="seed_a", help="star:N | path:N | file")
    s.add_argument("--seed-b", dest="seed_b", help="star:N | path:N | file")
    _add_common(s, replicas=True, csv=True)
    s.set_defaults(handler=_cmd_tree_seedtest)

    # --- mc
    p_mc = top.add_parser("mc", help="generic power / TV experiments")
    sub = p_mc.add_subparsers(dest="cmd")

    s = sub.add_parser("power", help="threshold-test power and size")
    s.add_argument("--pair", choices=["geom", "wishart"])
    s.add_argument("--n", type=int)
    s.add_argument("--p", type=float)
    s.add_argument("--d", type=int)
    s.add_argument("--stat", choices=["tau", "t", "tr3"])
    s.add_argument("--entry-dist", dest="entry_dist",
                   choices=list(geom.ENTRY_DISTS))
    _add_common(s, replicas=True, jobs=True, csv=True)
    s.set_defaults(handler=_cmd_mc_power)

    s = sub.add_parser("tv", help="statistic-induced TV lower bound")
    s.add_argument("--pair", choices=["geom", "wishart"])
    s.add_argument("--n", type=int)
    s.add_argument("--p", type=float)
    s.add_argument("--d", type=int)
    s.add_argument("--stat", choices=["tau", "t", "tr3"])
    s.add_argument("--entry-dist", dest="entry_dist",
                   choices=list(geom.ENTRY_DISTS))
    _add_common(s, replicas=True, jobs=True, csv=True)
    s.set_defaults(handler=_cmd_mc_tv)

    return parser


if __name__ == "__main__":
    sys.exit(main())
