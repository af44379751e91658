"""Command-line surface for reproducible experiments.

Every invocation prints exactly one JSON record to stdout embedding
{seed, replicas, version, parameters, result}; sample dumps go to CSV
side files via --csv.  Seeds are never defaulted: commands that consume
randomness fail with exit code 2 unless --seed (or a config entry)
supplies one.  Exit codes: 0 success, 1 runtime failure, 2 bad arguments.

Each command is one row of COMMANDS.  A row declares its flags once; the
same declarations build the argparse tree and check --config values.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, geom, sbm, trees, urns
from .graphcore import (Graph, RngStream, Tree, parse_edge_list,
                        serialize_edge_list)
from .harness import (binomial_se, ks_distance, power_from_samples,
                      replicate, tv_lower_bound, two_arm)

VERSION = f"netinfer-{__version__}"

KS_PASS_THRESHOLD = 0.05  # engineering choice for limit-law checks


class UsageError(Exception):
    """Bad or missing arguments discovered after parsing (exit code 2)."""


class Flag(NamedTuple):
    """One option of one command; its dest is also its --config key."""

    dest: str
    type: Callable = str
    help: str | None = None
    choices: tuple | None = None
    default: object = None
    required: bool = False
    option: str | None = None  # only where it is not --dest-with-dashes

    @property
    def name(self) -> str:
        return self.option or "--" + self.dest.replace("_", "-")


class Command(NamedTuple):
    """One subcommand.  run takes the resolved options and returns the
    record's (parameters, result), or (parameters, result, replicas)."""

    name: str
    help: str
    flags: tuple
    run: Callable[[argparse.Namespace], tuple]
    floor: int | None = None  # least --replicas accepted


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed; 0 for --help, 2 for errors
        return int(exc.code or 0)
    if not hasattr(args, "command"):
        parser.print_help()
        return 2
    try:
        _resolve(args)
        record = _record(args, *args.command.run(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise
    except Exception as exc:  # malformed files, bad parameter combos, IO
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_json(record) + "\n")
    return 0


# ---------------------------------------------------------------------------
# option plumbing


def _resolve(args: argparse.Namespace) -> None:
    """Set each flag left unset on the command line from --config, else
    from its default; then apply the checks every command shares."""
    command, config = args.command, {}
    if args.config is not None:
        with open(args.config, "r", encoding="ascii") as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise UsageError("--config must hold a JSON object")
    for flag in command.flags:
        value = getattr(args, flag.dest)
        if value is None and config.get(flag.dest) is not None:
            value = _config_value(flag, config[flag.dest])
        if value is None:
            if flag.required:
                raise UsageError(f"{flag.name} is required")
            value = flag.default
        setattr(args, flag.dest, value)
    if hasattr(args, "seed"):
        try:
            RngStream(args.seed)
        except ValueError as exc:  # out of [0, 2^64) would alias another seed
            raise UsageError(f"--seed: {exc}") from None
    if command.floor is not None and args.replicas < command.floor:
        raise UsageError(f"--replicas must be at least {command.floor}")
    if getattr(args, "jobs", 1) < 1:
        raise UsageError("--jobs must be positive")


# what a --config value may hold besides a string, by flag type; lists
# feed the list-valued string flags (--counts, --q-matrix, ...)
_CONFIG_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
                 str: (list, "a string or list")}


def _config_value(flag: Flag, value):
    """A --config value held to its flag's type and choices.  Strings are
    parsed as on the command line; a float or bool is never an integer."""
    allowed, kind = _CONFIG_TYPES[flag.type]
    if isinstance(value, str):
        try:
            value = flag.type(value)
        except ValueError:
            raise UsageError(f"{flag.name}: --config value {value!r} is not "
                             f"{kind}") from None
    elif isinstance(value, bool) or not isinstance(value, allowed):
        raise UsageError(f"{flag.name}: --config value {value!r} is not {kind}")
    elif flag.type is float:
        value = float(value)
    if flag.choices is not None and value not in flag.choices:
        raise UsageError(f"{flag.name}: --config value {value!r} is not one "
                         f"of {', '.join(flag.choices)}")
    return value


def _need(args: argparse.Namespace, dest: str):
    """The value of a flag that only some settings of the others require."""
    if getattr(args, dest) is None:
        raise UsageError(f"--{dest.replace('_', '-')} is required")
    return getattr(args, dest)


def _text(value) -> str:
    """A list from --config as its command-line text, so that it is parsed
    and refused (a fraction, a boolean) like the flag itself."""
    return value if isinstance(value, str) else ",".join(map(str, value))


def _int_list(value) -> list:
    return [int(p) for p in _text(value).replace(",", " ").split()]


def _float_pair_matrix(value) -> list:
    """Rows separated by ';', entries by ','; also accepts nested lists."""
    if not isinstance(value, str):
        value = ";".join(",".join(map(str, row)) for row in value)
    return [[float(x) for x in row.split(",")] for row in value.split(";")]


def _record(args, parameters: dict, result: dict, replicas=None) -> dict:
    seed = getattr(args, "seed", None)
    if replicas is None:
        replicas = getattr(args, "replicas", None)
    return {"command": args.command.name, "version": VERSION,
            "seed": seed, "replicas": replicas,
            "parameters": parameters, "result": result}


def _plain(value):
    """JSON encoder hook: numpy arrays and scalars as lists and numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json(value, indent=None) -> str:
    return json.dumps(value, sort_keys=True, indent=indent, default=_plain)


def _csv(header: str, values) -> str:
    """One value per line; str of a Python float is its shortest repr."""
    return "".join(f"{line}\n" for line in [header, *values])


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_edge_list(fh.read())


# ---------------------------------------------------------------------------
# two-arm commands: a null sample against an alternative sample


def _draw_arms(args, arms: tuple) -> tuple:
    """Both samples of arms = (null_fn, alt_fn, statistic, null name, alt
    name), drawn with two_arm; --csv writes each to its own side file,
    <root>_null<ext> and <root>_alt<ext>."""
    null_fn, alt_fn, stat, *names = arms
    samples = two_arm(null_fn, alt_fn, args.replicas, RngStream(args.seed),
                      jobs=getattr(args, "jobs", 1))
    if args.csv is not None:
        root, ext = os.path.splitext(args.csv)
        for suffix, name, vals in zip(("_null", "_alt"), names, samples):
            _write(root + suffix + (ext or ".csv"),
                   _csv(f"{stat},{name}", vals.tolist()))
    return samples


def _model_arms(args, pair: str, stat: str) -> tuple:
    """Statistic of one replica under G(n, p) and G(n, p, d), or under the
    GOE and Wishart kinds that the statistic compares."""
    n, p, d = args.n, getattr(args, "p", None), args.d
    if pair == "geom":
        return (geom.graph_replica(n, p, stat),
                geom.graph_replica(n, p, stat, d), stat, "er", "rgg")
    kinds = {"tr3": ("goe_nodiag", "wishart_scaled_nodiag"),
             "tau": ("goe_shifted", "wishart")}[stat]
    return (*(geom.matrix_replica(n, d, args.entry_dist, kind, stat)
              for kind in kinds), stat, *kinds)


def _power_fields(null_vals, alt_vals) -> dict:
    return dict(vars(power_from_samples(null_vals, alt_vals)))


def _target(args, d, stream: RngStream) -> tuple:
    """The graph to classify: the --in file, else a fresh G(n, p, d)."""
    if args.in_path is not None:
        return _read_graph(args.in_path), args.in_path
    return geom.sample_rgg(args.n, args.p, d, stream), "sampled-rgg"


def _run_geom_detect(args) -> tuple:
    params = {"n": args.n, "p": args.p, "d": args.d}
    fields = _power_fields(*_draw_arms(args, _model_arms(args, "geom", "tau")))
    target, target_src = _target(
        args, args.d, RngStream(args.seed).substream(2 * args.replicas))
    detection = geom.detect_geometry(target, args.n, args.p,
                                     fields["threshold"])
    calibration = {key: fields.pop(key) for key in
                   ("threshold", "mean_null", "mean_alt", "sd_null", "sd_alt")}
    result = {**params, **fields, "model": "er-vs-rgg", "statistic": "tau",
              "verdict": detection.verdict, "stat_value": detection.statistic,
              "target": target_src,
              "calibration": {**calibration, "replicas": args.replicas}}
    return {**params, "jobs": args.jobs}, result


def _run_wishart_compare(args) -> tuple:
    arms = _model_arms(args, "wishart", args.stat)
    null_vals, alt_vals = _draw_arms(args, arms)
    params = {"n": args.n, "d": args.d, "entry_dist": args.entry_dist}
    result = {**params, **_power_fields(null_vals, alt_vals),
              "statistic": args.stat, "null_kind": arms[3],
              "alt_kind": arms[4],
              "log_concave_entries": args.entry_dist != "rademacher",
              "tv_lower_bound": tv_lower_bound(null_vals, alt_vals)}
    return {**params, "stat": args.stat, "jobs": args.jobs}, result


def _run_tree_seedtest(args) -> tuple:
    def arm(seed_tree):
        tree = _parse_seed_tree(seed_tree)
        return lambda s: float(trees.max_degree(
            trees.grow(args.model, args.n, s, seed=tree)).degree)
    vals_a, vals_b = _draw_arms(args, (arm(args.seed_a), arm(args.seed_b),
                                       "max_degree", "seed_a", "seed_b"))
    params = {"model": args.model, "n": args.n, "seed_a": args.seed_a,
              "seed_b": args.seed_b}
    result = {**params, "statistic": "max_degree", "replicas": args.replicas,
              "mean_a": float(vals_a.mean()), "mean_b": float(vals_b.mean()),
              "ks": ks_distance(vals_a, vals_b),
              "tv_lower_bound": tv_lower_bound(vals_a, vals_b)}
    return params, result


def _mc_samples(args) -> tuple:
    """An mc command's parameters, the result fields that mc power and mc
    tv share, and the two samples, once --stat is checked against --pair."""
    if args.pair == "geom":
        _need(args, "p")
        if args.stat == "tr3":
            raise UsageError("--stat must be tau or t for the geom pair")
    elif args.stat != "tr3":
        raise UsageError("--stat must be tr3 for the wishart pair")
    arms = _model_arms(args, args.pair, args.stat)
    params = {"pair": args.pair, "n": args.n, "d": args.d, "stat": args.stat,
              "jobs": args.jobs, **({"p": args.p} if args.pair == "geom"
                                    else {"entry_dist": args.entry_dist})}
    shared = {"null": arms[3], "alt": arms[4], "statistic": args.stat}
    return params, shared, *_draw_arms(args, arms)


def _run_mc_power(args) -> tuple:
    params, shared, null_vals, alt_vals = _mc_samples(args)
    return params, {**shared, **_power_fields(null_vals, alt_vals),
                    "uncertainty_note": "standard errors are binomial; +/-3 "
                                        "se is the reporting convention"}


def _run_mc_tv(args) -> tuple:
    params, shared, null_vals, alt_vals = _mc_samples(args)
    return params, {**shared,
                    "tv_lower_bound": tv_lower_bound(null_vals, alt_vals),
                    "ks": ks_distance(null_vals, alt_vals),
                    "mean_null": float(null_vals.mean()),
                    "mean_alt": float(alt_vals.mean()),
                    "note": "statistic-induced events lower-bound the model "
                            "TV (data processing)"}


# ---------------------------------------------------------------------------
# sbm


def _sbm_params(args) -> sbm.SbmParams:
    p, Q = args.p_vector, args.q_matrix
    if p is not None or Q is not None:
        if p is None or Q is None:
            raise UsageError("p_vector and q_matrix must be given together")
        p = [float(x) for x in _text(p).split(",")]
        return sbm.SbmParams(k=len(p), p=np.asarray(p),
                             Q=np.asarray(_float_pair_matrix(Q)),
                             regime=args.regime)
    return sbm.SbmParams.symmetric(_need(args, "k"), _need(args, "a"),
                                   _need(args, "b"), regime=args.regime)


def _run_sbm_gen(args) -> tuple:
    params = _sbm_params(args)
    lg = sbm.sample_sbm(args.n, params, RngStream(args.seed))
    _write(args.out, serialize_edge_list(lg.graph))
    if args.labels_out is not None:
        _write(args.labels_out, _json({"labels": lg.labels}))
    result = {"n": args.n, "edges": lg.graph.m, "out": args.out,
              "labels_out": args.labels_out}
    return {**vars(params), "n": args.n}, result


def _run_sbm_chd(args) -> tuple:
    params = _sbm_params(args)
    sol = dict(vars(sbm.exact_recovery_solvable(params)))
    profiles = sbm.community_profiles(params)
    test = sbm.ch_divergence(*(profiles[i] for i in sol["min_pair"]))
    del sol["min_value"]
    return vars(params), {**sol, "d_plus": test.d_plus, "t_star": test.t_star}


def _run_sbm_solvable(args) -> tuple:
    params = _sbm_params(args)
    return vars(params), vars(sbm.exact_recovery_solvable(params))


def _run_sbm_partition(args) -> tuple:
    params = _sbm_params(args)
    blocks = sbm.finest_partition(params)
    return vars(params), {"blocks": blocks, "num_blocks": len(blocks)}


def _run_sbm_recover(args) -> tuple:
    params, replicas = _sbm_params(args), args.replicas

    def accuracy(s: RngStream) -> float:
        lg = sbm.sample_sbm(args.n, params, s)
        recovered = sbm.genie_recover(lg, params, args.corruption, args.rounds,
                                      s.substream(replicas))
        return float((recovered == lg.labels).mean())
    accuracies = replicate(accuracy, replicas, RngStream(args.seed))
    rate = float((accuracies == 1.0).mean())
    settings = {"corruption": args.corruption, "rounds": args.rounds}
    result = {"mean_accuracy": float(accuracies.mean()), "exact_rate": rate,
              "exact_se": binomial_se(rate, replicas), **settings}
    return {**vars(params), "n": args.n, **settings}, result


# ---------------------------------------------------------------------------
# geom, wishart


def _run_geom_gen(args) -> tuple:
    params = {"n": args.n, "p": args.p, "d": args.d}
    if args.d is None:
        g, model = geom.sample_er(args.n, args.p, RngStream(args.seed)), "er"
    else:
        g = geom.sample_rgg(args.n, args.p, args.d, RngStream(args.seed))
        model = "rgg"
    _write(args.out, serialize_edge_list(g))
    return params, {**params, "model": model, "edges": g.m, "out": args.out}


def _table_key(n: int, p: float, d: int) -> str:
    return f"{n},{float(p)!r},{d}"


def _load_table(path: str | None) -> dict:
    if path is None or not os.path.exists(path):
        return {}
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def _run_geom_calibrate(args) -> tuple:
    params = {"n": args.n, "p": args.p, "d": args.d}
    cal = geom.calibrate_tau(args.n, args.p, args.d, args.replicas,
                             RngStream(args.seed))
    entry = {"mean_er": cal.mean_null, "mean_geo": cal.mean_alt,
             "sd_er": cal.sd_null, "sd_geo": cal.sd_alt,
             "tau_threshold": cal.threshold, "statistic": "tau",
             "replicas": args.replicas, "seed": args.seed}
    if args.table is not None:
        table = _load_table(args.table)
        table[_table_key(args.n, args.p, args.d)] = entry
        _write(args.table, _json(table, indent=2))
    return params, {**params, "calibration": entry, "table": args.table}


def _run_geom_dimest(args) -> tuple:
    if args.in_path is None and args.true_d is None:
        raise UsageError("need --in or --true-d for the target graph")
    n, p, replicas = args.n, args.p, args.replicas
    cands = sorted(set(_int_list(args.candidates)))
    rng = RngStream(args.seed)
    table = _load_table(args.table)
    means: dict[int, float] = {}
    reused: dict[str, dict] = {}
    for idx, cand in enumerate(cands):
        key = _table_key(n, p, cand)
        if key in table:
            means[cand] = float(table[key]["mean_geo"])
            reused[str(cand)] = {k: table[key].get(k)
                                 for k in ("seed", "replicas")}
            continue
        vals = replicate(geom.graph_replica(n, p, "tau", cand), replicas,
                         rng.substream(idx * replicas), jobs=args.jobs)
        means[cand] = float(vals.mean())
        table[key] = {"statistic": "tau", "mean_geo": means[cand],
                      "replicas": replicas, "seed": args.seed}
    if args.table is not None and len(reused) < len(cands):
        _write(args.table, _json(table, indent=2))
    target, target_src = _target(args, args.true_d,
                                 rng.substream(len(cands) * replicas))
    result = {"d_hat": geom.estimate_dimension(target, n, p, cands, means),
              "candidates": cands, "true_d": args.true_d,
              "target": target_src, "statistic": "tau",
              "stat_value": geom.signed_triangle_stat(target, p),
              "calibrated_means": {str(c): means[c] for c in cands},
              "reused_from_table": reused, "table": args.table}
    return ({"n": n, "p": p, "candidates": cands, "true_d": args.true_d,
             "jobs": args.jobs}, result)


def _run_geom_sparse(args) -> tuple:
    params = {"n": args.n, "c": args.c, "d": args.d}
    res = geom.sparse_triangle_experiment(args.n, args.c, args.d,
                                          args.replicas, RngStream(args.seed))
    result = {**params, "mean_T_er": res.mean_null, "mean_T_geo": res.mean_alt,
              "power": res.power, "size": res.size,
              "threshold": res.threshold, "statistic": "triangle-count",
              "note": "sparse-regime separation is reported, not asserted"}
    return params, result


def _run_wishart_sample(args) -> tuple:
    replicas, csv = args.replicas, args.csv
    params = {"n": args.n, "d": args.d, "kind": args.kind,
              "entry_dist": args.entry_dist}
    vals = replicate(geom.matrix_replica(args.n, args.d, args.entry_dist,
                                         args.kind, "tr3"),
                     replicas, RngStream(args.seed), jobs=args.jobs)
    if csv is not None:
        _write(csv, _csv(f"tr_cubed,{args.kind}", vals.tolist()))
    sd = float(vals.std(ddof=1)) if replicas > 1 else None
    result = {**params, "statistic": "tr_cubed", "csv": csv,
              "log_concave_entries": args.entry_dist != "rademacher",
              "mean": float(vals.mean()), "sd": sd,
              "se": None if sd is None else sd / math.sqrt(replicas)}
    return {**params, "jobs": args.jobs}, result


# ---------------------------------------------------------------------------
# urn


def _parse_replacement(value, m: int) -> np.ndarray:
    if value is None or value == "identity":
        return np.eye(m, dtype=np.int64)
    if not isinstance(value, str):
        value = json.dumps(value)
    if value.startswith("identity:"):
        return int(value.split(":", 1)[1]) * np.eye(m, dtype=np.int64)
    if value == "triangular":
        return np.asarray(urns.TRIANGULAR_REPLACEMENT)
    rows = np.asarray(json.loads(value), dtype=object)
    if any(type(x) is not int for x in rows.flat):
        raise ValueError(f"replacement entries must be integers, got {value}")
    return rows.astype(np.int64)


def _urn_state(args) -> urns.UrnState:
    counts = _int_list(args.counts)
    return urns.UrnState(np.asarray(counts),
                         _parse_replacement(args.replacement, len(counts)))


def _run_urn_run(args) -> tuple:
    state, steps = _urn_state(args), args.steps
    checkpoints = ([steps] if args.checkpoints is None
                   else _int_list(args.checkpoints))
    traj = urns.urn_run(state, steps, checkpoints, RngStream(args.seed))
    snapshots = [[int(t), row.tolist()] for t, row in
                 zip(traj.totals, traj.counts)]
    if args.csv is not None:
        header = ["total"] + [f"count_{i + 1}" for i in range(state.colors)]
        _write(args.csv, _csv(",".join(header), [",".join(map(str, [t, *row]))
                                                 for t, row in snapshots]))
    params = {"counts": state.counts, "replacement": state.replacement,
              "steps": steps, "checkpoints": list(checkpoints)}
    result = {"initial": state.counts, "replacement": state.replacement,
              "steps": steps, "snapshots": snapshots, "csv": args.csv}
    return params, result, 1  # one trajectory


def _run_urn_check(args) -> tuple:
    state, law, runs = _urn_state(args), args.law, args.runs
    rng = RngStream(args.seed)
    params = {"counts": state.counts, "replacement": state.replacement,
              "law": law, "runs": runs, "threshold": args.threshold}
    result = {"initial": state.counts, "replacement": state.replacement,
              "law": law, "runs": runs}
    if law == "triangular":
        params["n_values"] = _int_list(_need(args, "n_values"))
        scaling = urns.triangular_urn_scaling(state, params["n_values"], runs,
                                              rng)
        result.update(n_values=list(scaling.totals),
                      ks=max(scaling.ks_consecutive),
                      ks_consecutive=list(scaling.ks_consecutive),
                      means=list(scaling.means))
    else:
        params["n_final"] = _need(args, "n_final")
        check = urns.limit_law_check(state, law, args.n_final, runs, rng)
        result.update(check._asdict())
    result["pass"] = bool(result["ks"] < args.threshold)
    return params, result, runs


# ---------------------------------------------------------------------------
# tree


def _parse_seed_tree(value) -> Tree | None:
    if value is None:
        return None
    if not isinstance(value, str):
        raise UsageError("--seed-tree must be star:N, path:N, singleton, edge, "
                         "or an edge-list file")
    kind, colon, size = value.partition(":")
    if colon and kind in ("star", "path"):
        return (trees.star if kind == "star" else trees.path)(int(size))
    if value in ("singleton", "edge"):
        return Tree([-1] if value == "singleton" else [-1, 0])
    g = _read_graph(value)
    return Tree.from_edges(g.n, g.edges())


def _run_tree_grow(args) -> tuple:
    model = args.model
    seed = _parse_seed_tree(args.seed_tree) or trees.default_seed(model)
    t = trees.grow(model, args.n, RngStream(args.seed), seed=seed)
    _write(args.out, serialize_edge_list(t))
    if args.sidecar is not None:
        _write(args.sidecar, _json({"model": model, "seed_size": seed.n,
                                    "arrival_permutation": np.arange(1, t.n + 1)}))
    md = trees.max_degree(t)
    result = {"model": model, "n": args.n, "seed_size": seed.n, "edges": t.m,
              "max_degree": {"vertex": md.vertex + 1, "degree": md.degree},
              "centroid": sorted(v + 1 for v in trees.centroid(t)),
              "out": args.out, "sidecar": args.sidecar}
    return {"model": model, "n": args.n, "seed_tree": args.seed_tree}, result


def _run_tree_root(args) -> tuple:
    epsilon, seed_tree = args.epsilon, _parse_seed_tree(args.seed_tree)
    if args.k_set is not None:
        K = args.k_set
        if epsilon is not None and not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
    elif epsilon is not None:
        K = trees.required_k(args.model, epsilon, c=args.c)
    else:
        raise UsageError("need --epsilon or --k-set")
    report = trees.root_finding_success(args.model, args.n, K, args.replicas,
                                        RngStream(args.seed),
                                        scoring=args.scoring, seed=seed_tree)
    result = {**report._asdict(), "model": args.model, "n": args.n, "K": K,
              "replicas": args.replicas, "epsilon": epsilon,
              "scoring": args.scoring}
    if args.k_set is None:  # the bound belongs to the K derived from epsilon
        ua = args.model == "ua"
        result["coverage_bound"] = (1.0 - 4.0 * epsilon / (1.0 - epsilon)
                                    if ua else None)
        result["bound_note"] = (
            "asymptotic (liminf) coverage bound, checked at finite n" if ua
            else "set size uses an uncalibrated constant c in the upper bound")
    params = {"model": args.model, "n": args.n, "epsilon": epsilon, "K": K,
              "scoring": args.scoring, "c": args.c, "seed_tree": args.seed_tree}
    return params, result


# ---------------------------------------------------------------------------
# the command table


CONFIG = Flag("config", help="JSON file of option values; flags override")
SEED = Flag("seed", int, "RNG seed (required; no default)", required=True)
REPLICAS = Flag("replicas", int, "Monte Carlo replicas", required=True)
ONE_REPLICA = REPLICAS._replace(required=False, default=1)
JOBS = Flag("jobs", int, "replica-level threads; output independent of N",
            default=1)
CSV = Flag("csv", help="write sample values to CSV side file(s)")
N = Flag("n", int, required=True)
P = Flag("p", float, required=True)
D = Flag("d", int, required=True)
OUT = Flag("out", required=True)
ENTRY_DIST = Flag("entry_dist", choices=tuple(geom.ENTRY_DISTS),
                  default="gaussian")
MODEL = Flag("model", choices=("ua", "pa"), required=True)
SBM_MODEL = (
    Flag("k", int, "number of communities"),
    Flag("a", float, "within-community rate"),
    Flag("b", float, "cross-community rate"),
    Flag("regime", choices=("constant", "constant-prob", "logarithmic",
                            "linear"), default="logarithmic"),
    Flag("p_vector", help="prior as comma list (with --q-matrix)"),
    Flag("q_matrix", help="rate matrix, rows ';'-separated"),
)
URN_STATE = (
    Flag("counts", help="initial counts, comma list", required=True),
    Flag("replacement", help="identity | identity:K | triangular | JSON matrix"),
)
MC_PAIR = (
    Flag("pair", choices=("geom", "wishart"), default="geom"),
    N, P._replace(required=False), D,
    Flag("stat", choices=("tau", "t", "tr3"), default="tau"), ENTRY_DIST,
    CONFIG, SEED, REPLICAS, JOBS, CSV,
)


GROUPS = {
    "sbm": "block-model recovery experiments",
    "geom": "geometry detection experiments",
    "wishart": "random-matrix ensembles",
    "urn": "Polya urn simulations",
    "tree": "attachment trees and root finding",
    "mc": "generic power / TV experiments",
}

COMMANDS = (
    Command("sbm gen", "sample a block-model graph to a file", (
        *SBM_MODEL, N, OUT._replace(help="edge-list output path"),
        Flag("labels_out", help="JSON path for the hidden labels"),
        CONFIG, SEED), _run_sbm_gen),
    Command("sbm chd", "divergence of the closest profile pair",
            (*SBM_MODEL, CONFIG), _run_sbm_chd),
    Command("sbm solvable", "exact-recovery threshold test",
            (*SBM_MODEL, CONFIG), _run_sbm_solvable),
    Command("sbm partition", "finest recoverable partition",
            (*SBM_MODEL, CONFIG), _run_sbm_partition),
    Command("sbm recover", "genie-aided label recovery rate", (
        *SBM_MODEL, N, Flag("corruption", float, default=0.1),
        Flag("rounds", int, default=1),
        CONFIG, SEED, ONE_REPLICA), _run_sbm_recover, floor=1),
    Command("geom gen", "sample an ER or geometric graph to a file", (
        N, P, Flag("d", int, "sphere dimension; omit for ER"), OUT,
        CONFIG, SEED), _run_geom_gen),
    Command("geom detect", "calibrated geometric-vs-random verdict", (
        N, P, D, Flag("in_path", help="graph file to classify", option="--in"),
        CONFIG, SEED, REPLICAS, JOBS, CSV), _run_geom_detect, floor=100),
    Command("geom calibrate", "tau thresholds for (n, p, d)", (
        N, P, D, Flag("table", help="JSON calibration table to update"),
        CONFIG, SEED, REPLICAS), _run_geom_calibrate, floor=100),
    Command("geom dimest", "dimension estimate from tau means", (
        N, P, Flag("candidates", help="comma list of candidate dimensions",
                   required=True),
        Flag("true_d", int, "dimension of the sampled target graph"),
        Flag("in_path", help="graph file to estimate", option="--in"),
        Flag("table", help="JSON calibration table to reuse/update"),
        CONFIG, SEED, REPLICAS, JOBS), _run_geom_dimest, floor=2),
    Command("geom sparse", "triangle counts at edge probability c/n", (
        N, Flag("c", float, required=True), Flag("d", int, default=2),
        CONFIG, SEED, REPLICAS), _run_geom_sparse, floor=2),
    Command("wishart sample", "tr(A^3) samples from one ensemble", (
        N, D, Flag("kind", choices=tuple(geom.WISHART_KINDS),
                   default="wishart_scaled_nodiag"), ENTRY_DIST,
        CONFIG, SEED, ONE_REPLICA, JOBS, CSV), _run_wishart_sample, floor=1),
    Command("wishart compare", "Wishart vs GOE separation", (
        N, D, ENTRY_DIST, Flag("stat", choices=("tr3", "tau"), default="tr3"),
        CONFIG, SEED, REPLICAS, JOBS, CSV), _run_wishart_compare, floor=100),
    Command("urn run", "one trajectory with checkpoints", (
        *URN_STATE, Flag("steps", int, required=True),
        Flag("checkpoints", help="comma list of draw indices"),
        CONFIG, SEED, CSV), _run_urn_run),
    Command("urn check", "limit-law KS check over an ensemble", (
        *URN_STATE, Flag("law", choices=("beta", "dirichlet", "dirichlet_scaled",
                                         "triangular"), required=True),
        Flag("n_final", int, "terminal total ball count"),
        Flag("n_values", help="comma list of totals (triangular law)"),
        Flag("runs", int, required=True),
        Flag("threshold", float,
             f"KS pass threshold (default {KS_PASS_THRESHOLD})",
             default=KS_PASS_THRESHOLD),
        CONFIG, SEED), _run_urn_check),
    Command("tree grow", "grow one tree to a file (+ sidecar)", (
        MODEL, N, Flag("seed_tree", help="star:N | path:N | singleton | edge "
                                         "| edge-list file"),
        OUT, Flag("sidecar", help="JSON sidecar path"),
        CONFIG, SEED), _run_tree_grow),
    Command("tree root", "confidence-set success rate", (
        MODEL, N, Flag("epsilon", float),
        Flag("k_set", int, "explicit confidence-set size (overrides --epsilon)"),
        Flag("c", float, "constant for the pa size bound", default=1.0),
        Flag("scoring", choices=("root", "either_endpoint"), default="root"),
        Flag("seed_tree"),
        CONFIG, SEED, REPLICAS), _run_tree_root, floor=1),
    Command("tree seedtest", "statistic separation between seeds", (
        MODEL, N, Flag("seed_a", help="star:N | path:N | file", required=True),
        Flag("seed_b", help="star:N | path:N | file", required=True),
        CONFIG, SEED, REPLICAS, CSV), _run_tree_seedtest, floor=2),
    Command("mc power", "threshold-test power and size", MC_PAIR,
            _run_mc_power, floor=100),
    Command("mc tv", "statistic-induced TV lower bound", MC_PAIR,
            _run_mc_tv, floor=2),
)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The whole parser tree, built from COMMANDS once per process, since
    building it costs more than many commands do."""
    parser = argparse.ArgumentParser(
        prog="netinfer",
        description="Reproducible network-model experiments; one JSON record "
                    "per invocation on stdout.")
    parser.add_argument("--version", action="version", version=VERSION)
    top = parser.add_subparsers(dest="group")
    groups = {group: top.add_parser(group, help=text).add_subparsers(dest="cmd")
              for group, text in GROUPS.items()}
    for command in COMMANDS:
        group, name = command.name.split()
        sub = groups[group].add_parser(name, help=command.help)
        for flag in command.flags:
            sub.add_argument(flag.name, dest=flag.dest, type=flag.type,
                             choices=flag.choices, help=flag.help)
        sub.set_defaults(command=command)
    return parser


if __name__ == "__main__":
    sys.exit(main())
