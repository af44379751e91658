"""The CLI built from its command table: the flag surface is pinned,
--config values are checked like flags, and the records of the README
commands and the CSV pairs of the two-arm commands hold what the library
returns at the same seed.

Commands run in-process through cli.main at small sizes.
"""

import argparse
import json
import os

import pytest

import oracles
from netinfer import cli, geom, sbm, trees
from netinfer.graphcore import RngStream, serialize_edge_list
from netinfer.harness import power_from_samples, replicate, tv_lower_bound, two_arm

# Option strings, dest and choices of every subcommand, in declaration
# order, as "--option:dest{choice,...}"; recorded from the hand-written
# parser the command table replaced.
FLAG_SURFACE = {
    "sbm gen": (
        "--k:k --a:a --b:b "
        "--regime:regime{constant,constant-prob,logarithmic,linear} "
        "--p-vector:p_vector --q-matrix:q_matrix --n:n --out:out "
        "--labels-out:labels_out --config:config --seed:seed"
    ),
    "sbm chd": (
        "--k:k --a:a --b:b "
        "--regime:regime{constant,constant-prob,logarithmic,linear} "
        "--p-vector:p_vector --q-matrix:q_matrix --config:config"
    ),
    "sbm solvable": (
        "--k:k --a:a --b:b "
        "--regime:regime{constant,constant-prob,logarithmic,linear} "
        "--p-vector:p_vector --q-matrix:q_matrix --config:config"
    ),
    "sbm partition": (
        "--k:k --a:a --b:b "
        "--regime:regime{constant,constant-prob,logarithmic,linear} "
        "--p-vector:p_vector --q-matrix:q_matrix --config:config"
    ),
    "sbm recover": (
        "--k:k --a:a --b:b "
        "--regime:regime{constant,constant-prob,logarithmic,linear} "
        "--p-vector:p_vector --q-matrix:q_matrix --n:n "
        "--corruption:corruption --rounds:rounds --config:config "
        "--seed:seed --replicas:replicas"
    ),
    "geom gen": (
        "--n:n --p:p --d:d --out:out --config:config --seed:seed"
    ),
    "geom detect": (
        "--n:n --p:p --d:d --in:in_path --config:config --seed:seed "
        "--replicas:replicas --jobs:jobs --csv:csv"
    ),
    "geom calibrate": (
        "--n:n --p:p --d:d --table:table --config:config --seed:seed "
        "--replicas:replicas"
    ),
    "geom dimest": (
        "--n:n --p:p --candidates:candidates --true-d:true_d --in:in_path "
        "--table:table --config:config --seed:seed --replicas:replicas "
        "--jobs:jobs"
    ),
    "geom sparse": (
        "--n:n --c:c --d:d --config:config --seed:seed --replicas:replicas"
    ),
    "wishart sample": (
        "--n:n --d:d "
        "--kind:kind{wishart,goe_shifted,wishart_scaled_nodiag,goe_nodiag} "
        "--entry-dist:entry_dist{gaussian,uniform-scaled,rademacher} "
        "--config:config --seed:seed --replicas:replicas --jobs:jobs "
        "--csv:csv"
    ),
    "wishart compare": (
        "--n:n --d:d "
        "--entry-dist:entry_dist{gaussian,uniform-scaled,rademacher} "
        "--stat:stat{tr3,tau} --config:config --seed:seed "
        "--replicas:replicas --jobs:jobs --csv:csv"
    ),
    "urn run": (
        "--counts:counts --replacement:replacement --steps:steps "
        "--checkpoints:checkpoints --config:config --seed:seed --csv:csv"
    ),
    "urn check": (
        "--counts:counts --replacement:replacement "
        "--law:law{beta,dirichlet,dirichlet_scaled,triangular} "
        "--n-final:n_final --n-values:n_values --runs:runs "
        "--threshold:threshold --config:config --seed:seed"
    ),
    "tree grow": (
        "--model:model{ua,pa} --n:n --seed-tree:seed_tree --out:out "
        "--sidecar:sidecar --config:config --seed:seed"
    ),
    "tree root": (
        "--model:model{ua,pa} --n:n --epsilon:epsilon --k-set:k_set --c:c "
        "--scoring:scoring{root,either_endpoint} --seed-tree:seed_tree "
        "--config:config --seed:seed --replicas:replicas"
    ),
    "tree seedtest": (
        "--model:model{ua,pa} --n:n --seed-a:seed_a --seed-b:seed_b "
        "--config:config --seed:seed --replicas:replicas --csv:csv"
    ),
    "mc power": (
        "--pair:pair{geom,wishart} --n:n --p:p --d:d --stat:stat{tau,t,tr3} "
        "--entry-dist:entry_dist{gaussian,uniform-scaled,rademacher} "
        "--config:config --seed:seed --replicas:replicas --jobs:jobs "
        "--csv:csv"
    ),
    "mc tv": (
        "--pair:pair{geom,wishart} --n:n --p:p --d:d --stat:stat{tau,t,tr3} "
        "--entry-dist:entry_dist{gaussian,uniform-scaled,rademacher} "
        "--config:config --seed:seed --replicas:replicas --jobs:jobs "
        "--csv:csv"
    ),
}


def _describe(action: argparse.Action) -> str:
    text = "/".join(action.option_strings) + ":" + action.dest
    if action.choices is not None:
        text += "{" + ",".join(action.choices) + "}"
    return text


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_flag_surface_matches_the_former_parser():
    surface = {}
    for group, group_parser in _subparsers(cli._build_parser()).items():
        for name, parser in _subparsers(group_parser).items():
            surface[f"{group} {name}"] = " ".join(
                _describe(a) for a in parser._actions
                if a.option_strings and a.dest != "help")
    assert surface == FLAG_SURFACE


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record(capsys, *argv) -> dict:
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ----------------------------------------------------------- --config checks

ROOT = ("tree", "root", "--model", "ua", "--n", "50", "--k-set", "3")


@pytest.mark.parametrize("argv,config,flag", [
    (ROOT + ("--replicas", "2"), {"seed": 12345678901234567890.0}, "--seed"),
    (ROOT + ("--replicas", "2"), {"seed": 7.9}, "--seed"),
    (ROOT + ("--seed", "1"), {"replicas": 2.5}, "--replicas"),
    (ROOT + ("--replicas", "2"), {"seed": True}, "--seed"),
    (ROOT + ("--replicas", "2"), {"seed": "abc"}, "--seed"),
    (("sbm", "chd", "--k", "2", "--a", "9", "--b", "1"), {"regime": "bogus"},
     "--regime"),
], ids=["huge-float-seed", "fractional-seed", "fractional-replicas",
        "bool-seed", "string-seed", "unknown-choice"])
def test_config_values_are_checked_like_flags(capsys, tmp_path, argv, config,
                                              flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}: --config value")


URN = ("urn", "check", "--law", "beta", "--n-final", "50", "--runs", "20",
       "--seed", "1")
DIMEST = ("geom", "dimest", "--n", "16", "--p", "0.5", "--true-d", "2",
          "--replicas", "20", "--seed", "6")


@pytest.mark.parametrize("argv,config", [
    (URN, {"counts": [1.5, 1]}),
    (URN, {"counts": [True, 1]}),
    (DIMEST, {"candidates": [2.9, 8]}),
    (URN + ("--counts", "1,1", "--replacement", "[[1.5,0],[0,1]]"), {}),
    (URN + ("--counts", "1,1", "--replacement", "[[true,0],[0,1]]"), {}),
    (URN + ("--counts", "1,1"), {"replacement": [[1.5, 0], [0, 1]]}),
    (("sbm", "gen", "--n", "100", "--q-matrix", "2", "--seed", "1", "--out",
      "g.txt"), {"p_vector": [True]}),
    (("sbm", "chd", "--p-vector", "0.5,0.5"), {"q_matrix": [[9, True], [True, 9]]}),
], ids=["fractional-count", "bool-count", "fractional-candidate",
        "fractional-replacement", "bool-replacement",
        "config-fractional-replacement", "bool-prior", "bool-rate"])
def test_list_values_are_never_truncated(capsys, tmp_path, monkeypatch, argv,
                                         config):
    """A list entry that its flag's command-line text would refuse (a
    fraction where an integer is due, a boolean) exits 1, from --config as
    on the command line, instead of running on a rounded input."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code, out, err = run(capsys, *argv, "--config", "cfg.json")
    assert code == 1 and out == "", err
    assert err.startswith("error: ")
    assert not (tmp_path / "g.txt").exists()


# ----------------------------------------------------------- CLI <-> library


def test_sbm_chd_record_equals_library(capsys):
    res = record(capsys, "sbm", "chd", "--k", "3", "--a", "12", "--b", "2")["result"]
    params = sbm.SbmParams.symmetric(3, 12.0, 2.0)
    sol = sbm.exact_recovery_solvable(params)
    profiles = sbm.community_profiles(params)
    test = sbm.ch_divergence(*(profiles[i] for i in sol.min_pair))
    assert (res["d_plus"], res["t_star"]) == (test.d_plus, test.t_star)
    assert res["solvable"] == sol.solvable and res["boundary"] == sol.boundary
    assert res["min_pair"] == list(sol.min_pair)


def test_sbm_gen_record_equals_library(capsys, tmp_path):
    out, labels = tmp_path / "g.txt", tmp_path / "labels.json"
    res = record(capsys, "sbm", "gen", "--k", "2", "--a", "6", "--b", "1",
                 "--n", "60", "--seed", "7", "--out", str(out),
                 "--labels-out", str(labels))["result"]
    lg = sbm.sample_sbm(60, sbm.SbmParams.symmetric(2, 6.0, 1.0), RngStream(7))
    assert res["edges"] == lg.graph.m
    assert out.read_text() == serialize_edge_list(lg.graph)
    assert json.loads(labels.read_text())["labels"] == lg.labels.tolist()


def _tau_arm(n, p, d=None):
    if d is None:
        return lambda s: geom.signed_triangle_stat(geom.sample_er(n, p, s), p)
    return lambda s: geom.signed_triangle_stat(geom.sample_rgg(n, p, d, s), p)


def _power_fields(report) -> dict:
    return {"power": report.power, "size": report.size,
            "power_se": report.power_se, "size_se": report.size_se,
            "threshold": report.threshold,
            "mean_null": report.mean_null, "mean_alt": report.mean_alt,
            "sd_null": report.sd_null, "sd_alt": report.sd_alt}


def test_geom_detect_record_equals_library(capsys):
    res = record(capsys, "geom", "detect", "--n", "20", "--p", "0.5",
                 "--d", "3", "--replicas", "100", "--seed", "4")["result"]
    report = power_from_samples(*two_arm(_tau_arm(20, 0.5), _tau_arm(20, 0.5, 3),
                                         100, RngStream(4)))
    target = geom.sample_rgg(20, 0.5, 3, RngStream(4).substream(200))
    stat = geom.signed_triangle_stat(target, 0.5)
    expect = _power_fields(report)
    calibration = {k: expect.pop(k) for k in
                   ("threshold", "mean_null", "mean_alt", "sd_null", "sd_alt")}
    assert {k: res[k] for k in expect} == expect
    assert res["calibration"] == {**calibration, "replicas": 100}
    assert res["verdict"] == ("geometric" if stat >= report.threshold
                              else "random")
    assert res["stat_value"] == stat


def test_geom_dimest_record_equals_library(capsys):
    res = record(capsys, "geom", "dimest", "--n", "16", "--p", "0.5",
                 "--candidates", "4,2", "--true-d", "2", "--replicas", "20",
                 "--seed", "6")["result"]
    rng = RngStream(6)
    means = {d: float(replicate(_tau_arm(16, 0.5, d), 20,
                                rng.substream(i * 20)).mean())
             for i, d in enumerate([2, 4])}
    target = geom.sample_rgg(16, 0.5, 2, rng.substream(40))
    assert res["calibrated_means"] == {str(d): m for d, m in means.items()}
    stat = geom.signed_triangle_stat(target, 0.5)
    assert res["d_hat"] == geom.estimate_dimension(stat, [2, 4], means)
    assert res["stat_value"] == stat


def test_geom_calibrate_record_and_table_equal_library(capsys, tmp_path):
    # the CLI names the PowerReport fields of calibrate_tau for the table
    table = tmp_path / "cal.json"
    res = record(capsys, "geom", "calibrate", "--n", "16", "--p", "0.5",
                 "--d", "3", "--replicas", "100", "--seed", "5",
                 "--table", str(table))["result"]
    report = geom.calibrate_tau(16, 0.5, 3, 100, RngStream(5))
    entry = {"mean_er": report.mean_null, "mean_geo": report.mean_alt,
             "sd_er": report.sd_null, "sd_geo": report.sd_alt,
             "tau_threshold": report.threshold, "statistic": "tau",
             "replicas": 100, "seed": 5}
    assert res["calibration"] == entry
    assert json.loads(table.read_text()) == {"16,0.5,3": entry}


def test_geom_sparse_record_equals_library(capsys):
    res = record(capsys, "geom", "sparse", "--n", "400", "--c", "3",
                 "--d", "2", "--replicas", "50", "--seed", "9")["result"]
    report = geom.sparse_triangle_experiment(400, 3.0, 2, 50, RngStream(9))
    expect = {"n": 400, "c": 3.0, "d": 2, "mean_T_er": report.mean_null,
              "mean_T_geo": report.mean_alt, "power": report.power,
              "size": report.size, "threshold": report.threshold,
              "statistic": "triangle-count"}
    assert {k: res[k] for k in expect} == expect


def test_wishart_compare_record_equals_library(capsys):
    res = record(capsys, "wishart", "compare", "--n", "8", "--d", "16",
                 "--stat", "tau", "--replicas", "100", "--seed", "9")["result"]

    def arm(kind):
        return lambda s: geom.signed_triangle_stat(geom.h_map(
            geom.sample_wishart(8, 16, kind=kind, rng=s)), 0.5)
    null_vals, alt_vals = two_arm(arm("goe_shifted"), arm("wishart"), 100,
                                  RngStream(9))
    expect = _power_fields(power_from_samples(null_vals, alt_vals))
    assert {k: res[k] for k in expect} == expect
    assert res["tv_lower_bound"] == tv_lower_bound(null_vals, alt_vals)


def test_tree_root_record_equals_library(capsys):
    res = record(capsys, "tree", "root", "--model", "ua", "--n", "60",
                 "--epsilon", "0.3", "--replicas", "20", "--seed", "7")["result"]
    K = trees.required_k("ua", 0.3)
    report = trees.root_finding_success("ua", 60, K, 20, RngStream(7))
    assert res["K"] == K
    assert (res["success_rate"], res["se"]) == (report.success_rate, report.se)


@pytest.mark.parametrize("seed", [1, 2])
def test_sbm_recover_record_equals_loop_oracle(capsys, seed):
    res = record(capsys, "sbm", "recover", "--k", "2", "--a", "9", "--b", "1",
                 "--n", "300", "--replicas", "40", "--seed", str(seed))["result"]
    expect = oracles.loop_sbm_recover(300, sbm.SbmParams.symmetric(2, 9.0, 1.0),
                                      0.1, 1, 40, RngStream(seed))
    assert 0.0 < res["exact_rate"] < 1.0
    assert (res["mean_accuracy"], res["exact_rate"], res["exact_se"]) == expect


def test_mc_power_record_equals_library(capsys):
    res = record(capsys, "mc", "power", "--pair", "geom", "--n", "16",
                 "--p", "0.5", "--d", "2", "--stat", "t", "--replicas", "100",
                 "--seed", "1")["result"]
    report = power_from_samples(*two_arm(
        lambda s: float(geom.triangle_count(geom.sample_er(16, 0.5, s))),
        lambda s: float(geom.triangle_count(geom.sample_rgg(16, 0.5, 2, s))),
        100, RngStream(1)))
    expect = _power_fields(report)
    assert {k: res[k] for k in expect} == expect


# ----------------------------------------------------------- two-arm CSV pairs


def _max_degree_arm(model, n, seed_tree):
    return lambda s: float(trees.max_degree(
        trees.grow(model, n, s, seed=seed_tree)).degree)


@pytest.mark.parametrize("argv,csv,stat,arms,names", [
    (("geom", "detect", "--n", "16", "--p", "0.5", "--d", "3",
      "--replicas", "100", "--seed", "4"), "tau.csv", "tau",
     lambda: (geom.graph_replica(16, 0.5, "tau"),
              geom.graph_replica(16, 0.5, "tau", 3)), ("er", "rgg")),
    (("wishart", "compare", "--n", "8", "--d", "16", "--stat", "tr3",
      "--replicas", "100", "--seed", "9"), "w.txt", "tr3",
     lambda: tuple(geom.matrix_replica(8, 16, "gaussian", kind, "tr3")
                   for kind in ("goe_nodiag", "wishart_scaled_nodiag")),
     ("goe_nodiag", "wishart_scaled_nodiag")),
    (("wishart", "compare", "--n", "8", "--d", "16", "--stat", "tau",
      "--entry-dist", "rademacher", "--replicas", "100", "--seed", "9"),
     "w", "tau",
     lambda: tuple(geom.matrix_replica(8, 16, "rademacher", kind, "tau")
                   for kind in ("goe_shifted", "wishart")),
     ("goe_shifted", "wishart")),
    (("tree", "seedtest", "--model", "pa", "--n", "60", "--seed-a", "star:4",
      "--seed-b", "path:4", "--replicas", "30", "--seed", "37"), "deg.csv",
     "max_degree",
     lambda: (_max_degree_arm("pa", 60, trees.star(4)),
              _max_degree_arm("pa", 60, trees.path(4))), ("seed_a", "seed_b")),
    (("mc", "power", "--pair", "geom", "--n", "16", "--p", "0.5", "--d", "2",
      "--stat", "t", "--replicas", "100", "--seed", "1", "--jobs", "2"),
     "mp.csv", "t",
     lambda: (geom.graph_replica(16, 0.5, "t"),
              geom.graph_replica(16, 0.5, "t", 2)), ("er", "rgg")),
    (("mc", "tv", "--pair", "wishart", "--n", "8", "--d", "32",
      "--stat", "tr3", "--entry-dist", "uniform-scaled", "--replicas", "50",
      "--seed", "41"), "tv.csv", "tr3",
     lambda: tuple(geom.matrix_replica(8, 32, "uniform-scaled", kind, "tr3")
                   for kind in ("goe_nodiag", "wishart_scaled_nodiag")),
     ("goe_nodiag", "wishart_scaled_nodiag")),
], ids=["geom-detect", "wishart-compare-tr3", "wishart-compare-tau",
        "tree-seedtest", "mc-power", "mc-tv"])
def test_two_arm_csv_pair_equals_library(capsys, tmp_path, argv, csv, stat,
                                         arms, names):
    rec = record(capsys, *argv, "--csv", str(tmp_path / csv))
    root, ext = os.path.splitext(csv)
    files = [root + "_null" + (ext or ".csv"), root + "_alt" + (ext or ".csv")]
    assert sorted(os.listdir(tmp_path)) == sorted(files)
    samples = two_arm(*arms(), rec["replicas"], RngStream(rec["seed"]))
    for path, name, vals in zip(files, names, samples):
        lines = (tmp_path / path).read_text().splitlines()
        assert lines[0] == f"{stat},{name}"
        assert lines[1:] == [str(v) for v in vals.tolist()]
