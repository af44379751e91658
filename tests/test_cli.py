"""CLI contract: every command emits one JSON record with the standard
envelope, randomness always flows from an explicit --seed, exit codes
are 0 / 1 (runtime failure) / 2 (usage), and CSV side files carry the
raw samples.

Commands run in-process through cli.main; one subprocess smoke test
covers the installed entry point.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from checks import child_env
from netinfer import cli, urns
from netinfer.cli import main
from netinfer.graphcore import RngStream, parse_edge_list
from netinfer.trees import required_k

SUBCOMMANDS = [
    ("sbm", "gen"), ("sbm", "chd"), ("sbm", "solvable"), ("sbm", "partition"),
    ("sbm", "recover"),
    ("geom", "gen"), ("geom", "detect"), ("geom", "calibrate"),
    ("geom", "dimest"), ("geom", "sparse"),
    ("wishart", "sample"), ("wishart", "compare"),
    ("urn", "run"), ("urn", "check"),
    ("tree", "grow"), ("tree", "root"), ("tree", "seedtest"),
    ("mc", "power"), ("mc", "tv"),
]

ENVELOPE_KEYS = {"command", "version", "seed", "replicas", "parameters",
                 "result"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_record(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len(lines) == 1  # exactly one record per invocation
    record = json.loads(lines[0])
    assert set(record) == ENVELOPE_KEYS
    assert record["version"] == cli.VERSION
    return record


# ----------------------------------------------------------- plumbing


@pytest.mark.parametrize("group,name", SUBCOMMANDS)
def test_subcommand_help_exits_zero(capsys, group, name):
    code, out, _ = run(capsys, group, name, "--help")
    assert code == 0
    assert "--config" in out


def test_top_level_help_and_version(capsys):
    assert run(capsys, "--help")[0] == 0
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == cli.VERSION


def test_bare_invocations_are_usage_errors(capsys):
    assert run(capsys)[0] == 2
    assert run(capsys, "sbm")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


def test_missing_seed_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "sbm", "gen", "--k", "2", "--a", "5", "--b", "1",
                       "--n", "40", "--out", str(tmp_path / "g.txt"))
    assert code == 2
    assert "--seed is required" in err


def test_seed_outside_64_bits_is_usage_error(capsys, tmp_path):
    # -1 would otherwise alias 2^64 - 1, and 2^64 alias 0
    out = str(tmp_path / "g.txt")
    gen = ("geom", "gen", "--n", "20", "--p", "0.5", "--d", "3", "--out", out)
    for seed in ("-1", "18446744073709551616"):
        code, stdout, err = run(capsys, *gen, "--seed", seed)
        assert code == 2 and stdout == ""
        assert "--seed" in err and "[0, 2^64)" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    assert run(capsys, *gen, "--config", str(cfg))[0] == 2
    rec = run_record(capsys, *gen, "--seed", "18446744073709551615")
    assert rec["seed"] == 2**64 - 1


def test_repeated_calls_in_one_process(capsys):
    argv = ("mc", "power", "--pair", "geom", "--n", "12", "--p", "0.5",
            "--d", "3", "--stat", "tau", "--replicas", "100", "--seed", "8")
    first = run_record(capsys, *argv)
    assert run(capsys, "mc", "power", "--no-such-flag")[0] == 2
    assert run(capsys, *argv[:-2])[0] == 2  # missing --seed
    assert run_record(capsys, *argv) == first


def test_deterministic_command_rejects_seed(capsys):
    # chd consumes no randomness, so it does not even accept the flag
    code, _, _ = run(capsys, "sbm", "chd", "--k", "2", "--a", "4.5",
                     "--b", "0.5", "--seed", "1")
    assert code == 2


def test_config_file_supplies_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "a": 9.0, "b": 1.0}))
    rec = run_record(capsys, "sbm", "chd", "--config", str(cfg))
    assert rec["result"]["d_plus"] == pytest.approx(2.0, abs=1e-9)
    rec = run_record(capsys, "sbm", "chd", "--config", str(cfg), "--a", "16")
    assert rec["result"]["d_plus"] == pytest.approx(4.5, abs=1e-9)


def test_config_must_be_object(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, _, err = run(capsys, "sbm", "chd", "--config", str(cfg))
    assert code == 2
    assert "JSON object" in err


def test_malformed_graph_file_is_runtime_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a header\n")
    code, _, err = run(capsys, "tree", "grow", "--model", "ua", "--n", "10",
                       "--seed", "1", "--out", str(tmp_path / "o.txt"),
                       "--seed-tree", str(bad))
    assert code == 1
    assert "error:" in err


# ----------------------------------------------------------- sbm


def test_sbm_chd_record(capsys):
    # uniform prior halves the rates, so profiles are (4.5, 0.5) / (0.5, 4.5)
    rec = run_record(capsys, "sbm", "chd", "--k", "2", "--a", "9", "--b", "1")
    assert rec["command"] == "sbm chd"
    assert rec["seed"] is None and rec["replicas"] is None
    res = rec["result"]
    assert res["d_plus"] == pytest.approx(2.0, abs=1e-8)
    assert res["t_star"] == pytest.approx(0.5, abs=1e-6)
    assert res["solvable"] is True
    assert res["min_pair"] == [0, 1]


def test_sbm_chd_readme_record_is_exact(capsys):
    # mirrored profiles: the slope is exactly 0 at t = 1/2, where D = 2
    res = run_record(capsys, "sbm", "chd", "--k", "2", "--a", "9",
                     "--b", "1")["result"]
    assert res["t_star"] == 0.5
    assert abs(res["d_plus"] - 2.0) <= 4 * math.ulp(2.0)


def test_sbm_solvable(capsys):
    rec = run_record(capsys, "sbm", "solvable", "--k", "2", "--a", "9",
                     "--b", "1")
    assert rec["result"]["solvable"] is True
    assert rec["result"]["min_value"] == pytest.approx(2.0, abs=1e-8)
    rec = run_record(capsys, "sbm", "solvable", "--k", "2", "--a", "2",
                     "--b", "1")
    assert rec["result"]["solvable"] is False
    a = 3 + 2 * math.sqrt(2)
    rec = run_record(capsys, "sbm", "solvable", "--k", "2", "--a", f"{a!r}",
                     "--b", "1")
    assert rec["result"]["boundary"] is True


def test_sbm_partition_matrix_options(capsys):
    rec = run_record(capsys, "sbm", "partition",
                     "--p-vector", "0.25,0.25,0.5",
                     "--q-matrix", "9,8.2,1;8.2,9,1;1,1,16")
    assert rec["result"]["blocks"] == [[0, 1], [2]]
    assert rec["result"]["num_blocks"] == 2


def test_p_vector_requires_q_matrix(capsys):
    code, _, err = run(capsys, "sbm", "chd", "--p-vector", "0.5,0.5")
    assert code == 2
    assert "together" in err


def test_sbm_gen_roundtrip_and_determinism(capsys, tmp_path):
    out = tmp_path / "g.txt"
    labels = tmp_path / "labels.json"
    argv = ("sbm", "gen", "--k", "2", "--a", "6", "--b", "1", "--n", "60",
            "--seed", "7", "--out", str(out), "--labels-out", str(labels))
    rec = run_record(capsys, *argv)
    g = parse_edge_list(out.read_text())
    assert g.n == 60
    assert g.m == rec["result"]["edges"]
    assert rec["seed"] == 7
    lab = json.loads(labels.read_text())["labels"]
    assert len(lab) == 60 and set(lab) <= {0, 1}
    first = out.read_bytes()
    rec2 = run_record(capsys, *argv)
    assert rec2 == rec
    assert out.read_bytes() == first


def test_sbm_recover(capsys):
    rec = run_record(capsys, "sbm", "recover", "--k", "2", "--a", "8",
                     "--b", "1", "--n", "80", "--corruption", "0.2",
                     "--rounds", "2", "--replicas", "3", "--seed", "3")
    res = rec["result"]
    assert rec["replicas"] == 3
    assert res["rounds"] == 2
    assert res["mean_accuracy"] >= 0.8
    assert 0.0 <= res["exact_rate"] <= 1.0


# ----------------------------------------------------------- geom


def test_geom_gen_er_and_rgg(capsys, tmp_path):
    out = tmp_path / "er.txt"
    rec = run_record(capsys, "geom", "gen", "--n", "50", "--p", "0.3",
                     "--seed", "2", "--out", str(out))
    assert rec["result"]["model"] == "er"
    assert rec["result"]["d"] is None
    assert parse_edge_list(out.read_text()).n == 50
    rec = run_record(capsys, "geom", "gen", "--n", "50", "--p", "0.3",
                     "--d", "3", "--seed", "2", "--out", str(out))
    assert rec["result"]["model"] == "rgg"
    assert rec["result"]["d"] == 3


def test_tiny_p_draws_no_wrapped_edges(capsys, tmp_path):
    """Skip gaps of order 1/p past the int64 range end the walk instead of
    wrapping into negative vertex ids."""
    out = tmp_path / "g.txt"
    rec = run_record(capsys, "geom", "gen", "--n", "1000", "--p", "1e-18",
                     "--seed", "1", "--out", str(out))
    assert rec["result"]["edges"] == 0
    assert out.read_text() == "1000 0\n"
    rec = run_record(capsys, "sbm", "gen", "--k", "2", "--a", "1e-15", "--b",
                     "1e-15", "--regime", "linear", "--n", "1000", "--seed",
                     "1", "--out", str(out))
    assert rec["result"]["edges"] == parse_edge_list(out.read_text()).m
    rec = run_record(capsys, "mc", "power", "--pair", "geom", "--stat", "t",
                     "--n", "1000", "--p", "1e-18", "--d", "2", "--replicas",
                     "100", "--seed", "1")
    assert rec["result"]["mean_null"] == 0.0


def test_equal_constant_arms_never_reject(capsys):
    """Every triangle count of both arms is 0 at p = 1e-18: a statistic
    that carries no information reads as a test that never rejects."""
    rec = run_record(capsys, "mc", "power", "--pair", "geom", "--stat", "t",
                     "--n", "1000", "--p", "1e-18", "--d", "2", "--replicas",
                     "100", "--seed", "1")
    res = rec["result"]
    assert res["mean_null"] == res["mean_alt"] == 0.0
    assert res["size"] == res["power"] == 0.0


def test_constant_null_rejects_only_past_its_value(capsys):
    """At p = 0.005 every null triangle count is 0 and 6 of 100 alternative
    counts are not: the cut lies on the null's value, so no null replica
    and only those 6 alternative ones are rejected."""
    rec = run_record(capsys, "mc", "power", "--pair", "geom", "--stat", "t",
                     "--n", "30", "--p", "0.005", "--d", "2", "--replicas",
                     "100", "--seed", "1")
    res = rec["result"]
    assert (res["threshold"], res["sd_null"], res["mean_alt"]) == (0.0, 0.0, 0.06)
    assert (res["size"], res["power"]) == (0.0, 0.06)


def test_geom_detect(capsys, tmp_path):
    csv = tmp_path / "tau.csv"
    argv = ("geom", "detect", "--n", "40", "--p", "0.5", "--d", "2",
            "--replicas", "120", "--seed", "11", "--csv", str(csv))
    rec = run_record(capsys, *argv)
    res = rec["result"]
    assert res["verdict"] == "geometric"  # target defaults to a fresh rgg
    assert res["power"] >= 0.9 and res["size"] <= 0.1
    assert res["calibration"]["replicas"] == 120
    null_lines = (tmp_path / "tau_null.csv").read_text().splitlines()
    alt_lines = (tmp_path / "tau_alt.csv").read_text().splitlines()
    assert null_lines[0] == "tau,er" and alt_lines[0] == "tau,rgg"
    assert len(null_lines) == len(alt_lines) == 121
    # byte-identical reruns
    rec2 = run_record(capsys, *argv)
    assert rec2 == rec


def test_geom_detect_reads_target_file(capsys, tmp_path):
    graph = tmp_path / "er.txt"
    run_record(capsys, "geom", "gen", "--n", "40", "--p", "0.5", "--seed", "4",
               "--out", str(graph))
    rec = run_record(capsys, "geom", "detect", "--n", "40", "--p", "0.5",
                     "--d", "2", "--replicas", "120", "--seed", "11",
                     "--in", str(graph))
    assert rec["result"]["target"] == str(graph)
    assert rec["result"]["verdict"] == "random"


def test_geom_detect_verdict_is_tau_at_or_past_the_threshold(capsys, tmp_path):
    """At n = 3, p = 1e-18 every graph of both arms is empty, so both arms
    are the constant tau = -p^3 and the threshold is that value.  The empty
    target sits on it and reads geometric; the path (tau = -p + 2p^2 - p^3)
    lies below it and reads random; the triangle lies above it."""
    p = 1e-18
    targets = {"empty": ("3 0\n", "geometric"),
               "path": ("3 2\n1 2\n2 3\n", "random"),
               "triangle": ("3 3\n1 2\n1 3\n2 3\n", "geometric")}
    stats = {}
    for name, (text, verdict) in targets.items():
        graph = tmp_path / f"{name}.txt"
        graph.write_text(text)
        res = run_record(capsys, "geom", "detect", "--n", "3", "--p", str(p),
                         "--d", "2", "--replicas", "100", "--seed", "3",
                         "--in", str(graph))["result"]
        assert res["calibration"]["threshold"] == -(p * p) * p
        assert res["verdict"] == verdict, name
        stats[name] = res["stat_value"]
    assert stats["path"] < stats["empty"] == -(p * p) * p < stats["triangle"]


@pytest.mark.parametrize("command", [
    ("geom", "detect", "--d", "2"),
    ("geom", "dimest", "--candidates", "2,3")])
def test_target_file_of_another_size_exits_one(capsys, tmp_path, command):
    graph = tmp_path / "triangle.txt"
    graph.write_text("3 3\n1 2\n1 3\n2 3\n")
    code, out, err = run(capsys, *command, "--n", "4", "--p", "0.5",
                         "--replicas", "100", "--seed", "1", "--in", str(graph))
    assert (code, out) == (1, "")
    assert "graph size does not match n" in err


def test_geom_detect_jobs_do_not_change_results(capsys):
    recs = [run_record(capsys, "geom", "detect", "--n", "30", "--p", "0.5",
                       "--d", "2", "--replicas", "100", "--seed", "12",
                       "--jobs", jobs)["result"] for jobs in ("1", "3")]
    assert recs[0] == recs[1]


def test_geom_detect_replica_floor(capsys):
    code, _, err = run(capsys, "geom", "detect", "--n", "30", "--p", "0.5",
                       "--d", "2", "--replicas", "50", "--seed", "1")
    assert code == 2
    assert "at least 100" in err


def test_geom_calibrate_then_dimest_reuses_table(capsys, tmp_path):
    table = tmp_path / "cal.json"
    rec = run_record(capsys, "geom", "calibrate", "--n", "24", "--p", "0.5",
                     "--d", "2", "--replicas", "100", "--seed", "5",
                     "--table", str(table))
    stored = json.loads(table.read_text())
    assert "24,0.5,2" in stored
    assert stored["24,0.5,2"]["tau_threshold"] == pytest.approx(
        rec["result"]["calibration"]["tau_threshold"])
    rec = run_record(capsys, "geom", "dimest", "--n", "24", "--p", "0.5",
                     "--candidates", "2,3", "--true-d", "2",
                     "--replicas", "100", "--seed", "6", "--table", str(table))
    res = rec["result"]
    assert res["d_hat"] in (2, 3)
    assert res["true_d"] == 2
    # the d=2 mean must come from the calibration table, not a re-run
    assert res["calibrated_means"]["2"] == pytest.approx(
        stored["24,0.5,2"]["mean_geo"])
    stored = json.loads(table.read_text())
    assert "24,0.5,3" in stored  # the missing candidate was appended


def test_geom_dimest_names_the_table_entries_it_reuses(capsys, tmp_path):
    # a mean calibrated at seed 5, reused by a dimest run at seed 6: the
    # record says which candidate came from the table, and from which run
    table = tmp_path / "cal.json"
    run_record(capsys, "geom", "calibrate", "--n", "24", "--p", "0.5",
               "--d", "2", "--replicas", "100", "--seed", "5",
               "--table", str(table))
    dimest = ("geom", "dimest", "--n", "24", "--p", "0.5", "--candidates",
              "2,3", "--true-d", "2", "--replicas", "100", "--seed", "6")
    rec = run_record(capsys, *dimest, "--table", str(table))
    assert rec["seed"] == 6
    assert rec["result"]["reused_from_table"] == {
        "2": {"seed": 5, "replicas": 100}}
    # the d = 3 mean computed at seed 6 was appended, so both are reused now
    rec = run_record(capsys, *dimest, "--table", str(table))
    assert rec["result"]["reused_from_table"] == {
        "2": {"seed": 5, "replicas": 100}, "3": {"seed": 6, "replicas": 100}}
    assert run_record(capsys, *dimest)["result"]["reused_from_table"] == {}


def test_geom_dimest_needs_target(capsys):
    code, _, err = run(capsys, "geom", "dimest", "--n", "24", "--p", "0.5",
                       "--candidates", "2,3", "--replicas", "100",
                       "--seed", "6")
    assert code == 2
    assert "--true-d" in err


def test_geom_dimest_checks_target_before_calibrating(capsys, tmp_path,
                                                     monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("calibrated before checking the target")

    monkeypatch.setattr(cli, "replicate", refuse)
    table = tmp_path / "t.json"
    argv = ("geom", "dimest", "--n", "64", "--p", "0.5", "--candidates",
            "2,4,8", "--replicas", "2000", "--seed", "1", "--table", str(table))
    code, _, err = run(capsys, *argv)
    assert code == 2 and "--in or --true-d" in err
    assert not table.exists()
    table.write_text("{}")
    assert run(capsys, *argv)[0] == 2
    assert table.read_text() == "{}"


def test_geom_sparse(capsys):
    rec = run_record(capsys, "geom", "sparse", "--n", "400", "--c", "3",
                     "--d", "2", "--replicas", "50", "--seed", "9")
    res = rec["result"]
    assert res["statistic"] == "triangle-count"
    assert res["mean_T_geo"] > res["mean_T_er"] > 0
    assert "reported, not asserted" in res["note"]


# ----------------------------------------------------------- wishart


def test_wishart_sample(capsys, tmp_path):
    csv = tmp_path / "w.csv"
    rec = run_record(capsys, "wishart", "sample", "--n", "10", "--d", "20",
                     "--entry-dist", "rademacher", "--replicas", "30",
                     "--seed", "15", "--csv", str(csv))
    res = rec["result"]
    assert res["kind"] == "wishart_scaled_nodiag"
    assert res["log_concave_entries"] is False
    assert res["sd"] > 0 and res["se"] == pytest.approx(
        res["sd"] / math.sqrt(30))
    lines = csv.read_text().splitlines()
    assert lines[0] == "tr_cubed,wishart_scaled_nodiag"
    assert len(lines) == 31
    rec = run_record(capsys, "wishart", "sample", "--n", "10", "--d", "20",
                     "--replicas", "2", "--seed", "15")
    assert rec["result"]["entry_dist"] == "gaussian"
    assert rec["result"]["log_concave_entries"] is True


def test_wishart_compare_tau(capsys):
    rec = run_record(capsys, "wishart", "compare", "--n", "16", "--d", "8",
                     "--stat", "tau", "--replicas", "100", "--seed", "13")
    res = rec["result"]
    assert res["null_kind"] == "goe_shifted"
    assert res["alt_kind"] == "wishart"
    assert res["power"] >= 0.85 and res["size"] <= 0.15
    assert res["mean_alt"] > res["mean_null"]
    assert 0.0 <= res["tv_lower_bound"] <= 1.0


def test_wishart_compare_tr3(capsys):
    rec = run_record(capsys, "wishart", "compare", "--n", "10", "--d", "30",
                     "--replicas", "100", "--seed", "14")
    res = rec["result"]
    assert res["statistic"] == "tr3"
    assert res["null_kind"] == "goe_nodiag"
    assert res["alt_kind"] == "wishart_scaled_nodiag"
    assert res["mean_alt"] > res["mean_null"] + 3 * res["sd_alt"] / 10


# ----------------------------------------------------------- urn


def test_urn_run(capsys, tmp_path):
    csv = tmp_path / "urn.csv"
    argv = ("urn", "run", "--counts", "2,1", "--steps", "10",
            "--checkpoints", "0,1,10", "--seed", "21", "--csv", str(csv))
    rec = run_record(capsys, *argv)
    res = rec["result"]
    assert res["initial"] == [2, 1]
    assert res["replacement"] == [[1, 0], [0, 1]]
    totals = [snap[0] for snap in res["snapshots"]]
    assert totals == [3, 4, 13]
    for total, counts in res["snapshots"]:
        assert sum(counts) == total
    lines = csv.read_text().splitlines()
    assert lines[0] == "total,count_1,count_2"
    assert len(lines) == 4
    assert run_record(capsys, *argv) == rec


def test_urn_run_triangular(capsys):
    rec = run_record(capsys, "urn", "run", "--counts", "1,1",
                     "--replacement", "triangular", "--steps", "5",
                     "--seed", "22")
    total, counts = rec["result"]["snapshots"][-1]
    assert total == 12  # 2 balls plus 2 per draw, whatever the draws
    assert sum(counts) == 12


def test_urn_check_beta(capsys):
    argv = ("urn", "check", "--counts", "1,1", "--law", "beta",
            "--n-final", "400", "--runs", "1000", "--seed", "23")
    rec = run_record(capsys, *argv)
    res = rec["result"]
    assert res["pass"] is True
    assert res["ks"] < 0.05
    assert res["alpha"] == [1.0, 1.0] and res["beta"] == [1.0, 1.0]
    assert run_record(capsys, *argv) == rec


def test_urn_check_triangular_fields(capsys):
    rec = run_record(capsys, "urn", "check", "--counts", "1,1",
                     "--replacement", "triangular", "--law", "triangular",
                     "--n-values", "50,100", "--runs", "60", "--seed", "25")
    res = rec["result"]
    assert len(res["ks_consecutive"]) == 1
    assert len(res["means"]) == 2
    assert isinstance(res["pass"], bool)


def test_urn_records_equal_library_calls(capsys):
    """Each urn record holds what the library returns at the same seed."""
    rec = run_record(capsys, "urn", "run", "--counts", "2,1,1",
                     "--replacement", "[[1,2,0],[0,3,1],[1,0,0]]",
                     "--steps", "40", "--checkpoints", "0,5,40", "--seed", "26")
    state = urns.UrnState(np.array([2, 1, 1]),
                          np.array([[1, 2, 0], [0, 3, 1], [1, 0, 0]]))
    traj = urns.urn_run(state, 40, [0, 5, 40], RngStream(26))
    assert rec["result"]["snapshots"] == [[int(t), row.tolist()] for t, row
                                          in zip(traj.totals, traj.counts)]

    rec = run_record(capsys, "urn", "check", "--counts", "3,2", "--law", "beta",
                     "--n-final", "300", "--runs", "200", "--seed", "27")
    check = urns.limit_law_check(urns.UrnState.classic(3, 2), "beta", 300,
                                 200, RngStream(27))
    assert rec["result"]["ks"] == check.ks
    assert rec["result"]["marginal_ks"] == list(check.marginal_ks)

    rec = run_record(capsys, "urn", "check", "--counts", "1,1",
                     "--replacement", "triangular", "--law", "triangular",
                     "--n-values", "50,100,200", "--runs", "60", "--seed", "28")
    scaling = urns.triangular_urn_scaling(urns.UrnState.triangular(1, 1),
                                          [50, 100, 200], 60, RngStream(28))
    res = rec["result"]
    assert res["n_values"] == list(scaling.totals)
    assert res["ks_consecutive"] == list(scaling.ks_consecutive)
    assert res["means"] == list(scaling.means)
    assert res["ks"] == max(scaling.ks_consecutive)


def test_urn_check_beta_needs_n_final(capsys):
    code, _, err = run(capsys, "urn", "check", "--counts", "1,1",
                       "--law", "beta", "--runs", "50", "--seed", "1")
    assert code == 2
    assert "--n-final is required" in err


# ----------------------------------------------------------- tree


def test_tree_grow_sidecar(capsys, tmp_path):
    out = tmp_path / "t.txt"
    sidecar = tmp_path / "t.json"
    rec = run_record(capsys, "tree", "grow", "--model", "ua", "--n", "30",
                     "--seed", "31", "--out", str(out),
                     "--sidecar", str(sidecar))
    res = rec["result"]
    g = parse_edge_list(out.read_text())
    assert (g.n, g.m) == (30, 29)
    side = json.loads(sidecar.read_text())
    assert side["model"] == "ua" and side["seed_size"] == 1
    # external ids are 1-based
    assert sorted(side["arrival_permutation"]) == list(range(1, 31))
    assert res["max_degree"]["vertex"] >= 1
    assert all(v >= 1 for v in res["centroid"])


def test_tree_grow_pa_default_seed_is_an_edge(capsys, tmp_path):
    sidecar = tmp_path / "t.json"
    rec = run_record(capsys, "tree", "grow", "--model", "pa", "--n", "30",
                     "--seed", "31", "--out", str(tmp_path / "t.txt"),
                     "--sidecar", str(sidecar))
    assert rec["result"]["seed_size"] == 2
    assert json.loads(sidecar.read_text())["seed_size"] == 2


def test_tree_grow_seed_tree(capsys, tmp_path):
    rec = run_record(capsys, "tree", "grow", "--model", "pa", "--n", "40",
                     "--seed", "32", "--seed-tree", "star:5",
                     "--out", str(tmp_path / "t.txt"))
    assert rec["result"]["seed_size"] == 5


def test_tree_root_ua_bound(capsys):
    rec = run_record(capsys, "tree", "root", "--model", "ua", "--n", "200",
                     "--epsilon", "0.1", "--replicas", "60", "--seed", "33")
    res = rec["result"]
    assert res["K"] == 58 == required_k("ua", 0.1)
    assert res["coverage_bound"] == pytest.approx(1 - 0.4 / 0.9)
    assert "asymptotic" in res["bound_note"]
    assert res["success_rate"] >= 0.8


def test_tree_root_pa_flags_uncalibrated_constant(capsys):
    rec = run_record(capsys, "tree", "root", "--model", "pa", "--n", "60",
                     "--epsilon", "0.45", "--replicas", "30", "--seed", "35")
    res = rec["result"]
    assert res["K"] == required_k("pa", 0.45)
    assert res["coverage_bound"] is None
    assert "uncalibrated" in res["bound_note"]


def test_tree_root_k_set_with_epsilon_omits_bound(capsys):
    # the coverage bound belongs to the K derived from epsilon, not to K = 1
    rec = run_record(capsys, "tree", "root", "--model", "ua", "--n", "50",
                     "--k-set", "1", "--epsilon", "0.1", "--replicas", "20",
                     "--seed", "37")
    res = rec["result"]
    assert res["K"] == 1 and res["epsilon"] == 0.1
    assert "coverage_bound" not in res and "bound_note" not in res


def test_tree_root_explicit_k(capsys):
    rec = run_record(capsys, "tree", "root", "--model", "ua", "--n", "50",
                     "--k-set", "5", "--replicas", "20", "--seed", "36")
    res = rec["result"]
    assert res["K"] == 5
    assert res["epsilon"] is None
    assert "coverage_bound" not in res


# Exact stdout of three `tree root` commands (the README one, either
# seed-edge endpoint, a star seed).  The records come from integer and
# Philox arithmetic only, so they are the same on any host.
_TREE_ROOT_RECORDS = [
    (("--model", "ua", "--n", "1000", "--epsilon", "0.1", "--replicas",
      "1000", "--seed", "7"),
     '{"command": "tree root", "parameters": {"K": 58, "c": 1.0, '
     '"epsilon": 0.1, "model": "ua", "n": 1000, "scoring": "root", '
     '"seed_tree": null}, "replicas": 1000, "result": {"K": 58, '
     '"bound_note": "asymptotic (liminf) coverage bound, checked at finite '
     'n", "coverage_bound": 0.5555555555555556, "epsilon": 0.1, "model": '
     '"ua", "n": 1000, "replicas": 1000, "scoring": "root", "se": '
     '0.003443254274665176, "success_rate": 0.988}, "seed": 7, "version": '
     '"netinfer-0.1.0"}'),
    (("--model", "pa", "--n", "400", "--k-set", "2", "--replicas", "300",
      "--scoring", "either_endpoint", "--seed", "5"),
     '{"command": "tree root", "parameters": {"K": 2, "c": 1.0, '
     '"epsilon": null, "model": "pa", "n": 400, "scoring": '
     '"either_endpoint", "seed_tree": null}, "replicas": 300, "result": '
     '{"K": 2, "epsilon": null, "model": "pa", "n": 400, "replicas": 300, '
     '"scoring": "either_endpoint", "se": 0.019202623277582175, '
     '"success_rate": 0.8733333333333333}, "seed": 5, "version": '
     '"netinfer-0.1.0"}'),
    (("--model", "pa", "--n", "400", "--k-set", "1", "--replicas", "300",
      "--seed-tree", "star:4", "--seed", "9"),
     '{"command": "tree root", "parameters": {"K": 1, "c": 1.0, '
     '"epsilon": null, "model": "pa", "n": 400, "scoring": "root", '
     '"seed_tree": "star:4"}, "replicas": 300, "result": {"K": 1, '
     '"epsilon": null, "model": "pa", "n": 400, "replicas": 300, '
     '"scoring": "root", "se": 0.02610803764417444, "success_rate": '
     '0.7133333333333334}, "seed": 9, "version": "netinfer-0.1.0"}'),
]


@pytest.mark.parametrize("argv,record", _TREE_ROOT_RECORDS)
def test_tree_root_records_are_exact(capsys, argv, record):
    code, out, err = run(capsys, "tree", "root", *argv)
    assert code == 0, err
    assert out == record + "\n"


def test_tree_root_needs_epsilon_or_k(capsys):
    code, _, err = run(capsys, "tree", "root", "--model", "ua", "--n", "50",
                       "--replicas", "20", "--seed", "36")
    assert code == 2
    assert "--epsilon or --k-set" in err


def test_tree_seedtest(capsys, tmp_path):
    csv = tmp_path / "deg.csv"
    rec = run_record(capsys, "tree", "seedtest", "--model", "pa", "--n", "150",
                     "--seed-a", "star:6", "--seed-b", "path:6",
                     "--replicas", "60", "--seed", "37", "--csv", str(csv))
    res = rec["result"]
    assert res["statistic"] == "max_degree"
    assert res["mean_a"] > res["mean_b"]
    assert 0.0 <= res["tv_lower_bound"] <= res["ks"] <= 1.0
    a_lines = (tmp_path / "deg_null.csv").read_text().splitlines()
    b_lines = (tmp_path / "deg_alt.csv").read_text().splitlines()
    assert a_lines[0] == "max_degree,seed_a"
    assert b_lines[0] == "max_degree,seed_b"


# ----------------------------------------------------------- mc


def test_mc_power_geom(capsys):
    rec = run_record(capsys, "mc", "power", "--pair", "geom", "--n", "40",
                     "--p", "0.5", "--d", "2", "--replicas", "120",
                     "--seed", "39")
    res = rec["result"]
    assert (res["null"], res["alt"]) == ("er", "rgg")
    assert res["power"] >= 0.9 and res["size"] <= 0.1
    assert "+/-3 se" in res["uncertainty_note"]


def test_mc_power_stat_pair_mismatch(capsys):
    code, _, err = run(capsys, "mc", "power", "--pair", "wishart", "--n", "10",
                       "--d", "20", "--stat", "tau", "--replicas", "100",
                       "--seed", "1")
    assert code == 2
    assert "tr3" in err


def test_mc_tv(capsys):
    rec = run_record(capsys, "mc", "tv", "--pair", "geom", "--n", "30",
                     "--p", "0.5", "--d", "2", "--replicas", "60",
                     "--seed", "41")
    res = rec["result"]
    assert res["tv_lower_bound"] == res["ks"]  # same two-sample statistic
    assert 0.0 <= res["tv_lower_bound"] <= 1.0
    assert "lower-bound" in res["note"]


# ----------------------------------------------------------- entry point


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "netinfer.cli", "sbm", "chd", "--k", "2",
         "--a", "9", "--b", "1"],
        env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["result"]["d_plus"] == pytest.approx(2.0, abs=1e-8)
