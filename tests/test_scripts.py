"""Smoke tests for the sweep scripts in scripts/: each runs in a fresh
process at a tiny size, exits 0 and writes its CSV header or report;
bad input exits 2 with a message."""

import csv
import subprocess
import sys
from pathlib import Path

import pytest

from checks import child_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(tmp_path, name: str, *argv: str, code: int = 0):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          cwd=tmp_path, env=child_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    return proc


@pytest.mark.parametrize("name,argv,header,rows", [
    ("detection_sweep.py",
     ("--n", "8", "--dims", "2,64", "--replicas", "100", "--seed", "1"),
     "d,power,size,separation,threshold", 2),
    ("root_finding_curves.py",
     ("--n", "30", "--models", "ua,pa", "--k-values", "1,5",
      "--replicas", "20", "--seed", "1"),
     "model,n,K,success_rate,se", 4),
])
def test_sweep_script_writes_csv(tmp_path, name, argv, header, rows):
    out = _run_script(tmp_path, name, *argv, "--out", "s.csv").stdout
    assert "wrote s.csv" in out
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows


def test_root_finding_curves_rise_with_k(tmp_path):
    # one set of replicas per model serves every K, so a larger set
    # catches the root in every replica a smaller one does
    _run_script(tmp_path, "root_finding_curves.py", "--n", "200",
                "--k-values", "9,1,2,3,5,30,4", "--replicas", "40",
                "--seed", "3", "--out", "s.csv")
    with open(tmp_path / "s.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    for model in ("ua", "pa"):
        rates = [float(r["success_rate"]) for r in
                 sorted((r for r in rows if r["model"] == model),
                        key=lambda r: int(r["K"]))]
        assert len(rates) == 7
        assert all(a <= b for a, b in zip(rates, rates[1:])), (model, rates)


@pytest.mark.parametrize("argv,message", [
    (("--k-values", "1,0,5"), "every K must be at least 1"),
    (("--k-values", "1,x"), "--k-values must be integers"),
    (("--models", "ua,bogus"), "model must be one of ('ua', 'pa')"),
    (("--replicas", "0"), "replicas must be positive"),
    (("--models", "pa", "--n", "1"), "n must be at least the seed size"),
])
def test_root_finding_curves_rejects_bad_input(tmp_path, argv, message):
    proc = _run_script(tmp_path, "root_finding_curves.py", *argv,
                       "--seed", "1", code=2)
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "root_finding_curves.csv").exists()


def test_root_finding_curves_takes_ua_at_one_vertex(tmp_path):
    # a one-vertex UA tree is its root, caught by every K
    _run_script(tmp_path, "root_finding_curves.py", "--models", "ua",
                "--n", "1", "--k-values", "1,2", "--replicas", "3",
                "--seed", "1", "--out", "s.csv")
    rows = (tmp_path / "s.csv").read_text().splitlines()
    assert rows == ["model,n,K,success_rate,se", "ua,1,1,1.0,0.0",
                    "ua,1,2,1.0,0.0"]


def test_urn_limits_script_reports(tmp_path):
    out = _run_script(tmp_path, "urn_limits.py", "--n-final", "100",
                      "--runs", "50", "--seed", "1").stdout
    assert "Beta(1,1) = Uniform" in out
    assert "triangular urn: totals=(1000, 10000)" in out
