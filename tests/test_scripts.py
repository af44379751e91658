"""Smoke tests for the sweep scripts in scripts/: each runs in a fresh
process at a tiny size, exits 0 and writes its CSV header or report."""

import subprocess
import sys
from pathlib import Path

import pytest

from checks import child_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(tmp_path, name: str, *argv: str) -> str:
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          cwd=tmp_path, env=child_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
    out = _run_script(tmp_path, name, *argv, "--out", "s.csv")
    assert "wrote s.csv" in out
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + rows


def test_urn_limits_script_reports(tmp_path):
    out = _run_script(tmp_path, "urn_limits.py", "--n-final", "100",
                      "--runs", "50", "--seed", "1")
    assert "Beta(1,1) = Uniform" in out
    assert "triangular urn: totals=(1000, 10000)" in out
