"""Golden records: every line of golden/commands.txt, run in order through
cli.main in one empty directory, gives the exit code, the stdout record
and the side files stored for it in golden/records.jsonl.  Each line that
exits 0 and whose command takes --jobs is also rerun at --jobs 1, 2 and 4,
each time in a copy of the directory as it stood before the line (a
--table file read back would change the record), and the three `result`
objects must equal the line's own.

Comparison rule.  The first line of records.jsonl names the host the
records were made on: the numpy version, the BLAS library and its
version, and the CPU model.  On a host where all three match, each record
must be equal exactly (same keys in the same order, same types, same
float bits) and each side file must have the stored sha256.  On any other
host, BLAS kernels may round differently: integers, strings, booleans and
nulls stay exact, and so do keys and list lengths, but a float may differ
from its stored value by at most 1e-12 of it; side files are not hashed
there, since they hold floats as text.  This rule is not widened to make
a record pass.  A change that moves a record on purpose regenerates the
file with golden/regen.py and says which lines moved, and why.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import shlex
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from netinfer.cli import COMMANDS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMAND_FILE = GOLDEN / "commands.txt"
RECORD_FILE = GOLDEN / "records.jsonl"
FLOAT_REL = 1e-12  # off a matching host only

_TAKES_JOBS = {c.name for c in COMMANDS
               if any(flag.dest == "jobs" for flag in c.flags)}


def golden_lines() -> list[str]:
    """The command lines of commands.txt, without comments and blank lines."""
    lines = (line.strip() for line in COMMAND_FILE.read_text("ascii").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def environment() -> dict:
    """What a record's floats may depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "cpu": cpu}


def _file_hashes(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def run_line(line: str, directory: Path, extra: tuple = ()) -> dict:
    """Run one command line (plus `extra` arguments) with `directory` as
    the working directory, so that the record echoes the relative paths of
    the line: its exit code, its stdout record (None when it printed none)
    and the sha256 of each file it wrote or changed there."""
    before = _file_hashes(directory)
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(shlex.split(line) + list(extra))
    finally:
        os.chdir(cwd)
    after = _file_hashes(directory)
    return {"line": line, "code": code,
            "record": json.loads(out.getvalue()) if out.getvalue() else None,
            "files": {k: v for k, v in after.items() if before.get(k) != v}}


def run_all(directory: Path) -> list[dict]:
    """Every golden line, in order, in `directory`."""
    return [run_line(line, directory) for line in golden_lines()]


def _read_records() -> tuple[dict, list[dict]]:
    head, *records = (json.loads(line) for line in
                      RECORD_FILE.read_text("ascii").splitlines())
    return head["environment"], records


def _same(got, want) -> bool:
    """Equal up to FLOAT_REL in each float; everything else exact."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        return (got == want or (math.isnan(got) and math.isnan(want))
                or abs(got - want) <= FLOAT_REL * abs(want))
    if isinstance(want, dict):
        return (list(got) == list(want)
                and all(_same(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want


def test_golden_records_and_jobs_reruns(tmp_path):
    env, want = _read_records()
    lines = golden_lines()
    assert [r["line"] for r in want] == lines, "rerun golden/regen.py"
    exact = env == environment()
    work = tmp_path / "work"
    work.mkdir()
    moved, jobs_moved = [], []
    for line, expect in zip(lines, want):
        rerun = (expect["code"] == 0
                 and " ".join(shlex.split(line)[:2]) in _TAKES_JOBS)
        copies = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2, 4) if rerun}
        for copy in copies.values():
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(work, copy)
        got = run_line(line, work)
        if exact:
            same = json.dumps(got) == json.dumps(expect)
        else:
            same = (got["code"] == expect["code"]
                    and sorted(got["files"]) == sorted(expect["files"])
                    and _same(got["record"], expect["record"]))
        if not same:
            moved.append(line)
        for jobs, copy in copies.items():
            again = run_line(line, copy, ("--jobs", str(jobs)))
            if (again["code"] != 0
                    or json.dumps(again["record"]["result"])
                    != json.dumps(got["record"]["result"])):
                jobs_moved.append(f"--jobs {jobs}: {line}")
    assert not moved, "records moved:\n" + "\n".join(moved)
    assert not jobs_moved, "results moved:\n" + "\n".join(jobs_moved)
