"""Rewrite records.jsonl from commands.txt, both in this directory.

    PYTHONPATH=src python tests/golden/regen.py

Runs every command line in order in a fresh temporary directory and
writes one JSON line for the host (numpy, BLAS and CPU model), then one
per command line: the line, its exit code, its stdout record and the
sha256 of each side file it wrote.  tests/test_golden.py states how the
records are compared.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import RECORD_FILE, environment, run_all  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        records = run_all(Path(tmp))
    with open(RECORD_FILE, "w", encoding="ascii") as fh:
        for item in [{"environment": environment()}, *records]:
            fh.write(json.dumps(item) + "\n")
    print(f"wrote {len(records)} records to {RECORD_FILE}")


if __name__ == "__main__":
    main()
