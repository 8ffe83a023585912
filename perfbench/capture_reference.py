"""Capture the reference tables that the cli-jobs checks compare against.

Runs every invocation in the cli-jobs pool once and stores its stdout and
written files in reference/cli_tables.json.  The committed tables come from
the commit that introduced the benchmark; recapture only when the pool in
workloads.py changes, and only at a commit whose outputs are trusted.
From the repository root:

    PYTHONPATH=src python3 perfbench/capture_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import prepare_cli_job, read_outputs, spawn_cli  # noqa: E402


def main() -> int:
    Path(workloads.WORK_DIR).mkdir(exist_ok=True)
    tables = {}
    for slot, variants in workloads.cli_pool().items():
        tables[slot] = []
        for v in variants:
            outputs = prepare_cli_job(v)
            proc = spawn_cli(v["argv"])
            proc.check_returncode()
            tables[slot].append({"argv": v["argv"], "stdout": proc.stdout,
                                 "files": read_outputs(outputs)})
    (HERE / "reference").mkdir(exist_ok=True)
    (HERE / "reference" / "cli_tables.json").write_text(json.dumps(tables, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
