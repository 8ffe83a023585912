"""Run one qminority CLI command with span tracing.

Used in place of ``python -m qminority.cli`` by traced cli-jobs runs:
``python perfbench/cli_shim.py <subcommand> [options]``.  The spans are
written as JSON to the path in the PERFBENCH_SPANS environment variable
when the command ends.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import qminority.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return qminority.cli.main(sys.argv[1:])
    finally:
        tracer.active = False
        Path(os.environ["PERFBENCH_SPANS"]).write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main())
