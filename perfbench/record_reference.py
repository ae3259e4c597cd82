"""Record the reference outputs of the benchmark's fixed CLI commands.

    python3 perfbench/record_reference.py

Writes perfbench/reference/<name>.csv|json from the library in src/.  The
benchmark compares every later output with these files, so rerun this only
when a change to the program is meant to change its output, and say so.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import run_cli  # noqa: E402
from weyl_uncert import cli  # noqa: E402
from workloads import FIGURES_COMMANDS, LARGE_COMMANDS, LARGE_NMAX_CAP, REFERENCE_DIR  # noqa: E402


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    os.environ["WEYL_UNCERT_MAX_NMAX"] = str(LARGE_NMAX_CAP)
    for cmd in (*FIGURES_COMMANDS, *LARGE_COMMANDS):
        res = run_cli(cli, [*cmd.argv, "--out", str(cmd.reference)])
        if res.code != 0:
            print(f"{cmd.name}: exit code {res.code}: {res.stderr.strip()}", file=sys.stderr)
            return 1
        print(f"wrote {cmd.reference.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
