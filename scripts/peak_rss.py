#!/usr/bin/env python3
"""Run one nevlab command in a fresh process and print what it used.

Usage:
    python3 scripts/peak_rss.py [--tree DIR] -- verify prop62 --config c.ini --r 2

The arguments after ``--`` go to ``python -m nevlab.cli``, run from the root
of the tree (this repository by default; a ``git archive`` copy of another
commit, for a before-and-after comparison) with ``PYTHONPATH`` set to its
``src``.  The command's stdout is discarded, so pass ``--out`` to keep its
CSV; its stderr passes through.  One JSON line is printed: the wall time and
the command's user and system time in seconds, its peak RSS in MB (as
``perfbench/run.py`` counts it, ``ru_maxrss / 1024``), its minor page faults
and its exit code, all but the wall time from ``os.wait4``.  The script exits
with the command's exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def measure(tree: Path, args: list) -> dict:
    """Run nevlab with args from the root of tree; return its usage."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "nevlab.cli", *args],
                            cwd=tree, stdout=subprocess.DEVNULL,
                            env={**os.environ, "PYTHONPATH": str(tree / "src")})
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": round(wall, 3), "user_s": round(usage.ru_utime, 3),
            "sys_s": round(usage.ru_stime, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 2),
            "minor_faults": usage.ru_minflt, "exit": proc.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="root of the tree whose src runs")
    parser.add_argument("args", nargs="+", help="the nevlab arguments")
    opts = parser.parse_args(argv)
    usage = measure(opts.tree.resolve(), opts.args)
    print(json.dumps(usage))
    return usage["exit"]


if __name__ == "__main__":
    sys.exit(main())
