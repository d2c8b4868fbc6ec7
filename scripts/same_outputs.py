#!/usr/bin/env python3
"""Check that the working tree prints what HEAD prints.

Usage:
    python3 scripts/same_outputs.py

HEAD is copied (``git archive``, as in bench_pairs.py) into a temporary
directory, and each of these runs is made once from that copy and once from
the working tree:

- ``nevlab check`` and every command of every base config of
  ``perfbench/data/{shipped,stress,exact,edges}.json``;
- every ``nevlab`` command, plus ``compute --r 10``, on
  ``scripts/configs/*.ini``;
- ``scripts/run_sweep.py`` on ``scripts/configs/*.ini``.

Both sides read the same config files and write the same ``--out`` path,
so no path differs between them.  A run's record is its exit code, stdout,
stderr and the bytes of its ``--out`` file.  The script prints the runs whose
records differ, with the fields that differ, and exits 1 if any does, 0 if
none does.  Where both ``--out`` files are CSVs of one shape whose differing
cells are numbers, it also prints the largest absolute cell difference and
its column, so that a change in the last printed digits reads apart from a
real one.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import ROOT, export  # noqa: E402

WORKLOADS = ("shipped", "stress", "exact", "edges")
VERIFY = ("identities", "cartan", "lemma55", "prop62", "growth", "mcquillan")
FIELDS = ("exit", "stdout", "stderr", "out")


def runs(configs: Path, out: Path) -> dict:
    """Each run's key and its arguments to the Python interpreter, from the
    root of a tree.  The base configs of the perfbench data are written to
    configs; every nevlab run writes out."""
    nevlab = ["-m", "nevlab.cli"]
    todo = {}
    for workload in WORKLOADS:
        data = json.loads((ROOT / "perfbench" / "data" / f"{workload}.json")
                          .read_text(encoding="utf-8"))
        for name, config in data["configs"].items():
            path = configs / f"{workload}_{name}.ini"
            path.write_text(config["ini"], encoding="utf-8")
            for prefix in [["check"]] + config["commands"]:
                todo[f"{workload}/{name}: {' '.join(prefix)}"] = [
                    *nevlab, *prefix, "--config", str(path), "--out", str(out)]
    commands = ([["check"], ["sweep"], ["compute", "--r", "10"]]
                + [["verify", name] for name in VERIFY])
    for path in sorted((ROOT / "scripts" / "configs").glob("*.ini")):
        key = f"scripts/configs/{path.name}"
        for prefix in commands:
            todo[f"{key}: {' '.join(prefix)}"] = [
                *nevlab, *prefix, "--config", str(path), "--out", str(out)]
        todo[f"{key}: run_sweep.py"] = ["scripts/run_sweep.py", str(path)]
    return todo


def record(tree: Path, args: list, out: Path) -> dict:
    """Run the interpreter on args from the root of tree; return the run's
    record."""
    out.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, *args], cwd=tree,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")})
    return {"exit": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr,
            "out": out.read_bytes() if out.exists() else None}


def differences(parent: dict, change: dict) -> dict:
    """Per run key whose records differ, the fields that differ; a key that
    one side lacks differs in every field."""
    diff = {}
    for key in sorted(parent.keys() | change.keys()):
        if key not in parent or key not in change:
            diff[key] = list(FIELDS)
            continue
        fields = [f for f in FIELDS if parent[key][f] != change[key][f]]
        if fields:
            diff[key] = fields
    return diff


def largest_cell_difference(parent: bytes, change: bytes):
    """(|difference|, column) of the two CSV texts' cells that differ most,
    or None when the headers or row counts differ, when a differing cell is
    not a number on both sides, or when no cell differs."""
    a, b = (text.decode("utf-8").splitlines() for text in (parent, change))
    if not a or len(a) != len(b) or a[0] != b[0]:
        return None
    header = a[0].split(",")
    best = None
    for row_a, row_b in zip(a[1:], b[1:]):
        cells_a, cells_b = row_a.split(","), row_b.split(",")
        if len(cells_a) != len(header) or len(cells_b) != len(header):
            return None
        for column, x, y in zip(header, cells_a, cells_b):
            if x == y:
                continue
            try:
                gap = abs(float(x) - float(y))
            except ValueError:
                return None
            if best is None or math.isnan(gap) or gap > best[0]:
                best = (gap, column)
    return best


def report(diff: dict, total: int, cells: dict = None) -> int:
    """Print the differing runs and return the exit code; cells maps a run
    key to its largest cell difference (see largest_cell_difference)."""
    for key, fields in diff.items():
        line = f"differs: {key}: {', '.join(fields)}"
        if (cells or {}).get(key) is not None:
            gap, column = cells[key]
            line += f" (largest cell difference {gap:.3g} in {column})"
        print(line)
    print(f"{len(diff)} of {total} runs differ")
    return 1 if diff else 0


def cell_differences(parent: dict, change: dict, diff: dict) -> dict:
    """The largest cell difference of each differing run whose --out files
    both exist and differ."""
    return {key: largest_cell_difference(parent[key]["out"],
                                         change[key]["out"])
            for key, fields in diff.items()
            if "out" in fields and key in parent and key in change
            and parent[key]["out"] is not None
            and change[key]["out"] is not None}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trees = {"parent": tmp / "parent", "change": ROOT}
        export("HEAD", trees["parent"])
        (tmp / "configs").mkdir()
        todo = runs(tmp / "configs", tmp / "out")
        records = {side: {} for side in trees}
        for key, args in todo.items():
            for side, tree in trees.items():
                records[side][key] = record(tree, args, tmp / "out")
            print(f"ran {key}", flush=True)
        diff = differences(records["parent"], records["change"])
        return report(diff, len(todo), cell_differences(
            records["parent"], records["change"], diff))


if __name__ == "__main__":
    sys.exit(main())
