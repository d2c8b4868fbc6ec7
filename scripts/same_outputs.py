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
none does.
"""

from __future__ import annotations

import json
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


def report(diff: dict, total: int) -> int:
    """Print the differing runs and return the exit code."""
    for key, fields in diff.items():
        print(f"differs: {key}: {', '.join(fields)}")
    print(f"{len(diff)} of {total} runs differ")
    return 1 if diff else 0


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
        return report(differences(records["parent"], records["change"]),
                      len(todo))


if __name__ == "__main__":
    sys.exit(main())
