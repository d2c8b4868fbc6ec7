"""Smoke test of the benchmark itself (about two minutes on two cores).

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at minimum size (one pass, or two traced passes) and
checks that each metric named in BENCHMARK.json is printed with its unit,
that the counters repeat across runs of one seed, and that the benchmark
refuses to run without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    result = result_of(bench(workload, trace))
    assert result["failed"] == 0
    group = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in group}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counters_repeat_across_runs_of_one_seed():
    first, second = (result_of(bench("shipped", 1))["metrics"] for _ in range(2))
    for m in SPEC["per_layer"]:
        if m["unit"] == "count":
            assert first[m["name"]] == second[m["name"]], m["name"]


def test_edges_counts_unconverged_rows_as_failed():
    result = result_of(bench("edges", 0))
    assert 0 < result["failed"] < result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("shipped", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
