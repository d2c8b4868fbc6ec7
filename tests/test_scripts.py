"""scripts/run_sweep.py runs every verification on one config and prints a
summary line per check; no other test runs it.  scripts/bench_pairs.py's
summary of paired benchmark runs is checked on synthetic runs."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"


@pytest.mark.parametrize("name, n", [("ramified_line", 1),
                                     ("twisted_cubic", 2)])
def test_run_sweep(name, n):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_sweep.py"),
         str(CONFIGS / f"{name}.ini")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    checks = (["defect relation", "pair comparison (level 1)"]
              + [f"second difference d={d}" for d in range(1, n + 1)]
              + ["height growth", "tautological monitor"])
    summary = [line for line in proc.stdout.splitlines()
               if "converged" in line]
    assert [line[:28].rstrip() for line in summary] == checks
    for line in summary:
        k, total = re.search(r"converged (\d+)/(\d+)$", line).groups()
        assert k == total


@pytest.mark.parametrize("tol, message", [
    ("nan", "--tol must be finite"),
    ("0", "tol must be positive"),
    ("-1", "tol must be positive"),
])
def test_run_sweep_rejects_bad_tol(tol, message):
    # the CLI's own tolerance check, before any quadrature
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_sweep.py"),
         str(CONFIGS / "ramified_line.ini"), "--tol", tol],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode != 0
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


def test_run_sweep_missing_config(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_sweep.py"),
         str(tmp_path / "nonexistent.ini")],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode != 0
    assert proc.stderr.startswith("error: ")
    assert "nonexistent.ini" in proc.stderr
    assert proc.stdout == ""


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary():
    # five pairs; the change is lower in the pairs of seeds 1, 2, 3 and 5,
    # and equal (not lower) in seed 4's
    parent = [1.0, 1.2, 0.9, 1.1, 1.4]
    change = [0.8, 0.7, 0.85, 1.1, 0.9]
    runs = [{"side": side, "seed": seed,
             "result": {"metrics": {"run_s": {"value": v, "unit": "s"}}}}
            for side, values in (("change", change), ("parent", parent))
            for seed, v in enumerate(values, 1)]
    got = _bench_pairs().summarize(runs, ("run_s",))["run_s"]
    assert got == {
        "parent_median": 1.1,
        "parent_quartiles": [pytest.approx(1.0), pytest.approx(1.2)],
        "change_median": 0.85,
        "change_quartiles": [pytest.approx(0.8), pytest.approx(0.9)],
        "change_lower_in_pairs": 4,
        "pairs": 5,
    }


def test_bench_pairs_summary_matches_only_paired_seeds():
    # a run without a partner of the same seed is left out of every figure
    runs = [{"side": side, "seed": seed,
             "result": {"metrics": {"run_s": {"value": v, "unit": "s"}}}}
            for side, seed, v in (("parent", 1, 2.0), ("change", 1, 1.0),
                                  ("parent", 2, 4.0), ("change", 2, 3.0),
                                  ("parent", 3, 9.0))]
    got = _bench_pairs().summarize(runs, ("run_s",))["run_s"]
    assert got["pairs"] == 2 and got["change_lower_in_pairs"] == 2
    assert got["parent_median"] == 3.0 and got["change_median"] == 2.0
    assert got["parent_quartiles"] == [2.5, 3.5]


def _same_outputs():
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "scripts" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(exit=0, stdout="", stderr="", out=b""):
    return {"exit": exit, "stdout": stdout, "stderr": stderr, "out": out}


def test_same_outputs_lists_differing_fields(capsys):
    # "a" is equal; "b" differs in both streams; "c" in its exit code and
    # its --out file, which one side did not write; "d" and "e" are each
    # missing on one side
    parent = {"a": _record(out=b"r,T_1\n2,0.5\n"), "b": _record(stdout="x"),
              "c": _record(exit=2, out=None), "d": _record()}
    change = {"a": _record(out=b"r,T_1\n2,0.5\n"),
              "b": _record(stdout="y", stderr="warning\n"),
              "c": _record(out=b""), "e": _record()}
    module = _same_outputs()
    diff = module.differences(parent, change)
    every = ["exit", "stdout", "stderr", "out"]
    assert diff == {"b": ["stdout", "stderr"], "c": ["exit", "out"],
                    "d": every, "e": every}
    assert module.report(diff, 5) == 1
    assert capsys.readouterr().out.splitlines() == [
        "differs: b: stdout, stderr", "differs: c: exit, out",
        "differs: d: exit, stdout, stderr, out",
        "differs: e: exit, stdout, stderr, out", "4 of 5 runs differ"]


def test_same_outputs_equal_records(capsys):
    records = {"a": _record(exit=2, stdout="s", stderr="e", out=None),
               "b": _record(out=b"\x00")}
    module = _same_outputs()
    diff = module.differences(records, {k: dict(v) for k, v in records.items()})
    assert diff == {}
    assert module.report(diff, 2) == 0
    assert capsys.readouterr().out == "0 of 2 runs differ\n"


def test_same_outputs_runs_every_base_command(tmp_path):
    # 43 base commands (check and the listed commands of the 9 base configs
    # of perfbench/data) and 20 on scripts/configs (9 nevlab commands and
    # run_sweep.py on each of the 2 configs)
    todo = _same_outputs().runs(tmp_path, tmp_path / "out")
    assert len(todo) == 63
    assert todo["edges/huge_radius: verify growth --r 53"][:5] == [
        "-m", "nevlab.cli", "verify", "growth", "--r"]
    assert (tmp_path / "edges_huge_radius.ini").exists()
    cubic = "scripts/configs/twisted_cubic.ini"
    assert todo[f"{cubic}: run_sweep.py"] == [
        "scripts/run_sweep.py", str(CONFIGS / "twisted_cubic.ini")]
    assert f"{cubic}: compute --r 10" in todo
    assert sum(key.endswith(": check") for key in todo) == 11
