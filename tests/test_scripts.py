"""scripts/run_sweep.py runs every verification on one config and prints a
summary line per check; no other test runs it."""

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
