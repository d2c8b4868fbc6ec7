#!/usr/bin/env python3
"""Benchmark the working tree against HEAD in ten interleaved pairs.

Usage:
    python3 scripts/bench_pairs.py --number 13 --seed 1301

HEAD, the parent (``git archive``), and the working tree, the change (its
tracked and untracked, not ignored files), are copied into temporary
directories, so neither side finds bytecode cached by earlier runs and the
repository itself is left as it is.  For each of the workloads shipped,
stress and exact, pair k (0 to 9) runs ``perfbench/run.py --trace 0
--seconds 30`` with seed ``seed + k`` once on each side, each side from its
own tree; the parent goes first on even k and the change on odd k, so a slow
spell of the machine lands on both sides alike.  One traced run per side
(``--trace 1 --seed 11 --seconds 20``) then gives the deterministic work
counters.  The result is written to ``BENCH_<number>_<workload>.json`` in
the repository root: every run, the per-metric summary (each side's median
and quartiles over its runs, and the pairs in which the change was lower)
and both traced results.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("run_s", "setup_s", "peak_rss_mb")
RUN = ["perfbench/run.py", "--seconds", "30", "--trace", "0"]
TRACE = ["perfbench/run.py", "--seed", "11", "--seconds", "20", "--trace", "1"]
PAIRS = 10
WORKLOADS = ("shipped", "stress", "exact")


def quartiles(values):
    """The first and third quartiles, linearly interpolated (numpy's
    default percentile)."""
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs, metrics=METRICS) -> dict:
    """Per metric: each side's median and quartiles over its runs, and in
    how many pairs (runs of one seed) the change was lower."""
    values = {side: {} for side in ("parent", "change")}
    for run in runs:
        values[run["side"]][run["seed"]] = run["result"]["metrics"]
    seeds = sorted(values["parent"].keys() & values["change"].keys())
    out = {}
    for name in metrics:
        side = {s: [values[s][seed][name]["value"] for seed in seeds]
                for s in values}
        out[name] = {
            "parent_median": statistics.median(side["parent"]),
            "parent_quartiles": quartiles(side["parent"]),
            "change_median": statistics.median(side["change"]),
            "change_quartiles": quartiles(side["change"]),
            "change_lower_in_pairs": sum(
                c < p for p, c in zip(side["parent"], side["change"])),
            "pairs": len(seeds),
        }
    return out


def unscaled(runs) -> dict:
    """Mean and median over each side's runs of the unscaled mean times."""
    out = {}
    for part in ("setup", "run"):
        out[part] = {}
        for side in ("parent", "change"):
            v = [r["unscaled_mean_s"][part] for r in runs if r["side"] == side]
            out[part][f"{side}_mean_of_runs"] = statistics.fmean(v)
            out[part][f"{side}_median_of_runs"] = statistics.median(v)
    return out


def perfbench(tree: Path, args: list) -> tuple:
    """Run perfbench in tree; return its env, unscaled times and result."""
    proc = subprocess.run([sys.executable, *args], cwd=tree,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {tree}:\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    info = {k: v for line in lines[:-1] for k, v in line.items()}
    return info.get("env"), info.get("unscaled_mean_s"), lines[-1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def export(rev: str, dest: Path) -> None:
    """Extract the files of commit rev into dest."""
    archive = dest.with_suffix(".tar")
    git("archive", "-o", str(archive), rev)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def copy_worktree(dest: Path) -> None:
    """Copy the working tree's tracked and untracked, not ignored files."""
    for name in git("ls-files", "-co", "--exclude-standard").splitlines():
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def bench(workload: str, trees: dict, parent: str, seed: int) -> dict:
    runs, env = [], None
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            env, times, result = perfbench(
                trees[side], RUN + ["--workload", workload,
                                    "--seed", str(seed + k)])
            runs.append({"side": side, "seed": seed + k, "result": result,
                         "unscaled_mean_s": times})
            print(f"{workload} seed {seed + k} {side}: run_s "
                  f"{result['metrics']['run_s']['value']:.4f}", flush=True)
    traced = {side: perfbench(trees[side], TRACE + ["--workload", workload])[2]
              for side in ("parent", "change")}
    return {
        "workload": workload,
        "command": f"python3 perfbench/run.py --workload {workload} "
                   "--seed SEED --seconds 30 --trace 0",
        "trace_command": f"python3 perfbench/run.py --workload {workload} "
                         "--seed 11 --seconds 20 --trace 1",
        "env": env,
        "order": "pairs by seed; the first side alternates "
                 "(parent first on even pair index)",
        "parent_commit": parent,
        "summary": summarize(runs),
        "unscaled_mean_s": unscaled(runs),
        "runs": runs,
        "traced": traced,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--number", type=int, required=True,
                    help="the <n> of BENCH_<n>_<workload>.json")
    ap.add_argument("--seed", type=int, required=True,
                    help="seed of the first pair; pair k uses seed + k")
    args = ap.parse_args(argv)
    parent = git("rev-parse", "--short", "HEAD").strip()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        export("HEAD", trees["parent"])
        copy_worktree(trees["change"])
        for workload in WORKLOADS:
            doc = bench(workload, trees, parent, args.seed)
            path = ROOT / f"BENCH_{args.number}_{workload}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n")
            run_s = doc["summary"]["run_s"]
            print(f"{path.name}: run_s {run_s['parent_median']:.4f} -> "
                  f"{run_s['change_median']:.4f}, change lower in "
                  f"{run_s['change_lower_in_pairs']}/{run_s['pairs']} pairs",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
