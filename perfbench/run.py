"""nevlab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.  Every
pass is a fresh worker process that runs the workload's command list through
``nevlab.cli.main`` (worker.py).  Passes run one at a time from this process
until ``--seconds`` have passed.  With ``--trace 0`` a run alternates setup
samples (a fresh process running ``check`` on the workload's configs) with
passes and prints the end-to-end metrics of BENCHMARK.json: mean times
scaled by the speed probe's samples over the run (probe.py) and mean peak
memory.  With ``--trace 1`` it alternates untraced and traced passes and
prints the per-layer metrics, medians over the traced passes.  The last
stdout line is the JSON result; see README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import workloads
from metrics import layer_value, span_totals
from probe import REF_KERNEL_S

BENCH_DIR = Path(__file__).resolve().parent
SETUP_MIN = 5
TRACED_MIN = 2  # deterministic counters must repeat across traced passes
TIME_LIMIT = 150.0  # no pass starts after this, so a run ends within 180 s
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > nproc:
        raise RuntimeError(f"BLAS threads {BLAS_THREADS} exceed nproc {nproc}")
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": nproc,
        "cpu": cpu_model(),
        "blas_threads": BLAS_THREADS,
    }


def run_worker(root: Path, tag: Path, argvs: list, trace: bool) -> dict:
    """Run the commands in one fresh worker process and collect the results.

    Returns wall time, peak RSS, exit codes, the ``--out`` texts (None when
    missing), stderr line count, spans and the speed probe's samples;
    ``error`` is set when the worker died without a result.  The worker's
    files are removed afterwards.
    """
    outs = [Path(a[a.index("--out") + 1]) for a in argvs]
    files = {s: Path(f"{tag}.{s}") for s in ("job.json", "result.json",
                                             "stdout", "stderr")}
    files["job.json"].write_text(json.dumps({
        "src": str(root / "src"), "commands": argvs, "trace": trace,
        "result": str(files["result.json"])}), encoding="utf-8")
    env = dict(os.environ, **{v: str(BLAS_THREADS) for v in THREAD_VARS})
    with open(files["stdout"], "w") as out, open(files["stderr"], "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(files["job.json"])],
            cwd=root, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    error = None
    try:
        with open(files["result.json"], encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {"codes": [None] * len(argvs)}
        error = f"worker exited {proc.returncode} without a result"
    with open(files["stderr"], encoding="utf-8", errors="replace") as fh:
        stderr_lines = sum(1 for _ in fh)
    texts = [o.read_text(encoding="utf-8") if o.is_file() else None for o in outs]
    for path in [*outs, *files.values()]:
        path.unlink(missing_ok=True)
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024,
            "codes": result["codes"], "texts": texts,
            "stderr_lines": stderr_lines, "spans": result.get("spans"),
            "probe": result.get("probe"), "error": error}


class Run:
    """One benchmark run: the seeded inputs, the passes made, the tallies."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.data = workloads.load(workload)
        self.configs, self.commands = workloads.pick(self.data, seed)
        self.dir = root / ".bench_out" / f"{workload}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True)
        for name, text in self.configs.items():
            (self.dir / f"{name}.ini").write_text(text, encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.rows: dict = {}  # command key -> [attempted, failed]
        self.problems: list = []
        self.jobs = 0

    def setup_sample(self) -> dict:
        """A fresh process that runs ``check`` on every config."""
        cmds = [workloads.Command(name, ("check",)) for name in self.configs]
        return self._job(cmds, trace=False)

    def workload_pass(self, trace: bool) -> dict:
        return self._job(self.commands, trace)

    def _job(self, cmds, trace: bool) -> dict:
        self.jobs += 1
        outs = [self.dir / f"job{self.jobs}-{k}.out" for k in range(len(cmds))]
        argvs = [workloads.argv(c, self.dir / f"{c.config}.ini", o)
                 for c, o in zip(cmds, outs)]
        res = run_worker(self.root, self.dir / f"job{self.jobs}", argvs, trace)
        if res["error"]:
            self.problems.append(res["error"])
        for cmd, code, text in zip(cmds, res["codes"], res["texts"]):
            self._check(cmd, code, text)
        return res

    def _check(self, cmd, code, text) -> None:
        ref = self.data["reference"].get(cmd.key)
        if ref is None:
            attempted, failed, problems = 1, 1, ["no reference"]
        else:
            attempted, failed, problems = checks.check_command(
                cmd.prefix, ref, code, text, self.data["configs"][cmd.config]["tol"])
        self.attempted += attempted
        self.failed += failed
        tally = self.rows.setdefault(cmd.key, [0, 0])
        tally[0] += attempted
        tally[1] += failed
        self.problems += [f"{cmd.key}: {p}" for p in problems]

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def program_s(job: dict) -> float:
    """Wall time of a job minus the time its speed probe took."""
    return job["wall"] - (job["probe"] or {}).get("kernel_s", 0.0)


def scaled_mean(jobs: list) -> float:
    """Mean program time of the jobs at the probe's reference speed.

    The program time of all jobs is summed and divided by the probe's kernel
    time summed over the same jobs, so moments when the machine ran slow
    weigh in both.  Without probe samples (a worker that died) the plain
    mean is returned.
    """
    samples = sum((j["probe"] or {}).get("samples", 0) for j in jobs)
    kernel_s = sum((j["probe"] or {}).get("kernel_s", 0.0) for j in jobs)
    mean = statistics.fmean(program_s(j) for j in jobs)
    if not samples:
        return mean
    return mean * REF_KERNEL_S * samples / kernel_s


def measure_end_to_end(run: Run, seconds: float) -> dict:
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        setups.append(run.setup_sample())
        passes.append(run.workload_pass(trace=False))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + passes[-1]["wall"] > TIME_LIMIT:
            break
    while len(setups) < SETUP_MIN and time.perf_counter() - start < TIME_LIMIT:
        setups.append(run.setup_sample())
    print(json.dumps({"unscaled_mean_s": {
        "run": statistics.fmean(program_s(p) for p in passes),
        "setup": statistics.fmean(program_s(j) for j in setups)},
        "passes": len(passes), "setups": len(setups)}))
    return {
        "run_s": scaled_mean(passes),
        "setup_s": scaled_mean(setups),
        "peak_rss_mb": statistics.fmean(p["rss_mb"] for p in passes),
    }


def measure_layers(run: Run, seconds: float, units: dict, spans_path: Path) -> dict:
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run.workload_pass(trace=False))
        traced.append(run.workload_pass(trace=True))
        elapsed = time.perf_counter() - start
        if elapsed + plain[-1]["wall"] + traced[-1]["wall"] > TIME_LIMIT:
            break
        if elapsed >= seconds and len(traced) >= TRACED_MIN:
            break
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["run", "name", "start", "end", "parent", "attrs"],
                   "spans": [[k, *s] for k, p in enumerate(traced)
                             for s in p["spans"] or []]}, fh)
    totals = [span_totals(p["spans"] or []) for p in traced]
    values = {}
    for name, unit in units.items():
        if name == "fail_frac":
            values[name] = run.failed / run.attempted
        elif name == "trace.overhead_s":
            values[name] = (statistics.median(p["wall"] for p in traced)
                            - statistics.median(program_s(p) for p in plain))
        elif name == "cli.stderr_lines":
            values[name] = statistics.median(
                p["stderr_lines"] for p in plain + traced)
        else:
            per_pass = [layer_value(t, name) for t in totals]
            if unit == "count" and len(set(per_pass)) > 1:
                run.problems.append(
                    f"counter {name} differs between passes of one seed: {per_pass}")
            values[name] = statistics.median(per_pass)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "nevlab" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the nevlab repository root "
              "(needs src/nevlab and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    env = environment()
    print(json.dumps({"env": env}), flush=True)
    run = Run(root, args.workload, args.seed)
    try:
        if args.trace:
            values = measure_layers(
                run, args.seconds, units,
                root / ".bench_out" / f"spans-{args.workload}-{args.seed}.json")
        else:
            values = measure_end_to_end(run, args.seconds)
    finally:
        run.close()
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"rows_attempted_failed": run.rows}))
    print(f"fail_frac = {run.failed}/{run.attempted} rows "
          f"(every command run, setup checks included)")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
