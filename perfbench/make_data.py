"""Build the benchmark's base configs and reference outputs.

    python3 perfbench/make_data.py [WORKLOAD ...]

Run from the repository root, at the commit whose outputs become the
reference; writes ``perfbench/data/<workload>.json`` (see workloads.py for
the format).  Random inputs come from fixed generator seeds.  Every
reference output passes the benchmark's own checks before it is stored.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import checks
import workloads
from run import run_worker

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from nevlab.cli import RunConfig, serialize_config  # noqa: E402
from nevlab.curve import normalize  # noqa: E402
from nevlab.gauss import GaussPoly, GaussRational  # noqa: E402
from nevlab.harness import general_position_tuples  # noqa: E402

SHIPPED_COMMANDS = [["sweep"], ["verify", "cartan"], ["verify", "lemma55"],
                    ["verify", "prop62"], ["verify", "growth"],
                    ["verify", "mcquillan"], ["verify", "identities"]]


def ini(coords: str, forms: str, r_min, r_max, r_points: int, tol: float) -> str:
    return (f"[curve]\ncoords = {coords}\n\n[hyperplanes]\nforms = {forms}\n\n"
            f"[sweep]\nr_min = {r_min}\nr_max = {r_max}\n"
            f"r_points = {r_points}\ntol = {tol}\n")


def entry(text: str, tol: float, commands) -> dict:
    return {"ini": text, "tol": tol, "commands": commands}


def shipped() -> dict:
    # twisted_cubic and ramified_line copy scripts/configs/, so the workload
    # does not change when the examples do
    return {
        "twisted_cubic": entry(ini("1; z; z^2", "1, 0, 0; 0, 1, 0; 0, 0, 1; 1, 1, 1",
                                   2, 100, 10, 1e-6), 1e-6, SHIPPED_COMMANDS),
        "ramified_line": entry(ini("1; z^2", "1, 0; 0, 1; 1, 1", 2, 100, 30, 1e-6),
                               1e-6, SHIPPED_COMMANDS),
        "line": entry(ini("1; z", "1, 0; 0, 1; 1, 1", 2, 100, 10, 1e-6),
                      1e-6, SHIPPED_COMMANDS),
    }


def stress() -> dict:
    """ROADMAP item 1's stress_n4 curve (n = 4, 9 forms, 111 tuples) on a
    three-point log grid with one radius in each band: 0.54 < 1,
    sqrt(0.54 * 6) = 1.8 in (1, 2], and 6 >= 6.  At tol 3e-5 a pass takes
    about 6 s, mostly in SelectorContext; at the default 1e-6 one radius
    below 2 alone takes 25-36 s and up to 2.5 GB."""
    text = ini("1; z - 2; z^2 + (1/2)i; z^3 - 3z + 1; z^5 + 2z^2 - i",
               "1,0,0,0,0; 0,1,0,0,0; 0,0,1,0,0; 0,0,0,1,0; 0,0,0,0,1; "
               "1,1,1,1,1; 1,2,3,4,5; 1,-1,1,-1,1; 2,0,1,0,3",
               0.54, 6.0, 3, 3e-5)
    return {"stress_n4": entry(text, 3e-5, [["sweep"], ["verify", "prop62"],
                                            ["verify", "mcquillan"]])}


def _rand_rational(rng, span=3) -> GaussRational:
    return GaussRational(Fraction(rng.randint(-span, span), rng.randint(1, span)),
                         Fraction(rng.randint(-span, span), rng.randint(1, span)))


def exact(count: int = 3) -> dict:
    """Random lifts as in acceptance criterion 01, with n = 4, degree <= 6
    and n + 3 forms; degenerate lifts and forms without a general-position
    tuple are skipped."""
    rng = random.Random(1202)
    n = 4
    configs = {}
    while len(configs) < count:
        coords = []
        for _ in range(n + 1):
            deg = rng.randint(0, 6)
            coords.append(GaussPoly(tuple(_rand_rational(rng) for _ in range(deg + 1))))
        forms = [tuple(_rand_rational(rng) for _ in range(n + 1))
                 for _ in range(n + 3)]
        if any(p.is_zero() for p in coords) or not normalize(coords).is_nondegenerate():
            continue
        try:
            general_position_tuples(forms, n)
        except ValueError:
            continue
        text = serialize_config(RunConfig(curve=tuple(coords), hyperplanes=tuple(forms),
                                          r_min=2.0, r_max=20.0, r_points=3, tol=1e-6))
        configs[f"lift_{len(configs)}"] = entry(
            text, 1e-6, [["check"], ["verify", "identities"], ["verify", "growth"]])
    return configs


def edges() -> dict:
    """root_on_circle: a root of z^2 + 1 lies on |z| = 1, the first radius of
    the grid.  huge_radius: degree 80 at r = 53 overflows floats."""
    return {
        "root_on_circle": entry(
            ini("z - 2; z^2 + 1", "1, 0; 0, 1; 1, 1", 1, 4, 3, 1e-6), 1e-6,
            [["sweep"], ["verify", "cartan"], ["verify", "mcquillan"]]),
        "huge_radius": entry(
            ini("1; z^40; z^80 + 1", "1, 0, 0; 0, 1, 0; 0, 0, 1; 1, 1, 1",
                2, 1e6, 10, 1e-6), 1e-6, [["verify", "growth", "--r", "53"]]),
    }


def build(workload: str) -> None:
    configs = {"shipped": shipped, "stress": stress, "exact": exact,
               "edges": edges}[workload]()
    workdir = ROOT / ".bench_out" / f"make_data-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    for name, conf in configs.items():
        cfg = workdir / f"{name}.ini"
        cfg.write_text(conf["ini"], encoding="utf-8")
        prefixes = [["check"]] + [p for p in conf["commands"] if p != ["check"]]
        argvs = [workloads.argv(workloads.Command(name, tuple(p)), cfg,
                                workdir / f"{name}-{k}.out")
                 for k, p in enumerate(prefixes)]
        res = run_worker(ROOT, workdir / name, argvs, trace=False)
        if res["error"]:
            raise RuntimeError(f"{name}: {res['error']}")
        for p, code, text in zip(prefixes, res["codes"], res["texts"]):
            if text is None:
                raise RuntimeError(f"{name} {p}: no output (exit {code})")
            ref = checks.reference_of(p, code, text)
            _, _, problems = checks.check_command(p, ref, code, text, conf["tol"])
            if problems:
                raise RuntimeError(f"{name} {p}: reference fails its checks: {problems}")
            reference[f"{name}:{' '.join(p)}"] = ref
        print(f"{workload}/{name}: {res['wall']:.2f} s", flush=True)
    with open(workloads.DATA_DIR / f"{workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"configs": configs, "reference": reference}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    workloads.DATA_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or workloads.WORKLOADS:
        build(name)
