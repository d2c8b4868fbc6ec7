#!/usr/bin/env python3
"""Run every verification over a radius sweep for one configuration and
print a compact summary table.

Usage:
    python scripts/run_sweep.py scripts/configs/twisted_cubic.ini [--tol 1e-6]

This is the exploratory companion to the `nevlab` CLI: instead of one CSV
per command it runs the defect-relation check, the per-level comparisons,
the growth bound and the tautological monitor on a shared radius grid and
reports worst-case margins.
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nevlab.cli import build, parse_config, with_tol  # noqa: E402
from nevlab.harness import (  # noqa: E402
    mcquillan_monitor,
    verify_cartan,
    verify_height_growth,
    verify_lemma55,
    verify_prop62,
)


def summarize(name, rows, normalize_by_log=False):
    margins = []
    for row in rows:
        m = row["margin"]
        if normalize_by_log:
            m = m / max(1.0, math.log(row["r"]))
        margins.append(m)
    conv = sum(row["converged"] for row in rows)
    print(f"{name:<28} min margin {min(margins):+10.4f}   "
          f"max {max(margins):+10.4f}   converged {conv}/{len(rows)}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("config")
    ap.add_argument("--tol", type=float, default=None)
    args = ap.parse_args()

    try:
        cfg = with_tol(parse_config(Path(args.config).read_text(
            encoding="utf-8")), args.tol)
        x, hp = build(cfg)
    except (OSError, ValueError) as e:
        sys.exit(f"error: {e}")
    tol = cfg.tol
    radii = cfg.radii()
    print(f"curve n={cfg.n}, {len(hp.forms)} forms, "
          f"{len(hp.tuples)} tuples, {len(radii)} radii in "
          f"[{radii[0]:g}, {radii[-1]:g}], tol={tol:g}\n")

    summarize("defect relation", verify_cartan(x, hp, radii, tol=tol).rows)
    summarize("pair comparison (level 1)",
              verify_lemma55(x, hp, radii, tol=tol).rows)
    prop62 = verify_prop62(x, hp, range(1, x.n + 1), radii, tol=tol)
    for d in range(1, x.n + 1):
        rows = [row for row in prop62.rows if row["d"] == d]
        summarize(f"second difference d={d}", rows)
        gap = max(row["route_gap"] for row in rows)
        print(f"{'':<28} route agreement gap {gap:.3e}")
    summarize("height growth", verify_height_growth(x, radii, tol=tol).rows)
    summarize("tautological monitor",
              mcquillan_monitor(x, hp, radii, tol=tol).rows,
              normalize_by_log=True)


if __name__ == "__main__":
    main()
