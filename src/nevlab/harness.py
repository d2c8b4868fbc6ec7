"""Verification harness: index-pair collections, the telescoping identity,
and the radial inequality checks (Cartan-style defect bound, the
derived-curve comparison at each level, height growth, and the
tautological-inequality monitor).  Hyperplane configurations live in the
exact layer (exterior) and are re-exported here.

All radial functionals for one report row are integrated on shared quadrature
nodes, so identities that hold pointwise in theta survive to the reported
numbers up to float rounding.
"""

from __future__ import annotations

import functools
import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .curve import CurveLift
from .exterior import (HyperplaneConfig, MultiIndex, general_position_tuples,
                       multi_indices)
from .nevanlinna import QUAD_TOL, Evaluator, counting

__all__ = [
    "HyperplaneConfig",
    "general_position_tuples",
    "BalancedResult",
    "balanced_check",
    "PairCollection",
    "distance_one_collection",
    "telescoping_identity",
    "MarginReport",
    "SweepReport",
    "Evaluator",
    "verify_cartan",
    "verify_lemma55",
    "verify_prop62",
    "verify_height_growth",
    "mcquillan_monitor",
    "full_sweep",
]


@dataclass(frozen=True)
class BalancedResult:
    balanced: bool
    counts: Tuple[Tuple[object, int], ...]
    empty: bool


def balanced_check(pairs: Sequence[Tuple[object, object]]) -> BalancedResult:
    """Whether every member index set occurs in the same number of pairs."""
    counts: Dict[object, int] = {}
    for a, b in pairs:
        counts[a] = counts.get(a, 0) + 1
        counts[b] = counts.get(b, 0) + 1
    if not counts:
        return BalancedResult(balanced=False, counts=(), empty=True)
    freqs = set(counts.values())
    return BalancedResult(
        balanced=len(freqs) == 1,
        counts=tuple(sorted(counts.items(), key=str)),
        empty=False,
    )


@dataclass(frozen=True)
class PairCollection:
    """Unordered pairs of size-d index sets in {0..n} at distance one
    (symmetric difference of size two)."""

    n: int
    degree: int
    pairs: Tuple[Tuple[MultiIndex, MultiIndex], ...]

    def positions(self) -> List[Tuple[int, int]]:
        """Each pair as positions in the lexicographic multi-index order."""
        where = {ia: k for k, ia in enumerate(multi_indices(self.n, self.degree))}
        return [(where[a], where[b]) for a, b in self.pairs]


def distance_one_collection(n: int, d: int) -> PairCollection:
    idx = multi_indices(n, d)
    pairs = []
    for a, b in itertools.combinations(idx, 2):
        if len(set(a.elements) ^ set(b.elements)) == 2:
            pairs.append((a, b))
    return PairCollection(n=n, degree=d, pairs=tuple(pairs))


def telescoping_identity(a: Sequence) -> Tuple[object, object]:
    """lhs = sum_{d=1}^{n} (n+1-d) * (-a_{d-1} + 2 a_d - a_{d+1}) against
    rhs = -n a_0 + (n+1) a_1 - a_{n+1}, for a sequence a_0 .. a_{n+1}."""
    if len(a) < 2:
        raise ValueError("telescoping identity needs a_0 .. a_{n+1}, n >= 0")
    n = len(a) - 2
    lhs = a[0] - a[0]
    for d in range(1, n + 1):
        lhs = lhs + (n + 1 - d) * (-a[d - 1] + 2 * a[d] - a[d + 1])
    rhs = -n * a[0] + (n + 1) * a[1] - a[n + 1]
    return lhs, rhs


@dataclass
class MarginReport:
    """One radius of a verification: margin = rhs - lhs, so the inequality
    under test reads margin >= -slack."""

    r: float
    lhs: float
    rhs: float
    margin: float
    converged: bool
    values: Dict[str, float] = field(default_factory=dict)


@dataclass
class SweepReport:
    columns: Tuple[str, ...]
    rows: List[MarginReport]

    def _cell(self, row: MarginReport, col: str):
        if col == "r":
            return row.r
        if col in ("lhs", "rhs", "margin"):
            return getattr(row, col)
        if col == "converged":
            return int(row.converged)
        return row.values[col]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            cells = []
            for col in self.columns:
                v = self._cell(row, col)
                cells.append(str(v) if isinstance(v, int) else f"{v:.12g}")
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()

    def all_converged(self) -> bool:
        return all(row.converged for row in self.rows)


def _validate_radii(radii: Sequence[float]) -> List[float]:
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("empty radius grid")
    if not all(map(math.isfinite, radii)):
        raise ValueError("radii must be finite")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    return radii


def _margin_rows(radii, builder) -> List[MarginReport]:
    return [builder(r) for r in _validate_radii(radii)]


def verify_cartan(x: CurveLift, config: HyperplaneConfig,
                  radii: Sequence[float], tol: float = QUAD_TOL) -> SweepReport:
    """Defect-relation check: integral of the largest tuple Weil sum against
    (n+1) T_f(r) - N_W(r).  Also records (n+1) m_1 as a cross check; the
    selector makes it equal to the lhs up to quadrature."""
    ev = Evaluator(x, config, tol)
    n = x.n
    n_w = ev.level_divisor(n + 1)
    n_1 = ev.level_divisor(1)

    def build(r):
        (lhs, hbar1, m1), conv, _ = ev.radial(
            r, lambda at: [at.cartan(), at.hbar(1), at.m(1)])
        t1 = hbar1 - counting(n_1, r)
        nw = counting(n_w, r)
        rhs = (n + 1) * t1 - nw
        return MarginReport(
            r=r, lhs=lhs, rhs=rhs, margin=rhs - lhs, converged=conv.all(),
            values={
                "T_1": t1,
                "N_W": nw,
                "m_1": m1,
                "sum_check": (n + 1) * m1,
            },
        )

    return SweepReport(
        columns=("r", "lhs", "rhs", "margin", "T_1", "N_W", "m_1",
                 "sum_check", "converged"),
        rows=_margin_rows(radii, build),
    )


def verify_lemma55(x: CurveLift, config: HyperplaneConfig,
                   pairs: Optional[Sequence[Tuple[int, int]]] = None,
                   radii: Sequence[float] = (),
                   tol: float = QUAD_TOL) -> SweepReport:
    """Second-main-theorem seed: 2 m_1 - m_C against 2 Tbar - Tbar_{x wedge x'}
    for a balanced collection C of index pairs inside a tuple."""
    ev = Evaluator(x, config, tol)
    if pairs is None:
        positions = distance_one_collection(x.n, 1).positions()
    else:
        positions = [tuple(sorted(p)) for p in pairs]
        check = balanced_check(positions)
        if check.empty:
            raise ValueError("empty pair collection")
        if not check.balanced:
            raise ValueError("pair collection is not balanced")
        if any(a == b or not (0 <= a <= x.n and 0 <= b <= x.n)
               for a, b in positions):
            raise ValueError("pair indices out of range")

    def build(r):
        (m1, m_c, hbar1, hbar_pair), conv, _ = ev.radial(
            r, lambda at: [at.m(1), at.pairlam(1, positions), at.hbar(1),
                           at.hbarpair(1)])
        lhs = 2 * m1 - m_c
        rhs = 2 * hbar1 - hbar_pair
        return MarginReport(
            r=r, lhs=lhs, rhs=rhs, margin=rhs - lhs, converged=conv.all(),
            values={
                "m_1": m1,
                "m_C": m_c,
                "hbar_1": hbar1,
                "hbar_pair": hbar_pair,
            },
        )

    return SweepReport(
        columns=("r", "lhs", "rhs", "margin", "m_1", "m_C", "hbar_1",
                 "hbar_pair", "converged"),
        rows=_margin_rows(radii, build),
    )


def verify_prop62(x: CurveLift, config: HyperplaneConfig,
                  levels: Sequence[int], radii: Sequence[float],
                  tol: float = QUAD_TOL) -> SweepReport:
    """Level-d second-difference comparison at each of the given levels,
    computed by two routes on shared quadrature nodes: directly (-m_{d-1} +
    2 m_d - m_{d+1} against the same second difference of bare heights) and
    through the pair collection on the level-d derived curve.  route_gap
    records their disagreement.  One Evaluator serves all levels, and the
    levels of one radius share their node batches (Evaluator.radials); the
    rows are stacked level by level behind a leading d column."""
    levels = list(levels)
    for d in levels:
        if not (1 <= d <= x.n):
            raise ValueError(f"level d={d} out of range 1..{x.n}")
    ev = Evaluator(x, config, tol)
    positions = {}
    for d in levels:
        coll = distance_one_collection(x.n, d)
        check = balanced_check(coll.pairs)
        if check.empty or not check.balanced:
            raise ValueError("distance-one collection unbalanced or empty")
        positions[d] = coll.positions()

    def level_row(d, at):
        return [at.m(d - 1), at.m(d), at.m(d + 1),
                at.hbar(d - 1), at.hbar(d), at.hbar(d + 1),
                at.pairlam(d, positions[d]), at.hbarpair(d)]

    radii = _validate_radii(radii)
    each = [functools.partial(level_row, d) for d in levels]
    results = {r: dict(zip(levels, ev.radials(r, each))) for r in radii}

    def build(d, r):
        vals, conv, _ = results[r][d]
        m, h, (m_c, hbar_pair) = vals[0:3], vals[3:6], vals[6:]
        lhs1 = -m[0] + 2 * m[1] - m[2]
        rhs1 = -h[0] + 2 * h[1] - h[2]
        lhs2 = 2 * m[1] - m_c
        rhs2 = 2 * h[1] - hbar_pair
        return MarginReport(
            r=r, lhs=lhs1, rhs=rhs1, margin=rhs1 - lhs1, converged=conv.all(),
            values={
                "d": d,
                "lhs_pair": lhs2,
                "rhs_pair": rhs2,
                "margin_pair": rhs2 - lhs2,
                "route_gap": abs((rhs1 - lhs1) - (rhs2 - lhs2)),
                "m_C": m_c,
                "hbar_pair": hbar_pair,
            },
        )

    return SweepReport(
        columns=("d", "r", "lhs", "rhs", "margin", "lhs_pair", "rhs_pair",
                 "margin_pair", "route_gap", "m_C", "hbar_pair", "converged"),
        rows=[build(d, r) for d in levels for r in radii],
    )


def verify_height_growth(x: CurveLift, radii: Sequence[float],
                         slack: float = 2.0,
                         tol: float = QUAD_TOL) -> SweepReport:
    """Checks T_{d,f}(r) <= 2^{d-1} T_f(r) + slack for every level d."""
    ev = Evaluator(x, None, tol)
    levels = list(range(1, x.n + 2))
    divisors = {d: ev.level_divisor(d) for d in levels}

    def build(r):
        vals, conv, _ = ev.radial(r, lambda at: [at.hbar(d) for d in levels])
        t = {d: h - counting(divisors[d], r) for d, h in zip(levels, vals)}
        excess = {d: t[d] - 2 ** (d - 1) * t[1] for d in levels}
        worst = max(excess.values())
        values = {f"T_{d}": t[d] for d in levels}
        values.update({f"excess_{d}": excess[d] for d in levels})
        return MarginReport(r=r, lhs=worst, rhs=slack, margin=slack - worst,
                            converged=conv.all(), values=values)

    cols = (["r", "lhs", "rhs", "margin"]
            + [f"T_{d}" for d in levels]
            + [f"excess_{d}" for d in levels] + ["converged"])
    return SweepReport(columns=tuple(cols), rows=_margin_rows(radii, build))


def mcquillan_monitor(x: CurveLift, config: HyperplaneConfig,
                      radii: Sequence[float],
                      tol: float = QUAD_TOL) -> SweepReport:
    """M(r) = [T_{f wedge f'}(r) - 2 T_f(r)] + circle average of the largest
    tuple mu + N_Ram(r); the tautological inequality predicts M(r) stays
    below a small multiple of max(1, log r)."""
    if x.n < 1:
        raise ValueError("monitor needs n >= 1")
    ev = Evaluator(x, config, tol)
    n_1 = ev.level_divisor(1)
    n_ram = ev.level_divisor(2)

    def build(r):
        (hbar1, hbar2, mu_int), conv, _ = ev.radial(
            r, lambda at: [at.hbar(1), at.hbar(2), at.mumax()])
        t1 = hbar1 - counting(n_1, r)
        nram = counting(n_ram, r)
        t2 = hbar2 - nram
        m = (t2 - 2 * t1) + mu_int + nram
        return MarginReport(
            r=r, lhs=m, rhs=0.0, margin=-m, converged=conv.all(),
            values={"T_1": t1, "T_2": t2, "mu_int": mu_int, "N_Ram": nram,
                    "normalized": m / max(1.0, math.log(r))},
        )

    return SweepReport(
        columns=("r", "lhs", "rhs", "margin", "T_1", "T_2", "mu_int",
                 "N_Ram", "normalized", "converged"),
        rows=_margin_rows(radii, build),
    )


def full_sweep(x: CurveLift, config: HyperplaneConfig,
               radii: Sequence[float], tol: float = QUAD_TOL) -> SweepReport:
    """Everything at once: all heights and proximities, the ramification and
    Wronskian counting functions, and the defect-relation margin."""
    ev = Evaluator(x, config, tol)
    n = x.n
    levels = list(range(1, n + 2))
    divisors = {d: ev.level_divisor(d) for d in levels}

    def build(r):
        vals, conv, _ = ev.radial(r, lambda at: [at.hbar(d) for d in levels]
                                  + [at.m(d) for d in levels] + [at.cartan()])
        hbar, m, lhs = vals[:n + 1], vals[n + 1:-1], vals[-1]
        t = {d: h - counting(divisors[d], r) for d, h in zip(levels, hbar)}
        nw = counting(divisors[n + 1], r)
        nram = counting(divisors[2], r) if n >= 1 else 0.0
        rhs = (n + 1) * t[1] - nw
        values = {f"T_{d}": t[d] for d in levels}
        values["m_0"] = 0.0
        values.update({f"m_{d}": v for d, v in zip(levels, m)})
        values["N_W"] = nw
        values["N_Ram"] = nram
        return MarginReport(r=r, lhs=lhs, rhs=rhs, margin=rhs - lhs,
                            converged=conv.all(), values=values)

    cols = (["r"] + [f"T_{d}" for d in levels]
            + [f"m_{d}" for d in range(0, n + 2)]
            + ["N_W", "N_Ram", "lhs", "rhs", "margin", "converged"])
    return SweepReport(columns=tuple(cols), rows=_margin_rows(radii, build))
