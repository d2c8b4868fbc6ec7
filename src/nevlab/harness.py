"""Verification harness: the radial inequality checks (Cartan-style defect
bound, the derived-curve comparison at each level, height growth, and the
tautological-inequality monitor).  Hyperplane configurations, index-pair
collections and the telescoping identity live in the exact layer (exterior)
and are re-exported here.

All radial functionals for one report row are integrated on shared quadrature
nodes, so identities that hold pointwise in theta survive to the reported
numbers up to float rounding.
"""

from __future__ import annotations

import functools
import io
import math
from typing import Dict, List, Optional, Sequence, Tuple

from .curve import CurveLift
from .exterior import (BalancedResult, HyperplaneConfig, PairCollection,
                       balanced_check, distance_one_collection,
                       general_position_tuples, telescoping_identity)
from .nevanlinna import QUAD_TOL, Evaluator, counting

__all__ = [
    "HyperplaneConfig",
    "general_position_tuples",
    "BalancedResult",
    "balanced_check",
    "PairCollection",
    "distance_one_collection",
    "telescoping_identity",
    "SweepReport",
    "Evaluator",
    "verify_cartan",
    "verify_lemma55",
    "verify_prop62",
    "verify_height_growth",
    "mcquillan_monitor",
    "full_sweep",
]


class SweepReport:
    """The rows of one radial report.  Each row is a dict from column name to
    value in column order, so ``columns`` is the key order of every row."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Tuple[str, ...], rows: List[Dict[str, float]]):
        self.columns, self.rows = columns, rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(str(v) if isinstance(v, int) else f"{v:.12g}"
                               for v in row.values()) + "\n")
        return buf.getvalue()

    def all_converged(self) -> bool:
        return all(row["converged"] for row in self.rows)


def _report(rows: List[Dict[str, float]]) -> SweepReport:
    return SweepReport(columns=tuple(rows[0]), rows=rows)


def _row(lead: Dict[str, float], lhs, rhs, extra: Dict[str, float],
         conv) -> Dict[str, float]:
    """One report row in column order: the lead cells, lhs, rhs,
    margin = rhs - lhs (the inequality under test reads margin >= -slack),
    the extra cells, and converged as 0 or 1."""
    return {**lead, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs, **extra,
            "converged": int(conv.all())}


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


def _sweep(ev: Evaluator, radii: Sequence[float], rows, row) -> SweepReport:
    """The report of row(r, values, converged) at each radius, the component
    rows of rows(at) integrated by one Evaluator.radial call."""
    radii = _validate_radii(radii)
    return _report([row(r, vals, conv) for r, [(vals, conv, _)]
                    in zip(radii, ev.radial(radii, [rows]))])


def verify_cartan(x: CurveLift, config: HyperplaneConfig,
                  radii: Sequence[float], tol: float = QUAD_TOL) -> SweepReport:
    """Defect-relation check: integral of the largest tuple Weil sum against
    (n+1) T_f(r) - N_W(r).  Also records (n+1) m_1 as a cross check; the
    selector makes it equal to the lhs up to quadrature."""
    ev = Evaluator(x, config, tol)
    n = x.n
    n_w = ev.level_divisor(n + 1)
    n_1 = ev.level_divisor(1)

    def row(r, vals, conv):
        lhs, hbar1, m1 = vals
        t1 = hbar1 - counting(n_1, r)
        nw = counting(n_w, r)
        return _row({"r": r}, lhs, (n + 1) * t1 - nw,
                    {"T_1": t1, "N_W": nw, "m_1": m1,
                     "sum_check": (n + 1) * m1}, conv)

    return _sweep(ev, radii, lambda at: [at.cartan(), at.hbar(1), at.m(1)],
                  row)


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

    def row(r, vals, conv):
        m1, m_c, hbar1, hbar_pair = vals
        return _row({"r": r}, 2 * m1 - m_c, 2 * hbar1 - hbar_pair,
                    {"m_1": m1, "m_C": m_c, "hbar_1": hbar1,
                     "hbar_pair": hbar_pair}, conv)

    return _sweep(ev, radii, lambda at: [at.m(1), at.pairlam(1, positions),
                                         at.hbar(1), at.hbarpair(1)], row)


def verify_prop62(x: CurveLift, config: HyperplaneConfig,
                  levels: Sequence[int], radii: Sequence[float],
                  tol: float = QUAD_TOL) -> SweepReport:
    """Level-d second-difference comparison at each of the given levels,
    computed by two routes on shared quadrature nodes: directly (-m_{d-1} +
    2 m_d - m_{d+1} against the same second difference of bare heights) and
    through the pair collection on the level-d derived curve.  route_gap
    records their disagreement.  One Evaluator.radial call serves all levels
    and radii, the levels of one radius sharing their node batches; the rows
    are stacked level by level behind a leading d column."""
    levels = list(levels)
    if not levels:
        raise ValueError("empty level list")
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
    results = {r: dict(zip(levels, res))
               for r, res in zip(radii, ev.radial(radii, each))}

    def row(d, r):
        vals, conv, _ = results[r][d]
        m, h, (m_c, hbar_pair) = vals[0:3], vals[3:6], vals[6:]
        lhs1 = -m[0] + 2 * m[1] - m[2]
        rhs1 = -h[0] + 2 * h[1] - h[2]
        lhs2 = 2 * m[1] - m_c
        rhs2 = 2 * h[1] - hbar_pair
        return _row({"d": d, "r": r}, lhs1, rhs1,
                    {"lhs_pair": lhs2, "rhs_pair": rhs2,
                     "margin_pair": rhs2 - lhs2,
                     "route_gap": abs((rhs1 - lhs1) - (rhs2 - lhs2)),
                     "m_C": m_c, "hbar_pair": hbar_pair}, conv)

    return _report([row(d, r) for d in levels for r in radii])


def verify_height_growth(x: CurveLift, radii: Sequence[float],
                         slack: float = 2.0,
                         tol: float = QUAD_TOL) -> SweepReport:
    """Checks T_{d,f}(r) <= 2^{d-1} T_f(r) + slack for every level d."""
    ev = Evaluator(x, None, tol)
    levels = list(range(1, x.n + 2))
    divisors = {d: ev.level_divisor(d) for d in levels}

    def row(r, vals, conv):
        t = {d: h - counting(divisors[d], r) for d, h in zip(levels, vals)}
        excess = {d: t[d] - 2 ** (d - 1) * t[1] for d in levels}
        return _row({"r": r}, max(excess.values()), slack,
                    {**{f"T_{d}": t[d] for d in levels},
                     **{f"excess_{d}": excess[d] for d in levels}}, conv)

    return _sweep(ev, radii, lambda at: [at.hbar(d) for d in levels], row)


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

    def row(r, vals, conv):
        hbar1, hbar2, mu_int = vals
        t1 = hbar1 - counting(n_1, r)
        nram = counting(n_ram, r)
        t2 = hbar2 - nram
        m = (t2 - 2 * t1) + mu_int + nram
        return _row({"r": r}, m, 0.0,
                    {"T_1": t1, "T_2": t2, "mu_int": mu_int, "N_Ram": nram,
                     "normalized": m / max(1.0, math.log(r))}, conv)

    return _sweep(ev, radii, lambda at: [at.hbar(1), at.hbar(2), at.mumax()],
                  row)


def full_sweep(x: CurveLift, config: HyperplaneConfig,
               radii: Sequence[float], tol: float = QUAD_TOL) -> SweepReport:
    """Everything at once: all heights and proximities, the ramification and
    Wronskian counting functions, and the defect-relation margin."""
    ev = Evaluator(x, config, tol)
    n = x.n
    levels = list(range(1, n + 2))
    divisors = {d: ev.level_divisor(d) for d in levels}

    def row(r, vals, conv):
        hbar, m, lhs = vals[:n + 1], vals[n + 1:-1], vals[-1]
        t = {f"T_{d}": h - counting(divisors[d], r)
             for d, h in zip(levels, hbar)}
        nw = counting(divisors[n + 1], r)
        nram = counting(divisors[2], r) if n >= 1 else 0.0
        return _row({"r": r, **t, "m_0": 0.0,
                     **{f"m_{d}": v for d, v in zip(levels, m)},
                     "N_W": nw, "N_Ram": nram},
                    lhs, (n + 1) * t["T_1"] - nw, {}, conv)

    return _sweep(ev, radii, lambda at: [at.hbar(d) for d in levels]
                  + [at.m(d) for d in levels] + [at.cartan()], row)
