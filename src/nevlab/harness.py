"""Verification harness: the radial inequality checks (Cartan-style defect
bound, the derived-curve comparison at each level, height growth, and the
tautological-inequality monitor).  Hyperplane configurations, index-pair
collections and the telescoping identity live in the exact layer (exterior),
and the height-growth check and the report records in heights; import them
from there.  general_position_tuples and verify_height_growth are bound here
too, because the benchmark tracer wraps them as harness names.

All radial functionals for one row of the other checks are integrated on
shared quadrature nodes, so identities that hold pointwise in theta survive
to the reported numbers up to float rounding.  A radius where the midpoint
rule has not converged some row on its widest grid takes every component of
every row from the closed-form circle means instead (nevlab.arcs), which are
linear in a few means per radius, each computed once: m(d) = hbar(d) -
A(d), and prop62's pair route is hbarpair(d) - A(d-1) - A(d+1), by the
two-row identity and the balance of the distance-one collection, so its
route_gap stays at rounding there too.  Every T_d column is instead the
Jensen mean of heights.ReducedNorm that verify growth prints.

Every check takes its Evaluator from nevanlinna.shared_evaluator, so the
checks of one lift, configuration and tol in one process (sweep, verify
prop62 and verify mcquillan on one config) build the exact minors, roots
and closed-form means once; the outputs are those of a fresh Evaluator.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Sequence

from .curve import CurveLift
from .exterior import distance_one_collection, general_position_tuples
from .heights import _report, _row, validate_radii, verify_height_growth
from .nevanlinna import QUAD_TOL, Evaluator, counting, shared_evaluator

if TYPE_CHECKING:
    from .exterior import HyperplaneConfig
    from .heights import SweepReport

__all__ = [
    "general_position_tuples",
    "Evaluator",
    "verify_cartan",
    "verify_lemma55",
    "verify_prop62",
    "verify_height_growth",
    "mcquillan_monitor",
    "full_sweep",
]


def _sweep(ev: Evaluator, radii: Sequence[float], levels: Sequence[int],
           rows, row) -> SweepReport:
    """The report of row(r, t, values, converged) at each radius: t the T_d
    of levels (ReducedNorm.height), values the component rows of rows(at)
    integrated by one Evaluator.radial call, converged their flags and
    each height's error estimate < tol."""
    radii = validate_radii(radii, "radius grid")
    norms = [ev.norm(d) for d in levels]
    out = []
    for r, [(vals, conv, _)] in zip(radii, ev.radial(radii, [rows])):
        heights = [norm.height(r, ev.tol) for norm in norms]
        out.append(row(r, [h[0] for h in heights], vals,
                       [*conv, *(h[1] < ev.tol for h in heights)]))
    return _report(out)


def verify_cartan(x: CurveLift, config: HyperplaneConfig,
                  radii: Sequence[float], tol: float = QUAD_TOL) -> SweepReport:
    """Defect-relation check: integral of the largest tuple Weil sum against
    (n+1) T_f(r) - N_W(r).  Also records (n+1) m_1 as a cross check; the
    selector makes it equal to the lhs up to quadrature."""
    ev = shared_evaluator(x, config, tol)
    n = x.n
    n_w = ev.level_divisor(n + 1)

    def row(r, t, vals, conv):
        [t1], (lhs, m1) = t, vals
        nw = counting(n_w, r)
        return _row({"r": r}, lhs, (n + 1) * t1 - nw,
                    {"T_1": t1, "N_W": nw, "m_1": m1,
                     "sum_check": (n + 1) * m1}, conv)

    return _sweep(ev, radii, [1], lambda at: [at.cartan(), at.m(1)], row)


def verify_lemma55(x: CurveLift, config: HyperplaneConfig,
                   radii: Sequence[float],
                   tol: float = QUAD_TOL) -> SweepReport:
    """Second-main-theorem seed: 2 m_1 - m_C against 2 Tbar - Tbar_{x wedge x'}
    for the distance-one collection C of index pairs inside a tuple."""
    ev = shared_evaluator(x, config, tol)
    positions = distance_one_collection(x.n, 1).positions()

    def row(r, t, vals, conv):
        m1, m_c, hbar1, hbar_pair = vals
        return _row({"r": r}, 2 * m1 - m_c, 2 * hbar1 - hbar_pair,
                    {"m_1": m1, "m_C": m_c, "hbar_1": hbar1,
                     "hbar_pair": hbar_pair}, conv)

    return _sweep(ev, radii, [], lambda at: [at.m(1), at.pairlam(1, positions),
                                             at.hbar(1), at.hbarpair(1)], row)


def verify_prop62(x: CurveLift, config: HyperplaneConfig,
                  levels: Sequence[int], radii: Sequence[float],
                  tol: float = QUAD_TOL) -> SweepReport:
    """Level-d second-difference comparison at each of the given levels,
    computed by two routes on shared quadrature nodes: directly (-m_{d-1} +
    2 m_d - m_{d+1} against the same second difference of bare heights) and
    through the pair collection on the level-d derived curve.  route_gap
    records their disagreement.  A level row on the closed-form means forms
    the pair route as hbarpair(d) - A(d-1) - A(d+1) (nevlab.arcs), whose
    agreement with the direct route is the two-row identity, and every
    level row of such a radius reads one value of each m(d).  One
    Evaluator.radial call serves all levels and radii, the levels of one
    radius sharing the batch of its first two grids; the rows are stacked
    level by level behind a leading d column.  A level row evaluates m(d+1)
    last, as a batch keeps one level's work arrays."""
    levels = list(levels)
    if not levels:
        raise ValueError("empty level list")
    for d in levels:
        if not (1 <= d <= x.n):
            raise ValueError(f"level d={d} out of range 1..{x.n}")
    ev = shared_evaluator(x, config, tol)
    positions = {d: distance_one_collection(x.n, d).positions()
                 for d in levels}

    def level_row(d, at):
        below, here = at.m(d - 1), at.m(d)
        pair = [at.pairlam(d, positions[d]), at.hbarpair(d)]
        return [below, here, at.m(d + 1),
                at.hbar(d - 1), at.hbar(d), at.hbar(d + 1), *pair]

    radii = validate_radii(radii, "radius grid")
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


def mcquillan_monitor(x: CurveLift, config: HyperplaneConfig,
                      radii: Sequence[float],
                      tol: float = QUAD_TOL) -> SweepReport:
    """M(r) = [T_{f wedge f'}(r) - 2 T_f(r)] + circle average of the largest
    tuple mu + N_Ram(r); the tautological inequality predicts M(r) stays
    below a small multiple of max(1, log r)."""
    if x.n < 1:
        raise ValueError("monitor needs n >= 1")
    ev = shared_evaluator(x, config, tol)
    n_ram = ev.level_divisor(2)

    def row(r, t, vals, conv):
        (t1, t2), [mu_int] = t, vals
        nram = counting(n_ram, r)
        m = (t2 - 2 * t1) + mu_int + nram
        return _row({"r": r}, m, 0.0,
                    {"T_1": t1, "T_2": t2, "mu_int": mu_int, "N_Ram": nram,
                     "normalized": m / max(1.0, math.log(r))}, conv)

    return _sweep(ev, radii, [1, 2], lambda at: [at.mumax()], row)


def full_sweep(x: CurveLift, config: HyperplaneConfig,
               radii: Sequence[float], tol: float = QUAD_TOL) -> SweepReport:
    """Everything at once: all heights and proximities, the ramification and
    Wronskian counting functions, and the defect-relation margin."""
    ev = shared_evaluator(x, config, tol)
    n = x.n
    levels = list(range(1, n + 2))
    n_w = ev.level_divisor(n + 1)
    n_ram = ev.level_divisor(2) if n >= 1 else None

    def row(r, t, vals, conv):
        m, lhs = vals[:-1], vals[-1]
        nw = counting(n_w, r)
        return _row({"r": r, **{f"T_{d}": v for d, v in zip(levels, t)},
                     "m_0": 0.0, **{f"m_{d}": v for d, v in zip(levels, m)},
                     "N_W": nw, "N_Ram": counting(n_ram, r) if n else 0.0},
                    lhs, (n + 1) * t[0] - nw, {}, conv)

    return _sweep(ev, radii, levels,
                  lambda at: [at.m(d) for d in levels] + [at.cartan()], row)
