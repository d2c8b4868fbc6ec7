"""Heights T_d of the associated curves from Jensen's formula, the one route
to T_d of every command; the growth check; the radial report records.

No numpy: ``nevlab verify growth`` runs on the exact layer and ``math``/
``cmath`` alone.  Let g_d be the monic gcd of the coordinates of X^d
(curve.coordinate_gcd), q_d = X^d / g_d and h_d = g_d / z^{ord_0 g_d}.
Jensen's formula cancels the counting function of g_d's zeros:

    T_{d,f}(r) = (1/2pi) int log|q_d(r e^{i theta})| dtheta + log|h_d(0)|.

The q_d have no common zero, so the reduced norm P(theta) = sum_i
|q_{d,i}(r e^{i theta})|^2 is positive on every circle and log P is
analytic there.  P is a real trigonometric polynomial of degree D, the
largest degree of the q_{d,i}:

    P(theta) = c_0 + 2 Re sum_{m=1..D} c_m e^{i m theta},
    c_m = sum_j A_{m,j} r^{2j+m},

A the exact lag products of q_d's coefficients (gauss.lag_products).  For
r >= 1 the c_m are scaled by r^{-2D} and D log r is added back, so no power
of r overflows at any radius.

The mean of (1/2) log P is the trapezoid rule on a first grid of more than
2D nodes (4 at least), doubled with the old nodes kept until the error
estimate is below tol or QUAD_NODE_CAP is reached.  Every grid is closed
under turns by pi/2, and one Horner pass over the coefficients gives P at
four nodes a quarter turn apart (_half_log_sum).

For an analytic periodic integrand the trapezoid error falls geometrically
with the node count, but one difference of successive estimates is no
error bound.  With P = |a|^2 |1 - q e^{i theta}|^2 the N-node error is
(1/N) log|1 - q^N|; when Re q^N = 0 the N- and 2N-node estimates agree
exactly while both are off by about |q|^{2N}/(2N).  So the error estimate
is the larger of the last two differences, from three grids at least; for
one dominant zero q of P's factor they cannot both vanish, since
Re q^N = 0 makes q^{2N} real.  The estimate adds the rounding bound
(D+1) u sum_m |c_m| / min P of evaluating P at the nodes (u the unit
roundoff, c_{-m} = conj c_m counted), so a lift with a near-common zero
cannot pass for converged; since min P over the nodes only falls as nodes
are added, a rounding bound of tol or more ends the doubling.

SweepReport and the row helpers live here, not in harness, so that a growth
run loads nothing of the numeric layer; harness re-exports them.
"""

from __future__ import annotations

import cmath
import io
import math
import sys
from typing import Dict, List, Sequence, Tuple

from .curve import (CurveLift, associated_family, coordinate_gcd,
                    level_polys)
from .gauss import QUAD_NODE_CAP, QUAD_TOL, lag_products

__all__ = [
    "SweepReport",
    "ReducedNorm",
    "level_norms",
    "verify_height_growth",
]

_UNIT_ROUNDOFF = sys.float_info.epsilon / 2


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
    the extra cells, and converged as 0 or 1 (1 when every flag in conv
    is set)."""
    return {**lead, "lhs": lhs, "rhs": rhs, "margin": rhs - lhs, **extra,
            "converged": int(all(conv))}


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


class ReducedNorm:
    """The radius-free data of T_d for one associated curve X^d, given by
    its nonzero coordinate polynomials: the lag products of q_d = X^d / g_d,
    its degree D and log|h_d(0)|."""

    __slots__ = ("degree", "lags", "log_h0")

    def __init__(self, polys: Sequence):
        g = coordinate_gcd(polys)
        if not g.is_constant():
            polys = [p // g for p in polys if not p.is_zero()]
        self.lags = lag_products(polys)
        self.degree = len(self.lags) - 1
        self.log_h0 = math.log(abs(complex(g.coeff(g.ord_at_zero()))))

    def coefficients(self, r: float) -> list:
        """c_0, ..., c_D of P at radius r, scaled by r^{-2D} when r >= 1."""
        top = 2 * self.degree
        if r >= 1.0:
            powers = [r ** (k - top) for k in range(top + 1)]
        else:
            powers = [r ** k for k in range(top + 1)]
        return [sum(a * powers[2 * j + m] for j, a in enumerate(row))
                for m, row in enumerate(self.lags)]

    def height(self, r: float,
               tol: float = QUAD_TOL) -> Tuple[float, float, int]:
        """(T_d(r), error estimate, nodes used); the value is converged when
        the error estimate is below tol.  r must be finite and positive."""
        if not 0.0 < r < math.inf:
            raise ValueError(f"height needs a finite radius r > 0, not {r}")
        mean, err, nodes = _half_log_mean(self.coefficients(r), tol)
        if r >= 1.0:
            mean += self.degree * math.log(r)
        return mean + self.log_h0, err, nodes


def _half_log_sum(c0: float, parts: Sequence[Sequence[complex]],
                  thetas: Sequence[float]) -> Tuple[float, float]:
    """(sum of (1/2) log P, smallest P) over the nodes thetas and their turns
    by pi/2, pi and 3pi/2, for P = c0 + 2 Re S(e^{i theta}),
    S(w) = sum_{m=1..D} c_m w^m.  parts[s] holds c_{s+4t} for t = ..., 1, 0
    (Horner order), so S(i^j w) = sum_s i^{js} w^s F_s(w^4) with
    F_s(u) = sum_t c_{s+4t} u^t: four nodes cost one pass over the
    coefficients.  A node where P is not positive adds 0 to the sum."""
    total, lowest = 0.0, math.inf
    log, rect = math.log, cmath.rect
    p0, p1, p2, p3 = parts
    for t in thetas:
        w = rect(1.0, t)
        w2 = w * w
        u = w2 * w2
        f0 = f1 = f2 = f3 = 0j
        for c in p0:
            f0 = f0 * u + c
        for c in p1:
            f1 = f1 * u + c
        for c in p2:
            f2 = f2 * u + c
        for c in p3:
            f3 = f3 * u + c
        f1 *= w
        f2 *= w2
        f3 *= w2 * w
        even, odd = f0.real + f2.real, f1.real + f3.real
        turn_even, turn_odd = f0.real - f2.real, f3.imag - f1.imag
        for p in (c0 + 2.0 * (even + odd), c0 + 2.0 * (turn_even + turn_odd),
                  c0 + 2.0 * (even - odd), c0 + 2.0 * (turn_even - turn_odd)):
            if p < lowest:
                lowest = p
            if p > 0.0:
                total += log(p)
    return 0.5 * total, lowest


def _half_log_mean(c: Sequence[complex],
                   tol: float) -> Tuple[float, float, int]:
    """The trapezoid mean of (1/2) log P over the circle, for the
    coefficients c of P: (estimate, error estimate, nodes used).  The first
    grid has the least power of two above 2D nodes, and 4 at least, so that
    every grid is closed under turns by pi/2; each doubling adds the nodes
    halfway between the old ones.  The error estimate is the larger of the
    last two differences of successive estimates plus the rounding bound;
    it is infinite until three grids exist, and when P is not positive at a
    node."""
    degree = len(c) - 1
    c0 = c[0].real
    size = abs(c0) + 2.0 * sum(abs(v) for v in c[1:])
    parts = [([0j] + c[1:])[s::4][::-1] for s in range(4)]
    n = max(4, 1 << (2 * degree).bit_length())
    step = 2.0 * math.pi / n
    thetas = [k * step for k in range(n // 4)]
    total, lowest, prev, diff = 0.0, math.inf, math.inf, math.inf
    while True:
        part, low = _half_log_sum(c0, parts, thetas)
        total, lowest = total + part, min(lowest, low)
        est = total / n
        rounding = ((degree + 1) * _UNIT_ROUNDOFF * size / lowest
                    if lowest > 0.0 else math.inf)
        last = abs(est - prev)
        err = max(last, diff) + rounding
        if err < tol or rounding >= tol or 2 * n > QUAD_NODE_CAP:
            return est, err, n
        prev, diff = est, last
        thetas = [(k + 0.5) * step for k in range(n // 4)]
        n, step = 2 * n, step / 2


def level_norms(x: CurveLift) -> list:
    """The ReducedNorm of X^1, ..., X^{n+1}, all read from one minor table."""
    family = associated_family(x)
    return [ReducedNorm(level_polys(family, d)) for d in range(1, x.n + 2)]


def verify_height_growth(x: CurveLift, radii: Sequence[float],
                         slack: float = 2.0,
                         tol: float = QUAD_TOL) -> SweepReport:
    """Checks T_{d,f}(r) <= 2^{d-1} T_f(r) + slack for every level d, each
    T_d from Jensen's formula on the reduced norm (ReducedNorm.height)."""
    radii = _validate_radii(radii)
    norms = level_norms(x)
    levels = range(1, len(norms) + 1)
    rows = []
    for r in radii:
        t, conv = {}, []
        for d, norm in zip(levels, norms):
            t[d], err, _ = norm.height(r, tol)
            conv.append(err < tol)
        excess = {d: t[d] - 2 ** (d - 1) * t[1] for d in levels}
        rows.append(_row({"r": r}, max(excess.values()), slack,
                         {**{f"T_{d}": t[d] for d in levels},
                          **{f"excess_{d}": excess[d] for d in levels}},
                         conv))
    return _report(rows)
