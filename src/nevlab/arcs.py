"""Closed-form circle means over the selector's arcs.

The selector picks the tuple t with the largest level-1 Weil sum, i.e. the
minimum-weight basis of the forms for the weights log|y_j|, y_j = L_j o x.
On |z| = r the greedy basis changes only where two moduli |y_i| and |y_j|
cross.  With |y_j(r e^{i theta})|^2 = sum_m c_m e^{i m theta}, c_m = sum_k
a_{k+m} conj(a_k) r^{2k+m} (the lag products, as in heights), the crossings
of a pair are unit-circle roots of w^D (c^(i) - c^(j))(w).  The selection at
the middle of each interval between candidate angles, neighbours of one
tuple merged, gives the arcs; a boundary where the tuple changes is polished
by Newton's method on |y_i|^2 - |y_j|^2.  A pair whose difference vanishes
identically marks a tie circle, decided exactly: a float radius is dyadic
and the coefficients lie in Q(i).

Between boundaries each selected component is a sum of log|p| over exact
polynomials p, the wedge form L_{t,I} of a form subset applied to X^e.  Each
subset's polynomial is rooted once per command (exact squarefree factors,
numeric simple roots), and its arc integral is, per root rho,

    |rho| < r:  (th2 - th1) log r + Im Li2((rho/r) e^{-i th2})
                                  - Im Li2((rho/r) e^{-i th1}),
    |rho| >= r: (th2 - th1) log|rho| - [Im Li2((r/rho) e^{i th2})
                                        - Im Li2((r/rho) e^{i th1})],

plus (th2 - th1) log|lc| and the order at 0 times (th2 - th1) log r.  So
A(e) = (1/2pi) sum over arcs of the mean over index sets I of the integral of
log|L_{t,I}(X^e)|, and the components are

    hbar(e)  Jensen's mean of X^e (heights.ReducedNorm plus the counting
             function of the coordinate gcd),
    m(e)     hbar(e) - A(e),   cartan() = (n+1) m(1),
    hbarpair(d)  Jensen's mean of the coordinates G_a H_b - G_b H_a of
             X^d wedge (X^d)',
    pairlam(d)   hbarpair(d) - A(d-1) - A(d+1), by the two-row identity and
             the balance of the distance-one collection.

The error estimate of A(e) adds, for each root, its Newton correction times
a bound on (1/2pi) int dtheta / |z - rho|; for each arc boundary, its Newton
correction times the jump of the integrand there; and a rounding bound.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np

from .curve import level_divisor
from .exterior import distance_one_collection, multi_indices
from .gauss import lag_products, linear_combination, squarefree_decomposition
from .heights import ReducedNorm
from .nevanlinna import _eval_stack, counting

__all__ = ["li2", "ClosedForm", "CircleMeans"]

_EPS = sys.float_info.epsilon
# A pair root w is a crossing candidate when ||w| - 1| is below this.  A
# spurious candidate only splits an arc of one tuple in two, so the band is
# wide; a missed crossing would not be.
_ON_CIRCLE = 1e-4
# Newton steps on a boundary angle; the last step is its error estimate.
_NEWTON_STEPS = 3


def _bernoulli_terms(count: int) -> list:
    """B_{2k} / (2k+1)! for k = 1..count, from exact Bernoulli numbers."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return [float(b[2 * k] / math.factorial(2 * k + 1))
            for k in range(1, count + 1)]


_POWER_TERMS = [1.0 / k ** 2 for k in range(1, 33)]
_BERNOULLI = _bernoulli_terms(18)


def _horner(coeffs, x: np.ndarray) -> np.ndarray:
    acc = np.full(x.shape, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def li2(z) -> np.ndarray:
    """The dilogarithm on the closed unit disk, elementwise: the power
    series for |z| <= 0.3, the Bernoulli series in u = -log(1 - z) for
    Re z <= 1/2, and the reflection Li2(z) = pi^2/6 - log z log(1 - z)
    - Li2(1 - z) otherwise."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    small = np.abs(z) <= 0.3
    out[small] = _horner(_POWER_TERMS, z[small]) * z[small]
    zb = z[~small]
    flip = zb.real > 0.5
    w = np.where(flip, 1.0 - zb, zb)
    u = -np.log1p(-w)
    v = u * u
    val = u - v / 4 + u * v * _horner(_BERNOULLI, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(zb[flip]) * np.log(w[flip])
    logs[w[flip] == 0] = 0.0
    val[flip] = math.pi ** 2 / 6 - logs - val[flip]
    out[~small] = val
    return out


def _arc_log_integrals(rho, theta1, theta2, r: float) -> np.ndarray:
    """int_{theta1}^{theta2} log|r e^{i theta} - rho| dtheta, elementwise."""
    inside = np.abs(rho) < r
    span = theta2 - theta1
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(inside, rho / r, r / rho)
    turn = np.where(inside, -1.0, 1.0)
    ends = li2(np.concatenate([q * np.exp(1j * turn * theta2),
                               q * np.exp(1j * turn * theta1)])).imag
    diff = ends[:len(q)] - ends[len(q):]
    return np.where(inside, span * math.log(r) + diff,
                    span * np.log(np.abs(rho)) - diff)


def _circle_integral_bound(rho: np.ndarray, err: np.ndarray,
                           r: float) -> np.ndarray:
    """A bound on (1/2pi) int dtheta / |r e^{i theta} - rho'| for every rho'
    within err of rho: 1/s with s = max(||rho| - r|, err), and for a root
    near the circle (1 + log(1 + 2r/s)) / r."""
    s = np.maximum(np.abs(np.abs(rho) - r), err)
    with np.errstate(divide="ignore"):
        return np.minimum(1.0 / s, (1.0 + np.log1p(2.0 * r / s)) / r)


def _newton(desc: list, root: complex):
    """(f(root), f'(root), sum |c_k| |root|^k) by Horner's rule, for the
    coefficients desc of f, highest first."""
    f = slope = 0j
    size, a = 0.0, abs(root)
    for c in desc:
        slope = slope * root + f
        f = f * root + c
        size = size * a + abs(c)
    return f, slope, size


class _Rooted:
    """One form subset's polynomial p = lc z^ord prod (z - rho)^mult: the
    numeric roots of each exact squarefree factor, polished by two Newton
    steps, with a bound err on each root's error, its next Newton
    correction plus the rounding of the factor's value there."""

    __slots__ = ("log_lc", "order", "rho", "mult", "err")

    def __init__(self, p):
        self.order = p.ord_at_zero()
        self.log_lc = math.log(abs(complex(p.coeff(p.degree))))
        rho, mult, err = [], [], []
        for factor, m in squarefree_decomposition(p.shift_down(self.order)):
            desc = factor.complex_coeffs()[::-1]
            coeffs = desc.tolist()
            for root in np.roots(desc).tolist():
                for _ in range(2):
                    f, slope, _ = _newton(coeffs, root)
                    root -= f / slope if slope else 0
                f, slope, size = _newton(coeffs, root)
                rho.append(root)
                mult.append(m)
                err.append((abs(f) + 4 * len(coeffs) * _EPS * size)
                           / abs(slope) if slope else math.inf)
        self.rho = np.array(rho, dtype=complex)
        self.mult = np.array(mult, dtype=float)
        self.err = np.array(err)

    def log_abs(self, z: complex) -> float:
        """log|p(z)|."""
        return (self.log_lc + self.order * math.log(abs(z))
                + float(self.mult @ np.log(np.abs(z - self.rho))))

class ClosedForm:
    """The radius-free data of an Evaluator's closed-form means: the form
    values y_j, their lag products, each form subset's rooted polynomial
    and the Jensen norms, all built once per command."""

    def __init__(self, ev):
        self.ev = ev
        self.n = ev.x.n
        self.ys = [linear_combination(f, ev.x.coords) for f in ev.ctx.forms]
        self.degree = D = max(y.degree for y in self.ys)
        # lags[j, m, k]: the lag products of y_j, so c_m = sum_k lags[j, m, k]
        # r^(2k + m)
        self.lags = np.zeros((len(self.ys), D + 1, D + 1), dtype=complex)
        for row, y in zip(self.lags, self.ys):
            for m, lag in enumerate(lag_products([y])):
                row[m, :len(lag)] = lag
        m, k = np.indices((D + 1, D + 1))
        self._exponent = 2 * k + m
        self._rooted: dict = {}
        self._norms: dict = {}
        self._at: dict = {}

    def at(self, r: float):
        """The CircleMeans at radius r, or None on a tie circle."""
        if r not in self._at:
            self._at[r] = None if self.tie_circle(r) else CircleMeans(self, r)
        return self._at[r]

    def tie_circle(self, r: float) -> bool:
        """Whether two forms have |y_i| = |y_j| on all of |z| = r, decided
        exactly: c_m r^{-2D} of each form as exact rationals, for the
        dyadic r = P / Q."""
        P, Q = Fraction(r).as_integer_ratio()
        top = 2 * self.degree
        seen = set()
        for y in self.ys:
            a, den2 = y.nums, y.den * y.den
            key = []
            for m in range(self.degree + 1):
                re = im = 0
                for k in range(len(a) - m):
                    (p, q), (s, t) = a[k + m], a[k]
                    w = P ** (2 * k + m) * Q ** (top - 2 * k - m)
                    re += (p * s + q * t) * w
                    im += (q * s - p * t) * w
                key.append((Fraction(re, den2), Fraction(im, den2)))
            key = tuple(key)
            if key in seen:
                return True
            seen.add(key)
        return False

    def rooted(self, S: tuple):
        """The rooted polynomial L_S(X^e), e = len(S), of the form subset S
        (None where it vanishes identically)."""
        if S not in self._rooted:
            p = linear_combination(self.ev.ctx.wedge_form(S),
                                   self.ev.level_polys(len(S)))
            self._rooted[S] = None if p.is_zero() else _Rooted(p)
        return self._rooted[S]

    def norm(self, key: tuple):
        """(ReducedNorm, gcd divisor) of X^d for key ('w', d), of X^d wedge
        (X^d)' for ('pair', d); None where every coordinate vanishes."""
        if key not in self._norms:
            kind, d = key
            polys = self.ev.level_polys(d)
            if kind == "w":
                self._norms[key] = (ReducedNorm(polys), self.ev.level_divisor(d))
                return self._norms[key]
            parts = [p.derivative() for p in polys]
            polys = [polys[a] * parts[b] - polys[b] * parts[a]
                     for a, b in combinations(range(len(polys)), 2)]
            polys = [p for p in polys if not p.is_zero()]
            self._norms[key] = ((ReducedNorm(polys), level_divisor(polys))
                                if polys else None)
        return self._norms[key]

    def crossing_polys(self, r: float):
        """d_0, ..., d_D of |y_i|^2 - |y_j|^2 = sum_m d_m e^{i m theta}
        (d_{-m} = conj d_m) at radius r for each pair of forms whose lag
        products differ, scaled so that the largest term of its lag sums is
        1: no power of r overflows, and none that matters underflows."""
        power = self._exponent * math.log(r)
        for i, j in combinations(range(len(self.ys)), 2):
            diff = self.lags[i] - self.lags[j]
            live = diff != 0
            if not live.any():
                continue
            with np.errstate(divide="ignore"):
                shift = (np.log(np.abs(diff)) + power).max()
            yield np.where(live, diff * np.exp(np.where(live, power - shift,
                                                        0.0)), 0).sum(axis=1)


class CircleMeans:
    """The NodeBatch components at one radius as circle means over the
    selector's arcs.  ``worst`` is the largest error estimate of any
    component read since it was last reset."""

    def __init__(self, cf: ClosedForm, r: float):
        self.cf, self.r = cf, r
        self.worst = 0.0
        self._cache: dict = {}
        self.arcs, self.boundaries = self._arcs() or (None, None)

    # -- arcs -------------------------------------------------------------

    def _arcs(self):
        """[(theta1, theta2, tuple)] covering one turn from the first
        boundary, and [(theta, error, left tuple, right tuple)] per boundary
        where the selection changes; None where a form value at a selection
        angle is zero or not finite."""
        cands, pairs = [], []
        for d in self.cf.crossing_polys(self.r):
            poly = np.concatenate([np.conj(d[:0:-1]), d])
            w = np.roots(poly[::-1])
            w = w[np.abs(np.abs(w) - 1.0) < _ON_CIRCLE]
            cands.extend(np.mod(np.angle(w), 2 * math.pi))
            pairs.extend([d] * len(w))
        order = np.argsort(cands)
        cands = np.asarray(cands)[order]
        pairs = [pairs[k] for k in order]
        if not len(cands):
            cands = np.array([0.0])
        ends = np.append(cands, cands[0] + 2 * math.pi)
        sel = self._select((ends[:-1] + ends[1:]) / 2)
        if sel is None:
            return None
        # interval k runs from candidate k to k + 1; a boundary at candidate
        # k separates interval k - 1 from interval k
        cut = [k for k in range(len(sel)) if sel[k] != sel[k - 1]]
        if not cut:
            return [(0.0, 2 * math.pi, sel[0])], []
        boundaries = [(*self._polish(cands[k], pairs[k]), sel[k - 1], sel[k])
                      for k in cut]
        theta = [b[0] for b in boundaries]
        theta.append(theta[0] + 2 * math.pi)
        arcs = [(theta[k], theta[k + 1], boundaries[k][3])
                for k in range(len(boundaries))]
        return arcs, boundaries

    def _select(self, theta: np.ndarray):
        """ctx.select's tuple index at the angles theta, on x scaled by
        r^{-deg} where r >= 1 (the selection ignores a common scale); None
        where a form value is zero or not finite."""
        ev, r = self.cf.ev, self.r
        coeffs = ev._coeffs(("w", 1))
        top = max(len(a) for a in coeffs) - 1
        scaled = [a * (r ** (np.arange(len(a)) - top) if r >= 1.0
                       else r ** np.arange(len(a))) for a in coeffs]
        xv = _eval_stack(scaled, np.exp(1j * theta))
        y = ev.ctx.form_mat @ xv
        if not (np.isfinite(y) & (y != 0)).all():
            return None
        return ev.ctx.select(xv)[0].tolist()

    def _polish(self, theta: float, d: np.ndarray):
        """(angle, error) of a zero of g = |y_i|^2 - |y_j|^2 near theta by
        Newton's method, d the scaled c_m of the difference: the last step
        plus the rounding of g over its slope."""
        m = np.arange(len(d))
        size = abs(d[0]) + 2 * np.abs(d[1:]).sum()
        step = slope = math.inf
        for _ in range(_NEWTON_STEPS):
            e = d * np.exp(1j * m * theta)
            g = e[0].real + 2 * e[1:].real.sum()
            slope = -2 * (m * e).imag.sum()
            if slope == 0:
                return theta, math.inf
            step = g / slope
            theta -= step
        return theta, abs(step) + 4 * len(d) * _EPS * size / abs(slope)

    # -- means ------------------------------------------------------------

    def _mean(self, key: tuple):
        """(value, error estimate) of the mean key, computed once: ('w', d)
        hbar(d), ('pair', d) hbarpair(d), ('A', e) A(e), ('m', d) m(d) and
        ('pairlam', d) pairlam(d)."""
        if key not in self._cache:
            kind, d = key
            if kind in ("w", "pair"):
                self._cache[key] = self._jensen(key)
            elif kind == "A":
                self._cache[key] = self._level_mean(d)
            else:
                whole, *less = ([("w", d), ("A", d)] if kind == "m" else
                                [("pair", d), ("A", d - 1), ("A", d + 1)])
                parts = [self._mean(k) for k in (whole, *less)]
                self._cache[key] = (parts[0][0] - sum(v for v, _ in parts[1:]),
                                    sum(e for _, e in parts))
        return self._cache[key]

    def _read(self, key: tuple) -> float:
        """The value of the mean key, its error noted in worst."""
        value, err = self._mean(key)
        self._note(err)
        return value

    def _note(self, err: float) -> None:
        self.worst = max(self.worst, err if err == err else math.inf)

    def _jensen(self, key: tuple):
        """Jensen's mean of X^d or X^d wedge (X^d)' and its error."""
        found = self.cf.norm(key)
        if found is None:
            return -math.inf, math.inf
        norm, divisor = found
        value, err, _ = norm.height(self.r, self.cf.ev.tol)
        return value + counting(divisor, self.r), err

    def _level_mean(self, e: int):
        """(A(e), error): the circle mean of the mean over the index sets I
        of log|L_{t,I}(X^e)| for the arc's tuple t."""
        if e == 0:
            return 0.0, 0.0
        if self.arcs is None:
            return math.nan, math.inf
        r, cf = self.r, self.cf
        tuples = cf.ev.ctx.tuples
        index = [ia.elements for ia in multi_indices(self.cf.n, e)]
        uses: dict = {}
        for k, (_, _, t) in enumerate(self.arcs):
            for ia in index:
                S = tuple(tuples[t][i] for i in ia)
                uses.setdefault(S, []).append(k)
        span = np.array([b - a for a, b, _ in self.arcs])
        lo = np.array([a for a, _, _ in self.arcs])
        hi = np.array([b for _, b, _ in self.arcs])
        flat, root_err, rho, weight, arc = 0.0, 0.0, [], [], []
        for S, ks in uses.items():
            p = cf.rooted(S)
            if p is None:
                return math.nan, math.inf
            ks = np.array(ks)
            flat += span[ks].sum() * (p.log_lc + p.order * math.log(r))
            bound = _circle_integral_bound(p.rho, p.err, r)
            root_err += len(ks) * float(p.mult @ (p.err * bound))
            rho.append(np.tile(p.rho, len(ks)))
            weight.append(np.tile(p.mult, len(ks)))
            arc.append(np.repeat(ks, len(p.rho)))
        rho, weight, arc = map(np.concatenate, (rho, weight, arc))
        terms = weight * _arc_log_integrals(rho, lo[arc], hi[arc], r)
        scale = 2 * math.pi * len(index)
        value = (flat + terms.sum()) / scale
        rounding = 8 * _EPS * (abs(flat) + np.abs(terms).sum()) / scale
        switch = sum(err * abs(self._integrand(left, e, theta)
                               - self._integrand(right, e, theta))
                     for theta, err, left, right in self.boundaries)
        return value, (root_err / len(index) + rounding
                       + switch / (2 * math.pi))

    def _integrand(self, t: int, e: int, theta: float) -> float:
        """The mean over I of log|L_{t,I}(X^e)| at r e^{i theta}."""
        z = self.r * complex(math.cos(theta), math.sin(theta))
        tup = self.cf.ev.ctx.tuples[t]
        index = multi_indices(self.cf.n, e)
        return sum(self.cf.rooted(tuple(tup[i] for i in ia.elements))
                   .log_abs(z) for ia in index) / len(index)

    # -- the NodeBatch components -------------------------------------------

    def hbar(self, d: int) -> float:
        """log |X^d|; zero at d = 0."""
        return self._read(("w", d)) if d else 0.0

    def m(self, d: int) -> float:
        """Mean level-d Weil function of the selected tuple; zero at d = 0."""
        return self._read(("m", d)) if d else 0.0

    def cartan(self) -> float:
        """The largest level-1 tuple Weil sum, (n+1) m(1)."""
        value, err = self._mean(("m", 1))
        self._note((self.cf.n + 1) * err)
        return (self.cf.n + 1) * value

    def hbarpair(self, d: int) -> float:
        """log |y wedge y'| for y = X^d."""
        return self._read(("pair", d))

    def pairlam(self, d: int, positions) -> float:
        """Mean pair Weil function on y wedge y' for y = X^d over the
        distance-one collection's positions: hbarpair(d) - A(d-1) - A(d+1);
        nan for any other positions."""
        if list(positions) != distance_one_collection(self.cf.n, d).positions():
            return math.nan
        return self._read(("pairlam", d))
