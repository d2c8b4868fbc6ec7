"""Closed-form circle means over the selector's arcs.

The selector picks the tuple t with the largest level-1 Weil sum, i.e. the
minimum-weight basis of the forms for the weights log|y_j|, y_j = L_j o x.
On |z| = r the greedy basis changes only where two moduli |y_i| and |y_j|
cross.  With |y_j(r e^{i theta})|^2 = sum_m c_m e^{i m theta}, c_m = sum_k
a_{k+m} conj(a_k) r^{2k+m} (the lag products, as in heights), the crossings
of a pair are unit-circle roots of w^D (c^(i) - c^(j))(w).  The selector's
tuple loop at the middle of each interval between candidate angles, on
log|y_j| summed from the rooted y_j (so no power of r over- or underflows),
neighbours of one tuple merged, gives the arcs; a boundary where the tuple changes is polished
by Newton's method on |y_i|^2 - |y_j|^2.  A pair whose difference vanishes
identically marks a tie circle, decided exactly: a float radius is dyadic
and the coefficients lie in Q(i).

Between boundaries each selected component is a sum of log|p| over exact
polynomials p, the wedge form L_{t,I} of a form subset applied to X^e.  Each
subset's polynomial is rooted once per command (exact squarefree factors,
numeric simple roots); the crossing polynomials of a radius, and the factors
of every subset an A(e) needs, are rooted together, one stacked
companion-matrix eigvals call per degree.  A subset's arc integral is, per
root rho,

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
correction times the jump of the integrand there, all boundaries in one
vectorised evaluation; and a rounding bound.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from .curve import level_divisor
from .exterior import distance_one_collection, multi_indices
from .gauss import lag_products, linear_combination, squarefree_decomposition
from .heights import ReducedNorm
from .nevanlinna import counting

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


def _by_degree(descs: list) -> list:
    """[(indices, stacked rows)] of the coefficient arrays descs of each
    degree >= 1."""
    groups: dict = {}
    for k, desc in enumerate(descs):
        if len(desc) > 1:
            groups.setdefault(len(desc), []).append(k)
    return [(ks, np.array([descs[k] for k in ks])) for ks in groups.values()]


def _eigvals(P: np.ndarray) -> np.ndarray:
    """np.roots of each row of P (highest first, leading and trailing
    coefficient nonzero, one degree) from one stacked companion-matrix
    eigvals call."""
    count, degree = P.shape[0], P.shape[1] - 1
    companion = np.zeros((count, degree, degree), dtype=complex)
    companion[:, 0, :] = -P[:, 1:] / P[:, :1]
    companion[:, np.arange(1, degree), np.arange(degree - 1)] = 1
    return np.linalg.eigvals(companion)


def _newton(P: np.ndarray, w: np.ndarray):
    """(f(w), f'(w), sum |c_k| |w|^k) by Horner's rule, elementwise, for
    the coefficient rows P of f, highest first, and a root row w each."""
    f = np.zeros_like(w)
    slope = np.zeros_like(w)
    size, a = np.zeros(w.shape), np.abs(w)
    for c in P.T[:, :, None]:
        slope = slope * w + f
        f = f * w + c
        size = size * a + np.abs(c)
    return f, slope, size


def _polished_roots(descs: list) -> list:
    """(roots, error bounds) of each squarefree coefficient array (highest
    first, nonzero constant term): the eigenvalues polished by two Newton
    steps, and per root its next Newton correction plus the rounding of the
    polynomial's value there over its slope; one eigvals call and
    vectorised Newton steps per degree."""
    out = [(np.empty(0, dtype=complex), np.empty(0))] * len(descs)
    with np.errstate(divide="ignore", invalid="ignore"):
        for ks, P in _by_degree(descs):
            w = _eigvals(P)
            for _ in range(2):
                f, slope, _ = _newton(P, w)
                w = w - np.where(slope != 0, f / slope, 0)
            f, slope, size = _newton(P, w)
            err = np.where(slope != 0, (np.abs(f) + 4 * P.shape[1] * _EPS
                                        * size) / np.abs(slope), math.inf)
            for k, wk, ek in zip(ks, w, err):
                out[k] = (wk, ek)
    return out


class _Rooted:
    """One polynomial p = lc z^ord prod (z - rho)^mult, from log|lc|, ord
    and its squarefree factors' (roots, error bounds) with their
    multiplicities (_polished_roots)."""

    __slots__ = ("log_lc", "order", "rho", "mult", "err")

    def __init__(self, log_lc: float, order: int, factors: list):
        self.log_lc, self.order = log_lc, order
        self.rho = np.concatenate([np.empty(0, dtype=complex)]
                                  + [w for (w, _), _ in factors])
        self.err = np.concatenate([np.empty(0)]
                                  + [err for (_, err), _ in factors])
        self.mult = np.concatenate([np.empty(0)] + [
            np.full(len(w), float(m)) for (w, _), m in factors])

    def log_abs(self, z: np.ndarray) -> np.ndarray:
        """log|p(z)| at the points z, an array."""
        with np.errstate(divide="ignore"):
            return (self.log_lc + self.order * np.log(np.abs(z))
                    + self.mult @ np.log(np.abs(z[None, :]
                                                - self.rho[:, None])))


def _root_all(polys: list) -> list:
    """The _Rooted of each nonzero exact polynomial, the squarefree factors
    of all of them rooted together."""
    descs, plans = [], []
    for p in polys:
        order = p.ord_at_zero()
        factors = squarefree_decomposition(p.shift_down(order))
        plans.append((math.log(abs(complex(p.coeff(p.degree)))), order,
                      [(len(descs) + k, m) for k, (_, m) in enumerate(factors)]))
        descs.extend(f.complex_coeffs()[::-1] for f, _ in factors)
    found = _polished_roots(descs)
    return [_Rooted(log_lc, order, [(found[k], m) for k, m in parts])
            for log_lc, order, parts in plans]


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

    def rooted(self, subsets: list) -> list:
        """The rooted polynomial L_S(X^e), e = len(S), of each form subset S
        (None where it vanishes identically); those not rooted before are
        rooted together."""
        new = [S for S in dict.fromkeys(subsets) if S not in self._rooted]
        if not new:
            return [self._rooted[S] for S in subsets]
        polys = [linear_combination(self.ev.ctx.wedge_form(S),
                                    self.ev.level_polys(len(S))) for S in new]
        self._rooted.update(dict.fromkeys(new))
        live = [k for k, p in enumerate(polys) if not p.is_zero()]
        self._rooted.update(zip([new[k] for k in live],
                                _root_all([polys[k] for k in live])))
        return [self._rooted[S] for S in subsets]

    @cached_property
    def form_roots(self):
        """The rooted y_j of every form, or None where some y_j vanishes
        identically."""
        if any(y.is_zero() for y in self.ys):
            return None
        return _root_all(self.ys)

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
        polys = list(self.cf.crossing_polys(self.r))
        descs = []
        for d in polys:
            # highest first; np.roots drops leading zeros and makes trailing
            # ones roots at 0, which lie off the circle
            desc = np.concatenate([np.conj(d[:0:-1]), d])[::-1]
            live = np.flatnonzero(desc)
            descs.append(desc[live[0]:live[-1] + 1])
        found = [np.empty(0, dtype=complex)] * len(descs)
        for ks, P in _by_degree(descs):
            for k, w in zip(ks, _eigvals(P)):
                found[k] = w
        cands, pairs = [], []
        for d, w in zip(polys, found):
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
        """ctx.select's tuple index at the angles theta, from log|y_j| by
        the rooted y_j, so that no power of r over- or underflows; None
        where a form value is zero or not finite."""
        forms = self.cf.form_roots
        if forms is None:
            return None
        z = self.r * np.exp(1j * theta)
        logf = np.array([p.log_abs(z) for p in forms])
        if not np.isfinite(logf).all():
            return None
        return self.cf.ev.ctx.select_logs(np.zeros(len(theta)),
                                          logf)[0].tolist()

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
        index = [ia.elements for ia in multi_indices(self.cf.n, e)]
        uses: dict = {}
        for k, (_, _, t) in enumerate(self.arcs):
            for S in self._subsets(t, index):
                uses.setdefault(S, []).append(k)
        rooted = cf.rooted(list(uses))
        if None in rooted:
            return math.nan, math.inf
        span = np.array([b - a for a, b, _ in self.arcs])
        lo = np.array([a for a, _, _ in self.arcs])
        hi = np.array([b for _, b, _ in self.arcs])
        flat, rho, weight, err, arc = 0.0, [], [], [], []
        for ks, p in zip(uses.values(), rooted):
            flat += span[ks].sum() * (p.log_lc + p.order * math.log(r))
            rho.append(np.tile(p.rho, len(ks)))
            weight.append(np.tile(p.mult, len(ks)))
            err.append(np.tile(p.err, len(ks)))
            arc.append(np.repeat(ks, len(p.rho)))
        rho, weight, err, arc = map(np.concatenate, (rho, weight, err, arc))
        terms = weight * _arc_log_integrals(rho, lo[arc], hi[arc], r)
        scale = 2 * math.pi * len(index)
        value = (flat + terms.sum()) / scale
        root_err = weight @ (err * _circle_integral_bound(rho, err, r))
        rounding = 8 * _EPS * (abs(flat) + np.abs(terms).sum()) / scale
        return value, (float(root_err) / len(index) + rounding
                       + self._switch_error(index) / scale)

    def _subsets(self, t: int, index: list) -> list:
        """The form subsets t[I] of tuple t for the index sets index."""
        tup = self.cf.ev.ctx.tuples[t]
        return [tuple(tup[i] for i in ia) for ia in index]

    def _switch_error(self, index: list) -> float:
        """The sum over boundaries of the angle's error times the jump of
        the sum over index of log|L_{t,I}(X^e)| there, from one vectorised
        log|p| evaluation over every boundary."""
        count = len(self.boundaries)
        if not count:
            return 0.0
        sides = [(k, t, sign) for k, (_, _, left, right)
                 in enumerate(self.boundaries)
                 for t, sign in ((left, 1.0), (right, -1.0))]
        rooted = self.cf.rooted([S for _, t, _ in sides
                                 for S in self._subsets(t, index)])
        # the boundary and sign of each rooted polynomial, then of each root
        at = np.repeat([k for k, _, _ in sides], len(index))
        sign = np.repeat([s for _, _, s in sides], len(index))
        roots = [len(p.rho) for p in rooted]
        root_at = np.repeat(at, roots)
        z = self.r * np.exp(1j * np.array([b[0] for b in self.boundaries]))
        logs = (np.repeat(sign, roots)
                * np.concatenate([p.mult for p in rooted])
                * np.log(np.abs(z[root_at]
                                - np.concatenate([p.rho for p in rooted]))))
        flat = sign * [p.log_lc + p.order * math.log(self.r) for p in rooted]
        jump = (np.bincount(at, flat, minlength=count)
                + np.bincount(root_at, logs, minlength=count))
        return float(np.array([b[1] for b in self.boundaries]) @ np.abs(jump))

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
