"""Analytic functionals: counting functions, circle quadrature, heights,
Weil functions, proximity averages, and the log-derivative comparison.

Quadrature is a composite midpoint rule with node doubling; midpoint nodes
sit at half-steps so they never land on theta = 2*pi*k/N.  A node that still
hits a singularity is offset by a further half-step; if that fails too the
result is flagged unconverged rather than patched silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .curve import CurveLift, DegenerateCurveError, associated, level_divisor
from .exterior import WedgeForm, WedgeVector, multi_indices
from .gauss import Divisor, GaussPoly

__all__ = [
    "RadialValue",
    "QUAD_TOL",
    "QUAD_INITIAL_NODES",
    "QUAD_NODE_CAP",
    "counting",
    "circle_integral",
    "adaptive_midpoint",
    "height_bar",
    "height_T",
    "weil",
    "SelectorContext",
    "Evaluator",
    "proximity_m",
    "proximity_hyperplane",
    "mu",
    "pointwise_logderiv_check",
]

QUAD_TOL = 1e-6
QUAD_INITIAL_NODES = 256
QUAD_NODE_CAP = 2 ** 20


@dataclass(frozen=True)
class RadialValue:
    """A value of a radial functional, with its quadrature provenance."""

    r: float
    value: float
    quadrature_nodes: int
    converged: bool


def counting(D: Divisor, r: float) -> float:
    """N(r) = ord_0 * log r + sum over 0 < |rho| <= r of mult * log(r / |rho|)."""
    if r <= 0:
        raise ValueError("counting function needs r > 0")
    total = D.ord_at_zero * math.log(r)
    for rho, mult in D.points:
        a = abs(rho)
        if a <= r:
            total += mult * math.log(r / a)
    return total


def _sample(g, nodes: np.ndarray, h: float):
    """Evaluate a vector integrand; offset singular nodes by a half-step."""
    vals = np.atleast_2d(np.asarray(g(nodes), dtype=float))
    bad = ~np.isfinite(vals)
    if bad.any():
        cols = np.unique(np.nonzero(bad)[1])
        retry = np.atleast_2d(np.asarray(g(nodes[cols] + h / 2), dtype=float))
        patch = vals[:, cols]
        finite_retry = np.isfinite(retry)
        vals[:, cols] = np.where(finite_retry & ~np.isfinite(patch), retry, patch)
    clean = np.isfinite(vals).all(axis=1)
    return vals, clean


def adaptive_midpoint(
    g: Callable[[np.ndarray], np.ndarray],
    tol: float = QUAD_TOL,
    initial: int = QUAD_INITIAL_NODES,
    cap: int = QUAD_NODE_CAP,
):
    """Midpoint circle averages (1/2pi integral) of a vector integrand.

    g maps an array of theta nodes to an array of shape (k, len(nodes)).
    Returns (values, converged, nodes_used) with per-component flags.
    """
    prev = None
    n = initial
    while True:
        h = 2 * math.pi / n
        nodes = (np.arange(n) + 0.5) * h
        vals, clean = _sample(g, nodes, h)
        if not np.isfinite(vals).all():
            vals = np.where(np.isfinite(vals), vals, 0.0)
        est = vals.mean(axis=1)
        if prev is not None and len(prev) == len(est):
            converged = (np.abs(est - prev) < tol) & clean
            if converged.all() or 2 * n > cap:
                return est, converged, n
        elif 2 * n > cap:
            return est, clean & False, n
        prev = est
        n *= 2


def circle_integral(
    g: Callable[[np.ndarray], np.ndarray],
    tol: float = QUAD_TOL,
    r: float = 1.0,
) -> RadialValue:
    """Circle average of a scalar integrand g(theta); g should accept arrays."""

    def gv(nodes: np.ndarray) -> np.ndarray:
        out = np.asarray(g(nodes), dtype=float)
        if out.shape != nodes.shape:
            out = np.array([g(t) for t in nodes], dtype=float)
        return out.reshape(1, -1)

    values, converged, nodes = adaptive_midpoint(gv, tol=tol)
    return RadialValue(r=r, value=float(values[0]), quadrature_nodes=nodes,
                       converged=bool(converged[0]))


def _coeff_arrays(polys: Sequence[GaussPoly]) -> list:
    return [p.complex_coeffs() for p in polys]


def _eval_stack(arrays: Sequence[np.ndarray], z: np.ndarray) -> np.ndarray:
    return np.vstack([np.polynomial.polynomial.polyval(z, a) for a in arrays])


def _log_norm(v: np.ndarray) -> np.ndarray:
    """log of the Euclidean norm of each column of v."""
    return 0.5 * np.log((np.abs(v) ** 2).sum(axis=0))


def _form_matrix(forms) -> np.ndarray:
    return np.array([[complex(c) for c in f] for f in forms], dtype=complex)


def height_bar(X, r: float, tol: float = QUAD_TOL) -> RadialValue:
    """Circle average of log |X(r e^{i theta})| (Euclidean norm of the
    Pluecker coordinates).  X may be a WedgeVector or a bare GaussPoly."""
    if r <= 0:
        raise ValueError("height_bar needs r > 0")
    if isinstance(X, GaussPoly):
        if X.is_zero():
            raise ValueError("height of the zero polynomial")
        arrays = _coeff_arrays([X])
    elif X.is_zero():
        raise ValueError("height of the zero wedge")
    else:
        arrays = _coeff_arrays(X.polys())

    def g(theta: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return _log_norm(_eval_stack(arrays, r * np.exp(1j * theta)))

    return circle_integral(g, tol, r)


def height_T(x: CurveLift, d: int, r: float, tol: float = QUAD_TOL) -> float:
    """T_{d,f}(r) = mean of log|X^d| minus the counting function of the
    common-zero divisor of X^d; T_{0,f} is identically zero."""
    if d == 0:
        return 0.0
    ev = Evaluator(x, None, tol)
    n_d = ev.counting_d(d, r)  # rejects r <= 0 before any quadrature
    vals, _ = ev.radial(r, [f"hbar:{d}"])
    return vals[f"hbar:{d}"][0] - n_d


def weil(F: WedgeForm, v) -> float:
    """-log(|F(v)| / |v|) with Euclidean norms on Pluecker coordinates.

    v is a complex coordinate vector in lexicographic multi-index order (or a
    WedgeVector evaluated elsewhere).  Returns +inf when v lies on F = 0.
    """
    vec = np.asarray(v, dtype=complex).ravel()
    coeffs = F.coeff_array()
    if len(vec) != len(coeffs):
        raise ValueError("coordinate count mismatch in Weil function")
    norm = float(np.linalg.norm(vec))
    if norm == 0:
        raise ValueError("Weil function of the zero vector")
    fv = abs(complex(coeffs @ vec))
    if fv == 0.0:
        return math.inf
    return -math.log(fv / norm)


class SelectorContext:
    """Per-theta tuple selection and wedge-form evaluation for a hyperplane
    configuration (the single map from C into the tuple set, chosen by the
    level-1 maximum with lowest-index tie break)."""

    def __init__(self, n: int, forms: Sequence, tuples: Sequence):
        if not tuples:
            raise ValueError("selector needs at least one tuple")
        self.n = n
        self.forms = [tuple(f) for f in forms]
        self.tuples = [tuple(t) for t in tuples]
        self.form_mat = _form_matrix(self.forms)
        self.tuple_index = np.array(self.tuples, dtype=np.intp)
        self._minors: dict = {}

    @classmethod
    def from_config(cls, config) -> "SelectorContext":
        return cls(config.n, config.forms, config.tuples)

    def minors(self, d: int) -> np.ndarray:
        """Exact minor matrices per tuple: entry [t, a, b] pairs the wedge of
        tuple t's forms at index set I_a with Pluecker coordinate M_b.  The
        entry depends only on the form subset t[I_a], so each subset's
        Pluecker coefficients are computed once and shared by all tuples."""
        if d not in self._minors:
            idx = multi_indices(self.n, d)
            table = {}
            mats = []
            for t in self.tuples:
                row = []
                for ia in idx:
                    S = tuple(t[i] for i in ia.elements)
                    if S not in table:
                        table[S] = WedgeForm(
                            self.n, tuple(self.forms[j] for j in S)).coeff_array()
                    row.append(table[S])
                mats.append(row)
            self._minors[d] = np.array(mats, dtype=complex)
        return self._minors[d]

    def scores(self, xvals: np.ndarray) -> np.ndarray:
        """Level-1 Weil sums per tuple: sum_i lambda_i(x) at each node.  Each
        form's log|L_j(x)| is computed once; a tuple sums its rows in order."""
        scaled = (self.n + 1) * _log_norm(xvals)
        with np.errstate(divide="ignore"):
            logf = np.log(np.abs(self.form_mat @ xvals))
        out = np.empty((len(self.tuples), xvals.shape[1]))
        for k, t in enumerate(self.tuple_index):
            out[k] = scaled - logf[t].sum(axis=0)
        return out

    def select(self, xvals: np.ndarray):
        """Argmax tuple per node (ties go to the lowest index) and the max."""
        s = self.scores(xvals)
        sel = np.argmax(s, axis=0)
        return sel, s[sel, np.arange(s.shape[1])]

    def level_lambda_mean(self, d: int, wedge_vals: np.ndarray,
                          sel: np.ndarray) -> np.ndarray:
        """Mean over all size-d index sets I of lambda_I(X^d) per node, using
        the selected tuple at each node."""
        lognorm = _log_norm(wedge_vals)
        out = np.empty(wedge_vals.shape[1])
        minors = self.minors(d)
        with np.errstate(divide="ignore"):
            for t in np.unique(sel):
                mask = sel == t
                lv = minors[t] @ wedge_vals[:, mask]
                out[mask] = lognorm[mask] - np.log(np.abs(lv)).mean(axis=0)
        return out


def _component(name: str):
    """Parse a radial component name into (kind, level); the level of the
    unlevelled components 'cartan' and 'mumax' is None."""
    if name in ("cartan", "mumax"):
        return name, None
    kind, _, level = name.partition(":")
    if kind not in ("hbar", "m", "pairlam", "hbarpair") or not level.isdigit():
        raise ValueError(f"unknown radial component {name!r}")
    return kind, int(level)


class Evaluator:
    """Caches the derived-curve data of one lift and integrates any requested
    set of radial components on shared quadrature nodes.

    config is a hyperplane configuration (n, forms and general-position
    tuples, as in harness.HyperplaneConfig) or a prepared SelectorContext,
    whose cached minors are then shared; components that select tuples need
    one."""

    def __init__(self, x: CurveLift, config=None, tol: float = QUAD_TOL):
        if config is not None and config.n != x.n:
            raise ValueError("hyperplane configuration dimension mismatch")
        self.x = x
        self.tol = tol
        if config is None or isinstance(config, SelectorContext):
            self.ctx = config
        else:
            self.ctx = SelectorContext.from_config(config)
        self._wedges: Dict[int, WedgeVector] = {}
        self._arrays: Dict[tuple, list] = {}
        self._divisors: Dict[int, Divisor] = {}

    # -- exact/cached data ---------------------------------------------

    def wedge(self, d: int) -> WedgeVector:
        if d not in self._wedges:
            X = associated(self.x, d)
            if X.is_zero():
                raise DegenerateCurveError(f"curve degenerate at level d={d}")
            self._wedges[d] = X
        return self._wedges[d]

    def partner(self, d: int) -> WedgeVector:
        """The coordinatewise derivative of X^d, which the product rule makes
        the wedge x ^ x' ^ ... ^ x^{(d-2)} ^ x^{(d)} (see leibniz_partner)."""
        X = self.wedge(d)
        return WedgeVector(X.n, d, tuple((mi, p.derivative()) for mi, p in X.coords))

    def _coeffs(self, key) -> list:
        """Coefficient arrays of X^d for key ('w', d), of (X^d)' for ('p', d)."""
        if key not in self._arrays:
            kind, d = key
            wedge = self.wedge(d) if kind == "w" else self.partner(d)
            self._arrays[key] = _coeff_arrays(wedge.polys())
        return self._arrays[key]

    def level_divisor(self, d: int) -> Divisor:
        if d not in self._divisors:
            self._divisors[d] = level_divisor(self.wedge(d))
        return self._divisors[d]

    def counting_d(self, d: int, r: float) -> float:
        return counting(self.level_divisor(d), r)

    # -- shared-node radial integration ----------------------------------

    def radial(self, r: float, names: Sequence[str],
               pair_sets: Optional[Dict[int, List[Tuple[int, int]]]] = None):
        """Integrate the named components at radius r on shared nodes.

        Component names: 'hbar:d', 'm:d', 'cartan', 'mumax', 'pairlam:d'
        (mean pair Weil function on y wedge y' for y = X^d, over the pair
        positions pair_sets[d]), 'hbarpair:d' (log norm of y wedge y').
        Returns ({name: (value, converged)}, nodes).
        """
        names = list(names)
        comps = [_component(nm) for nm in names]
        if self.ctx is None and any(kind in ("m", "cartan", "mumax", "pairlam")
                                    for kind, _ in comps):
            raise ValueError("component needs a hyperplane config")
        if any(kind == "pairlam" and d not in (pair_sets or {}) for kind, d in comps):
            raise ValueError("'pairlam:d' needs its pair positions in pair_sets")

        def g(theta: np.ndarray) -> np.ndarray:
            z = r * np.exp(1j * theta)
            at = {}
            rows = []
            with np.errstate(divide="ignore", invalid="ignore"):
                for kind, d in comps:
                    if kind == "cartan":
                        rows.append(self._at("sel", z, at)[1])
                    elif kind == "mumax":
                        rows.append(self._mumax(self._at(("w", 1), z, at),
                                                self._at(("p", 1), z, at)))
                    elif kind == "hbarpair":
                        rows.append(self._at(("pn", d), z, at))
                    elif kind == "pairlam":
                        rows.append(self._pair_lambda_mean(
                            d, self._at(("w", d), z, at), self._at(("p", d), z, at),
                            self._at(("pn", d), z, at), self._at("sel", z, at)[0],
                            pair_sets[d],
                        ))
                    elif d == 0:  # hbar:0 and m:0 vanish identically
                        rows.append(np.zeros(len(z)))
                    elif kind == "hbar":
                        rows.append(_log_norm(self._at(("w", d), z, at)))
                    else:
                        rows.append(self.ctx.level_lambda_mean(
                            d, self._at(("w", d), z, at), self._at("sel", z, at)[0]))
            return np.vstack(rows)

        values, converged, nodes = adaptive_midpoint(g, tol=self.tol)
        out = {
            nm: (float(v), bool(c))
            for nm, v, c in zip(names, values, converged)
        }
        return out, nodes

    def _at(self, key, z: np.ndarray, at: dict):
        """Values at the nodes z, built once per node batch in ``at``:
        ('w', d) and ('p', d) are X^d and (X^d)', 'sel' the selected tuple
        and its level-1 Weil sum, ('pn', d) the log norm of X^d wedge (X^d)'."""
        if key not in at:
            if key == "sel":
                at[key] = self.ctx.select(self._at(("w", 1), z, at))
            elif key[0] == "pn":
                G = self._at(("w", key[1]), z, at)
                H = self._at(("p", key[1]), z, at)
                ai, bi = np.triu_indices(G.shape[0], 1)
                at[key] = _log_norm(G[ai] * H[bi] - G[bi] * H[ai])
            else:
                at[key] = _eval_stack(self._coeffs(key), z)
        return at[key]

    def _pair_lambda_mean(self, d, G, H, lognorm, sel, positions):
        """Mean over the pair collection of the Weil function of the wedged
        pair of tuple forms applied to y wedge y'."""
        minors = self.ctx.minors(d)
        out = np.empty(G.shape[1])
        for t in np.unique(sel):
            mask = sel == t
            A = minors[t] @ G[:, mask]
            B = minors[t] @ H[:, mask]
            acc = np.zeros(mask.sum())
            for i, j in positions:
                acc += np.log(np.abs(A[i] * B[j] - A[j] * B[i]))
            out[mask] = lognorm[mask] - acc / len(positions)
        return out

    def _mumax(self, xv: np.ndarray, xpv: np.ndarray) -> np.ndarray:
        """Pointwise max over tuples of the generalized Weil function of the
        tuple divisor; fmax drops the nan of nodes on a divisor."""
        y = self.ctx.form_mat @ xv
        yd = self.ctx.form_mat @ xpv
        best = np.full(xv.shape[1], -np.inf)
        for t in self.ctx.tuple_index:
            num, den = _chart_sums(y[t], yd[t])
            best = np.fmax(best, -0.5 * np.log(num / den))
        return best


def proximity_m(x: CurveLift, d: int, L, r: float,
                tol: float = QUAD_TOL) -> RadialValue:
    """m_{d,f}(L, r): circle average of the mean over all size-d subsets I of
    the Weil function of the wedge form L_{z,I} applied to X^d, the tuple at
    each node chosen by the level-1 selector.  L is a hyperplane
    configuration or a SelectorContext.  m_0 is identically zero."""
    if r <= 0:
        raise ValueError("proximity needs r > 0")
    if d == 0:
        return RadialValue(r=r, value=0.0, quadrature_nodes=0, converged=True)
    vals, nodes = Evaluator(x, L, tol).radial(r, [f"m:{d}"])
    value, converged = vals[f"m:{d}"]
    return RadialValue(r=r, value=value, quadrature_nodes=nodes,
                       converged=converged)


def proximity_hyperplane(x: CurveLift, form, r: float,
                         tol: float = QUAD_TOL) -> RadialValue:
    """Classical single-hyperplane proximity m_f(H, r) for a linear form."""
    arrays = _coeff_arrays(x.coords)
    coeffs = _form_matrix([form])[0]

    def g(theta: np.ndarray) -> np.ndarray:
        xv = _eval_stack(arrays, r * np.exp(1j * theta))
        with np.errstate(divide="ignore"):
            return _log_norm(xv) - np.log(np.abs(coeffs @ xv))

    return circle_integral(g, tol, r)


def _chart_sums(y: np.ndarray, yd: np.ndarray):
    """Chart-ratio sums of one tuple of forms, one column per node.

    y and yd are the tuple coordinates L_i(x) and their derivatives.  In the
    chart of the maximum-modulus coordinate y_k0 (the ratios w_i = y_i / y_k0
    then all have modulus <= 1) returns sum |w_i'|^2 and sum |w_i'/w_i|^2;
    the second is nan where some y_i vanishes, i.e. on the tuple divisor.
    The k0 terms are exactly zero.
    """
    k0 = np.argmax(np.abs(y), axis=0)[None, :]
    y0 = np.take_along_axis(y, k0, axis=0)
    y0d = np.take_along_axis(yd, k0, axis=0)
    wp = (yd * y0 - y * y0d) / y0 ** 2
    num = (np.abs(wp) ** 2).sum(axis=0)
    den = (np.abs(wp / np.where(y == 0, np.nan, y / y0)) ** 2).sum(axis=0)
    return num, den


def _chart_sums_at(x: CurveLift, tuple_forms, z: complex):
    """_chart_sums for the n+1 given forms at the single point z."""
    zs = np.array([complex(z)])
    mat = _form_matrix(tuple_forms)
    y = mat @ _eval_stack(_coeff_arrays(x.coords), zs)
    if not y.any():
        raise ValueError("curve point is the zero vector in tuple coordinates")
    yd = mat @ _eval_stack(_coeff_arrays([p.derivative() for p in x.coords]), zs)
    with np.errstate(invalid="ignore"):
        num, den = _chart_sums(y, yd)
    return float(num[0]), float(den[0])


def mu(x: CurveLift, tuple_forms, z: complex) -> float:
    """Generalized Weil function for the divisor of an (n+1)-tuple of forms:
    -1/2 log( sum |w_i'|^2 / sum |w_i'/w_i|^2 ) in the chart of the
    maximum-modulus tuple coordinate.  Nonnegative away from the divisor,
    +inf on it; -inf signals a point where every chart derivative vanishes."""
    num, den = _chart_sums_at(x, tuple_forms, z)
    if num == 0.0:
        return -math.inf
    if math.isnan(den):
        return math.inf
    return -0.5 * math.log(num / den)


def _logplus(v: float) -> float:
    return 0.5 * math.log(v) if v > 1.0 else 0.0


def pointwise_logderiv_check(x: CurveLift, tuple_forms, z: complex):
    """Both sides of the pointwise log-derivative comparison
    log+ ||Tf|| + mu(f') - lambda_[0](g) <= log+ ||T_D f||_D + O(1),
    in the explicit chart coordinates.  Returns (lhs, rhs)."""
    num, den = _chart_sums_at(x, tuple_forms, z)
    if num == 0.0:
        raise ValueError("all chart derivatives vanish at this point")
    if math.isnan(den):
        raise ValueError("point lies on the tuple divisor")
    log_tf = _logplus(num)
    lam0 = _logplus(1.0 / num)
    mu_val = -0.5 * math.log(num / den)
    lhs = log_tf + mu_val - lam0
    rhs = _logplus(den)
    return lhs, rhs
