"""Analytic functionals: counting functions, circle quadrature, heights
(height_T reads heights.ReducedNorm), proximity averages, and the
log-derivative comparison.  The Weil function of a wedge form L_I has one
route, the selector's: SelectorContext.minors gives the exact minors of the
selected tuple's forms, and level_lambda_mean and pair_lambda_mean average
their Weil functions over the nodes.

Quadrature is a composite midpoint rule with node doubling; midpoint nodes
sit at half-steps so they never land on theta = 2*pi*k/N.  A row with a
non-finite value keeps the non-finite estimate its sum gives, is flagged
unconverged and ends the doubling, since more nodes do not remove a
singular value or a float overflow.

Every circle average, height_bar and proximity_hyperplane included, is a
row of NodeBatch components integrated by Evaluator.radial, the one caller
of adaptive_midpoint, one chunk of at most _NODE_CHUNK nodes at a time, and
adaptive_midpoint sums each grid leaf by leaf in numpy's pairwise order, so
neither per-node temporaries nor the rows grow with the nodes the quadrature
needs.  The first two grids of every radius are evaluated ahead, for
groups of radii at once; every later chunk is a batch the rows of one radius
share, keyed by grid position, holding one level's work arrays at a time and
trimmed after each rows function to the results a later one reads.

A batch evaluates X^d and (X^d)' by Horner's rule in place and applies the
selected tuple's minors per run of equal selection, for m(d) and pairlam(d)
alike; each form subset's exact minor layer is built once, from its
prefix's.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .curve import CurveLift, associated_family, level_divisor, level_polys
from .exterior import multi_indices, next_layer
from .gauss import QUAD_NODE_CAP, QUAD_TOL, Divisor, GaussPoly, PackedRows
from .heights import ReducedNorm, validate_radii

__all__ = [
    "RadialValue",
    "QUAD_TOL",
    "QUAD_INITIAL_NODES",
    "QUAD_NODE_CAP",
    "counting",
    "adaptive_midpoint",
    "height_bar",
    "height_T",
    "SelectorContext",
    "Evaluator",
    "proximity_m",
    "proximity_hyperplane",
    "mu",
    "pointwise_logderiv_check",
]

QUAD_INITIAL_NODES = 256
# Nodes per NodeBatch.  Transient memory grows with the chunk, not with the
# node count; much smaller chunks cost run time in per-chunk overhead.
_NODE_CHUNK = 4096


class RadialValue:
    """A value of a radial functional, with its quadrature provenance; equal
    when every field is."""

    __slots__ = ("r", "value", "quadrature_nodes", "converged")

    def __init__(self, r: float, value: float, quadrature_nodes: int,
                 converged: bool):
        self.r, self.value = r, value
        self.quadrature_nodes, self.converged = quadrature_nodes, converged

    def __eq__(self, other):
        if other.__class__ is not RadialValue:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k)
                   for k in self.__slots__)


def counting(D: Divisor, r: float) -> float:
    """N(r) = ord_0 * log r + sum over 0 < |rho| <= r of mult * log(r / |rho|)."""
    validate_radii([r], "counting function")
    total = D.ord_at_zero * math.log(r)
    for rho, mult in D.points:
        a = abs(rho)
        if a <= r:
            total += mult * math.log(r / a)
    return total


def _grid(n: int, lo: int, hi: int) -> np.ndarray:
    """Nodes lo to hi - 1 of the n midpoint nodes (k + 1/2) 2 pi / n on the
    circle."""
    return (np.arange(lo, hi) + 0.5) * (2 * math.pi / n)


def adaptive_midpoint(
    g: Callable[[np.ndarray], np.ndarray],
    tol: float = QUAD_TOL,
    cap: int = QUAD_NODE_CAP,
):
    """Midpoint circle averages (1/2pi integral) of a vector integrand.

    g maps an array of theta nodes to an array of shape (k, len(nodes)).
    Returns (values, converged, nodes_used) with per-component flags.  A
    row that meets a non-finite value gets the non-finite estimate its sum
    gives, is flagged unconverged and ends the doubling.

    g is called on each grid leaf by leaf, in order: a leaf is the largest
    power of two nodes <= _NODE_CHUNK, and at least 128.  Numpy's pairwise
    summation splits a contiguous power-of-two row into halves down to
    blocks of 128, so the leaf sums of rows made C-contiguous, added in a
    balanced binary tree, have the bits of the mean over the whole grid's
    rows in any memory layout, while no array as long as the grid is built.
    """
    leaf = max(128, 1 << (_NODE_CHUNK.bit_length() - 1))
    prev, n = math.nan, QUAD_INITIAL_NODES  # no estimate yet: nothing converges
    while True:
        sums = [np.ascontiguousarray(np.atleast_2d(
                    g(_grid(n, lo, min(n, lo + leaf)))), dtype=float).sum(axis=1)
                for lo in range(0, n, leaf)]
        while len(sums) > 1:
            sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
        est = sums[0] / n
        clean = np.isfinite(est)
        converged = (np.abs(est - prev) < tol) & clean
        if converged.all() or not clean.all() or 2 * n > cap:
            return est, converged, n
        prev, n = est, 2 * n


def _coeff_arrays(polys: Sequence[GaussPoly]) -> list:
    return [p.complex_coeffs() for p in polys]


def _eval_stack(arrays: Sequence[np.ndarray], z: np.ndarray) -> np.ndarray:
    """One row per coefficient array, each evaluated at z by Horner's rule
    in place; for finite z the bits of np.polynomial.polynomial.polyval."""
    out = np.empty((len(arrays), len(z)), dtype=complex)
    for row, a in zip(out, arrays):
        row[:] = a[-1]
        for c in a[-2::-1]:
            row *= z
            row += c
    return out


def _log_norm(v: np.ndarray) -> np.ndarray:
    """log of the Euclidean norm of each column of v."""
    return 0.5 * np.log((np.abs(v) ** 2).sum(axis=0))


def _form_matrix(forms) -> np.ndarray:
    return np.array([[complex(c) for c in f] for f in forms], dtype=complex)


def height_bar(X, r: float, tol: float = QUAD_TOL) -> RadialValue:
    """Circle average of log |X(r e^{i theta})| (Euclidean norm of the
    Pluecker coordinates).  X may be a WedgeVector or a bare GaussPoly; its
    coordinates are integrated as a lift, a GaussPoly as a lift in P^0."""
    validate_radii([r], "height_bar")
    if X.is_zero():
        kind = "polynomial" if isinstance(X, GaussPoly) else "wedge"
        raise ValueError(f"height of the zero {kind}")
    polys = [X] if isinstance(X, GaussPoly) else X.polys()
    lift = CurveLift(n=len(polys) - 1, coords=tuple(polys))
    return _radial_value(Evaluator(lift, None, tol), r, lambda at: at.hbar(1))


def height_T(x: CurveLift, d: int, r: float, tol: float = QUAD_TOL) -> float:
    """T_{d,f}(r), the Jensen mean of ReducedNorm(X^d); T_{0,f} is 0."""
    validate_radii([r], "height")
    if d == 0:
        return 0.0
    return ReducedNorm(Evaluator(x).level_polys(d)).height(r, tol)[0]


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
        # how many leading forms each tuple shares with the one before it
        self._shared_lead = [0] + [
            next((i for i, (a, b) in enumerate(zip(s, t)) if a != b), len(t))
            for s, t in zip(self.tuples, self.tuples[1:])]
        self._packed = PackedRows(self.forms)
        # packed minor layer of each form subset (a row tuple) built so far
        self._layers: dict = {(): {(): (1, 0)}}
        self._minors: dict = {}

    @classmethod
    def from_config(cls, config) -> "SelectorContext":
        return cls(config.n, config.forms, config.tuples)

    def _layer(self, S: tuple) -> dict:
        """The packed minors of the forms S on every column subset of size
        len(S), one next_layer step from those of its prefix S[:-1]."""
        if S not in self._layers:
            self._layers[S] = next_layer(self._layer(S[:-1]),
                                         self._packed.rows[S[-1]],
                                         len(S) - 1, self.n + 1)
        return self._layers[S]

    def minors(self, d: int) -> np.ndarray:
        """Exact minor matrices per tuple: entry [t, a, b] pairs the wedge of
        tuple t's forms at index set I_a with Pluecker coordinate M_b.  The
        entry depends only on the form subset t[I_a], so each subset's
        Pluecker coefficients are computed once, from the forms packed once
        per context, and shared by all tuples; each subset's minor layer is
        built from its prefix's, which every level shares."""
        if d not in self._minors:
            idx = multi_indices(self.n, d)
            table = {}
            mats = []
            for t in self.tuples:
                row = []
                for ia in idx:
                    S = tuple(t[i] for i in ia.elements)
                    if S not in table:
                        table[S] = [self._packed.scalar_complex(v, S)
                                    for v in self._layer(S).values()]
                    row.append(table[S])
                mats.append(row)
            self._minors[d] = np.array(mats, dtype=complex)
        return self._minors[d]

    def select(self, xvals: np.ndarray):
        """The tuple with the largest level-1 Weil sum sum_i lambda_i(x) at
        each node, in the narrowest unsigned type, and that sum, in one pass
        over the tuples: strict > keeps the lowest index on a tie, and the
        first NaN sum wins, as in np.argmax.  Each form's log|L_j(x)| is
        computed once; a tuple sums its rows in order, and tuples that share
        leading forms share those partial sums, so in the lexicographic order
        of exterior.general_position_tuples most tuples cost one addition."""
        scaled = (self.n + 1) * _log_norm(xvals)
        with np.errstate(divide="ignore"):
            logf = np.log(np.abs(self.form_mat @ xvals))
        # a sum is NaN only where the log norm is not finite or a form value
        # is NaN or +inf
        nan_free = np.isfinite(scaled).all() and (logf < np.inf).all()
        nodes = xvals.shape[1]
        # partial[j]: the sum of the current tuple's first j form rows
        partial = np.zeros((self.n + 2, nodes))
        best, s = np.empty(nodes), np.empty(nodes)
        take = np.empty(nodes, dtype=bool)
        sel = np.zeros(nodes, dtype=np.min_scalar_type(len(self.tuples) - 1))
        for k, (t, lead) in enumerate(zip(self.tuples, self._shared_lead)):
            for j in range(lead, self.n + 1):
                np.add(partial[j], logf[t[j]], out=partial[j + 1])
            if k == 0:
                np.subtract(scaled, partial[-1], out=best)
                continue
            np.subtract(scaled, partial[-1], out=s)
            np.greater(s, best, out=take)
            if not nan_free:
                take |= np.isnan(s) & ~np.isnan(best)
            np.copyto(best, s, where=take)
            sel[take] = k
        return sel, best

    def tuple_values(self, d: int, sel: np.ndarray,
                     v: np.ndarray) -> np.ndarray:
        """minors(d)[sel[k]] @ v[:, k] at every node k, for level-d Pluecker
        values v, one column per node.  Nodes come in runs of equal
        selection; each tuple is one product, on its one run's columns or
        on its runs' columns gathered, since a column's bits depend on its
        place in a BLAS product (the last columns take another kernel)."""
        minors = self.minors(d)
        out = np.empty((minors.shape[1], v.shape[1]), dtype=complex)
        cut = (np.flatnonzero(sel[1:] != sel[:-1]) + 1).tolist()
        runs: dict = {}
        for t, a, b in zip(sel[[0] + cut].tolist(), [0] + cut,
                           cut + [len(sel)]):
            runs.setdefault(t, []).append(slice(a, b))
        for t, spans in runs.items():
            if len(spans) == 1:
                np.matmul(minors[t], v[:, spans[0]], out=out[:, spans[0]])
                continue
            prod = minors[t] @ np.concatenate([v[:, s] for s in spans], axis=1)
            lo = 0
            for s in spans:
                out[:, s] = prod[:, lo:lo + s.stop - s.start]
                lo += s.stop - s.start
        return out

    def level_lambda_mean(self, values: np.ndarray,
                          lognorm: np.ndarray) -> np.ndarray:
        """Mean over all size-d index sets I of lambda_I(X^d) per node, from
        the selected tuple's values (tuple_values of X^d) and log |X^d|."""
        with np.errstate(divide="ignore"):
            return lognorm - np.log(np.abs(values)).mean(axis=0)

    def pair_lambda_mean(self, A: np.ndarray, B: np.ndarray,
                         lognorm: np.ndarray,
                         positions: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Mean over the pair positions of the Weil function of the wedged
        pair of selected tuple forms applied to y wedge y', for y = X^d, A
        and B the selected tuple's values (tuple_values) of y and y' and
        lognorm the log norm of y wedge y'."""
        acc = np.zeros(A.shape[1])
        for i, j in positions:
            acc += np.log(np.abs(A[i] * B[j] - A[j] * B[i]))
        return lognorm - acc / len(positions)

    def mumax(self, xv: np.ndarray, xpv: np.ndarray) -> np.ndarray:
        """Pointwise max over all tuples of the generalized Weil function of
        the tuple divisor, at curve values xv and derivatives xpv; fmax drops
        the nan of nodes on a divisor.  The chart rows of every form pair
        are computed once, and each tuple adds its rows."""
        y = self.form_mat @ xv
        rows = _chart_rows(y, self.form_mat @ xpv)
        best = np.full(xv.shape[1], -np.inf)
        for t in self.tuple_index:
            num, den = _tuple_sums(rows, y, t)
            best = np.fmax(best, -0.5 * np.log(num / den))
        return best


class NodeBatch:
    """A chunk of nodes z = r e^{i theta} of an Evaluator; r may be per node,
    theta an array or a grid position (n, lo, hi) that _grid rebuilds.  Each
    component method returns one value per node.  The batch keeps every
    value it computes, in one dict keyed by tuples, until trim drops it: z,
    one level e's work arrays (X^e, (X^e)', the selected tuple's values of
    each, for m(e) and pairlam(e), and the log norm of X^e wedge (X^e)'), and
    its results, the selection, the level-1 maximum, |X^d| and m(d), whose
    keys it adds to reads when a component asks for them."""

    def __init__(self, ev: "Evaluator", r, theta):
        self.ev = ev
        self.r = r
        self._theta = theta
        self._cache: Dict[tuple, object] = {}
        self.reads: set = set()

    @property
    def theta(self) -> np.ndarray:
        t = self._theta
        return _grid(*t) if isinstance(t, tuple) else t

    def trim(self, keep: set) -> None:
        """Drop every value whose key is not in keep."""
        for key in self._cache.keys() - keep:
            del self._cache[key]

    def _cached(self, key: tuple, compute: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def _result(self, key: tuple, compute: Callable[[], object]):
        self.reads.add(key)
        return self._cached(key, compute)

    def _work(self, key: tuple, compute: Callable[[], np.ndarray]):
        """The work array key of level key[-1]; the batch first drops those
        of every other level, so it holds one level's at a time."""
        for k in [k for k in self._cache if k[-1] != key[-1]
                  and k[0] in ("w", "p", "tuple", "hbarpair")]:
            del self._cache[k]
        return self._cached(key, compute)

    @property
    def z(self) -> np.ndarray:
        return self._cached(("z",), lambda: self.r * np.exp(1j * self.theta))

    def _ctx(self) -> SelectorContext:
        if self.ev.ctx is None:
            raise ValueError("component needs a hyperplane config")
        return self.ev.ctx

    def _stack(self, key: tuple) -> np.ndarray:
        return self._work(key, lambda: _eval_stack(self.ev._coeffs(key),
                                                   self.z))

    def wedge(self, d: int) -> np.ndarray:
        """X^d, one row per Pluecker coordinate."""
        return self._stack(("w", d))

    def partner(self, d: int) -> np.ndarray:
        """(X^d)', the coordinatewise derivative of X^d."""
        return self._stack(("p", d))

    def _tuple_values(self, key: tuple) -> np.ndarray:
        """The selected tuple's level-d minors applied at every node to X^d
        for key ('w', d), to (X^d)' for ('p', d); the selection comes first,
        since X^1 is a work array of level 1."""
        sel = self.selection
        return self._work(("tuple",) + key, lambda: self._ctx().tuple_values(
            key[1], sel, self._stack(key)))

    def _select(self, key: tuple) -> np.ndarray:
        """The result ('selection',) or ('cartan',), both from one select."""
        self.reads.add(key)
        if key not in self._cache:
            (self._cache[("selection",)],
             self._cache[("cartan",)]) = self._ctx().select(self.wedge(1))
        return self._cache[key]

    @property
    def selection(self) -> np.ndarray:
        """The index of the selected tuple at each node."""
        return self._select(("selection",))

    def hbar(self, d: int) -> np.ndarray:
        """log |X^d|; identically zero at d = 0."""
        if d == 0:
            return np.zeros(len(self.theta))
        return self._result(("hbar", d), lambda: _log_norm(self.wedge(d)))

    def m(self, d: int) -> np.ndarray:
        """Mean level-d Weil function of the selected tuple; zero at d = 0."""
        ctx = self._ctx()
        if d == 0:
            return np.zeros(len(self.theta))
        return self._result(("m", d), lambda: ctx.level_lambda_mean(
            self._tuple_values(("w", d)), self.hbar(d)))

    def cartan(self) -> np.ndarray:
        """The largest level-1 tuple Weil sum."""
        return self._select(("cartan",))

    def mumax(self) -> np.ndarray:
        """The largest tuple mu."""
        return self._ctx().mumax(self.wedge(1), self.partner(1))

    def pairlam(self, d: int,
                positions: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Mean pair Weil function on y wedge y' for y = X^d over the pair
        positions (in the lexicographic multi-index order of level d)."""
        return self._ctx().pair_lambda_mean(
            self._tuple_values(("w", d)), self._tuple_values(("p", d)),
            self.hbarpair(d), positions)

    def hbarpair(self, d: int) -> np.ndarray:
        """log |y wedge y'| for y = X^d; the squared Pluecker coordinates
        |G_a H_b - G_b H_a|^2 are added pair by pair in triu_indices order,
        the order of _log_norm's sum."""
        def compute():
            G, H = self.wedge(d), self.partner(d)
            sq = np.zeros(G.shape[1])
            for a, b in zip(*np.triu_indices(len(G), 1)):
                sq += np.abs(G[a] * H[b] - G[b] * H[a]) ** 2
            return 0.5 * np.log(sq)

        return self._work(("hbarpair", d), compute)


class Evaluator:
    """Caches the derived-curve data of one lift and integrates any rows of
    NodeBatch components on shared quadrature nodes.

    config is None or a hyperplane configuration (n, forms and
    general-position tuples, as in exterior.HyperplaneConfig); components
    that select tuples need one."""

    def __init__(self, x: CurveLift, config=None, tol: float = QUAD_TOL):
        if config is not None and config.n != x.n:
            raise ValueError("hyperplane configuration dimension mismatch")
        self.x = x
        self.tol = tol
        self.ctx = (None if config is None
                    else SelectorContext.from_config(config))
        self._arrays: Dict[tuple, list] = {}
        self._divisors: Dict[int, Divisor] = {}

    # -- exact/cached data ---------------------------------------------

    @cached_property
    def _family(self) -> list:
        """X^0, ..., X^{n+1}, all read from one minor table."""
        return associated_family(self.x)

    def level_polys(self, d: int) -> list:
        """The Pluecker coordinate polynomials of X^d.  X^1 is x itself, so
        level 1 builds no derived level."""
        if d == 1:
            return list(self.x.coords)
        if not 0 <= d <= self.x.n + 1:
            raise ValueError(f"associated level d={d} out of range "
                             f"0..{self.x.n + 1}")
        return level_polys(self._family, d)

    def _coeffs(self, key) -> list:
        """Coefficient arrays of X^d for key ('w', d), of (X^d)' for ('p', d):
        the coordinatewise derivative, which the product rule makes the wedge
        x ^ x' ^ ... ^ x^{(d-2)} ^ x^{(d)} (see leibniz_partner)."""
        if key not in self._arrays:
            kind, d = key
            polys = self.level_polys(d)
            if kind == "p":
                polys = [p.derivative() for p in polys]
            self._arrays[key] = _coeff_arrays(polys)
        return self._arrays[key]

    def level_divisor(self, d: int) -> Divisor:
        if d not in self._divisors:
            self._divisors[d] = level_divisor(self.level_polys(d))
        return self._divisors[d]

    # -- shared-node radial integration ----------------------------------

    def radial(self, radii: Sequence[float], each: Sequence[Callable]) -> list:
        """Integrate at each radius the component rows that each rows
        function in each returns for a NodeBatch at, for example ``lambda
        at: [at.cartan(), at.hbar(1), at.m(1)]``.  Returns per radius one
        adaptive_midpoint (values, converged, nodes) per rows function.

        No row converges on adaptive_midpoint's first grid, whose estimate has
        no predecessor, so every radius whose first grid is finite also
        evaluates the second.  Both are evaluated ahead, a radius per node, for
        groups of radii filling half a chunk (no wider than the 2048-node grid
        smooth radii reach, so peak memory does not grow); a radius whose first
        grid is not finite drops its second.  Every later chunk of a radius
        is a batch in the radius's shared dict, keyed by grid position: after
        rows function k it is trimmed to keep[k], the results (selection,
        level-1 maximum, |X^d|, m(d)) that a later rows function read on the
        batches ahead, where every rows function runs, and it leaves the dict
        once it keeps nothing, so a single rows function holds no batch.
        Kernels work node by node, except the selected tuple's minors product
        (SelectorContext.tuple_values), one BLAS product per tuple and batch;
        the tests check that grouping and chunk size change no value."""
        first = np.concatenate([
            _grid(n, 0, n) for n in (QUAD_INITIAL_NODES, 2 * QUAD_INITIAL_NODES)])
        size = max(1, _NODE_CHUNK // (2 * len(first)))
        out = []
        for lo in range(0, len(radii), size):
            group = np.asarray(radii[lo:lo + size], dtype=float)
            ahead, reads = self._evaluate(np.repeat(group, len(first)),
                                          np.tile(first, len(group)), each)
            keep = [set().union(*reads[k + 1:]) for k in range(len(each))]
            for k, r in enumerate(group):
                shared = {}
                cols = slice(k * len(first), (k + 1) * len(first))
                out.append([adaptive_midpoint(
                    self._integrand(r, rows, shared, kept, v[:, cols]),
                    tol=self.tol) for rows, kept, v in zip(each, keep, ahead)])
        return out

    def _integrand(self, r: float, rows: Callable, shared, keep: set, ahead):
        """adaptive_midpoint's g for rows at radius r.  g tracks the grid
        position (n, lo) of each leaf, which it is asked for in order: the
        first two grids come from their values ahead, later ones from the
        radius's shared batches, keyed by (n, lo) of their chunk, each
        trimmed to keep after rows and dropped once it keeps nothing."""
        n, lo = QUAD_INITIAL_NODES, 0

        def g(theta: np.ndarray) -> np.ndarray:
            nonlocal n, lo
            grid, start, stop = n, lo, lo + len(theta)
            n, lo = (n, stop) if stop < n else (2 * n, 0)
            done = grid - QUAD_INITIAL_NODES + start  # nodes asked for before
            if done < ahead.shape[1]:
                return ahead[:, done:done + len(theta)]
            out = np.empty((len(ahead), len(theta)))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                for a in range(start, stop, _NODE_CHUNK):
                    key = (grid, a)
                    if key not in shared:
                        shared[key] = NodeBatch(
                            self, r, (grid, a, min(stop, a + _NODE_CHUNK)))
                    at = shared[key]
                    out[:, a - start:a - start + _NODE_CHUNK] = rows(at)
                    at.trim(keep)
                    if not at._cache:
                        del shared[key]
            return out

        return g

    def _evaluate(self, r: np.ndarray, theta: np.ndarray, each) -> tuple:
        """One (rows, nodes) array per rows function, from one NodeBatch per
        chunk (r one radius per node), and per rows function the keys of the
        results it read; after each rows function a batch keeps only the
        results read so far."""
        out = [None] * len(each)
        reads = [set() for _ in each]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for lo in range(0, len(theta), _NODE_CHUNK):
                chunk = slice(lo, lo + _NODE_CHUNK)
                at = NodeBatch(self, r[chunk], theta[chunk])
                for k, rows in enumerate(each):
                    at.reads = reads[k]
                    vals = rows(at)
                    at.trim(set().union(*reads[:k + 1]))
                    if out[k] is None:
                        out[k] = np.empty((len(vals), len(theta)))
                    out[k][:, chunk] = vals
        return out, reads


def _radial_value(ev: Evaluator, r: float,
                  row: Callable[[NodeBatch], np.ndarray]) -> RadialValue:
    """The circle average at radius r of one NodeBatch component row, for
    example ``lambda at: at.hbar(1)``, through Evaluator.radial."""
    [[((value,), converged, nodes)]] = ev.radial([r], [lambda at: [row(at)]])
    return RadialValue(r=r, value=float(value), quadrature_nodes=nodes,
                       converged=bool(converged[0]))


def proximity_m(x: CurveLift, d: int, L, r: float,
                tol: float = QUAD_TOL) -> RadialValue:
    """m_{d,f}(L, r): circle average of the mean over all size-d subsets I of
    the Weil function of the wedge form L_{z,I} applied to X^d, the tuple at
    each node chosen by the level-1 selector.  L is a hyperplane
    configuration.  m_0 is identically zero."""
    validate_radii([r], "proximity")
    if d == 0:
        return RadialValue(r=r, value=0.0, quadrature_nodes=0, converged=True)
    return _radial_value(Evaluator(x, L, tol), r, lambda at: at.m(d))


def proximity_hyperplane(x: CurveLift, form, r: float,
                         tol: float = QUAD_TOL) -> RadialValue:
    """Classical single-hyperplane proximity m_f(H, r) for a linear form."""
    validate_radii([r], "proximity")
    coeffs = _form_matrix([form])[0]
    return _radial_value(
        Evaluator(x, None, tol), r,
        lambda at: at.hbar(1) - np.log(np.abs(coeffs @ at.wedge(1))))


def _chart_rows(y: np.ndarray, yd: np.ndarray) -> np.ndarray:
    """Chart-ratio rows of every ordered pair of forms, one column per node.

    y and yd are the form values L_i(x) and their derivatives, f forms.  In
    the chart of form k the ratios are w_i = y_i / y_k; rows[0] holds
    |w_i'|^2 and rows[1] |w_i'/w_i|^2 at row k*f + i, the second nan where
    y_i vanishes.  The rows i = k hold w_k' = 0 as computed: a fused
    multiply-add can leave a rounding residue in y_k' y_k - y_k y_k', which
    a tuple's sums carry where its other terms are that small.
    """
    f, nodes = y.shape
    rows = np.empty((2, f, f, nodes))
    for k in range(f):
        wp = yd * y[k]
        wp -= y * yd[k]
        wp /= y[k] ** 2
        rows[0, k] = np.abs(wp) ** 2
        w = y / y[k]
        w[y == 0] = np.nan
        wp /= w
        rows[1, k] = np.abs(wp) ** 2
    return rows.reshape(2, f * f, nodes)


def _tuple_sums(rows: np.ndarray, y: np.ndarray, t: np.ndarray):
    """sum |w_i'|^2 and sum |w_i'/w_i|^2 over the forms i of tuple t, in
    tuple order, in the chart of the tuple's maximum-modulus coordinate
    (lowest index on a tie; the ratios then all have modulus <= 1), from
    _chart_rows of the form values y.  The second sum is nan where some y_i
    vanishes, i.e. on the tuple divisor."""
    f, nodes = y.shape
    chart = t[np.argmax(np.abs(y[t]), axis=0)]
    at = (chart * f + t[:, None]) * nodes + np.arange(nodes)
    return rows[0].take(at).sum(axis=0), rows[1].take(at).sum(axis=0)


def _sums_at_point(x: CurveLift, tuple_forms, z: complex):
    """_tuple_sums for the n+1 given forms at the single point z."""
    zs = np.array([complex(z)])
    mat = _form_matrix(tuple_forms)
    y = mat @ _eval_stack(_coeff_arrays(x.coords), zs)
    if not y.any():
        raise ValueError("curve point is the zero vector in tuple coordinates")
    yd = mat @ _eval_stack(_coeff_arrays([p.derivative() for p in x.coords]), zs)
    with np.errstate(divide="ignore", invalid="ignore"):
        num, den = _tuple_sums(_chart_rows(y, yd), y, np.arange(len(y)))
    return float(num[0]), float(den[0])


def mu(x: CurveLift, tuple_forms, z: complex) -> float:
    """Generalized Weil function for the divisor of an (n+1)-tuple of forms:
    -1/2 log( sum |w_i'|^2 / sum |w_i'/w_i|^2 ) in the chart of the
    maximum-modulus tuple coordinate.  Nonnegative away from the divisor,
    +inf on it; -inf signals a point where every chart derivative vanishes."""
    num, den = _sums_at_point(x, tuple_forms, z)
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
    num, den = _sums_at_point(x, tuple_forms, z)
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
