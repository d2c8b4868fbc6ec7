import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from nevlab import nevanlinna
from nevlab.cli import build, parse_config
from nevlab.curve import associated, associated_family, normalize
from nevlab.exterior import WedgeForm, distance_one_collection, multi_indices
from nevlab.gauss import GR_ONE, GR_ZERO, Divisor, GaussPoly, parse_poly, roots
from nevlab.heights import ReducedNorm, level_norms
from nevlab.nevanlinna import (
    QUAD_INITIAL_NODES,
    QUAD_NODE_CAP,
    QUAD_TOL,
    Evaluator,
    NodeBatch,
    RadialValue,
    SelectorContext,
    adaptive_midpoint,
    counting,
    height_T,
    height_bar,
    mu,
    pointwise_logderiv_check,
    proximity_hyperplane,
    proximity_m,
    shared_evaluator,
)

from conftest import (STRESS_FORMS, corpus, full_cap, lift_config,
                      monomial_lift, polyval, rand_forms, stress, stress_ini)


ONE, ZERO = GR_ONE, GR_ZERO


def _scores(ctx, xvals):
    """Oracle for SelectorContext.select: the (tuples, nodes) matrix of
    level-1 Weil sums, whose np.argmax over axis 0 is the selection.  It
    repeats select's arithmetic per tuple, so the maxima agree bit for bit."""
    scaled = (ctx.n + 1) * (0.5 * np.log((np.abs(xvals) ** 2).sum(axis=0)))
    logf = np.log(np.abs(ctx.form_mat @ xvals))
    return np.array([scaled - logf[list(t)].sum(axis=0) for t in ctx.tuples])


class TestCounting:
    def test_weights(self):
        d = Divisor(2, ((3 + 0j, 1), (-5 + 0j, 2)))
        r = 10.0
        want = 2 * math.log(r) + math.log(r / 3) + 2 * math.log(r / 5)
        assert counting(d, r) == pytest.approx(want, abs=1e-14)

    def test_points_outside_radius_ignored(self):
        d = Divisor(0, ((4 + 0j, 1),))
        assert counting(d, 2.0) == 0.0

    def test_needs_positive_radius(self):
        with pytest.raises(ValueError):
            counting(Divisor.empty(), 0.0)


def _whole_grid_midpoint(g, tol, cap=QUAD_NODE_CAP):
    """Oracle for adaptive_midpoint: each grid's rows in one array, averaged
    by vals.mean(axis=1); a row whose mean is not finite is not clean."""
    prev, n = math.nan, QUAD_INITIAL_NODES
    while True:
        vals = np.asarray(g((np.arange(n) + 0.5) * (2 * math.pi / n)))
        est = vals.mean(axis=1)
        clean = np.isfinite(est)
        converged = (np.abs(est - prev) < tol) & clean
        if converged.all() or not clean.all() or 2 * n > cap:
            return est, converged, n
        prev, n = est, 2 * n


class TestQuadrature:
    def test_matches_scipy_on_smooth_integrand(self):
        def g(t):
            return np.exp(np.cos(t)) * np.cos(np.sin(t))

        (value,), (converged,), _ = adaptive_midpoint(
            lambda t: g(t)[None], tol=1e-9)
        want, _ = quad(g, 0, 2 * math.pi)
        assert converged
        assert value == pytest.approx(want / (2 * math.pi), abs=1e-9)

    def test_log_singularity_on_circle(self):
        # mean of log|e^{it} - 1| over the circle is 0 (Jensen); the
        # integrand blows up at t = 0 but no midpoint node hits it exactly
        def g(t):
            return np.log(np.abs(np.exp(1j * t) - 1))

        (value,), (converged,), _ = adaptive_midpoint(
            lambda t: g(t)[None], tol=1e-6)
        assert converged
        assert value == pytest.approx(0.0, abs=1e-5)

    def test_non_finite_row_ends_doubling(self):
        # row 0 turns infinite at one node of the second grid; a non-finite
        # value flags its row and ends the doubling, since more nodes do not
        # remove an overflow, while the smooth row 1 keeps its own flag
        def g(t):
            smooth = np.exp(np.cos(t))
            spoiled = smooth.copy()
            if len(t) > QUAD_INITIAL_NODES:
                spoiled[0] = np.inf
            return np.vstack([spoiled, smooth])

        values, converged, nodes = adaptive_midpoint(g, tol=1e-9)
        assert nodes == 2 * QUAD_INITIAL_NODES == 512
        assert converged.tolist() == [False, True]
        assert np.isfinite(values[1])

    def test_unconverged_flag(self):
        rng_state = {"k": 0}

        def g(t):
            # deliberately non-Cauchy sequence of estimates
            rng_state["k"] += 1
            return np.full((1, len(t)), float(rng_state["k"]))

        values, converged, nodes = adaptive_midpoint(g, tol=1e-12, cap=1024)
        assert not converged.all()
        assert nodes <= 1024

    @pytest.mark.parametrize("chunk", [64, 1000, 4096])
    @pytest.mark.parametrize("spoiled", [None, 256, 8192, 2 ** 16])
    def test_leaf_sums_keep_the_whole_grid_mean(self, chunk, spoiled,
                                                monkeypatch):
        # rows of random terms spanning 16 decades, whose sum depends on the
        # order of its additions, on grids 256 .. 2^16; on the grid
        # `spoiled` rows 1 to 3 hold a nan, an inf and a -inf, which ends the
        # doubling there.  Row 0 is smooth and converges; the random rows
        # never do.  Estimates, flags and node counts equal the whole-grid
        # mean's bit for bit at every leaf size (128, 512 and 4096 nodes).
        rng = np.random.default_rng(22)
        tables = {}

        def g(theta):
            n = round(2 * math.pi / (theta[1] - theta[0]))
            if n not in tables:
                rows = rng.standard_normal((4, n)) * 10.0 ** rng.uniform(
                    -8, 8, (4, n))
                if n == spoiled:
                    for row, bad in zip(rows[1:], (np.nan, np.inf, -np.inf)):
                        row[rng.integers(n)] = bad
                tables[n] = rows
            # row-major rows, as Evaluator's integrands return them
            out = np.empty((4, len(theta)))
            out[0] = np.exp(np.cos(theta))
            out[1:] = tables[n][1:, np.rint(theta * (n / (2 * math.pi))
                                            - 0.5).astype(int)]
            return out

        want = _whole_grid_midpoint(g, 1e-9, 2 ** 16)
        monkeypatch.setattr(nevanlinna, "_NODE_CHUNK", chunk)
        values, converged, nodes = adaptive_midpoint(g, 1e-9, 2 ** 16)
        assert nodes == want[2] == (spoiled or 2 ** 16)
        assert values.tobytes() == want[0].tobytes()
        # row 0 has no earlier estimate to agree with on the first grid
        assert converged.tolist() == want[1].tolist() == [
            spoiled != QUAD_INITIAL_NODES, False, False, False]

    def test_row_layout_does_not_change_the_estimates(self):
        # the same rows, returned C-ordered and Fortran-ordered: row 0 is
        # smooth and converges, rows 1 and 2 hold random terms spanning 16
        # decades, whose sum depends on the order of its additions, and never
        # converge on grids 256 .. 2^14.  Estimates, flags and node counts
        # are equal bit for bit.
        rng = np.random.default_rng(23)
        tables = {}

        def rows(order):
            def g(theta):
                n = round(2 * math.pi / (theta[1] - theta[0]))
                if n not in tables:
                    tables[n] = rng.standard_normal((2, n)) * 10.0 ** (
                        rng.uniform(-8, 8, (2, n)))
                out = np.empty((3, len(theta)), order=order)
                out[0] = np.exp(np.cos(theta))
                out[1:] = tables[n][:, np.rint(theta * (n / (2 * math.pi))
                                               - 0.5).astype(int)]
                return out
            return g

        want = adaptive_midpoint(rows("C"), 1e-9, 2 ** 14)
        got = adaptive_midpoint(rows("F"), 1e-9, 2 ** 14)
        assert got[2] == want[2] == 2 ** 14
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tolist() == want[1].tolist() == [True, False, False]


class TestHeightBar:
    def test_jensen_single_root_inside(self):
        rv = height_bar(parse_poly("z - 2"), 5.0)
        assert rv.value == pytest.approx(math.log(5), abs=1e-9)

    def test_jensen_single_root_outside(self):
        rv = height_bar(parse_poly("z - 2"), 1.0)
        assert rv.value == pytest.approx(math.log(2), abs=1e-9)

    def test_line_closed_form(self):
        x = monomial_lift(0, 1)
        for r in (0.5, 2.0, 40.0):
            rv = height_bar(associated(x, 1), r)
            assert rv.value == pytest.approx(0.5 * math.log(1 + r * r), abs=1e-8)

    def test_zero_rejected(self):
        from nevlab.gauss import GaussPoly
        with pytest.raises(ValueError):
            height_bar(GaussPoly.zero(), 2.0)


class TestHeightT:
    def test_level_zero_is_zero(self):
        assert height_T(monomial_lift(0, 1), 0, 7.0) == 0.0

    def test_wronskian_level_constant_curve(self):
        # for (1, z) the Wronskian is 1, so T at the top level is 0
        assert height_T(monomial_lift(0, 1), 2, 9.0) == pytest.approx(0.0, abs=1e-9)

    def test_common_zero_subtracted(self):
        # (1, z^2): x wedge x' = (2z), so T_2 = hbar_2 - log r = log 2
        x = monomial_lift(0, 2)
        r = 25.0
        t2 = height_T(x, 2, r)
        assert t2 == pytest.approx(math.log(2), abs=1e-8)

    def test_growth_in_r(self):
        x = monomial_lift(0, 1, 2)
        assert height_T(x, 1, 50.0) > height_T(x, 1, 5.0)

    def test_level_one_builds_no_derived_level(self, monkeypatch):
        # T_1 reads x itself: it is the Jensen height of x's reduced norm;
        # 3.5245421960701138 is T_1 read through the full derived family
        x, _ = stress()

        def refuse(lift):
            raise AssertionError("derived levels built")

        monkeypatch.setattr(nevanlinna, "associated_family", refuse)
        t1 = height_T(x, 1, 2.0)
        assert t1 == ReducedNorm(x.coords).height(2.0)[0]
        assert t1 == pytest.approx(3.5245421960701138, rel=1e-14)

    def test_no_midpoint_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("midpoint quadrature")

        monkeypatch.setattr(nevanlinna, "adaptive_midpoint", refuse)
        x, _ = stress()
        assert [height_T(x, d, 2.0) for d in range(x.n + 2)] == [
            0.0, *(norm.height(2.0)[0] for norm in level_norms(x))]


class TestProximity:
    def setup_method(self):
        self.x, self.cfg = corpus()["conic"]
        self.ctx = SelectorContext.from_config(self.cfg)

    def test_level_zero(self):
        rv = proximity_m(self.x, 0, self.cfg, 3.0)
        assert rv.value == 0.0 and rv.converged

    def test_nonnegative_up_to_quadrature(self):
        for d in (1, 2, 3):
            rv = proximity_m(self.x, d, self.cfg, 4.0)
            assert rv.converged
            assert rv.value > -1e-6

    @pytest.mark.parametrize("r", [0.0, -2.0])
    def test_hyperplane_needs_positive_radius(self, r):
        with pytest.raises(ValueError, match="proximity needs r > 0"):
            proximity_hyperplane(self.x, self.cfg.forms[0], r)

    def test_selector_reused_across_levels(self):
        # the level-1 argmax is a single map; scores of the selected tuple
        # must dominate at every sampled point
        theta = np.linspace(0.1, 6.2, 50)
        z = 3.0 * np.exp(1j * theta)
        xv = np.vstack([polyval(p, z) for p in self.x.coords])
        scores = _scores(self.ctx, xv)
        sel, smax = self.ctx.select(xv)
        assert np.all(smax >= scores - 1e-12)

    def test_fmt_constancy_single_hyperplane(self):
        x = monomial_lift(0, 1)
        form = (ONE, ONE)
        div = roots(parse_poly("1 + z"))
        vals = []
        for r in (2.0, 7.0, 30.0):
            m = proximity_hyperplane(x, form, r).value
            vals.append(m + counting(div, r) - height_T(x, 1, r))
        assert max(vals) - min(vals) < 1e-8


# Every public radial entry point, called at radius r on the conic; d = 0
# returns without quadrature, so the radius rule must come first.
_RADIAL_ENTRY_POINTS = {
    "height_bar": lambda x, cfg, r: height_bar(x.coords[1], r),
    "proximity_m_d0": lambda x, cfg, r: proximity_m(x, 0, cfg, r),
    "proximity_m_d1": lambda x, cfg, r: proximity_m(x, 1, cfg, r),
    "proximity_hyperplane":
        lambda x, cfg, r: proximity_hyperplane(x, cfg.forms[0], r),
    "counting": lambda x, cfg, r: counting(Divisor.empty(), r),
    "height_T_d0": lambda x, cfg, r: height_T(x, 0, r),
    "height_T_d1": lambda x, cfg, r: height_T(x, 1, r),
}


@pytest.mark.parametrize("r", [0.0, -2.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_RADIAL_ENTRY_POINTS))
def test_radial_entry_point_refuses_a_radius_not_finite_and_positive(entry,
                                                                     r):
    x, cfg = corpus()["conic"]
    with pytest.raises(ValueError, match="needs r > 0, a finite radius"):
        _RADIAL_ENTRY_POINTS[entry](x, cfg, r)


def _integrand_oracle(g, r, tol=QUAD_TOL) -> RadialValue:
    """Oracle for the single-row functionals: a hand-built scalar integrand
    g(theta), evaluated on all nodes at once, passed straight to
    adaptive_midpoint instead of through Evaluator.radial."""
    values, converged, nodes = adaptive_midpoint(lambda t: g(t)[None], tol)
    return RadialValue(r=r, value=float(values[0]), quadrature_nodes=nodes,
                       converged=bool(converged[0]))


def _stack(polys, z):
    return np.vstack([np.polynomial.polynomial.polyval(z, p.complex_coeffs())
                      for p in polys])


def _height_bar_oracle(X, r):
    polys = [X] if isinstance(X, GaussPoly) else X.polys()

    def g(theta):
        with np.errstate(divide="ignore", over="ignore"):
            v = _stack(polys, r * np.exp(1j * theta))
            return 0.5 * np.log((np.abs(v) ** 2).sum(axis=0))

    return _integrand_oracle(g, r)


def _proximity_hyperplane_oracle(x, form, r):
    coeffs = np.array([complex(c) for c in form])

    def g(theta):
        with np.errstate(divide="ignore", over="ignore"):
            v = _stack(x.coords, r * np.exp(1j * theta))
            return (0.5 * np.log((np.abs(v) ** 2).sum(axis=0))
                    - np.log(np.abs(coeffs @ v)))

    return _integrand_oracle(g, r)


def _oracle_cases():
    """(x, forms, radii) for the corpus curves and for the stress curve,
    whose r = 1.997 lies near the root 2 of its coordinate z - 2 and of its
    second form, so the midpoint oracles there need 8192 nodes."""
    cases = [(x, cfg.forms, (0.5, 2.0, 7.0)) for x, cfg in corpus().values()]
    x, cfg = stress()
    return cases + [(x, cfg.forms, (0.54, 1.8, 1.997, 6.0))]


def _assert_near_oracle(got, want):
    """got, a Jensen mean, and the midpoint oracle want are converged and
    within tol; returns the oracle's node count."""
    assert got.converged and want.converged
    assert abs(got.value - want.value) < QUAD_TOL
    return want.quadrature_nodes


class TestSingleRowOracles:
    """height_bar and proximity_hyperplane, closed forms by Jensen's formula
    and the First Main Theorem, against the midpoint integrand oracles."""

    def test_height_bar_matches_integrand_oracle(self):
        nodes = []
        for x, _, radii in _oracle_cases():
            family = [X for X in associated_family(x) if not X.is_zero()]
            for X in family + [p for p in x.coords if not p.is_zero()]:
                for r in radii:
                    nodes.append(_assert_near_oracle(
                        height_bar(X, r), _height_bar_oracle(X, r)))
        assert max(nodes) > 4096

    def test_proximity_hyperplane_matches_integrand_oracle(self):
        nodes = []
        for x, forms, radii in _oracle_cases():
            for form in forms:
                for r in radii:
                    nodes.append(_assert_near_oracle(
                        proximity_hyperplane(x, form, r),
                        _proximity_hyperplane_oracle(x, form, r)))
        assert max(nodes) > 4096

    def test_root_on_circle_matches_mpmath(self):
        # zeros of the coordinate z^2 + 1 and of the forms' L o x lie on
        # |z| = 1: the midpoint rule ran the second form's row to the node
        # cap, unconverged and 1.3e-6 off; the closed forms are exact
        import mpmath

        x, cfg = lift_config(("z - 2", "z^2 + 1"), ((1, 0), (0, 1), (1, 1)))

        def mp_mean(f):
            with mpmath.workdps(30):
                return float(mpmath.quad(
                    lambda t: f(mpmath.expj(t)),
                    mpmath.linspace(0, 2 * mpmath.pi, 9)) / (2 * mpmath.pi))

        def log_norm(z):
            return mpmath.log(abs(z - 2) ** 2 + abs(z ** 2 + 1) ** 2) / 2

        got = height_bar(associated(x, 1), 1.0)
        assert got.converged
        assert abs(got.value - mp_mean(log_norm)) < 1e-12
        for form in cfg.forms:
            a, b = (complex(c) for c in form)
            got = proximity_hyperplane(x, form, 1.0)
            want = mp_mean(lambda z: log_norm(z) - mpmath.log(
                abs(a * (z - 2) + b * (z ** 2 + 1))))
            assert got.converged
            assert abs(got.value - want) < 1e-12

    def test_no_midpoint_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("midpoint engine")

        monkeypatch.setattr(nevanlinna, "adaptive_midpoint", refuse)
        monkeypatch.setattr(nevanlinna, "Evaluator", refuse)
        x, cfg = stress()
        for r in (0.54, 1.997):
            height_bar(associated_family(x)[2], r)
            proximity_hyperplane(x, cfg.forms[1], r)
            height_T(x, 2, r)

    def test_hyperplane_containing_the_curve_is_refused(self):
        # L o x = (z - 2) - (z - 2) vanishes identically
        x = normalize([parse_poly(p) for p in ("1", "z - 2", "z - 2")])
        with pytest.raises(ValueError, match="curve lies in the hyperplane"):
            proximity_hyperplane(x, (ZERO, ONE, -ONE), 2.0)

    @pytest.mark.parametrize("kind", ["polynomial", "wedge"])
    def test_height_of_zero_is_refused(self, kind):
        # the constant lift (1, 1) has x' = 0, so X^2 = x ^ x' is zero
        X = GaussPoly.zero() if kind == "polynomial" else associated(
            normalize([parse_poly("1"), parse_poly("1")]), 2)
        with pytest.raises(ValueError, match=f"height of the zero {kind}"):
            height_bar(X, 2.0)

    def test_level_one_row_builds_no_derived_level(self, monkeypatch):
        x, cfg = stress()
        X2 = associated_family(x)[2]

        def refuse(lift):
            raise AssertionError("derived levels built")

        monkeypatch.setattr(nevanlinna, "associated_family", refuse)
        height_bar(X2, 2.0)
        proximity_hyperplane(x, cfg.forms[0], 2.0)
        Evaluator(x, cfg).radial([2.0], [lambda at: [at.hbar(1), at.cartan()]])
        with pytest.raises(AssertionError, match="derived levels built"):
            Evaluator(x, cfg).radial([2.0], [lambda at: [at.hbar(2)]])


def _thetas(count=512):
    return (np.arange(count) + 0.5) * 2 * np.pi / count


def _nodes(r, count=512):
    return r * np.exp(1j * _thetas(count))


class TestSelectorOracles:
    """Oracle checks of the per-form SelectorContext against per-tuple
    rebuilds of the same quantities."""

    @staticmethod
    def _coeffs(F):
        """The float image of a WedgeForm's exact Pluecker coordinates,
        one complex() per minor."""
        return np.array([complex(c) for c in F.pluecker_coords()],
                        dtype=complex)

    @classmethod
    def _per_tuple_minors(cls, n, cfg, d):
        return np.array([
            [cls._coeffs(WedgeForm(n, tuple(cfg.forms[t[i]]
                                            for i in ia.elements)))
             for ia in multi_indices(n, d)]
            for t in cfg.tuples
        ], dtype=complex)

    def test_minors_match_per_tuple_build(self):
        # oracle: one WedgeForm per (tuple, index set), as if nothing were
        # shared between tuples
        x, cfg = stress()
        ctx = SelectorContext.from_config(cfg)
        for d in range(1, x.n + 2):
            want = self._per_tuple_minors(x.n, cfg, d)
            assert np.array_equal(ctx.minors(d), want)

    @pytest.mark.parametrize("name", ["line", "conic", "ramified"])
    def test_corpus_minors_match_per_subset_wedge_form(self, name):
        # oracle: the WedgeForm of each form subset S = t[I_a], built on its
        # own; the levels are asked top down, so each lower level reads
        # minor layers that a higher one built
        x, cfg = corpus()[name]
        ctx = SelectorContext.from_config(cfg)
        for d in range(x.n + 1, 0, -1):
            got = ctx.minors(d)
            for t, row in zip(cfg.tuples, got):
                for ia, coeffs in zip(multi_indices(x.n, d), row):
                    S = [t[i] for i in ia.elements]
                    want = WedgeForm(x.n, [cfg.forms[j] for j in S])
                    assert np.array_equal(coeffs, self._coeffs(want))

    def test_minor_layers_built_once_per_form_subset(self, monkeypatch):
        # every form subset's minor layer is one next_layer step from its
        # prefix's, shared by all levels: 364 steps and 6,320 entry products
        # on stress_n4 over levels 1..5, where a table per subset from
        # scratch takes 23,745
        x, cfg = stress()
        steps = []
        step = nevanlinna.next_layer

        def counted(lower, row, k, ncols):
            steps.append(math.comb(ncols, k + 1) * (k + 1))
            return step(lower, row, k, ncols)

        monkeypatch.setattr(nevanlinna, "next_layer", counted)
        ctx = SelectorContext.from_config(cfg)
        for d in range(1, x.n + 2):
            ctx.minors(d)
        assert (len(steps), sum(steps)) == (364, 6320)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rational_minors_match_per_tuple_build(self, rng, n):
        # forms with denominators up to 7: each minor is divided by the
        # product of its rows' scales, bit for bit as the Fraction route
        cfg = rand_forms(rng, n, count=n + 3, span=7)
        ctx = SelectorContext(n, cfg.forms, cfg.tuples)
        for d in range(1, n + 2):
            assert np.array_equal(ctx.minors(d),
                                  self._per_tuple_minors(n, cfg, d))

    @staticmethod
    def _brute_select(forms, tuples, xv):
        """Oracle: per-tuple matmul scores, keeping the first maximum."""
        lognorm = 0.5 * np.log((np.abs(xv) ** 2).sum(axis=0))
        best = np.full(xv.shape[1], -np.inf)
        choice = np.zeros(xv.shape[1], dtype=int)
        for k, t in enumerate(tuples):
            mat = np.array([[complex(c) for c in forms[i]] for i in t])
            s = xv.shape[0] * lognorm - np.log(np.abs(mat @ xv)).sum(axis=0)
            better = s > best
            choice[better] = k
            best[better] = s[better]
        return choice, best

    @pytest.mark.parametrize("r", [0.54, 1.8, 6.0])
    def test_select_matches_brute_force(self, r):
        # form 6 negates form 5, so every tuple holding form 6 ties exactly
        # with its twin holding form 5 in the same position, which has the
        # lower index
        x, cfg = stress(STRESS_FORMS[:6] + ((-1, -1, -1, -1, -1),)
                         + STRESS_FORMS[6:])
        ctx = SelectorContext.from_config(cfg)
        xv = np.vstack([polyval(p, _nodes(r)) for p in x.coords])
        sel, smax = ctx.select(xv)
        want_sel, want_max = self._brute_select(cfg.forms, cfg.tuples, xv)
        assert np.array_equal(sel, want_sel)
        assert np.array_equal(smax, want_max)
        scores = _scores(ctx, xv)
        index = {t: k for k, t in enumerate(cfg.tuples)}
        twins = [(index[tuple(5 if i == 6 else i for i in t)], k)
                 for k, t in enumerate(cfg.tuples) if 6 in t]
        assert twins
        for lo, hi in twins:
            assert lo < hi and np.array_equal(scores[lo], scores[hi])
        chosen = [cfg.tuples[k] for k in sel]
        assert all(6 not in t for t in chosen)
        assert any(5 in t for t in chosen)

    @pytest.mark.parametrize("kind", ["circle", "twins", "vanishing",
                                      "nonfinite", "shuffled"])
    def test_select_is_argmax_of_scores(self, kind):
        # bit for bit: the selection is np.argmax of the oracle scores (the
        # first maximum, and the first NaN where there is one) and the max
        # is the selected score.  "vanishing" columns have entries in
        # {-1, 0, 1}, so forms vanish and many tuples tie at +inf;
        # "nonfinite" columns hold entries near the float limit (so norms
        # and some form values overflow), inf, nan or only zeros, so some
        # scores are NaN, and not always the first; "shuffled" lists the
        # twin tuples out of lexicographic order, so consecutive tuples
        # rarely share leading forms and an exact tie goes to the tuple
        # listed first
        rng = np.random.default_rng(7)
        if kind in ("twins", "shuffled"):
            x, cfg = stress(STRESS_FORMS[:6] + ((-1, -1, -1, -1, -1),)
                            + STRESS_FORMS[6:])
        else:
            x, cfg = stress()
        ctx = SelectorContext.from_config(cfg)
        if kind == "shuffled":
            order = rng.permutation(len(cfg.tuples))
            ctx = SelectorContext(cfg.n, cfg.forms,
                                  [cfg.tuples[k] for k in order])
        xv = np.vstack([polyval(p, _nodes(1.8, 64)) for p in x.coords])
        if kind == "vanishing":
            xv = rng.integers(-1, 2, size=(5, 200)) + 0j
        elif kind == "nonfinite":
            xv = rng.choice([1, -1, 2j, 0, 1e308, -1e308],
                            size=(5, 400)) + 0j
            xv[:, :3] = [0, np.inf, np.nan]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            scores = _scores(ctx, xv)
            sel, smax = ctx.select(xv)
        want = np.argmax(scores, axis=0)
        assert np.array_equal(sel, want)
        assert smax.tobytes() == scores[want, np.arange(len(want))].tobytes()
        if kind == "vanishing":
            top = scores == np.inf
            assert (top.sum(axis=0) > 1).any()
        if kind == "nonfinite":
            nan = np.isnan(scores)
            assert (nan.any(axis=0) & ~nan[0]).any()
            assert (~nan.any(axis=0) & np.isinf(scores).any(axis=0)).any()

    @pytest.mark.parametrize("r", [0.54, 1.8, 6.0])
    def test_mumax_matches_pointwise_mu(self, r):
        # oracle: the scalar mu at one point, maximised over the tuples
        x, cfg = stress()
        ctx = SelectorContext.from_config(cfg)
        z = _nodes(r, 8)
        xv = np.vstack([polyval(p, z) for p in x.coords])
        xpv = np.vstack([polyval(p.derivative(), z) for p in x.coords])
        got = ctx.mumax(xv, xpv)
        for k, zk in enumerate(z):
            want = max(mu(x, [cfg.forms[i] for i in t], zk) for t in cfg.tuples)
            assert got[k] == pytest.approx(want, abs=1e-12)


class TestRadialComponents:
    def test_config_of_another_dimension_is_refused(self):
        # the conic lives in P^2, the line's forms in P^1
        x, _ = corpus()["conic"]
        _, line_cfg = corpus()["line"]
        with pytest.raises(ValueError, match="dimension mismatch"):
            Evaluator(x, line_cfg)

    def test_heights_and_mumax_select_no_tuple(self, monkeypatch):
        x, cfg = corpus()["conic"]
        calls = []
        select = SelectorContext.select

        def counted(self, xvals):
            calls.append(xvals.shape[1])
            return select(self, xvals)

        monkeypatch.setattr(SelectorContext, "select", counted)
        ev = Evaluator(x, cfg)
        ev.radial([2.0], [lambda at: [at.hbar(1), at.hbar(2), at.mumax()]])
        assert calls == []
        ev.radial([2.0], [lambda at: [at.cartan(), at.m(1)]])
        assert calls


class TestSharedEvaluator:
    @staticmethod
    def _shared(text, tol=3e-5):
        return shared_evaluator(*build(parse_config(text)), tol)

    def test_one_evaluator_per_lift_configuration_and_tol(self):
        ev = self._shared(stress_ini())
        assert self._shared(stress_ini()) is ev
        # form 6 times -1, as the benchmark's sign twist writes it, prints
        # the same numbers from other form contents; form 9 changed prints
        # others
        twisted = STRESS_FORMS[:5] + ((-1, -1, -1, -1, -1),) + STRESS_FORMS[6:]
        changed = STRESS_FORMS[:8] + ((2, 0, 1, 0, 4),)
        others = [self._shared(stress_ini(), 1e-6),
                  self._shared(stress_ini(twisted)),
                  self._shared(stress_ini(changed))]
        assert len({id(e) for e in [ev, *others]}) == 4
        assert self._shared(stress_ini()) is ev
        assert Evaluator(*build(parse_config(stress_ini())), 3e-5) is not ev

    def test_keeps_the_most_recently_used(self):
        x, cfg = corpus()["conic"]
        first = shared_evaluator(x, cfg, 1e-6)
        built = []
        for k in range(2 * nevanlinna._SHARED):
            built.append(shared_evaluator(x, cfg, 1e-6 * 2.0 ** -(k + 1)))
            assert shared_evaluator(x, cfg, 1e-6) is first
            assert len(nevanlinna._shared) <= nevanlinna._SHARED
        kept = [any(ev is e for e in nevanlinna._shared.values())
                for ev in built]
        assert kept == ([False] * (nevanlinna._SHARED + 1)
                        + [True] * (nevanlinna._SHARED - 1))

    def test_one_reduced_norm_per_level(self):
        from nevlab.arcs import ClosedForm

        x, cfg = stress()
        ev = Evaluator(x, cfg, 3e-5)
        closed = ClosedForm(ev)
        for d in range(1, x.n + 2):
            assert closed.norm(("w", d))[0] is ev.norm(d)


class TestNodeBatch:
    @pytest.mark.parametrize("r", [0.54, 6.0])
    def test_hbarpair_matches_gather(self, r):
        # oracle: every 2 x 2 Pluecker coordinate of y wedge y' gathered at
        # once, then one log norm
        x, cfg = stress()
        ev = Evaluator(x, cfg)
        for d in range(1, x.n + 1):
            at = NodeBatch(ev, r, _thetas())
            G, H = at.wedge(d), at.partner(d)
            ai, bi = np.triu_indices(len(G), 1)
            v = G[ai] * H[bi] - G[bi] * H[ai]
            want = 0.5 * np.log((np.abs(v) ** 2).sum(axis=0))
            assert np.array_equal(at.hbarpair(d), want)

    def test_hbarpair_single_coordinate_is_minus_inf(self):
        # X^{n+1} has one Pluecker coordinate, so y wedge y' has none
        x, cfg = stress()
        at = NodeBatch(Evaluator(x, cfg), 1.8, _thetas())
        with np.errstate(divide="ignore"):
            got = at.hbarpair(x.n + 1)
        assert np.all(got == -np.inf)

    def test_selection_is_narrowest_tuple_index(self):
        # select gives, and a batch keeps, the tuple index in the narrowest
        # unsigned type that holds every tuple's: a byte for stress's 111
        # tuples, two for the 276 pairs of 24 forms on a line, where it
        # reaches 275 near theta = pi at r = 1/22.5; the level-1 maximum is
        # select's sum
        for (x, cfg), r, dtype in ((stress(), 1.8, np.uint8),
                                   (lift_config(("1", "z"), [
                                       (1, k) for k in range(24)]),
                                    1 / 22.5, np.uint16)):
            at = NodeBatch(Evaluator(x, cfg), r, _thetas())
            sel, best = at.ev.ctx.select(at.wedge(1))
            assert at.selection.dtype == dtype
            assert np.array_equal(at.selection, sel)
            assert at.cartan().tobytes() == best.tobytes()
        assert len(cfg.tuples) == 276 and sel.max() == 275

    def test_batch_ahead_learns_which_rows_ask_for_mumax(self):
        # the batch ahead sets deep while a rows function reads mumax and
        # clears it before the next, so each rows function's flag is its own
        # in any order, and a mumax read does not change another's values
        x, cfg = corpus()["conic"]
        ev = Evaluator(x, cfg)
        theta = _thetas()
        r = np.full(len(theta), 1.8)
        plain, deep = (lambda at: [at.m(1)]), (lambda at: [at.mumax()])
        [alone], _ = ev._evaluate(r, theta, [plain])
        for each in ([plain, deep, plain], [deep, plain]):
            values, got = ev._evaluate(r, theta, each)
            assert got == [rows is deep for rows in each]
            assert all(v.tobytes() == alone.tobytes()
                       for rows, v in zip(each, values) if rows is plain)

    def test_single_row_radial_keeps_no_batch(self, monkeypatch):
        x, cfg = corpus()["conic"]
        seen = []

        def rows(at):
            gc.collect()
            assert all(ref() is None for ref in seen)
            seen.append(weakref.ref(at))
            return [at.m(1), at.hbar(2)]

        Evaluator(x, cfg).radial([3.0], [rows])
        gc.collect()
        assert seen and all(ref() is None for ref in seen)

        # prop62's four level rows on stress at r = 0.54, run to 8,192,
        # 8,192, 32,768 and 32,768 nodes: once the quadrature has a leaf's
        # rows, no batch is alive, the one evaluated ahead included
        x, cfg = stress()
        full_cap(monkeypatch)
        quadrature = nevanlinna.adaptive_midpoint
        seen, leaves = [], []

        def checked(g, tol, cap):
            def leaf(theta):
                vals = g(theta)
                gc.collect()
                assert all(ref() is None for ref in seen)
                leaves.append(len(theta))
                return vals
            return quadrature(leaf, tol, cap)

        def level(d, pos):
            def rows(at):
                seen.append(weakref.ref(at))
                return [at.m(d - 1), at.m(d), at.m(d + 1), at.hbar(d - 1),
                        at.hbar(d), at.hbar(d + 1), at.pairlam(d, pos),
                        at.hbarpair(d)]
            return rows

        monkeypatch.setattr(nevanlinna, "adaptive_midpoint", checked)
        each = [level(d, distance_one_collection(x.n, d).positions())
                for d in range(1, x.n + 1)]
        [got] = Evaluator(x, cfg, 3e-5).radial([0.54], each)
        assert [n for _, _, n in got] == [8192, 8192, 32768, 32768]
        # the batch ahead serves all four rows functions, and each leaf of a
        # later grid is a batch of its own
        assert len(seen) == 4 + len(leaves) - 4 * 2

    def test_radials_share_batches_of_one_radius(self, monkeypatch):
        # the rows functions of a radius share the batch of its first two
        # grids, and each later leaf is a batch of one rows function: one
        # selection per batch, one m(d) per batch and level, and level 2's
        # row is the one a radial of it alone gives, bit for bit
        x, cfg = stress()
        full_cap(monkeypatch)
        calls, means = [], []
        select = SelectorContext.select
        level_mean = SelectorContext.level_lambda_mean

        def counted(self, xvals):
            calls.append(xvals.shape[1])
            return select(self, xvals)

        def counted_mean(self, *args, **kwargs):
            means.append([np.shape(a) for a in args])
            return level_mean(self, *args, **kwargs)

        read = {1: [], 2: []}

        def components(d, at):
            return [at.m(d), at.m(d + 1), at.hbar(d)]

        def level(d):
            def rows(at):
                read[d].append(at)
                return components(d, at)
            return rows

        monkeypatch.setattr(SelectorContext, "select", counted)
        monkeypatch.setattr(SelectorContext, "level_lambda_mean", counted_mean)
        [shared] = Evaluator(x, cfg).radial([1.8], [level(1), level(2)])
        batches = {id(at) for at in read[1] + read[2]}
        assert read[1][0] is read[2][0] and len(read[2]) > 1
        assert len(batches) == len(read[1]) + len(read[2]) - 1
        assert len(calls) == len(batches)
        assert len(means) == len({(d, id(at)) for e in (1, 2)
                                  for at in read[e] for d in (e, e + 1)})
        [[alone]] = Evaluator(x, cfg).radial(
            [1.8], [lambda at: components(2, at)])
        (v, c, n), (w, e, m) = shared[1], alone
        assert v.tobytes() == w.tobytes()
        assert np.array_equal(c, e) and n == m

    @staticmethod
    def _per_radius(ev, radii, each):
        """Oracle for Evaluator.radial: one adaptive_midpoint per radius and
        rows function, each integrand call on one fresh NodeBatch of all its
        nodes, so no grid is evaluated ahead and no batch is shared."""
        def g(r, rows):
            def on_nodes(theta):
                with np.errstate(divide="ignore", invalid="ignore",
                                 over="ignore"):
                    return rows(NodeBatch(ev, r, theta))
            return on_nodes

        return [[adaptive_midpoint(g(r, rows), tol=ev.tol) for rows in each]
                for r in radii]

    def _assert_matches_per_radius(self, x, cfg, radii, each, tol=QUAD_TOL):
        got = Evaluator(x, cfg, tol).radial(radii, each)
        want = self._per_radius(Evaluator(x, cfg, tol), radii, each)
        assert len(got) == len(want) == len(radii)
        for at_r, want_r in zip(got, want):
            assert len(at_r) == len(want_r) == len(each)
            for (v, c, n), (w, e, m) in zip(at_r, want_r):
                assert v.tobytes() == w.tobytes()
                assert np.array_equal(c, e) and n == m
        return got

    def test_batched_first_grids_match_per_radius(self, monkeypatch):
        # the first two grids of every radius are evaluated ahead, a group
        # of radii per batch; values, flags and node counts are bit-equal to
        # a quadrature per radius and rows function
        x, cfg = stress()
        full_cap(monkeypatch)
        levels = range(1, x.n + 2)
        sweep = [lambda at: [at.hbar(d) for d in levels]
                 + [at.m(d) for d in levels] + [at.cartan()]]
        prop62 = [
            lambda at, d=d, pos=distance_one_collection(x.n, d).positions():
            [at.m(d - 1), at.m(d), at.m(d + 1), at.hbar(d - 1), at.hbar(d),
             at.hbar(d + 1), at.pairlam(d, pos), at.hbarpair(d)]
            for d in range(1, x.n + 1)]
        radii = (0.54, 1.8, 6.0)
        self._assert_matches_per_radius(x, cfg, radii, sweep, 3e-5)
        self._assert_matches_per_radius(x, cfg, radii, prop62, 3e-5)

        # the twisted cubic's grid of ten radii makes five groups of two
        x, cfg = corpus()["conic"]
        radii = np.logspace(math.log10(2), 2, 10)
        got = self._assert_matches_per_radius(
            x, cfg, radii, [lambda at: [at.hbar(1), at.hbar(2), at.mumax()]])
        assert all(c.all() for ((_, c, _),) in got)

        # |X^2| overflows at r = 53: that radius's midpoint rule stops after
        # its first grid, and its second, evaluated ahead in the group of
        # r = 2, is dropped; the row then takes the closed-form means, which
        # are finite and converged there
        x, cfg = lift_config(("1", "z^40", "z^80 + 1"),
                             ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
        rows = [lambda at: [at.hbar(d) for d in range(1, x.n + 2)]]
        midpoint = []

        def recorded(g, tol, cap):
            midpoint.append(adaptive_midpoint(g, tol))
            return midpoint[-1]

        monkeypatch.setattr(nevanlinna, "adaptive_midpoint", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = Evaluator(x, cfg).radial((2.0, 53.0), rows)
        want = self._per_radius(Evaluator(x, cfg), (2.0, 53.0), rows)
        assert len(midpoint) == 2
        for (v, c, n), [(w, e, m)] in zip(midpoint, want):
            assert v.tobytes() == w.tobytes()
            assert np.array_equal(c, e) and n == m
        assert [n for _, _, n in midpoint] == [2 * QUAD_INITIAL_NODES,
                                               QUAD_INITIAL_NODES]
        assert midpoint[0][1].all() and not midpoint[1][1].all()
        assert got[0][0] is midpoint[0]
        (v, c, n), = got[1]
        assert np.isfinite(v).all() and c.all() and n == QUAD_INITIAL_NODES

    @pytest.mark.parametrize("r", [0.54, 6.0])
    def test_chunk_size_does_not_change_results(self, r, monkeypatch):
        # values, flags and node counts are bit-equal at any leaf size (a
        # chunk of 64 gives leaves of 128 nodes, one of 1000 leaves of 512).
        # At r = 0.54 the rows run to 8,192 nodes, two default leaves; at
        # r = 6 to 512.
        x, cfg = stress()
        full_cap(monkeypatch)
        positions = distance_one_collection(x.n, 1).positions()

        def run():
            ev = Evaluator(x, cfg, 3e-5)
            levels = [lambda at: [at.m(1), at.m(2), at.hbar(2)],
                      lambda at: [at.m(2), at.m(3), at.hbar(3)]]
            return [
                *ev.radial([r], [lambda at: [at.cartan(), at.m(1), at.hbar(1),
                                             at.pairlam(1, positions),
                                             at.hbarpair(1)]])[0],
                *ev.radial([r], [lambda at: [at.mumax()]])[0],
                *ev.radial([r], levels)[0],
                # two radii, one group
                *(res for at_r in ev.radial([r, 2 * r],
                                            [lambda at: [at.m(1), at.hbar(2)],
                                             lambda at: [at.cartan()]])
                  for res in at_r),
            ]

        want = run()
        assert max(n for _, _, n in want) == (8192 if r < 1 else 512)
        for chunk in (64, 1000):
            monkeypatch.setattr(nevanlinna, "_NODE_CHUNK", chunk)
            for (v, c, n), (w, e, m) in zip(run(), want):
                assert v.tobytes() == w.tobytes()
                assert np.array_equal(c, e) and n == m

    def test_chunked_radial_memory_is_bounded(self, monkeypatch):
        # m(4) on stress at r = 0.54 runs to 32,768 nodes.  Chunked, the
        # traced peak stays below 4 MiB (about 2.2 MiB); as one chunk of
        # all nodes it goes over (about 12.9 MiB).
        x, cfg = stress()
        full_cap(monkeypatch)
        bound = 4 * 2 ** 20

        def traced_peak():
            tracemalloc.start()
            try:
                [[(_, _, nodes)]] = Evaluator(x, cfg, 3e-5).radial(
                    [0.54], [lambda at: [at.m(4)]])
                return nodes, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        nodes, chunked = traced_peak()
        assert nodes == 32768 and chunked < bound
        monkeypatch.setattr(nevanlinna, "_NODE_CHUNK", nodes)
        assert traced_peak()[1] > bound

    def test_level_rows_memory_is_bounded(self, monkeypatch):
        # prop62's four level rows on stress at r = 0.54 run to 8,192, 8,192,
        # 32,768 and 32,768 nodes.  Summed leaf by leaf, each leaf a batch
        # of its own holding one level's work arrays at a time, the traced
        # peak stays below 7.5 MiB (about 4.75 MiB).  With the leaf widened
        # to the whole grid it goes over (about 30.7 MiB).
        x, cfg = stress()
        full_cap(monkeypatch)
        bound = 7.5 * 2 ** 20
        each = [
            lambda at, d=d, pos=distance_one_collection(x.n, d).positions():
            [at.m(d - 1), at.m(d), at.m(d + 1), at.hbar(d - 1), at.hbar(d),
             at.hbar(d + 1), at.pairlam(d, pos), at.hbarpair(d)]
            for d in range(1, x.n + 1)]

        def traced_peak():
            tracemalloc.start()
            try:
                [levels] = Evaluator(x, cfg, 3e-5).radial([0.54], each)
                return ([n for _, _, n in levels],
                        tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        nodes, leaves = traced_peak()
        assert nodes == [8192, 8192, 32768, 32768] and leaves < bound
        monkeypatch.setattr(nevanlinna, "adaptive_midpoint",
                            lambda g, tol, cap: _whole_grid_midpoint(g, tol))
        assert traced_peak()[1] > bound

    @pytest.mark.parametrize("r", [0.54, 1.8, 6.0])
    def test_prop62_level_rows_agree_on_each_m(self, r):
        # one value per integral: prop62's level rows read m(d) as m(d+1),
        # m(d) and m(d-1) of up to three rows, each flagged within tol of
        # the one integral, so any two agree within 2 tol.  The midpoint
        # rule alone gave m_3 at r = 0.54 3.0 tol apart in rows 2 and 3.
        x, cfg = stress()
        tol = 3e-5
        each = [
            lambda at, d=d, pos=distance_one_collection(x.n, d).positions():
            [at.m(d - 1), at.m(d), at.m(d + 1), at.hbar(d - 1), at.hbar(d),
             at.hbar(d + 1), at.pairlam(d, pos), at.hbarpair(d)]
            for d in range(1, x.n + 1)]
        [levels] = Evaluator(x, cfg, tol).radial([r], each)
        seen = {}
        for d, (vals, conv, _) in enumerate(levels, 1):
            assert conv.all()
            for e, v in zip((d - 1, d, d + 1), vals[:3]):
                seen.setdefault(e, []).append(v)
        spread = {e: max(v) - min(v) for e, v in seen.items() if len(v) > 1}
        assert sorted(spread) == [1, 2, 3, 4]
        assert max(spread.values()) <= 2 * tol


def _masked_level_mean(ctx, d, G, sel):
    """Oracle for NodeBatch.m: the per-tuple masked loop, one product per
    distinct selected tuple on its nodes gathered by a boolean mask."""
    minors, lognorm = ctx.minors(d), nevanlinna._log_norm(G)
    out = np.empty(G.shape[1])
    for t in np.unique(sel):
        mask = sel == t
        lv = minors[t] @ G[:, mask]
        out[mask] = lognorm[mask] - np.log(np.abs(lv)).mean(axis=0)
    return out


def _masked_pair_mean(ctx, d, G, H, lognorm, sel, positions):
    """Oracle for NodeBatch.pairlam: the per-tuple masked loop."""
    minors = ctx.minors(d)
    out = np.empty(G.shape[1])
    for t in np.unique(sel):
        mask = sel == t
        A, B = minors[t] @ G[:, mask], minors[t] @ H[:, mask]
        acc = np.zeros(mask.sum())
        for i, j in positions:
            acc += np.log(np.abs(A[i] * B[j] - A[j] * B[i]))
        out[mask] = lognorm[mask] - acc / len(positions)
    return out


def _runs(sel):
    """(runs of equal selection, most runs of one tuple)."""
    starts = np.flatnonzero(np.diff(sel)) + 1
    heads = sel[np.concatenate([[0], starts])]
    return len(heads), np.bincount(heads).max()


class TestTupleValues:
    """m(d) and pairlam(d) read one product per run of equal selection (a
    tuple with several runs gathers them into one) against the per-tuple
    masked loop, bit for bit."""

    FIRST = np.concatenate([_thetas(QUAD_INITIAL_NODES),
                            _thetas(2 * QUAD_INITIAL_NODES)])

    @staticmethod
    def _case(name):
        """(lift, config, radius, theta): the first two grids of a radius
        in one batch, as Evaluator.radial evaluates them ahead, or a
        shuffled grid."""
        if name.startswith("huge_radius"):
            x, cfg = lift_config(("1", "z^40", "z^80 + 1"),
                                 ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
            return x, cfg, float(name.split()[1]), TestTupleValues.FIRST
        if name == "root_on_circle":
            x, cfg = lift_config(("z - 2", "z^2 + 1"),
                                 ((1, 0), (0, 1), (1, 1)))
            return x, cfg, 1.0, TestTupleValues.FIRST
        x, cfg = stress()
        if name == "shuffled":
            rng = np.random.default_rng(3)
            return x, cfg, 1.8, rng.permutation(_thetas(512))
        return x, cfg, float(name.split()[1]), TestTupleValues.FIRST

    @pytest.mark.parametrize("name", ["stress 0.54", "stress 1.8", "stress 6",
                                      "huge_radius 53", "huge_radius 1e4",
                                      "root_on_circle", "shuffled"])
    def test_means_match_masked_loop(self, name):
        x, cfg, r, theta = self._case(name)
        ev = Evaluator(x, cfg)
        at = NodeBatch(ev, r, theta)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sel, best = at.selection, at.cartan()
            for d in range(1, x.n + 2):
                want = _masked_level_mean(ev.ctx, d, at.wedge(d), sel)
                assert at.m(d).tobytes() == want.tobytes()
            for d in range(1, x.n + 1):
                positions = distance_one_collection(x.n, d).positions()
                want = _masked_pair_mean(ev.ctx, d, at.wedge(d),
                                         at.partner(d), at.hbarpair(d), sel,
                                         positions)
                assert at.pairlam(d, positions).tobytes() == want.tobytes()
        runs, most = _runs(sel)
        if name == "huge_radius 53":
            # |X^2| and |X^3| overflow
            assert not np.isfinite(at.m(2)).any()
        elif name == "huge_radius 1e4":
            # so does X^1: every level-1 sum is NaN, and so is every m(d)
            assert np.isnan(best).all() and np.isnan(at.m(1)).all()
        elif name == "shuffled":
            assert runs > 300 and most > 100
        else:
            # a tuple selected in several runs gathers them
            assert most > 1

    def test_batch_holds_one_levels_work_arrays(self):
        # a work array of level 3 drops every work array of level 2 (X^2,
        # (X^2)', the tuple values of each and the pair log norm); z and the
        # results, the selection, the level-1 maximum, |X^2| and m(2), stay
        x, cfg = stress()
        at = NodeBatch(Evaluator(x, cfg), 1.8, self.FIRST)
        positions = distance_one_collection(x.n, 2).positions()
        at.m(2), at.pairlam(2, positions)
        work = {"w", "p", "tuple", "hbarpair"}
        kept = {k: v for k, v in at._cache.items() if k[0] not in work}
        assert {k for k in at._cache if k[0] in work} == {
            ("w", 2), ("p", 2), ("tuple", "w", 2), ("tuple", "p", 2),
            ("hbarpair", 2)}
        assert set(kept) == {("z",), ("selection",), ("cartan",), ("hbar", 2),
                             ("m", 2)}
        at.m(3)
        assert {k for k in at._cache if k[0] in work} == {
            ("w", 3), ("tuple", "w", 3)}
        assert all(at._cache[k] is v for k, v in kept.items())


class TestEvalStack:
    @pytest.mark.parametrize("r", [0.5, 53.0, 1e4])
    def test_rows_match_polyval(self, r):
        # oracle: np.polynomial.polynomial.polyval per row.  The degree-80
        # coordinates reach 1e138 at r = 53 and overflow at r = 1e4, where
        # inf and nan values must match too
        x = normalize([parse_poly(p) for p in ("1", "z^40", "z^80 + 1")])
        polys = [GaussPoly.zero(), parse_poly("3 - 2i"), parse_poly("i")]
        polys += list(x.coords) + [p.derivative() for p in x.coords]
        arrays = [p.complex_coeffs() for p in polys]
        z = _nodes(r)
        with np.errstate(over="ignore", invalid="ignore"):
            got = nevanlinna._eval_stack(arrays, z)
            for row, a in zip(got, arrays):
                want = np.polynomial.polynomial.polyval(z, a)
                assert row.tobytes() == want.tobytes()
        assert np.isfinite(got).all() == (r < 1e3)


class TestMu:
    def test_line_standard_forms(self):
        x = monomial_lift(0, 1)
        forms = [(ONE, ZERO), (ZERO, ONE)]
        assert mu(x, forms, 2.0) == pytest.approx(math.log(2), abs=1e-12)
        assert mu(x, forms, 0.5) == pytest.approx(math.log(2), abs=1e-12)

    def test_nonnegative_off_divisor(self, rng):
        x = monomial_lift(0, 1, 2)
        forms = [(ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)]
        for _ in range(25):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) < 1e-3:
                continue
            v = mu(x, forms, z)
            assert v >= -1e-12

    def test_infinite_on_divisor(self):
        x = monomial_lift(0, 1)
        forms = [(ONE, ZERO), (ZERO, ONE)]
        # z = 0 lies on the hyperplane of the second form
        assert mu(x, forms, 0.0) == math.inf


class TestLogDerivComparison:
    def test_inequality_holds_pointwise(self, rng):
        x = monomial_lift(0, 1, 2)
        forms = [(ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)]
        checked = 0
        for _ in range(40):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) < 1e-2:
                continue
            lhs, rhs = pointwise_logderiv_check(x, forms, z)
            assert lhs <= rhs + 1e-10
            checked += 1
        assert checked > 20


def _chart_sums_oracle(y, yd):
    """Oracle for the chart sums of one tuple, the per-tuple arithmetic that
    SelectorContext.mumax and mu used before the per-form-pair rows: in the
    chart of the maximum-modulus coordinate y_k0, sum |w_i'|^2 and sum
    |w_i'/w_i|^2 for w_i = y_i / y_k0, nan where some y_i vanishes."""
    k0 = np.argmax(np.abs(y), axis=0)[None, :]
    y0 = np.take_along_axis(y, k0, axis=0)
    y0d = np.take_along_axis(yd, k0, axis=0)
    wp = yd * y0
    wp -= y * y0d
    wp /= y0 ** 2
    num = (np.abs(wp) ** 2).sum(axis=0)
    w = y / y0
    w[y == 0] = np.nan
    wp /= w
    den = (np.abs(wp) ** 2).sum(axis=0)
    return num, den


def _mumax_oracle(ctx, xv, xpv):
    """Oracle for SelectorContext.mumax: the per-tuple loop over
    _chart_sums_oracle."""
    y, yd = ctx.form_mat @ xv, ctx.form_mat @ xpv
    best = np.full(xv.shape[1], -np.inf)
    for t in ctx.tuple_index:
        num, den = _chart_sums_oracle(y[t], yd[t])
        best = np.fmax(best, -0.5 * np.log(num / den))
    return best


def _mu_oracle(x, tuple_forms, z):
    """Oracle for mu: _chart_sums_oracle at the single point z."""
    zs, stack = np.array([complex(z)]), nevanlinna._eval_stack
    mat = nevanlinna._form_matrix(tuple_forms)
    y = mat @ stack([p.complex_coeffs() for p in x.coords], zs)
    yd = mat @ stack([p.derivative().complex_coeffs() for p in x.coords], zs)
    with np.errstate(divide="ignore", invalid="ignore"):
        num, den = _chart_sums_oracle(y, yd)
    if num[0] == 0.0:
        return -math.inf
    if math.isnan(den[0]):
        return math.inf
    return -0.5 * math.log(num[0] / den[0])


class TestMumaxOracle:
    """SelectorContext.mumax and mu against the per-tuple loop, bit for
    bit."""

    @staticmethod
    def _check(x, cfg, z):
        ctx = SelectorContext.from_config(cfg)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xv = np.vstack([polyval(p, z) for p in x.coords])
            xpv = np.vstack([polyval(p.derivative(), z) for p in x.coords])
            got, want = ctx.mumax(xv, xpv), _mumax_oracle(ctx, xv, xpv)
        assert got.tobytes() == want.tobytes()
        return ctx, ctx.form_mat @ xv, ctx.form_mat @ xpv

    @pytest.mark.parametrize("r", [0.54, 1.8, 6.0])
    @pytest.mark.parametrize("count", [1, 7, 768])
    def test_stress(self, r, count):
        x, cfg = stress()
        self._check(x, cfg, _nodes(r, count))

    @pytest.mark.parametrize("r", [1.0, 53.0, 1e4])
    def test_huge_radius(self, r):
        # z^80 dominates: the other chart terms are so small that the
        # rounding residue of w_k' in the chart's own row decides the sum,
        # and at r = 1e4 the values overflow
        x, cfg = lift_config(("1", "z^40", "z^80 + 1"),
                             ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
        self._check(x, cfg, _nodes(r, 64))

    def test_root_on_circle_node_on_a_divisor(self):
        # z^2 + 1 vanishes exactly at z = i and z = -i: those nodes lie on
        # the divisor of every tuple with the second form
        x, cfg = lift_config(("z - 2", "z^2 + 1"), ((1, 0), (0, 1), (1, 1)))
        z = np.concatenate([_nodes(1.0, 256), [1j, -1j]])
        ctx, y, yd = self._check(x, cfg, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, den = _chart_sums_oracle(y[[0, 1]], yd[[0, 1]])
        assert np.isnan(den[-2:]).all() and not np.isnan(den[:-2]).any()

    def test_ties_take_the_lowest_chart(self):
        # one tuple, the coordinate forms, at values whose largest moduli
        # tie: the chart is the lowest tied form, and another chart gives
        # other bits
        _, cfg = lift_config(("1", "z", "z^2"),
                             ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        ctx = SelectorContext.from_config(cfg)
        xv = np.array([[1, 1j, 0.5], [1, -1, 0.25 + 0.25j], [2, 2j, -2],
                       [0.5, 3, -3j]]).T
        xpv = np.array([[0.3, -1.7j, 2.1], [1.1 + 0.4j, 0.2, -0.9],
                        [0.7, 0.1j, 1.3], [-2, 0.6, 0.35j]]).T
        got = ctx.mumax(xv, xpv)
        assert got.tobytes() == _mumax_oracle(ctx, xv, xpv).tobytes()
        y, yd = ctx.form_mat @ xv, ctx.form_mat @ xpv
        last = (-0.5 * np.log(np.divide(
            *_chart_sums_oracle(y[::-1], yd[::-1]))))
        assert (got != last).any()

    def test_mu_at_points(self, rng):
        x, cfg = stress()
        points = [0.3, 1.8j, -6.0, 2.0,
                  complex(rng.uniform(-3, 3), rng.uniform(-3, 3))]
        for z in points:
            for t in cfg.tuples[::7]:
                forms = [cfg.forms[i] for i in t]
                got, want = mu(x, forms, z), _mu_oracle(x, forms, z)
                assert got == want or math.isnan(got) and math.isnan(want)
        # on a divisor (+inf), and where every chart derivative vanishes
        # (-inf): w = z^2 has w' = 0 at z = 0
        forms = [(ONE, ZERO), (ZERO, ONE)]
        for lift, want in ((monomial_lift(0, 1), math.inf),
                           (monomial_lift(0, 2), -math.inf)):
            assert mu(lift, forms, 0.0) == _mu_oracle(lift, forms, 0.0) == want
