import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from nevlab import nevanlinna
from nevlab.curve import associated, associated_family
from nevlab.exterior import WedgeForm, multi_indices
from nevlab.gauss import (GR_I, GR_ONE, GR_ZERO, Divisor, GaussPoly,
                          parse_poly, roots)
from nevlab.harness import distance_one_collection
from nevlab.nevanlinna import (
    QUAD_INITIAL_NODES,
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
    weil,
)

from conftest import STRESS_FORMS, corpus, monomial_lift, rand_forms, stress


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
        # T_1 reads x itself, and N_1 = 0 for a primitive lift, so T_1 is
        # the mean of log|x|; 3.5245421960701138 is T_1 read through the
        # full derived family
        x, _ = stress()

        def refuse(lift):
            raise AssertionError("derived levels built")

        monkeypatch.setattr(nevanlinna, "associated_family", refuse)
        t1 = height_T(x, 1, 2.0)
        assert t1 == height_bar(associated(x, 1), 2.0).value
        assert t1 == pytest.approx(3.5245421960701138, rel=1e-14)


class TestWeil:
    def test_positive_away_from_hyperplane(self):
        F = WedgeForm(1, ((ONE, ZERO),))
        # v = (1, 3): |F(v)|/|v| < 1 so the Weil function is positive
        assert weil(F, [1, 3]) > 0

    def test_infinite_on_hyperplane(self):
        F = WedgeForm(1, ((ONE, ZERO),))
        assert weil(F, [0, 1]) == math.inf

    def test_scaling_invariance(self):
        F = WedgeForm(1, ((ONE, GR_I),))
        v = np.array([1 + 2j, 0.5 - 1j])
        assert weil(F, v) == pytest.approx(weil(F, 10 * v), abs=1e-12)


class TestProximity:
    def setup_method(self):
        self.x, self.cfg = corpus()["conic"]
        self.ctx = SelectorContext.from_config(self.cfg)

    def test_level_zero(self):
        rv = proximity_m(self.x, 0, self.cfg, 3.0)
        assert rv.value == 0.0 and rv.converged

    def test_nonnegative_up_to_quadrature(self):
        for d in (1, 2, 3):
            rv = proximity_m(self.x, d, self.ctx, 4.0)
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
        xv = np.vstack([p.eval_many(z) for p in self.x.coords])
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
    second form, so those integrals need 8192 nodes, two node chunks."""
    cases = [(x, cfg.forms, (0.5, 2.0, 7.0)) for x, cfg in corpus().values()]
    x, cfg = stress()
    return cases + [(x, cfg.forms, (0.54, 1.8, 1.997, 6.0))]


class TestSingleRowOracles:
    def test_height_bar_matches_integrand_oracle(self):
        nodes = []
        for x, _, radii in _oracle_cases():
            family = [X for X in associated_family(x) if not X.is_zero()]
            for X in family + [p for p in x.coords if not p.is_zero()]:
                for r in radii:
                    got = height_bar(X, r)
                    assert got == _height_bar_oracle(X, r)
                    nodes.append(got.quadrature_nodes)
        assert max(nodes) > 4096

    def test_proximity_hyperplane_matches_integrand_oracle(self):
        nodes = []
        for x, forms, radii in _oracle_cases():
            for form in forms:
                for r in radii:
                    got = proximity_hyperplane(x, form, r)
                    assert got == _proximity_hyperplane_oracle(x, form, r)
                    nodes.append(got.quadrature_nodes)
        assert max(nodes) > 4096

    def test_level_one_row_builds_no_derived_level(self, monkeypatch):
        x, cfg = stress()
        X2 = associated_family(x)[2]

        def refuse(lift):
            raise AssertionError("derived levels built")

        monkeypatch.setattr(nevanlinna, "associated_family", refuse)
        height_bar(X2, 2.0)
        proximity_hyperplane(x, cfg.forms[0], 2.0)
        Evaluator(x, cfg).radial(2.0, lambda at: [at.hbar(1), at.cartan()])
        with pytest.raises(AssertionError, match="derived levels built"):
            Evaluator(x).radial(2.0, lambda at: [at.hbar(2)])


def _thetas(count=512):
    return (np.arange(count) + 0.5) * 2 * np.pi / count


def _nodes(r, count=512):
    return r * np.exp(1j * _thetas(count))


class TestSelectorOracles:
    """Oracle checks of the per-form SelectorContext against per-tuple
    rebuilds of the same quantities."""

    @staticmethod
    def _per_tuple_minors(n, cfg, d):
        return np.array([
            [WedgeForm(n, tuple(cfg.forms[t[i]] for i in ia.elements)
                       ).coeff_array() for ia in multi_indices(n, d)]
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
        xv = np.vstack([p.eval_many(_nodes(r)) for p in x.coords])
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
        xv = np.vstack([p.eval_many(_nodes(1.8, 64)) for p in x.coords])
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
        xv = np.vstack([p.eval_many(z) for p in x.coords])
        xpv = np.vstack([p.derivative().eval_many(z) for p in x.coords])
        got = ctx.mumax(xv, xpv)
        for k, zk in enumerate(z):
            want = max(mu(x, [cfg.forms[i] for i in t], zk) for t in cfg.tuples)
            assert got[k] == pytest.approx(want, abs=1e-12)


class TestRadialComponents:
    @pytest.mark.parametrize("row", [
        lambda at: [at.m(1)],
        lambda at: [at.cartan()],
        lambda at: [at.mumax()],
        lambda at: [at.pairlam(1, [(0, 1)])],
    ], ids=["m", "cartan", "mumax", "pairlam"])
    def test_selection_needs_config(self, row):
        x, _ = corpus()["conic"]
        with pytest.raises(ValueError, match="needs a hyperplane config"):
            Evaluator(x).radial(2.0, row)

    def test_heights_and_mumax_select_no_tuple(self, monkeypatch):
        x, cfg = corpus()["conic"]
        calls = []
        select = SelectorContext.select

        def counted(self, xvals):
            calls.append(xvals.shape[1])
            return select(self, xvals)

        monkeypatch.setattr(SelectorContext, "select", counted)
        ev = Evaluator(x, cfg)
        ev.radial(2.0, lambda at: [at.hbar(1), at.hbar(2), at.mumax()])
        assert calls == []
        ev.radial(2.0, lambda at: [at.cartan(), at.m(1)])
        assert calls


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

    def test_single_row_radial_keeps_no_batch(self):
        x, cfg = corpus()["conic"]
        seen = []

        def rows(at):
            gc.collect()
            assert all(ref() is None for ref in seen)
            seen.append(weakref.ref(at))
            return [at.m(1), at.hbar(2)]

        Evaluator(x, cfg).radial(3.0, rows)
        gc.collect()
        assert seen and all(ref() is None for ref in seen)

    def test_radials_share_batches_of_one_radius(self, monkeypatch):
        x, cfg = stress()
        calls, means = [], []
        select = SelectorContext.select
        level_mean = SelectorContext.level_lambda_mean

        def counted(self, xvals):
            calls.append(xvals.shape[1])
            return select(self, xvals)

        def counted_mean(self, d, wedge_vals, sel):
            means.append((d, wedge_vals.shape[1]))
            return level_mean(self, d, wedge_vals, sel)

        seen = {1: {}, 2: {}}
        reused = []

        def components(d, at):
            return [at.m(d), at.m(d + 1), at.hbar(d)]

        def level(d):
            def rows(at):
                key = at.z.tobytes()
                seen[d][key] = weakref.ref(at)
                if d == 2 and key in seen[1]:
                    assert seen[1][key]() is at
                    reused.append(len(at.z))
                return components(d, at)
            return rows

        monkeypatch.setattr(SelectorContext, "select", counted)
        monkeypatch.setattr(SelectorContext, "level_lambda_mean", counted_mean)
        shared = Evaluator(x, cfg).radials(1.8, [level(1), level(2)])
        # one selection per distinct batch and one m(d) per batch and level:
        # level 2 reuses level 1's batches, their selections and m(2)
        assert reused
        assert len(calls) == len(seen[1].keys() | seen[2].keys())
        assert len(means) == len({(d, k) for e in (1, 2) for k in seen[e]
                                  for d in (e, e + 1)})
        gc.collect()
        assert all(ref() is None for refs in seen.values()
                   for ref in refs.values())
        for d, (v, c, n) in zip((1, 2), shared):
            w, e, m = Evaluator(x, cfg).radial(
                1.8, lambda at: components(d, at))
            assert v.tobytes() == w.tobytes()
            assert np.array_equal(c, e) and n == m


    @pytest.mark.parametrize("r", [0.54, 6.0])
    def test_chunk_size_does_not_change_results(self, r, monkeypatch):
        # every per-node kernel sees one chunk of nodes at a time; values,
        # flags and node counts are bit-equal at any chunk size (1000 leaves
        # a ragged last chunk).  At r = 0.54 the rows run to 8,192 nodes,
        # two default chunks; at r = 6 to 512.
        x, cfg = stress()
        positions = distance_one_collection(x.n, 1).positions()

        def run():
            ev = Evaluator(x, cfg, 3e-5)
            return [
                ev.radial(r, lambda at: [at.cartan(), at.m(1), at.hbar(1),
                                         at.pairlam(1, positions),
                                         at.hbarpair(1)]),
                ev.radial(r, lambda at: [at.mumax()]),
                *ev.radials(r, [lambda at: [at.m(1), at.m(2), at.hbar(2)],
                                lambda at: [at.m(2), at.m(3), at.hbar(3)]]),
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
        bound = 4 * 2 ** 20

        def traced_peak():
            tracemalloc.start()
            try:
                _, _, nodes = Evaluator(x, cfg, 3e-5).radial(
                    0.54, lambda at: [at.m(4)])
                return nodes, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        nodes, chunked = traced_peak()
        assert nodes == 32768 and chunked < bound
        monkeypatch.setattr(nevanlinna, "_NODE_CHUNK", nodes)
        assert traced_peak()[1] > bound


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
