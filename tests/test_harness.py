import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from nevlab import nevanlinna
from nevlab.cli import build, parse_config
from nevlab.exterior import (balanced_check, distance_one_collection,
                             telescoping_identity)
from nevlab.gauss import GR_I, GR_ONE, GR_ZERO, GaussRational
from nevlab.harness import (
    Evaluator,
    full_sweep,
    general_position_tuples,
    mcquillan_monitor,
    verify_cartan,
    verify_height_growth,
    verify_lemma55,
    verify_prop62,
)
from nevlab.nevanlinna import (QUAD_INITIAL_NODES, QUAD_TOL, NodeBatch,
                               SelectorContext)

from conftest import corpus, full_cap, polyval, rand_rational, stress


ONE, ZERO = GR_ONE, GR_ZERO
CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


class TestGeneralPosition:
    def test_counts_invertible_triples(self):
        forms = [(ONE, ZERO), (ZERO, ONE), (ONE, ONE)]
        cfg = general_position_tuples(forms, 1)
        assert cfg.tuples == ((0, 1), (0, 2), (1, 2))

    def test_imaginary_determinants_count(self):
        # the rows (i, 0), (0, 1) and (i, 0), (1, 1) have determinant i
        cfg = general_position_tuples([(GR_I, ZERO), (ZERO, ONE), (ONE, ONE)],
                                      1)
        assert cfg.tuples == ((0, 1), (0, 2), (1, 2))

    def test_dependent_pair_excluded(self):
        two = GR_ONE + GR_ONE
        forms = [(ONE, ZERO), (two, ZERO), (ZERO, ONE)]
        cfg = general_position_tuples(forms, 1)
        assert (0, 1) not in cfg.tuples

    def test_common_zero_rejected(self):
        # both forms vanish at [0 : 1]
        two = GR_ONE + GR_ONE
        with pytest.raises(ValueError, match="common zero"):
            general_position_tuples([(ONE, ZERO), (two, ZERO)], 1)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            general_position_tuples([(ONE, ZERO, ZERO)], 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_per_subset_sympy_determinants(self, n):
        # oracle: one sympy determinant per (n+1)-subset, in lexicographic
        # subset order.  Planted singular subsets: form n+2 is a rational
        # combination of forms 0 and 1, form n+3 a multiple of form 2.
        rng = random.Random(n)
        forms = [tuple(rand_rational(rng) for _ in range(n + 1))
                 for _ in range(n + 2)]
        a = GaussRational(Fraction(3, 2), Fraction(-1, 3))
        b = GaussRational(Fraction(-5, 7), Fraction(2))
        forms.append(tuple(a * p + b * q for p, q in zip(forms[0], forms[1])))
        forms.append(tuple(b * p for p in forms[2]))

        def nonzero_det(t):
            mat = sympy.Matrix([[sympy.Rational(c.re) + sympy.Rational(c.im)
                                 * sympy.I for c in forms[i]] for i in t])
            return mat.det().expand() != 0

        subsets = list(itertools.combinations(range(len(forms)), n + 1))
        want = tuple(t for t in subsets if nonzero_det(t))
        assert general_position_tuples(forms, n).tuples == want
        assert not any({0, 1, n + 2} <= set(t) or {2, n + 3} <= set(t)
                       for t in want)


class TestBalanced:
    def test_brute_force_counts(self):
        coll = distance_one_collection(3, 2)
        res = balanced_check(coll.pairs)
        counts = {}
        for a, b in coll.pairs:
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
        assert res.balanced
        assert dict(res.counts) == counts

    def test_unbalanced_detected(self):
        res = balanced_check([(0, 1), (0, 2)])
        assert not res.balanced

    def test_empty(self):
        res = balanced_check([])
        assert res.empty and not res.balanced


class TestDistanceOne:
    @pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 7)
                                     for d in range(1, n + 1)])
    def test_equal_frequency(self, n, d):
        coll = distance_one_collection(n, d)
        res = balanced_check(coll.pairs)
        assert res.balanced
        # each size-d set has d choices to drop and n+1-d to add
        expected = d * (n + 1 - d)
        assert all(c == expected for _, c in res.counts)
        expected_pairs = math.comb(n + 1, d) * expected // 2
        assert len(coll.pairs) == expected_pairs


class TestTelescoping:
    def test_exact_on_fractions(self):
        a = [Fraction(3), Fraction(1, 2), Fraction(-7), Fraction(11, 3)]
        lhs, rhs = telescoping_identity(a)
        assert lhs == rhs

    @given(st.lists(st.fractions(min_value=-20, max_value=20,
                                 max_denominator=12),
                    min_size=2, max_size=10))
    @settings(max_examples=50)
    def test_exact_for_any_sequence(self, a):
        lhs, rhs = telescoping_identity(a)
        assert lhs == rhs

    def test_too_short(self):
        with pytest.raises(ValueError):
            telescoping_identity([Fraction(1)])


class TestEvaluatorConsistency:
    """Evaluator.radial against oracles that share no code with it."""

    def test_heights_match_closed_forms(self):
        # on the monomial conic |X^1|^2 = 1 + r^2 + r^4, X^2 = (1, 2z, z^2)
        # and X^3 = 2 have constant modulus on |z| = r
        x, cfg = corpus()["conic"]
        ev = Evaluator(x, cfg, tol=1e-8)
        for r in (0.5, 6.0):
            [[((h1, h2, h3), _, _)]] = ev.radial(
                [r], [lambda at: [at.hbar(1), at.hbar(2), at.hbar(3)]])
            assert h1 == pytest.approx(
                0.5 * math.log(1 + r ** 2 + r ** 4), abs=1e-12)
            assert h2 == pytest.approx(
                0.5 * math.log(1 + 4 * r ** 2 + r ** 4), abs=1e-12)
            assert h3 == pytest.approx(math.log(2), abs=1e-12)

    def test_level_one_proximity_matches_quad(self):
        # m_1 is the largest level-1 tuple Weil sum divided by n + 1
        x, cfg = corpus()["conic"]
        ev = Evaluator(x, cfg, tol=1e-8)
        forms = np.array([[complex(c) for c in f] for f in cfg.forms])

        def integrand(theta, r):
            z = r * np.exp(1j * theta)
            xv = np.array([1, z, z * z])
            lam = np.log(np.linalg.norm(xv)) - np.log(np.abs(forms @ xv))
            return max(lam[list(t)].sum() for t in cfg.tuples) / (x.n + 1)

        for r in (0.7, 6.0):
            [[((m1,), (converged,), _)]] = ev.radial(
                [r], [lambda at: [at.m(1)]])
            want, _ = quad(integrand, 0, 2 * math.pi, args=(r,), limit=200,
                           epsabs=1e-11)
            assert converged
            assert m1 == pytest.approx(want / (2 * math.pi), abs=1e-7)

    def test_dimension_mismatch_rejected(self):
        x, _ = corpus()["line"]
        _, cfg = corpus()["conic"]
        with pytest.raises(ValueError):
            Evaluator(x, cfg)


class TestVerifiers:
    def test_cartan_lhs_equals_tuple_sum(self):
        x, cfg = corpus()["line"]
        rep = verify_cartan(x, cfg, [3.0, 12.0])
        for row in rep.rows:
            assert row["converged"]
            assert row["lhs"] == pytest.approx(row["sum_check"], abs=1e-9)

    def test_cartan_radii_must_increase(self):
        x, cfg = corpus()["line"]
        with pytest.raises(ValueError):
            verify_cartan(x, cfg, [5.0, 2.0])

    def test_cartan_selects_once_per_group_and_later_grid(self,
                                                          monkeypatch):
        # the first two grids of two radii share one batch, so the ten
        # radii of the twisted cubic's grid make five selections there, plus
        # one per chunk of each later grid; a selection per radius and grid
        # would make at least 20
        cfg = parse_config(
            (CONFIGS / "twisted_cubic.ini").read_text(encoding="utf-8"))
        x, hp = build(cfg)
        radii = cfg.radii()
        calls, used = [], []
        select = SelectorContext.select
        quadrature = nevanlinna.adaptive_midpoint

        def counted(self, xvals):
            calls.append(xvals.shape[1])
            return select(self, xvals)

        def recorded(g, tol, cap):
            values, converged, nodes = quadrature(g, tol, cap)
            used.append(nodes)
            return values, converged, nodes

        monkeypatch.setattr(SelectorContext, "select", counted)
        monkeypatch.setattr(nevanlinna, "adaptive_midpoint", recorded)
        assert verify_cartan(x, hp, radii, tol=cfg.tol).all_converged()
        ahead = 3 * QUAD_INITIAL_NODES  # nodes of the first two grids
        group = nevanlinna._MIDPOINT_NODES // ahead
        later = 0
        for nodes in used:
            grid = 4 * QUAD_INITIAL_NODES
            while grid <= nodes:
                later += -(-grid // nevanlinna._NODE_CHUNK)
                grid *= 2
        assert len(radii) == len(used) == 10 and group == 2
        assert calls.count(group * ahead) == 5
        assert len(calls) == 5 + later < 2 * len(radii)

    def test_level_roots_serve_only_the_counting_columns(self, monkeypatch):
        # T_d is a Jensen height, so level-divisor roots serve N_W (d = n + 1)
        # and N_Ram (d = 2) alone, and mcquillan's midpoint rows evaluate x
        # and x' but no X^2
        x, cfg = corpus()["conic"]
        divisors, stacks = [], []
        level_divisor, stack = Evaluator.level_divisor, NodeBatch._stack

        def recorded_divisor(self, d):
            divisors.append(d)
            return level_divisor(self, d)

        def recorded_stack(self, key):
            stacks.append(key)
            return stack(self, key)

        monkeypatch.setattr(Evaluator, "level_divisor", recorded_divisor)
        monkeypatch.setattr(NodeBatch, "_stack", recorded_stack)
        for command, levels in ((full_sweep, {3, 2}), (verify_cartan, {3}),
                                (mcquillan_monitor, {2})):
            divisors.clear()
            stacks.clear()
            assert command(x, cfg, [0.5, 3.0]).all_converged()
            assert set(divisors) == levels, command.__name__
        assert set(stacks) == {("w", 1), ("p", 1)}  # mcquillan's

    def test_prop62_routes_agree(self):
        x, cfg = corpus()["conic"]
        for d in (1, 2):
            rep = verify_prop62(x, cfg, [d], [2.5, 9.0])
            for row in rep.rows:
                assert row["route_gap"] < 1e-9

    def test_prop62_levels_stack_single_level_rows(self):
        x, cfg = corpus()["conic"]
        radii = [2.5, 9.0]
        both = verify_prop62(x, cfg, [1, 2], radii)
        single = [verify_prop62(x, cfg, [d], radii) for d in (1, 2)]
        assert both.columns[0] == "d"
        assert all(s.columns == both.columns for s in single)
        assert both.rows == single[0].rows + single[1].rows
        assert both.to_csv().splitlines()[1:] == [
            line for s in single for line in s.to_csv().splitlines()[1:]]

    @pytest.mark.parametrize("r", [0.54, 1.8])
    def test_prop62_shared_batches_match_single_levels(self, r,
                                                      monkeypatch):
        # all levels of one radius share the batch of its first two grids;
        # each level alone shares none, and the stacked text must not
        # differ.  At the stress workload's tol the levels converge on
        # different node counts.  The
        # midpoint rule runs to QUAD_NODE_CAP: a radius that switches to the
        # closed form in one run of all levels may not switch in a run of
        # one level, whose own row converges.
        full_cap(monkeypatch)
        x, cfg = stress()
        both = verify_prop62(x, cfg, range(1, x.n + 1), [r], tol=3e-5)
        single = [verify_prop62(x, cfg, [d], [r], tol=3e-5)
                  for d in range(1, x.n + 1)]
        assert both.all_converged()
        assert both.to_csv() == single[0].to_csv() + "".join(
            s.to_csv().split("\n", 1)[1] for s in single[1:])

    def test_prop62_computes_each_work_array_as_often(self, monkeypatch):
        # evaluated as m(d - 1), m(d), pairlam(d) and hbarpair(d), then
        # m(d + 1), a level row computes no work array more often with one
        # level's at a time than with every level's kept until its batch is
        # dropped: the nodes at which X^d and (X^d)' are evaluated, and the
        # selected tuple's values of each, are those of batches that keep
        # them all
        x, cfg = stress()
        names, stacks, nodes = {}, {}, {}
        coeffs, evaluate = Evaluator._coeffs, nevanlinna._eval_stack
        tuple_values = SelectorContext.tuple_values

        def named(self, key):
            arrays = coeffs(self, key)
            names[id(arrays)] = key
            return arrays

        def counted(arrays, z):
            out = evaluate(arrays, z)
            stacks[id(out)] = key = names[id(arrays)]
            nodes[key] = nodes.get(key, 0) + len(z)
            return out

        def counted_values(self, d, sel, v):
            key = ("tuple",) + stacks[id(v)]
            nodes[key] = nodes.get(key, 0) + v.shape[1]
            return tuple_values(self, d, sel, v)

        def run():
            nodes.clear()
            verify_prop62(x, cfg, range(1, x.n + 1), [0.54, 1.8, 6.0],
                          tol=3e-5)
            return dict(nodes)

        monkeypatch.setattr(Evaluator, "_coeffs", named)
        monkeypatch.setattr(nevanlinna, "_eval_stack", counted)
        monkeypatch.setattr(SelectorContext, "tuple_values", counted_values)
        full_cap(monkeypatch)
        one_level = run()
        monkeypatch.setattr(NodeBatch, "_work",
                            lambda self, key, compute: self._cached(key,
                                                                    compute))
        assert one_level == run()
        assert set(one_level) == {
            (*kind, d) for kind in (("w",), ("p",), ("tuple", "w"),
                                    ("tuple", "p"))
            for d in range(1, x.n + 2 if "w" in kind else x.n + 1)}

    def test_prop62_level_range(self):
        x, cfg = corpus()["line"]
        with pytest.raises(ValueError):
            verify_prop62(x, cfg, [2], [2.0, 4.0])

    def test_prop62_empty_levels_rejected(self):
        x, cfg = corpus()["line"]
        with pytest.raises(ValueError, match="empty level list"):
            verify_prop62(x, cfg, [], [2.0, 4.0])

    def test_lemma55_margin(self):
        x, cfg = corpus()["line"]
        rep = verify_lemma55(x, cfg, [4.0])
        assert rep.rows[0]["converged"]

    def test_growth_levels_recorded(self):
        x, cfg = corpus()["conic"]
        rep = verify_height_growth(x, [3.0, 30.0], slack=2.0)
        for row in rep.rows:
            for d in (1, 2, 3):
                assert f"T_{d}" in row

    def test_monitor_uses_gcd_ramification(self):
        x, cfg = corpus()["ramified"]
        rep = mcquillan_monitor(x, cfg, [10.0])
        assert rep.rows[0]["N_Ram"] == pytest.approx(
            math.log(10), abs=1e-14)


def test_prop62_after_sweep_roots_no_subset_and_builds_no_minor(
        monkeypatch):
    # one process's sweep and verify prop62 on one config share an
    # Evaluator, and with it the exact minors and the closed form
    from nevlab import arcs

    x, cfg = stress()
    radii = [0.54, 1.8, 6.0]
    full_sweep(x, cfg, radii, 3e-5)
    calls = []
    for module, name in ((arcs, "_root_all"), (nevanlinna, "next_layer")):
        def counted(*args, fn=getattr(module, name), name=name):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
    shared = verify_prop62(x, cfg, range(1, x.n + 1), radii, 3e-5).to_csv()
    assert calls == []
    nevanlinna._shared.clear()
    alone = verify_prop62(x, cfg, range(1, x.n + 1), radii, 3e-5).to_csv()
    assert shared == alone
    assert sorted(set(calls)) == ["_root_all", "next_layer"]


class TestMidpointReferences:
    """Converged values against references that do not come from the
    midpoint rule."""

    @staticmethod
    def _arcwise_m_c(x, cfg, r):
        """lemma55's m_C by scipy quad over the arcs between the selection
        switch points (grid scan, then bisection), on each of which the
        selected tuple is fixed and the integrand smooth."""
        forms = np.array([[complex(c) for c in f] for f in cfg.forms])

        def curve(theta):
            z = r * np.exp(1j * np.atleast_1d(theta))
            return (np.vstack([polyval(p, z) for p in x.coords]),
                    np.vstack([polyval(p.derivative(), z) for p in x.coords]))

        def selected(theta):
            xv, _ = curve(theta)
            lognorm = 0.5 * np.log((np.abs(xv) ** 2).sum(axis=0))
            logf = np.log(np.abs(forms @ xv))
            scores = [len(t) * lognorm - logf[list(t)].sum(axis=0)
                      for t in cfg.tuples]
            return np.argmax(scores, axis=0)

        def m_c(theta, t):
            xv, xpv = curve(theta)
            A, B = forms[list(t)] @ xv, forms[list(t)] @ xpv
            sq = sum(np.abs(xv[a] * xpv[b] - xv[b] * xpv[a]) ** 2
                     for a, b in itertools.combinations(range(len(xv)), 2))
            pairs = list(itertools.combinations(range(len(t)), 2))
            acc = sum(np.log(np.abs(A[i] * B[j] - A[j] * B[i]))
                      for i, j in pairs)
            return float((0.5 * np.log(sq) - acc / len(pairs))[0])

        grid = np.linspace(0.0, 2 * math.pi, 4097)
        sel = selected(grid)
        cuts = [0.0]
        for k in np.nonzero(sel[1:] != sel[:-1])[0]:
            lo, hi = grid[k], grid[k + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if selected(mid)[0] == sel[k] else (lo, mid)
            cuts.append(lo)
        cuts.append(2 * math.pi)
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            t = cfg.tuples[selected(0.5 * (lo + hi))[0]]
            value, err = quad(m_c, lo, hi, args=(t,), epsabs=1e-12,
                              epsrel=1e-12, limit=200)
            if err > 1e-10:
                pytest.fail(f"reference quad error {err:.1e}")
            total += value
        return total / (2 * math.pi)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "midpoint doubling flags m_C converged 3.3e-5 (33 tol) from the true "
        "value: at selection switch points the integrand jumps, and two "
        "equal estimates do not bound the error (ROADMAP item 2)"))
    def test_lemma55_m_c_matches_arcwise_quad(self):
        # the twisted cubic of the shipped config at its grid point
        # r = 4.77...; the arcwise reference is 1.42379687, the midpoint
        # rule reports 1.42376338
        x, cfg = corpus()["conic"]
        r = 4.77066460895
        row = verify_lemma55(x, cfg, [r]).rows[0]
        if not row["converged"]:
            pytest.fail("the row is expected to be flagged converged")
        want = self._arcwise_m_c(x, cfg, r)
        assert abs(row["m_C"] - want) < QUAD_TOL


class TestSweepReport:
    def test_csv_format(self):
        x, cfg = corpus()["line"]
        rep = full_sweep(x, cfg, [2.0, 8.0])
        text = rep.to_csv()
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "r"
        assert header[-1] == "converged"
        assert "N_W" in header and "N_Ram" in header
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header)
            assert cells[-1] in ("0", "1")
            # 12 significant digits max on float cells
            for cell in cells[:-1]:
                assert len(cell.replace("-", "").replace(".", "")
                           .replace("e", "").replace("+", "")) <= 14

    def test_all_converged(self):
        x, cfg = corpus()["line"]
        rep = full_sweep(x, cfg, [2.0])
        assert rep.all_converged() == rep.rows[0]["converged"]
