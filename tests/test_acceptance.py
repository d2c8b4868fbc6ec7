"""Acceptance gate: the ten primary criteria, one pass/fail line each.

Exact identities are checked with zero tolerance; analytic inequalities are
checked as margins at the tolerances stated inline.  Random instances use a
fixed seed so the suite is reproducible.
"""

import math
import random
import time

import numpy as np
import pytest

from nevlab.curve import (CurveLift, associated, leibniz_partner, normalize,
                          ramification_divisor)
from nevlab.exterior import (
    WedgeForm,
    balanced_check,
    distance_one_collection,
    general_position_tuples,
    multi_indices,
    telescoping_identity,
    two_row_identity_sign,
)
from nevlab.gauss import GR_ONE, GaussPoly, GaussRational, roots
from nevlab.harness import (
    mcquillan_monitor,
    verify_cartan,
    verify_height_growth,
    verify_prop62,
)
from nevlab.nevanlinna import Evaluator, counting, height_T

from conftest import corpus, rand_poly, rand_rational


GRID30 = list(np.logspace(math.log10(2), math.log10(100), 30))
GRID20 = list(np.logspace(math.log10(2), math.log10(100), 20))
QUADRATURE_TOL = 1e-6


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[PRIMARY] criterion {num:2d} ({desc}): {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({desc}) failed {detail}"


def _random_instances(seed=1202, count=200):
    """Random lifts and (n+1)-tuples of forms for the exact identity battery."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        # all of n = 1..4 occur; smaller n dominates to keep runtime low
        n = rng.choice((1, 1, 2, 2, 2, 3, 3, 4))
        coords = [rand_poly(rng, max_deg=4, span=3, nonzero=True)
                  for _ in range(n + 1)]
        x = normalize(coords)
        forms = [tuple(rand_rational(rng, span=3) for _ in range(n + 1))
                 for _ in range(n + 1)]
        out.append((x, forms))
    return out


@pytest.fixture(scope="module")
def instances():
    return _random_instances()


@pytest.fixture(scope="module")
def curves():
    return corpus()


@pytest.fixture(scope="module")
def cartan_reports(curves):
    return {
        name: verify_cartan(x, cfg, GRID30, tol=QUADRATURE_TOL)
        for name, (x, cfg) in curves.items()
    }


def test_criterion_01_two_row_identity(instances):
    """Exact two-row minor identity with the pinned sign, all levels and all
    distance-one pairs, on 200 random instances."""
    start = time.monotonic()
    checked = 0
    ok = True
    for x, forms in instances:
        n = x.n
        wedges = {d: associated(x, d) for d in range(n + 2)}
        for d in range(1, n + 1):
            partner = leibniz_partner(x, d)
            idx = multi_indices(n, d)
            for a in range(len(idx)):
                for b in range(a + 1, len(idx)):
                    ia, jb = idx[a], idx[b]
                    inter = set(ia.elements) & set(jb.elements)
                    if len(inter) != d - 1:
                        continue
                    union = tuple(sorted(set(ia.elements) | set(jb.elements)))
                    f_i = WedgeForm(n, tuple(forms[k] for k in ia.elements))
                    f_j = WedgeForm(n, tuple(forms[k] for k in jb.elements))
                    f_lo = WedgeForm(n, tuple(forms[k] for k in sorted(inter)))
                    f_hi = WedgeForm(n, tuple(forms[k] for k in union))
                    lhs = (f_i.apply(wedges[d]) * f_j.apply(partner)
                           - f_j.apply(wedges[d]) * f_i.apply(partner))
                    sign = two_row_identity_sign(ia, jb)
                    rhs = (f_lo.apply(wedges[d - 1])
                           * f_hi.apply(wedges[d + 1])).scale(
                               GaussRational.of(sign))
                    if lhs != rhs:
                        ok = False
                    checked += 1
    elapsed = time.monotonic() - start
    ok = ok and checked >= 200 and elapsed < 60
    _report(1, "two-row identity exact", ok,
            f"[{checked} pairs, {elapsed:.1f}s]")


def test_criterion_02_leibniz_relation(instances):
    """Derivative of every wedge coordinate equals the partner wedge, exact."""
    ok = True
    for x, _ in instances:
        for d in range(1, x.n + 1):
            X = associated(x, d)
            Y = leibniz_partner(x, d)
            for (_, p), (_, q) in zip(X.coords, Y.coords):
                if p.derivative() != q:
                    ok = False
    _report(2, "derivative wedge relation exact", ok)


def test_criterion_03_telescoping():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(0, 8)
        a = [rng.uniform(-100, 100) for _ in range(n + 2)]
        lhs, rhs = telescoping_identity(a)
        worst = max(worst, abs(lhs - rhs))
    _report(3, "telescoping identity", worst < 1e-12, f"[worst {worst:.2e}]")


def test_criterion_04_jensen():
    # the midpoint mean of log|p| that verify lemma55 and verify prop62
    # print as hbar_1, here at.hbar(1) of the lift (p) in P^0, against
    # Jensen's log|p(0)| + N(r)
    rng = random.Random(11)
    start = time.monotonic()
    worst = 0.0
    radii = (0.5, 1.0, 2.0, 10.0)
    cfg = general_position_tuples([(GR_ONE,)], 0)
    for _ in range(50):
        p = rand_poly(rng, max_deg=10, span=4, nonzero=True)
        if not p.coeff(0):
            p = p + GaussPoly.one()
        zeros = np.roots(p.complex_coeffs()[::-1]) if p.degree >= 1 else []
        log_p0 = math.log(abs(p.eval(0.0)))
        ev = Evaluator(CurveLift(0, (p,)), cfg, QUADRATURE_TOL)
        for r, [((got,), _, _)] in zip(
                radii, ev.radial(radii, [lambda at: [at.hbar(1)]])):
            n_r = sum(math.log(r / abs(z)) for z in zeros if abs(z) <= r)
            worst = max(worst, abs(got - (log_p0 + n_r)))
    elapsed = time.monotonic() - start
    ok = worst < 1e-5 and elapsed < 60
    _report(4, "Jensen mean-value cross-check", ok,
            f"[worst {worst:.2e}, {elapsed:.1f}s]")


def test_criterion_05_fmt_constancy(curves):
    # the midpoint mean of log|x| - log|L(x)|, from the hbar(1) that verify
    # lemma55 and verify prop62 print, one Evaluator.radial row per form
    worst = 0.0
    for name in ("line", "conic"):
        x, cfg = curves[name]
        ev = Evaluator(x, cfg, QUADRATURE_TOL)
        for form in cfg.forms:
            lx = GaussPoly.zero()
            for c, p in zip(form, x.coords):
                lx = lx + p.scale(c)
            div = roots(lx) if not lx.is_constant() else None
            coeffs = np.array([complex(c) for c in form])
            rows = ev.radial(GRID20, [lambda at: [
                at.hbar(1) - np.log(np.abs(coeffs @ at.wedge(1)))]])
            vals = []
            for r, [((m,), _, _)] in zip(GRID20, rows):
                n_r = counting(div, r) if div is not None else 0.0
                vals.append(m + n_r - height_T(x, 1, r, tol=QUADRATURE_TOL))
            worst = max(worst, max(vals) - min(vals))
    _report(5, "first-main-theorem constancy", worst < 0.05,
            f"[variation {worst:.2e}]")


def test_criterion_06_cartan_margin(cartan_reports):
    start = time.monotonic()
    worst = math.inf
    ok = True
    for name, rep in cartan_reports.items():
        for row in rep.rows:
            if row["converged"]:
                worst = min(worst, row["margin"])
                if row["margin"] < -0.1:
                    ok = False
    elapsed = time.monotonic() - start
    _report(6, "defect-relation margin", ok,
            f"[min margin {worst:.3f}, {elapsed:.1f}s]")


def test_criterion_07_level_comparison(curves):
    worst_norm = -math.inf
    worst_gap = 0.0
    for name, (x, cfg) in curves.items():
        rep = verify_prop62(x, cfg, range(1, x.n + 1), GRID30,
                            tol=QUADRATURE_TOL)
        for row in rep.rows:
            if not row["converged"]:
                continue
            norm = (row["lhs"] - row["rhs"]) / max(1.0, math.log(row["r"]))
            worst_norm = max(worst_norm, norm)
            worst_gap = max(worst_gap, row["route_gap"])
    ok = worst_norm <= 0.1 and worst_gap <= 10 * QUADRATURE_TOL
    _report(7, "level comparison margin and route agreement", ok,
            f"[sup norm {worst_norm:.3f}, route gap {worst_gap:.2e}]")


def test_criterion_08_monitor(curves):
    worst = -math.inf
    ok = True
    for name, (x, cfg) in curves.items():
        rep = mcquillan_monitor(x, cfg, GRID30, tol=QUADRATURE_TOL)
        for row in rep.rows:
            if not row["converged"]:
                continue
            norm = row["lhs"] / max(1.0, math.log(row["r"]))
            worst = max(worst, norm)
            if norm > 0.1:
                ok = False
    # ramified double cover: N_Ram(r) = 1 * log r exactly, both routes
    x, cfg = curves["ramified"]
    div = ramification_divisor(x)
    route_gcd = div.ord_at_zero == 1 and div.points == ()
    wedge = associated(x, 2)
    min_ord = min(p.ord_at_zero() for p in wedge.polys() if not p.is_zero())
    route_orders = min_ord == 1
    for r in (2.0, 10.0, 100.0):
        if counting(div, r) != math.log(r):
            ok = False
    ok = ok and route_gcd and route_orders
    _report(8, "tautological-inequality monitor", ok,
            f"[sup normalized M {worst:.3f}]")


def test_criterion_09_height_growth(curves):
    worst = -math.inf
    ok = True
    for name, (x, cfg) in curves.items():
        rep = verify_height_growth(x, GRID30, slack=2.0, tol=QUADRATURE_TOL)
        for row in rep.rows:
            worst = max(worst, row["lhs"])
            if row["lhs"] > 2.0:
                ok = False
    _report(9, "derived height growth bound", ok, f"[max excess {worst:.3f}]")


def test_criterion_10_combinatorics():
    ok = True
    for n in range(1, 7):
        for d in range(1, n + 1):
            coll = distance_one_collection(n, d)
            res = balanced_check(coll.pairs)
            counts = {}
            for a, b in coll.pairs:
                counts[a] = counts.get(a, 0) + 1
                counts[b] = counts.get(b, 0) + 1
            if not res.balanced or dict(res.counts) != counts:
                ok = False
            if any(c != d * (n + 1 - d) for c in counts.values()):
                ok = False
            if len(counts) != math.comb(n + 1, d):
                ok = False
    _report(10, "pair-collection combinatorics", ok)
