"""The closed-form circle means of nevlab.arcs, which Evaluator.radial takes
at a radius where the midpoint rule has not converged some row within
_MIDPOINT_NODES nodes, against oracles that do not use them: mpmath's dilogarithm, a scan of the
selector, composite Gauss-Legendre over the arcs of that scan (switch
points by bisection) on the midpoint engine's per-node integrand, and
references from earlier two-route computations."""

import contextlib
import io
import json
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from nevlab import nevanlinna
from nevlab.arcs import ClosedForm, li2
from nevlab.cli import build, main, parse_config
from nevlab.exterior import distance_one_collection
from nevlab.harness import full_sweep
from nevlab.nevanlinna import _MIDPOINT_NODES, _NODE_CHUNK, Evaluator, NodeBatch

from conftest import full_cap, stress

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"
# lift_2 of the benchmark's exact workload
LIFT_2 = json.loads((ROOT / "perfbench" / "data" / "exact.json").read_text(
    encoding="utf-8"))["configs"]["lift_2"]["ini"]


def _every_component(n):
    """A rows function of every component the closed form answers."""
    def rows(at):
        return ([at.hbar(d) for d in range(1, n + 2)]
                + [at.m(d) for d in range(1, n + 2)] + [at.cartan()]
                + [at.pairlam(d, distance_one_collection(n, d).positions())
                   for d in range(1, n + 1)]
                + [at.hbarpair(d) for d in range(1, n + 1)])
    return rows


def _selection(ev, r, theta):
    with np.errstate(divide="ignore", invalid="ignore"):
        return NodeBatch(ev, r, np.asarray(theta, dtype=float)).selection


def _scan(ev, r, nodes=2 ** 16):
    theta = (np.arange(nodes) + 0.5) * (2 * math.pi / nodes)
    return theta, _selection(ev, r, theta)


def _switches(ev, r):
    """The selection's switch angles: a 2^16-node scan, then bisection of
    every change to the last bits."""
    theta, sel = _scan(ev, r)
    step = theta[1] - theta[0]
    out = []
    for k in np.flatnonzero(sel != np.roll(sel, -1)):
        lo, hi = theta[k], theta[k] + step
        for _ in range(60):
            mid = (lo + hi) / 2
            if _selection(ev, r, [mid])[0] == sel[k]:
                lo = mid
            else:
                hi = mid
        out.append(((lo + hi) / 2) % (2 * math.pi))
    return sorted(out)


def _arcwise(ev, r, rows, pieces, order=32, poles=()):
    """Circle means of rows by composite Gauss-Legendre, pieces panels of
    order nodes on each arc between the scanned switch points, the
    integrand a NodeBatch of every node.  poles are the angles of zeros
    just off the circle: arcs are cut there too, and the panels next to a
    pole are graded geometrically toward it, down to 2^-50 of their width."""
    near = [p % (2 * math.pi) for p in poles]
    cuts = sorted(_switches(ev, r) + near)
    cuts = cuts + [cuts[0] + 2 * math.pi] if cuts else [0.0, 2 * math.pi]
    grade = 2.0 ** -np.arange(50, 0, -1)
    x, w = np.polynomial.legendre.leggauss(order)
    theta, weight = [], []
    for a, b in zip(cuts, cuts[1:]):
        edges = np.linspace(a, b, pieces + 1)
        if a % (2 * math.pi) in near:
            edges = np.concatenate([[a], a + (edges[1] - a) * grade,
                                    edges[1:]])
        if b % (2 * math.pi) in near:
            edges = np.concatenate([edges[:-1],
                                    b - (b - edges[-2]) * grade[::-1], [b]])
        for lo, hi in zip(edges, edges[1:]):
            theta.append((hi + lo) / 2 + (hi - lo) / 2 * x)
            weight.append((hi - lo) / 2 * w)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.asarray(rows(NodeBatch(ev, r, np.concatenate(theta))))
    return vals @ np.concatenate(weight) / (2 * math.pi)


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_li2_matches_mpmath():
    # 3,000 points of the closed unit disk: inside, on the circle, and on
    # the seams of the three series (|z| = 0.3, Re z = 1/2)
    rng = np.random.default_rng(2027)
    inside = np.sqrt(rng.uniform(0, 1, 1900)) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, 1900))
    circle = np.exp(1j * rng.uniform(-math.pi, math.pi, 800))
    seams = np.concatenate([
        rng.uniform(0.29, 0.31, 150) * np.exp(
            1j * rng.uniform(-math.pi, math.pi, 150)),
        0.5 + 1j * rng.uniform(-0.86, 0.86, 143),
        [0, 1, -1, 1j, -1j, 0.3, 0.5 + 0.75 ** 0.5 * 1j]])
    z = np.concatenate([inside, circle, seams])
    assert len(z) == 3000 and np.abs(z).max() <= 1 + 1e-15
    want = np.array([complex(mpmath.polylog(2, mpmath.mpc(c.real, c.imag)))
                     for c in z])
    assert np.abs(li2(z) - want).max() < 1e-15


@pytest.mark.parametrize("r", [0.54, 1.8, 6.0])
def test_arcs_hold_every_selection_change(r):
    # every node of a 2^16-node select scan lies on an arc of its selected
    # tuple, so the arcs contain each selection change of the scan
    ev = Evaluator(*stress(), 3e-5)
    at = ClosedForm(ev).at(r)
    theta, sel = _scan(ev, r)
    start = at.arcs[0][0]
    ends = np.array([b for _, b, _ in at.arcs]) - start
    tuples = np.array([t for _, _, t in at.arcs])
    arc = np.searchsorted(ends, (theta - start) % (2 * math.pi))
    assert np.array_equal(tuples[arc], sel)
    assert len(at.arcs) == {0.54: 8, 1.8: 10, 6.0: 6}[r]


@pytest.mark.parametrize("r", [0.54, 1.8, 6.0])
def test_stress_means_match_arcwise_gauss_legendre(r):
    # hbar, m_1..m_5, cartan, pairlam and hbarpair, each within 1e-9 of the
    # oracle, whose 32- and 64-panel sums agree within 1e-10
    x, cfg = stress()
    ev = Evaluator(x, cfg, 3e-5)
    rows = _every_component(x.n)
    coarse, fine = (_arcwise(ev, r, rows, pieces) for pieces in (32, 64))
    assert np.abs(coarse - fine).max() < 1e-10
    at = ClosedForm(ev).at(r)
    assert np.abs(np.array(rows(at)) - fine).max() < 1e-9
    assert at.worst < ev.tol


def test_stress_m3_reference_at_054():
    # the reference of m_3 at r = 0.54 from two routes; the midpoint rule
    # ran this row to 8,192 or 32,768 nodes and missed it by 3.2 tol
    [[(vals, conv, nodes)]] = Evaluator(*stress(), 3e-5).radial(
        [0.54], [lambda at: [at.m(3)]])
    assert conv.all() and nodes == _MIDPOINT_NODES
    assert vals[0] == pytest.approx(1.4377877879, abs=1e-9)


def test_lift_2_rows_converge_at_r2(tmp_path):
    # the midpoint rule ran m_3 and m_4 of lift_2 at r = 2 to 2^20 nodes
    # unconverged, so both commands exited 2
    config = tmp_path / "lift_2.ini"
    config.write_text(LIFT_2, encoding="utf-8")
    x, hp = build(parse_config(LIFT_2))
    [[(vals, conv, _)]] = Evaluator(x, hp).radial(
        [2.0], [lambda at: [at.m(3), at.m(4)]])
    assert conv.all()
    assert vals[0] == pytest.approx(-1.7074318791, abs=1e-9)
    assert vals[1] == pytest.approx(-3.0312049936, abs=1e-9)
    for command in (["compute"], ["verify", "prop62"]):
        start = time.perf_counter()
        code, _ = _run(*command, "--r", "2", "--config", str(config))
        assert code == 0 and time.perf_counter() - start < 5


def test_tie_circle_keeps_the_midpoint_rule():
    # |1| = |z| = |z^2| on all of |z| = 1: the exact test finds that tie
    # circle and no other nearby, and compute --r 1 prints the midpoint
    # rule's row, unconverged, as before the closed form
    cfg = parse_config((CONFIGS / "twisted_cubic.ini").read_text(
        encoding="utf-8"))
    closed = ClosedForm(Evaluator(*build(cfg)))
    assert closed.tie_circle(1.0)
    assert not closed.tie_circle(0.999) and not closed.tie_circle(1.001)
    assert closed.at(1.0) is None
    code, text = _run("compute", "--r", "1", "--config",
                      str(CONFIGS / "twisted_cubic.ini"))
    assert code == 2
    assert text == (
        "r,T_1,T_2,T_3,m_0,m_1,m_2,m_3,N_W,N_Ram,lhs,rhs,margin,converged\n"
        "1,0.549306144334,0.895879734614,0.69314718056,0,0.678888768348,"
        "0.693783526021,0,0,0,2.03666630504,1.647918433,-0.388747872042,0\n")


@pytest.mark.parametrize("kind", ["mumax", "nonfinite"])
def test_rows_the_closed_form_does_not_answer_keep_the_midpoint(kind,
                                                                monkeypatch):
    # a row that asks for mumax, and one whose closed form is not finite
    # (pairlam over positions other than the distance-one collection's),
    # give the bits of the midpoint rule run up to QUAD_NODE_CAP
    x, cfg = stress()
    positions = distance_one_collection(x.n, 1).positions()[:1]
    rows = {"mumax": lambda at: [at.m(3), at.mumax()],
            "nonfinite": lambda at: [at.m(3), at.pairlam(1, positions)]}[kind]
    [[got]] = Evaluator(x, cfg, 3e-5).radial([0.54], [rows])
    full_cap(monkeypatch)
    [[want]] = Evaluator(x, cfg, 3e-5).radial([0.54], [rows])
    assert got[2] == want[2] > _NODE_CHUNK
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])


def test_converged_needs_the_error_bound_below_tol():
    # the closed form's bound includes the rounding of the Jensen heights
    # and the closed form, so no row passes at a tol of 1e-17
    x, cfg = stress()
    at = ClosedForm(Evaluator(x, cfg, 1e-17)).at(0.54)
    at.worst = 0.0
    assert math.isfinite(at.m(3)) and 0 < at.worst
    [[(_, conv, _)]] = Evaluator(x, cfg, 1e-17).radial(
        [0.54], [lambda at: [at.m(3)]])
    assert not conv.any()


def test_closed_form_rows_share_one_value_per_component(monkeypatch):
    # every rows function of one radius reads the same CircleMeans, which
    # computes each component once
    x, cfg = stress()
    calls = []
    closed_form = nevanlinna.Evaluator._closed_form

    def counted(self, at, rows, nodes):
        calls.append(at.r)
        return closed_form(self, at, rows, nodes)

    monkeypatch.setattr(nevanlinna.Evaluator, "_closed_form", counted)
    ev = Evaluator(x, cfg, 3e-5)
    got = ev.radial([0.54], [lambda at: [at.m(3), at.m(2)],
                             lambda at: [at.m(2), at.m(3)]])
    [(a, _, _), (b, _, _)] = got[0]
    assert calls == [0.54, 0.54]
    assert a.tolist() == b[::-1].tolist()


@pytest.mark.parametrize("r,roots", [(1.0, (0.5, 1.5)), (2.0, (0.0, 2.0))])
def test_root_on_circle_matches_mpmath(r, roots):
    # z^2 + 1 vanishes at +-i on |z| = 1, and z - 2 at 2 on |z| = 2, where
    # the midpoint rule ended unconverged (r = 1) or past one chunk: m_1
    # and cartan are converged, within 1e-12 of mpmath.quad over the
    # scanned arcs split at the roots' angles (in turns of pi)
    cfg = parse_config(
        "[curve]\ncoords = z - 2; z^2 + 1\n[hyperplanes]\n"
        "forms = 1, 0; 0, 1; 1, 1\n[sweep]\nr_min = 1\nr_max = 4\n"
        "r_points = 3\ntol = 1e-6\n")
    ev = Evaluator(*build(cfg), 1e-6)
    cuts = sorted(set(_switches(ev, r)) | {k * math.pi for k in roots})
    cuts.append(cuts[0] + 2 * math.pi)

    def m1(theta):
        return float(NodeBatch(ev, r, np.array([float(theta)])).m(1)[0])

    with mpmath.workdps(20):
        want = float(mpmath.quad(m1, cuts)) / (2 * math.pi)
    [[(vals, conv, _)]] = ev.radial([r], [lambda at: [at.m(1), at.cartan()]])
    assert conv.all()
    assert abs(vals[0] - want) < 1e-12 and abs(vals[1] - 2 * want) < 1e-12


def _prop62_m(x, cfg, r):
    """{e: [m(e) of each verify prop62 level row that reads it]} at r, every
    row converged within _MIDPOINT_NODES nodes."""
    each = [
        lambda at, d=d, pos=distance_one_collection(x.n, d).positions():
        [at.m(d - 1), at.m(d), at.m(d + 1), at.hbar(d - 1), at.hbar(d),
         at.hbar(d + 1), at.pairlam(d, pos), at.hbarpair(d)]
        for d in range(1, x.n + 1)]
    [levels] = Evaluator(x, cfg, 3e-5).radial([r], each)
    seen = {}
    for d, (vals, conv, nodes) in enumerate(levels, 1):
        assert conv.all() and nodes <= _MIDPOINT_NODES
        for e, v in zip((d - 1, d, d + 1), vals[:3]):
            seen.setdefault(e, []).append(v)
    return seen


@pytest.mark.parametrize("r", [0.54, 1.8])
def test_switched_radius_gives_every_level_row_one_m(r):
    # a radius where some prop62 level row has not converged on the
    # _MIDPOINT_NODES grid takes every level row from one CircleMeans, so the
    # level rows that read m(d) give it the same bits, within 1e-12 of the
    # sweep's m_d
    x, cfg = stress()
    [row] = full_sweep(x, cfg, [r], 3e-5).rows
    for e, values in _prop62_m(x, cfg, r).items():
        assert len({v.tobytes() for v in values}) == 1
        assert abs(values[0] - row[f"m_{e}"]) <= 1e-12


def test_stress_m3_at_18_matches_gauss_legendre():
    # the sweep's m_3 at r = 1.8 and every prop62 level row's, within tol of
    # the arcwise oracle; the midpoint rule gave the level-4 row 2.84064630
    # on 512 nodes, 1.2 tol off
    x, cfg = stress()
    [want] = _arcwise(Evaluator(x, cfg, 3e-5), 1.8,
                      lambda at: [at.m(3)], 64)
    [row] = full_sweep(x, cfg, [1.8], 3e-5).rows
    got = [row["m_3"], *_prop62_m(x, cfg, 1.8)[3]]
    assert row["converged"] and len(got) == 4
    assert max(abs(v - want) for v in got) < 3e-5


@pytest.mark.xfail(strict=True, reason=(
    "false convergence: twisted_cubic `verify cartan --r 0.999999` flags its "
    "midpoint lhs converged on the 2,048-node grid, 1.25e-6 from the arcwise "
    "oracle at tol 1e-6; the zeros of 1 + z + z^2 lie 1e-6 off the circle"))
def test_twisted_cubic_cartan_just_inside_the_unit_circle():
    # the closed form gives 2.0366658050 there, with error estimate 1.4e-13
    ini = (CONFIGS / "twisted_cubic.ini").read_text(encoding="utf-8")
    cfg = parse_config(ini)
    code, text = _run("verify", "cartan", "--r", "0.999999", "--config",
                      str(CONFIGS / "twisted_cubic.ini"))
    row = dict(zip(*(line.split(",") for line in text.splitlines())))
    [want] = _arcwise(Evaluator(*build(cfg), cfg.tol), 0.999999,
                      lambda at: [at.cartan()], 32,
                      poles=(2 * math.pi / 3, 4 * math.pi / 3))
    assert code == 0 and row["converged"] == "1"
    assert abs(float(row["lhs"]) - want) < cfg.tol


def test_twisted_cubic_closed_form_cartan_just_inside_the_unit_circle():
    # the oracle of the strict xfail above, whose 16- and 32-panel sums
    # agree, and the closed form at the same radius agree far within tol:
    # the row the midpoint rule flags converged is the one that is off
    cfg = parse_config((CONFIGS / "twisted_cubic.ini").read_text(
        encoding="utf-8"))
    ev = Evaluator(*build(cfg), cfg.tol)
    coarse, fine = (_arcwise(ev, 0.999999, lambda at: [at.cartan()], pieces,
                             poles=(2 * math.pi / 3, 4 * math.pi / 3))[0]
                    for pieces in (16, 32))
    assert abs(coarse - fine) < 1e-10
    at = ClosedForm(ev).at(0.999999)
    assert abs(float(at.cartan()) - fine) < 1e-9
    assert at.worst < ev.tol


def test_huge_radius_selects_in_the_log_domain(tmp_path):
    # at r = 1e6 the selection on x scaled by r^-80 underflowed, so compute
    # printed nan m_1..m_3 and exited 2.  From the rooted form values it
    # exits 0, and m_1 matches mpmath.quad over the arcs: with u = z^40 =
    # R e^{i phi}, R = 1e240, the integrand depends on phi alone, and the
    # selection switches where |z^80 + 1| = |z^80 + z^40 + 2|, within 1e-240
    # of phi = pi/2 and 3 pi/2
    ini = json.loads((ROOT / "perfbench" / "data" / "edges.json").read_text(
        encoding="utf-8"))["configs"]["huge_radius"]["ini"]
    config = tmp_path / "huge.ini"
    config.write_text(ini, encoding="utf-8")
    code, text = _run("compute", "--r", "1000000", "--config", str(config))
    assert code == 0 and "nan" not in text
    x, hp = build(parse_config(ini))
    assert len(hp.tuples) == 4  # every 3 of the 4 forms
    [[(vals, conv, _)]] = Evaluator(x, hp).radial(
        [1e6], [lambda at: [at.m(1)]])

    def m1(phi):
        u = mpmath.mpf(10) ** 240 * mpmath.expj(phi)
        logs = [mpmath.mpf(0), mpmath.log(abs(u)), mpmath.log(abs(u * u + 1)),
                mpmath.log(abs(u * u + u + 2))]
        norm = mpmath.log(1 + abs(u) ** 2 + abs(u * u + 1) ** 2) / 2
        # the selected tuple leaves out the form of largest modulus
        return norm - (mpmath.fsum(logs) - max(logs)) / 3

    with mpmath.workdps(30):
        want = float(mpmath.quad(m1, [0, mpmath.pi / 2, 3 * mpmath.pi / 2,
                                      2 * mpmath.pi]) / (2 * mpmath.pi))
    assert conv.all() and abs(vals[0] - want) < 1e-9
