"""Jensen heights (nevlab.heights) against labelled oracles: mpmath.quad of
log|X^d| - N_d (conftest.mp_height) and the midpoint mean of log|X^d|
through Evaluator.radial minus N_d, plus the error estimate's edge cases,
the radius check, and the one route to T_d: every command that prints T_d
prints verify growth's bits."""

import json
import math
from pathlib import Path

import pytest

import nevlab.harness
import nevlab.heights
from nevlab.cli import build, parse_config
from nevlab.curve import normalize
from nevlab.gauss import parse_poly
from nevlab.harness import full_sweep, mcquillan_monitor, verify_cartan
from nevlab.heights import ReducedNorm, level_norms, verify_height_growth
from nevlab.nevanlinna import Evaluator, counting, height_T

from conftest import corpus, mp_height

ROOT = Path(__file__).resolve().parents[1]
TOL = 1e-6


def _data_config(workload, name):
    data = json.loads((ROOT / "perfbench" / "data" / f"{workload}.json")
                      .read_text(encoding="utf-8"))
    return parse_config(data["configs"][name]["ini"])


def _data_lift(workload, name):
    return build(_data_config(workload, name))[0]


def _cubic():
    text = (ROOT / "scripts" / "configs" / "twisted_cubic.ini").read_text(
        encoding="utf-8")
    return build(parse_config(text))[0]


@pytest.mark.parametrize("lift, r", [
    pytest.param(_cubic, 2.0, id="twisted_cubic-2"),
    pytest.param(_cubic, 30.0, id="twisted_cubic-30"),
    *[pytest.param(lambda name=name: _data_lift("exact", name), 2.0,
                   id=f"{name}-2") for name in ("lift_0", "lift_1", "lift_2")],
    # a zero of the coordinate z^2 + 1 lies on the circle
    pytest.param(lambda: _data_lift("edges", "root_on_circle"), 1.0,
                 id="root_on_circle-1"),
    # |x|^2 overflows a float here
    pytest.param(lambda: _data_lift("edges", "huge_radius"), 53.0,
                 id="huge_radius-53"),
])
def test_heights_match_mpmath_oracle(lift, r):
    x = lift()
    for d, norm in enumerate(level_norms(x), start=1):
        value, err, _ = norm.height(r, TOL)
        want, quad_err = mp_height(x, d, r)
        assert quad_err < 1e-11
        assert err < TOL, d
        assert abs(value - want) < err + 1e-10, d


@pytest.mark.parametrize("name", ["line", "conic", "ramified"])
def test_heights_match_midpoint_height_T(name):
    # labelled cross-engine oracle: the midpoint mean of log|X^d|, each level
    # its own Evaluator.radial row, minus the counting function of the roots
    # of X^d's coordinate gcd
    x, _ = corpus()[name]
    ev = Evaluator(x, None, TOL)
    levels = range(1, x.n + 2)
    radii = (0.3, 1.0, 2.0, 10.0, 100.0)
    midpoint = ev.radial(radii, [lambda at, d=d: [at.hbar(d)] for d in levels])
    for r, rows in zip(radii, midpoint):
        for d, norm, ((hbar,), (conv,), _) in zip(levels, level_norms(x),
                                                  rows):
            value, err, _ = norm.height(r, TOL)
            assert err < TOL and conv
            oracle = hbar - counting(ev.level_divisor(d), r)
            assert abs(value - oracle) < TOL, (r, d)


ONE_T_CASES = [("shipped", "twisted_cubic"), ("shipped", "ramified_line"),
               ("shipped", "line"), ("stress", "stress_n4"),
               ("edges", "root_on_circle")]
T_COMMANDS = (full_sweep, verify_cartan, mcquillan_monitor)


@pytest.mark.parametrize("workload, name", ONE_T_CASES)
def test_every_command_prints_the_growth_T_cells(workload, name):
    # one route to T_d: sweep, cartan and mcquillan print verify growth's
    # Jensen heights bit for bit, at every config radius
    cfg = _data_config(workload, name)
    x, hp = build(cfg)
    radii = cfg.radii()
    growth = verify_height_growth(x, radii, tol=cfg.tol).rows
    for command in T_COMMANDS:
        rows = command(x, hp, radii, tol=cfg.tol).rows
        assert [row["r"] for row in rows] == [row["r"] for row in growth]
        for row, want in zip(rows, growth):
            cells = {k: v for k, v in row.items() if k.startswith("T_")}
            assert cells, command.__name__
            assert cells == {k: want[k] for k in cells}, command.__name__


def test_unconverged_height_unconverges_the_row(monkeypatch):
    # every row of the twisted cubic converges; a Jensen error estimate of
    # tol then takes converged to 0 in every command that prints T_d
    cfg = _data_config("shipped", "twisted_cubic")
    x, hp = build(cfg)
    radii = cfg.radii()
    for command in T_COMMANDS:
        assert command(x, hp, radii, tol=cfg.tol).all_converged()
    height = ReducedNorm.height
    monkeypatch.setattr(ReducedNorm, "height", lambda self, r, tol=TOL: (
        height(self, r, tol)[0], tol, 0))
    for command in T_COMMANDS:
        rows = command(x, hp, radii, tol=cfg.tol).rows
        assert [row["converged"] for row in rows] == [0] * len(radii)


@pytest.mark.parametrize("r", [0.0, -2.0, math.inf, -math.inf, math.nan])
def test_height_rejects_a_radius_that_is_not_finite_and_positive(r):
    norm = ReducedNorm([parse_poly("1"), parse_poly("z - 3")])
    with pytest.raises(ValueError, match="finite radius"):
        norm.height(r, TOL)


def test_height_T_rejects_radius_zero():
    x, _ = corpus()["line"]
    with pytest.raises(ValueError, match="finite radius"):
        height_T(x, 1, 0.0)


def test_two_equal_estimates_do_not_end_the_doubling():
    # X = (1, z + b) with b = 2 e^{i pi/8} to nine decimals: at r = 2 the
    # reduced norm is |a|^2 |1 - q e^{i theta}|^2 with Re q^4 about 0, so
    # the 4- and 8-node estimates agree to 1e-11 while both are off by about
    # 2.4e-3; one difference of successive estimates would read converged
    x = normalize([parse_poly("1"), parse_poly(
        "z + 1847759065/1000000000 + 765366865/1000000000i")])
    norm = level_norms(x)[0]
    value, err, nodes = norm.height(2.0, TOL)
    want, _ = mp_height(x, 1, 2.0)
    assert err < TOL and nodes > 8
    assert abs(value - want) < err + 1e-10
    [row] = verify_height_growth(x, [2.0]).rows
    assert row["converged"] == 1
    assert abs(row["T_1"] - want) < TOL


def test_near_common_zero_is_not_converged():
    # q_0 and q_1 vanish 1e-9 apart on |z| = 2: the reduced norm falls to
    # about 1e-18 there, so the rounding bound alone exceeds tol
    x = normalize([parse_poly("z - 2"), parse_poly("z - 2 - 1/1000000000")])
    [row] = verify_height_growth(x, [2.0]).rows
    assert row["converged"] == 0
    value, err, nodes = level_norms(x)[0].height(2.0, TOL)
    assert err >= TOL
    assert nodes == 4  # more nodes cannot lower a rounding bound
    # away from the near-zero the same lift converges to the oracle
    value, err, _ = level_norms(x)[0].height(1.0, TOL)
    want, _ = mp_height(x, 1, 1.0)
    assert err < TOL
    assert abs(value - want) < err + 1e-10


def test_node_cap_ends_doubling_unconverged(monkeypatch):
    # a zero of P about 5e-4 off the circle needs some 3*10^4 nodes
    monkeypatch.setattr(nevlab.heights, "QUAD_NODE_CAP", 256)
    norm = ReducedNorm([parse_poly("z - 2"), parse_poly("z - 2001/1000")])
    value, err, nodes = norm.height(2.0, TOL)
    assert nodes == 256
    assert err >= TOL
    assert math.isfinite(value)


@pytest.mark.parametrize("cap, nodes", [(4, 4), (8, 8)])
def test_fewer_than_three_grids_never_converge(monkeypatch, cap, nodes):
    # the constant Wronskian level: every grid is exact, but the estimate
    # needs two differences of successive estimates
    monkeypatch.setattr(nevlab.heights, "QUAD_NODE_CAP", cap)
    norm = ReducedNorm([parse_poly("3 + 4i")])
    assert norm.height(5.0, TOL) == (pytest.approx(math.log(5.0)), math.inf,
                                     nodes)


def test_constant_level_converges_on_the_third_grid():
    value, err, nodes = ReducedNorm([parse_poly("3 + 4i")]).height(5.0, TOL)
    assert err < 1e-15 and nodes == 16


def test_harness_reexports_the_traced_growth():
    assert nevlab.harness.verify_height_growth is \
        nevlab.heights.verify_height_growth
    # and binds none of the exact layer's or the report module's records
    for name in ("HyperplaneConfig", "BalancedResult", "balanced_check",
                 "PairCollection", "telescoping_identity", "SweepReport"):
        assert not hasattr(nevlab.harness, name)
