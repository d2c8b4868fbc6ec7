"""Jensen heights (nevlab.heights) against labelled oracles: mpmath.quad of
log|X^d| - N_d (conftest.mp_height) and the midpoint route
nevanlinna.height_T, plus the error estimate's edge cases."""

import json
import math
from pathlib import Path

import pytest

import nevlab.harness
import nevlab.heights
from nevlab.cli import build, parse_config
from nevlab.curve import normalize
from nevlab.gauss import parse_poly
from nevlab.heights import ReducedNorm, level_norms, verify_height_growth
from nevlab.nevanlinna import height_T

from conftest import corpus, mp_height

ROOT = Path(__file__).resolve().parents[1]
TOL = 1e-6


def _data_lift(workload, name):
    data = json.loads((ROOT / "perfbench" / "data" / f"{workload}.json")
                      .read_text(encoding="utf-8"))
    return build(parse_config(data["configs"][name]["ini"]))[0]


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
    x, _ = corpus()[name]
    norms = level_norms(x)
    for r in (0.3, 1.0, 2.0, 10.0, 100.0):
        for d, norm in enumerate(norms, start=1):
            value, err, _ = norm.height(r, TOL)
            assert err < TOL
            assert abs(value - height_T(x, d, r, TOL)) < TOL, (r, d)


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
    assert nevlab.harness.SweepReport is nevlab.heights.SweepReport
