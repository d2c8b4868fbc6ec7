import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nevlab.gauss import GR_ONE, GR_ZERO, GaussPoly, GaussRational, parse_poly
from nevlab.curve import normalize
from nevlab.harness import general_position_tuples


def rand_rational(rng, span=4):
    re = Fraction(rng.randint(-span, span), rng.randint(1, span))
    im = Fraction(rng.randint(-span, span), rng.randint(1, span))
    return GaussRational(re, im)


def rand_poly(rng, max_deg=4, span=4, nonzero=False):
    deg = rng.randint(0, max_deg)
    coeffs = [rand_rational(rng, span) for _ in range(deg + 1)]
    p = GaussPoly(tuple(coeffs))
    if nonzero and p.is_zero():
        return GaussPoly((GaussRational(Fraction(1), Fraction(0)),))
    return p


def rand_forms(rng, n, count=None, span=3):
    """Random forms on P^n; retries until some (n+1)-subset is invertible."""
    count = count or n + 1
    while True:
        forms = [tuple(rand_rational(rng, span) for _ in range(n + 1))
                 for _ in range(count)]
        try:
            return general_position_tuples(forms, n)
        except ValueError:
            continue


def polyval(p, z):
    """The float image of the GaussPoly p at the points z, by numpy's
    polyval."""
    return np.polynomial.polynomial.polyval(z, p.complex_coeffs())


def monomial_lift(*exponents):
    """Lift with coordinates z^e for the given exponents."""
    coords = []
    for e in exponents:
        c = [GR_ZERO] * e + [GR_ONE]
        coords.append(GaussPoly(tuple(c)))
    return normalize(coords)


@pytest.fixture(autouse=True)
def fresh_evaluators():
    """Start and end every test with no shared Evaluator, so a test that
    patches arcs or nevanlinna internals is never served an Evaluator that
    an earlier test built (nevanlinna.shared_evaluator)."""
    from nevlab import nevanlinna

    nevanlinna._shared.clear()
    yield
    nevanlinna._shared.clear()


@pytest.fixture
def rng():
    return random.Random(20260826)


def corpus():
    """The three reference curves with their hyperplane families."""
    one, zero = GR_ONE, GR_ZERO
    line = normalize([parse_poly("1"), parse_poly("z")])
    line_cfg = general_position_tuples(
        [(one, zero), (zero, one), (one, one)], 1)
    conic = normalize([parse_poly("1"), parse_poly("z"), parse_poly("z^2")])
    conic_cfg = general_position_tuples(
        [(one, zero, zero), (zero, one, zero), (zero, zero, one),
         (one, one, one)], 2)
    ramified = normalize([parse_poly("1"), parse_poly("z^2")])
    ram_cfg = general_position_tuples(
        [(one, zero), (zero, one), (one, one)], 1)
    return {
        "line": (line, line_cfg),
        "conic": (conic, conic_cfg),
        "ramified": (ramified, ram_cfg),
    }


STRESS_COORDS = ("1", "z - 2", "z^2 + (1/2)i", "z^3 - 3z + 1", "z^5 + 2z^2 - i")
STRESS_FORMS = ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                (0, 0, 0, 1, 0), (0, 0, 0, 0, 1), (1, 1, 1, 1, 1),
                (1, 2, 3, 4, 5), (1, -1, 1, -1, 1), (2, 0, 1, 0, 3))


def lift_config(coords, forms):
    """The lift of the coordinate polynomials and the configuration of the
    integer forms."""
    x = normalize([parse_poly(p) for p in coords])
    exact = [tuple(GaussRational(Fraction(c), Fraction(0)) for c in f)
             for f in forms]
    return x, general_position_tuples(exact, x.n)


def stress(forms=STRESS_FORMS):
    """The 5-coordinate stress curve with the given integer forms (by
    default its 9 forms, which give 111 tuples)."""
    return lift_config(STRESS_COORDS, forms)


def stress_ini(forms=STRESS_FORMS):
    """The config text of the stress curve with the given integer forms, on
    the radii 0.54, 1.8 and 6 at tol 3e-5."""
    return ("[curve]\ncoords = " + "; ".join(STRESS_COORDS)
            + "\n\n[hyperplanes]\nforms = "
            + "; ".join(",".join(map(str, f)) for f in forms)
            + "\n\n[sweep]\nr_min = 0.54\nr_max = 6.0\nr_points = 3\n"
            "tol = 3e-05\n")


def full_cap(monkeypatch):
    """Make Evaluator.radial run the midpoint rule up to QUAD_NODE_CAP
    whatever cap it asks for, so no radius leaves it for the closed-form
    means after _MIDPOINT_NODES nodes: the tests of the midpoint engine's
    batches drive it on the deep rows it still runs for mumax and tie
    circles."""
    from nevlab import nevanlinna

    quadrature = nevanlinna.adaptive_midpoint
    monkeypatch.setattr(nevanlinna, "adaptive_midpoint",
                        lambda g, tol, cap: quadrature(g, tol))


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(script: str, *args: str):
    """Run script in a new interpreter that imports nevlab from src/, and
    return the JSON its last stdout line holds."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def mp_height(x, d, r, dps=30, pieces=4):
    """Labelled oracle for T_{d,f}(r), independent of Jensen's formula:
    mpmath.quad (Gauss-Legendre on `pieces` equal arcs, at dps digits) of
    the circle mean of log|X^d(r e^{i theta})|, the coordinates evaluated in
    mpmath so that no radius overflows, minus the counting function N_d of
    the exact coordinate gcd's zeros (nevlab roots).  Returns (T_d, the
    quadrature's own error estimate)."""
    import mpmath

    from nevlab.curve import associated_family, level_divisor
    from nevlab.nevanlinna import counting

    polys = associated_family(x)[d].polys()
    with mpmath.workdps(dps):
        coeffs = [[mpmath.mpc(mpmath.mpf(c.re.numerator) / c.re.denominator,
                              mpmath.mpf(c.im.numerator) / c.im.denominator)
                   for c in reversed(p.coeffs)] for p in polys if not p.is_zero()]
        radius = mpmath.mpf(r)

        def half_log_norm(theta):
            z = radius * mpmath.expj(theta)
            return mpmath.log(mpmath.fsum(abs(mpmath.polyval(c, z)) ** 2
                                          for c in coeffs)) / 2

        arcs = mpmath.linspace(0, 2 * mpmath.pi, pieces + 1)
        mean, err = mpmath.quad(half_log_norm, arcs, method="gauss-legendre",
                                error=True)
        mean /= 2 * mpmath.pi
    return float(mean) - counting(level_divisor(polys), r), float(err)
