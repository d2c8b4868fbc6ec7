import pytest
import sympy

from nevlab.curve import (
    CurveLift,
    DegenerateCurveError,
    associated,
    associated_family,
    coordinate_gcd,
    leibniz_partner,
    normalize,
    ramification_divisor,
    wronskian,
)
from nevlab.gauss import GaussPoly, parse_poly

from conftest import monomial_lift, rand_poly


def _to_sympy(p, z):
    return sum(
        (sympy.Rational(c.re) + sympy.Rational(c.im) * sympy.I) * z ** k
        for k, c in enumerate(p.coeffs)
    )


class TestNormalize:
    def test_divides_common_factor(self):
        raw = [parse_poly("z*(z-1)"), parse_poly("z^2*(z-1)")]
        x = normalize(raw)
        assert [str(p) for p in x.coords] == ["1", "1*z"]

    def test_primitive_untouched(self):
        raw = [parse_poly("1"), parse_poly("z^3")]
        x = normalize(raw)
        assert x.coords == tuple(raw)

    def test_zero_lift_rejected(self):
        with pytest.raises(ValueError):
            normalize([GaussPoly.zero(), GaussPoly.zero()])


class TestWronskian:
    def test_against_sympy_determinant(self, rng):
        z = sympy.symbols("z")
        for _ in range(8):
            n = rng.randint(1, 3)
            x = normalize([rand_poly(rng, max_deg=3, nonzero=True)
                           for _ in range(n + 1)])
            w = wronskian(x)
            mat = sympy.Matrix([
                [sympy.diff(_to_sympy(p, z), z, k) for p in x.coords]
                for k in range(n + 1)
            ])
            want = sympy.expand(mat.det())
            got = sympy.expand(_to_sympy(w, z))
            assert sympy.simplify(got - want) == 0

    def test_degenerate_detection(self):
        # third coordinate is a linear combination of the others
        x = CurveLift(2, (parse_poly("1"), parse_poly("z"), parse_poly("2z")))
        assert not x.is_nondegenerate()
        assert wronskian(x).is_zero()

    def test_moment_curve_constant_wronskian(self):
        x = monomial_lift(0, 1, 2, 3)
        w = wronskian(x)
        assert w.is_constant()
        assert not w.is_zero()


class TestAssociated:
    def test_level_bounds(self):
        x = monomial_lift(0, 1)
        with pytest.raises(ValueError):
            associated(x, 3)
        assert associated(x, 0).polys()[0] == GaussPoly.one()

    def test_family_levels(self):
        x = monomial_lift(0, 1, 2)
        fam = associated_family(x)
        assert len(fam) == 4
        assert [X.degree for X in fam] == [0, 1, 2, 3]

    def test_leibniz_is_coordinatewise_derivative(self, rng):
        for _ in range(6):
            n = rng.randint(1, 3)
            x = normalize([rand_poly(rng, max_deg=3, nonzero=True)
                           for _ in range(n + 1)])
            for d in range(1, n + 1):
                X = associated(x, d)
                Y = leibniz_partner(x, d)
                for (mi, p), (mj, q) in zip(X.coords, Y.coords):
                    assert mi == mj
                    assert p.derivative() == q


class TestRamification:
    def test_unramified_line(self):
        d = ramification_divisor(monomial_lift(0, 1))
        assert (d.ord_at_zero, d.points) == (0, ())

    def test_double_cover_ramifies_at_origin(self):
        d = ramification_divisor(monomial_lift(0, 2))
        assert d.ord_at_zero == 1
        assert d.points == ()

    def test_constant_curve_rejected(self):
        x = CurveLift(1, (parse_poly("2"), parse_poly("3")))
        with pytest.raises(DegenerateCurveError):
            ramification_divisor(x)

    def test_gcd_route_matches_min_order_route(self, rng):
        """Independent oracle: at each root of the wedge gcd, the multiplicity
        is the minimum order of vanishing over the wedge coordinates."""
        z = sympy.symbols("z")
        for _ in range(6):
            n = rng.randint(1, 2)
            x = normalize([rand_poly(rng, max_deg=3, nonzero=True)
                           for _ in range(n + 1)])
            w = associated(x, 2)
            if w.is_zero():
                continue
            d = ramification_divisor(x)
            spolys = [sympy.Poly(_to_sympy(p, z), z)
                      for p in w.polys() if not p.is_zero()]
            locations = ([0j] * (1 if d.ord_at_zero else 0)
                         + [loc for loc, _ in d.points])
            mults = ([d.ord_at_zero] if d.ord_at_zero else []) + [
                m for _, m in d.points]
            for loc, mult in zip(locations, mults):
                orders = []
                for sp in spolys:
                    order = 0
                    q = sp
                    while True:
                        val = complex(q.eval(sympy.nsimplify(loc, rational=False)))
                        if abs(val) > 1e-6:
                            break
                        order += 1
                        q = q.diff()
                    orders.append(order)
                assert min(orders) == mult


class TestCoordinateGcd:
    def test_monic_gcd(self):
        g = coordinate_gcd([parse_poly("2z^2 - 2z"), parse_poly("3z^3 - 3z^2")])
        assert g == parse_poly("z^2 - z").monic()

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            coordinate_gcd([GaussPoly.zero()])
