"""The record classes: equality, hashing and immutability of the value types,
the validation each constructor does, and ``cli.with_tol``.

The value types compare equal by their field tuple, and only to instances
of their own class; they hash as that tuple, and assignment to a field
raises ``AttributeError``."""

from fractions import Fraction

import pytest

from nevlab.cli import RunConfig, parse_config, with_tol
from nevlab.curve import CurveLift
from nevlab.exterior import (MultiIndex, WedgeForm, WedgeVector,
                             balanced_check, distance_one_collection)
from nevlab.gauss import Divisor, GaussPoly, GaussRational, parse_poly
from nevlab.nevanlinna import RadialValue

from test_cli import GOOD


def _gr(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


class TestValueTypes:
    @pytest.mark.parametrize("make,fields", [
        (lambda: _gr(Fraction(1, 2), -3), (Fraction(1, 2), Fraction(-3))),
        (lambda: parse_poly("1/2 + (2/3)i*z^2"),
         (((3, 0), (0, 0), (0, 4)), 6)),
        (lambda: MultiIndex((0, 2, 3), 4), ((0, 2, 3), 4)),
    ], ids=["GaussRational", "GaussPoly", "MultiIndex"])
    def test_equal_and_hashed_by_fields(self, make, fields):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(fields)
        assert len({a, b}) == 1
        # another class never compares equal, not even the field tuple
        assert a != fields and fields != a

    def test_unequal_values(self):
        assert _gr(1, 2) != _gr(2, 1)
        assert parse_poly("z") != parse_poly("2z")
        assert MultiIndex((0, 1), 2) != MultiIndex((0, 1), 3)
        assert MultiIndex((0, 1), 2) != MultiIndex((0, 2), 2)

    @pytest.mark.parametrize("value,field", [
        (_gr(1), "re"),
        (parse_poly("z + 1"), "den"),
        (MultiIndex((0, 1), 2), "n"),
    ], ids=["GaussRational", "GaussPoly", "MultiIndex"])
    def test_immutable(self, value, field):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, 7)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) == before

    def test_cached_coefficients_keep_equality(self):
        p, q = parse_poly("z^2 - i"), parse_poly("z^2 - i")
        p.coeffs  # noqa: B018 -- fills the cache of one side only
        assert p == q and hash(p) == hash(q)

    def test_multi_index_repr_orders_balanced_counts(self):
        assert repr(MultiIndex((0, 2), 3)) == "MultiIndex(elements=(0, 2), n=3)"
        counts = balanced_check(distance_one_collection(3, 2).pairs).counts
        assert [mi.elements for mi, _ in counts] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


class TestValidation:
    @pytest.mark.parametrize("args,message", [
        ((-1, ()), "ord_at_zero must be nonnegative"),
        ((0, ((1 + 0j, 0),)), "multiplicities must be positive"),
        ((0, ((1e-9, 1),)), "too close to the origin"),
        ((0, ((1 + 0j, 1), (1 + 1e-9j, 2))), "violate the separation"),
    ])
    def test_divisor(self, args, message):
        with pytest.raises(ValueError, match=message):
            Divisor(*args)

    def test_divisor_fields(self):
        d = Divisor(ord_at_zero=2, points=((3 + 0j, 1),))
        assert (d.ord_at_zero, d.points) == (2, ((3 + 0j, 1),))
        empty = Divisor.empty()
        assert (empty.ord_at_zero, empty.points) == (0, ())

    @pytest.mark.parametrize("args,message", [
        (((1, 1), 3), "strictly increasing"),
        (((2, 1), 3), "strictly increasing"),
        (((0, 4), 3), "out of range"),
        (((-1, 0), 3), "out of range"),
    ])
    def test_multi_index(self, args, message):
        with pytest.raises(ValueError, match=message):
            MultiIndex(*args)

    def test_wedge_vector(self):
        one = GaussPoly.one()
        coords = tuple((MultiIndex((k,), 2), one) for k in range(3))
        assert WedgeVector(2, 1, coords).coords == coords
        with pytest.raises(ValueError, match="cover all multi-indices"):
            WedgeVector(2, 1, coords[:2])
        with pytest.raises(ValueError, match="cover all multi-indices"):
            WedgeVector(2, 1, coords[::-1])

    def test_wedge_form(self):
        F = WedgeForm(2, ((_gr(1), _gr(0), _gr(2)),))
        assert (F.n, F.degree) == (2, 1)
        with pytest.raises(ValueError, match="form length must be n\\+1"):
            WedgeForm(2, ((_gr(1), _gr(0)),))

    def test_curve_lift(self):
        one, zero = GaussPoly.one(), GaussPoly.zero()
        assert CurveLift(n=1, coords=(one, zero)).coords == (one, zero)
        with pytest.raises(ValueError, match="lift needs n\\+1 coordinates"):
            CurveLift(2, (one, one))
        with pytest.raises(ValueError, match="cannot be identically zero"):
            CurveLift(1, (zero, zero))


class TestRunConfig:
    def test_equality_by_fields(self):
        a, b = parse_config(GOOD), parse_config(GOOD)
        assert a == b
        assert a != with_tol(a, a.tol / 2)
        assert a != parse_config(GOOD.replace("r_points = 3", "r_points = 4"))
        assert a != (a.curve, a.hyperplanes, a.r_min, a.r_max, a.r_points,
                     a.tol)

    def test_with_tol_keeps_every_other_field(self):
        cfg = parse_config(GOOD)
        got = with_tol(cfg, 1e-4)
        assert got is not cfg and got.tol == 1e-4
        for name in ("curve", "hyperplanes", "r_min", "r_max", "r_points"):
            assert getattr(got, name) is getattr(cfg, name)
        assert with_tol(cfg, None) is cfg

    def test_default_tol(self):
        cfg = parse_config(GOOD)
        assert RunConfig(cfg.curve, cfg.hyperplanes, 1.0, 2.0, 2).tol == 1e-6


def test_radial_value_equality():
    a = RadialValue(r=2.0, value=0.5, quadrature_nodes=256, converged=True)
    assert a == RadialValue(2.0, 0.5, 256, True)
    assert a != RadialValue(2.0, 0.5, 512, True)
    assert a != RadialValue(2.0, 0.5, 256, False)
