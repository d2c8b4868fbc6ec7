"""Polynomial lifts of holomorphic curves and their associated wedge curves."""

from __future__ import annotations

from typing import Sequence

from .gauss import Divisor, GaussPoly, poly_gcd, roots
from .exterior import WedgeVector, wedge_layers, wedge_rows

__all__ = [
    "CurveLift",
    "DegenerateCurveError",
    "normalize",
    "associated",
    "leibniz_partner",
    "wronskian",
    "level_divisor",
    "ramification_divisor",
    "coordinate_gcd",
    "associated_family",
    "level_polys",
]


class DegenerateCurveError(ValueError):
    """The curve violates a nondegeneracy hypothesis (names which one)."""


class CurveLift:
    """A primitive polynomial lift x: C -> C^{n+1}, coords its n+1 GaussPoly
    entries.

    Use ``normalize`` to construct one; it divides out the common polynomial
    factor so the coordinates have no common zero.
    """

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords: tuple):
        if len(coords) != n + 1:
            raise ValueError("lift needs n+1 coordinates")
        if all(p.is_zero() for p in coords):
            raise ValueError("lift cannot be identically zero")
        self.n, self.coords = n, coords

    def derivative_rows(self, count: int) -> list:
        """Rows x, x', ..., x^{(count-1)} as lists of GaussPoly."""
        rows = []
        current = list(self.coords)
        for _ in range(count):
            rows.append(current)
            current = [p.derivative() for p in current]
        return rows

    def is_nondegenerate(self) -> bool:
        """Linear independence of the coordinates (Wronskian not identically 0)."""
        return not wronskian(self).is_zero()


def coordinate_gcd(polys: Sequence[GaussPoly]) -> GaussPoly:
    """Monic gcd of a family of polynomials, not all zero."""
    acc = None
    for p in polys:
        if p.is_zero():
            continue
        acc = p.monic() if acc is None else poly_gcd(acc, p)
        if acc.is_constant():
            return GaussPoly.one()
    if acc is None:
        raise ValueError("gcd of an all-zero family")
    return acc


def normalize(raw: Sequence[GaussPoly]) -> CurveLift:
    """Divide out the exact common factor of the coordinates; result primitive."""
    polys = list(raw)
    if all(p.is_zero() for p in polys):
        raise ValueError("cannot normalize the zero lift")
    g = coordinate_gcd(polys)
    if not g.is_constant():
        polys = [p // g if not p.is_zero() else p for p in polys]
    return CurveLift(n=len(polys) - 1, coords=tuple(polys))


def associated(x: CurveLift, d: int) -> WedgeVector:
    """The associated wedge X^d = x ^ x' ^ ... ^ x^{(d-1)}; X^0 is the scalar 1."""
    if not (0 <= d <= x.n + 1):
        raise ValueError(f"associated level d={d} out of range 0..{x.n + 1}")
    return wedge_rows(x.derivative_rows(d), x.n)


def leibniz_partner(x: CurveLift, d: int) -> WedgeVector:
    """The derivative wedge x ^ x' ^ ... ^ x^{(d-2)} ^ x^{(d)}.

    Coordinatewise this equals the derivative of associated(x, d): all other
    terms of the product rule repeat a row and vanish.  The numeric code
    differentiates X^d instead (NodeBatch.partner); this direct-minor route is
    kept as the independent side of that relation for criterion 02 and
    ``nevlab verify identities``.
    """
    if not (1 <= d <= x.n):
        raise ValueError(f"leibniz partner level d={d} out of range 1..{x.n}")
    rows = x.derivative_rows(d + 1)
    return wedge_rows(rows[: d - 1] + [rows[d]], x.n)


def wronskian(x: CurveLift) -> GaussPoly:
    """X^{n+1}: the Wronskian of the coordinate functions (a single polynomial)."""
    return associated(x, x.n + 1).polys()[0]


def associated_family(x: CurveLift) -> list:
    """All associated wedges X^0, ..., X^{n+1}, from one minor table."""
    return wedge_layers(x.derivative_rows(x.n + 1), x.n)


def level_polys(family: Sequence[WedgeVector], d: int) -> list:
    """X^d's coordinates in an associated_family list, refusing a level out
    of range or a zero X^d."""
    if not 0 <= d < len(family):
        raise ValueError(f"associated level d={d} out of range "
                         f"0..{len(family) - 1}")
    if family[d].is_zero():
        raise DegenerateCurveError(f"curve degenerate at level d={d}")
    return family[d].polys()


def level_divisor(polys: Sequence[GaussPoly]) -> Divisor:
    """Divisor of the exact gcd of the Pluecker coordinate polynomials of a
    nonzero derived curve X^d (for d = 2, the ramification divisor)."""
    g = coordinate_gcd(polys)
    return Divisor.empty() if g.is_constant() else roots(g)


def ramification_divisor(x: CurveLift) -> Divisor:
    """Divisor of the exact gcd of the Pluecker coordinates of x ^ x'."""
    w = associated(x, 2)
    if w.is_zero():
        raise DegenerateCurveError(
            "constant curve: x ^ x' vanishes identically, no ramification divisor"
        )
    return level_divisor(w.polys())
