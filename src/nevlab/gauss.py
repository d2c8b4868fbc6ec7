"""Exact univariate polynomial arithmetic over the Gaussian rationals Q(i).

Everything downstream (wedge coordinates, Wronskians, gcd divisors) relies on
this module being exact: coefficients are pairs of ``fractions.Fraction`` and
no operation ever rounds.  Floating point enters only at the evaluation
boundary (``GaussPoly.eval``, ``roots``).

Products are fraction-free: a polynomial's coefficients are Gaussian-integer
numerators over one common denominator, and a product is computed on the
numerators packed into Python integers (Kronecker substitution, z = 2^width),
so each result coefficient becomes a ``Fraction`` once, at the end.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GaussRational",
    "GaussPoly",
    "Divisor",
    "PolyParseError",
    "RootFindingError",
    "parse_poly",
    "parse_rational",
    "poly_gcd",
    "squarefree_decomposition",
    "roots",
    "ROOT_RESIDUAL_TOL",
    "ROOT_SEPARATION_TOL",
]

# Residual tolerance for numeric roots, relative to coefficient magnitude.
ROOT_RESIDUAL_TOL = 1e-10
# Minimum distance between distinct divisor points (and from the origin).
ROOT_SEPARATION_TOL = 1e-8


@dataclass(frozen=True)
class GaussRational:
    """An element a + b*i of Q(i), with exact rational a, b."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "GaussRational":
        return GaussRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussRational") -> "GaussRational":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"({self.im})i"
        return f"{self.re} + ({self.im})i"


GR_ZERO = GaussRational.of(0)
GR_ONE = GaussRational.of(1)
GR_I = GaussRational.of(0, 1)
_F_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Fraction-free Gaussian-integer kernels
# ---------------------------------------------------------------------------
#
# A Gaussian-integer polynomial sum_k (a_k + b_k i) z^k is packed as the pair
# of integers (sum_k a_k 2^(width*k), sum_k b_k 2^(width*k)): its value at
# z = 2^width.  Sums and products of packed values are the packed sums and
# products, and a result unpacks exactly (as signed digits) while every
# coefficient magnitude stays below 2^(width-1).  A coefficient list of
# length one packs to its own numerators, whatever the width.  Only this
# module knows the format: GaussPoly products and linear combinations use it
# directly, and the determinant kernel in exterior works on PackedRows.


def _lcd_numerators(coeffs: Sequence[GaussRational]) -> tuple:
    """(den, [(re, im), ...]): Gaussian-integer numerators of the coefficients
    over their least common denominator den."""
    den = math.lcm(*(f.denominator for c in coeffs for f in (c.re, c.im)))
    return den, [(c.re.numerator * (den // c.re.denominator),
                  c.im.numerator * (den // c.im.denominator)) for c in coeffs]


def _l1_norm(nums: Sequence[tuple]) -> int:
    """Sum of |re| + |im| over integer coefficients; it bounds every
    coefficient of a product by the product of the factors' norms."""
    return sum(abs(a) + abs(b) for a, b in nums)


def _pack(nums: Sequence[tuple], width: int) -> tuple:
    """Pack integer (re, im) coefficients, ascending, at z = 2^width."""
    re = im = 0
    for a, b in reversed(nums):
        re = (re << width) + a
        im = (im << width) + b
    return re, im


def _unpack(value: int, width: int) -> list:
    """Signed base-2^width digits of value, lowest first, up to the top
    nonzero one."""
    mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
    digits = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= full
        digits.append(digit)
        value = (value - digit) >> width
    return digits


def gi_mul(a: tuple, b: tuple) -> tuple:
    """Product of two packed Gaussian integers (or packed polynomials)."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _rational(re: int, im: int, den: int) -> GaussRational:
    """(re + im i) / den, each part normalised to a Fraction once."""
    return GaussRational(Fraction(re, den) if re else _F_ZERO,
                         Fraction(im, den) if im else _F_ZERO)


def _as_gr(value) -> GaussRational:
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRational.of(value)
    raise TypeError(f"cannot coerce {value!r} to GaussRational")


@dataclass(frozen=True)
class GaussPoly:
    """Univariate polynomial over Q(i), coefficients ascending in the power of z.

    Canonical form: no trailing zero coefficients; the zero polynomial is the
    empty tuple and reports degree -1 (the degree sentinel).
    """

    coeffs: tuple

    def __post_init__(self):
        cs = self.coeffs
        if cs and not cs[-1]:
            cs = list(cs)
            while cs and not cs[-1]:
                cs.pop()
            object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def of(*coeffs) -> "GaussPoly":
        return GaussPoly.from_coeffs(_as_gr(c) for c in coeffs)

    @staticmethod
    def from_coeffs(coeffs: Iterable[GaussRational]) -> "GaussPoly":
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        return GaussPoly(tuple(cs))

    @staticmethod
    def zero() -> "GaussPoly":
        return GaussPoly(())

    @staticmethod
    def one() -> "GaussPoly":
        return GaussPoly((GR_ONE,))

    @staticmethod
    def z() -> "GaussPoly":
        return GaussPoly((GR_ZERO, GR_ONE))

    @staticmethod
    def constant(c) -> "GaussPoly":
        return GaussPoly.from_coeffs([_as_gr(c)])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> GaussRational:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> GaussRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else GR_ZERO

    def __add__(self, other: "GaussPoly") -> "GaussPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return GaussPoly.from_coeffs(
            self.coeff(k) + other.coeff(k) for k in range(n)
        )

    def __sub__(self, other: "GaussPoly") -> "GaussPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return GaussPoly.from_coeffs(
            self.coeff(k) - other.coeff(k) for k in range(n)
        )

    def __neg__(self) -> "GaussPoly":
        return GaussPoly(tuple(-c for c in self.coeffs))

    @cached_property
    def _numerators(self) -> tuple:
        """(den, [(re, im), ...]): the coefficients' Gaussian-integer
        numerators over their least common denominator."""
        return _lcd_numerators(self.coeffs)

    @staticmethod
    def _from_packed(value: tuple, width: int, den: int) -> "GaussPoly":
        """The polynomial whose numerators over den are packed in value."""
        re, im = _unpack(value[0], width), _unpack(value[1], width)
        size = max(len(re), len(im))
        re += [0] * (size - len(re))
        im += [0] * (size - len(im))
        return GaussPoly(tuple(_rational(a, b, den) for a, b in zip(re, im)))

    def __mul__(self, other: "GaussPoly") -> "GaussPoly":
        if self.is_zero() or other.is_zero():
            return GaussPoly.zero()
        da, a = self._numerators
        db, b = other._numerators
        width = (_l1_norm(a) * _l1_norm(b)).bit_length() + 1
        return GaussPoly._from_packed(
            gi_mul(_pack(a, width), _pack(b, width)), width, da * db)

    def scale(self, c: GaussRational) -> "GaussPoly":
        return linear_combination([_as_gr(c)], [self])

    def __pow__(self, k: int) -> "GaussPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = GaussPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divmod(self, other: "GaussPoly") -> tuple:
        """Exact Euclidean division: self = q*other + r with deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return GaussPoly.zero(), self
        quot = [GR_ZERO] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top:
                c = top / lead
                quot[k] = c
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return GaussPoly.from_coeffs(quot), GaussPoly.from_coeffs(rem)

    def __floordiv__(self, other: "GaussPoly") -> "GaussPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("non-exact polynomial division")
        return q

    def __mod__(self, other: "GaussPoly") -> "GaussPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "GaussPoly":
        return GaussPoly.from_coeffs(
            GaussRational(c.re * k, c.im * k)
            for k, c in enumerate(self.coeffs) if k > 0
        )

    def monic(self) -> "GaussPoly":
        if self.is_zero():
            return self
        return self.scale(GR_ONE / self.leading())

    def complex_coeffs(self) -> np.ndarray:
        """Float image of the coefficients, ascending; [0] for the zero poly."""
        if self.is_zero():
            return np.zeros(1, dtype=complex)
        return np.array([complex(c) for c in self.coeffs], dtype=complex)

    def eval(self, z: complex) -> complex:
        """Horner evaluation of the float image."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(z, self.complex_coeffs())

    def ord_at_zero(self) -> int:
        """Exact order of vanishing at the origin."""
        if self.is_zero():
            raise ValueError("order at zero undefined for the zero polynomial")
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        raise AssertionError("non-canonical polynomial")

    def shift_down(self, k: int) -> "GaussPoly":
        """Exact division by z^k (requires ord_at_zero >= k)."""
        if any(self.coeffs[j] for j in range(min(k, len(self.coeffs)))):
            raise ValueError("polynomial not divisible by z^k")
        return GaussPoly(self.coeffs[k:])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if c.im == 0:
                # parenthesize negatives so str/parse round-trips
                cs = str(c.re) if c.re >= 0 else f"({c.re})"
            elif c.re == 0:
                cs = f"({c.im})i"
            else:
                cs = f"({c.re} + ({c.im})i)"
            if k == 0:
                terms.append(cs)
            elif k == 1:
                terms.append(f"{cs}*z")
            else:
                terms.append(f"{cs}*z^{k}")
        return " + ".join(terms)


def linear_combination(cs: Sequence[GaussRational],
                       ps: Sequence[GaussPoly]) -> GaussPoly:
    """sum_k cs[k] * ps[k], fraction-free: the polynomials' numerators over
    one common denominator are packed and summed, and each result
    coefficient is normalised once."""
    terms = [(c, p) for c, p in zip(cs, ps) if c and not p.is_zero()]
    if not terms:
        return GaussPoly.zero()
    dc, cn = _lcd_numerators([c for c, _ in terms])
    parts = [p._numerators for _, p in terms]
    dp = math.lcm(*(d for d, _ in parts))
    pn = [[(a * (dp // d), b * (dp // d)) for a, b in ns] for d, ns in parts]
    bound = sum((abs(a) + abs(b)) * _l1_norm(ns) for (a, b), ns in zip(cn, pn))
    width = bound.bit_length() + 1
    re = im = 0
    for c, ns in zip(cn, pn):
        pr, pi = gi_mul(c, _pack(ns, width))
        re, im = re + pr, im + pi
    return GaussPoly._from_packed((re, im), width, dc * dp)


class PackedRows:
    """A matrix of GaussPoly or GaussRational entries as packed Gaussian
    integers, for the determinant kernel.

    Row r is scaled by the common denominator of its entries, so rows holds
    Gaussian integers; all entries are packed at one width, wide enough for
    every minor of the leading rows, whose coefficients are bounded by the
    product of the row norms.  A packed minor of the first k rows turns back
    into its exact value over the product of the first k row scales.
    """

    def __init__(self, rows: Sequence[Sequence]):
        entries = [[e.coeffs if isinstance(e, GaussPoly) else (e,) for e in r]
                   for r in rows]
        flats, self.dens, self.scales = [], [], [1]
        for r in entries:
            den, flat = _lcd_numerators([c for cs in r for c in cs])
            flats.append(flat)
            self.dens.append(den)
            self.scales.append(self.scales[-1] * den)
        # the extra bit keeps width >= 2, so the empty minor 1 unpacks too
        self.width = sum(_l1_norm(f).bit_length() for f in flats) + 2
        self.rows = []
        for r, flat in zip(entries, flats):
            row, start = [], 0
            for cs in r:
                row.append(_pack(flat[start:start + len(cs)], self.width))
                start += len(cs)
            self.rows.append(row)

    def poly(self, value: tuple, k: int) -> GaussPoly:
        """The polynomial minor of the first k rows packed in value."""
        return GaussPoly._from_packed(value, self.width, self.scales[k])

    def scalar(self, value: tuple, k: int) -> GaussRational:
        """The scalar minor of the first k rows packed in value."""
        return _rational(value[0], value[1], self.scales[k])

    def scalar_complex(self, value: tuple, rows: Sequence[int]) -> complex:
        """complex() of the scalar minor of the given rows packed in value.
        Each part is one int/int true division, which is correctly rounded,
        so it equals complex(scalar(...)): float() of a Fraction divides the
        same way."""
        den = math.prod(self.dens[i] for i in rows)
        return complex(value[0] / den, value[1] / den)


@dataclass(frozen=True)
class Divisor:
    """An effective divisor on C: exact order at 0 plus isolated points.

    Points are (location, multiplicity) with numeric locations; multiplicities
    come from exact squarefree data.  Locations must stay pairwise separated
    by ROOT_SEPARATION_TOL and away from the origin.
    """

    ord_at_zero: int
    points: tuple

    def __post_init__(self):
        if self.ord_at_zero < 0:
            raise ValueError("ord_at_zero must be nonnegative")
        locs = [p for p, _ in self.points]
        for p, m in self.points:
            if m <= 0:
                raise ValueError("multiplicities must be positive")
            if abs(p) < ROOT_SEPARATION_TOL:
                raise ValueError(
                    "divisor point too close to the origin; use ord_at_zero"
                )
        for a, b in itertools.combinations(locs, 2):
            if abs(a - b) < ROOT_SEPARATION_TOL:
                raise ValueError(
                    f"divisor points {a} and {b} violate the separation tolerance"
                )

    @staticmethod
    def empty() -> "Divisor":
        return Divisor(0, ())

    def total_multiplicity(self) -> int:
        return self.ord_at_zero + sum(m for _, m in self.points)

    def is_empty(self) -> bool:
        return self.ord_at_zero == 0 and not self.points


class RootFindingError(Exception):
    """Raised when numeric root extraction fails on a squarefree factor."""

    def __init__(self, message: str, factor: GaussPoly):
        super().__init__(message)
        self.factor = factor


def poly_gcd(p: GaussPoly, q: GaussPoly) -> GaussPoly:
    """Monic gcd by the Euclidean algorithm over Q(i)."""
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def squarefree_decomposition(p: GaussPoly) -> list:
    """Yun's algorithm: returns [(factor, multiplicity)] with monic squarefree,
    pairwise coprime factors whose weighted product equals p up to a unit."""
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    if p.is_constant():
        return []
    p = p.monic()
    g = poly_gcd(p, p.derivative())
    if g.is_constant():
        return [(p, 1)]
    out = []
    w = p // g
    y = p.derivative() // g
    z = y - w.derivative()
    i = 1
    while not w.is_constant():
        gi = poly_gcd(w, z) if not z.is_zero() else w.monic()
        if gi.degree > 0:
            out.append((gi, i))
        w = w // gi
        if w.is_constant():
            break
        y = z // gi
        z = y - w.derivative()
        i += 1
    return out


def _roots_of_squarefree(f: GaussPoly, tol: float) -> list:
    """Numeric simple roots of an exact squarefree polynomial (f(0) != 0)."""
    cs = f.complex_coeffs()
    if f.degree < 1:
        return []
    raw = np.roots(cs[::-1])
    scale = float(np.max(np.abs(cs)))
    deriv = f.derivative()
    polished = []
    for r in raw:
        # A few Newton steps sharpen companion-matrix eigenvalues.
        for _ in range(8):
            fv = f.eval(r)
            dv = deriv.eval(r)
            if dv == 0:
                break
            step = fv / dv
            r = r - step
            if abs(step) < 1e-15 * max(1.0, abs(r)):
                break
        residual_scale = tol * scale * max(1.0, abs(r)) ** f.degree
        if abs(f.eval(r)) > residual_scale:
            raise RootFindingError(
                f"root iteration failed to converge (residual {abs(f.eval(r)):.3e})",
                f,
            )
        polished.append(complex(r))
    return polished


def roots(p: GaussPoly, tol: float = ROOT_RESIDUAL_TOL) -> Divisor:
    """All complex roots of p as a Divisor with exact multiplicities.

    Multiplicities come from the squarefree decomposition; each squarefree
    factor is rooted numerically, so every numeric root is simple.
    """
    if p.is_zero():
        raise ValueError("roots of the zero polynomial")
    ord0 = p.ord_at_zero()
    q = p.shift_down(ord0)
    points = []
    for factor, mult in squarefree_decomposition(q):
        for loc in _roots_of_squarefree(factor, tol):
            points.append((loc, mult))
    points.sort(key=lambda pm: (abs(pm[0]), np.angle(pm[0])))
    return Divisor(ord_at_zero=ord0, points=tuple(points))


# ---------------------------------------------------------------------------
# Polynomial text grammar
# ---------------------------------------------------------------------------
#
# Terms C*z^k, C*z, C; coefficient C is a/b, a, (a/b)i, or sums like
# 1/2 + (1/3)i; whitespace insignificant; ^ for powers.  Implemented as a
# small expression parser so parenthesized coefficient sums work too.

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([izZ*/^()+\-]))")


class PolyParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.pos = pos


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise PolyParseError(
                    f"unexpected character {stripped[0]!r}", text, pos
                )
            if m.group(1) is not None:
                self.tokens.append(("num", int(m.group(1)), m.start(1)))
            else:
                sym = m.group(2).lower()
                self.tokens.append((sym, None, m.start(2)))
            pos = m.end()
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.idx += 1
        return tok

    def error(self, message: str):
        tok = self.peek()
        pos = tok[2] if tok else len(self.text)
        raise PolyParseError(message, self.text, pos)

    def parse(self) -> GaussPoly:
        value = self.expr()
        if self.peek() is not None:
            self.error("trailing input")
        return value

    def expr(self) -> GaussPoly:
        sign = 1
        tok = self.peek()
        if tok and tok[0] in "+-":
            self.next()
            sign = -1 if tok[0] == "-" else 1
        value = self.term()
        if sign < 0:
            value = -value
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in "+-":
                return value
            self.next()
            rhs = self.term()
            value = value + rhs if tok[0] == "+" else value - rhs

    def term(self) -> GaussPoly:
        value = self.power()
        while True:
            tok = self.peek()
            if tok is None:
                return value
            if tok[0] == "*":
                self.next()
                value = value * self.power()
            elif tok[0] in ("num", "i", "z", "("):
                # implicit multiplication, e.g. "(1/3)i" or "2z"
                value = value * self.power()
            else:
                return value

    def power(self) -> GaussPoly:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "^":
            self.next()
            etok = self.next()
            if etok is None or etok[0] != "num":
                self.error("expected integer exponent after '^'")
            return base ** etok[1]
        return base

    def atom(self) -> GaussPoly:
        tok = self.next()
        if tok is None:
            self.error("unexpected end of input")
        kind = tok[0]
        if kind == "num":
            num = tok[1]
            nxt = self.peek()
            if nxt and nxt[0] == "/":
                self.next()
                dtok = self.next()
                if dtok is None or dtok[0] != "num":
                    self.error("expected integer denominator")
                if dtok[1] == 0:
                    raise PolyParseError("zero denominator", self.text, dtok[2])
                return GaussPoly.constant(Fraction(num, dtok[1]))
            return GaussPoly.constant(num)
        if kind == "i":
            return GaussPoly.constant(GR_I)
        if kind == "z":
            return GaussPoly.z()
        if kind == "(":
            value = self.expr()
            closer = self.next()
            if closer is None or closer[0] != ")":
                self.error("expected ')'")
            return value
        raise PolyParseError(f"unexpected token {kind!r}", self.text, tok[2])


def parse_poly(text: str) -> GaussPoly:
    """Parse the polynomial text grammar into an exact GaussPoly."""
    return _Parser(text).parse()


def parse_rational(text: str) -> GaussRational:
    """Parse a constant of the grammar (used for hyperplane coefficients)."""
    p = parse_poly(text)
    if p.degree > 0:
        raise PolyParseError("expected a constant, found z", text, 0)
    return p.coeff(0)
