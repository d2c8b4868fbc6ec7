"""Exact univariate polynomial arithmetic over the Gaussian rationals Q(i).

Everything downstream (wedge coordinates, Wronskians, gcd divisors) relies on
this module being exact: no operation ever rounds.  Floating point enters only
at the evaluation boundary (``GaussPoly.eval``, ``roots``), and numpy is
imported only inside the boundary functions that use it
(``GaussPoly.complex_coeffs`` and the root polish and sort of ``roots``), so
commands that stay exact never load it.  The float tolerances live here too,
the root tolerances and the quadrature defaults ``QUAD_TOL`` and
``QUAD_NODE_CAP`` (re-exported by nevanlinna), so that configuration parsing
and the numpy-free height quadrature (heights) load no numeric module.

A GaussPoly stores one form, (nums, den): the ascending tuple of its
Gaussian-integer numerators (re, im), Python ints, over one integer den.  The
form is canonical -- no trailing zero numerator, den > 0 and gcd(den, every
re, every im) == 1, so zero is ((), 1) -- and equality and hashing follow the
value.  Every operation works on the integers and normalises its result once.
GaussRational, a pair of ``Fraction``s, is the scalar type at the API
boundary: hyperplane forms, parsed constants and the ``GaussPoly.coeffs`` view.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GaussRational",
    "GaussPoly",
    "Divisor",
    "PolyParseError",
    "RootFindingError",
    "parse_poly",
    "parse_rational",
    "products_sum_to_zero",
    "poly_gcd",
    "squarefree_decomposition",
    "roots",
    "ROOT_RESIDUAL_TOL",
    "ROOT_SEPARATION_TOL",
    "QUAD_TOL",
    "QUAD_NODE_CAP",
    "lag_products",
]

# Residual tolerance for numeric roots, relative to coefficient magnitude.
ROOT_RESIDUAL_TOL = 1e-10
# Minimum distance between distinct divisor points (and from the origin).
ROOT_SEPARATION_TOL = 1e-8
# Default absolute tolerance of the circle quadratures (nevanlinna, heights).
QUAD_TOL = 1e-6
# Most nodes either circle quadrature doubles up to.
QUAD_NODE_CAP = 2 ** 20


def refuse_assignment(self, name, value=None):
    """__setattr__ and __delattr__ of the immutable value types, which set
    their fields once through object.__setattr__."""
    raise AttributeError(f"cannot assign to field {name!r}")


class GaussRational:
    """An element a + b*i of Q(i), with exact rational a, b; immutable, and
    equality and hashing follow the pair (re, im)."""

    __slots__ = ("re", "im")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, re: Fraction, im: Fraction):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def __eq__(self, other):
        if other.__class__ is not GaussRational:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

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
_GR_MINUS_ONE = GaussRational.of(-1)


# ---------------------------------------------------------------------------
# Gaussian-integer kernels
# ---------------------------------------------------------------------------
#
# Products pack numerators sum_k (a_k + b_k i) z^k into the pair of integers
# (sum_k a_k 2^(width*k), sum_k b_k 2^(width*k)), their value at z = 2^width
# (Kronecker substitution).  Sums and products of packed values are the
# packed sums and products, and a result unpacks exactly (as signed digits)
# while every coefficient magnitude stays below 2^(width-1).  A coefficient
# list of length one packs to its own numerators, whatever the width.  Only
# this module knows either format: the determinant kernel in exterior works
# on PackedRows.


def _lcd_numerators(coeffs: Sequence[GaussRational]) -> tuple:
    """(den, [(re, im), ...]): Gaussian-integer numerators of the coefficients
    over their least common denominator den."""
    den = math.lcm(*(f.denominator for c in coeffs for f in (c.re, c.im)))
    return den, [(c.re.numerator * (den // c.re.denominator),
                  c.im.numerator * (den // c.im.denominator)) for c in coeffs]


def _l1_norm(nums: Sequence[tuple]) -> int:
    """Sum of |re| + |im| over integer coefficients; it bounds every
    coefficient of a product by the product of the factors' norms."""
    return sum(map(abs, itertools.chain.from_iterable(nums)))


def _pack(nums: Sequence[tuple], width: int) -> tuple:
    """Pack integer (re, im) coefficients, ascending, at z = 2^width."""
    re = im = 0
    for a, b in reversed(nums):
        re = (re << width) + a
        im = (im << width) + b
    return re, im


def _unpack(value: tuple, width: int) -> list:
    """The (re, im) coefficients packed in value at z = 2^width: each part's
    signed base-2^width digits, lowest first, up to the top nonzero one."""
    mask, half, full = (1 << width) - 1, 1 << (width - 1), 1 << width
    parts = []
    for part in value:
        digits = []
        while part:
            digit = part & mask
            if digit >= half:
                digit -= full
            digits.append(digit)
            part = (part - digit) >> width
        parts.append(digits)
    return list(itertools.zip_longest(*parts, fillvalue=0))


def gi_mul(a: tuple, b: tuple) -> tuple:
    """Product of two packed Gaussian integers (or packed polynomials)."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _times(nums: Sequence[tuple], c: tuple) -> list:
    """Each Gaussian-integer numerator times the Gaussian integer c."""
    cr, ci = c
    return [(a * cr - b * ci, a * ci + b * cr) for a, b in nums]


def _convolve(a: Sequence[tuple], b: Sequence[tuple]) -> list:
    """The product of two ascending Gaussian-integer coefficient lists,
    packed at a width that unpacks it exactly (a list of length one is a
    scale)."""
    if len(a) == 1:
        return _times(b, a[0])
    if len(b) == 1:
        return _times(a, b[0])
    width = (_l1_norm(a) * _l1_norm(b)).bit_length() + 1
    return _unpack(gi_mul(_pack(a, width), _pack(b, width)), width)


def _power(nums: Sequence[tuple], k: int) -> list:
    """The coefficient list nums^k, for k >= 0.  The factor z^m of the
    lowest nonzero coefficient goes to a shift by m*k; the rest is squared
    and multiplied, at most 2*log2(k) products (none for a monomial, whose
    coefficient powers as a Gaussian integer)."""
    if k == 0:
        return [(1, 0)]
    m = next((j for j, c in enumerate(nums) if c != (0, 0)), None)
    if m is None:
        return []
    monomial = len(nums) == m + 1
    base, mul = (nums[m], gi_mul) if monomial else (nums[m:], _convolve)
    acc, e = None, k
    while e:
        if e & 1:
            acc = base if acc is None else mul(acc, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return [(0, 0)] * (m * k) + ([acc] if monomial else list(acc))


def _rational(re: int, im: int, den: int) -> GaussRational:
    """(re + im i) / den, each part normalised to a Fraction once."""
    return GaussRational(Fraction(re, den), Fraction(im, den))


def _as_gr(value) -> GaussRational:
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRational.of(value)
    raise TypeError(f"cannot coerce {value!r} to GaussRational")


def _poly(nums: Iterable[tuple], den: int = 1) -> "GaussPoly":
    """The canonical GaussPoly sum_k nums[k] z^k / den, for den > 0."""
    nums = list(nums)
    while nums and nums[-1] == (0, 0):
        nums.pop()
    g = math.gcd(den, *itertools.chain.from_iterable(nums))
    if g != 1:
        nums = [(a // g, b // g) for a, b in nums]
    p = object.__new__(GaussPoly)
    object.__setattr__(p, "nums", tuple(nums))
    object.__setattr__(p, "den", den // g)
    return p


def _pseudo_divmod(a: Sequence[tuple], b: Sequence[tuple]) -> tuple:
    """(s, q, r) with s*a = q*b + r over Z[i], deg r < deg b and s a positive
    integer, for Gaussian-integer coefficients a and b != 0.

    Euclid runs against b' = conj(beta) * b, beta the leading coefficient of
    b, whose leading coefficient N = |beta|^2 is an integer.  The quotient
    digit of a top coefficient t is t*f/N, a Gaussian integer once the
    remainder is scaled by f = N / gcd(N, t), and it is scaled by no more.
    So q/s and r/s are the quotient and remainder of Euclid over Q(i).
    """
    conj = (b[-1][0], -b[-1][1])
    bc = _times(b, conj)
    n, db = bc[-1][0], len(b) - 1
    r, q, s = list(a), [(0, 0)] * (len(a) - db), 1
    for k in range(len(q) - 1, -1, -1):
        tr, ti = r[k + db]
        if not (tr or ti):
            continue
        g = math.gcd(n, tr, ti)
        f = n // g
        if f != 1:
            s *= f
            r = [(x * f, y * f) for x, y in r[:k + db + 1]]
            q = [(x * f, y * f) for x, y in q]
        cr, ci = q[k] = tr // g, ti // g
        for j, (xr, xi) in enumerate(bc):
            x, y = r[k + j]
            r[k + j] = (x - cr * xr + ci * xi, y - cr * xi - ci * xr)
    return s, _times(q, conj), r[:db]


class GaussPoly:
    """Univariate polynomial over Q(i) in the canonical (nums, den) form;
    the zero polynomial reports degree -1 (the degree sentinel).
    GaussPoly(coeffs) builds one from GaussRational coefficients ascending
    in the power of z, and coeffs is the same view back, derived and cached
    (in the instance __dict__, so the class has no __slots__).  Immutable;
    equality and hashing follow (nums, den).
    """

    __setattr__ = __delattr__ = refuse_assignment

    def __new__(cls, coeffs: Iterable[GaussRational] = ()):
        den, nums = _lcd_numerators([_as_gr(c) for c in coeffs])
        return _poly(nums, den)

    def __eq__(self, other):
        if other.__class__ is not GaussPoly:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    @staticmethod
    def zero() -> "GaussPoly":
        return _poly(())

    @staticmethod
    def one() -> "GaussPoly":
        return _poly([(1, 0)])

    @staticmethod
    def z() -> "GaussPoly":
        return _poly([(0, 0), (1, 0)])

    @cached_property
    def coeffs(self) -> tuple:
        """The coefficients as GaussRationals, ascending."""
        return tuple(_rational(a, b, self.den) for a, b in self.nums)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    def coeff(self, k: int) -> GaussRational:
        """Coefficient k, built alone."""
        if not 0 <= k < len(self.nums):
            return GR_ZERO
        return _rational(*self.nums[k], self.den)

    def __add__(self, other: "GaussPoly") -> "GaussPoly":
        return linear_combination((GR_ONE, GR_ONE), (self, other))

    def __sub__(self, other: "GaussPoly") -> "GaussPoly":
        return linear_combination((GR_ONE, _GR_MINUS_ONE), (self, other))

    def __neg__(self) -> "GaussPoly":
        return _poly([(-a, -b) for a, b in self.nums], self.den)

    def __mul__(self, other: "GaussPoly") -> "GaussPoly":
        return _poly(_convolve(self.nums, other.nums), self.den * other.den)

    def scale(self, c: GaussRational) -> "GaussPoly":
        den, num = _lcd_numerators([_as_gr(c)])
        return _poly(_times(self.nums, num[0]), den * self.den)

    def __pow__(self, k: int) -> "GaussPoly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        return _poly(_power(self.nums, k), self.den ** k)

    def divmod(self, other: "GaussPoly") -> tuple:
        """Exact Euclidean division: self = q*other + r with deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        s, q, r = _pseudo_divmod(self.nums, other.nums)
        den = s * self.den
        return _poly(_times(q, (other.den, 0)), den), _poly(r, den)

    def __floordiv__(self, other: "GaussPoly") -> "GaussPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("non-exact polynomial division")
        return q

    def __mod__(self, other: "GaussPoly") -> "GaussPoly":
        return self.divmod(other)[1]

    def derivative(self) -> "GaussPoly":
        return _poly([(k * a, k * b) for k, (a, b) in enumerate(self.nums)
                      if k], self.den)

    def monic(self) -> "GaussPoly":
        if self.is_zero():
            return self
        br, bi = self.nums[-1]
        return _poly(_times(self.nums, (br, -bi)), br * br + bi * bi)

    def complex_coeffs(self) -> np.ndarray:
        """Float image of the coefficients, ascending; [0] for the zero poly.
        Each part is one int/int true division, which is correctly rounded,
        so it equals complex() of the coefficient: float() of a Fraction
        divides the same way."""
        import numpy as np

        if self.is_zero():
            return np.zeros(1, dtype=complex)
        return np.array([complex(a / self.den, b / self.den)
                         for a, b in self.nums], dtype=complex)

    def eval(self, z: complex) -> complex:
        """Horner evaluation of the float image."""
        acc = 0j
        for a, b in reversed(self.nums):
            acc = acc * z + complex(a / self.den, b / self.den)
        return acc

    def ord_at_zero(self) -> int:
        """Exact order of vanishing at the origin."""
        if self.is_zero():
            raise ValueError("order at zero undefined for the zero polynomial")
        return next(k for k, c in enumerate(self.nums) if c != (0, 0))

    def shift_down(self, k: int) -> "GaussPoly":
        """Exact division by z^k (requires ord_at_zero >= k)."""
        if any(c != (0, 0) for c in self.nums[:k]):
            raise ValueError("polynomial not divisible by z^k")
        return _poly(self.nums[k:], self.den)

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = str(c)
            # parenthesize negatives and sums so str/parse round-trips
            if c.re < 0 if c.im == 0 else c.re != 0:
                cs = f"({cs})"
            if k == 0:
                terms.append(cs)
            elif k == 1:
                terms.append(f"{cs}*z")
            else:
                terms.append(f"{cs}*z^{k}")
        return " + ".join(terms) or "0"


def linear_combination(cs: Sequence[GaussRational],
                       ps: Sequence[GaussPoly]) -> GaussPoly:
    """sum_k cs[k] * ps[k] on the numerators over one common denominator,
    normalised once."""
    terms = [(_lcd_numerators([c]), p) for c, p in zip(cs, ps)
             if c and p.nums]
    den = math.lcm(*(d * p.den for (d, _), p in terms))
    re = [0] * max((len(p.nums) for _, p in terms), default=0)
    im = re[:]
    for (d, [(cr, ci)]), p in terms:
        f = den // (d * p.den)
        cr, ci = cr * f, ci * f
        for k, (a, b) in enumerate(p.nums):
            re[k] += a * cr - b * ci
            im[k] += a * ci + b * cr
    return _poly(zip(re, im), den)


def products_sum_to_zero(terms: Iterable[tuple]) -> bool:
    """Whether sum_k c_k * p_k * q_k is the zero polynomial, for terms
    (c_k, p_k, q_k) of integers c_k and GaussPolys p_k, q_k.

    Over the common denominator den of the products the sum is R / den, R
    the sum of the numerator products times c_k * den / (p_k.den * q_k.den).
    Every coefficient of R is at most M = sum_k |that factor| times the l1
    norms of the two numerator lists, and M < 2^width at width =
    M.bit_length().  Then R is zero iff its value at z = 2^width is, since
    the lowest nonzero coefficient of a polynomial with that root is a
    multiple of 2^width.  So every factor is packed at that width, and the
    packed products are summed and compared with 0: no coefficient is
    unpacked.
    """
    terms = [(c, p.nums, q.nums, p.den * q.den) for c, p, q in terms
             if c and p.nums and q.nums]
    den = math.lcm(*(d for *_, d in terms))
    terms = [(c * (den // d), a, b) for c, a, b, d in terms]
    width = sum(abs(c) * _l1_norm(a) * _l1_norm(b)
                for c, a, b in terms).bit_length()
    re = im = 0
    for c, a, b in terms:
        pr, pi = gi_mul(_pack(a, width), _pack(b, width))
        re += c * pr
        im += c * pi
    return re == 0 and im == 0


def lag_products(polys: Sequence[GaussPoly]) -> list:
    """The lag products of a family of polynomials a_i, not all zero: row m
    holds A[m][j] = sum_i a_{i,j+m} * conj(a_{i,j}) for j = 0..D-m, D the
    largest degree.  Each entry is summed exactly over the common
    denominator and rounded once to a complex float (one int/int true
    division per part, as in GaussPoly.complex_coeffs)."""
    polys = [p for p in polys if p.nums]
    den = math.lcm(*(p.den for p in polys))
    rows = [_times(p.nums, (den // p.den, 0)) for p in polys]
    top, den2 = max(map(len, rows)), den * den
    table = []
    for m in range(top):
        row = []
        for j in range(top - m):
            re = im = 0
            for nums in rows:
                if j + m < len(nums):
                    (a, b), (c, d) = nums[j + m], nums[j]
                    re += a * c + b * d
                    im += b * c - a * d
            row.append(complex(re / den2, im / den2))
        table.append(row)
    return table


class PackedRows:
    """A matrix of rows of GaussPoly or of GaussRational entries as packed
    Gaussian integers, for the determinant kernel.

    Row r is scaled by the common denominator of its entries, so rows holds
    Gaussian integers; all entries are packed at one width, wide enough for
    every minor of the leading rows, whose coefficients are bounded by the
    product of the row norms.  A packed minor of the first k rows turns back
    into its exact value over the product of the first k row scales.
    """

    def __init__(self, rows: Sequence[Sequence]):
        numerators, self.dens, self.scales = [], [], [1]
        for r in rows:
            if isinstance(r[0], GaussPoly):
                den = math.lcm(*(e.den for e in r))
                numerators.append([_times(e.nums, (den // e.den, 0))
                                   for e in r])
            else:
                den, flat = _lcd_numerators(r)
                numerators.append([[c] for c in flat])
            self.dens.append(den)
            self.scales.append(self.scales[-1] * den)
        # the extra bit keeps width >= 2, so the empty minor 1 unpacks too
        self.width = sum(_l1_norm([c for ns in r for c in ns]).bit_length()
                         for r in numerators) + 2
        self.rows = [[_pack(ns, self.width) for ns in r] for r in numerators]

    def poly(self, value: tuple, k: int) -> GaussPoly:
        """The polynomial minor of the first k rows packed in value."""
        return _poly(_unpack(value, self.width), self.scales[k])

    def scalar(self, value: tuple, k: int) -> GaussRational:
        """The scalar minor of the first k rows packed in value."""
        return _rational(value[0], value[1], self.scales[k])

    def scalar_of(self, value: tuple, rows: Sequence[int]) -> GaussRational:
        """The exact scalar minor of the given rows packed in value."""
        return _rational(value[0], value[1],
                         math.prod(self.dens[i] for i in rows))

    def scalar_complex(self, value: tuple, rows: Sequence[int]) -> complex:
        """complex() of the scalar minor of the given rows packed in value,
        one int/int true division per part (see GaussPoly.complex_coeffs)."""
        den = math.prod(self.dens[i] for i in rows)
        return complex(value[0] / den, value[1] / den)


class Divisor:
    """An effective divisor on C: exact order at 0 plus isolated points.

    Points are (location, multiplicity) with numeric locations; multiplicities
    come from exact squarefree data.  Locations must stay pairwise separated
    by ROOT_SEPARATION_TOL and away from the origin.
    """

    __slots__ = ("ord_at_zero", "points")

    def __init__(self, ord_at_zero: int, points: tuple):
        if ord_at_zero < 0:
            raise ValueError("ord_at_zero must be nonnegative")
        locs = [p for p, _ in points]
        for p, m in points:
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
        self.ord_at_zero, self.points = ord_at_zero, points

    @staticmethod
    def empty() -> "Divisor":
        return Divisor(0, ())


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


# A prime = 1 mod 4 and a square root of -1 modulo it (3 is a primitive
# root): a + b i -> a + b * _MOD_I is a ring map from Z[i] onto F_p.
_MOD_PRIME = 998244353
_MOD_I = pow(3, (_MOD_PRIME - 1) // 4, _MOD_PRIME)


def _squarefree_mod_prime(nums: Sequence[tuple]) -> bool:
    """Whether the Gaussian-integer polynomial nums stays of its degree and
    is squarefree (gcd with its derivative a constant) modulo _MOD_PRIME
    under a + b i -> a + b * _MOD_I.  Then it is squarefree over Q(i): a
    repeated primitive factor G of it has a leading coefficient that divides
    nums's, so G reduces to a repeated factor of the same degree."""
    q = _MOD_PRIME
    f = [(a + b * _MOD_I) % q for a, b in nums]
    if not f[-1]:
        return False
    a, b = f, [k * c % q for k, c in enumerate(f)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        a = a[:]
        inv = pow(b[-1], q - 2, q)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % q, len(a) - len(b)
            for k, v in enumerate(b):
                a[shift + k] = (a[shift + k] - c * v) % q
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) == 1


def squarefree_decomposition(p: GaussPoly) -> list:
    """Yun's algorithm: returns [(factor, multiplicity)] with monic squarefree,
    pairwise coprime factors whose weighted product equals p up to a unit.
    A polynomial squarefree modulo _MOD_PRIME is returned whole, with no
    gcd over Q(i)."""
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    if p.is_constant():
        return []
    p = p.monic()
    if _squarefree_mod_prime(p.nums):
        return [(p, 1)]
    g = poly_gcd(p, p.derivative())
    if g.is_constant():
        return [(p, 1)]
    out = []
    w = p // g
    z = p.derivative() // g - w.derivative()
    for i in itertools.count(1):
        gi = poly_gcd(w, z) if not z.is_zero() else w.monic()
        if gi.degree > 0:
            out.append((gi, i))
        w = w // gi
        if w.is_constant():
            return out
        z = z // gi - w.derivative()


def _roots_of_squarefree(f: GaussPoly) -> list:
    """Numeric simple roots of an exact squarefree polynomial (f(0) != 0)."""
    import numpy as np

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
        residual_scale = (ROOT_RESIDUAL_TOL * scale
                          * max(1.0, abs(r)) ** f.degree)
        if abs(f.eval(r)) > residual_scale:
            raise RootFindingError(
                f"root iteration failed to converge (residual {abs(f.eval(r)):.3e})",
                f,
            )
        polished.append(complex(r))
    return polished


def roots(p: GaussPoly) -> Divisor:
    """All complex roots of p as a Divisor with exact multiplicities.

    Multiplicities come from the squarefree decomposition; each squarefree
    factor is rooted numerically, so every numeric root is simple.
    """
    import numpy as np

    if p.is_zero():
        raise ValueError("roots of the zero polynomial")
    ord0 = p.ord_at_zero()
    q = p.shift_down(ord0)
    points = []
    for factor, mult in squarefree_decomposition(q):
        for loc in _roots_of_squarefree(factor):
            points.append((loc, mult))
    points.sort(key=lambda pm: (abs(pm[0]), np.angle(pm[0])))
    return Divisor(ord_at_zero=ord0, points=tuple(points))


# ---------------------------------------------------------------------------
# Polynomial text grammar
# ---------------------------------------------------------------------------
#
# Terms C*z^k, C*z, C; coefficient C is a/b, a, (a/b)i, or sums like
# 1/2 + (1/3)i; whitespace insignificant; ^ for powers.  Implemented as a
# small expression parser so parenthesized coefficient sums work too.  Its
# values are (nums, den): a list of Gaussian-integer numerators, ascending,
# over one positive integer den, both unreduced; sums bring the two to the
# lcm of their denominators, products convolve, powers square (a power of z
# is a shift), and parse_poly makes the result canonical once.

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([izZ*/^()+\-]))")


def _sum(x: tuple, y: tuple, sign: int) -> tuple:
    """x + sign*y for parsed values x and y, over the lcm of their
    denominators, so that a long sum of a few denominators stays small."""
    (a, da), (b, db) = x, y
    if da != db:
        den = math.lcm(da, db)
        a, b, da = _times(a, (den // da, 0)), _times(b, (den // db, 0)), den
    pairs = itertools.zip_longest(a, b, fillvalue=(0, 0))
    return [(p + sign * r, q + sign * s) for (p, q), (r, s) in pairs], da


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

    def parse(self) -> tuple:
        value = self.expr()
        if self.peek() is not None:
            self.error("trailing input")
        return value

    def expr(self) -> tuple:
        sign = 1
        tok = self.peek()
        if tok and tok[0] in "+-":
            self.next()
            sign = -1 if tok[0] == "-" else 1
        nums, den = self.term()
        value = (nums if sign > 0 else [(-a, -b) for a, b in nums]), den
        while True:
            tok = self.peek()
            if tok is None or tok[0] not in "+-":
                return value
            self.next()
            value = _sum(value, self.term(), 1 if tok[0] == "+" else -1)

    def term(self) -> tuple:
        value = self.power()
        while True:
            tok = self.peek()
            if tok is None:
                return value
            if tok[0] == "*":
                self.next()
            elif tok[0] not in ("num", "i", "z", "("):
                return value
            # "*" or implicit multiplication, e.g. "(1/3)i" or "2z"
            (a, da), (b, db) = value, self.power()
            value = _convolve(a, b), da * db

    def power(self) -> tuple:
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "^":
            self.next()
            etok = self.next()
            if etok is None or etok[0] != "num":
                self.error("expected integer exponent after '^'")
            nums, den = base
            return _power(nums, etok[1]), den ** etok[1]
        return base

    def atom(self) -> tuple:
        tok = self.next()
        if tok is None:
            self.error("unexpected end of input")
        kind = tok[0]
        if kind == "num":
            nxt = self.peek()
            if nxt and nxt[0] == "/":
                self.next()
                dtok = self.next()
                if dtok is None or dtok[0] != "num":
                    self.error("expected integer denominator")
                if dtok[1] == 0:
                    raise PolyParseError("zero denominator", self.text, dtok[2])
                return [(tok[1], 0)], dtok[1]
            return [(tok[1], 0)], 1
        if kind == "i":
            return [(0, 1)], 1
        if kind == "z":
            return [(0, 0), (1, 0)], 1
        if kind == "(":
            value = self.expr()
            closer = self.next()
            if closer is None or closer[0] != ")":
                self.error("expected ')'")
            return value
        raise PolyParseError(f"unexpected token {kind!r}", self.text, tok[2])


def parse_poly(text: str) -> GaussPoly:
    """Parse the polynomial text grammar into an exact GaussPoly."""
    return _poly(*_Parser(text).parse())


def parse_rational(text: str) -> GaussRational:
    """Parse a constant of the grammar (used for hyperplane coefficients)."""
    nums, den = _Parser(text).parse()
    while nums and nums[-1] == (0, 0):
        nums.pop()
    if len(nums) > 1:
        raise PolyParseError("expected a constant, found z", text, 0)
    return _rational(*(nums[0] if nums else (0, 0)), den)
