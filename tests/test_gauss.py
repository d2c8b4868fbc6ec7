import math
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nevlab import gauss
from nevlab.gauss import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussPoly,
    GaussRational,
    PackedRows,
    PolyParseError,
    linear_combination,
    parse_poly,
    parse_rational,
    poly_gcd,
    products_sum_to_zero,
    roots,
    squarefree_decomposition,
)

from conftest import rand_poly, rand_rational


fracs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
rationals = st.builds(GaussRational, fracs, fracs)
polys = st.builds(
    lambda coeffs: GaussPoly(tuple(coeffs)),
    st.lists(rationals, min_size=0, max_size=6),
)


class TestRational:
    def test_field_ops(self):
        a = GaussRational(Fraction(1, 2), Fraction(-3))
        b = GaussRational(Fraction(2), Fraction(1, 3))
        assert complex(a * b) == pytest.approx(complex(a) * complex(b))
        assert complex(a / b) == pytest.approx(complex(a) / complex(b))
        assert a * b / b == a
        assert not GR_ZERO
        assert GR_I * GR_I == -GR_ONE

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GR_ONE / GR_ZERO

    @given(rationals, rationals)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a


class TestPoly:
    def test_canonical_trim(self):
        p = GaussPoly((GR_ONE, GR_ZERO, GR_ZERO))
        assert p.degree == 0
        assert GaussPoly.zero().degree == -1

    def test_divmod(self):
        p = parse_poly("z^3 - 2z + 5")
        d = parse_poly("z - 1")
        q, r = p.divmod(d)
        assert q * d + r == p
        assert r.degree < d.degree

    @given(polys, polys)
    @settings(max_examples=60)
    def test_ring_distributes(self, p, q):
        r = parse_poly("1 + z")
        assert (p + q) * r == p * r + q * r

    @given(polys)
    def test_derivative_linear_in_shift(self, p):
        assert (p + p).derivative() == p.derivative() + p.derivative()

    def test_eval_matches_complex_horner(self, rng):
        for _ in range(20):
            p = rand_poly(rng, max_deg=6)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            want = sum(complex(c) * z ** k for k, c in enumerate(p.coeffs))
            assert p.eval(z) == pytest.approx(want, abs=1e-12)


# Large denominators and purely imaginary coefficients for the product tests.
big_fracs = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**6)
big_rationals = st.one_of(
    st.builds(GaussRational, big_fracs, big_fracs),
    st.builds(lambda im: GaussRational(Fraction(0), im), big_fracs),
)
big_polys = st.builds(
    lambda coeffs: GaussPoly(tuple(coeffs)),
    st.lists(big_rationals, min_size=0, max_size=7),
)


def naive_product(p, q):
    """Oracle: the convolution of the coefficient lists, one Fraction
    operation at a time; canonical (re, im) pairs, trailing zeros trimmed."""
    out = [[Fraction(0), Fraction(0)]
           for _ in range(max(len(p.coeffs) + len(q.coeffs) - 1, 0))]
    for a, ca in enumerate(p.coeffs):
        for b, cb in enumerate(q.coeffs):
            out[a + b][0] += ca.re * cb.re - ca.im * cb.im
            out[a + b][1] += ca.re * cb.im + ca.im * cb.re
    while out and out[-1] == [0, 0]:
        out.pop()
    return [tuple(c) for c in out]


def parts(p):
    for c in p.coeffs:
        assert type(c.re) is Fraction and type(c.im) is Fraction
    return [(c.re, c.im) for c in p.coeffs]


class TestFractionFreeProduct:
    """The packed fraction-free product against a per-coefficient Fraction
    convolution (oracle)."""

    @given(big_polys, big_polys)
    @settings(max_examples=100)
    def test_mul_matches_naive_convolution(self, p, q):
        prod = p * q
        assert parts(prod) == naive_product(p, q)
        assert parse_poly(str(prod)) == prod

    @given(big_polys, big_rationals)
    @settings(max_examples=60)
    def test_scale_matches_naive_product(self, p, c):
        assert parts(p.scale(c)) == naive_product(p, GaussPoly((c,)))

    def test_zero_and_imaginary_units(self):
        p = parse_poly("(1/999983)i*z^3 - (2/3)i")
        assert (p * GaussPoly.zero()).is_zero()
        assert (GaussPoly.zero() * p).is_zero()
        assert p.scale(GR_ZERO).is_zero()
        assert parts(p * p) == naive_product(p, p)
        assert p.scale(GR_I) * p.scale(GR_I) == -(p * p)


# Per-coefficient Fraction references: each coefficient is a pair
# (re, im) of Fractions, one Fraction operation at a time.

def _trim(cs):
    cs = [tuple(c) for c in cs]
    while cs and cs[-1] == (0, 0):
        cs.pop()
    return cs


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gdiv(a, b):
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def naive_sum(p, q, sign=1):
    a, b = [(c.re, c.im) for c in p.coeffs], [(c.re, c.im) for c in q.coeffs]
    zero = (Fraction(0), Fraction(0))
    a += [zero] * (len(b) - len(a))
    b += [zero] * (len(a) - len(b))
    return _trim((x[0] + sign * y[0], x[1] + sign * y[1])
                 for x, y in zip(a, b))


def naive_divmod(a, b):
    """Euclid over Q(i) on Fraction pairs: (quotient, remainder)."""
    zero = (Fraction(0), Fraction(0))
    rem, quot = list(a), [zero] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = _gdiv(rem[k + len(b) - 1], b[-1])
        quot[k] = c
        for j, bj in enumerate(b):
            t = _gmul(c, bj)
            rem[k + j] = (rem[k + j][0] - t[0], rem[k + j][1] - t[1])
    return _trim(quot), _trim(rem)


def naive_monic(a):
    return [_gdiv(c, a[-1]) for c in a]


def naive_gcd(a, b):
    while b:
        a, b = b, naive_divmod(a, b)[1]
    return naive_monic(a)


def assert_canonical(p):
    """The one stored form: no trailing zero numerator, den > 0 and no
    common factor of den and the numerators; the str round trip holds."""
    assert not p.nums or p.nums[-1] != (0, 0)
    assert p.den > 0
    assert math.gcd(p.den, *(x for c in p.nums for x in c)) == 1
    assert p.nums or p.den == 1
    assert parse_poly(str(p)) == p


class TestFractionFreeOracles:
    """Every GaussPoly operation on the integer numerators against a
    per-coefficient Fraction reference (oracle)."""

    @given(big_polys, big_polys)
    @settings(max_examples=60)
    def test_add_sub_neg(self, p, q):
        for got, want in ((p + q, naive_sum(p, q)),
                          (p - q, naive_sum(p, q, -1)),
                          (-p, naive_sum(GaussPoly.zero(), p, -1))):
            assert parts(got) == want
            assert_canonical(got)

    @given(big_polys)
    @settings(max_examples=60)
    def test_derivative(self, p):
        got = p.derivative()
        assert parts(got) == _trim((k * c.re, k * c.im)
                                   for k, c in enumerate(p.coeffs))[1:]
        assert_canonical(got)

    @given(big_polys, big_polys)
    @settings(max_examples=60)
    def test_divmod(self, p, q):
        if q.is_zero():
            return
        quot, rem = p.divmod(q)
        want = naive_divmod(parts(p), parts(q))
        assert (parts(quot), parts(rem)) == want
        assert_canonical(quot)
        assert_canonical(rem)
        assert quot * q + rem == p

    @given(big_polys)
    @settings(max_examples=60)
    def test_monic(self, p):
        got = p.monic()
        assert parts(got) == (naive_monic(parts(p)) if parts(p) else [])
        assert_canonical(got)

    @given(big_polys, big_polys, st.lists(big_rationals, min_size=1,
                                          max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_gcd(self, p, q, common):
        h = GaussPoly(common)
        if p.is_zero() or q.is_zero() or h.is_zero():
            return
        a, b = p * h, q * h
        got = poly_gcd(a, b)
        assert parts(got) == naive_gcd(parts(a), parts(b))
        assert_canonical(got)
        assert (a % got).is_zero() and (b % got).is_zero()

    def test_zero_and_purely_imaginary(self):
        p = parse_poly("(1/999983)i*z^3 - (2/3)i")
        q = parse_poly("(7/10)i*z - (1/1000000)i")
        quot, rem = p.divmod(q)
        assert (parts(quot), parts(rem)) == naive_divmod(parts(p), parts(q))
        assert parts(p.monic()) == naive_monic(parts(p))
        assert (p - p).is_zero() and (p + GaussPoly.zero()) == p
        assert GaussPoly.zero().derivative().is_zero()
        zero = GaussPoly.zero()
        assert zero.divmod(q) == (zero, zero)
        assert poly_gcd(p * q, q) == q.monic()
        assert poly_gcd(p, GaussPoly.zero()) == p.monic()


    def test_operations_build_no_fraction(self, monkeypatch):
        p = parse_poly("(1/3 + (2/5)i)*z^4 - (7/2)z^2 + (1/9)i*z + 3")
        q = parse_poly("(2/7)i*z^2 + (1/4)z - 5/6")
        c = GaussRational(Fraction(3, 7), Fraction(2))
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k:
                            built.append(a) or new(cls, *a, **k))
        p + q, p - q, -p, p * q, p.scale(c), p.derivative(), p.divmod(q)
        p.monic(), poly_gcd(p * q, q * q), linear_combination([c, c], [p, q])
        assert built == []


class TestCanonicalForm:
    """A value has one stored form, however it is reached."""

    def test_unreduced_lists_against_a_product(self):
        half = GaussRational.of(Fraction(1, 2))
        listed = GaussPoly((GaussRational.of(Fraction(3, 6)), half, half))
        built = parse_poly("1 + z + z^2").scale(GaussRational.of(2)) * \
            GaussPoly([GaussRational.of(Fraction(1, 4))])
        assert listed == built and hash(listed) == hash(built)
        assert listed.nums == built.nums and listed.den == built.den == 2
        padded = GaussPoly((half, half, half, GR_ZERO, GR_ZERO))
        assert padded == listed and hash(padded) == hash(listed)

    @given(big_polys, big_polys)
    @settings(max_examples=60)
    def test_same_value_two_ways(self, p, q):
        ways = [p - q + q, (p + p).scale(GaussRational.of(Fraction(1, 2))),
                GaussPoly(p.coeffs)]
        if not q.is_zero():
            ways.append(p * q // q)
        for other in ways:
            assert other == p and hash(other) == hash(p)
            assert_canonical(other)
        assert_canonical(p)


class TestPackedScalar:
    @given(st.lists(st.integers(1, 10 ** 12), min_size=3, max_size=3),
           st.integers(-10 ** 60, 10 ** 60), st.integers(-10 ** 60, 10 ** 60),
           st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
    @settings(max_examples=100)
    def test_scalar_complex_is_complex_of_the_exact_minor(self, dens, re, im,
                                                          rows):
        # each row's scale is its denominator; numerators far beyond 2^53
        # must still round once, as float() of the Fraction does
        packed = PackedRows([[GaussRational.of(Fraction(1, den))]
                             for den in dens])
        exact = GaussRational(Fraction(re, math.prod(dens[i] for i in rows)),
                              Fraction(im, math.prod(dens[i] for i in rows)))
        assert packed.scalar_complex((re, im), rows) == complex(exact)


class TestGcd:
    def test_common_factor(self):
        a = parse_poly("(z - 1)*(z + 2)")
        b = parse_poly("(z - 1)*(z - 3)")
        g = poly_gcd(a, b)
        assert g == parse_poly("z - 1").monic()

    def test_coprime(self):
        g = poly_gcd(parse_poly("z - 1"), parse_poly("z + 1"))
        assert g.degree == 0

    @given(polys, polys)
    @settings(max_examples=40)
    def test_gcd_divides_both(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        g = poly_gcd(p, q)
        assert (p % g).is_zero()
        assert (q % g).is_zero()


class TestSquarefree:
    def test_yun_multiplicities(self):
        p = parse_poly("(z - 1)^2 * (z + 1) * (z - 2)^3")
        parts = squarefree_decomposition(p)
        by_mult = {m: f for f, m in parts}
        assert by_mult[1].monic() == parse_poly("z + 1").monic()
        assert by_mult[2].monic() == parse_poly("z - 1").monic()
        assert by_mult[3].monic() == parse_poly("z - 2").monic()

    def test_reassembles(self, rng):
        for _ in range(10):
            p = rand_poly(rng, max_deg=3, nonzero=True) * rand_poly(
                rng, max_deg=2, nonzero=True)
            prod = GaussPoly((p.coeffs[-1],))
            for f, m in squarefree_decomposition(p):
                prod = prod * f.monic() ** m
            assert prod == p.monic().scale(p.coeffs[-1])

    def test_modular_test_agrees_with_the_gcd(self, rng):
        # the test modulo the prime says squarefree only where the exact gcd
        # with the derivative is a constant: on random products, squares
        # among them, and on a polynomial whose leading numerator the prime
        # divides (not decided there, so the gcd decides)
        assert pow(gauss._MOD_I, 2, gauss._MOD_PRIME) == gauss._MOD_PRIME - 1
        cases = []
        for _ in range(60):
            p = rand_poly(rng, max_deg=3, nonzero=True)
            q = rand_poly(rng, max_deg=2, nonzero=True)
            cases += [p * q, p * q * q]
        prime = gauss._MOD_PRIME
        cases.append(parse_poly(f"{prime}z^2 + z + 1"))
        decided = 0
        for p in cases:
            if p.is_constant():
                continue
            modular = gauss._squarefree_mod_prime(p.monic().nums)
            if poly_gcd(p, p.derivative()).is_constant():
                assert squarefree_decomposition(p) == [(p.monic(), 1)]
                decided += modular
            else:
                assert not modular
        assert decided > 40
        assert not gauss._squarefree_mod_prime(cases[-1].nums)
        assert squarefree_decomposition(cases[-1]) == [(cases[-1].monic(), 1)]


class TestRoots:
    def test_multiplicities_and_values(self):
        p = parse_poly("(z - 2)^2 * (z + 3) * z^2")
        d = roots(p)
        assert d.ord_at_zero == 2
        pts = {complex(round(r.real), round(r.imag)): m for r, m in d.points}
        assert pts == {(2 + 0j): 2, (-3 + 0j): 1}

    def test_constant_poly_empty_divisor(self):
        d = roots(parse_poly("3"))
        assert (d.ord_at_zero, d.points) == (0, ())
        with pytest.raises(ValueError):
            roots(GaussPoly.zero())

    def test_against_sympy(self, rng):
        z = sympy.symbols("z")
        for _ in range(15):
            p = rand_poly(rng, max_deg=5, nonzero=True)
            if p.degree < 1:
                continue
            expr = sum(
                (sympy.Rational(c.re) + sympy.Rational(c.im) * sympy.I)
                * z ** k
                for k, c in enumerate(p.coeffs)
            )
            want = sorted(
                (complex(r) for r in sympy.Poly(expr, z).nroots(n=30)),
                key=lambda c: (round(c.real, 6), round(c.imag, 6)),
            )
            mine = roots(p)
            got = sorted(
                [complex(r) for r, m in mine.points for _ in range(m)]
                + [0j] * mine.ord_at_zero,
                key=lambda c: (round(c.real, 6), round(c.imag, 6)),
            )
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-7)

    def test_divisor_total(self):
        p = parse_poly("z^4 - 1")
        d = roots(p)
        assert d.ord_at_zero + sum(m for _, m in d.points) == 4


class TestParser:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("1/2 + z", ("1/2", "1")),
            ("i*z^2", ("0", "0", "i")),
            ("(1+2i)*(z - 1)", None),
            ("-z^3", ("0", "0", "0", "-1")),
        ],
    )
    def test_grammar(self, text, expect):
        p = parse_poly(text)
        if expect is not None:
            assert len(p.coeffs) == len(expect)

    def test_round_trip(self, rng):
        for _ in range(25):
            p = rand_poly(rng, max_deg=5)
            assert parse_poly(str(p)) == p

    def test_error_has_position(self):
        with pytest.raises(PolyParseError) as exc:
            parse_poly("z^ + 1")
        assert "column" in str(exc.value)
        assert exc.value.pos >= 0

    def test_rational_round_trip(self, rng):
        for _ in range(20):
            c = rand_rational(rng)
            assert parse_rational(str(c)) == c


# ---------------------------------------------------------------------------
# The reader against the arithmetic parser it replaced (oracle)
# ---------------------------------------------------------------------------

_ORACLE_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([izZ*/^()+\-]))")


class OracleParser:
    """Oracle: the grammar evaluated in GaussPoly arithmetic, one constant,
    sum and product at a time, with powers as repeated products; the
    reader must give its values, its error messages and its positions."""

    def __init__(self, text):
        self.text, self.tokens, self.idx = text, [], 0
        pos = 0
        while pos < len(text):
            m = _ORACLE_TOKEN_RE.match(text, pos)
            if m is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise PolyParseError(
                    f"unexpected character {stripped[0]!r}", text, pos)
            if m.group(1) is not None:
                self.tokens.append(("num", int(m.group(1)), m.start(1)))
            else:
                self.tokens.append((m.group(2).lower(), None, m.start(2)))
            pos = m.end()

    def peek(self):
        return self.tokens[self.idx] if self.idx < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.idx += 1
        return tok

    def error(self, message):
        tok = self.peek()
        raise PolyParseError(message, self.text,
                             tok[2] if tok else len(self.text))

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            self.error("trailing input")
        return value

    def expr(self):
        sign, tok = 1, self.peek()
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

    def term(self):
        value = self.power()
        while True:
            tok = self.peek()
            if tok is None:
                return value
            if tok[0] == "*":
                self.next()
                value = value * self.power()
            elif tok[0] in ("num", "i", "z", "("):
                value = value * self.power()
            else:
                return value

    def power(self):
        base = self.atom()
        tok = self.peek()
        if tok and tok[0] == "^":
            self.next()
            etok = self.next()
            if etok is None or etok[0] != "num":
                self.error("expected integer exponent after '^'")
            result = GaussPoly.one()
            for _ in range(etok[1]):
                result = result * base
            return result
        return base

    def atom(self):
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
                    raise PolyParseError("zero denominator", self.text,
                                         dtok[2])
                return GaussPoly([GaussRational.of(Fraction(tok[1],
                                                            dtok[1]))])
            return GaussPoly([GaussRational.of(tok[1])])
        if kind == "i":
            return GaussPoly([GR_I])
        if kind == "z":
            return GaussPoly.z()
        if kind == "(":
            value = self.expr()
            closer = self.next()
            if closer is None or closer[0] != ")":
                self.error("expected ')'")
            return value
        raise PolyParseError(f"unexpected token {kind!r}", self.text, tok[2])


def oracle_rational(text):
    p = OracleParser(text).parse()
    if p.degree > 0:
        raise PolyParseError("expected a constant, found z", text, 0)
    return p.coeff(0)


GRAMMAR_CORPUS = [
    "0", "7", "1/2", "i", "z", "Z", "-z", "+z", "-(-z)",
    "2z", "2 z", "3zz", "(1/3)i", "(1/3)(2/5)i", "2(1 + z)(1 - z)",
    "z^0", "0^0", "0^3", "z^12", "Z^3 + z", "(z + 1)^5", "(1/2 z - (2/3)i)^4",
    "((1 + i)z^2 - 3)^3 * (z - i)^2", "-(z - 1)(z + 1)", "-z^2 - (-1)",
    "1/2 + (1/3)i", "(1/2 + (1/3)i)*z^7 - 5/6",
    "z - z", "(z - z)^4 + 1/4", "2/4 z^2 + 6/8", "(2/4)(4/6)",
    "1 +\n  z^2\n  - (3/7)i*z", "  z  ^  3  ", "((((z))))^2",
    "(1 + 2i)*(z - 1)", "-z^3", "i*z^2", "999999/1000000 z^3 + (1/999983)i",
    "(1 + z + z^2 + z^3)^6", "3/6 + (2/4)i - 1/2", "((1/2)z)^3 (2z)^3",
    "i^2 + i^3 z + i^4 z^2", "(1 + i)^8", "12345678901234567890123 z",
    "(z^2 + 1/3)^2 - z^4 - (2/3)z^2",
]

BAD_CORPUS = [
    "", "   ", "z^ + 1", "z^", "z^z", "1/0", "1/", "1//2", "(1 + z",
    "z)", "2 3 )", "z ! 2", "$", "1 +", "* z", "z * * 2", "z^-1", "/2",
    "()", "1/z", "z +\n  # 2", "(1/2)(", "1 + 2\n + )", "z^2^", "z..",
    "--z", "-z^2 - -1",
]


class TestReaderAgainstOracle:
    @pytest.mark.parametrize("text", GRAMMAR_CORPUS)
    def test_grammar_corpus(self, text):
        got, want = parse_poly(text), OracleParser(text).parse()
        assert (got.nums, got.den) == (want.nums, want.den)

    @pytest.mark.parametrize("text", BAD_CORPUS)
    def test_bad_inputs_give_the_oracles_error(self, text):
        for parse, oracle in ((parse_poly, lambda t: OracleParser(t).parse()),
                              (parse_rational, oracle_rational)):
            with pytest.raises(PolyParseError) as want:
                oracle(text)
            with pytest.raises(PolyParseError) as got:
                parse(text)
            assert (str(got.value), got.value.pos) == \
                (str(want.value), want.value.pos)

    @pytest.mark.parametrize("text", ["z", "1 + z", "(z - z + 1)z",
                                      "2/3 + (1/2)i*z^2"])
    def test_rational_rejects_a_power_of_z_as_the_oracle(self, text):
        with pytest.raises(PolyParseError) as want:
            oracle_rational(text)
        with pytest.raises(PolyParseError) as got:
            parse_rational(text)
        assert (str(got.value), got.value.pos) == \
            (str(want.value), want.value.pos)

    @pytest.mark.parametrize("text", ["0", "z - z", "(z - z)^2 + 3/9",
                                      "-(1/2)i", "(1 + i)^4 (1/3)"])
    def test_rational_corpus(self, text):
        got, want = parse_rational(text), oracle_rational(text)
        assert got == want
        assert type(got.re) is Fraction and type(got.im) is Fraction


# Degree <= 12, numerators and denominators up to 10^6.
reader_polys = st.builds(
    lambda coeffs: GaussPoly(tuple(coeffs)),
    st.lists(big_rationals, min_size=0, max_size=13),
)
real_fracs = st.builds(GaussRational.of, big_fracs)


class TestReaderRoundTrips:
    @given(st.one_of(
        reader_polys,
        st.builds(lambda cs: GaussPoly(tuple(cs)),
                  st.lists(real_fracs, max_size=13)),
        st.builds(lambda cs: GaussPoly(tuple(GaussRational(Fraction(0), c.re)
                                             for c in cs)),
                  st.lists(real_fracs, max_size=13)),
        st.just(GaussPoly.zero())))
    @settings(max_examples=150)
    def test_poly_round_trip(self, p):
        assert parse_poly(str(p)) == p

    @given(st.one_of(big_rationals, real_fracs, st.just(GR_ZERO)))
    @settings(max_examples=150)
    def test_rational_round_trip(self, c):
        assert parse_rational(str(c)) == c

    def test_reader_builds_no_fraction(self, monkeypatch):
        text = "(1/3 + (2/5)i)*z^4 - (7/2)z^2 + ((1/9)i*z + 3)^3 - 5/6"
        want = GaussRational(Fraction(0), Fraction(7, 30))
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k:
                            built.append(a) or new(cls, *a, **k))
        parse_poly(text)
        assert built == []
        # a constant's two parts are its only Fractions
        c = parse_rational("1/3 + (2/5)i - (1/6)(2 + i)")
        assert len(built) == 2 and c == want


class TestPower:
    @given(st.lists(rationals, max_size=4), st.integers(0, 9))
    @settings(max_examples=80)
    def test_power_is_the_repeated_product(self, coeffs, k):
        p, want = GaussPoly(tuple(coeffs)), GaussPoly.one()
        for _ in range(k):
            want = want * p
        got = p ** k
        assert (got.nums, got.den) == (want.nums, want.den)

    @pytest.mark.parametrize("text", ["(1 + i)z^3", "(1/3)i*z", "z^2",
                                      "2/7", "0", "z"])
    def test_monomial_powers(self, text):
        p, want = parse_poly(text), GaussPoly.one()
        for k in range(13):
            assert p ** k == want
            want = want * p

    def test_power_squares_and_multiplies(self, monkeypatch):
        # a stand-in product keeps the count cheap: (1 + z)^4000 itself has
        # 4001 coefficients of up to 4000 bits
        calls = []
        monkeypatch.setattr(gauss, "_convolve",
                            lambda a, b: calls.append(len(a)) or a)
        parse_poly("1 + z") ** 4000
        assert 0 < len(calls) <= 2 * math.ceil(math.log2(4000))

    def test_power_of_z_is_a_shift(self, monkeypatch):
        calls = []
        product = gauss._convolve
        monkeypatch.setattr(gauss, "_convolve",
                            lambda a, b: calls.append(1) or product(a, b))
        p = parse_poly("z^4000")
        assert calls == []
        assert p == GaussPoly.z() ** 4000
        assert p.nums == ((0, 0),) * 4000 + ((1, 0),) and p.den == 1


# ---------------------------------------------------------------------------
# The packed zero test against the sum of unpacked products (oracle)
# ---------------------------------------------------------------------------


def oracle_sum_is_zero(terms):
    """Oracle: every product unpacked into a GaussPoly, then the exact
    linear combination."""
    return linear_combination([GaussRational.of(c) for c, _, _ in terms],
                              [p * q for _, p, q in terms]).is_zero()


def monomial(c, k=0):
    """The GaussPoly c * z^k."""
    return GaussPoly((GR_ZERO,) * k + (c,))


small_ints = st.integers(-3, 3)
factor_polys = st.builds(lambda cs: GaussPoly(tuple(cs)),
                         st.lists(big_rationals, max_size=4))


@st.composite
def vanishing_sums(draw):
    """Terms whose products cancel: each product c*p*q is matched by -c*q*p
    or split as c*p*q1 + c*p*q2 against c*p*(q1 + q2)."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c, p, q = draw(small_ints), draw(factor_polys), draw(factor_polys)
        if draw(st.booleans()):
            terms += [(c, p, q), (-c, q, p)]
        else:
            r = draw(factor_polys)
            terms += [(c, p, q), (c, p, r), (-c, p, q + r)]
    return terms


@st.composite
def off_by_one_sums(draw):
    """A vanishing sum plus +-1/den times the lowest or the highest power of
    z that its products reach, den the common denominator of the sum: the
    residual is that one coefficient."""
    terms = draw(vanishing_sums())
    den = math.lcm(*(p.den * q.den for _, p, q in terms))
    top = max((p.degree + q.degree for _, p, q in terms), default=0)
    k = draw(st.sampled_from([0, max(top, 0)]))
    unit = draw(st.sampled_from([GR_ONE, GR_I, -GR_ONE, -GR_I]))
    scale = GaussRational.of(Fraction(1, den))
    return terms + [(1, monomial(unit * scale, k), GaussPoly.one())]


class TestProductsSumToZero:
    @given(st.lists(st.tuples(small_ints, factor_polys, factor_polys),
                    max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_the_oracle(self, terms):
        assert products_sum_to_zero(terms) == oracle_sum_is_zero(terms)

    @given(vanishing_sums())
    @settings(max_examples=50, deadline=None)
    def test_vanishing_sums(self, terms):
        assert oracle_sum_is_zero(terms)
        assert products_sum_to_zero(terms)

    @given(off_by_one_sums())
    @settings(max_examples=80, deadline=None)
    def test_a_residual_of_one_over_den(self, terms):
        assert not oracle_sum_is_zero(terms)
        assert not products_sum_to_zero(terms)

    @pytest.mark.parametrize("bits", [1, 2, 7, 31, 64, 200])
    @pytest.mark.parametrize("unit", [GR_ONE, GR_I], ids=["re", "im"])
    @pytest.mark.parametrize("den", [1, 3])
    def test_residuals_at_the_width_bound(self, bits, unit, den):
        """2^bits - z and 2^bits z - z^2 (times a unit, over den): the l1
        bound is 2^bits + 1, the width bits + 1, and the residual's lowest
        coefficient is 2^bits, so one bit less packs each of them to 0."""
        c = unit * GaussRational.of(Fraction(2 ** bits, den))
        one = unit * GaussRational.of(Fraction(1, den))
        for k in (0, 1):
            terms = [(1, monomial(c, k), GaussPoly.one()),
                     (-1, monomial(one, k + 1), GaussPoly.one())]
            assert not oracle_sum_is_zero(terms)
            assert not products_sum_to_zero(terms)
            # the same residual spread over two factors and both signs
            split = [(1, monomial(c), monomial(GR_ONE, k)),
                     (-1, monomial(one, k), monomial(GR_ONE, 1))]
            assert not products_sum_to_zero(split)
            cancel = terms + [(-1, monomial(c, k), GaussPoly.one()),
                              (1, monomial(one, k + 1), GaussPoly.one())]
            assert oracle_sum_is_zero(cancel)
            assert products_sum_to_zero(cancel)

    def test_empty_and_zero_terms(self):
        p = parse_poly("(1/3)i*z^2 + 1")
        assert products_sum_to_zero([])
        assert products_sum_to_zero([(0, p, p), (5, p, GaussPoly.zero())])
        assert not products_sum_to_zero([(0, p, p), (1, p, p)])

    def test_builds_no_fraction_poly_or_unpack(self, monkeypatch):
        p = parse_poly("(1/3 + (2/5)i)*z^4 - (7/2)z^2 + (1/9)i*z + 3")
        q = parse_poly("(2/7)i*z^2 + (1/4)z - 5/6")
        terms = [(1, p, q), (-1, q, p), (2, p, p), (-2, p, p)]
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k:
                            built.append(a) or new(cls, *a, **k))
        for name in ("_unpack", "_poly"):
            monkeypatch.setattr(gauss, name, lambda *a: built.append(a))
        assert products_sum_to_zero(terms)
        assert not products_sum_to_zero(terms[:3])
        assert built == []
