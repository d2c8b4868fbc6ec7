import itertools
import math

import pytest
import sympy
from sympy.combinatorics import Permutation
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, strategies as st

from nevlab import exterior
from nevlab.exterior import (
    MultiIndex,
    WedgeForm,
    WedgeVector,
    det_exact,
    index_distance,
    merge_sign,
    multi_indices,
    two_row_identity_sign,
    wedge_rows,
)
from nevlab.gauss import (GR_ZERO, GaussPoly, GaussRational,
                          products_sum_to_zero)

from conftest import rand_poly, rand_rational


class TestMultiIndices:
    def test_lex_order_and_count(self):
        idx = multi_indices(3, 2)
        assert [m.elements for m in idx] == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert len(multi_indices(5, 3)) == math.comb(6, 3)

    def test_degree_zero(self):
        assert [m.elements for m in multi_indices(4, 0)] == [()]

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            MultiIndex((1, 1), 3)

    def test_distance(self):
        a = MultiIndex((0, 1), 3)
        b = MultiIndex((0, 2), 3)
        assert index_distance(a, b) == 1
        assert index_distance(a, a) == 0


Z = sympy.Symbol("z")


def sym(c):
    """sympy value of a GaussRational or GaussPoly."""
    if isinstance(c, GaussPoly):
        return sum((sym(a) * Z ** k for k, a in enumerate(c.coeffs)),
                   sympy.Integer(0))
    return sympy.Rational(c.re) + sympy.Rational(c.im) * sympy.I


def sym_det(mat):
    """Oracle: sympy's determinant of a matrix of exact entries, computed
    over the domain QQ_I or QQ_I[z] that sympy picks for the entries."""
    dm = DomainMatrix.from_Matrix(
        sympy.Matrix([[sym(c) for c in row] for row in mat]))
    return sympy.expand(dm.domain.to_sympy(dm.det()))


def same(mine, want):
    return sympy.expand(sym(mine) - want) == 0


class TestDetExact:
    def test_matches_sympy(self, rng):
        for size in (1, 2, 3, 4):
            mat = [[rand_rational(rng) for _ in range(size)] for _ in range(size)]
            assert same(det_exact(mat), sym_det(mat))

    def test_polynomial_entries(self):
        z = GaussPoly.z()
        one = GaussPoly.one()
        d = det_exact([[one, z], [z, z * z]])
        assert d.is_zero()

    def test_polynomial_matrices_match_sympy(self, rng):
        """Oracle: sympy determinants of GaussPoly matrices up to 6 x 6."""
        for size in (1, 2, 3, 4, 5, 6):
            mat = [[rand_poly(rng, max_deg=2, span=3) for _ in range(size)]
                   for _ in range(size)]
            got = det_exact(mat)
            assert isinstance(got, GaussPoly)
            assert same(got, sym_det(mat))

    def test_degenerate_scalar_matrices_are_exact_zero(self, rng):
        """Oracle: sympy agrees on zero rows, zero columns and rank
        deficiency, where the determinant is exactly zero."""
        size = 5
        for kind in ("row", "column", "rank"):
            mat = [[rand_rational(rng) for _ in range(size)]
                   for _ in range(size)]
            if kind == "row":
                mat[2] = [GR_ZERO] * size
            elif kind == "column":
                for row in mat:
                    row[3] = GR_ZERO
            else:
                c = rand_rational(rng)
                mat[4] = [a * c - b for a, b in zip(mat[0], mat[1])]
            got = det_exact(mat)
            assert isinstance(got, GaussRational) and not got
            assert sym_det(mat) == 0

    def test_scalar_matrices_with_zeros_match_sympy(self, rng):
        """Oracle: sparse scalar matrices up to 6 x 6 against sympy."""
        for size in (3, 4, 5, 6):
            mat = [[rand_rational(rng) if rng.random() < 0.6 else GR_ZERO
                    for _ in range(size)] for _ in range(size)]
            assert same(det_exact(mat), sym_det(mat))

    def test_six_by_six_makes_at_most_192_products(self, rng, monkeypatch):
        """Work-count guard: the minor table makes m * 2^(m-1) entry products
        for an m x m matrix (192 at m = 6); cofactor expansion makes
        6 + 6*5 + ... + 6! = 1236."""
        calls = []
        inner = exterior.gi_mul

        def counting(a, b):
            calls.append(1)
            return inner(a, b)

        monkeypatch.setattr(exterior, "gi_mul", counting)
        mat = [[rand_poly(rng, max_deg=2, nonzero=True) for _ in range(6)]
               for _ in range(6)]
        det_exact(mat)
        assert 0 < len(calls) <= 6 * 2 ** 5


class TestMergeSign:
    def test_parity(self):
        assert merge_sign([0, 1, 2]) == 1
        assert merge_sign([1, 0]) == -1
        assert merge_sign([2, 0, 1]) == 1

    @given(st.lists(st.integers(-50, 50), unique=True, max_size=8))
    def test_matches_sympy_parity(self, seq):
        # oracle: the signature of the permutation that sorts seq
        ranks = [sorted(seq).index(v) for v in seq]
        assert merge_sign(seq) == Permutation(ranks).signature()


def pluecker_relations_check(X: WedgeVector) -> bool:
    """Oracle: True iff all quadratic Pluecker relations of X vanish
    identically (exact), i.e. X is a decomposable wedge.  No command runs
    it; the tests check wedge_rows against it."""
    n, d = X.n, X.degree
    if not (1 <= d <= n):
        raise ValueError("relations check requires 1 <= d <= n")
    lookup = {mi.elements: p for mi, p in X.coords}
    for S in itertools.combinations(range(n + 1), d - 1):
        for T in itertools.combinations(range(n + 1), d + 1):
            # sum_k (-1)^k X_{S t_k} X_{T - t_k}, with X antisymmetric in
            # its index and zero on a repeated one
            if not products_sum_to_zero(
                    ((-1) ** k * merge_sign(S + (t,)),
                     lookup[tuple(sorted(S + (t,)))],
                     lookup[T[:k] + T[k + 1:]])
                    for k, t in enumerate(T) if t not in S):
                return False
    return True


class TestWedge:
    def test_pluecker_coords_are_minors(self, rng):
        """Oracle: every coordinate of wedge_rows and every Pluecker
        coefficient of a WedgeForm is the sympy minor on its columns."""
        n = 3
        for d in (1, 2, 3):
            rows = [[rand_poly(rng, max_deg=2) for _ in range(n + 1)]
                    for _ in range(d)]
            forms = tuple(tuple(rand_rational(rng) for _ in range(n + 1))
                          for _ in range(d))
            X = wedge_rows(rows, n)
            coeffs = WedgeForm(n, forms).pluecker_coords()
            assert [mi.elements for mi, _ in X.coords] == [
                mi.elements for mi in multi_indices(n, d)]
            for (mi, p), c in zip(X.coords, coeffs):
                cols = list(mi.elements)
                assert same(p, sym_det([[r[j] for j in cols] for r in rows]))
                assert same(c, sym_det([[f[j] for j in cols] for f in forms]))

    def test_relations_hold_for_decomposable(self, rng):
        for n, d in [(3, 2), (4, 2), (4, 3)]:
            rows = [[rand_poly(rng, max_deg=1) for _ in range(n + 1)]
                    for _ in range(d)]
            X = wedge_rows(rows, n)
            if X.is_zero():
                continue
            assert pluecker_relations_check(X)

    def test_relations_fail_for_non_decomposable(self):
        # e01 + e23 in wedge^2 of C^4 is the standard non-decomposable vector
        X = WedgeVector(3, 2, tuple(
            (mi, GaussPoly.one() if mi.elements in ((0, 1), (2, 3))
             else GaussPoly.zero()) for mi in multi_indices(3, 2)))
        assert not pluecker_relations_check(X)

    def test_cauchy_binet_pairing(self, rng):
        """Applying a wedge of forms equals the minor expansion pairing."""
        n, d = 3, 2
        forms = [[rand_rational(rng) for _ in range(n + 1)] for _ in range(d)]
        rows = [[rand_poly(rng, max_deg=2) for _ in range(n + 1)]
                for _ in range(d)]
        F = WedgeForm(n, tuple(tuple(f) for f in forms))
        X = wedge_rows(rows, n)
        applied = F.apply(X)
        # oracle: det of the d x d matrix of forms applied to rows
        entries = []
        for a in range(d):
            row = []
            for b in range(d):
                acc = GaussPoly.zero()
                for j in range(n + 1):
                    acc = acc + rows[b][j].scale(forms[a][j])
                row.append(acc)
            entries.append(row)
        want = det_exact(entries)
        assert applied == want


class TestTwoRowSign:
    def test_requires_distance_one(self):
        a = MultiIndex((0, 1), 4)
        b = MultiIndex((2, 3), 4)
        with pytest.raises(ValueError):
            two_row_identity_sign(a, b)

    def test_sign_values(self):
        a = MultiIndex((0, 1), 2)
        b = MultiIndex((0, 2), 2)
        assert two_row_identity_sign(a, b) in (-1, 1)
