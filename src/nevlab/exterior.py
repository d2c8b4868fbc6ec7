"""Exterior algebra over V = C^{n+1} with exact polynomial coordinates.

Wedge (Pluecker) coordinates of row matrices, the exact pairing of a wedge
of linear forms (the paper's L_I, ``WedgeForm``) with a wedge vector, the
two-row determinant identity relating neighbouring exterior powers, and
hyperplane configurations (the general-position tuples of a family of
linear forms), the distance-one pair collections of index sets and the
telescoping identity, all read from one determinant kernel.  Exact like
gauss, with no float boundary: this module imports no numpy at all.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from .gauss import (GaussPoly, GaussRational, PackedRows, gi_mul,
                    linear_combination, refuse_assignment)

__all__ = [
    "MultiIndex",
    "WedgeVector",
    "WedgeForm",
    "multi_indices",
    "wedge_rows",
    "wedge_layers",
    "index_distance",
    "two_row_identity_sign",
    "det_exact",
    "merge_sign",
    "next_layer",
    "HyperplaneConfig",
    "general_position_tuples",
    "BalancedResult",
    "balanced_check",
    "PairCollection",
    "distance_one_collection",
    "telescoping_identity",
]


class MultiIndex:
    """A strictly increasing d-subset of {0, ..., n}; immutable, and
    equality and hashing follow (elements, n).  The repr is a sort key of
    balanced_check."""

    __slots__ = ("elements", "n")
    __setattr__ = __delattr__ = refuse_assignment

    def __init__(self, elements: tuple, n: int):
        for a, b in zip(elements, elements[1:]):
            if a >= b:
                raise ValueError("multi-index must be strictly increasing")
        if elements and not (0 <= elements[0] and elements[-1] <= n):
            raise ValueError("multi-index element out of range")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "n", n)

    def __eq__(self, other):
        if other.__class__ is not MultiIndex:
            return NotImplemented
        return self.elements == other.elements and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.elements, self.n))

    def __repr__(self) -> str:
        return f"MultiIndex(elements={self.elements!r}, n={self.n!r})"

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def multi_indices(n: int, d: int) -> list:
    """All size-d multi-indices in {0,...,n}, lexicographic order."""
    return [MultiIndex(c, n) for c in itertools.combinations(range(n + 1), d)]


def next_layer(lower: dict, row: Sequence[tuple], k: int, ncols: int) -> dict:
    """One step of the determinant kernel: from lower, the packed minors of
    k leading rows on every increasing k-tuple of columns, the minors of
    those rows and row on every (k + 1)-tuple S, by Laplace expansion along
    row, one entry product per element of S."""
    layer = {}
    for S in itertools.combinations(range(ncols), k + 1):
        re = im = 0
        for j, col in enumerate(S):
            entry, minor = row[col], lower[S[:j] + S[j + 1:]]
            if not (entry[0] or entry[1]) or not (minor[0] or minor[1]):
                continue
            pr, pi = gi_mul(entry, minor)
            if (k + j) % 2:
                re, im = re - pr, im - pi
            else:
                re, im = re + pr, im + pi
        layer[S] = (re, im)
    return layer


def _minor_layers(rows: Sequence[Sequence[tuple]], ncols: int) -> list:
    """The one determinant kernel: minors of the leading rows on every column
    subset, built row by row by next_layer.

    rows are packed Gaussian integers (gauss.PackedRows), so the expansion is
    integer arithmetic.  layers[k] maps each increasing k-tuple S of columns
    to the packed minor of rows[:k] on S, for k = 0..len(rows); it is
    computed from layers[k - 1] with one entry product per element of S, so
    layer k costs C(ncols, k)·k products and a square m x m determinant
    m·2^(m-1) in all.
    """
    layers = [{(): (1, 0)}]
    for k, row in enumerate(rows):
        layers.append(next_layer(layers[-1], row, k, ncols))
    return layers


def det_exact(rows: Sequence[Sequence]) -> object:
    """Exact determinant of a square matrix of GaussPoly or GaussRational
    entries: the top entry of the minor table of _minor_layers (m·2^(m-1)
    entry products for an m x m matrix).  A GaussPoly matrix gives a
    GaussPoly, a GaussRational one a GaussRational.

    No command calls it: it is the tests' entry point to the determinant
    kernel, and the benchmark tracer names it."""
    m = len(rows)
    if m == 0:
        raise ValueError("empty determinant")
    if any(len(r) != m for r in rows):
        raise ValueError("determinant of a non-square matrix")
    packed = PackedRows(rows)
    top = _minor_layers(packed.rows, m)[m][tuple(range(m))]
    if isinstance(rows[0][0], GaussPoly):
        return packed.poly(top, m)
    return packed.scalar(top, m)


class WedgeVector:
    """Element of wedge^d V with GaussPoly Pluecker coordinates.

    coords, a tuple of (MultiIndex, GaussPoly), maps every size-d MultiIndex
    (lexicographic key order) to a polynomial; the degree-0 wedge has a
    single coordinate at the empty index.
    """

    __slots__ = ("n", "degree", "coords")

    def __init__(self, n: int, degree: int, coords: tuple):
        if [mi for mi, _ in coords] != multi_indices(n, degree):
            raise ValueError("wedge coordinates must cover all multi-indices in order")
        self.n, self.degree, self.coords = n, degree, coords

    def coord(self, elements) -> GaussPoly:
        key = tuple(elements)
        for mi, p in self.coords:
            if mi.elements == key:
                return p
        raise KeyError(key)

    def polys(self) -> list:
        return [p for _, p in self.coords]

    def is_zero(self) -> bool:
        return all(p.is_zero() for _, p in self.coords)


class WedgeForm:
    """Wedge of d linear forms on V, kept in the given order: forms holds d
    vectors, each a length-(n+1) tuple of GaussRational.  The paper's L_I,
    offered as library API: apply pairs it exactly with a wedge vector.

    Linearly dependent component forms are allowed; the pairing then
    degenerates to zero rather than erroring.
    """

    def __init__(self, n: int, forms: tuple):
        for f in forms:
            if len(f) != n + 1:
                raise ValueError("form length must be n+1")
        self.n, self.forms = n, forms

    @property
    def degree(self) -> int:
        return len(self.forms)

    @cached_property
    def _pluecker(self) -> tuple:
        packed = PackedRows(self.forms)
        layer = _minor_layers(packed.rows, self.n + 1)[self.degree]
        return tuple(packed.scalar(v, self.degree) for v in layer.values())

    def pluecker_coords(self) -> list:
        """Exact minor determinants, one per size-d multi-index (lex order),
        all read from one minor table and computed once per WedgeForm."""
        return list(self._pluecker)

    def apply(self, X: WedgeVector) -> GaussPoly:
        """Exact pairing with a wedge vector via the Pluecker expansion."""
        if X.degree != self.degree:
            raise ValueError("degree mismatch in wedge pairing")
        return linear_combination(self._pluecker, X.polys())


class HyperplaneConfig:
    """A family of linear forms on P^n together with the (n+1)-tuples of
    indices that are in general position (coefficient matrix invertible)."""

    __slots__ = ("n", "forms", "tuples")

    def __init__(self, n: int, forms: Tuple[Tuple[GaussRational, ...], ...],
                 tuples: Tuple[Tuple[int, ...], ...]):
        self.n, self.forms, self.tuples = n, forms, tuples


def general_position_tuples(forms: Sequence[Sequence[GaussRational]],
                            n: int) -> HyperplaneConfig:
    """Enumerate all (n+1)-subsets of the forms with nonzero determinant,
    in lexicographic order.  Every determinant is read from layer n+1 of one
    minor table of the transposed form matrix, whose entries there are the
    (n+1) x (n+1) minors on every (n+1)-subset of its columns, the forms.

    Errors when no such tuple exists; that is equivalent to the forms having
    a common zero in P^n, which makes the whole pipeline inapplicable.
    """
    forms = tuple(tuple(f) for f in forms)
    if not forms:
        raise ValueError("need at least one linear form")
    for f in forms:
        if len(f) != n + 1:
            raise ValueError(f"form has {len(f)} coefficients, expected {n + 1}")
        if not any(f):
            raise ValueError("zero linear form in configuration")
    packed = PackedRows(list(zip(*forms)))
    layer = _minor_layers(packed.rows, len(forms))[n + 1]
    tuples = [t for t, (re, im) in layer.items() if re or im]
    if not tuples:
        raise ValueError(
            "no general-position tuple: the forms have a common zero"
        )
    return HyperplaneConfig(n=n, forms=forms, tuples=tuple(tuples))


class BalancedResult:
    __slots__ = ("balanced", "counts", "empty")

    def __init__(self, balanced: bool, counts: Tuple[Tuple[object, int], ...],
                 empty: bool):
        self.balanced, self.counts, self.empty = balanced, counts, empty


def balanced_check(pairs: Sequence[Tuple[object, object]]) -> BalancedResult:
    """Whether every member index set occurs in the same number of pairs."""
    counts: Dict[object, int] = {}
    for a, b in pairs:
        counts[a] = counts.get(a, 0) + 1
        counts[b] = counts.get(b, 0) + 1
    if not counts:
        return BalancedResult(balanced=False, counts=(), empty=True)
    freqs = set(counts.values())
    return BalancedResult(
        balanced=len(freqs) == 1,
        counts=tuple(sorted(counts.items(), key=str)),
        empty=False,
    )


class PairCollection:
    """Unordered pairs of size-d index sets in {0..n} at distance one
    (symmetric difference of size two)."""

    __slots__ = ("n", "degree", "pairs")

    def __init__(self, n: int, degree: int,
                 pairs: Tuple[Tuple[MultiIndex, MultiIndex], ...]):
        self.n, self.degree, self.pairs = n, degree, pairs

    def positions(self) -> List[Tuple[int, int]]:
        """Each pair as positions in the lexicographic multi-index order."""
        where = {ia: k for k, ia in enumerate(multi_indices(self.n, self.degree))}
        return [(where[a], where[b]) for a, b in self.pairs]


def distance_one_collection(n: int, d: int) -> PairCollection:
    idx = multi_indices(n, d)
    pairs = []
    for a, b in itertools.combinations(idx, 2):
        if len(set(a.elements) ^ set(b.elements)) == 2:
            pairs.append((a, b))
    return PairCollection(n=n, degree=d, pairs=tuple(pairs))


def telescoping_identity(a: Sequence) -> Tuple[object, object]:
    """lhs = sum_{d=1}^{n} (n+1-d) * (-a_{d-1} + 2 a_d - a_{d+1}) against
    rhs = -n a_0 + (n+1) a_1 - a_{n+1}, for a sequence a_0 .. a_{n+1}."""
    if len(a) < 2:
        raise ValueError("telescoping identity needs a_0 .. a_{n+1}, n >= 0")
    n = len(a) - 2
    lhs = a[0] - a[0]
    for d in range(1, n + 1):
        lhs = lhs + (n + 1 - d) * (-a[d - 1] + 2 * a[d] - a[d + 1])
    rhs = -n * a[0] + (n + 1) * a[1] - a[n + 1]
    return lhs, rhs


def _wedges(rows: Sequence[Sequence[GaussPoly]], n: int, levels) -> list:
    """The wedges rows[0] ^ ... ^ rows[k-1] for k in levels, all read from
    one minor table of the d x (n+1) row matrix."""
    if len(rows) > n + 1:
        raise ValueError("more rows than the ambient dimension allows")
    for r in rows:
        if len(r) != n + 1:
            raise ValueError("ragged rows: each row must have length n+1")
    packed = PackedRows(rows)
    layers = _minor_layers(packed.rows, n + 1)
    return [WedgeVector(n, k, tuple((MultiIndex(S, n), packed.poly(v, k))
                                    for S, v in layers[k].items()))
            for k in levels]


def wedge_layers(rows: Sequence[Sequence[GaussPoly]], n: int) -> list:
    """The wedges rows[0] ^ ... ^ rows[k-1] for k = 0..len(rows), all read
    from one minor table (so X^0..X^d of a curve cost no more than X^d)."""
    return _wedges(rows, n, range(len(rows) + 1))


def wedge_rows(rows: Sequence[Sequence[GaussPoly]], n: int) -> WedgeVector:
    """Pluecker coordinates of the d x (n+1) row matrix: the coordinate at I
    is the exact determinant of the minor with columns I, all minors read
    from one minor table.  d = 0 gives the scalar wedge 1.  Through
    leibniz_partner these direct minors are also the independent route
    against which criterion 02 and ``nevlab verify identities`` check the
    derivative of X^d."""
    return _wedges(rows, n, [len(rows)])[0]


def index_distance(I: MultiIndex, J: MultiIndex) -> int:
    """Number of elements in which two same-size multi-indices differ."""
    if len(I) != len(J):
        raise ValueError("multi-indices must have the same size")
    return len(set(I.elements) - set(J.elements))


def merge_sign(sequence: Sequence[int]) -> int:
    """Parity sign (+1/-1) of the permutation sorting a sequence of distinct ints."""
    inv = 0
    seq = list(sequence)
    for a, b in itertools.combinations(range(len(seq)), 2):
        if seq[a] > seq[b]:
            inv += 1
    return -1 if inv % 2 else 1


def two_row_identity_sign(I: MultiIndex, J: MultiIndex) -> int:
    """Sign eps in (L_I wedge L_J)(y wedge y') = eps * L_{I&J}(X^{d-1}) * L_{I|J}(X^{d+1}).

    With K = I&J, i the element of I\\J and j the element of J\\I, the sign is
    the product of the merge parities of (K, i), (K, j), and (K, i, j): each
    bordered determinant in the two-row identity carries the row order
    (K..., extra), and the (d+1)-level determinant carries (K..., i, j).
    """
    if index_distance(I, J) != 1:
        raise ValueError("two-row identity requires index distance 1")
    K = sorted(set(I.elements) & set(J.elements))
    i = next(iter(set(I.elements) - set(J.elements)))
    j = next(iter(set(J.elements) - set(I.elements)))
    return (
        merge_sign(K + [i]) * merge_sign(K + [j]) * merge_sign(K + [i, j])
    )
