"""Exact sparse multivariate polynomial arithmetic over the 16 formal variables.

The variables are named a..h and A..H, in that fixed order.  Coefficients are
arbitrary-precision Python integers; monomials are exponent tuples of length 16,
ordered graded-lexicographically.  Everything here is immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Mapping, Sequence
from operator import itemgetter, mul

NVARS = 16
VAR_NAMES = tuple("abcdefgh") + tuple("ABCDEFGH")
_NAME_TO_INDEX = {name: i for i, name in enumerate(VAR_NAMES)}

Exponents = tuple  # length-16 tuple of non-negative ints

_ZERO_EXP: Exponents = (0,) * NVARS


def var_index(name: str) -> int:
    try:
        return _NAME_TO_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown variable name {name!r}") from None


def _monomial_sort_key(exps: Exponents):
    # graded lexicographic, leading terms first
    return (-sum(exps), tuple(-e for e in exps))


class Polynomial:
    """Sparse polynomial with integer coefficients in the 16 fixed variables."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        self._terms = {exps: coeff for exps, coeff in (terms or {}).items() if coeff != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def const(cls, value: int) -> "Polynomial":
        return cls({_ZERO_EXP: int(value)})

    @classmethod
    def var(cls, index: int) -> "Polynomial":
        if not 0 <= index < NVARS:
            raise ValueError(f"variable index {index} out of range 0..15")
        exps = tuple(1 if i == index else 0 for i in range(NVARS))
        return cls({exps: 1})

    @classmethod
    def from_name(cls, name: str) -> "Polynomial":
        return cls.var(var_index(name))

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponents, int]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self._terms), default=-1)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        result = dict(self._terms)
        for exps, coeff in other._terms.items():
            new = result.get(exps, 0) + coeff
            if new:
                result[exps] = new
            else:
                result.pop(exps, None)
        out = Polynomial.__new__(Polynomial)
        out._terms = result
        return out

    def __neg__(self) -> "Polynomial":
        out = Polynomial.__new__(Polynomial)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero()
            out = Polynomial.__new__(Polynomial)
            out._terms = {e: c * other for e, c in self._terms.items()}
            return out
        if not isinstance(other, Polynomial):
            return NotImplemented
        result: dict[Exponents, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(x + y for x, y in zip(e1, e2))
                new = result.get(exps, 0) + c1 * c2
                if new:
                    result[exps] = new
                else:
                    result.pop(exps, None)
        out = Polynomial.__new__(Polynomial)
        out._terms = result
        return out

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- evaluation --------------------------------------------------------

    def __call__(self, assignment: Sequence):
        return self.evaluate(assignment)

    def evaluate(self, assignment: Sequence):
        """Evaluate at a full assignment of the 16 variables.

        Exact for integer input; complex input is supported for numeric work.
        """
        if len(assignment) != NVARS:
            raise ValueError(f"assignment must cover all {NVARS} variables")
        total = 0
        for exps, coeff in self._terms.items():
            value = coeff
            for v, e in zip(assignment, exps):
                if e:
                    value *= v**e
            total += value
        return total

    # -- serialization -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        return sorted(self._terms.items(), key=lambda kv: _monomial_sort_key(kv[0]))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [f"{coeff:+d}"]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(VAR_NAMES[i])
                elif e > 1:
                    factors.append(f"{VAR_NAMES[i]}^{e}")
            parts.append("*".join(factors))
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)})"


def point_evaluator(polys: Sequence[Polynomial]):
    """`polys` compiled once for exact evaluation at many integer points: a
    function from a point (16 Python ints) to the list of their values.

    Per point, each distinct a..h or A..H part of a monomial of the joint
    support is one product of its factors, picked from `[*point, 1]` (the 1
    pads a part to two factors); each monomial is the product of its two
    parts, each polynomial one dot product.  D8 and D4 share 218 monomials
    but only 34 + 34 parts.
    """
    half = NVARS // 2
    monomials = sorted({exps for p in polys for exps in p._terms})
    halves = [tuple(tuple(j for j in range(lo, lo + half) for _ in range(exps[j]))
                    for lo in (0, half)) for exps in monomials]
    parts = sorted({f for pair in halves for f in pair})
    getters = [itemgetter(*f, *[NVARS] * (2 - len(f))) for f in parts]
    index = {f: i for i, f in enumerate(parts)}
    pairs = [(index[lo], index[hi]) for lo, hi in halves]
    coeffs = [[p._terms.get(exps, 0) for exps in monomials] for p in polys]

    def values(point: Sequence[int]) -> list:
        x = [*point, 1]
        v = [math.prod(get(x)) for get in getters]
        products = [v[i] * v[j] for i, j in pairs]
        return [sum(map(mul, c, products)) for c in coeffs]

    return values


def evaluate_batch(poly: Polynomial, assignments):
    """Evaluate `poly` at many integer assignments at once, with numpy.

    `assignments` has shape (n, 16), integer or object (Python int) dtype.
    Every partial product and partial sum is bounded by
    `sum |c| * max(|x|, 1)**degree`; when that bound fits in int64 the result
    is an int64 array of length n, otherwise the evaluation runs on Python
    ints and returns an object array, so it never wraps.  With entries in
    [-9, 9] and the degree-8 polynomials built here the bound is ~1.2e10.
    """
    import numpy as np

    assignments = np.asarray(assignments)
    if assignments.dtype != object:
        assignments = assignments.astype(np.int64, copy=False)
    if assignments.ndim != 2 or assignments.shape[1] != NVARS:
        raise ValueError("assignments must have shape (n, 16)")
    n = assignments.shape[0]
    if poly.is_zero() or n == 0:
        return np.zeros(n, dtype=np.int64)
    weight, degree = _weight_and_degree(poly)
    xmax = max(int(assignments.max()), -int(assignments.min()), 1)
    dtype = np.int64 if weight * xmax ** degree < 2**63 else object
    assignments = assignments.astype(dtype, copy=False)
    exps, coeffs = _compiled(poly, dtype)  # (t, 16) and (t,)
    values = np.tile(coeffs, (n, 1))  # (n, t)
    for j in range(NVARS):
        ej = exps[:, j]
        if not ej.any():
            continue
        values *= assignments[:, j][:, None] ** ej[None, :]
    return values.sum(axis=1)


# a Polynomial is hashable and never mutated, so what evaluate_batch derives
# from it is cached; the dtype follows the overflow bound, so it is in the key


@functools.lru_cache(maxsize=256)
def _weight_and_degree(poly: Polynomial) -> tuple:
    """sum |c| over the terms, and the total degree."""
    return sum(abs(c) for c in poly._terms.values()), poly.degree()


@functools.lru_cache(maxsize=256)
def _compiled(poly: Polynomial, dtype) -> tuple:
    """The read-only exponent (t, 16) and coefficient (t,) arrays of the
    terms, in `dtype`."""
    import numpy as np

    exps = np.array(list(poly._terms), dtype=dtype).reshape(-1, NVARS)
    coeffs = np.array(list(poly._terms.values()), dtype=dtype)
    for a in (exps, coeffs):
        a.setflags(write=False)
    return exps, coeffs


class SymMatrix:
    """Dense rectangular matrix of Polynomial entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Polynomial]]):
        if len(entries) == 0:
            raise ValueError("matrix must have at least one row")
        if any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("matrix rows must have equal length")
        self.rows, self.cols = len(entries), len(entries[0])
        self.entries = tuple(tuple(row) for row in entries)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def evaluate(self, assignment: Sequence) -> list[list]:
        return [[e.evaluate(assignment) for e in row] for row in self.entries]

    def gather(self):
        """For a matrix of single variables and zeros, such as
        `identity.det8_matrix`: a function from a point (16 ints) to the
        matrix there, gathered from the point with no polynomial evaluated."""
        slots = {Polynomial.var(j): j for j in range(NVARS)} | {Polynomial.zero(): NVARS}
        if not all(e in slots for row in self.entries for e in row):
            raise ValueError("every entry must be a single variable or 0")
        rows = [[slots[e] for e in row] for row in self.entries]

        def at(point: Sequence[int]) -> list:
            x = [*point, 0]
            return [[x[j] for j in row] for row in rows]

        return at


def _submatrix_is_structurally_zero(
    m: SymMatrix, rows: Sequence[int], cols: Sequence[int]
) -> bool:
    """True when the selected minor has an all-zero row or column."""
    return (any(all(m[i, j].is_zero() for j in cols) for i in rows)
            or any(all(m[i, j].is_zero() for i in rows) for j in cols))


def _det_cofactor(m: SymMatrix, rows: tuple, cols: tuple, memo: dict) -> Polynomial:
    """Determinant of the minor (rows, cols) by expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Polynomial.const(1)
    if n == 1:
        return m[rows[0], cols[0]]
    key = (rows, cols)
    cached = memo.get(key)
    if cached is not None:
        return cached
    i = rows[0]
    rest = rows[1:]
    total = Polynomial.zero()
    for pos, j in enumerate(cols):
        entry = m[i, j]
        if entry.is_zero():
            continue
        sub_cols = cols[:pos] + cols[pos + 1 :]
        if _submatrix_is_structurally_zero(m, rest, sub_cols):
            continue
        minor = _det_cofactor(m, rest, sub_cols, memo)
        term = entry * minor
        if pos % 2:
            term = -term
        total = total + term
    memo[key] = total
    return total


def det_cofactor(m: SymMatrix) -> Polynomial:
    """Full cofactor-expansion determinant (independent of the row selections
    of `laplace_terms`)."""
    if not m.is_square():
        raise ValueError("determinant requires a square matrix")
    idx = tuple(range(m.rows))
    return _det_cofactor(m, idx, idx, {})


class LaplaceTerm(namedtuple("LaplaceTerm", "cols sign minor complementary")):
    """One surviving term of a Laplace expansion by a fixed set of rows.

    `cols` is 1-based to match the usual determinant bookkeeping.
    """

    __slots__ = ()

    def contribution(self) -> Polynomial:
        return (self.minor * self.complementary) * self.sign


def laplace_terms(m: SymMatrix, pivot_rows: Iterable[int]) -> list[LaplaceTerm]:
    """Nonzero terms of the Laplace expansion of det(m) by `pivot_rows`.

    Terms whose minor or complementary minor contains an all-zero row or
    column are dropped without being expanded.
    """
    if not m.is_square():
        raise ValueError("Laplace expansion requires a square matrix")
    n = m.rows
    pivot = tuple(sorted(set(pivot_rows)))
    if not pivot or len(pivot) >= n:
        raise ValueError("pivot_rows must be a nonempty proper subset of the rows")
    if pivot[0] < 0 or pivot[-1] >= n:
        raise ValueError("pivot row index out of range")
    other_rows = tuple(i for i in range(n) if i not in pivot)
    k = len(pivot)
    all_cols = range(n)
    terms = []
    memo: dict = {}
    for col_sel in itertools.combinations(all_cols, k):
        other_cols = tuple(j for j in all_cols if j not in col_sel)
        if _submatrix_is_structurally_zero(m, pivot, col_sel):
            continue
        if _submatrix_is_structurally_zero(m, other_rows, other_cols):
            continue
        sign = -1 if (sum(pivot) + sum(col_sel)) % 2 else 1
        minor = _det_cofactor(m, pivot, col_sel, memo)
        if minor.is_zero():
            continue
        comp = _det_cofactor(m, other_rows, other_cols, memo)
        if comp.is_zero():
            continue
        terms.append(LaplaceTerm(cols=tuple(j + 1 for j in col_sel), sign=sign,
                                 minor=minor, complementary=comp))
    return terms


def int_det_bareiss(matrix) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination.

    Independent oracle for the symbolic determinants: works on plain integer
    entries with no symbolic machinery involved.
    """
    a = [[int(x) for x in row] for row in matrix]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
