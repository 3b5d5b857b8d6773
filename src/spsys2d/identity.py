"""Symbolic proof machinery for the determinant identity D8 + D4 = 0.

D8 is the 8x8 determinant detecting a nontrivial intersection of the two
extended subspaces; D4 is the resultant of the two associated binary quadratic
forms.  Their sum vanishes identically as a polynomial in the 16 variables,
which is the computational heart of the Main Lemma.
"""

from __future__ import annotations

from functools import cache

from .common import quad_coeffs
from .exactpoly import (
    LaplaceTerm,
    Polynomial,
    SymMatrix,
    det_cofactor,
    laplace_terms,
)

MAX_DEGREE = 8  # an 8x8 determinant of degree-<=1 entries

APPENDIX_PIVOT_ROWS = (0, 1, 2, 3)


def det8_matrix() -> SymMatrix:
    """The structured 8x8 matrix whose determinant is D8.

    Rows: the four extensions of the first plane's covectors by the third
    factor, then the four extensions of the second plane's covectors by the
    first factor; columns in the fixed big-endian tensor basis.
    """
    a, b, c, d, e, f, g, h = map(Polynomial.from_name, "abcdefgh")
    A, B, C, D, E, F, G, H = map(Polynomial.from_name, "ABCDEFGH")
    z = Polynomial.zero()
    return SymMatrix(
        [
            [a, b, c, d, z, z, z, z],
            [e, f, g, h, z, z, z, z],
            [z, z, z, z, a, b, c, d],
            [z, z, z, z, e, f, g, h],
            [A, B, z, z, C, D, z, z],
            [E, F, z, z, G, H, z, z],
            [z, z, A, B, z, z, C, D],
            [z, z, E, F, z, z, G, H],
        ]
    )


def resultant4(p, q, r, P, Q, R) -> Polynomial:
    """Resultant of two binary quadratic forms as the 4x4 Sylvester determinant."""
    z = Polynomial.zero()
    return det_cofactor(SymMatrix([[p, q, r, z], [z, p, q, r], [P, Q, R, z], [z, P, Q, R]]))


@cache
def d8_polynomial() -> Polynomial:
    """D8, expanded via the Laplace expansion by the first four rows.

    Sums the cached `surviving_laplace_terms`, so the expansion runs once per
    process; Polynomials are immutable, so the cached value is safe to share.
    """
    d8 = sum((t.contribution() for t in surviving_laplace_terms()), Polynomial.zero())
    assert d8.degree() <= MAX_DEGREE
    return d8


def _coefficient_rows():
    rows = [list(map(Polynomial.from_name, names)) for names in ("abcd", "efgh", "ABCD", "EFGH")]
    return rows[:2], rows[2:]


@cache
def d4_polynomial() -> Polynomial:
    """D4, built from the two quadratic forms' coefficients and their resultant.

    Built once per process, like `d8_polynomial`.
    """
    first, second = _coefficient_rows()
    lo = quad_coeffs(*first)
    hi = quad_coeffs(*second)
    d4 = resultant4(lo.p, lo.q, lo.r, hi.p, hi.q, hi.r)
    assert d4.degree() <= MAX_DEGREE
    return d4


@cache
def surviving_laplace_terms() -> tuple[LaplaceTerm, ...]:
    """The nonzero terms of the Laplace expansion of D8 by the first four rows.

    Exactly 18 of the 70 column selections survive the structural-zero check.
    Computed once per process; the tuple of frozen terms cannot be mutated.
    """
    return tuple(laplace_terms(det8_matrix(), APPENDIX_PIVOT_ROWS))


def main_identity_residual() -> Polynomial:
    """D8 + D4; identically zero, returned as a polynomial for verification."""
    return d8_polynomial() + d4_polynomial()
