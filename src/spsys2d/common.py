"""What the exact half (`exactpoly`, `identity`) and the numeric half share,
on the standard library alone: the default tolerance, the quadratic-form minors."""

from collections import namedtuple

DEFAULT_EPS = 1e-9


class QuadCoeffs(namedtuple("QuadCoeffs", "p q r q1 q2")):
    """Coefficients p, q, r of a binary quadratic form, with the split q = q1 + q2."""

    __slots__ = ()


def quad_coeffs(u_row, v_row) -> QuadCoeffs:
    """Quadratic-form coefficients from two covector coefficient rows, of
    numbers or of `exactpoly.Polynomial`s.

    For rows (a,b,c,d) and (e,f,g,h): p = ag - ce, q1 = ah - de, q2 = bg - cf,
    q = q1 + q2, r = bh - df, each a 2x2 minor of the stacked rows.
    """
    if len(u_row) != 4 or len(v_row) != 4:
        raise ValueError("coefficient rows must have length 4")
    a, b, c, d = u_row
    e, f, g, h = v_row
    q1, q2 = a * h - d * e, b * g - c * f
    return QuadCoeffs(p=a * g - c * e, q=q1 + q2, r=b * h - d * f, q1=q1, q2=q2)
