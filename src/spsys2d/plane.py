"""The read of a plane E2 in C^2 (x) C^2: the rank and normal form of the
determinant form restricted to it, the class C1..C5 with lambda and theta_1
that they give (`_read_plane`), the canonical tables of each class
(`canonical_beta`, `canonical_maps`), and the records that carry a class.

It is a module of its own so that classifying a system loads only this:
`classify` keeps triples and the Main Lemma, which only a triple reaches.
"""

from __future__ import annotations

import math

import numpy as np

from .tensorlinalg import (
    DEFAULT_EPS, FRAME_TOL, Record, Subspace, ValueRecord, _binary_roots, _cross, _factor, _norm,
    _projective, _real_peak, _unit, det_bilinear, require_finite, residual_tol,
    singular_values2,
)


LABELS = ("C1", "C2", "C3", "C4", "C5")


class NotSubproductTripleError(ValueError):
    """The input triple is inconsistent with every canonical normal form."""


def _collinear(u, v, tol: float) -> bool:
    return _cross(u, v) <= tol


def _completion(x) -> tuple:
    """A unit vector spanning the orthogonal complement of x in C^2."""
    x0, x1 = _unit(x)
    return (-x1.conjugate(), x0.conjugate())


def _plane_form(cols) -> tuple:
    """The orthonormal basis `cols` of a plane in C^4, two sequences of Python
    complex, and the determinant form restricted to it, (g00, g01, g11)."""
    if len(cols) != 2 or len(cols[0]) != 4:
        raise ValueError("expected a 2-dim plane in a 4-dim ambient space")
    u, v = cols
    return u, v, (det_bilinear(u, u), det_bilinear(u, v), det_bilinear(v, v))


def rank_of_plane(plane: Subspace, eps: float = DEFAULT_EPS) -> int:
    """Rank (0, 1, or 2) of the restricted determinant form."""
    return _form_rank(_plane_form(plane.basis.T.tolist())[2], eps)[0]


def _form_rank(g: tuple, eps: float):
    """(rank, margin) of the restricted form g, as `Classification` defines them."""
    s = singular_values2(g[0], g[1], g[1], g[2])
    # orthonormal basis bounds the form entries by 1, so an absolute scale works
    thr = eps * max(1.0, s[0])
    rank = sum(sv > thr for sv in s)
    ratios = [sv / thr if thr else math.inf for sv in s if sv > 0]
    margin = min((max(r, 1 / r) for r in ratios), default=math.inf)
    return rank, float(margin)


def _normal_form(u, v, g, rank, eps) -> tuple:
    """((x1, y1), (x2, y2), case_tag) of the normal form of span{u, v}, whose
    restricted form g has this rank, as tuples of Python complex: the plane is
    span{x1 (x) x2, y1 (x) y2} at rank 2, span{x1 (x) x2, y1 (x) x2 + x1 (x) y2}
    at rank 1, and C^2 (x) x2 (case_tag "left") or x1 (x) C^2 ("right") at 0."""
    loose = residual_tol(eps)
    if rank == 2:
        return (*_normal_form_rank2(u, v, g, eps, loose), None)
    if rank == 1:
        return (*_normal_form_rank1(u, v, g, loose), None)
    return _normal_form_rank0(u, v, loose)


def _combine(u, v, ab) -> tuple:
    """a u + b v for the coordinates ab = (a, b) in the basis (u, v)."""
    a, b = ab
    return tuple(a * ui + b * vi for ui, vi in zip(u, v))


def _vdot(a, b) -> complex:
    """np.vdot of two 2-vectors: conj(a0) b0 + conj(a1) b1."""
    return a[0].conjugate() * b[0] + a[1].conjugate() * b[1]


def _inner(a, b, w) -> complex:
    """<a (x) b, w> = conj(a)^T W conj(b), W the 2x2 reshape of w."""
    a0, a1, b0, b1 = a[0].conjugate(), a[1].conjugate(), b[0].conjugate(), b[1].conjugate()
    return a0 * (b0 * w[0] + b1 * w[1]) + a1 * (b0 * w[2] + b1 * w[3])


def _normal_form_rank2(u, v, g, eps, loose):
    roots = _binary_roots(g[0], 2 * g[1], g[2], eps)
    if roots is None or len(roots) != 2:
        raise NotSubproductTripleError("restricted form is degenerate at rank 2")
    products = []
    for ab in roots:
        factors = _factor(_combine(u, v, ab), loose)
        if factors is None:
            raise NotSubproductTripleError("isotropic direction failed the rank-1 test")
        products.append(factors)
    (x1, x2), (y1, y2) = products
    return (x1, y1), (x2, y2)


def _normal_form_rank1(u, v, g, loose):
    # kernel direction of the restricted form = the unique product direction;
    # for a rank-1 symmetric g both candidates span it, the larger is kept
    k = _unit(max((g[2], -g[1]), (-g[1], g[0]), key=_norm))
    psi = _combine(u, v, k)
    xi = _combine(u, v, (-k[1].conjugate(), k[0].conjugate()))  # orthogonal to psi
    factors = _factor(psi, loose)
    if factors is None:
        raise NotSubproductTripleError("rank-1 product direction failed the rank-1 test")
    x1, x2 = factors
    y1c = _completion(x1)
    y2c = _completion(x2)
    # the frame x1 (x) x2, x1 (x) y2c, y1c (x) x2, y1c (x) y2c is orthogonal,
    # since y_i is orthogonal to x_i, so xi's coordinates in it are
    # projections; x2 (the y of `_factor`) and both completions are unit
    n1 = _norm(x1)
    beta = _inner(x1, y2c, xi) / (n1 * n1)
    gamma = _inner(y1c, x2, xi)
    delta = _inner(y1c, y2c, xi)
    scale = max(abs(beta), abs(gamma))
    if scale <= loose or abs(delta) > loose * max(1.0, scale):
        raise NotSubproductTripleError("plane does not fit the rank-1 normal form")
    return (x1, tuple(gamma * z for z in y1c)), (x2, tuple(beta * z for z in y2c))


def _normal_form_rank0(u, v, loose):
    f1 = _factor(u, loose)
    f2 = _factor(v, loose)
    if f1 is None or f2 is None:
        raise NotSubproductTripleError("rank-0 plane contains a non-product vector")
    (u1, v1), (u2, v2) = f1, f2
    left_score = _cross(v1, v2)  # second factors collinear
    right_score = _cross(u1, u2)  # first factors collinear
    if min(left_score, right_score) > loose:
        raise NotSubproductTripleError("rank-0 plane is not of the left or right form")
    if left_score <= right_score:
        x2 = _projective(v1)
        return (u1, u2), (x2, _completion(x2)), "left"
    x1 = _projective(u1)
    return (x1, _completion(x1)), (v1, v2), "right"


class TripleClass(ValueRecord):
    """A class C1..C5, with the lambda of C3."""

    __slots__ = _shown = ("label", "lam")

    def __init__(self, label: str, lam: complex | None = None):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "lam", lam)
        check_label(label, lam, LABELS, "label")


def check_label(label: str, lam, labels: tuple, noun: str) -> None:
    """The rule of TripleClass and SystemLabel: a label among `labels`, with
    a nonzero lambda for the third (C3, E3) and none for the others."""
    if label not in labels:
        raise ValueError(f"unknown {noun} {label!r}")
    if label == labels[2]:
        if lam is None or lam == 0:
            raise ValueError(f"{label} requires a nonzero lambda")
    elif lam is not None:
        raise ValueError(f"label {label} carries no lambda")


class TripleIso(Record):
    """theta maps the input triple onto the canonical triple of its class."""

    __slots__ = _shown = ("theta",)

    def __init__(self, theta: np.ndarray):
        object.__setattr__(self, "theta", theta)


_NEW_DICT = object()  # the default of Classification.residuals: a new dict per record


class Classification(Record):
    """A class, the isomorphism onto its canonical representative, the rank
    of the plane E2 with its margin, and the certificate residual per pair
    (s, t) of the system (for a triple, the three pairs of its horizon-3
    system).  Unpacks as `label, iso`.  The rank counts the singular values s
    of the determinant form on E2 above thr = eps * max(1, s0); the margin is
    the least max(s/thr, thr/s) over s > 0 (inf for a zero form), near 1 for a
    shaky call.  At rank 1 it is thr/s1 with s1 at roundoff, so it measures
    rounding, not distance to a flip: 1.3e7 to 2.2e7 on
    `random_system(SystemLabel("E3", 0.5), seed, 6)`, seeds 0-3.  With no
    `residuals` given, a new empty dict."""

    __slots__ = _shown = ("label", "iso", "rank", "rank_margin", "residuals")

    def __init__(self, label: TripleClass, iso: TripleIso, rank: int, rank_margin: float,
                 residuals: dict = _NEW_DICT):
        # label and iso: or a systems.SystemLabel and systems.SystemIso
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "iso", iso)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rank_margin", rank_margin)
        object.__setattr__(self, "residuals", {} if residuals is _NEW_DICT else residuals)

    def __iter__(self):
        return iter((self.label, self.iso))


def _canonical_stack(c: TripleClass, degrees: range) -> np.ndarray:
    """canonical_beta(c, s) for each s in `degrees` (consecutive), as one
    (len(degrees), 4, 2) stack filled by slices."""
    b = np.zeros((len(degrees), 4, 2), dtype=complex)
    if c.label == "C2":
        odd, even = b[1 - degrees.start % 2::2], b[degrees.start % 2::2]
        odd[:, 1, 0] = odd[:, 2, 1] = 1  # e1 -> e1 (x) e2, e2 -> e2 (x) e1
        even[:, 0, 0] = even[:, 3, 1] = 1  # as C1
        return b
    b[:, 0, 0] = 1  # e1 -> e1 (x) e1
    if c.label == "C1":
        b[:, 3, 1] = 1  # e2 -> e2 (x) e2
    elif c.label == "C3":
        b[:, 2, 1] = 1  # e2 (x) e1
        b[:, 1, 1] = [c.lam ** s for s in degrees]  # + lam^s e1 (x) e2
    elif c.label == "C4":
        b[:, 2, 1] = 1
    else:  # C5
        b[:, 1, 1] = 1
    return b


def canonical_beta(c: TripleClass, s: int) -> np.ndarray:
    """The 4x2 map beta[s, t]: E_{s+t} -> E_s (x) E_t of the canonical system
    whose degree-(1, 2, 3) triple is of class c (independent of t)."""
    return _canonical_stack(c, range(s, s + 1))[0]


def canonical_maps(c: TripleClass, horizon: int) -> np.ndarray:
    """The read-only (horizon - 1, 4, 2) stack of canonical_beta(c, s) for s =
    1..horizon-1: every map of the canonical system, which repeats maps[s - 1]
    for each t.  ValueError for a horizon below 3 or a non-finite entry;
    OverflowError when lambda^s overflows."""
    if horizon < 3:
        raise ValueError("horizon must be at least 3")
    maps = _canonical_stack(c, range(1, horizon))
    require_finite(maps).setflags(write=False)
    return maps


def _theta_from_columns(x, y) -> tuple:
    """The inverse of the frame with columns x, y, as rows of Python complex;
    refused when |det| < FRAME_TOL times the frame's squared Frobenius norm.
    Each column is first fixed by `_real_peak`, so theta_1 does not depend on
    the phases of the plane's basis (LAPACK's choice)."""
    x, y = _real_peak(x), _real_peak(y)
    det = x[0] * y[1] - y[0] * x[1]
    n = _norm((x[0], x[1], y[0], y[1]))
    if det == 0 or abs(det) < FRAME_TOL * n * n:
        raise NotSubproductTripleError("degenerate basis while building theta")
    return (y[1] / det, -y[0] / det), (-x[1] / det, x[0] / det)


def _read_plane(cols, eps: float) -> Classification:
    """The class C1..C5, lambda and theta_1 read from the normal form of the
    plane E2 with the orthonormal basis `cols`, two 4-vectors of Python
    complex (ValueError for another count), with its rank and margin; nothing
    about E3 is checked.  The read is closed-form arithmetic on Python complex
    scalars, and theta_1 follows the phase rule of `_theta_from_columns`."""
    u, v, g = _plane_form(cols)
    rank, margin = _form_rank(g, eps)
    (x1, y1), (x2, y2), case_tag = _normal_form(u, v, g, rank, eps)
    loose = residual_tol(eps)

    if rank == 2:
        if _collinear(x1, x2, loose) and _collinear(y1, y2, loose):
            cls = TripleClass("C1")
            theta = _theta_from_columns(x1, y1)
        elif _collinear(x2, y1, loose) and _collinear(y2, x1, loose):
            cls = TripleClass("C2")
            theta = _theta_from_columns(x1, x2)
        else:
            raise NotSubproductTripleError(
                "rank-2 product directions pair neither straight nor crossed"
            )
    elif rank == 1:
        if not _collinear(x1, x2, loose):
            raise NotSubproductTripleError(
                "rank-1 product direction does not have identical factors"
            )
        x = _unit(x1)
        theta = _theta_from_columns(x, _completion(x))
        # x2 = c x1, so modulo x (x) x the plane's second vector y1 (x) x2 +
        # x1 (x) y2 is c b1 y (x) x + b2 x (x) y, with b = the y-coordinates
        c = _vdot(x1, x2) / _vdot(x1, x1)
        row = theta[1]  # (theta @ y)[1], the y-coordinate
        yx_coeff = c * (row[0] * y1[0] + row[1] * y1[1])
        xy_coeff = row[0] * y2[0] + row[1] * y2[1]
        if abs(yx_coeff) <= loose * abs(xy_coeff):
            raise NotSubproductTripleError("rank-1 plane lambda is unbounded")
        cls = TripleClass("C3", complex(xy_coeff / yx_coeff))
    else:
        if case_tag == "left":
            cls = TripleClass("C4")
            x = x2
        else:
            cls = TripleClass("C5")
            x = x1
        x = _unit(x)
        theta = _theta_from_columns(x, _completion(x))

    return Classification(cls, TripleIso(theta=np.array(theta, dtype=complex)), rank, margin)
