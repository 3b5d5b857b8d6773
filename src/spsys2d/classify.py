"""Rank and normal forms for planes in tensor squares, the constructive search
for product vectors in intersections, and classification of identical-factor
triples into the five canonical families C1..C5 with an explicit isomorphism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .common import quad_coeffs
from .tensorlinalg import (
    DEFAULT_EPS, FRAME_TOL, I2, Subspace, _binary_roots, _cross, _factor, _norm, _projective,
    _real_peak, _unit, annihilator, det_bilinear, intersect, kron, require_finite,
    residual_tol, singular_values2,
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


# ---------------------------------------------------------------------------
# Main Lemma, constructively


def extend_right(plane: Subspace) -> Subspace:
    """plane (x) C^2 inside the 8-dim space."""
    cols = [kron(plane.basis[:, i], e) for i in range(plane.dim) for e in I2]
    return Subspace(8, np.column_stack(cols))


def extend_left(plane: Subspace) -> Subspace:
    """C^2 (x) plane inside the 8-dim space."""
    cols = [kron(e, plane.basis[:, i]) for i in range(plane.dim) for e in I2]
    return Subspace(8, np.column_stack(cols))


def _annihilated(rows) -> tuple:
    """The unit x with r0 x0 + r1 x1 = 0 for the larger row r of `rows` (two
    pairs of Python complex), or e1 when both rows are zero."""
    a, b = max(rows, key=_norm)
    n = _norm((a, b))
    return (1 + 0j, 0j) if n == 0 else (-b / n, a / n)


def _solve_factor(covs, y) -> tuple:
    """(x, residual) for two covectors of a plane L, each a 4-vector c read as
    the 2x2 [[c0, c1], [c2, c3]], and a unit y: the unit x that the larger row
    of the system c (x (x) y) = 0 annihilates, and the norm of the system at
    x, which is dist(x (x) y, L) when the covectors are an orthonormal basis
    of L's annihilator."""
    rows = [(c[0] * y[0] + c[1] * y[1], c[2] * y[0] + c[3] * y[1]) for c in covs]
    x = _annihilated(rows)
    return x, _norm([r[0] * x[0] + r[1] * x[1] for r in rows])


# the x2 tried when neither quadratic offers a root (both vanish identically)
_FIXED_DIRECTIONS = ((1 + 0j, 0j), (0j, 1 + 0j), (math.sqrt(0.5) + 0j, math.sqrt(0.5) + 0j))


def product_in_intersection(L12: Subspace, L23: Subspace, eps: float = DEFAULT_EPS):
    """A product triple (x1, x2, x3) witnessing a nonzero intersection.

    Returns None when the intersection of the two extended subspaces is zero.
    Otherwise each root of either binary quadratic form in x2 (the Main
    Lemma's common root is among them; the fixed directions when both forms
    vanish identically) is tried as x2, x1 and x3 are solved from their 2x2
    systems in closed form, and the triple with the smallest residual
    max(dist(x1 (x) x2, L12), dist(x2 (x) x3, L23)) is returned.
    """
    if L12.ambient_dim != 4 or L12.dim != 2 or L23.ambient_dim != 4 or L23.dim != 2:
        raise ValueError("both planes must be 2-dim in 4-dim ambient spaces")
    inter = intersect(extend_right(L12), extend_left(L23), eps)
    if inter.dim == 0:
        return None

    # each plane's covectors, laid out with the shared factor x2 second: those
    # of L23 (x2 (x) x3) transposed
    lo = annihilator(L12, eps).basis.T.tolist()
    hi = [[c[0], c[2], c[1], c[3]] for c in annihilator(L23, eps).basis.T.tolist()]
    roots = [_binary_roots(*quad_coeffs(*covs)[:3], eps) for covs in (lo, hi)]
    candidates = [r for rs in roots if rs for r in rs] or _FIXED_DIRECTIONS

    def fit(x2):
        x2 = _unit(x2)
        (x1, r12), (x3, r23) = _solve_factor(lo, x2), _solve_factor(hi, x2)
        return max(r12, r23), (x1, x2, x3)

    _, best = min(map(fit, candidates), key=lambda t: t[0])
    return tuple(np.array(_projective(x), dtype=complex) for x in best)


# ---------------------------------------------------------------------------
# Identical-factor triples


@dataclass(frozen=True, eq=False)
class Triple:
    """The data (E2, E3) of an identical-factor triple; E1 is implicitly C^2."""

    E2: Subspace
    E3: Subspace

    def validate(self, eps: float = DEFAULT_EPS) -> None:
        if self.E2.ambient_dim != 4 or self.E2.dim != 2:
            raise ValueError("E2 must be a 2-dim subspace of the 4-dim space")
        if self.E3.ambient_dim != 8 or self.E3.dim != 2:
            raise ValueError("E3 must be a 2-dim subspace of the 8-dim space")
        window = intersect(extend_right(self.E2), extend_left(self.E2), eps)
        tol = residual_tol(eps)
        for i in range(self.E3.dim):
            if window.distance(self.E3.basis[:, i]) > tol:
                raise NotSubproductTripleError(
                    "E3 is not contained in the intersection of the E2 extensions"
                )


@dataclass(frozen=True)
class TripleClass:
    label: str  # C1..C5
    lam: complex | None = None

    def __post_init__(self):
        check_label(self.label, self.lam, LABELS, "label")


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


@dataclass(frozen=True, eq=False)
class TripleIso:
    """theta maps the input triple onto the canonical triple of its class."""

    theta: np.ndarray

    def apply2(self, s: Subspace, eps: float = DEFAULT_EPS) -> Subspace:
        return s.map_by(kron(self.theta, self.theta), eps)

    def apply3(self, s: Subspace, eps: float = DEFAULT_EPS) -> Subspace:
        t3 = kron(kron(self.theta, self.theta), self.theta)
        return s.map_by(t3, eps)


@dataclass(frozen=True, eq=False)
class Classification:
    """A class, the isomorphism onto its canonical representative, the rank
    of the plane E2 with its margin, and the certificate residual per pair
    (s, t), empty for a triple.  Unpacks as `label, iso`.  The rank counts
    the singular values s of the determinant form on E2 above thr = eps *
    max(1, s0); the margin is the least max(s/thr, thr/s) over s > 0 (inf for
    a zero form), near 1 for a shaky call.  At rank 1 it is thr/s1 with s1 at
    roundoff, so it measures rounding, not distance to a flip: 1.3e7 to 2.2e7
    on `random_system(SystemLabel("E3", 0.5), seed, 6)`, seeds 0-3."""

    label: TripleClass  # or systems.SystemLabel
    iso: TripleIso  # or systems.SystemIso
    rank: int
    rank_margin: float
    residuals: dict = field(default_factory=dict)

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


def canonical_triple(c: TripleClass, eps: float = DEFAULT_EPS) -> Triple:
    """The canonical triple of each class, in standard coordinates: the
    degree-(1, 2, 3) data of the canonical system of `canonical_beta`."""
    b11 = canonical_beta(c, 1)
    return Triple(
        E2=Subspace.from_spanning(b11, eps=eps),
        E3=Subspace.from_spanning(kron(b11, I2) @ canonical_beta(c, 2), eps=eps),
    )


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


def _verify_iso(t: Triple, cls: TripleClass, iso: TripleIso, eps: float) -> None:
    """The images of E2 and E3 are the canonical ones: the same dimension,
    and projectors within residual_tol(eps) entrywise."""
    target = canonical_triple(cls, eps)
    tol = residual_tol(eps)

    def matches(image: Subspace, canonical: Subspace) -> bool:
        return (image.dim == canonical.dim
                and np.abs(image.projector() - canonical.projector()).max() <= tol)

    if not matches(iso.apply2(t.E2, eps), target.E2):
        raise NotSubproductTripleError("E2 does not map onto the canonical plane")
    if not matches(iso.apply3(t.E3, eps), target.E3):
        raise NotSubproductTripleError(
            "E3 is inconsistent with the normal form implied by E2"
        )


def classify_plane(plane: Subspace, eps: float = DEFAULT_EPS) -> Classification:
    """The class C1..C5, lambda and theta_1 read from the normal form of the
    plane E2 alone, with its rank and margin; nothing about E3 is checked.
    The read is closed-form arithmetic on Python complex scalars
    (`_read_plane`), and theta_1 follows the phase rule of
    `_theta_from_columns`."""
    return _read_plane(plane.basis.T.tolist(), eps)


def _read_plane(cols, eps: float) -> Classification:
    """`classify_plane` of the plane with the orthonormal basis `cols`, two
    4-vectors of Python complex (ValueError for another count)."""
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


def classify_triple(t: Triple, eps: float = DEFAULT_EPS) -> Classification:
    """Classify a triple into C1..C5 with lambda and an explicit isomorphism,
    certified on both E2 and E3."""
    t.validate(eps)
    result = classify_plane(t.E2, eps)
    _verify_iso(t, *result, eps)
    return result
