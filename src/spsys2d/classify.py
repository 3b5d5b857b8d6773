"""Rank and normal forms for planes in tensor squares, the constructive search
for product vectors in intersections, and classification of identical-factor
triples into the five canonical families C1..C5 with an explicit isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .identity import quad_coeffs
from .tensorlinalg import (
    COLLINEAR_TOL, DEFAULT_EPS, DET_FORM, DISTINCT_TOL, FRAME_TOL, I2, Subspace, annihilator,
    as_cvec, factor_rank_one, intersect, kron, loose_tol, normalize_projective,
    projective_cross, require_finite, residual_tol, roots_binary_quadratic,
)

LABELS = ("C1", "C2", "C3", "C4", "C5")


class NotSubproductTripleError(ValueError):
    """The input triple is inconsistent with every canonical normal form."""


class ChainUnclassifiedError(ValueError):
    """Chains with a rank-0 plane have no complete normal-form theory."""


def _collinear(u, v, tol: float) -> bool:
    return projective_cross(u, v) <= tol


def _completion(x: np.ndarray) -> np.ndarray:
    """A unit vector spanning the orthogonal complement of x in C^2."""
    x = as_cvec(x)
    x = x / np.linalg.norm(x)
    y = np.array([-np.conj(x[1]), np.conj(x[0])], dtype=complex)
    return y


def restricted_form_matrix(plane: Subspace) -> np.ndarray:
    """2x2 symmetric matrix of the determinant form restricted to the plane."""
    if plane.ambient_dim != 4 or plane.dim != 2:
        raise ValueError("expected a 2-dim plane in a 4-dim ambient space")
    return plane.basis.T @ DET_FORM @ plane.basis


def rank_of_plane(plane: Subspace, eps: float = DEFAULT_EPS) -> int:
    """Rank (0, 1, or 2) of the restricted determinant form."""
    return rank_with_margin(plane, eps)[0]


def rank_with_margin(plane: Subspace, eps: float = DEFAULT_EPS):
    """Rank plus a confidence margin: ratio of the borderline singular value
    to the decision threshold (values near 1 mean a shaky rank call)."""
    return _form_rank(restricted_form_matrix(plane), eps)


def _form_rank(g: np.ndarray, eps: float):
    s = np.linalg.svd(g, compute_uv=False)
    # orthonormal basis bounds the form entries by 1, so an absolute scale works
    thr = eps * max(1.0, float(s[0]))
    rank = int(np.sum(s > thr))
    ratios = [sv / thr for sv in s if sv > 0]
    margin = min((max(r, 1 / r) for r in ratios), default=np.inf)
    return rank, float(margin)


@dataclass(frozen=True, eq=False)
class PlaneNormalForm:
    """Bases realizing the rank-dependent normal form of a plane.

    rank 2: plane = span{x1 (x) x2, y1 (x) y2}
    rank 1: plane = span{x1 (x) x2, y1 (x) x2 + x1 (x) y2}
    rank 0: plane = (full first factor) (x) x2   (case_tag "left")
            or x1 (x) (full second factor)       (case_tag "right")
    """

    rank: int
    basis1: tuple  # (x1, y1)
    basis2: tuple  # (x2, y2)
    case_tag: str | None = None
    margin: float = field(kw_only=True)  # as in rank_with_margin


def plane_normal_form(plane: Subspace, eps: float = DEFAULT_EPS) -> PlaneNormalForm:
    g = restricted_form_matrix(plane)
    return _normal_form(plane, g, *_form_rank(g, eps), eps)


def _normal_form(plane, g, rank, margin, eps) -> PlaneNormalForm:
    """The normal form of a plane whose restricted form g has this rank."""
    loose = loose_tol(eps)
    if rank == 2:
        bases = _normal_form_rank2(plane, g, eps, loose)
    elif rank == 1:
        bases = _normal_form_rank1(plane, g, loose)
    else:
        bases = _normal_form_rank0(plane, loose)
    return PlaneNormalForm(rank, *bases, margin=margin)


def _normal_form_rank2(plane, g, eps, loose):
    roots = roots_binary_quadratic(g[0, 0], 2 * g[0, 1], g[1, 1], eps)
    if roots.identically_zero or len(roots.roots) != 2:
        raise NotSubproductTripleError("restricted form is degenerate at rank 2")
    products = []
    for ab in roots.roots:
        w = plane.basis @ ab
        factors = factor_rank_one(w, loose)
        if factors is None:
            raise NotSubproductTripleError("isotropic direction failed the rank-1 test")
        products.append(factors)
    (x1, x2), (y1, y2) = products
    return (x1, y1), (x2, y2)


def _normal_form_rank1(plane, g, loose):
    u, s, vh = np.linalg.svd(g)
    # kernel direction of the restricted form = the unique product direction
    psi = plane.basis @ vh[1].conj()
    xi = plane.basis @ vh[0].conj()
    factors = factor_rank_one(psi, loose)
    if factors is None:
        raise NotSubproductTripleError("rank-1 product direction failed the rank-1 test")
    x1, x2 = factors
    y1c = _completion(x1)
    y2c = _completion(x2)
    # columns x1 (x) x2, x1 (x) y2c, y1c (x) x2, y1c (x) y2c
    frame = kron(np.column_stack([x1, y1c]), np.column_stack([x2, y2c]))
    alpha, beta, gamma, delta = np.linalg.solve(frame, xi)
    scale = max(abs(beta), abs(gamma))
    if scale <= loose or abs(delta) > loose * max(1.0, scale):
        raise NotSubproductTripleError("plane does not fit the rank-1 normal form")
    return (x1, gamma * y1c), (x2, beta * y2c)


def _normal_form_rank0(plane, loose):
    b1 = plane.basis[:, 0]
    b2 = plane.basis[:, 1]
    f1 = factor_rank_one(b1, loose)
    f2 = factor_rank_one(b2, loose)
    if f1 is None or f2 is None:
        raise NotSubproductTripleError("rank-0 plane contains a non-product vector")
    (u1, v1), (u2, v2) = f1, f2
    left_score = projective_cross(v1, v2)  # second factors collinear
    right_score = projective_cross(u1, u2)  # first factors collinear
    if min(left_score, right_score) > loose:
        raise NotSubproductTripleError("rank-0 plane is not of the left or right form")
    if left_score <= right_score:
        x2 = normalize_projective(v1)
        return (u1, u2), (x2, _completion(x2)), "left"
    x1 = normalize_projective(u1)
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


def _covector_quadratic(cov1: np.ndarray, cov2: np.ndarray, middle_on_right: bool):
    """Coefficients (p, q, r) of the quadratic form in the shared middle vector.

    `middle_on_right` selects the slot of the shared factor inside the
    covectors' 4-dim space: True for the (first, middle) plane, False for the
    (middle, last) plane.
    """
    if not middle_on_right:
        cov1, cov2 = cov1[[0, 2, 1, 3]], cov2[[0, 2, 1, 3]]
    q = quad_coeffs(cov1, cov2)
    return complex(q.p), complex(q.q), complex(q.r)


def _solve_margin(cov1, cov2, x2, on_right: bool, eps):
    """Nonzero x with cov . kron(x, x2) = 0 (on_right) or cov . kron(x2, x) = 0."""
    rows = []
    for cov in (cov1, cov2):
        if on_right:
            rows.append([cov @ kron(e, x2) for e in I2])
        else:
            rows.append([cov @ kron(x2, e) for e in I2])
    m = np.array(rows, dtype=complex)
    _, _, vh = np.linalg.svd(m)
    return vh[-1].conj()


def product_in_intersection(L12: Subspace, L23: Subspace, eps: float = DEFAULT_EPS):
    """A product triple (x1, x2, x3) witnessing a nonzero intersection.

    Returns None when the intersection of the two extended subspaces is zero;
    otherwise vectors with kron(x1, x2) in L12 and kron(x2, x3) in L23, found
    via a common root of the two binary quadratic forms in x2.
    """
    if L12.ambient_dim != 4 or L12.dim != 2 or L23.ambient_dim != 4 or L23.dim != 2:
        raise ValueError("both planes must be 2-dim in 4-dim ambient spaces")
    inter = intersect(extend_right(L12), extend_left(L23), eps)
    if inter.dim == 0:
        return None

    ann12 = annihilator(L12, eps).basis
    ann23 = annihilator(L23, eps).basis
    u12, v12 = ann12[:, 0], ann12[:, 1]
    u23, v23 = ann23[:, 0], ann23[:, 1]
    q_lo = _covector_quadratic(u12, v12, middle_on_right=True)
    q_hi = _covector_quadratic(u23, v23, middle_on_right=False)
    roots_lo = roots_binary_quadratic(*q_lo, eps)
    roots_hi = roots_binary_quadratic(*q_hi, eps)

    if roots_lo.identically_zero and roots_hi.identically_zero:
        candidates = [np.array([1.0, 0.0], dtype=complex),
                      np.array([0.0, 1.0], dtype=complex),
                      np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)]
    elif roots_lo.identically_zero:
        candidates = list(roots_hi.roots)
    elif roots_hi.identically_zero:
        candidates = list(roots_lo.roots)
    else:
        candidates = []
        for r1 in roots_lo.roots:
            for r2 in roots_hi.roots:
                if projective_cross(r1, r2) <= COLLINEAR_TOL:
                    candidates.append((r1 + r2) / 2 if np.linalg.norm(r1 + r2) > 0.5 else r1)
        if not candidates:
            # the intersection is nonzero, so a common root exists up to
            # roundoff; fall back to the closest pair
            best = min(
                ((projective_cross(r1, r2), r1) for r1 in roots_lo.roots
                 for r2 in roots_hi.roots),
                key=lambda t: t[0],
            )
            candidates = [best[1]]

    best_triple = None
    best_residual = np.inf
    for x2 in candidates:
        x2 = x2 / np.linalg.norm(x2)
        x1 = _solve_margin(u12, v12, x2, on_right=True, eps=eps)
        x3 = _solve_margin(u23, v23, x2, on_right=False, eps=eps)
        residual = max(L12.distance(kron(x1, x2)), L23.distance(kron(x2, x3)))
        if residual < best_residual:
            best_residual = residual
            best_triple = (x1, x2, x3)
    x1, x2, x3 = best_triple
    return (
        normalize_projective(x1),
        normalize_projective(x2),
        normalize_projective(x3),
    )


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
        tol = loose_tol(eps)
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
    of the plane E2 with its margin (as in `rank_with_margin`), and the
    certificate residual per pair (s, t), empty for a triple.  Unpacks as
    `label, iso`."""

    label: TripleClass  # or systems.SystemLabel
    iso: TripleIso  # or systems.SystemIso
    rank: int
    rank_margin: float
    residuals: dict = field(default_factory=dict)

    def __iter__(self):
        return iter((self.label, self.iso))


def canonical_beta(c: TripleClass, s: int) -> np.ndarray:
    """The 4x2 map beta[s, t]: E_{s+t} -> E_s (x) E_t of the canonical system
    whose degree-(1, 2, 3) triple is of class c (independent of t)."""
    b = np.zeros((4, 2), dtype=complex)
    if c.label == "C2" and s % 2:
        b[1, 0] = 1  # e1 -> e1 (x) e2
        b[2, 1] = 1  # e2 -> e2 (x) e1
        return b
    b[0, 0] = 1  # e1 -> e1 (x) e1
    if c.label in ("C1", "C2"):
        b[3, 1] = 1  # e2 -> e2 (x) e2
    elif c.label == "C3":
        b[2, 1] = 1             # e2 (x) e1
        b[1, 1] = c.lam ** s    # + lam^s e1 (x) e2
    elif c.label == "C4":
        b[2, 1] = 1
    else:  # C5
        b[1, 1] = 1
    return b


def canonical_maps(c: TripleClass, horizon: int) -> np.ndarray:
    """The read-only (horizon - 1, 4, 2) stack of canonical_beta(c, s) for s =
    1..horizon-1: every map of the canonical system, which repeats maps[s - 1]
    for each t.  ValueError for a horizon below 3 or a non-finite entry;
    OverflowError when lambda^s overflows."""
    if horizon < 3:
        raise ValueError("horizon must be at least 3")
    maps = np.array([canonical_beta(c, s) for s in range(1, horizon)])
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


def _theta_from_columns(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    frame = np.column_stack([x, y])
    if abs(np.linalg.det(frame)) < FRAME_TOL * np.linalg.norm(frame) ** 2:
        raise NotSubproductTripleError("degenerate basis while building theta")
    return np.linalg.inv(frame)


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
    plane E2 alone, with its rank and margin; nothing about E3 is checked."""
    nf = plane_normal_form(plane, eps)
    loose = loose_tol(eps)

    if nf.rank == 2:
        x1, y1 = nf.basis1
        x2, y2 = nf.basis2
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
    elif nf.rank == 1:
        x1, y1 = nf.basis1
        x2, y2 = nf.basis2
        if not _collinear(x1, x2, loose):
            raise NotSubproductTripleError(
                "rank-1 product direction does not have identical factors"
            )
        x = x1 / np.linalg.norm(x1)
        theta = _theta_from_columns(x, _completion(x))
        # x2 = c x1, so modulo x (x) x the plane's second vector y1 (x) x2 +
        # x1 (x) y2 is c b1 y (x) x + b2 x (x) y, with b = the y-coordinates
        c = np.vdot(x1, x2) / np.vdot(x1, x1)
        yx_coeff = c * (theta @ y1)[1]
        xy_coeff = (theta @ y2)[1]
        if abs(yx_coeff) <= loose * abs(xy_coeff):
            raise NotSubproductTripleError("rank-1 plane lambda is unbounded")
        cls = TripleClass("C3", complex(xy_coeff / yx_coeff))
    else:
        if nf.case_tag == "left":
            cls = TripleClass("C4")
            x = nf.basis2[0]
        else:
            cls = TripleClass("C5")
            x = nf.basis1[0]
        x = x / np.linalg.norm(x)
        theta = _theta_from_columns(x, _completion(x))

    return Classification(cls, TripleIso(theta=theta), nf.rank, nf.margin)


def classify_triple(t: Triple, eps: float = DEFAULT_EPS) -> Classification:
    """Classify a triple into C1..C5 with lambda and an explicit isomorphism,
    certified on both E2 and E3."""
    t.validate(eps)
    result = classify_plane(t.E2, eps)
    _verify_iso(t, *result, eps)
    return result


# ---------------------------------------------------------------------------
# Different-factor chains


@dataclass(frozen=True, eq=False)
class ChainNormalForm:
    """Bases realizing the chain normal form of (L12, L23, L123).

    rank12 = 2: L123 = span{x1 (x) x2 (x) x3, y1 (x) y2 (x) y3}
    rank12 = 1: L123 = span{x1 (x) x2 (x) x3,
                            y1 (x) x2 (x) x3 + x1 (x) y2 (x) x3 + x1 (x) x2 (x) y3}
    """

    rank12: int
    rank23: int
    basis1: tuple
    basis2: tuple
    basis3: tuple
    span_vectors: tuple
    residual: float


def _check_chain_inclusions(L12, L23, L123, eps):
    tol = residual_tol(eps)
    right = extend_right(L12)
    left = extend_left(L23)
    for i in range(L123.dim):
        v = L123.basis[:, i]
        if right.distance(v) > tol or left.distance(v) > tol:
            raise ValueError("L123 is not contained in both extended subspaces")


def chain_normal_form(L12: Subspace, L23: Subspace, L123: Subspace,
                      eps: float = DEFAULT_EPS) -> ChainNormalForm:
    if L123.ambient_dim != 8 or L123.dim != 2:
        raise ValueError("L123 must be a 2-dim subspace of the 8-dim space")
    _check_chain_inclusions(L12, L23, L123, eps)
    g12 = restricted_form_matrix(L12)
    r12, margin12 = _form_rank(g12, eps)
    r23 = rank_of_plane(L23, eps)
    if r12 == 0 or r23 == 0:
        raise ChainUnclassifiedError(
            "chains with a rank-0 plane have no complete normal form"
        )
    if r23 != r12:
        raise NotSubproductTripleError(f"rank-{r12} chain forces rank L23 = {r12}")
    nf12 = _normal_form(L12, g12, r12, margin12, eps)
    return (_chain_rank2 if r12 == 2 else _chain_rank1)(nf12, L123, eps)


def _chain_frame(nf: PlaneNormalForm, L123: Subspace):
    """The normal-form bases x1, y1, x2, y2 of L12, and the basis of L123 in
    the coordinates they define on the first two factors."""
    (x1, y1), (x2, y2) = nf.basis1, nf.basis2
    g1 = np.linalg.inv(np.column_stack([x1, y1]))
    g2 = np.linalg.inv(np.column_stack([x2, y2]))
    return x1, y1, x2, y2, kron(kron(g1, g2), I2) @ L123.basis


def _chain_rank2(nf12, L123, eps) -> ChainNormalForm:
    x1, y1, x2, y2, moved = _chain_frame(nf12, L123)
    block_a = moved[0:2, :]  # e1 (x) e1 (x) C^2 component
    block_b = moved[6:8, :]  # e2 (x) e2 (x) C^2 component
    off = np.delete(moved, [0, 1, 6, 7], axis=0)
    tol = residual_tol(eps) * max(np.abs(moved).max(), 1.0)
    if np.abs(off).max() > tol:
        raise NotSubproductTripleError("chain does not split over the product blocks")
    x3, _ = _principal_direction(block_a, tol)
    y3, _ = _principal_direction(block_b, tol)
    if projective_cross(x3, y3) <= DISTINCT_TOL:
        raise NotSubproductTripleError("degenerate third-factor directions")
    v1 = kron(kron(x1, x2), x3)
    v2 = kron(kron(y1, y2), y3)
    residual = max(L123.distance(v1), L123.distance(v2))
    return ChainNormalForm(
        rank12=2, rank23=2,
        basis1=(x1, y1), basis2=(x2, y2), basis3=(x3, y3),
        span_vectors=(v1, v2), residual=residual,
    )


def _principal_direction(block: np.ndarray, tol: float):
    """The column direction of a one-dimensional block, and a combination of
    its columns that the block sends to zero."""
    u, s, vh = np.linalg.svd(block)
    if s[0] <= tol:
        raise NotSubproductTripleError("expected a nonzero component block")
    if s.size > 1 and s[1] > tol:
        raise NotSubproductTripleError("component block is not one-dimensional")
    return normalize_projective(u[:, 0]), vh[-1].conj()


def _chain_rank1(nf12, L123, eps) -> ChainNormalForm:
    x1, y1, x2, y2, moved = _chain_frame(nf12, L123)
    # transformed coordinates: L12 = span{e1 (x) e1, e2 (x) e1 + e1 (x) e2}
    block_b = (moved[2:4, :] + moved[4:6, :]) / 2  # (e1 e2 + e2 e1)/sqrt-ish (x) C^2
    mismatch = moved[2:4, :] - moved[4:6, :]
    block_d = moved[6:8, :]                      # e2 e2 (x) C^2
    scale = max(np.abs(moved).max(), 1.0)
    tol = residual_tol(eps) * scale
    if np.abs(mismatch).max() > tol or np.abs(block_d).max() > tol:
        raise NotSubproductTripleError("chain does not fit the rank-1 block pattern")
    x3, kernel_combo = _principal_direction(block_b, tol)
    # the pure e1 e1 (x) C^2 vector of L123 must be e1 e1 (x) (multiple of x3)
    pure = moved @ kernel_combo
    pure_dir = pure[0:2]
    if np.linalg.norm(pure_dir) <= tol or projective_cross(pure_dir, x3) > COLLINEAR_TOL:
        raise NotSubproductTripleError("pure product vector disagrees with x3")
    # solve for the combination whose middle block equals x3 exactly
    combo, *_ = np.linalg.lstsq(block_b, x3, rcond=None)
    vec = moved @ combo
    y3 = vec[0:2]
    v1 = kron(kron(x1, x2), x3)
    v2 = (
        kron(kron(y1, x2), x3)
        + kron(kron(x1, y2), x3)
        + kron(kron(x1, x2), y3)
    )
    residual = max(L123.distance(v1), L123.distance(v2))
    return ChainNormalForm(
        rank12=1, rank23=1,
        basis1=(x1, y1), basis2=(x2, y2), basis3=(x3, y3),
        span_vectors=(v1, v2), residual=residual,
    )
