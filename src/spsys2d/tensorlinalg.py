"""Complex linear algebra in dimensions 2, 4, 8: tensor products, subspaces,
annihilators, intersections, and product-vector detection.

Index convention for tensor coordinates (big-endian, 1-based factor indices):
slot (i, j) of a 4-dim space maps to index 2(i-1) + (j-1), and slot (i, j, k)
of an 8-dim space to 4(i-1) + 2(j-1) + (k-1).  All values are immutable and
all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_EPS = 1e-9

# -- the threshold policy: each tolerance as a function of the one setting eps
# (`--tolerance`) or a fixed guard; README "Tolerances" lists their decisions.


def residual_tol(eps: float) -> float:
    """Certificates, containments, kernel leaks, composite agreement."""
    return max(np.sqrt(eps), 1e-8)


def loose_tol(eps: float) -> float:
    """The normal-form tests: rank-1 factors, collinear factors, fit."""
    return max(np.sqrt(eps), 10 * eps)


def twist_tol(eps: float) -> float:
    """Multiplicativity of a per-level family in `graded.twist`."""
    return max(np.sqrt(eps), 1e-7)


def automorphism_tol(eps: float) -> float:
    """Automorphism residuals and the `build_graded` associativity check."""
    return max(eps, 1e-9)


def fine_tol(eps: float) -> float:
    """Coassociativity in `check_axioms`; distinct quadratic roots."""
    return max(eps, 1e-12)


def projector_tol(eps: float) -> float:
    """Projector distance in `Subspace.equals`."""
    return max(eps, 1e-8)


GRAM_TOL = 1e-7  # orthonormality of a stored basis
COLLINEAR_TOL = 1e-6  # matched roots; the pure chain vector against x3
DISTINCT_TOL = 1e-8  # the two third-factor directions of a rank-2 chain
FRAME_TOL = 1e-12  # relative determinant of the frame that builds theta
ZERO_SCALE = 1e-300  # a quadratic form this small is identically zero

VECTOR_DIMS = (2, 4, 8)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)

I2 = np.eye(2, dtype=complex)
I2.setflags(write=False)  # shared by every module


def require_finite(a: np.ndarray) -> np.ndarray:
    """`a` itself; ValueError when any entry is NaN or infinite."""
    if not np.isfinite(a).all():
        raise ValueError("non-finite entries are not admitted")
    return a


def as_cvec(v) -> np.ndarray:
    return require_finite(np.asarray(v, dtype=complex).reshape(-1))


def as_cmat(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    return require_finite(m)


def kron(u, v) -> np.ndarray:
    """Kronecker product of vectors or matrices under the fixed convention.

    For vectors the resulting dimension must stay within {2, 4, 8}.  Matrix
    operands may carry leading stack axes, which broadcast: the product of
    (..., a, b) and (..., c, d) stacks is the (..., ac, bd) stack of the
    per-matrix products.  Entries are the same products np.kron forms.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.ndim == 1 and v.ndim == 1:
        n = u.shape[0] * v.shape[0]
        if n not in VECTOR_DIMS:
            raise ValueError(
                f"vector Kronecker product of dimension {n} overflows "
                f"the supported dimensions {VECTOR_DIMS}"
            )
        return (u[:, None] * v[None, :]).reshape(n)
    u = np.atleast_2d(u)
    v = np.atleast_2d(v)
    out = u[..., :, None, :, None] * v[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (u.shape[-2] * v.shape[-2],
                                         u.shape[-1] * v.shape[-1]))


def matmul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for (..., m, 2) and (..., 2, n) stacks whose leading axes
    broadcast: two broadcast products and one sum over the whole stack, in
    place of one BLAS call per matrix.  ValueError unless the contracted
    dimension is 2 on both sides."""
    if a.shape[-1] != 2 or b.shape[-2] != 2:
        raise ValueError(f"matmul2 contracts a dimension of 2, not {a.shape} @ {b.shape}")
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


def normalize_projective(v: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Scale so the largest-magnitude coordinate equals 1 (ties: lower index)."""
    v = as_cvec(v)
    mags = np.abs(v)
    peak = mags.max()
    if peak == 0:
        raise ValueError("cannot normalize the zero vector")
    # lowest index among coordinates within eps of the peak magnitude
    idx = int(np.nonzero(mags >= peak * (1 - eps))[0][0])
    return v / v[idx]


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n stored as a matrix with orthonormal columns."""

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = as_cmat(self.basis)
        if b.shape[0] != self.ambient_dim:
            raise ValueError("basis row count must equal the ambient dimension")
        if b.shape[1] > self.ambient_dim:
            raise ValueError("subspace dimension exceeds ambient dimension")
        if b.shape[1]:
            gram = b.conj().T @ b
            if np.abs(gram - np.eye(b.shape[1])).max() > GRAM_TOL:
                raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_spanning(cls, vectors, ambient_dim: int | None = None,
                      eps: float = DEFAULT_EPS) -> "Subspace":
        """Orthonormalized span of the given column vectors (rank-truncated)."""
        m = np.asarray(vectors, dtype=complex)
        if m.ndim == 1:
            m = m[:, None]
        if ambient_dim is None:
            ambient_dim = m.shape[0]
        if m.shape[1] == 0:
            return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        return cls(ambient_dim, u[:, :int(span_rank(s, eps))])

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, np.zeros((n, 0), dtype=complex))

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def project(self, v) -> np.ndarray:
        v = as_cvec(v)
        return self.basis @ (self.basis.conj().T @ v)

    def contains(self, v, eps: float = DEFAULT_EPS) -> bool:
        v = as_cvec(v)
        norm = np.linalg.norm(v)
        if norm == 0:
            return True
        return np.linalg.norm(v - self.project(v)) <= eps * norm

    def distance(self, v) -> float:
        """Relative distance of v from the subspace."""
        v = as_cvec(v)
        norm = np.linalg.norm(v)
        if norm == 0:
            return 0.0
        return float(np.linalg.norm(v - self.project(v)) / norm)

    def equals(self, other: "Subspace", eps: float = DEFAULT_EPS) -> bool:
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return np.abs(self.projector() - other.projector()).max() <= projector_tol(eps)

    def map_by(self, m, eps: float = DEFAULT_EPS) -> "Subspace":
        """Image of the subspace under a linear map (rows of m = target coords)."""
        m = as_cmat(m)
        return Subspace.from_spanning(m @ self.basis, ambient_dim=m.shape[0], eps=eps)


def span_rank(s: np.ndarray, eps: float = DEFAULT_EPS):
    """Rank rule of `Subspace.from_spanning` on singular values (last axis,
    descending; leading axes are a stack): none count when the largest is
    <= eps, else those above eps times the largest."""
    top = s[..., :1]
    return np.where(np.all(top <= eps, axis=-1), 0, np.sum(s > eps * top, axis=-1))


def null_rank(s: np.ndarray, eps: float = DEFAULT_EPS):
    """Rank rule of `_null_space` on singular values (last axis, descending;
    leading axes are a stack): those above eps times the largest, with the
    scale taken as 1 when the largest is 0."""
    top = s[..., :1]
    return np.sum(s > eps * np.where(top > 0, top, 1.0), axis=-1)


def rank_deficient(sv: np.ndarray, eps: float = DEFAULT_EPS):
    """True where a rank-2 map with singular values sv[..., 0] >= sv[..., 1]
    has lost rank: sv[1] <= eps * max(sv[0], 1)."""
    return sv[..., 1] <= eps * np.maximum(sv[..., 0], 1.0)


def _null_space(m: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Orthonormal basis (columns) of {x : m x = 0}."""
    m = as_cmat(m)
    if m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(m)
    return vh[int(null_rank(s, eps)):].conj().T


def annihilator(s: Subspace, eps: float = DEFAULT_EPS) -> Subspace:
    """Dual annihilator in coordinates: covectors u with u^T v = 0 for v in s.

    An involution; dimensions are complementary.
    """
    null = _null_space(s.basis.T, eps)
    return Subspace(s.ambient_dim, null)


def intersect(s1: Subspace, s2: Subspace, eps: float = DEFAULT_EPS) -> Subspace:
    """Intersection via the common null space of the stacked complement projectors."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    n = s1.ambient_dim
    eye = np.eye(n, dtype=complex)
    stacked = np.vstack([eye - s1.projector(), eye - s2.projector()])
    return Subspace(n, _null_space(stacked, eps))


def subspace_sum(s1: Subspace, s2: Subspace, eps: float = DEFAULT_EPS) -> Subspace:
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("subspaces live in different ambient dimensions")
    return Subspace.from_spanning(
        np.hstack([s1.basis, s2.basis]), ambient_dim=s1.ambient_dim, eps=eps
    )


# the determinant form on C^4 as a symmetric matrix: quad_form_A(v) = v0 v3 - v1 v2
DET_FORM = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]) / 2
DET_FORM.setflags(write=False)


def quad_form_A(v) -> complex:
    """The determinant quadratic form on C^4; zero exactly on product vectors."""
    return quad_form_A_bilinear(v, v)


def quad_form_A_bilinear(u, v) -> complex:
    """Symmetric bilinear polarization of quad_form_A: u @ DET_FORM @ v."""
    u = as_cvec(u)
    v = as_cvec(v)
    if u.shape[0] != 4 or v.shape[0] != 4:
        raise ValueError("the determinant form is defined on 4-dimensional vectors")
    return complex(u @ DET_FORM @ v)


def factor_rank_one(v, eps: float = DEFAULT_EPS):
    """Factor a 4-dim vector as kron(x, y) when its 2x2 reshape has rank 1.

    Returns (x, y) or None.  The zero vector returns None by convention.
    """
    v = as_cvec(v)
    if v.shape[0] != 4:
        raise ValueError("factor_rank_one expects a 4-dimensional vector")
    m = v.reshape(2, 2)
    u, s, vh = np.linalg.svd(m)
    if s[0] == 0:
        return None
    if s[1] > eps * s[0]:
        return None
    x = u[:, 0] * s[0]
    # for m = outer(x, y) the first row of vh is y itself (no conjugation):
    # m = s0 u0 v0^H and outer(x, y)_{ij} = s0 u0_i vh0_j agree entrywise
    y = vh[0]
    return x, y


@dataclass(frozen=True, eq=False)
class QuadraticRoots:
    """Projective roots of p u^2 + q u v + r v^2.

    `identically_zero` marks the degenerate all-zero form (every (u:v) is a
    root); otherwise `roots` holds one or two normalized projective roots.
    """

    identically_zero: bool
    roots: tuple

    def __iter__(self):
        return iter(self.roots)


def roots_binary_quadratic(p, q, r, eps: float = DEFAULT_EPS) -> QuadraticRoots:
    p, q, r = complex(p), complex(q), complex(r)
    scale = max(abs(p), abs(q), abs(r))
    if scale < ZERO_SCALE:
        return QuadraticRoots(identically_zero=True, roots=())
    tol = eps * scale
    raw = []
    if abs(p) <= tol:
        raw.append(np.array([1.0, 0.0], dtype=complex))  # v = 0
        if abs(q) > tol:
            raw.append(np.array([-r, q], dtype=complex))  # q u + r v = 0
        # else r v^2 only: (1:0) is a double root
    else:
        disc = q * q - 4 * p * r
        sq = np.sqrt(complex(disc))  # principal branch
        raw.append(np.array([-q + sq, 2 * p], dtype=complex))
        raw.append(np.array([-q - sq, 2 * p], dtype=complex))
    roots = []
    for cand in raw:
        if np.abs(cand).max() <= tol:
            continue
        n = normalize_projective(cand)
        if any(projective_cross(n, seen) <= fine_tol(eps) for seen in roots):
            continue
        roots.append(n)
    return QuadraticRoots(identically_zero=False, roots=tuple(roots))


def projective_cross(u, v) -> float:
    """|u0 v1 - u1 v0| scaled by the norms: 0 iff projectively equal."""
    u = as_cvec(u)
    v = as_cvec(v)
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return float(abs(u[0] * v[1] - u[1] * v[0]) / (nu * nv))
