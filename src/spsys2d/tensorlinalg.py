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

VECTOR_DIMS = (2, 4, 8)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)

I2 = np.eye(2, dtype=complex)
I2.setflags(write=False)  # shared by every module


def as_cvec(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError("non-finite entries are not admitted")
    return v


def as_cmat(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    if not np.isfinite(m).all():
        raise ValueError("non-finite entries are not admitted")
    return m


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


@dataclass(frozen=True)
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
            if np.abs(gram - np.eye(b.shape[1])).max() > 1e-7:
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
    def full(cls, n: int) -> "Subspace":
        return cls(n, np.eye(n, dtype=complex))

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
        return np.abs(self.projector() - other.projector()).max() <= max(eps, 1e-8)

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


def quad_form_A(v) -> complex:
    """The determinant quadratic form on C^4; zero exactly on product vectors."""
    v = as_cvec(v)
    if v.shape[0] != 4:
        raise ValueError("quad_form_A is defined on 4-dimensional vectors")
    return complex(v[0] * v[3] - v[1] * v[2])


def quad_form_A_bilinear(u, v) -> complex:
    """Symmetric bilinear polarization of quad_form_A."""
    u = as_cvec(u)
    v = as_cvec(v)
    if u.shape[0] != 4 or v.shape[0] != 4:
        raise ValueError("polarization is defined on 4-dimensional vectors")
    return complex((u[0] * v[3] + u[3] * v[0] - u[1] * v[2] - u[2] * v[1]) / 2)


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


@dataclass(frozen=True)
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
    if scale == 0 or scale < 1e-300:
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
        if any(projective_cross(n, seen) <= max(eps, 1e-12) for seen in roots):
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
