"""Complex linear algebra in dimensions 2, 4, 8: tensor products, subspaces,
annihilators, intersections, and product-vector detection.

Index convention for tensor coordinates (big-endian, 1-based factor indices):
slot (i, j) of a 4-dim space maps to index 2(i-1) + (j-1), and slot (i, j, k)
of an 8-dim space to 4(i-1) + 2(j-1) + (k-1).  All values are immutable and
all functions are pure.
"""

from __future__ import annotations

import cmath
import math
import operator

import numpy as np

from .common import DEFAULT_EPS  # re-exported: shared with the exact half

# -- the threshold policy: two rules on the one setting eps (`--tolerance`),
# with no floor, so a smaller eps tightens every decision they govern: exact
# tests (coassociativity, automorphisms, distinct roots, rank loss) compare
# against eps, and the tests of a fitted or computed object (certificates,
# normal forms, kernel leaks, twists) against residual_tol(eps) = sqrt(eps).
# The fixed guards below do not move with eps; README "Tolerances" lists the
# decisions of each.


def residual_tol(eps: float) -> float:
    """Certificates, normal forms, kernel leaks and composite agreement, twists."""
    return math.sqrt(eps)


GRAM_TOL = 1e-7  # orthonormality of a stored basis
FRAME_TOL = 1e-12  # relative determinant of the frame that builds theta
PIVOT_TOL = 1e-9  # a projective pivot's modulus, relative to the largest
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
    """a @ b for entry-major (..., m, 2, P) and (..., 2, n, P) stacks, the
    pair (or triple) axis last and the leading axes broadcast: the (..., m, n,
    P) stack a[..., i, 0] b[..., 0, j] + a[..., i, 1] b[..., 1, j].  Two
    broadcast products, the second added in place; each inner loop runs over
    the P lanes, and no BLAS call is made per matrix.  ValueError unless the
    contracted dimension is 2 on both sides."""
    if a.shape[-2] != 2 or b.shape[-3] != 2:
        raise ValueError(f"matmul2 contracts a dimension of 2, not {a.shape} @ {b.shape}")
    out = a[..., :, 0, None, :] * b[..., None, 0, :, :]
    out += a[..., :, 1, None, :] * b[..., None, 1, :, :]
    return out


class Record:
    """The base of the package's records, which behave as frozen dataclasses
    do, with no code generated at import: slotted and read-only (each
    `__init__` writes its slots through `object.__setattr__`), copied and
    pickled slot by slot unless the class rebuilds itself by `__reduce__`,
    and shown as `Name(field=value, ...)` over the fields named in `_shown`.
    Equality is identity; a `ValueRecord` compares its fields."""

    __slots__ = ()
    _shown = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)


class ValueRecord(Record):
    """A `Record` equal to one of its own class with equal fields, compared
    and hashed as the tuple of its slots, in order."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == self._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))


class Subspace(Record):
    """A subspace of C^n stored as a matrix with orthonormal columns."""

    __slots__ = ("ambient_dim", "basis")
    _shown = ("ambient_dim",)

    def __init__(self, ambient_dim: int, basis: np.ndarray):
        b = as_cmat(basis)
        if b.shape[0] != ambient_dim:
            raise ValueError("basis row count must equal the ambient dimension")
        if b.shape[1] > ambient_dim:
            raise ValueError("subspace dimension exceeds ambient dimension")
        if b.shape[1]:
            gram = b.conj().T @ b
            if np.abs(gram - np.eye(b.shape[1])).max() > GRAM_TOL:
                raise ValueError("basis columns are not orthonormal")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_spanning(cls, vectors, ambient_dim: int | None = None,
                      eps: float = DEFAULT_EPS) -> "Subspace":
        """Orthonormalized span of the given column vectors (rank-truncated):
        the left singular vectors that `span_rank` keeps, from `span_basis2`
        for one or two vectors of dimension >= 2, else from LAPACK."""
        m = np.asarray(vectors, dtype=complex)
        if m.ndim == 1:
            m = m[:, None]
        if ambient_dim is None:
            ambient_dim = m.shape[0]
        n, k = m.shape
        if k == 0:
            return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=complex))
        if k <= 2 <= n:
            cols = span_basis2(require_finite(m).T.tolist(), eps)[1]
            return cls(ambient_dim, np.array(cols, dtype=complex).reshape(len(cols), n).T)
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        return cls(ambient_dim, u[:, :int(span_rank(s, eps))])

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def project(self, v) -> np.ndarray:
        v = as_cvec(v)
        return self.basis @ (self.basis.conj().T @ v)

    def distance(self, v) -> float:
        """Relative distance of v from the subspace."""
        v = as_cvec(v)
        norm = np.linalg.norm(v)
        if norm == 0:
            return 0.0
        return float(np.linalg.norm(v - self.project(v)) / norm)


def span_rank(s: np.ndarray, eps: float = DEFAULT_EPS):
    """The one rank rule of spans and kernels, on singular values (last axis,
    descending; leading axes are a stack): none count when the largest is
    <= eps, else those above eps times the largest."""
    top = s[..., :1]
    return ((s > eps * top) & (top > eps)).sum(axis=-1)


def rank_deficient(sv: np.ndarray, eps: float = DEFAULT_EPS):
    """True where a rank-2 map with singular values sv[..., 0] >= sv[..., 1]
    has lost rank: sv[1] <= eps * max(sv[0], 1), or a singular value is NaN,
    as LAPACK returns for a map whose norm overflows."""
    return ~(sv[..., 1] > eps * np.maximum(sv[..., 0], 1.0))


def _null_space(m: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Orthonormal basis (columns) of {x : m x = 0}: the one-matrix case of
    `_masked_null_spaces`, the identity for a matrix with no rows."""
    m = as_cmat(m)
    if m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=complex)
    basis, keep = _masked_null_spaces(m[None], eps)
    return basis[0][:, keep[0]]


def _masked_null_spaces(m: np.ndarray, eps: float):
    """Kernels of a (T, k, n) stack, k >= 1, as (T, n, n) bases and (T, n)
    column masks: the right singular vectors past the `span_rank` of each
    matrix, in place, the other columns zero."""
    _, s, vh = np.linalg.svd(m)
    keep = np.arange(m.shape[-1]) >= span_rank(s, eps)[:, None]
    return np.where(keep[:, None, :], vh.conj().transpose(0, 2, 1), 0), keep


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


# the determinant form on C^4 as a symmetric matrix: v @ DET_FORM @ v = v0 v3 - v1 v2,
# zero exactly on product vectors; `det_bilinear` evaluates u @ DET_FORM @ v
DET_FORM = np.array([[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]]) / 2
DET_FORM.setflags(write=False)


def det_bilinear(u, v) -> complex:
    """u @ DET_FORM @ v for 4-vectors of Python complex, in closed form."""
    return (u[0] * v[3] + u[3] * v[0] - u[1] * v[2] - u[2] * v[1]) / 2


# -- closed forms on Python complex scalars, behind `Subspace.from_spanning`
# and the plane read (`plane._read_plane`), which makes no np.linalg
# call.  A vector is a sequence of complex; a 4-vector w is the 2x2 matrix
# [[w0, w1], [w2, w3]], as `kron` lays out x (x) y.


def _norm(v) -> float:
    """Euclidean norm, as hypot of the moduli: no square over- or underflows."""
    return math.hypot(*map(abs, v))


def _unit(v) -> tuple:
    """v scaled to unit norm; v must be nonzero."""
    n = _norm(v)
    return tuple([z / n for z in v])


def singular_values2(a, b, c, d) -> tuple:
    """Singular values (s0, s1), s0 >= s1, of the 2x2 [[a, b], [c, d]] of
    Python complex (each of modulus below the float range), in closed form.
    The matrix is first scaled by its
    largest |entry|, so nothing over- or underflows.  With p = |det| and
    F^2 = ||M||_F^2, s0 = sqrt((F^2 + sqrt((F^2 - 2p)(F^2 + 2p))) / 2) and
    s1 = p / s0.  Both values are within a few u*s0 of the exact ones (u the
    unit roundoff), as LAPACK's are."""
    m = max(abs(a), abs(b), abs(c), abs(d))
    if m == 0:
        return 0.0, 0.0
    a, b, c, d = a / m, b / m, c / m, d / m
    # the inner root, evaluated as hypot(h00 - h11, 2|h01|) for H = M M^H: the
    # difference F^2 - 2p would cost half the digits of s0 when s0 ~ s1
    h00 = a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag
    h11 = c.real * c.real + c.imag * c.imag + d.real * d.real + d.imag * d.imag
    h01 = a * c.conjugate() + b * d.conjugate()
    s0 = math.sqrt((h00 + h11 + math.hypot(h00 - h11, 2 * abs(h01))) / 2)  # >= 1/sqrt(2)
    s1 = min(abs(a * d - b * c) / s0, s0)  # rounding may not reorder them
    return s0 * m, s1 * m


def span_basis2(cols, eps: float = DEFAULT_EPS) -> tuple:
    """(sigma, basis) for the n x k matrix M whose columns are `cols` (k = 1
    or 2 sequences of n >= 2 Python complex), in closed form: M's singular
    values (sigma_0, sigma_1), sigma_1 = 0 for k = 1, and its left singular
    vectors, the top one first, as many as `span_rank` counts on sigma: an
    orthonormal basis of the span, a list of tuples of Python complex.
    sigma_0 is inf where it overflows.

    Where the larger column norm is not within 2^+-450, or the modulus of an
    entry overflows (abs of a finite complex may; a singular value may not),
    M is first scaled by the power of two that brings its largest |Re| or
    |Im| into [1, 2), so that nothing over- or underflows; elsewhere that
    scaling, which rounds nothing, is skipped.  The larger column first,
    Gram-Schmidt gives M = Q R, R upper triangular 2 x 2, with a second pass
    where the first cancelled more than half of the second column, and that
    column counted as zero where the second pass did so again (Kahan's
    "twice is enough"); sigma = `singular_values2(R)`.  The left singular
    vectors are Q times the eigenvectors of R R^H, one Jacobi rotation, so Q
    itself on a tie sigma_0 = sigma_1.  Each is LAPACK's up to a phase,
    within about u sigma_0 over its gap (sigma_0 - sigma_1 for the top one,
    min(sigma_0 - sigma_1, sigma_1) for the other)."""
    a = cols[0]
    b = cols[1] if len(cols) > 1 else [0j] * len(a)
    e = 0
    try:
        na, nb = _norm(a), _norm(b)
    except OverflowError:  # the modulus of an entry
        na = nb = math.inf
    if not _SAFE_NORMS[0] < max(na, nb) < _SAFE_NORMS[1]:
        peak = max([max(abs(z.real), abs(z.imag)) for z in (*a, *b)])
        if peak == 0:
            return (0.0, 0.0), []
        e = math.frexp(peak)[1] - 1  # 2^e <= peak < 2^(e + 1)
        # 2^-e itself may be subnormal or overflow: then two steps of half the power
        for k in ((-e,) if abs(e) < 1000 else (-e // 2, -e - -e // 2)):
            f = math.ldexp(1.0, k)
            a, b = [z * f for z in a], [z * f for z in b]
        na, nb = _norm(a), _norm(b)
    if nb > na:  # R's singular values and Q R's left singular vectors do not move
        a, b, na, nb = b, a, nb, na
    q0 = [z / na for z in a]
    r01 = 0j
    for _ in range(2):  # b minus its q0-component
        r = sum([x.conjugate() * y for x, y in zip(q0, b)])
        b = [y - r * x for x, y in zip(q0, b)]
        r01 += r
        r11 = _norm(b)
        if r11 * _SQRT2 >= nb:
            break
        nb, r11 = r11, 0.0  # cancelled twice: b is rounding
    s0, s1 = singular_values2(na, r01, 0, r11)
    scale = 2.0 ** e
    sigma = s0 * scale, s1 * scale
    # span_rank's rule: sigma_0 <= eps is rank 0, sigma_1 is compared in scale
    rank = 0 if sigma[0] <= eps else (s0 > eps * s0) + (s1 > eps * s0)
    if not rank:
        return sigma, []
    # R R^H = [[h00, h01], [conj(h01), h11]], h01 = |h01| conj(w), has the top
    # eigenvector (cos t, w sin t) up to a phase, tan 2t = 2|h01| / (h00 - h11)
    h01 = r01 * r11
    m = abs(h01)
    t = math.atan2(m, (na * na + abs(r01) ** 2 - r11 * r11) / 2) / 2
    cos, sin = math.cos(t), math.sin(t)
    ws = (h01.conjugate() / m if m else 1) * sin  # R R^H diagonal: any phase
    q1 = [z / r11 for z in b] if r11 else b
    top = tuple([cos * x + ws * y for x, y in zip(q0, q1)])
    if rank == 1:
        return sigma, [top]
    ws = ws.conjugate()
    return sigma, [top, tuple([cos * y - ws * x for x, y in zip(q0, q1)])]


_SAFE_NORMS = (2.0 ** -450, 2.0 ** 450)  # a larger column norm here needs no scaling
_SQRT2 = math.sqrt(2)


def _real_peak(v) -> tuple:
    """The phase rule, for v in C^2: v times the unit scalar that makes its
    larger entry (the first on a tie) real and positive, that entry set to
    its modulus exactly; v must be nonzero."""
    a, b = v
    ma, mb = abs(a), abs(b)
    if ma >= mb:
        return complex(ma), b * (a.conjugate() / ma)
    return a * (b.conjugate() / mb), complex(mb)


def _factor(w, eps: float):
    """(x, y) with kron(x, y) the rank-1 part of w's 2x2 reshape M, or None
    when M is zero or s1 > eps * s0.  y is the larger row of M (ties: the
    first) scaled to unit norm and fixed by `_real_peak`, and x = M conj(y)."""
    s0, s1 = singular_values2(*w)
    if s0 == 0 or s1 > eps * s0:
        return None
    w0, w1, w2, w3 = w
    n0, n1 = _norm((w0, w1)), _norm((w2, w3))
    r0, r1, n = (w0, w1, n0) if n0 >= n1 else (w2, w3, n1)
    y0, y1 = _real_peak((r0 / n, r1 / n))
    x = (w0 * y0.conjugate() + w1 * y1.conjugate(), w2 * y0.conjugate() + w3 * y1.conjugate())
    return x, (y0, y1)


def _cross(u, v) -> float:
    """|u0 v1 - u1 v0| / (|u| |v|), 0 when either vector is zero."""
    nu, nv = _norm(u), _norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return abs(u[0] / nu * (v[1] / nv) - u[1] / nu * (v[0] / nv))


def _projective(v) -> tuple:
    """v divided by its lowest-index nonzero coordinate whose modulus is
    within PIVOT_TOL of the largest; ValueError for the zero vector."""
    mags = [abs(z) for z in v]
    peak = max(mags)
    if peak == 0:
        raise ValueError("cannot normalize the zero vector")
    floor = peak * (1 - PIVOT_TOL)
    pivot = v[next(i for i, a in enumerate(mags) if a >= floor and a > 0)]
    return tuple(z / pivot for z in v)


def _binary_roots(p: complex, q: complex, r: complex, eps: float):
    """The distinct projective roots (u, v) of p u^2 + q u v + r v^2, at most
    two, each a tuple scaled by `_projective`; None when the form is
    identically zero (every (u:v) is a root)."""
    scale = max(abs(p), abs(q), abs(r))
    if scale < ZERO_SCALE:
        return None
    tol = eps * scale
    raw = []
    if abs(p) <= tol:
        raw.append((1 + 0j, 0j))  # v = 0
        if abs(q) > tol:
            raw.append((-r, q))  # q u + r v = 0
        # else r v^2 only: (1:0) is a double root
    else:
        sq = cmath.sqrt(q * q - 4 * p * r)  # principal branch
        raw.append((-q + sq, 2 * p))
        raw.append((-q - sq, 2 * p))
    roots = []
    for cand in raw:
        if max(abs(cand[0]), abs(cand[1])) <= tol:
            continue
        n = _projective(cand)
        if any(_cross(n, seen) <= eps for seen in roots):
            continue
        roots.append(n)
    return tuple(roots)
