"""Two-dimensional algebras D1..D7, graded algebras built from (D, eta),
automorphism twists, the kernel/image conditions, and morphism extension.

A 2-dim algebra is a 2x4 structure-constant matrix sending coordinates of
x (x) y to coordinates of xy.  A graded algebra stores its multiplication
maps M[s, t] (2x4 each) up to a finite horizon.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .tensorlinalg import (
    DEFAULT_EPS, I2, Subspace, _null_space, as_cmat, automorphism_tol, kron, matmul2,
    null_rank, rank_deficient, require_finite, residual_tol, span_rank, twist_tol,
)

# Per-triple checks (O(h^3) of them; pair stacks are not chunked) run over at
# most CHUNK triples at a time: as `matmul2` contractions in the coassociativity
# check, as stacked SVDs in the kernel check.  Sized by measurement: 256 keeps
# the peak of `check_axioms` under 1 MiB at h = 64 (the kernel check peaks at
# ~2.4 MiB at h = 32), while each array operation spans enough triples to
# amortise its fixed cost.
CHUNK = 256

CATALOG_NAMES = ("D1", "D2", "D3", "D4", "D5", "D6", "D7")

# columns indexed by (i, j) -> 2(i-1) + (j-1): e1e1, e1e2, e2e1, e2e2
_CATALOG_TABLES = {
    "D1": [[1, 0, 0, 0], [0, 0, 0, 1]],  # (a1 b1, a2 b2)
    "D2": [[1, 0, 0, 0], [0, 1, 1, 0]],  # (a1 b1, a2 b1 + a1 b2)
    "D3": [[1, 0, 0, 0], [0, 0, 1, 0]],  # (a1 b1, a2 b1)
    "D4": [[1, 0, 0, 0], [0, 1, 0, 0]],  # (a1 b1, a1 b2)
    "D5": [[1, 0, 0, 0], [0, 0, 0, 0]],  # (a1 b1, 0)
    "D6": [[0, 0, 0, 0], [1, 0, 0, 0]],  # (0, a1 b1)
    "D7": [[0, 0, 0, 0], [0, 0, 0, 0]],  # (0, 0)
}


class NotAutomorphismError(ValueError):
    pass


class MorphismError(ValueError):
    pass


class NotExtendableError(MorphismError):
    pass


@dataclass(frozen=True, eq=False)
class Algebra2:
    """A two-dimensional algebra given by its structure constants."""

    mult: np.ndarray = field(repr=False)
    name: str | None = None

    def __post_init__(self):
        m = as_cmat(self.mult)
        if m.shape != (2, 4):
            raise ValueError("structure constants must form a 2x4 matrix")
        object.__setattr__(self, "mult", m)

    def multiply(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        return self.mult @ kron(x, y)

    def associativity_residual(self) -> float:
        left = self.mult @ kron(self.mult, I2)
        right = self.mult @ kron(I2, self.mult)
        return float(np.abs(left - right).max())

    def is_associative(self, eps: float = DEFAULT_EPS) -> bool:
        return self.associativity_residual() <= eps


def catalog(name: str) -> Algebra2:
    """The seven two-dimensional algebras; D1..D4 have surjective
    multiplication, D5..D7 do not."""
    if name not in _CATALOG_TABLES:
        raise ValueError(f"unknown catalog algebra {name!r}")
    return Algebra2(mult=np.array(_CATALOG_TABLES[name], dtype=complex), name=name)


def check_surjective_mult(d: Algebra2, eps: float = DEFAULT_EPS) -> bool:
    return bool(span_rank(np.linalg.svd(d.mult, compute_uv=False), eps) == 2)


def is_automorphism(d: Algebra2, m, eps: float = DEFAULT_EPS) -> bool:
    """True iff m is invertible and multiplicative for d."""
    m = as_cmat(m)
    if m.shape != (2, 2):
        return False
    s = np.linalg.svd(m, compute_uv=False)
    if rank_deficient(s, eps):
        return False
    residual = np.abs(d.mult @ kron(m, m) - m @ d.mult).max()
    return bool(residual <= automorphism_tol(eps) * max(1.0, float(s[0]) ** 2))


_SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


@dataclass(frozen=True, eq=False)
class AutomorphismFamily:
    """Closed-form description of an algebra's automorphism group.

    `maps` lists the isolated automorphisms; `one_parameter` (for D2) maps a
    nonzero scalar to the member of the continuous family.
    """

    algebra: str
    maps: tuple
    one_parameter: object | None = None
    description: str = ""

    def sample(self, lam: complex | None = None) -> np.ndarray:
        if self.one_parameter is not None and lam is not None:
            return self.one_parameter(lam)
        return self.maps[0]


def automorphism_description(name: str) -> AutomorphismFamily:
    if name == "D1":
        return AutomorphismFamily(
            algebra="D1",
            maps=(I2.copy(), _SWAP.copy()),
            description="identity and the coordinate swap",
        )
    if name == "D2":
        return AutomorphismFamily(
            algebra="D2",
            maps=(I2.copy(),),
            one_parameter=lambda lam: np.array([[1, 0], [0, lam]], dtype=complex),
            description="(a1, a2) -> (a1, lam a2) for nonzero lam",
        )
    if name in ("D3", "D4"):
        return AutomorphismFamily(
            algebra=name, maps=(I2.copy(),), description="identity only"
        )
    raise ValueError(f"automorphism description only covers D1..D4, not {name!r}")


@dataclass(frozen=True, eq=False)
class DegreeIndex:
    """The degree pairs (s, t) with s + t <= horizon and triples (r, s, t)
    with r + s + t <= horizon, in nested-loop order.

    `position` maps each pair to its position in `pairs`; `levels` holds the
    (s, t) of each pair as an array; `rs`, `rs_t`, `st` and `r_st` hold, for
    each triple, the positions in `pairs` of (r, s), (r + s, t), (s, t) and
    (r, s + t), to gather stacked per-pair maps.
    """

    pairs: tuple
    triples: tuple
    position: dict = field(repr=False)
    levels: np.ndarray = field(repr=False)
    rs: np.ndarray = field(repr=False)
    rs_t: np.ndarray = field(repr=False)
    st: np.ndarray = field(repr=False)
    r_st: np.ndarray = field(repr=False)


@functools.lru_cache(maxsize=16)
def degree_index(horizon: int) -> DegreeIndex:
    """The DegreeIndex of a horizon (cached; its arrays and `position` are
    read-only)."""
    pairs = tuple((s, t) for s in range(1, horizon) for t in range(1, horizon - s + 1))
    triples = tuple((r, s, t) for r in range(1, horizon - 1)
                    for s in range(1, horizon - r)
                    for t in range(1, horizon - r - s + 1))
    pos = {p: i for i, p in enumerate(pairs)}
    gather = np.array([[pos[(r, s)], pos[(r + s, t)], pos[(s, t)], pos[(r, s + t)]]
                       for r, s, t in triples], dtype=np.intp).reshape(-1, 4)
    levels = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    for a in (gather, levels):
        a.setflags(write=False)
    return DegreeIndex(pairs, triples, MappingProxyType(pos), levels, *gather.T)


def _chunks(n: int):
    """Slices covering range(n) in order, CHUNK at a time."""
    return (slice(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK))


def checked_maps(horizon: int, maps: dict, name: str, shape: tuple,
                 noun: str) -> tuple:
    """The per-pair maps of a system or graded algebra, copied once into a
    read-only complex (P, *shape) stack in `degree_index(horizon).pairs`
    order, and a read-only mapping of per-pair views into it.  ValueError
    for a horizon below 3, a stray (s, t) (every key must have 1 <= s, t and
    s + t <= horizon), a map that is not 2-d or has the wrong shape, a
    missing map, or a non-finite entry, checked in that order."""
    if horizon < 3:
        raise ValueError("horizon must be at least 3")
    idx = degree_index(horizon)
    stack = np.empty((len(idx.pairs),) + shape, dtype=complex)
    filled = [False] * len(idx.pairs)
    for (s, t), m in maps.items():
        if s < 1 or t < 1 or s + t > horizon:
            raise ValueError(f"{name}[{s},{t}] lies outside horizon {horizon}")
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2:
            raise ValueError("expected a 2-d array")
        if m.shape != shape:
            raise ValueError(f"{name}[{s},{t}] must be {shape[0]}x{shape[1]}")
        i = idx.position.get((s, t))
        if i is not None:  # a non-integral degree is no pair and is dropped
            stack[i] = m
            filled[i] = True
    if not all(filled):
        s, t = idx.pairs[filled.index(False)]
        raise ValueError(f"missing {noun} {name}[{s},{t}]")
    require_finite(stack).setflags(write=False)
    return stack, MappingProxyType(dict(zip(idx.pairs, stack)))


def stack_maps(maps: dict, keys) -> np.ndarray:
    """The maps under `keys`, in order, as one (len(keys), m, n) array; for
    the level maps theta (a system or algebra keeps its own `stack`).
    ValueError naming the first key that has no map."""
    missing = [k for k in keys if k not in maps]
    if missing:
        raise ValueError(f"missing level map {missing[0]}")
    return np.stack([maps[k] for k in keys])


def triple_residuals(maps: np.ndarray, idx: DegreeIndex) -> np.ndarray:
    """Coassociativity defects in idx.triples order:
    max |(b[r,s] (x) I2) b[r+s,t] - (I2 (x) b[s,t]) b[r,s+t]| per triple,
    where `maps` stacks the 4x2 maps b in idx.pairs order.  (B (x) I2) C
    contracts B with the first factor of C's rows, (I2 (x) B) C with the
    second, so neither Kronecker product is formed."""
    out = np.empty(len(idx.triples))
    for sl in _chunks(len(idx.triples)):
        b, c = maps[idx.rs[sl]], maps[idx.rs_t[sl]]
        left = matmul2(b, c.reshape(-1, 2, 4)).reshape(-1, 8, 2)
        b, c = maps[idx.st[sl]], maps[idx.r_st[sl]]
        right = matmul2(b[:, None], c.reshape(-1, 2, 2, 2)).reshape(-1, 8, 2)
        out[sl] = np.abs(left - right).max(axis=(1, 2))
    return out


@dataclass(frozen=True, eq=False)
class GradedAlgebra:
    """Multiplication maps M[s, t]: 2x4 matrices for s + t <= horizon.

    `stack` holds every map, read-only, in `degree_index(horizon).pairs`
    order; `M` is a read-only mapping whose M[s, t] is a view into it.  A
    copy or unpickled instance is rebuilt through the constructor."""

    horizon: int
    M: dict = field(repr=False)
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stack, maps = checked_maps(self.horizon, self.M, "M", (2, 4), "multiplication map")
        object.__setattr__(self, "M", maps)
        object.__setattr__(self, "stack", stack)

    def __reduce__(self):
        return type(self), (self.horizon, dict(self.M))

    def index_pairs(self):
        return iter(degree_index(self.horizon).pairs)

    def associativity_residual(self) -> float:
        # the defect of M is that of its transpose, the dual system's beta
        idx = degree_index(self.horizon)
        maps = self.stack.transpose(0, 2, 1)
        return float(np.fmax.reduce(triple_residuals(maps, idx), initial=0.0))


def build_graded(d: Algebra2, eta, horizon: int, eps: float = DEFAULT_EPS) -> GradedAlgebra:
    """The graded algebra with product x *_B y = x *_D eta^s(y)."""
    eta = as_cmat(eta)
    if not is_automorphism(d, eta, eps):
        raise NotAutomorphismError("eta is not an automorphism of the algebra")
    maps = {}
    powers = {0: I2}
    for s in range(1, horizon):
        powers[s] = powers[s - 1] @ eta
    for s in range(1, horizon):
        for t in range(1, horizon - s + 1):
            maps[(s, t)] = d.mult @ kron(I2, powers[s])
    g = GradedAlgebra(horizon=horizon, M=maps)
    residual = g.associativity_residual()
    if residual > automorphism_tol(eps) * 100:
        raise MorphismError(f"construction produced associativity residual {residual}")
    return g


def twist(g: GradedAlgebra, f, eps: float = DEFAULT_EPS) -> GradedAlgebra:
    """The twisted algebra with product (x, y) -> x f_t^s(y); `f` gives f_t
    as a callable or a mapping of t."""
    levels = {t: as_cmat(f(t) if callable(f) else f[t]) for t in range(1, g.horizon + 1)}
    singular = np.flatnonzero(
        singular_levels(stack_maps(levels, range(1, g.horizon + 1)), eps))
    if singular.size:
        raise NotAutomorphismError(f"level-{singular[0] + 1} map is not invertible")
    residual = max(GradedMorphism(source=g, target=g, theta=levels).level_residuals().values())
    if residual > twist_tol(eps):
        raise NotAutomorphismError(
            f"per-level family is not multiplicative (residual {residual})"
        )
    return GradedAlgebra(horizon=g.horizon, M={
        (s, t): m @ kron(I2, np.linalg.matrix_power(levels[t], s)) for (s, t), m in g.M.items()})


def check_image_condition(g: GradedAlgebra, eps: float = DEFAULT_EPS) -> bool:
    """All M[s, t] surjective, and hence every iterated product P_n too.

    P_n = M[n-1, 1] (P_{n-1} (x) I2) is a composite of surjections once
    P_{n-1} is one, so the pairwise test decides the condition and the
    2 x 2^n products are never formed: the injectivity test of `check_axioms`
    on the dual system, one stacked SVD.
    """
    return not rank_deficient(np.linalg.svd(g.stack, compute_uv=False), eps).any()


def kernel_subspace(m: np.ndarray, eps: float = DEFAULT_EPS) -> Subspace:
    m = as_cmat(m)
    return Subspace(m.shape[1], _null_space(m, eps))


def _masked_null_spaces(m: np.ndarray, eps: float):
    """Kernels of a (T, k, n) stack as (T, n, n) bases and (T, n) column
    masks: the columns that `_null_space` returns, in place, the rest zero."""
    _, s, vh = np.linalg.svd(m)
    keep = np.arange(m.shape[-1]) >= null_rank(s, eps)[:, None]
    return vh.conj().transpose(0, 2, 1) * keep[:, None, :], keep


def _masked_spans(m: np.ndarray, eps: float):
    """Spans of a (T, n, k) stack, k >= n, as (T, n, n) bases and (T, n)
    column masks: the columns that `Subspace.from_spanning` keeps, in place,
    the rest zero."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    keep = np.arange(m.shape[-2]) < span_rank(s, eps)[:, None]
    return u * keep[:, None, :], keep


def _projectors(b: np.ndarray) -> np.ndarray:
    return b @ b.conj().transpose(0, 2, 1)


def check_kernel_condition(g: GradedAlgebra, eps: float = DEFAULT_EPS) -> bool:
    """Ker M[r, s, t] equals the sum of the two partial kernels, for all triples.

    The one-sided containment (partial kernels inside the triple kernel) is a
    structural fact and is asserted unconditionally as a sanity check.  The
    triples are checked in `degree_index` order: the first one whose kernels
    leak or differ decides (RuntimeError for a leak, False otherwise).
    """
    tol = residual_tol(eps)
    idx = degree_index(g.horizon)
    maps = g.stack
    pair_kernels, _ = _masked_null_spaces(maps, eps)
    for sl in _chunks(len(idx.triples)):
        rs, st = idx.rs[sl], idx.st[sl]
        m3 = maps[idx.rs_t[sl]] @ kron(maps[rs], I2)  # M[r, s, t], (T, 2, 8)
        k3, k3_keep = _masked_null_spaces(m3, eps)
        side, side_keep = _masked_spans(np.concatenate(
            [kron(pair_kernels[rs], I2), kron(I2, pair_kernels[st])], axis=2), eps)
        leak = np.abs(m3 @ side).max(axis=(1, 2))
        leaks = leak > tol * np.maximum(1.0, np.abs(m3).max(axis=(1, 2)))
        distance = np.abs(_projectors(k3) - _projectors(side)).max(axis=(1, 2))
        unequal = (k3_keep.sum(1) != side_keep.sum(1)) | (distance > tol)
        bad = np.flatnonzero(leaks | unequal)
        if bad.size:
            if leaks[bad[0]]:
                raise RuntimeError(
                    "partial kernels escape the triple kernel; "
                    "the graded data is inconsistent"
                )
            return False
    return True


def intertwining(theta: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple:
    """Both sides of (theta_s (x) theta_t) src[s, t] = dst[s, t] theta_{s+t},
    stacked in pairs order, for the (h, 2, 2) stack theta and two systems'
    (P, 4, 2) stacks.  A graded morphism is this relation on the transposes.
    (theta_s (x) theta_t) X is formed as (theta_s (x) I2)((I2 (x) theta_t) X)."""
    s, t = degree_index(len(theta)).levels.T
    inner = matmul2(theta[t - 1, None], src.reshape(-1, 2, 2, 2))
    lhs = matmul2(theta[s - 1], inner.reshape(-1, 2, 4)).reshape(-1, 4, 2)
    return lhs, matmul2(dst, theta[s + t - 1])


def extend_levels(theta1, left, maps) -> np.ndarray:
    """The (h, 2, 2) stack theta_1..theta_h, h = len(maps) + 1, with theta_n =
    left[n-2] (theta_1 (x) theta_{n-1}) maps[n-2]: the level recursion of a
    system iso (maps = beta[1, .], left = left inverses of the target's)."""
    theta = np.empty((len(maps) + 1, 2, 2), dtype=complex)
    theta[0] = theta1
    t1 = theta[0][:, None, :, None]  # theta_1 (x) theta_{n-1} as `kron` forms it
    for n in range(2, len(theta) + 1):
        t1_tn = (t1 * theta[n - 2][None, :, None, :]).reshape(4, 4)
        theta[n - 1] = left[n - 2] @ t1_tn @ maps[n - 2]
    return theta


@dataclass(frozen=True, eq=False)
class GradedMorphism:
    """Per-level maps theta[t] of a morphism between two graded algebras."""

    source: GradedAlgebra = field(repr=False)
    target: GradedAlgebra = field(repr=False)
    theta: dict = field(repr=False)

    def level_residuals(self) -> dict:
        """Per-pair absolute max |theta_{s+t} M_A - M_B (theta_s (x) theta_t)|."""
        h = self.source.horizon
        theta = stack_maps(self.theta, range(1, h + 1)).transpose(0, 2, 1)
        lhs, rhs = intertwining(theta, self.target.stack.transpose(0, 2, 1),
                                self.source.stack.transpose(0, 2, 1))
        return dict(zip(degree_index(h).pairs, np.abs(lhs - rhs).max(axis=(1, 2)).tolist()))


def singular_levels(levels: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Per level of an (h, 2, 2) stack, True where the map has lost rank."""
    return rank_deficient(np.linalg.svd(levels, compute_uv=False), eps)


def has_singular_level(theta: dict, horizon: int, eps: float = DEFAULT_EPS) -> bool:
    """True when some level map theta[1..horizon] has lost rank."""
    return bool(singular_levels(stack_maps(theta, range(1, horizon + 1)), eps).any())


def is_isomorphism(m: GradedMorphism, eps: float = DEFAULT_EPS) -> bool:
    return not has_singular_level(m.theta, m.source.horizon, eps)


def extend_morphism(gA: GradedAlgebra, gB: GradedAlgebra, theta1, theta2,
                    eps: float = DEFAULT_EPS, rng=None) -> GradedMorphism:
    """Extend (theta1, theta2) to a full graded morphism gA -> gB.

    Requires gA to satisfy the image and kernel conditions; theta2 is only
    checked.  theta_n M_A[1, n-1] = M_B[1, n-1] (theta_1 (x) theta_{n-1}),
    transposed, is `extend_levels` from the dual of gB onto that of gA.  Right
    inverses default to the minimum-norm choice, or are randomized with `rng`
    (the result is the same either way, which is tested).
    """
    if gA.horizon != gB.horizon:
        raise MorphismError("source and target horizons differ")
    theta1 = as_cmat(theta1)
    theta2 = as_cmat(theta2)
    if not check_image_condition(gA, eps):
        raise MorphismError("source algebra fails the image condition")
    if not check_kernel_condition(gA, eps):
        raise MorphismError("source algebra fails the kernel condition")
    compat = np.abs(theta2 @ gA.M[(1, 1)] - gB.M[(1, 1)] @ kron(theta1, theta1)).max()
    if compat > residual_tol(eps):
        raise MorphismError(f"theta2 is incompatible with theta1 (residual {compat})")

    # M[1, t] for t = 1..h-1: the pairs (1, t) lead degree_index order
    ma, mb = gA.stack[:gA.horizon - 1], gB.stack[:gA.horizon - 1]
    pre = np.linalg.pinv(ma)
    kernel, _ = _masked_null_spaces(ma, eps)
    if rng is not None:
        pre = pre + kernel @ (rng.standard_normal(pre.shape)
                              + 1j * rng.standard_normal(pre.shape))
    theta = extend_levels(theta1.T, pre.transpose(0, 2, 1),
                          mb.transpose(0, 2, 1)).transpose(0, 2, 1)
    # theta_n, n >= 3, is well defined if its rhs vanishes on Ker M_A[1, n-1]
    rhs = mb[1:] @ kron(theta1, theta[1:-1])
    leak = np.abs(rhs @ kernel[1:]).max(axis=(1, 2))
    bad = np.flatnonzero(leak > residual_tol(eps) * np.maximum(1.0, np.abs(rhs).max(axis=(1, 2))))
    if bad.size:
        raise NotExtendableError(
            f"theta_{bad[0] + 3} is not well defined (kernel leak {leak[bad[0]]})")
    return GradedMorphism(source=gA, target=gB, theta=dict(enumerate(theta, 1)))
