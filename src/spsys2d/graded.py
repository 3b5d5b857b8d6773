"""Two-dimensional algebras D1..D7, graded algebras built from (D, eta),
automorphism twists, the kernel/image conditions, and morphism extension.

A 2-dim algebra is a 2x4 structure-constant matrix sending coordinates of
x (x) y to coordinates of xy.  A graded algebra stores its multiplication
maps M[s, t] (2x4 each) up to a finite horizon.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .tensorlinalg import (
    DEFAULT_EPS,
    I2,
    Subspace,
    _null_space,
    as_cmat,
    kron,
    null_rank,
    rank_deficient,
    span_rank,
)

# Per-pair and per-triple checks run as stacked LAPACK/matmul calls over at
# most CHUNK matrices at a time: large enough to amortise the per-call cost,
# small enough that the transient stacks stay well under 1 MiB.
CHUNK = 48

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


@dataclass(frozen=True)
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
    s = np.linalg.svd(d.mult, compute_uv=False)
    return bool(s[0] > eps and s[1] > eps * s[0])


def is_automorphism(d: Algebra2, m, eps: float = DEFAULT_EPS) -> bool:
    """True iff m is invertible and multiplicative for d."""
    m = as_cmat(m)
    if m.shape != (2, 2):
        return False
    s = np.linalg.svd(m, compute_uv=False)
    if s[1] <= eps * max(s[0], 1.0):
        return False
    residual = np.abs(d.mult @ kron(m, m) - m @ d.mult).max()
    return bool(residual <= max(eps, 1e-9) * max(1.0, float(s[0]) ** 2))


_SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DegreeIndex:
    """The degree pairs (s, t) with s + t <= horizon and triples (r, s, t)
    with r + s + t <= horizon, in nested-loop order.

    `levels` holds the (s, t) of each pair as an array; `rs`, `rs_t`, `st`
    and `r_st` hold, for each triple, the positions in `pairs` of (r, s),
    (r + s, t), (s, t) and (r, s + t), to gather stacked per-pair maps.
    """

    pairs: tuple
    triples: tuple
    levels: np.ndarray = field(repr=False)
    rs: np.ndarray = field(repr=False)
    rs_t: np.ndarray = field(repr=False)
    st: np.ndarray = field(repr=False)
    r_st: np.ndarray = field(repr=False)


@functools.lru_cache(maxsize=16)
def degree_index(horizon: int) -> DegreeIndex:
    """The DegreeIndex of a horizon (cached; its arrays are read-only)."""
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
    return DegreeIndex(pairs, triples, levels, *gather.T)


def _chunks(n: int):
    """Slices covering range(n) in order, CHUNK at a time."""
    return (slice(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK))


def stack_maps(maps: dict, keys) -> np.ndarray:
    """The maps under `keys`, in order, as one (len(keys), m, n) array."""
    return np.stack([maps[k] for k in keys])


def triple_residuals(maps: np.ndarray, idx: DegreeIndex) -> np.ndarray:
    """Coassociativity defects in idx.triples order:
    max |(b[r,s] (x) I2) b[r+s,t] - (I2 (x) b[s,t]) b[r,s+t]| per triple,
    where `maps` stacks the 4x2 maps b in idx.pairs order."""
    out = np.empty(len(idx.triples))
    for sl in _chunks(len(idx.triples)):
        left = kron(maps[idx.rs[sl]], I2) @ maps[idx.rs_t[sl]]
        right = kron(I2, maps[idx.st[sl]]) @ maps[idx.r_st[sl]]
        out[sl] = np.abs(left - right).max(axis=(1, 2))
    return out


@dataclass(frozen=True)
class GradedAlgebra:
    """Multiplication maps M[s, t]: 2x4 matrices for s + t <= horizon."""

    horizon: int
    M: dict = field(repr=False)

    def __post_init__(self):
        if self.horizon < 3:
            raise ValueError("horizon must be at least 3")
        maps = {}
        for (s, t), m in self.M.items():
            m = as_cmat(m)
            if m.shape != (2, 4):
                raise ValueError(f"M[{s},{t}] must be 2x4")
            maps[(s, t)] = m
        for s in range(1, self.horizon):
            for t in range(1, self.horizon - s + 1):
                if (s, t) not in maps:
                    raise ValueError(f"missing multiplication map M[{s},{t}]")
        object.__setattr__(self, "M", maps)

    def index_pairs(self):
        return iter(degree_index(self.horizon).pairs)

    def index_triples(self):
        return iter(degree_index(self.horizon).triples)

    def triple_product_map(self, r: int, s: int, t: int) -> np.ndarray:
        """M[r, s, t] as a 2x8 matrix."""
        return self.M[(r + s, t)] @ kron(self.M[(r, s)], I2)

    def associativity_residual(self) -> float:
        # the defect of M is that of its transpose, the dual system's beta
        idx = degree_index(self.horizon)
        maps = stack_maps(self.M, idx.pairs).transpose(0, 2, 1)
        return float(np.fmax.reduce(triple_residuals(maps, idx), initial=0.0))

    def iterated_product(self, n: int) -> np.ndarray:
        """The n-fold product map on degree-1 elements, a 2 x 2^n matrix."""
        if not 1 <= n <= self.horizon:
            raise ValueError("n must lie in 1..horizon")
        out = I2
        for k in range(1, n):
            out = self.M[(k, 1)] @ kron(out, I2)
        return out


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
    if residual > max(eps, 1e-9) * 100:
        raise MorphismError(f"construction produced associativity residual {residual}")
    return g


def _as_level_maps(f, horizon: int) -> dict:
    if callable(f):
        return {t: as_cmat(f(t)) for t in range(1, horizon + 1)}
    return {t: as_cmat(f[t]) for t in range(1, horizon + 1)}


def graded_automorphism_residual(g: GradedAlgebra, f: dict) -> float:
    worst = 0.0
    for s, t in g.index_pairs():
        lhs = f[s + t] @ g.M[(s, t)]
        rhs = g.M[(s, t)] @ kron(f[s], f[t])
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def twist(g: GradedAlgebra, f, eps: float = DEFAULT_EPS) -> GradedAlgebra:
    """The twisted algebra with product (x, y) -> x f_t^s(y)."""
    levels = _as_level_maps(f, g.horizon)
    for t, m in levels.items():
        s = np.linalg.svd(m, compute_uv=False)
        if s[1] <= eps * max(s[0], 1.0):
            raise NotAutomorphismError(f"level-{t} map is not invertible")
    residual = graded_automorphism_residual(g, levels)
    if residual > max(np.sqrt(eps), 1e-7):
        raise NotAutomorphismError(
            f"per-level family is not multiplicative (residual {residual})"
        )
    maps = {}
    for s, t in g.index_pairs():
        maps[(s, t)] = g.M[(s, t)] @ kron(I2, np.linalg.matrix_power(levels[t], s))
    return GradedAlgebra(horizon=g.horizon, M=maps)


def check_image_condition(g: GradedAlgebra, eps: float = DEFAULT_EPS) -> bool:
    """All M[s, t] surjective, and every iterated product P_n too.

    P_n = M[n-1, 1] (P_{n-1} (x) I2) is 2 x 2^n, so it is never formed.  If
    P_{n-1} = L_{n-1} Q with Q of orthonormal rows, then P_n = A (Q (x) I2)
    for the 2x4 matrix A = M[n-1, 1] (L_{n-1} (x) I2), and Q (x) I2 again has
    orthonormal rows.  With A = U S V^H, L_n = U S carries exactly the
    singular values of P_n: O(h) time and O(1) memory for all n.
    """
    pairs = degree_index(g.horizon).pairs
    for sl in _chunks(len(pairs)):
        sv = np.linalg.svd(stack_maps(g.M, pairs[sl]), compute_uv=False)
        if rank_deficient(sv, eps).any():
            return False
    factor = I2
    for n in range(2, g.horizon + 1):
        u, sv, _ = np.linalg.svd(g.M[(n - 1, 1)] @ kron(factor, I2), full_matrices=False)
        if rank_deficient(sv, eps):
            return False
        factor = u * sv
    return True


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


def _gram_defects(b: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The `Subspace` orthonormality guard on masked bases: True where
    B^H B is more than 1e-7 from the identity on the kept columns."""
    gram = b.conj().transpose(0, 2, 1) @ b
    eye = np.eye(b.shape[-1]) * keep[:, None, :]
    return np.abs(gram - eye).max(axis=(1, 2)) > 1e-7


def _projectors(b: np.ndarray) -> np.ndarray:
    return b @ b.conj().transpose(0, 2, 1)


def check_kernel_condition(g: GradedAlgebra, eps: float = DEFAULT_EPS) -> bool:
    """Ker M[r, s, t] equals the sum of the two partial kernels, for all triples.

    The one-sided containment (partial kernels inside the triple kernel) is a
    structural fact and is asserted unconditionally as a sanity check.  The
    triples are checked in `index_triples` order: the first one whose kernels
    leak or differ decides (RuntimeError for a leak, False otherwise).
    """
    tol = max(np.sqrt(eps), 1e-8)
    idx = degree_index(g.horizon)
    maps = stack_maps(g.M, idx.pairs)
    pair_kernels, pair_keep = _masked_null_spaces(maps, eps)
    pair_defects = _gram_defects(pair_kernels, pair_keep)
    for sl in _chunks(len(idx.triples)):
        rs, st = idx.rs[sl], idx.st[sl]
        m3 = maps[idx.rs_t[sl]] @ kron(maps[rs], I2)  # M[r, s, t], (T, 2, 8)
        k3, k3_keep = _masked_null_spaces(m3, eps)
        side, side_keep = _masked_spans(np.concatenate(
            [kron(pair_kernels[rs], I2), kron(I2, pair_kernels[st])], axis=2), eps)
        defects = (_gram_defects(k3, k3_keep) | _gram_defects(side, side_keep)
                   | pair_defects[rs] | pair_defects[st])
        leak = np.abs(m3 @ side).max(axis=(1, 2))
        leaks = leak > tol * np.maximum(1.0, np.abs(m3).max(axis=(1, 2)))
        distance = np.abs(_projectors(k3) - _projectors(side)).max(axis=(1, 2))
        unequal = (k3_keep.sum(1) != side_keep.sum(1)) | (distance > max(tol, 1e-8))
        bad = np.flatnonzero(defects | leaks | unequal)
        if bad.size:
            if defects[bad[0]]:
                raise ValueError("basis columns are not orthonormal")
            if leaks[bad[0]]:
                raise RuntimeError(
                    "partial kernels escape the triple kernel; "
                    "the graded data is inconsistent"
                )
            return False
    return True


@dataclass(frozen=True)
class GradedMorphism:
    """Per-level maps theta[t] of a morphism between two graded algebras."""

    source: GradedAlgebra = field(repr=False)
    target: GradedAlgebra = field(repr=False)
    theta: dict = field(repr=False)

    def residual(self) -> float:
        worst = 0.0
        for s, t in self.source.index_pairs():
            lhs = self.theta[s + t] @ self.source.M[(s, t)]
            rhs = self.target.M[(s, t)] @ kron(self.theta[s], self.theta[t])
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        return worst

    def level_residuals(self) -> dict:
        out = {}
        for s, t in self.source.index_pairs():
            lhs = self.theta[s + t] @ self.source.M[(s, t)]
            rhs = self.target.M[(s, t)] @ kron(self.theta[s], self.theta[t])
            out[(s, t)] = float(np.abs(lhs - rhs).max())
        return out


def is_isomorphism(m: GradedMorphism, eps: float = DEFAULT_EPS) -> bool:
    levels = stack_maps(m.theta, range(1, m.source.horizon + 1))
    return not rank_deficient(np.linalg.svd(levels, compute_uv=False), eps).any()


def extend_morphism(gA: GradedAlgebra, gB: GradedAlgebra, theta1, theta2,
                    eps: float = DEFAULT_EPS, rng=None) -> GradedMorphism:
    """Extend (theta1, theta2) to a full graded morphism gA -> gB.

    Requires gA to satisfy the image and kernel conditions.  theta_n is the
    unique map factoring the n-fold target product through the n-fold source
    product; preimages default to the minimum-norm choice, or are randomized
    with `rng` (the result is the same either way, which is tested).
    """
    if gA.horizon != gB.horizon:
        raise MorphismError("source and target horizons differ")
    theta1 = as_cmat(theta1)
    theta2 = as_cmat(theta2)
    if not check_image_condition(gA, eps):
        raise MorphismError("source algebra fails the image condition")
    if not check_kernel_condition(gA, eps):
        raise MorphismError("source algebra fails the kernel condition")
    compat = np.abs(
        theta2 @ gA.M[(1, 1)] - gB.M[(1, 1)] @ kron(theta1, theta1)
    ).max()
    if compat > max(np.sqrt(eps), 1e-8):
        raise MorphismError(f"theta2 is incompatible with theta1 (residual {compat})")

    theta = {1: theta1, 2: theta2}
    # theta_n is determined by factoring through M[n-1, 1]; the one-step
    # recursion is algebraically the same as factoring the n-fold product
    # through theta1^{(x) n} but avoids amplifying cond(theta1)^n
    for n in range(3, gA.horizon + 1):
        ma = gA.M[(n - 1, 1)]
        rhs = gB.M[(n - 1, 1)] @ kron(theta[n - 1], theta1)
        kernel = _null_space(ma, eps)
        if kernel.shape[1]:
            leak = np.abs(rhs @ kernel).max()
            if leak > max(np.sqrt(eps), 1e-8) * max(1.0, np.abs(rhs).max()):
                raise NotExtendableError(
                    f"theta_{n} is not well defined (kernel leak {leak})"
                )
        pre = np.linalg.pinv(ma)
        if rng is not None and kernel.shape[1]:
            pre = pre + kernel @ (
                rng.standard_normal((kernel.shape[1], 2))
                + 1j * rng.standard_normal((kernel.shape[1], 2))
            )
        theta[n] = rhs @ pre
    return GradedMorphism(source=gA, target=gB, theta=theta)
