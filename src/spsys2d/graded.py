"""Two-dimensional algebras D1..D7, graded algebras built from (D, eta),
automorphism twists, the kernel/image conditions, and morphism extension.

A 2-dim algebra is a 2x4 structure-constant matrix sending coordinates of
x (x) y to coordinates of xy.  A graded algebra stores its multiplication
maps M[s, t] (2x4 each) up to a finite horizon: `GradedAlgebra`, with the
degree index, the validation of stacks and level maps and the level
recursion, is in `stacks`, which the system path loads without this module.
"""

from __future__ import annotations

import itertools

import numpy as np

from .stacks import (
    GradedAlgebra, _chunks, checked_levels, degree_index, equilibrated_levels, extend_levels,
    intertwining_defects, pair_max, rank_lost,
)
from .tensorlinalg import (
    DEFAULT_EPS, I2, Record, Subspace, _masked_null_spaces, _null_space, as_cmat, kron,
    rank_deficient, residual_tol, span_rank,
)

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


class Algebra2(Record):
    """A two-dimensional algebra given by its structure constants."""

    __slots__ = ("mult", "name")
    _shown = ("name",)

    def __init__(self, mult: np.ndarray, name: str | None = None):
        m = as_cmat(mult)
        if m.shape != (2, 4):
            raise ValueError("structure constants must form a 2x4 matrix")
        object.__setattr__(self, "mult", m)
        object.__setattr__(self, "name", name)


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
    return bool(residual <= eps * max(1.0, float(s[0]) ** 2))


_SWAP = np.array([[0, 1], [1, 0]], dtype=complex)


class AutomorphismFamily(Record):
    """Closed-form description of an algebra's automorphism group.

    `maps` lists the isolated automorphisms; `one_parameter` (for D2) maps a
    nonzero scalar to the member of the continuous family.
    """

    __slots__ = _shown = ("algebra", "maps", "one_parameter", "description")

    def __init__(self, algebra: str, maps: tuple, one_parameter: object | None = None,
                 description: str = ""):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "one_parameter", one_parameter)
        object.__setattr__(self, "description", description)


def automorphism_description(name: str) -> AutomorphismFamily:
    if name == "D1":
        return AutomorphismFamily("D1", (I2.copy(), _SWAP.copy()),
                                  description="identity and the coordinate swap")
    if name == "D2":
        return AutomorphismFamily("D2", (I2.copy(),),
                                  lambda lam: np.array([[1, 0], [0, lam]], dtype=complex),
                                  "(a1, a2) -> (a1, lam a2) for nonzero lam")
    if name in ("D3", "D4"):
        return AutomorphismFamily(name, (I2.copy(),), description="identity only")
    raise ValueError(f"automorphism description only covers D1..D4, not {name!r}")


def build_graded(d: Algebra2, eta, horizon: int, eps: float = DEFAULT_EPS) -> GradedAlgebra:
    """The graded algebra with product x *_B y = x *_D eta^s(y)."""
    eta = as_cmat(eta)
    if not is_automorphism(d, eta, eps):
        raise NotAutomorphismError("eta is not an automorphism of the algebra")
    powers = list(itertools.accumulate([I2] + [eta] * (horizon - 1), np.matmul))[1:]
    # M[s, t] = D (I2 (x) eta^s) for every t: the h - 1 distinct maps, gathered
    maps = d.mult @ kron(I2, np.stack(powers))
    g = GradedAlgebra(horizon, maps[degree_index(horizon).sides[:, 0]])
    residual = g.associativity_residual()
    if residual > eps * 100:
        raise MorphismError(f"construction produced associativity residual {residual}")
    return g


def twist(g: GradedAlgebra, f, eps: float = DEFAULT_EPS) -> GradedAlgebra:
    """The twisted algebra with product (x, y) -> x f_t^s(y); `f` gives f_t
    as a callable or a mapping of t (ValueError naming its first missing
    level).  f_t^s is one stacked matrix power per exponent s."""
    h = g.horizon
    m = GradedMorphism(g, g, np.array([f(t) for t in range(1, h + 1)]) if callable(f) else f)
    levels = m.stack[:h]
    singular = np.flatnonzero(singular_levels(levels, eps))
    if singular.size:
        raise NotAutomorphismError(f"level-{singular[0] + 1} map is not invertible")
    residual = np.max(list(m.level_residuals().values()))  # a NaN propagates
    if not residual <= residual_tol(eps):
        raise NotAutomorphismError(f"per-level family is not multiplicative (residual {residual})")
    # pairs order runs t = 1..h - s for each s in turn
    powers = np.concatenate([np.linalg.matrix_power(levels[:h - s], s) for s in range(1, h)])
    return GradedAlgebra(h, g.stack @ kron(I2, powers))


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


def _masked_spans(m: np.ndarray, eps: float):
    """Spans of a (T, n, k) stack, k >= n, as (T, n, n) bases and (T, n)
    column masks: the columns that `Subspace.from_spanning` keeps, in place,
    the rest zero."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    keep = np.arange(m.shape[-2]) < span_rank(s, eps)[:, None]
    return u * keep[:, None, :], keep


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
        leak = pair_max(np.abs(m3 @ side))
        leaks = leak > tol * np.maximum(1.0, pair_max(np.abs(m3)))
        distance = pair_max(np.abs(k3 @ k3.conj().transpose(0, 2, 1)
                                   - side @ side.conj().transpose(0, 2, 1)))
        unequal = (k3_keep.sum(1) != side_keep.sum(1)) | (distance > tol)
        bad = np.flatnonzero(leaks | unequal)
        if bad.size:
            if leaks[bad[0]]:
                raise RuntimeError("partial kernels escape the triple kernel; "
                                   "the graded data is inconsistent")
            return False
    return True


class GradedMorphism(Record):
    """Per-level maps theta[t] of a morphism between two graded algebras, kept
    as a `SystemIso` keeps them (`checked_levels`).  MorphismError when the
    horizons differ, or naming the first level up to the horizon with no map.
    A copy or unpickled instance is rebuilt from the stack."""

    __slots__ = ("source", "target", "theta", "stack")

    def __init__(self, source: GradedAlgebra, target: GradedAlgebra, theta: dict):
        if source.horizon != target.horizon:
            raise MorphismError("source and target horizons differ")
        stack, theta = checked_levels(theta)
        if len(stack) < source.horizon:
            raise MorphismError(f"missing level map {len(stack) + 1}")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "stack", stack)

    def __reduce__(self):
        return type(self), (self.source, self.target, self.stack)

    def level_residuals(self) -> dict:
        """Per-pair absolute max |theta_{s+t} M_A - M_B (theta_s (x) theta_t)|:
        the defects of `intertwining_defects` on the transposes, reduced once."""
        h = self.source.horizon
        defects = intertwining_defects(self.stack[:h].transpose(0, 2, 1),
                                       self.target.stack.transpose(0, 2, 1),
                                       self.source.stack.transpose(0, 2, 1))[0]
        return dict(zip(degree_index(h).pairs, np.maximum.reduce(defects).tolist()))


def singular_levels(levels: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Per level of an (h, 2, 2) stack, True where the map has lost rank once
    each row is scaled to unit norm (row equilibration, van der Sluis 1969):
    s1 <= eps * s0, so scaling a row of a level does not move its decision
    (by a power of two, not by one bit).  Unit rows give s0^2 + s1^2 = 2 and
    s0 * s1 = q, the |det| of the scaled map (`equilibrated_levels`), so the
    test is `rank_lost(q, eps)`.  A zero or non-finite row is singular."""
    return rank_lost(equilibrated_levels(levels)[1], eps)


def is_isomorphism(m: GradedMorphism, eps: float = DEFAULT_EPS) -> bool:
    """True unless some level map theta[1..horizon] has lost rank."""
    return not singular_levels(m.stack[:m.source.horizon], eps).any()


def extend_morphism(gA: GradedAlgebra, gB: GradedAlgebra, theta1, theta2,
                    eps: float = DEFAULT_EPS, rng=None) -> GradedMorphism:
    """Extend (theta1, theta2) to a full graded morphism gA -> gB.

    Requires gA to satisfy the image and kernel conditions; theta2 is only
    checked.  theta_n M_A[1, n-1] = M_B[1, n-1] (theta_1 (x) theta_{n-1}),
    transposed, is `extend_levels` from the dual of gB onto that of gA.  Right
    inverses default to the minimum-norm choice, or are randomized with `rng`
    (the result is the same either way, which is tested).  The result is
    certified on every pair by the rule of `intertwining_defects`.
    """
    if gA.horizon != gB.horizon:
        raise MorphismError("source and target horizons differ")
    theta1, theta2 = as_cmat(theta1), as_cmat(theta2)
    if theta1.shape != (2, 2) or theta2.shape != (2, 2):
        raise MorphismError("theta1 and theta2 must be 2x2")
    if not check_image_condition(gA, eps):
        raise MorphismError("source algebra fails the image condition")
    if not check_kernel_condition(gA, eps):
        raise MorphismError("source algebra fails the kernel condition")
    compat = np.abs(theta2 @ gA.stack[0] - gB.stack[0] @ kron(theta1, theta1)).max()
    if not compat <= residual_tol(eps):  # a NaN residual fails
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
    leak = pair_max(np.abs(rhs @ kernel[1:]))
    bad = np.flatnonzero(~(leak <= residual_tol(eps) * np.maximum(1.0, pair_max(np.abs(rhs)))))
    if bad.size:
        raise NotExtendableError(
            f"theta_{bad[0] + 3} is not well defined (kernel leak {leak[bad[0]]})")
    # the recursion reads only the pairs (1, t); certify every pair, as the
    # system iso theta^T from the dual of gB onto the dual of gA
    worst = intertwining_defects(theta.transpose(0, 2, 1), gB.stack.transpose(0, 2, 1),
                                 gA.stack.transpose(0, 2, 1))[1].max()
    if not worst <= residual_tol(eps):
        raise MorphismError(f"level maps fail to intertwine (residual {worst:.3g})")
    return GradedMorphism(gA, gB, theta)
