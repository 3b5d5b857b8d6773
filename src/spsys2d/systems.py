"""Subproduct systems with two-dimensional components: the canonical families
E1..E5(lambda), axiom checking, duality with graded algebras, the full
classification pipeline, and a seeded generator of scrambled instances.

A system stores the comultiplication-style maps beta[s, t]: E_{s+t} ->
E_s (x) E_t as 4x2 matrices for s + t <= horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import Classification, Triple, TripleClass, canonical_beta, classify_triple
from .graded import (GradedAlgebra, checked_maps, degree_index, has_singular_level,
                     stack_maps, triple_residuals)
from .tensorlinalg import (DEFAULT_EPS, I2, Subspace, fine_tol, kron, rank_deficient,
                           residual_tol)

SYSTEM_LABELS = ("E1", "E2", "E3", "E4", "E5")

# the class of the degree-(1,1,1) triple determines the system family
_TRIPLE_TO_SYSTEM = {"C1": "E1", "C2": "E2", "C3": "E3", "C4": "E4", "C5": "E5"}
_SYSTEM_TO_TRIPLE = {e: c for c, e in _TRIPLE_TO_SYSTEM.items()}


class ClassifyStageError(ValueError):
    """Pipeline failure carrying the stage where it occurred."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass(frozen=True)
class SystemLabel:
    label: str  # E1..E5
    lam: complex | None = None

    def __post_init__(self):
        if self.label not in SYSTEM_LABELS:
            raise ValueError(f"unknown system label {self.label!r}")
        if self.label == "E3":
            if self.lam is None or self.lam == 0:
                raise ValueError("E3 requires a nonzero lambda")
        elif self.lam is not None:
            raise ValueError(f"label {self.label} carries no lambda")

    @classmethod
    def from_triple_class(cls, c: TripleClass) -> "SystemLabel":
        return cls(_TRIPLE_TO_SYSTEM[c.label], c.lam)


@dataclass(frozen=True)
class SubproductSystem:
    """beta[s, t] is the 4x2 map E_{s+t} -> E_s (x) E_t, for s + t <= horizon."""

    horizon: int
    beta: dict = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "beta", checked_maps(
            self.horizon, self.beta, "beta", (4, 2), "map"))

    def index_pairs(self):
        return iter(degree_index(self.horizon).pairs)

    def index_triples(self):
        return iter(degree_index(self.horizon).triples)


@dataclass(frozen=True)
class SystemIso:
    """Per-level invertible maps theta[t] carrying one system onto another:
    (theta_s (x) theta_t) beta[s, t] = beta'[s, t] theta_{s+t}."""

    theta: dict = field(repr=False)


def iso_residuals(src: SubproductSystem, dst: SubproductSystem,
                  iso: SystemIso) -> dict:
    """Per-pair intertwining residuals of an iso from `src` onto `dst`.

    Residuals are relative: the defect is scaled by the magnitude of the
    compared maps, since the level maps of an isomorphism carry no preferred
    normalization and their norms can grow geometrically with the level.
    """
    idx = degree_index(src.horizon)
    theta = stack_maps(iso.theta, range(1, src.horizon + 1))
    s, t = idx.levels.T
    lhs = kron(theta[s - 1], theta[t - 1]) @ stack_maps(src.beta, idx.pairs)
    rhs = stack_maps(dst.beta, idx.pairs) @ theta[s + t - 1]
    scale = np.maximum(1.0, np.maximum(np.abs(lhs).max(axis=(1, 2)),
                                       np.abs(rhs).max(axis=(1, 2))))
    residuals = np.abs(lhs - rhs).max(axis=(1, 2)) / scale
    return dict(zip(idx.pairs, residuals.tolist()))


def canonical_system(label: SystemLabel, horizon: int = 6) -> SubproductSystem:
    """The canonical representative of each isomorphism class."""
    c = TripleClass(_SYSTEM_TO_TRIPLE[label.label], label.lam)
    beta = {}
    for s in range(1, horizon):
        bs = canonical_beta(c, s)
        for t in range(1, horizon - s + 1):
            beta[(s, t)] = bs
    return SubproductSystem(horizon=horizon, beta=beta)


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    worst_associativity_residual: float
    first_failing_triple: tuple | None
    injectivity_failures: tuple
    min_singular_value: float


def axiom_text(rep: AxiomReport) -> str:
    """One-line summary of an axiom report's findings."""
    parts = [f"worst associativity residual {rep.worst_associativity_residual:.3g}"]
    if rep.first_failing_triple:
        parts.append(f"first failing triple {rep.first_failing_triple}")
    if rep.injectivity_failures:
        parts.append(f"injectivity failures at {list(rep.injectivity_failures)}")
    return "; ".join(parts)


def check_axioms(sys: SubproductSystem, eps: float = DEFAULT_EPS) -> AxiomReport:
    idx = degree_index(sys.horizon)
    beta = stack_maps(sys.beta, idx.pairs)
    sv = np.linalg.svd(beta, compute_uv=False)
    inj_failures = [idx.pairs[i] for i in np.flatnonzero(rank_deficient(sv, eps))]
    min_sv = sv[:, 1].min()
    # the scale covers every stored map, not only those at idx.pairs
    scale = np.abs(np.stack(list(sys.beta.values()))).max()
    tol = fine_tol(eps) * max(scale * scale, 1.0)
    residuals = triple_residuals(beta, idx)
    worst = float(np.fmax.reduce(residuals, initial=0.0))  # skips NaN residuals
    failing = np.flatnonzero(residuals > tol)
    first_fail = idx.triples[failing[0]] if failing.size else None
    passed = not inj_failures and first_fail is None
    return AxiomReport(
        passed=passed,
        worst_associativity_residual=worst,
        first_failing_triple=first_fail,
        injectivity_failures=tuple(inj_failures),
        min_singular_value=float(min_sv),
    )


def triple_of_system(sys: SubproductSystem, eps: float = DEFAULT_EPS) -> Triple:
    """The degree-(1, 2, 3) data: E2 = Im beta[1,1], E3 the common composite image."""
    b11 = sys.beta[(1, 1)]
    via_left = kron(b11, I2) @ sys.beta[(2, 1)]
    via_right = kron(I2, b11) @ sys.beta[(1, 2)]
    scale = max(np.abs(via_left).max(), np.abs(via_right).max(), 1.0)
    if np.abs(via_left - via_right).max() > residual_tol(eps) * scale:
        raise ClassifyStageError(
            "triple", "the two degree-3 composites disagree (associativity failure)"
        )
    return Triple(
        E2=Subspace.from_spanning(b11, eps=eps),
        E3=Subspace.from_spanning(via_left, eps=eps),
    )


def dualize(obj):
    """Transpose duality between systems and graded algebras (an involution)."""
    if isinstance(obj, SubproductSystem):
        return GradedAlgebra(
            horizon=obj.horizon,
            M={k: b.T.copy() for k, b in obj.beta.items()},
        )
    if isinstance(obj, GradedAlgebra):
        return SubproductSystem(
            horizon=obj.horizon,
            beta={k: m.T.copy() for k, m in obj.M.items()},
        )
    raise TypeError("dualize expects a SubproductSystem or a GradedAlgebra")


def classify_system(sys: SubproductSystem, eps: float = DEFAULT_EPS) -> Classification:
    """Label + explicit per-level isomorphism onto the canonical system.

    Pipeline: check the axioms, extract the degree-(1,2,3) triple and
    classify it, which fixes theta_1.  Every later level is then forced by
    (theta_1 (x) theta_{n-1}) beta[1, n-1] = beta_can[1, n-1] theta_n.  The
    canonical beta_can[1, t] is injective and the same for every t, so one
    left inverse L of beta_can[1, 1] solves all levels.  The level maps must
    be invertible, and the result is certified once with `iso_residuals`
    against the canonical system; the result keeps them and the triple's rank.
    """
    report = check_axioms(sys, eps)
    if not report.passed:
        raise ClassifyStageError("axioms", f"input fails the axioms: {axiom_text(report)}")
    triple = triple_of_system(sys, eps)
    try:
        tri = classify_triple(triple, eps)
    except ValueError as exc:
        raise ClassifyStageError("classify-triple", str(exc)) from exc
    label = SystemLabel.from_triple_class(tri.label)

    canonical = canonical_system(label, sys.horizon)
    left = np.linalg.pinv(canonical.beta[(1, 1)])
    theta = {1: tri.iso.theta}
    for n in range(2, sys.horizon + 1):
        theta[n] = left @ kron(theta[1], theta[n - 1]) @ sys.beta[(1, n - 1)]
    if has_singular_level(theta, sys.horizon, eps):
        raise ClassifyStageError("extend-morphism", "extended morphism is singular")
    iso = SystemIso(theta=theta)
    residuals = iso_residuals(sys, canonical, iso)
    worst = max(residuals.values())
    if worst > residual_tol(eps):
        raise ClassifyStageError(
            "extend-morphism", f"level maps fail to intertwine (residual {worst:.3g})")
    return Classification(label, iso, tri.rank, tri.rank_margin, residuals)


def random_system(label: SystemLabel, seed: int, horizon: int = 6,
                  max_cond: float = 50.0) -> SubproductSystem:
    """Canonical system conjugated by seeded random invertible level maps.

    beta'[s, t] = (g_s (x) g_t) beta[s, t] g_{s+t}^{-1}; deterministic for a
    fixed seed, and classifies back to `label`.
    """
    rng = np.random.default_rng(seed)
    base = canonical_system(label, horizon)
    g = {}
    for t in range(1, horizon + 1):
        while True:
            cand = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if np.linalg.cond(cand) <= max_cond:
                g[t] = cand
                break
    g_inv = {t: np.linalg.inv(g[t]) for t in range(2, horizon + 1)}
    beta = {
        (s, t): kron(g[s], g[t]) @ base.beta[(s, t)] @ g_inv[s + t]
        for s, t in base.index_pairs()
    }
    return SubproductSystem(horizon=horizon, beta=beta)
