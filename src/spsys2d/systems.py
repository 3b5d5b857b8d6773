"""Subproduct systems with two-dimensional components: the canonical families
E1..E5(lambda), axiom checking, duality with graded algebras, the full
classification pipeline, and a seeded generator of scrambled instances.

A system stores the comultiplication-style maps beta[s, t]: E_{s+t} ->
E_s (x) E_t as 4x2 matrices for s + t <= horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import (Classification, Triple, TripleClass, canonical_maps, check_label,
                       classify_plane)
from .graded import (GradedAlgebra, checked_maps, degree_index, extend_levels, intertwining,
                     singular_levels, stack_maps, triple_residuals)
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
        check_label(self.label, self.lam, SYSTEM_LABELS, "system label")

    @classmethod
    def from_triple_class(cls, c: TripleClass) -> "SystemLabel":
        return cls(_TRIPLE_TO_SYSTEM[c.label], c.lam)


@dataclass(frozen=True, eq=False)
class SubproductSystem:
    """beta[s, t] is the 4x2 map E_{s+t} -> E_s (x) E_t, for s + t <= horizon.

    `stack` holds every map, read-only, in `degree_index(horizon).pairs`
    order; `beta` is a read-only mapping whose beta[s, t] is a view into it.
    A copy or unpickled instance is rebuilt through the constructor."""

    horizon: int
    beta: dict = field(repr=False)
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        stack, beta = checked_maps(self.horizon, self.beta, "beta", (4, 2), "map")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "stack", stack)

    def __reduce__(self):
        return type(self), (self.horizon, dict(self.beta))

    def index_pairs(self):
        return iter(degree_index(self.horizon).pairs)

    def index_triples(self):
        return iter(degree_index(self.horizon).triples)


@dataclass(frozen=True, eq=False)
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
    ValueError when the horizons differ or a level map is missing.
    """
    if src.horizon != dst.horizon:
        raise ValueError(f"source horizon {src.horizon} and target horizon "
                         f"{dst.horizon} differ")
    theta = stack_maps(iso.theta, range(1, src.horizon + 1))
    residuals = relative_residuals(theta, src.stack, dst.stack)
    return dict(zip(degree_index(src.horizon).pairs, residuals.tolist()))


def relative_residuals(theta: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The residuals of `iso_residuals` in pairs order, for the (h, 2, 2)
    stack theta and the two systems' (P, 4, 2) stacks."""
    lhs, rhs = intertwining(theta, src, dst)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs).max(axis=(1, 2)),
                                       np.abs(rhs).max(axis=(1, 2))))
    return np.abs(lhs - rhs).max(axis=(1, 2)) / scale


def _triple_class(label: SystemLabel) -> TripleClass:
    return TripleClass(_SYSTEM_TO_TRIPLE[label.label], label.lam)


def canonical_system(label: SystemLabel, horizon: int = 6) -> SubproductSystem:
    """The canonical representative of each isomorphism class: beta[s, t] =
    `canonical_maps`[s - 1] for every t."""
    maps = canonical_maps(_triple_class(label), horizon)
    return SubproductSystem(horizon, {(s, t): bs for s, bs in enumerate(maps, 1)
                                      for t in range(1, horizon - s + 1)})


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
    beta = sys.stack
    sv = np.linalg.svd(beta, compute_uv=False)
    inj_failures = [idx.pairs[i] for i in np.flatnonzero(rank_deficient(sv, eps))]
    min_sv = sv[:, 1].min()
    scale = np.abs(beta).max()
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
        return GradedAlgebra(obj.horizon, {k: b.T for k, b in obj.beta.items()})
    if isinstance(obj, GradedAlgebra):
        return SubproductSystem(obj.horizon, {k: m.T for k, m in obj.M.items()})
    raise TypeError("dualize expects a SubproductSystem or a GradedAlgebra")


def classify_system(sys: SubproductSystem, eps: float = DEFAULT_EPS) -> Classification:
    """Label + explicit per-level isomorphism onto the canonical system.

    Pipeline: check the axioms, then read the class and theta_1 from the
    normal form of the plane Im beta[1,1].  Every later level is then forced by
    (theta_1 (x) theta_{n-1}) beta[1, n-1] = beta_can[1, n-1] theta_n.  The
    canonical beta_can[1, t] is injective and the same for every t, so one
    left inverse L of beta_can[1, 1] solves all levels (`extend_levels`).  The
    level maps must be invertible, and they are certified once by the rule of
    `iso_residuals`, against beta_can[s, t] = `canonical_maps`[s - 1] (no
    canonical system is built); the result keeps them and the plane's rank.
    That certificate covers every pair, so E3 is not checked separately.
    """
    report = check_axioms(sys, eps)
    if not report.passed:
        raise ClassifyStageError("axioms", f"input fails the axioms: {axiom_text(report)}")
    e2 = Subspace.from_spanning(sys.stack[0], eps=eps)  # beta[1, 1]
    try:
        plane = classify_plane(e2, eps)
    except ValueError as exc:
        raise ClassifyStageError("classify-triple", str(exc)) from exc
    label = SystemLabel.from_triple_class(plane.label)

    h, idx = sys.horizon, degree_index(sys.horizon)
    maps = canonical_maps(plane.label, h)
    left = np.linalg.pinv(maps[0])
    # beta[1, t] for t = 1..h-1: the pairs (1, t) lead degree_index order
    theta = extend_levels(plane.iso.theta, [left] * (h - 1), sys.stack[:h - 1])
    if singular_levels(theta, eps).any():
        raise ClassifyStageError("extend-morphism", "extended morphism is singular")
    target = maps[idx.levels[:, 0] - 1]  # beta_can[s, t] = maps[s - 1]
    residuals = dict(zip(idx.pairs, relative_residuals(theta, sys.stack, target).tolist()))
    worst = max(residuals.values())
    if worst > residual_tol(eps):
        raise ClassifyStageError(
            "extend-morphism", f"level maps fail to intertwine (residual {worst:.3g})")
    iso = SystemIso(theta=dict(enumerate(theta, 1)))
    return Classification(label, iso, plane.rank, plane.rank_margin, residuals)


def random_system(label: SystemLabel, seed: int, horizon: int = 6,
                  max_cond: float = 50.0) -> SubproductSystem:
    """Canonical system conjugated by seeded random invertible level maps.

    beta'[s, t] = (g_s (x) g_t) beta[s, t] g_{s+t}^{-1}; deterministic for a
    fixed seed, and classifies back to `label`.
    """
    rng = np.random.default_rng(seed)
    maps = canonical_maps(_triple_class(label), horizon)
    g = np.empty((horizon, 2, 2), dtype=complex)  # g[t - 1] is g_t
    for t in range(horizon):
        while True:
            cand = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if np.linalg.cond(cand) <= max_cond:
                g[t] = cand
                break
    idx = degree_index(horizon)
    s, t = idx.levels.T
    beta = kron(g[s - 1], g[t - 1]) @ maps[s - 1] @ np.linalg.inv(g)[s + t - 1]
    return SubproductSystem(horizon=horizon, beta=dict(zip(idx.pairs, beta)))
