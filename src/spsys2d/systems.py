"""Subproduct systems with two-dimensional components: the canonical families
E1..E5(lambda), axiom checking, duality with graded algebras, the full
classification pipeline, and a seeded generator of scrambled instances.

A system stores the comultiplication-style maps beta[s, t]: E_{s+t} ->
E_s (x) E_t as 4x2 matrices for s + t <= horizon.
"""

from __future__ import annotations

import math

import numpy as np

from .classify import (Classification, Triple, TripleClass, _read_plane, canonical_maps,
                       check_label)
from .graded import (GradedAlgebra, checked_maps, degree_index, equilibrated_levels,
                     checked_levels, extend_levels, intertwining_defects, pair_max, rank_lost,
                     triple_residuals)
from .tensorlinalg import (DEFAULT_EPS, I2, Record, Subspace, ValueRecord, kron, rank_deficient,
                           residual_tol, span_basis2)

SYSTEM_LABELS = ("E1", "E2", "E3", "E4", "E5")
MAX_COND = 50.0  # largest condition number of a level map drawn by `random_system`

# the class of the degree-(1,1,1) triple determines the system family
_TRIPLE_TO_SYSTEM = {"C1": "E1", "C2": "E2", "C3": "E3", "C4": "E4", "C5": "E5"}
_SYSTEM_TO_TRIPLE = {e: c for c, e in _TRIPLE_TO_SYSTEM.items()}


class ClassifyStageError(ValueError):
    """Pipeline failure carrying the stage where it occurred."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class SystemLabel(ValueRecord):
    """A family E1..E5, with the lambda of E3."""

    __slots__ = _shown = ("label", "lam")

    def __init__(self, label: str, lam: complex | None = None):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "lam", lam)
        check_label(label, lam, SYSTEM_LABELS, "system label")

    @classmethod
    def from_triple_class(cls, c: TripleClass) -> "SystemLabel":
        return cls(_TRIPLE_TO_SYSTEM[c.label], c.lam)


class SubproductSystem(Record):
    """beta[s, t] is the 4x2 map E_{s+t} -> E_s (x) E_t, for s + t <= horizon.

    Built from a dict of the maps keyed by (s, t), or from their (P, 4, 2)
    stack in `degree_index(horizon).pairs` order (`checked_maps`).  `stack`
    holds every map, read-only; `beta` is a read-only mapping whose beta[s, t]
    is a view into it.  A copy or unpickled instance is rebuilt from the
    stack."""

    __slots__ = ("horizon", "beta", "stack")
    _shown = ("horizon",)

    def __init__(self, horizon: int, beta: dict):
        stack, beta = checked_maps(horizon, beta, "beta", (4, 2), "map")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "stack", stack)

    def __reduce__(self):
        return type(self), (self.horizon, self.stack)

    def index_triples(self):
        return iter(degree_index(self.horizon).triples)


class SystemIso(Record):
    """Per-level invertible maps theta[t] carrying one system onto another:
    (theta_s (x) theta_t) beta[s, t] = beta'[s, t] theta_{s+t}.

    Built from a dict of theta_1..theta_n keyed by level, or from their
    (n, 2, 2) stack (`checked_levels`).  `stack` holds theta_t at
    stack[t - 1], read-only; `theta` maps each t to a view into it.  A copy
    or unpickled instance is rebuilt from the stack."""

    __slots__ = ("theta", "stack")

    def __init__(self, theta: dict):
        stack, theta = checked_levels(theta)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "stack", stack)

    def __reduce__(self):
        return type(self), (self.stack,)


def iso_residuals(src: SubproductSystem, dst: SubproductSystem,
                  iso: SystemIso) -> dict:
    """Per-pair intertwining residuals of an iso from `src` onto `dst`.

    Residuals are relative: the defect is scaled by the magnitude of the
    compared maps, since the level maps of an isomorphism carry no preferred
    normalization and their norms can grow geometrically with the level.
    The level maps are the slice iso.stack[:horizon] of the iso's stack, so
    nothing is restacked; levels past the horizon are not read.  ValueError
    when the horizons differ, or naming the first missing level when the iso
    has fewer than `horizon`.
    """
    h = src.horizon
    if h != dst.horizon:
        raise ValueError(f"source horizon {h} and target horizon {dst.horizon} differ")
    theta = iso.stack[:h]
    if len(theta) < h:
        raise ValueError(f"missing level map {len(theta) + 1}")
    residuals = intertwining_defects(theta, src.stack, dst.stack)[1]
    return dict(zip(degree_index(h).pairs, residuals.tolist()))


def _triple_class(label: SystemLabel) -> TripleClass:
    return TripleClass(_SYSTEM_TO_TRIPLE[label.label], label.lam)


def canonical_system(label: SystemLabel, horizon: int = 6) -> SubproductSystem:
    """The canonical representative of each isomorphism class: beta[s, t] =
    `canonical_maps`[s - 1] for every t, gathered into the system's stack in
    one index (`degree_index(horizon).sides[:, 0]` holds each s - 1) and
    handed to the constructor as a stack, with no dict of maps."""
    maps = canonical_maps(_triple_class(label), horizon)
    return SubproductSystem(horizon, maps[degree_index(horizon).sides[:, 0]])


class AxiomReport(ValueRecord):
    """The findings of `check_axioms`."""

    __slots__ = _shown = ("passed", "worst_associativity_residual", "first_failing_triple",
                          "injectivity_failures", "min_singular_value")

    def __init__(self, passed: bool, worst_associativity_residual: float,
                 first_failing_triple: tuple | None, injectivity_failures: tuple,
                 min_singular_value: float):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "worst_associativity_residual", worst_associativity_residual)
        object.__setattr__(self, "first_failing_triple", first_failing_triple)
        object.__setattr__(self, "injectivity_failures", injectivity_failures)
        object.__setattr__(self, "min_singular_value", min_singular_value)


def axiom_text(rep: AxiomReport) -> str:
    """One-line summary of an axiom report's findings."""
    parts = [f"worst associativity residual {rep.worst_associativity_residual:.3g}"]
    if rep.first_failing_triple:
        parts.append(f"first failing triple {rep.first_failing_triple}")
    if rep.injectivity_failures:
        parts.append(f"injectivity failures at {list(rep.injectivity_failures)}")
    return "; ".join(parts)


def check_axioms(sys: SubproductSystem, eps: float = DEFAULT_EPS) -> AxiomReport:
    """Injectivity of every beta[s, t] (`rank_deficient` on a stacked SVD) and
    coassociativity of every triple within eps * max(max|beta|^2, 1), formed on
    the stack scaled by a power of two (`_scaled_tol`), so that no product
    overflows; a NaN or infinite residual fails."""
    idx = degree_index(sys.horizon)
    beta = sys.stack
    sv = np.linalg.svd(beta, compute_uv=False)
    inj_failures = [idx.pairs[i] for i in np.flatnonzero(rank_deficient(sv, eps))]
    min_sv = sv[:, 1].min()
    scaled, unit, _, tol = _scaled_tol(beta, eps)
    residuals = triple_residuals(scaled, idx)
    worst = float(np.fmax.reduce(residuals, initial=0.0)) / unit / unit  # skips NaN
    failing = np.flatnonzero(~(residuals <= tol))
    first_fail = idx.triples[failing[0]] if failing.size else None
    passed = not inj_failures and first_fail is None
    return AxiomReport(
        passed=passed,
        worst_associativity_residual=worst,
        first_failing_triple=first_fail,
        injectivity_failures=tuple(inj_failures),
        min_singular_value=float(min_sv),
    )


def _scaled_tol(stack: np.ndarray, eps: float) -> tuple:
    """(scaled, unit, big, tol) for a contiguous stack of maps: unit = 2^-k,
    the power of two that brings the largest |Re| or |Im| of its entries into
    [1, 2) when that is >= 2 (1 otherwise); scaled = stack * unit (`stack`
    itself, not copied, when unit is 1); big = max|scaled|; and the
    coassociativity tolerance eps * max(max|beta|^2, 1) of `check_axioms` in
    the units of `scaled`, eps * max(big^2, unit^2).  The largest |Re| or |Im|
    is finite for every finite entry, whose modulus may not be, so neither big
    nor tol overflows; scaling by a power of two rounds nothing, so the
    tolerance is the stated one wherever that does not overflow."""
    peak = float(np.abs(stack.view(float)).max())
    unit = math.ldexp(1.0, -max(math.frexp(peak)[1] - 1, 0))
    scaled = stack if unit == 1 else stack * unit
    big = float(np.abs(scaled).max())
    return scaled, unit, big, eps * max(big * big, unit * unit)


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
    """Transpose duality between systems and graded algebras (an involution),
    built from the transposed stack."""
    if isinstance(obj, SubproductSystem):
        return GradedAlgebra(obj.horizon, obj.stack.transpose(0, 2, 1))
    if isinstance(obj, GradedAlgebra):
        return SubproductSystem(obj.horizon, obj.stack.transpose(0, 2, 1))
    raise TypeError("dualize expects a SubproductSystem or a GradedAlgebra")


def classify_system(sys: SubproductSystem, eps: float = DEFAULT_EPS) -> Classification:
    """Label + explicit per-level isomorphism onto the canonical system.

    Pipeline: read the class and theta_1 from the normal form of the plane
    Im beta[1,1], whose basis `span_basis2` gives in closed form, as
    `Subspace.from_spanning` does; the success path makes no np.linalg call.
    Every later level is then forced by
    (theta_1 (x) theta_{n-1}) beta[1, n-1] = beta_can[1, n-1] theta_n.  The
    canonical beta_can[1, t] is injective and the same for every t, so one
    left inverse L of beta_can[1, 1] solves all levels (`extend_levels`).  For
    E3(lambda) theta is defined up to the automorphisms a_t(x) = [[1, x S_t],
    [0, 1]], S_t = 1 + lambda + ... + lambda^(t-1), of the canonical system;
    the recursion fixes x by the E3 gauge of `extend_levels` (the rows of
    each level with |S_t| >= 1/2 made orthogonal in turn), so theta_t does
    not grow like lambda^t for |lambda| > 1.  The level maps must be
    invertible, and they are certified once by the rule of `iso_residuals`,
    against beta_can[s, t] = `canonical_maps`[s - 1] (no canonical system is
    built); the result keeps them and the plane's rank.  That certificate
    covers every pair, so E3 is not checked separately.

    The axioms come last.  A certified input is conjugate, within the
    certificate's defects, to the canonical system, which is injective and
    coassociative; `_axioms_proved` bounds what that leaves of both axioms,
    and `check_axioms` runs only when the bound cannot decide, or when a stage
    refused or raised.  An input that fails the axioms is refused at stage
    `axioms`, with the same message, as if they had been checked first.
    """
    try:
        with np.errstate(all="ignore"):  # an input that fails the axioms may overflow here
            result, proved = _certified(sys, eps)
    except Exception:
        # whatever a stage raised on an input that fails the axioms, the axioms
        # refuse it first; on one that passes, the stage's error stands
        _require_axioms(sys, eps)
        raise
    if not proved:
        _require_axioms(sys, eps)
    return result


def _require_axioms(sys: SubproductSystem, eps: float) -> None:
    """The `axioms` refusal of `classify_system` when `check_axioms` fails."""
    report = check_axioms(sys, eps)
    if not report.passed:
        raise ClassifyStageError(
            "axioms", f"input fails the axioms: {axiom_text(report)}") from None


def _certified(sys: SubproductSystem, eps: float) -> tuple:
    """The stages of `classify_system` before the axioms: its result, and
    whether `_axioms_proved` decides that the input passes `check_axioms`."""
    e2 = span_basis2(sys.stack[0].T.tolist(), eps)[1]  # Im beta[1, 1], as `from_spanning`
    try:
        plane = _read_plane(e2, eps)
    except ValueError as exc:
        raise ClassifyStageError("classify-triple", str(exc)) from exc
    label = SystemLabel.from_triple_class(plane.label)

    h, idx = sys.horizon, degree_index(sys.horizon)
    maps = canonical_maps(plane.label, h)
    left = _left_inverse(maps[0].tolist())
    # beta[1, t] for t = 1..h-1: the pairs (1, t) lead degree_index order
    theta = extend_levels(plane.iso.theta, left, sys.stack[:h - 1], plane.label.lam)
    norms, q = equilibrated_levels(theta)
    if rank_lost(q, eps).any():
        raise ClassifyStageError("extend-morphism", "extended morphism is singular")
    target = maps[idx.sides[:, 0]]  # beta_can[s, t] = maps[s - 1]
    defects, residuals = intertwining_defects(theta, sys.stack, target)
    worst = residuals.max()
    if not worst <= residual_tol(eps):  # a NaN residual fails
        raise ClassifyStageError(
            "extend-morphism", f"level maps fail to intertwine (residual {worst:.3g})")
    iso = SystemIso(theta)
    result = Classification(label, iso, plane.rank, plane.rank_margin,
                            dict(zip(idx.pairs, residuals.tolist())))
    return result, _axioms_proved(sys.stack, norms, q, defects, label.lam is not None, eps)


_U = 2.0 ** -53  # the unit roundoff
_SLACK = 64 * _U  # relative slack on a computed bound, for its own rounding


def _axioms_proved(stack: np.ndarray, norms: np.ndarray, q: np.ndarray,
                   defects: np.ndarray, c3: bool, eps: float) -> bool:
    """True only if `check_axioms(sys, eps)` passes, for the system `stack`,
    decided in O(h^2) from what `_certified` formed: the row norms and q of
    its level maps theta (`equilibrated_levels`), and the defects of
    `intertwining_defects` against the canonical maps beta_can.

    Coassociativity, first, as it is the part that fails where the bound
    cannot decide: write theta_t = D_t U_t with D_t = diag(norms[t]), so U_t
    has unit rows, |det U_t| = q_t and |U_t^-1|_2 <= sqrt(2) / q_t.  The
    defect R_st = (theta_s (x) theta_t) beta_st - beta*_s theta_{s+t}, against
    the canonical maps beta* with exact powers of lambda (a coassociative
    system), has rows scaled by (D_s (x) D_t)^-1 at most the scaled defects
    plus the rounding of both sides and of fl(lambda^s).  Then beta =
    beta' + E with beta' = (theta_s (x) theta_t)^-1 beta* theta_{s+t}
    coassociative and |E_st|max <= 4 |R_st scaled|max / (q_s q_t), so every
    triple's defect is at most 4 E (2 B + E), over the largest entries E of E
    and B of beta; with the rounding of `triple_residuals` it must clear the
    tolerance of `check_axioms` (`_scaled_tol`).

    Injectivity, in closed form: for the columns x, y of beta_st, with
    r = y - (x^H y / |x|^2) x the part of y orthogonal to x, sigma_0^2
    sigma_1^2 = |x|^2 |r|^2 (the Gram determinant, formed without its
    cancellation) and sigma_0^2 <= |x|^2 + |y|^2 = tr, so sigma_1^2 >=
    |x|^2 |r|^2 / tr.  The computed r is within 19 u |y| + u |r| of the exact
    one (x^H y within 6 u |x| |y|, the quotient within 15 u |y| / |x|, the
    product and the difference within 4 u), and its computed norm within 4 u
    of its own; as |r|, |y| <= sqrt(tr), |r| >= |r|~ - 24 u sqrt(tr) for the
    computed |r|~.  So sigma_1 / max(sigma_0, 1) >= |x| |r| / max(tr,
    sqrt(tr)) >= gap - 24 u, for gap = |x| |r|~ / max(tr, sqrt(tr)) (as |x|
    <= sqrt(tr)), which rounds within 20 u.  It must clear the test of
    `rank_deficient` with LAPACK's rounding added: sigma_1 > (eps + 64 u)
    (1 + 64 u) max(sigma_0, 1).  Every rounding term carries a generous
    constant."""
    a = np.abs(stack)
    xx, yy = np.einsum("prc,prc->cp", a, a)  # |x|^2, |y|^2 for the columns x, y of each map
    tr = xx + yy  # |beta_st|_F^2 = sigma_0^2 + sigma_1^2
    root_tr = np.sqrt(tr)
    sides = degree_index(len(norms)).sides.T[:2]  # the positions s - 1, t - 1 of each pair
    inv_s, inv_t = (1 / norms)[sides]
    scaled = pair_max(defects * (inv_s[:, :, None] * inv_t[:, None, :]).reshape(-1, 4, 1))
    # both sides round within 10 u (|beta_st|_F + |R_st|), fl(lambda^s) within
    # 12 (s + 1) u |lambda^s|, which adds as much again of |beta_st|_F + |R_st|
    rounding = _U * (10 + 12 * (sides[0] + 2) if c3 else 10) * (root_tr + scaled)
    q_s, q_t = (q - 32 * _U)[sides]  # q rounds within 25 u
    err = float(((scaled + rounding) / (q_s * q_t)).max()) * 4 * (1 + _SLACK)
    _, unit, big, tol = _scaled_tol(stack, eps)
    err *= unit
    if not 4 * err * (2 * big + err) * (1 + _SLACK) + _SLACK * big * big <= tol:
        return False
    x, y = stack[..., 0], stack[..., 1]
    r = (y - ((x.conj() * y).sum(axis=1) / xx)[:, None] * x).view(float)  # Re, Im of r
    gap = float((np.sqrt(np.einsum("pi,pi->p", r, r) * xx) / np.maximum(tr, root_tr)).min())
    return gap > (eps + _SLACK) * (1 + _SLACK) ** 2 + _SLACK  # NaN fails


def _left_inverse(b: list) -> list:
    """diag(1 / |c_j|^2) b^H, as nested lists of Python complex, for a 4x2
    map b given as its rows (`tolist()`) with columns c_j: its Moore-Penrose
    inverse when the columns are orthogonal, as those of every canonical
    beta_can are.  Each entry conj(z) is multiplied by the reciprocal r = 1 /
    |c_j|^2 as numpy's complex / real rounds it, (Re z - Im z * 0) r +
    (-Im z - Re z * 0) r i, so every bit, signed zeros included, is that of
    `b.conj().T / (b.real * b.real + b.imag * b.imag).sum(axis=0)[:, None]`."""
    left = []
    for col in zip(*b):
        norm2 = 0.0
        for z in col:  # left to right, as numpy sums the 4 entries of a column
            norm2 += z.real * z.real + z.imag * z.imag
        r = 1 / norm2
        left.append([complex((z.real - z.imag * 0.0) * r, (-z.imag - z.real * 0.0) * r)
                     for z in col])
    return left


def random_system(label: SystemLabel, seed: int, horizon: int = 6) -> SubproductSystem:
    """Canonical system conjugated by seeded random invertible level maps.

    beta'[s, t] = (g_s (x) g_t) beta[s, t] g_{s+t}^{-1}; deterministic for a
    fixed seed, and classifies back to `label`.
    """
    rng = np.random.default_rng(seed)
    maps = canonical_maps(_triple_class(label), horizon)
    # candidates for g_1..g_h (g[t - 1] is g_t), `horizon` per draw: the
    # normal stream of one (2, 2) real and one imaginary draw per candidate
    g = np.empty((0, 2, 2), dtype=complex)
    while len(g) < horizon:
        z = rng.standard_normal((horizon, 2, 2, 2))
        cand = z[:, 0] + 1j * z[:, 1]
        g = np.concatenate([g, cand[np.linalg.cond(cand) <= MAX_COND]])
    g = g[:horizon]
    s, t = degree_index(horizon).levels.T
    beta = kron(g[s - 1], g[t - 1]) @ maps[s - 1] @ np.linalg.inv(g)[s + t - 1]
    return SubproductSystem(horizon, beta)
