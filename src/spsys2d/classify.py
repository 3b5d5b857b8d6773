"""The constructive search for product vectors in intersections (the Main
Lemma), and classification of identical-factor triples into the five
canonical families C1..C5 with an explicit isomorphism, certified as the
horizon-3 system that the triple determines.  The read of the plane E2 and
the canonical tables are in `plane`, the certificate in `systems`, which
classifying a system loads without this module.
"""

from __future__ import annotations

import math

import numpy as np

from .common import quad_coeffs
from .plane import Classification, NotSubproductTripleError, TripleClass, TripleIso
from .systems import (
    ClassifyStageError, SubproductSystem, SystemLabel, _certified, _triple_class,
    canonical_system, triple_of_system,
)
from .tensorlinalg import (
    DEFAULT_EPS, I2, Record, Subspace, _binary_roots, _norm, _projective, _unit, annihilator,
    intersect, kron, residual_tol,
)


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


def _annihilated(rows) -> tuple:
    """The unit x with r0 x0 + r1 x1 = 0 for the larger row r of `rows` (two
    pairs of Python complex), or e1 when both rows are zero."""
    a, b = max(rows, key=_norm)
    n = _norm((a, b))
    return (1 + 0j, 0j) if n == 0 else (-b / n, a / n)


def _solve_factor(covs, y) -> tuple:
    """(x, residual) for two covectors of a plane L, each a 4-vector c read as
    the 2x2 [[c0, c1], [c2, c3]], and a unit y: the unit x that the larger row
    of the system c (x (x) y) = 0 annihilates, and the norm of the system at
    x, which is dist(x (x) y, L) when the covectors are an orthonormal basis
    of L's annihilator."""
    rows = [(c[0] * y[0] + c[1] * y[1], c[2] * y[0] + c[3] * y[1]) for c in covs]
    x = _annihilated(rows)
    return x, _norm([r[0] * x[0] + r[1] * x[1] for r in rows])


# the x2 tried when neither quadratic offers a root (both vanish identically)
_FIXED_DIRECTIONS = ((1 + 0j, 0j), (0j, 1 + 0j), (math.sqrt(0.5) + 0j, math.sqrt(0.5) + 0j))


def product_in_intersection(L12: Subspace, L23: Subspace, eps: float = DEFAULT_EPS):
    """A product triple (x1, x2, x3) witnessing a nonzero intersection.

    Returns None when the intersection of the two extended subspaces is zero.
    Otherwise each root of either binary quadratic form in x2 (the Main
    Lemma's common root is among them; the fixed directions when both forms
    vanish identically) is tried as x2, x1 and x3 are solved from their 2x2
    systems in closed form, and the triple with the smallest residual
    max(dist(x1 (x) x2, L12), dist(x2 (x) x3, L23)) is returned.
    """
    if L12.ambient_dim != 4 or L12.dim != 2 or L23.ambient_dim != 4 or L23.dim != 2:
        raise ValueError("both planes must be 2-dim in 4-dim ambient spaces")
    inter = intersect(extend_right(L12), extend_left(L23), eps)
    if inter.dim == 0:
        return None

    # each plane's covectors, laid out with the shared factor x2 second: those
    # of L23 (x2 (x) x3) transposed
    lo = annihilator(L12, eps).basis.T.tolist()
    hi = [[c[0], c[2], c[1], c[3]] for c in annihilator(L23, eps).basis.T.tolist()]
    roots = [_binary_roots(*quad_coeffs(*covs)[:3], eps) for covs in (lo, hi)]
    candidates = [r for rs in roots if rs for r in rs] or _FIXED_DIRECTIONS

    def fit(x2):
        x2 = _unit(x2)
        (x1, r12), (x3, r23) = _solve_factor(lo, x2), _solve_factor(hi, x2)
        return max(r12, r23), (x1, x2, x3)

    _, best = min(map(fit, candidates), key=lambda t: t[0])
    return tuple(np.array(_projective(x), dtype=complex) for x in best)


# ---------------------------------------------------------------------------
# Identical-factor triples


class Triple(Record):
    """The data (E2, E3) of an identical-factor triple; E1 is implicitly C^2."""

    __slots__ = _shown = ("E2", "E3")

    def __init__(self, E2: Subspace, E3: Subspace):
        object.__setattr__(self, "E2", E2)
        object.__setattr__(self, "E3", E3)

    def validate(self, eps: float = DEFAULT_EPS) -> None:
        if self.E2.ambient_dim != 4 or self.E2.dim != 2:
            raise ValueError("E2 must be a 2-dim subspace of the 4-dim space")
        if self.E3.ambient_dim != 8 or self.E3.dim != 2:
            raise ValueError("E3 must be a 2-dim subspace of the 8-dim space")
        window = intersect(extend_right(self.E2), extend_left(self.E2), eps)
        tol = residual_tol(eps)
        for i in range(self.E3.dim):
            if window.distance(self.E3.basis[:, i]) > tol:
                raise NotSubproductTripleError(
                    "E3 is not contained in the intersection of the E2 extensions"
                )


def canonical_triple(c: TripleClass, eps: float = DEFAULT_EPS) -> Triple:
    """The canonical triple of each class, in standard coordinates: the
    degree-(1, 2, 3) data of the canonical system (`triple_of_system`)."""
    return triple_of_system(canonical_system(SystemLabel.from_triple_class(c), 3), eps)


def _system_of(t: Triple) -> SubproductSystem:
    """The horizon-3 system of a triple: beta[1, 1] = b, the orthonormal basis
    of E2, and beta[1, 2] = (I2 (x) b)^H e3, beta[2, 1] = (b (x) I2)^H e3 for
    the basis e3 of E3 (b^H is the left inverse of b, so both are E3's
    coordinates in C^2 (x) E2 and E2 (x) C^2)."""
    b, e3 = t.E2.basis, t.E3.basis
    return SubproductSystem(3, {(1, 1): b, (1, 2): kron(I2, b).conj().T @ e3,
                                (2, 1): kron(b, I2).conj().T @ e3})


def classify_triple(t: Triple, eps: float = DEFAULT_EPS) -> Classification:
    """Classify a triple into C1..C5 with lambda and an explicit isomorphism:
    `Triple.validate`, then the certified stages of `classify_system` on the
    triple's horizon-3 system (`_system_of`), whose axiom bound is not read:
    `validate` is the triple's axiom check.  theta_1 is the iso's first level
    and the residuals are the certificate's, one per pair; a refusal of a
    stage is a NotSubproductTripleError with the stage's text."""
    t.validate(eps)
    try:
        result = _certified(_system_of(t), eps)[0]
    except ClassifyStageError as exc:
        raise NotSubproductTripleError(str(exc)) from exc
    return Classification(_triple_class(result.label), TripleIso(result.iso.stack[0]),
                          result.rank, result.rank_margin, result.residuals)
