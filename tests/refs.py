"""The references, grids and input builders that test files share, each
defined once.

One reference per behaviour: a test file that pins a behaviour against a
reference imports it from here when another file pins the same behaviour, and
keeps its own only when the route is its alone (the graded detour, the triple
path, the per-index loops, the dense `kron` products, the LAPACK comparisons,
the exact oracles).  Fixtures live in `conftest.py`.
"""

import numpy as np

from spsys2d.graded import singular_levels
from spsys2d.plane import Classification, classify_plane
from spsys2d.stacks import CHUNK, degree_index, extend_levels
from spsys2d.systems import (ClassifyStageError, SubproductSystem, SystemIso, SystemLabel,
                             axiom_text, canonical_system, check_axioms, iso_residuals)
from spsys2d.tensorlinalg import DEFAULT_EPS, Subspace, kron, residual_tol

U = 2.0 ** -53  # the unit roundoff of float64

# the benchmark grid: every label, and E3 over |lambda| in [1/4, 4]
GRID_LAMBDAS = (0.25, 0.5, -1.0, 1.0, 1j, 2 + 1j, 3.0, 4.0)
GRID = tuple(SystemLabel(x) for x in ("E1", "E2", "E4", "E5")) + tuple(
    SystemLabel("E3", complex(lam)) for lam in GRID_LAMBDAS)
# the stress grid: E3 over lambda in and past the benchmark's range, on both
# sides of |lambda| = 1 and off the real axis
STRESS_LAMBDAS = (0.25, 0.5, 1, -1, 1j, 2 + 1j, 3, 4, 1.25, 1.5, -2, -4, 0.5j, 4j)
STRESS_GRID = GRID[:4] + tuple(SystemLabel("E3", complex(lam)) for lam in STRESS_LAMBDAS)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])  # e1 <-> e2


def random_gl2(rng, max_cond=50.0):
    """One invertible 2x2 complex map: Gaussian candidates drawn one at a time
    until one has condition number <= max_cond."""
    while True:
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if np.linalg.cond(g) <= max_cond:
            return g


def moved(sys, key, entry, delta):
    """A copy of `sys` with one entry of beta[key] moved by delta."""
    beta = {k: b.copy() for k, b in sys.beta.items()}
    beta[key][entry] += delta
    return SubproductSystem(sys.horizon, beta)


def top_heavy_unfit(sys):
    """A broken copy of `sys` that passes `check_axioms`.  The maps into the
    top level h are scaled by 1e14, an isomorphic system; then one entry of
    beta[h-1, 1] moves by 1e-2 of its largest entry.  Coassociativity is
    tested against eps * max|beta|^2, which cannot see that break; the
    certificate at (h-1, 1) does, as does the graded detour's kernel-leak
    test."""
    h = sys.horizon
    beta = {k: b * 1e14 if sum(k) == h else b.copy() for k, b in sys.beta.items()}
    beta[(h - 1, 1)][3, 1] += 1e-2 * np.abs(beta[(h - 1, 1)]).max()
    return SubproductSystem(h, beta)


def assert_same_build(got, want, name):
    """`got` holds the bytes of `want`'s stack as a read-only C-contiguous
    complex stack, with its mapping `name` keyed by the pairs in order and
    made of views into that stack."""
    assert type(got) is type(want) and got.horizon == want.horizon
    assert got.stack.dtype == want.stack.dtype == complex
    assert got.stack.shape == want.stack.shape
    assert got.stack.tobytes() == want.stack.tobytes()
    assert got.stack.flags.c_contiguous and not got.stack.flags.writeable
    maps = getattr(got, name)
    assert list(maps) == list(getattr(want, name)) == list(degree_index(got.horizon).pairs)
    assert all(np.shares_memory(m, got.stack) for m in maps.values())


# --- references ----------------------------------------------------------------

def ref_matmul2(a, b):
    """matmul2 as it was, pairs first: a @ b for (..., m, 2) and (..., 2, n)
    stacks whose leading axes broadcast, two broadcast products and a sum."""
    return a[..., :, 0, None] * b[..., None, 0, :] + a[..., :, 1, None] * b[..., None, 1, :]


def ref_intertwining(theta, src, dst):
    """stacks.intertwining as it was: both sides of (theta_s (x) theta_t)
    src[s, t] = dst[s, t] theta_{s+t} as (P, 4, 2) stacks, by `ref_matmul2`
    on the pairs-first stacks."""
    theta_s, theta_t, theta_st = theta[degree_index(len(theta)).sides.T]
    inner = ref_matmul2(theta_t[:, None], src.reshape(-1, 2, 2, 2))
    lhs = ref_matmul2(theta_s, inner.reshape(-1, 2, 4)).reshape(-1, 4, 2)
    return lhs, ref_matmul2(dst, theta_st)


def ref_triple_residuals(maps, idx):
    """stacks.triple_residuals as it was: the defect of each triple, by
    `ref_matmul2` on pairs-first operands, CHUNK triples at a time, and
    reduced by `.max(axis=(1, 2))`."""
    out = np.empty(len(idx.triples))
    for lo in range(0, len(idx.triples), CHUNK):
        sl = slice(lo, lo + CHUNK)
        b, c = maps[idx.rs[sl]], maps[idx.rs_t[sl]]
        left = ref_matmul2(b, c.reshape(-1, 2, 4)).reshape(-1, 8, 2)
        b, c = maps[idx.st[sl]], maps[idx.r_st[sl]]
        right = ref_matmul2(b[:, None], c.reshape(-1, 2, 2, 2)).reshape(-1, 8, 2)
        out[sl] = np.abs(left - right).max(axis=(1, 2))
    return out


def ref_left_inverse(b):
    """The Moore-Penrose inverse of a map b whose columns c_j are orthogonal:
    row j is c_j^H / |c_j|^2."""
    return np.array([c.conj() / sum(x.real * x.real + x.imag * x.imag for x in c) for c in b.T])


def ref_random_system(label, seed, horizon, max_cond=50.0):
    """random_system as it was: the level maps g_t drawn one candidate at a
    time (`random_gl2`), the maps (g_s (x) g_t) beta_can[s, t] g_{s+t}^-1 over
    canonical_system's stack, handed to the constructor as a dict."""
    rng = np.random.default_rng(seed)
    g = np.array([random_gl2(rng, max_cond) for _ in range(horizon)])
    idx = degree_index(horizon)
    s, t = idx.levels.T
    beta = (kron(g[s - 1], g[t - 1]) @ canonical_system(label, horizon).stack
            @ np.linalg.inv(g)[s + t - 1])
    return SubproductSystem(horizon, dict(zip(idx.pairs, beta)))


def ref_is_isomorphism(m, eps=DEFAULT_EPS):
    """Every level map theta[1..horizon] of rank two by LAPACK's singular
    values: s1 > eps * max(s0, 1)."""
    for t in range(1, m.source.horizon + 1):
        sv = np.linalg.svd(m.theta[t], compute_uv=False)
        if sv[1] <= eps * max(sv[0], 1.0):
            return False
    return True


def ref_classify_system(sys, eps=DEFAULT_EPS):
    """classify_system as it was, axioms first: `check_axioms`, the plane read
    of Im beta[1, 1], the canonical system built per call, theta solved by
    `extend_levels` with the left inverse of its beta[1, 1] and kept as a
    dict, checked with singular_levels on its stack and certified with
    iso_residuals."""
    report = check_axioms(sys, eps)
    if not report.passed:
        raise ClassifyStageError("axioms", f"input fails the axioms: {axiom_text(report)}")
    e2 = Subspace.from_spanning(sys.beta[(1, 1)], eps=eps)
    try:
        plane = classify_plane(e2, eps)
    except ValueError as exc:
        raise ClassifyStageError("classify-triple", str(exc)) from exc
    label = SystemLabel.from_triple_class(plane.label)

    h = sys.horizon
    canonical = canonical_system(label, h)
    left = ref_left_inverse(canonical.beta[(1, 1)])
    maps = np.stack([sys.beta[(1, t)] for t in range(1, h)])
    theta = dict(enumerate(extend_levels(plane.iso.theta, [left] * (h - 1), maps, label.lam), 1))
    if singular_levels(np.stack([theta[t] for t in range(1, h + 1)]), eps).any():
        raise ClassifyStageError("extend-morphism", "extended morphism is singular")
    iso = SystemIso(theta=theta)
    residuals = iso_residuals(sys, canonical, iso)
    worst = max(residuals.values())
    if worst > residual_tol(eps):
        raise ClassifyStageError(
            "extend-morphism", f"level maps fail to intertwine (residual {worst:.3g})")
    return Classification(label, iso, plane.rank, plane.rank_margin, residuals)


def bitwise_outcome(classify, sys, eps):
    """The refusal's stage and message (or any other exception's type and
    message), or label, lambda, rank, margin, the theta stack bit for bit and
    the residual dict bit for bit, of `classify(sys, eps)`."""
    try:
        r = classify(sys, eps)
    except ClassifyStageError as exc:
        return (exc.stage, str(exc))
    except Exception as exc:  # noqa: BLE001 - any exception must match too
        return (type(exc).__name__, str(exc))
    return ("ok", r.label.label, r.label.lam, r.rank, r.rank_margin, r.iso.stack.tobytes(),
            tuple(r.residuals), np.array(list(r.residuals.values())).tobytes())
