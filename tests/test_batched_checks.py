"""The stacked (batched) per-pair and per-triple checks against the one-index-
at-a-time loops they replaced, which are kept here as the reference.

The stacked code forms the same products in the same order, so reports,
residuals and verdicts must agree exactly; only the image condition, which
now tracks a 2x2 factor instead of the 2 x 2^n iterated product, is compared
by verdict.
"""

import tracemalloc

import numpy as np
import pytest

from spsys2d.graded import (
    CATALOG_NAMES,
    GradedAlgebra,
    automorphism_description,
    build_graded,
    catalog,
    check_image_condition,
    check_kernel_condition,
    degree_index,
    extend_morphism,
    is_isomorphism,
    kernel_subspace,
)
from spsys2d.systems import (
    SubproductSystem,
    SystemIso,
    SystemLabel,
    canonical_system,
    check_axioms,
    classify_system,
    dualize,
    iso_residuals,
    random_system,
)
from spsys2d.tensorlinalg import DEFAULT_EPS, I2, Subspace, kron, subspace_sum

# the benchmark grid: every label, and E3 over |lambda| in [1/4, 4]
GRID = [SystemLabel(x) for x in ("E1", "E2", "E4", "E5")] + [
    SystemLabel("E3", complex(lam))
    for lam in (0.25, 0.5, -1.0, 1.0, 1j, 2 + 1j, 3.0, 4.0)
]


# --- reference: the per-index loops -----------------------------------------

def ref_pairs(h):
    return [(s, t) for s in range(1, h) for t in range(1, h - s + 1)]


def ref_triples(h):
    return [(r, s, t) for r in range(1, h - 1) for s in range(1, h - r)
            for t in range(1, h - r - s + 1)]


def ref_check_axioms(sys, eps=DEFAULT_EPS):
    inj_failures = []
    min_sv = np.inf
    for s, t in ref_pairs(sys.horizon):
        sv = np.linalg.svd(sys.beta[(s, t)], compute_uv=False)
        min_sv = min(min_sv, float(sv[1]))
        if sv[1] <= eps * max(sv[0], 1.0):
            inj_failures.append((s, t))
    worst = 0.0
    first_fail = None
    scale = max(np.abs(b).max() for b in sys.beta.values())
    tol = max(eps, 1e-12) * max(scale * scale, 1.0)
    for r, s, t in ref_triples(sys.horizon):
        left = np.kron(sys.beta[(r, s)], I2) @ sys.beta[(r + s, t)]
        right = np.kron(I2, sys.beta[(s, t)]) @ sys.beta[(r, s + t)]
        residual = float(np.abs(left - right).max())
        if residual > worst:
            worst = residual
        if residual > tol and first_fail is None:
            first_fail = (r, s, t)
    return (not inj_failures and first_fail is None, worst, first_fail,
            tuple(inj_failures), float(min_sv))


def ref_iso_residuals(src, dst, iso):
    out = {}
    for s, t in ref_pairs(src.horizon):
        lhs = np.kron(iso.theta[s], iso.theta[t]) @ src.beta[(s, t)]
        rhs = dst.beta[(s, t)] @ iso.theta[s + t]
        scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
        out[(s, t)] = float(np.abs(lhs - rhs).max()) / scale
    return out


def ref_triple_kernels(g, r, s, t, eps=DEFAULT_EPS):
    """(leaks, equal) for one triple of the kernel condition."""
    tol = max(np.sqrt(eps), 1e-8)
    m3 = g.M[(r + s, t)] @ np.kron(g.M[(r, s)], I2)
    k3 = kernel_subspace(m3, eps)
    k_rs = kernel_subspace(g.M[(r, s)], eps)
    k_st = kernel_subspace(g.M[(s, t)], eps)
    left = Subspace(8, np.kron(k_rs.basis, I2)) if k_rs.dim else Subspace.zero(8)
    right = Subspace(8, np.kron(I2, k_st.basis)) if k_st.dim else Subspace.zero(8)
    side = subspace_sum(left, right, eps)
    leaks = False
    if side.dim:
        leak = np.abs(m3 @ side.basis).max()
        leaks = bool(leak > tol * max(1.0, np.abs(m3).max()))
    return leaks, k3.equals(side, tol)


def ref_kernel_condition(g, eps=DEFAULT_EPS):
    for r, s, t in ref_triples(g.horizon):
        leaks, equal = ref_triple_kernels(g, r, s, t, eps)
        if leaks:
            raise RuntimeError("partial kernels escape the triple kernel")
        if not equal:
            return False
    return True


def ref_image_condition(g, eps=DEFAULT_EPS):
    for s, t in ref_pairs(g.horizon):
        sv = np.linalg.svd(g.M[(s, t)], compute_uv=False)
        if sv[1] <= eps * max(sv[0], 1.0):
            return False
    for n in range(2, g.horizon + 1):
        sv = np.linalg.svd(g.iterated_product(n), compute_uv=False)
        if sv[1] <= eps * max(sv[0], 1.0):
            return False
    return True


def ref_is_isomorphism(m, eps=DEFAULT_EPS):
    for t in range(1, m.source.horizon + 1):
        sv = np.linalg.svd(m.theta[t], compute_uv=False)
        if sv[1] <= eps * max(sv[0], 1.0):
            return False
    return True


def ref_random_system(label, seed, horizon):
    rng = np.random.default_rng(seed)
    base = canonical_system(label, horizon)
    g = {}
    for t in range(1, horizon + 1):
        while True:
            cand = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if np.linalg.cond(cand) <= 50.0:
                g[t] = cand
                break
    return {(s, t): np.kron(g[s], g[t]) @ base.beta[(s, t)] @ np.linalg.inv(g[s + t])
            for s, t in ref_pairs(horizon)}


def outcome(check, *args):
    try:
        return check(*args)
    except RuntimeError:
        return "leak"


# --- inputs ------------------------------------------------------------------

def _perturbed(sys, key, entry, delta):
    beta = {k: b.copy() for k, b in sys.beta.items()}
    beta[key][entry] += delta
    return SubproductSystem(sys.horizon, beta)


def _rank_deficient(sys, key):
    beta = dict(sys.beta)
    beta[key] = np.outer(sys.beta[key][:, 0], [1.0, 2.0])
    return SubproductSystem(sys.horizon, beta)


def axiom_inputs():
    for h in (4, 9):
        for i, label in enumerate(GRID):
            can = canonical_system(label, h)
            scr = random_system(label, 50 + i, h)
            yield can
            yield scr
            yield _perturbed(scr, (2, 1), (0, 0), 1e-3)
            yield _perturbed(can, (h - 2, 1), (3, 1), 1e-7)
            yield _rank_deficient(scr, (1, 2))
            yield _rank_deficient(can, (h - 1, 1))


def graded_inputs(horizon):
    for name in CATALOG_NAMES:
        if name in ("D1", "D2", "D3", "D4"):
            fam = automorphism_description(name)
            etas = list(fam.maps) + ([fam.sample(0.5), fam.sample(3.0)]
                                     if fam.one_parameter else [])
        else:
            etas = [I2]
        for eta in etas:
            yield build_graded(catalog(name), eta, horizon)


# --- tests -------------------------------------------------------------------

@pytest.mark.parametrize("horizon", [3, 4, 7, 12])
def test_degree_index_matches_the_loops(horizon):
    idx = degree_index(horizon)
    assert list(idx.pairs) == ref_pairs(horizon)
    assert list(idx.triples) == ref_triples(horizon)
    assert [tuple(p) for p in idx.levels] == ref_pairs(horizon)
    pairs = np.array(idx.pairs)
    r, s, t = np.array(idx.triples).T
    assert (pairs[idx.rs] == np.column_stack([r, s])).all()
    assert (pairs[idx.rs_t] == np.column_stack([r + s, t])).all()
    assert (pairs[idx.st] == np.column_stack([s, t])).all()
    assert (pairs[idx.r_st] == np.column_stack([r, s + t])).all()
    sys = canonical_system(SystemLabel("E1"), horizon)
    assert list(sys.index_pairs()) == list(dualize(sys).index_pairs()) == ref_pairs(horizon)
    assert list(sys.index_triples()) == ref_triples(horizon)


def test_kron_is_np_kron_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = [((2,), (2,)), ((4,), (2,)), ((2, 2), (2, 2)), ((4, 2), (2, 2)),
              ((2, 4), (2, 2)), ((2, 2), (4, 2)), ((2,), (2, 2)), ((2, 4), (2,))]
    for a, b in shapes:
        u = rng.standard_normal(a) + 1j * rng.standard_normal(a)
        v = rng.standard_normal(b) + 1j * rng.standard_normal(b)
        assert np.array_equal(kron(u, v), np.kron(u, v)), (a, b)
    stack = rng.standard_normal((5, 4, 2)) + 1j * rng.standard_normal((5, 4, 2))
    for k, m in enumerate(stack):
        assert np.array_equal(kron(stack, I2)[k], np.kron(m, I2))
        assert np.array_equal(kron(I2, stack)[k], np.kron(I2, m))
    with pytest.raises(ValueError):
        kron(np.ones(4), np.ones(4))


def test_check_axioms_report_matches_the_loops():
    seen_fail = seen_inj = 0
    for sys in axiom_inputs():
        rep = check_axioms(sys)
        got = (rep.passed, rep.worst_associativity_residual, rep.first_failing_triple,
               rep.injectivity_failures, rep.min_singular_value)
        assert got == ref_check_axioms(sys)
        seen_fail += rep.first_failing_triple is not None
        seen_inj += bool(rep.injectivity_failures)
    assert seen_fail and seen_inj  # both failure kinds were exercised


def test_iso_residuals_and_is_isomorphism_match_the_loops():
    for i, label in enumerate(GRID):
        sys = random_system(label, 70 + i, 6)
        found, iso = classify_system(sys)
        can = canonical_system(found, 6)
        assert iso_residuals(sys, can, iso) == ref_iso_residuals(sys, can, iso)
        g_can = dualize(can)
        theta = {t: m.T for t, m in iso.theta.items()}
        morphism = extend_morphism(g_can, dualize(sys), theta[1], theta[2])
        assert is_isomorphism(morphism) == ref_is_isomorphism(morphism) is True
        singular = dict(morphism.theta)
        singular[5] = np.outer(singular[5][:, 0], [1.0, 1.0])
        bad = type(morphism)(morphism.source, morphism.target, singular)
        assert is_isomorphism(bad) == ref_is_isomorphism(bad) is False
    other = SystemIso({t: 2.0 * m for t, m in iso.theta.items()})
    assert iso_residuals(sys, can, other) == ref_iso_residuals(sys, can, other)


def test_associativity_residual_matches_the_loops():
    rng = np.random.default_rng(11)
    algebras = [dualize(s) for s in axiom_inputs()] + list(graded_inputs(6))
    for g in algebras:
        want = 0.0
        for r, s, t in ref_triples(g.horizon):
            left = g.M[(r + s, t)] @ np.kron(g.M[(r, s)], I2)
            right = g.M[(r, s + t)] @ np.kron(I2, g.M[(s, t)])
            want = max(want, float(np.abs(left - right).max()))
        scale = max(1.0, max(float(np.abs(m).max()) for m in g.M.values()))
        # the stack is the transpose, so sums may round in another order
        assert abs(g.associativity_residual() - want) <= 8 * np.finfo(float).eps * scale**2
    noise = {k: rng.standard_normal((2, 4)) for k in ref_pairs(5)}
    assert GradedAlgebra(5, noise).associativity_residual() > 0.1


def test_random_system_is_unchanged():
    for seed in range(20):
        label = GRID[seed % len(GRID)]
        want = ref_random_system(label, seed, 12)
        got = random_system(label, seed, 12).beta
        assert all(np.array_equal(got[k], want[k]) for k in want)


def kernel_inputs():
    for h in (5, 8):
        for i, label in enumerate(GRID):
            yield dualize(canonical_system(label, h))
            yield dualize(random_system(label, 90 + i, h))
    yield from graded_inputs(6)
    rng = np.random.default_rng(5)
    for _ in range(6):  # unstructured data: leaks and mismatches
        yield GradedAlgebra(5, {k: rng.standard_normal((2, 4)) for k in ref_pairs(5)})
    base = dualize(canonical_system(SystemLabel("E1"), 6))
    for key in ((1, 1), (2, 2), (4, 1)):
        maps = dict(base.M)
        maps[key] = np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]])
        yield GradedAlgebra(6, maps)


def test_kernel_condition_verdicts_match_the_loops():
    verdicts = set()
    for g in kernel_inputs():
        got = outcome(check_kernel_condition, g)
        assert got == outcome(ref_kernel_condition, g)
        verdicts.add(got)
    assert verdicts == {True, False, "leak"}


def test_kernel_condition_first_bad_triple_decides():
    # a later triple leaks, but an earlier one only differs: the answer is
    # False, not a RuntimeError
    g = dualize(canonical_system(SystemLabel("E3", 4.0), 20))
    verdicts = [ref_triple_kernels(g, *rst) for rst in ref_triples(20)]
    first_unequal = next(i for i, (_, equal) in enumerate(verdicts) if not equal)
    first_leak = next(i for i, (leaks, _) in enumerate(verdicts) if leaks)
    assert first_unequal < first_leak
    assert check_kernel_condition(g) is False


@pytest.mark.parametrize("horizon", [6, 12, 14])
def test_image_condition_matches_the_dense_product(horizon):
    algebras = [dualize(canonical_system(label, horizon)) for label in GRID]
    algebras += [dualize(random_system(label, 30 + i, horizon))
                 for i, label in enumerate(GRID)]
    algebras += list(graded_inputs(horizon))
    verdicts = [check_image_condition(g) for g in algebras]
    assert verdicts == [ref_image_condition(g) for g in algebras]
    assert True in verdicts and False in verdicts


def test_image_condition_memory_is_flat_in_the_horizon():
    g = dualize(canonical_system(SystemLabel("E1"), 32))
    degree_index(32)  # the shared per-horizon index table is not the check's
    tracemalloc.start()
    try:
        assert check_image_condition(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
