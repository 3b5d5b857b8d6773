"""The stacked (batched) per-pair and per-triple checks against the one-index-
at-a-time loops they replaced, which are kept here as the reference.

Verdicts, failing indices and singular values must agree exactly.  The
coassociativity and intertwining residuals are formed by `matmul2`, whose
sums round in another order than BLAS's, so they agree within the rounding
bound of the compared products.  The image condition, which now tracks a 2x2
factor instead of the 2 x 2^n iterated product, is compared by verdict.
The parent's classify_system, which went through the dual graded
algebras and extend_morphism, is kept as `ref_classify_by_graded_detour`,
the reference for the direct recursion that replaced it; its extend_morphism
loop, which took a pinv and a null space of M[n-1, 1] at every level, is kept
as `ref_extend_morphism` for the stacked recursion on the transposes that
replaced it.  The composition before that, which certified
the degree-(1,2,3) triple with `triple_of_system` and `classify_triple`
before the recursion, is kept as the reference for the system path that
reads the class from the plane Im beta[1,1] alone.
"""

import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from refs import GRID, moved, ref_is_isomorphism, ref_left_inverse, top_heavy_unfit
from spsys2d import graded
from spsys2d.graded import (
    CATALOG_NAMES,
    GradedAlgebra,
    GradedMorphism,
    MorphismError,
    NotExtendableError,
    automorphism_description,
    build_graded,
    catalog,
    check_image_condition,
    check_kernel_condition,
    degree_index,
    extend_levels,
    extend_morphism,
    is_isomorphism,
    kernel_subspace,
    singular_levels,
    twist,
)
from spsys2d.classify import Classification, classify_plane, classify_triple
from spsys2d.systems import (
    ClassifyStageError,
    SubproductSystem,
    SystemIso,
    SystemLabel,
    canonical_system,
    check_axioms,
    classify_system,
    dualize,
    iso_residuals,
    random_system,
    triple_of_system,
)
from spsys2d.tensorlinalg import (DEFAULT_EPS, I2, Subspace, _null_space, as_cmat, kron,
                                  residual_tol)


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
    """Per pair: the relative residual, and the rounding bound 8 u m / scale
    on it, m the largest entry of (|theta_s| (x) |theta_t|) |src| and of
    |dst| |theta_{s+t}|."""
    out = {}
    for s, t in ref_pairs(src.horizon):
        lhs = np.kron(iso.theta[s], iso.theta[t]) @ src.beta[(s, t)]
        rhs = dst.beta[(s, t)] @ iso.theta[s + t]
        scale = max(1.0, float(np.abs(lhs).max()), float(np.abs(rhs).max()))
        m = max((np.kron(np.abs(iso.theta[s]), np.abs(iso.theta[t]))
                 @ np.abs(src.beta[(s, t)])).max(),
                (np.abs(dst.beta[(s, t)]) @ np.abs(iso.theta[s + t])).max())
        out[(s, t)] = (float(np.abs(lhs - rhs).max()) / scale,
                       8 * np.finfo(float).eps * m / scale)
    return out


def assert_iso_residuals_match_the_loop(src, dst, iso):
    got = iso_residuals(src, dst, iso)
    want = ref_iso_residuals(src, dst, iso)
    assert list(got) == list(want)
    for pair, (residual, bound) in want.items():
        assert abs(got[pair] - residual) <= bound, pair


def ref_triple_kernels(g, r, s, t, eps=DEFAULT_EPS):
    """(leaks, equal) for one triple of the kernel condition."""
    tol = max(np.sqrt(eps), 1e-8)
    m3 = g.M[(r + s, t)] @ np.kron(g.M[(r, s)], I2)
    k3 = kernel_subspace(m3, eps)
    k_rs = kernel_subspace(g.M[(r, s)], eps)
    k_st = kernel_subspace(g.M[(s, t)], eps)
    zero = Subspace(8, np.zeros((8, 0), complex))
    left = Subspace(8, np.kron(k_rs.basis, I2)) if k_rs.dim else zero
    right = Subspace(8, np.kron(I2, k_st.basis)) if k_st.dim else zero
    side = Subspace.from_spanning(np.hstack([left.basis, right.basis]), ambient_dim=8, eps=eps)
    leaks = False
    if side.dim:
        leak = np.abs(m3 @ side.basis).max()
        leaks = bool(leak > tol * max(1.0, np.abs(m3).max()))
    return leaks, k3.dim == side.dim and np.abs(k3.projector() - side.projector()).max() <= tol


def ref_kernel_condition(g, eps=DEFAULT_EPS):
    for r, s, t in ref_triples(g.horizon):
        leaks, equal = ref_triple_kernels(g, r, s, t, eps)
        if leaks:
            raise RuntimeError("partial kernels escape the triple kernel")
        if not equal:
            return False
    return True


def ref_iterated_product(g, n):
    """The n-fold product map on degree-1 elements, a 2 x 2^n matrix."""
    out = I2
    for k in range(1, n):
        out = g.M[(k, 1)] @ np.kron(out, I2)
    return out


def ref_image_condition(g, eps=DEFAULT_EPS):
    for s, t in ref_pairs(g.horizon):
        sv = np.linalg.svd(g.M[(s, t)], compute_uv=False)
        if sv[1] <= eps * max(sv[0], 1.0):
            return False
    for n in range(2, g.horizon + 1):
        sv = np.linalg.svd(ref_iterated_product(g, n), compute_uv=False)
        if sv[1] <= eps * max(sv[0], 1.0):
            return False
    return True


def ref_extend_morphism(gA, gB, theta1, theta2, eps=DEFAULT_EPS, rng=None):
    """extend_morphism as a loop over the levels: theta_2 as given, then theta_n
    factored through M[n-1, 1] with its own pinv and null space."""
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
    theta = {1: theta1, 2: theta2}
    for n in range(3, gA.horizon + 1):
        ma = gA.M[(n - 1, 1)]
        rhs = gB.M[(n - 1, 1)] @ kron(theta[n - 1], theta1)
        kernel = _null_space(ma, eps)
        if kernel.shape[1]:
            leak = np.abs(rhs @ kernel).max()
            if leak > residual_tol(eps) * max(1.0, np.abs(rhs).max()):
                raise NotExtendableError(f"theta_{n} is not well defined (kernel leak {leak})")
        pre = np.linalg.pinv(ma)
        if rng is not None and kernel.shape[1]:
            pre = pre + kernel @ (rng.standard_normal((kernel.shape[1], 2))
                                  + 1j * rng.standard_normal((kernel.shape[1], 2)))
        theta[n] = rhs @ pre
    return GradedMorphism(source=gA, target=gB, theta=theta)


def ref_classify_by_graded_detour(sys, eps=DEFAULT_EPS):
    """classify_system by the graded-algebra detour: dualize, extend the
    transposed triple isomorphism with ref_extend_morphism, transpose back."""
    report = check_axioms(sys, eps)
    if not report.passed:
        raise ClassifyStageError("axioms", f"input fails the axioms: {report}")
    triple = triple_of_system(sys, eps)
    try:
        cls, tri_iso = classify_triple(triple, eps)
    except ValueError as exc:
        raise ClassifyStageError("classify-triple", str(exc)) from exc
    label = SystemLabel.from_triple_class(cls)

    canonical = canonical_system(label, sys.horizon)
    g_sys = dualize(sys)
    g_can = dualize(canonical)
    theta1 = tri_iso.theta.T
    theta2 = g_sys.M[(1, 1)] @ kron(theta1, theta1) @ np.linalg.pinv(g_can.M[(1, 1)])
    try:
        morphism = ref_extend_morphism(g_can, g_sys, theta1, theta2, eps)
    except ValueError as exc:
        raise ClassifyStageError("extend-morphism", str(exc)) from exc
    if not ref_is_isomorphism(morphism, eps):
        raise ClassifyStageError("extend-morphism", "extended morphism is singular")
    iso = SystemIso(theta={t: m.T.copy() for t, m in morphism.theta.items()})
    return label, iso


def ref_classify_via_triple(sys, eps=DEFAULT_EPS):
    """classify_system through the triple: certify the degree-(1,2,3) triple
    with triple_of_system and classify_triple, then solve the level maps
    with the left recursion (`extend_levels`, the one classify_system runs)
    and certify them with iso_residuals."""
    report = check_axioms(sys, eps)
    if not report.passed:
        raise ClassifyStageError("axioms", f"input fails the axioms: {report}")
    triple = triple_of_system(sys, eps)
    try:
        tri = classify_triple(triple, eps)
    except ValueError as exc:
        raise ClassifyStageError("classify-triple", str(exc)) from exc
    label = SystemLabel.from_triple_class(tri.label)

    h = sys.horizon
    canonical = canonical_system(label, h)
    left = ref_left_inverse(canonical.beta[(1, 1)])
    maps = np.stack([sys.beta[(1, t)] for t in range(1, h)])
    theta = dict(enumerate(extend_levels(tri.iso.theta, [left] * (h - 1), maps, label.lam), 1))
    if singular_levels(np.stack([theta[t] for t in range(1, sys.horizon + 1)]), eps).any():
        raise ClassifyStageError("extend-morphism", "extended morphism is singular")
    iso = SystemIso(theta=theta)
    residuals = iso_residuals(sys, canonical, iso)
    if max(residuals.values()) > residual_tol(eps):
        raise ClassifyStageError("extend-morphism", "level maps fail to intertwine")
    return Classification(label, iso, tri.rank, tri.rank_margin, residuals)


def outcome(check, *args):
    try:
        return check(*args)
    except RuntimeError:
        return "leak"


# --- inputs ------------------------------------------------------------------

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
            yield moved(scr, (2, 1), (0, 0), 1e-3)
            yield moved(can, (h - 2, 1), (3, 1), 1e-7)
            yield _rank_deficient(scr, (1, 2))
            yield _rank_deficient(can, (h - 1, 1))


def graded_inputs(horizon):
    for name in CATALOG_NAMES:
        if name in ("D1", "D2", "D3", "D4"):
            fam = automorphism_description(name)
            etas = list(fam.maps) + ([fam.one_parameter(0.5), fam.one_parameter(3.0)]
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
        passed, worst, first_fail, inj_failures, min_sv = ref_check_axioms(sys)
        assert (rep.passed, rep.first_failing_triple, rep.injectivity_failures,
                rep.min_singular_value) == (passed, first_fail, inj_failures, min_sv)
        scale = max(np.abs(b).max() for b in sys.beta.values())
        bound = 8 * np.finfo(float).eps * max(scale * scale, 1.0)
        assert abs(rep.worst_associativity_residual - worst) <= bound
        seen_fail += rep.first_failing_triple is not None
        seen_inj += bool(rep.injectivity_failures)
    assert seen_fail and seen_inj  # both failure kinds were exercised


def test_iso_residuals_match_the_loops():
    for i, label in enumerate(GRID):
        sys = random_system(label, 70 + i, 6)
        found, iso = classify_system(sys)
        can = canonical_system(found, 6)
        assert_iso_residuals_match_the_loop(sys, can, iso)
    other = SystemIso({t: 2.0 * m for t, m in iso.theta.items()})
    assert_iso_residuals_match_the_loop(sys, can, other)


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


class Unreadable(Mapping):
    """A per-pair or per-level mapping that fails the test when read: a check
    that restacked a holder's maps instead of reading its stack would read it."""

    def __getitem__(self, key):
        raise AssertionError(f"the mapping was read at {key!r}")

    def __iter__(self):
        raise AssertionError("the mapping was iterated")

    def __len__(self):
        raise AssertionError("the mapping was sized")


def test_checks_read_the_stored_stack_instead_of_restacking_the_maps():
    sys = random_system(SystemLabel("E3", 2.0), 7, 8)
    g = dualize(sys)
    found, iso = classify_system(sys)
    can = canonical_system(found, 8)
    g_can = dualize(can)
    theta = {t: m.T for t, m in iso.theta.items()}
    morphism = extend_morphism(g_can, g, theta[1], theta[2])
    want = (iso_residuals(sys, can, iso), morphism.level_residuals(),
            twist(g, lambda t: I2).stack.tobytes(),
            extend_morphism(g_can, g, theta[1], theta[2]).stack.tobytes())
    for holder, name in ((sys, "beta"), (can, "beta"), (g, "M"), (g_can, "M"),
                         (iso, "theta"), (morphism, "theta")):
        object.__setattr__(holder, name, Unreadable())
    assert check_axioms(sys).passed
    assert classify_system(sys).label == found
    g.associativity_residual()
    assert check_kernel_condition(g) and check_image_condition(g)
    assert is_isomorphism(morphism)
    assert want == (iso_residuals(sys, can, iso), morphism.level_residuals(),
                    twist(g, lambda t: I2).stack.tobytes(),
                    extend_morphism(g_can, g, theta[1], theta[2]).stack.tobytes())


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


def test_check_axioms_memory_stays_under_a_mebibyte_at_horizon_64():
    sys = canonical_system(SystemLabel("E1"), 64)
    degree_index(64)  # the shared per-horizon index table is not the check's
    tracemalloc.start()
    try:
        assert check_axioms(sys).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def classify_outcome(classify, sys):
    """(stage, None, None) for a refusal, else ("ok", label, iso, worst
    certified residual)."""
    try:
        label, iso = classify(sys)
    except ClassifyStageError as exc:
        return exc.stage, None, None, None
    canonical = canonical_system(label, sys.horizon)
    return "ok", label, iso, max(iso_residuals(sys, canonical, iso).values())


def classify_inputs():
    """(drawn label, system): scrambled systems of the grid, and at h = 12 one
    broken input with no label (`top_heavy_unfit`)."""
    for horizon in (6, 12):
        for seed in range(4):
            for i, label in enumerate(GRID):
                yield label, random_system(label, 1000 * seed + i, horizon)
    yield None, top_heavy_unfit(random_system(SystemLabel("E2"), 3, 12))
    for i, label in enumerate(GRID[::2]):
        yield label, random_system(label, 77 + i, 32)


def test_direct_recursion_matches_the_graded_detour(e3_gauge):
    """The detour's theta is not gauged: for E3 it is compared after the
    canonical automorphism that carries its theta_1 onto classify_system's."""
    stages = set()
    for drawn, sys in classify_inputs():
        stage, label, iso, worst = classify_outcome(classify_system, sys)
        ref_stage, ref_label, ref_iso, ref_worst = classify_outcome(
            ref_classify_by_graded_detour, sys)
        stages.add((sys.horizon, stage))
        if (stage, ref_stage) == ("ok", "extend-morphism"):
            # the detour's rank test is not scale-free: it refused a level
            # map that grows or decays with the level
            assert label.label == drawn.label and worst <= 1e-8, (label, drawn)
            assert drawn.lam is None or abs(label.lam - drawn.lam) <= 1e-12 * abs(drawn.lam)
            continue
        assert (stage, label) == (ref_stage, ref_label)
        if stage != "ok":
            continue
        ref = np.stack([ref_iso.theta[t] for t in sorted(ref_iso.theta)])
        if label.lam is not None:
            ref = e3_gauge(ref, iso.theta[1], label.lam)
        for t, ref_theta in ref_iso.theta.items():
            scale = np.abs(ref_theta).max()
            assert np.abs(iso.theta[t] - ref[t - 1]).max() <= 1e-7 * scale, (label, t)
        assert worst <= 1e-8 or ref_worst > 1e-8
    # successes and refusals were both exercised, at h = 12 and at h = 32
    assert {(12, "ok"), (12, "extend-morphism"), (32, "ok")} <= stages


def extend_inputs():
    """(kind, (source, target, theta1, theta2)) for extend_morphism.  The duals of the
    grid: the canonical algebra onto a scrambled one, clean, and with every
    map but M[1, 1] perturbed by 1e-3 relative.  Then the catalog algebras
    with a copy conjugated by per-level bases, as in criterion 9."""
    rng = np.random.default_rng(17)
    for horizon, seeds in ((6, 2), (12, 1), (16, 1)):
        for seed in range(seeds):
            for label in GRID:
                sys = random_system(label, 1000 * seed + 7, horizon)
                plane = classify_plane(Subspace.from_spanning(sys.beta[(1, 1)]), DEFAULT_EPS)
                found = SystemLabel.from_triple_class(plane.label)
                g_can, g_sys = dualize(canonical_system(found, horizon)), dualize(sys)
                theta1 = plane.iso.theta.T
                theta2 = g_sys.M[(1, 1)] @ kron(theta1, theta1) @ np.linalg.pinv(g_can.M[(1, 1)])
                yield "dual", (g_can, g_sys, theta1, theta2)
                noisy = {k: m if k == (1, 1) else m * (1 + 1e-3 * rng.standard_normal(m.shape))
                         for k, m in g_sys.M.items()}
                yield "dual", (g_can, GradedAlgebra(horizon, noisy), theta1, theta2)
    for horizon in (6, 10):
        for g in graded_inputs(horizon):
            levels = {}
            for t in range(1, horizon + 1):
                while True:
                    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    if np.linalg.cond(m) <= 20:
                        levels[t] = m / np.linalg.norm(m, 2)
                        break
            twisted = GradedAlgebra(horizon, {
                (s, t): np.linalg.inv(levels[s + t]) @ m @ np.kron(levels[s], levels[t])
                for (s, t), m in g.M.items()})
            yield "conjugate", (twisted, g, levels[1], levels[2])


def extension(extend, *args):
    try:
        return extend(*args)
    except MorphismError as exc:
        return exc


def dual_certificate(m):
    """The relative certificate of classify_system for the system iso
    theta^T from the dual of m's target onto the dual of its source."""
    iso = SystemIso({t: theta.T for t, theta in m.theta.items()})
    return max(iso_residuals(dualize(m.target), dualize(m.source), iso).values())


def test_stacked_extension_matches_the_level_loop():
    verdicts = set()
    for kind, case in extend_inputs():
        got, want = extension(extend_morphism, *case), extension(ref_extend_morphism, *case)
        assert type(got) is type(want)
        verdicts.add(type(want))
        if not isinstance(want, GradedMorphism):
            continue
        worst, ref_worst = dual_certificate(got), dual_certificate(want)
        assert worst <= 1e-8 or ref_worst > 1e-8
        if ref_worst <= 1e-8:
            for t, ref_theta in want.theta.items():
                scale = np.abs(ref_theta).max()
                assert np.abs(got.theta[t] - ref_theta).max() <= 1e-7 * scale, t
        if kind == "conjugate":  # criterion 9's inputs, and its absolute bound
            assert max(got.level_residuals().values()) <= 1e-9
    assert verdicts == {GradedMorphism, MorphismError, NotExtendableError}


def test_extend_morphism_takes_one_pinv_and_no_level_null_space(monkeypatch):
    g = dualize(canonical_system(SystemLabel("E3", 0.5), 12))
    calls = []
    pinv, null_space = np.linalg.pinv, graded._null_space

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "pinv", counting("pinv", pinv))
    monkeypatch.setattr(graded, "_null_space", counting("null_space", null_space))
    morphism = extend_morphism(g, g, I2, I2)
    assert len(morphism.theta) == 12
    assert calls == ["pinv"]


def full_outcome(classify, sys, eps):
    """The refusal stage, or everything a certified result carries: label,
    lambda, each theta_t bit for bit, each residual, the rank and its margin."""
    try:
        r = classify(sys, eps)
    except ClassifyStageError as exc:
        return (exc.stage,)
    theta = tuple(r.iso.theta[t].tobytes() for t in sorted(r.iso.theta))
    return ("ok", r.label.label, r.label.lam, theta, tuple(sorted(r.residuals.items())),
            r.rank, r.rank_margin)


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
def test_plane_path_matches_the_triple_path_bit_for_bit(eps):
    stages = set()
    for _, sys in classify_inputs():
        got = full_outcome(classify_system, sys, eps)
        assert got == full_outcome(ref_classify_via_triple, sys, eps)
        stages.add(got[0])
    assert {"ok", "extend-morphism"} <= stages


def test_perturbed_inputs_keep_their_verdicts_or_certify_within_tolerance():
    """Inputs near a valid system: dropping the triple checks refuses nothing
    the triple path certified and changes no axiom refusal; an input that
    only the triple checks refused must certify within residual_tol."""
    h = 6
    seen = set()
    for i, label in enumerate(GRID):
        base = random_system(label, 0, h)
        for key in ((1, 1), (2, 1), (1, 2), (h - 1, 1), (2, 2), None):
            for delta in (1e-9, 1e-6, 1e-3, 1e-1):
                beta = {k: b.copy() for k, b in base.beta.items()}
                for k in ([key] if key else beta):
                    beta[k][3, 1] += delta
                sys = SubproductSystem(h, beta)
                for eps in (1e-6, 1e-9):
                    got = full_outcome(classify_system, sys, eps)
                    want = full_outcome(ref_classify_via_triple, sys, eps)
                    seen.add((want[0], got[0]))
                    if want[0] == "ok":
                        assert got == want
                    assert (got[0] == "axioms") == (want[0] == "axioms")
                    if got[0] == "ok" and want[0] != "ok":
                        assert max(dict(got[4]).values()) <= residual_tol(eps)
    assert {("ok", "ok"), ("axioms", "axioms")} <= seen
