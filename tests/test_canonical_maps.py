"""The certificate against the canonical maps, and the read-only maps of a
system or algebra.

`classify_system` reads the h - 1 distinct canonical maps beta_can[s, .]
from `canonical_maps` by degree and keeps theta as one stack; it builds no
canonical `SubproductSystem`.  The path it replaced (`canonical_system`,
the pinv of its beta[1, 1], the `kron` recursion, `has_singular_level` and
`iso_residuals`) is kept here as the reference, and must agree bit for bit:
the same products are formed in the same order.
"""

import copy
import pickle
from types import MappingProxyType

import numpy as np
import pytest

from spsys2d import systems
from spsys2d.classify import TripleClass, canonical_beta, canonical_maps, classify_plane
from spsys2d.graded import degree_index, extend_levels, has_singular_level, singular_levels
from spsys2d.systems import (ClassifyStageError, SubproductSystem, SystemIso, SystemLabel,
                             axiom_text, canonical_system, check_axioms, classify_system,
                             dualize, iso_residuals, random_system)
from spsys2d.tensorlinalg import DEFAULT_EPS, Subspace, kron, residual_tol

GRID = [SystemLabel(x) for x in ("E1", "E2", "E4", "E5")] + [
    SystemLabel("E3", complex(lam))
    for lam in (0.25, 0.5, -1.0, 1.0, 1j, 2 + 1j, 3.0, 4.0)
]


# --- reference: the certificate against a canonical system -------------------

def ref_classify_system(sys, eps=DEFAULT_EPS):
    """classify_system as it was: the canonical system built per call, theta
    solved level by level with `kron` and kept as a dict, checked with
    has_singular_level and certified with iso_residuals."""
    report = check_axioms(sys, eps)
    if not report.passed:
        raise ClassifyStageError("axioms", f"input fails the axioms: {axiom_text(report)}")
    e2 = Subspace.from_spanning(sys.beta[(1, 1)], eps=eps)
    try:
        plane = classify_plane(e2, eps)
    except ValueError as exc:
        raise ClassifyStageError("classify-triple", str(exc)) from exc
    label = SystemLabel.from_triple_class(plane.label)

    canonical = canonical_system(label, sys.horizon)
    left = np.linalg.pinv(canonical.beta[(1, 1)])
    theta = {1: plane.iso.theta}
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
    return plane, label, iso, residuals


def outcome(sys, eps, reference):
    """The refusal's stage and message, or label, lambda, rank, margin, each
    theta_t bit for bit and the residual dict bit for bit."""
    try:
        if reference:
            plane, label, iso, residuals = ref_classify_system(sys, eps)
            rank, margin = plane.rank, plane.rank_margin
        else:
            label, iso = r = classify_system(sys, eps)
            rank, margin, residuals = r.rank, r.rank_margin, r.residuals
    except ClassifyStageError as exc:
        return (exc.stage, str(exc))
    theta = tuple((t, iso.theta[t].tobytes()) for t in sorted(iso.theta))
    return ("ok", label.label, label.lam, rank, margin, theta,
            tuple(residuals), np.array(list(residuals.values())).tobytes())


def ref_random_system_stack(label, seed, horizon, max_cond=50.0):
    """random_system's stack as it was built: over canonical_system's stack."""
    rng = np.random.default_rng(seed)
    base = canonical_system(label, horizon)
    g = np.empty((horizon, 2, 2), dtype=complex)
    for t in range(horizon):
        while True:
            cand = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            if np.linalg.cond(cand) <= max_cond:
                g[t] = cand
                break
    s, t = degree_index(horizon).levels.T
    return kron(g[s - 1], g[t - 1]) @ base.stack @ np.linalg.inv(g)[s + t - 1]


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --- the certificate ---------------------------------------------------------

@pytest.mark.parametrize("eps", [1e-6, 1e-9])
@pytest.mark.parametrize("h", [6, 12, 20])
def test_classify_system_matches_the_canonical_system_path_bit_for_bit(h, eps):
    stages = set()
    for i, label in enumerate(GRID):
        for seed in range(3):
            sys = random_system(label, 1000 * h + 10 * i + seed, h)
            got = outcome(sys, eps, reference=False)
            assert got == outcome(sys, eps, reference=True)
            stages.add(got[0])
    assert "ok" in stages


def test_classify_system_builds_no_subproduct_system(monkeypatch):
    sys = random_system(SystemLabel("E3", 2.0), 5, 8)
    calls = []
    checked = systems.checked_maps

    def counting(*args):
        calls.append(args[0])
        return checked(*args)

    monkeypatch.setattr(systems, "checked_maps", counting)
    label, _ = classify_system(sys)
    assert label.label == "E3" and calls == []
    canonical_system(label, 8)  # the counter sees a build
    assert calls == [8]


def test_classify_system_refusals_match_the_canonical_system_path():
    singular = random_system(SystemLabel("E3", 3.0), 7, 12)
    got = outcome(singular, 1e-9, False)
    assert got == ("extend-morphism", "[extend-morphism] extended morphism is singular")
    assert got == outcome(singular, 1e-9, True)
    beta = dict(random_system(SystemLabel("E3", 4.0), 0, 6).beta)
    beta[(1, 2)] = beta[(1, 2)] + np.array([[0, 0]] * 3 + [[0, 1e-3]])
    unfit = SubproductSystem(6, beta)
    got = outcome(unfit, 1e-6, False)
    assert got[1].startswith("[extend-morphism] level maps fail to intertwine (residual")
    assert got == outcome(unfit, 1e-6, True)


# --- the canonical maps ------------------------------------------------------

@pytest.mark.parametrize("label", GRID, ids=lambda x: f"{x.label}-{x.lam}")
def test_canonical_maps_are_the_canonical_systems_maps(label):
    c = TripleClass(systems._SYSTEM_TO_TRIPLE[label.label], label.lam)
    maps = canonical_maps(c, 7)
    assert maps.shape == (6, 4, 2) and not maps.flags.writeable
    for s in range(1, 7):
        assert np.array_equal(maps[s - 1], canonical_beta(c, s))
    s = degree_index(7).levels[:, 0]
    assert maps[s - 1].tobytes() == canonical_system(label, 7).stack.tobytes()


def test_canonical_maps_keep_the_system_errors():
    for label in (SystemLabel("E1"), SystemLabel("E3", 2.0)):
        with pytest.raises(ValueError, match="^horizon must be at least 3$"):
            canonical_system(label, 2)
        with pytest.raises(ValueError, match="^horizon must be at least 3$"):
            random_system(label, 0, 2)
    with pytest.raises(OverflowError):
        canonical_system(SystemLabel("E3", 1e200), 3)
    with pytest.raises(OverflowError):
        canonical_maps(TripleClass("C3", 1e200), 3)
    # lambda^1 does not overflow, so a horizon of 2 is refused first
    with pytest.raises(ValueError, match="^horizon must be at least 3$"):
        canonical_system(SystemLabel("E3", 1e200), 2)


@pytest.mark.parametrize("h", [3, 6, 12])
def test_random_system_stacks_equal_the_canonical_system_construction(h):
    for label in GRID:
        for seed in range(5):
            got = random_system(label, seed, h).stack
            assert got.tobytes() == ref_random_system_stack(label, seed, h).tobytes()


# --- the level recursion and the rank test -----------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_extend_levels_equals_the_kron_loop_bitwise(n):
    rng = np.random.default_rng(n)
    theta1 = _complex(rng, (2, 2))
    left, maps = _complex(rng, (n, 2, 4)), _complex(rng, (n, 4, 2))
    # as classify_system passes them, and as extend_morphism does (transposed views)
    for args in ((theta1, left, maps),
                 (theta1.T, maps.transpose(0, 2, 1), left.transpose(0, 2, 1))):
        want = [args[0]]
        for k in range(n):
            want.append(args[1][k] @ kron(args[0], want[-1]) @ args[2][k])
        assert extend_levels(*args).tobytes() == np.stack(want).tobytes()


def test_has_singular_level_is_the_stack_test():
    rng = np.random.default_rng(4)
    theta = _complex(rng, (6, 2, 2))
    theta[3] = np.outer(theta[3][:, 0], [1.0, 1e-12])
    mask = singular_levels(theta)
    assert mask.tolist() == [False, False, False, True, False, False]
    assert has_singular_level(dict(enumerate(theta, 1)), 6)
    assert not has_singular_level(dict(enumerate(theta, 1)), 3)


# --- read-only maps, for both dual kinds -------------------------------------

def _both_kinds():
    s = canonical_system(SystemLabel("E2"), 5)
    return [(s, "beta"), (dualize(s), "M")]


@pytest.mark.parametrize("kind", [0, 1], ids=["system", "algebra"])
def test_maps_cannot_drift_from_the_stack(kind):
    obj, name = _both_kinds()[kind]
    maps = getattr(obj, name)
    assert isinstance(maps, MappingProxyType)
    with pytest.raises(TypeError):
        maps[(1, 1)] = np.zeros(maps[(1, 1)].shape)
    with pytest.raises(TypeError):
        del maps[(1, 1)]
    assert all(np.shares_memory(m, obj.stack) for m in maps.values())


@pytest.mark.parametrize("kind", [0, 1], ids=["system", "algebra"])
@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy,
                                   copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_copies_are_rebuilt_read_only(kind, clone):
    obj, name = _both_kinds()[kind]
    dup = clone(obj)
    maps = getattr(dup, name)
    assert type(dup) is type(obj) and dup.horizon == obj.horizon
    assert dup.stack.tobytes() == obj.stack.tobytes()
    assert not dup.stack.flags.writeable
    assert isinstance(maps, MappingProxyType)
    assert list(maps) == list(getattr(obj, name))
    assert all(np.shares_memory(m, dup.stack) for m in maps.values())
    with pytest.raises(ValueError):
        dup.stack[0, 0, 0] = 5


def test_classify_system_reads_beta_1_1_from_the_stack():
    """Were the mapping swapped out behind the constructor's back, the
    axioms and the classification would both still read the stack."""
    s = canonical_system(SystemLabel("E2"), 5)
    drifted = dict(s.beta)
    drifted[(1, 1)] = np.zeros((4, 2), dtype=complex)
    object.__setattr__(s, "beta", MappingProxyType(drifted))
    assert check_axioms(s).passed
    assert classify_system(s).label == SystemLabel("E2")

