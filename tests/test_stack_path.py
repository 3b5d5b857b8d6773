"""Systems, algebras and isomorphisms built from their stacks.

`canonical_system`, `random_system` and `dualize` hand the constructor a
(P, m, n) stack; they used to hand it a dict of per-pair maps, which the
constructor gathered back into a stack.  Those dict-built versions are kept
as `ref_*` (`random_system`'s is `refs.ref_random_system`, pinned in
`test_canonical_maps.py`), and every stack the new ones build must match
theirs byte for byte.  `classify_system` keeps theta as the stack it
certified, and `iso_residuals` slices that stack: its residuals against
`canonical_system` are the result's own, bit for bit.  The per-pair maxima of the certificate
are one `pair_max`, which must be `.max(axis=(1, 2))` exactly.

The graded side builds from stacks too: `build_graded` gathers its h - 1
distinct maps, `twist` forms f_t^s as one stacked matrix power per s, and a
`GradedMorphism` keeps theta as a stack, which `level_residuals` and
`is_isomorphism` read.  Their dict-built versions are kept as `ref_*` and
must match byte for byte; `is_isomorphism` must give the verdict of LAPACK's
singular values (`refs.ref_is_isomorphism`).
"""

import numpy as np
import pytest

from refs import GRID, assert_same_build, ref_is_isomorphism
from spsys2d import systems
from spsys2d.classify import TripleClass, canonical_maps
from spsys2d.graded import (CATALOG_NAMES, GradedAlgebra, GradedMorphism,
                            NotAutomorphismError, build_graded, catalog, degree_index,
                            extend_morphism, intertwining, intertwining_defects, is_automorphism,
                            is_isomorphism, pair_max, twist)
from spsys2d.systems import (SubproductSystem, SystemIso, SystemLabel, canonical_system,
                             classify_system, dualize, iso_residuals, random_system)
from spsys2d.tensorlinalg import I2, as_cmat, kron

HORIZONS = (3, 6, 12, 32)


def _maps(label, horizon):
    return canonical_maps(TripleClass(systems._SYSTEM_TO_TRIPLE[label.label], label.lam),
                          horizon)


def ref_canonical_system(label, horizon):
    """canonical_system as it was: a dict of views, gathered by the constructor."""
    maps = _maps(label, horizon)
    return SubproductSystem(horizon, {(s, t): bs for s, bs in enumerate(maps, 1)
                                      for t in range(1, horizon - s + 1)})


def ref_dualize(obj):
    """dualize as it was: a dict of transposed views."""
    if isinstance(obj, SubproductSystem):
        return GradedAlgebra(obj.horizon, {k: b.T for k, b in obj.beta.items()})
    return SubproductSystem(obj.horizon, {k: m.T for k, m in obj.M.items()})


@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("label", GRID, ids=lambda x: f"{x.label}-{x.lam}")
def test_stack_built_systems_match_the_dict_built_ones_byte_for_byte(label, horizon):
    can = canonical_system(label, horizon)
    assert_same_build(can, ref_canonical_system(label, horizon), "beta")
    for seed in (0, 7):
        sys = random_system(label, seed, horizon)
        for obj in (can, sys):
            dual = dualize(obj)
            assert_same_build(dual, ref_dualize(obj), "M")
            back = dualize(dual)
            assert_same_build(back, ref_dualize(ref_dualize(obj)), "beta")
            assert back.stack.tobytes() == obj.stack.tobytes()  # an involution


@pytest.mark.parametrize("horizon", [6, 12])
def test_iso_residuals_on_the_result_are_the_certificate_bit_for_bit(horizon):
    for seed in range(3):
        for i, label in enumerate(GRID):
            sys = random_system(label, 1000 * seed + i, horizon)
            r = classify_system(sys)
            got = iso_residuals(sys, canonical_system(r.label, horizon), r.iso)
            assert list(got) == list(r.residuals)
            assert (np.array(list(got.values())).tobytes()
                    == np.array(list(r.residuals.values())).tobytes())


def test_the_iso_holds_the_certified_stack():
    sys = random_system(SystemLabel("E3", 2.0), 5, 8)
    iso = classify_system(sys).iso
    assert iso.stack.shape == (8, 2, 2) and not iso.stack.flags.writeable
    assert list(iso.theta) == list(range(1, 9))
    assert all(np.shares_memory(m, iso.stack) for m in iso.theta.values())
    assert all(iso.theta[t].tobytes() == iso.stack[t - 1].tobytes() for t in iso.theta)
    rebuilt = SystemIso(dict(iso.theta))  # the dict path: the same stack, copied
    assert rebuilt.stack.tobytes() == iso.stack.tobytes()
    assert not np.shares_memory(rebuilt.stack, iso.stack)


def test_a_level_past_the_horizon_is_not_read():
    sys = random_system(SystemLabel("E1"), 2, 6)
    r = classify_system(sys)
    # levels that would overflow every product they entered
    longer = SystemIso(np.concatenate([r.iso.stack, np.full((2, 2, 2), 1e300)]))
    assert iso_residuals(sys, canonical_system(r.label, 6), longer) == r.residuals


@pytest.mark.parametrize("theta, message", [
    ({1: np.eye(2), 3: np.eye(2)}, "^missing level map 2$"),
    ({2: np.eye(2)}, "^missing level map 1$"),
    ({1: np.eye(2), 2: np.eye(3)}, None),
    (np.ones((3, 2, 3)), "^level maps must be 2x2$"),
    (np.ones((2, 2)), "^level maps must be 2x2$"),
    ({}, "^no level maps$"),
    (np.ones((0, 2, 2)), "^no level maps$"),
    # a dict lookup takes a bool key for the level 0 or 1
    ({True: np.eye(2), 2: np.eye(2), 3: np.eye(2)}, "^level key True is not a level t$"),
    ({np.True_: np.eye(2), 2: np.eye(2)}, r"^level key np\.True_ is not a level t$"),
    ({1: np.eye(2), False: np.eye(2)}, "^level key False is not a level t$"),
    (np.full((3, 2, 2), np.nan), "^non-finite entries are not admitted$"),
    ({1: np.eye(2), 2: np.diag([1, np.inf])}, "^non-finite entries are not admitted$"),
])
def test_a_malformed_iso_is_refused(theta, message):
    with pytest.raises(ValueError, match=message):
        SystemIso(theta)


def test_integral_float_and_numpy_level_keys_are_levels():
    """As on the pair side, where (1.0, 1.0) is the pair (1, 1)."""
    maps = np.arange(12.0).reshape(3, 2, 2)
    for keys in ((1.0, 2.0, 3.0), tuple(np.arange(1, 4)), (3, 1.0, np.int64(2))):
        iso = SystemIso(dict(zip(keys, maps[[int(k) - 1 for k in keys]])))
        assert iso.stack.tobytes() == maps.astype(complex).tobytes()


def test_a_short_iso_names_its_first_missing_level():
    sys = random_system(SystemLabel("E2"), 3, 6)
    iso = classify_system(sys).iso
    can = canonical_system(SystemLabel("E2"), 6)
    for levels in (1, 4, 5):
        with pytest.raises(ValueError, match=f"^missing level map {levels + 1}$"):
            iso_residuals(sys, can, SystemIso(iso.stack[:levels]))


def ref_intertwining_defects(theta, src, dst):
    """intertwining_defects as it was: two per-pair maxima and a maximum."""
    lhs, rhs = intertwining(theta, src, dst)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs).max(axis=(1, 2)),
                                       np.abs(rhs).max(axis=(1, 2))))
    defects = np.abs(lhs - rhs)
    return defects, defects.max(axis=(1, 2)) / scale


@pytest.mark.parametrize("h", [3, 6, 12])
def test_the_certificate_keeps_its_bits(h):
    """Either side may hold the largest entry of a pair: theta scaled down
    makes the right side dominate, scaled up the left."""
    rng = np.random.default_rng(h)
    p = h * (h - 1) // 2
    for scale in (1e-3, 0.5, 1.0, 2.0, 1e3):
        theta = scale * (rng.standard_normal((h, 2, 2)) + 1j * rng.standard_normal((h, 2, 2)))
        src, dst = (rng.standard_normal((p, 4, 2)) + 1j * rng.standard_normal((p, 4, 2))
                    for _ in range(2))
        got = intertwining_defects(theta, src, dst)
        want = ref_intertwining_defects(theta, src, dst)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("kind, shape", [("system", (4, 2)), ("algebra", (2, 4))])
def test_a_malformed_stack_is_refused(kind, shape):
    cls, name = (SubproductSystem, "beta") if kind == "system" else (GradedAlgebra, "M")
    good = np.ones((10, *shape), dtype=complex)
    cls(5, good.copy())
    with pytest.raises(ValueError, match="^horizon must be at least 3$"):
        cls(2, good[:1].copy())
    for bad in (good[:9], good.reshape(10, *shape[::-1]), good[None]):
        want = "x".join(map(str, bad.shape))
        with pytest.raises(ValueError, match=f"^{name} stack must be 10x{shape[0]}x{shape[1]} "
                                             f"at horizon 5, not {want}$"):
            cls(5, bad.copy())
    for value in (np.nan, np.inf, -np.inf):
        bad = good.copy()
        bad[4, 1, 1] = value
        with pytest.raises(ValueError, match="^non-finite entries are not admitted$"):
            cls(5, bad)


def test_a_stack_is_adopted_read_only_and_a_view_is_copied():
    stack = np.ones((10, 4, 2), dtype=complex)
    sys = SubproductSystem(5, stack)
    assert sys.stack is stack and not stack.flags.writeable
    dual = dualize(sys)  # a transposed view of a read-only stack: copied, contiguous
    assert dual.stack.flags.c_contiguous and not np.shares_memory(dual.stack, stack)
    real = np.ones((10, 4, 2))
    assert SubproductSystem(5, real).stack.dtype == complex and real.flags.writeable


def _pair_max_inputs():
    rng = np.random.default_rng(3)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 5e-324])
    for shape in ((1, 4, 2), (15, 4, 2), (66, 4, 2), (300, 8, 2), (7, 2, 4)):
        a = rng.standard_normal(shape)
        yield a
        yield np.abs(a)
        yield rng.choice(special, size=shape)
        b = a.copy()
        b.reshape(-1)[rng.choice(b.size, size=b.size // 3, replace=False)] = -0.0
        yield b
    yield np.full((5, 4, 2), -0.0)
    yield np.full((5, 4, 2), np.nan)
    yield np.abs(rng.standard_normal((66, 4, 2)))[:, ::2]  # not contiguous


@pytest.mark.parametrize("i, a", list(enumerate(_pair_max_inputs())), ids=lambda x: "")
def test_pair_max_is_the_per_pair_max(i, a):
    got, want = pair_max(a), a.max(axis=(1, 2))
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want, equal_nan=True)
    nan = np.isnan(want)
    # the sign of a zero too, wherever no NaN is involved
    assert got[~nan].tobytes() == want[~nan].tobytes()


# --- the graded side ------------------------------------------------------------

ETAS = [I2, np.array([[0, 1], [1, 0]], dtype=complex)] + [
    np.diag([1, lam]).astype(complex) for lam in (2.0, -0.5, 1j, 1 + 1j)]
GRADED_HORIZONS = (3, 6, 12, 20)


def graded_grid():
    """Each catalog algebra D with each eta of ETAS that is an automorphism of
    D, at each horizon of GRADED_HORIZONS."""
    for name in CATALOG_NAMES:
        d = catalog(name)
        for eta in ETAS:
            if is_automorphism(d, eta):
                for h in GRADED_HORIZONS:
                    yield d, eta, h


def ref_build_graded(d, eta, horizon):
    """build_graded as it was, less its checks: eta^s by repeated products,
    and a dict with one map per pair."""
    maps = {}
    powers = {0: I2}
    for s in range(1, horizon):
        powers[s] = powers[s - 1] @ as_cmat(eta)
    for s in range(1, horizon):
        for t in range(1, horizon - s + 1):
            maps[(s, t)] = d.mult @ kron(I2, powers[s])
    return GradedAlgebra(horizon=horizon, M=maps)


def ref_twist(g, f):
    """twist as it was, less its checks: a dict of levels, and one matrix
    power per pair."""
    levels = {t: as_cmat(f(t) if callable(f) else f[t]) for t in range(1, g.horizon + 1)}
    return GradedAlgebra(horizon=g.horizon, M={
        (s, t): m @ kron(I2, np.linalg.matrix_power(levels[t], s)) for (s, t), m in g.M.items()})


def ref_level_residuals(m):
    """GradedMorphism.level_residuals as it was: theta restacked from the
    dict, and the per-pair maximum of |lhs - rhs|."""
    h = m.source.horizon
    theta = np.stack([m.theta[t] for t in range(1, h + 1)]).transpose(0, 2, 1)
    lhs, rhs = intertwining(theta, m.target.stack.transpose(0, 2, 1),
                            m.source.stack.transpose(0, 2, 1))
    return dict(zip(degree_index(h).pairs, np.abs(lhs - rhs).max(axis=(1, 2)).tolist()))


def test_the_graded_side_matches_the_dict_loops_byte_for_byte():
    rng = np.random.default_rng(29)
    twisted = 0
    for d, eta, h in graded_grid():
        g = build_graded(d, eta, h)
        assert_same_build(g, ref_build_graded(d, eta, h), "M")
        for i, a in enumerate(ETAS):
            # a mapping with a level past the horizon, or a callable
            f = {t: a for t in range(1, h + 2)} if i % 2 else (lambda t, a=a: a)
            try:
                got = twist(g, f)
            except NotAutomorphismError:
                continue
            twisted += 1
            assert_same_build(got, ref_twist(g, f), "M")
        for m in graded_morphisms(g, eta, rng):
            got, want = m.level_residuals(), ref_level_residuals(m)
            assert list(got) == list(want)
            assert (np.array(list(got.values())).tobytes()
                    == np.array(list(want.values())).tobytes())
    assert twisted == 564  # of 116 algebras x 6 candidate maps


def graded_morphisms(g, eta, rng):
    """Morphisms g -> g: random theta with one singular level, with and
    without a level past the horizon, and eta at every level; each from a
    stack and from a dict."""
    h = g.horizon
    theta = rng.standard_normal((h + 1, 2, 2)) + 1j * rng.standard_normal((h + 1, 2, 2))
    theta[h // 2] = np.outer(theta[h // 2][:, 0], [1.0, 2.0])  # one singular level
    for levels in (theta, theta[:h], np.stack([eta] * h)):
        for theta_in in (levels, dict(enumerate(levels, 1))):
            yield GradedMorphism(g, g, theta_in)


def test_is_isomorphism_gives_the_verdict_of_lapacks_singular_values():
    # the extension of each grid cell's certified theta at h = 6, an
    # isomorphism, and the same with a rank-one theta_5, which is not one
    for i, label in enumerate(GRID):
        sys = random_system(label, 70 + i, 6)
        found, iso = classify_system(sys)
        theta = iso.stack.transpose(0, 2, 1)
        m = extend_morphism(dualize(canonical_system(found, 6)), dualize(sys), theta[0], theta[1])
        assert is_isomorphism(m) is ref_is_isomorphism(m) is True
        singular = dict(m.theta)
        singular[5] = np.outer(singular[5][:, 0], [1.0, 1.0])
        bad = GradedMorphism(m.source, m.target, singular)
        assert is_isomorphism(bad) is ref_is_isomorphism(bad) is False
    # the morphisms of the graded grid, as `level_residuals` is pinned on them
    rng = np.random.default_rng(29)
    for d, eta, h in graded_grid():
        for m in graded_morphisms(build_graded(d, eta, h), eta, rng):
            assert is_isomorphism(m) is ref_is_isomorphism(m)
