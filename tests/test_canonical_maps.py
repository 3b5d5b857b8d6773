"""The certificate against the canonical maps, and the read-only maps of a
system or algebra.

`classify_system` reads the h - 1 distinct canonical maps beta_can[s, .]
from `canonical_maps` by degree and keeps theta as one stack; it builds no
canonical `SubproductSystem`.  The path it replaced (`canonical_system`,
the left inverse of its beta[1, 1], the singular-level test on the stacked
dict and `iso_residuals`) is `refs.ref_classify_system`, which
`test_certified_axioms.py` pins bit for bit on the grid; its refusals are
pinned here.  The reference solves theta with `extend_levels`, the recursion
`classify_system` runs, which is pinned on its own against a scalar loop
written out here, against the `kron` loop it replaced within a stated
rounding bound, and, with the E3 gauge, against that loop's theta carried by
a unipotent automorphism of the canonical E3.  The left inverse is the
Moore-Penrose inverse of a map with orthogonal columns, written out row by
row in `refs.ref_left_inverse`.
"""

import copy
import pickle
import re
from fractions import Fraction
from sys import getrefcount
from types import MappingProxyType

import numpy as np
import pytest

from refs import (GRID, STRESS_GRID, STRESS_LAMBDAS, U, assert_same_build, bitwise_outcome,
                  moved, ref_classify_system, ref_left_inverse, ref_random_system,
                  top_heavy_unfit)
from spsys2d import stacks, systems
from spsys2d.cli import main as cli_main
from spsys2d.graded import GradedMorphism, extend_morphism, is_isomorphism, singular_levels
from spsys2d.plane import TripleClass, canonical_beta, canonical_maps, classify_plane
from spsys2d.stacks import (GradedAlgebra, degree_index, equilibrated_levels, extend_levels,
                            intertwining_defects)
from spsys2d.systems import (SubproductSystem, SystemIso, SystemLabel, canonical_system,
                             check_axioms, classify_system, dualize, random_system)
from spsys2d.tensorlinalg import I2, Subspace, kron


def drawn(seed, horizon, max_cond):
    """How many candidates the one-per-draw loop takes to accept `horizon`."""
    rng = np.random.default_rng(seed)
    count = passed = 0
    while passed < horizon:
        cand = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        count += 1
        passed += bool(np.linalg.cond(cand) <= max_cond)
    return count


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --- the certificate ---------------------------------------------------------

def test_classify_system_builds_no_subproduct_system(monkeypatch):
    sys = random_system(SystemLabel("E3", 2.0), 5, 8)
    calls = []
    checked = stacks.checked_stack

    def counting(*args):  # the one validation of every built system or algebra
        calls.append(args[0])
        return checked(*args)

    monkeypatch.setattr(stacks, "checked_stack", counting)
    label, _ = classify_system(sys)
    assert label.label == "E3" and calls == []
    canonical_system(label, 8)  # the counter sees a build
    assert calls == [8]


def test_classify_system_refusals_match_the_canonical_system_path():
    def both(sys, eps):
        got = bitwise_outcome(classify_system, sys, eps)
        assert got == bitwise_outcome(ref_classify_system, sys, eps)
        return got

    # theta grows with the level here, which a rank test that is not
    # scale-free calls singular: it certifies, with the label and lambda drawn
    got = both(random_system(SystemLabel("E3", 3.0), 7, 12), 1e-9)
    assert got[:2] == ("ok", "E3") and abs(got[2] - 3.0) <= 1e-12
    got = both(top_heavy_singular(random_system(SystemLabel("E2"), 3, 12)), 1e-9)
    assert got == ("extend-morphism", "[extend-morphism] extended morphism is singular")
    # a break of 1e-3 in beta[1, 2] of E3(4), whose certificate depends on the
    # gauge: 1.07e-3 ungauged, 1.9e-4 gauged, against residual_tol(1e-6) = 1e-3
    got = both(moved(random_system(SystemLabel("E3", 4.0), 0, 6), (1, 2), (3, 1), 1e-3), 1e-6)
    assert got[:2] == ("ok", "E3") and abs(got[2] - 4) <= 1e-12 * 4
    got = both(top_heavy_unfit(random_system(SystemLabel("E3", 4.0), 0, 6)), 1e-6)
    assert got[1].startswith("[extend-morphism] level maps fail to intertwine (residual")


def top_heavy_singular(sys):
    """A broken copy of `sys` that passes `check_axioms`.  The maps into the
    top level h are first scaled by 1e14, an isomorphic system; coassociativity
    is tested against eps * max|beta|^2, which then cannot see a break of the
    size of the other maps.  The second column of beta[1, h-1] is moved into
    the kernel of L (theta_1 (x) theta_{h-1}), so theta_h has rank one."""
    h = sys.horizon
    beta = {k: b * 1e14 if sum(k) == h else b.copy() for k, b in sys.beta.items()}
    label, iso = classify_system(sys)
    b11 = canonical_system(label, 3).beta[(1, 1)]
    solve = ref_left_inverse(b11) @ kron(iso.theta[1], iso.theta[h - 1])
    kernel = np.linalg.svd(solve)[2][-1].conj()
    b = beta[(1, h - 1)]
    beta[(1, h - 1)] = np.column_stack([b[:, 0], kernel * np.abs(b).max()])
    return SubproductSystem(h, beta)


# --- the canonical maps ------------------------------------------------------

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


def test_generate_keeps_the_overflow_exit(capsys):
    argv = ["generate", "--class", "E3", "--lambda", "4", "--horizon", "600"]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --lambda overflows: complex exponentiation\n"


# --- the batched draw of the level maps --------------------------------------

# (horizon, MAX_COND, seeds) of the one-per-draw loop
DRAWS = [(3, 50.0, range(8)), (6, 50.0, range(8)), (12, 50.0, range(20)), (32, 50.0, (0, 7))] + [
    (h, max_cond, range(3)) for max_cond in (2.0, 5.0) for h in (3, 6, 12)]


@pytest.mark.parametrize("h, max_cond, seeds", DRAWS, ids=[f"{h}-{c}" for h, c, _ in DRAWS])
def test_random_system_is_the_one_per_draw_loop(monkeypatch, h, max_cond, seeds):
    """The batched draw and the stack built from it equal the loop that drew
    one candidate at a time and built the system from a dict of per-pair
    maps: bit for bit, and as a build, where candidates are refused too."""
    monkeypatch.setattr(systems, "MAX_COND", max_cond)
    if max_cond < 50:  # a second batch
        assert max(drawn(seed, h, max_cond) for seed in seeds) > h
    if (h, max_cond) == (12, 50.0):  # seed 12 refuses one candidate
        assert drawn(12, 12, max_cond) == 13
    for label in GRID:
        for seed in seeds:
            assert_same_build(random_system(label, seed, h),
                              ref_random_system(label, seed, h, max_cond), "beta")


@pytest.mark.parametrize("max_cond, seed, h", [(50.0, 0, 12), (50.0, 12, 12),
                                               (2.0, 1, 6), (5.0, 2, 12)])
def test_cond_is_called_once_per_batch(monkeypatch, max_cond, seed, h):
    batches = -(-drawn(seed, h, max_cond) // h)
    monkeypatch.setattr(systems, "MAX_COND", max_cond)
    shapes = []
    cond = np.linalg.cond

    def counting(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return cond(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting)
    random_system(SystemLabel("E2"), seed, h)
    assert shapes == [(h, 2, 2)] * batches


# --- the calls of a certified classification ---------------------------------

@pytest.mark.parametrize("h", [6, 12])
def test_a_certified_call_makes_one_svd_per_path_and_no_pinv(monkeypatch, h):
    """No np.linalg call where the bound of `_axioms_proved` decides, and
    only `check_axioms`'s SVD of the stack where it cannot: the span of
    beta[1, 1] (`span_basis2`), the left inverse of beta_can[1, 1], the theta
    rank test and the bound are closed forms.  The bound decides every input
    of the grid; it cannot decide the last input, scrambled E2 with beta[2, 1]
    moved by 1e-10 of its largest entry, which passes `check_axioms` and
    certifies."""
    inputs = [random_system(label, 40 + i, h) for i, label in enumerate(GRID)]
    e2 = random_system(SystemLabel("E2"), 40, h)
    inputs.append(moved(e2, (2, 1), (0, 0), 1e-10 * np.abs(e2.stack).max()))
    calls, checks = [], []
    for name in dir(np.linalg):
        real = getattr(np.linalg, name)
        if name.startswith("_") or isinstance(real, type) or not callable(real):
            continue

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    real_check = systems.check_axioms

    def counted_check(*args, **kwargs):
        checks.append(len(calls))
        return real_check(*args, **kwargs)

    monkeypatch.setattr(systems, "check_axioms", counted_check)
    paths = []
    for sys in inputs:
        calls.clear()
        checks.clear()
        assert max(classify_system(sys).residuals.values()) <= 1e-8
        if checks:  # the fallback: check_axioms after the certificate
            assert checks == [0] and calls == ["svd"]
        else:
            assert calls == []
        paths.append(bool(checks))
    assert paths == [False] * len(GRID) + [True]


# --- the left inverse of beta_can[1, 1] --------------------------------------

def test_the_left_inverse_equals_pinv_for_c1_c2_c4_c5():
    for label in ("C1", "C2", "C4", "C5"):
        for s in (1, 2):  # C2 alternates by the parity of the degree
            b = canonical_beta(TripleClass(label), s)
            left = np.array(systems._left_inverse(b.tolist()))
            assert np.array_equal(left, np.linalg.pinv(b))


def test_the_left_inverse_keeps_the_bits_of_numpys_division():
    """`_left_inverse` on Python complex, bit for bit the numpy form it
    replaced, whose complex / real multiplies by the reciprocal and leaves
    signed zeros (conj(1 + 0j) / 1 is 1 - 0j); over the canonical maps and
    random maps with zero, negative-zero and integral entries."""
    rng = np.random.default_rng(11)
    drawn = 10.0 ** rng.uniform(-3, 3, 50) * np.exp(2j * np.pi * rng.random(50))
    maps = [canonical_beta(TripleClass(label), s) for label in ("C1", "C2", "C4", "C5")
            for s in (1, 2)]
    maps += [canonical_beta(TripleClass("C3", lam), 1)
             for lam in [complex(x) for x in STRESS_LAMBDAS] + list(drawn)]
    for k in range(300):
        b = _complex(rng, (4, 2))
        b = np.round(b) if k % 3 == 0 else b
        pick = rng.integers(0, 5, (4, 2))
        b.real[pick == 0], b.imag[pick == 1] = 0.0, 0.0
        b.real[pick == 2], b.imag[pick == 3] = -0.0, -0.0
        maps.append(b)
    for b in maps:
        if (np.abs(b).sum(axis=0) > 0).all():
            want = b.conj().T / (b.real * b.real + b.imag * b.imag).sum(axis=0)[:, None]
            assert np.array(systems._left_inverse(b.tolist())).tobytes() == want.tobytes()


def test_the_c3_left_inverse_is_pinv_within_rounding():
    rng = np.random.default_rng(8)
    drawn = 10.0 ** rng.uniform(-3, 3, 200) * np.exp(2j * np.pi * rng.random(200))
    for lam in [complex(x) for x in STRESS_LAMBDAS] + list(drawn):
        b = canonical_beta(TripleClass("C3", lam), 1)
        left = np.array(systems._left_inverse(b.tolist()))
        assert np.linalg.norm(left - np.linalg.pinv(b)) <= 4 * U * np.linalg.norm(left), lam
        assert np.abs(left @ b - np.eye(2)).max() <= 4 * U, lam
        # the exact inverse, of norm 1: rows e1 and (0, conj(lam), 1, 0) / (1 + |lam|^2)
        re, im = Fraction(lam.real), Fraction(lam.imag)
        n = 1 + re * re + im * im
        got = (left[1, 1].real, left[1, 1].imag, left[1, 2].real)
        assert max(abs(Fraction(g) - e) for g, e in zip(got, (re / n, -im / n, 1 / n))) <= 2 * U
        assert left[1, 2].imag == 0 and left[0].tolist() == [1, 0, 0, 0]


# --- the level recursion and the rank test -----------------------------------

def ref_scalar_levels(theta1, left, maps):
    """theta_n = left[n-2] (theta_1 (x) theta_{n-1}) maps[n-2] written out on
    Python complex, in the order of `extend_levels`: z = (I2 (x) theta_{n-1})
    maps[n-2], row 2r + q = sum_s theta_{n-1}[q, s] maps[2r + s]; y = (theta_1
    (x) I2) z, row 2p + q = sum_r theta_1[p, r] z[2r + q]; then left y; each
    sum left to right."""
    t1 = np.asarray(theta1).tolist()
    levels = [t1]
    for m, b in zip(np.asarray(left).tolist(), np.asarray(maps).tolist()):
        t = levels[-1]
        z = [[t[q][0] * b[2 * r][j] + t[q][1] * b[2 * r + 1][j] for j in (0, 1)]
             for r in (0, 1) for q in (0, 1)]
        y = [[t1[p][0] * z[q][j] + t1[p][1] * z[2 + q][j] for j in (0, 1)]
             for p in (0, 1) for q in (0, 1)]
        levels.append([[m[i][0] * y[0][j] + m[i][1] * y[1][j] + m[i][2] * y[2][j]
                        + m[i][3] * y[3][j] for j in (0, 1)] for i in (0, 1)])
    return np.array(levels, dtype=complex)


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_extend_levels_equals_the_kron_loop_bitwise(n):
    """Bit for bit the kron loop written out on scalars in the recursion's
    order (`ref_scalar_levels`), and within 16 (n - 1) u A_n of the numpy
    kron loop at level n, where A_n = |left| (|theta_1| (x) A_{n-1}) |maps|,
    A_1 = |theta_1|, bounds the absolute values of the exact products: each
    of the two loops is within 8 (n - 1) u A_n of the exact level map."""
    rng = np.random.default_rng(n)
    theta1 = _complex(rng, (2, 2))
    left, maps = _complex(rng, (n, 2, 4)), _complex(rng, (n, 4, 2))
    # as classify_system passes them, and as extend_morphism does (transposed views)
    for args in ((theta1, left, maps),
                 (theta1.T, maps.transpose(0, 2, 1), left.transpose(0, 2, 1))):
        got = extend_levels(*args)
        assert got.tobytes() == ref_scalar_levels(*args).tobytes()
        want, bound = [args[0]], [np.abs(args[0])]
        for k in range(n):
            want.append(args[1][k] @ kron(args[0], want[-1]) @ args[2][k])
            bound.append(np.abs(args[1][k]) @ kron(np.abs(args[0]), bound[-1])
                         @ np.abs(args[2][k]))
        levels = np.arange(n + 1)[:, None, None]
        assert (np.abs(got - np.stack(want)) <= 16 * levels * U * np.stack(bound)).all()


def kron_loop_levels(sys):
    """theta as the numpy kron loop solved it, with no gauge: theta_1 from the
    plane read, then theta_n = L (theta_1 (x) theta_{n-1}) beta[1, n-1]."""
    plane = classify_plane(Subspace.from_spanning(sys.stack[0]))
    left = ref_left_inverse(canonical_beta(plane.label, 1))
    theta = [plane.iso.theta]
    for n in range(2, sys.horizon + 1):
        theta.append(left @ kron(theta[0], theta[-1]) @ sys.beta[(1, n - 1)])
    return np.stack(theta)


@pytest.mark.parametrize("h", [6, 12])
def test_the_gauge_is_an_automorphism_of_the_canonical_e3(h, e3_gauge):
    """Metamorphic: classify_system's theta for E3(lam) is the kron loop's
    theta carried by a_t(X) = [[1, X S_t], [0, 1]], S_t = 1 + ... + lam^(t-1),
    with X read from level 1, within 128 (h u + c) max|theta_t| of the kron
    loop's theta_t, c its certificate (the rounding of the ungauged loop,
    which reaches 1e-9 at E3(4), h = 12).  For E1, E2, E4, E5 the gauge is
    not applied, and theta is the kron loop's within 8 h u max|theta_t|."""
    idx = degree_index(h)
    for i, label in enumerate(STRESS_GRID):
        for seed in range(3):
            sys = random_system(label, 1000 * seed + 7 + i, h)
            r = classify_system(sys)
            got = np.stack([r.iso.theta[t] for t in range(1, h + 1)])
            old = kron_loop_levels(sys)
            scale = np.abs(old).max(axis=(1, 2))[:, None, None]
            if label.lam is None:
                assert (np.abs(got - old) <= 8 * h * U * scale).all(), label
                continue
            maps = canonical_maps(TripleClass("C3", r.label.lam), h)
            c = intertwining_defects(old, sys.stack, maps[idx.sides[:, 0]])[1].max()
            want = e3_gauge(old, got[0], r.label.lam)
            assert (np.abs(got - want) <= 128 * (h * U + c) * scale).all(), label


@pytest.mark.parametrize("lam", [3, 4, 2 + 1j, -4, 4j])
def test_the_gauge_keeps_e3_level_maps_well_conditioned(lam):
    """The kron loop's theta grows a first row of size |lam|^t for |lam| > 1,
    and its row-equilibrated |det| q_t falls to ~1e-5 at h = 12; gauged, the
    rows of every level stay as far from parallel as the scramble's (whose
    level maps have cond <= 50)."""
    sys = random_system(SystemLabel("E3", complex(lam)), 5, 12)
    theta = np.stack(list(classify_system(sys).iso.theta.values()))
    assert equilibrated_levels(theta)[1].min() >= 1e-2
    assert equilibrated_levels(kron_loop_levels(sys))[1].min() <= 1e-3


def test_is_isomorphism_is_the_stack_test():
    rng = np.random.default_rng(4)
    theta = _complex(rng, (6, 2, 2))
    theta[3] = np.outer(theta[3][:, 0], [1.0, 1e-12])
    mask = singular_levels(theta)
    assert mask.tolist() == [False, False, False, True, False, False]
    for h, iso in ((6, False), (3, True)):
        g = dualize(canonical_system(SystemLabel("E1"), h))
        assert is_isomorphism(GradedMorphism(g, g, dict(enumerate(theta, 1)))) is iso


def bounded_e3(lam, horizon):
    """E3(lam) with bounded maps: beta[s, t] sends e1 to e1 (x) e1 and e2 to
    lam^-t e2 (x) e1 + e1 (x) e2, isomorphic to the canonical E3(lam)
    through diag(1, lam^t)."""
    pairs = degree_index(horizon).pairs
    beta = np.zeros((len(pairs), 4, 2), dtype=complex)
    beta[:, 0, 0] = beta[:, 1, 1] = 1
    beta[:, 2, 1] = [lam ** -t for _, t in pairs]
    return SubproductSystem(horizon, dict(zip(pairs, beta)))


@pytest.mark.parametrize("h", [16, 32, 64])
@pytest.mark.parametrize("lam", [4, 3, 2 + 1j, 1.25])
def test_the_bounded_e3_presentation_classifies(lam, h):
    # a rank test that is not scale-free calls 7 of these 12 singular
    r = classify_system(bounded_e3(lam, h))
    assert r.label.label == "E3" and abs(r.label.lam - lam) <= 1e-12 * abs(lam)
    assert max(r.residuals.values()) <= 1e-12


# --- read-only maps, for both dual kinds and the iso ---------------------------

def _holders():
    """Each map holder, by kind and path, with the name of its mapping: built
    from a stack (`canonical_system`, `random_system`, `dualize`, the iso of
    `classify_system`, the morphism of `extend_morphism`) or from a dict."""
    s = canonical_system(SystemLabel("E2"), 5)
    r = random_system(SystemLabel("E3", 2.0), 4, 5)
    iso = classify_system(r).iso
    g = dualize(s)
    morphism = extend_morphism(g, g, I2, I2)
    return {
        "system": (s, "beta"),
        "algebra": (dualize(s), "M"),
        "random system": (r, "beta"),
        "dict-built system": (SubproductSystem(5, dict(r.beta)), "beta"),
        "dict-built algebra": (GradedAlgebra(5, dict(dualize(r).M)), "M"),
        "iso": (iso, "theta"),
        "dict-built iso": (SystemIso(dict(iso.theta)), "theta"),
        "morphism": (morphism, "theta"),
        "dict-built morphism": (GradedMorphism(g, g, dict(morphism.theta)), "theta"),
    }


HOLDERS = list(_holders())


@pytest.mark.parametrize("kind", HOLDERS)
def test_maps_cannot_drift_from_the_stack(kind):
    obj, name = _holders()[kind]
    maps = getattr(obj, name)
    key = next(iter(maps))
    assert isinstance(maps, MappingProxyType)
    assert not obj.stack.flags.writeable
    with pytest.raises(TypeError):
        maps[key] = np.zeros(maps[key].shape)
    with pytest.raises(TypeError):
        del maps[key]
    with pytest.raises(ValueError):
        maps[key][0, 0] = 5
    assert all(np.shares_memory(m, obj.stack) for m in maps.values())


@pytest.mark.parametrize("kind", HOLDERS)
@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy,
                                   copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_copies_are_rebuilt_read_only(kind, clone):
    obj, name = _holders()[kind]
    dup = clone(obj)
    maps = getattr(dup, name)
    assert type(dup) is type(obj)
    assert getattr(dup, "horizon", None) == getattr(obj, "horizon", None)
    assert dup.stack.tobytes() == obj.stack.tobytes()
    assert not dup.stack.flags.writeable
    assert isinstance(maps, MappingProxyType)
    assert list(maps) == list(getattr(obj, name))
    assert all(np.shares_memory(m, dup.stack) for m in maps.values())
    with pytest.raises(ValueError):
        dup.stack[0, 0, 0] = 5


def _lookups(obj, name):
    """(keys in order, keys that alias the first one, keys that name nothing)
    of a holder's mapping, and the dict-backed mapping it replaced."""
    if name == "theta":
        keys = list(range(1, len(obj.stack) + 1))
        aliases = (True, np.True_, 1.0, np.int64(1), np.float64(1.0))
        absent = (0, 1.5, len(keys) + 1, -1)
    else:
        keys = list(degree_index(obj.horizon).pairs)
        aliases = ((True, 1), (1.0, 1.0), (np.int64(1), np.int64(1)), (1, np.True_))
        absent = ((0, 1), (1.5, 1), (1, obj.horizon), (1, 1, 1), "ab", 7)
    return keys, aliases, absent, dict(zip(keys, obj.stack))


@pytest.mark.parametrize("kind", HOLDERS)
def test_the_lazy_mappings_look_up_as_the_dict_backed_ones(kind):
    """Each view is made on lookup; keys, order, `in`, `get`, `len` and the
    errors are those of the dict of views that the holders used to keep."""
    obj, name = _holders()[kind]
    maps = getattr(obj, name)
    keys, aliases, absent, ref = _lookups(obj, name)
    assert list(maps) == list(maps.keys()) == list(ref) == keys
    assert len(maps) == len(ref) and maps.keys() == ref.keys()
    for key in aliases:
        assert key in maps and key in ref
        assert maps[key].tobytes() == maps.get(key).tobytes() == ref[key].tobytes()
    for key in absent:
        assert key not in maps and key not in ref
        assert maps.get(key) is None and maps.get(key, 7) == 7
        with pytest.raises(KeyError):
            maps[key]
    for unhashable in ([1, 1], {}):
        for mapping in (maps, ref):
            with pytest.raises(TypeError):
                mapping[unhashable]
    for i, (key, view) in enumerate(maps.items()):
        assert view.tobytes() == ref[key].tobytes() == obj.stack[i].tobytes()
        assert not view.flags.owndata and not view.flags.writeable
        assert np.shares_memory(view, obj.stack[i])


def test_construction_makes_no_view():
    """A view holds a reference to the stack; none is made until a lookup, so
    the count of references does not grow with the P pairs or n levels."""
    def holders(h):
        s = canonical_system(SystemLabel("E2"), h)
        r = random_system(SystemLabel("E3", 0.5), 3, h)
        g = dualize(r)
        levels = np.tile(I2, (h, 1, 1))
        return [s, r, g, SubproductSystem(h, dict(s.beta)), GradedAlgebra(h, dict(g.M)),
                SystemIso(levels.copy()), SystemIso(dict(enumerate(levels, 1))),
                GradedMorphism(g, g, levels.copy())]

    counts = {h: [getrefcount(x.stack) for x in holders(h)] for h in (4, 64)}
    assert counts[4] == counts[64]
    # the measure sees a view: a lookup makes one
    obj = holders(64)[0]
    before = getrefcount(obj.stack)
    view = obj.beta[(3, 4)]
    after = getrefcount(obj.stack)
    assert after == before + 1 and view.base is obj.stack


def test_classify_system_reads_beta_1_1_from_the_stack():
    """Were the mapping swapped out behind the constructor's back, the
    axioms and the classification would both still read the stack."""
    s = canonical_system(SystemLabel("E2"), 5)
    drifted = dict(s.beta)
    drifted[(1, 1)] = np.zeros((4, 2), dtype=complex)
    object.__setattr__(s, "beta", MappingProxyType(drifted))
    assert check_axioms(s).passed
    assert classify_system(s).label == SystemLabel("E2")

