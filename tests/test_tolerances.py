"""The threshold policy: every tolerance is named once in `tensorlinalg`.

The pins below restate the threshold formula and the fixed guards literally,
so a change of value shows up here as a test edit.  The AST scan keeps
tolerance literals out of the modules that make the decisions, and the
floor tests show that a small eps tightens the tests it names.
"""

import ast
import pathlib
import re
import warnings

import numpy as np
import pytest

import spsys2d
from refs import U
from spsys2d import serialize, tensorlinalg as tl
from spsys2d.graded import (NotAutomorphismError, build_graded, catalog, is_automorphism,
                            kernel_subspace, singular_levels, twist)
from spsys2d.stacks import GradedAlgebra
from spsys2d.systems import SubproductSystem, SystemLabel, canonical_system, check_axioms

EPSES = (1e-18, 1e-15, 1e-12, 1e-9, 1e-6, 1e-2)


GUARDS = {
    "GRAM_TOL": 1e-7,
    "FRAME_TOL": 1e-12,
    "PIVOT_TOL": 1e-9,
    "ZERO_SCALE": 1e-300,
}


@pytest.mark.parametrize("eps", EPSES)
def test_residual_tol_is_the_square_root_of_eps(eps):
    assert tl.residual_tol(eps) == np.sqrt(eps)
    assert type(tl.residual_tol(eps)) is float  # no numpy scalar in the plane read


def test_coassociativity_is_tested_at_eps_with_no_floor():
    beta = {k: m.copy() for k, m in canonical_system(SystemLabel("E2"), 6).beta.items()}
    beta[(2, 1)][0, 0] += 5e-13
    sys_ = SubproductSystem(6, beta)
    assert check_axioms(sys_, 1e-12).passed
    rep = check_axioms(sys_, 1e-13)
    assert not rep.passed and rep.worst_associativity_residual > 1e-13


def test_automorphism_is_tested_at_eps_with_no_floor():
    m = [[1, 1e-10], [0, 2]]
    assert is_automorphism(catalog("D2"), m, 1e-9)
    assert not is_automorphism(catalog("D2"), m, 1e-11)


def test_twist_is_tested_at_sqrt_eps_with_no_floor():
    g = build_graded(catalog("D2"), np.diag([1, 2.0]), 5)
    f = np.array([[1, 1e-9], [0, 1.5]])  # level residual 2.55e-8
    assert twist(g, lambda t: f, 1e-12).horizon == 5
    with pytest.raises(NotAutomorphismError, match="not multiplicative"):
        twist(g, lambda t: f, 1e-16)


@pytest.mark.parametrize("eps", EPSES)
@pytest.mark.parametrize("scale", [1e-20, 1e-12, 1e-3, 1.0, 1e6])
def test_spans_and_kernels_keep_rank_nullity(scale, eps):
    # one rank rule truncates both, also for a nonzero map below eps
    rng = np.random.default_rng(0)
    for rows in (1, 2, 3):
        m = scale * (rng.standard_normal((rows, 4)) + 1j * rng.standard_normal((rows, 4)))
        assert tl.Subspace.from_spanning(m, eps=eps).dim + kernel_subspace(m, eps).dim == 4


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_fixed_guard_pins_its_value(name):
    assert getattr(tl, name) == GUARDS[name]


@pytest.mark.parametrize("module", ["classify.py", "graded.py", "plane.py", "stacks.py",
                                    "systems.py"])
def test_decision_modules_hold_no_tolerance_literal(module):
    path = pathlib.Path(spsys2d.__file__).parent / module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    small = [
        (node.lineno, node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-5
    ]
    assert small == []


@pytest.mark.parametrize("eps", EPSES)
def test_rank_deficient_is_the_inline_rule(eps):
    rng = np.random.default_rng(3)
    sv = np.sort(np.abs(rng.standard_normal((200, 2))) * 10.0 ** rng.integers(-20, 3, (200, 1)),
                 axis=1)[:, ::-1]
    want = [s[1] <= eps * max(s[0], 1.0) for s in sv]
    assert tl.rank_deficient(sv, eps).tolist() == want


def test_singular_levels_flags_one_singular_map():
    def singular(theta, horizon):
        return singular_levels(np.stack([theta[t] for t in range(1, horizon + 1)])).any()

    theta = {t: np.eye(2, dtype=complex) * t for t in range(1, 6)}
    assert not singular(theta, 5)
    theta[4] = np.array([[1, 2], [2, 4]], dtype=complex)
    assert singular(theta, 5)
    assert not singular(theta, 3)


def _levels_with_ratios(ratio, rng):
    """Complex 2x2 maps with unit rows whose s1 / s0 is `ratio`: the second
    row leans on the first by the sine that gives that ratio."""
    sine = 2 * ratio / (1 + ratio * ratio)  # |det| of unit rows with that s1 / s0
    z = rng.standard_normal((len(ratio), 2)) + 1j * rng.standard_normal((len(ratio), 2))
    first = z / np.linalg.norm(z, axis=1, keepdims=True)
    normal = np.stack([-first[:, 1].conj(), first[:, 0].conj()], axis=1)
    second = np.sqrt(1 - sine * sine)[:, None] * first + sine[:, None] * normal
    phase = np.exp(2j * np.pi * rng.random((len(ratio), 2, 1)))
    return np.stack([first, second], axis=1) * phase


def _levels_around(eps, rng, n=400):
    """n maps with s1 / s0 spread around eps, a quarter of them within a
    relative 1e-15 to 1e-1 of it, and n more spread over [1e-17, 1]."""
    near = eps * np.concatenate([
        10.0 ** rng.uniform(-2, 2, n - n // 4),
        1 + rng.choice([-1, 1], n // 4) * 10.0 ** rng.uniform(-15, -1, n // 4)])
    spread = 10.0 ** rng.uniform(-17, 0, n)
    return _levels_with_ratios(np.minimum(np.concatenate([near, spread]), 1.0), rng)


def _lapack_ratio(levels):
    """s1 / s0 of each level with its rows scaled to unit norm, by LAPACK."""
    sv = np.linalg.svd(levels / np.linalg.norm(levels, axis=2, keepdims=True),
                       compute_uv=False)
    return sv[:, 1] / sv[:, 0]


@pytest.mark.parametrize("eps", EPSES)
def test_singular_levels_is_the_row_equilibrated_svd_rule(eps):
    rng = np.random.default_rng(21)
    levels = _levels_around(eps, rng)
    levels *= 10.0 ** rng.uniform(-30, 30, (len(levels), 2, 1))  # rows of any size
    ratio = _lapack_ratio(levels)
    far = np.abs(ratio - eps) > 8 * U
    want = ratio <= eps
    # both decisions are met away from the threshold, where eps leaves room
    assert not want[far].all() and (want[far].any() or eps <= 8 * U)
    assert (singular_levels(levels, eps)[far] == want[far]).all()


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
def test_singular_levels_ignore_the_scale_of_each_row(eps):
    rng = np.random.default_rng(5)
    levels = _levels_around(eps, rng)
    want = singular_levels(levels, eps)
    assert want.any() and not want.all()
    for k in range(-150, 151):
        for row in (0, 1):
            scaled = levels.copy()
            scaled[:, row] *= 2.0 ** k
            assert (singular_levels(scaled, eps) == want).all(), (k, row)


def test_zero_and_non_finite_rows_are_singular_without_a_warning():
    levels = np.ones((6, 2, 2), dtype=complex) + np.eye(2)
    levels[1] = 0
    levels[2, 0] = 0
    levels[3, 1] = 1e-320  # subnormal, still a rank-2 map after scaling
    levels[4, 1, 0] = np.inf
    levels[5, 0, 1] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = singular_levels(levels)
    assert got.tolist() == [False, True, True, False, True, True]


def test_twist_refuses_a_zero_level_map():
    g = build_graded(catalog("D2"), np.eye(2), 5)
    with pytest.raises(NotAutomorphismError, match="^level-1 map is not invertible$"):
        twist(g, lambda t: np.zeros((2, 2)))


# one defect per input, and the constructor's message for it
DEFECT_TEXTS = {
    "wrong shape": "{name}[1,1] must be {rows}x{cols}",
    "missing map": "missing {noun} {name}[1,2]",
    "stray key": "{name}[9,9] lies outside horizon 3",
    "not 2-d": "expected a 2-d array",
    "nan": "non-finite entries are not admitted",
    "inf": "non-finite entries are not admitted",
    "horizon 2": "horizon must be at least 3",
}


@pytest.mark.parametrize("cls", [SubproductSystem, GradedAlgebra])
@pytest.mark.parametrize("defect", list(DEFECT_TEXTS))
def test_both_dual_kinds_keep_their_error_texts(cls, defect):
    if cls is SubproductSystem:
        name, noun, good = "beta", "map", (4, 2)
    else:
        name, noun, good = "M", "multiplication map", (2, 4)
    horizon = 3
    maps = {(s, t): np.ones(good) for s in (1, 2) for t in range(1, 4 - s)}
    if defect == "wrong shape":
        maps[(1, 1)] = np.ones(good[::-1])
    elif defect == "missing map":
        del maps[(1, 2)]
    elif defect == "stray key":
        maps[(9, 9)] = np.ones(good)
    elif defect == "not 2-d":
        maps[(1, 1)] = np.ones(8)
    elif defect in ("nan", "inf"):
        maps[(2, 1)][0, 0] = float(defect)
    else:
        horizon = 2
    message = DEFECT_TEXTS[defect].format(name=name, noun=noun, rows=good[0], cols=good[1])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(horizon, maps)
    kind = "subproduct_system" if cls is SubproductSystem else "graded_algebra"
    payload = {"kind": kind, "horizon": horizon,
               name: {f"{s},{t}": m.tolist() for (s, t), m in maps.items()}}
    what = kind.replace("_", " ")
    # the payload parser checks each map's shape itself, before the constructor
    parsed = (f"expected shape {good}, got {good[::-1]}" if defect == "wrong shape"
              else "malformed matrix" if defect == "not 2-d" else message)
    with pytest.raises(serialize.SerializationError,
                       match=f"^malformed {what}: {re.escape(parsed)}"):
        serialize.from_json(payload)


# two defects per input: the constructor reports the one it checks first
PRECEDENCE = {
    ("horizon 2", "stray key"): "horizon 2",
    ("stray key", "missing map"): "stray key",
    ("not 2-d", "missing map"): "not 2-d",
    ("wrong shape", "nan"): "wrong shape",
    ("missing map", "inf"): "missing map",
    ("stray wrong shape", ""): "stray key",  # one map: its key is checked first
}


@pytest.mark.parametrize("cls", [SubproductSystem, GradedAlgebra])
@pytest.mark.parametrize("defects", list(PRECEDENCE))
def test_the_first_checked_defect_names_the_error(cls, defects):
    if cls is SubproductSystem:
        name, noun, good = "beta", "map", (4, 2)
    else:
        name, noun, good = "M", "multiplication map", (2, 4)
    horizon = 3
    maps = {(s, t): np.ones(good) for s in (1, 2) for t in range(1, 4 - s)}
    for defect in defects:
        if defect == "wrong shape":
            maps[(1, 1)] = np.ones(good[::-1])
        elif defect == "missing map":
            del maps[(1, 2)]
        elif defect == "stray key":
            maps[(9, 9)] = np.ones(good)
        elif defect == "stray wrong shape":
            maps[(9, 9)] = np.ones(good[::-1])
        elif defect == "not 2-d":
            maps[(1, 1)] = np.ones(8)
        elif defect in ("nan", "inf"):
            maps[(2, 1)][0, 0] = float(defect)
        elif defect == "horizon 2":
            horizon = 2
    message = DEFECT_TEXTS[PRECEDENCE[defects]].format(
        name=name, noun=noun, rows=good[0], cols=good[1])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(horizon, maps)


@pytest.mark.parametrize("cls, good", [(SubproductSystem, (4, 2)), (GradedAlgebra, (2, 4))])
@pytest.mark.parametrize("key", [(9, 9), (0, 1), (1, 0), (2, 2), (-1, 3)])
def test_a_map_outside_the_horizon_is_refused(cls, good, key):
    # a stray map would otherwise enter the coassociativity scale of check_axioms
    name = "beta" if cls is SubproductSystem else "M"
    maps = {(s, t): np.ones(good) for s in (1, 2) for t in range(1, 4 - s)}
    maps[key] = np.full(good, 1e6)
    message = f"{name}[{key[0]},{key[1]}] lies outside horizon 3"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cls(3, maps)
