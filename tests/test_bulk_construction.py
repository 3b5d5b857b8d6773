"""The constructor of both dual kinds copies a dict of maps into one stack in
bulk and, on any fault, names the fault the per-key walk named.  A bool in a
key is such a fault: a dict lookup takes (True, 1) for (1, 1).

`ref_checked_maps` is that walk, kept as the reference: for every input the
two must raise the same exception type with the same message, or build
bit-identical stacks.
"""

import numbers
import re

import numpy as np
import pytest

from spsys2d.stacks import GradedAlgebra, _pairs, checked_maps, degree_index
from spsys2d.systems import SubproductSystem
from spsys2d.tensorlinalg import require_finite

KINDS = {"system": ("beta", (4, 2), "map"), "algebra": ("M", (2, 4), "multiplication map")}
H = 4


def ref_checked_maps(horizon, maps, name, shape, noun):
    """checked_maps as a walk over the keys, then over the pairs."""
    if horizon < 3:
        raise ValueError("horizon must be at least 3")
    arrays = {}
    for key, m in maps.items():
        if not (isinstance(key, tuple) and len(key) == 2
                and all(isinstance(x, numbers.Real) and not isinstance(x, bool)
                        for x in key)):
            raise ValueError(f"{name} key {key!r} is not a pair (s, t) of degrees")
        s, t = key
        if s < 1 or t < 1 or s + t > horizon:
            raise ValueError(f"{name}[{s},{t}] lies outside horizon {horizon}")
        if s != int(s) or t != int(t):
            raise ValueError(f"{name}[{s},{t}] names no degree pair")
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2:
            raise ValueError("expected a 2-d array")
        if m.shape != shape:
            raise ValueError(f"{name}[{s},{t}] must be {shape[0]}x{shape[1]}")
        arrays[key] = m
    try:
        ordered = [arrays[p] for p in _pairs(horizon)]
    except KeyError as exc:
        s, t = exc.args[0]
        raise ValueError(f"missing {noun} {name}[{s},{t}]") from None
    stack = np.array(ordered)
    require_finite(stack)
    return stack


def good_maps(shape, horizon=H, dtype=complex, seed=0):
    rng = np.random.default_rng(seed)
    return {p: (10 * rng.standard_normal(shape)).astype(dtype)
            for p in _pairs(horizon)}


def _set(maps, key, value):
    maps[key] = value
    return maps


def _drop(maps, key):
    del maps[key]
    return maps


def _stray_first(maps, key, value):
    return {key: value, **maps}


def _rekey(maps, old, new):
    """`maps` with the key `old` replaced by `new`, in place in the order."""
    return {new if k == old else k: x for k, x in maps.items()}


# each entry: the good maps of a kind -> the input, as a dict in insertion order
FAULTS = {
    "wrong shape and a missing pair": lambda m, g: _drop(_set(m, (2, 1), np.ones(g[::-1])),
                                                         (1, 3)),
    "missing pair and then a wrong shape": lambda m, g: _set(_drop(m, (1, 1)), (2, 2),
                                                             np.ones(g[::-1])),
    "stray before a wrong shape": lambda m, g: _set(_stray_first(m, (9, 9), np.ones(g)),
                                                    (1, 2), np.ones(g[::-1])),
    "stray after a wrong shape": lambda m, g: _set(_set(m, (1, 2), np.ones(g[::-1])),
                                                   (9, 9), np.ones(g)),
    "stray with a wrong shape": lambda m, g: _set(m, (0, 1), np.ones(g[::-1])),
    "a 1-d map": lambda m, g: _set(m, (2, 2), np.ones(8)),
    "a 3-d map": lambda m, g: _set(m, (1, 1), np.ones((1, *g))),
    "a scalar map": lambda m, g: _set(m, (1, 1), 1.0),
    "a ragged nested list": lambda m, g: _set(m, (1, 2), [[1, 2], [3]]),
    "a string entry": lambda m, g: _set(m, (1, 1), "abc"),
    "a string cell": lambda m, g: _set(m, (3, 1), np.array(m[(3, 1)], dtype=object)
                                       .tolist()[:-1] + [["x"] * g[1]]),
    "a None entry": lambda m, g: _set(m, (2, 1), np.full(g, None)),
    "non-finite and a missing pair": lambda m, g: _drop(_set(m, (1, 1), np.full(g, np.nan)),
                                                        (2, 2)),
    "non-finite only": lambda m, g: _set(m, (3, 1), np.full(g, np.inf)),
    "missing pair only": lambda m, g: _drop(m, (1, 3)),
    "every pair missing": lambda m, g: {},
    "a non-integral key": lambda m, g: _set(m, (1.5, 1.5), np.ones(g)),
    "a non-integral key of the wrong shape": lambda m, g: _set(m, (1.5, 1.5), np.ones(g[::-1])),
    "a non-integral key outside the horizon": lambda m, g: _set(m, (2.5, 2.5), np.ones(g)),
    "a non-integral key and a non-finite map": lambda m, g: _set(
        _set(m, (1.5, 1.5), np.ones(g)), (1, 1), np.full(g, np.nan)),
    "a non-integral key instead of a pair": lambda m, g: _set(_drop(m, (1, 1)), (1.5, 1.5),
                                                              np.ones(g)),
    "numpy-integer keys": lambda m, g: {(np.int64(s), np.int32(t)): x
                                        for (s, t), x in m.items()},
    "float keys": lambda m, g: {(float(s), float(t)): x for (s, t), x in m.items()},
    "a key of three": lambda m, g: _set(m, (1, 1, 1), np.ones(g)),
    "a string key": lambda m, g: _set(m, "ab", np.ones(g)),
    "a key that is no pair": lambda m, g: _set(m, 7, np.ones(g)),
    "nested lists": lambda m, g: {k: x.tolist() for k, x in m.items()},
    "a bool key": lambda m, g: _rekey(m, (1, 1), (True, 1)),
    "a numpy bool key": lambda m, g: _rekey(m, (2, 1), (2, np.True_)),
    "bool keys everywhere": lambda m, g: _rekey(_rekey(m, (1, 1), (True, True)),
                                                (1, 2), (True, 2)),
    "a bool key after a wrong shape": lambda m, g: _rekey(_set(m, (1, 1), np.ones(g[::-1])),
                                                          (2, 1), (2, True)),
    "a bool key and a missing pair": lambda m, g: _drop(_rekey(m, (1, 1), (1, True)), (1, 3)),
}


def outcome(fn, horizon, maps, kind):
    name, shape, noun = KINDS[kind]
    try:
        got = fn(horizon, maps, name, shape, noun)
    except Exception as exc:  # the type and text are what is compared
        return type(exc), str(exc)
    stack = got[0] if isinstance(got, tuple) else got
    return "ok", stack.dtype, stack.shape, stack.tobytes()


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("fault", list(FAULTS))
def test_the_bulk_constructor_names_the_fault_of_the_walk(kind, fault):
    shape = KINDS[kind][1]
    maps = FAULTS[fault](good_maps(shape), shape)
    want = outcome(ref_checked_maps, H, dict(maps), kind)
    assert outcome(checked_maps, H, dict(maps), kind) == want
    if want[0] != "ok":  # the constructors raise it as it is
        cls = SubproductSystem if kind == "system" else GradedAlgebra
        with pytest.raises(want[0], match=f"^{re.escape(want[1])}$"):
            cls(H, maps)


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("fault", [f for f in FAULTS if "non-integral key" in f])
def test_a_non_integral_key_is_refused(kind, fault):
    name, shape, _ = KINDS[kind]
    maps = FAULTS[fault](good_maps(shape), shape)
    key = next(k for k in maps if k[0] % 1)
    kind_of = "lies outside horizon" if sum(key) > H else "names no degree pair"
    cls = SubproductSystem if kind == "system" else GradedAlgebra
    with pytest.raises(ValueError, match=re.escape(f"{name}[{key[0]},{key[1]}] {kind_of}")):
        cls(H, maps)


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("fault, key", [("a key of three", "(1, 1, 1)"),
                                        ("a string key", "'ab'"),
                                        ("a key that is no pair", "7"),
                                        ("a bool key", "(True, 1)"),
                                        ("a numpy bool key", repr((2, np.True_))),
                                        ("bool keys everywhere", "(True, True)")])
def test_a_key_that_is_not_a_pair_is_named(kind, fault, key):
    name, shape, _ = KINDS[kind]
    maps = FAULTS[fault](good_maps(shape), shape)
    cls = SubproductSystem if kind == "system" else GradedAlgebra
    with pytest.raises(ValueError, match=f"^{re.escape(name)} key {re.escape(key)} is not a "
                                         r"pair \(s, t\) of degrees$"):
        cls(H, maps)


@pytest.mark.parametrize("kind", list(KINDS))
@pytest.mark.parametrize("dtype", [np.int64, float, np.float32, np.complex64, complex])
def test_every_dtype_gives_the_walks_stack(kind, dtype):
    name, shape, _ = KINDS[kind]
    for horizon in (3, 5, 9):
        maps = good_maps(shape, horizon, dtype, seed=horizon)
        want = outcome(ref_checked_maps, horizon, maps, kind)
        assert want[0] == "ok" and want[1] == complex
        assert outcome(checked_maps, horizon, maps, kind) == want
        stack, view = checked_maps(horizon, maps, name, shape, "")
        assert not stack.flags.writeable
        assert list(view) == list(degree_index(horizon).pairs)


@pytest.mark.parametrize("kind", list(KINDS))
def test_a_horizon_below_3_is_named_first(kind):
    shape = KINDS[kind][1]
    maps = _set(good_maps(shape), (9, 9), np.ones(2))
    assert outcome(checked_maps, 2, maps, kind) == outcome(ref_checked_maps, 2, maps, kind)
