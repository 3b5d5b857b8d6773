"""Canonical JSON for systems, graded algebras, triples, and reports.

The writer is `json.dumps` with sorted keys, no spaces and NaN/Inf refused, over
plain JSON types: complex scalars as [re, im], arrays as nested (row-major)
lists, numpy scalars as Python numbers, keys as strings, -0.0 as 0.0.  Floats
print as `repr`, which reads back exactly; identical values give identical text.
The reader `loads` refuses an object that repeats a key.  `classify`, which
holds `Triple`, is imported only where a triple payload is written or read.
"""

from __future__ import annotations

import cmath
import json
import re
from types import MappingProxyType

import numpy as np

from .stacks import GradedAlgebra
from .systems import SubproductSystem
from .tensorlinalg import Subspace


class SerializationError(ValueError):
    pass


def _plain(obj):
    """`obj` in the types `json.dumps` writes, by the rules above."""
    if isinstance(obj, (dict, MappingProxyType)):  # the read-only maps of an iso
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return _plain([obj.real, obj.imag])
    if isinstance(obj, (float, np.floating)):
        return float(obj) + 0.0  # -0.0 + 0.0 is 0.0
    if isinstance(obj, np.integer):
        return int(obj)
    return obj  # a str, int, bool or None, or a type the dump refuses


def dumps_canonical(obj) -> str:
    """Canonical JSON text; SerializationError for NaN, Inf or a non-JSON type."""
    try:
        return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise SerializationError(str(exc)) from exc


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; ValueError for a repeated key, of which
    `json.loads` would silently keep the last."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def loads(text: str):
    """The object of a JSON payload (see `from_json`); SerializationError for
    text that is not JSON or repeats a key in one object."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # bad JSON, a repeated key, an int past the digit limit
        raise SerializationError(str(exc)) from exc
    return from_json(data)


def complex_to_json(z) -> list:
    z = complex(z)
    if not cmath.isfinite(z):
        raise SerializationError("NaN/Inf are not admitted")
    return [z.real, z.imag]


def matrix_to_json(m) -> list:
    return [[complex_to_json(z) for z in row] for row in np.asarray(m, dtype=complex).tolist()]


def complex_from_json(v) -> complex:
    """A number, or a pair [re, im] of numbers; strings and bools are refused."""
    re_im = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0)
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in re_im):
        raise SerializationError(f"not a complex scalar: {v!r}")
    return complex(float(re_im[0]), float(re_im[1]))


def matrix_from_json(rows, shape=None) -> np.ndarray:
    try:
        m = np.array([[complex_from_json(x) for x in row] for row in rows], dtype=complex)
    except (TypeError, OverflowError, SerializationError) as exc:  # an int past float
        raise SerializationError(f"malformed matrix: {exc}") from exc
    if shape is not None and m.shape != shape:
        raise SerializationError(f"expected shape {shape}, got {m.shape}")
    return m


# per dual kind: payload kind (its name in errors too), field of the maps, map shape
_MAP_KINDS = {
    SubproductSystem: ("subproduct_system", "beta", (4, 2)),
    GradedAlgebra: ("graded_algebra", "M", (2, 4)),
}


def _maps_to_json(obj) -> dict:
    kind, name, _ = _MAP_KINDS[type(obj)]
    maps = getattr(obj, name).items()
    return {"kind": kind, "horizon": obj.horizon,
            name: {f"{s},{t}": matrix_to_json(m) for (s, t), m in maps}}


def system_to_json(sys: SubproductSystem) -> dict:
    return _maps_to_json(sys)


def triple_to_json(t) -> dict:
    # E2 and E3 each as the list of their basis vectors
    return {"kind": "triple",
            **{name: matrix_to_json(getattr(t, name).basis.T) for name in ("E2", "E3")}}


_INDEX_KEY = re.compile("([0-9]+),([0-9]+)")


def _parse_index_key(key: str) -> tuple:
    """(s, t) of the key "s,t", each of ASCII digits only: no sign, space or
    other script's digits, which `int` would accept."""
    match = _INDEX_KEY.fullmatch(key)
    if match is None:
        raise SerializationError(f"bad index key {key!r}")
    return int(match[1]), int(match[2])


def _maps_from_json(cls, data: dict):
    kind, name, shape = _MAP_KINDS[cls]
    try:
        horizon = data["horizon"]
        if not isinstance(horizon, int) or isinstance(horizon, bool):
            raise SerializationError(f"horizon must be an integer, got {horizon!r}")
        fields = data[name]
        if not isinstance(fields, dict):
            raise SerializationError(f"{name} must be an object of maps, got {fields!r}")
        maps, texts = {}, {}
        for k, v in fields.items():
            key = _parse_index_key(k)
            if key in maps:
                raise SerializationError(
                    f"keys {texts[key]!r} and {k!r} both name {name}[{key[0]},{key[1]}]")
            maps[key], texts[key] = matrix_from_json(v, shape), k
        return cls(horizon, maps)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed {kind.replace('_', ' ')}: {exc}") from exc


def triple_from_json(data: dict):
    from .classify import Triple

    try:
        e2 = matrix_from_json(data["E2"]).T  # stored as a list of vectors
        e3 = matrix_from_json(data["E3"]).T
        if e2.shape[0] != 4 or e3.shape[0] != 8:
            raise SerializationError("E2 vectors must be 4-dim, E3 vectors 8-dim")
        triple = Triple(E2=Subspace.from_spanning(e2, ambient_dim=4),
                        E3=Subspace.from_spanning(e3, ambient_dim=8))
        if triple.E2.dim != 2 or triple.E3.dim != 2:
            raise SerializationError("E2 and E3 must each span a 2-dim subspace")
        return triple
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed triple: {exc}") from exc


def to_json(obj) -> dict:
    if isinstance(obj, (SubproductSystem, GradedAlgebra)):
        return _maps_to_json(obj)
    from .classify import Triple

    if isinstance(obj, Triple):
        return triple_to_json(obj)
    raise SerializationError(f"cannot serialize {type(obj).__name__}")


def from_json(data):
    """Kind-dispatched parse of any top-level payload."""
    if not isinstance(data, dict):
        raise SerializationError("top-level JSON payload must be an object")
    kind = data.get("kind")
    for cls, (map_kind, _, _) in _MAP_KINDS.items():
        if kind == map_kind:
            return _maps_from_json(cls, data)
    if kind == "triple" or (kind is None and "E2" in data and "E3" in data):
        return triple_from_json(data)
    raise SerializationError(f"unknown payload kind {kind!r}")
