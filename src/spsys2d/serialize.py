"""Canonical JSON for systems, graded algebras, triples, and reports.

Conventions: complex scalars as two-element arrays [re, im]; matrices
row-major; object keys sorted; floats rendered with 17 significant digits
(round-trip exact); NaN/Inf rejected.  Identical values always serialize to
byte-identical text.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from .classify import Triple
from .graded import GradedAlgebra
from .systems import SubproductSystem
from .tensorlinalg import Subspace


class SerializationError(ValueError):
    pass


# -- canonical text emission -------------------------------------------------


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise SerializationError("NaN/Inf are not admitted in canonical JSON")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return repr(float(f"{x:.17g}"))


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed float formatting."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: list) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _emit([float(obj.real), float(obj.imag)], parts)
    elif isinstance(obj, dict):
        keys = sorted(str(k) for k in obj)
        lookup = {str(k): v for k, v in obj.items()}
        parts.append("{")
        for i, k in enumerate(keys):
            if i:
                parts.append(",")
            parts.append(json.dumps(k))
            parts.append(":")
            _emit(lookup[k], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), parts)
    else:
        raise SerializationError(f"cannot serialize {type(obj).__name__}")


# -- complex matrices --------------------------------------------------------


def complex_to_json(z) -> list:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SerializationError("NaN/Inf are not admitted")
    return [z.real, z.imag]


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[complex_to_json(m[i, j]) for j in range(m.shape[1])]
            for i in range(m.shape[0])]


def _is_number(x) -> bool:
    """An int or float, but not a bool (which Python counts as an int)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def complex_from_json(v) -> complex:
    """A number, or a pair [re, im] of numbers; strings and booleans are refused."""
    if _is_number(v):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)):
        return complex(float(v[0]), float(v[1]))
    raise SerializationError(f"not a complex scalar: {v!r}")


def matrix_from_json(rows, shape=None) -> np.ndarray:
    try:
        m = np.array([[complex_from_json(x) for x in row] for row in rows],
                     dtype=complex)
    except (TypeError, OverflowError, SerializationError) as exc:  # an int past float
        raise SerializationError(f"malformed matrix: {exc}") from exc
    if shape is not None and m.shape != shape:
        raise SerializationError(f"expected shape {shape}, got {m.shape}")
    return m


# -- domain objects ----------------------------------------------------------


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


def triple_to_json(t: Triple) -> dict:
    # E2 and E3 each as the list of their basis vectors
    return {"kind": "triple", **{
        name: [[complex_to_json(z) for z in v] for v in getattr(t, name).basis.T]
        for name in ("E2", "E3")}}


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
        maps, texts = {}, {}
        for k, v in data[name].items():
            key = _parse_index_key(k)
            if key in maps:
                raise SerializationError(
                    f"keys {texts[key]!r} and {k!r} both name {name}[{key[0]},{key[1]}]")
            maps[key], texts[key] = matrix_from_json(v, shape), k
        return cls(horizon, maps)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed {kind.replace('_', ' ')}: {exc}") from exc


def triple_from_json(data: dict) -> Triple:
    try:
        e2 = matrix_from_json(data["E2"]).T  # stored as a list of vectors
        e3 = matrix_from_json(data["E3"]).T
        if e2.shape[0] != 4 or e3.shape[0] != 8:
            raise SerializationError("E2 vectors must be 4-dim, E3 vectors 8-dim")
        triple = Triple(
            E2=Subspace.from_spanning(e2, ambient_dim=4),
            E3=Subspace.from_spanning(e3, ambient_dim=8),
        )
        if triple.E2.dim != 2 or triple.E3.dim != 2:
            raise SerializationError("E2 and E3 must each span a 2-dim subspace")
        return triple
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed triple: {exc}") from exc


def to_json(obj) -> dict:
    if isinstance(obj, (SubproductSystem, GradedAlgebra)):
        return _maps_to_json(obj)
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
