"""The canonical JSON writer is `json.dumps` under fixed rules; its text must
be byte for byte what the hand-written emitter before it printed.

`ref_dumps_canonical` is that emitter, kept as the reference.
"""

import json
import math
import sys

import numpy as np
import pytest

from spsys2d import serialize
from spsys2d.classify import canonical_triple
from spsys2d.graded import build_graded, catalog
from spsys2d.plane import TripleClass
from spsys2d.systems import SystemLabel, canonical_system, dualize, random_system


def ref_format_float(x: float) -> str:
    if not math.isfinite(x):
        raise serialize.SerializationError("NaN/Inf are not admitted in canonical JSON")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return repr(float(f"{x:.17g}"))


def ref_dumps_canonical(obj) -> str:
    parts = []
    ref_emit(obj, parts)
    return "".join(parts)


def ref_emit(obj, parts: list) -> None:
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
        parts.append(ref_format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        ref_emit([float(obj.real), float(obj.imag)], parts)
    elif isinstance(obj, dict):
        keys = sorted(str(k) for k in obj)
        lookup = {str(k): v for k, v in obj.items()}
        parts.append("{")
        for i, k in enumerate(keys):
            if i:
                parts.append(",")
            parts.append(json.dumps(k))
            parts.append(":")
            ref_emit(lookup[k], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            ref_emit(item, parts)
        parts.append("]")
    elif isinstance(obj, np.ndarray):
        ref_emit(obj.tolist(), parts)
    else:
        raise serialize.SerializationError(f"cannot serialize {type(obj).__name__}")


def _floats(n: int) -> list:
    """At least n floats of every kind the emitter distinguishes: random decimal
    exponents from -320 (subnormal) to 308, random bit patterns, integers up
    to 1e17 in magnitude, both zeros, subnormals and the 1e16 boundary."""
    rng = np.random.default_rng(20090525)
    k = n // 4 + n // 100  # a few of the decimal and bit-pattern draws are not finite
    sign = rng.choice([-1.0, 1.0], size=k).tolist()
    mantissa = rng.uniform(1.0, 10.0, size=k).tolist()
    exponent = rng.integers(-320, 309, size=k).tolist()
    decimal = [float(f"{s * m!r}e{e}") for s, m, e in zip(sign, mantissa, exponent)]
    bits = rng.integers(0, 2**63, size=k, dtype=np.uint64) | (
        rng.integers(0, 2, size=k, dtype=np.uint64) << np.uint64(63))
    patterns = [x for x in bits.view(np.float64).tolist() if math.isfinite(x)]
    integers = rng.integers(-10**17, 10**17, size=k).astype(float).tolist()
    small = (rng.uniform(-1e4, 1e4, size=k) * rng.choice([1.0, 1e-3, 1e6], size=k)).tolist()
    edges = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max,
             -sys.float_info.max, 1e16, -1e16, 1e17, 0.1 + 0.2, 1 / 3, 2.0**53, 2.0**53 + 2]
    for x in (1e16, -1e16, 2.0**53, sys.float_info.min):
        edges += [np.nextafter(x, -math.inf).item(), np.nextafter(x, math.inf).item()]
    out = [x for x in decimal + patterns + integers + small + edges if math.isfinite(x)]
    return out + [-x for x in edges]


FLOATS = _floats(100_000)


def test_floats_print_as_the_reference_emitter_printed_them():
    assert len(FLOATS) >= 100_000
    got = serialize.dumps_canonical(FLOATS)[1:-1].split(",")
    want = ref_dumps_canonical(FLOATS)[1:-1].split(",")
    assert len(got) == len(want) == len(FLOATS)
    wrong = [(x, g, w) for x, g, w in zip(FLOATS, got, want) if g != w]
    assert wrong[:5] == []
    assert [json.loads(t) for t in got] == [x + 0.0 for x in FLOATS]


NESTED = {
    "numpy": [np.float64(-0.0), np.float64(2.5e-310), np.float32(0.1), np.float16(3.0),
              np.int64(-7), np.int32(2**31 - 1), np.uint8(255),
              np.complex128(-0.0 - 1.5j), np.complex64(1 + 2j)],
    "tuples": (1, (2.0, (3 + 0j, None)), [True, False, "text é\n\"q\""]),
    "arrays": [np.arange(6, dtype=float).reshape(2, 3), np.array([[1 - 1j, -0.0]]),
               np.array(4.0), np.zeros((0, 2)), np.array([1, 2], dtype=np.int64)],
    3: {"b": 1e16, "a": 1e-16, 10: -1e300},
    (1, 2): 12345678901234567890,
    "": [],
}


def test_nested_values_and_numpy_scalars_match_the_reference():
    assert serialize.dumps_canonical(NESTED) == ref_dumps_canonical(NESTED)


def _domain_objects():
    for label in (SystemLabel("E1"), SystemLabel("E3", 2 + 1j), SystemLabel("E4"),
                  SystemLabel("E5"), SystemLabel("E3", -0.25)):
        yield canonical_system(label, 6)
        scrambled = random_system(label, 11, 8)
        yield scrambled
        yield dualize(scrambled)
    yield build_graded(catalog("D2"), np.diag([1, 2.0]), 5)
    for cls in (TripleClass("C1"), TripleClass("C3", 1 - 1j), TripleClass("C4"),
                TripleClass("C5")):
        yield canonical_triple(cls)


@pytest.mark.parametrize("index", range(len(list(_domain_objects()))))
def test_systems_algebras_and_triples_match_the_reference(index):
    obj = list(_domain_objects())[index]
    payload = serialize.to_json(obj)
    assert serialize.dumps_canonical(payload) == ref_dumps_canonical(payload)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1.0, math.nan],
                                   {"a": complex(0, math.inf)}, np.float64(math.nan),
                                   np.array([1.0, math.inf])])
def test_nan_and_inf_are_refused(value):
    with pytest.raises(serialize.SerializationError):
        serialize.dumps_canonical(value)
    with pytest.raises(serialize.SerializationError):
        ref_dumps_canonical(value)


@pytest.mark.parametrize("value", [object(), {1, 2}, np.bool_(True), b"bytes",
                                   [1, {"a": object()}]])
def test_a_value_of_no_json_type_is_refused(value):
    with pytest.raises(serialize.SerializationError):
        serialize.dumps_canonical(value)
    with pytest.raises(serialize.SerializationError):
        ref_dumps_canonical(value)


def test_loads_reads_what_dumps_wrote():
    system = random_system(SystemLabel("E3", 2 + 1j), 5, 6)
    text = serialize.dumps_canonical(serialize.to_json(system))
    back = serialize.loads(text)
    assert back.stack.tobytes() == system.stack.tobytes()
    assert serialize.dumps_canonical(serialize.to_json(back)) == text


@pytest.mark.parametrize("text, message", [
    ("{not json", "Expecting property name enclosed in double quotes"),
    ('{"kind": "triple", "kind": "triple"}', "repeated key 'kind'"),
    ('{"a": {"b": 1, "b": 2}}', "repeated key 'b'"),
    ("[1, 2]", "top-level JSON payload must be an object"),
    ('{"kind": "mystery"}', "unknown payload kind 'mystery'"),
])
def test_loads_refuses_with_a_serialization_error(text, message):
    with pytest.raises(serialize.SerializationError, match=message):
        serialize.loads(text)
