"""The package's fourteen records (subclasses of `tensorlinalg.Record`) keep
what they had as frozen dataclasses: each is built by position and by
keyword, with the same parameters and defaults; shows the dataclass repr,
byte for byte; is slotted and refuses to set or delete an attribute; compares
and hashes by value (`TripleClass`, `SystemLabel`, `AxiomReport`) or by
identity (the rest); and survives `pickle`, `copy` and `deepcopy`.
"""

import copy
import inspect
import pickle
from collections.abc import Mapping

import numpy as np
import pytest

from spsys2d.classify import Classification, Triple, TripleClass, TripleIso
from spsys2d.graded import (Algebra2, AutomorphismFamily, DegreeIndex, GradedAlgebra,
                            GradedMorphism, automorphism_description, build_graded, catalog,
                            degree_index)
from spsys2d.systems import (AxiomReport, SubproductSystem, SystemIso, SystemLabel,
                             canonical_system)
from spsys2d.tensorlinalg import I2, Record, Subspace, ValueRecord

S4, S8 = Subspace(4, np.eye(4, 2)), Subspace(8, np.eye(8, 2))
LEVELS = np.stack([I2, I2, 2 * I2])
G = build_graded(catalog("D1"), I2, 3)
INDEX = degree_index(3)
D1_MAPS = automorphism_description("D1").maps
IDENTITY_REPR = "array([[1.+0.j, 0.+0.j],\n       [0.+0.j, 1.+0.j]])"

# class: (parameters in order, arguments, repr of the record they build); the
# reprs are those the frozen dataclasses printed for the same arguments
RECORDS = {
    Subspace: (("ambient_dim", "basis"), (4, np.eye(4, 2)), "Subspace(ambient_dim=4)"),
    Triple: (("E2", "E3"), (S4, S8),
             "Triple(E2=Subspace(ambient_dim=4), E3=Subspace(ambient_dim=8))"),
    TripleClass: (("label", "lam"), ("C3", 2 + 1j), "TripleClass(label='C3', lam=(2+1j))"),
    TripleIso: (("theta",), (np.diag([1, 2]).astype(complex),),
                "TripleIso(theta=array([[1.+0.j, 0.+0.j],\n       [0.+0.j, 2.+0.j]]))"),
    Classification: (
        ("label", "iso", "rank", "rank_margin", "residuals"),
        (SystemLabel("E3", 2 + 1j), SystemIso(LEVELS), 1, 2.5, {(1, 1): 0.5}),
        "Classification(label=SystemLabel(label='E3', lam=(2+1j)), iso=SystemIso(), rank=1, "
        "rank_margin=2.5, residuals={(1, 1): 0.5})"),
    Algebra2: (("mult", "name"), (np.ones((2, 4)), "D0"), "Algebra2(name='D0')"),
    AutomorphismFamily: (
        ("algebra", "maps", "one_parameter", "description"),
        ("D1", D1_MAPS, None, "identity and the coordinate swap"),
        f"AutomorphismFamily(algebra='D1', maps=({IDENTITY_REPR}, array([[0.+0.j, 1.+0.j],\n"
        "       [1.+0.j, 0.+0.j]])), one_parameter=None, "
        "description='identity and the coordinate swap')"),
    DegreeIndex: (
        ("pairs", "triples", "positions", "levels", "sides", "rs", "rs_t", "st", "r_st"),
        tuple(getattr(INDEX, name) for name in DegreeIndex.__slots__),
        "DegreeIndex(pairs=((1, 1), (1, 2), (2, 1)), triples=((1, 1, 1),))"),
    GradedAlgebra: (("horizon", "M"), (3, G.stack), "GradedAlgebra(horizon=3)"),
    GradedMorphism: (("source", "target", "theta"), (G, G, LEVELS), "GradedMorphism()"),
    SystemLabel: (("label", "lam"), ("E3", -1.0), "SystemLabel(label='E3', lam=-1.0)"),
    SubproductSystem: (("horizon", "beta"), (3, canonical_system(SystemLabel("E2"), 3).stack),
                       "SubproductSystem(horizon=3)"),
    SystemIso: (("theta",), ({1: I2, 2: 2 * I2},), "SystemIso()"),
    AxiomReport: (
        ("passed", "worst_associativity_residual", "first_failing_triple",
         "injectivity_failures", "min_singular_value"),
        (False, 0.25, (1, 1, 2), ((1, 2), (2, 1)), 1e-3),
        "AxiomReport(passed=False, worst_associativity_residual=0.25, "
        "first_failing_triple=(1, 1, 2), injectivity_failures=((1, 2), (2, 1)), "
        "min_singular_value=0.001)"),
}

# the records compared by value, each with the arguments of an unequal one
VALUES = {
    TripleClass: ("C3", 2.0),
    SystemLabel: ("E3", 2.0),
    AxiomReport: (True, 0.25, (1, 1, 2), ((1, 2), (2, 1)), 1e-3),
}

CASES = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def _built(cls):
    """The record built by position and by keyword."""
    params, args, _ = RECORDS[cls]
    return cls(*args), cls(**dict(zip(params, args)))


def same(a, b) -> bool:
    """Equal types and equal data: arrays bit for bit, records slot by slot,
    mappings key by key in order."""
    if isinstance(a, Record):
        return type(a) is type(b) and all(same(getattr(a, name), getattr(b, name))
                                          for name in type(a).__slots__)
    if isinstance(a, np.ndarray):
        return (type(b) is np.ndarray and (a.dtype, a.shape) == (b.dtype, b.shape)
                and a.tobytes() == b.tobytes())
    if isinstance(a, Mapping):
        return (isinstance(b, Mapping) and list(a) == list(b)
                and all(same(a[key], b[key]) for key in a))
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


def _subclasses(cls) -> set:
    return {c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))}


def test_the_cases_cover_every_record():
    assert len(RECORDS) == 14
    assert set(RECORDS) == _subclasses(Record) - {ValueRecord}
    assert set(VALUES) == _subclasses(ValueRecord)


@CASES
def test_a_record_is_built_by_position_and_by_keyword(cls):
    params, args, _ = RECORDS[cls]
    assert tuple(inspect.signature(cls).parameters) == params
    by_position, by_keyword = _built(cls)
    assert same(by_position, by_keyword)


def test_the_defaults_are_the_dataclass_defaults():
    assert SystemLabel("E1").lam is None and TripleClass("C1").lam is None
    assert Algebra2(np.ones((2, 4))).name is None
    family = AutomorphismFamily("D3", D1_MAPS[:1])
    assert (family.one_parameter, family.description) == (None, "")
    a, b = (Classification(TripleClass("C1"), TripleIso(I2), 2, 1.0) for _ in range(2))
    assert a.residuals == {} and a.residuals is not b.residuals
    assert Classification(TripleClass("C1"), TripleIso(I2), 2, 1.0, None).residuals is None


@CASES
def test_the_repr_is_the_dataclass_repr(cls):
    _, _, want = RECORDS[cls]
    assert [repr(r) for r in _built(cls)] == [want, want]


@CASES
def test_a_record_is_slotted_and_read_only(cls):
    record = _built(cls)[0]
    assert not hasattr(record, "__dict__")
    before = {name: getattr(record, name) for name in cls.__slots__}
    for name in (*cls.__slots__, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert all(getattr(record, name) is value for name, value in before.items())


@CASES
def test_equality_is_by_value_or_by_identity(cls):
    a, b = _built(cls)
    assert a == a and not a != a
    assert a != object() and a != None  # noqa: E711 - the == operator itself is tested
    if cls in VALUES:
        assert a == b and hash(a) == hash(b)
        # a frozen dataclass compares and hashes the tuple of its fields
        assert hash(a) == hash(tuple(getattr(a, name) for name in cls.__slots__))
        assert a != cls(*VALUES[cls])
    else:
        assert a != b and hash(a) == object.__hash__(a)


def test_records_of_two_classes_are_never_equal():
    assert SystemLabel("E1") != TripleClass("C1")
    assert TripleClass("C3", 2.0) != SystemLabel("E3", 2.0)


@CASES
@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy,
                                   copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
def test_a_record_survives_pickle_copy_and_deepcopy(cls, clone):
    record = _built(cls)[0]
    dup = clone(record)
    assert dup is not record and same(dup, record) and repr(dup) == repr(record)
    assert (dup == record) is (cls in VALUES)
    with pytest.raises(AttributeError):
        setattr(dup, cls.__slots__[0], 0)
