"""The rank-1 read of a plane from its normal form, the determinant form as
one matrix, and equality of the result and data types."""

import itertools

import numpy as np
import pytest

from spsys2d.classify import (
    Classification,
    NotSubproductTripleError,
    TripleClass,
    TripleIso,
    _collinear,
    _completion,
    _theta_from_columns,
    canonical_triple,
    chain_normal_form,
    classify_plane,
    classify_triple,
    plane_normal_form,
    restricted_form_matrix,
)
from spsys2d.graded import (
    GradedMorphism,
    automorphism_description,
    catalog,
    degree_index,
)
from spsys2d.identity import quad_coeffs
from spsys2d.systems import (
    SystemLabel,
    canonical_system,
    check_axioms,
    classify_system,
    dualize,
)
from spsys2d.tensorlinalg import (
    DET_FORM,
    E1,
    E2,
    I2,
    Subspace,
    kron,
    loose_tol,
    quad_form_A,
    quad_form_A_bilinear,
    roots_binary_quadratic,
)

# the benchmark's E3 lambda grid, and |lambda| at 1e-2 and 1e2
LAMBDAS = (0.25, 0.5, -1.0, 1.0, 1j, 2 + 1j, 3.0, 4.0, 1e-2, -1e-2j, 1e2, 1e2j)
BANDS = (0.0, 0.3, 1.0, 3.0, 5.0)  # y (x) y component, in units of loose_tol
EPS = (1e-6, 1e-9, 1e-12)


def ref_classify_plane(plane, eps):
    """classify_plane with the rank-1 branch it had before reading lambda
    from the normal form: a second frame (x, y), a 4x4 solve, a 3x2 SVD and
    a second y (x) y test."""
    nf = plane_normal_form(plane, eps)
    if nf.rank != 1:
        return classify_plane(plane, eps)
    loose = loose_tol(eps)
    x1, _ = nf.basis1
    x2, _ = nf.basis2
    if not _collinear(x1, x2, loose):
        raise NotSubproductTripleError(
            "rank-1 product direction does not have identical factors"
        )
    x = x1 / np.linalg.norm(x1)
    y = _completion(x)
    frame = np.column_stack([kron(x, x), kron(x, y), kron(y, x), kron(y, y)])
    coords = np.linalg.solve(frame, plane.basis)
    sub = coords[1:, :]
    _, _, vh_ = np.linalg.svd(sub)
    xy_coeff, yx_coeff, yy_coeff = sub @ vh_[0].conj()
    if abs(yy_coeff) > loose * max(abs(xy_coeff), abs(yx_coeff)):
        raise NotSubproductTripleError("rank-1 plane has a y(x)y component")
    if abs(yx_coeff) <= loose * abs(xy_coeff):
        raise NotSubproductTripleError("rank-1 plane lambda is unbounded")
    theta = _theta_from_columns(x, y)
    return Classification(TripleClass("C3", complex(xy_coeff / yx_coeff)),
                          TripleIso(theta), nf.rank, nf.margin)


def _outcome(read, plane, eps):
    """The classification, or the type and message of the refusal."""
    try:
        return read(plane, eps)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def e3_planes():
    """(lambda, eps, band, plane): the canonical E3 plane, with a y (x) y
    component of band * loose_tol(eps), as is and scrambled by g (x) g."""
    rng = np.random.default_rng(2024)
    for lam, eps, band in itertools.product(LAMBDAS, EPS, BANDS):
        phase = np.exp(2j * np.pi * rng.random())
        second = kron(E2, E1) + lam * kron(E1, E2) + band * loose_tol(eps) * phase * kron(E2, E2)
        basis = np.column_stack([kron(E1, E1), second])
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for m in (I2, g):
            yield lam, eps, band, Subspace.from_spanning(kron(m, m) @ basis, eps=eps)


class TestRankOneRead:
    def test_matches_the_frame_solve_read(self):
        verdicts = set()
        for lam, eps, band, plane in e3_planes():
            got = _outcome(classify_plane, plane, eps)
            want = _outcome(ref_classify_plane, plane, eps)
            if isinstance(want, str):
                assert got == want, (lam, eps, band)
                verdicts.add(want)
                continue
            assert not isinstance(got, str), (lam, eps, band, got)
            assert got.label.label == want.label.label, (lam, eps, band)
            assert np.array_equal(got.iso.theta, want.iso.theta), (lam, eps, band)
            assert (got.rank, got.rank_margin) == (want.rank, want.rank_margin)
            verdicts.add(got.label.label)
            if got.label.lam is None:
                continue
            drift = abs(got.label.lam - want.label.lam) / abs(want.label.lam)
            # on a plane off the normal form the two reads project differently
            assert drift <= max(1e-12, 0.1 * band * loose_tol(eps)), (lam, eps, band, drift)
        # the bands reach past every rank-1 refusal into rank 2
        assert "C3" in verdicts and len(verdicts) >= 3, verdicts

    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    def test_canonical_plane_reads_its_lambda(self, lam):
        got = classify_plane(canonical_triple(TripleClass("C3", lam)).E2)
        assert got.label.label == "C3"
        assert abs(got.label.lam - lam) <= 1e-12 * abs(lam)

    def test_one_solve_and_no_svd_of_its_own(self, monkeypatch):
        plane = canonical_triple(TripleClass("C3", 2 + 1j)).E2
        counts = {"solve": 0, "svd": 0}
        for name in counts:
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert classify_plane(plane).rank == 1
        # the one solve fits the normal form; the SVDs are the form's rank,
        # its kernel direction and the factors of the product vector
        assert counts == {"solve": 1, "svd": 3}


class TestDeterminantForm:
    def test_det_form_is_read_only_and_symmetric(self):
        assert not DET_FORM.flags.writeable
        assert np.array_equal(DET_FORM, DET_FORM.T)

    def test_restricted_form_matches_the_polarization_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            plane = Subspace.from_spanning(
                rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
            b = plane.basis
            want = np.array([[(u[0] * v[3] + u[3] * v[0] - u[1] * v[2] - u[2] * v[1]) / 2
                              for v in b.T] for u in b.T])
            assert np.abs(restricted_form_matrix(plane) - want).max() <= 1e-15

    def test_quadratic_form_is_exact_on_small_integers(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = rng.integers(-9, 10, 4) + 1j * rng.integers(-9, 10, 4)
            v = rng.integers(-9, 10, 4) + 1j * rng.integers(-9, 10, 4)
            assert quad_form_A(v) == v[0] * v[3] - v[1] * v[2]
            assert quad_form_A_bilinear(u, v) == (
                u[0] * v[3] + u[3] * v[0] - u[1] * v[2] - u[2] * v[1]) / 2

    def test_wrong_dimension_is_refused(self):
        with pytest.raises(ValueError, match="4-dimensional"):
            quad_form_A(np.ones(2))
        with pytest.raises(ValueError, match="4-dimensional"):
            quad_form_A_bilinear(np.ones(4), np.ones(8))


def _chain():
    plane = Subspace.from_spanning(np.column_stack([kron(E1, E1), kron(E2, E2)]))
    l123 = Subspace.from_spanning(np.column_stack([kron(kron(E1, E1), E1),
                                                   kron(kron(E2, E2), E2)]))
    return chain_normal_form(plane, plane, l123)


_SYSTEM = canonical_system(SystemLabel("E3", 2.0), 4)
_TRIPLE = canonical_triple(TripleClass("C1"))
_ALGEBRA = dualize(_SYSTEM)

# every type that holds arrays, dicts of arrays or callables
IDENTITY_TYPES = {
    "SubproductSystem": lambda: _SYSTEM,
    "GradedAlgebra": lambda: _ALGEBRA,
    "Algebra2": lambda: catalog("D1"),
    "Subspace": lambda: _TRIPLE.E2,
    "Triple": lambda: _TRIPLE,
    "TripleIso": lambda: classify_triple(_TRIPLE).iso,
    "SystemIso": lambda: classify_system(_SYSTEM).iso,
    "Classification": lambda: classify_triple(_TRIPLE),
    "PlaneNormalForm": lambda: plane_normal_form(_TRIPLE.E2),
    "ChainNormalForm": _chain,
    "GradedMorphism": lambda: GradedMorphism(_ALGEBRA, _ALGEBRA,
                                             {t: I2 for t in range(1, 5)}),
    "AutomorphismFamily": lambda: automorphism_description("D2"),
    "DegreeIndex": lambda: degree_index(4),
    "QuadraticRoots": lambda: roots_binary_quadratic(1, 0, -1),
}


@pytest.mark.parametrize("name", IDENTITY_TYPES)
def test_array_holders_compare_and_hash_by_identity(name):
    a = IDENTITY_TYPES[name]()
    assert type(a).__name__ == name
    b = IDENTITY_TYPES[name]()
    assert a == a
    assert (a == b) == (a is b)
    assert len({a, b}) == (1 if a is b else 2)
    assert hash(a) == hash(a)


def test_labels_and_reports_compare_by_value():
    assert TripleClass("C3", 2.0) == TripleClass("C3", 2.0)
    assert TripleClass("C3", 2.0) != TripleClass("C3", 3.0)
    assert len({SystemLabel("E3", 1j), SystemLabel("E3", 1j), SystemLabel("E1")}) == 2
    assert check_axioms(_SYSTEM) == check_axioms(_SYSTEM)
    rows = ([1, 2, 3, 4], [5, 6, 7, 8])
    assert quad_coeffs(*rows) == quad_coeffs(*rows)


@pytest.mark.parametrize("cls, label, lam, message", [
    (TripleClass, "C9", None, "unknown label 'C9'"),
    (TripleClass, "C3", None, "C3 requires a nonzero lambda"),
    (TripleClass, "C3", 0, "C3 requires a nonzero lambda"),
    (TripleClass, "C1", 2.0, "label C1 carries no lambda"),
    (SystemLabel, "C1", None, "unknown system label 'C1'"),
    (SystemLabel, "E3", None, "E3 requires a nonzero lambda"),
    (SystemLabel, "E3", 0j, "E3 requires a nonzero lambda"),
    (SystemLabel, "E5", 1j, "label E5 carries no lambda"),
])
def test_one_label_rule_keeps_each_message(cls, label, lam, message):
    with pytest.raises(ValueError) as err:
        cls(label, lam)
    assert str(err.value) == message
