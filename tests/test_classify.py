import numpy as np
import pytest

from refs import random_gl2
from spsys2d import classify
from spsys2d.classify import (
    Triple,
    _annihilated,
    canonical_triple,
    classify_triple,
    product_in_intersection,
)
from spsys2d.plane import (
    NotSubproductTripleError,
    TripleClass,
    _normal_form,
    _plane_form,
    rank_of_plane,
)
from spsys2d.tensorlinalg import DEFAULT_EPS, E1, E2, Subspace, kron


def _rng(seed=0):
    return np.random.default_rng(seed)


def _span(*vectors):
    return Subspace.from_spanning(np.column_stack(vectors))


def _normal_form_of(plane):
    """The plane read's ((x1, y1), (x2, y2), case_tag) of `plane`, at its rank."""
    return _normal_form(*_plane_form(plane.basis.T.tolist()), rank_of_plane(plane), DEFAULT_EPS)


class TestPlaneRank:
    def test_rank_two_plane(self):
        p = _span(kron(E1, E1), kron(E2, E2))
        assert rank_of_plane(p) == 2

    def test_rank_one_plane(self):
        p = _span(kron(E1, E1), kron(E2, E1) + 3 * kron(E1, E2))
        assert rank_of_plane(p) == 1

    def test_rank_zero_planes(self):
        left = _span(kron(E1, E1), kron(E2, E1))
        right = _span(kron(E1, E1), kron(E1, E2))
        assert rank_of_plane(left) == 0
        assert rank_of_plane(right) == 0

    def test_rank_invariant_under_factor_maps(self):
        rng = _rng(5)
        for _ in range(10):
            g1, g2 = random_gl2(rng), random_gl2(rng)
            big = np.kron(g1, g2)
            for plane, want in [
                (_span(kron(E1, E1), kron(E2, E2)), 2),
                (_span(kron(E1, E1), kron(E2, E1) + kron(E1, E2)), 1),
                (_span(kron(E1, E1), kron(E1, E2)), 0),
            ]:
                assert rank_of_plane(plane.map_by(big)) == want


class TestPlaneNormalForm:
    def test_rank_two_recovers_product_directions(self):
        p = _span(kron(E1, E1), kron(E2, E2))
        assert rank_of_plane(p) == 2
        basis1, basis2, _ = _normal_form_of(p)
        for x, y in zip(basis1, basis2):
            assert p.distance(kron(x, y)) <= 1e-8

    def test_rank_one_normal_form(self):
        p = _span(kron(E1, E1), kron(E2, E1) + 3 * kron(E1, E2))
        assert rank_of_plane(p) == 1
        (x1, y1), (x2, y2), _ = _normal_form_of(p)
        assert p.distance(kron(x1, x2)) <= 1e-8
        assert p.distance(kron(x1, y2) + kron(y1, x2)) <= 1e-8

    def test_rank_zero_tags(self):
        assert _normal_form_of(_span(kron(E1, E1), kron(E2, E1)))[2] == "left"
        assert _normal_form_of(_span(kron(E1, E1), kron(E1, E2)))[2] == "right"


class TestProductInIntersection:
    def test_diagonal_plane_with_itself(self):
        p = _span(kron(E1, E1), kron(E2, E2))
        x1, x2, x3 = product_in_intersection(p, p)
        assert p.distance(kron(x1, x2)) <= 1e-8
        assert p.distance(kron(x2, x3)) <= 1e-8

    def test_returns_none_when_intersection_trivial(self):
        rng = _rng(9)
        p = _span(kron(E1, E1), kron(E2, E2))
        found_none = False
        for _ in range(10):
            q = Subspace.from_spanning(
                rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            )
            if product_in_intersection(p, q) is None:
                found_none = True
        assert found_none

    def test_forced_intersection_500_instances(self):
        rng = _rng(100)
        for _ in range(100):
            # force a common product vector x1 (x) x2, x2 (x) x3
            x1, x2, x3 = (rng.standard_normal(2) + 1j * rng.standard_normal(2)
                          for _ in range(3))
            other12 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            other23 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            L12 = _span(kron(x1, x2), other12)
            L23 = _span(kron(x2, x3), other23)
            got = product_in_intersection(L12, L23)
            assert got is not None
            g1, g2, g3 = got
            assert L12.distance(kron(g1, g2)) <= 1e-8
            assert L23.distance(kron(g2, g3)) <= 1e-8

    def test_refuses_what_is_not_a_plane_of_c4(self):
        p = _span(kron(E1, E1), kron(E2, E2))
        for other in (_span(kron(E1, E1)), Subspace.from_spanning(np.eye(8)[:, :2])):
            for pair in ((p, other), (other, p)):
                with pytest.raises(ValueError, match="2-dim in 4-dim"):
                    product_in_intersection(*pair)


def _witness_residual(L12, L23, triple):
    x1, x2, x3 = triple
    return max(L12.distance(kron(x1, x2)), L23.distance(kron(x2, x3)))


LEFT = _span(kron(E1, E1), kron(E1, E2))  # E1 (x) C^2: x1 = e1, any x2
RIGHT = _span(kron(E1, E1), kron(E2, E1))  # C^2 (x) E1: x2 = e1, any x1


class TestProductInIntersectionByResidual:
    """Every root of either quadratic is tried as x2; x1 and x3 are solved in
    closed form, and the smallest residual wins."""

    @pytest.mark.parametrize("L12, L23, zero_forms, zero_system", [
        (LEFT, RIGHT, 2, False),  # both quadratics vanish: the fixed directions
        (LEFT, LEFT, 1, True),  # the first vanishes; at x2 = e1 x3's system is all zero
        (RIGHT, RIGHT, 1, True),  # the second vanishes; at x2 = e1 x1's system is all zero
        (RIGHT, LEFT, 0, True),  # x2 = e1 zeroes both systems
    ], ids=["left-right", "left-left", "right-right", "right-left"])
    def test_rank_zero_planes_meet_exactly(self, monkeypatch, L12, L23, zero_forms,
                                           zero_system):
        forms, systems = [], []
        binary_roots, annihilated = classify._binary_roots, classify._annihilated

        def roots_spy(*args):
            forms.append(binary_roots(*args))
            return forms[-1]

        def solve_spy(rows):
            systems.append(rows)
            return annihilated(rows)

        monkeypatch.setattr(classify, "_binary_roots", roots_spy)
        monkeypatch.setattr(classify, "_annihilated", solve_spy)
        got = product_in_intersection(L12, L23)
        assert _witness_residual(L12, L23, got) == 0
        assert sum(f is None for f in forms) == zero_forms
        assert any(all(z == 0 for row in rows for z in row) for rows in systems) == zero_system

    def test_all_zero_system_takes_e1(self):
        assert _annihilated([(0j, 0j), (0j, 0j)]) == (1, 0)
        assert _annihilated([(0j, 0j), (3 + 0j, 4j)]) == (-0.8j, 0.6)

    def test_moved_rank_zero_planes_meet(self):
        # x (x) C^2 and C^2 (x) y moved by g (x) g: a quadratic that vanishes
        # only up to roundoff has noise roots, which the residual passes over
        rng = _rng(7)
        for _ in range(100):
            g = np.kron(*([random_gl2(rng)] * 2))
            for L12, L23 in ((LEFT, RIGHT), (RIGHT, LEFT), (LEFT, LEFT), (RIGHT, RIGHT)):
                L12, L23 = L12.map_by(g), L23.map_by(g)
                got = product_in_intersection(L12, L23)
                assert got is not None
                assert _witness_residual(L12, L23, got) <= 1e-7

    def test_three_linalg_calls_whatever_the_candidates(self, monkeypatch):
        calls = []
        for name in dir(np.linalg):
            fn = getattr(np.linalg, name)
            if name.startswith("_") or isinstance(fn, type) or not callable(fn):
                continue

            def counting(*args, _name=name, _fn=fn, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        rng = _rng(3)
        x1, x2, x3 = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3))
        forced = (_span(kron(x1, x2), rng.standard_normal(4)),
                  _span(kron(x2, x3), rng.standard_normal(4)))
        # four candidates, two, one, the three fixed directions
        for L12, L23 in (forced, (RIGHT, LEFT), (LEFT, LEFT), (LEFT, RIGHT)):
            calls.clear()
            assert product_in_intersection(L12, L23) is not None
            assert calls == ["svd"] * 3

    def test_forced_intersection_2000_instances_to_roundoff(self):
        rng = _rng(2024)
        worst = 0.0
        for _ in range(2000):
            x1, x2, x3 = (rng.standard_normal(2) + 1j * rng.standard_normal(2)
                          for _ in range(3))
            L12 = _span(kron(x1, x2), rng.standard_normal(4) + 1j * rng.standard_normal(4))
            L23 = _span(kron(x2, x3), rng.standard_normal(4) + 1j * rng.standard_normal(4))
            worst = max(worst, _witness_residual(L12, L23, product_in_intersection(L12, L23)))
        assert worst <= 1e-12


class TestCanonicalTriples:
    @pytest.mark.parametrize("label", ["C1", "C2", "C4", "C5"])
    def test_fixed_point_classification(self, label):
        cls, iso = classify_triple(canonical_triple(TripleClass(label)))
        assert cls.label == label
        assert cls.lam is None

    @pytest.mark.parametrize("lam", [2.0, -1.0, 0.5j, 1.7 - 0.3j, 1.0])
    def test_c3_lambda_recovery(self, lam):
        cls, iso = classify_triple(canonical_triple(TripleClass("C3", lam)))
        assert cls.label == "C3"
        assert abs(cls.lam - lam) <= 1e-9 * abs(lam)

    def test_lambda_is_an_exact_invariant(self):
        # lambda and 1/lambda are distinct classes
        cls, _ = classify_triple(canonical_triple(TripleClass("C3", 2.0)))
        assert abs(cls.lam - 2.0) < 1e-9
        cls2, _ = classify_triple(canonical_triple(TripleClass("C3", 0.5)))
        assert abs(cls2.lam - 0.5) < 1e-9

    def test_class_constructor_guards(self):
        with pytest.raises(ValueError):
            TripleClass("C3")  # missing lambda
        with pytest.raises(ValueError):
            TripleClass("C3", 0)
        with pytest.raises(ValueError):
            TripleClass("C1", 2.0)
        with pytest.raises(ValueError):
            TripleClass("C9")


class TestClassifyConjugated:
    @pytest.mark.parametrize("label,lam", [
        ("C1", None), ("C2", None), ("C3", 2.0), ("C3", 1 + 1j),
        ("C4", None), ("C5", None),
    ])
    def test_round_trip_under_random_conjugation(self, label, lam, same_span):
        rng = _rng(hash((label, str(lam))) % 2**31)
        base = canonical_triple(TripleClass(label, lam))
        for _ in range(10):
            g = random_gl2(rng)
            g2 = np.kron(g, g)
            g3 = np.kron(g2, g)
            t = Triple(E2=base.E2.map_by(g2), E3=base.E3.map_by(g3))
            cls, iso = classify_triple(t)
            assert cls.label == label
            if lam is not None:
                assert abs(cls.lam - lam) <= 1e-8 * abs(lam)
            # the returned map really carries the input onto the canonical form
            assert same_span(iso.apply2(t.E2), base.E2, 1e-7)
            assert same_span(iso.apply3(t.E3), base.E3, 1e-7)

    def test_distinctness_of_families(self):
        # Classifying each canonical triple never yields another label
        labels = [("C1", None), ("C2", None), ("C3", 2.0), ("C3", 0.5),
                  ("C3", 1j), ("C4", None), ("C5", None)]
        seen = []
        for label, lam in labels:
            cls, _ = classify_triple(canonical_triple(TripleClass(label, lam)))
            seen.append((cls.label, None if cls.lam is None
                         else complex(round(cls.lam.real, 6),
                                      round(cls.lam.imag, 6))))
        assert len(set(seen)) == len(labels)

    def test_inconsistent_e3_rejected(self):
        # E2 of class C1 with an E3 that does not match the normal form
        base = canonical_triple(TripleClass("C1"))
        bad_e3 = _span(kron(kron(E1, E1), E1), kron(kron(E2, E2), E1))
        with pytest.raises(NotSubproductTripleError):
            classify_triple(Triple(E2=base.E2, E3=bad_e3))

    def test_e3_outside_window_rejected(self):
        base = canonical_triple(TripleClass("C1"))
        bad = _span(kron(kron(E1, E2), E1), kron(kron(E2, E1), E2))
        with pytest.raises(NotSubproductTripleError):
            Triple(E2=base.E2, E3=bad).validate()

