import numpy as np
import pytest

from refs import SWAP
from spsys2d.classify import canonical_triple
from spsys2d.graded import build_graded, catalog
from spsys2d.plane import TripleClass
from spsys2d.stacks import GradedAlgebra, degree_index
from spsys2d.systems import (
    ClassifyStageError,
    SubproductSystem,
    SystemIso,
    SystemLabel,
    canonical_system,
    check_axioms,
    classify_system,
    dualize,
    iso_residuals,
    random_system,
    triple_of_system,
)

ALL_LABELS = [
    SystemLabel("E1"),
    SystemLabel("E2"),
    SystemLabel("E3", 2.0),
    SystemLabel("E3", 2 + 1j),
    SystemLabel("E4"),
    SystemLabel("E5"),
]


class TestCanonicalSystems:
    @pytest.mark.parametrize("label", ALL_LABELS, ids=str)
    def test_axioms_hold(self, label):
        rep = check_axioms(canonical_system(label, 6))
        assert rep.passed
        assert rep.worst_associativity_residual == 0.0

    def test_e1_table(self):
        s = canonical_system(SystemLabel("E1"), 4)
        b = s.beta[(1, 1)]
        assert np.allclose(b[:, 0], [1, 0, 0, 0])  # e1 -> e1 (x) e1
        assert np.allclose(b[:, 1], [0, 0, 0, 1])  # e2 -> e2 (x) e2

    def test_e2_parity(self):
        s = canonical_system(SystemLabel("E2"), 5)
        odd = s.beta[(1, 1)]
        even = s.beta[(2, 1)]
        assert np.allclose(odd[:, 0], [0, 1, 0, 0])   # e1 -> e1 (x) e2
        assert np.allclose(odd[:, 1], [0, 0, 1, 0])   # e2 -> e2 (x) e1
        assert np.allclose(even[:, 0], [1, 0, 0, 0])
        assert np.allclose(even[:, 1], [0, 0, 0, 1])

    def test_e3_lambda_power(self):
        s = canonical_system(SystemLabel("E3", 2.0), 6)
        # beta[3, t](e2) = e2 (x) e1 + 8 e1 (x) e2
        b = s.beta[(3, 1)]
        assert np.allclose(b[:, 1], [0, 8, 1, 0])

    def test_e4_e5_tables(self):
        b4 = canonical_system(SystemLabel("E4"), 4).beta[(1, 1)]
        b5 = canonical_system(SystemLabel("E5"), 4).beta[(1, 1)]
        assert np.allclose(b4[:, 1], [0, 0, 1, 0])  # e2 (x) e1
        assert np.allclose(b5[:, 1], [0, 1, 0, 0])  # e1 (x) e2

    def test_label_guards(self):
        with pytest.raises(ValueError):
            SystemLabel("E3")
        with pytest.raises(ValueError):
            SystemLabel("E3", 0)
        with pytest.raises(ValueError):
            SystemLabel("E1", 2.0)
        with pytest.raises(ValueError):
            SystemLabel("E9")


class TestCheckAxioms:
    def test_injectivity_failure_located(self):
        s = canonical_system(SystemLabel("E1"), 5)
        beta = dict(s.beta)
        bad = np.zeros((4, 2), dtype=complex)
        bad[0, 0] = 1.0
        bad[0, 1] = 1.0
        beta[(1, 2)] = bad
        rep = check_axioms(SubproductSystem(horizon=5, beta=beta))
        assert not rep.passed
        assert (1, 2) in rep.injectivity_failures

    def test_perturbation_breaks_associativity(self):
        s = canonical_system(SystemLabel("E1"), 5)
        beta = dict(s.beta)
        beta[(2, 1)] = beta[(2, 1)] + 1e-3 * np.ones((4, 2))
        rep = check_axioms(SubproductSystem(horizon=5, beta=beta))
        assert not rep.passed
        assert rep.first_failing_triple == (1, 1, 1)
        assert rep.worst_associativity_residual == pytest.approx(1e-3, rel=1)


class TestTripleOfSystem:
    def test_e1_gives_diagonal_triple(self, same_span):
        t = triple_of_system(canonical_system(SystemLabel("E1"), 6))
        want = canonical_triple(TripleClass("C1"))
        assert same_span(t.E2, want.E2)
        assert same_span(t.E3, want.E3)

    @pytest.mark.parametrize("lam", [2.0, 1j, -0.5])
    def test_e3_gives_c3_triple_same_lambda(self, lam, same_span):
        t = triple_of_system(canonical_system(SystemLabel("E3", lam), 6))
        want = canonical_triple(TripleClass("C3", lam))
        assert same_span(t.E2, want.E2)
        assert same_span(t.E3, want.E3)

    def test_e5_triple(self, same_span):
        t = triple_of_system(canonical_system(SystemLabel("E5"), 6))
        want = canonical_triple(TripleClass("C5"))
        assert same_span(t.E2, want.E2)
        assert same_span(t.E3, want.E3)


class TestDuality:
    def test_involution_bit_exact(self):
        s = random_system(SystemLabel("E3", 2 + 1j), 3, 6)
        back = dualize(dualize(s))
        for k in s.beta:
            assert np.array_equal(s.beta[k], back.beta[k])

    def test_e1_dual_is_b1(self):
        g = dualize(canonical_system(SystemLabel("E1"), 6))
        b1 = build_graded(catalog("D1"), np.eye(2), 6)
        for k in g.M:
            assert np.array_equal(g.M[k], b1.M[k])

    def test_e3_dual_is_b3(self):
        g = dualize(canonical_system(SystemLabel("E3", 2.0), 6))
        b3 = build_graded(catalog("D2"), np.diag([1, 2.0]), 6)
        for k in g.M:
            assert np.allclose(g.M[k], b3.M[k])

    def test_dualize_type_guard(self):
        with pytest.raises(TypeError):
            dualize(42)


class TestStoredMaps:
    def test_construction_copies_the_callers_maps(self):
        beta = {k: b.copy() for k, b in random_system(SystemLabel("E4"), 2, 6).beta.items()}
        M = {k: b.T.copy() for k, b in beta.items()}
        sys, g = SubproductSystem(6, beta), GradedAlgebra(6, M)
        kept = {k: b.copy() for k, b in sys.beta.items()}
        kept_dual = {k: m.copy() for k, m in g.M.items()}
        beta[(2, 1)][0, 0] += 1
        M[(2, 1)][0, 0] += 1
        assert all(np.array_equal(sys.beta[k], kept[k]) for k in kept)
        assert all(np.array_equal(g.M[k], kept_dual[k]) for k in kept_dual)
        assert check_axioms(sys).passed

    def test_maps_are_read_only_views_of_one_stack(self):
        c = canonical_system(SystemLabel("E2"), 6)
        g = dualize(c)
        for obj, maps in ((c, c.beta), (g, g.M)):
            assert np.array_equal(
                obj.stack, np.stack([maps[k] for k in degree_index(6).pairs]))
            assert all(np.shares_memory(m, obj.stack) for m in maps.values())
            with pytest.raises(ValueError):
                maps[(1, 1)][0, 0] = 5
            with pytest.raises(ValueError):
                obj.stack[0, 0, 0] = 5
        # canonical_system passes one array for every t; each pair gets its own copy
        assert not np.shares_memory(c.beta[(1, 1)], c.beta[(1, 2)])


class TestClassifySystem:
    @pytest.mark.parametrize("label", ALL_LABELS, ids=str)
    def test_self_classification(self, label):
        s = canonical_system(label, 6)
        got, iso = classify_system(s)
        assert got.label == label.label
        if label.lam is not None:
            assert abs(got.lam - label.lam) <= 1e-9 * abs(label.lam)
        res = iso_residuals(s, canonical_system(got, 6), iso)
        assert max(res.values()) <= 1e-8

    @pytest.mark.parametrize("label", ALL_LABELS, ids=str)
    def test_scramble_round_trip(self, label):
        for seed in range(5):
            s = random_system(label, seed, 6)
            got, iso = classify_system(s)
            assert got.label == label.label
            if label.lam is not None:
                assert abs(got.lam - label.lam) <= 1e-9 * abs(label.lam)
            res = iso_residuals(s, canonical_system(got, 6), iso)
            assert max(res.values()) <= 1e-8

    def test_construction_correspondence(self):
        cases = [
            ("D1", np.eye(2), "E1", None),
            ("D1", SWAP, "E2", None),
            ("D2", np.diag([1, 2.0]), "E3", 2.0),
            ("D2", np.diag([1, -1.0]), "E3", -1.0),
            ("D2", np.diag([1, 1j]), "E3", 1j),
            ("D3", np.eye(2), "E4", None),
            ("D4", np.eye(2), "E5", None),
        ]
        for name, eta, want, lam in cases:
            s = dualize(build_graded(catalog(name), eta, 6))
            got, _ = classify_system(s)
            assert got.label == want, name
            if lam is not None:
                assert abs(got.lam - lam) <= 1e-12

    def test_distinct_canonical_systems_never_conflate(self):
        labels = ALL_LABELS + [SystemLabel("E3", 0.5), SystemLabel("E3", 1.0),
                               SystemLabel("E3", 1j)]
        results = []
        for label in labels:
            got, _ = classify_system(canonical_system(label, 6))
            lam = None if got.lam is None else complex(
                round(got.lam.real, 6), round(got.lam.imag, 6))
            results.append((got.label, lam))
        assert len(set(results)) == len(labels)

    def test_axiom_failure_is_staged(self):
        s = canonical_system(SystemLabel("E1"), 5)
        beta = dict(s.beta)
        beta[(2, 1)] = beta[(2, 1)] + 1e-2 * np.ones((4, 2))
        with pytest.raises(ClassifyStageError) as err:
            classify_system(SubproductSystem(horizon=5, beta=beta))
        assert err.value.stage == "axioms"


class TestIsoResiduals:
    def test_differing_horizons_are_refused_before_any_product(self):
        sys = random_system(SystemLabel("E2"), 3, 6)
        _, iso = classify_system(sys)
        with pytest.raises(ValueError, match="^source horizon 6 and target horizon 7 differ$"):
            iso_residuals(sys, canonical_system(SystemLabel("E2"), 7), iso)

    def test_a_missing_level_map_is_named(self):
        sys = random_system(SystemLabel("E2"), 3, 6)
        _, iso = classify_system(sys)
        theta = {t: m for t, m in iso.theta.items() if t != 5}
        with pytest.raises(ValueError, match="^missing level map 5$"):
            iso_residuals(sys, canonical_system(SystemLabel("E2"), 6), SystemIso(theta))


class TestRandomSystem:
    def test_determinism(self):
        a = random_system(SystemLabel("E2"), 42, 6)
        b = random_system(SystemLabel("E2"), 42, 6)
        for k in a.beta:
            assert np.array_equal(a.beta[k], b.beta[k])

    def test_different_seeds_differ(self):
        a = random_system(SystemLabel("E2"), 1, 6)
        b = random_system(SystemLabel("E2"), 2, 6)
        assert any(not np.allclose(a.beta[k], b.beta[k]) for k in a.beta)

    def test_axioms_preserved(self):
        for seed in (0, 7, 42):
            rep = check_axioms(random_system(SystemLabel("E3", 1 - 2j), seed, 6))
            assert rep.passed
