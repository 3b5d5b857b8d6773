import numpy as np
import pytest

from refs import SWAP, random_gl2
from spsys2d.graded import (
    CATALOG_NAMES,
    GradedMorphism,
    MorphismError,
    NotAutomorphismError,
    NotExtendableError,
    automorphism_description,
    build_graded,
    catalog,
    check_image_condition,
    check_kernel_condition,
    check_surjective_mult,
    extend_morphism,
    is_automorphism,
    is_isomorphism,
    kernel_subspace,
    twist,
)
from spsys2d.tensorlinalg import DEFAULT_EPS, I2, kron


class TestCatalog:
    def test_seven_algebras_associative(self):
        for name in CATALOG_NAMES:
            d = catalog(name).mult
            # (xy)z = x(yz): D (D (x) I2) = D (I2 (x) D)
            assert np.abs(d @ kron(d, I2) - d @ kron(I2, d)).max() <= DEFAULT_EPS, name

    def test_surjectivity_split(self):
        for name in ("D1", "D2", "D3", "D4"):
            assert check_surjective_mult(catalog(name))
        for name in ("D5", "D6", "D7"):
            assert not check_surjective_mult(catalog(name))

    def test_multiplication_samples(self):
        x = np.array([2.0, 3.0])
        y = np.array([5.0, 7.0])
        assert np.allclose(catalog("D1").mult @ kron(x, y), [10, 21])
        assert np.allclose(catalog("D2").mult @ kron(x, y), [10, 15 + 14])
        assert np.allclose(catalog("D3").mult @ kron(x, y), [10, 15])
        assert np.allclose(catalog("D4").mult @ kron(x, y), [10, 14])
        assert np.allclose(catalog("D5").mult @ kron(x, y), [10, 0])
        assert np.allclose(catalog("D6").mult @ kron(x, y), [0, 10])
        assert np.allclose(catalog("D7").mult @ kron(x, y), [0, 0])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            catalog("D8")


class TestAutomorphisms:
    def test_listed_families_pass(self):
        for name in ("D1", "D2", "D3", "D4"):
            fam = automorphism_description(name)
            d = catalog(name)
            for m in fam.maps:
                assert is_automorphism(d, m), name
            if fam.one_parameter is not None:
                for lam in (2.0, -1.0, 1j, 0.3 - 0.7j):
                    assert is_automorphism(d, fam.one_parameter(lam))

    def test_family_shapes(self):
        assert len(automorphism_description("D1").maps) == 2
        assert automorphism_description("D2").one_parameter is not None
        assert len(automorphism_description("D3").maps) == 1
        assert len(automorphism_description("D4").maps) == 1
        with pytest.raises(ValueError):
            automorphism_description("D5")

    def test_swap_only_for_d1(self):
        assert is_automorphism(catalog("D1"), SWAP)
        assert not is_automorphism(catalog("D2"), SWAP)
        assert not is_automorphism(catalog("D3"), SWAP)
        assert not is_automorphism(catalog("D4"), SWAP)

    def test_random_invertible_maps_fail(self):
        rng = np.random.default_rng(77)
        for name in ("D1", "D2", "D3", "D4"):
            d = catalog(name)
            for _ in range(100):
                assert not is_automorphism(d, random_gl2(rng))

    def test_singular_map_is_not_automorphism(self):
        assert not is_automorphism(catalog("D1"), np.zeros((2, 2)))


class TestBuildGraded:
    def test_rejects_non_automorphism(self):
        with pytest.raises(NotAutomorphismError):
            build_graded(catalog("D2"), SWAP, 5)

    def test_associativity_for_all_cases(self):
        for name, eta in [("D1", np.eye(2)), ("D1", SWAP),
                          ("D2", np.diag([1, 2.0])), ("D2", np.diag([1, 1j])),
                          ("D3", np.eye(2)), ("D4", np.eye(2))]:
            g = build_graded(catalog(name), eta, 6)
            assert g.associativity_residual() < 1e-12

    def test_eta_powers_enter_level_by_level(self):
        lam = 3.0
        g = build_graded(catalog("D2"), np.diag([1, lam]), 6)
        # c2 coefficient of a1 b2 at level s is lam^s
        for s in range(1, 5):
            assert g.M[(s, 1)][1, 1] == pytest.approx(lam**s)

    def test_iterated_product(self):
        # the 3-fold product on degree-1 elements, M[2, 1] (M[1, 1] (x) I2)
        g = build_graded(catalog("D1"), np.eye(2), 5)
        m3 = g.M[(2, 1)] @ np.kron(g.M[(1, 1)], np.eye(2))
        assert m3.shape == (2, 8)
        x = np.array([2.0, 3.0])
        assert np.allclose(m3 @ np.kron(np.kron(x, x), x), [8, 27])


class TestConditions:
    def test_image_and_kernel_conditions_hold_for_d1_to_d4(self):
        for name in ("D1", "D2", "D3", "D4"):
            fam = automorphism_description(name)
            etas = list(fam.maps)
            if fam.one_parameter is not None:
                etas.append(fam.one_parameter(2.0))
            for eta in etas:
                g = build_graded(catalog(name), eta, 6)
                assert check_image_condition(g), name
                assert check_kernel_condition(g), name

    def test_image_condition_fails_for_degenerate(self):
        g = build_graded(catalog("D5"), np.eye(2), 5)
        assert not check_image_condition(g)

    def test_kernel_dimension_identity(self):
        # dim Ker mu3 = 6 = dim(Ker mu2 (x) D + D (x) Ker mu2) for D1..D4
        for name in ("D1", "D2", "D3", "D4"):
            d = catalog(name)
            mu2 = d.mult
            mu3 = mu2 @ np.kron(mu2, np.eye(2))
            k3 = kernel_subspace(mu3)
            assert k3.dim == 6
            k2 = kernel_subspace(mu2)
            left = np.kron(k2.basis, np.eye(2))
            right = np.kron(np.eye(2), k2.basis)
            stacked = np.hstack([left, right])
            rank = np.linalg.matrix_rank(stacked, tol=1e-9)
            assert rank == 6


class TestTwist:
    def test_twist_of_b1_by_swap_is_b2(self):
        g1 = build_graded(catalog("D1"), np.eye(2), 6)
        g2 = build_graded(catalog("D1"), SWAP, 6)
        tw = twist(g1, lambda t: SWAP)
        for k in g2.M:
            assert np.allclose(tw.M[k], g2.M[k])

    def test_twist_rejects_non_automorphism(self):
        g = build_graded(catalog("D2"), np.eye(2), 5)
        with pytest.raises(NotAutomorphismError):
            twist(g, lambda t: SWAP)
        with pytest.raises(NotAutomorphismError):
            twist(g, lambda t: np.zeros((2, 2)))

    def test_twist_preserves_associativity(self):
        g = build_graded(catalog("D2"), np.diag([1, 2.0]), 6)
        tw = twist(g, lambda t: np.diag([1, 1.5]))
        assert tw.associativity_residual() < 1e-9


class TestExtendMorphism:
    def _b3(self, lam=2.0, horizon=6):
        return build_graded(catalog("D2"), np.diag([1, lam]), horizon)

    def test_identity_extension(self):
        g = self._b3()
        m = extend_morphism(g, g, np.eye(2), np.eye(2))
        assert max(m.level_residuals().values()) < 1e-12
        assert is_isomorphism(m)

    def test_extension_between_twisted_copies(self):
        rng = np.random.default_rng(123)
        g = self._b3(horizon=8)
        # conjugate every level map by per-level random bases (unit spectral
        # norm keeps the residual scale meaningful)
        def well_conditioned():
            while True:
                m = random_gl2(rng)
                if np.linalg.cond(m) <= 20:
                    return m / np.linalg.norm(m, 2)

        levels = {t: well_conditioned() for t in range(1, 9)}
        maps = {}
        for (s, t), m in g.M.items():
            maps[(s, t)] = (
                np.linalg.inv(levels[s + t]) @ m @ np.kron(levels[s], levels[t])
            )
        from spsys2d.stacks import GradedAlgebra
        gb = GradedAlgebra(horizon=8, M=maps)
        m = extend_morphism(gb, g, levels[1], levels[2])
        assert is_isomorphism(m)
        assert max(m.level_residuals().values()) <= 1e-9

    def test_uniqueness_under_preimage_randomization(self):
        g = self._b3(horizon=8)
        a = extend_morphism(g, g, np.eye(2), np.eye(2))
        b = extend_morphism(g, g, np.eye(2), np.eye(2),
                            rng=np.random.default_rng(4))
        c = extend_morphism(g, g, np.eye(2), np.eye(2),
                            rng=np.random.default_rng(99))
        for n in a.theta:
            assert np.abs(a.theta[n] - b.theta[n]).max() <= 1e-9
            assert np.abs(a.theta[n] - c.theta[n]).max() <= 1e-9

    def test_incompatible_theta2_rejected(self):
        g = self._b3()
        with pytest.raises(MorphismError):
            extend_morphism(g, g, np.eye(2), 2 * np.eye(2))

    def test_source_must_satisfy_conditions(self):
        bad = build_graded(catalog("D5"), np.eye(2), 5)
        good = self._b3(horizon=5)
        with pytest.raises(MorphismError):
            extend_morphism(bad, good, np.eye(2), np.eye(2))

    def test_horizon_mismatch(self):
        with pytest.raises(MorphismError):
            extend_morphism(self._b3(horizon=5), self._b3(horizon=6),
                            np.eye(2), np.eye(2))

    @staticmethod
    def _perturbed_e2_dual(key):
        """The dual of canonical E2 at h = 6, and a copy with 1e-3 added to
        every entry of M[key]."""
        from spsys2d.stacks import GradedAlgebra
        from spsys2d.systems import SystemLabel, canonical_system, dualize
        g = dualize(canonical_system(SystemLabel("E2"), 6))
        maps = dict(g.M)
        maps[key] = maps[key] + 1e-3
        return g, GradedAlgebra(6, maps)

    def test_a_pair_off_the_recursion_is_certified(self):
        # M[2, 1] is not read by the recursion over M[1, t]: the certificate
        # over every pair refuses it
        g, target = self._perturbed_e2_dual((2, 1))
        with pytest.raises(MorphismError) as err:
            extend_morphism(g, target, np.eye(2), np.eye(2))
        assert type(err.value) is MorphismError
        assert str(err.value).startswith("level maps fail to intertwine (residual ")

    def test_a_pair_on_the_recursion_keeps_its_kernel_leak_refusal(self):
        g, target = self._perturbed_e2_dual((1, 2))
        with pytest.raises(NotExtendableError, match="kernel leak"):
            extend_morphism(g, target, np.eye(2), np.eye(2))

    def test_level_maps_that_overflow_are_refused(self):
        """theta_n = 2^(400 n) I2 overflows from level 3 on, where its kernel
        leak is NaN: a NaN fails the test, as it fails the certificate's."""
        g = build_graded(catalog("D1"), I2, 6)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotExtendableError, match=r"^theta_3 .* \(kernel leak nan\)$"):
                extend_morphism(g, g, 2**400 * I2, 2**800 * I2)


class TestNamedRefusals:
    """Malformed level maps are refused by name, at construction."""

    def test_twist_names_the_missing_level_of_a_mapping(self):
        g = build_graded(catalog("D1"), np.eye(2), 4)
        with pytest.raises(ValueError, match="^missing level map 2$"):
            twist(g, {1: I2})
        with pytest.raises(ValueError, match="^missing level map 3$"):
            twist(g, {1: I2, 2: I2, 4: I2})
        assert twist(g, {t: SWAP for t in range(1, 7)}).horizon == 4  # extra levels unread

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_a_bool_level_key_is_refused(self, flag):
        """A dict lookup takes True for the level 1."""
        g = build_graded(catalog("D1"), np.eye(2), 3)
        levels = {flag: I2, 2: I2, 3: I2}
        with pytest.raises(ValueError, match=f"^level key {flag!r} is not a level t$"):
            twist(g, levels)
        with pytest.raises(ValueError, match=f"^level key {flag!r} is not a level t$"):
            GradedMorphism(g, g, levels)

    def test_a_malformed_morphism_is_refused_at_construction(self):
        g = build_graded(catalog("D1"), np.eye(2), 4)
        with pytest.raises(ValueError, match="^level maps must be 2x2$"):
            GradedMorphism(g, g, np.ones((4, 3, 3)))
        with pytest.raises(ValueError, match="^level maps must be 2x2$"):
            GradedMorphism(g, g, {t: np.eye(3) for t in range(1, 5)})
        with pytest.raises(MorphismError, match="^missing level map 4$"):
            GradedMorphism(g, g, np.stack([I2] * 3))
        with pytest.raises(MorphismError, match="^missing level map 3$"):
            GradedMorphism(g, g, {1: I2, 2: I2})
        with pytest.raises(MorphismError, match="^source and target horizons differ$"):
            GradedMorphism(g, build_graded(catalog("D1"), np.eye(2), 5), np.stack([I2] * 5))
        with pytest.raises(ValueError, match="^no level maps$"):
            GradedMorphism(g, g, {})
        for value in (np.nan, np.inf):
            levels = np.stack([I2] * 5)
            levels[4, 0, 1] = value  # past the horizon too
            with pytest.raises(ValueError, match="^non-finite entries are not admitted$"):
                GradedMorphism(g, g, levels)
            with pytest.raises(ValueError, match="^non-finite entries are not admitted$"):
                twist(g, dict(enumerate(levels, 1)))

    @pytest.mark.parametrize("theta1, theta2", [(np.eye(3), np.eye(2)),
                                                (np.eye(2), np.ones((2, 4))),
                                                (np.ones((4, 2)), np.eye(2))])
    def test_extend_morphism_refuses_maps_that_are_not_2x2(self, theta1, theta2):
        g = build_graded(catalog("D2"), np.diag([1, 2.0]), 5)
        with pytest.raises(MorphismError, match="^theta1 and theta2 must be 2x2$"):
            extend_morphism(g, g, theta1, theta2)
