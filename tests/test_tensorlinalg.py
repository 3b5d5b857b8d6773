import numpy as np
import pytest

from spsys2d.tensorlinalg import (
    DEFAULT_EPS,
    E1,
    E2,
    Subspace,
    _binary_roots,
    _factor,
    _masked_null_spaces,
    _null_space,
    _projective,
    annihilator,
    as_cvec,
    det_bilinear,
    intersect,
    kron,
    matmul2,
    span_rank,
)


def _rng():
    return np.random.default_rng(11)


def _cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _det_form(v):
    """The determinant quadratic form v @ DET_FORM @ v of a numpy 4-vector."""
    return det_bilinear(v.tolist(), v.tolist())


class TestBasics:
    def test_index_convention(self):
        # (i, j) -> 2(i-1) + (j-1): e2 (x) e1 sits at index 2
        v = kron(E2, E1)
        assert np.argmax(np.abs(v)) == 2

    def test_kron_dims_guarded(self):
        with pytest.raises(ValueError):
            kron(np.ones(4), np.ones(4))  # dim 16 unsupported

    def test_matmul2_is_matmul_within_rounding(self):
        rng = _rng()
        # entry-major operands, the lane axis last: (..., m, 2, P) @ (..., 2, n, P)
        shapes = [((4, 2, 1), (2, 4, 1)), ((4, 2, 7), (2, 2, 7)), ((1, 4, 2, 7), (3, 2, 2, 7)),
                  ((5, 2, 1), (6, 2, 3, 4)), ((8, 2, 3), (2, 1, 3))]
        for sa, sb in shapes:
            a = rng.standard_normal(sa) + 1j * rng.standard_normal(sa)
            b = rng.standard_normal(sb) + 1j * rng.standard_normal(sb)
            got = matmul2(a, b)
            lanes_first = (np.moveaxis(a, -1, -3), np.moveaxis(b, -1, -3))
            want = np.moveaxis(np.matmul(*lanes_first), -3, -1)
            assert got.shape == want.shape
            # componentwise rounding bound of a length-2 complex dot product
            bound = 8 * np.finfo(float).eps * np.moveaxis(
                np.matmul(*map(np.abs, lanes_first)), -3, -1)
            assert (np.abs(got - want) <= bound).all(), (sa, sb)

    def test_matmul2_contracts_only_a_dimension_of_two(self):
        with pytest.raises(ValueError):
            matmul2(np.ones((4, 3, 1)), np.ones((3, 2, 1)))
        with pytest.raises(ValueError):
            matmul2(np.ones((4, 2, 1)), np.ones((3, 2, 1)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            as_cvec([np.nan, 1.0])

    def test_projective(self):
        v = _projective((2j, 1 + 0j))
        assert v[0] == 1.0  # largest magnitude becomes 1
        w = _projective((1 + 0j, -1 + 0j))
        assert w == (1.0, -1.0)  # tie broken toward the lower index
        with pytest.raises(ValueError):
            _projective((0j, 0j))


class TestSubspace:
    def test_from_spanning_truncates_rank(self):
        v = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
        s = Subspace.from_spanning(np.column_stack([v, 2 * v]))
        assert s.dim == 1

    def test_contains_and_distance(self):
        rng = _rng()
        s = Subspace.from_spanning(_cvec(rng, 4)[:, None])
        inside = s.basis[:, 0] * (2 - 1j)
        assert s.distance(inside) < 1e-12
        assert s.distance(np.zeros(4)) == 0.0

    def test_equals_is_basis_independent(self, same_span):
        rng = _rng()
        a = _cvec(rng, 4)
        b = _cvec(rng, 4)
        s1 = Subspace.from_spanning(np.column_stack([a, b]))
        s2 = Subspace.from_spanning(np.column_stack([a + b, a - 2 * b]))
        assert same_span(s1, s2)

    def test_annihilator_involution_and_dimension(self, same_span):
        rng = _rng()
        for dim in (1, 2, 3):
            s = Subspace.from_spanning(_cvec(rng, 4).reshape(4, 1) if dim == 1
                                       else _cvec(rng, 4 * dim).reshape(4, dim))
            ann = annihilator(s)
            assert ann.dim == 4 - s.dim
            assert same_span(annihilator(ann), s)
            # bilinear pairing vanishes
            assert np.abs(ann.basis.T @ s.basis).max() < 1e-10

    def test_intersection(self):
        rng = _rng()
        a, b, c = (_cvec(rng, 4) for _ in range(3))
        s1 = Subspace.from_spanning(np.column_stack([a, b]))
        s2 = Subspace.from_spanning(np.column_stack([a, c]))
        inter = intersect(s1, s2)
        assert inter.dim == 1
        assert inter.distance(a) <= 1e-8

    def test_null_space_is_the_stacked_kernel_bit_for_bit(self):
        # the one-matrix case of the stacked kernel keeps the bits of the
        # slice vh[rank:] of one SVD, signed zeros of structured inputs included
        rng = _rng()
        for i in range(300):
            rows, cols = int(rng.integers(1, 9)), int(rng.choice([2, 4, 8]))
            if i % 3 == 0:
                m = _cvec(rng, rows * cols).reshape(rows, cols)
            elif i % 3 == 1:  # near rank one
                m = np.outer(_cvec(rng, rows), _cvec(rng, cols)) + 1e-12 * _cvec(
                    rng, rows * cols).reshape(rows, cols)
            else:  # integer entries, most of them zero
                m = rng.integers(-1, 2, (rows, cols)) * (rng.random((rows, cols)) < 0.4)
            m = np.asarray(m, dtype=complex)
            _, s, vh = np.linalg.svd(m)
            want = vh[int(span_rank(s)):].conj().T
            assert _null_space(m).tobytes() == want.tobytes()
            stacked, keep = _masked_null_spaces(np.stack([m, m]), DEFAULT_EPS)
            assert stacked[1][:, keep[1]].tobytes() == want.tobytes()
            assert not stacked[1][:, ~keep[1]].any()
        assert np.array_equal(_null_space(np.zeros((0, 4))), np.eye(4))


class TestQuadraticForm:
    def test_vanishes_exactly_on_product_vectors(self):
        rng = _rng()
        x, y = _cvec(rng, 2), _cvec(rng, 2)
        assert abs(_det_form(kron(x, y))) < 1e-12
        assert abs(_det_form(kron(x, y) + kron(y, x))) > 1e-8

    def test_polarization(self):
        rng = _rng()
        u, v = _cvec(rng, 4), _cvec(rng, 4)
        lhs = _det_form(u + v) - _det_form(u) - _det_form(v)
        uv, vu = det_bilinear(u.tolist(), v.tolist()), det_bilinear(v.tolist(), u.tolist())
        assert abs(lhs - 2 * uv) < 1e-12
        assert abs(uv - vu) < 1e-12  # symmetric


class TestFactorRankOne:
    def test_product_vector_factors(self):
        rng = _rng()
        for _ in range(20):
            x, y = _cvec(rng, 2), _cvec(rng, 2)
            fx, fy = _factor(kron(x, y).tolist(), DEFAULT_EPS)
            assert np.abs(kron(fx, fy) - kron(x, y)).max() < 1e-10

    def test_rank_two_returns_none(self):
        assert _factor((kron(E1, E1) + kron(E2, E2)).tolist(), DEFAULT_EPS) is None

    def test_zero_returns_none(self):
        assert _factor([0j] * 4, DEFAULT_EPS) is None


class TestQuadraticRoots:
    def test_two_simple_roots(self):
        # (u - v)(u - 2v) = u^2 - 3uv + 2v^2
        roots = _binary_roots(1 + 0j, -3 + 0j, 2 + 0j, DEFAULT_EPS)
        assert len(roots) == 2
        for u, v in roots:
            assert abs(u * u - 3 * u * v + 2 * v * v) < 1e-12

    def test_degenerate_leading_coefficient(self):
        roots = _binary_roots(0j, 1 + 0j, -2 + 0j, DEFAULT_EPS)  # v(u - 2v)
        assert len(roots) == 2
        vals = sorted(abs(u / v) if abs(v) > 1e-9 else np.inf for u, v in roots)
        assert vals[0] == pytest.approx(2.0)

    def test_double_root_deduplicated(self):
        roots = _binary_roots(1 + 0j, -2 + 0j, 1 + 0j, DEFAULT_EPS)  # (u - v)^2
        assert len(roots) == 1

    def test_identically_zero(self):
        assert _binary_roots(0j, 0j, 0j, DEFAULT_EPS) is None

    def test_complex_coefficients(self):
        roots = _binary_roots(1 + 0j, 0j, 1 + 0j, DEFAULT_EPS)  # u^2 + v^2
        assert len(roots) == 2
        for u, v in roots:
            assert abs(u * u + v * v) < 1e-12
