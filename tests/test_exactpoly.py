import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spsys2d import exactpoly
from spsys2d.exactpoly import (
    NVARS,
    VAR_NAMES,
    Polynomial,
    SymMatrix,
    det_cofactor,
    evaluate_batch,
    int_det_bareiss,
    laplace_terms,
    point_evaluator,
    var_index,
)


def _monomial():
    return st.tuples(*[st.integers(0, 3) for _ in range(NVARS)])


def _poly():
    return st.dictionaries(_monomial(), st.integers(-20, 20), max_size=4).map(
        Polynomial
    )


def ref_evaluate_batch(poly, assignments):
    """evaluate_batch as it was: every array built on every call."""
    assignments = np.asarray(assignments)
    if assignments.dtype != object:
        assignments = assignments.astype(np.int64, copy=False)
    n = assignments.shape[0]
    if poly.is_zero() or n == 0:
        return np.zeros(n, dtype=np.int64)
    items = list(poly.terms.items())
    xmax = max(int(assignments.max()), -int(assignments.min()), 1)
    bound = sum(abs(c) for _, c in items) * xmax ** poly.degree()
    dtype = np.int64 if bound < 2**63 else object
    assignments = assignments.astype(dtype, copy=False)
    exps = np.array([e for e, _ in items], dtype=dtype)
    values = np.tile(np.array([c for _, c in items], dtype=dtype), (n, 1))
    for j in range(NVARS):
        if exps[:, j].any():
            values *= assignments[:, j][:, None] ** exps[:, j][None, :]
    return values.sum(axis=1)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(_poly(), _poly(), _poly())
    def test_add_associative_commutative(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p

    @settings(max_examples=60, deadline=None)
    @given(_poly(), _poly(), _poly())
    def test_mul_associative_distributive(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=40, deadline=None)
    @given(_poly())
    def test_additive_inverse_and_identities(self, p):
        assert p + (-p) == Polynomial.zero()
        assert p + Polynomial.zero() == p
        assert p * Polynomial.const(1) == p
        assert p * Polynomial.zero() == Polynomial.zero()

    @settings(max_examples=40, deadline=None)
    @given(_poly(), _poly())
    def test_mul_commutative(self, p, q):
        assert p * q == q * p


class TestEvaluation:
    @settings(max_examples=40, deadline=None)
    @given(_poly(), _poly(), st.lists(st.integers(-5, 5), min_size=NVARS, max_size=NVARS))
    def test_evaluation_is_ring_homomorphism(self, p, q, point):
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)

    def test_exact_big_integers(self):
        p = Polynomial.var(0)
        big = p * p * p
        assert big.evaluate([10**6] + [0] * 15) == 10**18

    @settings(max_examples=20, deadline=None)
    @given(_poly())
    def test_batch_matches_scalar(self, p):
        rng = np.random.default_rng(0)
        pts = rng.integers(-4, 5, size=(8, NVARS))
        batch = evaluate_batch(p, pts)
        for i in range(8):
            assert batch[i] == p.evaluate([int(v) for v in pts[i]])

    def test_batch_beyond_int64_is_exact(self):
        # D8 at entries in [-300, 300]: int64 arithmetic wraps the first point
        # to 998115015352438896, the exact value is -17448629058357112720
        from spsys2d.identity import d8_polynomial

        d8 = d8_polynomial()
        pts = np.random.default_rng(0).integers(-300, 301, size=(20, NVARS))
        batch = evaluate_batch(d8, pts)
        assert batch[0] == -17448629058357112720
        assert [int(v) for v in batch] == [d8.evaluate([int(x) for x in p]) for p in pts]

    def test_batch_int64_bound_is_sharp(self):
        cube = Polynomial.var(0) * Polynomial.var(0) * Polynomial.var(0)
        pts = np.zeros((2, NVARS), dtype=np.int64)
        pts[:, 0] = (2**21 - 1, -(2**21))
        batch = evaluate_batch(cube, pts)
        assert batch.dtype == object  # 2 * (2**21)**3 is not below 2**63
        assert list(batch) == [(2**21 - 1) ** 3, -(2**63)]
        assert evaluate_batch(cube, pts[:1]).dtype == np.int64

    def test_batch_takes_python_ints_beyond_int64(self):
        p = Polynomial.var(0) * 3 + Polynomial.var(1)
        pts = np.zeros((1, NVARS), dtype=object)
        pts[0, 0], pts[0, 1] = 10**30, -(10**20)
        assert evaluate_batch(p, pts)[0] == 3 * 10**30 - 10**20

    def test_batch_of_no_points(self):
        assert evaluate_batch(Polynomial.var(0), np.zeros((0, NVARS))).shape == (0,)

    def test_a_second_call_compiles_nothing(self):
        from spsys2d.identity import d8_polynomial

        d8 = d8_polynomial()
        pts = np.random.default_rng(1).integers(-9, 10, size=(20, NVARS))
        big = np.random.default_rng(1).integers(-300, 301, size=(3, NVARS))
        caches = (exactpoly._compiled, exactpoly._weight_and_degree)
        first = evaluate_batch(d8, pts), evaluate_batch(d8, big)
        before = [c.cache_info() for c in caches]
        second = evaluate_batch(d8, pts), evaluate_batch(d8, big)
        after = [c.cache_info() for c in caches]
        # both dtypes, and the bound, came from the caches
        assert [a.misses for a in after] == [b.misses for b in before]
        assert [a.hits - b.hits for a, b in zip(after, before)] == [2, 2]
        for a, b, want in zip(first, second, (np.int64, object)):
            assert a.dtype == b.dtype == want and np.array_equal(a, b)

    @settings(max_examples=20, deadline=None)
    @given(_poly())
    def test_batch_is_bit_identical_to_the_uncached_evaluation(self, p):
        pts = np.random.default_rng(2).integers(-9, 10, size=(6, NVARS))
        for a in (pts, pts * 10**5):
            got, want = evaluate_batch(p, a), ref_evaluate_batch(p, a)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()


class TestPointEvaluator:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_poly(), max_size=3),
           st.lists(st.integers(-9, 9), min_size=NVARS, max_size=NVARS))
    def test_matches_scalar_evaluation(self, polys, point):
        assert point_evaluator(polys)(point) == [p.evaluate(point) for p in polys]

    def test_low_degree_terms_and_the_zero_polynomial(self):
        x0, x3 = Polynomial.var(0), Polynomial.var(3)
        polys = [Polynomial.const(7), x3 * -2, Polynomial.zero(), x0 * x0 + Polynomial.const(1),
                 x0 * x3]
        assert point_evaluator(polys)(list(range(1, 17))) == [7, -8, 0, 2, 4]

    def test_exact_beyond_int64(self):
        from spsys2d.identity import d8_polynomial

        d8 = d8_polynomial()
        points = np.random.default_rng(0).integers(-300, 301, size=(20, NVARS)).tolist()
        values = point_evaluator([d8])
        assert values(points[0]) == [-17448629058357112720]
        assert [values(p)[0] for p in points] == [d8.evaluate(p) for p in points]

    def test_gather_reads_variables_and_zeros(self):
        m = SymMatrix([[Polynomial.var(2), Polynomial.zero()], [Polynomial.var(15)] * 2])
        assert m.gather()(list(range(10, 26))) == [[12, 0], [25, 25]]

    @pytest.mark.parametrize("entry", [Polynomial.var(0) * 2, Polynomial.const(1),
                                       Polynomial.var(0) * Polynomial.var(1)])
    def test_gather_refuses_any_other_entry(self, entry):
        with pytest.raises(ValueError, match="must be a single variable or 0"):
            SymMatrix([[Polynomial.var(0), entry]]).gather()


class TestSerialization:
    def test_zero_prints_as_zero(self):
        assert str(Polynomial.zero()) == "0"

    def test_canonical_term_order(self):
        a = Polynomial.from_name("a")
        f = Polynomial.from_name("f")
        b = Polynomial.from_name("b")
        p = 2 * (a * f * f) - b
        assert str(p) == "+2*a*f^2 -1*b"

    def test_names_round_trip(self):
        for i in range(NVARS):
            assert var_index(VAR_NAMES[i]) == i
        with pytest.raises(ValueError):
            var_index("z")

    def test_str_eval_consistency(self):
        # equal polynomials print identically
        a, b = Polynomial.from_name("a"), Polynomial.from_name("b")
        assert str((a + b) * (a - b)) == str(a * a - b * b)


def _mat(rows):
    def cell(x):
        if isinstance(x, str):
            return Polynomial.from_name(x)
        return Polynomial.const(x)

    return SymMatrix([[cell(x) for x in row] for row in rows])


class TestDeterminants:
    def test_2x2(self):
        m = _mat([["a", "b"], ["c", "d"]])
        a, b, c, d = (Polynomial.from_name(n) for n in "abcd")
        assert det_cofactor(m) == a * d - b * c

    def test_identity_and_singular(self):
        assert det_cofactor(_mat([[1, 0], [0, 1]])) == Polynomial.const(1)
        assert det_cofactor(_mat([[1, 2], [2, 4]])) == Polynomial.zero()

    def test_laplace_matches_cofactor_any_pivot(self):
        m = _mat([["a", "b", "c"], ["d", "e", "f"], ["g", "h", 3]])
        full = det_cofactor(m)
        for pivot in [(0,), (1,), (0, 1), (0, 2), (1, 2)]:
            terms = laplace_terms(m, pivot)
            assert sum((t.contribution() for t in terms), Polynomial.zero()) == full

    def test_laplace_rejects_bad_pivots(self):
        m = _mat([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            laplace_terms(m, ())
        with pytest.raises(ValueError):
            laplace_terms(m, (0, 1))
        with pytest.raises(ValueError):
            laplace_terms(m, (5,))

    def test_bareiss_against_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.integers(-9, 10, size=(5, 5))
            exact = int_det_bareiss(a.tolist())
            assert abs(exact - round(np.linalg.det(a))) < 0.5

    def test_bareiss_singular(self):
        assert int_det_bareiss([[1, 2], [2, 4]]) == 0
