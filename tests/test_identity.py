import time

import numpy as np
import pytest

from spsys2d.exactpoly import (
    NVARS,
    Polynomial,
    det_cofactor,
    evaluate_batch,
    int_det_bareiss,
    laplace_terms,
)
from spsys2d.identity import (
    APPENDIX_PIVOT_ROWS,
    d4_polynomial,
    d8_polynomial,
    det8_matrix,
    main_identity_residual,
    quad_coeffs,
    resultant4,
    surviving_laplace_terms,
)


def _v(name):
    return Polynomial.from_name(name)


class TestMainIdentity:
    def test_residual_is_zero_polynomial(self):
        assert main_identity_residual() == Polynomial.zero()

    def test_d8_shape(self):
        d8 = d8_polynomial()
        assert d8.degree() == 8
        assert len(d8) > 0

    def test_d8_equals_cofactor_expansion(self):
        assert d8_polynomial() == det_cofactor(det8_matrix())

    def test_pivot_set_invariance(self):
        m = det8_matrix()
        base = d8_polynomial()
        for pivot in [(0, 1), (4, 5, 6, 7), (0, 2, 4, 6)]:
            terms = laplace_terms(m, pivot)
            assert sum((t.contribution() for t in terms), Polynomial.zero()) == base


class TestAppendixStructure:
    def test_exactly_18_terms_survive(self):
        assert len(surviving_laplace_terms()) == 18

    def test_corner_minor_factorization(self):
        a, b, c, d, e, f, g, h = (_v(n) for n in "abcdefgh")
        want = (a * f - b * e) * (c * h - d * g)
        by_cols = {t.cols: t for t in surviving_laplace_terms()}
        assert by_cols[(1, 2, 7, 8)].minor == want
        assert by_cols[(3, 4, 5, 6)].minor == want

    def test_term_sum_reconstructs_d8(self):
        total = Polynomial.zero()
        for t in surviving_laplace_terms():
            total = total + t.contribution()
        assert total == d8_polynomial()

    def test_s_plus_identity(self):
        # among the 16 mixed terms, the positive ones (odd 1-based column sum)
        # combine into pqQR + qrPQ
        lo = quad_coeffs([_v(n) for n in "abcd"], [_v(n) for n in "efgh"])
        hi = quad_coeffs([_v(n) for n in "ABCD"], [_v(n) for n in "EFGH"])
        corner = {(1, 2, 7, 8), (3, 4, 5, 6)}
        s_plus = Polynomial.zero()
        for t in surviving_laplace_terms():
            if t.cols in corner or sum(t.cols) % 2 == 0:
                continue
            s_plus = s_plus + t.contribution()
        want = lo.p * lo.q * hi.q * hi.r + lo.q * lo.r * hi.p * hi.q
        assert s_plus == want

    def test_pr_minus_q1q2_identity(self):
        a, b, c, d, e, f, g, h = (_v(n) for n in "abcdefgh")
        lo = quad_coeffs([a, b, c, d], [e, f, g, h])
        want = (c * h - d * g) * (a * f - b * e)
        assert lo.p * lo.r - lo.q1 * lo.q2 == want

    def test_quad_coeff_split(self):
        lo = quad_coeffs([_v(n) for n in "abcd"], [_v(n) for n in "efgh"])
        assert lo.q == lo.q1 + lo.q2

    def test_appendix_pivot_rows(self):
        assert APPENDIX_PIVOT_ROWS == (0, 1, 2, 3)


class TestResultant:
    def test_resultant_of_shared_root_vanishes(self):
        # (u - 2v)(u - 3v) and (u - 2v)(u - 5v) share the root (2:1)
        p, q, r = 1, -5, 6
        P, Q, R = 1, -7, 10
        poly = resultant4(*[Polynomial.const(x) for x in (p, q, r, P, Q, R)])
        assert poly == Polynomial.zero()

    def test_resultant_of_coprime_forms_nonzero(self):
        poly = resultant4(*[Polynomial.const(x) for x in (1, 0, 1, 1, 0, -1)])
        assert poly != Polynomial.zero()


class TestOracle:
    def test_1000_random_evaluations_match_oracle(self):
        start = time.monotonic()
        d8 = d8_polynomial()
        d4 = d4_polynomial()
        m8 = det8_matrix()
        rng = np.random.default_rng(2024)
        pts = rng.integers(-9, 10, size=(1000, NVARS))
        vals8 = evaluate_batch(d8, pts)
        vals4 = evaluate_batch(d4, pts)
        assert np.array_equal(vals8, -vals4)
        for i in range(0, 1000, 37):  # exact scalar cross-check on a stride
            point = [int(v) for v in pts[i]]
            assert int(vals8[i]) == int_det_bareiss(m8.evaluate(point))
        elapsed = time.monotonic() - start
        assert elapsed < 5.0

    def test_full_oracle_agreement_small_sample(self):
        d8 = d8_polynomial()
        m8 = det8_matrix()
        rng = np.random.default_rng(7)
        for _ in range(25):
            point = [int(v) for v in rng.integers(-9, 10, size=NVARS)]
            assert d8.evaluate(point) == int_det_bareiss(m8.evaluate(point))
