"""`tensorlinalg.span_basis2`, the closed-form span of one or two columns,
against LAPACK: its singular values, `span_rank`'s rank, the orthonormality
of its columns and the columns themselves up to a phase; at every scale a
float can hold, and on the degenerate inputs, with no exception or warning."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from refs import U
from spsys2d.plane import TripleClass, canonical_beta
from spsys2d.tensorlinalg import Subspace, span_basis2, span_rank


def exact_gram_defect(cols) -> float:
    """max |<c_i, c_j> - delta_ij| over the columns, each inner product formed
    exactly in rationals, then rounded once."""
    parts = [[(Fraction(z.real), Fraction(z.imag)) for z in c] for c in cols]
    worst = 0.0
    for i, ci in enumerate(parts):
        for j, cj in enumerate(parts[i:], i):
            re = sum(a * c + b * d for (a, b), (c, d) in zip(ci, cj)) - (i == j)
            im = sum(a * d - b * c for (a, b), (c, d) in zip(ci, cj))
            worst = max(worst, float(abs(complex(re, im))))
    return worst


def phase_distance(got, want) -> float:
    """min over unit phases p of |got - p want|, for unit vectors."""
    inner = np.vdot(want, got)
    p = inner / abs(inner) if inner else 1
    return float(np.linalg.norm(got - p * want))


def draw(rng, n):
    """An n x 2 matrix whose second column is a random multiple of the first
    plus 10^U(-18, 0) of a random column, the columns in random order."""
    m = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    c = complex(rng.standard_normal(), rng.standard_normal())
    m[:, 1] = c * m[:, 0] + 10.0 ** rng.uniform(-18, 0) * m[:, 1]
    return m[:, ::-1].copy() if rng.random() < 0.5 else m


def span(m, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return span_basis2(m.T.tolist(), eps)


@pytest.mark.parametrize("n", [4, 8])
def test_the_span_is_lapacks(n):
    """sigma within 12u sigma_0 of LAPACK's; the rank `span_rank` gives on
    LAPACK's sigma wherever sigma_1 / sigma_0 is more than 16u from eps; the
    columns orthonormal within 8u (LAPACK's own reach 15u on these inputs,
    measured exactly); and column j LAPACK's up to a phase within 32u sigma_0
    / gap_j wherever gap_j > 1e-8 sigma_0, with gap_0 = sigma_0 - sigma_1 and
    gap_1 = min(sigma_0 - sigma_1, sigma_1) (the plane itself moves by u
    sigma_0 / sigma_1)."""
    rng = np.random.default_rng(n)
    for _ in range(600):
        eps = 10.0 ** rng.uniform(-18, -2)
        m = draw(rng, n) * 2.0 ** int(rng.integers(-40, 41))
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        sigma, cols = span(m, eps)
        assert np.abs(np.array(sigma) - s).max() <= 12 * U * s[0]
        if abs(s[1] / s[0] - eps) > 16 * U:
            assert len(cols) == int(span_rank(s, eps)), (s, eps)
        if not cols:
            continue
        assert exact_gram_defect(cols) <= 8 * U
        gaps = (s[0] - s[1], min(s[0] - s[1], s[1]))
        for j, col in enumerate(cols):
            if gaps[j] > 1e-8 * s[0]:
                assert phase_distance(np.array(col), u[:, j]) <= 32 * U * s[0] / gaps[j]


def test_a_tie_keeps_the_columns():
    """sigma_0 = sigma_1, as in canonical C1's beta[1, 1]: every unit vector
    of the plane is a singular vector, and the columns come back as they are."""
    b = canonical_beta(TripleClass("C1"), 1)
    sigma, cols = span(b, 1e-9)
    assert sigma == (1.0, 1.0)
    assert np.array_equal(np.array(cols).T, b)


def test_every_scale_a_float_holds():
    """M 2^k for k in [-1070, 1020]: no exception or warning, the rank of
    span_rank's relative rule (eps = 2^-1074 leaves the absolute rule
    nothing to decide), and, where scaling rounds nothing, the same columns
    bit for bit and sigma scaled exactly; where the entries underflow to a few
    bits, LAPACK's columns on that input."""
    rng = np.random.default_rng(5)
    for m in (draw(rng, 4), draw(rng, 8), rng.standard_normal((4, 2)) + 0j):
        m = m / np.abs(m).max()
        sigma_ref, cols_ref = span(m, 5e-324)
        tiny = np.abs(m.view(float))[m.view(float) != 0].min()
        for k in range(-1070, 1021, 7):
            scaled = m * 2.0 ** (k // 2) * 2.0 ** (k - k // 2)
            sigma, cols = span(scaled, 5e-324)
            u, s, _ = np.linalg.svd(scaled, full_matrices=False)
            assert len(cols) == int(span_rank(s / s[0], 5e-324)), k
            if tiny * 2.0 ** k >= 2.0 ** -1022:  # no entry lost a bit
                assert cols == cols_ref, k
                assert sigma == (sigma_ref[0] * 2.0 ** k, sigma_ref[1] * 2.0 ** k), k
            else:
                assert exact_gram_defect(cols) <= 8 * U, k
                if s[0] - s[1] > 1e-8 * s[0]:
                    gap = s[0] - s[1]
                    assert phase_distance(np.array(cols[0]), u[:, 0]) <= 32 * U * (s[0] / gap)


def test_the_degenerate_inputs():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    unit = x / np.linalg.norm(x)
    zero = np.zeros(4, dtype=complex)
    for eps in (1e-18, 1e-12, 1e-9, 1e-2):
        # a zero first or second column, or a single column: the other one
        for m in (np.column_stack([zero, x]), np.column_stack([x, zero]), x[:, None]):
            sigma, cols = span(m, eps)
            assert len(cols) == 1 and sigma[1] == 0
            assert abs(sigma[0] - np.linalg.norm(x)) <= 4 * U * sigma[0]
            assert phase_distance(np.array(cols[0]), unit) <= 4 * U
        # parallel columns: sigma_1 at rounding, rank 1 above it
        sigma, cols = span(np.column_stack([x, (2 - 3j) * x]), eps)
        assert sigma[1] <= 4 * U * sigma[0]
        if eps >= 1e-12:
            assert len(cols) == 1
        assert phase_distance(np.array(cols[0]), unit) <= 8 * U
        # the zero matrix
        assert span(np.zeros((4, 2), dtype=complex), eps) == ((0.0, 0.0), [])


def test_an_entry_whose_modulus_overflows():
    """1.5e308 + 1.5e308j has no float modulus: abs raises OverflowError.  The
    span is the one of the same matrix scaled by 2^-1023 (exact, but for the
    entries that underflow), sigma_0 reads inf, and the rest of the matrix,
    ~1e-308 of it, is below every eps: the span is the huge entry's axis."""
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    for col in (0, 1):
        big = m.copy()
        big[2, col] = 1.5e308 + 1.5e308j
        for eps in (1e-18, 1e-9):
            sigma, cols = span(big, eps)
            assert sigma[0] == np.inf
            assert cols == span(big * 2.0 ** -1023, eps)[1]
            assert len(cols) == 1 and exact_gram_defect(cols) <= 8 * U
            assert abs(abs(cols[0][2]) - 1) <= 4 * U


def test_from_spanning_takes_the_closed_form_up_to_two_columns():
    rng = np.random.default_rng(8)
    for shape in ((4, 1), (4, 2), (8, 2), (2, 2)):
        m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = Subspace.from_spanning(m).basis
        assert got.tolist() == np.array(span_basis2(m.T.tolist())[1]).T.tolist()
    # three columns go to LAPACK, as does a single row
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    assert Subspace.from_spanning(m).basis.tolist() == np.linalg.svd(
        m, full_matrices=False)[0].tolist()
    assert Subspace.from_spanning(np.array([[1.0, 2.0]])).dim == 1
    with pytest.raises(ValueError, match="non-finite"):
        Subspace.from_spanning(np.array([[np.nan, 0], [0, 1]]))
