"""The plane read in closed form against the SVD read it replaced, the rank-1
read of a plane from its normal form, the determinant form as one matrix,
and equality of the result and data types."""

import decimal
import itertools

import numpy as np
import pytest

from refs import GRID_LAMBDAS, U
from spsys2d.classify import canonical_triple, classify_triple
from spsys2d.graded import GradedMorphism, automorphism_description, catalog
from spsys2d.identity import quad_coeffs
from spsys2d.plane import (
    Classification,
    NotSubproductTripleError,
    TripleClass,
    TripleIso,
    _normal_form,
    _plane_form,
    _read_plane,
    canonical_beta,
    rank_of_plane,
)
from spsys2d.stacks import degree_index
from spsys2d.systems import (
    SystemLabel,
    canonical_system,
    check_axioms,
    classify_system,
    dualize,
)
from spsys2d.tensorlinalg import (
    DEFAULT_EPS,
    DET_FORM,
    E1,
    E2,
    FRAME_TOL,
    I2,
    ZERO_SCALE,
    Subspace,
    _factor,
    det_bilinear,
    kron,
    residual_tol,
    singular_values2,
)

# the benchmark's E3 lambda grid, and |lambda| at 1e-2 and 1e2
LAMBDAS = GRID_LAMBDAS + (1e-2, -1e-2j, 1e2, 1e2j)
BANDS = (0.0, 0.3, 1.0, 3.0, 5.0)  # y (x) y component, in units of residual_tol
EPS = (1e-6, 1e-9, 1e-12)


# --- reference: the SVD-based plane read that the closed forms replaced ------

def ref_projective(v, eps=1e-9):
    v = np.asarray(v, dtype=complex).reshape(-1)
    mags = np.abs(v)
    peak = mags.max()
    if peak == 0:
        raise ValueError("cannot normalize the zero vector")
    idx = int(np.nonzero(mags >= peak * (1 - eps))[0][0])
    return v / v[idx]


def ref_projective_cross(u, v):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return float(abs(u[0] * v[1] - u[1] * v[0]) / (nu * nv))


def ref_factor(v, eps=1e-9):
    u, s, vh = np.linalg.svd(np.asarray(v, dtype=complex).reshape(2, 2))
    if s[0] == 0 or s[1] > eps * s[0]:
        return None
    return u[:, 0] * s[0], vh[0]


def ref_binary_roots(p, q, r, eps):
    """The roots as a tuple of arrays, or None for the identically zero form."""
    p, q, r = complex(p), complex(q), complex(r)
    scale = max(abs(p), abs(q), abs(r))
    if scale < ZERO_SCALE:
        return None
    tol = eps * scale
    raw = []
    if abs(p) <= tol:
        raw.append(np.array([1.0, 0.0], dtype=complex))
        if abs(q) > tol:
            raw.append(np.array([-r, q], dtype=complex))
    else:
        sq = np.sqrt(complex(q * q - 4 * p * r))
        raw.append(np.array([-q + sq, 2 * p], dtype=complex))
        raw.append(np.array([-q - sq, 2 * p], dtype=complex))
    roots = []
    for cand in raw:
        if np.abs(cand).max() <= tol:
            continue
        n = ref_projective(cand)
        if any(ref_projective_cross(n, seen) <= eps for seen in roots):
            continue
        roots.append(n)
    return tuple(roots)


def ref_completion(x):
    x = x / np.linalg.norm(x)
    return np.array([-np.conj(x[1]), np.conj(x[0])], dtype=complex)


def ref_form_rank(g, eps):
    s = np.linalg.svd(g, compute_uv=False)
    thr = eps * max(1.0, float(s[0]))
    rank = int(np.sum(s > thr))
    ratios = [sv / thr for sv in s if sv > 0]
    return rank, float(min((max(r, 1 / r) for r in ratios), default=np.inf))


def ref_normal_form(plane, eps):
    """(rank, margin, (x1, y1), (x2, y2), case_tag) by SVDs and a 4x4 solve."""
    g = plane.basis.T @ DET_FORM @ plane.basis
    rank, margin = ref_form_rank(g, eps)
    loose = residual_tol(eps)
    if rank == 2:
        roots = ref_binary_roots(g[0, 0], 2 * g[0, 1], g[1, 1], eps)
        if roots is None or len(roots) != 2:
            raise NotSubproductTripleError("restricted form is degenerate at rank 2")
        products = []
        for ab in roots:
            factors = ref_factor(plane.basis @ ab, loose)
            if factors is None:
                raise NotSubproductTripleError("isotropic direction failed the rank-1 test")
            products.append(factors)
        (x1, x2), (y1, y2) = products
        return rank, margin, (x1, y1), (x2, y2), None
    if rank == 1:
        _, _, vh = np.linalg.svd(g)
        psi = plane.basis @ vh[1].conj()
        xi = plane.basis @ vh[0].conj()
        factors = ref_factor(psi, loose)
        if factors is None:
            raise NotSubproductTripleError("rank-1 product direction failed the rank-1 test")
        x1, x2 = factors
        y1c, y2c = ref_completion(x1), ref_completion(x2)
        frame = kron(np.column_stack([x1, y1c]), np.column_stack([x2, y2c]))
        _, beta, gamma, delta = np.linalg.solve(frame, xi)
        scale = max(abs(beta), abs(gamma))
        if scale <= loose or abs(delta) > loose * max(1.0, scale):
            raise NotSubproductTripleError("plane does not fit the rank-1 normal form")
        return rank, margin, (x1, gamma * y1c), (x2, beta * y2c), None
    f1 = ref_factor(plane.basis[:, 0], loose)
    f2 = ref_factor(plane.basis[:, 1], loose)
    if f1 is None or f2 is None:
        raise NotSubproductTripleError("rank-0 plane contains a non-product vector")
    (u1, v1), (u2, v2) = f1, f2
    left_score, right_score = ref_projective_cross(v1, v2), ref_projective_cross(u1, u2)
    if min(left_score, right_score) > loose:
        raise NotSubproductTripleError("rank-0 plane is not of the left or right form")
    if left_score <= right_score:
        x2 = ref_projective(v1)
        return rank, margin, (u1, u2), (x2, ref_completion(x2)), "left"
    x1 = ref_projective(u1)
    return rank, margin, (x1, ref_completion(x1)), (v1, v2), "right"


def ref_theta_from_columns(x, y):
    frame = np.column_stack([x, y])
    if abs(np.linalg.det(frame)) < FRAME_TOL * np.linalg.norm(frame) ** 2:
        raise NotSubproductTripleError("degenerate basis while building theta")
    return np.linalg.inv(frame)


def ref_classify_plane(plane, eps):
    """classify_plane as it was: three SVDs, a 4x4 solve, det and inv."""
    rank, margin, (x1, y1), (x2, y2), tag = ref_normal_form(plane, eps)
    loose = residual_tol(eps)
    if rank == 2:
        if ref_projective_cross(x1, x2) <= loose and ref_projective_cross(y1, y2) <= loose:
            cls, theta = TripleClass("C1"), ref_theta_from_columns(x1, y1)
        elif ref_projective_cross(x2, y1) <= loose and ref_projective_cross(y2, x1) <= loose:
            cls, theta = TripleClass("C2"), ref_theta_from_columns(x1, x2)
        else:
            raise NotSubproductTripleError(
                "rank-2 product directions pair neither straight nor crossed")
    elif rank == 1:
        if not ref_projective_cross(x1, x2) <= loose:
            raise NotSubproductTripleError(
                "rank-1 product direction does not have identical factors")
        x = x1 / np.linalg.norm(x1)
        theta = ref_theta_from_columns(x, ref_completion(x))
        c = np.vdot(x1, x2) / np.vdot(x1, x1)
        yx_coeff = c * (theta @ y1)[1]
        xy_coeff = (theta @ y2)[1]
        if abs(yx_coeff) <= loose * abs(xy_coeff):
            raise NotSubproductTripleError("rank-1 plane lambda is unbounded")
        cls = TripleClass("C3", complex(xy_coeff / yx_coeff))
    else:
        cls = TripleClass("C4" if tag == "left" else "C5")
        x = x2 if tag == "left" else x1
        x = x / np.linalg.norm(x)
        theta = ref_theta_from_columns(x, ref_completion(x))
    return Classification(cls, TripleIso(theta=theta), rank, margin)


def ref_frame_solve_read(plane, eps):
    """The parent read with the rank-1 branch it had before reading lambda
    from the normal form: a second frame (x, y), a 4x4 solve, a 3x2 SVD and
    a second y (x) y test."""
    rank, margin, (x1, _), (x2, _), _ = ref_normal_form(plane, eps)
    if rank != 1:
        return ref_classify_plane(plane, eps)
    loose = residual_tol(eps)
    if not ref_projective_cross(x1, x2) <= loose:
        raise NotSubproductTripleError(
            "rank-1 product direction does not have identical factors"
        )
    x = x1 / np.linalg.norm(x1)
    y = ref_completion(x)
    frame = np.column_stack([kron(x, x), kron(x, y), kron(y, x), kron(y, y)])
    coords = np.linalg.solve(frame, plane.basis)
    sub = coords[1:, :]
    _, _, vh_ = np.linalg.svd(sub)
    xy_coeff, yx_coeff, yy_coeff = sub @ vh_[0].conj()
    if abs(yy_coeff) > loose * max(abs(xy_coeff), abs(yx_coeff)):
        raise NotSubproductTripleError("rank-1 plane has a y(x)y component")
    if abs(yx_coeff) <= loose * abs(xy_coeff):
        raise NotSubproductTripleError("rank-1 plane lambda is unbounded")
    theta = ref_theta_from_columns(x, y)
    return Classification(TripleClass("C3", complex(xy_coeff / yx_coeff)),
                          TripleIso(theta), rank, margin)


def _outcome(read, plane, eps):
    """The classification, or the type and message of the refusal."""
    try:
        return read(plane, eps)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def diagonal_unitary_defect(theta, ref_theta):
    """How far theta @ inv(ref_theta) is from a diagonal unitary: its largest
    off-diagonal |entry| or deviation of a diagonal modulus from 1."""
    d = theta @ np.linalg.inv(ref_theta)
    return max(abs(d[0, 1]), abs(d[1, 0]), abs(abs(d[0, 0]) - 1), abs(abs(d[1, 1]) - 1))


def e3_planes():
    """(lambda, eps, band, plane): the canonical E3 plane, with a y (x) y
    component of band * residual_tol(eps), as is and scrambled by g (x) g."""
    rng = np.random.default_rng(2024)
    for lam, eps, band in itertools.product(LAMBDAS, EPS, BANDS):
        phase = np.exp(2j * np.pi * rng.random())
        second = kron(E2, E1) + lam * kron(E1, E2) + band * residual_tol(eps) * phase * kron(E2, E2)
        basis = np.column_stack([kron(E1, E1), second])
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for m in (I2, g):
            yield lam, eps, band, Subspace.from_spanning(kron(m, m) @ basis, eps=eps)


class TestRankOneRead:
    def test_matches_the_frame_solve_read(self):
        verdicts = set()
        for lam, eps, band, plane in e3_planes():
            got = _outcome(lambda p, e: _read_plane(p.basis.T.tolist(), e), plane, eps)
            want = _outcome(ref_frame_solve_read, plane, eps)
            if isinstance(want, str):
                assert got == want, (lam, eps, band)
                verdicts.add(want)
                continue
            assert not isinstance(got, str), (lam, eps, band, got)
            assert got.label.label == want.label.label, (lam, eps, band)
            assert got.rank == want.rank
            # on a plane off the normal form the two reads project differently
            bound = max(1e-12, 0.1 * band * residual_tol(eps))
            # theta_1 follows the phase rule, the SVD's phases did not; the two
            # reads round differently, and cond(theta_1) amplifies that
            defect = diagonal_unitary_defect(got.iso.theta, want.iso.theta)
            assert defect <= max(bound, 1e-10 * np.linalg.cond(want.iso.theta))
            verdicts.add(got.label.label)
            if got.label.lam is None:
                continue
            drift = abs(got.label.lam - want.label.lam) / abs(want.label.lam)
            assert drift <= bound, (lam, eps, band, drift)
        # the bands reach past every rank-1 refusal into rank 2
        assert "C3" in verdicts and len(verdicts) >= 3, verdicts

    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    def test_canonical_plane_reads_its_lambda(self, lam):
        e2 = canonical_triple(TripleClass("C3", lam)).E2
        got = _read_plane(e2.basis.T.tolist(), DEFAULT_EPS)
        assert got.label.label == "C3"
        assert abs(got.label.lam - lam) <= 1e-12 * abs(lam)


def perturbed_planes(n):
    """(eps, delta, plane), eps cycling through EPS: every fifth plane is a
    random plane (delta None); the others are the canonical plane of a
    random class, scrambled by g (x) g and perturbed by delta relative."""
    rng = np.random.default_rng(11)
    fixed = [TripleClass(c) for c in ("C1", "C2", "C4", "C5")]
    for k in range(n):
        eps = EPS[k % 3]
        if k % 5 == 0:
            m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            yield eps, None, Subspace.from_spanning(m, eps=eps)
            continue
        c = rng.integers(0, 6)
        if c < 4:
            cls = fixed[c]
        elif c == 4:  # |lambda| log-uniform in [1e-2, 1e2], any phase
            cls = TripleClass("C3", complex(10 ** rng.uniform(-2, 2) * np.exp(2j * np.pi * rng.random())))
        else:
            cls = TripleClass("C3", complex(LAMBDAS[rng.integers(0, len(LAMBDAS))]))
        delta = (0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3)[rng.integers(0, 6)]
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = kron(g, g) @ canonical_beta(cls, 1)
        b = b + delta * np.abs(b).max() * (rng.standard_normal((4, 2))
                                           + 1j * rng.standard_normal((4, 2)))
        yield eps, delta, Subspace.from_spanning(b, eps=eps)


def assert_same_read(plane, eps, lam_tol, theta_tol):
    """The closed-form read against the SVD read: the same refusal, type and
    message, or the same rank and label, lambda within lam_tol relative, and
    theta_1 a diagonal unitary times the reference's, within theta_tol times
    cond(theta_1).  Returns the verdict."""
    got = _outcome(lambda p, e: _read_plane(p.basis.T.tolist(), e), plane, eps)
    want = _outcome(ref_classify_plane, plane, eps)
    if isinstance(want, str):
        assert got == want
        return want
    assert not isinstance(got, str), got
    assert (got.rank, got.label.label) == (want.rank, want.label.label)
    if want.label.lam is not None:
        assert abs(got.label.lam - want.label.lam) <= lam_tol * abs(want.label.lam)
    defect = diagonal_unitary_defect(got.iso.theta, want.iso.theta)
    assert defect <= theta_tol * np.linalg.cond(want.iso.theta)
    return want.label.label


def exact_singular_values(m):
    """(s0, s1) of a 2x2 complex matrix of floats, to 100 digits (decimal)."""
    with decimal.localcontext(decimal.Context(prec=100)):
        re = [[decimal.Decimal(float(z.real)) for z in row] for row in m]
        im = [[decimal.Decimal(float(z.imag)) for z in row] for row in m]
        f2 = sum(re[i][j] ** 2 + im[i][j] ** 2 for i in range(2) for j in range(2))
        det_re = (re[0][0] * re[1][1] - im[0][0] * im[1][1]
                  - re[0][1] * re[1][0] + im[0][1] * im[1][0])
        det_im = (re[0][0] * im[1][1] + im[0][0] * re[1][1]
                  - re[0][1] * im[1][0] - im[0][1] * re[1][0])
        p2 = det_re ** 2 + det_im ** 2
        if f2 == 0:
            return 0.0, 0.0
        s0 = ((f2 + (f2 * f2 - 4 * p2).sqrt()) / 2).sqrt()
        return float(s0), float(p2.sqrt() / s0)


def svd_inputs():
    """2x2 complex matrices: random, near a multiple of a unitary (s0 ~ s1),
    near-singular, exactly rank 1, zero, and scaled by 1e150 and 1e-150."""
    rng = np.random.default_rng(7)
    yield np.zeros((2, 2), dtype=complex)
    for k in range(1500):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        kind = k % 5
        if kind == 1:
            q, _ = np.linalg.qr(m)
            m = q * (1 + 1e-9 * rng.standard_normal())
        elif kind == 2:
            m[1] = m[0] * (1 + 1e-10j) + 10.0 ** rng.integers(-16, -3) * rng.standard_normal(2)
        elif kind == 3:
            m = np.outer(m[:, 0], m[1])
        yield m * 10.0 ** rng.choice([-150, 0, 150])


def unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


class TestClosedFormRead:
    def test_canonical_planes_read_as_before(self):
        classes = [TripleClass(c) for c in ("C1", "C2", "C4", "C5")]
        classes += [TripleClass("C3", complex(lam)) for lam in LAMBDAS]
        for cls, eps in itertools.product(classes, EPS):
            plane = canonical_triple(cls, eps).E2
            assert assert_same_read(plane, eps, 1e-12, 1e-12) == cls.label

    def test_e3_planes_read_as_before(self):
        verdicts = set()
        for _, eps, band, plane in e3_planes():
            bound = max(1e-12, 0.1 * band * residual_tol(eps))
            verdicts.add(assert_same_read(plane, eps, bound, max(bound, 1e-10)))
        assert "C3" in verdicts and len(verdicts) >= 3, verdicts

    def test_random_and_perturbed_planes_read_as_before(self):
        """9,000 planes, 3,000 at each eps.  Off the normal form (delta > 0)
        the two reads round and project differently, by O(delta)."""
        verdicts = set()
        for eps, delta, plane in perturbed_planes(9000):
            delta = delta or 0.0
            verdicts.add(assert_same_read(plane, eps, max(1e-12, 10 * delta),
                                          max(1e-12, 1e3 * delta)))
        assert {"C1", "C2", "C3", "C4", "C5"} <= verdicts
        assert sum(v.startswith("NotSubproductTripleError") for v in verdicts) >= 2, verdicts

    def test_singular_values_are_pinned(self):
        """Within 5u*s0 of the exact values; LAPACK is itself up to ~7.4u*s0
        off on these matrices, so against np.linalg.svd the bound is 12u*s0."""
        for m in svd_inputs():
            got = singular_values2(*m.ravel().tolist())
            exact = exact_singular_values(m)
            lapack = np.linalg.svd(m, compute_uv=False)
            assert got[0] >= got[1] >= 0
            assert max(abs(got[0] - exact[0]), abs(got[1] - exact[1])) <= 5 * U * exact[0]
            assert max(abs(got[0] - lapack[0]), abs(got[1] - lapack[1])) <= 12 * U * lapack[0]

    def test_makes_no_linalg_call(self, monkeypatch):
        rng = np.random.default_rng(5)
        planes = []
        for label in ("C1", "C2", "C3", "C4", "C5"):
            cls = TripleClass(label, 2 + 1j if label == "C3" else None)
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = canonical_beta(cls, 1)
            planes += [Subspace.from_spanning(b), Subspace.from_spanning(kron(g, g) @ b)]
        calls = []
        for name in dir(np.linalg):
            real = getattr(np.linalg, name)
            if name.startswith("_") or isinstance(real, type) or not callable(real):
                continue

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        ranks = []
        for plane in planes:
            ranks.append(_read_plane(plane.basis.T.tolist(), DEFAULT_EPS).rank)
            u, v, g = _plane_form(plane.basis.T.tolist())
            _normal_form(u, v, g, rank_of_plane(plane), DEFAULT_EPS)
        assert sorted(set(ranks)) == [0, 1, 2]
        assert calls == []

    def test_theta_follows_the_phase_rule(self):
        """Each column of theta_1^-1 has its largest entry real and positive,
        so rephasing the plane's basis (the freedom LAPACK has in
        `Subspace.from_spanning`) leaves theta_1 and lambda unchanged.  A
        rank-2 plane may list its two product directions in the other order,
        which permutes the rows of theta_1 (and, for C2, scales them)."""
        rng = np.random.default_rng(8)
        for label in ("C1", "C2", "C3", "C4", "C5"):
            cls = TripleClass(label, 0.5 - 2j if label == "C3" else None)
            for _ in range(5):
                g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                plane = Subspace.from_spanning(kron(g, g) @ canonical_beta(cls, 1))
                ref = _read_plane(plane.basis.T.tolist(), DEFAULT_EPS)
                frame = np.linalg.inv(ref.iso.theta)
                peaks = frame[np.abs(frame).argmax(axis=0), [0, 1]]
                assert np.all(np.abs(peaks.imag) <= 1e-12 * peaks.real)  # inv rounds
                for _ in range(3):
                    phases = np.exp(2j * np.pi * rng.random(2))
                    got = _read_plane((plane.basis * phases).T.tolist(), DEFAULT_EPS)
                    tol = 1e-12 * np.linalg.cond(ref.iso.theta)
                    if label in ("C1", "C2"):
                        want = unit_rows(ref.iso.theta)
                        assert min(np.abs(unit_rows(got.iso.theta) - want[rows]).max()
                                   for rows in ([0, 1], [1, 0])) <= tol, label
                    else:
                        scale = np.abs(ref.iso.theta).max()
                        assert np.abs(got.iso.theta - ref.iso.theta).max() <= tol * scale
                    if label == "C3":
                        assert abs(got.label.lam - ref.label.lam) <= 1e-12 * abs(ref.label.lam)

    def test_factor_fixes_the_phase_of_y(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            x, y = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
            fx, fy = map(np.array, _factor(kron(x, y).tolist(), DEFAULT_EPS))
            assert np.abs(kron(fx, fy) - kron(x, y)).max() <= 1e-14 * np.abs(kron(x, y)).max()
            assert abs(np.linalg.norm(fy) - 1) <= 1e-15
            k = np.abs(fy).argmax()
            assert fy[k].imag == 0 and fy[k].real > 0


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
            g = _plane_form(b.T.tolist())[2]  # (g00, g01, g11), as the plane read forms it
            assert np.abs(np.array(g) - want[[0, 0, 1], [0, 1, 1]]).max() <= 1e-15

    def test_quadratic_form_is_exact_on_small_integers(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            u = rng.integers(-9, 10, 4) + 1j * rng.integers(-9, 10, 4)
            v = rng.integers(-9, 10, 4) + 1j * rng.integers(-9, 10, 4)
            assert det_bilinear(v.tolist(), v.tolist()) == v[0] * v[3] - v[1] * v[2]
            assert det_bilinear(u.tolist(), v.tolist()) == (
                u[0] * v[3] + u[3] * v[0] - u[1] * v[2] - u[2] * v[1]) / 2

    def test_wrong_dimension_is_refused(self):
        """The form is read only on a 2-dim plane of C^4, where `_plane_form`
        forms it; any other subspace is refused before `det_bilinear` runs."""
        with pytest.raises(ValueError, match="4-dim ambient"):
            rank_of_plane(Subspace.from_spanning(np.eye(8)[:, :2]))
        with pytest.raises(ValueError, match="4-dim ambient"):
            _read_plane(Subspace.from_spanning(np.eye(4)[:, :1]).basis.T.tolist(), DEFAULT_EPS)


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
    "GradedMorphism": lambda: GradedMorphism(_ALGEBRA, _ALGEBRA,
                                             {t: I2 for t in range(1, 5)}),
    "AutomorphismFamily": lambda: automorphism_description("D2"),
    "DegreeIndex": lambda: degree_index(4),
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
