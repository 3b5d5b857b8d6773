"""`classify_system` checks the axioms last, skips `check_axioms` when the
certificate's error bound (`systems._axioms_proved`) already decides it, and
certifies against the canonical maps without building a canonical system.

The path it replaced, axioms first and certified against `canonical_system`
(`refs.ref_classify_system`), is the reference: every outcome must be the
same, bit for bit (theta, residuals, label, lambda, rank and margin), or the
same refusal with the same message.  The bound must be sound: whenever it
says "pass", `check_axioms` passes.
"""

import math
import warnings

import numpy as np
import pytest

from refs import GRID, STRESS_GRID, bitwise_outcome, moved, ref_classify_system
from spsys2d import systems
from spsys2d.graded import GradedMorphism, extend_morphism, is_isomorphism
from spsys2d.stacks import degree_index, triple_residuals
from spsys2d.systems import (ClassifyStageError, SubproductSystem, SystemIso, SystemLabel,
                             canonical_system, check_axioms, classify_system, dualize,
                             iso_residuals, random_system)

EPSES = (1e-6, 1e-9, 1e-12)


def identity_inputs():
    """The grid at h = 6, 12, 20: one seed clean and with one entry moved by
    1e-13 to 1e-3 of the largest entry, at a pair that varies with the input;
    three more seeds clean."""
    for h in (6, 12, 20):
        pairs = degree_index(h).pairs
        for i, label in enumerate(GRID):
            sys = random_system(label, 1000 * i + h, h)
            yield sys
            scale = np.abs(sys.stack).max()
            for j, delta in enumerate((1e-13, 1e-10, 1e-7, 1e-5, 1e-3)):
                key = pairs[(7 * i + 5 * j) % len(pairs)]
                yield moved(sys, key, ((i + j) % 4, j % 2), delta * scale)
            for seed in range(3):
                yield random_system(label, 1000 * h + 10 * i + seed, h)


@pytest.fixture
def axiom_checks(monkeypatch):
    """A list that grows by one entry per `check_axioms` call of classify_system."""
    calls = []
    real = systems.check_axioms

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(systems, "check_axioms", counted)
    return calls


# --- decision identity -------------------------------------------------------

@pytest.mark.parametrize("eps", EPSES)
def test_every_outcome_is_the_canonical_system_paths_bit_for_bit(axiom_checks, eps):
    paths = set()
    for sys in identity_inputs():
        axiom_checks.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # nothing the reference does not warn about
            got = bitwise_outcome(classify_system, sys, eps)
        assert got == bitwise_outcome(ref_classify_system, sys, eps), got[:2]
        paths.add((got[0], len(axiom_checks)))
    # the bound decided, the fallback passed, and the fallback refused
    assert {("ok", 0), ("ok", 1), ("axioms", 1)} <= paths
    assert all(checks == 1 for stage, checks in paths if stage != "ok")


def test_the_bound_decides_most_calls_of_the_benchmark_grid(axiom_checks):
    """The fast path is the common path: the bound decides every call of the
    grid at h = 6 and h = 12, the E3 cells with |lambda| > 1 included."""
    for h in (6, 12):
        for i, label in enumerate(GRID):
            for seed in range(3):
                classify_system(random_system(label, 1000 * seed + 7 + i, h))
    assert axiom_checks == []


# --- the stress grid ------------------------------------------------------------

# per horizon: (inputs that pass check_axioms, calls the bound leaves to
# check_axioms); the 38 and 60 inputs that fail at h = 20 and 32 are E3 with
# |lambda| > 1, whose maps lose rank in float64: the lambda^s presentation is
# no longer injective once |lambda|^s is that large
STRESS_COUNTS = {6: (180, 0), 12: (180, 0), 20: (142, 0), 32: (120, 0)}


@pytest.mark.parametrize("h", sorted(STRESS_COUNTS))
def test_the_stress_grid_certifies_every_input_that_passes_the_axioms(axiom_checks, h):
    """18 cells x 10 seeds (`random_system(cell, 1000 seed + 7, h)`): every
    input that passes `check_axioms` classifies back to its label and lambda
    with a worst certificate residual <= 1e-11, and the number of calls that
    fall back on `check_axioms` is pinned."""
    passing = 0
    fallbacks = []
    for label in STRESS_GRID:
        for seed in range(10):
            sys = random_system(label, 1000 * seed + 7, h)
            if not check_axioms(sys).passed:
                continue
            passing += 1
            axiom_checks.clear()
            r = classify_system(sys)
            fallbacks += axiom_checks
            assert r.label.label == label.label, (label, seed)
            assert label.lam is None or abs(r.label.lam - label.lam) <= 1e-9 * abs(label.lam)
            assert max(r.residuals.values()) <= 1e-11, (label, seed)
    assert (passing, len(fallbacks)) == STRESS_COUNTS[h]


def dual_extension_inputs():
    """Every stress cell x 3 seeds at h = 12, and E2 and E3(1/2) at h = 32."""
    for label in STRESS_GRID:
        for seed in range(3):
            yield random_system(label, 1000 * seed + 7, 12)
    for label in (SystemLabel("E2"), SystemLabel("E3", 0.5)):
        yield random_system(label, 7, 32)


def test_the_duals_of_the_stress_grid_extend():
    """`extend_morphism` from the dual of the canonical system onto the dual
    of the scrambled one, from theta_1 and theta_2 of `classify_system`
    (transposed), is an isomorphism whose dual iso, from the scrambled system
    onto the canonical one, certifies within 1e-11."""
    for sys in dual_extension_inputs():
        r = classify_system(sys)
        can = canonical_system(r.label, sys.horizon)
        theta = r.iso.stack.transpose(0, 2, 1)
        m = extend_morphism(dualize(can), dualize(sys), theta[0], theta[1])
        assert isinstance(m, GradedMorphism) and is_isomorphism(m), r.label
        iso = SystemIso(m.stack.transpose(0, 2, 1))
        assert max(iso_residuals(sys, can, iso).values()) <= 1e-11, r.label


# --- soundness of the bound --------------------------------------------------

def proved(sys, eps):
    """Whether `_axioms_proved` says "pass", or None when a stage refuses."""
    try:
        return systems._certified(sys, eps)[1]
    except ClassifyStageError:
        return None


def soundness_inputs():
    """Systems near the coassociativity threshold (one entry moved by 1e-4 to
    1e4 times eps * max|beta|) and near the injectivity threshold (E3 with a
    large lambda, whose maps lose rank in float64 as the horizon grows)."""
    rng = np.random.default_rng(23)
    for i, label in enumerate(GRID):
        for h in (6, 12):
            sys = random_system(label, 500 + 10 * i + h, h)
            pairs = degree_index(h).pairs
            scale = np.abs(sys.stack).max()
            for eps in EPSES:
                for k in np.linspace(-4, 4, 9):
                    key = pairs[rng.integers(len(pairs))]
                    entry = tuple(rng.integers((4, 2)))
                    delta = 10 ** k * eps * scale * np.exp(2j * np.pi * rng.random())
                    yield moved(sys, key, entry, delta), eps
    for lam in (2 + 1j, 3, 4, 6, 8):
        for h in (6, 9, 12, 14, 16, 20):
            label = SystemLabel("E3", complex(lam))
            for eps in EPSES:
                yield canonical_system(label, h), eps
                yield random_system(label, h, h), eps


def test_the_bound_never_passes_an_input_that_check_axioms_refuses():
    verdicts = set()
    for sys, eps in soundness_inputs():
        claim = proved(sys, eps)
        passed = check_axioms(sys, eps).passed
        if claim:
            assert passed, (sys.horizon, eps)
        verdicts.add((claim, passed))
    # the inputs straddle both thresholds: the bound proved some, missed some
    # that pass, and check_axioms refused some that the certificate accepts
    assert {(True, True), (False, True), (False, False)} <= verdicts


def test_a_one_entry_break_is_never_proved_once_check_axioms_sees_it():
    """Moving one entry of beta[2, 1] by delta: the bound proves no delta that
    check_axioms refuses, and proves the small ones."""
    sys = random_system(SystemLabel("E2"), 3, 6)
    eps = 1e-9
    seen = []
    for delta in np.geomspace(1e-16, 1e-6, 41):
        broken = moved(sys, (2, 1), (0, 0), delta)
        seen.append((proved(broken, eps), check_axioms(broken, eps).passed))
    assert all(passed for claim, passed in seen if claim)
    assert seen[0] == (True, True) and not seen[-1][1]


# --- refusals that the speculative stages meet first --------------------------

def with_beta_1_1(sys, b11):
    beta = {k: b.copy() for k, b in sys.beta.items()}
    beta[(1, 1)] = np.asarray(b11, dtype=complex)
    return SubproductSystem(sys.horizon, beta)


def huge_and_rank_deficient(sys):
    """beta[1, 2] scaled by 1e200, so that theta overflows past level 2, and
    beta[2, 2] of rank one."""
    beta = {k: b.copy() for k, b in sys.beta.items()}
    beta[(1, 2)] *= 1e200
    beta[(2, 2)] = np.outer(beta[(2, 2)][:, 0], [1.0, 2.0])
    return SubproductSystem(sys.horizon, beta)


BASE = random_system(SystemLabel("E2"), 3, 6)
REFUSED_FIRST = {
    "zero column": with_beta_1_1(BASE, np.column_stack([BASE.beta[(1, 1)][:, 0], np.zeros(4)])),
    "rank one": with_beta_1_1(BASE, np.outer(BASE.beta[(1, 1)][:, 0], [1.0, -3.0])),
    "huge entries": huge_and_rank_deficient(BASE),
}
# the messages of the axioms-first order, as it printed them
REFUSAL_TEXTS = {
    "zero column": "worst associativity residual 21.8; first failing triple (1, 1, 1); "
                   "injectivity failures at [(1, 1)]",
    "rank one": "worst associativity residual 33.1; first failing triple (1, 1, 1); "
                "injectivity failures at [(1, 1)]",
    "huge entries": "worst associativity residual 1.92e+201; injectivity failures at [(2, 2)]",
}


@pytest.mark.parametrize("name", REFUSED_FIRST)
def test_an_input_that_breaks_a_speculative_stage_is_refused_at_axioms(name):
    sys = REFUSED_FIRST[name]
    want = ("axioms", f"[axioms] input fails the axioms: {REFUSAL_TEXTS[name]}")
    assert bitwise_outcome(ref_classify_system, sys, 1e-9) == want
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bitwise_outcome(classify_system, sys, 1e-9) == want


def test_any_exception_of_a_stage_defers_to_the_axioms(monkeypatch):
    """A ZeroDivisionError of the plane read is an `axioms` refusal when the
    input fails the axioms, and is raised as it is when the input passes."""
    def broken(*args):
        raise ZeroDivisionError("complex division by zero")

    monkeypatch.setattr(systems, "_read_plane", broken)
    with pytest.raises(ClassifyStageError, match=r"^\[axioms\] input fails the axioms"):
        classify_system(REFUSED_FIRST["rank one"])
    with pytest.raises(ZeroDivisionError, match="complex division by zero"):
        classify_system(BASE)


# --- the coassociativity tolerance without overflow ---------------------------

def broken_e2(**scaled):
    """Scrambled E2 at h = 6 with beta[2, 1][0, 0] += 1, then the maps named
    in `scaled` (all of them for "all") multiplied by the given factor."""
    beta = {k: b.copy() for k, b in BASE.beta.items()}
    beta[(2, 1)][0, 0] += 1
    for k in beta:
        beta[k] *= scaled.get("all", 1) * scaled.get(f"b{k[0]}{k[1]}", 1)
    return SubproductSystem(6, beta)


def test_a_broken_system_at_any_scale_fails_without_a_warning():
    """Scaled as a whole by 1e160, the products overflow float64: the old
    tolerance was inf and every residual NaN or inf, so the input passed."""
    for factor in (1.0, 1e100, 1e160, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_axioms(broken_e2(all=factor))
        assert not rep.passed and rep.first_failing_triple == (1, 1, 1)


def test_one_huge_map_is_judged_by_the_stated_tolerance_without_a_warning():
    """beta[1, 5] scaled by 1e160: the tolerance eps * max|beta|^2 (~1e313)
    is formed without overflow, and admits the break of beta[2, 1] (residual
    ~2e161), as it does at 1e100, where nothing overflows.  That tolerance is
    absolute in the largest entry of any map."""
    for factor in (1e100, 1e160):
        sys = broken_e2(b15=factor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_axioms(sys, 1e-9)
        log_scale = math.log10(np.abs(sys.stack).max())
        assert rep.passed
        assert 0 < math.log10(rep.worst_associativity_residual) < 2 * log_scale - 9
        assert not check_axioms(broken_e2(), 1e-9).passed  # the break alone


def test_the_scaled_tolerance_is_the_stated_one_where_it_does_not_overflow():
    """On stacks whose largest |entry| ranges over 0 and 1e-300 to 1e150, with
    the phase of that entry drawn: the power of two comes from the largest |Re|
    or |Im|, and the tolerance is eps * max(max|beta|^2, 1) exactly."""
    rng = np.random.default_rng(5)
    base = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    base /= np.abs(base).max()
    for scale in [0.0, 1e-300, 0.5, 1.0, 1.5, 2.0] + list(10 ** rng.uniform(-20, 150, 200)):
        stack = base * scale * np.exp(2j * np.pi * rng.random())
        big = np.abs(stack).max()
        peak = np.abs(stack.view(float)).max()
        for eps in EPSES:
            scaled, unit, scaled_big, tol = systems._scaled_tol(stack, eps)
            assert unit == 1.0 if peak < 2 else 1 <= peak * unit < 2
            assert scaled.tobytes() == (stack * unit).tobytes()
            assert scaled_big == big * unit
            assert tol / unit / unit == eps * max(big * big, 1.0)


@pytest.mark.parametrize("h", sorted(STRESS_COUNTS))
def test_the_modulus_commutes_with_the_scaling_on_the_stress_grid(h):
    """The bound takes max|beta| 2^-k from the |beta| it forms, where
    `check_axioms` takes max|beta 2^-k|: the same bits wherever |z 2^-k| is
    |z| 2^-k, entry by entry, which the libm's hypot must give.  Every system
    of the stress grid is scaled (2^-k < 1)."""
    for label in STRESS_GRID:
        for seed in range(10):
            stack = random_system(label, 1000 * seed + 7, h).stack
            unit = systems._unit(stack)
            assert unit < 1
            assert np.abs(stack * unit).tobytes() == (np.abs(stack) * unit).tobytes()
            assert systems._scaled_tol(stack, 1e-9)[2] == float(np.abs(stack).max()) * unit


def test_an_entry_whose_modulus_overflows_fails_without_a_warning():
    """beta[1, 5][0, 0] = 1.5e308 (1 + i) has finite parts but a modulus past
    the float range: the scale is taken from the parts, and the LAPACK SVD of
    beta[1, 5], which comes back NaN, is an injectivity failure."""
    beta = {k: b.copy() for k, b in broken_e2().beta.items()}
    beta[(1, 5)][0, 0] = 1.5e308 + 1.5e308j
    sys = SubproductSystem(6, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_axioms(sys)
        with pytest.raises(ClassifyStageError, match=r"^\[axioms\] input fails the axioms"):
            classify_system(sys)
    assert not rep.passed and rep.injectivity_failures == ((1, 5),)


def test_check_axioms_residuals_are_the_unscaled_ones_bit_for_bit():
    for i, label in enumerate(GRID):
        sys = random_system(label, i, 12)
        rep = check_axioms(sys)
        worst = triple_residuals(sys.stack, degree_index(12)).max()
        assert rep.worst_associativity_residual == worst
