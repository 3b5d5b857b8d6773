"""Per-layer measurement: an in-memory tracer, a traced replay of the
classification pipeline, and timed probes of the public functions of each
layer (module) of spsys2d.

Spans are recorded here, around calls into the library; the library itself
is not instrumented.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

from spsys2d import cli, serialize
from spsys2d.classify import classify_triple, extend_left, extend_right
from spsys2d.exactpoly import NVARS, evaluate_batch, int_det_bareiss
from spsys2d.graded import (
    check_image_condition,
    check_kernel_condition,
    extend_morphism,
    is_isomorphism,
)
from spsys2d.identity import (
    d4_polynomial,
    d8_polynomial,
    det8_matrix,
    main_identity_residual,
    surviving_laplace_terms,
)
from spsys2d.systems import (
    ClassifyStageError,
    SystemIso,
    SystemLabel,
    canonical_system,
    check_axioms,
    dualize,
    iso_residuals,
    random_system,
    triple_of_system,
)
from spsys2d.tensorlinalg import DEFAULT_EPS, Subspace, annihilator, intersect, kron

from workloads import CLI_COMMANDS, REFUSAL_STAGES, Case, cli_ops

# per-layer metric -> (end-to-end metric it should move, workload it moves on)
MOVES = {
    "systems.check_axioms.ms": ("latency_ms_p50", "roundtrip-h12"),
    "graded.check_kernel_condition.ms": ("latency_ms_p50", "roundtrip-h12"),
    "graded.check_image_condition.ms": ("latency_ms_p50", "roundtrip-h12"),
    "graded.extend_morphism.ms": ("latency_ms_p50", "roundtrip-h12"),
    "systems.axiom_triples": ("latency_ms_p50", "roundtrip-h12"),
    "graded.image_bytes_computed": ("peak_rss_mib", "roundtrip-h12"),
    "classify.classify_triple.ms": ("latency_ms_p50", "roundtrip-h6"),
    "systems.triple_of_system.ms": ("latency_ms_p50", "roundtrip-h6"),
    "systems.iso_residuals.ms": ("latency_ms_p50", "roundtrip-h6"),
    "systems.dualize.ms": ("latency_ms_p50", "roundtrip-h6"),
    "systems.canonical_system.ms": ("latency_ms_p50", "roundtrip-h6"),
    "graded.is_isomorphism.ms": ("latency_ms_p50", "roundtrip-h6"),
    "tensorlinalg.kron.us": ("latency_ms_p50", "roundtrip-h6"),
    "tensorlinalg.from_spanning.us": ("latency_ms_p50", "roundtrip-h6"),
    "tensorlinalg.intersect.us": ("latency_ms_p50", "roundtrip-h6"),
    "tensorlinalg.annihilator.us": ("latency_ms_p50", "roundtrip-h6"),
    **{f"systems.fail.{stage}": ("success_share", "roundtrip-h12")
       for stage in REFUSAL_STAGES},
    "identity.main_identity_residual.ms": ("latency_ms_p50", "cli-exact"),
    "identity.d8_polynomial.ms": ("latency_ms_p50", "cli-exact"),
    "identity.d4_polynomial.ms": ("latency_ms_p50", "cli-exact"),
    "exactpoly.evaluate.us": ("latency_ms_p50", "cli-exact"),
    "exactpoly.evaluate_batch.us": ("latency_ms_p50", "cli-exact"),
    "exactpoly.int_det_bareiss.us": ("latency_ms_p50", "cli-exact"),
    "exactpoly.laplace_surviving_ratio": ("latency_ms_p50", "cli-exact"),
    "serialize.from_json.ms": ("latency_ms_p50", "cli-exact"),
    "serialize.dumps_canonical.ms": ("latency_ms_p50", "cli-exact"),
    **{f"cli.main.{command}.ms": ("latency_ms_p50", "cli-exact")
       for command in CLI_COMMANDS},
    "cli.import.ms": ("latency_ms_p50", "cli-exact"),
    "systems.random_system.ms": ("setup_s", "all"),
    "trace.overhead_ms": ("latency_ms_p50", "all"),
}


class Tracer:
    """Spans kept in memory: name, start, end, parent span and operation id."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op = None
        self._open: list[int] = []

    def call(self, name: str, fn, *args):
        parent = self._open[-1] if self._open else None
        span = [name, perf_counter(), None, parent, self.op]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        rows = [{"name": n, "start": start - self.origin, "end": end - self.origin,
                 "parent": parent, "op": op}
                for n, start, end, parent, op in self.spans]
        path.write_text(json.dumps(rows), encoding="utf-8")


def replay(case: Case, t: Tracer, eps: float = DEFAULT_EPS):
    """classify_system and its certification, one span per stage call, in the
    order classify_system composes the stages."""
    system = case.system
    report = t.call("systems.check_axioms", check_axioms, system, eps)
    if not report.passed:
        raise ClassifyStageError("axioms", f"input fails the axioms: {report}")
    triple = t.call("systems.triple_of_system", triple_of_system, system, eps)
    try:
        cls, tri_iso = t.call("classify.classify_triple", classify_triple, triple, eps)
    except ValueError as exc:
        raise ClassifyStageError("classify-triple", str(exc)) from exc
    label = SystemLabel.from_triple_class(cls)
    canonical = t.call("systems.canonical_system", canonical_system, label, system.horizon)
    g_sys = t.call("systems.dualize", dualize, system)
    g_can = t.call("systems.dualize", dualize, canonical)
    theta1 = tri_iso.theta.T
    theta2 = g_sys.M[(1, 1)] @ np.kron(theta1, theta1) @ np.linalg.pinv(g_can.M[(1, 1)])
    try:
        morphism = t.call("graded.extend_morphism", extend_morphism,
                          g_can, g_sys, theta1, theta2, eps)
    except ValueError as exc:
        raise ClassifyStageError("extend-morphism", str(exc)) from exc
    if not t.call("graded.is_isomorphism", is_isomorphism, morphism, eps):
        raise ClassifyStageError("extend-morphism", "extended morphism is singular")
    iso = SystemIso(theta={k: m.T.copy() for k, m in morphism.theta.items()})
    canonical = t.call("systems.canonical_system", canonical_system, label, system.horizon)
    residuals = t.call("systems.iso_residuals", iso_residuals, system, canonical, iso)
    return label, max(residuals.values())


def _median_ms(values) -> float:
    return 1e3 * statistics.median(values)


def _per_call_us(fn, args_list, reps: int) -> float:
    """Median over `reps` batches of the mean time per call, in microseconds."""
    batches = []
    for _ in range(reps):
        start = perf_counter()
        for args in args_list:
            fn(*args)
        batches.append((perf_counter() - start) / len(args_list))
    return 1e6 * statistics.median(batches)


def _timed_ms(fn, args_list) -> float:
    """Median time of single calls, in milliseconds."""
    times = []
    for args in args_list:
        start = perf_counter()
        fn(*args)
        times.append(perf_counter() - start)
    return _median_ms(times)


def stage_metrics(t: Tracer, cases: list[Case], fail_stages: list[str]) -> dict:
    """Median stage times from a traced replay; the two checks extend_morphism
    runs on the canonical algebra, timed on their own once per cell; and the
    peak bytes (tracemalloc) that one image check holds."""
    metrics = {}
    for name in ("systems.check_axioms", "systems.triple_of_system",
                 "classify.classify_triple", "systems.canonical_system",
                 "systems.dualize", "graded.extend_morphism",
                 "graded.is_isomorphism", "systems.iso_residuals"):
        metrics[f"{name}.ms"] = _median_ms(t.durations(name))
    horizon = cases[0].system.horizon
    algebras = [dualize(canonical_system(c.label, horizon)) for c in cases[:12]]
    metrics["graded.check_image_condition.ms"] = _timed_ms(
        check_image_condition, [(g,) for g in algebras])
    metrics["graded.check_kernel_condition.ms"] = _timed_ms(
        check_kernel_condition, [(g,) for g in algebras])
    metrics["systems.axiom_triples"] = sum(1 for _ in cases[0].system.index_triples())
    tracemalloc.start()
    try:
        check_image_condition(algebras[0])
        metrics["graded.image_bytes_computed"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for stage in REFUSAL_STAGES:
        metrics[f"systems.fail.{stage}"] = fail_stages.count(stage)
    return metrics


def replay_pass(cases: list[Case], t: Tracer) -> list[str]:
    """One traced replay of every case; returns the refusal stage of each
    failing case."""
    stages = []
    for i, case in enumerate(cases):
        t.op = f"replay-{i}"
        try:
            t.call("op", replay, case, t)
        except ClassifyStageError as exc:
            stages.append(exc.stage)
    return stages


def kernel_metrics(cases: list[Case], reps: int) -> dict:
    """tensorlinalg kernels at the shapes triple_of_system and
    classify_triple hand them."""
    systems = [c.system for c in cases[:12]]
    betas = [c.beta[(1, 1)] for c in systems]
    kron_args = [(b[:2], b[2:]) for b in betas] + [(b, np.eye(2)) for b in betas]
    spans = [(c.beta[(1, 1)],) for c in systems]
    spans += [(np.kron(c.beta[(1, 1)], np.eye(2)) @ c.beta[(2, 1)],) for c in systems]
    triples = [triple_of_system(c) for c in systems]
    planes = [(extend_right(tr.E2), extend_left(tr.E2)) for tr in triples]
    subspaces = [(tr.E2,) for tr in triples] + [(tr.E3,) for tr in triples]
    return {
        "tensorlinalg.kron.us": _per_call_us(kron, kron_args * 8, reps),
        "tensorlinalg.from_spanning.us": _per_call_us(Subspace.from_spanning, spans * 8, reps),
        "tensorlinalg.intersect.us": _per_call_us(intersect, planes * 8, reps),
        "tensorlinalg.annihilator.us": _per_call_us(annihilator, subspaces * 8, reps),
    }


def exact_metrics(seed: int, spot_check: int, reps: int) -> dict:
    """The symbolic proof and the spot-check kernels of verify-identity."""
    rng = np.random.default_rng(seed + 2)
    points = rng.integers(-9, 10, size=(spot_check, NVARS))
    point_lists = [[int(v) for v in p] for p in points]
    d8, d4, m8 = d8_polynomial(), d4_polynomial(), det8_matrix()
    batch = [(d8, points)]
    return {
        "identity.main_identity_residual.ms": _timed_ms(main_identity_residual, [()] * reps),
        "identity.d8_polynomial.ms": _timed_ms(d8_polynomial, [()] * reps),
        "identity.d4_polynomial.ms": _timed_ms(d4_polynomial, [()] * reps),
        "exactpoly.evaluate.us": _per_call_us(
            lambda p: (d8.evaluate(p), d4.evaluate(p)), [(p,) for p in point_lists], reps) / 2,
        "exactpoly.evaluate_batch.us": _per_call_us(evaluate_batch, batch, reps) / spot_check,
        "exactpoly.int_det_bareiss.us": _per_call_us(
            int_det_bareiss, [(m8.evaluate(p),) for p in point_lists], reps),
        "exactpoly.laplace_surviving_ratio": len(surviving_laplace_terms()) / math.comb(8, 4),
    }


def _cli_main_quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def io_metrics(cases: list[Case], workdir: Path, seed: int, spot_check: int,
               root: Path, env: dict, reps: int) -> dict:
    """serialize on the workload's systems, each CLI command in-process on
    their files, the CLI import in a fresh interpreter, and random_system."""
    cells = []
    for i, c in enumerate(cases[:12]):
        path = c.path
        if path is None:
            path = workdir / f"probe-{i}.json"
            path.write_text(serialize.dumps_canonical(serialize.system_to_json(c.system)),
                            encoding="utf-8")
        cells.append(Case(c.label, c.system, path))
    payloads = [serialize.system_to_json(c.system) for c in cells]
    metrics = {
        "serialize.from_json.ms": _timed_ms(serialize.from_json, [(p,) for p in payloads]),
        "serialize.dumps_canonical.ms": _timed_ms(serialize.dumps_canonical,
                                                  [(p,) for p in payloads]),
    }
    ops = cli_ops(seed, cells, spot_check)
    for command in CLI_COMMANDS:
        argvs = [(op.argv,) for op in ops if op.command == command]
        if command == "verify-identity":
            argvs = argvs[:reps]
        metrics[f"cli.main.{command}.ms"] = _timed_ms(_cli_main_quiet, argvs)
    probe = ("import time; t = time.perf_counter(); import spsys2d.cli; "
             "print(time.perf_counter() - t)")
    imports = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", probe], cwd=root, env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        imports.append(float(out.stdout.strip()))
    metrics["cli.import.ms"] = _median_ms(imports)
    horizon = cells[0].system.horizon
    metrics["systems.random_system.ms"] = _timed_ms(
        random_system, [(c.label, seed + i, horizon) for i, c in enumerate(cells)])
    return metrics
