"""Workload inputs, the timed operations, and the correctness gate.

Every input is generated from the benchmark seed.  An operation is timed as a
whole, whether it succeeds or fails; the gate runs after the timer stops and
returns the stage at which the operation failed, or None.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from spsys2d import serialize
from spsys2d.cli import main as cli_main
from spsys2d.systems import (
    ClassifyStageError,
    SubproductSystem,
    SystemLabel,
    canonical_system,
    classify_system,
    iso_residuals,
    random_system,
)

# the gate of acceptance criterion 5
LAMBDA_RTOL = 1e-9
RESIDUAL_MAX = 1e-8

# one cell per label, and E3 over a lambda grid that spans |lambda| in [1/4, 4];
# lambda = 3, 4 and 2+i fail at horizon 12 today and stay in the grid
E3_LAMBDAS = (0.25, 0.5, -1.0, 1.0, 1j, 2 + 1j, 3.0, 4.0)
CELLS = tuple(SystemLabel(x) for x in ("E1", "E2", "E4", "E5")) + tuple(
    SystemLabel("E3", complex(lam)) for lam in E3_LAMBDAS
)

# the stages of ClassifyStageError, at which the program refuses an input
REFUSAL_STAGES = ("axioms", "triple", "classify-triple", "extend-morphism")
# failures the operation reports itself: a refusal, or a certificate whose
# residual exceeds RESIDUAL_MAX; any other failure (wrong label or lambda,
# crash, malformed CLI output) is a wrong output
REPORTED_STAGES = REFUSAL_STAGES + ("residual",)

CLI_COMMANDS = ("verify-identity", "classify", "check", "dualize")
CLI_HORIZON = 6
_STAGE_IN_STDERR = re.compile(r"\[([a-z-]+)\]")


@dataclass(frozen=True)
class Case:
    """One generated system and the label it must classify back to."""

    label: SystemLabel
    system: SubproductSystem
    path: Path | None = None  # its JSON file, for the CLI workload


_REF_MATRIX = np.ones((4, 2), dtype=complex)


def reference_seconds() -> float:
    """Median of three timings of a fixed kernel, independent of spsys2d, of
    interpreter and small-numpy work like the pipeline's.

    The host's speed swings by up to 1.75x within seconds; timed before every
    cycle, this kernel slows with it, so latency / reference stays steady.
    """
    times = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for k in range(3000):
            total += k * k
        for _ in range(100):
            np.kron(_REF_MATRIX, _REF_MATRIX)
            np.linalg.svd(_REF_MATRIX, compute_uv=False)
        times.append(perf_counter() - start)
    return sorted(times)[1]


def interpreter_start_seconds(root: Path, env: dict) -> float:
    """Time to start and stop an interpreter that does nothing: the reference
    for the CLI workload, whose calls are mostly process start-up."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env,
                   capture_output=True, timeout=120, check=True)
    return perf_counter() - start


def cell_seeds(seed: int, per_cell: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**31, size=(per_cell, len(CELLS)))


def lambda_ok(expected: SystemLabel, lam) -> bool:
    if expected.lam is None:
        return lam is None
    return lam is not None and abs(lam - expected.lam) <= LAMBDA_RTOL * abs(expected.lam)


# -- roundtrip-h6 / roundtrip-h12 --------------------------------------------


def roundtrip_cases(seed: int, horizon: int, per_cell: int) -> list[Case]:
    """Scrambled systems, interleaved so any whole number of grid cycles
    holds every cell equally often."""
    seeds = cell_seeds(seed, per_cell)
    return [
        Case(label, random_system(label, int(seeds[k, c]), horizon))
        for k in range(per_cell)
        for c, label in enumerate(CELLS)
    ]


def roundtrip(case: Case):
    """classify_system, certified against the canonical system."""
    label, iso = classify_system(case.system)
    canonical = canonical_system(label, case.system.horizon)
    return label, max(iso_residuals(case.system, canonical, iso).values())


def check_roundtrip(case: Case, result, error: BaseException | None) -> str | None:
    if error is not None:
        return error.stage if isinstance(error, ClassifyStageError) else "exception"
    label, worst = result
    if label.label != case.label.label:
        return "label"
    if not lambda_ok(case.label, label.lam):
        return "lambda"
    if not worst <= RESIDUAL_MAX:
        return "residual"
    return None


# -- cli-exact ---------------------------------------------------------------


@dataclass(frozen=True)
class CliOp:
    command: str
    argv: tuple
    case: Case | None = None
    spot_check: int = 0


def write_cli_cases(seed: int, workdir: Path) -> list[Case]:
    """One scrambled system file per cell, written by `generate --scramble`."""
    seeds = cell_seeds(seed, 1)
    cases = []
    for c, label in enumerate(CELLS):
        path = workdir / f"{label.label}-{c}.json"
        argv = ["generate", "--class", label.label, "--scramble",
                "--seed", str(int(seeds[0, c])), "--horizon", str(CLI_HORIZON),
                "--output", str(path)]
        if label.lam is not None:
            argv.append(f"--lambda={label.lam.real!r},{label.lam.imag!r}")
        if cli_main(argv) != 0:
            raise RuntimeError(f"generate failed for {label}")
        system = serialize.from_json(json.loads(path.read_text(encoding="utf-8")))
        cases.append(Case(label, system, path))
    return cases


def cli_ops(seed: int, cases: list[Case], spot_check: int) -> list[CliOp]:
    """Cycles of the four commands; each cycle reads the next file."""
    rng = np.random.default_rng(seed + 1)
    ops = []
    for case in cases:
        ops.append(CliOp("verify-identity",
                         ("verify-identity", "--spot-check", str(spot_check),
                          "--seed", str(int(rng.integers(0, 2**31)))),
                         spot_check=spot_check))
        ops.append(CliOp("classify", ("classify", str(case.path), "--format", "json"), case))
        ops.append(CliOp("check", ("check", str(case.path)), case))
        ops.append(CliOp("dualize", ("dualize", str(case.path)), case))
    return ops


def run_cli(op: CliOp, root: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "spsys2d.cli", *op.argv],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)


def check_cli(op: CliOp, proc, error: BaseException | None) -> str | None:
    if error is not None:
        return "exception"
    if proc.returncode != 0:
        found = _STAGE_IN_STDERR.search(proc.stderr)
        if found and found.group(1) in REFUSAL_STAGES:
            return found.group(1)
        return "exit-code"
    out = proc.stdout
    if op.command == "verify-identity":
        k = op.spot_check
        ok = (f"spot-check: {k}/{k} matches" in out
              and "residual: 0 (zero polynomial); OK" in out)
        return None if ok else "output"
    if op.command == "check":
        return None if out.startswith("check: PASS") else "output"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "output"
    if op.command == "classify":
        if report.get("label") != op.case.label.label:
            return "label"
        lam = report.get("lambda")
        if not lambda_ok(op.case.label, None if lam is None else complex(*lam)):
            return "lambda"
        if not report.get("max_residual", np.inf) <= RESIDUAL_MAX:
            return "residual"
        return None
    # dualize: the transpose of every beta map, digit for digit
    try:
        dual = serialize.from_json(report)
    except ValueError:
        return "output"
    beta = op.case.system.beta
    same = (getattr(dual, "M", None) is not None and dual.M.keys() == beta.keys()
            and all(np.array_equal(dual.M[k], b.T) for k, b in beta.items()))
    return None if same else "output"
