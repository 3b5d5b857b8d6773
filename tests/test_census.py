"""`tools/census.py`, the outcome census of the numeric pipeline, at a small
size: it runs as a script, it is deterministic, and its hash moves when one
bit of one outcome does, on the system side and on the graded side."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from refs import moved
from spsys2d.plane import Classification
from spsys2d.stacks import GradedAlgebra
from spsys2d.systems import SystemIso, SystemLabel, random_system

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "census.py"
SMALL = ["--seeds", "1", "--horizons", "4"]
LINE = re.compile(r"^sha256 ([0-9a-f]{64}) records (\d+) refusals (\d+)$")
CHECKS = re.compile(r"^axiom checks (\d+) of (\d+) records$")


def _load():
    spec = importlib.util.spec_from_file_location("census", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def digest():
    """The small census's hash, computed in this process."""
    return _load().census(1, [4])[0]


def test_the_census_runs_as_a_script(digest):
    proc = subprocess.run([sys.executable, str(SCRIPT), *SMALL], capture_output=True,
                          text=True, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 2, proc.stdout
    found, checks = LINE.match(lines[0]), CHECKS.match(lines[1])
    assert found and checks, proc.stdout
    records, refusals = int(found.group(2)), int(found.group(3))
    # 12 cells x 1 seed x 1 horizon, each clean and with one entry moved 3 ways
    assert records == 48 and 0 < refusals < records
    assert found.group(1) == digest
    assert int(checks.group(2)) == records and 0 < int(checks.group(1)) < records


def test_a_record_counts_as_checked_when_check_axioms_ran():
    """The bound decides a clean scrambled system; an input that fails the
    axioms is refused by `check_axioms`.  The count leaves `check_axioms` as
    it was."""
    census = _load()
    check_axioms = census.systems.check_axioms
    clean = random_system(SystemLabel("E2"), 7, 6)
    assert census.outcome(clean)[:2] == (False, False)
    refused, checked, record = census.outcome(moved(clean, (2, 1), (0, 0), 1e-3))
    assert refused and checked and record[1] == "axioms"
    assert census.systems.check_axioms is check_axioms


def test_the_hash_sees_one_bit_of_theta(monkeypatch, digest):
    census = _load()
    classify = census.classify_system

    def moved(system):  # theta_1[0, 0] of every certified call, one ulp up
        result = classify(system)
        stack = result.iso.stack.copy()
        stack[0, 0, 0] = complex(np.nextafter(stack[0, 0, 0].real, np.inf), stack[0, 0, 0].imag)
        return Classification(result.label, SystemIso(stack), result.rank, result.rank_margin,
                              result.residuals)

    monkeypatch.setattr(census, "classify_system", moved)
    assert census.census(1, [4])[0] != digest


def test_the_hash_sees_one_bit_of_a_graded_algebra(monkeypatch, digest):
    census = _load()
    build = census.build_graded

    def moved(*args):  # M[1, 1][0, 0] of every built algebra, one ulp up
        g = build(*args)
        stack = g.stack.copy()
        stack[0, 0, 0] = complex(np.nextafter(stack[0, 0, 0].real, np.inf), stack[0, 0, 0].imag)
        return GradedAlgebra(g.horizon, stack)

    monkeypatch.setattr(census, "build_graded", moved)
    assert census.census(1, [4])[0] != digest
