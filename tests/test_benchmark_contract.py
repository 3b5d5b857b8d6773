"""The benchmark's use of the package, in the default test run.

`perfbench/smoke.py` runs the whole benchmark but sits outside `testpaths`.
This test imports `perfbench/workloads.py` and `perfbench/layers.py` by path
and runs the roundtrip operation, and the traced replay, through the
benchmark's own correctness gate, so a change of the API they use fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # layers.py imports its sibling as the top-level module `workloads`
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    layers = _load("layers", monkeypatch)
    return workloads, layers


def _gate(workloads, case, op):
    try:
        result, error = op(case), None
    except Exception as exc:  # the gate names the stage of a refusal
        result, error = None, exc
    return workloads.check_roundtrip(case, result, error)


def test_roundtrip_cases_pass_the_gate(bench):
    workloads, layers = bench
    cases = workloads.roundtrip_cases(1, 6, 1)
    assert len(cases) == len(workloads.CELLS)
    for case in cases:
        assert _gate(workloads, case, workloads.roundtrip) is None, case.label
        tracer = layers.Tracer()
        assert _gate(workloads, case, lambda c: layers.replay(c, tracer)) is None, case.label
