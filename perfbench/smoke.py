"""Smoke test of the benchmark: every workload at minimal size, fixed seed.

    python3 perfbench/smoke.py
    python3 -m pytest perfbench/smoke.py

The file name keeps it out of the default pytest collection of the repo.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def _run(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_every_metric_is_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, "--workload", workload, "--seed", str(SEED),
                        "--seconds", "1", "--trace", str(trace), "--size", "smoke")
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"], (workload, trace)
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == expected, (workload, trace)
            report_path = BENCH / "results" / f"{workload}-seed{SEED}-trace{trace}.json"
            report = json.loads(report_path.read_text(encoding="utf-8"))
            assert result["failed"] == 0
            assert report["fail_share"] == (report["reported_failures"]
                                            / result["attempted"])
            if workload == "roundtrip-h6":
                assert report["fail_share"] == 0
            if trace:
                assert (ROOT / report["spans"]).is_file()


def test_refuses_to_run_without_sources():
    bare = BENCH / "work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _run(bare, "--workload", "roundtrip-h6", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_every_metric_is_reported()
    test_refuses_to_run_without_sources()
    print("smoke: ok")
