"""End-to-end and per-layer benchmark of spsys2d.

    python3 perfbench/run.py --workload roundtrip-h6 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one table at the end
    python3 perfbench/smoke.py                   # smoke test at minimal size

Run from the root of a source checkout; the package is imported from `src/`
and the CLI is started with PYTHONPATH=src, so nothing needs installing.

One client, closed loop: each operation starts when the previous one has
returned, in a single process with BLAS/OpenMP pinned to one thread unless
the caller set those variables.  A run measures whole cycles of operations
(one cycle holds every input cell or every CLI command once) until
`--seconds` have passed and, at full size, at least 100 operations have run,
so that ten samples lie beyond p90.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  Latencies are
gated in units of a fixed reference kernel timed before and after every
cycle (latency_ref_p50, latency_ref_p90): the host's speed swings by up to
1.75x within seconds, which moves latencies in ms by up to 50% from run to
run but leaves their ratio to the reference steady.  The ms latencies and
ops_per_s are reported beside them, not gated.  --trace 1
alternates untraced calls with traced replays of the same inputs (one
in-memory span per stage call), then probes each layer, and reports the
per-layer metrics and the tracing overhead.

Every operation is checked.  A failed operation keeps its time and is
counted with the stage it failed at; fail_share counts every failure, and the
gated success_share = 1 - fail_share.  Failures are of two kinds.  A wrong
output (a wrong label or lambda, a crash, malformed CLI output) makes the run
incorrect and is what the result line counts as `failed`.  A failure the
operation reports itself (a refusal at a ClassifyStageError stage, or a
certificate above the residual limit, as in the roundtrip-h12 cells with
lambda = 3, 4, 2+i today) is an outcome of the program on that input: it
lowers success_share and is listed by stage in fail_stages, but it neither
makes the run incorrect nor counts in `failed`, whose value would otherwise
depend on how many operations fit in the run.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  A full report (environment, fail_share by stage, raw latencies, the
per-layer -> end-to-end mapping) goes to perfbench/results/, and the spans of
a traced run next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

# numpy and spsys2d are imported only after main() has pinned the BLAS/OpenMP
# thread variables, which the libraries read when they load
ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("roundtrip-h6", "roundtrip-h12", "cli-exact")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED_THREAD_VARS = THREAD_VARS[:3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# reported beside the gated metrics of BENCHMARK.json; on this kind of shared
# host they swing with its speed, see workloads.reference_seconds
UNGATED_UNITS = {"latency_ms_p50": "ms", "latency_ms_p90": "ms", "ops_per_s": "1/s"}


@dataclass(frozen=True)
class Size:
    per_cell: int       # scrambled systems per grid cell (roundtrip workloads)
    min_ops: int        # lower bound on operations in a --trace 0 run
    spot_check: int     # K of verify-identity --spot-check K
    reps: int           # repetitions of each layer probe
    setup_repeats: int  # set-ups per --trace 0 run; setup_s is their median


SIZES = {
    "full": Size(per_cell=8, min_ops=100, spot_check=200, reps=5, setup_repeats=5),
    "smoke": Size(per_cell=1, min_ops=0, spot_check=10, reps=1, setup_repeats=1),
}


@dataclass
class Plan:
    """A workload after set-up: the operations and how to run and check one."""

    items: list       # operation inputs, in run order
    cycle: int        # operations per balanced cycle
    run: object       # item -> result (the timed call)
    traced: object    # (item, tracer) -> result
    check: object     # (item, result, error) -> failing stage or None
    cases: list       # the generated systems behind the items
    rss_who: int      # whose ru_maxrss is the workload's memory peak
    build: object     # () -> (cases, items): the set-up, repeatable
    reference: object  # () -> seconds of a fixed kernel that tracks host speed
    setup_times: list  # seconds taken by each set-up so far


@dataclass
class Sample:
    latencies: list
    stages: list      # failing stage per operation, None when it passed
    wall_s: float
    failures: list    # (operation index, stage, message) of the first failures
    refs: list        # per operation, the reference time around its cycle


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
    }


def child_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def set_up(name: str, seed: int, size: Size, workdir: Path) -> Plan:
    from layers import replay
    from workloads import (CELLS, CLI_COMMANDS, check_cli, check_roundtrip,
                           cli_ops, interpreter_start_seconds, reference_seconds,
                           roundtrip, roundtrip_cases, run_cli, write_cli_cases)

    if name == "cli-exact":
        def build():
            cases = write_cli_cases(seed, workdir)
            return cases, cli_ops(seed, cases, size.spot_check)
    else:
        horizon = int(name.removeprefix("roundtrip-h"))

        def build():
            cases = roundtrip_cases(seed, horizon, size.per_cell)
            return cases, cases

    start = perf_counter()
    cases, items = build()
    setup_times = [perf_counter() - start]

    if name == "cli-exact":
        env = child_env()
        return Plan(items=items, cycle=len(CLI_COMMANDS),
                    run=lambda op: run_cli(op, ROOT, env),
                    traced=lambda op, t: t.call(f"op.{op.command}", run_cli, op, ROOT, env),
                    check=check_cli, cases=cases,
                    rss_who=resource.RUSAGE_CHILDREN, build=build,
                    setup_times=setup_times,
                    reference=lambda: interpreter_start_seconds(ROOT, env))
    return Plan(items=items, cycle=len(CELLS), run=roundtrip,
                traced=lambda case, t: t.call("op", replay, case, t),
                check=check_roundtrip, cases=cases,
                rss_who=resource.RUSAGE_SELF, build=build, setup_times=setup_times,
                reference=reference_seconds)


def measure(plan: Plan, op, seconds: float, min_ops: int, first: int = 0) -> Sample:
    """Closed loop over whole cycles until `seconds` and `min_ops` are reached,
    starting at operation `first`.

    A failing operation keeps its time; the gate runs after the timer stops.
    """
    latencies, stages, failures, cycles = [], [], [], []
    bracket = []  # reference times taken before each cycle and after the last
    start = perf_counter()
    in_reference = 0.0

    def take_reference():
        nonlocal in_reference
        t0 = perf_counter()
        bracket.append(plan.reference())
        in_reference += perf_counter() - t0

    i = first
    while i % plan.cycle or perf_counter() - start < seconds or i - first < min_ops:
        if i % plan.cycle == 0:
            take_reference()
        item = plan.items[i % len(plan.items)]
        t0 = perf_counter()
        try:
            result, error = op(item, i), None
        except Exception as exc:  # counted by the gate, never aborts the run
            result, error = None, exc
        latencies.append(perf_counter() - t0)
        cycles.append(len(bracket) - 1)
        stage = plan.check(item, result, error)
        stages.append(stage)
        if stage is not None and len(failures) < 20:
            failures.append((i, stage, repr(error) if error else stage))
        i += 1
    take_reference()
    wall_s = perf_counter() - start - in_reference
    # an operation is compared with the host speed on both sides of its cycle
    refs = [(bracket[c] + bracket[c + 1]) / 2 for c in cycles]
    return Sample(latencies, stages, wall_s, failures, refs)


def spread_setups(plan: Plan, seconds: float, size: Size) -> Sample:
    """The run in `setup_repeats` equal parts with a timed set-up before each,
    so that setup_s, like the latencies, samples the host over the whole run
    (its speed drifts over seconds to minutes).  The operations continue where
    the previous part stopped."""
    parts = []
    for k in range(size.setup_repeats):
        if k:
            start = perf_counter()
            plan.build()
            plan.setup_times.append(perf_counter() - start)
        parts.append(measure(plan, lambda item, i: plan.run(item),
                             seconds / size.setup_repeats,
                             math.ceil(size.min_ops / size.setup_repeats),
                             first=sum(len(p.stages) for p in parts)))
    return Sample([x for p in parts for x in p.latencies],
                  [x for p in parts for x in p.stages],
                  sum(p.wall_s for p in parts),
                  [x for p in parts for x in p.failures][:20],
                  [x for p in parts for x in p.refs])


def traced_run(plan: Plan, seconds: float, min_ops: int):
    """Untraced and traced calls alternate on each input, the order flipping
    every pair, so drift over the run cancels out of the tracing overhead."""
    from layers import Tracer

    tracer = Tracer()

    def is_traced(i: int) -> bool:
        return (i + i // 2) % 2 == 1

    def op(item, i):
        if not is_traced(i):
            return plan.run(item)
        tracer.op = i
        return plan.traced(item, tracer)

    paired = replace(plan, cycle=2 * plan.cycle,
                     items=[x for x in plan.items for _ in (0, 1)])
    both = measure(paired, op, seconds, min_ops)

    def part(flag: bool) -> Sample:
        keep = [i for i in range(len(both.stages)) if is_traced(i) == flag]
        def pick(values):
            return [values[i] for i in keep]

        return Sample(pick(both.latencies), pick(both.stages), both.wall_s, [],
                      pick(both.refs))

    return both, part(False), part(True), tracer


def percentile_ms(sample: Sample, q: float) -> float:
    import numpy as np

    return 1e3 * float(np.percentile(sample.latencies, q))


def end_to_end(plan: Plan, sample: Sample) -> dict:
    import numpy as np

    ok = sample.stages.count(None)
    n = len(sample.latencies)
    relative = np.array(sample.latencies) / np.array(sample.refs)
    return {
        "latency_ref_p50": float(np.percentile(relative, 50)),
        "latency_ref_p90": float(np.percentile(relative, 90)),
        "latency_ms_p50": percentile_ms(sample, 50),
        "latency_ms_p90": percentile_ms(sample, 90),
        "ops_per_s": ok / sample.wall_s,
        "success_share": ok / n,
        "peak_rss_mib": resource.getrusage(plan.rss_who).ru_maxrss / 1024,
        "setup_s": statistics.median(plan.setup_times),
    }


def per_layer(name: str, plan: Plan, seed: int, size: Size, workdir: Path,
              untraced: Sample, traced: Sample, tracer) -> dict:
    import layers

    if name == "cli-exact":
        # the CLI runs in child processes; replay its inputs here for stage times
        fail_stages = layers.replay_pass(plan.cases, tracer)
    else:
        fail_stages = [s for s in traced.stages[:len(plan.cases)] if s is not None]
    metrics = layers.stage_metrics(tracer, plan.cases, fail_stages)
    metrics.update(layers.kernel_metrics(plan.cases, size.reps))
    metrics.update(layers.exact_metrics(seed, size.spot_check, size.reps))
    metrics.update(layers.io_metrics(plan.cases, workdir, seed, size.spot_check,
                                     ROOT, child_env(), size.reps))
    metrics["trace.overhead_ms"] = percentile_ms(traced, 50) - percentile_ms(untraced, 50)
    return metrics


def run_one(args, size: Size) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from layers import MOVES
    from workloads import REPORTED_STAGES

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        seed = args.seed % 2**32  # numpy seeds must be non-negative
        plan = set_up(args.workload, seed, size, workdir)
        try:  # let lazy initialisation finish before timing
            plan.run(plan.items[0])
        except Exception:  # the measured loop counts this failure
            pass
        if args.trace:
            # a roundtrip run traces every case at least once, for the failure counts
            min_ops = 0 if args.workload == "cli-exact" else 2 * len(plan.cases)
            sample, untraced, traced, tracer = traced_run(plan, args.seconds, min_ops)
            metrics = per_layer(args.workload, plan, seed, size, workdir,
                                untraced, traced, tracer)
            spans_path = results / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path)
        else:
            sample = spread_setups(plan, args.seconds, size)
            metrics = end_to_end(plan, sample)
            spans_path = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    # BENCHMARK.json names the metrics and their units; a missing one is an error
    spec = SPEC["per_layer" if args.trace else "end_to_end"]
    stages = sample.stages
    attempted = len(stages)
    reported = sum(s in REPORTED_STAGES for s in stages)
    failed = attempted - stages.count(None) - reported  # wrong outputs
    correct = failed == 0
    fail_stages = {s: stages.count(s) for s in sorted(set(stages) - {None})}
    env = environment(args.seed)
    p90 = percentile_ms(sample, 90) / 1e3

    report = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "size": args.size, "environment": env,
        "samples": len(sample.latencies),
        "beyond_p90": sum(x > p90 for x in sample.latencies),
        "fail_share": (failed + reported) / attempted, "fail_stages": fail_stages,
        "reported_failures": reported,
        "latencies_ms": [round(1e3 * x, 4) for x in sample.latencies],
        "first_failures": sample.failures,
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
        "ungated": {k: {"value": v, "unit": UNGATED_UNITS[k]} for k, v in metrics.items()
                    if k not in {m["name"] for m in spec}},
        "moves": {k: {"metric": m, "workload": w} for k, (m, w) in MOVES.items()},
        "spans": spans_path.relative_to(ROOT).as_posix() if spans_path else None,
    }
    report_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload}: {report['samples']} samples, "
          f"{report['beyond_p90']} beyond p90, fail_share {report['fail_share']:.4g} "
          f"{fail_stages}")
    for key, m in report["metrics"].items():
        print(f"# {args.workload} {key} = {m['value']:.6g} {m['unit']}")
    for key, m in report["ungated"].items():
        print(f"# {args.workload} {key} = {m['value']:.6g} {m['unit']} (not gated)")
    print(f"# report: {report_path.relative_to(ROOT).as_posix()}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so its memory peak is its own."""
    status = 0
    summary = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        summary.append((name, result))
    print()
    for name, result in summary:
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} (wrong outputs; fail_share is printed above)")
        for key, m in result["metrics"].items():
            print(f"  {key:40s} {m['value']:>14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="smoke: minimal inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spsys2d" / "__init__.py").is_file():
        print(f"error: no spsys2d sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in PINNED_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args, SIZES[args.size])


if __name__ == "__main__":
    sys.exit(main())
