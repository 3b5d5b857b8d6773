"""Command-line front end.

Commands: verify-identity, classify, check, generate, dualize.
Exit codes: 0 success; 1 verification failure; 2 malformed input or usage;
3 axiom failure; 4 unclassifiable input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import serialize
from .classify import ChainUnclassifiedError, NotSubproductTripleError, Triple, classify_triple, rank_with_margin
from .exactpoly import NVARS, int_det_bareiss
from .graded import GradedAlgebra
from .identity import (
    d4_polynomial,
    d8_polynomial,
    det8_matrix,
    main_identity_residual,
    surviving_laplace_terms,
)
from .systems import (
    ClassifyStageError,
    SubproductSystem,
    SystemLabel,
    canonical_system,
    check_axioms,
    classify_system,
    dualize,
    iso_residuals,
    random_system,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_AXIOM_FAIL = 3
EXIT_UNCLASSIFIABLE = 4

DEFAULT_TOLERANCE = 1e-9
DEFAULT_HORIZON = 6


def _parse_complex(text: str) -> complex:
    """Parse `re` or `re,im` into a complex scalar."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected re or re,im, got {text!r}")


def _build_parser(default_tol: float) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spsys2d",
        description="Classification toolkit for two-dimensional subproduct "
        "systems and their dual graded algebras.",
    )

    def _add_common(target, suppress: bool):
        # the same flags are accepted before and after the subcommand; the
        # subcommand copies use SUPPRESS so they never clobber earlier values
        kw = {"default": argparse.SUPPRESS} if suppress else {}
        target.add_argument("--tolerance", type=float,
                            **(kw or {"default": default_tol}),
                            help="numerical tolerance (env SPSYS_TOLERANCE)")
        target.add_argument("--horizon", type=int,
                            **(kw or {"default": DEFAULT_HORIZON}),
                            help="truncation level (>= 3)")
        target.add_argument("--seed", type=int, **(kw or {"default": 0}),
                            help="RNG seed")
        target.add_argument("--output", **kw, help="output file (default stdout)")
        target.add_argument("--format", choices=("json", "text"),
                            **(kw or {"default": "text"}), help="report format")

    _add_common(parser, suppress=False)
    parser.set_defaults(output=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, suppress=True)
        return p

    p = add_cmd("verify-identity", "prove the determinant identity")
    p.add_argument("--emit-terms", action="store_true",
                   help="print the surviving Laplace terms")
    p.add_argument("--spot-check", type=int, metavar="N", default=0,
                   help="N random integer evaluations against the oracle")

    p = add_cmd("classify", "classify a system, algebra, or triple")
    p.add_argument("input", help="input JSON file")

    p = add_cmd("check", "verify the axioms of an input file")
    p.add_argument("input", help="input JSON file")

    p = add_cmd("generate", "emit a canonical or scrambled system")
    p.add_argument("--class", dest="label", required=True,
                   choices=("E1", "E2", "E3", "E4", "E5"))
    p.add_argument("--lambda", dest="lam", type=_parse_complex,
                   help="nonzero complex parameter (re,im) for E3")
    p.add_argument("--scramble", action="store_true",
                   help="apply seeded random per-level basis changes")

    p = add_cmd("dualize", "transpose between the two dual kinds")
    p.add_argument("input", help="input JSON file")
    return parser


def _write(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return serialize.from_json(data)
    except (OSError, json.JSONDecodeError, serialize.SerializationError,
            ValueError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT) from exc


def cmd_verify_identity(args) -> int:
    residual = main_identity_residual()
    lines = []
    if args.emit_terms:
        for term in surviving_laplace_terms():
            cols = ",".join(str(c) for c in term.cols)
            lines.append(f"columns ({cols}) sign {term.sign:+d}: "
                         f"({term.minor}) * ({term.complementary})")
    if args.spot_check:
        d8 = d8_polynomial()
        d4 = d4_polynomial()
        m8 = det8_matrix()
        rng = np.random.default_rng(args.seed)
        matches = 0
        for _ in range(args.spot_check):
            point = [int(v) for v in rng.integers(-9, 10, size=NVARS)]
            lhs = d8.evaluate(point)
            oracle = int_det_bareiss(m8.evaluate(point))
            if lhs == oracle and lhs == -d4.evaluate(point):
                matches += 1
        lines.append(f"spot-check: {matches}/{args.spot_check} matches")
        if matches != args.spot_check:
            lines.append("FAIL: oracle disagreement")
            _write(args, "\n".join(lines))
            return EXIT_VERIFY_FAIL
    if residual.is_zero():
        lines.append("residual: 0 (zero polynomial); OK")
        _write(args, "\n".join(lines))
        return EXIT_OK
    lines.append(f"FAIL: nonzero residual with {len(residual)} terms")
    lines.append(str(residual))
    _write(args, "\n".join(lines))
    return EXIT_VERIFY_FAIL


def _classify_report(args, obj):
    eps = args.tolerance
    if isinstance(obj, Triple):
        cls, iso = classify_triple(obj, eps)
        rank, margin = rank_with_margin(obj.E2, eps)
        report = {
            "label": cls.label,
            "theta": serialize.matrix_to_json(iso.theta),
            "rank": rank,
            "rank_confidence": margin,
        }
        if cls.lam is not None:
            report["lambda"] = serialize.complex_to_json(cls.lam)
        return report
    sys_obj = dualize(obj) if isinstance(obj, GradedAlgebra) else obj
    label, iso = classify_system(sys_obj, eps)
    residuals = iso_residuals(sys_obj, canonical_system(label, sys_obj.horizon), iso)
    from .systems import triple_of_system
    rank, margin = rank_with_margin(triple_of_system(sys_obj, eps).E2, eps)
    report = {
        "label": label.label,
        "theta": {str(t): serialize.matrix_to_json(m)
                  for t, m in iso.theta.items()},
        "residuals": {f"{s},{t}": r for (s, t), r in residuals.items()},
        "max_residual": max(residuals.values()),
        "rank": rank,
        "rank_confidence": margin,
    }
    if label.lam is not None:
        report["lambda"] = serialize.complex_to_json(label.lam)
    return report


def _report_text(report: dict) -> str:
    lines = [f"label: {report['label']}"]
    if "lambda" in report:
        re_, im_ = report["lambda"]
        lines.append(f"lambda: {re_:+g}{im_:+g}i")
    lines.append(f"rank: {report['rank']} "
                 f"(confidence {report['rank_confidence']:.3g})")
    if "max_residual" in report:
        lines.append(f"max residual: {report['max_residual']:.3g}")
    return "\n".join(lines)


def cmd_classify(args) -> int:
    obj = _load(args.input)
    if isinstance(obj, SubproductSystem):
        rep = check_axioms(obj, args.tolerance)
        if not rep.passed:
            print(f"error: axiom failure: {_axiom_text(rep)}", file=sys.stderr)
            return EXIT_AXIOM_FAIL
    try:
        report = _classify_report(args, obj)
    except ClassifyStageError as exc:
        code = EXIT_AXIOM_FAIL if exc.stage == "axioms" else EXIT_UNCLASSIFIABLE
        print(f"error: {exc}", file=sys.stderr)
        return code
    except (NotSubproductTripleError, ChainUnclassifiedError) as exc:
        print(f"error: unclassifiable input: {exc}", file=sys.stderr)
        return EXIT_UNCLASSIFIABLE
    if args.format == "json":
        _write(args, serialize.dumps_canonical(report))
    else:
        _write(args, _report_text(report))
    return EXIT_OK


def _axiom_text(rep) -> str:
    parts = [f"worst associativity residual {rep.worst_associativity_residual:.3g}"]
    if rep.first_failing_triple:
        parts.append(f"first failing triple {rep.first_failing_triple}")
    if rep.injectivity_failures:
        parts.append(f"injectivity failures at {list(rep.injectivity_failures)}")
    return "; ".join(parts)


def cmd_check(args) -> int:
    obj = _load(args.input)
    if isinstance(obj, Triple):
        try:
            obj.validate(args.tolerance)
        except ValueError as exc:
            print(f"check: FAIL ({exc})", file=sys.stderr)
            return EXIT_AXIOM_FAIL
        _write(args, "check: PASS (triple invariants hold)")
        return EXIT_OK
    sys_obj = dualize(obj) if isinstance(obj, GradedAlgebra) else obj
    rep = check_axioms(sys_obj, args.tolerance)
    if args.format == "json":
        payload = {
            "passed": rep.passed,
            "worst_associativity_residual": rep.worst_associativity_residual,
            "first_failing_triple": list(rep.first_failing_triple)
            if rep.first_failing_triple else None,
            "injectivity_failures": [list(p) for p in rep.injectivity_failures],
            "min_singular_value": rep.min_singular_value,
        }
        _write(args, serialize.dumps_canonical(payload))
    else:
        status = "PASS" if rep.passed else "FAIL"
        _write(args, f"check: {status} ({_axiom_text(rep)})")
    return EXIT_OK if rep.passed else EXIT_AXIOM_FAIL


def cmd_generate(args) -> int:
    if args.label == "E3" and args.lam is None:
        print("error: --class E3 requires --lambda", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        label = SystemLabel(args.label, args.lam if args.label == "E3" else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.horizon < 3:
        print("error: horizon must be at least 3", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.scramble:
        system = random_system(label, args.seed, args.horizon)
    else:
        system = canonical_system(label, args.horizon)
    _write(args, serialize.dumps_canonical(serialize.system_to_json(system)))
    return EXIT_OK


def cmd_dualize(args) -> int:
    obj = _load(args.input)
    if isinstance(obj, Triple):
        print("error: triples have no dual representation here", file=sys.stderr)
        return EXIT_BAD_INPUT
    flipped = dualize(obj)
    _write(args, serialize.dumps_canonical(serialize.to_json(flipped)))
    return EXIT_OK


def main(argv=None) -> int:
    env_tol = os.environ.get("SPSYS_TOLERANCE")
    try:
        default_tol = float(env_tol) if env_tol else DEFAULT_TOLERANCE
    except ValueError:
        print(f"error: SPSYS_TOLERANCE must be a number, got {env_tol!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    args = _build_parser(default_tol).parse_args(argv)
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        print("error: tolerance must be a positive finite number", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.command == "verify-identity" and args.spot_check < 0:
        print("error: --spot-check must not be negative", file=sys.stderr)
        return EXIT_BAD_INPUT
    handlers = {
        "verify-identity": cmd_verify_identity,
        "classify": cmd_classify,
        "check": cmd_check,
        "generate": cmd_generate,
        "dualize": cmd_dualize,
    }
    return handlers[args.command](args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
