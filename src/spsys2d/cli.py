"""Command-line front end.

Commands: verify-identity, classify, check, generate, dualize.
Exit codes: 0 success; 1 verification failure; 2 malformed input or usage;
3 axiom failure; 4 unclassifiable input; 141 (128 + SIGPIPE, as a shell
reports a process that SIGPIPE ended) when the reader of stdout closes it
early, as `| head` does, with nothing written to stderr.

Each command imports only what it runs: `verify-identity` loads the exact
half (`common`, `exactpoly`, `identity`) and no numpy, the file commands the
numeric half.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .common import DEFAULT_EPS

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_AXIOM_FAIL = 3
EXIT_UNCLASSIFIABLE = 4
EXIT_BROKEN_PIPE = 141

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


@functools.lru_cache(maxsize=8)
def _build_parser(default_tol: float) -> argparse.ArgumentParser:
    """The parser for this default tolerance, built once per process: parsing
    leaves it as it was, so `main` reuses it from call to call."""
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
    from . import serialize

    try:
        with open(path, encoding="utf-8") as fh:
            return serialize.loads(fh.read())
    except (OSError, ValueError) as exc:  # a SerializationError, or text that is not UTF-8
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT) from exc


def _spot_check_matches(count: int, seed: int) -> int:
    """Points in [-9, 9]^16, drawn by `random.Random(seed)`, where D8 equals
    the Bareiss determinant and -D4: per point on Python ints, with D8 and D4
    compiled once and the 8x8 matrix gathered from the point."""
    import random

    from .exactpoly import NVARS, int_det_bareiss, point_evaluator
    from .identity import d4_polynomial, d8_polynomial, det8_matrix

    values = point_evaluator((d8_polynomial(), d4_polynomial()))
    matrix_at = det8_matrix().gather()
    rng = random.Random(seed)
    matches = 0
    for _ in range(count):
        point = [rng.randint(-9, 9) for _ in range(NVARS)]
        v8, v4 = values(point)
        matches += v8 == int_det_bareiss(matrix_at(point)) and v8 == -v4
    return matches


def cmd_verify_identity(args) -> int:
    from .identity import main_identity_residual, surviving_laplace_terms

    residual = main_identity_residual()
    lines = []
    if args.emit_terms:
        for term in surviving_laplace_terms():
            cols = ",".join(str(c) for c in term.cols)
            lines.append(f"columns ({cols}) sign {term.sign:+d}: "
                         f"({term.minor}) * ({term.complementary})")
    if args.spot_check:
        matches = _spot_check_matches(args.spot_check, args.seed)
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
    from . import serialize
    from .classify import Triple, classify_triple
    from .graded import GradedAlgebra
    from .systems import classify_system, dualize

    if isinstance(obj, GradedAlgebra):
        obj = dualize(obj)
    result = (classify_triple if isinstance(obj, Triple) else classify_system)(obj, args.tolerance)
    label, iso = result
    report = {
        "label": label.label,
        "theta": iso.theta,
        "rank": result.rank,
        # inf, for an exactly zero form (no singular value can flip the rank),
        # has no JSON number
        "rank_confidence": result.rank_margin if math.isfinite(result.rank_margin) else None,
    }
    if result.residuals:
        report["residuals"] = {f"{s},{t}": r for (s, t), r in result.residuals.items()}
        report["max_residual"] = max(result.residuals.values())
    if label.lam is not None:
        report["lambda"] = serialize.complex_to_json(label.lam)
    return report


def _report_text(report: dict) -> str:
    lines = [f"label: {report['label']}"]
    if "lambda" in report:
        re_, im_ = report["lambda"]
        lines.append(f"lambda: {re_:+g}{im_:+g}i")
    confidence = report["rank_confidence"]
    lines.append(f"rank: {report['rank']} "
                 f"(confidence {math.inf if confidence is None else confidence:.3g})")
    if "max_residual" in report:
        lines.append(f"max residual: {report['max_residual']:.3g}")
    return "\n".join(lines)


def cmd_classify(args) -> int:
    from . import serialize
    from .classify import NotSubproductTripleError
    from .systems import ClassifyStageError

    obj = _load(args.input)
    try:
        report = _classify_report(args, obj)
    except ClassifyStageError as exc:
        code = EXIT_AXIOM_FAIL if exc.stage == "axioms" else EXIT_UNCLASSIFIABLE
        print(f"error: {exc}", file=sys.stderr)
        return code
    except NotSubproductTripleError as exc:
        print(f"error: unclassifiable input: {exc}", file=sys.stderr)
        return EXIT_UNCLASSIFIABLE
    if args.format == "json":
        _write(args, serialize.dumps_canonical(report))
    else:
        _write(args, _report_text(report))
    return EXIT_OK


def cmd_check(args) -> int:
    from . import serialize
    from .classify import Triple
    from .graded import GradedAlgebra
    from .systems import axiom_text, check_axioms, dualize

    obj = _load(args.input)
    if isinstance(obj, Triple):
        try:
            obj.validate(args.tolerance)
        except ValueError as exc:
            if args.format == "json":
                _write(args, serialize.dumps_canonical({"failure": str(exc), "passed": False}))
            else:
                print(f"check: FAIL ({exc})", file=sys.stderr)
            return EXIT_AXIOM_FAIL
        _write(args, serialize.dumps_canonical({"passed": True}) if args.format == "json"
               else "check: PASS (triple invariants hold)")
        return EXIT_OK
    sys_obj = dualize(obj) if isinstance(obj, GradedAlgebra) else obj
    rep = check_axioms(sys_obj, args.tolerance)
    if args.format == "json":
        _write(args, serialize.dumps_canonical({name: getattr(rep, name)
                                                for name in rep.__slots__}))
    else:
        status = "PASS" if rep.passed else "FAIL"
        _write(args, f"check: {status} ({axiom_text(rep)})")
    return EXIT_OK if rep.passed else EXIT_AXIOM_FAIL


def _e3_plane_is_rank1(lam: complex, eps: float) -> bool:
    """Whether the plane of the canonical E3(lam) reads as rank 1 at eps, so
    that `classify` can tell the system from E4; a plane that collapses to a
    line does not."""
    from .classify import TripleClass, canonical_beta, rank_of_plane
    from .tensorlinalg import Subspace

    try:
        plane = Subspace.from_spanning(canonical_beta(TripleClass("C3", lam), 1), eps=eps)
        return rank_of_plane(plane, eps) == 1
    except ValueError:
        return False


def cmd_generate(args) -> int:
    import numpy as np

    from . import serialize
    from .systems import SystemLabel, axiom_text, canonical_system, check_axioms, random_system

    if args.label == "E3" and args.lam is None:
        print("error: --class E3 requires --lambda", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.label == "E3" and not np.isfinite(args.lam):
        print("error: --lambda must be finite", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        label = SystemLabel(args.label, args.lam if args.label == "E3" else None)
        if label.lam is not None and not _e3_plane_is_rank1(label.lam, args.tolerance):
            print(f"error: --lambda {label.lam:g} is too close to 0 or infinity for E3 "
                  f"to classify back at tolerance {args.tolerance:g}", file=sys.stderr)
            return EXIT_BAD_INPUT
        with np.errstate(over="raise", invalid="raise"):
            system = (random_system(label, args.seed, args.horizon) if args.scramble
                      else canonical_system(label, args.horizon))
    except ArithmeticError as exc:  # lambda^s, or a scrambled map, overflows
        print(f"error: --lambda overflows: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as exc:  # a zero lambda, or a horizon below 3
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    rep = check_axioms(system, args.tolerance)
    if not rep.passed:  # e.g. a large lambda^s that float64 cannot certify
        print(f"error: the generated system fails the axioms at tolerance "
              f"{args.tolerance:g}: {axiom_text(rep)}", file=sys.stderr)
        return EXIT_BAD_INPUT
    _write(args, serialize.dumps_canonical(serialize.system_to_json(system)))
    return EXIT_OK


def cmd_dualize(args) -> int:
    from . import serialize
    from .classify import Triple
    from .systems import dualize

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
        default_tol = float(env_tol) if env_tol else DEFAULT_EPS
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
    if args.command == "verify-identity" and args.spot_check and args.seed < 0:
        print("error: --seed must not be negative", file=sys.stderr)
        return EXIT_BAD_INPUT
    handlers = {"verify-identity": cmd_verify_identity, "classify": cmd_classify,
                "check": cmd_check, "generate": cmd_generate, "dualize": cmd_dualize}
    return handlers[args.command](args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # stdout is gone: point it at devnull, so the final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
