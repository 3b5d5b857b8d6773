"""Outcome census of the numeric pipeline: one sha256 over what
`classify_system`, the graded side and the CLI return or refuse on a grid of
scrambled systems, each clean and with one entry moved.

    python tools/census.py                         # the full grid, ~5 s
    python tools/census.py --seeds 1 --horizons 4  # a small grid, under 1 s

The grid is the benchmark's 12 cells (E1, E2, E4, E5 and E3 over eight
lambda), `--seeds` seeds each (`random_system(cell, 1000 k + 7, h)`, k = 0,
1, ...) and each horizon of `--horizons`.  Each system is classified as it is
and with one seeded entry moved by 1e-9, 1e-6 and 1e-3 times its largest
|entry|.  A record holds the label, lambda, rank and rank margin, the theta
stack's bytes, the certificate's residuals and those `iso_residuals` gives
against the canonical system, every float by `float.hex`; or, for a refusal,
the exception's type, stage and text.  At each horizon the hash also takes,
for each cell's clean system of the first seed: `extend_morphism` from the
dual of the canonical system onto the dual of the scrambled one, from theta_1
and theta_2 of `classify_system` transposed (its theta bytes,
`level_residuals` and `is_isomorphism`, or the refusal); and, for every third
cell (E1, E5, E3 at -1 and 2+i), the exit code and the text that `spsys2d
classify` (text and JSON), `check` and `dualize` print for its file.  And it
takes the graded side: `build_graded` of each catalog algebra with each
candidate eta, and `twist` of each such algebra by each candidate as a
constant level family (each stack's bytes, or the refusal).
The counts in the output line are those of the `classify_system` records.
The script imports the package from the `src/` of its own checkout, so two
checkouts that print the same line compute the grid bit for bit alike: to
check a change, run it in the change's checkout and in the parent's (from
`git archive`).  It prints

    sha256 <hex> records <n> refusals <r>
    axiom checks <k> of <n> records

The second line, which the hash does not take, counts the records whose
`classify_system` call ran `check_axioms`: those its O(h^2) axiom bound did
not decide, and those a stage refused.  A change to the bound that keeps the
first line and this count keeps where the bound decides.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from spsys2d import cli, serialize, systems  # noqa: E402
from spsys2d.graded import (  # noqa: E402
    CATALOG_NAMES, build_graded, catalog, extend_morphism, is_isomorphism, twist,
)
from spsys2d.systems import (  # noqa: E402
    SubproductSystem, SystemLabel, canonical_system, classify_system, dualize, iso_residuals,
    random_system,
)

CELLS = tuple(SystemLabel(x) for x in ("E1", "E2", "E4", "E5")) + tuple(
    SystemLabel("E3", complex(lam)) for lam in (0.25, 0.5, -1.0, 1.0, 1j, 2 + 1j, 3.0, 4.0))
MOVES = (0.0, 1e-9, 1e-6, 1e-3)
# the candidate eta of `build_graded` and constant levels of `twist`
ETAS = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])) + tuple(
    np.diag([1, lam]) for lam in (2.0, -0.5, 1j, 1 + 1j))
COMMANDS = (("classify",), ("classify", "--format", "json"), ("check",), ("dualize",))


def _floats(residuals: dict) -> list:
    return [(key, value.hex()) for key, value in residuals.items()]


def refusal(exc: Exception) -> tuple:
    return type(exc).__name__, getattr(exc, "stage", None), str(exc)


@contextlib.contextmanager
def counted_axiom_checks():
    """A one-item list that counts the calls of `systems.check_axioms`, the
    one `classify_system` makes, within the block."""
    calls, check_axioms = [0], systems.check_axioms

    def counted(*args, **kwargs):
        calls[0] += 1
        return check_axioms(*args, **kwargs)

    systems.check_axioms = counted
    try:
        yield calls
    finally:
        systems.check_axioms = check_axioms


def outcome(system: SubproductSystem) -> tuple:
    """(refused, checked, record) for one system, checked being whether
    `classify_system` ran `check_axioms`."""
    with counted_axiom_checks() as calls:
        try:
            result = classify_system(system)
        except Exception as exc:  # noqa: BLE001 - a refusal of any kind is an outcome
            return True, bool(calls[0]), refusal(exc)
    label, iso = result
    lam = None if label.lam is None else (label.lam.real.hex(), label.lam.imag.hex())
    canonical = canonical_system(label, system.horizon)
    return False, bool(calls[0]), (label.label, lam, result.rank,
                                   float(result.rank_margin).hex(), iso.stack.tobytes(),
                                   _floats(result.residuals),
                                   _floats(iso_residuals(system, canonical, iso)))


def extension(system: SubproductSystem) -> tuple:
    """`extend_morphism` from the dual of the canonical system onto the dual
    of `system`, from theta_1 and theta_2 of `classify_system`, transposed."""
    try:
        result = classify_system(system)
        theta = result.iso.stack
        m = extend_morphism(dualize(canonical_system(result.label, system.horizon)),
                            dualize(system), theta[0].T, theta[1].T)
    except Exception as exc:  # noqa: BLE001 - a refusal of any kind is an outcome
        return refusal(exc)
    return m.stack.tobytes(), _floats(m.level_residuals()), is_isomorphism(m)


def graded_side(h: int):
    """Each catalog algebra with each candidate eta, and its twists by each
    candidate as a constant family: (name, index of eta, index of the twist's
    level or None, record)."""
    for name in CATALOG_NAMES:
        for i, eta in enumerate(ETAS):
            try:
                g = build_graded(catalog(name), eta, h)
            except Exception as exc:  # noqa: BLE001
                yield name, i, None, refusal(exc)
                continue
            yield name, i, None, g.stack.tobytes()
            for j, f in enumerate(ETAS):
                try:
                    record = twist(g, lambda t, f=f: f).stack.tobytes()
                except Exception as exc:  # noqa: BLE001
                    record = refusal(exc)
                yield name, i, j, record


def printed(systems: list):
    """(file, command, exit code, stdout, stderr) of the CLI on each system's
    file."""
    with tempfile.TemporaryDirectory() as tmp:
        for n, system in enumerate(systems):
            path = Path(tmp) / f"{n}.json"
            path.write_text(serialize.dumps_canonical(serialize.to_json(system)))
            for command in COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main([*command, str(path)])
                yield n, command, code, out.getvalue(), err.getvalue()


def census(seeds: int, horizons: list) -> tuple:
    """(sha256 hex digest, records, refusals, axiom checks) over the grid."""
    digest = hashlib.sha256()
    records = refusals = checks = 0
    for h in horizons:
        for k in range(seeds):
            seed = 1000 * k + 7
            for cell in CELLS:
                base = random_system(cell, seed, h)
                rng = np.random.default_rng([seed, h])
                where = (rng.integers(len(base.stack)), rng.integers(4), rng.integers(2))
                for move in MOVES:
                    stack = base.stack.copy()
                    stack[where] += move * np.abs(stack).max()
                    refused, checked, record = outcome(SubproductSystem(h, stack))
                    digest.update(repr((cell, seed, h, move, record)).encode())
                    records += 1
                    refusals += refused
                    checks += checked
        scrambled = [random_system(cell, 7, h) for cell in CELLS]
        for cell, system in zip(CELLS, scrambled):
            digest.update(repr((cell, h, extension(system))).encode())
        for record in graded_side(h):
            digest.update(repr((h, record)).encode())
        for record in printed(scrambled[::3]):
            digest.update(repr((h, record)).encode())
    return digest.hexdigest(), records, refusals, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds per cell (default 10)")
    parser.add_argument("--horizons", default="6,12,20",
                        help="comma-separated horizons, each at least 3 (default 6,12,20)")
    args = parser.parse_args(argv)
    horizons = [int(h) for h in args.horizons.split(",")]
    digest, records, refusals, checks = census(args.seeds, horizons)
    print(f"sha256 {digest} records {records} refusals {refusals}")
    print(f"axiom checks {checks} of {records} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
