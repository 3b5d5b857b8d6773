"""Outcome census of `classify_system`: one sha256 over what it returns or
refuses on a grid of scrambled systems, each clean and with one entry moved.

    python tools/census.py                         # the full grid, ~3 s
    python tools/census.py --seeds 1 --horizons 4  # a small grid, under 1 s

The grid is the benchmark's 12 cells (E1, E2, E4, E5 and E3 over eight
lambda), `--seeds` seeds each (`random_system(cell, 1000 k + 7, h)`, k = 0,
1, ...) and each horizon of `--horizons`.  Each system is classified as it is
and with one seeded entry moved by 1e-9, 1e-6 and 1e-3 times its largest
|entry|.  A record holds the label, lambda, rank and rank margin, the theta
stack's bytes, the certificate's residuals and those `iso_residuals` gives
against the canonical system, every float by `float.hex`; or, for a refusal,
the exception's type, stage and text.  The script imports the package from
the `src/` of its own checkout, so two checkouts that print the same line
classify the grid bit for bit alike.  It prints

    sha256 <hex> records <n> refusals <r>
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from spsys2d.systems import (  # noqa: E402
    SubproductSystem, SystemLabel, canonical_system, classify_system, iso_residuals,
    random_system,
)

CELLS = tuple(SystemLabel(x) for x in ("E1", "E2", "E4", "E5")) + tuple(
    SystemLabel("E3", complex(lam)) for lam in (0.25, 0.5, -1.0, 1.0, 1j, 2 + 1j, 3.0, 4.0))
MOVES = (0.0, 1e-9, 1e-6, 1e-3)


def _floats(residuals: dict) -> list:
    return [(key, value.hex()) for key, value in residuals.items()]


def outcome(system: SubproductSystem) -> tuple:
    """(refused, record) for one system."""
    try:
        result = classify_system(system)
    except Exception as exc:  # noqa: BLE001 - a refusal of any kind is an outcome
        return True, (type(exc).__name__, getattr(exc, "stage", None), str(exc))
    label, iso = result
    lam = None if label.lam is None else (label.lam.real.hex(), label.lam.imag.hex())
    canonical = canonical_system(label, system.horizon)
    return False, (label.label, lam, result.rank, float(result.rank_margin).hex(),
                   iso.stack.tobytes(), _floats(result.residuals),
                   _floats(iso_residuals(system, canonical, iso)))


def census(seeds: int, horizons: list) -> tuple:
    """(sha256 hex digest, records, refusals) over the grid."""
    digest = hashlib.sha256()
    records = refusals = 0
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
                    refused, record = outcome(SubproductSystem(h, stack))
                    digest.update(repr((cell, seed, h, move, record)).encode())
                    records += 1
                    refusals += refused
    return digest.hexdigest(), records, refusals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds per cell (default 10)")
    parser.add_argument("--horizons", default="6,12,20",
                        help="comma-separated horizons, each at least 3 (default 6,12,20)")
    args = parser.parse_args(argv)
    horizons = [int(h) for h in args.horizons.split(",")]
    digest, records, refusals = census(args.seeds, horizons)
    print(f"sha256 {digest} records {records} refusals {refusals}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
