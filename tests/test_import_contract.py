"""Each CLI command, run cold as `python -m spsys2d.cli` in its own
interpreter, loads only the half of the package it runs, and a bare
`import spsys2d` loads no submodule.  `--help` and `verify-identity` load
neither numpy nor `dataclasses`.

The modules are read from `python -X importtime`, which lists every import
as it happens, function-level ones included.  Earlier tests in this process
have imported every module, so only a fresh interpreter shows which modules
a command loads.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spsys2d

SRC = Path(spsys2d.__file__).resolve().parents[1]
EXACT = {"spsys2d.exactpoly", "spsys2d.identity"}
NUMERIC = {"spsys2d.classify", "spsys2d.graded", "spsys2d.systems", "spsys2d.serialize"}
HEAVY = {"numpy", "dataclasses"}
IMPORTED = re.compile(r"^import time:[^|]*\|[^|]*\|\s*([\w.]+)\s*$", re.M)


def cold(*args, cwd=None):
    """The completed process and the set of modules it imported."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return proc, set(IMPORTED.findall(proc.stderr))


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A scrambled E3 system file, written by a cold `generate`."""
    workdir = tmp_path_factory.mktemp("cold")
    proc, modules = cold("-m", "spsys2d.cli", "generate", "--class", "E3", "--lambda", "2,1",
                         "--scramble", "--seed", "9", "--output", "s.json", cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    return workdir / "s.json", modules


def test_a_bare_import_loads_no_submodule():
    proc, modules = cold("-c", "import spsys2d")
    assert proc.returncode == 0, proc.stderr
    assert not {m for m in modules if m.startswith("spsys2d.")}


def test_help_loads_neither_half_nor_numpy():
    proc, modules = cold("-m", "spsys2d.cli", "--help")
    assert proc.returncode == 0 and "verify-identity" in proc.stdout
    assert not modules & (EXACT | NUMERIC | HEAVY)


@pytest.mark.parametrize("flags, out", [
    ((), "residual: 0"),
    (("--spot-check", "5"), "spot-check: 5/5 matches"),
    (("--emit-terms",), "columns (1,2,7,8) sign +1"),
])
def test_verify_identity_loads_only_the_exact_half_and_no_numpy(flags, out):
    proc, modules = cold("-m", "spsys2d.cli", "verify-identity", *flags)
    assert proc.returncode == 0, proc.stderr
    assert out in proc.stdout
    assert EXACT <= modules
    assert not modules & (NUMERIC | HEAVY)


def test_the_spot_check_runs_where_numpy_cannot_be_imported():
    # a None entry in sys.modules makes every `import numpy` raise ImportError
    code = ("import sys; sys.modules['numpy'] = None; from spsys2d.cli import main; "
            "sys.exit(main(['verify-identity', '--spot-check', '25']))")
    proc, _ = cold("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "spot-check: 25/25 matches\nresidual: 0 (zero polynomial); OK\n"


def test_generate_loads_only_the_numeric_half(generated):
    _, modules = generated
    assert NUMERIC <= modules
    assert not modules & EXACT


@pytest.mark.parametrize("command, out", [
    ("classify", "label: E3"), ("check", "check: PASS"), ("dualize", '"kind":"graded_algebra"'),
])
def test_a_file_command_loads_only_the_numeric_half(generated, command, out):
    path, _ = generated
    proc, modules = cold("-m", "spsys2d.cli", command, str(path))
    assert proc.returncode == 0, proc.stderr
    assert out in proc.stdout
    assert NUMERIC <= modules
    assert not modules & EXACT
