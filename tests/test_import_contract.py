"""Each CLI command, run cold as `python -m spsys2d.cli` in its own
interpreter, loads only the half of the package it runs, and a bare
`import spsys2d` loads no submodule.  `--help` and `verify-identity` load
neither numpy nor `dataclasses`, and no command loads `dataclasses`: the
numeric half's records are plain classes, so no process spends its start
generating their methods.  `generate` and the file commands on a system or an
algebra load the system path and neither `graded` (the theory of the graded
side) nor `classify` (triples and the Main Lemma): with no bytecode cache,
each module a process loads is compiled at its start.  Only a triple loads
`classify`.

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
from spsys2d import serialize
from spsys2d.classify import canonical_triple
from spsys2d.plane import TripleClass

SRC = Path(spsys2d.__file__).resolve().parents[1]
EXACT = {"spsys2d.exactpoly", "spsys2d.identity"}
SYSTEM_PATH = {"spsys2d.plane", "spsys2d.stacks", "spsys2d.systems", "spsys2d.serialize"}
THEORY = {"spsys2d.classify", "spsys2d.graded"}
NUMERIC = SYSTEM_PATH | THEORY
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


@pytest.fixture(scope="module")
def inputs(generated):
    """The generated system file, its dual algebra file (written by a cold
    `dualize`) and the canonical C1 triple's file, by kind."""
    path, _ = generated
    proc, _ = cold("-m", "spsys2d.cli", "dualize", str(path), "--output", "g.json",
                   cwd=path.parent)
    assert proc.returncode == 0, proc.stderr
    triple = path.parent / "t.json"
    triple.write_text(serialize.dumps_canonical(serialize.to_json(
        canonical_triple(TripleClass("C1")))))
    return {"system": path, "algebra": path.parent / "g.json", "triple": triple}


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


def test_generate_loads_only_the_system_path(generated):
    _, modules = generated
    assert SYSTEM_PATH <= modules
    assert not modules & (EXACT | THEORY | {"dataclasses"})


@pytest.mark.parametrize("kind, command, out", [
    ("system", "classify", "label: E3"), ("system", "check", "check: PASS"),
    ("system", "dualize", '"kind":"graded_algebra"'),
    ("algebra", "classify", "label: E3"), ("algebra", "check", "check: PASS"),
    ("algebra", "dualize", '"kind":"subproduct_system"'),
])
def test_a_file_command_loads_only_the_system_path(inputs, kind, command, out):
    proc, modules = cold("-m", "spsys2d.cli", command, str(inputs[kind]))
    assert proc.returncode == 0, proc.stderr
    assert out in proc.stdout
    assert SYSTEM_PATH <= modules
    assert not modules & (EXACT | THEORY | {"dataclasses"})


@pytest.mark.parametrize("command, code, stream, out", [
    ("classify", 0, "stdout", "label: C1\nrank: 2 (confidence "),
    ("check", 0, "stdout", "check: PASS (triple invariants hold)\n"),
    ("dualize", 2, "stderr", "error: triples have no dual representation here\n"),
])
def test_a_triple_file_loads_classify(inputs, command, code, stream, out):
    proc, modules = cold("-m", "spsys2d.cli", command, str(inputs["triple"]))
    assert proc.returncode == code, proc.stderr
    assert out in getattr(proc, stream)  # stderr also holds the -X importtime lines
    assert NUMERIC - {"spsys2d.graded"} <= modules
    assert not modules & (EXACT | {"spsys2d.graded", "dataclasses"})


def test_the_system_path_exports_load_neither_classify_nor_graded():
    # each name resolves from the module that defines it, not from one that
    # re-imports it; `import_module` does not report to -X importtime, so the
    # loaded modules are read from sys.modules
    proc, _ = cold("-c", "import sys, spsys2d; spsys2d.Classification; spsys2d.TripleClass; "
                         "spsys2d.GradedAlgebra; spsys2d.SubproductSystem; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.split())
    assert SYSTEM_PATH - {"spsys2d.serialize"} <= modules
    assert not modules & THEORY
