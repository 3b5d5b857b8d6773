"""Every public top-level function and class of the package, every public
method of its classes and every name in `spsys2d.__all__` has a caller, and
no module of the package, the tests or the tools imports a name it does not
use.

A name counts as used when the package outside `__init__.py`, the benchmark
(`perfbench/`) or the acceptance tests refer to it in code (docstrings and
comments do not count).  A name that `spsys2d.__all__` exports may instead be
named in code in README's "Python API" section; being exported is not a use.
Other tests do not count: a helper that only its own tests call is dead weight.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import spsys2d

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spsys2d"
CALLERS = [*(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"),
           *sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
# the acceptance tests are kept as written, an unused `import pytest` included
IMPORTERS = [*sorted(PACKAGE.glob("*.py")),
             *(p for p in sorted((ROOT / "tests").glob("*.py")) if p.name != "test_acceptance.py"),
             *sorted((ROOT / "tools").glob("*.py"))]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced_names(attributes_only: bool = False) -> set:
    """Every identifier read, imported or looked up as an attribute; or, for
    methods, only the attribute lookups (a local variable `sample` does not
    call a method `sample`)."""
    names = set()
    for path in CALLERS:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif attributes_only:
                continue
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _python_api_section() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]


def _documented_exports() -> set:
    """The names of `spsys2d.__all__` that a code span or block of README's
    "Python API" section contains."""
    code = re.findall(r"```.*?```|`[^`]+`", _python_api_section(), flags=re.S)
    return set(re.findall(r"\w+", " ".join(code))) & set(spsys2d.__all__)


def test_readme_lists_exactly_the_exports_of_each_submodule():
    """Each "- `module`: names" bullet of README's "Python API" section names
    in code exactly the names that `spsys2d._EXPORTS` maps to that module, and
    each module of `_EXPORTS` has one bullet.  So an `_EXPORTS` literal whose
    repeated key drops a module's names fails here."""
    bullets = re.findall(r"^- `(\w+)`(.*?)(?=^- |^$|\Z)", _python_api_section(),
                         flags=re.M | re.S)
    modules = [module for module, _ in bullets]
    assert len(modules) == len(set(modules)), f"a submodule has two bullets: {modules}"
    listed = {module: sorted(re.findall(r"`([^`]+)`", body)) for module, body in bullets}
    exported = {}
    for name, module in spsys2d._EXPORTS.items():
        exported.setdefault(module, []).append(name)
    assert listed == {module: sorted(names) for module, names in exported.items()}


def _public_definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.name}:{node.name}", node.name


def _is_property(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def _public_methods():
    """Public methods of the package's classes; a property reads the value's
    data (e.g. `Polynomial.terms`) and is not counted as a method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in _parse(path).body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                            and not _is_property(node)):
                        yield f"{path.name}:{cls.name}.{node.name}", node.name


def test_every_public_definition_has_a_caller():
    """Each public definition, and each name `__all__` exports (constants
    too), is used."""
    used = _referenced_names() | _documented_exports()
    names = [*_public_definitions(), *((f"__all__:{n}", n) for n in spsys2d.__all__)]
    unused = [where for where, name in names if name not in used]
    assert not unused, f"public names with no caller: {unused}"


def test_the_package_imports_nothing_it_does_not_use():
    """Each name a module of the package, a test module or a tool binds by
    `import` or `from ... import` is read in that module (`from __future__`
    excepted)."""
    unused = []
    for path in IMPORTERS:
        imported, read = {}, set()
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif (isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        unused += [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert not unused, f"unused imports: {unused}"


def test_every_public_method_has_a_caller():
    used = _referenced_names(attributes_only=True)
    unused = [where for where, name in _public_methods() if name not in used]
    assert not unused, f"public methods with no caller: {unused}"


def test_all_names_resolve_once():
    names = spsys2d.__all__
    assert len(names) == len(set(names)), "a name is listed twice in __all__"
    missing = [n for n in names if not hasattr(spsys2d, n)]
    assert not missing, f"__all__ names that do not resolve: {missing}"


def test_the_lazy_package_resolves_each_name_to_its_submodule():
    for name in spsys2d.__all__:
        module = importlib.import_module(f"spsys2d.{spsys2d._EXPORTS[name]}")
        value = getattr(spsys2d, name)
        assert value is getattr(module, name), name
        # The module that defines the name, not one that imports it, so that
        # resolving it loads no module it does not need.
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
        assert name in dir(spsys2d), name
    star = {}
    exec("from spsys2d import *", star)
    assert set(spsys2d.__all__) <= set(star)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        spsys2d.no_such_name
