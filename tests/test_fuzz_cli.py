"""Seeded structural fuzz of the file commands: mutants of a system, an
algebra and a triple payload run through `check`, `classify` and `dualize`,
and each must end in a documented exit code (0, 2, 3 or 4), never in an
exception.  The mutations replace, delete, rename, wrap or duplicate a node
of the JSON tree, or move the magnitude of an entry or of a whole map: 1e300,
1e308, subnormal values, which the closed-form scalar paths (the span of
beta[1, 1], the plane read, the level recursion) must survive as LAPACK
did."""

import argparse
import contextlib
import copy
import io
import json
import random

from spsys2d import cli, serialize
from spsys2d.systems import SystemLabel, dualize, random_system, triple_of_system

BASE = random_system(SystemLabel("E3", 2 + 1j), 5, 4)
TEXTS = {kind: serialize.dumps_canonical(serialize.to_json(obj)) for kind, obj in (
    ("system", BASE), ("algebra", dualize(BASE)), ("triple", triple_of_system(BASE)))}
COMMANDS = ("check", "classify", "dualize")
MUTANTS = 2100  # per run, over the three payloads and the three commands
# every MAIN_EVERY-th mutant runs through `cli.main`, argv parsing included,
# on the parser it builds once; the rest call the command's handler directly
MAIN_EVERY = 4
DOCUMENTED_EXITS = {0, 2, 3, 4}

VALUES = (None, True, False, 0, -1, 2, 3.5, "x", "", [], {}, [0, 0], [[0, 0]],
          [[[1, 0], [0, 0]]], 1e300, -1e308, 5e-324, 1e-310, 10 ** 400)
KEYS = ("1,1", "0,1", "1,0", "9,9", "a", "1, 1", "", "kind", "horizon", "beta", "M", "E2")
FACTORS = (1e300, 1e-300, 1e-310, 5e-324, 2.0 ** 1000, 2.0 ** -1060)
MAGNITUDES = (1e300, 1e308, 1.5e308, -1e308, 5e-324, 1e-310, 1e-300, 0.0)


def _nodes(tree, path=()):
    """Every (path, node) of a JSON tree, the root first."""
    yield path, tree
    items = tree.items() if isinstance(tree, dict) else (
        enumerate(tree) if isinstance(tree, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _parent(tree, path):
    for key in path[:-1]:
        tree = tree[key]
    return tree


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_matrix(x) -> bool:
    return (isinstance(x, list) and x and all(isinstance(r, list) for r in x)
            and all(isinstance(z, list) and len(z) == 2 and all(map(_is_number, z))
                    for r in x for z in r))


# per payload: the paths of every node but the root, of its complex entries
# [re, im], and of its matrices
NODES, ENTRIES, MATRICES = ({kind: [path for path, node in _nodes(json.loads(text))
                                    if path and test(node)]
                             for kind, text in TEXTS.items()}
                            for test in (lambda node: True,
                                         lambda node: isinstance(node, list) and len(node) == 2
                                         and all(map(_is_number, node)),
                                         _is_matrix))


def mutate(kind: str, rng: random.Random) -> str:
    """The JSON text of one seeded mutant of the `kind` payload."""
    tree = json.loads(TEXTS[kind])
    op = rng.choice(("replace", "delete", "rename", "wrap", "duplicate", "entry", "scale"))
    if op == "entry":  # one entry's real or imaginary part, or both, to an extreme magnitude
        path = rng.choice(ENTRIES[kind])
        for part in rng.sample((0, 1), rng.randint(1, 2)):
            _parent(tree, path)[path[-1]][part] = rng.choice(MAGNITUDES)
        return json.dumps(tree)
    if op == "scale":  # a whole map times an extreme factor
        path = rng.choice(MATRICES[kind])
        f = rng.choice(FACTORS)
        _parent(tree, path)[path[-1]] = [[[z[0] * f, z[1] * f] for z in r]
                                         for r in _parent(tree, path)[path[-1]]]
        return json.dumps(tree)
    path = rng.choice(NODES[kind])
    parent, key = _parent(tree, path), path[-1]
    node = parent[key]
    if op == "replace":
        parent[key] = copy.deepcopy(rng.choice(VALUES))
    elif op == "delete":
        del parent[key]
    elif op == "wrap":
        parent[key] = [node]
    elif op == "rename" and isinstance(parent, dict):
        parent[rng.choice(KEYS)] = parent.pop(key)
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    elif op == "duplicate":  # a repeated key, which only the text can hold
        text = json.dumps(tree)
        item = json.dumps({key: node})[1:-1]
        return text[:-1] + ", " + item + "}" if parent is tree else text.replace(
            item, item + ", " + item, 1)
    else:  # rename in a list: swap two entries
        j = rng.randrange(len(parent))
        parent[key], parent[j] = parent[j], parent[key]
    return json.dumps(tree)


def run(command: str, text: str, through_main: bool) -> int:
    args = argparse.Namespace(input="mutant.json", tolerance=cli.DEFAULT_EPS, format="text",
                              output=None)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if through_main:
                return cli.main([command, "mutant.json"])
            return getattr(cli, "cmd_" + command)(args)
        except SystemExit as exc:  # `_load` exits 2 on malformed input
            return exc.code


def test_every_mutant_ends_in_a_documented_exit(monkeypatch):
    rng = random.Random(0)
    kinds, codes, text = list(TEXTS), {False: set(), True: set()}, ""
    monkeypatch.delenv("SPSYS_TOLERANCE", raising=False)  # `cli.main` reads it
    # `cli._load` reads the mutant from memory: a file per mutant costs ~1/4 of the run
    monkeypatch.setattr(cli, "open", lambda path, encoding: io.StringIO(text), raising=False)
    for i in range(MUTANTS):
        kind = kinds[i % 3]
        text = mutate(kind, rng)
        command = COMMANDS[(i // 3) % 3]
        try:
            through_main = i % MAIN_EVERY == 0
            code = run(command, text, through_main)
        except Exception as exc:  # pragma: no cover - the failure report
            raise AssertionError(f"{command} raised {exc!r} on mutant {i} "
                                 f"of the {kind}: {text[:400]}") from exc
        assert code in DOCUMENTED_EXITS, (command, kind, i, code, text[:400])
        codes[through_main].add(code)
    # the mutants reach every outcome, through the handlers and through `cli.main`
    assert codes == {False: DOCUMENTED_EXITS, True: DOCUMENTED_EXITS}
