import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spsys2d
import spsys2d.identity
from spsys2d import cli, serialize, stacks
from spsys2d.classify import canonical_triple
from spsys2d.cli import main
from spsys2d.exactpoly import NVARS, Polynomial, int_det_bareiss
from spsys2d.graded import build_graded, catalog
from spsys2d.identity import d4_polynomial, d8_polynomial, det8_matrix
from spsys2d.plane import TripleClass
from spsys2d.systems import SystemLabel, canonical_system, dualize, random_system


# one defect per payload, and the message `spsys2d` prints for it; the payload
# parser checks each map's shape itself, before the constructor
MALFORMED_TEXTS = {
    "stray key": "{name}[9,9] lies outside horizon 5",
    "wrong shape": "expected shape {shape}, got {flipped}",
    "not 2-d": "expected shape {shape}, got (0,)",
    "nan": "non-finite entries are not admitted",
    "inf": "non-finite entries are not admitted",
    "missing map": "missing {noun} {name}[1,2]",
    "horizon 2": "horizon must be at least 3",
}


# stand-ins for the entry 1.0 + 0j that are no JSON number, and an int past
# the float range
NOT_NUMBERS = {
    "true": True,
    "string": "1",
    "string pair": ["1", "0"],
    "boolean pair": [True, False],
    "huge int": [10 ** 400, 0],
}

def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSerialize:
    def test_system_round_trip(self):
        s = random_system(SystemLabel("E3", 2 + 1j), 5, 6)
        data = json.loads(serialize.dumps_canonical(serialize.system_to_json(s)))
        back = serialize.from_json(data)
        for k in s.beta:
            assert np.allclose(s.beta[k], back.beta[k])

    def test_graded_round_trip(self):
        g = build_graded(catalog("D2"), np.diag([1, 2.0]), 5)
        data = json.loads(serialize.dumps_canonical(serialize.to_json(g)))
        back = serialize.from_json(data)
        for k in g.M:
            assert np.allclose(g.M[k], back.M[k])

    def test_triple_round_trip(self, same_span):
        t = canonical_triple(TripleClass("C3", 1 - 1j))
        data = json.loads(serialize.dumps_canonical(serialize.triple_to_json(t)))
        back = serialize.from_json(data)
        assert same_span(back.E2, t.E2)
        assert same_span(back.E3, t.E3)

    def test_canonical_text_is_deterministic_and_sorted(self):
        text = serialize.dumps_canonical({"b": 1.5, "a": [1 + 2j], "c": True})
        assert text == '{"a":[[1.0,2.0]],"b":1.5,"c":true}'
        assert text == serialize.dumps_canonical({"c": True, "a": [1 + 2j], "b": 1.5})

    def test_seventeen_digit_floats_round_trip(self):
        x = 0.1 + 0.2
        text = serialize.dumps_canonical(x)
        assert json.loads(text) == x

    def test_nan_rejected(self):
        with pytest.raises(serialize.SerializationError):
            serialize.dumps_canonical(float("nan"))
        with pytest.raises(serialize.SerializationError):
            serialize.complex_to_json(complex("inf"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(serialize.SerializationError):
            serialize.from_json({"kind": "mystery"})


class TestVerifyIdentity:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "verify-identity")
        assert code == 0
        assert "residual: 0" in out

    def test_emit_terms(self, capsys):
        code, out, _ = run(capsys, "verify-identity", "--emit-terms")
        assert code == 0
        assert sum(1 for line in out.splitlines() if line.startswith("columns")) == 18

    def test_spot_check(self, capsys):
        code, out, _ = run(capsys, "verify-identity", "--spot-check", "25")
        assert code == 0
        assert "25/25 matches" in out


def _per_point_flags(count, seed, d8, d4):
    """The spot-check as a loop of scalar `Polynomial.evaluate` calls on the
    same `random.Random` stream: the reference the compiled path must
    reproduce, match for match."""
    m8 = det8_matrix()
    rng = random.Random(seed)
    flags = []
    for _ in range(count):
        point = [rng.randint(-9, 9) for _ in range(NVARS)]
        lhs = d8.evaluate(point)
        oracle = int_det_bareiss(m8.evaluate(point))
        flags.append(lhs == oracle and lhs == -d4.evaluate(point))
    return flags


def _reference_output(flags, count):
    matches = sum(flags[:count])
    last = ("residual: 0 (zero polynomial); OK" if matches == count
            else "FAIL: oracle disagreement")
    return f"spot-check: {matches}/{count} matches\n{last}\n"


class TestCompiledSpotCheck:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_output_equals_the_per_point_loop(self, capsys, seed):
        counts = (1, 25, 200, 513)
        flags = _per_point_flags(max(counts), seed, d8_polynomial(), d4_polynomial())
        for count in counts:
            code, out, _ = run(capsys, "verify-identity", "--spot-check", str(count),
                               "--seed", str(seed))
            assert code == 0
            assert out == _reference_output(flags, count)

    def test_corrupted_d8_fails_against_the_oracle(self, monkeypatch, capsys):
        terms = d8_polynomial().terms
        exps = min(terms)
        terms[exps] += 1
        corrupted = Polynomial(terms)
        # D8 + D4 = 0 still holds for the pair, so only the Bareiss oracle can tell
        monkeypatch.setattr("spsys2d.identity.d8_polynomial", lambda: corrupted)
        monkeypatch.setattr("spsys2d.identity.d4_polynomial", lambda: -corrupted)
        code, out, _ = run(capsys, "verify-identity", "--spot-check", "25", "--seed", "3")
        assert code == 1
        assert "FAIL: oracle disagreement" in out
        flags = _per_point_flags(25, 3, corrupted, -corrupted)
        assert 0 < sum(flags) < 25
        assert out == _reference_output(flags, 25)

    def test_matrix_gather_equals_per_point_evaluate(self):
        m8 = det8_matrix()
        at = m8.gather()
        rng = random.Random(5)
        for _ in range(30):
            point = [rng.randint(-9, 9) for _ in range(NVARS)]
            assert at(point) == m8.evaluate(point)

    def test_no_scalar_evaluation_and_one_expansion(self, monkeypatch, capsys):
        calls = {"evaluate": 0, "laplace_terms": 0}
        evaluate = Polynomial.evaluate
        laplace_terms = spsys2d.identity.laplace_terms

        def counting_evaluate(self, assignment):
            calls["evaluate"] += 1
            return evaluate(self, assignment)

        def counting_laplace_terms(*args):
            calls["laplace_terms"] += 1
            return laplace_terms(*args)

        monkeypatch.setattr(Polynomial, "evaluate", counting_evaluate)
        monkeypatch.setattr(spsys2d.identity, "laplace_terms", counting_laplace_terms)
        for cached in (d8_polynomial, d4_polynomial, spsys2d.identity.surviving_laplace_terms):
            cached.cache_clear()
        code, out, _ = run(capsys, "verify-identity", "--spot-check", "200", "--emit-terms")
        assert code == 0 and "200/200 matches" in out
        assert calls == {"evaluate": 0, "laplace_terms": 1}


class TestGenerateCheckClassify:
    def test_canonical_generate_then_check_and_classify(self, tmp_path, capsys):
        path = tmp_path / "e4.json"
        code, _, _ = run(capsys, "generate", "--class", "E4",
                         "--output", str(path))
        assert code == 0
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0 and "PASS" in out
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0 and "label: E4" in out

    def test_scrambled_e3_round_trip(self, tmp_path, capsys):
        path = tmp_path / "e3.json"
        code, _, _ = run(capsys, "generate", "--class", "E3", "--lambda", "2,1",
                         "--scramble", "--seed", "9", "--output", str(path))
        assert code == 0
        code, out, _ = run(capsys, "classify", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["label"] == "E3"
        lam = complex(report["lambda"][0], report["lambda"][1])
        assert abs(lam - (2 + 1j)) < 1e-8

    def test_small_lambda_still_round_trips_to_e3(self, tmp_path, capsys):
        path = tmp_path / "e3.json"
        code, _, _ = run(capsys, "generate", "--class", "E3", "--lambda", "1e-6",
                         "--output", str(path))
        assert code == 0
        code, out, _ = run(capsys, "classify", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["label"] == "E3" and report["rank"] == 1
        assert abs(complex(*report["lambda"]) - 1e-6) < 1e-14

    def test_generate_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run(capsys, "generate", "--class", "E3", "--lambda", "3",
                "--scramble", "--seed", "4", "--output", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_e3_requires_lambda(self, capsys):
        code, _, err = run(capsys, "generate", "--class", "E3")
        assert code == 2
        assert "lambda" in err

    def test_classify_triple_payload(self, tmp_path, capsys):
        t = canonical_triple(TripleClass("C3", 2.0))
        path = tmp_path / "t.json"
        path.write_text(serialize.dumps_canonical(serialize.triple_to_json(t)))
        code, out, _ = run(capsys, "classify", str(path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["label"] == "C3"
        assert abs(complex(*report["lambda"]) - 2.0) < 1e-8

    @pytest.mark.parametrize("label", ["E4", "E5", "C4", "C5"])
    def test_an_exactly_zero_form_reports_a_null_confidence(self, tmp_path, capsys, label):
        # a rank-0 plane read exactly has no singular value that could flip the rank
        obj = (canonical_system(SystemLabel(label), 6) if label[0] == "E"
               else canonical_triple(TripleClass(label)))
        path = tmp_path / "rank0.json"
        path.write_text(serialize.dumps_canonical(serialize.to_json(obj)))
        code, out, _ = run(capsys, "classify", str(path), "--format", "json")
        assert code == 0
        assert '"rank_confidence":null' in out
        assert json.loads(out)["rank"] == 0
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0 and "rank: 0 (confidence inf)" in out

    def test_graded_payload_classifies_via_duality(self, tmp_path, capsys):
        g = build_graded(catalog("D1"), np.array([[0.0, 1.0], [1.0, 0.0]]), 6)
        path = tmp_path / "g.json"
        path.write_text(serialize.dumps_canonical(serialize.to_json(g)))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0 and "label: E2" in out


class TestExitCodes:
    def test_malformed_json_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as err:
            run(capsys, "classify", str(path))
        assert err.value.code == 2

    def test_missing_file_is_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "classify", str(tmp_path / "absent.json"))
        assert err.value.code == 2

    def test_axiom_failure_is_3(self, tmp_path, capsys):
        s = canonical_system(SystemLabel("E1"), 5)
        data = serialize.system_to_json(s)
        data["beta"]["2,1"][0][0] = [1.001, 0.0]  # perturb associativity
        path = tmp_path / "broken.json"
        path.write_text(serialize.dumps_canonical(data))
        code, _, err = run(capsys, "classify", str(path))
        assert code == 3
        assert "(1, 1, 1)" in err

    def test_system_and_algebra_with_one_defect_give_one_error(self, tmp_path, capsys):
        s = canonical_system(SystemLabel("E1"), 5)
        data = serialize.system_to_json(s)
        data["beta"]["2,1"][0][0] = [1.001, 0.0]
        errors = []
        for name, payload in (("s.json", data),
                              ("g.json", serialize.to_json(
                                  dualize(serialize.from_json(data))))):
            path = tmp_path / name
            path.write_text(serialize.dumps_canonical(payload))
            code, _, err = run(capsys, "classify", str(path))
            assert code == 3
            errors.append(err)
        assert errors[0] == errors[1]
        assert len(errors[0].splitlines()) == 1
        assert "[axioms]" in errors[0] and "AxiomReport" not in errors[0]

    @pytest.mark.parametrize("command", ["classify", "check", "dualize"])
    @pytest.mark.parametrize("kind", ["system", "algebra"])
    @pytest.mark.parametrize("defect", list(MALFORMED_TEXTS))
    def test_a_malformed_map_is_2_not_a_looser_axiom_check(self, tmp_path, capsys, command,
                                                           kind, defect):
        data = serialize.system_to_json(canonical_system(SystemLabel("E1"), 5))
        data["beta"]["2,1"][0][0] = [1.5, 0.0]  # a coassociativity defect of 0.5
        if kind == "algebra":
            data = serialize.to_json(dualize(serialize.from_json(data)))
        path = tmp_path / "defect.json"
        path.write_text(serialize.dumps_canonical(data))
        assert run(capsys, "check", str(path))[0] == 3
        name, noun = ("beta", "map") if kind == "system" else ("M", "multiplication map")
        maps = data[name]
        shape = (len(maps["1,1"]), len(maps["1,1"][0]))
        if defect == "stray key":  # large, so it would dominate the axiom check's scale
            maps["9,9"] = [[[1e6, 0.0]] * shape[1]] * shape[0]
        elif defect == "wrong shape":
            maps["1,1"] = [list(col) for col in zip(*maps["1,1"])]
        elif defect == "not 2-d":
            maps["1,1"] = []
        elif defect in ("nan", "inf"):
            maps["1,1"][0][0] = [float(defect), 0.0]
        elif defect == "missing map":
            del maps["1,2"]
        else:
            data["horizon"] = 2
        path.write_text(json.dumps(data))  # NaN and Infinity as JSON extensions
        with pytest.raises(SystemExit) as err:
            run(capsys, command, str(path))
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert len(err_text.splitlines()) == 1
        message = MALFORMED_TEXTS[defect]
        assert message.format(name=name, noun=noun, shape=shape, flipped=shape[::-1]) in err_text

    @pytest.mark.parametrize("kind", ["system", "algebra"])
    def test_a_missing_map_is_named_before_the_degree_index(self, tmp_path, capsys,
                                                            monkeypatch, kind):
        """The 15 maps of an h = 6 system under horizon 10^6: the first
        missing map is named without enumerating the horizon's triples."""
        self.named_before_the_degree_index(tmp_path, capsys, monkeypatch, kind, 10 ** 6)

    @pytest.mark.parametrize("kind", ["system", "algebra"])
    def test_a_sparse_file_under_horizon_300_exits_2_at_once(self, tmp_path, capsys,
                                                             monkeypatch, kind):
        self.named_before_the_degree_index(tmp_path, capsys, monkeypatch, kind, 300)

    @staticmethod
    def named_before_the_degree_index(tmp_path, capsys, monkeypatch, kind, horizon):
        system = random_system(SystemLabel("E2"), 3, 6)
        data = serialize.to_json(system if kind == "system" else dualize(system))
        data["horizon"] = horizon
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        built = []
        real = stacks.degree_index

        def recorded(h):
            built.append(h)
            if h == horizon:
                raise AssertionError("degree_index built for the huge horizon")
            return real(h)

        monkeypatch.setattr(stacks, "degree_index", recorded)
        with pytest.raises(SystemExit) as err:
            run(capsys, "check", str(path))
        assert err.value.code == 2
        assert horizon not in built
        name, noun = ("beta", "map") if kind == "system" else ("M", "multiplication map")
        err_text = capsys.readouterr().err
        assert len(err_text.splitlines()) == 1
        assert f"missing {noun} {name}[1,6]" in err_text

    @pytest.mark.parametrize("command", ["classify", "check", "dualize"])
    @pytest.mark.parametrize("kind", ["system", "algebra"])
    @pytest.mark.parametrize("horizon", [4.7, 5.0, "5", True])
    def test_a_horizon_that_is_not_a_json_integer_is_2(self, tmp_path, capsys, command,
                                                       kind, horizon):
        system = canonical_system(SystemLabel("E1"), 5)
        data = serialize.to_json(system if kind == "system" else dualize(system))
        data["horizon"] = horizon
        path = tmp_path / "h.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as err:
            run(capsys, command, str(path))
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert len(err_text.splitlines()) == 1
        assert f"horizon must be an integer, got {horizon!r}" in err_text

    @pytest.mark.parametrize("command", ["classify", "check", "dualize"])
    @pytest.mark.parametrize("kind", ["system", "algebra"])
    @pytest.mark.parametrize("field", [[], 7, None])
    def test_a_map_field_that_is_not_an_object_is_2(self, tmp_path, capsys, command, kind,
                                                     field):
        name = "beta" if kind == "system" else "M"
        data = {"kind": "subproduct_system" if kind == "system" else "graded_algebra",
                "horizon": 4, name: field}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as err:
            run(capsys, command, str(path))
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert len(err_text.splitlines()) == 1
        assert f"{name} must be an object of maps, got {field!r}" in err_text

    @pytest.mark.parametrize("command", ["classify", "check"])
    @pytest.mark.parametrize("kind", ["system", "algebra"])
    @pytest.mark.parametrize("repeat", ["spelling", "literal"])
    def test_two_keys_naming_one_map_are_2(self, tmp_path, capsys, command, kind, repeat):
        system = canonical_system(SystemLabel("E1"), 5)
        data = serialize.to_json(system if kind == "system" else dualize(system))
        name = "beta" if kind == "system" else "M"
        other = json.dumps(data[name]["1,1"]).replace("1.0", "2.0")
        key = "01,1" if repeat == "spelling" else "1,1"
        # the repeat comes after the original key, so a silent last-wins would read it
        text = serialize.dumps_canonical(data).replace(
            f'"{name}":{{"1,1":', f'"{name}":{{"1,1":{other},"{key}":', 1)
        path = tmp_path / "dup.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as err:
            run(capsys, command, str(path))
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert len(err_text.splitlines()) == 1 and err_text.startswith("error: ")
        want = ("repeated key '1,1'" if repeat == "literal"
                else f"keys '1,1' and '01,1' both name {name}[1,1]")
        assert want in err_text

    @pytest.mark.parametrize("command", ["classify", "check", "dualize"])
    @pytest.mark.parametrize("part", ["E2", "E3"])
    def test_triple_without_a_plane_is_2(self, tmp_path, capsys, command, part):
        t = serialize.triple_to_json(canonical_triple(TripleClass("C1")))
        t[part] = t[part][:1]  # one spanning vector: a line, not a plane
        path = tmp_path / "t.json"
        path.write_text(json.dumps(t))
        with pytest.raises(SystemExit) as err:
            run(capsys, command, str(path))
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    def _refused(self, capsys, command, path) -> str:
        """The one `error:` line of a payload refused with exit 2."""
        with pytest.raises(SystemExit) as err:
            run(capsys, command, str(path))
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert len(err_text.splitlines()) == 1 and err_text.startswith("error: ")
        return err_text

    @pytest.mark.parametrize("command", ["classify", "check", "dualize"])
    @pytest.mark.parametrize("entry", list(NOT_NUMBERS))
    def test_an_entry_that_is_no_number_is_2(self, tmp_path, capsys, command, entry):
        data = serialize.system_to_json(canonical_system(SystemLabel("E1"), 5))
        assert data["beta"]["1,1"][0][0] == [1.0, 0.0]  # each stand-in reads as 1 or 0
        data["beta"]["1,1"][0][0] = NOT_NUMBERS[entry]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        assert "malformed subproduct system: malformed matrix" in self._refused(
            capsys, command, path)

    @pytest.mark.parametrize("command", ["classify", "check", "dualize"])
    @pytest.mark.parametrize("key", [" 1,1", "+1,1", "\u0661,1", "1,1 ", "1_0,1"])
    def test_an_index_key_of_other_than_ascii_digits_is_2(self, tmp_path, capsys, command,
                                                           key):
        data = serialize.system_to_json(canonical_system(SystemLabel("E1"), 5))
        data["beta"][key] = data["beta"].pop("1,1")
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        assert f"bad index key {key!r}" in self._refused(capsys, command, path)

    @pytest.mark.parametrize("command", ["classify", "check", "dualize"])
    def test_a_triple_with_a_boolean_entry_is_2(self, tmp_path, capsys, command):
        t = serialize.triple_to_json(canonical_triple(TripleClass("C1")))
        t["E2"][0][0] = True
        path = tmp_path / "t.json"
        path.write_text(json.dumps(t))
        assert "malformed triple: malformed matrix" in self._refused(capsys, command, path)

    def test_integer_entries_still_load(self, tmp_path, capsys):
        data = serialize.system_to_json(canonical_system(SystemLabel("E3", 2.0), 5))
        floats = tmp_path / "floats.json"
        floats.write_text(serialize.dumps_canonical(data))
        for maps in data["beta"].values():  # a real entry as a bare int, others [int, int]
            maps[:] = [[int(re) if im == 0 and re else [int(re), int(im)] for re, im in row]
                       for row in maps]
        ints = tmp_path / "ints.json"
        ints.write_text(json.dumps(data))
        assert '"1,1": [[1, [0, 0]], [[0, 0], 2]' in ints.read_text()
        for command in ("check", "classify", "dualize"):
            assert run(capsys, command, str(ints)) == run(capsys, command, str(floats))
            assert run(capsys, command, str(ints))[0] == 0

    @staticmethod
    def _uncontained_triple(tmp_path):
        # E3 not contained in the window spanned by E2 extensions
        payload = {
            "kind": "triple",
            "E2": [[[1, 0], [0, 0], [0, 0], [0, 0]],
                   [[0, 0], [0, 0], [0, 0], [1, 0]]],
            "E3": [[[0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]],
                   [[0, 0], [0, 0], [1, 0], [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]]],
        }
        path = tmp_path / "t.json"
        path.write_text(json.dumps(payload))
        return path

    def test_unclassifiable_triple_is_4(self, tmp_path, capsys):
        code, _, err = run(capsys, "classify", str(self._uncontained_triple(tmp_path)))
        assert code == 4

    def test_check_of_a_refused_triple_honours_the_format(self, tmp_path, capsys):
        path = str(self._uncontained_triple(tmp_path))
        failure = "E3 is not contained in the intersection of the E2 extensions"
        code, out, err = run(capsys, "check", path, "--format", "json")
        assert (code, err) == (3, "")
        assert out == serialize.dumps_canonical({"failure": failure, "passed": False}) + "\n"
        assert run(capsys, "check", path) == (3, "", f"check: FAIL ({failure})\n")

    def test_check_of_a_triple_honours_the_format(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(serialize.dumps_canonical(
            serialize.to_json(canonical_triple(TripleClass("C1")))))
        assert run(capsys, "check", str(path), "--format", "json") == (0, '{"passed":true}\n', "")
        assert run(capsys, "check", str(path)) == (
            0, "check: PASS (triple invariants hold)\n", "")

    def test_bad_tolerance_is_2(self, capsys):
        code, _, _ = run(capsys, "--tolerance", "-1", "verify-identity")
        assert code == 2

    @pytest.mark.parametrize("env, argv", [
        ("abc", ("verify-identity",)),
        ("nan", ("verify-identity",)),
        (None, ("--tolerance", "nan", "verify-identity")),
        (None, ("--tolerance", "inf", "verify-identity")),
        (None, ("verify-identity", "--tolerance", "inf")),
        (None, ("verify-identity", "--spot-check", "-5")),
        # random.Random(-1) would draw the points of seed 1
        (None, ("verify-identity", "--spot-check", "5", "--seed", "-1")),
        (None, ("generate", "--class", "E3", "--lambda", "nan")),
        (None, ("generate", "--class", "E3", "--lambda", "inf")),
        (None, ("generate", "--class", "E3", "--lambda", "1e200")),
        (None, ("generate", "--class", "E3", "--lambda", "1e-200")),
        (None, ("generate", "--class", "E3", "--lambda", "1e-12")),
        (None, ("generate", "--class", "E3", "--lambda", "1e-10")),
        (None, ("generate", "--class", "E3", "--lambda", "1e12")),
        # outputs that `check` would refuse: float64 cannot certify lambda^s
        (None, ("generate", "--class", "E3", "--lambda", "1e6")),
        (None, ("generate", "--class", "E3", "--lambda", "1e8")),
        (None, ("generate", "--class", "E3", "--lambda", "4", "--horizon", "16")),
        (None, ("generate", "--class", "E3", "--lambda", "4", "--horizon", "16",
                "--scramble")),
        (None, ("generate", "--class", "E3", "--lambda", "2,1", "--horizon", "32")),
    ])
    def test_edge_input_is_2_with_one_line_error(self, monkeypatch, capsys, env, argv):
        if env is None:
            monkeypatch.delenv("SPSYS_TOLERANCE", raising=False)
        else:
            monkeypatch.setenv("SPSYS_TOLERANCE", env)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("argv, err", [
        (("verify-identity", "--spot-check", "-5"), "error: --spot-check must not be negative\n"),
        (("verify-identity", "--spot-check", "5", "--seed", "-1"),
         "error: --seed must not be negative\n"),
        (("--seed", "-1", "verify-identity", "--spot-check", "1"),
         "error: --seed must not be negative\n"),
    ])
    def test_a_negative_count_or_seed_names_its_flag(self, capsys, argv, err):
        assert run(capsys, *argv) == (2, "", err)

    @pytest.mark.parametrize("argv", [("verify-identity", "--seed", "-1"),
                                      ("--seed", "-1", "verify-identity")])
    def test_a_negative_seed_is_unused_without_a_spot_check(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out == run(capsys, "verify-identity")[1]


class TestDualize:
    def test_involution_byte_identical(self, tmp_path, capsys):
        e = tmp_path / "e.json"
        g = tmp_path / "g.json"
        e2 = tmp_path / "e2.json"
        run(capsys, "generate", "--class", "E2", "--output", str(e))
        assert run(capsys, "dualize", str(e), "--output", str(g))[0] == 0
        assert run(capsys, "dualize", str(g), "--output", str(e2))[0] == 0
        assert e.read_bytes() == e2.read_bytes()

    def test_dual_of_e3_matches_b3(self, tmp_path, capsys):
        e = tmp_path / "e.json"
        run(capsys, "generate", "--class", "E3", "--lambda", "2",
            "--output", str(e))
        code, out, _ = run(capsys, "dualize", str(e))
        assert code == 0
        got = serialize.from_json(json.loads(out))
        want = build_graded(catalog("D2"), np.diag([1, 2.0]), 6)
        for k in want.M:
            assert np.allclose(got.M[k], want.M[k])


class TestEnvTolerance:
    def test_env_var_sets_default(self, monkeypatch, capsys):
        monkeypatch.setenv("SPSYS_TOLERANCE", "1e-6")
        # the env var is read on every call
        code, _, _ = run(capsys, "verify-identity")
        assert code == 0

    def test_env_var_is_read_per_call_and_the_parser_built_once_per_default(
            self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_verify_identity",
                            lambda args: seen.append(args.tolerance) or 0)
        cli._build_parser.cache_clear()
        for env in ("1e-6", "1e-7", "1e-6", "1e-7"):
            monkeypatch.setenv("SPSYS_TOLERANCE", env)
            assert main(["verify-identity"]) == 0
        assert seen == [1e-6, 1e-7, 1e-6, 1e-7]
        assert cli._build_parser.cache_info().misses == 2


def cold_cli(*argv, **kwargs):
    """`python -m spsys2d.cli` in a new process, on this checkout's source."""
    src = str(Path(spsys2d.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.Popen([sys.executable, "-m", "spsys2d.cli", *argv], env=env,
                            stderr=subprocess.PIPE, **kwargs)


class TestBrokenPipe:
    """A reader that closes stdout early (`| head`) ends the command with
    EXIT_BROKEN_PIPE and nothing on stderr, not a BrokenPipeError traceback."""

    def test_a_reader_gone_before_the_first_byte(self, tmp_path, capsys):
        path = tmp_path / "e34.json"
        code, _, _ = run(capsys, "generate", "--class", "E3", "--lambda", "4", "--scramble",
                         "--seed", "9", "--horizon", "12", "--output", str(path))
        assert code == 0
        read, write = os.pipe()
        os.close(read)
        try:
            proc = cold_cli("classify", str(path), "--format", "json", stdout=write)
        finally:
            os.close(write)
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")

    def test_a_reader_that_stops_after_400_bytes(self, tmp_path, capsys):
        # ~0.6 MB of output, past any pipe buffer: the writer must meet the close
        path = tmp_path / "big.json"
        code, _, _ = run(capsys, "generate", "--class", "E2", "--scramble", "--seed", "3",
                         "--horizon", "64", "--output", str(path))
        assert code == 0
        proc = cold_cli("dualize", str(path), stdout=subprocess.PIPE)
        assert len(proc.stdout.read(400)) == 400
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (141, b"")
