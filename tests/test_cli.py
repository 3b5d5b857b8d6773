import json

import numpy as np
import pytest

from spsys2d import serialize
from spsys2d.classify import TripleClass, canonical_triple
from spsys2d.cli import main
from spsys2d.graded import build_graded, catalog
from spsys2d.systems import SystemLabel, canonical_system, random_system


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
        data = json.loads(serialize.dumps_canonical(serialize.graded_to_json(g)))
        back = serialize.from_json(data)
        for k in g.M:
            assert np.allclose(g.M[k], back.M[k])

    def test_triple_round_trip(self):
        t = canonical_triple(TripleClass("C3", 1 - 1j))
        data = json.loads(serialize.dumps_canonical(serialize.triple_to_json(t)))
        back = serialize.from_json(data)
        assert back.E2.equals(t.E2)
        assert back.E3.equals(t.E3)

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

    def test_graded_payload_classifies_via_duality(self, tmp_path, capsys):
        g = build_graded(catalog("D1"), np.array([[0.0, 1.0], [1.0, 0.0]]), 6)
        path = tmp_path / "g.json"
        path.write_text(serialize.dumps_canonical(serialize.graded_to_json(g)))
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

    def test_unclassifiable_triple_is_4(self, tmp_path, capsys):
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
        code, _, err = run(capsys, "classify", str(path))
        assert code == 4

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
        # parser is rebuilt per call, so the env var is honored
        code, _, _ = run(capsys, "verify-identity")
        assert code == 0
