import json

import numpy as np
import pytest

import spsys2d.identity
from spsys2d import serialize
from spsys2d.classify import TripleClass, canonical_triple
from spsys2d.cli import SPOT_CHECK_CHUNK, main
from spsys2d.exactpoly import NVARS, Polynomial, int_det_bareiss
from spsys2d.graded import build_graded, catalog
from spsys2d.identity import d4_polynomial, d8_polynomial, det8_matrix
from spsys2d.systems import SystemLabel, canonical_system, dualize, random_system


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


def _per_point_flags(count, seed, d8, d4):
    """The spot-check as the loop over single points it was before batching:
    the reference the batched path must reproduce, match for match."""
    m8 = det8_matrix()
    rng = np.random.default_rng(seed)
    flags = []
    for _ in range(count):
        point = [int(v) for v in rng.integers(-9, 10, size=NVARS)]
        lhs = d8.evaluate(point)
        oracle = int_det_bareiss(m8.evaluate(point))
        flags.append(lhs == oracle and lhs == -d4.evaluate(point))
    return flags


def _reference_output(flags, count):
    matches = sum(flags[:count])
    last = ("residual: 0 (zero polynomial); OK" if matches == count
            else "FAIL: oracle disagreement")
    return f"spot-check: {matches}/{count} matches\n{last}\n"


class TestBatchedSpotCheck:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_output_equals_the_per_point_loop(self, capsys, seed):
        counts = (1, 25, 200, SPOT_CHECK_CHUNK + 1)
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
        monkeypatch.setattr("spsys2d.cli.d8_polynomial", lambda: corrupted)
        monkeypatch.setattr("spsys2d.cli.d4_polynomial", lambda: -corrupted)
        code, out, _ = run(capsys, "verify-identity", "--spot-check", "25", "--seed", "3")
        assert code == 1
        assert "FAIL: oracle disagreement" in out
        flags = _per_point_flags(25, 3, corrupted, -corrupted)
        assert 0 < sum(flags) < 25
        assert out == _reference_output(flags, 25)

    def test_matrix_batch_equals_per_point_evaluate(self):
        m8 = det8_matrix()
        pts = np.random.default_rng(5).integers(-9, 10, size=(30, NVARS))
        batch = m8.evaluate_batch(pts)
        assert batch.shape == (30, 8, 8)
        for i, p in enumerate(pts):
            assert batch[i].tolist() == m8.evaluate([int(v) for v in p])

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

    def test_system_and_algebra_with_one_defect_give_one_error(self, tmp_path, capsys):
        s = canonical_system(SystemLabel("E1"), 5)
        data = serialize.system_to_json(s)
        data["beta"]["2,1"][0][0] = [1.001, 0.0]
        errors = []
        for name, payload in (("s.json", data),
                              ("g.json", serialize.graded_to_json(
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
        (None, ("generate", "--class", "E3", "--lambda", "nan")),
        (None, ("generate", "--class", "E3", "--lambda", "inf")),
        (None, ("generate", "--class", "E3", "--lambda", "1e200")),
        (None, ("generate", "--class", "E3", "--lambda", "1e-200")),
        (None, ("generate", "--class", "E3", "--lambda", "1e-12")),
        (None, ("generate", "--class", "E3", "--lambda", "1e-10")),
        (None, ("generate", "--class", "E3", "--lambda", "1e12")),
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
