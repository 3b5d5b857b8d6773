"""One classification result: `classify_system` and `classify_triple` return
their evidence, and `spsys2d classify` only formats it.

The reference functions below are the earlier composition, which rebuilt the
evidence after classifying: `classify_system`, then `canonical_system`,
`iso_residuals` and `rank_with_margin(triple_of_system(...).E2)`.  The reports
the CLI writes must equal the ones built that way, and the CLI must compute
each quantity once.
"""

import json
from collections import Counter

import numpy as np
import pytest

import spsys2d
from spsys2d import classify, cli, serialize, systems
from spsys2d.classify import (Classification, NotSubproductTripleError, TripleClass,
                              canonical_triple, classify_triple, rank_with_margin)
from spsys2d.cli import main
from spsys2d.systems import (ClassifyStageError, SystemLabel, canonical_system, check_axioms,
                             classify_system, dualize, iso_residuals, random_system,
                             triple_of_system)

# the cells of the benchmark grid
CELLS = tuple(SystemLabel(x) for x in ("E1", "E2", "E4", "E5")) + tuple(
    SystemLabel("E3", complex(lam)) for lam in (0.25, 0.5, -1.0, 1.0, 1j, 2 + 1j, 3.0, 4.0))
TOLERANCES = (1e-6, 1e-9, 1e-12)


def ref_classify_report(obj, eps):
    if isinstance(obj, classify.Triple):
        cls, iso = classify_triple(obj, eps)
        rank, margin = rank_with_margin(obj.E2, eps)
        report = {
            "label": cls.label,
            "theta": serialize.matrix_to_json(iso.theta),
            "rank": rank,
            "rank_confidence": margin,
        }
        if cls.lam is not None:
            report["lambda"] = serialize.complex_to_json(cls.lam)
        return report
    sys_obj = dualize(obj) if isinstance(obj, spsys2d.GradedAlgebra) else obj
    label, iso = classify_system(sys_obj, eps)
    residuals = iso_residuals(sys_obj, canonical_system(label, sys_obj.horizon), iso)
    rank, margin = rank_with_margin(triple_of_system(sys_obj, eps).E2, eps)
    report = {
        "label": label.label,
        "theta": {str(t): serialize.matrix_to_json(m) for t, m in iso.theta.items()},
        "residuals": {f"{s},{t}": r for (s, t), r in residuals.items()},
        "max_residual": max(residuals.values()),
        "rank": rank,
        "rank_confidence": margin,
    }
    if label.lam is not None:
        report["lambda"] = serialize.complex_to_json(label.lam)
    return report


def ref_check_payload(rep):
    return {
        "passed": rep.passed,
        "worst_associativity_residual": rep.worst_associativity_residual,
        "first_failing_triple": list(rep.first_failing_triple)
        if rep.first_failing_triple else None,
        "injectivity_failures": [list(p) for p in rep.injectivity_failures],
        "min_singular_value": rep.min_singular_value,
    }


def _write(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(serialize.dumps_canonical(payload))
    return str(path)


def _written(tmp_path, name, obj):
    """The file of obj, and obj as read back from it."""
    path = _write(tmp_path, name, serialize.to_json(obj))
    with open(path, encoding="utf-8") as fh:
        return path, serialize.from_json(json.load(fh))


def _inputs(horizon=6):
    """(name, object) for a scrambled system, its dual and its triple per cell."""
    for i, label in enumerate(CELLS):
        s = random_system(label, 1000 + i, horizon)
        yield f"sys{i}", s
        yield f"dual{i}", dualize(s)
        yield f"tri{i}", triple_of_system(s)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestResult:
    def test_unpacks_as_label_and_iso(self):
        s = random_system(SystemLabel("E3", 2 + 1j), 3, 8)
        result = classify_system(s)
        assert isinstance(result, Classification)
        label, iso = result
        assert label is result.label and iso is result.iso
        assert label.label == "E3" and abs(label.lam - (2 + 1j)) < 1e-9
        assert spsys2d.Classification is Classification

    def test_system_result_carries_the_certificate_and_rank(self):
        s = random_system(SystemLabel("E3", 0.5), 4, 8)
        result = classify_system(s)
        assert result.residuals == iso_residuals(
            s, canonical_system(result.label, 8), result.iso)
        assert set(result.residuals) == set(s.beta)
        assert (result.rank, result.rank_margin) == rank_with_margin(triple_of_system(s).E2)
        assert result.rank == 1

    @pytest.mark.parametrize("label, lam, rank", [
        ("C1", None, 2), ("C2", None, 2), ("C3", 1 - 1j, 1), ("C4", None, 0), ("C5", None, 0),
    ])
    def test_triple_result_has_rank_and_no_residuals(self, label, lam, rank):
        t = canonical_triple(TripleClass(label, lam))
        result = classify_triple(t)
        assert result.residuals == {}
        assert result.rank == rank
        assert (result.rank, result.rank_margin) == rank_with_margin(t.E2)
        nf = classify.plane_normal_form(t.E2)
        assert (nf.rank, nf.margin) == (result.rank, result.rank_margin)

    def test_result_is_frozen(self):
        result = classify_triple(canonical_triple(TripleClass("C1")))
        with pytest.raises(AttributeError):
            result.rank = 0


class TestComputedOnce:
    COUNTED = (
        (systems, "triple_of_system"),
        (systems, "canonical_system"),
        (systems, "iso_residuals"),
        (classify, "restricted_form_matrix"),
    )

    def _count(self, monkeypatch) -> Counter:
        counts = Counter()
        modules = (cli, systems, classify)
        for home, name in self.COUNTED:
            real = getattr(home, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            for module in modules:  # wherever the name is imported
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("kind", ["system", "algebra", "triple"])
    def test_classify_calls_each_stage_at_most_once(self, tmp_path, capsys, monkeypatch, kind):
        s = random_system(SystemLabel("E3", 2 + 1j), 5, 6)
        obj = {"system": s, "algebra": dualize(s), "triple": triple_of_system(s)}[kind]
        path = _write(tmp_path, "in.json", serialize.to_json(obj))
        counts = self._count(monkeypatch)
        code, out, _ = _run(capsys, "classify", path)
        assert code == 0 and out.startswith("label: C3" if kind == "triple" else "label: E3")
        assert counts["restricted_form_matrix"] == 1
        for _, name in self.COUNTED:
            assert counts[name] <= 1, (name, dict(counts))


class TestReportsMatchTheReference:
    @pytest.mark.parametrize("eps", TOLERANCES)
    def test_classify_reports(self, tmp_path, capsys, eps):
        for name, written in _inputs():
            path, obj = _written(tmp_path, f"{name}.json", written)
            try:
                want = ref_classify_report(obj, eps)
            except (ClassifyStageError, NotSubproductTripleError) as exc:
                code, out, err = _run(capsys, "classify", path, "--tolerance", str(eps))
                assert code in (3, 4) and out == "" and str(exc) in err, name
                continue
            code, out, _ = _run(capsys, "classify", path, "--tolerance", str(eps),
                                "--format", "json")
            assert code == 0, name
            assert out == serialize.dumps_canonical(want) + "\n", name
            code, out, _ = _run(capsys, "classify", path, "--tolerance", str(eps))
            assert code == 0, name
            assert out == cli._report_text(want) + "\n", name

    def test_check_json_payload(self, tmp_path, capsys):
        passing = random_system(SystemLabel("E2"), 3, 6)
        coassoc = dict(canonical_system(SystemLabel("E1"), 5).beta)
        coassoc[(2, 1)] = coassoc[(2, 1)].copy()
        coassoc[(2, 1)][0, 0] = 1.001
        inject = dict(canonical_system(SystemLabel("E4"), 5).beta)
        inject[(1, 2)] = np.outer(inject[(1, 2)][:, 0], [1.0, 1.0])
        reports = []
        for name, sys_obj in (("pass", passing),
                              ("coassoc", systems.SubproductSystem(5, coassoc)),
                              ("inject", systems.SubproductSystem(5, inject))):
            for written in (sys_obj, dualize(sys_obj)):
                path, obj = _written(tmp_path, f"{name}.json", written)
                rep = check_axioms(dualize(obj) if isinstance(obj, spsys2d.GradedAlgebra)
                                   else obj)
                code, out, _ = _run(capsys, "check", path, "--format", "json")
                assert code == (0 if rep.passed else 3)
                assert out == serialize.dumps_canonical(ref_check_payload(rep)) + "\n"
            reports.append(rep)
        ok, coassoc_rep, inject_rep = reports
        assert ok.passed
        assert coassoc_rep.first_failing_triple and not coassoc_rep.injectivity_failures
        assert inject_rep.injectivity_failures
