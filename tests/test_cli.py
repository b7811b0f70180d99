import json

import pytest

from confpp.cli import TASKS, main, validate_config
from confpp.errors import ValidationError

DISCRETE = {"kind": "discrete",
            "weights": [0.7, 1.2, 0.5, 0.9, 1.1, 0.6]}
BOX = {"kind": "continuum", "box": [[0.0, 1.0]]}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(tmp_path, cfg, extra=()):
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "report.json"
    code = main(["run", path, "--no-timestamp", "--out", str(out), *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestValidation:
    def test_missing_keys(self):
        with pytest.raises(ValidationError):
            validate_config({"name": "x"})

    def test_unknown_task_suggests(self):
        with pytest.raises(ValidationError, match="algebra-suite"):
            validate_config({"name": "x", "ground": DISCRETE,
                             "task": "algebra-suit", "seed": 1})

    def test_seed_must_be_explicit_integer(self):
        with pytest.raises(ValidationError):
            validate_config({"name": "x", "ground": DISCRETE,
                             "task": "algebra-suite", "seed": "auto"})

    def test_ground_kind_must_match_task(self):
        with pytest.raises(ValidationError):
            validate_config({"name": "x", "ground": BOX,
                             "task": "algebra-suite", "seed": 1})
        with pytest.raises(ValidationError):
            validate_config({"name": "x", "ground": DISCRETE,
                             "task": "identity:mecke", "seed": 1})

    def test_schema_version(self):
        with pytest.raises(ValidationError):
            validate_config({"name": "x", "ground": DISCRETE,
                             "task": "algebra-suite", "seed": 1,
                             "schema_version": 99})


class TestExitCodes:
    def test_malformed_config_exits_2(self, tmp_path):
        path = _write(tmp_path, "bad.json", {"name": "x"})
        assert main(["run", path]) == 2
        assert main(["validate", path]) == 2

    def test_unreadable_file_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.json")]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("field", ["replicas", "burn_in", "thinning",
                                       "proposal_points"])
    @pytest.mark.parametrize("value", ["NaN", "1e400", "2.5", "true"])
    def test_plan_fields_must_be_integers(self, tmp_path, capsys, field,
                                          value):
        # raw text: json.dumps cannot write NaN or 1e400 as given here
        path = tmp_path / "plan.json"
        path.write_text(
            '{"name": "x", "ground": {"kind": "continuum", "box": '
            '[[0.0, 1.0]]}, "task": "identity:mecke", "seed": 1, '
            f'"plan": {{"{field}": {value}}}}}')
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--no-timestamp"]) == 2
        assert f"plan {field} must be a JSON integer" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("parameters", [
        '{"model": "poisson", "z": NaN}',
        '{"model": "mixed-exponential", "theta": NaN}',
    ])
    def test_nan_intensity_exits_2(self, tmp_path, capsys, parameters):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"name": "x", "ground": {"kind": "continuum", "box": '
            '[[0.0, 1.0]]}, "task": "identity:counts", "seed": 1, '
            f'"parameters": {parameters}, "plan": {{"replicas": 10}}}}')
        out = tmp_path / "report.json"
        assert main(["run", str(path), "--no-timestamp", "--out",
                     str(out)]) == 2
        assert not out.exists()
        assert "positive and finite" in capsys.readouterr().err

    def test_valid_config_validates(self, tmp_path, capsys):
        path = _write(tmp_path, "ok.json",
                      {"name": "x", "ground": DISCRETE,
                       "task": "algebra-suite", "seed": 5,
                       "parameters": {"trials": 2}})
        assert main(["validate", path]) == 0
        assert "valid" in capsys.readouterr().out


class TestList:
    def test_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for task in TASKS:
            assert task in out

    def test_catalog_stable(self, capsys):
        main(["list"])
        first = capsys.readouterr().out
        main(["list"])
        assert capsys.readouterr().out == first


class TestRun:
    def test_algebra_suite(self, tmp_path):
        code, report = _run(tmp_path, {
            "name": "alg", "ground": DISCRETE, "task": "algebra-suite",
            "seed": 5, "parameters": {"trials": 5}})
        assert code == 0
        assert report["pass"] is True
        assert len(report["results"]) >= 6
        assert report["schema_version"] == 1
        assert "timestamp" not in report
        assert {"confpp", "numpy", "scipy", "python"} \
            <= set(report["versions"])

    def test_byte_identical_reports(self, tmp_path):
        cfg = {"name": "alg", "ground": DISCRETE, "task": "algebra-suite",
               "seed": 5, "parameters": {"trials": 3}}
        _, r1 = _run(tmp_path, cfg)
        _, r2 = _run(tmp_path, cfg)
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2,
                                                            sort_keys=True)

    def test_seed_override_changes_results(self, tmp_path):
        cfg = {"name": "alg", "ground": DISCRETE, "task": "algebra-suite",
               "seed": 5, "parameters": {"trials": 3}}
        _, r1 = _run(tmp_path, cfg)
        _, r2 = _run(tmp_path, cfg, extra=["--seed", "6"])
        assert r2["seed"] == 6
        assert json.dumps(r1) != json.dumps(r2)

    def test_generator_suite(self, tmp_path):
        code, report = _run(tmp_path, {
            "name": "gen", "ground": DISCRETE, "task": "generator-suite",
            "seed": 7, "parameters": {"kernels": 2}})
        assert code == 0 and report["pass"]
        checks = {r["check"] for r in report["results"]}
        assert "closed_vs_bruteforce" in checks
        assert "contact_order1_stationarity" in checks

    def test_generator_suite_above_the_dense_cap(self, tmp_path, capsys):
        # 13 sites: the dense forms refuse before anything is allocated
        code, report = _run(tmp_path, {
            "name": "gen", "task": "generator-suite", "seed": 7,
            "ground": {"kind": "discrete", "weights": [1.0] * 13},
            "parameters": {"kernels": 1, "k_trunc": 1}})
        assert code == 2 and report is None
        assert "limited to 12 sites" in capsys.readouterr().err

    def test_identity_mecke(self, tmp_path):
        code, report = _run(tmp_path, {
            "name": "mecke", "ground": BOX, "task": "identity:mecke",
            "seed": 11, "parameters": {"z": 2.0},
            "plan": {"replicas": 800}})
        assert code == 0
        rec = report["results"][0]
        assert abs(rec["z_score"]) <= 4

    def test_identity_counts(self, tmp_path):
        code, report = _run(tmp_path, {
            "name": "cnt", "ground": BOX, "task": "identity:counts",
            "seed": 13,
            "parameters": {"model": "poisson", "z": 1.0, "n_max": 6},
            "plan": {"replicas": 4000}})
        assert code == 0 and report["pass"]

    def test_fourier_covering_conv_fails_on_a_wrong_conv_union(
            self, tmp_path, monkeypatch):
        cfg = {"name": "alg", "ground": DISCRETE, "task": "algebra-suite",
               "seed": 5, "parameters": {"trials": 2}}

        def fourier(report):
            return next(r for r in report["results"]
                        if r["check"] == "fourier_covering_conv")

        _, report = _run(tmp_path, cfg)
        assert fourier(report)["pass"]
        import confpp.transforms
        # the disjoint convolution misses every pair that shares a point
        monkeypatch.setattr(confpp.transforms, "conv_union",
                            confpp.transforms.conv_disjoint)
        code, report = _run(tmp_path, cfg)
        assert code == 1 and not fourier(report)["pass"]

    def test_identity_superposition(self, tmp_path):
        cfg = {"name": "sup", "ground": BOX,
               "task": "identity:superposition", "seed": 21,
               "parameters": {"z1": 0.7, "z2": 1.3, "n_max": 8},
               "plan": {"replicas": 4000}}
        code, report = _run(tmp_path, cfg)
        assert code == 0 and report["pass"]
        records = report["results"]
        assert [r["check"] for r in records] == [
            "superposition_counts", "superposition_k1", "superposition_k2"]
        for r in records:
            assert r["pass"] and r["overlap_events"] == 0
        first = (tmp_path / "report.json").read_bytes()
        _run(tmp_path, cfg)
        assert (tmp_path / "report.json").read_bytes() == first

    def test_process_report(self, tmp_path):
        code, report = _run(tmp_path, {
            "name": "proc", "ground": DISCRETE, "task": "process-report",
            "seed": 3})
        assert code == 0 and report["pass"]
        checks = {r["check"] for r in report["results"]}
        assert "projection_round_trip" in checks
        assert "uniqueness_verdict" in checks
        lenard = [r for r in report["results"]
                  if r["check"].startswith("lenard_")]
        assert len(lenard) == 2
        for r in lenard:
            assert r["pass"] and r["tolerance"] == 1e-10
            assert isinstance(r["witness"], list)
        # the exact certificate draws nothing, so the seed cannot move it
        _, other = _run(tmp_path, {
            "name": "proc", "ground": DISCRETE, "task": "process-report",
            "seed": 4})
        assert [r for r in other["results"]
                if r["check"].startswith("lenard_")] == lenard
