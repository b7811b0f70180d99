import json
import math

import numpy as np
import pytest

from confpp import cli, generators
from confpp.cli import TASKS, main, validate_config
from confpp.core import BoxWindow, make_ground, split_streams
from confpp.errors import ValidationError
from confpp.processes import Poisson, Superposition
from confpp.samplers import (COUNT_MAX_N, RunPlan, count_distribution_check,
                             estimate_correlation, sample_batch)

DISCRETE = {"kind": "discrete",
            "weights": [0.7, 1.2, 0.5, 0.9, 1.1, 0.6]}
BOX = {"kind": "continuum", "box": [[0.0, 1.0]]}
GEN = "generator-suite"


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
            '[[0.0, 1.0]]}, "task": "identity:gnz", "seed": 1, '
            f'"plan": {{"{field}": {value}}}}}')
        assert main(["validate", str(path)]) == 2
        assert main(["run", str(path), "--no-timestamp"]) == 2
        assert f"plan {field} must be a JSON integer" in \
            capsys.readouterr().err

    def test_zero_thinning_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "plan.json", {
            "name": "x", "ground": BOX, "task": "identity:gnz", "seed": 1,
            "plan": {"thinning": 0}})
        assert main(["run", path, "--no-timestamp"]) == 2
        assert "thinning >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["identity:gnz"])
    @pytest.mark.parametrize("field, value, message", [
        ("replicas", 0, "need replicas >= 1"),
        ("thinning", 0, "thinning >= 1"),
        ("burn_in", -1, "burn_in >= 0"),
        ("proposal_points", 0, "need at least one proposal point"),
    ])
    def test_validate_enforces_plan_floors(self, tmp_path, capsys, task,
                                           field, value, message):
        """validate rejects what RunPlan rejects, with RunPlan's message."""
        path = _write(tmp_path, "plan.json", {
            "name": "x", "ground": BOX, "task": task, "seed": 1,
            "plan": {field: value}})
        assert main(["validate", path]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("task, parameters, message", [
        (GEN, {"k_trunc": 2.9}, "k_trunc must be a JSON integer"),
        (GEN, {"kernels": 1.5}, "kernels must be a JSON integer"),
        (GEN, {"kernels": True}, "kernels must be a JSON integer"),
        (GEN, {"k_truc": 3}, "allowed: k_trunc, kernels"),
        ("algebra-suite", {"trials": "25"}, "trials must be a JSON integer"),
        ("identity:counts", {"n_max": 6.7}, "n_max must be a JSON integer"),
        ("identity:counts", {"model": 3}, "model must be a JSON string"),
        ("identity:counts", {"z": False}, "z must be a JSON number"),
        ("identity:mecke", {"z": "2.0"}, "z must be a JSON number"),
        ("identity:mecke", [["z", 2.0]], "parameters must be a JSON object"),
        # each would run nothing and report a pass
        (GEN, {"kernels": 0}, "kernels must be at least 1, got 0"),
        ("algebra-suite", {"trials": 0}, "trials must be at least 1, got 0"),
        ("identity:counts", {"n_max": -1}, "n_max must be at least 0, got -1"),
        ("identity:counts", {"model": "foo"},
         "unknown count model 'foo'; available: mixed-exponential, poisson"),
    ])
    def test_task_parameters_checked(self, tmp_path, capsys, task,
                                     parameters, message):
        ground = BOX if TASKS[task]["needs_ground"] == "continuum" \
            else DISCRETE
        path = _write(tmp_path, "params.json",
                      {"name": "x", "ground": ground, "task": task,
                       "seed": 1, "parameters": parameters,
                       "plan": {"replicas": 10}})
        assert main(["validate", path]) == 2
        assert main(["run", path, "--no-timestamp"]) == 2
        assert capsys.readouterr().err.count(message) == 2

    @pytest.mark.parametrize("plan, message", [
        ({"replica": 0}, "unknown plan key 'replica'; allowed: burn_in, "
                         "proposal_points, replicas, thinning"),
        ([1, 2], "plan must be a JSON object"),
        ("replicas", "plan must be a JSON object"),
    ])
    def test_plan_keys_checked(self, tmp_path, capsys, plan, message):
        path = _write(tmp_path, "plan.json", {
            "name": "x", "ground": BOX, "task": "identity:gnz", "seed": 1,
            "plan": plan})
        assert main(["validate", path]) == 2
        assert main(["run", path, "--no-timestamp"]) == 2
        assert capsys.readouterr().err.count(message) == 2

    @pytest.mark.parametrize("ground, task", [
        ({"kind": "continuum"}, "identity:mecke"),
        ({"kind": "continuum", "box": 5}, "identity:mecke"),
        ({"kind": "continuum", "box": [[0, 1, 2]]}, "identity:mecke"),
        ({"kind": "discrete"}, "algebra-suite"),
        ({"kind": "discrete", "weights": [1, None]}, "algebra-suite"),
        # a string or a bool is not a number, although float() takes it
        ({"kind": "discrete", "weights": "12"}, "algebra-suite"),
        ({"kind": "discrete", "weights": [True, 2]}, "algebra-suite"),
        ({"kind": "continuum", "box": ["01"]}, "identity:mecke"),
        ({"kind": "continuum", "box": [[False, True]]}, "identity:mecke"),
    ])
    def test_malformed_ground_exits_2(self, tmp_path, capsys, ground, task):
        path = _write(tmp_path, "ground.json", {
            "name": "x", "ground": ground, "task": task, "seed": 1})
        assert main(["validate", path]) == 2
        assert main(["run", path, "--no-timestamp"]) == 2
        field = "box" if ground["kind"] == "continuum" else "weights"
        assert capsys.readouterr().err.count(
            f"ground needs '{field}'") == 2

    @pytest.mark.parametrize("extra, message", [
        ({"seed": True}, "seed must be an explicit integer"),
        ({"output": 2}, "output must be a string path"),
        ({"output": ["a"]}, "output must be a string path"),
        ({"name": ["a", {"b": None}]}, "name must be a string"),
        ({"name": 7}, "name must be a string"),
    ])
    def test_seed_and_output_types_exit_2(self, tmp_path, capsys, extra,
                                          message):
        path = _write(tmp_path, "cfg.json", {
            "name": "x", "ground": DISCRETE, "task": "algebra-suite",
            "seed": 1, "parameters": {"trials": 1}, **extra})
        assert main(["validate", path]) == 2
        assert main(["run", path, "--no-timestamp"]) == 2
        assert capsys.readouterr().err.count(message) == 2

    def test_integer_accepted_for_float_parameter(self):
        cfg = validate_config({"name": "x", "ground": BOX, "seed": 1,
                               "task": "identity:mecke",
                               "parameters": {"z": 2}})
        assert cfg["parameters"] == {"z": 2}

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


PLAN_KEYS = ("replicas", "burn_in", "thinning", "proposal_points")


def _ground_for(task):
    return BOX if TASKS[task]["needs_ground"] == "continuum" else DISCRETE


class TestTaskPlans:
    """Each task takes the plan keys that its runner reads, and no other."""

    @pytest.mark.parametrize("task, key", [
        (task, key) for task in sorted(TASKS) for key in PLAN_KEYS
        if key not in TASKS[task]["plan"]])
    def test_a_key_the_task_does_not_read_exits_2(self, tmp_path, capsys,
                                                  task, key):
        path = _write(tmp_path, "plan.json", {
            "name": "x", "ground": _ground_for(task), "task": task,
            "seed": 1, "plan": {key: 1}})
        assert main(["validate", path]) == 2
        allowed = ", ".join(sorted(TASKS[task]["plan"])) or \
            f"none, task {task} takes no plan"
        assert f"unknown plan key {key!r}; allowed: {allowed}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("task", sorted(TASKS))
    def test_report_plan_holds_the_task_keys(self, tmp_path, task):
        _, report = _run(tmp_path, {"name": "x", "ground": _ground_for(task),
                                    "task": task, "seed": 1})
        assert report["plan"] == TASKS[task]["plan"]
        assert set(report["plan"]) <= set(PLAN_KEYS)


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
        assert set(report["versions"]) == {"confpp", "numpy", "python"}

    def test_algebra_suite_at_18_sites(self, tmp_path):
        # the checks hold from rounding alone at this size, and the pairing's
        # enumerated side takes seconds, not the minutes of a 4^n loop
        code, report = _run(tmp_path, {
            "name": "alg18", "task": "algebra-suite", "seed": 5,
            "ground": {"kind": "discrete",
                       "weights": [0.5 + 0.05 * i for i in range(18)]},
            "parameters": {"trials": 1}})
        assert code == 0 and report["pass"]

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

    @pytest.mark.parametrize("task, parameters", [
        ("identity:counts", {"model": "mixed-exponential"}),
        ("identity:counts", {"model": "poisson", "z": 150.0}),
        ("identity:superposition", {})])
    def test_count_tasks_run_past_factorial_overflow(self, tmp_path, task,
                                                     parameters):
        # 171! and 150^171 are beyond a float; the run ends by its verdict
        code, report = _run(tmp_path, {
            "name": "cnt", "ground": BOX, "task": task, "seed": 13,
            "parameters": dict(parameters, n_max=200),
            "plan": {"replicas": 500}})
        assert code == (0 if report["pass"] else 1)
        counts = report["results"][0]
        assert all(math.isfinite(r["analytic"]) for r in counts.get(
            "per_n", [])) and math.isfinite(counts["tv"])

    def test_count_cap_is_a_config_error(self, tmp_path, capsys):
        code, report = _run(tmp_path, {
            "name": "cnt", "ground": BOX, "task": "identity:counts",
            "seed": 13, "parameters": {"n_max": COUNT_MAX_N + 1},
            "plan": {"replicas": 10}})
        assert code == 2 and report is None
        assert "limited to n_max" in capsys.readouterr().err

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

    def test_superposition_draws_its_model_once(self, tmp_path,
                                                monkeypatch):
        """One batch, on ``count_distribution_check``'s stream, serves the
        count record and both correlation records."""
        draws = []
        real = cli.sample_batch
        monkeypatch.setattr(cli, "sample_batch",
                            lambda *args: draws.append(args) or real(*args))
        cfg = {"name": "sup", "ground": BOX,
               "task": "identity:superposition", "seed": 21,
               "parameters": {"z1": 0.7, "z2": 1.3, "n_max": 8},
               "plan": {"replicas": 500}}
        _, report = _run(tmp_path, cfg)
        assert len(draws) == 1
        counts, k1, k2 = report["results"]
        window = make_ground(BOX)
        model = Superposition(Poisson(0.7), Poisson(1.3))
        plan = RunPlan(window, replicas=500, master_seed=21)
        rep = count_distribution_check(model, window, 8, plan)
        assert (counts["tv"], counts["pass"]) == (rep["tv"], rep["pass"])
        batch = sample_batch(model, window, split_streams(21, 1)[0], 500)
        halves = [BoxWindow(((0.0, 0.5),)), BoxWindow(((0.5, 1.0),))]
        assert (k1["estimate"], k1["se"]) == estimate_correlation(
            batch, halves[:1])
        assert (k2["estimate"], k2["se"]) == estimate_correlation(
            batch, halves)

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


def _edit_first_value(monkeypatch, call, edit):
    """Make ``generators._closed_terms`` pass the first value of its first
    term through ``edit`` at its ``call``-th call (from 1), that is, for
    the ``call``-th kernel of a generator suite."""
    terms, calls = generators._closed_terms, []

    def edited(kernel, z):
        calls.append(kernel)
        pairs = terms(kernel, z)
        if len(calls) == call:
            cells, values = next(pairs)
            values = values.copy()
            values[0] = edit(values[0])
            yield cells, values
        yield from pairs

    monkeypatch.setattr(generators, "_closed_terms", edited)


class TestClosedVsBruteforce:
    CFG = {"name": "gen", "ground": DISCRETE, "task": GEN, "seed": 7,
           "parameters": {"kernels": 3, "k_trunc": 2}}

    @staticmethod
    def _record(report):
        return next(r for r in report["results"]
                    if r["check"] == "closed_vs_bruteforce")

    def test_matches_the_two_builders(self, tmp_path):
        # the one-matrix residual is max |hat_L_closed - hat_L_bruteforce|
        # over the suite's kernels, up to the rounding of a reordered sum
        _, report = _run(tmp_path, self.CFG)
        rng = split_streams(7, 1)[0]
        ground = make_ground(DISCRETE)
        want, scale = 0.0, 0.0
        for _ in range(3):
            ker = generators.random_kernel(ground, 2, rng)
            brute = generators.hat_L_bruteforce(ker).matrix
            closed = generators.hat_L_closed(ker).matrix
            want = max(want, float(np.max(np.abs(closed - brute))))
            scale = max(scale, float(np.max(np.abs(brute))))
        got = self._record(report)["residual"]
        assert abs(got - want) <= 4 * np.spacing(scale)

    def test_a_perturbed_closed_form_value_fails(self, tmp_path,
                                                 monkeypatch):
        _edit_first_value(monkeypatch, 1, lambda v: v + 1e-6)
        code, report = _run(tmp_path, self.CFG)
        rec = self._record(report)
        assert code == 1 and not rec["pass"]
        assert rec["residual"] == pytest.approx(1e-6, rel=1e-6)

    def test_a_nan_in_a_later_kernel_fails(self, tmp_path, monkeypatch):
        # max(0.0, nan) is 0.0 in Python: a fold through it would drop the
        # NaN of the second kernel
        _edit_first_value(monkeypatch, 2, lambda v: math.nan)
        code, report = _run(tmp_path, self.CFG)
        rec = self._record(report)
        assert code == 1 and not report["pass"]
        assert math.isnan(rec["residual"]) and not rec["pass"]


def test_algebra_suite_fails_on_a_nan_in_a_later_trial(tmp_path,
                                                        monkeypatch):
    rel_err, calls = cli._rel_err, []

    def nan_second(got, want):
        calls.append(None)
        return math.nan if len(calls) == 2 else rel_err(got, want)

    monkeypatch.setattr(cli, "_rel_err", nan_second)
    code, report = _run(tmp_path, {
        "name": "alg", "ground": DISCRETE, "task": "algebra-suite",
        "seed": 5, "parameters": {"trials": 3}})
    first, *rest = report["results"]
    assert first["check"] == "k_round_trip"
    assert math.isnan(first["residual"]) and not first["pass"]
    assert code == 1 and not report["pass"]
    assert all(r["pass"] for r in rest)


def test_generator_suite_without_a_dispersal_scaling_exits_2(tmp_path,
                                                             capsys):
    # two sites of unequal weight admit no symmetric dispersal with unit
    # weighted row sums; the normalization says so itself
    code, report = _run(tmp_path, {
        "name": "gen", "task": GEN, "seed": 7,
        "ground": {"kind": "discrete", "weights": [1.0, 2.0]},
        "parameters": {"kernels": 1, "k_trunc": 1}})
    assert code == 2 and report is None
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("weights", [[], [1.0]])
def test_generator_suite_under_two_sites_exits_2(tmp_path, capsys, weights):
    # raised before any kernel is built: at 0 sites a residual fold would
    # otherwise reduce an empty array
    code, report = _run(tmp_path, {
        "name": "gen", "task": GEN, "seed": 7,
        "ground": {"kind": "discrete", "weights": weights},
        "parameters": {"kernels": 1, "k_trunc": 1}})
    assert code == 2 and report is None
    assert "dispersal needs at least two sites" in capsys.readouterr().err
