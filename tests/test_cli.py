import csv
import io
import json
import math

import pytest

from qaoa_maxcut import cli
from qaoa_maxcut.cli import main
from qaoa_maxcut.experiment import InstanceSpec, ResultSet
from qaoa_maxcut.graphs import read_edge_list

CONFIG = {
    "instances": [
        {"kind": "regular", "n": 2, "degree": 1, "seed": 0},
        {"kind": "erdos_renyi", "n": 4, "prob": 1.0, "seed": 1},
    ],
    "strategies": ["bilinear"],
    "max_depth": 2,
    "trials": 3,
    "rng_seed": 1,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


ROW = {
    "instance": "reg1-n2-s0",
    "strategy": "bilinear",
    "depth": 1,
    "gammas": [0.3],
    "betas": [0.4],
    "f_star": 1.0,
    "alpha": 1.0,
    "nfev": 9,
    "converged": True,
}


def one_row(**changes):
    """A results document whose single record is ROW with `changes` applied."""
    return {"meta": {}, "records": [{**ROW, **changes}]}


class TestGen:
    def test_writes_edge_lists(self, config_path, tmp_path):
        out = tmp_path / "instances"
        assert run_cli("gen", "--config", config_path, "--out", out) == 0
        g = read_edge_list(out / "reg1-n2-s0.edges")
        assert g.n == 2 and g.m == 1
        k4 = read_edge_list(out / "er1-n4-s1.edges")
        assert k4.n == 4 and k4.m == 6

    def test_unsatisfiable_spec_fails_with_diagnostic(self, tmp_path, capsys):
        bad = dict(CONFIG, instances=[{"kind": "regular", "n": 5, "degree": 3, "seed": 0}])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert run_cli("gen", "--config", path, "--out", tmp_path / "x") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("load", [True, False], ids=["rejected-at-load", "failed-build"])
    def test_a_failing_instance_writes_no_file(self, load, tmp_path, capsys, monkeypatch):
        # reg3-n5-s0 has no graph, so the config is rejected as it loads; a
        # build that fails, as when the pairing model exhausts its tries,
        # must also leave the instance built before it unwritten.
        specs = [{"kind": "regular", "n": 6, "degree": 3, "seed": 1}]
        if load:
            specs.append({"kind": "regular", "n": 5, "degree": 3, "seed": 0})
        else:
            specs.append({"kind": "regular", "n": 8, "degree": 3, "seed": 0})
            build = InstanceSpec.build

            def failing(spec):
                if spec.n == 8:
                    raise RuntimeError("failed to sample a simple 3-regular graph on 8 vertices")
                return build(spec)

            monkeypatch.setattr(InstanceSpec, "build", failing)
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(dict(CONFIG, instances=specs)))
        out = tmp_path / "instances"
        assert run_cli("gen", "--config", path, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert not out.exists() or not list(out.glob("*.edges"))

    def test_seed_that_merges_two_instances_fails_before_writing(self, tmp_path, capsys):
        # reg3-n6-s1 and reg3-n6-s2 both become reg3-n6-s5.
        specs = [{"kind": "regular", "n": 6, "degree": 3, "seed": s} for s in (1, 2)]
        path = tmp_path / "twins.json"
        path.write_text(json.dumps(dict(CONFIG, instances=specs)))
        out = tmp_path / "instances"
        assert run_cli("gen", "--config", path, "--out", out, "--seed", 5) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: duplicate instance ids")
        assert not out.exists()


class TestRunAndEmitters:
    @pytest.fixture
    def results_path(self, config_path, tmp_path):
        out = tmp_path / "results"
        assert run_cli("run", "--config", config_path, "--out", out) == 0
        return out / "results.json"

    def test_run_writes_results(self, results_path):
        rs = ResultSet.load(results_path)
        assert len(rs.records) == 4  # 2 instances x depths 1..2
        assert rs.meta["config_hash"]

    def test_run_with_overrides(self, config_path, tmp_path):
        out = tmp_path / "deeper"
        assert run_cli(
            "run", "--config", config_path, "--out", out, "--max-depth", 3, "--trials", 2
        ) == 0
        rs = ResultSet.load(out / "results.json")
        assert len(rs.records) == 6
        assert rs.meta["config"]["max_depth"] == 3
        assert rs.meta["config"]["trials"] == 2

    def test_table(self, results_path, tmp_path):
        out = tmp_path / "alpha.csv"
        assert run_cli("table", "--results", results_path, "--out", out) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0][0] == "instance"
        assert len(rows) == 5

    def test_trace_to_stdout(self, results_path, capsys):
        assert run_cli(
            "trace", "--results", results_path, "--instance", "reg1-n2-s0",
            "--strategy", "bilinear",
        ) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["p", "j", "gamma_j", "beta_j"]
        assert len(rows) == 1 + 1 + 2

    def test_trace_missing_selection_fails(self, results_path, capsys):
        assert run_cli(
            "trace", "--results", results_path, "--instance", "nope",
            "--strategy", "bilinear",
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestLandscape:
    def test_generated_instance(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run_cli(
            "landscape", "--kind", "regular", "--n", 2, "--degree", 1,
            "--seed", 0, "--resolution", 4, "--out", out,
        ) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert len(rows) == 1 + 16

    def test_from_edge_file(self, config_path, tmp_path, capsys):
        instances = tmp_path / "instances"
        run_cli("gen", "--config", config_path, "--out", instances)
        capsys.readouterr()
        assert run_cli(
            "landscape", "--edges", instances / "reg1-n2-s0.edges", "--resolution", 3,
        ) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1 + 9

    def test_edge_file_with_generator_flags_fails(self, config_path, tmp_path, capsys):
        instances = tmp_path / "instances"
        run_cli("gen", "--config", config_path, "--out", instances)
        capsys.readouterr()
        out = tmp_path / "grid.csv"
        assert run_cli(
            "landscape", "--edges", instances / "reg1-n2-s0.edges", "--kind", "regular",
            "--n", 12, "--degree", 5, "--seed", 3, "--out", out,
        ) == 1
        assert_one_error_line(
            capsys, "--edges takes no generator flags", "--kind --n --degree --seed"
        )
        assert not out.exists()

    def test_missing_graph_source_fails(self, capsys):
        assert run_cli("landscape", "--resolution", 3) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind, stray",
        [("regular", ["--prob", 0.5]), ("erdos_renyi", ["--degree", 3])],
        ids=["regular-with-prob", "erdos-renyi-with-degree"],
    )
    def test_parameter_of_the_other_kind_fails(self, kind, stray, capsys):
        given = ["--degree", 3] if kind == "regular" else ["--prob", 0.5]
        assert run_cli("landscape", "--kind", kind, "--n", 4, *given, *stray) == 1
        assert_one_error_line(capsys, f"takes no '{stray[0][2:]}'")

    def test_impossible_regular_instance_fails(self, capsys):
        assert run_cli("landscape", "--kind", "regular", "--n", 5, "--degree", 3) == 1
        assert_one_error_line(capsys, "instance reg3-n5-s0 is unsatisfiable")

    def test_a_non_finite_value_fails_and_writes_no_file(self, monkeypatch, tmp_path, capsys):
        from qaoa_maxcut.simulator import ExpectationEvaluator

        value, calls = ExpectationEvaluator._value, []

        def every_second_nan(ev, probs):
            calls.append(None)
            return math.nan if len(calls) % 2 == 0 else value(ev, probs)

        monkeypatch.setattr(ExpectationEvaluator, "_value", every_second_nan)
        out = tmp_path / "l.csv"
        assert run_cli(
            "landscape", "--kind", "regular", "--n", 6, "--degree", 3,
            "--resolution", 2, "--out", out,
        ) == 1
        # The grid's second point, (gamma, beta) = (0, pi/2), is the first NaN.
        assert_one_error_line(capsys, f"alpha is nan at (gamma, beta) = (0.0, {math.pi / 2!r})")
        assert not out.exists()


class TestVerify:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "symmetry.json"
        assert run_cli("verify", "--samples", 5, "--seed", 1, "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "angle_reversal" in stdout
        assert "[ok]" in stdout
        rs = ResultSet.load(out)
        assert len(rs.symmetry_reports) == 6

    def test_a_nan_deviation_fails(self, monkeypatch, capsys, tmp_path):
        from qaoa_maxcut.simulator import ExpectationEvaluator

        value, calls = ExpectationEvaluator._value, []

        def every_second_nan(ev, probs):
            calls.append(None)
            return math.nan if len(calls) % 2 == 0 else value(ev, probs)

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        monkeypatch.setattr(ExpectationEvaluator, "_value", every_second_nan)
        out = tmp_path / "symmetry.json"
        assert run_cli("verify", "--samples", 3, "--out", out) == 1
        assert capsys.readouterr().out.count("max deviation nan") == 6
        doc = json.loads(out.read_text(), parse_constant=refuse)
        assert [r["max_abs_deviation"] for r in doc["symmetry_reports"]] == ["nan"] * 6
        reports = ResultSet.load(out).symmetry_reports
        assert all(math.isnan(r.max_abs_deviation) for r in reports)


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    for fragment in fragments:
        assert fragment in lines[0]


class TestBadInputs:
    def write(self, tmp_path, data):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return path

    def test_edgeless_instance_fails_cleanly(self, tmp_path, capsys):
        path = self.write(
            tmp_path, dict(CONFIG, instances=[{"kind": "erdos_renyi", "n": 5, "prob": 0.0, "seed": 0}])
        )
        assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 1
        assert_one_error_line(capsys, "instance er0-n5-s0 has no edges", "C_max must be >= 1")

    def test_instance_without_n_names_the_key(self, tmp_path, capsys):
        path = self.write(
            tmp_path, dict(CONFIG, instances=[{"kind": "regular", "degree": 3, "seed": 0}])
        )
        assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 1
        assert_one_error_line(capsys, "missing the required key 'n'")

    def test_list_shaped_config_fails_cleanly(self, tmp_path, capsys):
        path = self.write(tmp_path, [CONFIG])
        assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 1
        assert_one_error_line(capsys, "config must be a JSON object")

    @pytest.mark.parametrize(
        "change, fragment",
        [
            ({"trails": 1}, "unknown key(s) 'trails'"),
            ({"strategies": "bilinear"}, "config.strategies must be a JSON list"),
            ({"max_depth": 2.9}, "config.max_depth must be an integer, got 2.9"),
            ({"trials": True}, "config.trials must be an integer, got true"),
            ({"instances": 5}, "config.instances must be a JSON list"),
            (
                {"instances": [{"kind": "regular", "n": None, "degree": 3, "seed": 0}]},
                "config.instances[0].n must be an integer, got null",
            ),
            (
                {"instances": [{"kind": "regular", "n": 4, "degree": "3", "seed": 0}]},
                "config.instances[0].degree must be an integer",
            ),
            (
                {"instances": [{"kind": "erdos_renyi", "n": 4, "prob": "0.5", "seed": 0}]},
                "config.instances[0].prob must be a number",
            ),
            (
                {"instances": [{"kind": "regular", "n": 22, "degree": 3, "seed": 0}]},
                "instance reg3-n22-s0: n=22 exceeds",
            ),
            ({"symmetry_samples": -5}, "symmetry_samples must be >= 0, got -5"),
            ({"rng_seed": -1}, "rng_seed must be >= 0, got -1"),
            (
                {"instances": [{"kind": "regular", "n": 4, "degree": 3, "seed": -1}]},
                "seed must be >= 0, got -1",
            ),
            (
                {"bounds": dict(gamma_min=0, gamma_max=1e400, beta_min=0, beta_max=1)},
                "bounds must be finite",
            ),
            ({"optimizer": {"gradient_step": math.nan}}, "must be positive and finite"),
            ({"optimizer": {"convergence_tolerance": math.nan}}, "must be positive and finite"),
            ({"optimizer": {"gradient_step": math.inf}}, "must be positive and finite"),
            (
                {"instances": [{"kind": "regular", "n": 10, "degree": 3, "seed": 1, "prob": 0.5}]},
                "regular instance takes no 'prob'",
            ),
            (
                {"instances": [{"kind": "regular", "n": 5, "degree": 3, "seed": 0}]},
                "instance reg3-n5-s0 is unsatisfiable: n*d must be even",
            ),
            (
                {"instances": [{"kind": "regular", "n": 4, "degree": 4, "seed": 0}]},
                "instance reg4-n4-s0 is unsatisfiable: degree d=4 must be smaller than n=4",
            ),
        ],
        ids=[
            "unknown-key",
            "string-strategies",
            "float-depth",
            "bool-trials",
            "int-instances",
            "null-n",
            "string-degree",
            "string-prob",
            "n-too-large",
            "negative-symmetry-samples",
            "negative-rng-seed",
            "negative-instance-seed",
            "infinite-bound",
            "nan-gradient-step",
            "nan-convergence-tolerance",
            "infinite-gradient-step",
            "regular-with-prob",
            "odd-n-times-degree",
            "degree-not-below-n",
        ],
    )
    def test_malformed_config_fails_cleanly(self, change, fragment, tmp_path, capsys):
        path = self.write(tmp_path, {**CONFIG, **change})
        assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 1
        assert_one_error_line(capsys, fragment)

    @pytest.mark.parametrize(
        "change, key",
        [
            (
                {"instances": [{"kind": "erdos_renyi", "n": 4, "prob": 10**400, "seed": 0}]},
                "config.instances[0].prob",
            ),
            (
                {"bounds": dict(gamma_min=0, gamma_max=10**400, beta_min=0, beta_max=1)},
                "config.bounds.gamma_max",
            ),
            ({"optimizer": {"gradient_step": 10**400}}, "config.optimizer.gradient_step"),
        ],
        ids=["prob", "gamma-max", "gradient-step"],
    )
    def test_an_integer_too_large_for_a_float_names_its_key(self, change, key, tmp_path, capsys):
        # float() of an integer of 309 digits or more raises OverflowError.
        path = self.write(tmp_path, {**CONFIG, **change})
        assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 1
        assert_one_error_line(capsys, f"{key} is an integer too large for a float")

    def test_a_results_integer_too_large_for_a_float_names_its_key(self, tmp_path, capsys):
        path = self.write(tmp_path, one_row(gammas=[10**400]))
        assert run_cli("table", "--results", path) == 1
        assert_one_error_line(capsys, "results.records[0].gammas[0] is an integer too large")

    def test_a_gradient_step_that_moves_no_angle_fails_before_any_call(
        self, tmp_path, capsys, recwarn
    ):
        # 0.2 + 1e-300 == 0.2, so every difference was 0 / 0 and the run ended
        # on a NaN point, blamed on the objective, after a numpy warning.
        config = {
            **CONFIG,
            "instances": [{"kind": "regular", "n": 6, "degree": 3, "seed": 1}],
            "trials": 2,
            "optimizer": {"gradient_step": 1e-300},
        }
        path = self.write(tmp_path, config)
        assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 1
        assert_one_error_line(capsys, "gradient_step 1e-300 moves no angle")
        assert not recwarn.list

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({}, "results is missing the required key 'meta'"),
            (
                {"meta": {}, "records": [{k: v for k, v in ROW.items() if k != "gammas"}]},
                "results.records[0] is missing the required key 'gammas'",
            ),
            ([], "results must be a JSON object, got list"),
            (one_row(gammas=5), "results.records[0].gammas must be a JSON list, got 5"),
            (one_row(gammas="0.3"), 'results.records[0].gammas must be a JSON list, got "0.3"'),
            (one_row(depth=1.9), "results.records[0].depth must be an integer, got 1.9"),
            (one_row(depth="1"), 'results.records[0].depth must be an integer, got "1"'),
            (one_row(nfev=9.7), "results.records[0].nfev must be an integer, got 9.7"),
            (
                one_row(converged="false"),
                'results.records[0].converged must be true or false, got "false"',
            ),
            (one_row(nfve=9), "results.records[0] has unknown key(s) 'nfve'"),
            ({"meta": {}, "records": {}}, "results.records must be a JSON list, got {}"),
            ({"meta": [], "records": []}, "results.meta must be a JSON object, got []"),
            (
                {
                    "meta": {},
                    "records": [],
                    "symmetry_reports": [
                        {"transform": "angle_reversal", "max_abs_deviation": 0.0, "samples": "5"}
                    ],
                },
                "results.symmetry_reports[0].samples must be an integer",
            ),
            (one_row(depth=2), "results.records[0]: record depth 2 != parameter depth 1"),
            (one_row(gammas=[], betas=[]), "results.records[0]: depth must be >= 1"),
            ({"meta": {}, "records": [ROW, ROW]}, "results.records[1]: duplicate record key"),
        ],
        ids=[
            "empty-document",
            "record-without-gammas",
            "list-document",
            "int-gammas",
            "string-gammas",
            "float-depth",
            "string-depth",
            "float-nfev",
            "string-converged",
            "unknown-key",
            "object-records",
            "list-meta",
            "string-samples",
            "depth-disagrees-with-angles",
            "no-angles",
            "duplicate-key",
        ],
    )
    def test_malformed_results_fail_cleanly(self, doc, fragment, tmp_path, capsys):
        path = self.write(tmp_path, doc)
        assert run_cli("table", "--results", path) == 1
        assert_one_error_line(capsys, fragment)

    def test_results_that_are_not_json_name_the_file(self, tmp_path, capsys):
        path = tmp_path / "results.json"
        path.write_text("{not json")
        assert run_cli("table", "--results", path) == 1
        assert_one_error_line(capsys, f"{path}: not valid JSON")

    @pytest.mark.parametrize(
        "command, template",
        [
            (["run", "--config"], '{{"trials": {}}}'),
            (["table", "--results"], '{{"meta": {{}}, "records": [{{"nfev": {}}}]}}'),
            (["landscape", "--edges"], "2 1\n0 {}\n"),
        ],
        ids=["run-config", "table-results", "landscape-edges"],
    )
    @pytest.mark.parametrize("case", ["utf-16", "5001-digit-integer"])
    def test_an_unreadable_file_names_itself(self, command, template, case, tmp_path, capsys):
        if case == "utf-16":
            content = b"\xff\xfe" + template.format(1).encode("utf-16-le")
        else:
            content = template.format("1" + "0" * 5000).encode()
        path = tmp_path / "input"
        path.write_bytes(content)
        assert run_cli(*command, path, "--out", tmp_path / "out") == 1
        assert_one_error_line(capsys, f"{path}: ")

    @pytest.mark.parametrize(
        "text, token",
        [("2 1\n0 1.5\n", "'1.5'"), ("x y\n", "'x'")],
        ids=["float-vertex", "word-header"],
    )
    def test_malformed_edge_list_names_the_file(self, text, token, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_text(text)
        assert run_cli("landscape", "--edges", path, "--resolution", 3) == 1
        assert_one_error_line(capsys, f"{path}: ", token)

    @pytest.mark.parametrize(
        "command, compute",
        [
            (["run", "--config", "{config}", "--out", "{file}"], "run_experiment"),
            (["run", "--config", "{config}", "--out", "{file}/out"], "run_experiment"),
            (["landscape", "--kind", "regular", "--n", "4", "--degree", "3", "--out", "{missing}"],
             "emit_landscape"),
            (["landscape", "--kind", "regular", "--n", "4", "--degree", "3", "--out", "{tmp}"],
             "emit_landscape"),
            (["table", "--results", "{file}", "--out", "{missing}"], "emit_alpha_table"),
            (
                ["trace", "--results", "{file}", "--instance", "reg1-n2-s0",
                 "--strategy", "bilinear", "--out", "{missing}"],
                "emit_params_trace",
            ),
            (["verify", "--out", "{missing}"], "run_symmetry_suite"),
        ],
        ids=[
            "run-into-file",
            "run-under-file",
            "landscape-missing-directory",
            "landscape-into-directory",
            "table-missing-directory",
            "trace-missing-directory",
            "verify-missing-directory",
        ],
    )
    def test_unusable_out_fails_before_any_compute(
        self, command, compute, config_path, tmp_path, capsys, monkeypatch
    ):
        def never(*args, **kwargs):
            pytest.fail(f"{compute} ran before --out was checked")

        monkeypatch.setattr(cli, compute, never)
        existing = tmp_path / "existing"
        existing.write_text("")
        paths = dict(tmp=tmp_path, config=config_path, file=existing, missing=tmp_path / "no" / "x")
        assert run_cli(*[a.format(**paths) for a in command]) == 1
        assert_one_error_line(capsys, "--out")

    @pytest.mark.parametrize("flag, name", [("--max-p", "max_p"), ("--samples", "samples")])
    def test_verify_rejects_zero(self, flag, name, capsys):
        assert run_cli("verify", flag, 0) == 1
        assert_one_error_line(capsys, f"{name} must be >= 1")

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--out", "{tmp}/out", "--config", "{config}"],
            ["gen", "--out", "{tmp}/out", "--config", "{config}"],
            ["landscape", "--kind", "regular", "--n", "4", "--degree", "3"],
            ["verify"],
        ],
        ids=["run", "gen", "landscape", "verify"],
    )
    def test_negative_seed_rejected(self, command, config_path, tmp_path, capsys):
        argv = [a.format(tmp=tmp_path, config=config_path) for a in command]
        assert run_cli(*argv, "--seed", -1) == 1
        assert_one_error_line(capsys, "seed must be >= 0, got -1")
