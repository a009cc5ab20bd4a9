"""Command line behavior: exit codes, artifacts, determinism."""

import hashlib
import json
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from beliefpomdp import cli, simulate, solver, structure
from beliefpomdp.cli import main
from beliefpomdp.costs import NonlinearCostSpec
from beliefpomdp.grid import build_grid
from beliefpomdp.model import fixture_path, load_model, save_model
from beliefpomdp.reports import make_report
from beliefpomdp.simulate import (
    EvalResult,
    PolicyComparison,
    evaluate_policy,
    initial_belief_set,
)
from beliefpomdp.solver import (
    IterationLog,
    Policy,
    SolveResult,
    ValueFunction,
)
from conftest import qd_model

QD = str(fixture_path("quickest_detection_x2.json"))
FVP = str(fixture_path("filter_vs_predictor.json"))
NON_TP2 = str(fixture_path("non_tp2_observation.json"))
MONO = str(fixture_path("monotone_a123.json"))
CHAIN = str(fixture_path("ultrametric_chain.json"))
LINEAR_X3 = str(fixture_path("linear_x3.json"))
CHAIN_X3 = str(fixture_path("ultrametric_chain_x3.json"))


def run(args):
    return CliRunner().invoke(main, args)


def manifest_sizes(folder):
    return json.loads((folder / "manifest.json").read_text())["sizes"]


def error_text(result):
    """What a command printed, stderr included."""
    return result.output + (result.stderr_bytes or b"").decode()


def count_solver_work(monkeypatch):
    """Record each solved model's sweep count, each value iteration's
    stack size and each single-model table build's grid."""
    work = {"sweeps": [], "stacks": [], "table_grids": []}
    iterate, build_tables = solver._iterate, solver.build_tables

    def counting_iterate(tables, tol, max_iters):
        values, actions, logs = iterate(tables, tol, max_iters)
        work["sweeps"].extend(log.iterations for log in logs)
        work["stacks"].append(len(logs))
        return values, actions, logs

    def counting_build_tables(model, grid):
        work["table_grids"].append(grid)
        return build_tables(model, grid)

    monkeypatch.setattr(solver, "_iterate", counting_iterate)
    for module in (solver, structure):
        monkeypatch.setattr(module, "build_tables", counting_build_tables)
    return work


def assert_convergence_trace(folder, summary):
    """One ``convergence.csv`` row per sweep, ending at the summary's final change."""
    lines = (folder / "convergence.csv").read_text().splitlines()
    assert lines[0] == "iteration,change"
    assert len(lines) - 1 == summary["iterations"] > 0
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(
        range(1, summary["iterations"] + 1)
    )
    assert float(lines[-1].split(",")[1]) == summary["final_change"]


#: input errors for the commands that take no ``--model``
BAD_INPUT = {"conjecture-probe": ["--num-models", "0"]}
#: required options besides ``--model``
REQUIRED_ARGS = {"verify": ["--predicates", "concavity"]}
#: options that count something, which must be at least 1
COUNT_FLAGS = ("--grid", "--paths", "--num-models", "--root-degree")


def count_options():
    """(command, flag) for every count option of every command."""
    return [
        (name, flag)
        for name, command in sorted(main.commands.items())
        for param in command.params
        for flag in param.opts
        if flag in COUNT_FLAGS
    ]


def artifact_hashes(folder):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(folder.iterdir())
        if p.name != "manifest.json"
    }


def save_stops_everywhere(folder):
    """A well-formed detection model whose solved policy at grid 100 stops
    everywhere, so it has no threshold; returns (model, saved path)."""
    loss = NonlinearCostSpec("entropy", alpha=[0.02, 0.02], beta=[2.0, 2.0])
    model = qd_model(0.9, 0.05, [[0.8, 0.2], [0.3, 0.7]], continue_loss=loss)
    path = folder / "stops_everywhere.json"
    save_model(model, path)
    return model, path


class TestExitCodes:
    def test_validate_ok(self, tmp_path):
        result = run(["validate", "--model", QD, "--out", str(tmp_path)])
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "validation.json").read_text())
        assert payload["valid"] and payload["violations"] == []

    def test_validate_reports_defect(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = json.loads(fixture_path("quickest_detection_x2.json").read_text())
        doc["transition"][0][0] = [0.5, 0.4]
        bad.write_text(json.dumps(doc))
        result = run(["validate", "--model", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        payload = json.loads((tmp_path / "o" / "validation.json").read_text())
        assert not payload["valid"]
        assert "row sum" in payload["violations"][0]["message"]

    def test_validate_lists_non_finite_entries(self, tmp_path):
        doc = json.loads(fixture_path("filter_vs_predictor.json").read_text())
        doc["transition"][0][1][0] = float("nan")
        doc["linear_cost"][1][0] = float("inf")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))  # Python's json writes NaN and Infinity
        result = run(["validate", "--model", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        text = (tmp_path / "o" / "validation.json").read_text()
        payload = json.loads(text, parse_constant=pytest.fail)  # strict JSON
        assert [(v["where"], v["message"]) for v in payload["violations"]] == [
            ("transition[1] row 2", "non-finite entry nan"),
            ("linear_cost[2]", "non-finite entry inf"),
        ]

    @pytest.mark.parametrize("key", ["transition", "linear_cost"])
    def test_solve_rejects_a_nan_model(self, tmp_path, key):
        doc = json.loads(fixture_path("filter_vs_predictor.json").read_text())
        doc[key][0][0] = float("nan") if key == "linear_cost" else [float("nan"), 1.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "o"
        result = run(["solve", "--model", str(bad), "--grid", "20", "--out", str(out)])
        assert result.exit_code == 1
        assert "non-finite entry nan" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_solve_stops_when_the_values_overflow(self, tmp_path):
        """Finite but huge costs would overflow the sweep: the model is
        rejected as it loads, before any sweep and without a RuntimeWarning,
        and ``validate`` lists the bound."""
        doc = json.loads(fixture_path("filter_vs_predictor.json").read_text())
        doc["linear_cost"] = [[1e308] * len(row) for row in doc["linear_cost"]]
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = run(["solve", "--model", str(huge), "--grid", "5", "--out", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "costs: cost bound 1.000e+308 bounds the values by inf" in error_text(result)
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        result = run(["validate", "--model", str(huge), "--out", str(tmp_path / "v")])
        assert result.exit_code == 2
        payload = json.loads((tmp_path / "v" / "validation.json").read_text())
        assert [v["where"] for v in payload["violations"]] == ["costs"]

    @pytest.mark.parametrize(
        "cost, message",
        [
            (
                {"family": "entropy", "alpha": [-1.0, 1.0], "beta": [0.0, 0.0]},
                "alpha must be positive for every action",
            ),
            (
                {"family": "mean_square", "alpha": [1.0, 1.0], "beta": [0.0, 0.0],
                 "weight_matrix": [1.0, 2.0, 3.0]},
                "mean_square requires a square weight_matrix",
            ),
        ],
    )
    def test_validate_lists_cost_spec_defects(self, tmp_path, cost, message):
        doc = json.loads(fixture_path("filter_vs_predictor.json").read_text())
        doc["nonlinear_cost"] = cost
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        result = run(["validate", "--model", str(bad), "--out", str(tmp_path / "v")])
        assert result.exit_code == 2
        payload = json.loads((tmp_path / "v" / "validation.json").read_text())
        expected = {"where": "nonlinear_cost", "message": message, "magnitude": 0.0}
        assert payload["violations"] == [expected]
        result = run(["solve", "--model", str(bad), "--grid", "5", "--out", str(tmp_path / "s")])
        assert result.exit_code == 1
        assert f"nonlinear_cost: {message}" in error_text(result)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_is_a_usage_error(self, tmp_path, tol):
        result = run(["solve", "--model", QD, "--tol", tol, "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert "must be finite" in error_text(result)
        assert not (tmp_path / "o").exists()

    def test_qd_threshold_rejects_a_change_that_never_arrives(self, tmp_path):
        path = tmp_path / "never.json"
        save_model(qd_model(persistence=1.0), path)
        out = tmp_path / "o"
        args = ["--model", str(path), "--grid", "20", "--paths", "10", "--out", str(out)]
        result = run(["qd-simulate", *args])
        assert result.exit_code == 1
        assert "error: the change must arrive" in error_text(result)
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_compare_needs_two_actions_before_solving(self, tmp_path):
        doc = json.loads(fixture_path("monotone_a123.json").read_text())
        for key in ("transition", "observation", "linear_cost"):
            doc[key].append(doc[key][-1])
        doc["num_actions"] += 1
        doc["num_observations"].append(doc["num_observations"][-1])
        three = tmp_path / "three_actions.json"
        three.write_text(json.dumps(doc))
        out = tmp_path / "o"
        result = run(["compare", "--model", str(three), "--grid", "10", "--out", str(out)])
        assert result.exit_code == 1
        assert "error: the myopic sensor rule needs a two-action model" in error_text(result)
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        assert manifest_sizes(out) == {}  # nothing was solved

    def test_tp2_of_a_one_column_matrix_is_finite(self, tmp_path):
        """A Y = 1 sensor has no 2x2 minor: 0 over 0 samples, not -Infinity."""
        doc = json.loads(fixture_path("filter_vs_predictor.json").read_text())
        doc["observation"][0] = [[1.0] for _ in range(doc["num_states"])]
        doc["num_observations"][0] = 1
        one = tmp_path / "one_column.json"
        one.write_text(json.dumps(doc))
        out = tmp_path / "o"
        result = run(["verify", "--model", str(one), "--predicates", "tp2", "--out", str(out)])
        assert result.exit_code in (cli.EXIT_OK, cli.EXIT_VIOLATION), result.output
        text = (out / "verify_tp2.json").read_text()
        reports = json.loads(text, parse_constant=pytest.fail)  # strict JSON
        observation_1 = [r for r in reports if r["details"]["matrix"] == "observation[1]"]
        assert [(r["worst_violation"], r["samples"], r["holds"]) for r in observation_1] == [
            (0.0, 0, True)
        ]

    def test_verify_without_predicates_exits_one_before_loading(self, tmp_path):
        unreadable = tmp_path / "unreadable.json"
        unreadable.write_text("{nope")
        out = tmp_path / "o"
        result = run(
            ["verify", "--model", str(unreadable), "--predicates", " , ", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert "error: no predicates given" in result.output
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    def test_parse_error_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        result = run(["validate", "--model", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert (tmp_path / "o" / "manifest.json").exists()

    def test_unknown_predicate_rejected_before_compute(self, tmp_path):
        result = run(
            [
                "verify",
                "--model",
                QD,
                "--predicates",
                "concavity,bogus",
                "--out",
                str(tmp_path),
            ]
        )
        assert result.exit_code == 1
        assert "bogus" in result.output or "bogus" in str(result.stderr_bytes)
        assert not (tmp_path / "verify_concavity.json").exists()

    def test_verify_violation_exits_two_with_witness(self, tmp_path):
        result = run(
            ["verify", "--model", NON_TP2, "--predicates", "tp2", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        reports = json.loads((tmp_path / "verify_tp2.json").read_text())
        failing = [r for r in reports if not r["holds"]]
        assert failing and failing[0]["witness"]["rows"] == [1, 2]

    def test_verify_passing_predicates_exit_zero(self, tmp_path):
        result = run(
            [
                "verify",
                "--model",
                QD,
                "--predicates",
                "concavity,stopping-convex",
                "--grid",
                "200",
                "--tol",
                "1e-9",
                "--out",
                str(tmp_path),
            ]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "verify_concavity.json").read_text())[0]
        assert report["holds"]

    def test_concavity_on_a_grid_without_on_grid_midpoints(self, tmp_path):
        """Grid 1 is odd and has no pair with an on-grid midpoint: the
        report checks nothing and says so, in finite JSON."""
        args = ["--model", QD, "--grid", "1", "--predicates", "concavity"]
        result = run(["verify", *args, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        text = (tmp_path / "verify_concavity.json").read_text()
        [report] = json.loads(text, parse_constant=lambda name: pytest.fail(name))
        assert report["holds"] and report["samples"] == 0
        assert report["worst_violation"] == 0.0 and report["witness"] is None

    def test_manifest_written_even_on_violation(self, tmp_path):
        run(["verify", "--model", NON_TP2, "--predicates", "tp2", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "verify"
        assert manifest["exit_status"] == 2
        assert "wall_time_s" in manifest
        options = manifest["options"]
        assert options["model_path"] == NON_TP2 and options["predicates"] == "tp2"
        assert options["resolution"] == 200 and options["out"] == str(tmp_path)
        assert manifest["sizes"] == {}
        assert set(manifest) == {
            "command",
            "options",
            "version",
            "sizes",
            "wall_time_s",
            "exit_status",
        }

    @pytest.mark.parametrize("name", sorted(main.commands))
    def test_every_command_writes_a_manifest_on_an_input_error(self, tmp_path, name):
        """A model file that is not JSON, or an empty probe, exits 1 with a
        manifest; a new command fails here until it is given a bad input."""
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        params = {p.name for p in main.commands[name].params}
        args = ["--model", str(bad)] if "model_path" in params else BAD_INPUT[name]
        result = run([name, *args, *REQUIRED_ARGS.get(name, []), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert "error: " in error_text(result)
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["command"] == name and manifest["exit_status"] == 1

    def test_count_options_cover_every_grid_command(self):
        flags = [flag for _, flag in count_options()]
        assert flags.count("--grid") == 7
        assert set(flags) == set(COUNT_FLAGS)

    @pytest.mark.parametrize("name,flag", count_options())
    def test_count_below_one_exits_one_before_loading(self, tmp_path, name, flag):
        """Each count one below its least value exits 1 before the model
        loads: 0 for most counts, 1 for ``--root-degree``."""
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        params = {p.name: p for p in main.commands[name].params}
        [least] = [cli.COUNT_OPTIONS[n] for n, p in params.items() if flag in p.opts]
        args = ["--model", str(bad)] if "model_path" in params else []
        args += [*REQUIRED_ARGS.get(name, []), flag, str(least - 1), "--out", str(tmp_path / "o")]
        result = run([name, *args])
        assert result.exit_code == 1, result.output
        assert f"{flag} must be at least {least}, got {least - 1}" in error_text(result)
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["exit_status"] == 1 and manifest["sizes"] == {}
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("max_iters", [0, 1])
    def test_unconverged_verify_exits_two_and_writes_reports(self, tmp_path, max_iters):
        """A report on an unconverged iterate (V = 0 at no sweeps) is no
        report on V*, however well it holds."""
        args = ["--model", LINEAR_X3, "--grid", "20", "--predicates", "concavity"]
        result = run(["verify", *args, "--max-iters", str(max_iters), "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        [report] = json.loads((tmp_path / "verify_concavity.json").read_text())
        assert report["holds"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        assert manifest["sizes"] == {
            "grid_points": 231,
            "iterations": max_iters,
            "sweep_threads": 1,
        }

    @pytest.mark.parametrize(
        "name,args",
        [
            ("solve", ["--model", QD, "--grid", "20"]),
            ("solve-relaxed", ["--model", MONO, "--grid", "20"]),
            ("evaluate", ["--model", FVP, "--grid", "20", "--paths", "10"]),
            ("compare", ["--model", FVP, "--grid", "20", "--paths", "10"]),
            ("qd-simulate", ["--model", QD, "--grid", "50", "--paths", "10"]),
        ],
    )
    def test_unconverged_solve_exits_two(self, tmp_path, name, args):
        result = run([name, *args, "--max-iters", "2", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_status"] == 2 and manifest["sizes"]["iterations"] == 2
        assert len(list(tmp_path.iterdir())) > 1

    @pytest.mark.parametrize(
        "name,args",
        [
            ("solve", ["--model", QD, "--grid", "20"]),
            ("solve-relaxed", ["--model", MONO, "--grid", "20"]),
            ("verify", ["--model", QD, "--grid", "20", "--predicates", "concavity,stopping-convex"]),
            ("evaluate", ["--model", FVP, "--grid", "20", "--paths", "10"]),
            ("compare", ["--model", FVP, "--grid", "20", "--paths", "10"]),
            ("qd-simulate", ["--model", QD, "--grid", "50", "--paths", "10"]),
        ],
    )
    def test_each_solving_command_solves_the_loaded_model_once(
        self, tmp_path, monkeypatch, name, args
    ):
        models = []

        def counting(solve):
            def wrapper(model, grid, **kwargs):
                models.append(model)
                return solve(model, grid, **kwargs)

            return wrapper

        for solve_name in ("solve_discounted", "solve_stopping", "solve_relaxed"):
            monkeypatch.setattr(cli, solve_name, counting(getattr(cli, solve_name)))
        result = run([name, *args, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        [model] = models
        assert model.to_dict() == load_model(args[1]).to_dict()

    def test_solve_without_a_threshold_writes_null(self, tmp_path):
        _, path = save_stops_everywhere(tmp_path)
        out = tmp_path / "o"
        result = run(["solve", "--model", str(path), "--grid", "100", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "solve_summary.json").read_text())["threshold"] is None

    def test_qd_simulate_without_a_threshold_exits_two(self, tmp_path):
        """A solved policy with no single threshold exits 2 with the error
        as the artifact and the solve's sizes in the manifest, and nothing
        is simulated."""
        model, path = save_stops_everywhere(tmp_path)
        out = tmp_path / "o"
        args = ["--model", str(path), "--grid", "100", "--paths", "10", "--out", str(out)]
        result = run(["qd-simulate", *args])
        assert result.exit_code == 2, result.output
        payload = json.loads((out / "qd_simulate.json").read_text())
        assert set(payload) == {"error"} and "0 switches" in payload["error"]
        assert payload["error"].count("stop-to-continue") == 1
        sweeps = solver.solve_stopping(model, build_grid(2, 100), tol=1e-9).log.iterations
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        assert manifest["sizes"] == {
            "grid_points": 101,
            "iterations": sweeps,
            "sweep_threads": 1,
        }

    def test_root_degree_one_exits_one(self, tmp_path):
        """A chain of one power checks no factorization, so it has no verdict."""
        result = run(["ultrametric-root", "--model", CHAIN, "--root-degree", "1", "--out", str(tmp_path)])
        assert result.exit_code == 1, result.output
        assert "error: --root-degree must be at least 2, got 1" in error_text(result)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_status"] == 1 and manifest["options"]["root_degree"] == 1
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_unconverged_probe_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.setattr(structure, "DEFAULT_MAX_ITERS", 2)
        args = ["--num-models", "2", "--grid", "20", "--out", str(tmp_path)]
        result = run(["conjecture-probe", *args])
        assert result.exit_code == 2, result.output
        assert manifest_sizes(tmp_path)["unconverged"] == 2
        payload = json.loads((tmp_path / "conjecture_probe.json").read_text())
        assert not payload["counterexample_found"]


class TestVerify:
    @pytest.mark.parametrize(
        "model,resolution,predicates,table_builds",
        [
            (LINEAR_X3, 100, "homogeneity,mlr-monotone,fosd-cost", 1),
            (CHAIN_X3, 150, "myopic-bound,concavity,ultrametric", 2),
        ],
        ids=["linear_x3", "ultrametric_chain_x3"],
    )
    def test_one_solve_per_command(
        self, tmp_path, monkeypatch, model, resolution, predicates, table_builds
    ):
        """Every predicate reads the command's one solution; myopic-bound
        builds its own tables, on that solution's grid."""
        work = count_solver_work(monkeypatch)
        args = ["--model", model, "--grid", str(resolution), "--predicates", predicates]
        result = run(["verify", *args, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert len(work["sweeps"]) == 1
        grids = work["table_grids"]
        assert len(grids) == table_builds
        assert all(g is grids[0] for g in grids)
        assert manifest_sizes(tmp_path) == {
            "grid_points": (resolution + 1) * (resolution + 2) // 2,
            "iterations": work["sweeps"][0],
            "sweep_threads": 1,
        }

    @pytest.mark.parametrize(
        "model,message",
        [(FVP, "linear costs"), (QD, "discounted")],
        ids=["entropy_cost", "stopping"],
    )
    def test_homogeneity_precondition_exits_one(self, tmp_path, model, message):
        args = ["--model", model, "--grid", "20", "--predicates", "homogeneity"]
        result = run(["verify", *args, "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert message in error_text(result)
        assert json.loads((tmp_path / "manifest.json").read_text())["exit_status"] == 1
        assert not (tmp_path / "verify_homogeneity.json").exists()


class TestCommands:
    @pytest.mark.parametrize("name", ["solve", "solve-relaxed", "verify", "evaluate", "compare"])
    def test_solve_defaults_are_the_solvers(self, name):
        defaults = {p.name: p.default for p in main.commands[name].params}
        assert (defaults["tol"], defaults["max_iters"]) == (
            solver.DEFAULT_TOL,
            solver.DEFAULT_MAX_ITERS,
        )

    def test_qd_simulate_keeps_its_own_grid_and_tol(self):
        defaults = {p.name: p.default for p in main.commands["qd-simulate"].params}
        assert (defaults["resolution"], defaults["tol"]) == (1000, 1e-9)
        assert defaults["max_iters"] == solver.DEFAULT_MAX_ITERS

    def test_solve_writes_value_policy_csv(self, tmp_path):
        result = run(
            ["solve", "--model", QD, "--grid", "100", "--tol", "1e-9", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0
        lines = (tmp_path / "value_policy.csv").read_text().strip().splitlines()
        assert lines[0] == "pi1,pi2,value,action"
        assert len(lines) == 102
        summary = json.loads((tmp_path / "solve_summary.json").read_text())
        assert summary["converged"]
        assert 0.0 < summary["threshold"] < 1.0
        assert_convergence_trace(tmp_path, summary)
        assert manifest_sizes(tmp_path) == {
            "grid_points": 101,
            "iterations": summary["iterations"],
            "sweep_threads": 1,
        }

    def test_solve_relaxed_rejects_nonlinear(self, tmp_path):
        result = run(["solve-relaxed", "--model", FVP, "--out", str(tmp_path)])
        assert result.exit_code == 1

    def test_solve_relaxed_linear_fixture(self, tmp_path):
        result = run(
            ["solve-relaxed", "--model", MONO, "--grid", "100", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0
        assert (tmp_path / "relaxed_values.csv").exists()
        summary = json.loads((tmp_path / "solve_summary.json").read_text())
        assert_convergence_trace(tmp_path, summary)
        assert manifest_sizes(tmp_path) == {
            "grid_points": summary["grid_points"],
            "iterations": summary["iterations"],
            "sweep_threads": 1,
        }

    def test_qd_threshold_and_simulate(self, tmp_path):
        """``solve`` and ``qd-simulate`` at one grid and tol read the same
        threshold off the same solve."""
        solve_args = ["--model", QD, "--grid", "400", "--tol", "1e-9"]
        result = run(["solve", *solve_args, "--out", str(tmp_path / "solve")])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "solve" / "solve_summary.json").read_text())
        assert 0.0 < summary["threshold"] < 1.0
        sim_args = ["--paths", "2000", "--seed", "3", "--out", str(tmp_path / "sim")]
        result = run(["qd-simulate", *solve_args, *sim_args])
        assert result.exit_code == 0, result.output
        sim = json.loads((tmp_path / "sim" / "qd_simulate.json").read_text())
        # the solver block holds only what the top level and the manifest do not
        solved = sim["solver"]
        assert set(solved) == {"iterations", "final_change", "converged", "stop_points"}
        assert (sim["threshold"], solved["iterations"]) == (
            summary["threshold"],
            summary["iterations"],
        )
        # the last grid point is pi = (0, 1), the pre-change start belief
        last = (tmp_path / "solve" / "value_policy.csv").read_text().splitlines()[-1]
        assert last.split(",")[:2] == ["0", "1"]
        assert float(last.split(",")[2]) == sim["value_at_start"]
        for key in ("threshold", "delay_term", "false_alarm", "ks_cost", "ci_halfwidth", "seed", "cap_hits"):
            assert key in sim
        assert manifest_sizes(tmp_path / "sim") == {
            "grid_points": 401,
            "iterations": sim["solver"]["iterations"],
            "sweep_threads": 1,
            "paths": 2000,
            "horizon_cap": sim["horizon_cap"],
            "start_beliefs": 1,
            "path_steps": 2000 * sim["horizon_cap"],
        }

    def test_qd_threshold_rejects_non_qd_model(self, tmp_path):
        result = run(["qd-simulate", "--model", FVP, "--paths", "10", "--out", str(tmp_path)])
        assert result.exit_code == 1

    def test_blackwell_and_ultrametric_root(self, tmp_path):
        result = run(["blackwell", "--model", FVP, "--out", str(tmp_path)])
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "blackwell.json").read_text())
        assert payload["dominates"] and payload["residual"] <= 1e-6

        result = run(
            [
                "ultrametric-root",
                "--model",
                CHAIN,
                "--root-degree",
                "4",
                "--out",
                str(tmp_path / "root"),
            ]
        )
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "root" / "ultrametric_root.json").read_text())
        assert payload["chain_holds"]

    def test_ultrametric_root_rejects_non_ultrametric(self, tmp_path):
        result = run(["ultrametric-root", "--model", FVP, "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_evaluate_and_compare(self, tmp_path, monkeypatch):
        work = count_solver_work(monkeypatch)
        result = run(
            [
                "evaluate",
                "--model",
                FVP,
                "--grid",
                "60",
                "--paths",
                "300",
                "--out",
                str(tmp_path),
            ]
        )
        assert result.exit_code == 0
        lines = (tmp_path / "evaluate.csv").read_text().strip().splitlines()
        assert lines[0].endswith("policy,mean,std_error,paths,horizon")
        assert len(lines) == 6
        horizon = int(lines[1].split(",")[-1])
        bound = float(cli.fmt(simulate.truncation_bound(load_model(FVP), horizon)))
        assert 0 < bound <= simulate.EVAL_TOLERANCE
        assert manifest_sizes(tmp_path) == {
            "grid_points": 61,
            "iterations": work["sweeps"][0],
            "sweep_threads": 1,
            "paths": 300,
            "horizon": horizon,
            "start_beliefs": 5,
            "path_steps": 300 * horizon * 5,
            "cap_hits": 0,
            "truncation_bound": bound,
        }

        result = run(
            [
                "compare",
                "--model",
                FVP,
                "--grid",
                "60",
                "--paths",
                "500",
                "--out",
                str(tmp_path / "cmp"),
            ]
        )
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "cmp" / "compare_summary.json").read_text())
        assert summary["num_beliefs"] == 5
        assert work["sweeps"][1] == work["sweeps"][0]
        assert manifest_sizes(tmp_path / "cmp") == {
            "grid_points": 61,
            "iterations": work["sweeps"][1],
            "sweep_threads": 1,
            "paths": 500,
            "horizon": horizon,
            "start_beliefs": 5,
            "path_steps": 500 * horizon * 5 * 2,
            "truncation_bound": bound,
        }

    def test_evaluate_records_the_paths_cut_off_at_the_cap(self, tmp_path, monkeypatch):
        """The manifest sums the start beliefs' cap hits, which no table holds."""
        monkeypatch.setattr(simulate, "HORIZON_CAP", 4)
        args = ["--model", QD, "--grid", "50", "--paths", "300", "--seed", "5"]
        result = run(["evaluate", *args, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        model = load_model(QD)
        policy = solver.solve_stopping(model, build_grid(2, 50), tol=1e-8).policy
        evals = evaluate_policy(model, policy, initial_belief_set(2), 300, seed=5)
        cap_hits = sum(ev.cap_hits for ev in evals)
        assert 0 < cap_hits < 300 * len(evals)
        sizes = manifest_sizes(tmp_path)
        assert (sizes["horizon"], sizes["cap_hits"]) == (4, cap_hits)

    def test_compare_one_path_writes_finite_numbers(self, tmp_path):
        """One path gives standard errors of 0, not NaN (which is not JSON)."""
        args = ["--model", FVP, "--grid", "20", "--paths", "1", "--out", str(tmp_path)]
        result = run(["compare", *args])
        assert result.exit_code in (cli.EXIT_OK, cli.EXIT_VIOLATION), result.output

        def refuse(constant):
            raise ValueError(f"{constant} in compare_summary.json")

        summary = json.loads(
            (tmp_path / "compare_summary.json").read_text(), parse_constant=refuse
        )
        for row in summary["rows"]:
            assert row["se_a"] == row["se_b"] == row["se_diff"] == 0.0
        assert "nan" not in (tmp_path / "compare.csv").read_text()

    @pytest.mark.parametrize(
        "command,model",
        [("evaluate", LINEAR_X3), ("compare", LINEAR_X3), ("qd-simulate", QD)],
    )
    def test_zero_paths_exits_one(self, tmp_path, command, model):
        args = [command, "--model", model, "--grid", "10", "--paths", "0"]
        result = run([*args, "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "--paths must be at least 1" in error_text(result)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_status"] == 1 and manifest["options"]["paths"] == 0
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_probe_models_exits_one(self, tmp_path, count):
        """An empty probe would pass vacuously."""
        result = run(["conjecture-probe", "--num-models", count, "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert "--num-models must be at least 1" in error_text(result)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_status"] == 1 and manifest["options"]["num_models"] == int(count)
        assert not (tmp_path / "conjecture_probe.json").exists()

    def test_conjecture_probe_small(self, tmp_path, monkeypatch):
        work = count_solver_work(monkeypatch)
        result = run(
            [
                "conjecture-probe",
                "--num-models",
                "2",
                "--grid",
                "60",
                "--seed",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "conjecture_probe.json").read_text())
        assert payload == {"counterexample_found": False, "num_models": 2}
        assert work["stacks"] == [2] and not work["table_grids"]
        assert manifest_sizes(tmp_path) == {
            "models": 2,
            "grid_points": 61,
            "sweeps": sum(work["sweeps"]),
            "unconverged": 0,
        }


class TestDeterminism:
    @pytest.mark.parametrize("command", ["solve", "qd-simulate"])
    def test_sweep_threads_show_only_in_the_manifest(self, tmp_path, monkeypatch, command):
        """Artifacts do not depend on how many threads swept the grid."""
        args = [command, "--grid", "30", "--model"]
        args += [QD, "--paths", "100"] if command == "qd-simulate" else [LINEAR_X3]
        assert run([*args, "--out", str(tmp_path / "inline")]).exit_code == 0
        monkeypatch.setattr(solver, "TABLE_BLOCK", 12)
        monkeypatch.setattr(solver, "usable_cpus", lambda: 3)
        assert run([*args, "--out", str(tmp_path / "threaded")]).exit_code == 0
        inline, threaded = manifest_sizes(tmp_path / "inline"), manifest_sizes(tmp_path / "threaded")
        assert (inline.pop("sweep_threads"), threaded.pop("sweep_threads")) == (1, 3)
        assert inline == threaded
        assert artifact_hashes(tmp_path / "inline") == artifact_hashes(tmp_path / "threaded")

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "qd-simulate",
            "--model",
            QD,
            "--grid",
            "200",
            "--paths",
            "4000",
            "--seed",
            "17",
        ]
        run(args + ["--workers", "1", "--out", str(tmp_path / "a")])
        run(args + ["--workers", "8", "--out", str(tmp_path / "b")])
        run(args + ["--workers", "1", "--out", str(tmp_path / "c")])
        assert artifact_hashes(tmp_path / "a") == artifact_hashes(tmp_path / "b")
        assert artifact_hashes(tmp_path / "a") == artifact_hashes(tmp_path / "c")

    def test_solve_rerun_byte_identical(self, tmp_path):
        args = ["solve", "--model", QD, "--grid", "150", "--tol", "1e-9"]
        run(args + ["--out", str(tmp_path / "a")])
        run(args + ["--out", str(tmp_path / "b")])
        assert artifact_hashes(tmp_path / "a") == artifact_hashes(tmp_path / "b")

    def test_rerun_replaces_artifacts_instead_of_writing_through_links(self, tmp_path):
        """A hard link to an old artifact keeps its bytes: each write makes a new file."""
        out, kept = tmp_path / "out", tmp_path / "kept"
        args = ["solve", "--model", QD, "--tol", "1e-9", "--out", str(out)]
        assert run([*args, "--grid", "10"]).exit_code == 0
        kept.mkdir()
        old = {}
        for p in sorted(out.iterdir()):
            old[p.name] = p.read_bytes()
            (kept / p.name).hardlink_to(p)
        assert {"value_policy.csv", "solve_summary.json", "manifest.json"} <= old.keys()
        assert run([*args, "--grid", "12"]).exit_code == 0
        for name, data in old.items():
            assert (kept / name).read_bytes() == data
            assert (out / name).read_bytes() != data
            assert not (out / name).samefile(kept / name)

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BELIEFPOMDP_OUT", str(tmp_path / "envout"))
        result = CliRunner().invoke(main, ["validate", "--model", QD])
        assert result.exit_code == 0
        assert (tmp_path / "envout" / "validation.json").exists()


def reference_write_csv(path, header, rows):
    """The row-wise writer the column-wise ``cli.write_csv`` replaced."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else f"{float(x):.12g}" for x in row))
    path.write_text("\n".join(lines) + "\n")


def reference_solution_rows(grid, values, actions):
    """Rows of a solution table, one numpy scalar per coordinate."""
    return [
        list(grid.points[n]) + [values[n], str(int(actions[n]))]
        for n in range(grid.num_points)
    ]


#: values whose 12-digit text is easy to get wrong
SPECIAL_VALUES = [-0.0, 1e-300, 1e300, -1e300, -1e-300, 0.0, 5e-324, 1 / 3, -2.5e-7]


def synthetic_solution(num_states, resolution):
    grid = build_grid(num_states, resolution)
    rng = np.random.default_rng(num_states * 10_000 + resolution)
    scale = 10.0 ** rng.integers(-30, 30, size=grid.num_points)
    values = rng.normal(size=grid.num_points) * scale
    head = min(grid.num_points, len(SPECIAL_VALUES))
    values[:head] = SPECIAL_VALUES[:head]
    actions = rng.integers(1, 4, size=grid.num_points)
    log = IterationLog(changes=[0.5, 1 / 3, 1e-300, -0.0, 7.25e-9], converged=True)
    return SolveResult(ValueFunction(grid, values), Policy(grid, actions), log)


class TestCsvOracle:
    """Column-wise tables are byte-identical to the row-wise writer's."""

    @pytest.mark.parametrize(
        "num_states,resolution,relaxed",
        [(2, 1, False), (2, 1000, False), (3, 600, False), (3, 7, True), (4, 30, False)],
    )
    def test_solution_table(self, tmp_path, num_states, resolution, relaxed):
        """``relaxed`` writes the table under ``solve-relaxed``'s file name."""
        result = synthetic_solution(num_states, resolution)
        model = SimpleNamespace(num_states=num_states, is_stopping=False)
        run_stub = SimpleNamespace(dir=tmp_path)
        filename = "relaxed_values.csv" if relaxed else "value_policy.csv"
        cli._write_solution(run_stub, model, result, filename=filename)

        grid = result.policy.grid
        values = result.value.values
        header = [f"pi{i}" for i in range(1, num_states + 1)] + ["value", "action"]
        rows = reference_solution_rows(grid, values, result.policy.actions)
        reference_write_csv(tmp_path / "reference.csv", header, rows)
        got = (tmp_path / filename).read_bytes()
        assert got == (tmp_path / "reference.csv").read_bytes()
        assert got.count(b"\n") == grid.num_points + 1

        trace = [[str(i), c] for i, c in enumerate(result.log.changes, start=1)]
        reference_write_csv(tmp_path / "reference_trace.csv", ["iteration", "change"], trace)
        got = (tmp_path / "convergence.csv").read_bytes()
        assert got == (tmp_path / "reference_trace.csv").read_bytes()

    @pytest.mark.parametrize(
        "command,solver_name,filename",
        [
            ("solve", "solve_discounted", "value_policy.csv"),
            ("solve-relaxed", "solve_relaxed", "relaxed_values.csv"),
        ],
    )
    def test_solve_commands_record_the_written_solution(
        self, tmp_path, monkeypatch, command, solver_name, filename
    ):
        """The manifest records the sizes of the solution the table holds."""
        result = synthetic_solution(3, 7)
        monkeypatch.setattr(cli, solver_name, lambda *args, **kwargs: result)
        args = ["--model", LINEAR_X3, "--grid", "7", "--out", str(tmp_path)]
        assert run([command, *args]).exit_code == 0
        grid = result.policy.grid
        assert (tmp_path / filename).read_bytes().count(b"\n") == grid.num_points + 1
        assert manifest_sizes(tmp_path) == {
            "grid_points": grid.num_points,
            "iterations": 5,
            "sweep_threads": 1,
        }

    def test_coordinate_labels_are_the_grid_division(self):
        """``k / M`` in Python is the same IEEE quotient as the grid's ``coords / M``."""
        for resolution in (1, 7, 600, 1998):
            grid = build_grid(2, resolution)
            labels = [k / resolution for k in grid.coords[:, 0].tolist()]
            assert labels == grid.points[:, 0].tolist()

    def test_column_lengths_must_agree(self, tmp_path):
        with pytest.raises(ValueError):
            cli.write_csv(tmp_path / "t.csv", ["a", "b"], [[1.0, 2.0], ["x"]])

    def test_numpy_column_lengths_must_agree(self, tmp_path):
        """Arrays and label-coded arrays are measured before the file is made."""
        path = tmp_path / "t.csv"
        codes = (["0", "1"], np.ones(3, dtype=np.intp))
        with pytest.raises(ValueError, match=r"\[2, 3\]"):
            cli.write_csv(path, ["a", "b", "c"], [np.zeros(3), codes, np.zeros(2)])
        assert not path.exists()

    @staticmethod
    def writer_peak(folder, num_states, resolution):
        """tracemalloc peak of ``_write_solution`` alone, in bytes."""
        result = synthetic_solution(num_states, resolution)
        model = SimpleNamespace(num_states=num_states, is_stopping=False)
        tracemalloc.start()
        try:
            cli._write_solution(SimpleNamespace(dir=folder), model, result)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_solution_writer_memory_is_per_block(self, tmp_path):
        """The writer holds CSV_BLOCK rows of cells, not a Python object per
        grid point: 180,901 and 501,501 points peak alike.  Cells made for
        the whole grid at once peak at 22.2 and 58.5 MB."""
        peak = self.writer_peak(tmp_path, 3, 600)
        assert peak < 4e6
        assert abs(self.writer_peak(tmp_path, 3, 1000) - peak) <= 0.1 * peak

    def test_empty_table_is_header_line(self, tmp_path):
        cli.write_csv(tmp_path / "t.csv", ["a", "b"], [[], []])
        reference_write_csv(tmp_path / "r.csv", ["a", "b"], [])
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "r.csv").read_bytes() == b"a,b\n"

    def test_evaluate_table(self, tmp_path, monkeypatch):
        beliefs = initial_belief_set(3)
        evals = [
            EvalResult(mean=m, std_error=se, num_paths=300, horizon=41, truncation_bound=None)
            for m, se in zip(SPECIAL_VALUES, reversed(SPECIAL_VALUES))
        ][: len(beliefs)]
        monkeypatch.setattr(cli, "evaluate_policy", lambda *a, **k: evals)
        args = ["--model", LINEAR_X3, "--grid", "10", "--paths", "300", "--out", str(tmp_path)]
        result = run(["evaluate", *args])
        assert result.exit_code == 0, result.output

        header = ["pi1", "pi2", "pi3", "policy", "mean", "std_error", "paths", "horizon"]
        rows = [
            list(pi0.probs)
            + ["grid_optimal", ev.mean, ev.std_error, str(ev.num_paths), str(ev.horizon)]
            for pi0, ev in zip(beliefs, evals)
        ]
        reference_write_csv(tmp_path / "reference.csv", header, rows)
        got = (tmp_path / "evaluate.csv").read_bytes()
        assert got == (tmp_path / "reference.csv").read_bytes()

    def test_compare_table(self, tmp_path, monkeypatch):
        beliefs = initial_belief_set(3)
        rows = [
            {
                "initial_belief": [float(p) for p in pi0.probs],
                "mean_a": SPECIAL_VALUES[i],
                "se_a": 1 / (i + 3),
                "mean_b": -SPECIAL_VALUES[-1 - i],
                "se_b": 1e-300 * i,
                "num_paths": 500,
                "horizon": 63,
            }
            for i, pi0 in enumerate(beliefs)
        ]
        comparison = PolicyComparison(rows, a_not_worse=len(rows), num_beliefs=len(rows))
        monkeypatch.setattr(cli, "compare_policies", lambda *a, **k: comparison)
        args = ["--model", LINEAR_X3, "--grid", "10", "--paths", "500", "--out", str(tmp_path)]
        result = run(["compare", *args])
        assert result.exit_code == 0, result.output

        header = ["pi1", "pi2", "pi3", "policy", "mean", "std_error", "paths", "horizon"]
        table = []
        for row in rows:
            for label, mean, se in (
                ("grid_optimal", row["mean_a"], row["se_a"]),
                ("myopic_bound", row["mean_b"], row["se_b"]),
            ):
                table.append(
                    row["initial_belief"]
                    + [label, mean, se, str(row["num_paths"]), str(row["horizon"])]
                )
        reference_write_csv(tmp_path / "reference.csv", header, table)
        got = (tmp_path / "compare.csv").read_bytes()
        assert got == (tmp_path / "reference.csv").read_bytes()


class TestJson:
    def test_a_dataclass_becomes_its_fields(self):
        report = make_report("p", np.float64(1 / 3), 0.5, witness={"at": np.arange(2)}, samples=3)
        assert cli.json_ready(report) == {
            "predicate": "p",
            "holds": True,
            "worst_violation": 0.333333333333,
            "tolerance": 0.5,
            "witness": {"at": [0, 1]},
            "samples": 3,
            "details": {},
        }
        assert cli.json_ready([report]) == [cli.json_ready(report)]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf])
    def test_non_finite_numbers_are_refused(self, tmp_path, value):
        with pytest.raises(ValueError):
            cli.write_json(tmp_path / "x.json", {"worst_violation": value})
