"""Command line behavior: exit codes, artifacts, determinism."""

import hashlib
import json

from click.testing import CliRunner

from beliefpomdp.cli import main
from beliefpomdp.model import fixture_path

QD = str(fixture_path("quickest_detection_x2.json"))
FVP = str(fixture_path("filter_vs_predictor.json"))
NON_TP2 = str(fixture_path("non_tp2_observation.json"))
MONO = str(fixture_path("monotone_a123.json"))
CHAIN = str(fixture_path("ultrametric_chain.json"))


def run(args):
    return CliRunner().invoke(main, args)


def artifact_hashes(folder):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(folder.iterdir())
        if p.name != "manifest.json"
    }


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

    def test_manifest_written_even_on_violation(self, tmp_path):
        run(["verify", "--model", NON_TP2, "--predicates", "tp2", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "verify"
        assert manifest["exit_status"] == 2
        assert "wall_time_s" in manifest
        options = manifest["options"]
        assert options["model_path"] == NON_TP2 and options["predicates"] == "tp2"
        assert options["resolution"] == 200 and options["out"] == str(tmp_path)


class TestCommands:
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

    def test_solve_relaxed_rejects_nonlinear(self, tmp_path):
        result = run(["solve-relaxed", "--model", FVP, "--out", str(tmp_path)])
        assert result.exit_code == 1

    def test_solve_relaxed_linear_fixture(self, tmp_path):
        result = run(
            ["solve-relaxed", "--model", MONO, "--grid", "100", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0
        assert (tmp_path / "relaxed_values.csv").exists()

    def test_qd_threshold_and_simulate(self, tmp_path):
        result = run(
            ["qd-threshold", "--model", QD, "--grid", "400", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0
        payload = json.loads((tmp_path / "qd_threshold.json").read_text())
        assert 0.0 < payload["threshold"] < 1.0
        result = run(
            [
                "qd-simulate",
                "--model",
                QD,
                "--grid",
                "400",
                "--paths",
                "2000",
                "--seed",
                "3",
                "--out",
                str(tmp_path / "sim"),
            ]
        )
        assert result.exit_code == 0
        sim = json.loads((tmp_path / "sim" / "qd_simulate.json").read_text())
        for key in ("threshold", "delay_term", "false_alarm", "ks_cost", "ci_halfwidth", "seed", "cap_hits"):
            assert key in sim

    def test_qd_threshold_rejects_non_qd_model(self, tmp_path):
        result = run(["qd-threshold", "--model", FVP, "--out", str(tmp_path)])
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

    def test_evaluate_and_compare(self, tmp_path):
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

    def test_conjecture_probe_small(self, tmp_path):
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


class TestDeterminism:
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

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BELIEFPOMDP_OUT", str(tmp_path / "envout"))
        result = CliRunner().invoke(main, ["validate", "--model", QD])
        assert result.exit_code == 0
        assert (tmp_path / "envout" / "validation.json").exists()
