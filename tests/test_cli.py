"""CLI tests: validate/run/compare subcommands, exit codes, output files."""

import json
import os
import subprocess
import sys

import pytest

import dsie
from dsie.cli import EXIT_IO, EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main

from conftest import bundled_network_path, bundled_scenario_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_fixture4_doc():
    with open(bundled_network_path("fixture4")) as f:
        return json.load(f)


@pytest.fixture
def quiet_scenario(tmp_path):
    """Short fixture4 scenario with negligible noise and exact steady init."""
    doc = {
        "schema_version": 1,
        "network": "fixture4",
        "t_s": 0.001,
        "duration": 0.05,
        "seed": 3,
        "initial_inputs": {
            "v_b3": [480.0, 0.0],
            "v_t_b1": [492.0, 18.0],
            "i_load_b2": [60.0, -15.0],
            "i_load_b4": [40.0, -10.0],
        },
        "noise": {"process_fraction": 0.0, "measurement_fraction": 1e-12},
        "estimators": ["dsie"],
        "init": {"state": "steady", "estimate_offset_fraction": 0.0},
    }
    path = tmp_path / "quiet.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_bundled_network_clean(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--network", bundled_network_path("example13"))
        assert code == EXIT_OK
        assert json.loads(out) == {"ok": True, "problems": []}

    def test_scenario_only_resolves_network(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--scenario", bundled_scenario_path("fixture4_load_change")
        )
        assert code == EXIT_OK
        assert json.loads(out)["ok"] is True

    def test_neither_flag_is_an_error(self, capsys):
        code, _, err = run_cli(capsys, "validate")
        assert code == EXIT_VALIDATION
        assert "--network" in err

    def test_sensor_ablation_reports_unobservable_inputs(self, capsys, tmp_path):
        doc = load_fixture4_doc()
        doc["sensors"] = {"states": [], "inputs": []}
        path = tmp_path / "blind.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "validate", "--network", str(path))
        assert code == EXIT_VALIDATION
        diag = json.loads(out)
        assert diag["ok"] is False
        rank_problems = [p for p in diag["problems"] if "rank deficient" in p]
        assert rank_problems
        for name in ("v_b3", "v_t_b1", "i_load_b2", "i_load_b4"):
            assert any(name in p for p in rank_problems)

    def test_malformed_network_is_field_precise(self, capsys, tmp_path):
        doc = load_fixture4_doc()
        doc["lines"][0]["resistance"] = -5.0
        del doc["buses"][0]["id"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "validate", "--network", str(path))
        assert code == EXIT_VALIDATION
        problems = json.loads(out)["problems"]
        assert any("resistance" in p for p in problems)
        assert any("buses" in p for p in problems)

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "validate", "--network", str(tmp_path / "nope.json"))
        assert code == EXIT_IO


class TestRun:
    def test_quiet_scenario_tracks_truth(self, capsys, tmp_path, quiet_scenario):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys, "run", "--scenario", quiet_scenario, "--out", str(out_dir)
        )
        assert code == EXIT_OK, err
        with open(out_dir / "report.json") as f:
            report = json.load(f)
        assert report["methods"]["dsie"]["mse_state_mean"] <= 1e-12
        assert (out_dir / "truth.csv").exists()
        assert (out_dir / "estimates_dsie.csv").exists()
        assert (out_dir / "mahalanobis_dsie.csv").exists()

    def test_same_seed_byte_identical_csvs(self, capsys, tmp_path, quiet_scenario):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run_cli(
                capsys, "run", "--scenario", quiet_scenario, "--out", str(d), "--seed", "11"
            )
            assert code == EXIT_OK
        for name in ("truth.csv", "estimates_dsie.csv", "mahalanobis_dsie.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_method_override(self, capsys, tmp_path, quiet_scenario):
        # fixture4 carries duplicate sensors, so near-zero measurement noise
        # makes the tracking filter's innovation covariance singular; give
        # this run a small but honest noise floor.
        with open(quiet_scenario) as f:
            doc = json.load(f)
        doc["noise"]["measurement_fraction"] = 1e-4
        scenario = tmp_path / "noisy.json"
        scenario.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys,
            "run", "--scenario", str(scenario), "--out", str(out_dir),
            "--method", "wls", "--method", "tse",
        )
        assert code == EXIT_OK
        with open(out_dir / "report.json") as f:
            report = json.load(f)
        assert sorted(report["methods"]) == ["tse", "wls"]
        assert not (out_dir / "estimates_dsie.csv").exists()

    def test_ddsie_runs_the_bundled_attack_scenario(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, err = run_cli(
            capsys,
            "run", "--scenario", bundled_scenario_path("fixture4_attack"),
            "--out", str(out_dir), "--method", "ddsie",
        )
        assert code == EXIT_OK, err
        assert (out_dir / "estimates_ddsie.csv").exists()

    def test_invalid_scenario_exits_validation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"network": "fixture4", "t_s": -1.0, "duration": 1.0}))
        code, _, _ = run_cli(capsys, "run", "--scenario", str(path), "--out", str(tmp_path / "o"))
        assert code == EXIT_VALIDATION

    def test_missing_scenario_exits_io(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "run", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")
        )
        assert code == EXIT_IO

    def test_replicates_write_summary(self, capsys, tmp_path, quiet_scenario):
        out_dir = tmp_path / "reps"
        code, _, _ = run_cli(
            capsys,
            "run", "--scenario", quiet_scenario, "--out", str(out_dir), "--replicates", "2",
        )
        assert code == EXIT_OK
        with open(out_dir / "replicates.json") as f:
            summary = json.load(f)
        assert summary["replicates"] == 2
        assert len(set(summary["seeds"])) == 2
        for i in range(2):
            assert (out_dir / f"rep{i:03d}" / "report.json").exists()


class TestCompare:
    def _run_once(self, capsys, scenario, out_dir, seed):
        code, _, _ = run_cli(
            capsys, "run", "--scenario", scenario, "--out", str(out_dir), "--seed", str(seed)
        )
        assert code == EXIT_OK

    def test_self_comparison_ratio_one(self, capsys, tmp_path, quiet_scenario):
        self._run_once(capsys, quiet_scenario, tmp_path / "a", 1)
        self._run_once(capsys, quiet_scenario, tmp_path / "b", 2)
        code, out, _ = run_cli(capsys, "compare", str(tmp_path / "a"), str(tmp_path / "a"))
        assert code == EXIT_OK
        summary = json.loads(out)
        assert all(row["mse_ratio"] == pytest.approx(1.0) for row in summary["rows"])

    def test_mismatched_scenarios_refused(self, capsys, tmp_path, quiet_scenario):
        self._run_once(capsys, quiet_scenario, tmp_path / "a", 1)
        other = tmp_path / "other.json"
        with open(quiet_scenario) as f:
            doc = json.load(f)
        doc["duration"] = 0.04
        other.write_text(json.dumps(doc))
        self._run_once(capsys, str(other), tmp_path / "b", 1)
        code, _, err = run_cli(capsys, "compare", str(tmp_path / "a"), str(tmp_path / "b"))
        assert code == EXIT_RUNTIME
        assert "incompatible" in err

    def test_missing_report_is_io_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "compare", str(tmp_path / "missing"))
        assert code == EXIT_IO

    def test_summary_of_hand_made_reports(self, capsys, tmp_path, monkeypatch):
        """The printed summary, byte for byte, with a detected and a missed attack."""
        scenario = {
            "t_s": 0.001,
            "attacks": [{"start": 0.005, "end": 0.008}, {"start": 0.02, "end": 0.03}],
        }
        methods = {
            "dsie": {"mse_state_mean": 2.0, "flags": [1, 6, 9], "false_alarm_rate": 0.25},
            "wls": {"mse_state_mean": 3.0, "flags": [], "false_alarm_rate": 0.0},
        }
        monkeypatch.chdir(tmp_path)
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            doc = {"scenario_hash": "h", "scenario": scenario, "methods": methods}
            (tmp_path / d / "report.json").write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "compare", "a", "b")
        assert code == EXIT_OK
        rows = [
            {
                "detection_latency_steps": latency,
                "dir": d,
                "false_alarm_rate": rate,
                "method": method,
                "mse_ratio": ratio,
                "mse_state_mean": mse,
            }
            for d in ("a", "b")
            for method, latency, rate, ratio, mse in (
                ("dsie", [1, None], 0.25, 1.0, 2.0),
                ("wls", [None, None], 0.0, 1.5, 3.0),
            )
        ]
        baseline = {"dir": "a", "method": "dsie", "mse_state_mean": 2.0}
        expected = json.dumps({"baseline": baseline, "rows": rows}, indent=2, sort_keys=True)
        assert out == expected + "\n"


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    """The chi-square threshold needs ``scipy.special`` only; ``scipy.stats``
    would add about half a second to every ``dsie`` process."""
    src = os.path.dirname(os.path.dirname(dsie.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, dsie.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
