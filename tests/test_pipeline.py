"""Run outputs: the long-format CSV writer and what it writes for a real run."""

import csv
from dataclasses import replace

import numpy as np
import pytest

from dsie.network import load_network
from dsie.pipeline import _write_long_csv, run_scenario, write_outputs
from dsie.sim import load_scenario

from conftest import bundled_network_path, bundled_scenario_path


def reference_long_csv(path, times, blocks):
    """One csv.writer row per value: the writer's contract, spelled out."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["time", "variable", "value"])
        for k, t in enumerate(times):
            for labels, arr in blocks:
                for j, lab in enumerate(labels):
                    writer.writerow([repr(float(t)), lab, repr(float(arr[k, j]))])


SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1e22, 1e-7, 0.1, 1 / 3]
AWKWARD_LABELS = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", "crlf\r\nhere", "", " pad ", "v_1:d"]


def blocks_for(steps, rng):
    width = len(AWKWARD_LABELS)
    wide = rng.normal(scale=1e3, size=(steps, width))
    flat = wide.ravel()
    flat[: min(len(SPECIAL), flat.size)] = SPECIAL[: flat.size]
    narrow = rng.normal(size=(steps, 3)) * 10.0 ** rng.integers(-300, 300, size=(steps, 3))
    one = rng.normal(size=(steps, 1))
    if steps:
        one[0, 0] = -0.0
    return [
        (AWKWARD_LABELS, wide),
        (["x:d", "x:q", "mahalanobis:area,1"], narrow),
        (["threshold"], one),
    ]


class TestLongCsv:
    @pytest.mark.parametrize("steps", [0, 1, 2, 37])
    def test_bytes_match_csv_writer(self, tmp_path, steps):
        rng = np.random.default_rng(steps)
        times = np.arange(steps) * 0.001
        if steps > 1:
            times[1] = -0.0
        blocks = blocks_for(steps, rng)
        _write_long_csv(tmp_path / "new.csv", times, blocks)
        reference_long_csv(tmp_path / "ref.csv", times, blocks)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert new.startswith(b"time,variable,value\r\n")

    def test_special_values_parse_back(self, tmp_path):
        values = np.array([SPECIAL])
        labels = [f"v{i}" for i in range(len(SPECIAL))]
        _write_long_csv(tmp_path / "s.csv", [0.0], [(labels, values)])
        with open(tmp_path / "s.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert [r[1] for r in rows] == labels
        back = np.array([float(r[2]) for r in rows])
        np.testing.assert_array_equal(back, values[0])
        assert np.array_equal(np.signbit(back), np.signbit(values[0]))

    def test_label_count_must_match_columns(self, tmp_path):
        with pytest.raises(ValueError):
            _write_long_csv(tmp_path / "bad.csv", [0.0], [(["a"], np.zeros((1, 2)))])


def read_long_csv(path):
    """(times, {variable: values}) from a long CSV, in file order."""
    times, series = [], {}
    with open(path, newline="") as f:
        reader = csv.reader(f)
        assert next(reader) == ["time", "variable", "value"]
        for t, var, value in reader:
            t = float(t)
            if not times or times[-1] != t:
                times.append(t)
            series.setdefault(var, []).append(float(value))
    return np.array(times), {k: np.array(v) for k, v in series.items()}


class TestWrittenRun:
    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        scenario = load_scenario(bundled_scenario_path("example13_load_change"))
        scenario = replace(
            scenario,
            duration=0.12,
            load_events=tuple(e for e in scenario.load_events if e.time <= 0.12),
            estimators=("dsie", "wls", "tse", "ddsie"),
        )
        result = run_scenario(load_network(bundled_network_path("example13")), scenario)
        outdir = tmp_path_factory.mktemp("run")
        write_outputs(result, outdir)
        return result, outdir

    def assert_block(self, series, labels, arr):
        for j, label in enumerate(labels):
            np.testing.assert_array_equal(series.pop(label), arr[:, j])

    def test_truth_reads_back_exactly(self, written):
        result, outdir = written
        s = result["series"]
        times, series = read_long_csv(outdir / "truth.csv")
        np.testing.assert_array_equal(times, s["truth"].times)
        self.assert_block(series, s["state_labels"], s["truth"].x)
        self.assert_block(series, s["input_labels"], s["truth"].u)
        assert not series

    @pytest.mark.parametrize("method", ["dsie", "wls", "tse", "ddsie"])
    def test_estimates_and_mahalanobis_read_back_exactly(self, written, method):
        result, outdir = written
        s = result["series"]
        run = s["runs"][method]
        times, series = read_long_csv(outdir / f"estimates_{method}.csv")
        np.testing.assert_array_equal(times, s["truth"].times)
        self.assert_block(series, s["state_labels"], run.x_est)
        if run.u_est is not None:
            self.assert_block(series, s["input_labels"], run.u_est)
        assert not series

        times, series = read_long_csv(outdir / f"mahalanobis_{method}.csv")
        np.testing.assert_array_equal(times, s["truth"].times)
        np.testing.assert_array_equal(series.pop("mahalanobis"), run.mahalanobis)
        np.testing.assert_array_equal(series.pop("threshold"), run.thresholds)
        for aid, dist in run.per_area_mahalanobis.items():
            np.testing.assert_array_equal(series.pop(f"mahalanobis:{aid}"), dist)
        assert not series
        assert (method == "ddsie") == bool(run.per_area_mahalanobis)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["fixture4_load_change", "fixture4_attack", "example13_load_change"])
def test_ddsie_run_level_distance_reaches_its_threshold_exactly_on_flagged_steps(name, seed):
    scenario = replace(load_scenario(bundled_scenario_path(name)), estimators=("ddsie",), seed=seed)
    run = run_scenario(load_network(bundled_network_path(scenario.network)), scenario)["series"]["runs"]["ddsie"]
    flags = run.flags[1:]  # row 0 is the initial estimate: no distance, no threshold
    assert flags.any() and not flags.all()
    np.testing.assert_array_equal(flags, run.mahalanobis[1:] >= run.thresholds[1:])
