"""Run outputs: the long-format CSV writer and what it writes for a real run."""

import csv
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from dsie import estimator, linalg, model, pipeline
from dsie.metrics import false_alarm_rate
from dsie.network import load_network
from dsie.pipeline import _write_long_csv, run_scenario, write_outputs
from dsie.sim import LoadEvent, load_scenario

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
            np.testing.assert_array_equal(series.pop(f"threshold:{aid}"), run.per_area_thresholds[aid])
        assert not series
        assert (method == "ddsie") == bool(run.per_area_mahalanobis)


METHODS = ("dsie", "wls", "tse", "ddsie")


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["fixture4_load_change", "fixture4_attack", "example13_load_change"])
def test_distance_reaches_its_threshold_exactly_on_flagged_rows(name, seed):
    """On every row, row 0 included, a run's flag is distance >= threshold.
    The filters' row 0, the initial estimate, has an infinite threshold."""
    scenario = replace(load_scenario(bundled_scenario_path(name)), estimators=METHODS, seed=seed)
    runs = run_scenario(load_network(bundled_network_path(scenario.network)), scenario)["series"]["runs"]
    for method, run in runs.items():
        np.testing.assert_array_equal(run.flags, run.mahalanobis >= run.thresholds, err_msg=method)
        assert not run.flags.all()
        if method != "wls":  # wls row 0 is a real snapshot
            assert run.flags[1:].any() and run.thresholds[0] == np.inf


@pytest.mark.parametrize("name", ["fixture4_load_change", "fixture4_attack", "example13_load_change"])
def test_ddsie_area_rows_give_the_flag_on_every_row(name, tmp_path):
    """mahalanobis_ddsie.csv writes each area's threshold beside its
    distance, infinite on row 0; on every row the OR over areas of
    distance >= threshold is the run's flag."""
    scenario = replace(load_scenario(bundled_scenario_path(name)), estimators=("ddsie",), seed=1)
    result = run_scenario(load_network(bundled_network_path(scenario.network)), scenario)
    write_outputs(result, tmp_path)
    run = result["series"]["runs"]["ddsie"]
    _, series = read_long_csv(tmp_path / "mahalanobis_ddsie.csv")
    areas = sorted(run.per_area_mahalanobis)
    assert len(areas) > 1
    assert list(series) == ["mahalanobis", "threshold"] + [
        f"{kind}:{aid}" for aid in areas for kind in ("mahalanobis", "threshold")
    ]
    flagged = np.zeros(run.flags.shape, dtype=bool)
    for aid in areas:
        threshold = series[f"threshold:{aid}"]
        assert threshold[0] == np.inf and np.isfinite(threshold[1:]).all()
        flagged |= series[f"mahalanobis:{aid}"] >= threshold
    np.testing.assert_array_equal(flagged, run.flags)
    assert run.flags.any()


def stand_in_areas(*dofs):
    """Areas whose models have ``dof`` redundant rows each (l + p - m)."""
    return [SimpleNamespace(model=SimpleNamespace(l=2, p=dof + 3, m=5)) for dof in dofs]


class TestSidakLevel:
    """Each ddsie area tests at alpha_N = 1 - (1 - alpha)^(1/N) over the N
    areas that can alarm, so the OR of their flags alarms at about alpha."""

    def test_one_area_keeps_the_config_itself(self):
        bdd = estimator.BddConfig(alpha=0.01)
        assert pipeline._area_bdd(bdd, stand_in_areas(4)) is bdd

    def test_four_areas_alarm_together_at_alpha(self):
        bdd = estimator.BddConfig(alpha=0.01, policy="hold")
        area_bdd = pipeline._area_bdd(bdd, stand_in_areas(1, 2, 3, 4))
        assert area_bdd.policy == "hold" and area_bdd.zeta is None
        assert abs((1 - area_bdd.alpha) ** 4 - 0.99) <= 1e-15 * 0.99

    def test_a_fixed_threshold_stays_as_given(self):
        bdd = estimator.BddConfig(alpha=0.01, zeta=5.0)
        assert pipeline._area_bdd(bdd, stand_in_areas(1, 2, 3, 4)) is bdd

    def test_an_area_that_cannot_alarm_is_not_counted(self):
        bdd = estimator.BddConfig(alpha=0.01)
        assert pipeline._area_bdd(bdd, stand_in_areas(0, 4)) is bdd
        assert pipeline._area_bdd(bdd, stand_in_areas(3, 0, 5)) == pipeline._area_bdd(
            bdd, stand_in_areas(3, 5)
        )

    def test_each_area_row_and_the_report_give_the_level(self, tmp_path):
        topology, scenario = bundled("example13_load_change", estimators=("ddsie",), seed=1)
        result = run_scenario(topology, scenario)
        write_outputs(result, tmp_path)
        times, series = read_long_csv(tmp_path / "mahalanobis_ddsie.csv")
        entry = result["report"]["methods"]["ddsie"]
        areas = pipeline.prepare(topology, scenario).areas
        assert len(areas) == 4
        alpha_n = -np.expm1(np.log1p(-scenario.bdd_alpha) / 4)
        assert entry["area_alpha"] == alpha_n
        windows = [(a.start, a.end) for a in scenario.attacks]
        for area in areas:
            m = area.model
            threshold = estimator.BddConfig(alpha=alpha_n).threshold(m.l + m.p - m.m)
            rows = series[f"threshold:{area.area_id}"]
            assert rows[0] == np.inf and (rows[1:] == threshold).all()
            flags = series[f"mahalanobis:{area.area_id}"] >= rows
            assert entry["area_false_alarm_rates"][area.area_id] == false_alarm_rate(flags, windows, times)


class TestDdsieAlarmLevel:
    """The OR of the areas' flags keeps criterion 7's band on quiet runs."""

    @pytest.mark.parametrize("name", ["fixture4_load_change", "example13_load_change"])
    def test_quiet_run_level_is_in_criterion_7s_band(self, name):
        base = load_scenario(bundled_scenario_path(name))
        topology, scenario = bundled(
            name,
            duration=4000 * base.t_s,
            load_events=(),
            attacks=(),
            seed=123,
            estimators=("ddsie",),
            estimate_offset_fraction=0.0,
        )
        far = run_scenario(topology, scenario)["report"]["methods"]["ddsie"]["false_alarm_rate"]
        assert 0.001 <= far <= 0.03, far


def bundled(name, **changes):
    """(topology, scenario) of a bundled scenario, both loaded afresh."""
    scenario = replace(load_scenario(bundled_scenario_path(name)), **changes)
    return load_network(bundled_network_path(scenario.network)), scenario


def nudged_line(topology):
    """``topology`` with its first line's resistance one ulp larger."""
    line = topology.lines[0]
    nudged = replace(line, resistance=float(np.nextafter(line.resistance, np.inf)))
    return replace(topology, lines=(nudged,) + topology.lines[1:])


def nudged_input(scenario):
    """``scenario`` with one initial input's d coordinate one ulp larger."""
    iid, (d, q) = sorted(scenario.initial_inputs.items())[0]
    return replace(
        scenario, initial_inputs={**scenario.initial_inputs, iid: (float(np.nextafter(d, np.inf)), q)}
    )


def run_series(result):
    """Every series of a run_scenario result, by (method, name)."""
    out = {("truth", "x"): result["series"]["truth"].x, ("truth", "u"): result["series"]["truth"].u}
    for method, run in result["series"]["runs"].items():
        for name in ("x_est", "u_est", "mahalanobis", "thresholds", "flags"):
            out[method, name] = getattr(run, name)
        for aid, series in run.per_area_mahalanobis.items():
            out[method, aid] = series
        out[method, "rejections"] = run.crosscheck_rejections
    return out


class TestSharedModel:
    """``pipeline.prepare`` returns one shared, read-only model set for every
    run in the process whose inputs are equal, with its rank report and area
    models."""

    def test_equal_inputs_give_one_object(self):
        first = pipeline.prepare(*bundled("fixture4_load_change"))
        assert pipeline.prepare(*bundled("fixture4_load_change")) is first
        assert pipeline.prepare(*bundled("fixture4_load_change", seed=3, bdd_policy="hold")) is first

    @pytest.mark.parametrize(
        "change",
        [
            lambda t, s: (nudged_line(t), s),
            lambda t, s: (t, replace(s, t_s=float(np.nextafter(s.t_s, np.inf)))),
            lambda t, s: (t, replace(s, process_fraction=2 * s.process_fraction)),
            lambda t, s: (t, replace(s, measurement_fraction=2 * s.measurement_fraction)),
            lambda t, s: (t, nudged_input(s)),
        ],
        ids=["line-resistance", "t_s", "process_fraction", "measurement_fraction", "initial-input"],
    )
    def test_any_input_of_the_model_gives_another_object(self, change):
        topology, scenario = bundled("fixture4_load_change")
        base = pipeline.prepare(topology, scenario)
        assert pipeline.prepare(*change(topology, scenario)) is not base
        assert pipeline.prepare(topology, scenario) is base

    def test_a_second_seed_builds_nothing_and_a_cleared_table_builds_again(self, monkeypatch):
        calls = dict.fromkeys(("check_joint_rank", "partition", "build_discrete"), 0)
        for module, name in (
            (pipeline, "check_joint_rank"),
            (pipeline, "partition"),
            (pipeline, "build_discrete"),
            (model, "build_discrete"),
        ):

            def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        topology, scenario = bundled("fixture4_load_change", estimators=METHODS, seed=1)
        estimator.gains_table.clear()
        run_scenario(topology, scenario)
        first = dict(calls)
        assert first == {"check_joint_rank": 1, "partition": 1, "build_discrete": 3}  # whole, 2 areas
        run_scenario(*bundled("fixture4_load_change", estimators=METHODS, seed=2))
        assert calls == first
        estimator.gains_table.clear()
        run_scenario(topology, replace(scenario, seed=2))
        assert calls == {name: 2 * count for name, count in first.items()}

    def test_a_second_seed_matches_no_area_rows_by_label(self, monkeypatch):
        calls = []
        rows_by_label = pipeline._rows_by_label

        def counted(*args):
            calls.append(args)
            return rows_by_label(*args)

        monkeypatch.setattr(pipeline, "_rows_by_label", counted)
        estimator.gains_table.clear()
        run_scenario(*bundled("fixture4_load_change", estimators=("ddsie",), seed=1))
        assert len(calls) == 4  # the z_x and z_u rows of 2 areas
        run_scenario(*bundled("fixture4_load_change", estimators=("ddsie",), seed=2))
        assert len(calls) == 4
        prepared = pipeline.prepare(*bundled("fixture4_load_change"))
        assert len(prepared.area_index) == len(prepared.areas)
        for arrays in prepared.area_index:
            assert all(not a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("method, zohs", [("dsie", 1), ("wls", 1), ("tse", 1), ("ddsie", 3)])
    def test_one_zoh_per_model_serves_the_filters_and_the_truth(self, monkeypatch, method, zohs):
        calls = []

        def counted(*args, _original=linalg.discretize_zoh):
            calls.append(args)
            return _original(*args)

        monkeypatch.setattr(linalg, "discretize_zoh", counted)
        estimator.gains_table.clear()
        topology, scenario = bundled("fixture4_load_change", estimators=(method,), seed=1)
        run_scenario(topology, scenario)
        assert len(calls) == zohs  # the whole model, and for ddsie its 2 areas
        run_scenario(*bundled("fixture4_load_change", estimators=(method,), seed=2))
        assert len(calls) == zohs
        prepared = pipeline.prepare(topology, scenario)
        a_d, b_d = prepared.continuous.discretize(scenario.t_s)
        assert a_d is prepared.model.a_d and b_d is prepared.model.b_d

    def test_the_shared_arrays_are_read_only(self):
        prepared = pipeline.prepare(*bundled("fixture4_load_change"))
        with pytest.raises(ValueError):
            prepared.model.q[0, 0] = 1.0
        for owner in (prepared, prepared.continuous, prepared.model):
            for f in fields(owner):
                value = getattr(owner, f.name)
                if isinstance(value, np.ndarray):
                    assert not value.flags.writeable, f.name

    def test_a_failed_prepare_stores_nothing(self):
        topology, scenario = bundled("fixture4_load_change")
        bad = replace(scenario, load_events=(LoadEvent(0.1, "i_nowhere", (1.0, 0.0)),))
        entries = len(estimator.gains_table)
        for _ in range(2):
            with pytest.raises(KeyError, match="i_nowhere"):
                pipeline.prepare(topology, bad)
        assert len(estimator.gains_table) == entries

    @pytest.mark.parametrize(
        "name, changes",
        [
            ("fixture4_attack", {}),
            ("example13_load_change", {}),
            ("fixture4_load_change", {"drop_rate": 0.2, "delay_rate": 0.1, "bdd_policy": "hold"}),
        ],
    )
    def test_warm_and_cold_tables_give_bit_identical_series(self, name, changes):
        topology, scenario = bundled(name, estimators=METHODS, **changes)
        estimator.gains_table.clear()
        run_scenario(topology, replace(scenario, seed=1))
        warm = run_series(run_scenario(topology, replace(scenario, seed=2)))
        estimator.gains_table.clear()
        cold = run_series(run_scenario(topology, replace(scenario, seed=2)))
        assert warm.keys() == cold.keys()
        for key, series in cold.items():
            if isinstance(series, list):
                assert warm[key] == series, key
            else:
                np.testing.assert_array_equal(warm[key], series, err_msg=str(key))
