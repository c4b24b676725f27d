"""Scenario execution: truth, measurements, attacks, estimators, reports.

This is the library core behind the ``run`` CLI subcommand; everything is
a pure function of (network, scenario, seed) so repeated runs are
byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import estimator, linalg
from .distributed import LossyTransport, Transport, make_area_estimator, run_round
from .errors import SingularAtSteadyState
from .estimator import (
    BddConfig,
    apply_kalman,
    apply_tse,
    apply_wls,
    dsie_plan,
    dsie_step,  # noqa: F401  unused; the tracer test asserts pipeline.dsie_step is estimator.dsie_step
    initial_state,
    initial_tse_state,
    snapshot_gains,
    tse_plan,
)
from .metrics import false_alarm_rate, mean_mse, mse_per_variable
from .model import (
    AreaModel,
    ContinuousModel,
    DiscreteModel,
    RankReport,
    build_continuous,
    build_discrete,
    check_joint_rank,
    partition,
)
from .network import NetworkTopology
from .sim import (
    Scenario,
    apply_attacks,
    generate_measurements,
    input_trajectory,
    nominal_magnitudes,
    rng_for,
    simulate_truth,
    steady_state,
)

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Prepared:
    """Scenario-resolved model set: nominals, noise levels, matrices.

    One is shared, read-only, by every run in the process whose inputs are
    equal (``prepare``). Its rank report, area models and area indexes are
    built on first use and then shared as well.
    """

    topology: NetworkTopology
    continuous: ContinuousModel
    model: DiscreteModel
    x_nominal: np.ndarray
    u_nominal: np.ndarray
    process_std: np.ndarray
    x_steady: np.ndarray
    u0: np.ndarray
    measurement_std_override: dict | None

    @functools.cached_property
    def rank(self) -> RankReport:
        """The joint design's rank report (``check_joint_rank``); built on first use."""
        return check_joint_rank(self.model)

    @functools.cached_property
    def areas(self) -> tuple[AreaModel, ...]:
        """The models of the topology's declared areas (``partition``); built on first use."""
        return tuple(
            partition(
                self.topology,
                self.model.t_s,
                process_noise_std=self.process_std,
                measurement_std_override=self.measurement_std_override,
            )
        )

    @functools.cached_property
    def area_index(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per area of ``areas``, read-only index arrays: the rows of a run's
        z_x and of its z_u that carry the area's channels, matched by label
        (``_rows_by_label``), and the columns of the network's state that
        are the area's states; built on first use."""
        state_index = self.continuous.state_index
        index = []
        for area in self.areas:
            arrays = (
                _rows_by_label(area.model.z_x_labels, self.model.z_x_labels),
                _rows_by_label(area.model.z_u_labels, self.model.z_u_labels),
                [i for sid in area.model.state_ids for i in state_index[sid]],
            )
            index.append(tuple(np.array(a, dtype=np.intp) for a in arrays))
            for a in index[-1]:
                a.setflags(write=False)
        return tuple(index)


def prepare(topology: NetworkTopology, scenario: Scenario) -> Prepared:
    """The models of ``topology`` resolved for ``scenario``, shared through
    ``estimator.gains_table``.

    The key is exact and covers everything the models are built from: the
    topology's ``repr`` (its areas are a dict, so it has no hash), the
    sampling time, the duration, the inputs at t = 0 (initial inputs and
    load events) and the noise fractions. The arrays of the result and of
    its two models are read-only.
    """
    key = (
        "prepared",
        repr(topology),
        scenario.t_s,
        scenario.duration,
        tuple(sorted(scenario.initial_inputs.items())),
        scenario.load_events,
        scenario.process_fraction,
        scenario.measurement_fraction,
    )
    return estimator.gains_table.get(key, functools.partial(_prepare, topology, scenario))


def _prepare(topology: NetworkTopology, scenario: Scenario) -> Prepared:
    continuous = build_continuous(topology)
    u0 = input_trajectory(continuous, scenario)[0].copy()
    try:
        x_steady = steady_state(continuous, u0)
    except SingularAtSteadyState:
        x_steady = np.zeros(continuous.n)
    x_nominal = nominal_magnitudes(x_steady)
    u_nominal = nominal_magnitudes(u0)
    process_std = scenario.process_fraction * x_nominal
    override = None
    if scenario.measurement_fraction is not None:
        nominal_by_id = {}
        for sid, (d, _q) in continuous.state_index.items():
            nominal_by_id[sid] = x_nominal[d]
        for iid, (d, _q) in continuous.input_index.items():
            nominal_by_id[iid] = u_nominal[d]
        targets = [c.target for c in topology.sensors.states] + [
            c.target for c in topology.sensors.inputs
        ]
        override = {t: scenario.measurement_fraction * nominal_by_id[t] for t in set(targets)}
    model = build_discrete(
        topology,
        scenario.t_s,
        process_noise_std=process_std,
        measurement_std_override=override,
        continuous=continuous,
    )
    prepared = Prepared(
        topology=topology,
        continuous=continuous,
        model=model,
        x_nominal=x_nominal,
        u_nominal=u_nominal,
        process_std=process_std,
        x_steady=x_steady,
        u0=u0,
        measurement_std_override=override,
    )
    for owner in (prepared, continuous, model):
        for f in dataclasses.fields(owner):
            value = getattr(owner, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
    return prepared


@dataclass
class MethodRun:
    """Aligned time series produced by one estimator."""

    name: str
    x_est: np.ndarray  # (steps+1, n)
    u_est: np.ndarray | None  # (steps+1, m) or None
    mahalanobis: np.ndarray  # (steps+1,)
    thresholds: np.ndarray
    flags: np.ndarray  # bool (steps+1,)
    per_area_mahalanobis: dict = field(default_factory=dict)
    per_area_thresholds: dict = field(default_factory=dict)
    crosscheck_rejections: list = field(default_factory=list)
    wall_clock_s: float = 0.0


def _initial_estimate(scenario: Scenario, x_steady, x_nominal):
    return x_steady + scenario.estimate_offset_fraction * x_nominal


def _initial_cov(scenario: Scenario, nominal):
    return np.diag(scenario.p0_scale * nominal**2)


def _bdd(scenario: Scenario) -> BddConfig:
    return BddConfig(alpha=scenario.bdd_alpha, zeta=scenario.bdd_zeta, policy=scenario.bdd_policy)


def _area_bdd(bdd: BddConfig, areas) -> BddConfig:
    """The gate each ddsie area tests at, so that the OR of the areas'
    flags alarms at about ``bdd.alpha`` on quiet data: the Sidak level
    alpha_N = 1 - (1 - alpha)^(1/N) over the N areas that can alarm, those
    with l + p - m >= 1 redundant rows. With N <= 1, or a fixed ``zeta``
    (a threshold, not a level), it is ``bdd`` itself, so a single area
    tests exactly as dsie does.
    """
    alarming = sum(a.model.l + a.model.p - a.model.m >= 1 for a in areas)
    if bdd.zeta is not None or alarming <= 1:
        return bdd
    return dataclasses.replace(bdd, alpha=-math.expm1(math.log1p(-bdd.alpha) / alarming))


def _empty_run(name, steps, n, m) -> MethodRun:
    """Zeroed series of a filter run whose row 0, the initial estimate, is
    never flagged: its threshold is infinite."""
    thresholds = np.zeros(steps + 1)
    thresholds[0] = np.inf
    return MethodRun(
        name,
        np.zeros((steps + 1, n)),
        np.zeros((steps + 1, m)),
        np.zeros(steps + 1),
        thresholds,
        np.zeros(steps + 1, dtype=bool),
    )


def run_dsie(model, z_x, z_u, scenario: Scenario, x0_est, p0) -> MethodRun:
    """Centralized cycle over the run, one loop over the rows.

    Row ``k - 1`` of the rows is (z_u[k-1], z_x[k]), validated once, up
    front. Each step applies the gains of its node (``estimator.dsie_plan``)
    with ``apply_wls`` and ``apply_kalman``, skipping the update of a step
    held under "hold", and goes on to the node its pattern, whether it was
    held, leads to. The outputs are those of one ``dsie_step`` per row
    whose settled steps keep their P_x, bit for bit.
    """
    steps = z_x.shape[0] - 1
    rows = linalg.as_matrix(np.hstack([z_u[:steps], z_x[1:]]), "measurements")
    state = initial_state(model, x0_est, p0, _bdd(scenario))
    hold = state.bdd.policy == "hold"
    run = _empty_run("dsie", steps, model.n, model.m)
    run.x_est[0] = x0_est
    x = state.x_hat
    node = dsie_plan(model, state.p_x, state.bdd)
    for k, row in enumerate(rows, 1):
        wls, kalman = node.gains.wls, node.gains.kalman
        estimate, distance = apply_wls(wls, np.concatenate([x, row]))
        run.mahalanobis[k], run.thresholds[k] = distance, wls.threshold
        run.u_est[k - 1] = estimate[model.n :]
        held = hold and distance >= wls.threshold
        x, p_next = apply_kalman(kalman, model, estimate, row[model.l :], held)
        run.x_est[k] = x
        node = node.step(held, not held, lambda: (p_next,))[0]
    run.flags[1:] = run.mahalanobis[1:] >= run.thresholds[1:]
    run.u_est[steps] = run.u_est[steps - 1] if steps else 0.0
    return run


def run_wls(model, z_x, z_u, scenario: Scenario) -> MethodRun:
    """Snapshot WLS at every step: one set of gains, applied to all rows at once."""
    gains = snapshot_gains(model, _bdd(scenario))
    estimates, mahal = apply_wls(gains, linalg.as_matrix(np.hstack([z_x, z_u]), "measurements"))
    return MethodRun(
        "wls",
        estimates[:, : model.n],
        estimates[:, model.n :],
        mahal,
        np.full(mahal.shape, gains.threshold),
        mahal >= gains.threshold,
    )


def run_tse(model, z_x, z_u, scenario: Scenario, x0_est, u0_est, nominal_stacked) -> MethodRun:
    """Tracking filter over the run, one loop over the rows.

    Row ``k - 1`` of the rows is (z_x[k], z_u[k]), validated once, up
    front. Each step applies the gains of its node (``estimator.tse_plan``)
    with ``apply_tse`` and goes on to the node's one successor. The
    distances' square roots, thresholds and flags are taken at once after
    the loop. The outputs are those of one ``tse_step`` per row whose
    settled steps keep their P, bit for bit.
    """
    steps = z_x.shape[0] - 1
    rows = linalg.as_matrix(np.hstack([z_x[1:], z_u[1 : steps + 1]]), "measurements")
    p0 = _initial_cov(scenario, nominal_stacked)
    q_tse = np.diag((scenario.tse_q_fraction * nominal_stacked) ** 2)
    state = initial_tse_state(model, x0_est, u0_est, p0)
    run = _empty_run("tse", steps, model.n, model.m)
    run.x_est[0] = x0_est
    run.u_est[0] = u0_est
    y = state.y_hat
    estimates = np.empty((steps, y.shape[0]))
    squared = run.mahalanobis[1:]
    node = tse_plan(model, state.p, q_tse)
    for k, z in enumerate(rows):
        y, squared[k] = apply_tse(node.gains, y, z)
        estimates[k] = y
        node = node.step(None, True, lambda: (node.gains.p_next,))[0]
    run.x_est[1:] = estimates[:, : model.n]
    run.u_est[1:] = estimates[:, model.n :]
    np.sqrt(squared, out=squared)
    run.thresholds[1:] = _bdd(scenario).threshold(rows.shape[1])  # one dof per measurement
    run.flags[1:] = squared >= run.thresholds[1:]
    return run


def _rows_by_label(labels, central_labels):
    """Rows of the central stream that carry ``labels``; a label measured
    more than once is matched in order."""
    rows = {}
    for i, label in enumerate(central_labels):
        rows.setdefault(label, []).append(i)
    queues = {label: iter(r) for label, r in rows.items()}
    return [next(queues[label]) for label in labels]


def run_ddsie(scenario, prepared, z_x, z_u, x0_est, p0) -> MethodRun:
    """Distributed run over the areas of ``prepared`` with lockstep rounds.

    Every area reads its own channels out of the run's one measurement
    stream by sensor label (``Prepared.area_index``) and starts from its
    block of ``x0_est``/``p0``. Each area tests at ``_area_bdd``. Each row
    records every area's distance and the threshold it was tested at
    (``inf`` on row 0), and a cross-check's coordinates are walked only
    when it rejected some. The areas' states, distances and thresholds are
    kept per area and gathered into the run's series after the last round.
    """
    steps = z_x.shape[0] - 1
    bdd = _area_bdd(_bdd(scenario), prepared.areas)
    estimators, rows, per_area = [], [], []
    for area, (rows_x, rows_u, cols_x) in zip(prepared.areas, prepared.area_index):
        est = make_area_estimator(
            area, x0_est[cols_x], p0[np.ix_(cols_x, cols_x)], bdd, kappa=scenario.kappa
        )
        estimators.append(est)
        rows.append(zip(z_u[:steps, rows_u], z_x[1:, rows_x]))  # round k reads z_u[k-1], z_x[k]
        # The area's states, distances and thresholds; row 0 is the initial
        # estimate, never flagged.
        xs = np.empty((steps + 1, cols_x.shape[0]))
        xs[0] = est.state.x_hat
        per_area.append((area.area_id, cols_x, xs, np.zeros(steps + 1), np.full(steps + 1, np.inf)))
    ids = [e.area_id for e in estimators]
    ranked = sorted(per_area, key=lambda series: series[0])  # a round walks the areas by id

    if scenario.drop_rate > 0 or scenario.delay_rate > 0:
        transport = LossyTransport(
            scenario.drop_rate,
            scenario.delay_rate,
            seed=rng_for(scenario.seed, "transport").integers(2**31),
        )
    else:
        transport = Transport()

    mahal = np.zeros(steps + 1)
    thresholds = np.zeros(steps + 1)
    thresholds[0] = np.inf
    rejections = []
    for k, measured in enumerate(zip(*rows), 1):
        results = run_round(estimators, dict(zip(ids, measured)), transport)
        # The run-level pair is the one area's whose distance is the largest
        # share of its threshold (0 for a dof-0 area's infinite one), the
        # first such by area id, so mahal >= thresholds is the run's flag.
        worst, worst_share = None, 0.0
        for aid, _, xs, distances, limits in ranked:
            res = results[aid]
            bdd_report = res.bdd
            xs[k] = res.state.x_hat
            distances[k] = bdd_report.distance
            limits[k] = bdd_report.threshold
            share = bdd_report.distance / bdd_report.threshold
            if worst is None or share > worst_share:
                worst, worst_share = bdd_report, share
            for nb, check in res.cross_checks.items():
                if all(check.accept):
                    continue
                for i, ok in enumerate(check.accept):
                    if not ok:
                        rejections.append(
                            {
                                "step": k,
                                "area": aid,
                                "neighbor": nb,
                                "coordinate": check.coordinate_ids[i],
                                "difference": float(check.difference[i]),
                                "threshold": float(check.threshold[i]),
                            }
                        )
        mahal[k], thresholds[k] = worst.distance, worst.threshold

    x_est = np.zeros((steps + 1, prepared.continuous.n))
    flags = np.zeros(steps + 1, dtype=bool)
    for _, cols_x, xs, distances, limits in ranked:  # in the order a round walks them
        x_est[:, cols_x] = xs
        flags |= distances >= limits  # each area's flag, as its report took it
    return MethodRun(
        "ddsie",
        x_est,
        None,
        mahal,
        thresholds,
        flags,
        per_area_mahalanobis={aid: distances for aid, _, _, distances, _ in per_area},
        per_area_thresholds={aid: limits for aid, _, _, _, limits in per_area},
        crosscheck_rejections=rejections,
    )


def _state_labels(ids):
    out = []
    for sid in ids:
        out.extend([f"{sid}:d", f"{sid}:q"])
    return out


def _hash_doc(scenario_doc: dict, network_doc) -> str:
    payload = {"scenario": scenario_doc, "network": network_doc}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def run_scenario(topology: NetworkTopology, scenario: Scenario, network_doc=None) -> dict:
    """Execute a scenario end to end; returns the run report structure.

    The report's ``series`` entry holds the raw time series for CSV
    writing; everything else is JSON-serializable.
    """
    prepared = prepare(topology, scenario)
    rank = prepared.rank
    if not rank.ok:
        raise RuntimeError(
            f"joint rank check failed; unobservable inputs: {rank.unobservable_inputs}"
        )
    truth = simulate_truth(
        prepared.continuous,
        scenario,
        process_std=prepared.process_std if scenario.process_fraction > 0 else None,
    )
    z_x, z_u = generate_measurements(truth, prepared.model, rng_for(scenario.seed, "meas"))
    z_x, z_u = apply_attacks(z_x, z_u, scenario.attacks, prepared.model, truth.times)

    x0_est = _initial_estimate(scenario, prepared.x_steady, prepared.x_nominal)
    p0 = _initial_cov(scenario, prepared.x_nominal)
    nominal_stacked = np.concatenate([prepared.x_nominal, prepared.u_nominal])

    skip = min(scenario.mse_transient_steps, max(scenario.steps - 1, 0))
    state_labels = _state_labels(prepared.model.state_ids)
    input_labels = _state_labels(prepared.model.input_ids)
    windows = [(a.start, a.end) for a in scenario.attacks]

    runs = {}
    methods_report = {}
    for method in scenario.estimators:
        t0 = time.perf_counter()
        if method == "dsie":
            run = run_dsie(prepared.model, z_x, z_u, scenario, x0_est, p0)
        elif method == "wls":
            run = run_wls(prepared.model, z_x, z_u, scenario)
        elif method == "tse":
            run = run_tse(prepared.model, z_x, z_u, scenario, x0_est, prepared.u0, nominal_stacked)
        elif method == "ddsie":
            run = run_ddsie(scenario, prepared, z_x, z_u, x0_est, p0)
        else:
            raise ValueError(f"unknown estimator {method!r}")
        run.wall_clock_s = time.perf_counter() - t0
        runs[method] = run

        state_mse = mse_per_variable(run.x_est, truth.x, state_labels, skip)
        entry = {
            "mse_state": state_mse,
            "mse_state_mean": mean_mse(state_mse),
            "flags": [int(k) for k in np.nonzero(run.flags)[0]],
            "false_alarm_rate": false_alarm_rate(run.flags, windows, truth.times),
            "wall_clock_s": run.wall_clock_s,
        }
        if run.u_est is not None:
            input_mse = mse_per_variable(run.u_est, truth.u, input_labels, skip)
            entry["mse_input"] = input_mse
            entry["mse_input_mean"] = mean_mse(input_mse)
        if run.per_area_mahalanobis:
            area_bdd = _area_bdd(_bdd(scenario), prepared.areas)
            entry["area_alpha"] = None if area_bdd.zeta is not None else area_bdd.alpha
            entry["area_false_alarm_rates"] = {
                aid: false_alarm_rate(series >= run.per_area_thresholds[aid], windows, truth.times)
                for aid, series in sorted(run.per_area_mahalanobis.items())
            }
        if run.crosscheck_rejections:
            entry["crosscheck_rejections"] = run.crosscheck_rejections
        methods_report[method] = entry

    scenario_doc = dataclasses.asdict(scenario)
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": scenario_doc,
        "scenario_hash": _hash_doc(scenario_doc, network_doc),
        "seed": scenario.seed,
        "steps": scenario.steps,
        "methods": methods_report,
    }
    return {
        "report": report,
        "series": {
            "truth": truth,
            "runs": runs,
            "state_labels": state_labels,
            "input_labels": input_labels,
        },
    }


def _csv_field(text) -> str:
    """``text`` as the csv module writes it in the middle of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", text, ""])
    return buf.getvalue()[1:-3]


def _write_long_csv(path, times, blocks):
    """Rows (time, variable, value); ``blocks`` is [(labels, array)].

    Rows run time-major, then block, then label. Each label is quoted once
    per file and each time formatted once per step; a step's rows go out
    in one write, as csv.writer would write them: CRLF ends and ``repr``
    of each value.
    """
    fields = [f"{_csv_field(lab)}," for labels, _ in blocks for lab in labels]
    values = np.hstack([arr for _, arr in blocks]).astype(float, copy=False)
    if values.shape[1] != len(fields):
        raise ValueError(f"{values.shape[1]} value columns for {len(fields)} labels")
    with open(path, "w", newline="") as f:
        f.write("time,variable,value\r\n")
        for t, row in zip(np.asarray(times, dtype=float).tolist(), values.tolist()):
            head = f"{t!r},"
            f.write("".join([f"{head}{lab}{v!r}\r\n" for lab, v in zip(fields, row)]))


def write_outputs(result: dict, outdir) -> None:
    """Write truth.csv, per-method estimate/Mahalanobis CSVs, report.json."""
    os.makedirs(outdir, exist_ok=True)
    series = result["series"]
    truth = series["truth"]
    _write_long_csv(
        os.path.join(outdir, "truth.csv"),
        truth.times,
        [(series["state_labels"], truth.x), (series["input_labels"], truth.u)],
    )
    for name, run in series["runs"].items():
        blocks = [(series["state_labels"], run.x_est)]
        if run.u_est is not None:
            blocks.append((series["input_labels"], run.u_est))
        _write_long_csv(os.path.join(outdir, f"estimates_{name}.csv"), truth.times, blocks)
        mahal_blocks = [(["mahalanobis"], run.mahalanobis[:, None]), (["threshold"], run.thresholds[:, None])]
        for aid, series_a in sorted(run.per_area_mahalanobis.items()):
            mahal_blocks.append(([f"mahalanobis:{aid}"], series_a[:, None]))
            mahal_blocks.append(([f"threshold:{aid}"], run.per_area_thresholds[aid][:, None]))
        _write_long_csv(os.path.join(outdir, f"mahalanobis_{name}.csv"), truth.times, mahal_blocks)
    with open(os.path.join(outdir, "report.json"), "w") as f:
        json.dump(result["report"], f, indent=2, sort_keys=True)
        f.write("\n")
