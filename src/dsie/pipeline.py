"""Scenario execution: truth, measurements, attacks, estimators, reports.

This is the library core behind the ``run`` CLI subcommand; everything is
a pure function of (network, scenario, seed) so repeated runs are
byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .distributed import LossyTransport, Transport, make_area_estimator, run_round
from .errors import SingularAtSteadyState
from .estimator import (
    BddConfig,
    apply_wls,
    dsie_step,
    initial_state,
    initial_tse_state,
    snapshot_gains,
    tse_step,
)
from .metrics import false_alarm_rate, mean_mse, mse_per_variable
from .model import (
    ContinuousModel,
    DiscreteModel,
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
    """Scenario-resolved model set: nominals, noise levels, matrices."""

    continuous: ContinuousModel
    model: DiscreteModel
    x_nominal: np.ndarray
    u_nominal: np.ndarray
    process_std: np.ndarray
    x_steady: np.ndarray
    u0: np.ndarray
    measurement_std_override: dict | None


def prepare(topology: NetworkTopology, scenario: Scenario) -> Prepared:
    continuous = build_continuous(topology)
    u = input_trajectory(continuous, scenario)
    u0 = u[0]
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
    return Prepared(
        continuous=continuous,
        model=model,
        x_nominal=x_nominal,
        u_nominal=u_nominal,
        process_std=process_std,
        x_steady=x_steady,
        u0=u0,
        measurement_std_override=override,
    )


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
    crosscheck_rejections: list = field(default_factory=list)
    wall_clock_s: float = 0.0


def _initial_estimate(scenario: Scenario, x_steady, x_nominal):
    return x_steady + scenario.estimate_offset_fraction * x_nominal


def _initial_cov(scenario: Scenario, nominal):
    return np.diag(scenario.p0_scale * nominal**2)


def run_dsie(model, z_x, z_u, scenario: Scenario, x0_est, p0) -> MethodRun:
    """Centralized cycle over the run; the filter state reuses its gains once P_x settles."""
    steps = z_x.shape[0] - 1
    bdd = BddConfig(alpha=scenario.bdd_alpha, zeta=scenario.bdd_zeta, policy=scenario.bdd_policy)
    state = initial_state(model, x0_est, p0, bdd)
    x_est = np.zeros((steps + 1, model.n))
    u_est = np.zeros((steps + 1, model.m))
    mahal = np.zeros(steps + 1)
    thresholds = np.zeros(steps + 1)
    flags = np.zeros(steps + 1, dtype=bool)
    x_est[0] = x0_est
    for k in range(1, steps + 1):
        state, joint, report = dsie_step(state, z_u[k - 1], z_x[k])
        x_est[k] = state.x_hat
        u_est[k - 1] = joint.u_hat
        mahal[k] = report.distance
        thresholds[k] = report.threshold
        flags[k] = report.flagged
    u_est[steps] = u_est[steps - 1] if steps else 0.0
    return MethodRun("dsie", x_est, u_est, mahal, thresholds, flags)


def run_wls(model, z_x, z_u, scenario: Scenario) -> MethodRun:
    """Snapshot WLS at every step: one set of gains, applied to all rows at once."""
    bdd = BddConfig(alpha=scenario.bdd_alpha, zeta=scenario.bdd_zeta)
    gains = snapshot_gains(model, bdd)
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
    """Tracking filter over the run; its state carries its gains once P settles."""
    steps = z_x.shape[0] - 1
    bdd = BddConfig(alpha=scenario.bdd_alpha, zeta=scenario.bdd_zeta)
    p0 = np.diag(scenario.p0_scale * nominal_stacked**2)
    q_tse = np.diag((scenario.tse_q_fraction * nominal_stacked) ** 2)
    state = initial_tse_state(model, x0_est, u0_est, p0)
    x_est = np.zeros((steps + 1, model.n))
    u_est = np.zeros((steps + 1, model.m))
    mahal = np.zeros(steps + 1)
    thresholds = np.zeros(steps + 1)
    flags = np.zeros(steps + 1, dtype=bool)
    x_est[0] = x0_est
    u_est[0] = u0_est
    for k in range(1, steps + 1):
        state, report = tse_step(state, z_x[k], z_u[k], model, q_tse, bdd)
        x_est[k] = state.x_part(model)
        u_est[k] = state.u_part(model)
        mahal[k] = report.distance
        thresholds[k] = report.threshold
        flags[k] = report.flagged
    return MethodRun("tse", x_est, u_est, mahal, thresholds, flags)


def _rows_by_label(labels, central_labels):
    """Rows of the central stream that carry ``labels``; a label measured
    more than once is matched in order."""
    rows = {}
    for i, label in enumerate(central_labels):
        rows.setdefault(label, []).append(i)
    queues = {label: iter(r) for label, r in rows.items()}
    return [next(queues[label]) for label in labels]


def run_ddsie(topology, scenario, prepared, z_x, z_u, x0_est, p0) -> MethodRun:
    """Distributed run over the declared areas with lockstep rounds.

    Every area reads its own channels out of the run's one measurement
    stream by sensor label and starts from its block of ``x0_est``/``p0``.
    """
    steps = z_x.shape[0] - 1
    areas = partition(
        topology,
        scenario.t_s,
        process_noise_std=prepared.process_std,
        measurement_std_override=prepared.measurement_std_override,
    )
    bdd = BddConfig(alpha=scenario.bdd_alpha, zeta=scenario.bdd_zeta, policy=scenario.bdd_policy)
    state_index = prepared.continuous.state_index
    streams = {}
    estimators = []
    for area in areas:
        cols_x = [i for sid in area.model.state_ids for i in state_index[sid]]
        rows_x = _rows_by_label(area.model.z_x_labels, prepared.model.z_x_labels)
        rows_u = _rows_by_label(area.model.z_u_labels, prepared.model.z_u_labels)
        streams[area.area_id] = (z_x[:, rows_x], z_u[:, rows_u], cols_x)
        estimators.append(
            make_area_estimator(
                area, x0_est[cols_x], p0[np.ix_(cols_x, cols_x)], bdd, kappa=scenario.kappa
            )
        )

    if scenario.drop_rate > 0 or scenario.delay_rate > 0:
        transport = LossyTransport(
            scenario.drop_rate,
            scenario.delay_rate,
            seed=rng_for(scenario.seed, "transport").integers(2**31),
        )
    else:
        transport = Transport()

    x_est = np.zeros((steps + 1, prepared.continuous.n))
    mahal = np.zeros(steps + 1)
    thresholds = np.zeros(steps + 1)
    flags = np.zeros(steps + 1, dtype=bool)
    per_area = {e.area_id: np.zeros(steps + 1) for e in estimators}
    rejections = []
    for e in estimators:
        _, _, cols_x = streams[e.area_id]
        x_est[0, cols_x] = e.state.x_hat
    for k in range(1, steps + 1):
        meas = {
            aid: (streams[aid][1][k - 1], streams[aid][0][k]) for aid in streams
        }
        results = run_round(estimators, meas, transport)
        dists = []
        thr = []
        for aid, res in sorted(results.items()):
            _, _, cols_x = streams[aid]
            x_est[k, cols_x] = res.state.x_hat
            per_area[aid][k] = res.bdd.distance
            dists.append(res.bdd.distance)
            thr.append(res.bdd.threshold)
            flags[k] |= res.bdd.flagged
            for nb, check in res.cross_checks.items():
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
        mahal[k] = max(dists)
        thresholds[k] = max(thr)
    return MethodRun(
        "ddsie",
        x_est,
        None,
        mahal,
        thresholds,
        flags,
        per_area_mahalanobis=per_area,
        crosscheck_rejections=rejections,
    )


def _state_labels(ids):
    out = []
    for sid in ids:
        out.extend([f"{sid}:d", f"{sid}:q"])
    return out


def scenario_hash(scenario: Scenario, network_doc=None) -> str:
    payload = {"scenario": dataclasses.asdict(scenario), "network": network_doc}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def run_scenario(topology: NetworkTopology, scenario: Scenario, network_doc=None) -> dict:
    """Execute a scenario end to end; returns the run report structure.

    The report's ``series`` entry holds the raw time series for CSV
    writing; everything else is JSON-serializable.
    """
    prepared = prepare(topology, scenario)
    rank = check_joint_rank(prepared.model)
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
            run = run_ddsie(topology, scenario, prepared, z_x, z_u, x0_est, p0)
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
        if run.crosscheck_rejections:
            entry["crosscheck_rejections"] = run.crosscheck_rejections
        methods_report[method] = entry

    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "scenario": dataclasses.asdict(scenario),
        "scenario_hash": scenario_hash(scenario, network_doc),
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


def _write_long_csv(path, times, blocks):
    """Rows (time, variable, value); ``blocks`` is [(labels, array)]."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["time", "variable", "value"])
        for k, t in enumerate(times):
            for labels, arr in blocks:
                for j, lab in enumerate(labels):
                    writer.writerow([repr(float(t)), lab, repr(float(arr[k, j]))])


def write_outputs(result: dict, outdir) -> None:
    """Write truth.csv, per-method estimate/Mahalanobis CSVs, report.json."""
    import os

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
        _write_long_csv(os.path.join(outdir, f"mahalanobis_{name}.csv"), truth.times, mahal_blocks)
    with open(os.path.join(outdir, "report.json"), "w") as f:
        json.dump(result["report"], f, indent=2, sort_keys=True)
        f.write("\n")
