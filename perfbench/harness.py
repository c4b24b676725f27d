"""Run one workload, check its outputs and report its metrics.

Untraced (``--trace 0``): set up the workload from its file paths, warm
up, run the known-failure probes, then run rounds of operations one at a
time until ``--seconds`` have passed (at least one whole round), sampling
set-up time along the way, and check the outputs. Traced (``--trace 1``):
run round 0 untraced, then set up once and run round 0 again with every
layer wrapped, so per-layer counts repeat exactly for a seed and the traced
and untraced step times of the same operations give the tracing overhead.

The package is reached only through its public functions, looked up on
their modules at call time so that tracing sees them.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from dsie import model, network, pipeline, sim

from . import envinfo, tracing
from .workloads import METHODS, WORKLOADS, Operation, Workload, round_operations, round_seeds, scenario_doc

# Set-up is timed SETUP_BATCH times in a row at the end of every group of
# SETUP_AFTER operations. dsie and ddsie leave the BLAS worker threads
# spinning for a while, so a set-up timed just after them competes with
# those threads; after a group of the cheap tse operations the pools are as
# idle as at process start. setup_s is the median over the single set-ups:
# with default BLAS threading most take the fast path, and a minority pay
# thread wake-ups that can cost several times as much.
SETUP_AFTER = "tse"
SETUP_BATCH = 5
WARMUP_DURATION = 0.02  # seconds of scenario time per method before timing
MAX_ROUNDS = 10_000
MSE_UNIT = "V2-or-A2"  # mean over variables of squared volts or amperes


@dataclass(frozen=True)
class Loaded:
    topology: object
    network_doc: dict
    scenario: object


@dataclass
class OpResult:
    op: Operation
    wall_s: float
    steps: int
    error: tuple[str, str] | None = None
    mse_state: float | None = None
    mse_input: float | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def step_ms(self) -> float:
        return self.wall_s * 1e3 / self.steps


@dataclass
class Paths:
    root: Path
    out: Path
    work: Path

    @property
    def networks(self) -> Path:
        return self.root / "src" / "dsie" / "data" / "networks"

    @property
    def scenarios(self) -> Path:
        return self.root / "src" / "dsie" / "data" / "scenarios"


def write_scenarios(workload: Workload, paths: Paths) -> dict[str, Path]:
    out = {}
    for spec in workload.scenarios:
        path = paths.work / f"{spec.key}.json"
        with open(path, "w") as f:
            json.dump(scenario_doc(spec, paths.scenarios), f, indent=2)
        out[spec.key] = path
    return out


def set_up(workload: Workload, scenario_paths: dict, paths: Paths) -> dict[str, Loaded]:
    """File paths to ready models: load and validate, prepare, check rank, partition."""
    loaded = {}
    for key, path in scenario_paths.items():
        scenario = sim.load_scenario(path)
        net_path = paths.networks / f"{scenario.network}.json"
        topology = network.load_network(net_path)
        with open(net_path) as f:
            network_doc = json.load(f)
        prepared = pipeline.prepare(topology, scenario)
        rank = model.check_joint_rank(prepared.model)
        if not rank.ok:
            raise RuntimeError(f"{key}: joint rank check failed: {rank.unobservable_inputs}")
        if any(k == key and m == "ddsie" for k, m in workload.pairs):
            model.partition(topology, scenario.t_s)
        loaded[key] = Loaded(topology, network_doc, scenario)
    return loaded


def run_operation(loaded: Loaded, op: Operation, outdir: Path | None = None) -> OpResult:
    """One ``run_scenario`` call, followed by ``write_outputs`` when ``outdir`` is set.

    An exception or a non-finite estimate is a failed operation; it is
    recorded, not retried.
    """
    scenario = dataclasses.replace(loaded.scenario, seed=op.seed, estimators=(op.method,))
    t0 = time.perf_counter()
    try:
        result = pipeline.run_scenario(loaded.topology, scenario, loaded.network_doc)
        if outdir is not None:
            pipeline.write_outputs(result, str(outdir))
    except Exception as exc:  # noqa: BLE001  -- counted as a failed operation
        return OpResult(op, time.perf_counter() - t0, scenario.steps, (type(exc).__name__, str(exc)))
    wall = time.perf_counter() - t0
    run = result["series"]["runs"][op.method]
    estimates = [run.x_est] + ([run.u_est] if run.u_est is not None else [])
    if not all(np.all(np.isfinite(e)) for e in estimates):
        return OpResult(op, wall, scenario.steps, ("NonFiniteEstimate", "estimates hold NaN or Inf"))
    entry = result["report"]["methods"][op.method]
    return OpResult(
        op, wall, scenario.steps, None, entry["mse_state_mean"], entry.get("mse_input_mean")
    )


class Runner:
    """Runs operations of one workload and keeps their file checks."""

    def __init__(self, workload: Workload, loaded: dict[str, Loaded], paths: Paths):
        self.workload = workload
        self.loaded = loaded
        self.paths = paths
        self.missing_files: list[str] = []
        self._count = 0

    def run(self, op: Operation) -> OpResult:
        outdir = None
        if self.workload.writes:
            self._count += 1
            outdir = self.paths.work / f"op{self._count:05d}"
        res = run_operation(self.loaded[op.scenario], op, outdir)
        if outdir is not None:
            if res.ok:
                m = op.method
                expected = ("truth.csv", f"estimates_{m}.csv", f"mahalanobis_{m}.csv", "report.json")
                self.missing_files += [
                    f"{op.label}: {name}" for name in expected if not (outdir / name).is_file()
                ]
            shutil.rmtree(outdir, ignore_errors=True)
        return res

    def warm_up(self) -> None:
        """Run each method once on a short horizon, so lazy imports and caches fill."""
        for key, method in self.workload.pairs:
            base = self.loaded[key]
            short = dataclasses.replace(
                base.scenario, duration=WARMUP_DURATION, load_events=(), attacks=()
            )
            run_operation(dataclasses.replace(base, scenario=short), Operation(key, method, 0))

    def reproducible(self, seed: int) -> tuple[bool, str]:
        """Run the check operation twice with one seed; its CSVs must match byte for byte."""
        key, method = self.workload.check_pair
        op = Operation(key, method, seed)
        dirs = [self.paths.work / "check_a", self.paths.work / "check_b"]
        try:
            for d in dirs:
                res = run_operation(self.loaded[key], op, d)
                if not res.ok:
                    return False, f"{op.label} failed: {res.error}"
            names = sorted(p.name for p in dirs[0].iterdir() if p.suffix == ".csv")
            differ = [n for n in names if (dirs[0] / n).read_bytes() != (dirs[1] / n).read_bytes()]
            if len(names) < 3 or differ:
                return False, f"{op.label}: csv files {names}, differing {differ}"
            return True, f"{op.label}: {len(names)} csv files identical"
        finally:
            for d in dirs:
                shutil.rmtree(d, ignore_errors=True)


def criterion5(results: list[OpResult], workload: Workload) -> tuple[bool, str] | None:
    """Accuracy ordering over the seeds all three ran: dsie <= 1.3 wls, tse >= 2 dsie."""
    if workload.ordering_scenario is None:
        return None
    mse: dict[str, dict[int, float]] = {"dsie": {}, "wls": {}, "tse": {}}
    for r in results:
        if r.ok and r.op.scenario == workload.ordering_scenario and r.op.method in mse:
            mse[r.op.method][r.op.seed] = r.mse_state
    seeds = set.intersection(*(set(v) for v in mse.values()))
    if not seeds:
        return False, "no seed ran dsie, wls and tse"
    means = {m: float(np.mean([v[s] for s in seeds])) for m, v in mse.items()}
    ok = means["dsie"] <= 1.3 * means["wls"] and means["tse"] >= 2.0 * means["dsie"]
    return ok, f"mean mse_state over {len(seeds)} seeds: {means}"


def failure_record(res: OpResult, probe: bool) -> dict:
    return {"op": res.op.label, "probe": probe, "error_class": res.error[0], "message": res.error[1]}


# End-to-end metrics (tracing off) and their units.
END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    **{f"step_ms.{m}": "ms/step" for m in METHODS},
    "peak_rss_mb": "MiB",
    **{f"mse_state.{m}": MSE_UNIT for m in METHODS},
    "mse_input.dsie": MSE_UNIT,
}

# Span names reported as inclusive time, as self time and calls, as self
# time only, and as percentiles of single-call durations.
TOTAL_MS = (
    "network.load_network",
    "model.build_continuous",
    "model.build_discrete",
    "model.check_joint_rank",
    "model.partition",
    "linalg.discretize_zoh",
    "sim.simulate_truth",
    "sim.generate_measurements",
    "sim.apply_attacks",
    "pipeline.prepare",
    "pipeline.run_dsie",
    "pipeline.run_wls",
    "pipeline.run_tse",
    "pipeline.run_ddsie",
    "pipeline.write_outputs",
)
SELF_AND_CALLS = (
    "estimator.estimate_input",
    "estimator.detect_bad_data",
    "estimator.predict",
    "estimator.update",
    "estimator.wls_snapshot",
    "estimator.tse_step",
    "linalg.wls_solve",
    "linalg.mahalanobis",
    "linalg.clamp_eigenvalues",
    "linalg.symmetrize_psd",
)
SELF_ONLY = (
    "distributed.local_phase",
    "distributed.cross_check",
    "distributed.fuse",
    "distributed.finalize_phase",
    "distributed.Transport.deliver",
)
PERCENTILES = ("estimator.dsie_step", "distributed.run_round")
COUNTERS = {
    "estimator.bdd_threshold_calls": "count",
    "estimator.bdd_alarms": "count",
    "estimator.bdd_diagonal_fallbacks": "count",
    "linalg.symmetrize_psd.repairs": "count",
    "distributed.msgs_sent": "count",
    "distributed.msgs_delivered": "count",
    "distributed.msgs_dropped": "count",
    "distributed.msgs_delayed": "count",
    "distributed.msgs_stale": "count",
    "pipeline.bytes_written": "bytes",
}

# Per-layer metrics (traced run) and their units.
PER_LAYER = {
    **{f"{n}.ms": "ms" for n in TOTAL_MS},
    **{f"{n}.{k}": u for n in SELF_AND_CALLS for k, u in (("self_ms", "ms"), ("calls", "count"))},
    **{f"{n}.self_ms": "ms" for n in SELF_ONLY},
    **{f"{n}.{q}_ms": "ms" for n in PERCENTILES for q in ("p50", "p99")},
    **COUNTERS,
    "distributed.crosscheck_accept_ratio": "ratio",
    **{f"trace.overhead_ms_per_step.{m}": "ms/step" for m in METHODS},
    "trace.spans": "count",
}


class Metrics(dict):
    """name -> {"value", "unit", "samples"}, units taken from one table."""

    def __init__(self, units: dict):
        super().__init__()
        self.units = units

    def put(self, name: str, value, samples: int) -> None:
        self[name] = {"value": float(value), "unit": self.units[name], "samples": int(samples)}

    def missing(self) -> list[str]:
        return [n for n in self.units if n not in self]


def end_to_end_metrics(results, whole_rounds, setup_samples, workload: Workload) -> Metrics:
    """``whole_rounds`` is the prefix of ``results`` that makes up complete
    rounds; throughput is taken over it so that every run weighs the
    methods alike."""
    metrics = Metrics(END_TO_END)
    ok = [r for r in results if r.ok]
    metrics.put("setup_s", statistics.median(setup_samples), len(setup_samples))
    steps = sum(r.steps for r in whole_rounds if r.ok)
    metrics.put("steps_per_s", steps / sum(r.wall_s for r in whole_rounds), len(whole_rounds))
    for m in METHODS:
        times = [r.step_ms for r in ok if r.op.method == m]
        if times:
            metrics.put(f"step_ms.{m}", statistics.median(times), len(times))
    metrics.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    acc = [r for r in ok if r.op.scenario == workload.mse_scenario]
    for m in METHODS:
        vals = [r.mse_state for r in acc if r.op.method == m]
        if vals:
            metrics.put(f"mse_state.{m}", statistics.median(vals), len(vals))
    vals = [r.mse_input for r in acc if r.op.method == "dsie"]
    if vals:
        metrics.put("mse_input.dsie", statistics.median(vals), len(vals))
    return metrics


def layer_metrics(rec: tracing.Recorder, traced, untraced) -> Metrics:
    """Per-layer metrics from the recorded spans and counters.

    ``traced`` and ``untraced`` are the results of the same operations run
    with and without tracing; their step-time difference is the overhead.
    """
    stats = tracing.layer_stats(rec.spans)
    empty = tracing.LayerStats(0, 0.0, 0.0, np.zeros(0))
    metrics = Metrics(PER_LAYER)
    for name in TOTAL_MS:
        s = stats.get(name, empty)
        metrics.put(f"{name}.ms", s.total_ms, s.calls)
    for name in SELF_AND_CALLS:
        s = stats.get(name, empty)
        metrics.put(f"{name}.self_ms", s.self_ms, s.calls)
        metrics.put(f"{name}.calls", s.calls, s.calls)
    for name in SELF_ONLY:
        s = stats.get(name, empty)
        metrics.put(f"{name}.self_ms", s.self_ms, s.calls)
    for name in PERCENTILES:
        d = stats.get(name, empty).durations_ms
        for q in (50, 99):
            metrics.put(f"{name}.p{q}_ms", np.percentile(d, q) if d.size else 0.0, d.size)
    counters = dict(rec.counters)
    # Sent but never delivered: dropped, or still held when the run ended.
    counters["distributed.msgs_dropped"] = counters.get("distributed.msgs_sent", 0) - counters.get(
        "distributed.msgs_delivered", 0
    )
    for name in COUNTERS:
        metrics.put(name, counters.get(name, 0), 1)
    checked = counters.get("distributed.crosscheck_checked", 0)
    accepted = counters.get("distributed.crosscheck_accepted", 0)
    metrics.put("distributed.crosscheck_accept_ratio", accepted / checked if checked else 0.0, checked)
    for m in METHODS:
        pairs = [(t, u) for t, u in zip(traced, untraced) if t.ok and u.ok and t.op.method == m]
        if pairs:
            metrics.put(
                f"trace.overhead_ms_per_step.{m}",
                statistics.median(t.step_ms for t, _ in pairs)
                - statistics.median(u.step_ms for _, u in pairs),
                len(pairs),
            )
    metrics.put("trace.spans", len(rec.spans), 1)
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    workload = WORKLOADS[workload_name]
    out = root / ".perfbench_out"
    paths = Paths(root, out, out / f"work-{workload.name}-{seed}")
    shutil.rmtree(paths.work, ignore_errors=True)
    paths.work.mkdir(parents=True)
    try:
        return _run(workload, seed, seconds, trace, paths)
    finally:
        shutil.rmtree(paths.work, ignore_errors=True)


def _run(workload: Workload, seed: int, seconds: float, trace: bool, paths: Paths) -> int:
    env = envinfo.environment(paths.root)
    scenario_paths = write_scenarios(workload, paths)
    seeds = round_seeds(workload, seed, MAX_ROUNDS)
    setup_samples: list[float] = []

    def timed_set_up():
        for _ in range(SETUP_BATCH):
            t0 = time.perf_counter()
            set_up(workload, scenario_paths, paths)
            setup_samples.append(time.perf_counter() - t0)

    loaded = set_up(workload, scenario_paths, paths)
    runner = Runner(workload, loaded, paths)
    runner.warm_up()
    probes = [run_operation(loaded[k], Operation(k, m, seeds[0])) for k, m in workload.probes]

    if trace:
        untraced = [runner.run(op) for op in round_operations(workload, seeds[0])]
        rec = tracing.Recorder()
        with tracing.Installation(rec):
            rec.op = "setup"
            with rec.span("setup"):
                runner.loaded = set_up(workload, scenario_paths, paths)
            results = []
            for op in round_operations(workload, seeds[0]):
                rec.op = op.label
                with rec.span("operation"):
                    results.append(runner.run(op))
            rec.op = "check"
            repro = runner.reproducible(seeds[0])
        metrics = layer_metrics(rec, results, untraced)
        counted = untraced + results
    else:
        results = []
        done = 0  # operations in whole rounds
        start = time.perf_counter()
        prev = None
        for r, round_seed in enumerate(seeds):
            ops = round_operations(workload, round_seed)
            for op in ops:
                if r > 0 and time.perf_counter() - start >= seconds:
                    break
                if prev == SETUP_AFTER and op.method != SETUP_AFTER:
                    timed_set_up()
                results.append(runner.run(op))
                prev = op.method
            if len(results) - done < len(ops):
                break
            done = len(results)
        metrics = end_to_end_metrics(results, results[:done], setup_samples, workload)
        repro = runner.reproducible(seeds[0])
        counted = results

    failed = [r for r in counted if not r.ok]
    checks = _checks(workload, runner, results, metrics, repro, failed, len(counted))
    ops_failed = [failure_record(r, probe=False) for r in failed]
    ops_failed += [failure_record(r, probe=True) for r in probes if not r.ok]
    correct = all(c["ok"] for c in checks.values())
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "metrics": metrics,
        "checks": checks,
        "attempted": len(counted),
        "failed": len(failed),
        "setup_samples_s": setup_samples,
        "probes": [{"op": r.op.label, "ok": r.ok} for r in probes],
        "ops_failed_frac": len(ops_failed) / (len(counted) + len(probes)),
        "ops_failed": ops_failed,
        "operations": [
            {"op": r.op.label, "wall_s": r.wall_s, "steps": r.steps, "ok": r.ok} for r in counted
        ],
    }
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    with open(paths.out / f"{stem}.json", "w") as f:
        json.dump(report, f, indent=2)
    if trace:
        tracing.write_spans(rec.spans, paths.out / f"{stem}-spans.json.gz")

    _print_report(report)
    result = {
        "correct": correct,
        "attempted": len(counted),
        "failed": len(failed),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _checks(workload, runner, results, metrics, repro, failed, attempted) -> dict:
    def check(ok, detail):
        return {"ok": bool(ok), "detail": detail}

    checks = {"reproducible_csv": check(*repro)}
    c5 = criterion5(results, workload)
    if c5 is not None:
        checks["criterion5_ordering"] = check(*c5)
    if workload.writes:
        missing = runner.missing_files
        checks["expected_files"] = check(not missing, f"missing: {missing}" if missing else "all present")
    missing = metrics.missing()
    checks["metrics_complete"] = check(not missing, f"missing: {missing}" if missing else "all reported")
    checks["all_operations_ok"] = check(not failed, f"{len(failed)} of {attempted} operations failed")
    return checks


def _print_report(report: dict) -> None:
    env = report["environment"]
    pools = ", ".join(f"{k}={v['threads']}" for k, v in env["blas_pools"].items())
    print(f"# perfbench {report['workload']} seed={report['seed']} trace={report['trace']}")
    print(
        f"# env: blas threads {pools}; nproc={env['nproc']}; python {env['python']}; "
        f"numpy {env['numpy']}; scipy {env['scipy']}; git {env['git_sha']}; "
        f"threading env {env['threading_env'] or 'none'}"
    )
    for name, m in report["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']:10s} n={m['samples']}")
    print(
        f"{'ops_failed_frac':48s} {report['ops_failed_frac']:>16.6g} {'fraction':10s} "
        f"n={report['attempted'] + len(report['probes'])} (includes known-failure probes)"
    )
    for f in report["ops_failed"]:
        kind = "known-failure probe" if f["probe"] else "operation"
        print(f"#   failed {kind} {f['op']}: {f['error_class']}: {f['message']}")
    for name, c in report["checks"].items():
        print(f"# check {name}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
