"""Batch front-end: validate inputs, run scenarios, compare run reports.

Exit codes: 0 ok, 2 validation failure, 3 runtime estimation failure,
4 I/O failure. Log level comes from the DSIE_LOG_LEVEL environment
variable only.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from importlib import resources

import numpy as np

from .errors import DsieError, InputFileError
from .metrics import detection_latency_steps
from .model import build_discrete, check_joint_rank, partition
from .network import load_network
from .pipeline import run_scenario, write_outputs
from .sim import load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

log = logging.getLogger("dsie")


def _setup_logging():
    level = os.environ.get("DSIE_LOG_LEVEL", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


def resolve_network(ref: str, base_dir: str | None = None) -> str:
    """Resolve a scenario's network reference: a path, or a bundled name."""
    candidates = [ref]
    if base_dir:
        candidates.append(os.path.join(base_dir, ref))
    for cand in candidates:
        if os.path.isfile(cand):
            return cand
    bundled = resources.files("dsie").joinpath("data", "networks", f"{ref}.json")
    if bundled.is_file():
        return str(bundled)
    raise FileNotFoundError(f"network {ref!r} not found as a file or bundled network")


def _validate(network_path, scenario_path) -> dict:
    problems = []
    topology = None
    scenario = None
    try:
        topology = load_network(network_path)
    except InputFileError as exc:
        problems.extend(f"network: {p}" for p in exc.problems)
    if scenario_path:
        try:
            scenario = load_scenario(scenario_path)
        except InputFileError as exc:
            problems.extend(f"scenario: {p}" for p in exc.problems)
    if topology is not None:
        t_s = scenario.t_s if scenario else 1e-3
        try:
            model = build_discrete(topology, t_s)
            rank = check_joint_rank(model)
            if not rank.ok:
                problems.append(
                    "network: joint design rank deficient "
                    f"(deficiency {rank.deficiency}); unobservable inputs: "
                    f"{list(rank.unobservable_inputs)}"
                )
        except DsieError as exc:
            problems.append(f"network: {exc}")
        if topology.areas:
            try:
                for area in partition(topology, t_s):
                    rank = check_joint_rank(area.model)
                    if not rank.ok:
                        problems.append(
                            f"network: area {area.area_id!r} rank deficient; "
                            f"unobservable inputs: {list(rank.unobservable_inputs)}"
                        )
            except DsieError as exc:
                problems.append(f"network areas: {exc}")
    if scenario is not None and topology is not None:
        from .model import state_and_input_ids

        try:
            _, input_ids = state_and_input_ids(topology)
            for key in scenario.initial_inputs:
                if key not in input_ids:
                    problems.append(f"scenario: initial_inputs names unknown input {key!r}")
            for i, ev in enumerate(scenario.load_events):
                if ev.input_id not in input_ids:
                    problems.append(
                        f"scenario: load_events[{i}] names unknown input {ev.input_id!r}"
                    )
        except DsieError as exc:
            problems.append(f"network: {exc}")
    return {"ok": not problems, "problems": problems}


def cmd_validate(args) -> int:
    try:
        network_path = args.network
        if network_path is None:
            if args.scenario is None:
                print("validate needs --network and/or --scenario", file=sys.stderr)
                return EXIT_VALIDATION
            scenario = load_scenario(args.scenario)
            network_path = resolve_network(
                scenario.network, os.path.dirname(os.path.abspath(args.scenario))
            )
        diag = _validate(network_path, args.scenario)
    except InputFileError as exc:
        print(json.dumps({"ok": False, "problems": exc.problems}, indent=2))
        return EXIT_VALIDATION
    except FileNotFoundError as exc:
        print(json.dumps({"ok": False, "problems": [str(exc)]}, indent=2))
        return EXIT_IO
    print(json.dumps(diag, indent=2))
    return EXIT_OK if diag["ok"] else EXIT_VALIDATION


def _run_one(scenario, topology, network_doc, outdir) -> dict:
    result = run_scenario(topology, scenario, network_doc)
    write_outputs(result, outdir)
    return result["report"]


def _replicate_worker(payload):
    scenario_path, network_path, seed, outdir, methods = payload
    scenario = load_scenario(scenario_path)
    if methods:
        scenario = replace(scenario, estimators=tuple(methods))
    scenario = replace(scenario, seed=seed)
    topology = load_network(network_path)
    with open(network_path) as f:
        network_doc = json.load(f)
    return _run_one(scenario, topology, network_doc, outdir)


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        network_path = args.network or resolve_network(
            scenario.network, os.path.dirname(os.path.abspath(args.scenario))
        )
        diag = _validate(network_path, args.scenario)
    except (InputFileError, FileNotFoundError) as exc:
        _print_problems(exc)
        return EXIT_VALIDATION if isinstance(exc, InputFileError) else EXIT_IO
    if not diag["ok"]:
        print(json.dumps(diag, indent=2))
        return EXIT_VALIDATION

    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.method:
        scenario = replace(scenario, estimators=tuple(args.method))
    try:
        if args.replicates and args.replicates > 1:
            seeds = [
                int(s.generate_state(1)[0] % 2**31)
                for s in np.random.SeedSequence(scenario.seed).spawn(args.replicates)
            ]
            payloads = [
                (
                    args.scenario,
                    network_path,
                    seeds[i],
                    os.path.join(args.out, f"rep{i:03d}"),
                    list(scenario.estimators),
                )
                for i in range(args.replicates)
            ]
            workers = min(args.replicates, os.cpu_count() or 1)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                reports = list(pool.map(_replicate_worker, payloads))
            summary = {
                "replicates": args.replicates,
                "seeds": seeds,
                "scenario_hash": reports[0]["scenario_hash"] if reports else None,
            }
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "replicates.json"), "w") as f:
                json.dump(summary, f, indent=2, sort_keys=True)
                f.write("\n")
        else:
            topology = load_network(network_path)
            with open(network_path) as f:
                network_doc = json.load(f)
            _run_one(scenario, topology, network_doc, args.out)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DsieError, RuntimeError, ValueError, KeyError) as exc:
        print(f"estimation failed for scenario {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _print_problems(exc):
    if isinstance(exc, InputFileError):
        print(json.dumps({"ok": False, "problems": exc.problems}, indent=2))
    else:
        print(str(exc), file=sys.stderr)


def _detection_stats(report: dict, method: str) -> dict:
    entry = report["methods"][method]
    scenario = report["scenario"]
    t_s = scenario["t_s"]
    flagged = entry.get("flags", [])
    flags = np.zeros(max(flagged, default=-1) + 1, dtype=bool)
    flags[flagged] = True
    latencies = [
        detection_latency_steps(flags, int(round(attack["start"] / t_s)))
        for attack in scenario.get("attacks", [])
    ]
    return {
        "false_alarm_rate": entry.get("false_alarm_rate", 0.0),
        "detection_latency_steps": latencies,
    }


def cmd_compare(args) -> int:
    reports = []
    for d in args.dirs:
        path = os.path.join(d, "report.json")
        try:
            with open(path) as f:
                reports.append((d, json.load(f)))
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
    hashes = {r["scenario_hash"] for _, r in reports}
    if len(hashes) > 1:
        print("incompatible runs: reports come from different scenarios", file=sys.stderr)
        return EXIT_RUNTIME
    first_dir, first = reports[0]
    baseline_method = next(iter(first["methods"]))
    baseline = first["methods"][baseline_method]["mse_state_mean"]
    rows = []
    for d, rep in reports:
        for method, entry in rep["methods"].items():
            stats = _detection_stats(rep, method)
            rows.append(
                {
                    "dir": d,
                    "method": method,
                    "mse_state_mean": entry["mse_state_mean"],
                    "mse_ratio": entry["mse_state_mean"] / baseline if baseline else float("nan"),
                    **stats,
                }
            )
    summary = {
        "baseline": {"dir": first_dir, "method": baseline_method, "mse_state_mean": baseline},
        "rows": rows,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsie",
        description="Microgrid dynamic state and input estimation: validate, simulate, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate network and scenario files")
    v.add_argument("--network", help="network file; defaults to the scenario's reference")
    v.add_argument("--scenario")
    v.set_defaults(func=cmd_validate)

    r = sub.add_parser("run", help="run a scenario and write CSV/JSON results")
    r.add_argument("--scenario", required=True)
    r.add_argument("--network", help="override the scenario's network reference")
    r.add_argument("--out", required=True)
    r.add_argument("--seed", type=int)
    r.add_argument("--replicates", type=int, default=1)
    r.add_argument(
        "--method",
        action="append",
        choices=["dsie", "wls", "tse", "ddsie"],
        help="estimator to run (repeatable); defaults to the scenario's list",
    )
    r.set_defaults(func=cmd_run)

    c = sub.add_parser("compare", help="join run reports into a summary table")
    c.add_argument("dirs", nargs="+")
    c.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
