"""Benchmark workloads and the operations they run.

A workload is a set of scenario files derived from the bundled scenarios
(horizons shortened, load events respaced, attacks moved, transport and
bad-data policy set) plus the list of operations that one round runs. The benchmark
seed only chooses the scenario seeds of each round, so the same seed gives
the same operations and the same inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

METHODS = ("dsie", "wls", "tse", "ddsie")


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario file of a workload, made from a bundled scenario.

    ``event_spacing`` replays the bundled load events in order, one every
    ``event_spacing`` seconds and cycling, until the horizon;
    ``attack_window`` moves every attack to that (start, end).
    """

    key: str
    bundled: str
    duration: float
    event_spacing: float | None = None
    attack_window: tuple[float, float] | None = None
    mse_transient_steps: int | None = None
    transport: dict | None = None
    bdd_policy: str | None = None


@dataclass(frozen=True)
class Workload:
    """Scenarios plus the operations of one round.

    ``mix`` lists (scenario key, method, repeats) in run order: a round
    runs each entry ``repeats`` times in a row, each time on the pair's next
    scenario seed. The slow methods (dsie, ddsie, and wls on example13) run
    one operation at a time, with short groups of the cheap ones between
    them. So every method gets a similar share of the time, spread over the
    whole round, and its median sees the machine's average speed rather than
    that of a few stretches.
    """

    name: str
    why: str
    scenarios: tuple[ScenarioSpec, ...]
    mix: tuple[tuple[str, str, int], ...]
    writes: bool  # each operation writes its outputs, as ``dsie run`` does
    mse_scenario: str  # scenario whose operations give the accuracy metrics
    check_pair: tuple[str, str]  # operation rerun for the reproducibility check
    ordering_scenario: str | None = None  # where the criterion-5 ordering must hold
    probes: tuple[tuple[str, str], ...] = ()  # known failures, run once outside the timing

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(dict.fromkeys((key, method) for key, method, _ in self.mix))


@dataclass(frozen=True)
class Operation:
    """One ``run_scenario`` call for one (scenario, seed, method)."""

    scenario: str
    method: str
    seed: int

    @property
    def label(self) -> str:
        return f"{self.scenario}/{self.method}/seed{self.seed}"


# Short horizons give many operations per run, so medians over operations
# stay steady on a noisy machine; the first steps of filter transient are
# skipped in their accuracy metrics.
TRANSIENT_STEPS = 10

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fixture4-mc",
            why=(
                "many short fixture4 runs over seeds: small matrices, so per-call overhead, "
                "BLAS thread hand-off and per-operation set-up dominate"
            ),
            scenarios=(
                ScenarioSpec(
                    "load_change",
                    "fixture4_load_change",
                    duration=0.06,
                    mse_transient_steps=TRANSIENT_STEPS,
                    event_spacing=0.015,
                ),
                ScenarioSpec(
                    "attack",
                    "fixture4_attack",
                    duration=0.06,
                    mse_transient_steps=TRANSIENT_STEPS,
                    attack_window=(0.03, 0.05),
                ),
            ),
            mix=(
                ("load_change", "dsie", 1),
                ("load_change", "tse", 4),
                ("attack", "wls", 2),
                ("load_change", "ddsie", 1),
                ("attack", "tse", 4),
                ("load_change", "wls", 2),
                ("attack", "dsie", 1),
                ("load_change", "tse", 4),
                ("attack", "wls", 2),
                ("load_change", "ddsie", 1),
                ("attack", "tse", 4),
                ("load_change", "wls", 2),
                ("load_change", "dsie", 1),
                ("load_change", "tse", 4),
                ("attack", "wls", 2),
                ("load_change", "ddsie", 1),
                ("attack", "tse", 4),
                ("load_change", "wls", 2),
            ),
            writes=False,
            mse_scenario="load_change",
            check_pair=("attack", "tse"),
            ordering_scenario="load_change",
            probes=(("attack", "ddsie"),),
        ),
        Workload(
            name="example13-cli",
            why=(
                "example13 runs written to disk like dsie run: n=50 so dense kernels dominate, "
                "ddsie has 4 areas, and the CSV writer does real work"
            ),
            scenarios=(
                ScenarioSpec(
                    "load_change",
                    "example13_load_change",
                    duration=0.04,
                    mse_transient_steps=TRANSIENT_STEPS,
                    event_spacing=0.01,
                ),
            ),
            mix=(
                ("load_change", "dsie", 1),
                ("load_change", "tse", 2),
                ("load_change", "ddsie", 1),
                ("load_change", "wls", 1),
                ("load_change", "tse", 2),
                ("load_change", "dsie", 1),
                ("load_change", "tse", 2),
                ("load_change", "wls", 1),
                ("load_change", "ddsie", 1),
                ("load_change", "tse", 2),
            ),
            writes=True,
            mse_scenario="load_change",
            check_pair=("load_change", "tse"),
        ),
        Workload(
            name="fixture4-soak",
            why=(
                "longer fixture4 runs with message drops, delays and the hold policy, so the "
                "covariance path depends on the data and set-up is a small share"
            ),
            scenarios=(
                ScenarioSpec(
                    "soak",
                    "fixture4_load_change",
                    duration=0.12,
                    event_spacing=0.025,
                    transport={"drop_rate": 0.2, "delay_rate": 0.1},
                    bdd_policy="hold",
                ),
            ),
            mix=(
                ("soak", "ddsie", 1),
                ("soak", "tse", 4),
                ("soak", "wls", 3),
                ("soak", "dsie", 1),
                ("soak", "tse", 4),
                ("soak", "wls", 3),
            ),
            writes=False,
            mse_scenario="soak",
            check_pair=("soak", "tse"),
        ),
    )
}


def scenario_doc(spec: ScenarioSpec, scenarios_dir: Path) -> dict:
    """The scenario document of ``spec``, derived from its bundled scenario."""
    with open(Path(scenarios_dir) / f"{spec.bundled}.json") as f:
        doc = json.load(f)
    doc["name"] = f"{doc.get('name', spec.bundled)}-{spec.key}"
    doc["duration"] = spec.duration
    events = sorted(doc.get("load_events", []), key=lambda e: e["time"])
    if spec.event_spacing is not None and events:
        count = int(math.ceil(spec.duration / spec.event_spacing)) - 1
        events = [
            {**events[k % len(events)], "time": round((k + 1) * spec.event_spacing, 9)}
            for k in range(count)
        ]
    doc["load_events"] = [e for e in events if e["time"] < spec.duration]
    if spec.attack_window is not None:
        start, end = spec.attack_window
        doc["attacks"] = [{**a, "start": start, "end": end} for a in doc.get("attacks", [])]
    if spec.mse_transient_steps is not None:
        doc["mse_transient_steps"] = spec.mse_transient_steps
    if spec.transport is not None:
        doc["transport"] = dict(spec.transport)
    if spec.bdd_policy is not None:
        doc.setdefault("bdd", {})["policy"] = spec.bdd_policy
    return doc


def round_seeds(workload: Workload, seed: int, count: int) -> list[int]:
    """Scenario seeds for the first ``count`` rounds of a benchmark seed."""
    rng = random.Random(f"{workload.name}:{int(seed)}")
    return [rng.randrange(2**30) for _ in range(count)]


def round_operations(workload: Workload, round_seed: int) -> list[Operation]:
    """The operations of one round; the ``j``-th run of a pair uses seed ``round_seed + j``."""
    runs: dict[tuple[str, str], int] = {}
    ops = []
    for key, method, repeats in workload.mix:
        for _ in range(repeats):
            j = runs.get((key, method), 0)
            runs[(key, method)] = j + 1
            ops.append(Operation(key, method, round_seed + j))
    return ops
