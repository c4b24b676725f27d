"""Workload generation is a pure function of the workload and the seed."""

from pathlib import Path

import pytest

from dsie.sim import scenario_from_dict
from perfbench.workloads import WORKLOADS, round_operations, round_seeds, scenario_doc

SCENARIOS = Path(__file__).resolve().parents[2] / "src" / "dsie" / "data" / "scenarios"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_operations(name):
    w = WORKLOADS[name]
    first = [round_operations(w, s) for s in round_seeds(w, 5, 4)]
    again = [round_operations(w, s) for s in round_seeds(w, 5, 4)]
    other = [round_operations(w, s) for s in round_seeds(w, 6, 4)]
    assert first == again
    assert first != other
    assert all(len(set(ops)) == len(ops) for ops in first)
    assert len(set(round_seeds(w, 5, 50))) == 50


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_scenario_documents_are_deterministic_and_valid(name):
    for spec in WORKLOADS[name].scenarios:
        doc = scenario_doc(spec, SCENARIOS)
        assert doc == scenario_doc(spec, SCENARIOS)
        scenario = scenario_from_dict(doc)
        assert scenario.duration == spec.duration
        assert all(e.time < spec.duration for e in scenario.load_events)


def test_soak_repeats_load_events_and_sets_lossy_hold():
    spec = WORKLOADS["fixture4-soak"].scenarios[0]
    scenario = scenario_from_dict(scenario_doc(spec, SCENARIOS))
    assert len(scenario.load_events) >= 4
    assert scenario.bdd_policy == "hold"
    assert scenario.drop_rate > 0 and scenario.delay_rate > 0


def test_every_workload_runs_every_method():
    for w in WORKLOADS.values():
        assert {m for _, m in w.pairs} == {"dsie", "wls", "tse", "ddsie"}
        assert w.check_pair in w.pairs
