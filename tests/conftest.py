"""Shared fixtures: tiny hand-built topologies and the bundled networks."""

import importlib.resources as resources

import numpy as np
import pytest

from dsie.network import (
    Bus,
    Dgu,
    Line,
    Load,
    NetworkTopology,
    SensorChannel,
    SensorPlacement,
    load_network,
)

OMEGA = 377.0


def make_line_topology(resistance=1.0, inductance=0.1, omega=OMEGA, swap=False):
    """One line between two capacitor-free buses; both voltages are inputs."""
    frm, to = ("b2", "b1") if swap else ("b1", "b2")
    return NetworkTopology(
        buses=(Bus("b1"), Bus("b2")),
        lines=(Line(frm, to, resistance, inductance),),
        sensors=SensorPlacement(
            states=(SensorChannel(f"i_{frm}_{to}", 0.1),),
            inputs=(SensorChannel("v_b1", 0.1), SensorChannel("v_b2", 0.1)),
        ),
        omega=omega,
    )


def make_cap_bus_topology(capacitance=1e-3, omega=OMEGA, state_std=0.1, input_std=0.1):
    """One capacitor bus fed only by a load current: 2 states, 2 inputs."""
    return NetworkTopology(
        buses=(Bus("b1", has_capacitor=True, capacitance=capacitance),),
        loads=(Load("b1", "i_load"),),
        sensors=SensorPlacement(
            states=(SensorChannel("v_b1", state_std),),
            inputs=(SensorChannel("i_load", input_std),),
        ),
        omega=omega,
    )


def bundled_network_path(name):
    return str(resources.files("dsie").joinpath("data", "networks", f"{name}.json"))


def bundled_scenario_path(name):
    return str(resources.files("dsie").joinpath("data", "scenarios", f"{name}.json"))


@pytest.fixture(scope="session")
def fixture4():
    return load_network(bundled_network_path("fixture4"))


@pytest.fixture(scope="session")
def example13():
    return load_network(bundled_network_path("example13"))


def random_spd(rng, size, condition=10.0):
    """Random symmetric positive definite matrix with bounded condition."""
    q, _ = np.linalg.qr(rng.normal(size=(size, size)))
    eigs = np.linspace(1.0, condition, size)
    return (q * eigs) @ q.T


def assert_series_close(actual, expected, rel=1e-12):
    """Agreement to ``rel`` of the series' largest magnitude."""
    expected = np.asarray(expected)
    assert np.max(np.abs(np.asarray(actual) - expected)) <= rel * np.max(np.abs(expected))


def assert_same_bits(actual, expected):
    """Equal arrays down to the sign of each zero, which assert_array_equal
    alone does not see."""
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


def plan_walk(table):
    """(nodes, entries) of the plans in ``table``: every node reachable from
    a plan's first node through the memos, and every memo entry of those
    nodes as (node, pattern, entry)."""
    from dsie.estimator import Node

    todo = [value for value, _ in table._entries.values() if isinstance(value, Node)]
    nodes, entries = {}, []
    while todo:
        node = todo.pop()
        if id(node) in nodes:
            continue
        nodes[id(node)] = node
        for pattern, entry in node.memo.items():
            entries.append((node, pattern, entry))
            todo.append(entry[0])
    return list(nodes.values()), entries


def plan_bytes(table):
    """Bytes of the arrays of every plan node's gains and of what each memo
    entry keeps besides the node it leads to."""
    from dsie.estimator import _array_bytes

    nodes, entries = plan_walk(table)
    return sum(_array_bytes(n.gains) for n in nodes) + sum(_array_bytes(e[1:]) for _, _, e in entries)


def on_settled_node(node):
    """Whether ``node`` was reached by a settled step: a step from it led to itself."""
    return any(entry[0] is node for entry in node.memo.values())
