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
