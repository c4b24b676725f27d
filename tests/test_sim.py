"""Simulator tests: scenario files, truth integration, noise, attacks."""

import dataclasses

import numpy as np
import pytest

from dsie import linalg, pipeline, sim
from dsie.errors import InputFileError, SingularAtSteadyState, UnreachableSupport, WindowOutOfRange
from dsie.metrics import false_alarm_rate
from dsie.model import build_continuous, build_discrete
from dsie.network import load_network
from dsie.sim import (
    AttackSpec,
    LoadEvent,
    Scenario,
    apply_attacks,
    craft_stealthy_attack,
    generate_measurements,
    input_trajectory,
    load_scenario,
    nominal_magnitudes,
    rng_for,
    scenario_from_dict,
    simulate_truth,
    steady_state,
)

from conftest import (
    assert_same_bits,
    bundled_network_path,
    bundled_scenario_path,
    make_cap_bus_topology,
    make_line_topology,
)

BASE_DOC = {
    "network": "fixture4",
    "t_s": 0.001,
    "duration": 0.1,
}


class TestScenarioFiles:
    def test_bundled_scenarios_load(self):
        for name in ("fixture4_load_change", "fixture4_attack", "example13_load_change"):
            sc = load_scenario(bundled_scenario_path(name))
            assert sc.steps > 0
            assert sc.estimators

    def test_defaults(self):
        sc = scenario_from_dict(dict(BASE_DOC))
        assert sc.seed == 0
        assert sc.estimators == ("dsie",)
        assert sc.p0_scale == 10.0
        assert sc.steps == 100

    def test_event_beyond_duration_rejected(self):
        doc = dict(BASE_DOC, load_events=[{"time": 0.5, "input": "i_load", "value": [1, 2]}])
        with pytest.raises(InputFileError) as exc:
            scenario_from_dict(doc)
        assert any("duration" in p for p in exc.value.problems)

    def test_additive_attack_needs_values(self):
        doc = dict(
            BASE_DOC,
            attacks=[
                {"start": 0.01, "end": 0.02, "target": "state", "mode": "additive", "channels": ["x"]}
            ],
        )
        with pytest.raises(InputFileError) as exc:
            scenario_from_dict(doc)
        assert any("values" in p for p in exc.value.problems)

    def test_stealthy_attack_needs_magnitude(self):
        doc = dict(
            BASE_DOC,
            attacks=[
                {"start": 0.01, "end": 0.02, "target": "state", "mode": "stealthy", "channels": ["x"]}
            ],
        )
        with pytest.raises(InputFileError) as exc:
            scenario_from_dict(doc)
        assert any("magnitude" in p for p in exc.value.problems)

    def test_inverted_window_rejected(self):
        doc = dict(
            BASE_DOC,
            attacks=[
                {
                    "start": 0.05,
                    "end": 0.01,
                    "target": "state",
                    "mode": "stealthy",
                    "channels": ["x"],
                    "magnitude": 0.1,
                }
            ],
        )
        with pytest.raises(InputFileError) as exc:
            scenario_from_dict(doc)
        assert any("start" in p for p in exc.value.problems)

    def test_schema_violation_is_field_precise(self):
        with pytest.raises(InputFileError) as exc:
            scenario_from_dict({"network": "x", "t_s": -1.0, "duration": 1.0})
        assert any("t_s" in p for p in exc.value.problems)


class TestRngFor:
    def test_deterministic(self):
        a = rng_for(7, "truth").normal(size=5)
        b = rng_for(7, "truth").normal(size=5)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent_of_each_other(self):
        a = rng_for(7, "truth").normal(size=5)
        b = rng_for(7, "meas").normal(size=5)
        assert not np.allclose(a, b)


class TestNominalMagnitudes:
    def test_pair_magnitude_shared(self):
        out = nominal_magnitudes(np.array([3.0, 4.0, 0.1, 0.0]))
        np.testing.assert_allclose(out, [5.0, 5.0, 1.0, 1.0])  # second pair floored


def constant_scenario(duration=0.05, **kwargs):
    defaults = dict(
        network="inline",
        t_s=0.001,
        duration=duration,
        initial_inputs={"i_load": (2.0, -1.0)},
        init_state="steady",
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestSimulateTruth:
    def test_constant_input_stays_at_equilibrium(self):
        cont = build_continuous(make_cap_bus_topology())
        truth = simulate_truth(cont, constant_scenario())
        np.testing.assert_allclose(truth.x, np.tile(truth.x[0], (truth.x.shape[0], 1)), atol=1e-9)
        np.testing.assert_allclose(truth.x[0], steady_state(cont, truth.u[0]), atol=1e-12)

    def test_rl_step_response_closed_form(self):
        r, l_h = 2.0, 0.1
        cont = build_continuous(make_line_topology(resistance=r, inductance=l_h))
        sc = Scenario(
            network="inline",
            t_s=0.0005,
            duration=0.05,
            initial_inputs={"v_b1": (0.0, 0.0), "v_b2": (0.0, 0.0)},
            load_events=(LoadEvent(0.0, "v_b2", (1.0, 0.0)),),
            init_state="zero",
        )
        truth = simulate_truth(cont, sc)
        omega = cont.omega
        # Complex first-order response i(t) = (v/z)(1 - e^{-(R/L + j*omega) t})
        z = r + 1j * omega * l_h
        for k, t in enumerate(truth.times):
            expect = (1.0 / z) * (1.0 - np.exp(-(r / l_h + 1j * omega) * t))
            got = complex(truth.x[k, 0], truth.x[k, 1])
            assert abs(got - expect) <= 1e-9

    def test_zoh_exact_under_step_refinement(self):
        cont = build_continuous(make_cap_bus_topology())
        coarse = simulate_truth(cont, constant_scenario(duration=0.02))
        fine = simulate_truth(
            cont,
            constant_scenario(duration=0.02, t_s=0.0005),
        )
        np.testing.assert_allclose(coarse.x, fine.x[::2], atol=1e-12)

    def test_dissipative_decay_after_sources_removed(self):
        cont = build_continuous(make_line_topology(resistance=1.0, inductance=0.1))
        sc = Scenario(
            network="inline",
            t_s=0.001,
            duration=0.1,
            initial_inputs={"v_b1": (0.0, 0.0), "v_b2": (10.0, 0.0)},
            load_events=(
                LoadEvent(0.02, "v_b2", (0.0, 0.0)),
            ),
            init_state="steady",
        )
        truth = simulate_truth(cont, sc)
        norms = np.linalg.norm(truth.x, axis=1)
        after = norms[21:]
        assert np.all(np.diff(after) <= 1e-12)

    def test_singular_steady_state_raises(self):
        cont = build_continuous(make_cap_bus_topology(omega=0.0))
        sc = constant_scenario(init_state="steady")
        with pytest.raises(SingularAtSteadyState):
            simulate_truth(cont, sc)
        auto = simulate_truth(cont, constant_scenario(init_state="auto"))
        np.testing.assert_array_equal(auto.x[0], np.zeros(cont.n))

    def test_process_noise_deterministic_per_seed(self):
        cont = build_continuous(make_cap_bus_topology())
        sc = constant_scenario(seed=5)
        std = 0.1 * np.ones(cont.n)
        a = simulate_truth(cont, sc, process_std=std)
        b = simulate_truth(cont, sc, process_std=std)
        np.testing.assert_array_equal(a.x, b.x)
        c = simulate_truth(cont, dataclasses.replace(sc, seed=6), process_std=std)
        assert not np.allclose(a.x, c.x)

    def test_input_trajectory_applies_events_in_order(self):
        cont = build_continuous(make_cap_bus_topology())
        sc = constant_scenario(
            duration=0.01,
            load_events=(
                LoadEvent(0.004, "i_load", (9.0, 9.0)),
                LoadEvent(0.007, "i_load", (1.0, 1.0)),
            ),
        )
        u = input_trajectory(cont, sc)
        np.testing.assert_allclose(u[0], [2.0, -1.0])
        np.testing.assert_allclose(u[4], [9.0, 9.0])
        np.testing.assert_allclose(u[7], [1.0, 1.0])

    def test_event_for_unknown_input_rejected(self):
        cont = build_continuous(make_cap_bus_topology())
        sc = constant_scenario(load_events=(LoadEvent(0.004, "nope", (9.0, 9.0)),))
        with pytest.raises(KeyError):
            input_trajectory(cont, sc)


def reference_input_trajectory(continuous, scenario):
    """The per-step input fill: step k applies, in time order, every event
    with time <= k * t_s + 1e-12 not applied yet."""
    index = continuous.input_index
    u = np.zeros((scenario.steps + 1, continuous.m))
    current = np.zeros(continuous.m)
    for iid, (d, q) in index.items():
        if iid in scenario.initial_inputs:
            current[d], current[q] = scenario.initial_inputs[iid]
    events = sorted(scenario.load_events, key=lambda e: e.time)
    ei = 0
    for k in range(scenario.steps + 1):
        while ei < len(events) and events[ei].time <= k * scenario.t_s + 1e-12:
            d, q = index[events[ei].input_id]
            current[d], current[q] = events[ei].value
            ei += 1
        u[k] = current
    return u


def reference_truth(continuous, scenario, process_std=None):
    """(x, u) of the per-step recurrence x[k+1] = A_d x[k] + B_d u[k] + noise[k]
    with a ZOH of its own, drawing the noise as ``simulate_truth`` does."""
    u = reference_input_trajectory(continuous, scenario)
    a_d, b_d = linalg.discretize_zoh(continuous.a, continuous.b, scenario.t_s)
    steps, n = scenario.steps, continuous.n
    x = np.zeros((steps + 1, n))
    if scenario.init_state != "zero":
        try:
            x[0] = steady_state(continuous, u[0])
        except SingularAtSteadyState:
            if scenario.init_state == "steady":
                raise
    if process_std is None:
        noise = np.zeros((steps, n))
    else:
        noise = rng_for(scenario.seed, "truth").normal(0.0, 1.0, size=(steps, n)) * process_std
    for k in range(steps):
        x[k + 1] = a_d @ x[k] + b_d @ u[k] + noise[k]
    return x, u


class TestTruthMatchesPerStepReference:
    """``simulate_truth`` fills inputs per event and forms B_d u once per
    segment of equal input rows; its truth equals the per-step loop's bit
    for bit."""

    @pytest.mark.parametrize("init", ["steady", "zero", "auto"])
    @pytest.mark.parametrize("noisy", [True, False], ids=["noise", "noiseless"])
    @pytest.mark.parametrize("name", ["fixture4_load_change", "fixture4_attack", "example13_load_change"])
    def test_bundled_scenarios(self, name, noisy, init):
        scenario = dataclasses.replace(load_scenario(bundled_scenario_path(name)), init_state=init, seed=3)
        prepared = pipeline.prepare(load_network(bundled_network_path(scenario.network)), scenario)
        std = prepared.process_std if noisy else None
        truth = simulate_truth(prepared.continuous, scenario, process_std=std)
        x, u = reference_truth(prepared.continuous, scenario, std)
        assert_same_bits(truth.u, u)
        assert_same_bits(truth.x, x)

    @pytest.fixture
    def edge_case(self, fixture4):
        t_s = 0.001
        on_grid = 8 * t_s
        scenario = Scenario(
            network="fixture4",
            t_s=t_s,
            duration=0.02,
            initial_inputs={
                "v_b3": (480.0, 0.0),
                "v_t_b1": (492.0, 18.0),
                "i_load_b2": (60.0, -15.0),
                "i_load_b4": (40.0, -10.0),
            },
            load_events=(
                LoadEvent(0.02, "i_load_b2", (70.0, -15.0)),  # at t = duration
                LoadEvent(0.0, "i_load_b2", (61.0, -15.0)),
                LoadEvent(0.0031, "i_load_b4", (45.0, -10.0)),  # two in one step,
                LoadEvent(0.0034, "i_load_b4", (50.0, -10.0)),  # the later wins
                LoadEvent(0.006, "v_b3", (470.0, 0.0)),  # two at one time,
                LoadEvent(0.006, "v_b3", (475.0, 0.0)),  # the one listed later wins
                LoadEvent(on_grid, "v_t_b1", (495.0, 18.0)),
                LoadEvent(on_grid - 1e-13, "i_load_b2", (62.0, -15.0)),
                LoadEvent(on_grid + 5e-13, "v_b3", (478.0, 0.0)),  # inside the 1e-12 slack
                LoadEvent(9 * t_s + 2e-12, "i_load_b4", (55.0, -10.0)),  # past the 1e-12 slack
                LoadEvent(0.013, "i_load_b2", (60.0, -15.0)),  # back to its initial value
                LoadEvent(0.015, "v_b3", (478.0, -0.0)),  # -0.0 after +0.0
            ),
        )
        return build_continuous(fixture4), scenario

    def test_input_trajectory_edge_cases(self, edge_case):
        cont, scenario = edge_case
        u = input_trajectory(cont, scenario)
        assert_same_bits(u, reference_input_trajectory(cont, scenario))
        col = {iid: list(pair) for iid, pair in cont.input_index.items()}
        np.testing.assert_array_equal(u[0, col["i_load_b2"]], [61.0, -15.0])
        np.testing.assert_array_equal(u[3:5, col["i_load_b4"]], [[40.0, -10.0], [50.0, -10.0]])
        np.testing.assert_array_equal(u[6, col["v_b3"]], [475.0, 0.0])
        np.testing.assert_array_equal(u[7:9, col["v_t_b1"]], [[492.0, 18.0], [495.0, 18.0]])
        np.testing.assert_array_equal(u[7:9, col["i_load_b2"]], [[61.0, -15.0], [62.0, -15.0]])
        np.testing.assert_array_equal(u[7:9, col["v_b3"]], [[475.0, 0.0], [478.0, 0.0]])
        np.testing.assert_array_equal(u[9:11, col["i_load_b4"]], [[50.0, -10.0], [55.0, -10.0]])
        np.testing.assert_array_equal(u[19:, col["i_load_b2"]], [[60.0, -15.0], [70.0, -15.0]])
        q = col["v_b3"][1]
        assert not np.signbit(u[:15, q]).any() and np.signbit(u[15:, q]).all()

    @pytest.mark.parametrize("init", ["steady", "zero"])
    @pytest.mark.parametrize("noisy", [True, False], ids=["noise", "noiseless"])
    def test_edge_case_truth(self, edge_case, noisy, init):
        cont, scenario = edge_case
        scenario = dataclasses.replace(scenario, init_state=init)
        std = np.full(cont.n, 0.01) if noisy else None
        truth = simulate_truth(cont, scenario, process_std=std)
        x, u = reference_truth(cont, scenario, std)
        assert np.signbit(truth.u[15:, cont.input_index["v_b3"][1]]).all()
        assert_same_bits(truth.u, u)
        assert_same_bits(truth.x, x)


class TestGenerateMeasurements:
    def test_zero_std_is_exact(self):
        topo = make_cap_bus_topology()
        cont = build_continuous(topo)
        model = build_discrete(topo, 0.001, measurement_std_override={"v_b1": 1e-300, "i_load": 1e-300})
        truth = simulate_truth(cont, constant_scenario())
        z_x, z_u = generate_measurements(truth, model, rng_for(0, "m"))
        np.testing.assert_allclose(z_x, truth.x @ model.c.T, atol=1e-290)
        np.testing.assert_allclose(z_u, truth.u @ model.d.T, atol=1e-290)

    def test_empirical_std_matches(self):
        topo = make_cap_bus_topology(state_std=0.4)
        cont = build_continuous(topo)
        model = build_discrete(topo, 0.001)
        sc = constant_scenario(duration=100.0)  # 1e5 samples
        truth = simulate_truth(cont, sc)
        z_x, _ = generate_measurements(truth, model, rng_for(1, "m"))
        noise = z_x[:, 0] - truth.x[:, 0]
        assert np.std(noise) == pytest.approx(0.4, rel=0.02)

    def test_same_seed_same_stream(self):
        topo = make_cap_bus_topology()
        cont = build_continuous(topo)
        model = build_discrete(topo, 0.001)
        truth = simulate_truth(cont, constant_scenario())
        a = generate_measurements(truth, model, rng_for(2, "m"))
        b = generate_measurements(truth, model, rng_for(2, "m"))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestCraftStealthyAttack:
    def test_identity_c_any_support(self):
        attack = craft_stealthy_attack(np.eye(4), [1, 2], 2.0)
        assert attack.projection_residual <= 1e-12
        assert np.linalg.norm(attack.vector) == pytest.approx(2.0)
        np.testing.assert_allclose(attack.vector[[0, 3]], 0.0, atol=1e-12)

    def test_selection_c_partial_support(self):
        c = np.zeros((2, 4))
        c[0, 0] = c[1, 2] = 1.0
        attack = craft_stealthy_attack(c, [0], 1.0)
        assert attack.projection_residual <= 1e-12
        np.testing.assert_allclose(attack.vector, [1.0, 0.0], atol=1e-12)

    def test_unreachable_support_strict(self):
        # Both rows measure the same state: a vector on one row only cannot
        # lie in the column space.
        c = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(UnreachableSupport):
            craft_stealthy_attack(c, [0], 1.0, strict=True)
        relaxed = craft_stealthy_attack(c, [0], 1.0)
        assert relaxed.projection_residual > 0.1

    def test_column_space_membership(self):
        rng = np.random.default_rng(32)
        c = rng.normal(size=(6, 3))
        attack = craft_stealthy_attack(c, [0, 1, 2, 3, 4, 5], 1.0)
        recon = c @ np.linalg.lstsq(c, attack.vector, rcond=None)[0]
        np.testing.assert_allclose(recon, attack.vector, atol=1e-10)


class TestApplyAttacks:
    def setup_method(self):
        self.topo = make_cap_bus_topology()
        self.cont = build_continuous(self.topo)
        self.model = build_discrete(self.topo, 0.001)
        self.truth = simulate_truth(self.cont, constant_scenario(duration=0.1))
        self.z_x, self.z_u = generate_measurements(self.truth, self.model, rng_for(3, "m"))

    def test_identity_outside_window(self):
        spec = AttackSpec(0.02, 0.04, "state", "additive", ("v_b1",), values=((5.0, -5.0),))
        z_x, z_u = apply_attacks(self.z_x, self.z_u, [spec], self.model, self.truth.times)
        outside = (self.truth.times < 0.02) | (self.truth.times >= 0.04)
        np.testing.assert_array_equal(z_x[outside], self.z_x[outside])
        np.testing.assert_array_equal(z_u, self.z_u)

    def test_additive_adds_fixed_vector(self):
        spec = AttackSpec(0.02, 0.04, "state", "additive", ("v_b1",), values=((5.0, -5.0),))
        z_x, _ = apply_attacks(self.z_x, self.z_u, [spec], self.model, self.truth.times)
        inside = (self.truth.times >= 0.02) & (self.truth.times < 0.04)
        np.testing.assert_allclose(z_x[inside] - self.z_x[inside], [[5.0, -5.0]] * inside.sum())

    def test_false_alarm_window_is_the_attacked_window(self):
        spec = AttackSpec(0.02, 0.04, "state", "additive", ("v_b1",), values=((5.0, -5.0),))
        z_x, _ = apply_attacks(self.z_x, self.z_u, [spec], self.model, self.truth.times)
        attacked = np.any(z_x != self.z_x, axis=1)
        at_end = int(np.argmin(np.abs(self.truth.times - 0.04)))
        assert attacked[at_end - 1] and not attacked[at_end]
        windows = [(spec.start, spec.end)]
        assert false_alarm_rate(attacked, windows, self.truth.times) == 0.0
        # An alarm at exactly t = end is raised on clean data: a false alarm.
        flags = np.zeros_like(attacked)
        flags[at_end] = True
        outside = int(np.sum(~attacked))
        assert false_alarm_rate(flags, windows, self.truth.times) == pytest.approx(1 / outside)

    def test_disjoint_windows_compose(self):
        a = AttackSpec(0.01, 0.02, "state", "additive", ("v_b1",), values=((1.0, 0.0),))
        b = AttackSpec(0.05, 0.06, "input", "additive", ("i_load",), values=((0.0, 2.0),))
        both = apply_attacks(self.z_x, self.z_u, [a, b], self.model, self.truth.times)
        one = apply_attacks(self.z_x, self.z_u, [a], self.model, self.truth.times)
        seq = apply_attacks(one[0], one[1], [b], self.model, self.truth.times)
        np.testing.assert_array_equal(both[0], seq[0])
        np.testing.assert_array_equal(both[1], seq[1])

    def test_window_outside_horizon_rejected(self):
        spec = AttackSpec(0.05, 0.5, "state", "additive", ("v_b1",), values=((1.0, 1.0),))
        with pytest.raises(WindowOutOfRange):
            apply_attacks(self.z_x, self.z_u, [spec], self.model, self.truth.times)

    def test_unknown_channel_rejected(self):
        spec = AttackSpec(0.01, 0.02, "state", "additive", ("nope",), values=((1.0, 1.0),))
        with pytest.raises(KeyError):
            apply_attacks(self.z_x, self.z_u, [spec], self.model, self.truth.times)

    def test_stealthy_hits_duplicate_rows_identically(self, fixture4):
        cont = build_continuous(fixture4)
        model = build_discrete(fixture4, 0.001)
        sc = Scenario(
            network="fixture4",
            t_s=0.001,
            duration=0.1,
            initial_inputs={
                "v_b3": (480.0, 0.0),
                "v_t_b1": (492.0, 18.0),
                "i_load_b2": (60.0, -15.0),
                "i_load_b4": (40.0, -10.0),
            },
            init_state="steady",
        )
        truth = simulate_truth(cont, sc)
        z_x, z_u = generate_measurements(truth, model, rng_for(4, "m"))
        spec = AttackSpec(0.02, 0.06, "state", "stealthy", ("v_b2",), magnitude=0.1)
        hit_x, _ = apply_attacks(z_x, z_u, [spec], model, truth.times)
        delta = hit_x[30] - z_x[30]
        rows_d = [i for i, lab in enumerate(model.z_x_labels) if lab == "v_b2:d"]
        assert len(rows_d) == 2
        assert delta[rows_d[0]] == pytest.approx(delta[rows_d[1]], rel=1e-12)
        assert abs(delta[rows_d[0]]) > 0.0


def reference_craft(c, rows, magnitude):
    """(vector, coefficients, residual) of the stealthy attack on ``rows``,
    from one least-squares solve and nothing kept."""
    target = np.zeros(c.shape[0])
    target[sorted(set(rows))] = 1.0
    coeff = np.linalg.lstsq(c, target, rcond=None)[0]
    a = c @ coeff
    residual = float(np.linalg.norm(target - a) / np.linalg.norm(target))
    a = a * (float(magnitude) / np.linalg.norm(a))
    coeff = coeff * (float(magnitude) / np.linalg.norm(c @ coeff))
    return a, coeff, residual


def reference_apply_attacks(z_x, z_u, specs, model, times):
    """The stealthy branch of ``apply_attacks`` with a fresh
    ``reference_craft`` per spec, nothing kept between calls."""
    z_x, z_u = np.array(z_x, dtype=float), np.array(z_u, dtype=float)
    for spec in specs:
        mask = (times >= spec.start - 1e-12) & (times < spec.end - 1e-12)
        stream = z_x if spec.target == "state" else z_u
        labels = model.z_x_labels if spec.target == "state" else model.z_u_labels
        rows = [i for ch in spec.channels for i, lab in enumerate(labels) if lab in (f"{ch}:d", f"{ch}:q")]
        clean = stream[mask][:, rows]
        nominal = max(float(np.sqrt(np.mean(clean**2))) if clean.size else 1.0, 1e-12)
        design = model.c if spec.target == "state" else model.d
        stream[mask] += reference_craft(design, rows, spec.magnitude * nominal)[0]
    return z_x, z_u


class TestStealthyAttackKeptPerModel:
    """``apply_attacks`` crafts each stealthy attack's unscaled vector once
    per model and rows and only scales it in later calls; every call, and
    ``craft_stealthy_attack``, equals a fresh solve bit for bit."""

    @pytest.fixture
    def streams(self, fixture4):
        scenario = dataclasses.replace(load_scenario(bundled_scenario_path("fixture4_attack")), seed=5)
        prepared = pipeline.prepare(fixture4, scenario)
        truth = simulate_truth(prepared.continuous, scenario, process_std=prepared.process_std)
        model = build_discrete(fixture4, scenario.t_s, measurement_std_override=prepared.measurement_std_override)
        z_x, z_u = generate_measurements(truth, model, rng_for(scenario.seed, "meas"))
        return model, z_x, z_u, truth.times

    @pytest.mark.parametrize(
        "specs",
        [
            [AttackSpec(0.15, 0.25, "state", "stealthy", ("v_b2", "i_b2_b3"), magnitude=0.1)],
            [AttackSpec(0.05, 0.1, "input", "stealthy", ("i_load_b2", "v_t_b1"), magnitude=0.3)],
            [
                AttackSpec(0.02, 0.04, "state", "stealthy", ("v_b1",), magnitude=0.2),
                AttackSpec(0.2, 0.28, "state", "stealthy", ("v_b1",), magnitude=0.05),
            ],
            [AttackSpec(0.0204, 0.0208, "state", "stealthy", ("i_t_b1", "v_b4"), magnitude=0.1)],
        ],
        ids=["state", "input", "two-disjoint-windows", "no-clean-rows"],
    )
    def test_every_call_equals_a_fresh_craft(self, streams, specs, monkeypatch):
        model, z_x, z_u, times = streams
        expected = reference_apply_attacks(z_x, z_u, specs, model, times)
        first = apply_attacks(z_x, z_u, specs, model, times)
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(a) or lstsq(*a, **k))
        scaled = apply_attacks(z_x * 1.5, z_u * 1.5, specs, model, times)
        again = apply_attacks(z_x, z_u, specs, model, times)
        assert not calls
        for actual in (first, again):
            assert_same_bits(actual[0], expected[0])
            assert_same_bits(actual[1], expected[1])
        assert_same_bits(scaled[0], reference_apply_attacks(z_x * 1.5, z_u * 1.5, specs, model, times)[0])
        if specs[0].start == 0.0204:
            window = (times >= 0.0204 - 1e-12) & (times < 0.0208 - 1e-12)
            assert not window.any()
            assert_same_bits(first[0], z_x)

    @pytest.mark.parametrize("target, rows", [("state", (10, 11, 16, 17, 4, 5)), ("input", (2, 3))])
    def test_kept_and_crafted_attacks_equal_a_fresh_solve(self, streams, target, rows):
        model = streams[0]
        design = model.c if target == "state" else model.d
        for magnitude in (0.1, 3.7, 1e-300, 480.0):
            vector, coefficients, residual = reference_craft(design, rows, magnitude)
            kept = sim._scaled(sim._unit_attack(design, rows), magnitude, False)
            for attack in (kept, craft_stealthy_attack(design, rows, magnitude)):
                assert_same_bits(attack.vector, vector)
                assert_same_bits(attack.coefficients, coefficients)
                assert attack.projection_residual == residual
