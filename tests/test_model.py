"""Model assembly tests: continuous/discrete builds, sensors, partitioning."""

import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from dsie import linalg
from dsie.errors import (
    DuplicateId,
    NonAdjacentShare,
    UnassignedElement,
    UnknownSensorTarget,
    UnrepresentableTopology,
)
from dsie.model import (
    AreaModel,
    build_continuous,
    build_discrete,
    build_measurement,
    check_joint_rank,
    partition,
    stacked_design,
    state_and_input_ids,
)
from dsie.network import (
    AreaSpec,
    Bus,
    Line,
    Load,
    NetworkTopology,
    SensorChannel,
    SensorPlacement,
)

from conftest import OMEGA, make_cap_bus_topology, make_line_topology


def rotation_block(n):
    return sla.block_diag(*([np.array([[0.0, 1.0], [-1.0, 0.0]])] * n))


class TestBuildContinuous:
    def test_single_line_between_input_buses(self):
        cont = build_continuous(make_line_topology(resistance=1.0, inductance=0.1))
        np.testing.assert_allclose(cont.a, [[-10.0, 377.0], [-377.0, -10.0]], rtol=1e-12)
        # driving term (v_to - v_from)/L with gain 1/L = 10 per axis
        d1, _ = cont.input_index["v_b1"]
        d2, _ = cont.input_index["v_b2"]
        assert cont.b[0, d1] == pytest.approx(-10.0)
        assert cont.b[0, d2] == pytest.approx(10.0)
        np.testing.assert_allclose(cont.b[0], [-10.0, 0.0, 10.0, 0.0])
        np.testing.assert_allclose(cont.b[1], [0.0, -10.0, 0.0, 10.0])

    def test_capacitor_bus_with_load(self):
        c_j = 1e-3
        cont = build_continuous(make_cap_bus_topology(capacitance=c_j))
        np.testing.assert_allclose(cont.a, [[0.0, OMEGA], [-OMEGA, 0.0]], rtol=1e-12)
        # load currents are drawn from the bus: coefficient magnitude 1/C_j
        np.testing.assert_allclose(np.abs(cont.b), (1.0 / c_j) * np.eye(2), rtol=1e-12)
        np.testing.assert_allclose(cont.b, -(1.0 / c_j) * np.eye(2), rtol=1e-12)

    def test_line_orientation_negates_voltage_coefficients(self):
        fwd = build_continuous(make_line_topology())
        rev = build_continuous(make_line_topology(swap=True))
        cols = [fwd.input_index["v_b1"][0], fwd.input_index["v_b2"][0]]
        cols_r = [rev.input_index["v_b1"][0], rev.input_index["v_b2"][0]]
        np.testing.assert_allclose(fwd.b[0, cols], -rev.b[0, cols_r], rtol=1e-12)

    def test_line_orientation_negates_capacitor_coupling(self):
        def topo(swap):
            frm, to = ("b2", "b1") if swap else ("b1", "b2")
            return NetworkTopology(
                buses=(Bus("b1", has_capacitor=True, capacitance=1e-3), Bus("b2")),
                lines=(Line(frm, to, 1.0, 0.1),),
                loads=(Load("b1", "i_load"),),
                omega=OMEGA,
            )

        fwd = build_continuous(topo(False))
        rev = build_continuous(topo(True))
        vrow = fwd.state_index["v_b1"][0]
        icol = fwd.state_index["i_b1_b2"][0]
        icol_r = rev.state_index["i_b2_b1"][0]
        assert fwd.a[vrow, icol] == pytest.approx(-rev.a[rev.state_index["v_b1"][0], icol_r])

    def test_isolated_input_bus_rejected(self):
        topo = NetworkTopology(
            buses=(Bus("b1", has_capacitor=True, capacitance=1e-3), Bus("b2")),
            loads=(Load("b1", "i_load"),),
            omega=OMEGA,
        )
        with pytest.raises(UnrepresentableTopology):
            build_continuous(topo)

    def test_duplicate_input_id_rejected(self):
        topo = NetworkTopology(
            buses=(Bus("b1", has_capacitor=True, capacitance=1e-3),),
            loads=(Load("b1", "i_load"), Load("b1", "i_load")),
            omega=OMEGA,
        )
        with pytest.raises(DuplicateId):
            state_and_input_ids(topo)

    def test_matrices_are_read_only_and_discretize_is_shared(self, fixture4):
        cont = build_continuous(fixture4)
        for matrix in (cont.a, cont.b):
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0
        a_d, b_d = cont.discretize(0.001)
        assert cont.discretize(0.001)[0] is a_d and cont.discretize(0.001)[1] is b_d
        with pytest.raises(ValueError):
            a_d[0, 0] = 1.0
        np.testing.assert_array_equal(a_d, linalg.discretize_zoh(cont.a, cont.b, 0.001)[0])
        assert cont.discretize(0.002)[0] is not a_d

    def test_commutes_with_global_rotation(self, fixture4):
        cont = build_continuous(fixture4)
        j = rotation_block(cont.n // 2)
        np.testing.assert_allclose(cont.a @ j, j @ cont.a, atol=1e-12)

    def test_steady_state_phasor_relation(self, fixture4):
        cont = build_continuous(fixture4)
        rng = np.random.default_rng(6)
        u = rng.normal(scale=100.0, size=cont.m)
        x = np.linalg.solve(cont.a, -(cont.b @ u))
        # (R + jX) i = v_to - v_from for every line, with X = omega * L
        values = {}
        for sid, (d, q) in cont.state_index.items():
            values[sid] = complex(x[d], x[q])
        for iid, (d, q) in cont.input_index.items():
            values[iid] = complex(u[d], u[q])
        for line in fixture4.lines:
            z = line.resistance + 1j * cont.omega * line.inductance
            i = values[line.state_id]
            dv = values[f"v_{line.to_bus}"] - values[f"v_{line.from_bus}"]
            assert abs(z * i - dv) <= 1e-6 * max(abs(dv), 1.0)


class TestBuildMeasurement:
    def test_all_states_measured_identity(self):
        topo = make_cap_bus_topology()
        cont = build_continuous(topo)
        c, d, r_x, r_u, x_labels, u_labels = build_measurement(topo, cont)
        np.testing.assert_array_equal(c, np.eye(2))
        np.testing.assert_array_equal(d, np.eye(2))
        assert x_labels == ("v_b1:d", "v_b1:q")
        assert u_labels == ("i_load:d", "i_load:q")

    def test_no_input_sensors_empty_d(self):
        topo = make_cap_bus_topology()
        topo = NetworkTopology(
            buses=topo.buses,
            loads=topo.loads,
            sensors=SensorPlacement(states=topo.sensors.states, inputs=()),
            omega=topo.omega,
        )
        cont = build_continuous(topo)
        _, d, _, r_u, _, _ = build_measurement(topo, cont)
        assert d.shape == (0, 2)
        assert r_u.shape == (0, 0)

    def test_selection_rows_single_one(self, fixture4):
        cont = build_continuous(fixture4)
        c, d, *_ = build_measurement(fixture4, cont)
        for mat in (c, d):
            np.testing.assert_array_equal(np.sum(mat == 1.0, axis=1), np.ones(mat.shape[0]))
            np.testing.assert_array_equal(np.sum(mat != 0.0, axis=1), np.ones(mat.shape[0]))

    def test_line_current_sensor_selects_pair(self, fixture4):
        cont = build_continuous(fixture4)
        c, *_ = build_measurement(fixture4, cont)
        d_idx, q_idx = cont.state_index["i_b2_b3"]
        rows = np.nonzero(c[:, d_idx])[0]
        assert rows.size == 2  # the fixture duplicates this sensor
        for r in rows:
            assert c[r + 1, q_idx] == 1.0

    def test_unknown_target_rejected(self):
        topo = make_cap_bus_topology()
        bad = NetworkTopology(
            buses=topo.buses,
            loads=topo.loads,
            sensors=SensorPlacement(states=(SensorChannel("nope", 0.1),)),
            omega=topo.omega,
        )
        with pytest.raises(UnknownSensorTarget):
            build_measurement(bad, build_continuous(bad))

    def test_std_override(self):
        topo = make_cap_bus_topology(state_std=0.5)
        cont = build_continuous(topo)
        _, _, r_x, *_ = build_measurement(topo, cont, {"v_b1": 2.0})
        np.testing.assert_allclose(r_x, 4.0 * np.eye(2))


class TestBuildDiscrete:
    def test_zero_t_s_rejected(self):
        with pytest.raises(ValueError):
            build_discrete(make_cap_bus_topology(), 0.0)

    def test_rotation_only_dynamics(self):
        model = build_discrete(make_cap_bus_topology(), 0.001)
        th = OMEGA * 0.001
        np.testing.assert_allclose(
            model.a_d, [[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]], rtol=1e-9
        )

    def test_noise_specs(self):
        topo = make_cap_bus_topology()
        model = build_discrete(topo, 0.001, process_noise_std=0.3)
        np.testing.assert_allclose(model.q, 0.09 * np.eye(2))
        model = build_discrete(topo, 0.001, process_noise_std={"v_b1": 0.5})
        np.testing.assert_allclose(model.q, 0.25 * np.eye(2))
        model = build_discrete(topo, 0.001, process_noise_std=[0.1, 0.2])
        np.testing.assert_allclose(model.q, np.diag([0.01, 0.04]))

    def test_measurement_variances_are_std_squared(self):
        model = build_discrete(make_cap_bus_topology(state_std=0.3, input_std=0.7), 0.001)
        np.testing.assert_allclose(model.r_x, 0.09 * np.eye(2))
        np.testing.assert_allclose(model.r_u, 0.49 * np.eye(2))


class TestCheckJointRank:
    def test_direct_input_measurement_ok(self, fixture4):
        model = build_discrete(fixture4, 0.001)
        report = check_joint_rank(model)
        assert report.ok
        assert report.deficiency == 0

    def test_no_sensors_all_inputs_unobservable(self):
        topo = make_cap_bus_topology()
        topo = NetworkTopology(
            buses=topo.buses, loads=topo.loads, sensors=SensorPlacement(), omega=topo.omega
        )
        model = build_discrete(topo, 0.001)
        report = check_joint_rank(model)
        assert not report.ok
        assert report.deficiency == model.m
        assert report.unobservable_inputs == ("i_load",)

    def test_unmeasured_input_with_full_state_sensing_ok(self):
        topo = make_cap_bus_topology()
        topo = NetworkTopology(
            buses=topo.buses,
            loads=topo.loads,
            sensors=SensorPlacement(states=topo.sensors.states, inputs=()),
            omega=topo.omega,
        )
        model = build_discrete(topo, 0.001)
        assert check_joint_rank(model).ok  # C=I and B_d full column rank

    def test_stacked_design_layout(self):
        model = build_discrete(make_cap_bus_topology(), 0.001)
        o = stacked_design(model)
        assert o.shape == (model.n + model.l + model.p, model.n + model.m)
        np.testing.assert_array_equal(o[: model.n, : model.n], np.eye(model.n))
        np.testing.assert_allclose(o[model.n + model.l :, : model.n], model.c @ model.a_d)


class TestPartition:
    def test_two_area_shared_bus(self, fixture4):
        areas = partition(fixture4, 0.001)
        by_id = {a.area_id: a for a in areas}
        assert set(by_id) == {"east", "west"}
        for aid, other in (("east", "west"), ("west", "east")):
            area = by_id[aid]
            assert area.neighbors == (other,)
            assert area.shared_coordinates[other] == ("v_b3:d", "v_b3:q")
            li = area.model.input_index["v_b3"]
            ni = by_id[other].model.input_index["v_b3"]
            assert area.shared_inputs[other] == ((li[0], ni[0]), (li[1], ni[1]))

    def test_single_area_identical_to_centralized(self, fixture4):
        spec = AreaSpec(
            buses=tuple(b.id for b in fixture4.buses),
            lines=tuple((l.from_bus, l.to_bus) for l in fixture4.lines),
            dgus=tuple(d.at_bus for d in fixture4.dgus),
            loads=tuple(l.at_bus for l in fixture4.loads),
        )
        areas = partition(fixture4, 0.001, areas={"all": spec}, shared_buses=())
        assert len(areas) == 1
        area = areas[0]
        assert area.shared_inputs == {}
        central = build_discrete(fixture4, 0.001)
        assert area.model.state_ids == central.state_ids
        assert area.model.input_ids == central.input_ids
        np.testing.assert_array_equal(area.model.a_d, central.a_d)
        np.testing.assert_array_equal(area.model.b_d, central.b_d)
        np.testing.assert_array_equal(area.model.c, central.c)
        np.testing.assert_array_equal(area.model.d, central.d)

    def test_four_area_ring_structure(self, example13):
        areas = partition(example13, 0.001)
        assert len(areas) == 4
        for area in areas:
            assert len(area.neighbors) == 2
            shared = sorted(
                lab for labels in area.shared_coordinates.values() for lab in labels
            )
            assert len(shared) == 4  # two boundary buses, one dq pair each

    def test_partition_completeness(self, example13):
        areas = partition(example13, 0.001)
        central_states, central_inputs = state_and_input_ids(example13)
        seen_states = [sid for a in areas for sid in a.model.state_ids]
        assert sorted(seen_states) == sorted(central_states)  # disjoint cover
        shared_ids = {f"v_{b}" for b in example13.shared_buses}
        input_count = {}
        for a in areas:
            for iid in a.model.input_ids:
                input_count[iid] = input_count.get(iid, 0) + 1
        for iid in central_inputs:
            if iid in shared_ids:
                assert input_count[iid] >= 2
            else:
                assert input_count[iid] == 1

    def test_unassigned_line_rejected(self, fixture4):
        areas = {
            aid: spec for aid, spec in fixture4.areas.items()
        }
        east = areas["east"]
        areas["east"] = AreaSpec(
            buses=east.buses, lines=east.lines[:1], dgus=east.dgus, loads=east.loads
        )
        with pytest.raises(UnassignedElement):
            partition(fixture4, 0.001, areas=areas, shared_buses=fixture4.shared_buses)

    def test_undeclared_shared_bus_rejected(self, fixture4):
        with pytest.raises(NonAdjacentShare):
            partition(fixture4, 0.001, areas=fixture4.areas, shared_buses=())

    @pytest.mark.parametrize(
        "network, edit, extra_shared, error, named",
        [
            ("fixture4", lambda a: {}, (), UnassignedElement, "no areas declared"),
            (
                "fixture4",
                lambda a: {**a, "west": replace(a["west"], lines=a["west"].lines + (("b2", "b3"),))},
                (),
                UnassignedElement,
                "line ('b2', 'b3') assigned to both 'east' and 'west'",
            ),
            (
                "fixture4",
                lambda a: {**a, "west": replace(a["west"], dgus=("b1",))},
                (),
                UnassignedElement,
                "DGU at 'b1' assigned to two areas",
            ),
            (
                "fixture4",
                lambda a: {**a, "west": replace(a["west"], loads=("b4", "b2"))},
                (),
                UnassignedElement,
                "load at 'b2' assigned to two areas",
            ),
            (
                "fixture4",
                lambda a: {**a, "east": replace(a["east"], dgus=())},
                (),
                UnassignedElement,
                "DGU at 'b1' assigned to no area",
            ),
            (
                "fixture4",
                lambda a: {**a, "east": replace(a["east"], loads=())},
                (),
                UnassignedElement,
                "load at 'b2' assigned to no area",
            ),
            (
                "example13",
                lambda a: a,
                ("b8",),
                NonAdjacentShare,
                "shared bus 'b8' appears in fewer than two areas",
            ),
            (
                "fixture4",
                lambda a: {**a, "east": replace(a["east"], lines=a["east"].lines + (("b1", "b4"),))},
                (),
                UnassignedElement,
                "area 'east' references unknown lines [('b1', 'b4')]",
            ),
            (
                "fixture4",
                lambda a: {
                    **a,
                    "east": replace(a["east"], lines=(("b1", "b2"),)),
                    "west": replace(a["west"], lines=(("b2", "b3"), ("b3", "b4"))),
                },
                (),
                UnassignedElement,
                "area 'west': line i_b2_b3 endpoint 'b2' not in the area bus list",
            ),
            (
                "fixture4",
                lambda a: {
                    **a,
                    "east": replace(a["east"], dgus=()),
                    "west": replace(a["west"], dgus=("b1",)),
                },
                (),
                UnassignedElement,
                "area 'west': DGU bus 'b1' not in the area bus list",
            ),
            (
                "fixture4",
                lambda a: {
                    **a,
                    "east": replace(a["east"], loads=()),
                    "west": replace(a["west"], loads=("b4", "b2")),
                },
                (),
                UnassignedElement,
                "area 'west': load bus 'b2' not in the area bus list",
            ),
            (
                "example13",
                lambda a: {**a, "a2": replace(a["a2"], buses=a["a2"].buses + ("b8",))},
                ("b8",),
                NonAdjacentShare,
                "shared bus 'b8' is not on the boundary of area 'a2'",
            ),
        ],
        ids=[
            "no-areas",
            "line-in-two-areas",
            "dgu-in-two-areas",
            "load-in-two-areas",
            "dgu-in-no-area",
            "load-in-no-area",
            "shared-bus-in-one-area",
            "unknown-line",
            "line-endpoint-outside-area",
            "dgu-bus-outside-area",
            "load-bus-outside-area",
            "shared-bus-off-the-boundary",
        ],
    )
    def test_each_rejection_names_its_element(
        self, request, network, edit, extra_shared, error, named
    ):
        topology = request.getfixturevalue(network)
        areas = edit(dict(topology.areas))
        shared = topology.shared_buses + extra_shared
        with pytest.raises(error, match=re.escape(named)):
            partition(topology, 0.001, areas=areas, shared_buses=shared)

    def test_process_noise_per_coordinate_reaches_the_areas(self, fixture4):
        # Unequal d and q entries: each area's Q is the network's Q block.
        state_at = build_continuous(fixture4).state_index
        std = 1e-2 * np.arange(1, 2 * len(state_at) + 1)
        q = build_discrete(fixture4, 0.001, process_noise_std=std).q
        for area in partition(fixture4, 0.001, process_noise_std=std):
            cols = [i for sid in area.model.state_ids for i in state_at[sid]]
            np.testing.assert_array_equal(area.model.q, q[np.ix_(cols, cols)])

    def test_process_noise_naming_an_unknown_id_is_rejected(self, fixture4):
        for build in (build_discrete, partition):
            with pytest.raises(KeyError, match="i_nowhere"):
                build(fixture4, 0.001, process_noise_std={"i_nowhere": 0.1})

    def test_a_sensor_on_an_unknown_id_is_rejected(self, fixture4):
        # The areas select the network's sensor rows, so the network's
        # check on them holds for the areas too.
        bad = SensorPlacement(
            states=fixture4.sensors.states + (SensorChannel("i_nowhere", 0.1),),
            inputs=fixture4.sensors.inputs,
        )
        topology = replace(fixture4, sensors=bad)
        for build in (build_discrete, partition):
            with pytest.raises(UnknownSensorTarget, match="i_nowhere"):
                build(topology, 0.001)

    def test_capacitor_shared_bus_rejected(self, example13):
        areas = dict(example13.areas)
        a1, a2 = areas["a1"], areas["a2"]
        # also share the capacitor bus b3 between a1 and a2
        areas["a2"] = AreaSpec(
            buses=a2.buses + ("b3",), lines=a2.lines, dgus=a2.dgus, loads=a2.loads
        )
        with pytest.raises(UnrepresentableTopology):
            partition(
                example13, 0.001, areas=areas, shared_buses=example13.shared_buses + ("b3",)
            )
