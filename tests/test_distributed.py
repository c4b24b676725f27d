"""Multi-area round tests: sharing, cross-check, fusion, transport faults."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from dsie import distributed, estimator, linalg, model, pipeline
from dsie.distributed import (
    AreaEstimator,
    LossyTransport,
    ShareMessage,
    Transport,
    cross_check,
    finalize_phase,
    fuse,
    fusion_gains,
    local_phase,
    make_area_estimator,
    run_round,
)
from dsie.errors import CoordinateMismatch, NotPositiveDefinite
from dsie.estimator import JointEstimate, Node, dsie_step, estimate_input, initial_state, settled
from dsie.model import build_continuous, build_discrete, check_joint_rank, partition
from dsie.network import AreaSpec, load_network
from dsie.sim import (
    Scenario,
    apply_attacks,
    generate_measurements,
    load_scenario,
    rng_for,
    simulate_truth,
    steady_state,
)

from conftest import (
    assert_series_close,
    bundled_network_path,
    bundled_scenario_path,
    on_settled_node,
    random_spd,
)

T_S = 0.001

FIXTURE_INPUTS = {
    "v_b3": (480.0, 0.0),
    "v_t_b1": (492.0, 18.0),
    "i_load_b2": (60.0, -15.0),
    "i_load_b4": (40.0, -10.0),
}


def area_estimators(fixture4, noise=0.1, p0=1.0, kappa=3.0):
    areas = partition(fixture4, T_S, process_noise_std=noise)
    return [
        make_area_estimator(a, np.zeros(a.model.n), p0, kappa=kappa) for a in areas
    ]


def whole_area(topology):
    """One area, ``"all"``, that holds the whole network."""
    spec = AreaSpec(
        buses=tuple(b.id for b in topology.buses),
        lines=tuple((l.from_bus, l.to_bus) for l in topology.lines),
        dgus=tuple(d.at_bus for d in topology.dgus),
        loads=tuple(l.at_bus for l in topology.loads),
    )
    return {"all": spec}


def truth_and_streams(fixture4, steps, seed=0, noisy=True):
    """Centralized truth plus per-area measurement streams."""
    cont = build_continuous(fixture4)
    scenario = Scenario(
        network="fixture4",
        t_s=T_S,
        duration=steps * T_S,
        seed=seed,
        initial_inputs=FIXTURE_INPUTS,
        init_state="steady",
    )
    truth = simulate_truth(cont, scenario)
    areas = partition(fixture4, T_S, process_noise_std=0.1 if noisy else 1e-6)
    streams = {}
    for area in areas:
        cols_x = [i for sid in area.model.state_ids for i in cont.state_index[sid]]
        cols_u = [i for iid in area.model.input_ids for i in cont.input_index[iid]]
        local = type(truth)(times=truth.times, x=truth.x[:, cols_x], u=truth.u[:, cols_u])
        if noisy:
            z_x, z_u = generate_measurements(local, area.model, rng_for(seed, "m", area.area_id))
        else:
            z_x = local.x @ area.model.c.T
            z_u = local.u @ area.model.d.T
        streams[area.area_id] = (area, local, z_x, z_u)
    return truth, streams


class TestLocalPhase:
    def test_single_area_no_messages(self, fixture4):
        (area,) = partition(
            fixture4, T_S, process_noise_std=0.1, areas=whole_area(fixture4), shared_buses=()
        )
        est = make_area_estimator(area, np.zeros(area.model.n), 1.0)
        rng = np.random.default_rng(26)
        z_u = rng.normal(size=area.model.l)
        z_x = rng.normal(size=area.model.p)
        joint, report, messages = local_phase(est, z_u, z_x)
        assert messages == {}
        central = build_discrete(fixture4, T_S, process_noise_std=0.1)
        ref_joint, ref_report = estimate_input(
            initial_state(central, np.zeros(central.n), 1.0), z_u, z_x
        )
        np.testing.assert_array_equal(joint.x_hat, ref_joint.x_hat)
        np.testing.assert_array_equal(joint.u_hat, ref_joint.u_hat)
        assert report.distance == ref_report.distance

    def test_noise_free_shared_estimates_agree(self, fixture4):
        _, streams = truth_and_streams(fixture4, steps=3, noisy=False)
        shared = {}
        for aid, (area, local, z_x, z_u) in streams.items():
            est = make_area_estimator(area, local.x[0], 1e-6)
            joint, _, messages = local_phase(est, z_u[0], z_x[1])
            d, q = area.model.input_index["v_b3"]
            shared[aid] = (joint.u_hat[d], joint.u_hat[q])
            for msg in messages.values():
                np.testing.assert_allclose(
                    msg.u_shared, [joint.u_hat[d], joint.u_hat[q]], atol=1e-12
                )
        np.testing.assert_allclose(shared["east"], FIXTURE_INPUTS["v_b3"], atol=1e-8)
        np.testing.assert_allclose(shared["west"], FIXTURE_INPUTS["v_b3"], atol=1e-8)

    def test_marginal_covariance_matches_joint_block(self, fixture4):
        ests = area_estimators(fixture4)
        rng = np.random.default_rng(27)
        for est in ests:
            model = est.area.model
            joint, _, messages = local_phase(
                est, rng.normal(size=model.l), rng.normal(size=model.p)
            )
            for neighbor, msg in messages.items():
                idx = [model.n + li for li, _ in est.area.shared_inputs[neighbor]]
                np.testing.assert_array_equal(msg.p_shared, joint.cov[np.ix_(idx, idx)])
                assert msg.coordinate_ids == est.area.shared_coordinates[neighbor]


class TestCrossCheck:
    def _setup(self, fixture4):
        ests = area_estimators(fixture4)
        by_id = {e.area_id: e for e in ests}
        rng = np.random.default_rng(28)
        joints = {}
        messages = {}
        for est in ests:
            model = est.area.model
            joint, _, msgs = local_phase(est, rng.normal(size=model.l), rng.normal(size=model.p))
            joints[est.area_id] = joint
            messages[est.area_id] = msgs
        return by_id, joints, messages

    def test_identical_estimates_accepted(self, fixture4):
        by_id, joints, messages = self._setup(fixture4)
        east = by_id["east"]
        msg = messages["west"]["east"]
        pairs = east.area.shared_inputs["west"]
        forced = ShareMessage(
            sender="west",
            recipient="east",
            step=msg.step,
            coordinate_ids=msg.coordinate_ids,
            u_shared=joints["east"].u_hat[[li for li, _ in pairs]],
            p_shared=msg.p_shared,
            flags=(False,) * len(pairs),
        )
        check = cross_check(joints["east"], forced, east.area)
        np.testing.assert_allclose(check.difference, 0.0, atol=1e-12)
        assert all(check.accept)

    def test_large_offset_rejected(self, fixture4):
        by_id, joints, messages = self._setup(fixture4)
        east = by_id["east"]
        msg = messages["west"]["east"]
        n = east.area.model.n
        pairs = east.area.shared_inputs["west"]
        local_var = np.diag(joints["east"].cov)[[n + li for li, _ in pairs]]
        offset = 10.0 * np.sqrt(local_var + np.diag(msg.p_shared))
        shifted = ShareMessage(
            sender="west",
            recipient="east",
            step=msg.step,
            coordinate_ids=msg.coordinate_ids,
            u_shared=msg.u_shared + offset,
            p_shared=msg.p_shared,
            flags=msg.flags,
        )
        check = cross_check(joints["east"], shifted, east.area)
        assert not any(check.accept)

    def test_sender_flagged_coordinate_rejected(self, fixture4):
        by_id, joints, messages = self._setup(fixture4)
        east = by_id["east"]
        msg = messages["west"]["east"]
        pairs = east.area.shared_inputs["west"]
        flagged = ShareMessage(
            sender="west",
            recipient="east",
            step=msg.step,
            coordinate_ids=msg.coordinate_ids,
            u_shared=joints["east"].u_hat[[li for li, _ in pairs]],
            p_shared=msg.p_shared,
            flags=(True, False),
        )
        check = cross_check(joints["east"], flagged, east.area)
        assert check.accept == (False, True)

    def test_coordinate_mismatch(self, fixture4):
        by_id, joints, messages = self._setup(fixture4)
        msg = messages["west"]["east"]
        bad = ShareMessage(
            sender="west",
            recipient="east",
            step=msg.step,
            coordinate_ids=("v_qq:d", "v_qq:q"),
            u_shared=msg.u_shared,
            p_shared=msg.p_shared,
            flags=msg.flags,
        )
        with pytest.raises(CoordinateMismatch):
            cross_check(joints["east"], bad, by_id["east"].area)

    def test_acceptance_rate_under_nominal_noise(self, fixture4):
        _, streams = truth_and_streams(fixture4, steps=400, seed=1)
        ests = {
            aid: make_area_estimator(area, local.x[0], 1.0)
            for aid, (area, local, _, _) in streams.items()
        }
        # Measure the kappa gate itself: coordinates the sender flagged are
        # rejected for a different reason and excluded from the rate.
        accepted = total = 0
        for k in range(1, 401):
            meas = {aid: (streams[aid][3][k - 1], streams[aid][2][k]) for aid in streams}
            results = run_round(list(ests.values()), meas)
            flagged = {aid: res.bdd.flagged for aid, res in results.items()}
            for aid, res in results.items():
                for neighbor, check in res.cross_checks.items():
                    if flagged[neighbor]:
                        continue
                    accepted += sum(check.accept)
                    total += len(check.accept)
        assert total > 0
        assert accepted / total >= 0.99


class TestFuse:
    def test_no_messages_identity(self, fixture4):
        ests = area_estimators(fixture4)
        rng = np.random.default_rng(29)
        model = ests[0].area.model
        joint, _, _ = local_phase(ests[0], rng.normal(size=model.l), rng.normal(size=model.p))
        assert fuse(joint, [], ests[0].area) is joint

    def test_two_measurement_average_halves_variance(self, fixture4):
        ests = area_estimators(fixture4)
        east = next(e for e in ests if e.area_id == "east")
        model = east.area.model
        dim = model.n + model.m
        pairs = east.area.shared_inputs["west"]
        sigma2 = 0.3
        joint = JointEstimate(
            x_hat=np.zeros(model.n), u_hat=np.ones(model.m), cov=sigma2 * np.eye(dim)
        )
        msg = ShareMessage(
            sender="west",
            recipient="east",
            step=0,
            coordinate_ids=east.area.shared_coordinates["west"],
            u_shared=np.ones(len(pairs)),
            p_shared=sigma2 * np.eye(len(pairs)),
            flags=(False,) * len(pairs),
        )
        fused = fuse(joint, [(msg, (True,) * len(pairs))], east.area)
        for li, _ in pairs:
            idx = model.n + li
            assert fused.cov[idx, idx] == pytest.approx(sigma2 / 2.0, rel=1e-12)
        np.testing.assert_allclose(fused.u_hat, joint.u_hat, atol=1e-12)

    def test_matches_brute_force_stacked_oracle(self, fixture4):
        ests = area_estimators(fixture4)
        east = next(e for e in ests if e.area_id == "east")
        model = east.area.model
        dim = model.n + model.m
        rng = np.random.default_rng(30)
        joint = JointEstimate(
            x_hat=rng.normal(size=model.n),
            u_hat=rng.normal(size=model.m),
            cov=random_spd(rng, dim),
        )
        pairs = east.area.shared_inputs["west"]
        msg = ShareMessage(
            sender="west",
            recipient="east",
            step=0,
            coordinate_ids=east.area.shared_coordinates["west"],
            u_shared=rng.normal(size=len(pairs)),
            p_shared=random_spd(rng, len(pairs)),
            flags=(False,) * len(pairs),
        )
        fused = fuse(joint, [(msg, (True,) * len(pairs))], east.area)
        t = np.zeros((len(pairs), dim))
        for r, (li, _) in enumerate(pairs):
            t[r, model.n + li] = 1.0
        design = np.vstack([np.eye(dim), t])
        weight = sla.block_diag(joint.cov, msg.p_shared)
        obs = np.concatenate([joint.x_hat, joint.u_hat, msg.u_shared])
        gram = np.linalg.inv(design.T @ np.linalg.solve(weight, design))
        oracle = gram @ design.T @ np.linalg.solve(weight, obs)
        np.testing.assert_allclose(
            np.concatenate([fused.x_hat, fused.u_hat]), oracle, rtol=1e-10, atol=1e-12
        )
        np.testing.assert_allclose(fused.cov, gram, rtol=1e-8)

    def test_an_indefinite_local_covariance_is_fused_at_its_floored_eigenvalues(self, fixture4):
        ests = area_estimators(fixture4)
        east = next(e for e in ests if e.area_id == "east")
        dim = east.area.model.n + east.area.model.m
        idx = east.area.shared_index["west"].stacked
        rng = np.random.default_rng(46)
        cov = random_spd(rng, dim)
        cov[idx, idx] -= 20.0
        p_nb = random_spd(rng, idx.shape[0])
        u = 0.5 * (cov + cov.T)
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(u[np.ix_(idx, idx)] + p_nb)
        floored = linalg.clamp_eigenvalues(u, 1e-12 * max(np.trace(u), 1.0))
        got = fusion_gains(cov, idx, p_nb)
        expected = fusion_gains(floored, idx, p_nb)
        assert got.gain.tobytes() == expected.gain.tobytes()
        assert got.cov.tobytes() == expected.cov.tobytes()
        np.testing.assert_array_equal(got.idx, idx)

    def test_fusion_never_inflates_variance(self, fixture4):
        _, streams = truth_and_streams(fixture4, steps=5, seed=2)
        ests = {
            aid: make_area_estimator(area, local.x[0], 1.0)
            for aid, (area, local, _, _) in streams.items()
        }
        meas = {aid: (streams[aid][3][0], streams[aid][2][1]) for aid in streams}
        results = run_round(list(ests.values()), meas)
        for res in results.values():
            pre = np.diag(res.joint_local.cov)
            post = np.diag(res.joint_fused.cov)
            assert np.all(post <= pre + 1e-12)

    def test_post_fusion_consensus(self, fixture4):
        """Fusing both sides of an exchange shrinks their disagreement."""
        _, streams = truth_and_streams(fixture4, steps=5, seed=3)
        ests = {
            aid: make_area_estimator(area, local.x[0], 1.0)
            for aid, (area, local, _, _) in streams.items()
        }
        joints = {}
        messages = {}
        for aid, est in ests.items():
            z_u, z_x = streams[aid][3][0], streams[aid][2][1]
            joint, _, msgs = local_phase(est, z_u, z_x)
            joints[aid] = joint
            messages[aid] = msgs
        pre = {}
        post = {}
        for aid, other in (("east", "west"), ("west", "east")):
            est = ests[aid]
            msg = messages[other][aid]
            check = cross_check(joints[aid], msg, est.area)
            assert all(check.accept)
            pre[aid] = joints[aid]
            post[aid] = fuse(joints[aid], [(msg, check.accept)], est.area)
        for aid, other in (("east", "west"), ("west", "east")):
            pairs = ests[aid].area.shared_inputs[other]
            li = [i for i, _ in pairs]
            ni = [j for _, j in pairs]
            r_pre = np.abs(pre[aid].u_hat[li] - pre[other].u_hat[ni])
            r_post = np.abs(post[aid].u_hat[li] - post[other].u_hat[ni])
            assert np.all(r_post <= r_pre + 1e-12)


class TestRunRound:
    def test_lossless_two_areas_advance(self, fixture4):
        _, streams = truth_and_streams(fixture4, steps=3, seed=4)
        ests = [
            make_area_estimator(area, local.x[0], 1.0)
            for area, local, _, _ in streams.values()
        ]
        meas = {aid: (streams[aid][3][0], streams[aid][2][1]) for aid in streams}
        results = run_round(ests, meas)
        for est in ests:
            assert est.state.step == 1
        for res in results.values():
            assert res.missing_neighbors == ()
            assert res.cross_checks

    def test_step_mismatch_rejected(self, fixture4):
        ests = area_estimators(fixture4)
        ests[0].state = initial_state(ests[0].area.model, np.zeros(ests[0].area.model.n), 1.0)
        object.__setattr__(ests[0].state, "step", 5)
        meas = {
            e.area_id: (np.zeros(e.area.model.l), np.zeros(e.area.model.p)) for e in ests
        }
        with pytest.raises(CoordinateMismatch):
            run_round(ests, meas)

    def test_full_drop_equals_isolated(self, fixture4):
        _, streams = truth_and_streams(fixture4, steps=20, seed=5)

        def run(transport, solo):
            ests = {
                aid: make_area_estimator(area, local.x[0], 1.0)
                for aid, (area, local, _, _) in streams.items()
            }
            traj = {aid: [] for aid in ests}
            for k in range(1, 21):
                meas = {aid: (streams[aid][3][k - 1], streams[aid][2][k]) for aid in streams}
                if solo:
                    for aid, est in ests.items():
                        run_round([est], {aid: meas[aid]}, transport)
                else:
                    run_round(list(ests.values()), meas, transport)
                for aid, est in ests.items():
                    traj[aid].append(est.state.x_hat.copy())
            return {aid: np.asarray(v) for aid, v in traj.items()}

        dropped = run(LossyTransport(drop_rate=1.0, seed=0), solo=False)
        isolated = run(Transport(), solo=True)
        for aid in dropped:
            np.testing.assert_array_equal(dropped[aid], isolated[aid])

    def test_delayed_messages_are_stale_and_ignored(self, fixture4):
        _, streams = truth_and_streams(fixture4, steps=10, seed=6)
        ests = {
            aid: make_area_estimator(area, local.x[0], 1.0)
            for aid, (area, local, _, _) in streams.items()
        }
        transport = LossyTransport(drop_rate=0.0, delay_rate=1.0, seed=1)
        for k in range(1, 6):
            meas = {aid: (streams[aid][3][k - 1], streams[aid][2][k]) for aid in streams}
            results = run_round(list(ests.values()), meas, transport)
            for res in results.values():
                assert res.missing_neighbors != () or res.cross_checks == {}

    def test_moderate_drop_keeps_psd_and_tracks(self, fixture4):
        truth, streams = truth_and_streams(fixture4, steps=300, seed=7)
        ests = {
            aid: make_area_estimator(area, local.x[0], 1.0)
            for aid, (area, local, _, _) in streams.items()
        }
        transport = LossyTransport(drop_rate=0.2, seed=2)
        for k in range(1, 301):
            meas = {aid: (streams[aid][3][k - 1], streams[aid][2][k]) for aid in streams}
            run_round(list(ests.values()), meas, transport)
            for est in ests.values():
                w = np.linalg.eigvalsh(est.state.p_x)
                assert w.min() >= -1e-10 * max(np.trace(est.state.p_x), 1.0)
        for aid, est in ests.items():
            local = streams[aid][1]
            err = np.linalg.norm(est.state.x_hat - local.x[300])
            assert err <= 5.0  # stays locked on, no divergence

    def test_round_determinism(self, fixture4):
        def run():
            _, streams = truth_and_streams(fixture4, steps=30, seed=8)
            ests = {
                aid: make_area_estimator(area, local.x[0], 1.0)
                for aid, (area, local, _, _) in streams.items()
            }
            transport = LossyTransport(drop_rate=0.3, seed=3)
            for k in range(1, 31):
                meas = {aid: (streams[aid][3][k - 1], streams[aid][2][k]) for aid in streams}
                run_round(list(ests.values()), meas, transport)
            return {aid: est.state.x_hat.copy() for aid, est in ests.items()}

        a, b = run(), run()
        for aid in a:
            np.testing.assert_array_equal(a[aid], b[aid])


class TestFinalizePhase:
    def test_degenerate_single_area_equals_dsie_step(self, fixture4):
        (area,) = partition(
            fixture4, T_S, process_noise_std=0.1, areas=whole_area(fixture4), shared_buses=()
        )
        central = build_discrete(fixture4, T_S, process_noise_std=0.1)
        rng = np.random.default_rng(31)
        measurements = [
            (rng.normal(size=area.model.l), rng.normal(size=area.model.p)) for _ in range(30)
        ]
        for warm in (False, True):  # a cold table, then the one the first pass filled
            if not warm:
                estimator.gains_table.clear()
            est = make_area_estimator(area, np.zeros(area.model.n), 1.0)
            ref_state = initial_state(central, np.zeros(central.n), 1.0)
            for z_u, z_x in measurements:
                results = run_round([est], {"all": (z_u, z_x)})
                next_state, ref_joint, _ = dsie_step(ref_state, z_u, z_x)
                np.testing.assert_array_equal(results["all"].state.x_hat, next_state.x_hat)
                np.testing.assert_array_equal(results["all"].state.p_x, next_state.p_x)
                np.testing.assert_array_equal(results["all"].joint_fused.u_hat, ref_joint.u_hat)
                if settled(next_state.p_x, ref_state.p_x):  # the node rule keeps the covariance
                    next_state = dataclasses.replace(next_state, p_x=ref_state.p_x)
                ref_state = next_state
            assert on_settled_node(est.node)  # the area settled and keeps its node's gains


def ddsie_inputs(name, **changes):
    """``run_ddsie``'s arguments for a bundled scenario, built as run_scenario builds them:
    (scenario, prepared, z_x, z_u, x0_est, p0)."""
    scenario = dataclasses.replace(load_scenario(bundled_scenario_path(name)), **changes)
    topology = load_network(bundled_network_path(scenario.network))
    prepared = pipeline.prepare(topology, scenario)
    process_std = prepared.process_std if scenario.process_fraction > 0 else None
    truth = simulate_truth(prepared.continuous, scenario, process_std=process_std)
    z_x, z_u = generate_measurements(truth, prepared.model, rng_for(scenario.seed, "meas"))
    z_x, z_u = apply_attacks(z_x, z_u, scenario.attacks, prepared.model, truth.times)
    x0_est = pipeline._initial_estimate(scenario, prepared.x_steady, prepared.x_nominal)
    p0 = pipeline._initial_cov(scenario, prepared.x_nominal)
    return scenario, prepared, z_x, z_u, x0_est, p0


def clear_gains(estimators):
    """Make the next round compute every gain afresh at each state's P_x,
    sharing none: each area takes a new private node there."""
    estimator.gains_table.clear()
    for est in estimators:
        make = est.node.make
        est.node = Node(est.state.p_x, make(est.state.p_x), make)


class TestRoundGainsReuse:
    """Rounds that reuse their gains against rounds that compute them afresh.

    The Mahalanobis distances are computed from measurements about 1000
    sigma large, so rounding differences of about 1e-12 of them are
    intrinsic.
    """

    @pytest.mark.parametrize(
        "name, changes",
        [
            ("fixture4_load_change", {}),
            ("example13_load_change", {}),
            ("fixture4_load_change", {"drop_rate": 0.2, "delay_rate": 0.1, "bdd_policy": "hold"}),
        ],
    )
    def test_run_ddsie_matches_per_round_gains(self, monkeypatch, name, changes):
        inputs = ddsie_inputs(name, **changes)
        run = pipeline.run_ddsie(*inputs)

        def afresh(estimators, measurements, transport=None):
            clear_gains(estimators)
            return run_round(estimators, measurements, transport)

        monkeypatch.setattr(pipeline, "run_round", afresh)
        ref = pipeline.run_ddsie(*inputs)
        assert_series_close(run.x_est, ref.x_est, 1e-12)
        for aid, series in ref.per_area_mahalanobis.items():
            assert_series_close(run.per_area_mahalanobis[aid], series, 1e-11)
        np.testing.assert_array_equal(run.flags, ref.flags)
        if changes.get("bdd_policy") == "hold":
            assert ref.flags.sum() > 0  # some rounds held

        def decisions(rejections):
            return [(r["step"], r["area"], r["neighbor"], r["coordinate"]) for r in rejections]

        assert ref.crosscheck_rejections
        assert decisions(run.crosscheck_rejections) == decisions(ref.crosscheck_rejections)
        for key in ("difference", "threshold"):
            assert_series_close(
                [r[key] for r in run.crosscheck_rejections],
                [r[key] for r in ref.crosscheck_rejections],
                1e-11,
            )

    @pytest.mark.parametrize("drop_rate", [0.0, 0.2])
    def test_run_round_loop_matches_per_round_gains(self, fixture4, drop_rate):
        _, streams = truth_and_streams(fixture4, steps=300, seed=7)

        def run(afresh):
            ests = [
                make_area_estimator(area, local.x[0], 1.0)
                for area, local, _, _ in streams.values()
            ]
            transport = LossyTransport(drop_rate=drop_rate, seed=2)
            x, distance, accept = [], [], []
            for k in range(1, 301):
                if afresh:
                    clear_gains(ests)
                meas = {aid: (streams[aid][3][k - 1], streams[aid][2][k]) for aid in streams}
                results = run_round(ests, meas, transport)
                x.append(np.concatenate([e.state.x_hat for e in ests]))
                distance.append([results[e.area_id].bdd.distance for e in ests])
                accept.append(
                    [c.accept for e in ests for c in results[e.area_id].cross_checks.values()]
                )
            return np.asarray(x), np.asarray(distance), accept

        x, distance, accept = run(afresh=False)
        ref_x, ref_distance, ref_accept = run(afresh=True)
        assert_series_close(x, ref_x, 1e-12)
        assert_series_close(distance, ref_distance, 1e-11)
        assert accept == ref_accept

    def test_a_replaced_state_does_not_reuse_the_last_fusion(self, fixture4):
        _, streams = truth_and_streams(fixture4, steps=60, seed=7)
        ests = [
            make_area_estimator(area, local.x[0], 1.0) for area, local, _, _ in streams.values()
        ]

        def meas(k):
            return {aid: (streams[aid][3][k - 1], streams[aid][2][k]) for aid in streams}

        for k in range(1, 60):
            run_round(ests, meas(k))
        assert all(on_settled_node(e.node) for e in ests)  # every area reuses its gains
        ests[0].state = dataclasses.replace(ests[0].state, p_x=4.0 * ests[0].state.p_x)
        before = [e.state for e in ests]
        run_round(ests, meas(60))
        reused = ests[0].state
        for e, state in zip(ests, before):
            e.state = state
        clear_gains(ests)
        run_round(ests, meas(60))
        assert_series_close(reused.p_x, ests[0].state.p_x, 1e-12)
        assert_series_close(reused.x_hat, ests[0].state.x_hat, 1e-12)

    @pytest.mark.parametrize("area_id", ["east", "west"])
    def test_a_shared_round_takes_no_gains_of_other_fusion_inputs(self, fixture4, area_id):
        # One area's P0 differs between two runs: its neighbors fuse other
        # covariance blocks at an equal local covariance.
        _, streams = truth_and_streams(fixture4, steps=1, seed=7)
        meas = {aid: (streams[aid][3][0], streams[aid][2][1]) for aid in streams}

        def first_round(p0):
            ests = [
                make_area_estimator(area, local.x[0], p0 if area.area_id == area_id else 1.0)
                for area, local, _, _ in streams.values()
            ]
            results = run_round(ests, meas)
            assert all(e.node.plan is not None for e in ests)  # the round was clean
            return results

        estimator.gains_table.clear()
        first_round(1.0)
        warm = first_round(2.0)
        estimator.gains_table.clear()
        cold = first_round(2.0)
        for aid, result in cold.items():
            np.testing.assert_array_equal(warm[aid].state.p_x, result.state.p_x)
            np.testing.assert_array_equal(warm[aid].state.x_hat, result.state.x_hat)

    def test_lossless_run_recomputes_local_gains_in_under_half_of_the_rounds(self, monkeypatch):
        estimator.gains_table.clear()
        calls = []
        gains = estimator.joint_wls_gains

        def counted(*args):
            calls.append(1)
            return gains(*args)

        monkeypatch.setattr(estimator, "joint_wls_gains", counted)
        run = pipeline.run_ddsie(
            *ddsie_inputs("fixture4_load_change", duration=0.2, load_events=())
        )
        area_rounds = 200 * len(run.per_area_mahalanobis)
        assert len(run.flags) == 201
        assert len(calls) < area_rounds / 2


LOSSY_HOLD = {"drop_rate": 0.2, "delay_rate": 0.1, "bdd_policy": "hold"}


def forget_round_carry(estimators):
    """Make the next round rebuild what an area derives from covariances
    alone at its node's covariance (WLS gains, message blocks, fusion and
    Kalman gains): each area takes a new private node there."""
    for est in estimators:
        node = est.node
        est.node = Node(node.p, node.make(node.p), node.make)


class TestRoundCarry:
    """What an area keeps on its node from round to round equals what every
    round would rebuild, bit for bit."""

    @pytest.mark.parametrize("changes", [{}, LOSSY_HOLD], ids=["alert-only", "lossy-hold"])
    @pytest.mark.parametrize(
        "name", ["fixture4_load_change", "fixture4_attack", "example13_load_change"]
    )
    def test_carried_rounds_equal_rebuilt_rounds(self, monkeypatch, name, changes):
        inputs = ddsie_inputs(name, **changes)
        kept = []

        def tracked(estimators, measurements, transport=None):
            before = [e.node.gains[1] for e in estimators]
            results = run_round(estimators, measurements, transport)
            kept.append(sum(b is e.node.gains[1] for b, e in zip(before, estimators)))
            return results

        monkeypatch.setattr(pipeline, "run_round", tracked)
        run = pipeline.run_ddsie(*inputs)

        def rebuilt(estimators, measurements, transport=None):
            forget_round_carry(estimators)
            return run_round(estimators, measurements, transport)

        monkeypatch.setattr(pipeline, "run_round", rebuilt)
        ref = pipeline.run_ddsie(*inputs)
        np.testing.assert_array_equal(run.x_est, ref.x_est)
        for aid, series in ref.per_area_mahalanobis.items():
            np.testing.assert_array_equal(run.per_area_mahalanobis[aid], series, err_msg=aid)
            np.testing.assert_array_equal(run.per_area_thresholds[aid], ref.per_area_thresholds[aid])
        np.testing.assert_array_equal(run.flags, ref.flags)
        assert ref.flags.any() and ref.crosscheck_rejections

        def records(rejections):
            keys = [(r["step"], r["area"], r["neighbor"], r["coordinate"]) for r in rejections]
            values = np.array([[r["difference"], r["threshold"]] for r in rejections])
            return keys, values

        keys, values = records(run.crosscheck_rejections)
        ref_keys, ref_values = records(ref.crosscheck_rejections)
        assert keys == ref_keys
        np.testing.assert_array_equal(values, ref_values)
        if not changes:  # settled areas keep their blocks from round to round
            assert sum(kept) > len(kept)

    def test_a_changed_kappa_gates_afresh(self, fixture4):
        _, streams = truth_and_streams(fixture4, steps=60, seed=7)
        ests = [
            make_area_estimator(area, local.x[0], 1.0) for area, local, _, _ in streams.values()
        ]

        def meas(k):
            return {aid: (streams[aid][3][k - 1], streams[aid][2][k]) for aid in streams}

        for k in range(1, 60):
            run_round(ests, meas(k))
        states = [e.state for e in ests]
        widths = {}
        for forget in (False, True):
            for e, state in zip(ests, states):
                e.state, e.kappa = state, 2.0
            if forget:
                forget_round_carry(ests)
            results = run_round(ests, meas(60))
            widths[forget] = [c.threshold for r in results.values() for c in r.cross_checks.values()]
        assert len(widths[False]) == 2
        for carried, rebuilt in zip(widths[False], widths[True]):
            np.testing.assert_array_equal(carried, rebuilt)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("stream, name", [(2, "z_x_now"), (3, "z_u_prev")])
    def test_a_bad_row_after_the_gains_settle_raises(self, monkeypatch, stream, name, bad):
        inputs = list(ddsie_inputs("fixture4_load_change"))
        carried = []

        def tracked(estimators, measurements, transport=None):
            carried.append(all(on_settled_node(e.node) for e in estimators))
            return run_round(estimators, measurements, transport)

        monkeypatch.setattr(pipeline, "run_round", tracked)
        pipeline.run_ddsie(*inputs)
        last = max(k for k, c in enumerate(carried, 1) if c)  # a late round that carries its gains
        assert last > 300
        inputs[stream] = inputs[stream].copy()
        inputs[stream][last - (stream == 3), 0] = bad  # round k reads z_x row k and z_u row k - 1
        carried.clear()
        with pytest.raises(ValueError, match=f"{name} contains NaN or Inf"):
            pipeline.run_ddsie(*inputs)
        assert len(carried) == last and carried[-1]


class TestGateWidths:
    """An area's node keeps each neighbour's kappa-sigma gate widths, with
    the block and kappa they were taken from (``cross_check``)."""

    def test_a_settled_round_reuses_them_and_a_changed_block_recomputes_them(
        self, monkeypatch, fixture4
    ):
        _, streams = truth_and_streams(fixture4, steps=62, seed=7)
        ests = [
            make_area_estimator(area, local.x[0], 1.0) for area, local, _, _ in streams.values()
        ]

        def meas(k):
            return {aid: (streams[aid][3][k - 1], streams[aid][2][k]) for aid in streams}

        for k in range(1, 60):
            run_round(ests, meas(k))
        assert all(on_settled_node(e.node) for e in ests)
        checked = []

        def recorded(local, msg, area, kappa=3.0, node=None):
            report = cross_check(local, msg, area, kappa, node)
            checked.append((msg.sender, report, cross_check(local, msg, area, kappa)))
            return report

        monkeypatch.setattr(distributed, "cross_check", recorded)

        def widths(k):
            """Each area's gate widths by sender in round k, each equal to a
            fresh cross-check's bit for bit."""
            checked.clear()
            run_round(ests, meas(k))
            assert len(checked) == 2
            for _, report, fresh in checked:
                np.testing.assert_array_equal(report.threshold, fresh.threshold)
                np.testing.assert_array_equal(report.difference, fresh.difference)
                assert report.accept == fresh.accept
            return {sender: report.threshold for sender, report, _ in checked}

        nodes = [e.node for e in ests]
        first = widths(60)
        second = widths(61)
        assert [e.node for e in ests] == nodes  # both rounds clean and settled
        for sender, threshold in second.items():
            assert threshold is first[sender]
            assert not threshold.flags.writeable
        sender = ests[0]
        sender.state = dataclasses.replace(sender.state, p_x=4.0 * sender.state.p_x)
        third = widths(62)  # the sender takes a new node and sends another block
        changed = third[sender.area_id]
        assert changed is not second[sender.area_id]
        assert not np.array_equal(changed, second[sender.area_id])


class TestRunDdsieSeries:
    """``run_ddsie`` gathers its series from the rounds' results as the
    per-step code below, which wrote each round into the run's arrays,
    does, bit for bit."""

    @pytest.mark.parametrize("changes", [{}, LOSSY_HOLD], ids=["bundled", "lossy-hold"])
    def test_the_series_equal_the_per_step_code(self, monkeypatch, changes):
        scenario, prepared, z_x, z_u, x0_est, p0 = inputs = ddsie_inputs("fixture4_attack", **changes)
        rounds = []

        def recorded(estimators, measurements, transport=None):
            rounds.append(run_round(estimators, measurements, transport))
            return rounds[-1]

        monkeypatch.setattr(pipeline, "run_round", recorded)
        run = pipeline.run_ddsie(*inputs)
        steps = z_x.shape[0] - 1
        assert len(rounds) == steps

        state_index = prepared.continuous.state_index
        cols = {
            a.area_id: [i for sid in a.model.state_ids for i in state_index[sid]]
            for a in prepared.areas
        }
        x_est = np.zeros((steps + 1, prepared.continuous.n))
        for c in cols.values():
            x_est[0, c] = x0_est[c]
        mahal = np.zeros(steps + 1)
        thresholds = np.zeros(steps + 1)
        thresholds[0] = np.inf
        flags = np.zeros(steps + 1, dtype=bool)
        per_area = {aid: np.zeros(steps + 1) for aid in cols}
        per_area_thresholds = {aid: np.full(steps + 1, np.inf) for aid in cols}
        rejections = []
        for k, round_results in enumerate(rounds, 1):
            results = sorted(round_results.items())
            for aid, res in results:
                x_est[k, cols[aid]] = res.state.x_hat
                per_area[aid][k] = res.bdd.distance
                per_area_thresholds[aid][k] = res.bdd.threshold
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
            worst = max((res.bdd for _, res in results), key=lambda r: r.distance / r.threshold)
            mahal[k], thresholds[k] = worst.distance, worst.threshold

        np.testing.assert_array_equal(run.x_est, x_est)
        np.testing.assert_array_equal(run.mahalanobis, mahal)
        np.testing.assert_array_equal(run.thresholds, thresholds)
        np.testing.assert_array_equal(run.flags, flags)
        assert run.per_area_mahalanobis.keys() == per_area.keys()
        for aid, series in per_area.items():
            np.testing.assert_array_equal(run.per_area_mahalanobis[aid], series)
            np.testing.assert_array_equal(run.per_area_thresholds[aid], per_area_thresholds[aid])
        assert run.crosscheck_rejections == rejections
        assert flags.any() and rejections

    def test_a_tied_share_takes_the_pair_of_the_first_area_by_id(self, monkeypatch):
        inputs = ddsie_inputs("fixture4_load_change", duration=0.005, load_events=())

        def tied(estimators, measurements, transport=None):
            results = run_round(estimators, measurements, transport)
            for i, aid in enumerate(sorted(results, reverse=True), 1):
                results[aid].bdd = estimator.BddReport(float(i), 2.0 * i, False, 1)
            return results

        monkeypatch.setattr(pipeline, "run_round", tied)
        run = pipeline.run_ddsie(*inputs)
        first = min(run.per_area_mahalanobis)
        np.testing.assert_array_equal(run.mahalanobis, run.per_area_mahalanobis[first])
        np.testing.assert_array_equal(run.thresholds, run.per_area_thresholds[first])
        assert len(run.per_area_mahalanobis) == 2 and run.mahalanobis[1] == 2.0


class TestGivenCovariancesOnlyAreValidated:
    """``linalg.symmetrize_psd`` checks the covariances a run is given: each
    initial P0, and the tracking Q once per tracking gains computation. The
    covariances a cycle computes are symmetrized only."""

    def test_runs_validate_only_the_given_covariances(self, monkeypatch):
        estimator.gains_table.clear()
        validated, tse_gains_calls = [], []
        symmetrize, tse_gains = linalg.symmetrize_psd, estimator.tse_gains

        def counted_symmetrize(p):
            validated.append(1)
            return symmetrize(p)

        def counted_tse_gains(*args):
            tse_gains_calls.append(1)
            return tse_gains(*args)

        monkeypatch.setattr(linalg, "symmetrize_psd", counted_symmetrize)
        monkeypatch.setattr(estimator, "tse_gains", counted_tse_gains)
        inputs = ddsie_inputs("fixture4_load_change", drop_rate=0.2, delay_rate=0.1, bdd_policy="hold")
        scenario, prepared, z_x, z_u, x0_est, p0 = inputs
        pipeline.run_dsie(prepared.model, z_x, z_u, scenario, x0_est, p0)
        assert len(validated) == 1

        validated.clear()
        nominal = np.concatenate([prepared.x_nominal, prepared.u_nominal])
        pipeline.run_tse(prepared.model, z_x, z_u, scenario, x0_est, prepared.u0, nominal)
        assert len(tse_gains_calls) > 1
        assert len(validated) == 1 + len(tse_gains_calls)

        validated.clear()
        run = pipeline.run_ddsie(*inputs)
        assert len(validated) == len(run.per_area_mahalanobis)


class TestFixedRowsOncePerModel:
    """The joint design's fixed rows are factored on first use, once per model,
    and never while a model is built."""

    def test_building_a_model_leaves_them_unfactored(self):
        estimator.gains_table.clear()  # a model no earlier test has used
        scenario, prepared, *_ = ddsie_inputs("fixture4_load_change")
        check_joint_rank(prepared.model)
        areas = partition(
            prepared.topology,
            scenario.t_s,
            process_noise_std=prepared.process_std,
            measurement_std_override=prepared.measurement_std_override,
        )
        for built in [prepared.model] + [a.model for a in areas]:
            assert not {"fixed_rows", "ab", "measurement_design", "content"} & set(vars(built))

    def test_lossy_run_factors_each_area_model_once(self, monkeypatch):
        estimator.gains_table.clear()
        factored, calls = [], []
        factor, gains = model.factor_fixed_rows, estimator.joint_wls_gains

        def counted_factor(m):
            factored.append(id(m))
            return factor(m)

        def counted_gains(*args):
            calls.append(1)
            return gains(*args)

        monkeypatch.setattr(model, "factor_fixed_rows", counted_factor)
        monkeypatch.setattr(estimator, "joint_wls_gains", counted_gains)
        run = pipeline.run_ddsie(
            *ddsie_inputs("fixture4_load_change", drop_rate=0.2, bdd_policy="hold")
        )
        areas = len(run.per_area_mahalanobis)
        assert len(set(factored)) == len(factored) == areas
        assert len(calls) > 0.95 * (len(run.flags) - 1) * areas  # gains on nearly every round


class TestDdsiePipeline:
    @pytest.mark.parametrize("name", ["fixture4_load_change", "example13_load_change"])
    def test_run_scenario_runs_ddsie(self, name):
        scenario, prepared, *_ = ddsie_inputs(name, estimators=("ddsie",))
        topology = prepared.topology
        result = pipeline.run_scenario(topology, scenario)
        run = result["series"]["runs"]["ddsie"]
        assert run.x_est.shape == result["series"]["truth"].x.shape
        assert np.all(np.isfinite(run.x_est))
        area_ids = {a.area_id for a in partition(topology, scenario.t_s)}
        assert len(area_ids) > 1
        assert set(run.per_area_mahalanobis) == area_ids
        for series in run.per_area_mahalanobis.values():
            assert series.shape == (scenario.steps + 1,)
            assert np.all(np.isfinite(series))
        assert np.isfinite(result["report"]["methods"]["ddsie"]["mse_state_mean"])

    def test_run_scenario_runs_ddsie_under_attack(self):
        """Finite estimates, and a flag within one step of the onset, as
        criterion 6 asks of dsie."""
        scenario, prepared, *_ = ddsie_inputs("fixture4_attack", estimators=("ddsie",))
        run = pipeline.run_scenario(prepared.topology, scenario)["series"]["runs"]["ddsie"]
        assert np.all(np.isfinite(run.x_est))
        onset = int(round(scenario.attacks[0].start / scenario.t_s))
        hits = np.nonzero(run.flags[onset:])[0]
        assert hits.size and hits[0] <= 1


class TestOneStream:
    """Every area reads its channels out of the run's one measurement stream."""

    @pytest.mark.parametrize(
        "name, changes",
        [
            ("fixture4_load_change", {}),
            ("fixture4_attack", {}),
            ("example13_load_change", {}),
            ("fixture4_attack", {"bdd_policy": "hold", "bdd_zeta": 5.0}),
            ("fixture4_load_change", {"init_state": "zero"}),
        ],
    )
    def test_single_area_run_equals_dsie(self, name, changes):
        scenario, prepared, z_x, z_u, x0_est, p0 = ddsie_inputs(name, **changes)
        topology = prepared.topology
        whole = dataclasses.replace(topology, areas=whole_area(topology), shared_buses=())
        run = pipeline.run_ddsie(
            scenario, pipeline.prepare(whole, scenario), z_x, z_u, x0_est, p0
        )
        ref = pipeline.run_dsie(prepared.model, z_x, z_u, scenario, x0_est, p0)
        np.testing.assert_array_equal(run.x_est, ref.x_est)
        np.testing.assert_array_equal(run.mahalanobis, ref.mahalanobis)
        np.testing.assert_array_equal(run.flags, ref.flags)
        if scenario.bdd_policy == "hold":
            assert ref.flags.sum() > 0  # some steps held

    def test_areas_read_the_central_stream_by_label(self, monkeypatch):
        scenario, prepared, z_x, z_u, x0_est, p0 = ddsie_inputs(
            "fixture4_load_change", duration=0.02, load_events=()
        )
        topology = prepared.topology
        rounds = []

        def capture(estimators, measurements, transport=None):
            rounds.append(measurements)
            return run_round(estimators, measurements, transport)

        monkeypatch.setattr(pipeline, "run_round", capture)
        pipeline.run_ddsie(scenario, prepared, z_x, z_u, x0_est, p0)
        assert len(rounds) == scenario.steps

        def central_rows(labels, central):
            """The central row of each label; the i-th repeat of a label is its i-th row."""
            rows = []
            for j, label in enumerate(labels):
                repeat = labels[:j].count(label)
                rows.append([i for i, c in enumerate(central) if c == label][repeat])
            return rows

        areas = {a.area_id: a.model for a in partition(topology, scenario.t_s)}
        for k, measurements in enumerate(rounds, start=1):
            for aid, (z_u_prev, z_x_now) in measurements.items():
                rows_u = central_rows(areas[aid].z_u_labels, prepared.model.z_u_labels)
                rows_x = central_rows(areas[aid].z_x_labels, prepared.model.z_x_labels)
                np.testing.assert_array_equal(z_u_prev, z_u[k - 1, rows_u])
                np.testing.assert_array_equal(z_x_now, z_x[k, rows_x])

            def shared(aid):
                labels = areas[aid].z_u_labels
                z_u_prev = measurements[aid][0]
                return [z_u_prev[labels.index(f"v_b3:{c}")] for c in "dq"]

            assert shared("east") == shared("west")

        east = areas["east"].z_x_labels
        rows = central_rows(east, prepared.model.z_x_labels)
        z_x_now = rounds[0]["east"][1]
        for label in ("i_b2_b3:d", "v_b2:q"):
            first, second = [j for j, lab in enumerate(east) if lab == label]
            assert rows[first] != rows[second]
            assert z_x_now[first] != z_x_now[second]
