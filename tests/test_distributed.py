"""Multi-area round tests: sharing, cross-check, fusion, transport faults."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from dsie import estimator, model, pipeline
from dsie.distributed import (
    AreaEstimator,
    LossyTransport,
    ShareMessage,
    Transport,
    cross_check,
    finalize_phase,
    fuse,
    local_phase,
    make_area_estimator,
    run_round,
)
from dsie.errors import CoordinateMismatch
from dsie.estimator import JointEstimate, dsie_step, estimate_input, initial_state
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

from conftest import assert_series_close, bundled_network_path, bundled_scenario_path, random_spd

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


class TestShareMessage:
    def test_dict_roundtrip(self):
        msg = ShareMessage(
            sender="east",
            recipient="west",
            step=3,
            coordinate_ids=("v_b3:d", "v_b3:q"),
            u_shared=np.array([1.5, -2.5]),
            p_shared=np.array([[0.1, 0.01], [0.01, 0.2]]),
            flags=(False, True),
        )
        back = ShareMessage.from_dict(msg.to_dict())
        assert back.sender == msg.sender and back.step == msg.step
        assert back.coordinate_ids == msg.coordinate_ids
        np.testing.assert_array_equal(back.u_shared, msg.u_shared)
        np.testing.assert_array_equal(back.p_shared, msg.p_shared)
        assert back.flags == msg.flags

    def test_unknown_version_rejected(self):
        with pytest.raises(CoordinateMismatch):
            ShareMessage.from_dict({"version": 99})


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
        rng = np.random.default_rng(31)
        z_u = rng.normal(size=area.model.l)
        z_x = rng.normal(size=area.model.p)
        est = make_area_estimator(area, np.zeros(area.model.n), 1.0)
        results = run_round([est], {"all": (z_u, z_x)})

        central = build_discrete(fixture4, T_S, process_noise_std=0.1)
        ref_state, ref_joint, _ = dsie_step(
            initial_state(central, np.zeros(central.n), 1.0), z_u, z_x
        )
        np.testing.assert_array_equal(results["all"].state.x_hat, ref_state.x_hat)
        np.testing.assert_array_equal(results["all"].state.p_x, ref_state.p_x)
        np.testing.assert_array_equal(results["all"].joint_fused.u_hat, ref_joint.u_hat)


def ddsie_inputs(name, **changes):
    """``run_ddsie``'s arguments for a bundled scenario, built as run_scenario builds them:
    (topology, scenario, prepared, z_x, z_u, x0_est, p0)."""
    scenario = dataclasses.replace(load_scenario(bundled_scenario_path(name)), **changes)
    topology = load_network(bundled_network_path(scenario.network))
    prepared = pipeline.prepare(topology, scenario)
    process_std = prepared.process_std if scenario.process_fraction > 0 else None
    truth = simulate_truth(prepared.continuous, scenario, process_std=process_std)
    z_x, z_u = generate_measurements(truth, prepared.model, rng_for(scenario.seed, "meas"))
    z_x, z_u = apply_attacks(z_x, z_u, scenario.attacks, prepared.model, truth.times)
    x0_est = pipeline._initial_estimate(scenario, prepared.x_steady, prepared.x_nominal)
    p0 = pipeline._initial_cov(scenario, prepared.x_nominal)
    return topology, scenario, prepared, z_x, z_u, x0_est, p0


def clear_gains(estimators):
    """Make the next round compute every gain afresh."""
    for est in estimators:
        est.state = dataclasses.replace(est.state, gains=None)
        est.fusion = None


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
        assert all(e.state.gains is not None for e in ests)  # every area reuses its gains
        ests[0].state = dataclasses.replace(ests[0].state, p_x=4.0 * ests[0].state.p_x, gains=None)
        before = [e.state for e in ests]
        run_round(ests, meas(60))
        reused = ests[0].state
        for e, state in zip(ests, before):
            e.state = state
        clear_gains(ests)
        run_round(ests, meas(60))
        assert_series_close(reused.p_x, ests[0].state.p_x, 1e-12)
        assert_series_close(reused.x_hat, ests[0].state.x_hat, 1e-12)

    def test_lossless_run_recomputes_local_gains_in_under_half_of_the_rounds(self, monkeypatch):
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


class TestFixedRowsOncePerModel:
    """The joint design's fixed rows are factored on first use, once per model,
    and never while a model is built."""

    def test_building_a_model_leaves_them_unfactored(self):
        topology, scenario, prepared, *_ = ddsie_inputs("fixture4_load_change")
        check_joint_rank(prepared.model)
        areas = partition(
            topology,
            scenario.t_s,
            process_noise_std=prepared.process_std,
            measurement_std_override=prepared.measurement_std_override,
        )
        for built in [prepared.model] + [a.model for a in areas]:
            assert not {"fixed_rows", "ab", "measurement_design"} & set(vars(built))

    def test_lossy_run_factors_each_area_model_once(self, monkeypatch):
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
        topology, scenario, *_ = ddsie_inputs(name, estimators=("ddsie",))
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
        topology, scenario, *_ = ddsie_inputs("fixture4_attack", estimators=("ddsie",))
        run = pipeline.run_scenario(topology, scenario)["series"]["runs"]["ddsie"]
        assert np.all(np.isfinite(run.x_est))


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
        topology, scenario, prepared, z_x, z_u, x0_est, p0 = ddsie_inputs(name, **changes)
        whole = dataclasses.replace(topology, areas=whole_area(topology), shared_buses=())
        run = pipeline.run_ddsie(whole, scenario, prepared, z_x, z_u, x0_est, p0)
        ref = pipeline.run_dsie(prepared.model, z_x, z_u, scenario, x0_est, p0)
        np.testing.assert_array_equal(run.x_est, ref.x_est)
        np.testing.assert_array_equal(run.mahalanobis, ref.mahalanobis)
        np.testing.assert_array_equal(run.flags, ref.flags)
        if scenario.bdd_policy == "hold":
            assert ref.flags.sum() > 0  # some steps held

    def test_areas_read_the_central_stream_by_label(self, monkeypatch):
        topology, scenario, prepared, z_x, z_u, x0_est, p0 = ddsie_inputs(
            "fixture4_load_change", duration=0.02, load_events=()
        )
        rounds = []

        def capture(estimators, measurements, transport=None):
            rounds.append(measurements)
            return run_round(estimators, measurements, transport)

        monkeypatch.setattr(pipeline, "run_round", capture)
        pipeline.run_ddsie(topology, scenario, prepared, z_x, z_u, x0_est, p0)
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
