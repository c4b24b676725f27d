"""Estimator cycle tests: joint WLS, bad-data gate, predict/update, baselines."""

import dataclasses
import math
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.stats import chi2

from dsie.estimator import (
    BddConfig,
    JointEstimate,
    detect_bad_data,
    dsie_step,
    estimate_input,
    initial_state,
    initial_tse_state,
    predict,
    tse_step,
    update,
    wls_snapshot,
)
from dsie import estimator, linalg, pipeline
from dsie.errors import DimensionMismatch, NotPositiveDefinite, RankDeficient
from dsie.model import DiscreteModel, build_continuous, build_discrete, partition, stacked_design
from dsie.network import load_network
from dsie.sim import (
    apply_attacks,
    craft_stealthy_attack,
    generate_measurements,
    load_scenario,
    rng_for,
    simulate_truth,
)

from conftest import (
    assert_same_bits,
    assert_series_close,
    bundled_network_path,
    bundled_scenario_path,
    make_cap_bus_topology,
    plan_bytes,
    plan_walk,
    random_spd,
)


def small_model(state_std=0.1, input_std=0.1, process_std=0.05):
    return build_discrete(
        make_cap_bus_topology(state_std=state_std, input_std=input_std),
        0.001,
        process_noise_std=process_std,
    )


def bundled_model(scenario_name, area=None):
    """The centralized model of a bundled scenario, or one area's, as the runs build them."""
    scenario = load_scenario(bundled_scenario_path(scenario_name))
    topology = load_network(bundled_network_path(scenario.network))
    prepared = pipeline.prepare(topology, scenario)
    if area is None:
        return prepared.model
    areas = partition(
        topology,
        scenario.t_s,
        process_noise_std=prepared.process_std,
        measurement_std_override=prepared.measurement_std_override,
    )
    return next(a.model for a in areas if a.area_id == area)


def random_joint_model(rng, n, m, l, p):
    """A dense random model; its joint design has full column rank almost surely."""
    return DiscreteModel(
        a_d=rng.normal(size=(n, n)),
        b_d=rng.normal(size=(n, m)),
        c=rng.normal(size=(p, n)),
        d=rng.normal(size=(l, m)),
        q=random_spd(rng, n),
        r_x=random_spd(rng, p),
        r_u=random_spd(rng, l),
        t_s=0.001,
        state_ids=tuple(f"x{i}" for i in range(n // 2)),
        input_ids=tuple(f"u{i}" for i in range(m // 2)),
    )


def joint_weight(model, p_x):
    return sla.block_diag(p_x, model.r_u, model.c @ model.q @ model.c.T + model.r_x)


def assert_matches_stacked_wls_oracle(model):
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=model.n)
    p0 = random_spd(rng, model.n)
    z_u = rng.normal(size=model.l)
    z_x = rng.normal(size=model.p)
    state = initial_state(model, x0, p0)
    joint, _ = estimate_input(state, z_u, z_x)
    design = stacked_design(model)
    weight = joint_weight(model, state.p_x)
    obs = np.concatenate([state.x_hat, z_u, z_x])
    gram = np.linalg.inv(design.T @ np.linalg.solve(weight, design))
    oracle = gram @ design.T @ np.linalg.solve(weight, obs)
    np.testing.assert_allclose(np.concatenate([joint.x_hat, joint.u_hat]), oracle, rtol=1e-9)
    np.testing.assert_allclose(joint.cov, gram, rtol=1e-8)


def simulate(model, x0, u_seq, rng=None):
    """Exact (optionally noisy) rollout of the discrete model."""
    steps = len(u_seq)
    x = np.zeros((steps + 1, model.n))
    x[0] = x0
    for k in range(steps):
        w = rng.multivariate_normal(np.zeros(model.n), model.q) if rng is not None else 0.0
        x[k + 1] = model.a_d @ x[k] + model.b_d @ u_seq[k] + w
    return x


class TestEstimateInput:
    def test_exact_on_noise_free_data(self):
        model = small_model(state_std=1e-3, input_std=1e-3, process_std=1e-3)
        rng = np.random.default_rng(7)
        u = rng.normal(scale=5.0, size=model.m)
        x0 = rng.normal(scale=10.0, size=model.n)
        x1 = model.a_d @ x0 + model.b_d @ u
        state = initial_state(model, x0, 1e-6)
        joint, report = estimate_input(state, model.d @ u, model.c @ x1)
        np.testing.assert_allclose(joint.u_hat, u, atol=1e-8)
        np.testing.assert_allclose(joint.x_hat, x0, atol=1e-8)
        assert report.distance == pytest.approx(0.0, abs=1e-6)
        assert not report.flagged

    def test_scale_invariance_of_estimate(self):
        model = small_model()
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=model.n)
        z_u = rng.normal(size=model.l)
        z_x = rng.normal(size=model.p)
        scaled = DiscreteModel(
            a_d=model.a_d,
            b_d=model.b_d,
            c=model.c,
            d=model.d,
            q=model.q * 1e-4,
            r_x=model.r_x * 1e-4,
            r_u=model.r_u * 1e-4,
            t_s=model.t_s,
            state_ids=model.state_ids,
            input_ids=model.input_ids,
        )
        j1, _ = estimate_input(initial_state(model, x0, 2.0), z_u, z_x)
        j2, _ = estimate_input(initial_state(scaled, x0, 2.0e-4), z_u, z_x)
        np.testing.assert_allclose(j1.u_hat, j2.u_hat, rtol=1e-8)
        np.testing.assert_allclose(j1.x_hat, j2.x_hat, rtol=1e-8)

    def test_direct_measurement_dominates(self):
        model = small_model()
        near_direct = DiscreteModel(
            a_d=model.a_d,
            b_d=model.b_d,
            c=model.c,
            d=np.eye(model.m),
            q=model.q,
            r_x=model.r_x,
            r_u=1e-12 * np.eye(model.m),
            t_s=model.t_s,
            state_ids=model.state_ids,
            input_ids=model.input_ids,
        )
        rng = np.random.default_rng(9)
        z_u = rng.normal(scale=3.0, size=model.m)
        z_x = rng.normal(size=model.p)
        joint, _ = estimate_input(initial_state(near_direct, np.zeros(model.n), 1.0), z_u, z_x)
        np.testing.assert_allclose(joint.u_hat, z_u, atol=1e-6)

    def test_matches_stacked_wls_oracle(self):
        assert_matches_stacked_wls_oracle(small_model())

    @pytest.mark.parametrize(
        "scenario, area",
        [
            ("fixture4_load_change", None),
            ("fixture4_load_change", "east"),
            ("fixture4_load_change", "west"),
            ("example13_load_change", None),
            ("example13_load_change", "a1"),
        ],
    )
    def test_matches_stacked_wls_oracle_on_bundled_models(self, scenario, area):
        # The per-model fixed-row QR on the shapes the runs use (None: centralized).
        assert_matches_stacked_wls_oracle(bundled_model(scenario, area))

    def test_monte_carlo_input_covariance_consistency(self):
        model = small_model(state_std=0.2, input_std=0.3, process_std=0.1)
        rng = np.random.default_rng(11)
        x_prev = np.array([4.0, -2.0])
        u_true = np.array([1.5, 0.5])
        p_prior = 0.04 * np.eye(model.n)
        errors = []
        reported = None
        for _ in range(1000):
            x_hat_prev = rng.multivariate_normal(x_prev, p_prior)
            w = rng.multivariate_normal(np.zeros(model.n), model.q)
            x_now = model.a_d @ x_prev + model.b_d @ u_true + w
            z_u = model.d @ u_true + rng.multivariate_normal(np.zeros(model.l), model.r_u)
            z_x = model.c @ x_now + rng.multivariate_normal(np.zeros(model.p), model.r_x)
            state = initial_state(model, x_hat_prev, p_prior)
            joint, _ = estimate_input(state, z_u, z_x)
            errors.append(joint.u_hat - u_true)
            reported = joint.p_u
        empirical = np.cov(np.asarray(errors).T)
        np.testing.assert_allclose(np.diag(empirical), np.diag(reported), rtol=0.25)

    def test_dimension_mismatch(self):
        model = small_model()
        state = initial_state(model, np.zeros(model.n), 1.0)
        with pytest.raises(DimensionMismatch):
            estimate_input(state, np.zeros(model.l + 1), np.zeros(model.p))

    @pytest.mark.parametrize(
        "form",
        [
            list,
            lambda v: np.asarray(v, dtype=float).reshape(1, -1),
            lambda v: np.asarray(v, dtype=float).astype(int),
            lambda v: np.asarray(v, dtype=float),
        ],
        ids=["list", "2-D row", "int array", "float array"],
    )
    @pytest.mark.parametrize("which", ["z_u_prev", "z_x_now"])
    def test_a_measurement_row_in_any_form_is_checked_alike(self, form, which):
        # Rows that are already 1-D float64 arrays are used as they are; any
        # other form is converted first. Each gets the same checks.
        model = small_model()
        state = initial_state(model, np.zeros(model.n), 1.0)
        rows = {"z_u_prev": [1.0] * model.l, "z_x_now": [2.0] * model.p}
        length = len(rows[which])

        def observe(row):
            return estimator._observation(state, **{**rows, which: form(row)})

        expected = np.concatenate([state.x_hat, rows["z_u_prev"], rows["z_x_now"]])
        assert observe(rows[which]).tobytes() == expected.tobytes()
        with pytest.raises(DimensionMismatch) as raised:
            observe([3.0] * (length + 1))
        assert str(raised.value) == f"{which} must have length {length}, got {length + 1}"
        if np.asarray(form(rows[which])).dtype == float:  # an int array holds no NaN
            with pytest.raises(ValueError) as raised:
                observe([np.nan] + [3.0] * (length - 1))
            assert str(raised.value) == f"{which} contains NaN or Inf entries"

    def test_a_finite_measurement_whose_square_overflows_passes_the_finite_check(self):
        # The check is the measurements' sum of squares, and each entry only
        # when that is not finite, where a bad one is named.
        model = small_model()
        state = initial_state(model, np.zeros(model.n), 1.0)
        z_u = np.zeros(model.l)
        z_u[0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
            joint, _ = estimate_input(state, z_u, np.zeros(model.p))
        assert joint.u_hat.shape == (model.m,)
        z_u[0] = np.nan
        with pytest.raises(ValueError, match="z_u_prev contains NaN or Inf"):
            estimate_input(state, z_u, np.zeros(model.p))

    def test_rank_deficient_names_inputs(self):
        model = small_model()
        blind = DiscreteModel(
            a_d=model.a_d,
            b_d=model.b_d,
            c=np.zeros((0, model.n)),
            d=np.zeros((0, model.m)),
            q=model.q,
            r_x=np.zeros((0, 0)),
            r_u=np.zeros((0, 0)),
            t_s=model.t_s,
            state_ids=model.state_ids,
            input_ids=model.input_ids,
        )
        state = initial_state(blind, np.zeros(model.n), 1.0)
        with pytest.raises(RankDeficient, match="i_load"):
            estimate_input(state, np.zeros(0), np.zeros(0))


class TestDetectBadData:
    def test_gross_error_flagged(self):
        model = small_model()
        rng = np.random.default_rng(12)
        u = np.array([2.0, -1.0])
        x0 = np.array([5.0, 1.0])
        x1 = model.a_d @ x0 + model.b_d @ u
        state = initial_state(model, x0, 0.01)
        z_x = model.c @ x1
        z_x[0] += 50.0 * np.sqrt(model.r_x[0, 0])
        joint, report = estimate_input(state, model.d @ u, z_x)
        assert report.flagged
        assert report.distance > report.threshold

    def test_threshold_is_chi_square_quantile(self):
        cfg = BddConfig(alpha=0.01)
        assert cfg.threshold(4) == pytest.approx(np.sqrt(chi2.ppf(0.99, 4)))
        assert BddConfig(zeta=7.5).threshold(4) == 7.5
        assert BddConfig().threshold(0) == np.inf

    def test_threshold_equals_the_scipy_stats_quantile_bit_for_bit(self):
        # The design levels, and the Sidak levels of 2-8 areas at 0.01
        # (``pipeline._area_bdd``), at every dof up to 399: 4,389 pairs.
        levels = [0.001, 0.01, 0.05, 0.1]
        levels += [-math.expm1(math.log1p(-0.01) / areas) for areas in range(2, 9)]
        dofs = np.arange(1, 400)
        for alpha in levels:
            expected = np.sqrt(chi2.ppf(1.0 - alpha, dofs))
            got = [estimator._chi2_threshold(alpha, int(dof)) for dof in dofs]
            np.testing.assert_array_equal(got, expected)

    def test_dof_counts_redundancy(self):
        model = small_model()
        state = initial_state(model, np.zeros(model.n), 1.0)
        _, report = estimate_input(state, np.zeros(model.l), np.zeros(model.p))
        assert report.dof == (model.n + model.l + model.p) - (model.n + model.m)

    def test_no_fallback_on_consistent_system(self):
        model = small_model()
        state = initial_state(model, np.zeros(model.n), 1.0)
        _, report = estimate_input(state, np.zeros(model.l), np.ones(model.p))
        assert not report.diagonal_fallback
        assert np.isfinite(report.distance)

    @pytest.mark.parametrize("seed", range(3))
    def test_screening_the_joint_estimate_reproduces_the_gains_report(self, seed):
        rng = np.random.default_rng(seed)
        model = random_joint_model(rng, 6, 4, 2, 4)
        state = initial_state(model, rng.normal(size=model.n), random_spd(rng, model.n))
        z_u, z_x = rng.normal(size=model.l), rng.normal(size=model.p)
        joint, report = estimate_input(state, z_u, z_x)
        observation = np.concatenate([state.x_hat, z_u, z_x])
        weight = joint_weight(model, state.p_x)
        screened = detect_bad_data(joint, observation, stacked_design(model), weight, BddConfig())
        assert screened.distance == pytest.approx(report.distance, rel=1e-9)
        assert (screened.dof, screened.threshold) == (report.dof, report.threshold)
        assert not screened.diagonal_fallback


class TestIndefiniteCovariance:
    def test_an_indefinite_p_x_gets_the_gains_of_its_floored_eigenvalues(self):
        model = bundled_model("fixture4_load_change", "east")
        rng = np.random.default_rng(45)
        q, _ = np.linalg.qr(rng.normal(size=(model.n, model.n)))
        p_x = (q * np.linspace(-0.5, 2.0, model.n)) @ q.T
        p = 0.5 * (p_x + p_x.T)
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(p)
        floored = linalg.clamp_eigenvalues(p, estimator._P_FLOOR * max(np.trace(p), 1.0))
        got = estimator.joint_wls_gains(model, p_x, BddConfig())
        expected = estimator.joint_wls_gains(model, floored, BddConfig())
        for name in ("wls", "cov", "whiten"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes()
        assert (got.dof, got.threshold) == (expected.dof, expected.threshold)


class TestResidualDistance:
    """The gains' distance is the weighted residual sum of squares r' W^-1 r,
    which equals r' S^+ r for the residual covariance S = W - O U O'."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n, m, l, p", [(2, 2, 2, 2), (4, 2, 0, 4), (6, 4, 2, 4), (6, 2, 2, 6)])
    def test_joint_distance_is_residual_pseudo_inverse_form(self, seed, n, m, l, p):
        rng = np.random.default_rng(seed)
        model = random_joint_model(rng, n, m, l, p)
        p_x = random_spd(rng, n)
        z = rng.normal(size=n + l + p)
        gains = estimator.joint_wls_gains(model, p_x, BddConfig())
        _, distance = estimator.apply_wls(gains, z)

        design = stacked_design(model)
        weight = joint_weight(model, p_x)
        u = np.linalg.inv(design.T @ np.linalg.solve(weight, design))
        residual = z - design @ (u @ design.T @ np.linalg.solve(weight, z))
        s = weight - design @ u @ design.T
        # S has rank dof; cut its pseudo-inverse at that rank, not at rounding.
        eigs = np.sort(np.abs(np.linalg.eigvalsh(s)))[::-1]
        assert gains.dof == l + p - m
        assert eigs[gains.dof - 1] > 1e-6 * eigs[0] and eigs[gains.dof] < 1e-12 * eigs[0]
        oracle = np.sqrt(residual @ np.linalg.pinv(s, rtol=1e-10, hermitian=True) @ residual)
        assert distance == pytest.approx(oracle, rel=1e-9)
        assert distance == pytest.approx(np.sqrt(residual @ np.linalg.solve(weight, residual)), rel=1e-9)

    def test_snapshot_distance_is_weighted_residual_sum_of_squares(self):
        rng = np.random.default_rng(3)
        model = random_joint_model(rng, 4, 2, 4, 6)
        z_x, z_u = rng.normal(size=model.p), rng.normal(size=model.l)
        result = wls_snapshot(z_x, z_u, model)
        h, r = sla.block_diag(model.c, model.d), sla.block_diag(model.r_x, model.r_u)
        residual = np.concatenate([z_x, z_u]) - h @ np.concatenate([result.x_hat, result.u_hat])
        assert result.bdd.dof == 4
        assert result.bdd.distance == pytest.approx(np.sqrt(residual @ np.linalg.solve(r, residual)), rel=1e-9)

    def test_zero_dof_reports_distance_zero_and_infinite_threshold(self):
        rng = np.random.default_rng(4)
        model = random_joint_model(rng, 2, 2, 2, 0)  # n + l + p = n + m rows
        state = initial_state(model, rng.normal(size=2), random_spd(rng, 2))
        _, report = estimate_input(state, rng.normal(size=2), np.zeros(0))
        assert (report.dof, report.distance, report.threshold, report.flagged) == (0, 0.0, np.inf, False)
        snapshot = wls_snapshot(rng.normal(size=2), rng.normal(size=2), random_joint_model(rng, 2, 2, 2, 2))
        assert (snapshot.bdd.dof, snapshot.bdd.distance, snapshot.bdd.threshold) == (0, 0.0, np.inf)


class TestPredictUpdate:
    def test_static_system(self):
        model = small_model()
        static = DiscreteModel(
            a_d=np.eye(model.n),
            b_d=np.zeros((model.n, model.m)),
            c=model.c,
            d=model.d,
            q=np.zeros((model.n, model.n)),
            r_x=model.r_x,
            r_u=model.r_u,
            t_s=model.t_s,
            state_ids=model.state_ids,
            input_ids=model.input_ids,
        )
        rng = np.random.default_rng(13)
        cov = random_spd(rng, model.n + model.m)
        joint = JointEstimate(
            x_hat=rng.normal(size=model.n), u_hat=rng.normal(size=model.m), cov=cov
        )
        x_pred, p_pred = predict(joint, static)
        np.testing.assert_allclose(x_pred, joint.x_hat)
        np.testing.assert_allclose(p_pred, joint.p_x, rtol=1e-12, atol=1e-14)

    def test_decoupled_covariance_expansion(self):
        model = small_model()
        rng = np.random.default_rng(14)
        p_x = random_spd(rng, model.n)
        p_u = random_spd(rng, model.m)
        joint = JointEstimate(
            x_hat=rng.normal(size=model.n),
            u_hat=rng.normal(size=model.m),
            cov=sla.block_diag(p_x, p_u),
        )
        _, p_pred = predict(joint, model)
        expected = (
            model.a_d @ p_x @ model.a_d.T + model.b_d @ p_u @ model.b_d.T + model.q
        )
        np.testing.assert_allclose(p_pred, expected, rtol=1e-12)

    def test_general_matrix_oracle(self):
        model = small_model()
        rng = np.random.default_rng(15)
        cov = random_spd(rng, model.n + model.m)
        joint = JointEstimate(
            x_hat=rng.normal(size=model.n), u_hat=rng.normal(size=model.m), cov=cov
        )
        x_pred, p_pred = predict(joint, model)
        ab = np.hstack([model.a_d, model.b_d])
        np.testing.assert_allclose(
            x_pred, ab @ np.concatenate([joint.x_hat, joint.u_hat]), rtol=1e-12
        )
        np.testing.assert_allclose(p_pred, ab @ cov @ ab.T + model.q, rtol=1e-12, atol=1e-12)

    def test_update_no_measurements_passthrough(self):
        model = small_model()
        empty = DiscreteModel(
            a_d=model.a_d,
            b_d=model.b_d,
            c=np.zeros((0, model.n)),
            d=model.d,
            q=model.q,
            r_x=np.zeros((0, 0)),
            r_u=model.r_u,
            t_s=model.t_s,
            state_ids=model.state_ids,
            input_ids=model.input_ids,
        )
        x_pred = np.array([1.0, 2.0])
        p_pred = np.diag([3.0, 4.0])
        x_hat, p_x = update(x_pred, p_pred, np.zeros(0), empty)
        np.testing.assert_array_equal(x_hat, x_pred)
        np.testing.assert_allclose(p_x, p_pred)

    def test_update_perfect_measurement_limit(self):
        model = small_model()
        sharp = DiscreteModel(
            a_d=model.a_d,
            b_d=model.b_d,
            c=np.eye(model.n),
            d=model.d,
            q=model.q,
            r_x=1e-14 * np.eye(model.n),
            r_u=model.r_u,
            t_s=model.t_s,
            state_ids=model.state_ids,
            input_ids=model.input_ids,
        )
        z = np.array([7.0, -3.0])
        x_hat, _ = update(np.zeros(2), np.eye(2), z, sharp)
        np.testing.assert_allclose(x_hat, z, atol=1e-10)

    def test_scalar_kalman_algebra(self):
        model = small_model()
        scalar = DiscreteModel(
            a_d=np.eye(2),
            b_d=np.zeros((2, 2)),
            c=np.eye(2),
            d=np.eye(2),
            q=np.zeros((2, 2)),
            r_x=np.eye(2),
            r_u=np.eye(2),
            t_s=1.0,
            state_ids=model.state_ids,
            input_ids=model.input_ids,
        )
        x_hat, p_x = update(np.zeros(2), np.eye(2), np.array([2.0, 0.0]), scalar)
        assert x_hat[0] == pytest.approx(1.0)  # K = 0.5
        assert p_x[0, 0] == pytest.approx(0.5)


class TestDsieStep:
    def test_noise_free_500_steps(self):
        model = small_model(state_std=1e-3, input_std=1e-3, process_std=1e-3)
        rng = np.random.default_rng(16)
        u_seq = np.tile(rng.normal(scale=5.0, size=model.m), (500, 1))
        x0 = rng.normal(scale=10.0, size=model.n)
        x = simulate(model, x0, u_seq)
        state = initial_state(model, x0, 1e-6)
        for k in range(500):
            state, joint, _ = dsie_step(state, model.d @ u_seq[k], model.c @ x[k + 1])
            np.testing.assert_allclose(joint.u_hat, u_seq[k], atol=1e-8)
            np.testing.assert_allclose(state.x_hat, x[k + 1], atol=1e-8)

    def test_deterministic_replay(self):
        model = small_model()
        rng = np.random.default_rng(17)
        z_u = rng.normal(size=(50, model.l))
        z_x = rng.normal(size=(50, model.p))

        def run():
            state = initial_state(model, np.zeros(model.n), 1.0)
            out = []
            for k in range(50):
                state, joint, _ = dsie_step(state, z_u[k], z_x[k])
                out.append(np.concatenate([state.x_hat, joint.u_hat]))
            return np.asarray(out)

        np.testing.assert_array_equal(run(), run())

    def test_hold_policy_skips_update(self):
        model = small_model()
        state_hold = initial_state(model, np.zeros(model.n), 1.0, BddConfig(zeta=0.0, policy="hold"))
        state_alert = initial_state(model, np.zeros(model.n), 1.0, BddConfig(zeta=0.0))
        z_u = np.array([1.0, 1.0])
        z_x = np.array([5.0, 5.0])
        held, joint, report = dsie_step(state_hold, z_u, z_x)
        updated, _, _ = dsie_step(state_alert, z_u, z_x)
        assert report.flagged
        x_pred, _ = predict(joint, model)
        np.testing.assert_allclose(held.x_hat, x_pred)
        assert not np.allclose(held.x_hat, updated.x_hat)

    def test_covariances_stay_psd(self):
        model = small_model()
        rng = np.random.default_rng(18)
        state = initial_state(model, np.zeros(model.n), 100.0)
        for _ in range(500):
            state, joint, _ = dsie_step(
                state, rng.normal(size=model.l), rng.normal(size=model.p)
            )
            for mat in (state.p_x, joint.cov):
                assert np.linalg.eigvalsh(mat).min() >= -1e-10 * max(np.trace(mat), 1.0)

    def test_kf_reduction_with_known_inputs(self):
        """With direct, near-exact input measurements the cycle tracks a
        textbook known-input Kalman filter to within the noise scale."""
        base = small_model()
        tiny = 1e-9
        model = DiscreteModel(
            a_d=base.a_d,
            b_d=base.b_d,
            c=np.eye(base.n),
            d=np.eye(base.m),
            q=tiny**2 * np.eye(base.n),
            r_x=tiny**2 * np.eye(base.n),
            r_u=1e-12 * np.eye(base.m),
            t_s=base.t_s,
            state_ids=base.state_ids,
            input_ids=base.input_ids,
        )
        rng = np.random.default_rng(19)
        u_seq = np.tile(np.array([3.0, -1.0]), (100, 1))
        x0 = np.array([2.0, 1.0])
        x = simulate(model, x0, u_seq, rng=rng)
        z_x = x @ model.c.T + rng.normal(scale=tiny, size=(101, model.n))

        state = initial_state(model, x0, 1e-6)
        kf_x, kf_p = x0.copy(), 1e-6 * np.eye(model.n)
        for k in range(100):
            state, _, _ = dsie_step(state, u_seq[k], z_x[k + 1])
            kf_x = model.a_d @ kf_x + model.b_d @ u_seq[k]
            kf_p = model.a_d @ kf_p @ model.a_d.T + model.q
            s = kf_p + model.r_x
            gain = kf_p @ np.linalg.inv(s)
            kf_x = kf_x + gain @ (z_x[k + 1] - kf_x)
            kf_p = (np.eye(model.n) - gain) @ kf_p
            scale = max(np.linalg.norm(kf_x), 1.0)
            assert np.linalg.norm(state.x_hat - kf_x) <= 1e-6 * scale


class TestWlsSnapshot:
    def test_identity_sensing(self):
        model = small_model()
        z_x = np.array([1.0, 2.0])
        z_u = np.array([3.0, 4.0])
        res = wls_snapshot(z_x, z_u, model)
        np.testing.assert_allclose(res.x_hat, z_x, atol=1e-12)
        np.testing.assert_allclose(res.u_hat, z_u, atol=1e-12)

    def test_matches_wls_solve_oracle(self, fixture4):
        model = build_discrete(fixture4, 0.001, process_noise_std=0.1)
        rng = np.random.default_rng(20)
        z_x = rng.normal(size=model.p)
        z_u = rng.normal(size=model.l)
        res = wls_snapshot(z_x, z_u, model)
        h = sla.block_diag(model.c, model.d)
        w = sla.block_diag(model.r_x, model.r_u)
        oracle = np.linalg.solve(h.T @ np.linalg.solve(w, h), h.T @ np.linalg.solve(w, np.concatenate([z_x, z_u])))
        np.testing.assert_allclose(np.concatenate([res.x_hat, res.u_hat]), oracle, rtol=1e-9)

    def test_stealthy_attack_shifts_estimate_not_residual(self, fixture4):
        model = build_discrete(fixture4, 0.001, process_noise_std=0.1)
        rng = np.random.default_rng(21)
        z_x = rng.normal(size=model.p)
        z_u = rng.normal(size=model.l)
        rows = [i for i, lab in enumerate(model.z_x_labels) if lab.startswith(("v_b2", "i_b2_b3"))]
        attack = craft_stealthy_attack(model.c, rows, 10.0)
        assert attack.projection_residual <= 1e-12
        clean = wls_snapshot(z_x, z_u, model)
        hit = wls_snapshot(z_x + attack.vector, z_u, model)
        assert abs(hit.bdd.distance - clean.bdd.distance) <= 1e-9
        shift = np.linalg.norm(hit.x_hat - clean.x_hat)
        assert shift == pytest.approx(np.linalg.norm(attack.coefficients), rel=1e-6)


class TestTseStep:
    def test_converges_on_constant_truth(self):
        model = small_model(state_std=0.05, input_std=0.05)
        rng = np.random.default_rng(22)
        x_true = np.array([5.0, -2.0])
        u_true = np.array([1.0, 0.5])
        state = initial_tse_state(model, np.zeros(2), np.zeros(2), 10.0)
        for _ in range(300):
            z_x = x_true + rng.normal(scale=0.05, size=2)
            z_u = u_true + rng.normal(scale=0.05, size=2)
            state, _ = tse_step(state, z_x, z_u, model, 1e-6)
        np.testing.assert_allclose(state.y_hat[: model.n], x_true, atol=0.05)
        np.testing.assert_allclose(state.y_hat[model.n :], u_true, atol=0.05)

    def test_large_q_limit_is_snapshot_wls(self):
        model = small_model()
        rng = np.random.default_rng(23)
        z_x = rng.normal(size=model.p)
        z_u = rng.normal(size=model.l)
        state = initial_tse_state(model, np.zeros(2), np.zeros(2), 1.0)
        state, _ = tse_step(state, z_x, z_u, model, 1e9)
        res = wls_snapshot(z_x, z_u, model)
        np.testing.assert_allclose(state.y_hat[: model.n], res.x_hat, atol=1e-3)
        np.testing.assert_allclose(state.y_hat[model.n :], res.u_hat, atol=1e-3)

    def test_step_change_transient_worse_than_dsie(self):
        model = small_model(state_std=0.05, input_std=0.05, process_std=0.01)
        rng = np.random.default_rng(24)
        u_seq = np.tile([1.0, 0.0], (200, 1))
        u_seq[100:] = [25.0, 0.0]
        x0 = np.zeros(model.n)
        x = simulate(model, x0, u_seq)
        tse = initial_tse_state(model, x0, u_seq[0], 1.0)
        dsie = initial_state(model, x0, 1.0)
        q_tse = 1e-4
        tse_err = dsie_err = 0.0
        for k in range(200):
            z_x = model.c @ x[k + 1] + rng.normal(scale=0.05, size=model.p)
            z_u = model.d @ u_seq[k] + rng.normal(scale=0.05, size=model.l)
            tse, _ = tse_step(tse, z_x, z_u, model, q_tse)
            dsie, _, _ = dsie_step(dsie, z_u, z_x)
            if k == 101:
                tse_err = np.linalg.norm(tse.y_hat[: model.n] - x[k + 1])
                dsie_err = np.linalg.norm(dsie.x_hat - x[k + 1])
        assert tse_err > dsie_err


@pytest.mark.parametrize("form", ["scalar", "vector", "matrix"])
def test_a_covariance_may_be_a_scalar_a_diagonal_vector_or_a_matrix(form):
    model = small_model()
    n, dim = model.n, model.n + model.m

    def given(value, size):
        return {"scalar": value, "vector": np.full(size, value), "matrix": value * np.eye(size)}[form]

    rng = np.random.default_rng(25)
    x0, u0 = rng.normal(size=n), rng.normal(size=model.m)
    z_x, z_u = rng.normal(size=model.p), rng.normal(size=model.l)
    state = initial_state(model, x0, given(0.5, n))
    ref = initial_state(model, x0, 0.5 * np.eye(n))
    np.testing.assert_array_equal(state.p_x, ref.p_x)
    tse, _ = tse_step(initial_tse_state(model, x0, u0, given(2.0, dim)), z_x, z_u, model, given(1e-3, dim))
    ref_tse, _ = tse_step(initial_tse_state(model, x0, u0, 2.0 * np.eye(dim)), z_x, z_u, model, 1e-3 * np.eye(dim))
    np.testing.assert_array_equal(tse.y_hat, ref_tse.y_hat)
    np.testing.assert_array_equal(tse.p, ref_tse.p)


class TestInnovationConsistency:
    def test_reported_innovation_variance_is_conservative(self):
        """The cycle refines the previous estimate with the current state
        measurement before predicting, so actual innovations are smaller
        than C P_pred C' + R_x suggests; the reported variance must bound
        the empirical one (no overconfidence) without being vacuous."""
        model = small_model(state_std=0.2, input_std=0.2, process_std=0.1)
        rng = np.random.default_rng(25)
        u = np.array([2.0, -1.0])
        steps = 10_000
        x = np.zeros(model.n)
        state = initial_state(model, x, 1.0)
        innovations = []
        variances = None
        for k in range(steps):
            w = rng.normal(scale=np.sqrt(np.diag(model.q)))
            x = model.a_d @ x + model.b_d @ u + w
            z_x = model.c @ x + rng.normal(scale=np.sqrt(np.diag(model.r_x)))
            z_u = model.d @ u + rng.normal(scale=np.sqrt(np.diag(model.r_u)))
            joint, _ = estimate_input(state, z_u, z_x)
            x_pred, p_pred = predict(joint, model)
            if k > 100:
                innovations.append(z_x - model.c @ x_pred)
                variances = np.diag(model.c @ p_pred @ model.c.T + model.r_x)
            x_hat, p_x = update(x_pred, p_pred, z_x, model)
            from dataclasses import replace

            state = replace(state, x_hat=x_hat, p_x=p_x, step=state.step + 1)
        empirical = np.var(np.asarray(innovations), axis=0)
        assert np.all(empirical <= 1.05 * variances)
        assert np.all(empirical >= 0.1 * variances)


def scenario_streams(name, **changes):
    """(scenario, model, z_x, z_u, x0, p0) of a bundled scenario, built as run_scenario does."""
    scenario = dataclasses.replace(load_scenario(bundled_scenario_path(name)), **changes)
    prepared = pipeline.prepare(load_network(bundled_network_path(scenario.network)), scenario)
    truth = simulate_truth(prepared.continuous, scenario, process_std=prepared.process_std)
    z_x, z_u = generate_measurements(truth, prepared.model, rng_for(scenario.seed, "meas"))
    z_x, z_u = apply_attacks(z_x, z_u, scenario.attacks, prepared.model, truth.times)
    x0 = prepared.x_steady + scenario.estimate_offset_fraction * prepared.x_nominal
    p0 = np.diag(scenario.p0_scale * prepared.x_nominal**2)
    return scenario, prepared.model, z_x, z_u, x0, p0


def tse_inputs(name):
    """``scenario_streams`` plus the initial input estimate and the nominal
    magnitudes of the stacked (x, u), as run_scenario gives them to run_tse."""
    scenario, model, z_x, z_u, x0, _ = scenario_streams(name)
    prepared = pipeline.prepare(load_network(bundled_network_path(scenario.network)), scenario)
    nominal = np.concatenate([prepared.x_nominal, prepared.u_nominal])
    return scenario, model, z_x, z_u, x0, prepared.u0, nominal


class TestGainsReuse:
    """The fast paths in the pipeline against the per-step cycle."""

    @pytest.mark.parametrize(
        "name, changes",
        [
            ("fixture4_load_change", {}),
            ("fixture4_attack", {}),
            ("example13_load_change", {}),
            ("fixture4_load_change", {"bdd_policy": "hold", "bdd_zeta": 6.0}),
            ("fixture4_attack", {"bdd_policy": "hold", "bdd_zeta": 5.0}),
        ],
    )
    def test_run_dsie_matches_the_step_loop(self, name, changes):
        scenario, model, z_x, z_u, x0, p0 = scenario_streams(name, **changes)
        run = pipeline.run_dsie(model, z_x, z_u, scenario, x0, p0)
        bdd = BddConfig(alpha=scenario.bdd_alpha, zeta=scenario.bdd_zeta, policy=scenario.bdd_policy)
        state = initial_state(model, x0, p0, bdd)
        x, u, distance, flags = [x0], [], [0.0], [False]
        for k in range(1, z_x.shape[0]):
            state, joint, report = dsie_step(state, z_u[k - 1], z_x[k])  # gains at each P_x
            x.append(state.x_hat)
            u.append(joint.u_hat)
            distance.append(report.distance)
            flags.append(report.flagged)
        assert_series_close(run.x_est, x)
        assert_series_close(run.u_est[:-1], u)
        assert_series_close(run.mahalanobis, distance)
        np.testing.assert_array_equal(run.flags, flags)
        if scenario.bdd_policy == "hold":
            assert 0 < run.flags.sum() < len(flags) - 1  # some steps held, some updated

    @pytest.mark.parametrize(
        "name", ["fixture4_load_change", "fixture4_attack", "example13_load_change"]
    )
    def test_run_wls_matches_row_by_row_snapshots(self, name):
        scenario, model, z_x, z_u, _, _ = scenario_streams(name)
        run = pipeline.run_wls(model, z_x, z_u, scenario)
        bdd = BddConfig(alpha=scenario.bdd_alpha, zeta=scenario.bdd_zeta)
        rows = [wls_snapshot(z_x[k], z_u[k], model, bdd) for k in range(z_x.shape[0])]
        assert_series_close(run.x_est, [r.x_hat for r in rows])
        assert_series_close(run.u_est, [r.u_hat for r in rows])
        assert_series_close(run.mahalanobis, [r.bdd.distance for r in rows])
        np.testing.assert_array_equal(run.flags, [r.bdd.flagged for r in rows])
        np.testing.assert_array_equal(run.thresholds, [r.bdd.threshold for r in rows])

    def test_gains_are_recomputed_only_until_p_x_settles(self, monkeypatch):
        estimator.gains_table.clear()
        calls = []
        gains = estimator.joint_wls_gains

        def counted(*args):
            calls.append(1)
            return gains(*args)

        monkeypatch.setattr(estimator, "joint_wls_gains", counted)
        scenario, model, z_x, z_u, x0, p0 = scenario_streams(
            "fixture4_load_change", duration=0.2, load_events=()
        )
        pipeline.run_dsie(model, z_x, z_u, scenario, x0, p0)
        settled = len(calls)
        assert z_x.shape[0] - 1 == 200
        assert settled <= 20  # P_x reaches its fixed point in about 14 cycles

        # A held step sets P_x to the prediction, which restarts the recomputation.
        calls.clear()
        hold = dataclasses.replace(scenario, bdd_policy="hold", bdd_zeta=5.0)
        held = int(pipeline.run_dsie(model, z_x, z_u, hold, x0, p0).flags.sum())
        assert held > 0
        assert settled + held <= len(calls) < 200

    @pytest.mark.parametrize(
        "name", ["fixture4_load_change", "fixture4_attack", "example13_load_change"]
    )
    def test_run_tse_matches_the_step_loop(self, name):
        scenario, model, z_x, z_u, x0, u0, nominal = tse_inputs(name)
        run = pipeline.run_tse(model, z_x, z_u, scenario, x0, u0, nominal)
        state = initial_tse_state(model, x0, u0, np.diag(scenario.p0_scale * nominal**2))
        q_tse = (scenario.tse_q_fraction * nominal) ** 2
        bdd = BddConfig(alpha=scenario.bdd_alpha, zeta=scenario.bdd_zeta)
        x, u, distance, flags = [x0], [u0], [0.0], [False]
        for k in range(1, z_x.shape[0]):
            state, report = tse_step(state, z_x[k], z_u[k], model, q_tse, bdd)  # gains at each P
            x.append(state.y_hat[: model.n])
            u.append(state.y_hat[model.n :])
            distance.append(report.distance)
            flags.append(report.flagged)
        assert_series_close(run.x_est, x)
        assert_series_close(run.u_est, u)
        assert_series_close(run.mahalanobis, distance)
        np.testing.assert_array_equal(run.flags, flags)

    def test_tse_gains_are_recomputed_only_until_p_settles(self, monkeypatch):
        estimator.gains_table.clear()
        calls = []
        gains = estimator.tse_gains

        def counted(*args):
            calls.append(1)
            return gains(*args)

        monkeypatch.setattr(estimator, "tse_gains", counted)
        scenario, model, z_x, z_u, x0, u0, nominal = tse_inputs("fixture4_load_change")
        pipeline.run_tse(model, z_x, z_u, scenario, x0, u0, nominal)
        assert z_x.shape[0] - 1 == 500
        assert len(calls) <= 25  # P reaches its fixed point in about 19 steps


SCENARIOS = ("fixture4_load_change", "fixture4_attack", "example13_load_change")
POLICIES = ({}, {"bdd_policy": "hold"}, {"bdd_policy": "hold", "bdd_zeta": 5.0})


def run_inputs(name, **changes):
    """(scenario, model, z_x, z_u, x0, p0, u0, nominal): both filters' inputs."""
    scenario, model, z_x, z_u, x0, p0 = scenario_streams(name, **changes)
    prepared = pipeline.prepare(load_network(bundled_network_path(scenario.network)), scenario)
    nominal = np.concatenate([prepared.x_nominal, prepared.u_nominal])
    return scenario, model, z_x, z_u, x0, p0, prepared.u0, nominal


def run_method(method, scenario, model, z_x, z_u, x0, p0, u0, nominal):
    if method == "dsie":
        return pipeline.run_dsie(model, z_x, z_u, scenario, x0, p0)
    return pipeline.run_tse(model, z_x, z_u, scenario, x0, u0, nominal)


def step_loop(method, scenario, model, z_x, z_u, x0, p0, u0, nominal):
    """The run as one ``dsie_step``/``tse_step`` per step, each taking its
    gains at the state's covariance, where a step that leaves that
    covariance ``settled`` keeps it (the node rule): its series, the number
    of steps that moved to a new covariance, and the first step that left
    it settled (None if none does)."""
    bdd = pipeline._bdd(scenario)
    if method == "dsie":
        state, cov = initial_state(model, x0, p0, bdd), "p_x"
    else:
        state, cov = initial_tse_state(model, x0, u0, np.diag(scenario.p0_scale * nominal**2)), "p"
        q_tse = np.diag((scenario.tse_q_fraction * nominal) ** 2)
    x, distance, thresholds, flags = [x0], [0.0], [np.inf], [False]  # row 0: never flagged
    u = [] if method == "dsie" else [u0]
    moves, first_settled = 0, None
    for k in range(1, z_x.shape[0]):
        p = getattr(state, cov)
        if method == "dsie":
            state, joint, report = dsie_step(state, z_u[k - 1], z_x[k])
            x.append(state.x_hat)
            u.append(joint.u_hat)  # dsie's input estimate at k is that of step k - 1
        else:
            state, report = tse_step(state, z_x[k], z_u[k], model, q_tse, bdd)
            x.append(state.y_hat[: model.n])
            u.append(state.y_hat[model.n :])
        distance.append(report.distance)
        thresholds.append(report.threshold)
        flags.append(report.flagged)
        if estimator.settled(getattr(state, cov), p):
            state = dataclasses.replace(state, **{cov: p})
            first_settled = first_settled or k
        else:
            moves += 1
    if method == "dsie":
        u.append(u[-1])
    series = {"x_est": x, "u_est": u, "mahalanobis": distance}
    return {**series, "thresholds": thresholds, "flags": flags}, moves, first_settled


class TestSettledLoop:
    """run_dsie and run_tse walk their nodes in one loop over the rows: the
    outputs are those of one full step per row whose settled steps keep
    their covariance, bit for bit, and the gains are computed once for the
    first covariance and once for each step that moves to a new one."""

    @pytest.mark.parametrize("changes", POLICIES, ids=["alert-only", "hold", "hold-zeta5"])
    @pytest.mark.parametrize("name", SCENARIOS)
    @pytest.mark.parametrize("method", ["dsie", "tse"])
    def test_runs_equal_the_step_loop_bit_for_bit(self, method, name, changes):
        inputs = run_inputs(name, **changes)
        estimator.gains_table.clear()
        cold = run_method(method, *inputs)
        warm = run_method(method, *inputs)
        expected, _, _ = step_loop(method, *inputs)
        for run in (cold, warm):
            for key, values in expected.items():
                np.testing.assert_array_equal(getattr(run, key), np.asarray(values), err_msg=key)
        if changes.get("bdd_policy") == "hold" and method == "dsie":
            assert 0 < cold.flags.sum() < len(cold.flags) - 1

    @pytest.mark.parametrize(
        "method, changes",
        [("dsie", c) for c in POLICIES] + [("tse", {})],
        ids=["dsie-alert-only", "dsie-hold", "dsie-hold-zeta5", "tse"],
    )
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_gains_are_computed_once_per_covariance_of_the_step_loop(self, monkeypatch, method, name, changes):
        inputs = run_inputs(name, **changes)
        _, moves, first_settled = step_loop(method, *inputs)
        counts = count_gains(monkeypatch)
        estimator.gains_table.clear()
        run = run_method(method, *inputs)
        in_run = counts[method]
        assert in_run == 1 + moves
        if changes:  # a held step un-settles P_x, so the gains are computed again after it
            assert in_run > (first_settled or 0) and run.flags.any()
        else:  # computed until the gains settle, early in a long run
            assert 0 < in_run == first_settled < 50 and inputs[2].shape[0] - 1 >= 300

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("stream", [2, 3])  # z_x, z_u
    @pytest.mark.parametrize("method", ["dsie", "tse"])
    def test_a_bad_row_after_the_gains_settle_raises(self, method, stream, bad):
        inputs = list(run_inputs("fixture4_load_change"))
        inputs[stream] = inputs[stream].copy()
        inputs[stream][400, 0] = bad  # both filters settle within 50 steps
        with pytest.raises(ValueError, match="NaN or Inf"):
            run_method(method, *inputs)


SERIES = ("x_est", "u_est", "mahalanobis", "flags")
GAINS_OF = {
    "dsie": (estimator, "joint_wls_gains"),
    "tse": (estimator, "tse_gains"),
    "wls": (estimator, "measurement_gains"),
}


def count_gains(monkeypatch):
    """Count the gains computations of dsie, tse and wls by method."""
    counts = dict.fromkeys(GAINS_OF, 0)
    for method, (owner, name) in GAINS_OF.items():
        compute = getattr(owner, name)

        def counted(*args, _method=method, _compute=compute):
            counts[_method] += 1
            return _compute(*args)

        monkeypatch.setattr(owner, name, counted)
    return counts


def series_of(runs):
    return {(run.name, f): getattr(run, f) for run in runs for f in SERIES}


def assert_same_series(actual, expected):
    assert actual.keys() == expected.keys()
    for key in expected:
        np.testing.assert_array_equal(actual[key], expected[key], err_msg=str(key))


def scenario_series(topology, scenario):
    result = pipeline.run_scenario(topology, scenario)
    return series_of(result["series"]["runs"].values())


def method_inputs(model=None, **changes):
    """dsie's, wls's and tse's inputs on 100 steps of the fixture4 load
    change, with ``model`` in place of the scenario's when given."""
    name = "fixture4_load_change"
    scenario, built, z_x, z_u, x0, p0 = scenario_streams(
        name, duration=0.1, load_events=(), **changes
    )
    prepared = pipeline.prepare(load_network(bundled_network_path(scenario.network)), scenario)
    nominal = np.concatenate([prepared.x_nominal, prepared.u_nominal])
    return model or built, scenario, z_x, z_u, x0, p0, prepared.u0, nominal


def method_series(model, scenario, z_x, z_u, x0, p0, u0, nominal):
    return series_of(
        [
            pipeline.run_dsie(model, z_x, z_u, scenario, x0, p0),
            pipeline.run_wls(model, z_x, z_u, scenario),
            pipeline.run_tse(model, z_x, z_u, scenario, x0, u0, nominal),
        ]
    )


def nudged(model, name):
    """``model`` with its largest entry of matrix ``name`` moved up by one ulp."""
    a = getattr(model, name).copy()
    i = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    a[i] = np.nextafter(a[i], np.inf)
    return dataclasses.replace(model, **{name: a})


class TestNodeRule:
    """``Node.step``: where a step leads, by whether it left the covariance
    settled and was clean, and what the memos and the plan keep."""

    def test_successors_memos_and_charges(self, monkeypatch):
        table = estimator._GainsTable(estimator._GAINS_BUDGET)
        monkeypatch.setattr(estimator, "gains_table", table)
        root = estimator.plan(small_model(), np.eye(2), "rule", lambda p: (p.copy(),))
        moved = 2.0 * np.eye(2)
        entry = root.step("clean, settled", True, lambda: (np.eye(2), np.ones(3)))
        assert entry[0] is root and root.memo["clean, settled"] is entry
        assert root.step("clean, settled", True, pytest.fail) is entry  # a hit builds nothing
        copy = root.step("unclean, settled", False, lambda: (np.eye(2),))[0]
        assert copy is not root and copy.plan is None and copy.gains is root.gains
        joined = root.step("clean, moved", True, lambda: (moved,))[0]
        assert joined.plan is root.plan and root.memo["clean, moved"][0] is joined
        np.testing.assert_array_equal(joined.gains[0], moved)
        private = root.step("unclean, moved", False, lambda: (moved,))[0]
        assert private.plan is None and set(root.memo) == {"clean, settled", "clean, moved"}
        assert private.step("settled", True, lambda: (moved,))[0] is private
        last = private.step("moved", True, lambda: (3.0 * moved,))[0]
        assert last.plan is None and list(private.memo) == ["moved"]  # only its last entry
        assert table.nbytes == plan_bytes(table) == 2 * 32 + 24

    def test_a_step_past_the_budget_leaves_the_plan_and_an_orphan_charges_nothing(self, monkeypatch):
        table = estimator._GainsTable(4 * 32)
        monkeypatch.setattr(estimator, "gains_table", table)
        other = table.get("other", lambda: np.zeros(4))  # 32 bytes, the oldest entry
        root = estimator.plan(small_model(), np.eye(2), "rule", lambda p: (p.copy(),))
        big = root.step("past the budget", True, lambda: (2.0 * np.eye(2), np.ones(9)))[0]
        assert big.plan is None and not root.memo and table.nbytes == 64  # charged nothing
        joined = root.step("fits", True, lambda: (2.0 * np.eye(2), np.ones(4)))[0]
        assert joined.plan is root.plan and table.nbytes == 128 and len(table) == 2
        copy = joined.step("settled, past", True, lambda: (2.0 * np.eye(2), np.ones(5)))[0]
        assert copy is not joined and copy.plan is None and copy.gains is joined.gains
        assert not joined.memo and table.get("other", pytest.fail) is other
        assert joined.step("settled", True, lambda: (2.0 * np.eye(2), np.ones(2)))[0] is joined
        assert table.nbytes == 112 and len(table) == 1  # the plan evicted "other", not itself
        table.clear()
        again = estimator.plan(small_model(), np.eye(2), "rule", lambda p: (p.copy(),))
        assert again is not root and table.nbytes == 32
        orphan = joined.step("moved", True, lambda: (3.0 * np.eye(2),))[0]
        assert orphan.plan is None and table.nbytes == 32  # the new entry pays for no orphan


class TestSharedGains:
    """``estimator.gains_table`` shares the data-independent gains between
    runs of an equal model, and between nothing else."""

    @pytest.mark.parametrize("name", ["fixture4_load_change", "example13_load_change"])
    def test_a_second_seed_computes_no_gains_and_matches_a_cold_run(self, name, monkeypatch):
        scenario = dataclasses.replace(
            load_scenario(bundled_scenario_path(name)), estimators=("dsie", "wls", "tse")
        )
        topology = load_network(bundled_network_path(scenario.network))
        estimator.gains_table.clear()
        pipeline.run_scenario(topology, dataclasses.replace(scenario, seed=1))
        counts = count_gains(monkeypatch)
        warm = scenario_series(topology, dataclasses.replace(scenario, seed=2))
        assert counts == dict.fromkeys(GAINS_OF, 0)
        estimator.gains_table.clear()
        cold = scenario_series(topology, dataclasses.replace(scenario, seed=2))
        assert min(counts.values()) > 0
        assert_same_series(warm, cold)

    @pytest.mark.parametrize(
        "matrix, changes, computes",
        [(m, {}, {"dsie", "wls", "tse"}) for m in ("a_d", "b_d", "c", "d", "q", "r_x", "r_u")]
        + [
            (None, {"p0_scale": 20.0}, {"dsie", "tse"}),
            (None, {"bdd_alpha": 0.05}, {"dsie", "wls"}),
            (None, {"bdd_zeta": 6.0}, {"dsie", "wls"}),
            (None, {"tse_q_fraction": 2e-3}, {"tse"}),
        ],
    )
    def test_any_change_the_gains_read_computes_them_afresh(self, matrix, changes, computes, monkeypatch):
        base = method_inputs()
        model = nudged(base[0], matrix) if matrix else None
        inputs = method_inputs(model, **changes)
        estimator.gains_table.clear()
        method_series(*base)
        counts = count_gains(monkeypatch)
        shared = method_series(*inputs)
        assert {m for m, c in counts.items() if c} == computes
        estimator.gains_table.clear()
        assert_same_series(shared, method_series(*inputs))

    def test_no_held_step_leads_onto_a_plan_and_the_run_matches_the_step_loop(self, monkeypatch):
        scenario, model, z_x, z_u, x0, p0 = scenario_streams(
            "fixture4_attack", bdd_policy="hold", bdd_zeta=5.0
        )
        table = estimator._GainsTable(estimator._GAINS_BUDGET)
        monkeypatch.setattr(estimator, "gains_table", table)
        run = pipeline.run_dsie(model, z_x, z_u, scenario, x0, p0)
        state = initial_state(model, x0, p0, pipeline._bdd(scenario))
        x = [x0]
        for k in range(1, z_x.shape[0]):
            state, _, _ = dsie_step(state, z_u[k - 1], z_x[k])
            x.append(state.x_hat)
        nodes, entries = plan_walk(table)
        assert nodes and all(node.plan is not None for node in nodes)
        assert not any(held for _, held, _ in entries)  # a dsie step's pattern is whether it held
        assert 0 < run.flags.sum() < len(x) - 1
        assert_series_close(run.x_est, x)

    def test_the_table_holds_at_most_its_budget(self, monkeypatch):
        inputs = method_inputs()
        full = estimator._GainsTable(estimator._GAINS_BUDGET)
        monkeypatch.setattr(estimator, "gains_table", full)
        cold = method_series(*inputs)
        assert plan_bytes(full) <= full.nbytes
        small = estimator._GainsTable(64 * 1024)
        assert full.nbytes > small.budget  # so the small table evicts plans
        monkeypatch.setattr(estimator, "gains_table", small)
        model, scenario, z_x, z_u, x0, p0, u0, nominal = inputs
        for _ in range(2):
            runs = [
                pipeline.run_dsie(model, z_x, z_u, scenario, x0, p0),
                pipeline.run_wls(model, z_x, z_u, scenario),
                pipeline.run_tse(model, z_x, z_u, scenario, x0, u0, nominal),
            ]
            assert 0 < small.nbytes <= small.budget
            assert plan_bytes(small) <= small.nbytes
            assert_same_series(series_of(runs), cold)

    def test_the_table_evicts_the_least_recently_used_by_bytes_and_stores_no_failure(self):
        table = estimator._GainsTable(32)
        table.get("a", lambda: np.zeros(2))  # 16 bytes
        table.get("b", lambda: (np.zeros(1), None))  # 8 bytes
        assert table.get("a", lambda: np.ones(2))[0] == 0  # a hit keeps "a" the most recent
        table.get("c", lambda: np.zeros(2))  # 40 bytes held: "b" goes, then 32
        assert table.nbytes == 32 and table.get("b", lambda: np.ones(1))[0] == 1
        assert table.nbytes == 24 and len(table) == 2  # "b" in, "a" out
        table.get("d", lambda: np.zeros(5))  # larger than the budget: kept by no one
        assert table.nbytes == 0 and len(table) == 0

        def fails():
            raise RankDeficient("rank deficient", rank=0)

        with pytest.raises(RankDeficient):
            table.get("e", fails)
        assert len(table) == 0 and table.get("e", lambda: np.full(1, 5.0))[0] == 5

    def test_entries_are_sized_by_their_arrays(self, monkeypatch):
        model = method_inputs()[0]
        gains = estimator.joint_wls_gains(model, np.eye(model.n), BddConfig())
        expected = sum(a.nbytes for a in (gains.wls, gains.cov, gains.whiten))
        table = estimator._GainsTable(10 * expected)
        table.get("k", lambda: gains)
        assert table.nbytes == expected
        monkeypatch.setattr(estimator, "gains_table", table)
        estimator.plan(model, np.eye(model.n), "settings", lambda p: gains)  # a plan's first node
        assert table.nbytes == 2 * expected
        assert table.charge("k", gains, 8)
        assert not table.charge("gone", gains, 8)  # no entry: counts nothing
        assert not table.charge("k", gains.cov, 8)  # another value: counts nothing
        assert not table.charge("k", gains, 9 * expected)  # past the budget: counts nothing
        assert table.nbytes == 2 * expected + 8

    def test_concurrent_callers_never_raise(self):
        table = estimator._GainsTable(3 * 8)
        errors = []

        def hammer(offset):
            try:
                for i in range(2000):
                    key = (i + offset) % 5
                    assert table.get(key, lambda: np.full(1, float(key)))[0] == key
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == [] and len(table) <= 3 and table.nbytes == 8 * len(table)


def ddsie_scenario(name, **changes):
    """(topology, scenario) of a bundled scenario that runs ddsie alone."""
    scenario = dataclasses.replace(
        load_scenario(bundled_scenario_path(name)), estimators=("ddsie",), **changes
    )
    return load_network(bundled_network_path(scenario.network)), scenario


def ddsie_series(topology, scenario):
    run = pipeline.run_scenario(topology, scenario)["series"]["runs"]["ddsie"]
    series = series_of([run])
    series.update({("ddsie", aid): d for aid, d in run.per_area_mahalanobis.items()})
    series[("ddsie", "rejections")] = np.array(
        [[r["step"], r["difference"], r["threshold"]] for r in run.crosscheck_rejections]
    )
    return series


def track_ddsie_rounds(monkeypatch, computes=("joint_wls_gains", "next_covariance")):
    """Make each of ``pipeline.run_ddsie``'s rounds append to the returned
    lists: whether the round was clean, so that every area is on its plan
    after it; how many of ``computes`` were called since the round before;
    and how many nodes the table's plans held after it."""
    log = {"clean": [], "computed": [], "plan_nodes": []}
    calls = [0]
    for compute_name in computes:
        compute = getattr(estimator, compute_name)

        def counted(*args, _compute=compute):
            calls[0] += 1
            return _compute(*args)

        monkeypatch.setattr(estimator, compute_name, counted)
    run_round = pipeline.run_round

    def tracked(estimators, measurements, transport=None):
        results = run_round(estimators, measurements, transport)
        log["clean"].append(all(e.node.plan is not None for e in estimators))
        log["computed"].append(calls[0])
        calls[0] = 0
        log["plan_nodes"].append(len(plan_walk(estimator.gains_table)[0]))
        return results

    monkeypatch.setattr(pipeline, "run_round", tracked)
    return log


class TestSharedDdsieGains:
    """ddsie areas walk their plans, shared by every run of their models, P0
    and settings, while every round of their run is clean."""

    @pytest.mark.parametrize(
        "name", ["fixture4_load_change", "fixture4_attack", "example13_load_change"]
    )
    def test_a_second_seed_computes_no_gains_while_clean_and_matches_a_cold_run(
        self, name, monkeypatch
    ):
        topology, scenario = ddsie_scenario(name)
        estimator.gains_table.clear()
        pipeline.run_scenario(topology, dataclasses.replace(scenario, seed=1))
        rounds = track_ddsie_rounds(monkeypatch)

        def in_clean_rounds():
            return sum(c for c, clean in zip(rounds["computed"], rounds["clean"]) if clean)

        seed2 = dataclasses.replace(scenario, seed=2)
        warm = ddsie_series(topology, seed2)
        assert in_clean_rounds() == 0 and any(rounds["clean"])
        estimator.gains_table.clear()
        for log in rounds.values():
            log.clear()
        cold = ddsie_series(topology, seed2)
        assert in_clean_rounds() > 0
        assert_same_series(warm, cold)

    def test_no_node_joins_a_plan_after_the_first_unclean_round(self, monkeypatch):
        topology, scenario = ddsie_scenario("example13_load_change", seed=3)
        estimator.gains_table.clear()
        rounds = track_ddsie_rounds(monkeypatch)
        pipeline.run_scenario(topology, scenario)
        clean, sizes = rounds["clean"], rounds["plan_nodes"]
        first = clean.index(False)
        assert 0 < first < len(clean) - 1 and sizes[first - 1] > 0
        assert not any(clean[first:])
        assert set(sizes[first - 1 :]) == {sizes[first - 1]}

    def test_a_lossy_hold_run_puts_no_unclean_step_on_a_plan(self, monkeypatch):
        table = estimator._GainsTable(estimator._GAINS_BUDGET)
        monkeypatch.setattr(estimator, "gains_table", table)
        topology, scenario = ddsie_scenario(
            "fixture4_load_change", drop_rate=0.2, delay_rate=0.1, bdd_policy="hold"
        )
        rounds = track_ddsie_rounds(monkeypatch, computes=())
        pipeline.run_scenario(topology, scenario)
        assert not all(rounds["clean"])
        nodes, entries = plan_walk(table)
        assert nodes and all(node.plan is not None for node in nodes)
        for _, (fused, held), _ in entries:  # every neighbor's block, all accepted, none held
            assert len(fused) == 1 and all(all(mask) for _, mask in fused) and not held
        areas = len(pipeline.prepare(topology, scenario).areas)
        assert len(table) == 1 + areas  # the prepared model, found again, and one plan per area
        pipeline.prepare(topology, scenario)
        assert len(table) == 1 + areas

    def test_dsie_entries_survive_an_example13_mix_under_the_budget(self, monkeypatch):
        table = estimator._GainsTable(estimator._GAINS_BUDGET)
        monkeypatch.setattr(estimator, "gains_table", table)
        topology, scenario = ddsie_scenario("example13_load_change")
        for method in ("dsie", "wls", "tse", "ddsie"):
            pipeline.run_scenario(topology, dataclasses.replace(scenario, estimators=(method,)))
        assert plan_bytes(table) <= table.nbytes <= table.budget
        counts = count_gains(monkeypatch)
        pipeline.run_scenario(topology, dataclasses.replace(scenario, estimators=("dsie",), seed=2))
        assert counts["dsie"] == 0

    def test_concurrent_runs_walk_one_plan_and_match_a_cold_run(self, monkeypatch):
        """Threads that build the same plans at once may build a node twice,
        but every run sees whole nodes and the table counts each plan node."""
        table = estimator._GainsTable(estimator._GAINS_BUDGET)
        monkeypatch.setattr(estimator, "gains_table", table)
        topology, scenario = ddsie_scenario("fixture4_load_change", duration=0.05, load_events=())
        scenario = dataclasses.replace(scenario, estimators=("dsie", "tse", "ddsie"))
        pipeline.prepare(topology, scenario)
        barrier = threading.Barrier(3, timeout=60)

        def work():
            barrier.wait()
            return scenario_series(topology, scenario)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(3) as pool:
                runs = [f.result(timeout=120) for f in [pool.submit(work) for _ in range(3)]]
        finally:
            sys.setswitchinterval(interval)
        nodes, _ = plan_walk(table)
        assert nodes and all(node.plan is not None for node in nodes)
        assert plan_bytes(table) <= table.nbytes
        table.clear()
        cold = scenario_series(topology, scenario)
        for run in runs:
            assert_same_series(run, cold)


class TestHoldRule:
    """Under the hold policy a run walks its plan up to its first held step,
    and no node reached through a held step is on a plan."""

    @pytest.mark.parametrize("name", ["fixture4_load_change", "example13_load_change"])
    def test_a_second_seed_computes_no_gains_before_its_first_held_step(self, name, monkeypatch):
        scenario = dataclasses.replace(
            load_scenario(bundled_scenario_path(name)), estimators=("dsie",), bdd_policy="hold"
        )
        topology = load_network(bundled_network_path(scenario.network))
        table = estimator._GainsTable(estimator._GAINS_BUDGET)
        monkeypatch.setattr(estimator, "gains_table", table)
        pipeline.run_scenario(topology, dataclasses.replace(scenario, seed=1))
        _, entries = plan_walk(table)
        assert any(entry[0] is node for node, _, entry in entries)  # seed 1 settled before it held

        events = []
        next_estimate = pipeline.next_estimate

        def step(*args):
            events.append(("held", args[-1]))
            return next_estimate(*args)

        monkeypatch.setattr(pipeline, "next_estimate", step)
        for compute_name in ("joint_wls_gains", "next_covariance"):
            compute = getattr(estimator, compute_name)

            def counted(*args, _compute=compute):
                events.append(("gains",))
                return _compute(*args)

            monkeypatch.setattr(estimator, compute_name, counted)
        seed2 = dataclasses.replace(scenario, seed=2)
        warm = scenario_series(topology, seed2)
        first = events.index(("held", True))
        assert first > 0 and ("gains",) not in events[:first] and ("gains",) in events[first:]
        nodes, entries = plan_walk(table)
        assert all(node.plan is not None for node in nodes)
        assert not any(held for _, held, _ in entries)
        table.clear()
        assert_same_series(warm, scenario_series(topology, seed2))


class TestDataStepsEqualTheirFormulas:
    """``apply_wls``, ``next_estimate`` and ``apply_tse`` form their
    products with ``ndarray.dot``; each equals its ``@`` formula bit for bit
    on the bundled load-change models. The run-versus-step tests cannot see
    a difference here, since both sides call these functions."""

    ROWS = 200

    @pytest.fixture(params=["fixture4_load_change", "example13_load_change"])
    def setting(self, request):
        scenario, model, z_x, z_u, x0, p0 = scenario_streams(request.param)
        rng = np.random.default_rng(27)
        scale = np.concatenate([np.abs(x0) + 1.0, np.abs(z_u[0]) + 1.0, np.abs(z_x[0]) + 1.0])
        rows = rng.normal(size=(self.ROWS, scale.shape[0])) * scale
        return scenario, model, rows, p0

    def test_apply_wls_on_one_row_and_on_rows(self, setting):
        scenario, model, rows, p0 = setting
        bdd = pipeline._bdd(scenario)
        joint = estimator.dsie_plan(model, p0, bdd).gains
        for row in rows:
            estimate, distance = estimator.apply_wls(joint, row)
            w = row @ joint.whiten.T
            assert_same_bits(estimate, row @ joint.wls.T)
            assert_same_bits(distance, np.sqrt(np.add.reduce(w * w, axis=-1)))
        snapshot = estimator.snapshot_gains(model, bdd)
        observations = rows[:, model.n :]
        estimates, distances = estimator.apply_wls(snapshot, observations)
        w = observations @ snapshot.whiten.T
        assert_same_bits(estimates, observations @ snapshot.wls.T)
        assert_same_bits(distances, np.sqrt(np.add.reduce(w * w, axis=-1)))

    @pytest.mark.parametrize("held", [False, True], ids=["unheld", "held"])
    def test_next_estimate(self, setting, held):
        _, model, rows, _ = setting
        fixed = model.fixed_rows
        y_size = model.n + model.m
        for row in rows:
            estimate, z_x = row[:y_size], row[-model.p :]
            expected = model.ab @ estimate if held else fixed.transition @ estimate + fixed.gain @ z_x
            assert_same_bits(estimator.next_estimate(model, estimate, z_x, held), expected)

    def test_apply_tse(self, setting):
        scenario, model, rows, _ = setting
        y_size = model.n + model.m
        nominal = np.abs(rows[0, :y_size]) + 1.0
        q = np.diag((scenario.tse_q_fraction * nominal) ** 2)
        dense = random_spd(np.random.default_rng(28), y_size) * np.outer(nominal, nominal)
        dense = 0.5 * (dense + dense.T)
        for p in (np.diag(scenario.p0_scale * nominal**2), dense):  # sparse and dense gains
            gains = estimator.tse_gains(model, p, q)
            for row in rows:
                y_hat, z = row[:y_size], row[-(model.p + model.l) :]
                observation = np.concatenate([y_hat, z])
                w = gains.whiten @ observation
                y_next, squared = estimator.apply_tse(gains, y_hat, z)
                assert_same_bits(y_next, gains.wls @ observation)
                assert_same_bits(squared, w @ w)
