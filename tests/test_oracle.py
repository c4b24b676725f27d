"""The cycle against the exact estimate its own model implies.

Under the simulated model x(k+1) = A_d x(k) + B_d u(k) + w with w ~ Q,
z_x = C x + v_x, z_u = D u + v_u, free inputs u and x(0) ~ (x0, P0), the
filtered estimate of x(K) and u(K-1) given z_u(0..K-1) and z_x(1..K) is one
least-squares problem over x(0..K) and u(0..K-1) (D. Simon, *Optimal State
Estimation*, 2006, ch. 3; Kitanidis, *Automatica* 23(6), 1987). ``batch``
solves it densely; the tests check it on its own, then hold dsie to it, to
its NEES band on the bundled load-change scenarios, and to the map's
zero-gain edge.
"""

import dataclasses
import time

import numpy as np
import pytest
import scipy.linalg as sla

from dsie import pipeline
from dsie.estimator import dsie_step, initial_state, next_covariance, next_estimate
from dsie.model import build_discrete
from dsie.network import load_network
from dsie.sim import generate_measurements, load_scenario, rng_for, simulate_truth

from conftest import bundled_network_path, bundled_scenario_path, make_cap_bus_topology, random_spd


def _whitener(cov):
    """W with W' W = cov^{-1}."""
    return sla.solve_triangular(np.linalg.cholesky(cov), np.eye(cov.shape[0]), lower=True)


def batch(model, x0, p0, z_x, z_u, inputs=None):
    """The exact estimate of x(K) and u(K-1) from z_u[0..K-1] and z_x[1..K],
    K = len(z_x) - 1: (x_K, P_x(K), u_(K-1), its covariance).

    The unknowns are x(0), u(0), x(1), ..., u(K-1), x(K), so (u(K-1), x(K))
    are the last columns and their covariance is T^{-1} T^{-T} for the
    trailing block T of the whitened design's R. With known ``inputs``
    u(0..K-1) are not unknowns, z_u is unused and the input block is None.
    """
    n, m, K = model.n, model.m, z_x.shape[0] - 1
    step = n if inputs is not None else n + m
    cols = K * step + n

    def x(k):
        return slice(k * step, k * step + n)

    def u(k):
        return slice(k * step + n, k * step + n + m)

    w_p, w_u, w_q, w_x = (_whitener(c) for c in (p0, model.r_u, model.q, model.r_x))
    blocks = []  # (rows of the whitened design, whitened data)

    def rows(w, terms, data):
        row = np.zeros((w.shape[0], cols))
        for where, matrix in terms:
            row[:, where] += w @ matrix
        blocks.append((row, w @ data))

    rows(w_p, [(x(0), np.eye(n))], x0)
    for k in range(K):
        if inputs is None:
            rows(w_u, [(u(k), model.d)], z_u[k])
            rows(w_q, [(x(k + 1), np.eye(n)), (x(k), -model.a_d), (u(k), -model.b_d)], np.zeros(n))
        else:
            rows(w_q, [(x(k + 1), np.eye(n)), (x(k), -model.a_d)], model.b_d @ inputs[k])
        rows(w_x, [(x(k + 1), model.c)], z_x[k + 1])
    design = np.vstack([b[0] for b in blocks])
    data = np.concatenate([b[1] for b in blocks])
    solution = np.linalg.lstsq(design, data, rcond=None)[0]
    tail = n if inputs is not None else m + n
    t_inv = np.linalg.inv(np.linalg.qr(design, mode="r")[-tail:, -tail:])
    cov = t_inv @ t_inv.T
    if inputs is not None:
        return solution[-n:], cov, None, None
    return solution[-n:], cov[m:, m:], solution[-tail:-n], cov[:m, :m]


def tiny_model(seed):
    """A 2-state, 2-input model with random noise covariances."""
    base = build_discrete(make_cap_bus_topology(), 0.001, process_noise_std=0.05)
    rng = np.random.default_rng(seed)
    return dataclasses.replace(
        base,
        q=0.01 * random_spd(rng, base.n),
        r_x=0.01 * random_spd(rng, base.p),
        r_u=0.01 * random_spd(rng, base.l),
    )


def simulate(model, x0, u, steps, rng):
    """(z_x, z_u, x) of ``steps`` steps of the discrete model from x0."""
    xs, z_x, z_u = [x0], [], []
    for _ in range(steps):
        xs.append(model.a_d @ xs[-1] + model.b_d @ u + rng.multivariate_normal(np.zeros(model.n), model.q))
    for x in xs:
        z_x.append(model.c @ x + rng.multivariate_normal(np.zeros(model.p), model.r_x))
        z_u.append(model.d @ u + rng.multivariate_normal(np.zeros(model.l), model.r_u))
    return np.array(z_x), np.array(z_u), np.array(xs)


class TestBatchOracle:
    """The oracle on its own, before it judges the cycle."""

    def test_matches_a_pinv_solution_on_a_tiny_system(self):
        model = tiny_model(1)
        rng = np.random.default_rng(2)
        z_x, z_u, _ = simulate(model, np.ones(model.n), np.array([1.0, -2.0]), 4, rng)
        x0, p0 = np.zeros(model.n), np.eye(model.n)
        x_k, p_k, u_k, p_u = batch(model, x0, p0, z_x, z_u)

        # The same problem, stacked in time order and solved by the
        # pseudoinverse, with the covariance taken as the information's inverse.
        n, m, K = model.n, model.m, 4
        eye = np.eye(K * (n + m) + n)

        def x(k):
            return eye[k * (n + m) : k * (n + m) + n]

        def u(k):
            return eye[k * (n + m) + n : (k + 1) * (n + m)]

        rows, data, noise = [x(0)], [x0], [p0]
        for k in range(K):
            rows += [model.d @ u(k), x(k + 1) - model.a_d @ x(k) - model.b_d @ u(k), model.c @ x(k + 1)]
            data += [z_u[k], np.zeros(n), z_x[k + 1]]
            noise += [model.r_u, model.q, model.r_x]
        stacked = np.vstack(rows)
        w = np.linalg.inv(np.linalg.cholesky(sla.block_diag(*noise)))
        wh = w @ stacked
        estimate = np.linalg.pinv(wh) @ (w @ np.concatenate(data))
        cov = np.linalg.inv(wh.T @ wh)
        np.testing.assert_allclose(x_k, estimate[-n:], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(u_k, estimate[-n - m : -n], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(p_k, cov[-n:, -n:], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(p_u, cov[-n - m : -n, -n - m : -n], rtol=1e-9, atol=1e-12)

    def test_known_inputs_give_the_known_input_kalman_filter(self):
        model = tiny_model(3)
        rng = np.random.default_rng(4)
        u = np.array([3.0, -1.0])
        z_x, _, _ = simulate(model, np.array([2.0, 1.0]), u, 30, rng)
        x0, p0 = np.array([2.0, 1.0]), 1e-2 * np.eye(model.n)
        kf_x, kf_p = x0.copy(), p0.copy()
        for k in range(1, 31):
            kf_x = model.a_d @ kf_x + model.b_d @ u
            kf_p = model.a_d @ kf_p @ model.a_d.T + model.q
            gain = kf_p @ model.c.T @ np.linalg.inv(model.c @ kf_p @ model.c.T + model.r_x)
            kf_x = kf_x + gain @ (z_x[k] - model.c @ kf_x)
            kf_p = (np.eye(model.n) - gain @ model.c) @ kf_p
            x_k, p_k, _, _ = batch(model, x0, p0, z_x[: k + 1], None, inputs=np.tile(u, (k, 1)))
            np.testing.assert_allclose(x_k, kf_x, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(p_k, kf_p, rtol=1e-8, atol=1e-14)


def bundled_run(name, seed, steps=None):
    """(model, z_x, z_u, x0, p0, truth, scenario) of a bundled scenario at
    ``seed``, built as ``run_scenario`` builds them, cut to ``steps`` steps."""
    scenario = dataclasses.replace(load_scenario(bundled_scenario_path(name)), seed=seed)
    prepared = pipeline.prepare(load_network(bundled_network_path(scenario.network)), scenario)
    truth = simulate_truth(prepared.continuous, scenario, process_std=prepared.process_std)
    z_x, z_u = generate_measurements(truth, prepared.model, rng_for(seed, "meas"))
    x0 = pipeline._initial_estimate(scenario, prepared.x_steady, prepared.x_nominal)
    p0 = pipeline._initial_cov(scenario, prepared.x_nominal)
    cut = slice(0, None if steps is None else steps + 1)
    truth = dataclasses.replace(truth, times=truth.times[cut], x=truth.x[cut], u=truth.u[cut])
    return prepared.model, z_x[cut], z_u[cut], x0, p0, truth, scenario


class TestDsieEqualsTheOracle:
    """dsie's estimate of x(K), u(K-1) and P_x(K) is the batch estimate,
    up to rounding."""

    @pytest.mark.parametrize(
        "name, steps", [("fixture4_load_change", 40), ("example13_load_change", 12)]
    )
    def test_to_rounding(self, name, steps):
        model, z_x, z_u, x0, p0, _, scenario = bundled_run(name, seed=1, steps=steps)
        x_k, p_k, u_k, p_u = batch(model, x0, p0, z_x, z_u)
        state = initial_state(model, x0, p0)
        for k in range(1, steps + 1):
            state, joint, _ = dsie_step(state, z_u[k - 1], z_x[k])
        run = pipeline.run_dsie(model, z_x, z_u, scenario, x0, p0)
        sigma_x, sigma_u = np.sqrt(np.diag(p_k)), np.sqrt(np.diag(p_u))
        for x_hat, u_hat in [(state.x_hat, joint.u_hat), (run.x_est[steps], run.u_est[steps - 1])]:
            assert np.max(np.abs(x_hat - x_k) / sigma_x) <= 1e-8
            assert np.max(np.abs(u_hat - u_k) / sigma_u) <= 1e-8
        assert np.max(np.abs(state.p_x - p_k)) <= 1e-10 * np.max(np.abs(p_k))


def nees(name, seeds, first=51, last=500):
    """Mean NEES per dimension of dsie's x(k) and u(k-1) over steps
    ``first``..``last`` and ``seeds``, against the simulated truth."""
    x_terms, u_terms = [], []
    for seed in seeds:
        model, z_x, z_u, x0, p0, truth, _ = bundled_run(name, seed, steps=last)
        state = initial_state(model, x0, p0)
        for k in range(1, last + 1):
            state, joint, _ = dsie_step(state, z_u[k - 1], z_x[k])
            if k >= first:
                e_x = state.x_hat - truth.x[k]
                e_u = joint.u_hat - truth.u[k - 1]
                x_terms.append(e_x @ np.linalg.solve(state.p_x, e_x) / model.n)
                u_terms.append(e_u @ np.linalg.solve(joint.cov[model.n :, model.n :], e_u) / model.m)
    return float(np.mean(x_terms)), float(np.mean(u_terms))


class TestConsistency:
    """The covariances dsie reports are those of its errors: NEES per
    dimension near 1 on the bundled load-change scenarios, whose truth is
    the estimator's own discrete model with Q (Bar-Shalom, Li &
    Kirubarajan, 2001, section 5.4)."""

    def test_nees_per_dimension_lies_in_the_band(self):
        start = time.perf_counter()
        for name in ("fixture4_load_change", "example13_load_change"):
            x_nees, u_nees = nees(name, seeds=(1, 2, 3, 4))
            assert 0.9 <= x_nees <= 1.1, (name, x_nees)
            assert 0.9 <= u_nees <= 1.1, (name, u_nees)
        assert time.perf_counter() - start < 5.0


class TestZeroGainEdge:
    """Where Q has a zero row, the map's gain and Q_+ have one too, and
    x(k) there is the prediction [A_d B_d] y exactly."""

    @pytest.mark.parametrize("singular", [False, True], ids=["Q=0", "singular-Q"])
    def test_a_step_that_is_not_held_predicts_where_q_is_zero(self, fixture4, singular):
        std = 0.0
        if singular:  # one state id with process noise; the dict leaves the rest at 0
            std = {build_discrete(fixture4, 0.001).state_ids[0]: 0.1}
        model = build_discrete(fixture4, 0.001, process_noise_std=std)
        zero = np.flatnonzero(np.diag(model.q) == 0.0)
        assert zero.size == (model.n - 2 if singular else model.n)
        fixed = model.fixed_rows
        assert not fixed.gain[zero].any() and not fixed.q_plus[zero].any()
        assert not fixed.q_plus[:, zero].any()
        np.testing.assert_array_equal(fixed.transition[zero], model.ab[zero])
        if not singular:
            assert not fixed.gain.any()
            np.testing.assert_array_equal(fixed.transition, model.ab)

        rng = np.random.default_rng(5)
        y = rng.normal(size=model.n + model.m)
        z_x = rng.normal(size=model.p)
        x_hat = next_estimate(model, y, z_x, held=False)
        np.testing.assert_array_equal(x_hat[zero], (model.ab @ y)[zero])
        cov = random_spd(rng, model.n + model.m)
        p_next = next_covariance(model, cov, held=False)
        p_pred = next_covariance(model, cov, held=True)
        np.testing.assert_allclose(p_next[np.ix_(zero, zero)], p_pred[np.ix_(zero, zero)], rtol=1e-12)
        assert np.linalg.eigvalsh(p_next).min() >= -1e-12 * np.abs(p_next).max()

    def test_a_noiseless_model_runs_the_prediction(self, fixture4):
        model = build_discrete(fixture4, 0.001)  # Q = 0
        assert not model.q.any()
        rng = np.random.default_rng(6)
        state = initial_state(model, np.zeros(model.n), 1.0)
        for _ in range(3):
            z_u, z_x = rng.normal(size=model.l), rng.normal(size=model.p)
            next_state, joint, _ = dsie_step(state, z_u, z_x)
            np.testing.assert_array_equal(next_state.x_hat, model.ab @ joint.stacked)
            state = next_state
