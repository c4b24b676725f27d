"""Numeric kernel tests: WLS, Mahalanobis, ZOH discretization, PSD hygiene,
the measurement update as one WLS step, the QR factorisation, and the
one-thread OpenBLAS pools that importing dsie sets up."""

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy

from dsie import estimator, linalg, pipeline
from dsie.errors import DimensionMismatch, NotPositiveDefinite, RankDeficient
from dsie.linalg import (
    clamp_eigenvalues,
    discretize_zoh,
    mahalanobis,
    symmetrize_psd,
    wls_solve,
)
from dsie.estimator import BddConfig
from dsie.model import DiscreteModel, stacked_design
from dsie.network import load_network
from dsie.sim import load_scenario

from conftest import bundled_network_path, bundled_scenario_path, random_spd


class TestWlsSolve:
    def test_identity_case(self):
        res = wls_solve(np.eye(2), np.eye(2), [3.0, -1.0])
        np.testing.assert_allclose(res.estimate, [3.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(res.covariance, np.eye(2), atol=1e-14)

    def test_hand_normal_equations(self):
        # (1/1 + 1/4)^-1 (2 + 6/4) = 0.8 * 3.5 = 2.8
        res = wls_solve([[1.0], [1.0]], np.diag([1.0, 4.0]), [2.0, 6.0])
        np.testing.assert_allclose(res.estimate, [2.8], rtol=1e-12)
        np.testing.assert_allclose(res.covariance, [[0.8]], rtol=1e-12)

    def test_collinear_columns_rank_deficient(self):
        with pytest.raises(RankDeficient):
            wls_solve([[1.0, 1.0], [2.0, 2.0]], np.eye(2), [1.0, 2.0])

    def test_identity_design_reproduces_observation(self):
        rng = np.random.default_rng(0)
        r = random_spd(rng, 5)
        z = rng.normal(size=5)
        res = wls_solve(np.eye(5), r, z)
        np.testing.assert_allclose(res.estimate, z, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(res.covariance, r, rtol=1e-10)

    def test_matches_pinv_oracle_random(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            q = int(rng.integers(5, 51))
            p = int(rng.integers(1, min(q, 30) + 1))
            h = rng.normal(size=(q, p))
            r = random_spd(rng, q, condition=50.0)
            z = rng.normal(size=q)
            res = wls_solve(h, r, z)
            w = np.linalg.inv(np.linalg.cholesky(r))
            oracle = np.linalg.pinv(w @ h) @ (w @ z)
            np.testing.assert_allclose(res.estimate, oracle, rtol=1e-9, atol=1e-11)
            gram = np.linalg.inv(h.T @ np.linalg.solve(r, h))
            np.testing.assert_allclose(res.covariance, gram, rtol=1e-8, atol=1e-11)

    def test_underdetermined_rejected(self):
        with pytest.raises(RankDeficient):
            wls_solve(np.ones((1, 2)), np.eye(1), [1.0])

    def test_non_pd_weight_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            wls_solve(np.eye(2), np.diag([1.0, -1.0]), [1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            wls_solve(np.eye(2), np.eye(3), [1.0, 2.0])

    def test_covariance_symmetric_psd(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(8, 3))
        r = random_spd(rng, 8)
        res = wls_solve(h, r, rng.normal(size=8))
        np.testing.assert_allclose(res.covariance, res.covariance.T, rtol=1e-12)
        assert np.linalg.eigvalsh(res.covariance).min() >= -1e-10 * np.trace(res.covariance)


class TestMahalanobis:
    def test_zero_residual(self):
        assert mahalanobis(np.zeros(3), np.eye(3)) == 0.0

    def test_euclidean_reduction(self):
        assert mahalanobis([3.0, 4.0], np.eye(2)) == pytest.approx(5.0)

    def test_scalar_case(self):
        assert mahalanobis([2.0], [[4.0]]) == pytest.approx(1.0)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(3)
        for size in (2, 5, 10):
            s = random_spd(rng, size)
            r = rng.normal(size=size)
            expected = np.sqrt(r @ np.linalg.inv(s) @ r)
            assert mahalanobis(r, s) == pytest.approx(expected, rel=1e-10)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            mahalanobis([1.0, 1.0], np.diag([1.0, -1.0]))


class TestDiscretizeZoh:
    def test_zero_dynamics(self):
        a_d, b_d = discretize_zoh(np.zeros((2, 2)), np.eye(2), 0.001)
        np.testing.assert_allclose(a_d, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(b_d, 0.001 * np.eye(2), rtol=1e-12)

    def test_scalar_closed_form(self):
        a_d, b_d = discretize_zoh([[-10.0]], [[10.0]], 0.1)
        assert a_d[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-9)
        assert b_d[0, 0] == pytest.approx(1.0 - np.exp(-1.0), rel=1e-9)

    def test_rotation_closed_form(self):
        omega = 2 * np.pi * 60
        t_s = 0.0013
        a = np.array([[0.0, omega], [-omega, 0.0]])
        a_d, b_d = discretize_zoh(a, np.zeros((2, 0)), t_s)
        th = omega * t_s
        expected = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
        np.testing.assert_allclose(a_d, expected, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(a_d @ a_d.T, np.eye(2), atol=1e-12)
        assert np.linalg.det(a_d) == pytest.approx(1.0, abs=1e-9)
        assert b_d.shape == (2, 0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 2))
        one, _ = discretize_zoh(a, b, 0.01)
        two, _ = discretize_zoh(a, b, 0.02)
        np.testing.assert_allclose(two, one @ one, rtol=1e-9, atol=1e-12)

    def test_bad_t_s(self):
        with pytest.raises(ValueError):
            discretize_zoh(np.eye(2), np.eye(2), 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            discretize_zoh(np.eye(2), np.ones((3, 1)), 0.1)


class TestSymmetrizePsd:
    def test_identity_unchanged(self):
        np.testing.assert_array_equal(symmetrize_psd(np.eye(3)), np.eye(3))

    def test_symmetrizes(self):
        p = np.array([[1.0, 2.0], [0.0, 1.0]])
        np.testing.assert_allclose(symmetrize_psd(p), [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)

    def test_clamps_tiny_negative_eigenvalue(self):
        out = symmetrize_psd(np.diag([1.0, -1e-14]))
        w = np.linalg.eigvalsh(out)
        assert w.min() >= 0.0
        assert out[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_output_choleskyable_after_jitter(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.normal(size=(6, 6))
            out = symmetrize_psd(p @ p.T - 0.5 * np.eye(6))
            np.linalg.cholesky(out + 1e-12 * max(np.trace(out), 1.0) * np.eye(6))

    def test_clamp_eigenvalues_floor(self):
        out = clamp_eigenvalues(np.diag([5.0, -2.0]), 0.1)
        w = np.linalg.eigvalsh(out)
        assert w.min() >= 0.1 - 1e-12
        assert w.max() == pytest.approx(5.0)


class TestKalmanUpdate:
    """The Kalman measurement update is the WLS step over the prior rows
    (``estimator.prior_rows_gains``): from the prior y ~ P + Q and the rows
    z = H y ~ R, the covariance is the information form's and the weighted
    residual is the innovation distance v' S^-1 v for S = H (P + Q) H' + R."""

    @pytest.mark.parametrize("n, k, seed", [(1, 1, 0), (4, 2, 1), (6, 6, 2), (9, 3, 3), (5, 12, 4)])
    def test_matches_the_information_form(self, n, k, seed):
        # P+ = ((P + Q)^-1 + H' R^-1 H)^-1 and K = P+ H' R^-1
        rng = np.random.default_rng(seed)
        p, q, r = random_spd(rng, n), random_spd(rng, n), random_spd(rng, k)
        h = rng.normal(size=(k, n))
        y, z = rng.normal(size=n), rng.normal(size=k)
        prior = p + q
        gains = estimator.prior_rows_gains(linalg.factor_rows(h, r), prior, None)
        r_inv = np.linalg.inv(r)
        info = np.linalg.inv(np.linalg.inv(prior) + h.T @ r_inv @ h)
        np.testing.assert_allclose(gains.cov, info, rtol=1e-10)
        np.testing.assert_array_equal(gains.cov, gains.cov.T)
        innovation = z - h @ y
        estimate, distance = estimator.apply_wls(gains, np.concatenate([y, z]))
        np.testing.assert_allclose(estimate, y + info @ h.T @ r_inv @ innovation, rtol=1e-10, atol=1e-12)
        s = h @ prior @ h.T + r
        assert distance**2 == pytest.approx(innovation @ np.linalg.solve(s, innovation), rel=1e-10)
        assert gains.dof == k

    def test_no_rows_give_a_zero_gain_and_the_covariance_unchanged(self):
        rng = np.random.default_rng(7)
        p = random_spd(rng, 5)
        model = DiscreteModel(
            a_d=np.eye(5), b_d=np.zeros((5, 1)), c=np.zeros((0, 5)), d=np.eye(1),
            q=np.zeros((5, 5)), r_x=np.zeros((0, 0)), r_u=np.eye(1), t_s=1.0,
            state_ids=(), input_ids=(),
        )
        x_pred = rng.normal(size=5)
        x_hat, p_x = estimator.update(x_pred, p, np.zeros(0), model)
        assert x_hat.tobytes() == x_pred.tobytes()
        assert p_x is p


def _prepared(name):
    scenario = load_scenario(bundled_scenario_path(name))
    return pipeline.prepare(load_network(bundled_network_path(scenario.network)), scenario)


def _joint_stack(model, p_x):
    """The stack [[L_p^-1, 0], [R_0]] that ``joint_wls_gains`` QR-factors at P_x."""
    n, r0 = model.n, model.fixed_rows.r0
    stack = np.zeros((n + r0.shape[0], n + model.m))
    stack[:n, :n] = linalg.triangular_inverse(linalg.cholesky(p_x), lower=True)
    stack[n:] = r0
    return stack


def _fixed_rows_input(model):
    """The whitened fixed rows that ``factor_fixed_rows`` QR-factors."""
    return model.fixed_rows.whiten @ stacked_design(model)[model.n :]


def _assert_numpy_qr(a, q, r):
    """(q, r) are ``np.linalg.qr(a)`` bit for bit, both C-contiguous."""
    expected_q, expected_r = np.linalg.qr(a)
    for got, expected in ((q, expected_q), (r, expected_r)):
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert got.flags.c_contiguous


class TestQr:
    @pytest.mark.parametrize(
        "name", ["fixture4_load_change", "fixture4_attack", "example13_load_change"]
    )
    def test_every_bundled_area_stack_matches_numpy(self, name):
        rng = np.random.default_rng(41)
        for area in _prepared(name).areas:
            model = area.model
            stack = _joint_stack(model, random_spd(rng, model.n, condition=1e4))
            _assert_numpy_qr(stack, *linalg.qr(stack))
            fixed = model.fixed_rows
            _assert_numpy_qr(_fixed_rows_input(model), fixed.q0, fixed.r0)

    def test_the_centralized_example13_stack_matches_numpy(self):
        model = _prepared("example13_load_change").model
        stack = _joint_stack(model, random_spd(np.random.default_rng(42), model.n, condition=1e4))
        _assert_numpy_qr(stack, *linalg.qr(stack))
        rows = model.measurement_rows
        h = scipy.linalg.block_diag(model.c, model.d)
        _assert_numpy_qr(rows.whiten @ h, rows.q0, rows.r0)

    @pytest.mark.parametrize(
        "shape",
        [(7, 7), (9, 1), (1, 1), (3, 8), (200, 150), (150, 200), (300, 128), (6, 0), (0, 4)],
        ids=str,
    )
    def test_shapes_match_numpy(self, shape):
        # 150, 200 and 128 columns reach LAPACK's blocked code (k >= 128)
        a = np.random.default_rng(sum(shape)).normal(size=shape)
        _assert_numpy_qr(a, *linalg.qr(a))

    def test_the_argument_is_left_unmodified(self):
        for order in ("C", "F"):
            a = np.asarray(np.random.default_rng(43).normal(size=(12, 5)), order=order)
            before = a.copy()
            linalg.qr(a)
            assert a.tobytes() == before.tobytes()

    def test_concurrent_callers_on_new_shapes(self):
        linalg._qr_plan.cache_clear()
        rng = np.random.default_rng(44)
        mats = [rng.normal(size=(40 + 3 * i, 5 + 2 * i)) for i in range(8)]
        barrier = threading.Barrier(4, timeout=60)

        def work(offset):
            barrier.wait()
            return [(j, linalg.qr(mats[j])) for j in np.roll(np.arange(len(mats)), offset)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(work, offset) for offset in range(4)]
                runs = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for run in runs:
            for j, (q, r) in run:
                _assert_numpy_qr(mats[j], q, r)


_EPS = np.finfo(float).eps


def _upper(diagonal):
    """An upper-triangular matrix of ones with the given diagonal."""
    r = np.triu(np.ones((len(diagonal), len(diagonal))))
    r[np.diag_indices(len(diagonal))] = diagonal
    return r


class TestFullRankInverse:
    """The rank decision of ``full_rank_inverse``: a diagonal entry of R at or
    below max(rows, columns) * eps * max |diag R| is deficient."""

    @pytest.mark.parametrize("rows", [3, 5, 40])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_an_entry_at_the_tolerance_is_deficient(self, rows, sign):
        tol = max(rows, 3) * _EPS * 2.0
        with pytest.raises(RankDeficient, match="column rank < 3") as raised:
            linalg.full_rank_inverse(_upper([2.0, sign * tol, 1.0]), rows)
        assert raised.value.rank == 2
        assert raised.value.deficient_columns == [1]

    @pytest.mark.parametrize("rows", [3, 5, 40])
    def test_an_entry_one_ulp_above_the_tolerance_passes(self, rows):
        tol = max(rows, 3) * _EPS * 2.0
        r = _upper([2.0, np.nextafter(tol, np.inf), 1.0])
        got = linalg.full_rank_inverse(r, rows)
        assert got.tobytes() == linalg.triangular_inverse(r, lower=False).tobytes()

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)], ids=str)
    def test_an_empty_r_has_rank_zero(self, shape):
        with pytest.raises(RankDeficient, match=f"column rank < {shape[1]}") as raised:
            linalg.full_rank_inverse(np.zeros(shape), 2)
        assert raised.value.rank == 0
        assert raised.value.deficient_columns == []

    def test_a_nan_diagonal_passes_the_rank_test(self):
        # Its tolerance is NaN, so no entry is at or below it.
        r = _upper([2.0, np.nan, 1.0])
        got = linalg.full_rank_inverse(r, 5)
        assert got.tobytes() == linalg.triangular_inverse(r, lower=False).tobytes()
        assert np.isnan(got[:2, 1:]).all() and got[2, 2] == 1.0
        with pytest.raises(np.linalg.LinAlgError, match="singular triangular"):
            linalg.full_rank_inverse(_upper([2.0, np.nan, 0.0]), 5)

    def test_an_infinite_diagonal_makes_every_column_deficient(self):
        with pytest.raises(RankDeficient) as raised:
            linalg.full_rank_inverse(_upper([2.0, np.inf, 1.0]), 5)
        assert raised.value.rank == 0
        assert raised.value.deficient_columns == [0, 1, 2]


def _assert_exactly_symmetric(a):
    assert np.array_equal(a, a.T)


class TestExactlySymmetricCovariance:
    """numpy forms R^-1 R^-T with a rank-k update (syrk) and mirrors one
    triangle, so the WLS covariances come out exactly symmetric, and no
    caller symmetrizes them again. A numpy that stops doing so fails here."""

    @pytest.mark.parametrize(
        "name", ["fixture4_load_change", "fixture4_attack", "example13_load_change"]
    )
    def test_every_area_and_the_centralized_joint_shape(self, name):
        rng = np.random.default_rng(47)
        prepared = _prepared(name)
        for model in [area.model for area in prepared.areas] + [prepared.model]:
            rows = model.n + model.l + model.p
            for _ in range(20):
                stack = _joint_stack(model, random_spd(rng, model.n, condition=1e4))
                rinv = linalg.full_rank_inverse(linalg.qr(stack)[1], rows)
                _assert_exactly_symmetric(rinv @ rinv.T)

    def test_the_snapshot_covariance(self):
        model = _prepared("example13_load_change").model
        _assert_exactly_symmetric(estimator.measurement_gains(model, BddConfig()).cov)

    @pytest.mark.parametrize("size", [8, 16, 33, 64, 126])
    def test_random_triangular_inverses(self, size):
        rng = np.random.default_rng(size)
        for _ in range(20):
            rinv = np.triu(rng.normal(size=(size, size))) + size * np.eye(size)
            _assert_exactly_symmetric(rinv @ rinv.T)


def _openblas_library(package, pattern):
    libs_dir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    found = sorted(libs_dir.glob(pattern))
    return str(found[0]) if found else None


# (library path, thread-count getter) for numpy's and scipy's OpenBLAS pools
_POOLS = (
    (_openblas_library(np, "libscipy_openblas64_*.so*"), "scipy_openblas_get_num_threads64_"),
    (_openblas_library(scipy, "libscipy_openblas-*.so*"), "scipy_openblas_get_num_threads"),
)

# Reads both pools before and after importing dsie, in a fresh interpreter.
_READ_POOLS = """
import ctypes, json, sys
import numpy, scipy.linalg
pools = json.loads(sys.argv[1])
def read():
    out = []
    for path, getter in pools:
        fn = getattr(ctypes.CDLL(path), getter)
        fn.restype = ctypes.c_int
        out.append(fn())
    return out
before = read()
import dsie
print(json.dumps({"before": before, "after": read()}))
"""


def _pool_threads(openblas_num_threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas_num_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_num_threads
    src = str(Path(linalg.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _READ_POOLS, json.dumps(_POOLS)],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.mark.skipif(
    not all(path for path, _ in _POOLS), reason="numpy's or scipy's OpenBLAS library not found"
)
class TestBlasThreads:
    def test_import_pins_both_pools_to_one_thread(self):
        assert _pool_threads(None)["after"] == [1, 1]

    def test_openblas_num_threads_is_kept(self):
        threads = _pool_threads("2")
        assert threads["after"] == threads["before"]
        assert threads["after"][0] == min(2, len(os.sched_getaffinity(0)))


def test_no_openblas_is_logged_at_debug(monkeypatch, caplog):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setattr(linalg, "_OPENBLAS_POOLS", ((np, "no-such-library-*.so", "none"),))
    with caplog.at_level("DEBUG", logger="dsie"):
        linalg._pin_blas_threads()
    assert [r.getMessage() for r in caplog.records] == [
        "no OpenBLAS pool found; BLAS threading left as it is"
    ]
