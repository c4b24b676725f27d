"""Centralized joint state/input estimation cycle and the two baselines.

The per-step cycle is: weighted-least-squares estimation of the previous
state and input from (previous estimate, previous input measurements,
current state measurements), bad-data screening of that system's
residual, prediction through the discrete model, and a Kalman
measurement update. Every matrix of the cycle depends on the model, P_x
and the bad-data settings only. The cycle is written once, as two halves
that ``dsie_step`` and each area of ``distributed.run_round`` call:
``with_wls_gains`` gives the state its WLS gains, and ``finish_cycle``
predicts, updates and carries the gains on while the cycle leaves P_x
unchanged (``settled``), so a settled filter stops computing them. The
rows of the joint design whose weight does not depend on P_x are
whitened and QR-factored once per model, so a gains call factors only
P_x and a small stack on top of them. The bad-data distance is the
weighted residual sum of squares r' W^{-1} r (the J(x) test with
rows - unknowns degrees of freedom), taken from the same QR. The
snapshot-WLS and tracking (random-walk) baselines live here as well:
both read the model's stacked measurement map, and a tracking state
carries its gains by the same rule.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
from scipy.stats import chi2

from . import linalg
from .errors import DimensionMismatch, NotPositiveDefinite, RankDeficient
from .model import DiscreteModel, check_joint_rank

# Relative eigenvalue floor of the P_x repair in ``joint_wls_gains``.
_S_CLAMP = 1e-10


@dataclass(frozen=True)
class JointEstimate:
    """Joint (state, input) estimate with its full covariance.

    ``cov`` is the (n+m) x (n+m) joint covariance; the block accessors
    slice it consistently with (x, u) stacking.
    """

    x_hat: np.ndarray
    u_hat: np.ndarray
    cov: np.ndarray
    step: int = 0

    @property
    def n(self):
        return self.x_hat.shape[0]

    @property
    def m(self):
        return self.u_hat.shape[0]

    @property
    def p_x(self):
        return self.cov[: self.n, : self.n]

    @property
    def p_u(self):
        return self.cov[self.n :, self.n :]


@functools.lru_cache(maxsize=None)
def _chi2_threshold(alpha: float, dof: int) -> float:
    return float(np.sqrt(chi2.ppf(1.0 - alpha, dof)))


@dataclass(frozen=True)
class BddConfig:
    """Bad-data gate: chi-square threshold at ``alpha`` unless ``zeta`` is
    given explicitly; ``policy`` is "alert-only" or "hold"."""

    alpha: float = 0.01
    zeta: float | None = None
    policy: str = "alert-only"

    def threshold(self, dof: int) -> float:
        if self.zeta is not None:
            return float(self.zeta)
        if dof < 1:
            return np.inf
        return _chi2_threshold(self.alpha, dof)


@dataclass(frozen=True)
class BddReport:
    distance: float
    threshold: float
    flagged: bool
    dof: int
    # Always False: the distance needs no residual covariance, so nothing
    # falls back. Kept because benchmark tracing counts it.
    diagonal_fallback: bool = False


@dataclass(frozen=True)
class FilterState:
    """Single-owner filter recursion carrier; advanced by ``finish_cycle``.

    ``gains`` are the gains of the last cycle, carried while that cycle
    left P_x settled, so they are valid at ``p_x``; None makes the next
    cycle compute them.
    """

    model: DiscreteModel
    x_hat: np.ndarray
    p_x: np.ndarray
    bdd: BddConfig = field(default_factory=BddConfig)
    step: int = 0
    gains: CycleGains | None = None


def initial_state(model: DiscreteModel, x0, p0, bdd: BddConfig | None = None) -> FilterState:
    x0 = linalg.as_vector(x0, "x0")
    p0 = linalg.as_covariance(p0, model.n)
    if x0.shape[0] != model.n or p0.shape != (model.n, model.n):
        raise DimensionMismatch("initial state/covariance sizes do not match the model")
    return FilterState(model=model, x_hat=x0, p_x=linalg.symmetrize_psd(p0), bdd=bdd or BddConfig())


@dataclass(frozen=True)
class WlsGains:
    """The data-independent part of one WLS estimate and its bad-data screen.

    For an observation z the estimate is ``wls @ z`` with covariance
    ``cov``, and the Mahalanobis distance of its residual is
    ``|whiten @ z|``.
    """

    wls: np.ndarray
    cov: np.ndarray
    whiten: np.ndarray
    dof: int
    threshold: float


@dataclass(frozen=True)
class KalmanGains:
    """Prediction and measurement update from one joint covariance:
    x_pred = ab @ [x; u] with covariance ``p_pred``, then
    x_pred + gain (z_x - C x_pred) with covariance ``p_next``."""

    ab: np.ndarray
    p_pred: np.ndarray
    gain: np.ndarray
    p_next: np.ndarray


@dataclass(frozen=True)
class CycleGains:
    """Every matrix of one estimation cycle; a function of (model, P_x, bdd).

    The Kalman half is None from ``with_wls_gains`` until ``finish_cycle``
    fills it in. In the per-area cycle it is taken from the fused
    covariance, so it also depends on the fusion inputs (see
    ``distributed.run_round``).
    """

    wls: WlsGains
    kalman: KalmanGains | None


def settled(p_next, p) -> bool:
    """Whether one cycle left the covariance P unchanged to a relative 1e-14."""
    return float(np.max(np.abs(p_next - p))) <= 1e-14 * float(np.max(np.abs(p)))


def _finish(q, rinv, linv, qt_linv, bdd: BddConfig) -> WlsGains:
    """WLS gains from the whitened QR L^{-1} H = Q R, where W = L L' is
    the weight and ``qt_linv`` = Q' L^{-1}.

    The estimate map is R^{-1} Q' L^{-1} with covariance R^{-1} R^{-T}.
    The residual screen is the weighted residual sum of squares r' W^{-1} r
    with rows - unknowns degrees of freedom, |(L^{-1} - Q Q' L^{-1}) z|^2;
    with no redundancy the whitener is zero.
    """
    dof = q.shape[0] - q.shape[1]
    cov = rinv @ rinv.T
    return WlsGains(
        wls=rinv @ qt_linv,
        cov=0.5 * (cov + cov.T),
        whiten=linv - q @ qt_linv if dof else np.zeros(linv.shape),
        dof=dof,
        threshold=bdd.threshold(dof),
    )


def apply_wls(gains: WlsGains, observations):
    """Estimates and residual distances of one observation, or of each row."""
    w = observations @ gains.whiten.T
    return observations @ gains.wls.T, np.sqrt(np.sum(w * w, axis=-1))


def _report(distance, threshold: float, dof: int) -> BddReport:
    distance = float(distance)
    return BddReport(distance, threshold, distance >= threshold, dof)


def detect_bad_data(joint: JointEstimate, observation, design, weight, config: BddConfig) -> BddReport:
    """Screen the WLS residual r = z - O [x; u] of ``joint`` by the weighted
    residual sum of squares r' W^{-1} r = |L^{-1} r|^2 for the weight
    W = L L', with rows - unknowns degrees of freedom: the distance the
    gains path takes from its QR.
    """
    est = np.concatenate([joint.x_hat, joint.u_hat])
    residual = linalg.as_vector(observation, "observation") - design @ est
    factor = linalg.cholesky(np.asarray(weight, dtype=float), "bad-data weight")
    w = sla.solve_triangular(factor, residual, lower=True)
    dof = design.shape[0] - design.shape[1]
    return _report(np.sqrt(w @ w), config.threshold(dof), dof)


def joint_wls_gains(model: DiscreteModel, p_x, bdd: BddConfig) -> WlsGains:
    """WLS gains over the joint design [[I,0],[0,D],[C A_d, C B_d]] with
    weight diag(P_x, R_u, C Q C' + R_x).

    The rows under R_u and C Q C' + R_x are whitened and QR-factored once
    per model (``DiscreteModel.fixed_rows``: L_f^{-1} F = Q_0 R_0), so a
    call factors only P_x = L_p L_p' and the (n + k) x (n + m) stack
    [[L_p^{-1}, 0], [R_0]] = Q~ R; the whitened design's Q is
    [Q~_top; Q_0 Q~_bottom]. A P_x that has lost definiteness gets its
    eigenvalues floored at 1e-10 * max(trace, 1) before the one retry.
    """
    n, rows, unknowns = model.n, model.n + model.l + model.p, model.n + model.m
    try:
        if rows < unknowns:
            raise RankDeficient(f"underdetermined system: {rows} rows < {unknowns} unknowns", rank=rows)
        fixed = model.fixed_rows
        p = 0.5 * (p_x + p_x.T)
        try:
            l_p = linalg.cholesky(p, "P_x")
        except NotPositiveDefinite:
            p = linalg.clamp_eigenvalues(p, _S_CLAMP * max(np.trace(p), 1.0))
            l_p = linalg.cholesky(p, "P_x")
        p_inv = linalg.triangular_inverse(l_p, lower=True)
        stack = np.zeros((n + fixed.r0.shape[0], unknowns))
        stack[:n, :n] = p_inv
        stack[n:] = fixed.r0
        q_stack, r = np.linalg.qr(stack)
        rinv = linalg.full_rank_inverse(r, rows)
    except RankDeficient as exc:
        raise RankDeficient(
            "joint design rank deficient; unobservable inputs: "
            f"{check_joint_rank(model).unobservable_inputs}",
            rank=exc.rank,
        ) from exc
    q = np.empty((rows, unknowns))
    q[:n] = q_stack[:n]
    q[n:] = fixed.q0 @ q_stack[n:]
    qt_linv = np.empty((unknowns, rows))
    qt_linv[:, :n] = q_stack[:n].T @ p_inv
    qt_linv[:, n:] = q_stack[n:].T @ fixed.c0
    linv = np.zeros((rows, rows))
    linv[:n, :n] = p_inv
    linv[n:, n:] = fixed.whiten
    return _finish(q, rinv, linv, qt_linv, bdd)


def kalman_gains(model: DiscreteModel, cov) -> KalmanGains:
    """Prediction through the model and the Kalman update for joint covariance ``cov``."""
    ab = model.ab
    p_pred = linalg.symmetrize_psd(ab @ cov @ ab.T + model.q)
    return KalmanGains(ab, p_pred, *_update_gain(model, p_pred))


def _update_gain(model: DiscreteModel, p_pred):
    """Kalman gain and updated covariance for prior covariance ``p_pred``."""
    if model.p == 0:
        return np.zeros((model.n, 0)), linalg.symmetrize_psd(p_pred)
    c = model.c
    cp = c @ p_pred
    s = cp @ c.T + model.r_x
    factor = linalg.cholesky(0.5 * (s + s.T), "innovation covariance")
    gain = linalg.cho_solve(factor, cp).T
    return gain, linalg.symmetrize_psd((np.eye(model.n) - gain @ c) @ p_pred)


def apply_kalman(gains: KalmanGains, model: DiscreteModel, joint: JointEstimate, z_x_now, held: bool):
    """Predict the joint estimate forward, then update with ``z_x_now``
    unless the step is held; returns (x_hat, p_x)."""
    x_pred = gains.ab @ np.concatenate([joint.x_hat, joint.u_hat])
    if held:
        return x_pred, gains.p_pred
    return x_pred + gains.gain @ (z_x_now - model.c @ x_pred), gains.p_next


def skips_update(report: BddReport, bdd: BddConfig) -> bool:
    """Whether the "hold" policy skips this step's measurement update."""
    return report.flagged and bdd.policy == "hold"


def _observation(state: FilterState, z_u_prev, z_x_now) -> np.ndarray:
    model = state.model
    z_u_prev = linalg.as_vector(z_u_prev, "z_u_prev")
    z_x_now = linalg.as_vector(z_x_now, "z_x_now")
    if z_u_prev.shape[0] != model.l:
        raise DimensionMismatch(f"z_u_prev must have length {model.l}, got {z_u_prev.shape[0]}")
    if z_x_now.shape[0] != model.p:
        raise DimensionMismatch(f"z_x_now must have length {model.p}, got {z_x_now.shape[0]}")
    return np.concatenate([state.x_hat, z_u_prev, z_x_now])


def _estimate(gains: WlsGains, observation, n: int, step: int = 0) -> tuple[JointEstimate, BddReport]:
    estimate, distance = apply_wls(gains, observation)
    joint = JointEstimate(x_hat=estimate[:n], u_hat=estimate[n:], cov=gains.cov, step=step)
    return joint, _report(distance, gains.threshold, gains.dof)


def estimate_input(state: FilterState, z_u_prev, z_x_now) -> tuple[JointEstimate, BddReport]:
    """Jointly re-estimate the previous state and input by WLS.

    Stacks the previous estimate, the previous input measurements and the
    current state measurements over the design [[I,0],[0,D],[C A_d, C B_d]]
    with weight diag(P_x, R_u, C Q C' + R_x), using ``with_wls_gains``.
    """
    observation = _observation(state, z_u_prev, z_x_now)
    return _estimate(with_wls_gains(state).gains.wls, observation, state.model.n, state.step)


def predict(joint: JointEstimate, model: DiscreteModel):
    """Propagate the joint estimate one step: x = A_d x + B_d u."""
    gains = kalman_gains(model, joint.cov)
    return gains.ab @ np.concatenate([joint.x_hat, joint.u_hat]), gains.p_pred


def update(x_pred, p_pred, z_x_now, model: DiscreteModel):
    """Standard Kalman measurement update; returns (x_hat, p_x)."""
    x_pred = linalg.as_vector(x_pred, "x_pred")
    gain, p_x = _update_gain(model, p_pred)
    return x_pred + gain @ (z_x_now - model.c @ x_pred), p_x


def with_wls_gains(state: FilterState) -> FilterState:
    """The first half of a cycle: ``state`` carrying WLS gains, its own or
    ones computed at its P_x when it carries none."""
    if state.gains is not None:
        return state
    return replace(state, gains=CycleGains(joint_wls_gains(state.model, state.p_x, state.bdd), None))


def finish_cycle(
    state: FilterState, joint: JointEstimate, z_x_now, held: bool, kalman: KalmanGains | None = None
) -> FilterState:
    """The second half of a cycle: predict from ``joint``, update with
    ``z_x_now`` unless the step is held, and return the next state.

    ``kalman`` are the Kalman gains of ``joint.cov``; they are computed here
    when not given. The next state carries the state's WLS gains and these
    Kalman gains on while the cycle left P_x settled; a cycle that reused
    the state's Kalman gains carries the state's ``CycleGains`` itself.
    """
    model = state.model
    if kalman is None:
        kalman = kalman_gains(model, joint.cov)
    x_hat, p_x = apply_kalman(kalman, model, joint, z_x_now, held)
    gains = state.gains
    if gains is None or not settled(p_x, state.p_x):
        gains = None
    elif kalman is not gains.kalman:
        gains = CycleGains(gains.wls, kalman)
    return replace(state, x_hat=x_hat, p_x=p_x, step=state.step + 1, gains=gains)


def dsie_step(state: FilterState, z_u_prev, z_x_now):
    """One full estimation cycle; returns (next state, joint, bad-data report).

    The cycle is ``with_wls_gains``, the WLS estimate and screen, and
    ``finish_cycle`` with the Kalman gains the state carries. With the
    "hold" policy a flagged step skips the measurement update and carries
    the prediction forward; "alert-only" (default) always updates.
    """
    model = state.model
    observation = _observation(state, z_u_prev, z_x_now)
    state = with_wls_gains(state)
    joint, report = _estimate(state.gains.wls, observation, model.n, state.step)
    held = skips_update(report, state.bdd)
    z_x_now = observation[model.n + model.l :]
    return finish_cycle(state, joint, z_x_now, held, state.gains.kalman), joint, report


@dataclass(frozen=True)
class SnapshotResult:
    x_hat: np.ndarray
    u_hat: np.ndarray
    cov: np.ndarray
    bdd: BddReport


def snapshot_gains(model: DiscreteModel, bdd: BddConfig) -> WlsGains:
    """Gains of static single-time WLS over stacked (z_x, z_u)."""
    l, q, rinv, _ = linalg.whitened_qr(*model.measurement_design)
    linv = linalg.triangular_inverse(l, lower=True)
    return _finish(q, rinv, linv, q.T @ linv, bdd)


def wls_snapshot(z_x, z_u, model: DiscreteModel, bdd: BddConfig | None = None) -> SnapshotResult:
    """Static single-time WLS over stacked (z_x, z_u); no temporal information."""
    gains = snapshot_gains(model, bdd or BddConfig())
    observation = np.concatenate([linalg.as_vector(z_x, "z_x"), linalg.as_vector(z_u, "z_u")])
    joint, report = _estimate(gains, observation, model.n)
    return SnapshotResult(x_hat=joint.x_hat, u_hat=joint.u_hat, cov=joint.cov, bdd=report)


@dataclass(frozen=True)
class TseState:
    """Forecasting-aided tracking filter over the stacked (x, u) vector.

    ``gains`` are the last step's gains, carried while that step left P
    settled, so they are valid at ``p`` for the same Q; None makes the next
    step compute them.
    """

    y_hat: np.ndarray
    p: np.ndarray
    step: int = 0
    gains: TseGains | None = None

    def x_part(self, model):
        return self.y_hat[: model.n]

    def u_part(self, model):
        return self.y_hat[model.n :]


def initial_tse_state(model: DiscreteModel, x0, u0, p0) -> TseState:
    y0 = np.concatenate([linalg.as_vector(x0, "x0"), linalg.as_vector(u0, "u0")])
    return TseState(y_hat=y0, p=linalg.symmetrize_psd(linalg.as_covariance(p0, model.n + model.m)))


@dataclass(frozen=True)
class TseGains:
    """One tracking step's matrices at one P: with the innovation
    v = z - h y the update is y + gain v with covariance ``p_next``, and
    |whiten v| is the innovation's Mahalanobis distance."""

    h: np.ndarray
    gain: np.ndarray
    whiten: np.ndarray
    p_next: np.ndarray


def tse_gains(h, r, p, q) -> TseGains:
    """Tracking-step gains for measurement map ``h`` with noise ``r``, from P and Q."""
    p_pred = linalg.symmetrize_psd(p + q)
    s = h @ p_pred @ h.T + r
    try:
        factor = np.linalg.cholesky(0.5 * (s + s.T))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("tracking innovation covariance not positive definite") from None
    gain = sla.cho_solve((factor, True), h @ p_pred).T
    whiten = sla.solve_triangular(factor, np.eye(s.shape[0]), lower=True)
    p_next = linalg.symmetrize_psd((np.eye(p.shape[0]) - gain @ h) @ p_pred)
    return TseGains(h=h, gain=gain, whiten=whiten, p_next=p_next)


def tse_step(state: TseState, z_x, z_u, model: DiscreteModel, q_tse, bdd: BddConfig | None = None):
    """Random-walk tracking update over (x, u); returns (state, report).

    ``q_tse`` is the per-step random-walk process covariance (scalar,
    diagonal vector, or full matrix over the stacked vector). The step uses
    the gains the state carries, or computes ``tse_gains`` at ``state.p``
    when it carries none; the next state carries them on while P is settled.
    """
    bdd = bdd or BddConfig()
    gains = state.gains
    if gains is None:
        q = linalg.as_covariance(q_tse, model.n + model.m)
        gains = tse_gains(*model.measurement_design, state.p, q)
    z = np.concatenate([linalg.as_vector(z_x, "z_x"), linalg.as_vector(z_u, "z_u")])
    innovation = z - gains.h @ state.y_hat
    w = gains.whiten @ innovation
    dof = gains.h.shape[0]
    report = _report(np.sqrt(w @ w), bdd.threshold(dof), dof)
    y_hat = state.y_hat + gains.gain @ innovation
    carried = gains if settled(gains.p_next, state.p) else None
    return TseState(y_hat=y_hat, p=gains.p_next, step=state.step + 1, gains=carried), report
