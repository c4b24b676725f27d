"""Centralized joint state/input estimation cycle and the two baselines.

The per-step cycle is: weighted-least-squares estimation of the previous
state and input from (previous estimate, previous input measurements,
current state measurements), bad-data screening of that system's
residual, prediction through the discrete model, and a Kalman
measurement update (``linalg.kalman_update``, the update the tracking
baseline uses too). Every matrix of the cycle depends on the model, P_x
and the bad-data settings only. The cycle is written once, as two halves
that ``dsie_step`` and each area of ``distributed.run_round`` call: the
state gets its WLS gains (``cycle_gains`` in ``dsie_step``, which takes
both halves at once; ``with_wls_gains`` in an area), and ``finish_cycle``
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

A step's data work is written apart from its gains: ``apply_wls``,
``apply_kalman`` and ``apply_tse``. ``dsie_step`` and ``tse_step`` call
them with the gains their state carries, or with ``cycle_gains`` and
``tse_gains_at`` when it carries none. ``pipeline.run_dsie`` and
``pipeline.run_tse`` are one loop each over the same functions, carrying
the gains by the same rule, so their outputs are bit-identical to one
step per row; once the gains settle, a step is a fixed linear map of the
data.

Gains that depend on no data are shared by every run in the process
through ``gains_table``, a least-recently-used table whose entries' arrays
hold at most ``_GAINS_BUDGET`` bytes, keyed by exact bytes: the model's
``DiscreteModel.content`` and the covariance the gains are taken at. It
holds the dsie cycle gains under the alert-only policy (keyed by P_x and
the bad-data settings, ``cycle_gains``), the tracking gains (by P
and Q), the snapshot gains (by the bad-data settings), a ddsie area's
gains while every round of its run is clean (``distributed.run_round``),
and the prepared models of ``pipeline.prepare`` (by the topology, the
sampling time and the scenario inputs they are built from). The lazily
built parts of an entry (a model's fixed rows, a prepared model's rank
report and area models) are not counted in its bytes.
A run that repeats a model, P0 and settings therefore computes nothing
before its filters settle, or its first lost message or rejection. Under
the hold policy dsie's covariance path depends on which steps were
flagged, and after a ddsie run's first unclean round each area's path
depends on the fusion, so those compute their gains as before and never
touch the table.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np
import scipy.linalg as sla
from scipy.stats import chi2

from . import linalg
from .errors import DimensionMismatch, NotPositiveDefinite, RankDeficient
from .model import DiscreteModel, check_joint_rank

# Relative eigenvalue floor of the P_x repair in ``joint_wls_gains``.
_P_FLOOR = 1e-10

# Bytes of the arrays the gains table holds: the whole example13 mix of dsie,
# wls, tse and ddsie stores about 10 MiB.
_GAINS_BUDGET = 32 * 2**20


@dataclass(frozen=True)
class JointEstimate:
    """Joint (state, input) estimate with its full covariance.

    ``cov`` is the (n+m) x (n+m) joint covariance; the block accessors
    slice it consistently with (x, u) stacking. ``y_hat`` is the stacked
    [x_hat; u_hat] the estimate was split from, or None (``stacked``).
    """

    x_hat: np.ndarray
    u_hat: np.ndarray
    cov: np.ndarray
    step: int = 0
    y_hat: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def stacked(self) -> np.ndarray:
        """The stacked [x_hat; u_hat]: ``y_hat``, or the two joined."""
        if self.y_hat is None:
            return np.concatenate([self.x_hat, self.u_hat])
        return self.y_hat

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
    cycle compute them, or take them from ``gains_table`` (``cycle_gains``,
    ``with_shared_gains``).
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

    The Kalman half is None from ``with_wls_gains`` (and from
    ``with_shared_gains`` for a cycle that fuses) until ``finish_cycle``
    fills it in. In the per-area cycle it is taken from the fused
    covariance, so it also depends on the fusion inputs (see
    ``distributed.run_round``).
    """

    wls: WlsGains
    kalman: KalmanGains | None


def settled(p_next, p) -> bool:
    """Whether one cycle left the covariance P unchanged to a relative 1e-14."""
    return p_next is p or float(np.abs(p_next - p).max()) <= 1e-14 * float(np.abs(p).max())


def _array_bytes(value) -> int:
    """Bytes of the arrays in ``value``: an array, or a tuple or dataclass of them."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_array_bytes(v) for v in value)
    if is_dataclass(value):
        return sum(_array_bytes(getattr(value, f.name)) for f in fields(value))
    return 0


class _GainsTable:
    """Gains and prepared models shared by every run in the process: a
    least-recently-used map from exact keys to entries whose arrays hold at
    most ``budget`` bytes together. ``nbytes`` counts the arrays of an
    entry's fields, not the parts it builds lazily later.

    Concurrent callers may compute the same gains twice, never see a
    partial entry, and a computation that raises stores nothing.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries = OrderedDict()  # key -> (gains, their array bytes)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0

    def get(self, key, compute):
        """The gains stored under ``key``, or ``compute()`` stored there."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
        gains = compute()
        size = _array_bytes(gains)
        with self._lock:
            replaced = self._entries.pop(key, None)
            if replaced is not None:
                self.nbytes -= replaced[1]
            self._entries[key] = (gains, size)
            self.nbytes += size
            while self.nbytes > self.budget:
                _, (_, evicted) = self._entries.popitem(last=False)
                self.nbytes -= evicted
        return gains


gains_table = _GainsTable(_GAINS_BUDGET)


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
    return observations @ gains.wls.T, np.sqrt((w * w).sum(axis=-1))


def _report(distance, threshold: float, dof: int) -> BddReport:
    distance = float(distance)
    return BddReport(distance, threshold, distance >= threshold, dof)


def detect_bad_data(joint: JointEstimate, observation, design, weight, config: BddConfig) -> BddReport:
    """Screen the WLS residual r = z - O [x; u] of ``joint`` by the weighted
    residual sum of squares r' W^{-1} r = |L^{-1} r|^2 for the weight
    W = L L', with rows - unknowns degrees of freedom: the distance the
    gains path takes from its QR.
    """
    residual = linalg.as_vector(observation, "observation") - design @ joint.stacked
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
    eigenvalues floored at _P_FLOOR * max(trace, 1) before the one retry.
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
            p = linalg.clamp_eigenvalues(p, _P_FLOOR * max(np.trace(p), 1.0))
            l_p = linalg.cholesky(p, "P_x")
        p_inv = linalg.triangular_inverse(l_p, lower=True)
        stack = np.zeros((n + fixed.r0.shape[0], unknowns))
        stack[:n, :n] = p_inv
        stack[n:] = fixed.r0
        q_stack, r = linalg.qr(stack)
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
    p_pred = ab @ cov @ ab.T + model.q
    p_pred = 0.5 * (p_pred + p_pred.T)
    gain, p_next, _ = linalg.kalman_update(p_pred, model.c, model.r_x)
    return KalmanGains(ab, p_pred, gain, p_next)


def apply_kalman(gains: KalmanGains, model: DiscreteModel, estimate, z_x_now, held: bool):
    """Predict the stacked joint estimate [x; u] forward, then update with
    ``z_x_now`` unless the step is held; returns (x_hat, p_x)."""
    x_pred = gains.ab @ estimate
    if held:
        return x_pred, gains.p_pred
    return x_pred + gains.gain @ (z_x_now - model.c @ x_pred), gains.p_next


def skips_update(report: BddReport, bdd: BddConfig) -> bool:
    """Whether the "hold" policy skips this step's measurement update."""
    return report.flagged and bdd.policy == "hold"


def _observation(state: FilterState, z_u_prev, z_x_now) -> np.ndarray:
    """The stacked observation [x_hat; z_u_prev; z_x_now], with one finite
    check of the measurements; ``linalg.as_vector`` names a bad one."""
    model = state.model
    z_u_prev = np.asarray(z_u_prev, dtype=float).reshape(-1)
    z_x_now = np.asarray(z_x_now, dtype=float).reshape(-1)
    observation = np.concatenate([state.x_hat, z_u_prev, z_x_now])
    if not np.isfinite(observation[model.n :]).all():
        linalg.as_vector(z_u_prev, "z_u_prev")
        linalg.as_vector(z_x_now, "z_x_now")
    if z_u_prev.shape[0] != model.l:
        raise DimensionMismatch(f"z_u_prev must have length {model.l}, got {z_u_prev.shape[0]}")
    if z_x_now.shape[0] != model.p:
        raise DimensionMismatch(f"z_x_now must have length {model.p}, got {z_x_now.shape[0]}")
    return observation


def _estimate(gains: WlsGains, observation, n: int, step: int = 0) -> tuple[JointEstimate, BddReport]:
    estimate, distance = apply_wls(gains, observation)
    joint = JointEstimate(
        x_hat=estimate[:n], u_hat=estimate[n:], cov=gains.cov, step=step, y_hat=estimate
    )
    return joint, _report(distance, gains.threshold, gains.dof)


def estimate_input(state: FilterState, z_u_prev, z_x_now) -> tuple[JointEstimate, BddReport]:
    """Jointly re-estimate the previous state and input by WLS.

    Stacks the previous estimate, the previous input measurements and the
    current state measurements over the design [[I,0],[0,D],[C A_d, C B_d]]
    with weight diag(P_x, R_u, C Q C' + R_x), using the WLS gains the
    state carries, or ``with_wls_gains`` when it carries none.
    """
    observation = _observation(state, z_u_prev, z_x_now)
    gains = state.gains or with_wls_gains(state).gains
    return _estimate(gains.wls, observation, state.model.n, state.step)


def predict(joint: JointEstimate, model: DiscreteModel):
    """Propagate the joint estimate one step: x = A_d x + B_d u."""
    gains = kalman_gains(model, joint.cov)
    return gains.ab @ joint.stacked, gains.p_pred


def update(x_pred, p_pred, z_x_now, model: DiscreteModel):
    """Standard Kalman measurement update; returns (x_hat, p_x)."""
    x_pred = linalg.as_vector(x_pred, "x_pred")
    gain, p_x, _ = linalg.kalman_update(p_pred, model.c, model.r_x)
    return x_pred + gain @ (z_x_now - model.c @ x_pred), p_x


def _with_gains(state: FilterState, gains: CycleGains) -> FilterState:
    """``state`` carrying ``gains``."""
    return FilterState(state.model, state.x_hat, state.p_x, state.bdd, state.step, gains)


def with_wls_gains(state: FilterState) -> FilterState:
    """The first half of a cycle: ``state`` carrying WLS gains, its own or
    ones computed at its P_x when it carries none."""
    if state.gains is not None:
        return state
    return _with_gains(state, CycleGains(joint_wls_gains(state.model, state.p_x, state.bdd), None))


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
    x_hat, p_x = apply_kalman(kalman, model, joint.stacked, z_x_now, held)
    gains = state.gains
    if gains is None or not settled(p_x, state.p_x):
        gains = None
    elif kalman is not gains.kalman:
        gains = CycleGains(gains.wls, kalman)
    return FilterState(model, x_hat, p_x, state.bdd, state.step + 1, gains)


def _cycle_gains(model: DiscreteModel, p_x, bdd: BddConfig, fuses: bool = False) -> CycleGains:
    wls = joint_wls_gains(model, p_x, bdd)
    return CycleGains(wls, None if fuses else kalman_gains(model, wls.cov))


def _shared_cycle_gains(model: DiscreteModel, p_x, bdd: BddConfig, fuses: bool) -> CycleGains:
    """The cycle gains stored in ``gains_table`` under (content, P_x bytes,
    bdd), where a miss computes and stores them."""
    key = (model.content, p_x.tobytes(), bdd)
    return gains_table.get(key, functools.partial(_cycle_gains, model, p_x, bdd, fuses))


def with_shared_gains(state: FilterState, fuses: bool = False) -> FilterState:
    """``with_wls_gains`` for a state whose covariance path depends on the
    model, P0 and the bad-data settings only: one that carries no gains
    takes them from ``gains_table``.

    The entry holds the cycle's Kalman half too, unless the cycle ``fuses``
    neighbor estimates between its halves (a ``ddsie`` area with
    neighbors), which makes that half depend on the fusion. A cycle that
    finds no Kalman half computes it, and a fusing one ignores it, so an
    entry serves either.
    """
    if state.gains is not None:
        return state
    return _with_gains(state, _shared_cycle_gains(state.model, state.p_x, state.bdd, fuses))


def cycle_gains(model: DiscreteModel, p_x, bdd: BddConfig) -> CycleGains:
    """Both halves of a dsie cycle's gains at P_x.

    Under "alert-only" the covariance path depends on the model, P0 and the
    bad-data settings only, so they come from ``gains_table``; under "hold"
    it depends on which steps were flagged, and they are computed.
    """
    if bdd.policy != "alert-only":
        return _cycle_gains(model, p_x, bdd)
    gains = _shared_cycle_gains(model, p_x, bdd, fuses=False)
    if gains.kalman is None:  # stored by a fusing ddsie area
        gains = CycleGains(gains.wls, kalman_gains(model, gains.wls.cov))
    return gains


def dsie_step(state: FilterState, z_u_prev, z_x_now):
    """One full estimation cycle; returns (next state, joint, bad-data report).

    The cycle is the WLS estimate and screen with the gains the state
    carries, or ``cycle_gains`` at its P_x when it carries none, then
    ``finish_cycle``. With the "hold" policy a flagged step skips the
    measurement update and carries the prediction forward; "alert-only"
    (default) always updates.
    """
    model = state.model
    observation = _observation(state, z_u_prev, z_x_now)
    if state.gains is None:
        state = _with_gains(state, cycle_gains(model, state.p_x, state.bdd))
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
    """Gains of static single-time WLS over stacked (z_x, z_u), shared
    through ``gains_table``."""

    def compute():
        l, q, rinv, _ = linalg.whitened_qr(*model.measurement_design)
        linv = linalg.triangular_inverse(l, lower=True)
        return _finish(q, rinv, linv, q.T @ linv, bdd)

    return gains_table.get((model.content, bdd), compute)


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
    step take them from ``gains_table`` or compute them.
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
    """Tracking-step gains for measurement map ``h`` with noise ``r``, from
    the symmetric P and Q.

    The step is the measurement update (``linalg.kalman_update``) of the
    random-walk prediction P + Q; the innovation whitener is L^{-1} for the
    returned factor L of the innovation covariance S = L L'.
    """
    gain, p_next, factor = linalg.kalman_update(p + q, h, r, "tracking innovation covariance")
    whiten = sla.solve_triangular(factor, np.eye(factor.shape[0]), lower=True)
    return TseGains(h=h, gain=gain, whiten=whiten, p_next=p_next)


def tse_gains_at(model: DiscreteModel, p, q) -> TseGains:
    """``tse_gains`` of the model's stacked measurement map at P and the
    random-walk covariance Q, taken from ``gains_table``."""
    return gains_table.get(
        (model.content, p.tobytes(), q.shape, q.tobytes()),
        lambda: tse_gains(*model.measurement_design, p, linalg.symmetrize_psd(q)),
    )


def apply_tse(gains: TseGains, y_hat, z):
    """The tracking update of ``y_hat`` with observation ``z``: the next
    estimate and the squared Mahalanobis distance of the innovation."""
    innovation = z - gains.h @ y_hat
    w = gains.whiten @ innovation
    return y_hat + gains.gain @ innovation, w @ w


def tse_step(state: TseState, z_x, z_u, model: DiscreteModel, q_tse, bdd: BddConfig | None = None):
    """Random-walk tracking update over (x, u); returns (state, report).

    ``q_tse`` is the per-step random-walk process covariance (scalar,
    diagonal vector, or full matrix over the stacked vector). The step uses
    the gains the state carries, or ``tse_gains_at`` at ``state.p`` when it
    carries none; the next state carries them on while P is settled.
    """
    bdd = bdd or BddConfig()
    gains = state.gains
    if gains is None:
        gains = tse_gains_at(model, state.p, linalg.as_covariance(q_tse, model.n + model.m))
    z = np.concatenate([linalg.as_vector(z_x, "z_x"), linalg.as_vector(z_u, "z_u")])
    y_hat, squared = apply_tse(gains, state.y_hat, z)
    dof = gains.h.shape[0]
    report = _report(np.sqrt(squared), bdd.threshold(dof), dof)
    carried = gains if settled(gains.p_next, state.p) else None
    return TseState(y_hat=y_hat, p=gains.p_next, step=state.step + 1, gains=carried), report
