"""Centralized joint state/input estimation cycle and the two baselines.

The per-step cycle is: weighted-least-squares estimation of the previous
state and input from (previous estimate, previous input measurements,
current state measurements), bad-data screening of that system's
residual, prediction through the discrete model, and a Kalman
measurement update (``linalg.kalman_update``, the update the tracking
baseline uses too). Every matrix of the cycle depends on the model, P_x
and the bad-data settings only. The cycle is written once, as two halves
that ``dsie_step`` and each area of ``distributed.run_round`` call: WLS
gains at P_x (``joint_wls_gains``), then ``finish_cycle``, which predicts
and updates. The rows of the joint design whose weight does not depend on
P_x are whitened and QR-factored once per model, so a gains call factors
only P_x and a small stack on top of them. The bad-data distance is the
weighted residual sum of squares r' W^{-1} r (the J(x) test with
rows - unknowns degrees of freedom), taken from the same QR. The
snapshot-WLS and tracking (random-walk) baselines live here as well: both
read the model's stacked measurement map.

A step's data work is written apart from its gains: ``apply_wls``,
``apply_kalman`` and ``apply_tse``. ``dsie_step`` and ``tse_step`` are the
per-step references: they take their gains at the state's covariance.

A filter's gains depend on the model, its P0 and settings, and each step's
pattern, and on no measurement: for dsie the pattern is whether the step
was held, for tse there is none, and for a ddsie area it is which neighbour
blocks it fused with their accept masks, and whether it held. So
``pipeline.run_dsie``, ``pipeline.run_tse`` and ``distributed.run_round``
walk a ``Node`` per step: the gains taken at one covariance, and a memo of
where each step from there led, keyed by the step's pattern. A step that
leaves the covariance ``settled`` keeps the node's gains; any other step
goes to a new node at the next covariance. Once the gains settle, a step is
a fixed linear map of the data.

Each filter's first node is stored in ``gains_table``, a least-recently-used
table shared by every run in the process, under the exact bytes of the
model (``DiscreteModel.content``), P0 and the settings (``plan``). A dsie or
tse step is clean when its filter is on its plan and the step was not held;
a ddsie round is clean when every area is on its plan, every message
arrived, every coordinate was accepted and no area held. Nodes reached by
clean steps stay on the plan, and later runs walk them. Every other node is
private to its run and keeps only its last successor, and a settled unclean
step from a plan node moves to a private copy with the same gains. So a run
that repeats a model, P0 and settings computes nothing before its first
held step, lost message or rejection. The table also holds the snapshot
gains (by the bad-data settings) and the prepared models of
``pipeline.prepare``. Its entries' arrays hold at most ``_GAINS_BUDGET``
bytes: a plan is charged for every node that joins it and for what that
node's memo entry keeps, and a step that would take one plan past the budget
leaves it instead, so a plan never evicts itself. The lazily built parts of
an entry (a model's fixed rows, a prepared model's rank report and area
models) are not counted.
"""

from __future__ import annotations

import functools
import math
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


# The records a step builds (JointEstimate, BddReport, FilterState, and the
# round records of ``distributed``) are slotted rather than frozen: a ddsie
# round builds several per area, a frozen field costs a call to set, and
# nothing hashes them. The package changes none once built.
@dataclass(slots=True)
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


@dataclass(slots=True)
class BddReport:
    distance: float
    threshold: float
    flagged: bool
    dof: int
    # Always False: the distance needs no residual covariance, so nothing
    # falls back. Kept because benchmark tracing counts it.
    diagonal_fallback: bool = False


@dataclass(slots=True)
class FilterState:
    """Single-owner filter recursion carrier; advanced by ``finish_cycle``."""

    model: DiscreteModel
    x_hat: np.ndarray
    p_x: np.ndarray
    bdd: BddConfig = field(default_factory=BddConfig)
    step: int = 0


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
    """Every matrix of one dsie cycle; a function of (model, P_x, bdd)."""

    wls: WlsGains
    kalman: KalmanGains


def settled(p_next, p) -> bool:
    """Whether one cycle left the covariance P unchanged to a relative 1e-14."""
    return p_next is p or float(np.abs(p_next - p).max()) <= 1e-14 * float(np.abs(p).max())


class Node:
    """One step's covariance-only work on a filter's path (module docstring).

    ``gains`` are the gains taken at covariance ``p``, built by ``make(p)``;
    ``memo`` maps the pattern of each step taken from here to a tuple of
    the node it led to and what else that step's covariance work built.
    ``plan`` is (``gains_table`` key, first node) of the plan the node is
    on, or None for a node private to one run. ``gates`` holds what a
    ddsie area's cross-check derives from the node's gains and one
    neighbour's block alone, by neighbour (``distributed.cross_check``);
    the table does not count it.
    """

    __slots__ = ("p", "gains", "make", "plan", "memo", "gates")

    def __init__(self, p, gains, make, plan=None):
        self.p = p
        self.gains = gains
        self.make = make
        self.plan = plan
        self.memo = {}
        self.gates = {}

    def step(self, pattern, clean: bool, build) -> tuple:
        """The memo entry of a step with ``pattern`` from here:
        (successor, *extras). On a miss ``build()`` does the step's
        covariance work and returns (p_next, *extras).

        The successor is this node while the step leaves the covariance
        ``settled``, a private copy of it when the step leaves a plan, and
        otherwise a new node at ``p_next``. A step stays on this node's plan
        only if it is ``clean`` and ``gains_table`` can charge the plan for
        the new node and the extras; a plan keeps those entries, and a
        private node keeps only its last entry.
        """
        entry = self.memo.get(pattern)
        if entry is not None:
            return entry
        p_next, *extras = build()
        moved = not settled(p_next, self.p)
        gains = self.make(p_next) if moved else self.gains
        if clean and self.plan is not None:
            grown = _array_bytes(extras) + (_array_bytes(gains) if moved else 0)
            if gains_table.charge(*self.plan, grown):
                entry = (Node(p_next, gains, self.make, self.plan) if moved else self, *extras)
                stored = self.memo.setdefault(pattern, entry)
                if stored is not entry:  # a concurrent walker stored it first
                    gains_table.charge(*self.plan, -grown)
                return stored
        if moved or self.plan is not None:
            entry = (Node(p_next if moved else self.p, gains, self.make), *extras)
        else:
            entry = (self, *extras)
        if self.plan is None:
            self.memo = {pattern: entry}
        return entry


def plan(model: DiscreteModel, p0, settings, make) -> Node:
    """The first node of the filter that starts at covariance ``p0``, with
    gains ``make(p0)``: stored in ``gains_table`` under the model's
    content, the bytes of ``p0`` and ``settings``, the rest of what the
    gains read."""
    key = (model.content, p0.tobytes(), settings)

    def first():
        node = Node(p0, make(p0), make)
        node.plan = (key, node)
        return node

    return gains_table.get(key, first)


def _array_bytes(value) -> int:
    """Bytes of the arrays in ``value``: an array, or a tuple, list or
    dataclass of them, or a node's gains."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(v) for v in value)
    if isinstance(value, Node):
        return _array_bytes(value.gains)
    if is_dataclass(value):
        return sum(_array_bytes(getattr(value, f.name)) for f in fields(value))
    return 0


class _GainsTable:
    """Plans, gains and prepared models shared by every run in the process:
    a least-recently-used map from exact keys to entries whose arrays hold
    at most ``budget`` bytes together. ``nbytes`` counts the arrays of an
    entry's fields and what ``charge`` adds to it, not the parts an entry
    builds lazily later.

    Concurrent callers may compute the same entry twice, all get the one
    stored first, never see a partial one, and a computation that raises
    stores nothing.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries = OrderedDict()  # key -> (value, its array bytes)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0

    def get(self, key, compute):
        """The value stored under ``key``, or ``compute()`` stored there."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry[0]
        value = compute()
        size = _array_bytes(value)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:  # a concurrent caller stored it first
                return entry[0]
            self._entries[key] = (value, size)
            self.nbytes += size
            self._evict()
        return value

    def charge(self, key, value, nbytes: int) -> bool:
        """Count ``nbytes`` more for ``value``, and make it the most recent,
        if it is still the entry under ``key`` and stays within the budget
        (older entries are evicted to make room); returns whether it did."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] is not value or entry[1] + nbytes > self.budget:
                return False
            self._entries[key] = (value, entry[1] + nbytes)
            self._entries.move_to_end(key)
            self.nbytes += nbytes
            self._evict()
            return True

    def _evict(self) -> None:
        while self.nbytes > self.budget:
            _, (_, evicted) = self._entries.popitem(last=False)
            self.nbytes -= evicted


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
    check of the measurements: their sum of squares, and only when that is
    not finite (an entry is not, or the sum overflowed) each entry, where
    ``linalg.as_vector`` names a bad one."""
    model = state.model
    z_u_prev = np.asarray(z_u_prev, dtype=float).reshape(-1)
    z_x_now = np.asarray(z_x_now, dtype=float).reshape(-1)
    observation = np.concatenate([state.x_hat, z_u_prev, z_x_now])
    measured = observation[model.n :]
    if not math.isfinite(measured.dot(measured)):
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


def estimate_input(
    state: FilterState, z_u_prev, z_x_now, gains: WlsGains | None = None
) -> tuple[JointEstimate, BddReport]:
    """Jointly re-estimate the previous state and input by WLS.

    Stacks the previous estimate, the previous input measurements and the
    current state measurements over the design [[I,0],[0,D],[C A_d, C B_d]]
    with weight diag(P_x, R_u, C Q C' + R_x), using ``gains``, or the WLS
    gains at the state's P_x when none are given.
    """
    observation = _observation(state, z_u_prev, z_x_now)
    if gains is None:
        gains = joint_wls_gains(state.model, state.p_x, state.bdd)
    return _estimate(gains, observation, state.model.n, state.step)


def predict(joint: JointEstimate, model: DiscreteModel):
    """Propagate the joint estimate one step: x = A_d x + B_d u."""
    gains = kalman_gains(model, joint.cov)
    return gains.ab @ joint.stacked, gains.p_pred


def update(x_pred, p_pred, z_x_now, model: DiscreteModel):
    """Standard Kalman measurement update; returns (x_hat, p_x)."""
    x_pred = linalg.as_vector(x_pred, "x_pred")
    gain, p_x, _ = linalg.kalman_update(p_pred, model.c, model.r_x)
    return x_pred + gain @ (z_x_now - model.c @ x_pred), p_x


def finish_cycle(
    state: FilterState, joint: JointEstimate, z_x_now, held: bool, kalman: KalmanGains
) -> FilterState:
    """The second half of a cycle: predict from ``joint`` with its Kalman
    gains ``kalman``, update with ``z_x_now`` unless the step is held, and
    return the next state."""
    x_hat, p_x = apply_kalman(kalman, state.model, joint.stacked, z_x_now, held)
    return FilterState(state.model, x_hat, p_x, state.bdd, state.step + 1)


def dsie_gains(model: DiscreteModel, p_x, bdd: BddConfig) -> CycleGains:
    """Both halves of a dsie cycle's gains at P_x."""
    wls = joint_wls_gains(model, p_x, bdd)
    return CycleGains(wls, kalman_gains(model, wls.cov))


def dsie_plan(model: DiscreteModel, p0, bdd: BddConfig) -> Node:
    """The first node of dsie from P0 (``plan``); its nodes hold ``dsie_gains``
    and are reached by whether each step was held."""
    return plan(model, p0, ("dsie", bdd), functools.partial(dsie_gains, model, bdd=bdd))


def dsie_step(state: FilterState, z_u_prev, z_x_now):
    """One full estimation cycle; returns (next state, joint, bad-data report).

    The per-step reference of ``pipeline.run_dsie``: the WLS estimate and
    screen with ``dsie_gains`` at the state's P_x, then ``finish_cycle``.
    With the "hold" policy a flagged step skips the measurement update and
    carries the prediction forward; "alert-only" (default) always updates.
    """
    model = state.model
    observation = _observation(state, z_u_prev, z_x_now)
    gains = dsie_gains(model, state.p_x, state.bdd)
    joint, report = _estimate(gains.wls, observation, model.n, state.step)
    held = skips_update(report, state.bdd)
    z_x_now = observation[model.n + model.l :]
    return finish_cycle(state, joint, z_x_now, held, gains.kalman), joint, report


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
    """Forecasting-aided tracking filter over the stacked (x, u) vector."""

    y_hat: np.ndarray
    p: np.ndarray
    step: int = 0

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


def tse_plan(model: DiscreteModel, p0, q) -> Node:
    """The first node of the tracking filter from P0 with random-walk
    covariance Q (``plan``); its nodes hold ``tse_gains`` of the model's
    stacked measurement map, and every step has the same pattern."""
    design = model.measurement_design
    return plan(
        model, p0, ("tse", q.shape, q.tobytes()),
        lambda p: tse_gains(*design, p, linalg.symmetrize_psd(q)),
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
    diagonal vector, or full matrix over the stacked vector). The per-step
    reference of ``pipeline.run_tse``: the step takes ``tse_gains`` at
    ``state.p``.
    """
    bdd = bdd or BddConfig()
    q = linalg.symmetrize_psd(linalg.as_covariance(q_tse, model.n + model.m))
    gains = tse_gains(*model.measurement_design, state.p, q)
    z = np.concatenate([linalg.as_vector(z_x, "z_x"), linalg.as_vector(z_u, "z_u")])
    y_hat, squared = apply_tse(gains, state.y_hat, z)
    dof = gains.h.shape[0]
    report = _report(np.sqrt(squared), bdd.threshold(dof), dof)
    return TseState(y_hat=y_hat, p=gains.p_next, step=state.step + 1), report
