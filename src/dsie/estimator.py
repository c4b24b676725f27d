"""Centralized joint state/input estimation cycle and the two baselines.

The per-step cycle is the least-squares estimate of (x(k-1), u(k-1), x(k))
from the prior x_hat(k-1) ~ P_x, z_u(k-1) = D u(k-1) ~ R_u, x(k) =
A_d x(k-1) + B_d u(k-1) ~ Q and z_x(k) = C x(k) ~ R_x, which uses each
measurement once (README "Estimation cycle"). Integrating x(k) out leaves
the joint WLS over y = (x(k-1), u(k-1)) with weight
diag(P_x, R_u, C Q C' + R_x), whose residual is screened for bad data; x(k)
is then the model's fixed map M y + K z_x(k) with covariance M P_y M' + Q_+
(``model.FixedRows``), or the prediction [A_d B_d] y on a held step. Every
matrix of the cycle depends on the model, P_x and the bad-data settings
only. The cycle is written once, as two halves that ``dsie_step`` and each
area of ``distributed.run_round`` call: WLS gains at P_x
(``joint_wls_gains``), then ``finish_cycle``. The rows of the joint design
whose weight does not depend on P_x are whitened and QR-factored once per
model, so a gains call factors only P_x and a small stack on top of them
(``prior_rows_gains``). The bad-data distance is the weighted residual sum
of squares r' W^{-1} r (the J(x) test with rows - unknowns degrees of
freedom), taken from the same QR. The snapshot-WLS and tracking
(random-walk) baselines live here as well, and take their gains from the
same step over the model's factored measurement rows: the tracking step is
the WLS estimate of (x, u) from its prior and the measurements.

A step's data work is written apart from its covariance work: ``apply_wls``,
``next_estimate`` and ``apply_tse``. ``dsie_step`` and ``tse_step`` are the
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
from scipy.special import gammaincinv

from . import linalg
from .errors import DimensionMismatch, NotPositiveDefinite, RankDeficient
from .model import DiscreteModel, check_joint_rank

# Relative eigenvalue floor of the P_x repair in ``joint_wls_gains``.
_P_FLOOR = 1e-10

# Bytes of the arrays the gains table holds: the whole example13 mix of dsie,
# wls, tse and ddsie stores about 10 MiB.
_GAINS_BUDGET = 32 * 2**20


# The records a step builds (JointEstimate, BddReport, FilterState, the
# gains records and the round records of ``distributed``) are slotted rather
# than frozen: a ddsie round builds several per area, a frozen field costs a
# call to set, and nothing hashes them. The package changes none once built.
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
    """sqrt(chi2.ppf(1 - alpha, dof)) as scipy.stats computes it, 2
    gammaincinv(dof / 2, 1 - alpha), without importing scipy.stats."""
    return float(np.sqrt(2.0 * gammaincinv(dof / 2.0, 1.0 - alpha)))


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


@dataclass(slots=True)
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


def settled(p_next, p) -> bool:
    """Whether one cycle left the covariance P unchanged to a relative 1e-14."""
    if p_next is p:
        return True
    largest = np.maximum.reduce  # ndarray.max without its Python wrapper
    return float(largest(np.abs(p_next - p), None)) <= 1e-14 * float(largest(np.abs(p), None))


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


def _finish(q, rinv, linv, qt_linv, bdd: BddConfig | None) -> WlsGains:
    """WLS gains from the whitened QR L^{-1} H = Q R, where W = L L' is
    the weight and ``qt_linv`` = Q' L^{-1}.

    The estimate map is R^{-1} Q' L^{-1} with covariance R^{-1} R^{-T}.
    The residual screen is the weighted residual sum of squares r' W^{-1} r
    with rows - unknowns degrees of freedom, |(L^{-1} - Q Q' L^{-1}) z|^2;
    with no redundancy the whitener is zero. The covariance comes out
    exactly symmetric. Without ``bdd`` the threshold is NaN: the caller
    tests at its own.
    """
    dof = q.shape[0] - q.shape[1]
    return WlsGains(
        wls=rinv @ qt_linv,
        cov=rinv @ rinv.T,  # numpy forms A A' symmetric (syrk)
        whiten=linv - q @ qt_linv if dof else np.zeros(linv.shape),
        dof=dof,
        threshold=math.nan if bdd is None else bdd.threshold(dof),
    )


def apply_wls(gains: WlsGains, observations):
    """Estimates and residual distances of one observation, or of each row."""
    w = observations.dot(gains.whiten.T)
    return observations.dot(gains.wls.T), np.sqrt(np.add.reduce(w * w, axis=-1))


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


def prior_rows_gains(rows: linalg.FactoredRows, p, bdd: BddConfig | None) -> WlsGains:
    """WLS gains over the prior rows [I, 0] on the first k = P.shape[0]
    unknowns, with weight P, stacked on the factored ``rows``.

    The observation is the prior estimate of those k unknowns followed by
    the rows' own. A call factors only P = L_p L_p' and the stack
    [[L_p^{-1}, 0], [R_0]] = Q~ R, for the rows' L_r^{-1} H = Q_0 R_0; the
    whitened design's Q is [Q~_top; Q_0 Q~_bottom]. With k = 0 the rows'
    own QR is the whole one. A P that has lost definiteness gets its
    eigenvalues floored at _P_FLOOR * max(trace, 1) before the one retry.
    P must be exactly symmetric, as every covariance of the package is: the
    factorization reads its lower triangle.
    """
    k, unknowns = p.shape[0], rows.r0.shape[1]
    total = k + rows.whiten.shape[0]
    if total < unknowns:
        raise RankDeficient(f"underdetermined system: {total} rows < {unknowns} unknowns", rank=total)
    if not k:
        return _finish(rows.q0, linalg.full_rank_inverse(rows.r0, total), rows.whiten, rows.c0, bdd)
    try:
        l_p = linalg.cholesky(p, "prior covariance")
    except NotPositiveDefinite:
        p = linalg.clamp_eigenvalues(p, _P_FLOOR * max(np.trace(p), 1.0))
        l_p = linalg.cholesky(p, "prior covariance")
    p_inv = linalg.triangular_inverse(l_p, lower=True)
    stack = np.zeros((k + rows.r0.shape[0], unknowns))
    stack[:k, :k] = p_inv
    stack[k:] = rows.r0
    q_stack, r = linalg.qr(stack)
    rinv = linalg.full_rank_inverse(r, total)
    q = np.empty((total, unknowns))
    q[:k] = q_stack[:k]
    q[k:] = rows.q0 @ q_stack[k:]
    qt_linv = np.empty((unknowns, total))
    qt_linv[:, :k] = q_stack[:k].T @ p_inv
    qt_linv[:, k:] = q_stack[k:].T @ rows.c0
    linv = np.zeros((total, total))
    linv[:k, :k] = p_inv
    linv[k:, k:] = rows.whiten
    return _finish(q, rinv, linv, qt_linv, bdd)


def joint_wls_gains(model: DiscreteModel, p_x, bdd: BddConfig) -> WlsGains:
    """WLS gains over the joint design [[I,0],[0,D],[C A_d, C B_d]] with
    weight diag(P_x, R_u, C Q C' + R_x): the prior rows at P_x on the
    model's fixed rows (``prior_rows_gains``, ``DiscreteModel.fixed_rows``),
    which are factored once per model.
    """
    try:
        return prior_rows_gains(model.fixed_rows, p_x, bdd)
    except RankDeficient as exc:
        raise RankDeficient(
            "joint design rank deficient; unobservable inputs: "
            f"{check_joint_rank(model).unobservable_inputs}",
            rank=exc.rank,
        ) from exc


def next_estimate(model: DiscreteModel, estimate, z_x_now, held: bool):
    """x_hat(k) from the stacked joint estimate [x_hat(k-1); u_hat(k-1)]:
    the model's map M y + K z_x(k) (``model.FixedRows``), or the prediction
    [A_d B_d] y when the step is held."""
    if held:
        return model.ab.dot(estimate)
    fixed = model.fixed_rows
    return fixed.transition.dot(estimate) + fixed.gain.dot(z_x_now)


def next_covariance(model: DiscreteModel, cov, held: bool):
    """P_x(k) from the joint covariance P_y of ``next_estimate``'s y:
    M P_y M' + Q_+, or [A_d B_d] P_y [A_d B_d]' + Q when the step is held;
    exactly symmetric."""
    if held:
        f, q = model.ab, model.q
    else:
        fixed = model.fixed_rows
        f, q = fixed.transition, fixed.q_plus
    p = f @ cov @ f.T + q
    return 0.5 * (p + p.T)


def skips_update(report: BddReport, bdd: BddConfig) -> bool:
    """Whether the "hold" policy takes the prediction for this step's x(k)
    instead of the map of the estimate and z_x(k) (``next_estimate``)."""
    return report.flagged and bdd.policy == "hold"


_FLOAT = np.dtype(float)


def _row(z) -> np.ndarray:
    """``z`` as a 1-D float64 array: ``z`` itself when it is one."""
    if z.__class__ is np.ndarray and z.ndim == 1 and z.dtype is _FLOAT:
        return z
    return np.asarray(z, dtype=float).reshape(-1)


def _observation(state: FilterState, z_u_prev, z_x_now) -> np.ndarray:
    """The stacked observation [x_hat; z_u_prev; z_x_now], with one finite
    check of the measurements: their sum of squares, and only when that is
    not finite (an entry is not, or the sum overflowed) each entry, where
    ``linalg.as_vector`` names a bad one."""
    model = state.model
    z_u_prev = _row(z_u_prev)
    z_x_now = _row(z_x_now)
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
    gains at the state's P_x, symmetrized, when none are given.
    """
    observation = _observation(state, z_u_prev, z_x_now)
    if gains is None:
        gains = joint_wls_gains(state.model, 0.5 * (state.p_x + state.p_x.T), state.bdd)
    return _estimate(gains, observation, state.model.n, state.step)


def predict(joint: JointEstimate, model: DiscreteModel):
    """Propagate the joint estimate one step: x = A_d x + B_d u, with
    covariance [A_d B_d] P [A_d B_d]' + Q."""
    return model.ab @ joint.stacked, next_covariance(model, joint.cov, True)


def update(x_pred, p_pred, z_x_now, model: DiscreteModel):
    """Measurement update of the prediction x_pred ~ P_pred by z_x = C x ~ R_x,
    as the WLS estimate from both (``prior_rows_gains``); returns
    (x_hat, p_x). With no measurement rows both are returned unchanged."""
    x_pred = linalg.as_vector(x_pred, "x_pred")
    if not model.p:
        return x_pred, p_pred
    gains = prior_rows_gains(linalg.factor_rows(model.c, model.r_x, "R_x"), p_pred, None)
    return gains.wls @ np.concatenate([x_pred, z_x_now]), gains.cov


def finish_cycle(state: FilterState, joint: JointEstimate, z_x_now, held: bool, p_x) -> FilterState:
    """The second half of a cycle: the next state from ``joint`` and
    ``z_x_now`` (``next_estimate``), with its covariance ``p_x``."""
    x_hat = next_estimate(state.model, joint.stacked, z_x_now, held)
    return FilterState(state.model, x_hat, p_x, state.bdd, state.step + 1)


def dsie_plan(model: DiscreteModel, p0, bdd: BddConfig) -> Node:
    """The first node of dsie from P0, symmetrized (``plan``); its nodes hold
    ``joint_wls_gains`` and are reached by whether each step was held."""
    p0 = 0.5 * (p0 + p0.T)
    return plan(model, p0, ("dsie", bdd), lambda p: joint_wls_gains(model, p, bdd))


def dsie_step(state: FilterState, z_u_prev, z_x_now):
    """One full estimation cycle; returns (next state, joint, bad-data report).

    The per-step reference of ``pipeline.run_dsie``: the WLS estimate and
    screen with ``joint_wls_gains`` at the state's P_x, symmetrized, then
    ``finish_cycle`` with ``next_covariance``.
    With the "hold" policy a flagged step does not use z_x(k) for x(k) and
    carries the prediction forward; "alert-only" (default) always uses it.
    """
    model = state.model
    observation = _observation(state, z_u_prev, z_x_now)
    gains = joint_wls_gains(model, 0.5 * (state.p_x + state.p_x.T), state.bdd)
    joint, report = _estimate(gains, observation, model.n, state.step)
    held = skips_update(report, state.bdd)
    z_x_now = observation[model.n + model.l :]
    p_x = next_covariance(model, gains.cov, held)
    return finish_cycle(state, joint, z_x_now, held, p_x), joint, report


@dataclass(frozen=True)
class SnapshotResult:
    x_hat: np.ndarray
    u_hat: np.ndarray
    cov: np.ndarray
    bdd: BddReport


def measurement_gains(model: DiscreteModel, bdd: BddConfig) -> WlsGains:
    """Gains of static single-time WLS over stacked (z_x, z_u): those of the
    model's measurement rows alone (``prior_rows_gains`` with no prior)."""
    return prior_rows_gains(model.measurement_rows, np.zeros((0, 0)), bdd)


def snapshot_gains(model: DiscreteModel, bdd: BddConfig) -> WlsGains:
    """``measurement_gains``, shared through ``gains_table``."""
    return gains_table.get((model.content, bdd), lambda: measurement_gains(model, bdd))


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


def initial_tse_state(model: DiscreteModel, x0, u0, p0) -> TseState:
    y0 = np.concatenate([linalg.as_vector(x0, "x0"), linalg.as_vector(u0, "u0")])
    return TseState(y_hat=y0, p=linalg.symmetrize_psd(linalg.as_covariance(p0, model.n + model.m)))


def tse_gains(model: DiscreteModel, p, q) -> WlsGains:
    """Tracking-step gains at the symmetric P and Q: the WLS estimate of
    y(k) = (x, u) from the prior y(k-1) ~ P + Q and the model's measurement
    rows (``prior_rows_gains``). Its weighted residual is the innovation's
    Mahalanobis distance, with p + l degrees of freedom, and its covariance
    the next P; its threshold is NaN, as the caller tests at its own."""
    return prior_rows_gains(model.measurement_rows, p + q, None)


def tse_plan(model: DiscreteModel, p0, q) -> Node:
    """The first node of the tracking filter from P0 with random-walk
    covariance Q (``plan``); its nodes hold ``tse_gains``, and every step
    has the same pattern. Q is validated once, when the first gains need
    it, so a run that walks a stored plan does not validate it."""
    checked = functools.cache(lambda: linalg.symmetrize_psd(q))
    return plan(model, p0, ("tse", q.shape, q.tobytes()), lambda p: tse_gains(model, p, checked()))


def apply_tse(gains: WlsGains, y_hat, z):
    """The tracking update of ``y_hat`` with observation ``z``: the next
    estimate and the squared Mahalanobis distance of the innovation."""
    observation = np.concatenate([y_hat, z])
    w = gains.whiten.dot(observation)
    return gains.wls.dot(observation), w.dot(w)


def tse_step(state: TseState, z_x, z_u, model: DiscreteModel, q_tse, bdd: BddConfig | None = None):
    """Random-walk tracking update over (x, u); returns (state, report).

    ``q_tse`` is the per-step random-walk process covariance (scalar,
    diagonal vector, or full matrix over the stacked vector). The per-step
    reference of ``pipeline.run_tse``: the step takes ``tse_gains`` at
    ``state.p``.
    """
    bdd = bdd or BddConfig()
    q = linalg.symmetrize_psd(linalg.as_covariance(q_tse, model.n + model.m))
    gains = tse_gains(model, state.p, q)
    z = np.concatenate([linalg.as_vector(z_x, "z_x"), linalg.as_vector(z_u, "z_u")])
    y_hat, squared = apply_tse(gains, state.y_hat, z)
    report = _report(np.sqrt(squared), bdd.threshold(gains.dof), gains.dof)
    return TseState(y_hat=y_hat, p=gains.cov, step=state.step + 1), report
