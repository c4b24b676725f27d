"""Multi-area estimation in synchronous lockstep rounds.

Each area runs the centralized cycle of ``estimator`` on its own model,
with its neighbors' shared-input estimates fused between the two halves.
Each round: every area runs its local joint estimation, extracts
shared-input estimates into messages for its neighbors, the transport
delivers (or drops) them, and each area cross-checks incoming estimates,
fuses the accepted coordinates as extra measurements, and finishes the
cycle (``estimator.finish_cycle``). A missing or rejected message degrades
to local-only estimation for that neighbor; nothing aborts the round. An
area reuses its local WLS gains while its P_x is settled, and its fusion
and Kalman gains while the fusion inputs are also those of the last round.

A run's rounds are clean while, in every round so far, each area got each
neighbor's message for that step and accepted every coordinate. Under the
alert-only policy the covariance path of a clean run depends on the
models, P0 and the bad-data settings only, so its areas share their gains
with every later run through ``estimator.gains_table``, as dsie does: the
WLS gains (``estimator.with_shared_gains``) and the fusion and Kalman
gains. From the first unclean round on, the run's areas compute them
alone. An area with no neighbors runs dsie's cycle exactly.

Next to its gains, an area carries what a round derives from covariances
alone (``AreaEstimator``): each neighbor's block of its joint covariance
for the messages, the gate widths of each neighbor's coordinates, and
which blocks its fusion gains were taken at. Each is held with references
to the objects it came from (the local covariance, the neighbor's block)
and reused only while the round's objects are those same objects (``is``),
so a round that carries its gains does only the data work, and a state
whose gains are dropped (``gains = None``) or replaced rebuilds them. Over
30 seeds of the benchmark workloads, 88 % of fixture4-mc's area-rounds and
85 % of example13-cli's carry or share their WLS gains, and none of
fixture4-soak's, where every round of a lossy hold run recomputes them: such
a two-area round costs about 0.35 ms on a 2-vCPU x86 machine with OpenBLAS
on one thread (the benchmark's ``step_ms.ddsie``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import estimator, linalg
from .errors import CoordinateMismatch, NotPositiveDefinite
from .estimator import (
    BddConfig,
    BddReport,
    FilterState,
    JointEstimate,
    KalmanGains,
    estimate_input,
    finish_cycle,
    initial_state,
    skips_update,
    with_shared_gains,
    with_wls_gains,
)
from .model import AreaModel


@dataclass(frozen=True)
class ShareMessage:
    """One area's shared-input estimates for one neighbor, one step."""

    sender: str
    recipient: str
    step: int
    coordinate_ids: tuple[str, ...]
    u_shared: np.ndarray
    p_shared: np.ndarray
    flags: tuple[bool, ...]


@dataclass(frozen=True)
class CrossCheckReport:
    coordinate_ids: tuple[str, ...]
    difference: np.ndarray
    accept: tuple[bool, ...]
    threshold: np.ndarray
    kappa: float


@dataclass
class AreaEstimator:
    """Single-owner estimator for one area.

    ``fusion`` is the last round's (WLS gains, fusion inputs,
    ``FusionGains`` or None, Kalman gains); see ``_fuse_reusing``.
    ``clean`` says whether every round of the area's run so far was clean
    (module docstring).

    The other three fields carry what a round derives from covariances
    alone, each with the objects it came from (module docstring):
    ``outgoing`` is (local covariance, each neighbor's block of it) for the
    messages of ``local_phase``; ``gates`` maps a neighbor to the
    ``cross_check`` gate widths of its coordinates; ``fused`` is
    (``fusion``, (block, accept mask) of each accepted message) for
    ``_fuse_reusing``. None or empty makes the next round rebuild them.
    """

    area: AreaModel
    state: FilterState
    kappa: float = 3.0
    fusion: tuple | None = None
    clean: bool = True
    outgoing: tuple | None = None
    gates: dict = field(default_factory=dict)
    fused: tuple | None = None

    @property
    def area_id(self) -> str:
        return self.area.area_id

    @property
    def shares(self) -> bool:
        """Whether the area takes its gains from ``estimator.gains_table``:
        under the alert-only policy, while its run's rounds are clean, its
        covariance path depends on the models, P0 and the bad-data settings
        only."""
        return self.clean and self.state.bdd.policy == "alert-only"


def make_area_estimator(area: AreaModel, x0, p0, bdd: BddConfig | None = None, kappa: float = 3.0):
    return AreaEstimator(area=area, state=initial_state(area.model, x0, p0, bdd), kappa=kappa)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def local_phase(est: AreaEstimator, z_u_prev, z_x_now):
    """Run the local joint estimation and build one message per neighbor.

    The state takes its WLS gains here, once per round, and keeps them for
    the rest of the round: from ``with_shared_gains`` while the area
    shares, from ``with_wls_gains`` otherwise. Each message's covariance
    block is the read-only one ``est.outgoing`` carries while the joint
    covariance is the same object.
    """
    area = est.area
    neighbors = area.neighbors
    if est.shares:
        est.state = with_shared_gains(est.state, fuses=bool(neighbors))
    else:
        est.state = with_wls_gains(est.state)
    joint, report = estimate_input(est.state, z_u_prev, z_x_now)
    if not neighbors:
        return joint, report, {}
    if est.outgoing is None or est.outgoing[0] is not joint.cov:
        blocks = {nb: _read_only(joint.cov[area.shared_index[nb].block]) for nb in neighbors}
        est.outgoing = (joint.cov, blocks)
    blocks = est.outgoing[1]
    messages = {}
    flag = (bool(report.flagged),)
    for neighbor in neighbors:
        shared = area.shared_index[neighbor]
        messages[neighbor] = ShareMessage(
            sender=est.area_id,
            recipient=neighbor,
            step=est.state.step,
            coordinate_ids=area.shared_coordinates[neighbor],
            u_shared=joint.u_hat[shared.u],
            p_shared=blocks[neighbor],
            flags=flag * shared.u.shape[0],
        )
    return joint, report, messages


def cross_check(
    local: JointEstimate, msg: ShareMessage, area: AreaModel, kappa: float = 3.0,
    gates: dict | None = None,
) -> CrossCheckReport:
    """Gate each shared coordinate on |local - neighbor| vs. kappa sigma.

    The gate width is kappa * sqrt(local variance + neighbor variance) per
    coordinate; a coordinate the sender itself flagged is rejected outright.
    ``gates``, when given, carries the widths from call to call: it maps
    the sender to (local covariance, neighbor block, kappa, widths), reused
    while both covariances are the same objects and kappa is equal.
    """
    pairs = area.shared_inputs.get(msg.sender)
    coords = area.shared_coordinates.get(msg.sender)
    if pairs is None or coords != msg.coordinate_ids:
        raise CoordinateMismatch(
            f"message coordinates {msg.coordinate_ids!r} do not match the "
            f"share map with {msg.sender!r}"
        )
    k = len(pairs)
    if msg.u_shared.shape[0] != k or msg.p_shared.shape != (k, k) or len(msg.flags) != k:
        raise CoordinateMismatch("share message sizes inconsistent with coordinate list")
    shared = area.shared_index[msg.sender]
    difference = np.abs(local.u_hat[shared.u] - msg.u_shared)
    carried = None if gates is None else gates.get(msg.sender)
    if (
        carried is not None
        and carried[0] is local.cov
        and carried[1] is msg.p_shared
        and carried[2] == kappa
    ):
        threshold = carried[3]
    else:
        variance = local.cov[shared.stacked, shared.stacked] + msg.p_shared.diagonal()
        threshold = _read_only(kappa * np.sqrt(np.maximum(variance, 0.0)))
        if gates is not None:
            gates[msg.sender] = (local.cov, msg.p_shared, kappa, threshold)
    within = (difference <= threshold).tolist()
    if any(msg.flags):
        within = [ok and not flag for ok, flag in zip(within, msg.flags)]
    accept = tuple(within)
    return CrossCheckReport(
        coordinate_ids=msg.coordinate_ids,
        difference=difference,
        accept=accept,
        threshold=threshold,
        kappa=kappa,
    )


@dataclass(frozen=True)
class FusionGains:
    """Fusion of neighbor values z of the stacked (x, u) coordinates
    ``idx``: fused = y + gain (z - y[idx]) with covariance ``cov``."""

    idx: np.ndarray
    gain: np.ndarray
    cov: np.ndarray


def _fusion_update(u, idx, p_nb):
    hu = u.take(idx, 0)  # H U for H = the rows idx of the identity
    s = hu.take(idx, 1) + p_nb
    factor = linalg.cholesky(0.5 * (s + s.T), "fusion innovation covariance")
    gain = linalg.cho_solve(factor, hu).T
    fused = u - gain @ hu
    return gain, 0.5 * (fused + fused.T)


def fusion_gains(cov, idx, p_nb) -> FusionGains:
    """Gains of fusing measurements of the coordinates ``idx``, with noise
    covariance ``p_nb``, into an estimate with covariance U = ``cov``.

    The fusion is the measurement update of U by H = the rows ``idx`` of
    the identity, the same as the stacked WLS solution: with
    S = U[idx, idx] + p_nb and K = U[:, idx] S^-1 the fused covariance is
    U - K U[idx, :], from one k x k factorization for k fused coordinates,
    in O(d^2 k) for U of size d. If S cannot be factored, U's eigenvalues
    are floored at 1e-12 * max(trace, 1) before the one retry.
    """
    u = 0.5 * (cov + cov.T)
    try:
        gain, fused = _fusion_update(u, idx, p_nb)
    except NotPositiveDefinite:  # the local covariance lost definiteness
        u = linalg.clamp_eigenvalues(u, 1e-12 * max(np.trace(u), 1.0))
        gain, fused = _fusion_update(u, idx, p_nb)
    return FusionGains(idx=idx, gain=gain, cov=fused)


def apply_fusion(gains: FusionGains, local: JointEstimate, z) -> JointEstimate:
    y = local.stacked
    fused = y + gains.gain @ (z - y.take(gains.idx))
    n = local.n
    return JointEstimate(
        x_hat=fused[:n], u_hat=fused[n:], cov=gains.cov, step=local.step, y_hat=fused
    )


def _fusion_design(accepted, area: AreaModel):
    """(idx, p_nb) of the accepted coordinates: the stacked (x, u)
    positions they measure and the block diagonal of the neighbors'
    covariance blocks."""
    idx, blocks = [], []
    for msg, mask in accepted:
        stacked = area.shared_index[msg.sender].stacked
        if all(mask):
            idx.append(stacked)
            blocks.append(msg.p_shared)
        else:
            keep = np.flatnonzero(mask)
            idx.append(stacked[keep])
            blocks.append(msg.p_shared[np.ix_(keep, keep)])
    if not idx:
        return np.zeros(0, dtype=np.intp), np.zeros((0, 0))
    idx = np.concatenate(idx)
    p_nb = np.zeros((idx.shape[0], idx.shape[0]))
    at = 0
    for block in blocks:
        k = block.shape[0]
        p_nb[at : at + k, at : at + k] = block
        at += k
    return idx, p_nb


def _fusion_values(accepted):
    """The neighbors' values of the accepted coordinates, in
    ``_fusion_design``'s order."""
    values = [
        msg.u_shared if all(mask) else msg.u_shared[np.flatnonzero(mask)]
        for msg, mask in accepted
    ]
    return np.concatenate(values) if values else np.zeros(0)


def fuse(local: JointEstimate, accepted, area: AreaModel) -> JointEstimate:
    """Fold accepted neighbor estimates in as extra measurements.

    ``accepted`` is a list of (ShareMessage, accept mask). Each accepted
    shared coordinate measures the local one with the neighbor's marginal
    covariance block as noise (``fusion_gains``). With no accepted
    coordinates the local estimate is returned unchanged.
    """
    idx, p_nb = _fusion_design(accepted, area)
    if not idx.size:
        return local
    return apply_fusion(fusion_gains(local.cov, idx, p_nb), local, _fusion_values(accepted))


def _fusion_and_kalman(model, cov, idx, p_nb):
    """The fusion gains at local covariance ``cov`` and the Kalman gains of
    the fused covariance (the local one when nothing is fused)."""
    gains = fusion_gains(cov, idx, p_nb) if idx.size else None
    return gains, estimator.kalman_gains(model, cov if gains is None else gains.cov)


def _fuses_as_carried(est: AreaEstimator, wls, accepted) -> bool:
    """Whether ``est.fused`` says the round's fusion inputs are those of
    ``est.fusion``: the same WLS gains and accept masks, and each accepted
    message's covariance block the same object."""
    fused = est.fused
    if (
        fused is None
        or fused[0] is not est.fusion
        or est.fusion[0] is not wls
        or len(fused[1]) != len(accepted)
    ):
        return False
    for (block, mask), (msg, accept) in zip(fused[1], accepted):
        if block is not msg.p_shared or mask != accept:
            return False
    return True


def _fuse_reusing(est: AreaEstimator, local: JointEstimate, accepted):
    """``fuse`` for ``run_round``; returns (fused, the Kalman gains of its
    covariance, or None when ``finish_cycle`` must compute them).

    An area with no neighbors runs dsie's cycle: nothing is fused, and the
    Kalman gains are those the state carries. Any other area reuses the
    last round's gains while the fusion inputs repeat: the same local WLS
    gains (the same object), the same accepted coordinates and the
    neighbors' covariance blocks, compared as objects (``est.fused``) or
    else bit for bit. Whether the step is held does not enter the gains.
    Otherwise, while the area shares, it takes them from
    ``estimator.gains_table`` keyed by the model, the local covariance,
    ``idx`` and the neighbor blocks.
    """
    if not est.area.neighbors:
        return local, est.state.gains.kalman
    wls = est.state.gains.wls
    if not _fuses_as_carried(est, wls, accepted):
        idx, p_nb = _fusion_design(accepted, est.area)
        inputs = (idx.tobytes(), p_nb.tobytes())
        if est.fusion is None or est.fusion[0] is not wls or est.fusion[1] != inputs:
            model = est.area.model
            compute = functools.partial(_fusion_and_kalman, model, local.cov, idx, p_nb)
            if est.shares:
                key = (model.content, local.cov.tobytes(), *inputs)
                gains = estimator.gains_table.get(key, compute)
            else:
                gains = compute()
            est.fusion = (wls, inputs, *gains)
        blocks = tuple((msg.p_shared, mask) for msg, mask in accepted)
        est.fused = (est.fusion, blocks)
    _, _, gains, kalman = est.fusion
    if gains is None:
        return local, kalman
    return apply_fusion(gains, local, _fusion_values(accepted)), kalman


def finalize_phase(
    est: AreaEstimator, fused: JointEstimate, z_x_now, held: bool = False,
    kalman: KalmanGains | None = None,
) -> FilterState:
    """Finish the area's cycle from the fused joint estimate (``finish_cycle``):
    predict, update unless the step is held, and carry the gains on.
    ``kalman`` are the Kalman gains of ``fused.cov``, or None to compute them."""
    return finish_cycle(est.state, fused, z_x_now, held, kalman)


class Transport:
    """In-process message delivery; subclasses may drop or delay."""

    def deliver(self, messages: list[ShareMessage]) -> list[ShareMessage]:
        return list(messages)


class LossyTransport(Transport):
    """Drops each message independently with probability ``drop_rate`` and
    delays each surviving message by one round with probability
    ``delay_rate`` (delayed messages arrive stale and are ignored by the
    step check)."""

    def __init__(self, drop_rate: float = 0.0, delay_rate: float = 0.0, seed: int = 0):
        if not 0.0 <= drop_rate <= 1.0 or not 0.0 <= delay_rate <= 1.0:
            raise ValueError("drop_rate and delay_rate must be in [0, 1]")
        self.drop_rate = float(drop_rate)
        self.delay_rate = float(delay_rate)
        self._rng = np.random.default_rng(seed)
        self._held: list[ShareMessage] = []

    def deliver(self, messages):
        out = list(self._held)
        self._held = []
        for msg in messages:
            u = self._rng.random()
            if u < self.drop_rate:
                continue
            if u < self.drop_rate + self.delay_rate:
                self._held.append(msg)
                continue
            out.append(msg)
        return out


@dataclass
class RoundResult:
    state: FilterState
    joint_local: JointEstimate
    joint_fused: JointEstimate
    bdd: BddReport
    cross_checks: dict[str, CrossCheckReport] = field(default_factory=dict)
    missing_neighbors: tuple[str, ...] = ()


def run_round(estimators: list[AreaEstimator], measurements, transport: Transport | None = None):
    """One synchronous round over all areas.

    ``measurements`` maps area id -> (z_u_prev, z_x_now). Returns a dict of
    per-area RoundResult and mutates each estimator's state in place.
    Every area cross-checks its messages before any area fuses, so whether
    the round is clean (module docstring) is known when the areas take
    their fusion gains.
    """
    transport = transport or Transport()
    step = estimators[0].state.step if estimators else 0
    if any(e.state.step != step for e in estimators):
        steps = {e.area_id: e.state.step for e in estimators}
        raise CoordinateMismatch(f"areas are not at the same step: {steps}")

    locals_: list[tuple[JointEstimate, BddReport]] = []
    outbox: list[ShareMessage] = []
    for est in estimators:
        z_u_prev, z_x_now = measurements[est.area_id]
        joint, report, msgs = local_phase(est, z_u_prev, z_x_now)
        locals_.append((joint, report))
        outbox.extend(msgs.values())  # in the sorted order of the neighbors

    inbox: dict[str, dict[str, ShareMessage]] = {e.area_id: {} for e in estimators}
    for msg in transport.deliver(outbox):
        if msg.recipient in inbox:
            inbox[msg.recipient][msg.sender] = msg

    checked = []
    clean = True
    for est, (joint, _) in zip(estimators, locals_):
        received = inbox[est.area_id]
        accepted = []
        checks: dict[str, CrossCheckReport] = {}
        missing = []
        for neighbor in est.area.neighbors:
            msg = received.get(neighbor)
            if msg is None or msg.step != step:
                missing.append(neighbor)
                continue
            check = cross_check(joint, msg, est.area, est.kappa, est.gates)
            checks[neighbor] = check
            accepted.append((msg, check.accept))
            clean = clean and all(check.accept)
        clean = clean and not missing
        checked.append((accepted, checks, tuple(missing)))

    results: dict[str, RoundResult] = {}
    for est, (joint, report), (accepted, checks, missing) in zip(estimators, locals_, checked):
        aid = est.area_id
        est.clean = est.clean and clean
        held = skips_update(report, est.state.bdd)
        fused, kalman = _fuse_reusing(est, joint, accepted)
        est.state = finalize_phase(est, fused, measurements[aid][1], held, kalman)
        results[aid] = RoundResult(
            state=est.state,
            joint_local=joint,
            joint_fused=fused,
            bdd=report,
            cross_checks=checks,
            missing_neighbors=missing,
        )
    return results
