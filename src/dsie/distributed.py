"""Multi-area estimation in synchronous lockstep rounds.

Each area runs the centralized cycle of ``estimator`` on its own model,
with its neighbors' shared-input estimates fused between the two halves.
Each round: every area runs its local joint estimation, extracts
shared-input estimates into messages for its neighbors, the transport
delivers (or drops) them, and each area cross-checks incoming estimates,
fuses the accepted coordinates as extra measurements, and finishes the
cycle from the fused estimate (``estimator.finish_cycle``). A missing or
rejected message degrades to local-only estimation for that neighbor;
nothing aborts the round. An area with no neighbors runs dsie's cycle
exactly.

Each area walks its own path of ``estimator.Node``s (the estimator module
docstring has the rule). An area node holds the WLS gains at the area's
covariance and each neighbor's read-only block of the joint covariance,
which the messages carry. The pattern of an area's step is the identity of
each neighbor block it fused, with its accept mask, and whether the step
was held; the memo entry keeps those blocks alive and holds the fusion
gains, and the node it leads to holds the next covariance. The node also
keeps each neighbor's gate widths, with the block and kappa they were taken
from, so a round that repeats them recomputes none (``cross_check``). A
round is clean when every area is on its plan, every message arrived,
every coordinate was accepted and no area held, so the areas of a later
run with the same models, P0 and settings walk the plan up to their first
unclean round. In a lossy hold run nearly every area-round builds a new
node: such a two-area round costs about 0.21 ms on a 2-vCPU x86 machine
with OpenBLAS on one thread (the benchmark's ``step_ms.ddsie`` on
``fixture4-soak``).
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
    Node,
    estimate_input,
    finish_cycle,
    initial_state,
    settled,
    skips_update,
)
from .model import AreaModel


@dataclass(slots=True)
class ShareMessage:
    """One area's shared-input estimates for one neighbor, one step."""

    sender: str
    recipient: str
    step: int
    coordinate_ids: tuple[str, ...]
    u_shared: np.ndarray
    p_shared: np.ndarray
    flags: tuple[bool, ...]


@dataclass(slots=True)
class CrossCheckReport:
    coordinate_ids: tuple[str, ...]
    difference: np.ndarray
    accept: tuple[bool, ...]
    threshold: np.ndarray
    kappa: float


@dataclass
class AreaEstimator:
    """Single-owner estimator for one area.

    ``node`` is the area's node (module docstring), at the covariance of
    ``state``; by default the first node of the area's plan from it. A
    state replaced with a P_x that is not ``settled`` against the node's
    takes a new private node at its P_x in ``local_phase``; ``_stepped`` is
    the state the area's last ``run_round`` left, which needs no check. A
    node's covariance is exactly symmetric: a P_x from outside the rounds
    is symmetrized where it enters.
    """

    area: AreaModel
    state: FilterState
    kappa: float = 3.0
    node: Node | None = None
    area_id: str = field(init=False)
    _stepped: FilterState | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.area_id = self.area.area_id
        if self.node is None:
            area, bdd, p_x = self.area, self.state.bdd, self.state.p_x
            settings = ("area", bdd, tuple(sorted(area.shared_inputs.items())))
            make = functools.partial(_area_gains, area, bdd)
            self.node = estimator.plan(area.model, 0.5 * (p_x + p_x.T), settings, make)


def make_area_estimator(area: AreaModel, x0, p0, bdd: BddConfig | None = None, kappa: float = 3.0):
    return AreaEstimator(area=area, state=initial_state(area.model, x0, p0, bdd), kappa=kappa)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _area_gains(area: AreaModel, bdd: BddConfig, p_x):
    """An area node's gains at P_x: the WLS gains, and each neighbor's
    read-only block of the joint covariance, in neighbor order."""
    wls = estimator.joint_wls_gains(area.model, p_x, bdd)
    return wls, tuple(_read_only(wls.cov[area.shared_index[nb].block]) for nb in area.neighbors)


def local_phase(est: AreaEstimator, z_u_prev, z_x_now):
    """Run the local joint estimation with the WLS gains of the area's node
    and build one message per neighbor, with the node's block for it. A
    replaced state first takes its own node (``AreaEstimator``)."""
    area = est.area
    node = est.node
    if est.state is not est._stepped and not settled(est.state.p_x, node.p):
        p_x = 0.5 * (est.state.p_x + est.state.p_x.T)
        est.node = node = Node(p_x, node.make(p_x), node.make)
    wls, blocks = node.gains
    joint, report = estimate_input(est.state, z_u_prev, z_x_now, wls)
    y = joint.stacked
    messages = {}
    flag = (bool(report.flagged),)
    for neighbor, block in zip(area.neighbors, blocks):
        shared = area.shared_index[neighbor]
        messages[neighbor] = ShareMessage(
            sender=est.area_id,
            recipient=neighbor,
            step=est.state.step,
            coordinate_ids=area.shared_coordinates[neighbor],
            u_shared=y.take(shared.stacked),
            p_shared=block,
            flags=flag * shared.u.shape[0],
        )
    return joint, report, messages


def cross_check(
    local: JointEstimate,
    msg: ShareMessage,
    area: AreaModel,
    kappa: float = 3.0,
    node: Node | None = None,
) -> CrossCheckReport:
    """Gate each shared coordinate on |local - neighbor| vs. kappa sigma.

    The gate width is kappa * sqrt(local variance + neighbor variance) per
    coordinate; a coordinate the sender itself flagged is rejected outright.
    The widths depend on ``local.cov``, the message's block and kappa alone,
    so ``node``, if given, keeps them, read-only, with the two arrays they
    were taken from (held by reference) and kappa, and a later check of the
    sender with the same three reuses them.
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
    difference = np.abs(local.stacked.take(shared.stacked) - msg.u_shared)
    gate = None if node is None else node.gates.get(msg.sender)
    if gate is None or gate[0] is not local.cov or gate[1] is not msg.p_shared or gate[2] != kappa:
        variance = local.cov[shared.stacked, shared.stacked] + msg.p_shared.diagonal()
        widths = _read_only(kappa * np.sqrt(np.maximum(variance, 0.0)))
        gate = (local.cov, msg.p_shared, kappa, widths)
        if node is not None:
            node.gates[msg.sender] = gate
    threshold = gate[3]
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


@dataclass(slots=True)
class FusionGains:
    """Fusion of neighbor values z of the stacked (x, u) coordinates
    ``idx``: fused = y + gain (z - y[idx]) with covariance ``cov``."""

    idx: np.ndarray
    gain: np.ndarray
    cov: np.ndarray


def _fusion_update(u, idx, p_nb) -> FusionGains:
    hu = u.take(idx, 0)  # H U for H = the rows idx of the identity
    # S = U[idx, idx] + p_nb is exactly symmetric when U and p_nb are.
    factor = linalg.cholesky(hu.take(idx, 1) + p_nb, "fusion innovation covariance")
    gain = linalg.cho_solve(factor, hu).T
    fused = u - gain @ hu
    return FusionGains(idx=idx, gain=gain, cov=0.5 * (fused + fused.T))


def _fusion_gains(u, idx, p_nb) -> FusionGains:
    """``fusion_gains`` of the exactly symmetric U = ``u`` and ``p_nb``, as a
    node's WLS covariance and its neighbors' blocks are."""
    try:
        return _fusion_update(u, idx, p_nb)
    except NotPositiveDefinite:  # the local covariance lost definiteness
        u = linalg.clamp_eigenvalues(u, 1e-12 * max(np.trace(u), 1.0))
        return _fusion_update(u, idx, p_nb)


def fusion_gains(cov, idx, p_nb) -> FusionGains:
    """Gains of fusing measurements of the coordinates ``idx``, with noise
    covariance ``p_nb``, into an estimate with covariance U = ``cov``.

    The fusion is the measurement update of U by H = the rows ``idx`` of
    the identity, the same as the stacked WLS solution: with
    S = U[idx, idx] + p_nb and K = U[:, idx] S^-1 the fused covariance is
    U - K U[idx, :], from one k x k factorization for k fused coordinates,
    in O(d^2 k) for U of size d. ``cov`` and ``p_nb`` are symmetrized first.
    If S cannot be factored, U's eigenvalues are floored at
    1e-12 * max(trace, 1) before the one retry.
    """
    return _fusion_gains(0.5 * (cov + cov.T), idx, 0.5 * (p_nb + p_nb.T))


def apply_fusion(gains: FusionGains, local: JointEstimate, z) -> JointEstimate:
    y = local.stacked
    fused = y + gains.gain @ (z - y.take(gains.idx))
    n = local.n
    return JointEstimate(
        x_hat=fused[:n], u_hat=fused[n:], cov=gains.cov, step=local.step, y_hat=fused
    )


def _whole(accepted) -> bool:
    """Whether ``accepted`` is one message with every coordinate accepted."""
    return len(accepted) == 1 and all(accepted[0][1])


def _fusion_design(accepted, area: AreaModel):
    """(idx, p_nb) of the accepted coordinates: the stacked (x, u)
    positions they measure and the block diagonal of the neighbors'
    covariance blocks; one wholly accepted message's index and block as
    they are."""
    if _whole(accepted):
        msg = accepted[0][0]
        return area.shared_index[msg.sender].stacked, msg.p_shared
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
    if _whole(accepted):
        return accepted[0][0].u_shared
    values = [
        msg.u_shared if all(mask) else msg.u_shared[np.flatnonzero(mask)]
        for msg, mask in accepted
    ]
    return np.concatenate(values) if values else np.zeros(0)


def fuse(local: JointEstimate, accepted, area: AreaModel) -> JointEstimate:
    """Fold accepted neighbor estimates in as extra measurements.

    ``accepted`` is a list of (ShareMessage, accept mask). Each accepted
    shared coordinate measures the local one with the neighbor's marginal
    covariance block as noise (``fusion_gains``, which symmetrizes the
    local covariance and the blocks). With no accepted coordinates the
    local estimate is returned unchanged.
    """
    idx, p_nb = _fusion_design(accepted, area)
    if not idx.size:
        return local
    return apply_fusion(fusion_gains(local.cov, idx, p_nb), local, _fusion_values(accepted))


def _fuse_on_node(est: AreaEstimator, local: JointEstimate, accepted, held: bool, clean: bool):
    """``fuse`` for ``run_round``, with the fusion gains of the memo entry
    of the area's step (module docstring), which a miss computes with the
    next covariance of the fused one (``estimator.next_covariance``);
    moves ``est.node`` on, to a node at that covariance. Returns the fused
    estimate."""

    def build():
        idx, p_nb = _fusion_design(accepted, est.area)
        gains = _fusion_gains(local.cov, idx, p_nb) if idx.size else None
        cov = local.cov if gains is None else gains.cov
        blocks = tuple(msg.p_shared for msg, _ in accepted)
        return estimator.next_covariance(est.area.model, cov, held), gains, blocks

    pattern = (tuple((id(msg.p_shared), mask) for msg, mask in accepted), held)
    est.node, gains, _ = est.node.step(pattern, clean, build)
    if gains is None:
        return local
    return apply_fusion(gains, local, _fusion_values(accepted))


def finalize_phase(est: AreaEstimator, fused: JointEstimate, z_x_now, held: bool) -> FilterState:
    """Finish the area's cycle from the fused joint estimate
    (``finish_cycle``), with the covariance of the node ``_fuse_on_node``
    moved the area to."""
    return finish_cycle(est.state, fused, z_x_now, held, est.node.p)


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


@dataclass(slots=True)
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
    per-area RoundResult and moves each estimator's state and node on in
    place. Every area cross-checks its messages, with the gate widths its
    node keeps, before any area fuses, so whether the round is clean
    (module docstring) is known when the areas take their steps.
    """
    transport = transport or Transport()
    step = estimators[0].state.step if estimators else 0
    if any(e.state.step != step for e in estimators):
        steps = {e.area_id: e.state.step for e in estimators}
        raise CoordinateMismatch(f"areas are not at the same step: {steps}")

    locals_: list[tuple[JointEstimate, BddReport]] = []
    outbox: list[ShareMessage] = []
    for est in estimators:
        joint, report, msgs = local_phase(est, *measurements[est.area_id])
        locals_.append((joint, report))
        outbox.extend(msgs.values())  # in the sorted order of the neighbors

    # The latest delivered message by (recipient, sender).
    inbox = {(msg.recipient, msg.sender): msg for msg in transport.deliver(outbox)}

    checked = []
    clean = True
    for est, (joint, report) in zip(estimators, locals_):
        aid = est.area_id
        accepted = []
        checks: dict[str, CrossCheckReport] = {}
        missing = []
        for neighbor in est.area.neighbors:
            msg = inbox.get((aid, neighbor))
            if msg is None or msg.step != step:
                missing.append(neighbor)
                continue
            check = cross_check(joint, msg, est.area, est.kappa, est.node)
            checks[neighbor] = check
            accepted.append((msg, check.accept))
            clean = clean and all(check.accept)
        held = skips_update(report, est.state.bdd)
        clean = clean and not missing and not held and est.node.plan is not None
        checked.append((accepted, checks, tuple(missing), held))

    results: dict[str, RoundResult] = {}
    for est, (joint, report), (accepted, checks, missing, held) in zip(estimators, locals_, checked):
        aid = est.area_id
        fused = _fuse_on_node(est, joint, accepted, held, clean)
        est.state = est._stepped = finalize_phase(est, fused, measurements[aid][1], held)
        results[aid] = RoundResult(est.state, joint, fused, report, checks, missing)
    return results
