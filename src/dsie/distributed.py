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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
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
    with_wls_gains,
)
from .model import AreaModel

SHARE_MESSAGE_VERSION = 1


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

    def to_dict(self) -> dict:
        """Versioned wire form (JSON-compatible) for interoperability."""
        return {
            "version": SHARE_MESSAGE_VERSION,
            "sender": self.sender,
            "recipient": self.recipient,
            "step": self.step,
            "coordinate_ids": list(self.coordinate_ids),
            "u_shared": [float(v) for v in self.u_shared],
            "p_shared": [[float(v) for v in row] for row in self.p_shared],
            "flags": [bool(f) for f in self.flags],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ShareMessage":
        if doc.get("version") != SHARE_MESSAGE_VERSION:
            raise CoordinateMismatch(f"unsupported share message version {doc.get('version')!r}")
        return cls(
            sender=doc["sender"],
            recipient=doc["recipient"],
            step=int(doc["step"]),
            coordinate_ids=tuple(doc["coordinate_ids"]),
            u_shared=np.asarray(doc["u_shared"], dtype=float),
            p_shared=np.asarray(doc["p_shared"], dtype=float),
            flags=tuple(bool(f) for f in doc["flags"]),
        )


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

    ``fusion`` is the last round's fusion inputs with the ``FusionGains``
    they gave (None when nothing was fused); see ``run_round``.
    """

    area: AreaModel
    state: FilterState
    kappa: float = 3.0
    fusion: tuple | None = None

    @property
    def area_id(self) -> str:
        return self.area.area_id


def make_area_estimator(area: AreaModel, x0, p0, bdd: BddConfig | None = None, kappa: float = 3.0):
    return AreaEstimator(area=area, state=initial_state(area.model, x0, p0, bdd), kappa=kappa)


def local_phase(est: AreaEstimator, z_u_prev, z_x_now):
    """Run the local joint estimation and build one message per neighbor.

    The state keeps the WLS gains it is given by ``with_wls_gains`` for the
    rest of the round.
    """
    est.state = with_wls_gains(est.state)
    joint, report = estimate_input(est.state, z_u_prev, z_x_now)
    messages = {}
    n = est.area.model.n
    for neighbor in est.area.neighbors:
        pairs = est.area.shared_inputs[neighbor]
        local_idx = [n + li for li, _ in pairs]
        messages[neighbor] = ShareMessage(
            sender=est.area_id,
            recipient=neighbor,
            step=est.state.step,
            coordinate_ids=est.area.shared_coordinates[neighbor],
            u_shared=joint.u_hat[[li for li, _ in pairs]],
            p_shared=joint.cov[np.ix_(local_idx, local_idx)],
            flags=tuple(bool(report.flagged) for _ in pairs),
        )
    return joint, report, messages


def cross_check(local: JointEstimate, msg: ShareMessage, area: AreaModel, kappa: float = 3.0) -> CrossCheckReport:
    """Gate each shared coordinate on |local - neighbor| vs. kappa sigma.

    The gate width is kappa * sqrt(local variance + neighbor variance) per
    coordinate; a coordinate the sender itself flagged is rejected outright.
    """
    pairs = area.shared_inputs.get(msg.sender)
    coords = area.shared_coordinates.get(msg.sender)
    if pairs is None or coords != msg.coordinate_ids:
        raise CoordinateMismatch(
            f"message coordinates {msg.coordinate_ids!r} do not match the "
            f"share map with {msg.sender!r}"
        )
    if msg.u_shared.shape[0] != len(pairs) or msg.p_shared.shape != (len(pairs), len(pairs)):
        raise CoordinateMismatch("share message sizes inconsistent with coordinate list")
    n = area.model.n
    local_idx = [li for li, _ in pairs]
    local_u = local.u_hat[local_idx]
    local_var = np.diag(local.cov)[[n + li for li in local_idx]]
    msg_var = np.diag(msg.p_shared)
    difference = np.abs(local_u - msg.u_shared)
    threshold = kappa * np.sqrt(np.maximum(local_var + msg_var, 0.0))
    accept = tuple(
        bool(difference[i] <= threshold[i] and not msg.flags[i]) for i in range(len(pairs))
    )
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

    idx: list[int]
    gain: np.ndarray
    cov: np.ndarray


def _innovation_gains(u, idx, p_nb) -> FusionGains:
    u_idx = u[idx, :]
    s = u_idx[:, idx] + p_nb
    factor = linalg.cholesky(0.5 * (s + s.T), "fusion innovation covariance")
    gain = linalg.cho_solve(factor, u_idx).T
    cov = u - gain @ u_idx
    return FusionGains(idx=idx, gain=gain, cov=0.5 * (cov + cov.T))


def fusion_gains(cov, idx, p_nb) -> FusionGains:
    """Gains of fusing measurements of the coordinates ``idx``, with noise
    covariance ``p_nb``, into an estimate with covariance U = ``cov``.

    With S = U[idx, idx] + p_nb and K = U[:, idx] S^-1 the fused covariance
    is U - K U[idx, :], the same as the stacked WLS solution, from one
    k x k factorization for k fused coordinates. If S cannot be factored,
    U's eigenvalues are floored at 1e-12 * max(trace, 1) before the one
    retry.
    """
    u = 0.5 * (cov + cov.T)
    try:
        return _innovation_gains(u, idx, p_nb)
    except NotPositiveDefinite:  # the local covariance lost definiteness
        u = linalg.clamp_eigenvalues(u, 1e-12 * max(np.trace(u), 1.0))
        return _innovation_gains(u, idx, p_nb)


def apply_fusion(gains: FusionGains, local: JointEstimate, z) -> JointEstimate:
    y = np.concatenate([local.x_hat, local.u_hat])
    fused = y + gains.gain @ (z - y[gains.idx])
    n = local.n
    return JointEstimate(x_hat=fused[:n], u_hat=fused[n:], cov=gains.cov, step=local.step)


def _fusion_inputs(accepted, area: AreaModel, n: int):
    """(idx, z, p_nb) of the accepted coordinates: the stacked (x, u)
    positions they measure, the neighbors' values, and the block diagonal
    of the neighbors' covariance blocks."""
    idx, values, blocks = [], [], []
    for msg, mask in accepted:
        pairs = area.shared_inputs[msg.sender]
        keep = [i for i, ok in enumerate(mask) if ok]
        idx.extend(n + pairs[i][0] for i in keep)
        values.append(msg.u_shared[keep])
        blocks.append(msg.p_shared[np.ix_(keep, keep)])
    p_nb = np.zeros((len(idx), len(idx)))
    at = 0
    for block in blocks:
        k = block.shape[0]
        p_nb[at : at + k, at : at + k] = block
        at += k
    return idx, np.concatenate(values) if values else np.zeros(0), p_nb


def fuse(local: JointEstimate, accepted, area: AreaModel) -> JointEstimate:
    """Fold accepted neighbor estimates in as extra measurements.

    ``accepted`` is a list of (ShareMessage, accept mask). Each accepted
    shared coordinate measures the local one with the neighbor's marginal
    covariance block as noise (``fusion_gains``). With no accepted
    coordinates the local estimate is returned unchanged.
    """
    idx, z, p_nb = _fusion_inputs(accepted, area, local.n)
    if not idx:
        return local
    return apply_fusion(fusion_gains(local.cov, idx, p_nb), local, z)


def _fuse_reusing(est: AreaEstimator, local: JointEstimate, accepted, held: bool):
    """``fuse`` for ``run_round``: reuses the last round's gains while the
    fusion inputs repeat.

    The inputs are the local WLS gains, the accepted coordinates, the
    neighbors' covariance blocks (bit for bit) and the held flag. The local
    WLS gains are the last round's exactly when the state still carries
    that round's Kalman gains, since ``local_phase`` leaves the Kalman half
    None when it computes new ones. Returns (fused, the Kalman gains of its
    covariance, or None when they must be computed).
    """
    idx, z, p_nb = _fusion_inputs(accepted, est.area, local.n)
    key = (tuple(idx), p_nb.tobytes(), held)
    kalman = est.state.gains.kalman
    if kalman is None or est.fusion is None or est.fusion[0] != key:
        est.fusion = (key, fusion_gains(local.cov, idx, p_nb) if idx else None)
        kalman = None
    gains = est.fusion[1]
    return (local if gains is None else apply_fusion(gains, local, z)), kalman


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
    """
    transport = transport or Transport()
    by_id = {e.area_id: e for e in estimators}
    steps = {e.area_id: e.state.step for e in estimators}
    if len(set(steps.values())) > 1:
        raise CoordinateMismatch(f"areas are not at the same step: {steps}")

    locals_: dict[str, JointEstimate] = {}
    reports: dict[str, BddReport] = {}
    outbox: list[ShareMessage] = []
    for est in estimators:
        z_u_prev, z_x_now = measurements[est.area_id]
        joint, report, msgs = local_phase(est, z_u_prev, z_x_now)
        locals_[est.area_id] = joint
        reports[est.area_id] = report
        outbox.extend(msgs[nb] for nb in sorted(msgs))

    delivered = transport.deliver(outbox)
    inbox: dict[str, dict[str, ShareMessage]] = {aid: {} for aid in by_id}
    for msg in delivered:
        if msg.recipient in inbox:
            inbox[msg.recipient][msg.sender] = msg

    results: dict[str, RoundResult] = {}
    for est in estimators:
        aid = est.area_id
        joint = locals_[aid]
        accepted = []
        checks: dict[str, CrossCheckReport] = {}
        missing = []
        for neighbor in est.area.neighbors:
            msg = inbox[aid].get(neighbor)
            if msg is None or msg.step != est.state.step:
                missing.append(neighbor)
                continue
            check = cross_check(joint, msg, est.area, est.kappa)
            checks[neighbor] = check
            accepted.append((msg, check.accept))
        held = skips_update(reports[aid], est.state.bdd)
        fused, kalman = _fuse_reusing(est, joint, accepted, held)
        new_state = finalize_phase(est, fused, measurements[aid][1], held, kalman)
        est.state = new_state
        results[aid] = RoundResult(
            state=new_state,
            joint_local=joint,
            joint_fused=fused,
            bdd=reports[aid],
            cross_checks=checks,
            missing_neighbors=tuple(missing),
        )
    return results
