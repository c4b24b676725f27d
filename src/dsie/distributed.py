"""Multi-area estimation in synchronous lockstep rounds.

Each round: every area runs its local joint estimation, extracts shared-input
estimates into messages for its neighbors, the transport delivers (or drops)
them, and each area cross-checks incoming estimates, fuses the accepted
coordinates as extra WLS measurements, and finishes with predict/update.
A missing or rejected message degrades to local-only estimation for that
neighbor; nothing aborts the round.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla

from . import linalg
from .errors import CoordinateMismatch, NotPositiveDefinite
from .estimator import (
    BddConfig,
    BddReport,
    FilterState,
    JointEstimate,
    apply_kalman,
    estimate_input,
    initial_state,
    kalman_gains,
    skips_update,
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
    """Single-owner estimator for one area."""

    area: AreaModel
    state: FilterState
    kappa: float = 3.0

    @property
    def area_id(self) -> str:
        return self.area.area_id


def make_area_estimator(area: AreaModel, x0, p0, bdd: BddConfig | None = None, kappa: float = 3.0):
    return AreaEstimator(area=area, state=initial_state(area.model, x0, p0, bdd), kappa=kappa)


def local_phase(est: AreaEstimator, z_u_prev, z_x_now):
    """Run the local joint estimation and build one message per neighbor."""
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


def fuse(local: JointEstimate, accepted, area: AreaModel) -> JointEstimate:
    """Fold accepted neighbor estimates in as extra WLS measurements.

    ``accepted`` is a list of (ShareMessage, accept mask). The stacked
    system has the local joint estimate with weight U and, per message,
    the accepted shared coordinates with the neighbor's marginal
    covariance block. With no accepted coordinates the local estimate is
    returned unchanged.
    """
    rows = []
    obs = []
    weights = []
    n, m = local.n, local.m
    dim = n + m
    for msg, mask in accepted:
        pairs = area.shared_inputs[msg.sender]
        keep = [i for i, ok in enumerate(mask) if ok]
        if not keep:
            continue
        t = np.zeros((len(keep), dim))
        for r, i in enumerate(keep):
            t[r, n + pairs[i][0]] = 1.0
        rows.append(t)
        obs.append(msg.u_shared[keep])
        weights.append(msg.p_shared[np.ix_(keep, keep)])
    if not rows:
        return local
    design = np.vstack([np.eye(dim)] + rows)
    observation = np.concatenate([local.x_hat, local.u_hat] + obs)
    weight = sla.block_diag(0.5 * (local.cov + local.cov.T), *weights)
    try:
        res = linalg.wls_solve(design, weight, observation)
    except NotPositiveDefinite:  # the local covariance lost definiteness
        u_local = weight[:dim, :dim]
        weight[:dim, :dim] = linalg.clamp_eigenvalues(u_local, 1e-12 * max(np.trace(u_local), 1.0))
        res = linalg.wls_solve(design, weight, observation)
    return JointEstimate(
        x_hat=res.estimate[:n], u_hat=res.estimate[n:], cov=res.covariance, step=local.step
    )


def finalize_phase(est: AreaEstimator, fused: JointEstimate, z_x_now, held: bool = False) -> FilterState:
    """Predict from the fused joint estimate, then update unless the step is held."""
    model = est.state.model
    gains = kalman_gains(model, fused.cov)
    x_hat, p_x = apply_kalman(gains, model, fused, z_x_now, held)
    return replace(est.state, x_hat=x_hat, p_x=p_x, joint=fused, step=est.state.step + 1)


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
        fused = fuse(joint, accepted, est.area)
        held = skips_update(reports[aid], est.state.bdd)
        new_state = finalize_phase(est, fused, measurements[aid][1], held)
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
