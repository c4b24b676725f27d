"""State-space model assembly from a network topology.

Complex dq dynamics are realized as real matrices with interleaved (d, q)
pairs: every physical coefficient a becomes the 2x2 block a*I, and the
rotating-frame coupling -j*omega contributes [[0, omega], [-omega, 0]] on
each diagonal state block.

Conventions (declared, since the figures do not pin them):
- the current of line (from, to) flows from `to` towards `from`, driven by
  (v_to - v_from) / L;
- currents injected into a bus are positive, load currents are drawn
  (negative) from their bus.

A bus voltage is a state when the bus carries a capacitor bank or a DGU
filter capacitor; every other bus voltage is an exogenous input, as are
load currents and DGU terminal voltages.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import linalg
from .errors import (
    DuplicateId,
    NonAdjacentShare,
    UnassignedElement,
    UnknownSensorTarget,
    UnrepresentableTopology,
)
from .network import NetworkTopology, SensorChannel, SensorPlacement

_EPS = np.finfo(float).eps


def _pairs(ids):
    return {sid: (2 * k, 2 * k + 1) for k, sid in enumerate(ids)}


@dataclass(frozen=True)
class ContinuousModel:
    """Real dq-frame realization dx/dt = A x + B u with index maps."""

    a: np.ndarray
    b: np.ndarray
    state_ids: tuple[str, ...]
    input_ids: tuple[str, ...]
    omega: float

    @property
    def state_index(self):
        return _pairs(self.state_ids)

    @property
    def input_index(self):
        return _pairs(self.input_ids)

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def m(self):
        return self.b.shape[1]


def _dynamic_capacitance(topology: NetworkTopology, bus_id: str) -> float:
    """Total capacitance making a bus voltage dynamic, 0.0 if none."""
    c = 0.0
    bus = topology.bus(bus_id)
    if bus.has_capacitor:
        c += float(bus.capacitance)
    for dgu in topology.dgus:
        if dgu.at_bus == bus_id:
            c += dgu.capacitance
    return c


def state_and_input_ids(topology: NetworkTopology):
    """Deterministic id ordering: DGU currents, line currents, dynamic bus
    voltages for states; input bus voltages, load currents, DGU terminal
    voltages for inputs."""
    state_ids = []
    for dgu in topology.dgus:
        state_ids.append(dgu.state_id)
    for line in topology.lines:
        state_ids.append(line.state_id)
    dynamic_buses = [b.id for b in topology.buses if _dynamic_capacitance(topology, b.id) > 0]
    state_ids.extend(f"v_{b}" for b in dynamic_buses)

    input_ids = [f"v_{b.id}" for b in topology.buses if _dynamic_capacitance(topology, b.id) == 0]
    input_ids.extend(load.current_input for load in topology.loads)
    input_ids.extend(dgu.terminal_voltage_input for dgu in topology.dgus)

    for ids, kind in ((state_ids, "state"), (input_ids, "input")):
        seen = set()
        for sid in ids:
            if sid in seen:
                raise DuplicateId(f"duplicate {kind} id {sid!r}")
            seen.add(sid)
    overlap = set(state_ids) & set(input_ids)
    if overlap:
        raise DuplicateId(f"ids used as both state and input: {sorted(overlap)}")
    return tuple(state_ids), tuple(input_ids)


def build_continuous(topology: NetworkTopology) -> ContinuousModel:
    """Assemble the continuous dq model from DGU, line and bus dynamics."""
    state_ids, input_ids = state_and_input_ids(topology)
    srow = {sid: k for k, sid in enumerate(state_ids)}
    icol = {iid: k for k, iid in enumerate(input_ids)}
    nc, mc = len(state_ids), len(input_ids)
    ac = np.zeros((nc, nc))
    bc = np.zeros((nc, mc))

    def add_voltage_coeff(row, bus_id, coeff):
        vid = f"v_{bus_id}"
        if vid in srow:
            ac[row, srow[vid]] += coeff
        else:
            bc[row, icol[vid]] += coeff

    # DGU filter currents: L di/dt = -R i + v_t - k v_bus (plus frame rotation)
    for dgu in topology.dgus:
        row = srow[dgu.state_id]
        ac[row, row] += -dgu.resistance / dgu.inductance
        bc[row, icol[dgu.terminal_voltage_input]] += 1.0 / dgu.inductance
        add_voltage_coeff(row, dgu.at_bus, -dgu.gain / dgu.inductance)

    # Line currents: L di/dt = -R i + (v_to - v_from)
    for line in topology.lines:
        row = srow[line.state_id]
        ac[row, row] += -line.resistance / line.inductance
        add_voltage_coeff(row, line.to_bus, 1.0 / line.inductance)
        add_voltage_coeff(row, line.from_bus, -1.0 / line.inductance)

    # Dynamic bus voltages: C dv/dt = sum of injected currents
    for bus in topology.buses:
        c = _dynamic_capacitance(topology, bus.id)
        if c == 0.0:
            continue
        row = srow[f"v_{bus.id}"]
        for dgu in topology.dgus:
            if dgu.at_bus == bus.id:
                ac[row, srow[dgu.state_id]] += dgu.gain / c
        for line in topology.lines:
            if line.from_bus == bus.id:
                ac[row, srow[line.state_id]] += 1.0 / c
            elif line.to_bus == bus.id:
                ac[row, srow[line.state_id]] += -1.0 / c
        for load in topology.loads:
            if load.at_bus == bus.id:
                bc[row, icol[load.current_input]] += -1.0 / c

    # An input bus whose voltage drives no state equation is an isolated node.
    for bus in topology.buses:
        vid = f"v_{bus.id}"
        if vid in icol and not np.any(bc[:, icol[vid]]):
            raise UnrepresentableTopology(
                f"bus {bus.id!r} has no capacitor and its voltage enters no state equation"
            )

    # Expand real coefficients to interleaved (d, q) pairs and add the
    # -j*omega coupling on every state block.
    a = np.kron(ac, np.eye(2)) + np.kron(np.eye(nc), np.array([[0.0, topology.omega], [-topology.omega, 0.0]]))
    b = np.kron(bc, np.eye(2))
    return ContinuousModel(a=a, b=b, state_ids=state_ids, input_ids=input_ids, omega=topology.omega)


def _selection(channels, index, kind, std_override=None):
    rows = []
    stds = []
    labels = []
    for ch in channels:
        if ch.target not in index:
            raise UnknownSensorTarget(f"sensor targets unknown {kind} id {ch.target!r}")
        std = ch.std if std_override is None else std_override.get(ch.target, ch.std)
        d, q = index[ch.target]
        rows.extend([d, q])
        stds.extend([std, std])
        labels.extend([f"{ch.target}:d", f"{ch.target}:q"])
    dim = 2 * len(index)
    mat = np.zeros((len(rows), dim))
    for r, c in enumerate(rows):
        mat[r, c] = 1.0
    var = np.diag(np.asarray(stds, dtype=float) ** 2) if stds else np.zeros((0, 0))
    return mat, var, tuple(labels)


def build_measurement(topology: NetworkTopology, continuous: ContinuousModel, measurement_std_override=None):
    """Build the 0/1 selection matrices C, D and diagonal R_x, R_u."""
    c, r_x, x_labels = _selection(
        topology.sensors.states, continuous.state_index, "state", measurement_std_override
    )
    d, r_u, u_labels = _selection(
        topology.sensors.inputs, continuous.input_index, "input", measurement_std_override
    )
    return c, d, r_x, r_u, x_labels, u_labels


@dataclass(frozen=True)
class DiscreteModel:
    """Discrete model (A_d, B_d, C, D, Q, R_x, R_u, T_s) with index maps."""

    a_d: np.ndarray
    b_d: np.ndarray
    c: np.ndarray
    d: np.ndarray
    q: np.ndarray
    r_x: np.ndarray
    r_u: np.ndarray
    t_s: float
    state_ids: tuple[str, ...]
    input_ids: tuple[str, ...]
    z_x_labels: tuple[str, ...] = ()
    z_u_labels: tuple[str, ...] = ()

    def __post_init__(self):
        n, m = self.a_d.shape[0], self.b_d.shape[1]
        if self.a_d.shape != (n, n) or self.b_d.shape[0] != n:
            raise ValueError("A_d/B_d dimensions inconsistent")
        if self.c.shape[1] != n or self.d.shape[1] != m:
            raise ValueError("C/D column counts inconsistent with state/input sizes")
        if self.q.shape != (n, n) or self.r_x.shape[0] != self.c.shape[0] or self.r_u.shape[0] != self.d.shape[0]:
            raise ValueError("noise covariance dimensions inconsistent")

    @property
    def n(self):
        return self.a_d.shape[0]

    @property
    def m(self):
        return self.b_d.shape[1]

    @property
    def p(self):
        return self.c.shape[0]

    @property
    def l(self):
        return self.d.shape[0]

    @property
    def state_index(self):
        return _pairs(self.state_ids)

    @property
    def input_index(self):
        return _pairs(self.input_ids)

    @functools.cached_property
    def ab(self) -> np.ndarray:
        """[A_d B_d], the map from (x, u) to the next state; built on first use."""
        return np.hstack([self.a_d, self.b_d])

    @functools.cached_property
    def fixed_rows(self) -> FixedRows:
        """The joint design's fixed rows, factored on first use (``factor_fixed_rows``)."""
        return factor_fixed_rows(self)

    @functools.cached_property
    def measurement_design(self) -> tuple[np.ndarray, np.ndarray]:
        """(block_diag(C, D), block_diag(R_x, R_u)): the map from (x, u) to the
        stacked (z_x, z_u) and that stack's noise covariance; built on first use."""
        return sla.block_diag(self.c, self.d), sla.block_diag(self.r_x, self.r_u)


def _noise_diag(spec, ids, size, what):
    if np.isscalar(spec):
        return np.full(size, float(spec) ** 2)
    if isinstance(spec, dict):
        out = np.zeros(size)
        index = _pairs(ids)
        unknown = set(spec) - set(ids)
        if unknown:
            raise KeyError(f"{what} spec names unknown ids {sorted(unknown)}")
        for sid, (d, q) in index.items():
            std = float(spec.get(sid, 0.0))
            out[d] = out[q] = std**2
        return out
    arr = np.asarray(spec, dtype=float)
    if arr.shape != (size,):
        raise ValueError(f"{what} array must have length {size}, got {arr.shape}")
    return arr**2


def build_discrete(
    topology: NetworkTopology,
    t_s: float,
    process_noise_std=0.0,
    measurement_std_override=None,
    continuous: ContinuousModel | None = None,
) -> DiscreteModel:
    """Assemble, discretize (exact ZOH) and attach measurement matrices.

    ``process_noise_std`` is a scalar, a per-state-id dict, or a length-n
    array of standard deviations; Q is the corresponding diagonal.
    """
    if not t_s > 0:
        raise ValueError(f"t_s must be positive, got {t_s!r}")
    cont = continuous if continuous is not None else build_continuous(topology)
    a_d, b_d = linalg.discretize_zoh(cont.a, cont.b, t_s)
    c, d, r_x, r_u, x_labels, u_labels = build_measurement(
        topology, cont, measurement_std_override
    )
    q = np.diag(_noise_diag(process_noise_std, cont.state_ids, cont.n, "process noise"))
    return DiscreteModel(
        a_d=a_d,
        b_d=b_d,
        c=c,
        d=d,
        q=q,
        r_x=r_x,
        r_u=r_u,
        t_s=float(t_s),
        state_ids=cont.state_ids,
        input_ids=cont.input_ids,
        z_x_labels=x_labels,
        z_u_labels=u_labels,
    )


def stacked_design(model: DiscreteModel) -> np.ndarray:
    """The joint design [[I, 0], [0, D], [C A_d, C B_d]] over (x, u)."""
    n, m, p, l = model.n, model.m, model.p, model.l
    o = np.zeros((n + l + p, n + m))
    o[:n, :n] = np.eye(n)
    o[n : n + l, n:] = model.d
    o[n + l :, :n] = model.c @ model.a_d
    o[n + l :, n:] = model.c @ model.b_d
    return o


@dataclass(frozen=True)
class FixedRows:
    """The rows of the joint design whose weight does not depend on P_x.

    With W_f = diag(R_u, C Q C' + R_x) = L_f L_f', ``whiten`` is L_f^{-1},
    the whitened rows L_f^{-1} [[0, D], [C A_d, C B_d]] are ``q0 @ r0``
    (reduced QR), and ``c0`` = q0' L_f^{-1}.
    """

    whiten: np.ndarray
    q0: np.ndarray
    r0: np.ndarray
    c0: np.ndarray


def factor_fixed_rows(model: DiscreteModel) -> FixedRows:
    """Whiten and QR-factor the joint design's R_u and C Q C' + R_x rows.

    These are the same for every P_x, so ``DiscreteModel.fixed_rows``
    computes them once per model, when the first joint gains need them.
    """
    n, l, p = model.n, model.l, model.p
    weight = np.zeros((l + p, l + p))
    weight[:l, :l] = model.r_u
    weight[l:, l:] = model.c @ model.q @ model.c.T + model.r_x
    whiten = linalg.triangular_inverse(
        linalg.cholesky(weight, "fixed-row weight diag(R_u, C Q C' + R_x)"), lower=True
    )
    q0, r0 = np.linalg.qr(whiten @ stacked_design(model)[n:])
    return FixedRows(whiten=whiten, q0=q0, r0=r0, c0=q0.T @ whiten)


@dataclass(frozen=True)
class RankReport:
    ok: bool
    rank: int
    deficiency: int
    unobservable_inputs: tuple[str, ...]


def check_joint_rank(model: DiscreteModel) -> RankReport:
    """Report whether the joint design has full column rank n + m.

    Numerical rank uses the standard SVD heuristic
    sigma_k > max(rows, cols) * eps * sigma_max.
    """
    o = stacked_design(model)
    u, s, vt = np.linalg.svd(o)
    tol = max(o.shape) * _EPS * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    full = o.shape[1]
    bad = []
    if rank < full:
        null = vt[rank:]
        input_pairs = model.input_index
        for iid, (d, q) in input_pairs.items():
            if np.any(np.abs(null[:, [model.n + d, model.n + q]]) > 1e-8):
                bad.append(iid)
    return RankReport(
        ok=rank == full, rank=rank, deficiency=full - rank, unobservable_inputs=tuple(bad)
    )


@dataclass(frozen=True)
class AreaModel:
    """One area's discrete model plus its shared-input maps.

    ``shared_inputs`` maps a neighbor area id to (local input index,
    neighbor input index) pairs; ``shared_coordinates`` carries the
    matching coordinate labels (e.g. "v_4:d").
    """

    area_id: str
    model: DiscreteModel
    shared_inputs: dict[str, tuple[tuple[int, int], ...]]
    shared_coordinates: dict[str, tuple[str, ...]]

    @property
    def neighbors(self):
        return tuple(sorted(self.shared_inputs))


def _area_topology(topology: NetworkTopology, area_id: str, spec) -> NetworkTopology:
    bus_set = set(spec.buses)
    buses = tuple(b for b in topology.buses if b.id in bus_set)
    line_keys = {tuple(k) for k in spec.lines}
    lines = tuple(l for l in topology.lines if (l.from_bus, l.to_bus) in line_keys)
    if len(lines) != len(line_keys):
        missing = line_keys - {(l.from_bus, l.to_bus) for l in lines}
        raise UnassignedElement(f"area {area_id!r} references unknown lines {sorted(missing)}")
    dgus = tuple(d for d in topology.dgus if d.at_bus in set(spec.dgus))
    loads = tuple(l for l in topology.loads if l.at_bus in set(spec.loads))
    for l in lines:
        for end in (l.from_bus, l.to_bus):
            if end not in bus_set:
                raise UnassignedElement(
                    f"area {area_id!r}: line {l.state_id} endpoint {end!r} not in the area bus list"
                )
    for d in dgus:
        if d.at_bus not in bus_set:
            raise UnassignedElement(f"area {area_id!r}: DGU bus {d.at_bus!r} not in the area bus list")
    for l in loads:
        if l.at_bus not in bus_set:
            raise UnassignedElement(f"area {area_id!r}: load bus {l.at_bus!r} not in the area bus list")

    # Filter sensors down to targets that exist locally.
    local_state_ids = {d.state_id for d in dgus} | {l.state_id for l in lines}
    local_dynamic = {b.id for b in buses if _dynamic_capacitance(topology, b.id) > 0}
    local_state_ids |= {f"v_{b}" for b in local_dynamic}
    local_input_ids = {f"v_{b.id}" for b in buses if b.id not in local_dynamic}
    local_input_ids |= {l.current_input for l in loads}
    local_input_ids |= {d.terminal_voltage_input for d in dgus}
    sensors = SensorPlacement(
        states=tuple(
            SensorChannel(c.target, c.std)
            for c in topology.sensors.states
            if c.target in local_state_ids
        ),
        inputs=tuple(
            SensorChannel(c.target, c.std)
            for c in topology.sensors.inputs
            if c.target in local_input_ids
        ),
    )
    return NetworkTopology(
        buses=buses,
        lines=lines,
        dgus=dgus,
        loads=loads,
        sensors=sensors,
        omega=topology.omega,
        name=f"{topology.name}/{area_id}",
    )


def partition(
    topology: NetworkTopology,
    t_s: float,
    process_noise_std=0.0,
    measurement_std_override=None,
    areas: dict | None = None,
    shared_buses=None,
) -> list[AreaModel]:
    """Split the network into per-area models with shared-input maps.

    Every line, DGU and load must be assigned to exactly one area; every
    shared bus voltage must appear as an input of at least two areas.
    """
    areas = areas if areas is not None else topology.areas
    shared = tuple(shared_buses) if shared_buses is not None else topology.shared_buses
    if not areas:
        raise UnassignedElement("no areas declared")

    assigned_lines: dict[tuple, str] = {}
    assigned_dgus: dict[str, str] = {}
    assigned_loads: dict[str, str] = {}
    for aid, spec in areas.items():
        for key in spec.lines:
            key = tuple(key)
            if key in assigned_lines:
                raise UnassignedElement(
                    f"line {key} assigned to both {assigned_lines[key]!r} and {aid!r}"
                )
            assigned_lines[key] = aid
        for b in spec.dgus:
            if b in assigned_dgus:
                raise UnassignedElement(f"DGU at {b!r} assigned to two areas")
            assigned_dgus[b] = aid
        for b in spec.loads:
            if b in assigned_loads:
                raise UnassignedElement(f"load at {b!r} assigned to two areas")
            assigned_loads[b] = aid
    for line in topology.lines:
        if (line.from_bus, line.to_bus) not in assigned_lines:
            raise UnassignedElement(f"line {line.state_id} assigned to no area")
    for dgu in topology.dgus:
        if dgu.at_bus not in assigned_dgus:
            raise UnassignedElement(f"DGU at {dgu.at_bus!r} assigned to no area")
    for load in topology.loads:
        if load.at_bus not in assigned_loads:
            raise UnassignedElement(f"load at {load.at_bus!r} assigned to no area")

    holders = {s: sorted(aid for aid, spec in areas.items() if s in spec.buses) for s in shared}
    for s, hs in holders.items():
        if len(hs) < 2:
            raise NonAdjacentShare(f"shared bus {s!r} appears in fewer than two areas")
        if _dynamic_capacitance(topology, s) > 0:
            raise UnrepresentableTopology(
                f"shared bus {s!r} carries a capacitor or DGU; its voltage must be an input"
            )
    for aid, spec in areas.items():
        for other, ospec in areas.items():
            if other <= aid:
                continue
            common = set(spec.buses) & set(ospec.buses)
            undeclared = common - set(shared)
            if undeclared:
                raise NonAdjacentShare(
                    f"buses {sorted(undeclared)} appear in areas {aid!r} and {other!r} "
                    "but are not declared shared"
                )

    # A shared bus must sit on the boundary of each holding area: some local
    # element has to touch it, otherwise its voltage would be a dangling input.
    sub_topologies = {aid: _area_topology(topology, aid, spec) for aid, spec in areas.items()}
    for s, hs in holders.items():
        for aid in hs:
            sub = sub_topologies[aid]
            touched = any(s in (l.from_bus, l.to_bus) for l in sub.lines)
            touched = touched or any(d.at_bus == s for d in sub.dgus)
            touched = touched or any(l.at_bus == s for l in sub.loads)
            if not touched:
                raise NonAdjacentShare(
                    f"shared bus {s!r} is not on the boundary of area {aid!r}"
                )

    if isinstance(process_noise_std, dict):
        noise_by_id = dict(process_noise_std)
    elif np.isscalar(process_noise_std):
        noise_by_id = None
    else:
        cent_ids, _ = state_and_input_ids(topology)
        arr = np.asarray(process_noise_std, dtype=float)
        noise_by_id = {sid: float(arr[2 * k]) for k, sid in enumerate(cent_ids)}

    out = []
    models = {}
    for aid in sorted(areas):
        sub = sub_topologies[aid]
        local_ids, _ = state_and_input_ids(sub)
        if noise_by_id is None:
            noise = process_noise_std
        else:
            noise = {sid: noise_by_id.get(sid, 0.0) for sid in local_ids}
        models[aid] = build_discrete(
            sub, t_s, process_noise_std=noise, measurement_std_override=measurement_std_override
        )
    for aid in sorted(areas):
        shares: dict[str, tuple[tuple[int, int], ...]] = {}
        coords: dict[str, tuple[str, ...]] = {}
        for other in sorted(areas):
            if other == aid:
                continue
            common = sorted(s for s, hs in holders.items() if aid in hs and other in hs)
            if not common:
                continue
            pairs = []
            labels = []
            for s in common:
                li = models[aid].input_index[f"v_{s}"]
                ni = models[other].input_index[f"v_{s}"]
                pairs.extend([(li[0], ni[0]), (li[1], ni[1])])
                labels.extend([f"v_{s}:d", f"v_{s}:q"])
            shares[other] = tuple(pairs)
            coords[other] = tuple(labels)
        out.append(
            AreaModel(area_id=aid, model=models[aid], shared_inputs=shares, shared_coordinates=coords)
        )
    return out
