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
from .network import NetworkTopology

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

    @functools.cached_property
    def _zoh(self) -> dict:
        return {}

    def discretize(self, t_s) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (A_d, B_d) of the exact zero-order hold at ``t_s``
        (``linalg.discretize_zoh``), computed once per t_s and then shared:
        the filters' model and the simulated truth step with the same arrays."""
        zoh = self._zoh
        if t_s not in zoh:
            a_d, b_d = linalg.discretize_zoh(self.a, self.b, t_s)
            a_d.setflags(write=False)
            b_d.setflags(write=False)
            zoh[t_s] = a_d, b_d
        return zoh[t_s]


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
    a.setflags(write=False)  # ``discretize`` memoises on them
    b.setflags(write=False)
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

    # The sizes are read several times in every step, so each is kept on
    # first use.
    @functools.cached_property
    def n(self) -> int:
        return self.a_d.shape[0]

    @functools.cached_property
    def m(self) -> int:
        return self.b_d.shape[1]

    @functools.cached_property
    def p(self) -> int:
        return self.c.shape[0]

    @functools.cached_property
    def l(self) -> int:
        return self.d.shape[0]

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
    def content(self) -> tuple:
        """The dtype, shape and bytes of every matrix the gains read (A_d, B_d,
        C, D, Q, R_x, R_u), so models of equal content give bit-equal gains;
        built on first use."""
        return tuple(
            (a.dtype.str, a.shape, a.tobytes())
            for a in (self.a_d, self.b_d, self.c, self.d, self.q, self.r_x, self.r_u)
        )

    @functools.cached_property
    def measurement_std(self) -> tuple[np.ndarray, np.ndarray]:
        """The standard deviations of z_x and z_u, sqrt(diag(R_x)) and
        sqrt(diag(R_u)), read-only; built on first use."""
        stds = tuple(np.sqrt(np.diag(r)) for r in (self.r_x, self.r_u))
        for std in stds:
            std.setflags(write=False)
        return stds

    @functools.cached_property
    def unit_attacks(self) -> dict:
        """The unscaled stealthy attacks ``sim.apply_attacks`` has crafted on
        this model, by (target, rows); filled on use."""
        return {}

    @functools.cached_property
    def measurement_rows(self) -> linalg.FactoredRows:
        """The stacked measurement rows block_diag(C, D), the map from (x, u) to
        the stacked (z_x, z_u), whitened by their noise block_diag(R_x, R_u)
        and QR-factored (``linalg.factor_rows``); built on first use."""
        return linalg.factor_rows(
            sla.block_diag(self.c, self.d),
            sla.block_diag(self.r_x, self.r_u),
            "measurement noise block_diag(R_x, R_u)",
        )


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
    a_d, b_d = cont.discretize(t_s)
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
class FixedRows(linalg.FactoredRows):
    """The rows of the joint design whose weight does not depend on P_x,
    factored (``linalg.FactoredRows``), and the next-state map.

    The rows are [[0, D], [C A_d, C B_d]] with weight W_f = diag(R_u, S)
    for S = C Q C' + R_x. With W_S the S block of ``whiten`` and
    G = W_S C Q, x(k) given the estimate y of (x(k-1), u(k-1)) and z_x(k)
    is M y + K z_x(k) with covariance M P_y M' + Q_+, for K = ``gain`` =
    G' W_S = Q C' S^{-1}, M = ``transition`` = [A_d B_d] - K C [A_d B_d]
    and Q_+ = ``q_plus`` = Q - G'G. A zero row of Q gives zero rows of K
    and Q_+.
    """

    gain: np.ndarray
    transition: np.ndarray
    q_plus: np.ndarray


def factor_fixed_rows(model: DiscreteModel) -> FixedRows:
    """Whiten and QR-factor the joint design's R_u and C Q C' + R_x rows, and
    take the next-state map from the same factor.

    These are the same for every P_x, so ``DiscreteModel.fixed_rows``
    computes them once per model, when the first joint gains need them.
    """
    n, l, p = model.n, model.l, model.p
    weight = np.zeros((l + p, l + p))
    weight[:l, :l] = model.r_u
    weight[l:, l:] = model.c @ model.q @ model.c.T + model.r_x
    rows = linalg.factor_rows(
        stacked_design(model)[n:], weight, "fixed-row weight diag(R_u, C Q C' + R_x)"
    )
    w_s = rows.whiten[l:, l:]
    g = w_s @ model.c @ model.q
    gain = g.T @ w_s
    transition = model.ab - gain @ (model.c @ model.ab)
    return FixedRows(rows.whiten, rows.q0, rows.r0, rows.c0, gain, transition, model.q - g.T @ g)


@dataclass(frozen=True)
class RankReport:
    ok: bool
    rank: int
    deficiency: int
    unobservable_inputs: tuple[str, ...]


def _numerical_rank(o, s) -> int:
    """Singular values ``s`` of ``o`` above max(rows, cols) * eps * sigma_max."""
    tol = max(o.shape) * _EPS * (s[0] if s.size else 0.0)
    return int(np.sum(s > tol))


def check_joint_rank(model: DiscreteModel) -> RankReport:
    """Report whether the joint design has full column rank n + m.

    Numerical rank uses the standard SVD heuristic
    sigma_k > max(rows, cols) * eps * sigma_max on the singular values
    alone; only a deficient design pays for the full SVD, whose null space
    names the unobservable inputs.
    """
    o = stacked_design(model)
    full = o.shape[1]
    rank = _numerical_rank(o, np.linalg.svd(o, compute_uv=False))
    bad = []
    if rank < full:
        _, s, vt = np.linalg.svd(o)
        rank = _numerical_rank(o, s)
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
    """One area's discrete model, its shared-input maps and where it sits in
    the network's model.

    ``shared_inputs`` maps a neighbor area id to (local input index,
    neighbor input index) pairs; ``shared_coordinates`` carries the
    matching coordinate labels (e.g. "v_4:d"). ``z_x_rows`` and
    ``z_u_rows`` are the rows of the network's z_x and z_u that carry the
    area's channels, and ``state_columns`` the coordinates of the network's
    state that are the area's states; all three are read-only.
    """

    area_id: str
    model: DiscreteModel
    shared_inputs: dict[str, tuple[tuple[int, int], ...]]
    shared_coordinates: dict[str, tuple[str, ...]]
    z_x_rows: np.ndarray
    z_u_rows: np.ndarray
    state_columns: np.ndarray

    @functools.cached_property
    def neighbors(self) -> tuple[str, ...]:
        """The neighbor area ids, sorted; built on first use."""
        return tuple(sorted(self.shared_inputs))

    @functools.cached_property
    def shared_index(self) -> dict[str, SharedIndex]:
        """Each neighbor's shared inputs as index arrays into this area's
        estimate (``SharedIndex``); built on first use."""
        out = {}
        for neighbor, pairs in self.shared_inputs.items():
            u = np.array([li for li, _ in pairs], dtype=np.intp)
            stacked = self.model.n + u
            out[neighbor] = SharedIndex(u=u, stacked=stacked, block=np.ix_(stacked, stacked))
        return out


@dataclass(frozen=True)
class SharedIndex:
    """Where one neighbor's shared inputs sit in an area's estimate: ``u``
    indexes the input estimate, ``stacked`` the stacked (x, u) vector, and
    ``block`` (``np.ix_(stacked, stacked)``) their joint covariance block."""

    u: np.ndarray
    stacked: np.ndarray
    block: tuple[np.ndarray, np.ndarray]


def _coordinates(ids, keep) -> np.ndarray:
    """The (d, q) coordinates of the ids in ``keep``, in the order of ``ids``."""
    return np.array(
        [i for k, sid in enumerate(ids) if sid in keep for i in (2 * k, 2 * k + 1)], dtype=np.intp
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

    An area's model is a selection of the network's, which is built once,
    taken in network order. Its states are the currents of its own DGUs
    and lines and the dynamic buses on its bus list; its inputs are the
    other buses on its bus list and the inputs of its own loads and DGUs;
    its channels are the sensor rows whose target it holds. A_d and B_d
    are the exact ZOH of the network's A and B restricted to those states
    and inputs, and C, D, Q, R_x and R_u are the network's restricted to
    them and to those rows. The selection is exact: every element that a
    state equation of the area reads lies in the area, so each restricted
    row sums the same coefficients, in the same order, as the network's.
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

    # Each area's own elements, in network order: the buses they touch must
    # be on its bus list, and they and its buses hold its ids.
    touched = {}
    owned_ids = {}
    for aid, spec in areas.items():
        keys = set(spec.lines)
        lines = [l for l in topology.lines if (l.from_bus, l.to_bus) in keys]
        if len(lines) != len(keys):
            missing = keys - {(l.from_bus, l.to_bus) for l in lines}
            raise UnassignedElement(f"area {aid!r} references unknown lines {sorted(missing)}")
        dgus = [d for d in topology.dgus if d.at_bus in spec.dgus]
        loads = [l for l in topology.loads if l.at_bus in spec.loads]
        ends = [(f"line {l.state_id} endpoint", e) for l in lines for e in (l.from_bus, l.to_bus)]
        ends += [("DGU bus", x.at_bus) for x in dgus] + [("load bus", x.at_bus) for x in loads]
        for what, bus in ends:
            if bus not in spec.buses:
                raise UnassignedElement(f"area {aid!r}: {what} {bus!r} not in the area bus list")
        touched[aid] = {bus for _, bus in ends}
        ids = owned_ids[aid] = {f"v_{b}" for b in spec.buses}
        ids.update(l.state_id for l in lines)
        ids.update(x for d in dgus for x in (d.state_id, d.terminal_voltage_input))
        ids.update(l.current_input for l in loads)

    # A shared bus must sit on the boundary of each holding area: some local
    # element has to touch it, otherwise its voltage would be a dangling input.
    for s, hs in holders.items():
        for aid in hs:
            if s not in touched[aid]:
                raise NonAdjacentShare(
                    f"shared bus {s!r} is not on the boundary of area {aid!r}"
                )

    cont = build_continuous(topology)
    c, d, r_x, r_u, x_labels, u_labels = build_measurement(
        topology, cont, measurement_std_override
    )
    q = _noise_diag(process_noise_std, cont.state_ids, cont.n, "process noise")
    models, index = {}, {}
    for aid in sorted(areas):
        keep = owned_ids[aid]
        cols_x = _coordinates(cont.state_ids, keep)
        cols_u = _coordinates(cont.input_ids, keep)
        c_area = c[:, cols_x]
        d_area = d[:, cols_u]
        rows_x = np.flatnonzero(c_area.any(axis=1))
        rows_u = np.flatnonzero(d_area.any(axis=1))
        a_d, b_d = linalg.discretize_zoh(cont.a[cols_x][:, cols_x], cont.b[cols_x][:, cols_u], t_s)
        for a in (a_d, b_d, rows_x, rows_u, cols_x):
            a.setflags(write=False)
        models[aid] = DiscreteModel(
            a_d=a_d,
            b_d=b_d,
            c=c_area[rows_x],
            d=d_area[rows_u],
            q=np.diag(q[cols_x]),
            r_x=r_x[rows_x][:, rows_x],
            r_u=r_u[rows_u][:, rows_u],
            t_s=float(t_s),
            state_ids=tuple(sid for sid in cont.state_ids if sid in keep),
            input_ids=tuple(iid for iid in cont.input_ids if iid in keep),
            z_x_labels=tuple(x_labels[r] for r in rows_x.tolist()),
            z_u_labels=tuple(u_labels[r] for r in rows_u.tolist()),
        )
        index[aid] = rows_x, rows_u, cols_x

    out = []
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
        rows_x, rows_u, cols_x = index[aid]
        out.append(
            AreaModel(
                area_id=aid,
                model=models[aid],
                shared_inputs=shares,
                shared_coordinates=coords,
                z_x_rows=rows_x,
                z_u_rows=rows_u,
                state_columns=cols_x,
            )
        )
    return out
