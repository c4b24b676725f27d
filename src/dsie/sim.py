"""Ground-truth simulator, measurement generator and attack injection.

Truth integration steps with the very A_d and B_d the filters use
(``ContinuousModel.discretize``: exact zero-order hold, exact for
piecewise-constant inputs, computed once per model and t_s), so model
mismatch is a deliberate scenario knob rather than an artifact of the
integrator.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field

import jsonschema
import numpy as np

from . import linalg
from .errors import InputFileError, SingularAtSteadyState, UnreachableSupport, WindowOutOfRange
from .model import ContinuousModel, DiscreteModel

SCENARIO_SCHEMA_VERSION = 1

SCENARIO_SCHEMA = {
    "type": "object",
    "required": ["network", "t_s", "duration"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer"},
        "name": {"type": "string"},
        "network": {"type": "string", "minLength": 1},
        "t_s": {"type": "number", "exclusiveMinimum": 0},
        "duration": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "initial_inputs": {
            "type": "object",
            "additionalProperties": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "load_events": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["time", "input", "value"],
                "additionalProperties": False,
                "properties": {
                    "time": {"type": "number", "minimum": 0},
                    "input": {"type": "string"},
                    "value": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
        },
        "attacks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["start", "end", "target", "mode", "channels"],
                "additionalProperties": False,
                "properties": {
                    "start": {"type": "number", "minimum": 0},
                    "end": {"type": "number", "minimum": 0},
                    "target": {"enum": ["state", "input"]},
                    "mode": {"enum": ["additive", "stealthy"]},
                    "channels": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                    "values": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": {"type": "number"},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    },
                    "magnitude": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "process_fraction": {"type": "number", "minimum": 0},
                "measurement_fraction": {"type": "number", "minimum": 0},
            },
        },
        "estimators": {
            "type": "array",
            "items": {"enum": ["dsie", "wls", "tse", "ddsie"]},
            "minItems": 1,
        },
        "init": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "state": {"enum": ["steady", "zero", "auto"]},
                "estimate_offset_fraction": {"type": "number", "minimum": 0},
                "p0_scale": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "tse": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"q_fraction": {"type": "number", "exclusiveMinimum": 0}},
        },
        "bdd": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "zeta": {"type": "number", "exclusiveMinimum": 0},
                "policy": {"enum": ["alert-only", "hold"]},
            },
        },
        "transport": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "drop_rate": {"type": "number", "minimum": 0, "maximum": 1},
                "delay_rate": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "kappa": {"type": "number", "exclusiveMinimum": 0},
        "mse_transient_steps": {"type": "integer", "minimum": 0},
    },
}


@dataclass(frozen=True)
class LoadEvent:
    time: float
    input_id: str
    value: tuple[float, float]


@dataclass(frozen=True)
class AttackSpec:
    start: float
    end: float
    target: str  # "state" | "input"
    mode: str  # "additive" | "stealthy"
    channels: tuple[str, ...]
    values: tuple[tuple[float, float], ...] | None = None  # additive mode
    magnitude: float | None = None  # stealthy mode, fraction of nominal


@dataclass(frozen=True)
class Scenario:
    network: str
    t_s: float
    duration: float
    seed: int = 0
    initial_inputs: dict[str, tuple[float, float]] = field(default_factory=dict)
    load_events: tuple[LoadEvent, ...] = ()
    attacks: tuple[AttackSpec, ...] = ()
    process_fraction: float = 0.0
    measurement_fraction: float | None = None
    estimators: tuple[str, ...] = ("dsie",)
    init_state: str = "auto"
    estimate_offset_fraction: float = 0.0
    p0_scale: float = 10.0
    tse_q_fraction: float = 1e-3
    bdd_alpha: float = 0.01
    bdd_zeta: float | None = None
    bdd_policy: str = "alert-only"
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    kappa: float = 3.0
    mse_transient_steps: int = 50
    name: str = ""

    @property
    def steps(self) -> int:
        return int(round(self.duration / self.t_s))


def scenario_from_dict(doc, name="<dict>") -> Scenario:
    problems = []
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    for err in sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path)):
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        problems.append(f"{path}: {err.message}")
    duration = doc.get("duration", 0)
    for i, ev in enumerate(doc.get("load_events", [])):
        if isinstance(ev, dict) and isinstance(ev.get("time"), (int, float)) and ev["time"] > duration:
            problems.append(f"load_events[{i}].time: {ev['time']} exceeds duration {duration}")
    for i, at in enumerate(doc.get("attacks", [])):
        if not isinstance(at, dict):
            continue
        if at.get("mode") == "additive" and "values" not in at:
            problems.append(f"attacks[{i}]: additive mode requires 'values'")
        if at.get("mode") == "additive" and "values" in at and len(at["values"]) != len(at.get("channels", [])):
            problems.append(f"attacks[{i}]: 'values' must list one (d, q) pair per channel")
        if at.get("mode") == "stealthy" and "magnitude" not in at:
            problems.append(f"attacks[{i}]: stealthy mode requires 'magnitude'")
        start, end = at.get("start"), at.get("end")
        if isinstance(start, (int, float)) and isinstance(end, (int, float)):
            if end <= start:
                problems.append(f"attacks[{i}]: end {end} must exceed start {start}")
            elif end > duration:
                problems.append(f"attacks[{i}].end: {end} exceeds duration {duration}")
    if problems:
        raise InputFileError(f"invalid scenario file {name}", problems=problems)

    noise = doc.get("noise", {})
    init = doc.get("init", {})
    bdd = doc.get("bdd", {})
    transport = doc.get("transport", {})
    return Scenario(
        network=doc["network"],
        t_s=float(doc["t_s"]),
        duration=float(doc["duration"]),
        seed=int(doc.get("seed", 0)),
        initial_inputs={k: (float(v[0]), float(v[1])) for k, v in doc.get("initial_inputs", {}).items()},
        load_events=tuple(
            LoadEvent(float(e["time"]), e["input"], (float(e["value"][0]), float(e["value"][1])))
            for e in doc.get("load_events", [])
        ),
        attacks=tuple(
            AttackSpec(
                start=float(a["start"]),
                end=float(a["end"]),
                target=a["target"],
                mode=a["mode"],
                channels=tuple(a["channels"]),
                values=tuple((float(v[0]), float(v[1])) for v in a["values"]) if "values" in a else None,
                magnitude=float(a["magnitude"]) if "magnitude" in a else None,
            )
            for a in doc.get("attacks", [])
        ),
        process_fraction=float(noise.get("process_fraction", 0.0)),
        measurement_fraction=(
            float(noise["measurement_fraction"]) if "measurement_fraction" in noise else None
        ),
        estimators=tuple(doc.get("estimators", ["dsie"])),
        init_state=init.get("state", "auto"),
        estimate_offset_fraction=float(init.get("estimate_offset_fraction", 0.0)),
        p0_scale=float(init.get("p0_scale", 10.0)),
        tse_q_fraction=float(doc.get("tse", {}).get("q_fraction", 1e-3)),
        bdd_alpha=float(bdd.get("alpha", 0.01)),
        bdd_zeta=float(bdd["zeta"]) if "zeta" in bdd else None,
        bdd_policy=bdd.get("policy", "alert-only"),
        drop_rate=float(transport.get("drop_rate", 0.0)),
        delay_rate=float(transport.get("delay_rate", 0.0)),
        kappa=float(doc.get("kappa", 3.0)),
        mse_transient_steps=int(doc.get("mse_transient_steps", 50)),
        name=doc.get("name", name),
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise InputFileError(
            f"invalid scenario file {path}", problems=[f"line {exc.lineno}: {exc.msg}"]
        ) from None
    return scenario_from_dict(doc, name=str(path))


def rng_for(seed: int, *tags: str) -> np.random.Generator:
    """Deterministic per-purpose generator derived from the scenario seed.

    Tags split the master seed into independent streams (truth noise,
    measurement noise, transport) without any stream depending on
    consumption order elsewhere. A run draws one measurement stream; the
    ddsie areas read their channels out of it.
    """
    words = [int(seed) & 0xFFFFFFFF] + [zlib.crc32(t.encode()) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(words))


@dataclass(frozen=True)
class TruthTrajectory:
    """Simulated ground truth on the grid t_k = k * t_s, k = 0..steps."""

    times: np.ndarray
    x: np.ndarray  # (steps+1, n)
    u: np.ndarray  # (steps+1, m)


def input_trajectory(continuous: ContinuousModel, scenario: Scenario) -> np.ndarray:
    """Piecewise-constant input signal: initial values plus load events."""
    steps = scenario.steps
    index = continuous.input_index
    u = np.zeros((steps + 1, continuous.m))
    for iid, pair in index.items():
        if iid in scenario.initial_inputs:
            u[:, pair] = scenario.initial_inputs[iid]
    events = sorted(scenario.load_events, key=lambda e: e.time)
    for e in events:
        if e.input_id not in index:
            raise KeyError(f"load event targets unknown input {e.input_id!r}")
        if e.time > scenario.duration:
            raise WindowOutOfRange(f"event at t={e.time} is outside duration {scenario.duration}")
    # An event acts from the first step k with time <= k * t_s + 1e-12.
    grid = np.arange(steps + 1) * scenario.t_s + 1e-12
    for e in events:
        u[np.searchsorted(grid, e.time) :, index[e.input_id]] = e.value
    return u


def steady_state(continuous: ContinuousModel, u0) -> np.ndarray:
    """x* = -A^{-1} B u0; raises when A is singular."""
    try:
        return np.linalg.solve(continuous.a, -(continuous.b @ u0))
    except np.linalg.LinAlgError:
        raise SingularAtSteadyState("state matrix is singular; no steady state") from None


def nominal_magnitudes(values: np.ndarray, floor: float = 1.0) -> np.ndarray:
    """Per-coordinate nominal scale: the dq phasor magnitude, floored.

    Both coordinates of a pair share the pair's magnitude so that noise
    fractions scale d and q channels identically.
    """
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    for k in range(0, v.size, 2):
        mag = max(float(np.hypot(v[k], v[k + 1])), floor)
        out[k] = out[k + 1] = mag
    return out


def simulate_truth(
    continuous: ContinuousModel,
    scenario: Scenario,
    process_std=None,
    rng: np.random.Generator | None = None,
    inputs: np.ndarray | None = None,
    steady: np.ndarray | None = None,
) -> TruthTrajectory:
    """Integrate the truth with exact ZOH stepping between load events.

    ``process_std`` is a per-state array of per-step noise standard
    deviations (None disables process noise); the RNG defaults to a
    stream derived from the scenario seed. ``inputs`` is the scenario's
    ``input_trajectory`` and ``steady`` its ``steady_state`` at u(0), each
    computed here when not given; a given ``inputs`` becomes the
    trajectory's ``u`` as it is.
    """
    u = input_trajectory(continuous, scenario) if inputs is None else inputs
    steps = scenario.steps
    a_d, b_d = continuous.discretize(scenario.t_s)
    if scenario.init_state == "zero":
        x0 = np.zeros(continuous.n)
    elif steady is not None:
        x0 = steady
    elif scenario.init_state == "steady":
        x0 = steady_state(continuous, u[0])
    else:  # auto: steady state when available, else zeros
        try:
            x0 = steady_state(continuous, u[0])
        except SingularAtSteadyState:
            x0 = np.zeros(continuous.n)
    x = np.zeros((steps + 1, continuous.n))
    x[0] = x0
    if process_std is not None:
        std = np.asarray(process_std, dtype=float)
        rng = rng if rng is not None else rng_for(scenario.seed, "truth")
        noise = rng.normal(0.0, 1.0, size=(steps, continuous.n)) * std
    else:
        noise = np.zeros((steps, continuous.n))
    # B_d u is formed once per segment of byte-equal input rows (bytes, so
    # a -0.0 after a +0.0 starts a segment); each step keeps the order
    # (A_d x + B_d u) + noise, and adds even a zero noise row, since
    # -0.0 + 0.0 is +0.0.
    rows = u[:steps].view(np.uint64)
    starts = [0, *(np.flatnonzero(np.any(rows[1:] != rows[:-1], axis=1)) + 1), steps]
    for start, end in zip(starts[:-1], starts[1:]):
        bu = b_d.dot(u[start])
        for x_k, x_next, noise_k in zip(x[start:end], x[start + 1 : end + 1], noise[start:end]):
            np.dot(a_d, x_k, out=x_next)
            x_next += bu
            x_next += noise_k
    times = np.arange(steps + 1) * scenario.t_s
    return TruthTrajectory(times=times, x=x, u=u)


def generate_measurements(truth: TruthTrajectory, model: DiscreteModel, rng: np.random.Generator):
    """z_x = C x + v_x and z_u = D u + v_u with independent Gaussian draws."""
    std_x, std_u = model.measurement_std
    k = truth.x.shape[0]
    z_x = truth.x @ model.c.T + rng.normal(0.0, 1.0, size=(k, model.p)) * std_x
    z_u = truth.u @ model.d.T + rng.normal(0.0, 1.0, size=(k, model.l)) * std_u
    return z_x, z_u


@dataclass(frozen=True)
class StealthyAttack:
    vector: np.ndarray
    coefficients: np.ndarray
    projection_residual: float


def craft_stealthy_attack(c, channels, magnitude, strict=False) -> StealthyAttack:
    """Build an attack in the column space of C supported on ``channels``.

    ``channels`` are measurement row indices. The unit pattern on those
    rows is projected onto col(C); if the projection leaks outside the
    requested support the nearest column-space vector is used and the
    relative projection residual reported (raised when ``strict``).
    The result is scaled so its 2-norm equals ``magnitude``.
    """
    return _scaled(_unit_attack(c, channels), magnitude, strict)


def _unit_attack(c, channels) -> StealthyAttack:
    """The attack before scaling: the column-space vector C a nearest the
    unit pattern on the rows ``channels``, with read-only arrays."""
    c = linalg.as_matrix(c, "C")
    rows = np.asarray(sorted(set(int(r) for r in channels)), dtype=int)
    if rows.size == 0 or rows.min() < 0 or rows.max() >= c.shape[0]:
        raise ValueError("channels must be valid measurement row indices")
    target = np.zeros(c.shape[0])
    target[rows] = 1.0
    coeff, *_ = np.linalg.lstsq(c, target, rcond=None)
    a = c @ coeff
    residual = float(np.linalg.norm(target - a) / np.linalg.norm(target))
    if np.linalg.norm(a) == 0.0:
        raise UnreachableSupport(
            "requested channels carry no component of the measurement column space",
            projection_residual=residual,
        )
    a.setflags(write=False)
    coeff.setflags(write=False)
    return StealthyAttack(vector=a, coefficients=coeff, projection_residual=residual)


def _scaled(unit: StealthyAttack, magnitude, strict: bool) -> StealthyAttack:
    """``unit`` (``_unit_attack``) scaled so its vector's 2-norm is ``magnitude``."""
    residual = unit.projection_residual
    if strict and residual > 1e-9:
        raise UnreachableSupport(
            f"channels cannot carry a pure column-space vector (residual {residual:.3e})",
            projection_residual=residual,
        )
    scale = float(magnitude) / np.linalg.norm(unit.vector)
    return StealthyAttack(
        vector=unit.vector * scale, coefficients=unit.coefficients * scale, projection_residual=residual
    )


def _channel_rows(labels, channels):
    """All measurement rows carrying the given target ids (duplicates too)."""
    rows = []
    for ch in channels:
        hits = [i for i, lab in enumerate(labels) if lab in (f"{ch}:d", f"{ch}:q")]
        if not hits:
            raise KeyError(f"attack targets unmeasured channel {ch!r}")
        rows.extend(hits)
    return rows


def apply_attacks(z_x, z_u, specs, model: DiscreteModel, times) -> tuple[np.ndarray, np.ndarray]:
    """Add attack vectors to the designated channels inside their windows.

    Pure function of its inputs: stealthy vectors are crafted from C/D
    (``craft_stealthy_attack``, unscaled once per model and rows) and
    scaled by the root-mean-square of the clean signal on the attacked
    channels, so composition over disjoint windows is additive.
    """
    z_x = np.array(z_x, dtype=float, copy=True)
    z_u = np.array(z_u, dtype=float, copy=True)
    horizon = float(times[-1])
    for spec in specs:
        if spec.start < 0 or spec.end > horizon + 1e-12 or spec.end <= spec.start:
            raise WindowOutOfRange(
                f"attack window [{spec.start}, {spec.end}] outside horizon [0, {horizon}]"
            )
        mask = (times >= spec.start - 1e-12) & (times < spec.end - 1e-12)
        stream = z_x if spec.target == "state" else z_u
        labels = model.z_x_labels if spec.target == "state" else model.z_u_labels
        rows = _channel_rows(labels, spec.channels)
        if spec.mode == "additive":
            vec = np.zeros(stream.shape[1])
            for (d_val, q_val), ch in zip(spec.values, spec.channels):
                for row in _channel_rows(labels, [ch]):
                    vec[row] += d_val if labels[row].endswith(":d") else q_val
            stream[mask] += vec
        else:
            clean = stream[mask][:, rows]
            nominal = float(np.sqrt(np.mean(clean**2))) if clean.size else 1.0
            nominal = max(nominal, 1e-12)
            key = (spec.target, tuple(rows))
            if key not in model.unit_attacks:
                model.unit_attacks[key] = _unit_attack(model.c if spec.target == "state" else model.d, rows)
            stream[mask] += _scaled(model.unit_attacks[key], spec.magnitude * nominal, False).vector
    return z_x, z_u
