"""Declarative network description and the JSON file format behind it.

A network file is a JSON document with sections ``buses``, ``lines``,
``dgus``, ``loads``, ``sensors``, ``omega_o`` and an optional ``areas``
partition. See the schema constant below and the bundled examples under
``dsie/data/networks``.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import jsonschema

from .errors import InputFileError

NETWORK_SCHEMA_VERSION = 1

NETWORK_SCHEMA = {
    "type": "object",
    "required": ["buses", "lines", "omega_o"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "integer"},
        "name": {"type": "string"},
        "description": {"type": "string"},
        "omega_o": {"type": "number", "exclusiveMinimum": 0},
        "buses": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "string", "minLength": 1},
                    "has_capacitor": {"type": "boolean"},
                    "capacitance": {"type": "number", "exclusiveMinimum": 0},
                    "nominal_voltage": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
        "lines": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["from", "to", "resistance", "inductance"],
                "additionalProperties": False,
                "properties": {
                    "from": {"type": "string"},
                    "to": {"type": "string"},
                    "resistance": {"type": "number", "minimum": 0},
                    "inductance": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
        "dgus": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "at_bus",
                    "resistance",
                    "inductance",
                    "capacitance",
                    "gain",
                    "terminal_voltage_input",
                ],
                "additionalProperties": False,
                "properties": {
                    "at_bus": {"type": "string"},
                    "resistance": {"type": "number", "minimum": 0},
                    "inductance": {"type": "number", "exclusiveMinimum": 0},
                    "capacitance": {"type": "number", "exclusiveMinimum": 0},
                    "gain": {"type": "number", "exclusiveMinimum": 0},
                    "terminal_voltage_input": {"type": "string", "minLength": 1},
                },
            },
        },
        "loads": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["at_bus", "current_input"],
                "additionalProperties": False,
                "properties": {
                    "at_bus": {"type": "string"},
                    "current_input": {"type": "string", "minLength": 1},
                },
            },
        },
        "sensors": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "states": {"$ref": "#/$defs/channel_list"},
                "inputs": {"$ref": "#/$defs/channel_list"},
            },
        },
        "areas": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {
                "type": "object",
                "required": ["buses"],
                "additionalProperties": False,
                "properties": {
                    "buses": {"type": "array", "items": {"type": "string"}},
                    "lines": {
                        "type": "array",
                        "items": {
                            "type": "array",
                            "items": {"type": "string"},
                            "minItems": 2,
                            "maxItems": 2,
                        },
                    },
                    "dgus": {"type": "array", "items": {"type": "string"}},
                    "loads": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "shared_buses": {"type": "array", "items": {"type": "string"}},
    },
    "$defs": {
        "channel_list": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["target", "std"],
                "additionalProperties": False,
                "properties": {
                    "target": {"type": "string", "minLength": 1},
                    "std": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        }
    },
}


@dataclass(frozen=True)
class Bus:
    id: str
    has_capacitor: bool = False
    capacitance: float | None = None
    nominal_voltage: float = 1.0


@dataclass(frozen=True)
class Line:
    from_bus: str
    to_bus: str
    resistance: float
    inductance: float

    @property
    def state_id(self) -> str:
        return f"i_{self.from_bus}_{self.to_bus}"


@dataclass(frozen=True)
class Dgu:
    at_bus: str
    resistance: float
    inductance: float
    capacitance: float
    gain: float
    terminal_voltage_input: str

    @property
    def state_id(self) -> str:
        return f"i_t_{self.at_bus}"


@dataclass(frozen=True)
class Load:
    at_bus: str
    current_input: str


@dataclass(frozen=True)
class SensorChannel:
    """One measured state or input id with its noise standard deviation."""

    target: str
    std: float


@dataclass(frozen=True)
class SensorPlacement:
    states: tuple[SensorChannel, ...] = ()
    inputs: tuple[SensorChannel, ...] = ()


@dataclass(frozen=True)
class AreaSpec:
    """Element assignment of one area: bus ids plus owned elements."""

    buses: tuple[str, ...] = ()
    lines: tuple[tuple[str, str], ...] = ()
    dgus: tuple[str, ...] = ()
    loads: tuple[str, ...] = ()

    def __post_init__(self):
        # Tuples whatever sequences it is given, so nothing in it changes.
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "lines", tuple(tuple(key) for key in self.lines))
        object.__setattr__(self, "dgus", tuple(self.dgus))
        object.__setattr__(self, "loads", tuple(self.loads))


@dataclass(frozen=True)
class NetworkTopology:
    buses: tuple[Bus, ...]
    lines: tuple[Line, ...] = ()
    dgus: tuple[Dgu, ...] = ()
    loads: tuple[Load, ...] = ()
    sensors: SensorPlacement = field(default_factory=SensorPlacement)
    omega: float = 2 * 3.141592653589793 * 60.0
    areas: Mapping[str, AreaSpec] | None = None
    shared_buses: tuple[str, ...] = ()
    name: str = ""

    def __post_init__(self):
        # A read-only copy of the areas it is given, so that ``key`` stays
        # exact: a change to the caller's mapping does not reach it.
        if self.areas is not None:
            object.__setattr__(self, "areas", MappingProxyType(dict(self.areas)))

    @functools.cached_property
    def key(self) -> str:
        """The topology's ``repr``, built on first use and then kept: an exact
        key of everything in it (its areas are a mapping, so it has no
        hash). Nothing in a topology changes after it is made;
        ``dataclasses.replace`` makes a new one, with its own key."""
        return repr(self)

    def bus(self, bus_id: str) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(bus_id)


def _semantic_problems(doc) -> list[str]:
    problems = []
    bus_ids = [b["id"] for b in doc.get("buses", [])]
    seen = set()
    for i, bid in enumerate(bus_ids):
        if bid in seen:
            problems.append(f"buses[{i}].id: duplicate bus id {bid!r}")
        seen.add(bid)
    bus_set = set(bus_ids)
    for i, b in enumerate(doc.get("buses", [])):
        if b.get("has_capacitor") and "capacitance" not in b:
            problems.append(f"buses[{i}]: has_capacitor is true but capacitance is missing")
        if not b.get("has_capacitor") and "capacitance" in b:
            problems.append(f"buses[{i}]: capacitance given but has_capacitor is false")
    seen_lines = set()
    for i, ln in enumerate(doc.get("lines", [])):
        if ln["from"] == ln["to"]:
            problems.append(f"lines[{i}]: from and to are the same bus {ln['from']!r}")
        for end in ("from", "to"):
            if ln[end] not in bus_set:
                problems.append(f"lines[{i}].{end}: unknown bus {ln[end]!r}")
        key = (ln["from"], ln["to"])
        if key in seen_lines or (key[1], key[0]) in seen_lines:
            problems.append(f"lines[{i}]: duplicate line between {key[0]!r} and {key[1]!r}")
        seen_lines.add(key)
    dgu_buses = set()
    for i, d in enumerate(doc.get("dgus", [])):
        if d["at_bus"] not in bus_set:
            problems.append(f"dgus[{i}].at_bus: unknown bus {d['at_bus']!r}")
        if d["at_bus"] in dgu_buses:
            problems.append(f"dgus[{i}]: second DGU at bus {d['at_bus']!r}")
        dgu_buses.add(d["at_bus"])
    load_inputs = set()
    for i, l in enumerate(doc.get("loads", [])):
        if l["at_bus"] not in bus_set:
            problems.append(f"loads[{i}].at_bus: unknown bus {l['at_bus']!r}")
        if l["current_input"] in load_inputs:
            problems.append(f"loads[{i}].current_input: duplicate input id {l['current_input']!r}")
        load_inputs.add(l["current_input"])
    areas = doc.get("areas")
    shared = doc.get("shared_buses", [])
    if areas:
        for s in shared:
            holders = [a for a, spec in areas.items() if s in spec.get("buses", [])]
            if len(holders) < 2:
                problems.append(
                    f"shared_buses: bus {s!r} appears in {len(holders)} area(s), needs >= 2"
                )
        for aid, spec in areas.items():
            for b in spec.get("buses", []):
                if b not in bus_set:
                    problems.append(f"areas.{aid}.buses: unknown bus {b!r}")
    elif shared:
        problems.append("shared_buses given without an areas section")
    return problems


def network_from_dict(doc, name="<dict>") -> NetworkTopology:
    """Validate a parsed network document and build the topology."""
    problems = []
    validator = jsonschema.Draft202012Validator(NETWORK_SCHEMA)
    for err in sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path)):
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        problems.append(f"{path}: {err.message}")
    if not problems:
        problems = _semantic_problems(doc)
    if problems:
        raise InputFileError(f"invalid network file {name}", problems=problems)

    buses = tuple(
        Bus(
            id=b["id"],
            has_capacitor=bool(b.get("has_capacitor", False)),
            capacitance=b.get("capacitance"),
            nominal_voltage=float(b.get("nominal_voltage", 1.0)),
        )
        for b in doc["buses"]
    )
    lines = tuple(
        Line(ln["from"], ln["to"], float(ln["resistance"]), float(ln["inductance"]))
        for ln in doc.get("lines", [])
    )
    dgus = tuple(
        Dgu(
            at_bus=d["at_bus"],
            resistance=float(d["resistance"]),
            inductance=float(d["inductance"]),
            capacitance=float(d["capacitance"]),
            gain=float(d["gain"]),
            terminal_voltage_input=d["terminal_voltage_input"],
        )
        for d in doc.get("dgus", [])
    )
    loads = tuple(Load(l["at_bus"], l["current_input"]) for l in doc.get("loads", []))
    sensors_doc = doc.get("sensors", {})
    sensors = SensorPlacement(
        states=tuple(
            SensorChannel(c["target"], float(c["std"])) for c in sensors_doc.get("states", [])
        ),
        inputs=tuple(
            SensorChannel(c["target"], float(c["std"])) for c in sensors_doc.get("inputs", [])
        ),
    )
    areas = None
    if "areas" in doc:
        areas = {
            aid: AreaSpec(
                buses=tuple(spec.get("buses", [])),
                lines=tuple((a, b) for a, b in spec.get("lines", [])),
                dgus=tuple(spec.get("dgus", [])),
                loads=tuple(spec.get("loads", [])),
            )
            for aid, spec in doc["areas"].items()
        }
    return NetworkTopology(
        buses=buses,
        lines=lines,
        dgus=dgus,
        loads=loads,
        sensors=sensors,
        omega=float(doc["omega_o"]),
        areas=areas,
        shared_buses=tuple(doc.get("shared_buses", [])),
        name=doc.get("name", name),
    )


def load_network(path) -> NetworkTopology:
    """Load and validate a network JSON file."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise InputFileError(
            f"invalid network file {path}", problems=[f"line {exc.lineno}: {exc.msg}"]
        ) from None
    return network_from_dict(doc, name=str(path))
