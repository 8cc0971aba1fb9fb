"""JSON (de)serialization of CDFGs, schedules and bindings.

Lets users persist and exchange every artifact of the flow:

* :func:`cdfg_to_json` / :func:`cdfg_from_json` — the behaviour;
* :func:`schedule_to_json` / :func:`schedule_from_json` — op start steps
  plus the hardware assumptions (FU types are reconstructed exactly);
* :func:`binding_to_json` / :func:`binding_from_json` — a complete
  allocation (op->FU, segments, copies, read sources, pass-throughs),
  loaded into a fresh Binding with ``Binding.from_state``, whose
  primitives re-validate every decision.

Round-tripping is lossless for everything the allocator decides; the
test-suite asserts cost equality and simulation equivalence after a
round-trip.

Every encoding here is **canonical**: dictionaries are emitted with sorted
keys and node/edge lists in a content-derived order (operations and values
sorted by name, never by construction order), so two semantically equal
objects serialize to byte-identical JSON.  ``repro.service`` relies on this
to derive content-addressed cache keys; :func:`canonical_dumps` is the
shared minified encoder it hashes.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.timing.delays import DelaySpec

from repro.errors import ReproError
from repro.cdfg.graph import CDFG
from repro.cdfg.nodes import Const, Operation, Value, ValueRef
from repro.datapath.cost import CostWeights
from repro.datapath.units import FU, FUType, HardwareSpec, Register
from repro.sched.schedule import Schedule
from repro.core.binding import Binding
from repro.core.improve import ImproveStats
from repro.core.snapshot import state_from_dict, state_to_dict

FORMAT_VERSION = 1


class SerializationError(ReproError):
    """Malformed or version-incompatible serialized data."""


def canonical_dumps(payload: Any) -> str:
    """The canonical minified JSON encoding (sorted keys, no whitespace).

    This is the byte stream ``repro.service`` hashes into cache keys, so
    any change to it invalidates every previously cached allocation.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ------------------------------------------------------------------- CDFG

def cdfg_to_dict(graph: CDFG) -> Dict[str, Any]:
    """Canonical JSON-able encoding of a CDFG.

    Operations and values are listed in name order regardless of the order
    they were built in, so equal graphs encode identically.
    """
    ops = []
    for name in sorted(graph.ops):
        op = graph.ops[name]
        operands = []
        for operand in op.operands:
            if isinstance(operand, Const):
                operands.append({"const": operand.value,
                                 "label": operand.label})
            else:
                operands.append({"value": operand.name})
        ops.append({"name": op.name, "kind": op.kind,
                    "operands": operands, "result": op.result})
    values = []
    for name in sorted(graph.values):
        v = graph.values[name]
        values.append({
            "name": v.name,
            "is_input": v.is_input,
            "is_output": v.is_output,
            "loop_carried": v.loop_carried,
            "arrival_step": v.arrival_step,
        })
    return {
        "format": FORMAT_VERSION,
        "type": "cdfg",
        "name": graph.name,
        "cyclic": graph.cyclic,
        "operations": ops,
        "values": values,
    }


def cdfg_to_json(graph: CDFG) -> str:
    """Serialize a CDFG to a canonical JSON string."""
    return json.dumps(cdfg_to_dict(graph), indent=2, sort_keys=True)


def cdfg_from_json(text: str) -> CDFG:
    """Rebuild a CDFG from :func:`cdfg_to_json` output."""
    data = _load(text, "cdfg")
    ops = []
    for entry in data["operations"]:
        operands = []
        for spec in entry["operands"]:
            if "const" in spec:
                operands.append(Const(spec["const"], spec.get("label")))
            else:
                operands.append(ValueRef(spec["value"]))
        ops.append(Operation(entry["name"], entry["kind"], tuple(operands),
                             entry["result"]))
    values = [Value(v["name"], is_input=v["is_input"],
                    is_output=v["is_output"],
                    loop_carried=v["loop_carried"],
                    arrival_step=v["arrival_step"])
              for v in data["values"]]
    return CDFG(data["name"], ops, values, cyclic=data["cyclic"])


# --------------------------------------------------------------- hardware

def spec_to_dict(spec: HardwareSpec) -> Dict[str, Any]:
    """Canonical JSON-able encoding of a hardware spec (types by name)."""
    return {"fu_types": [{
        "name": t.name, "ops": sorted(t.ops), "delay": t.delay,
        "pipelined": t.pipelined, "can_passthrough": t.can_passthrough,
        "area": t.area,
    } for _, t in sorted(spec.fu_types.items())]}


_spec_to_dict = spec_to_dict


def _spec_from_dict(data: Dict[str, Any]) -> HardwareSpec:
    return HardwareSpec([
        FUType(t["name"], frozenset(t["ops"]), t["delay"],
               pipelined=t["pipelined"],
               can_passthrough=t["can_passthrough"], area=t["area"])
        for t in data["fu_types"]])


# --------------------------------------------------------------- schedule

def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    """Canonical JSON-able encoding of a schedule (CDFG + spec + starts)."""
    return {
        "format": FORMAT_VERSION,
        "type": "schedule",
        "cdfg": cdfg_to_dict(schedule.graph),
        "spec": spec_to_dict(schedule.spec),
        "length": schedule.length,
        "label": schedule.label,
        "start": dict(sorted(schedule.start.items())),
    }


def schedule_to_json(schedule: Schedule) -> str:
    """Serialize a schedule together with its CDFG and hardware spec."""
    return json.dumps(schedule_to_dict(schedule), indent=2, sort_keys=True)


def schedule_from_json(text: str) -> Schedule:
    data = _load(text, "schedule")
    graph = cdfg_from_json(json.dumps(data["cdfg"]))
    spec = _spec_from_dict(data["spec"])
    return Schedule(graph, spec, data["length"], data["start"],
                    label=data["label"])


# ---------------------------------------------------------------- binding

def binding_to_dict(binding: Binding) -> Dict[str, Any]:
    """Canonical JSON-able encoding of a complete allocation: the
    problem, then the decision sections of
    :func:`repro.core.snapshot.state_to_dict`."""
    document: Dict[str, Any] = {
        "format": FORMAT_VERSION,
        "type": "binding",
        "schedule": schedule_to_dict(binding.schedule),
        "fus": [{"name": f.name, "type": f.type_name}
                for _, f in sorted(binding.fus.items())],
        "registers": sorted(binding.regs),
        "weights": binding.weights.to_dict(),
    }
    # the live decision dicts, read in place (no clone_state copy)
    document.update(state_to_dict({
        "op_fu": binding.op_fu, "op_swap": binding.op_swap,
        "placements": binding.placements, "read_src": binding.read_src,
        "out_src": binding.out_src, "pt_impl": binding.pt_impl}))
    return document


def binding_to_json(binding: Binding) -> str:
    """Serialize a complete allocation."""
    return json.dumps(binding_to_dict(binding), indent=2, sort_keys=True)


def binding_from_json(text: str) -> Binding:
    """Rebuild (and re-validate) a binding from JSON."""
    data = _load(text, "binding")
    schedule = schedule_from_json(json.dumps(data["schedule"]))
    spec = schedule.spec
    fus = [FU(f["name"], spec.type_named(f["type"])) for f in data["fus"]]
    regs = [Register(name) for name in data["registers"]]
    return Binding.from_state(schedule, fus, regs, state_from_dict(data),
                              CostWeights(**data["weights"]))


# ------------------------------------------------------------ delay spec

def delay_spec_to_json(spec: "DelaySpec") -> str:
    """Serialize a timing :class:`~repro.timing.delays.DelaySpec`."""
    from repro.timing.delays import delay_spec_to_dict

    payload = delay_spec_to_dict(spec)
    payload["format"] = FORMAT_VERSION
    payload["type"] = "delay_spec"
    return json.dumps(payload, indent=2, sort_keys=True)


def delay_spec_from_json(text: str) -> "DelaySpec":
    """Rebuild a :class:`~repro.timing.delays.DelaySpec` from JSON."""
    from repro.timing.delays import delay_spec_from_dict

    data = _load(text, "delay_spec")
    data.pop("format")
    data.pop("type")
    return delay_spec_from_dict(data)


# ---------------------------------------------------------- search stats

def stats_to_json(all_stats: List[ImproveStats]) -> str:
    """Serialize the telemetry of one or more improvement runs."""
    return json.dumps({
        "format": FORMAT_VERSION,
        "type": "improve_stats",
        "runs": [stats.to_dict() for stats in all_stats],
    }, indent=2, sort_keys=True)


def stats_from_json(text: str) -> List[ImproveStats]:
    """Rebuild the :class:`ImproveStats` list from :func:`stats_to_json`."""
    data = _load(text, "improve_stats")
    return [ImproveStats.from_dict(entry) for entry in data["runs"]]


# ------------------------------------------------------------------ utils

def _load(text: str, expected_type: str) -> Dict[str, Any]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SerializationError("top-level JSON value must be an object")
    if data.get("format") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {data.get('format')!r} "
            f"(expected {FORMAT_VERSION})")
    if data.get("type") != expected_type:
        raise SerializationError(
            f"expected a {expected_type!r} document, got "
            f"{data.get('type')!r}")
    return data
