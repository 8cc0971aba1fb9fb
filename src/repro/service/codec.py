"""Canonical request codec and content-addressed cache keys.

An :class:`AllocateRequest` is the full identity of one allocation
problem: the CDFG, hardware spec, schedule parameters, search engine and
its knobs, seed and restart count.  :func:`request_key` hashes the
canonical JSON encoding of that identity with sha256, giving the
content-addressed key the result cache is organized by.

Two invariants the whole service relies on:

* **canonical encoding** — the payload built by :func:`cache_key_payload`
  uses only canonical sub-encodings (``repro.io``'s sorted, name-ordered
  dicts) and is serialized with :func:`repro.io.canonical_dumps`, so two
  semantically equal requests produce byte-identical JSON and therefore
  the same key, no matter how the caller constructed them;
* **identity vs. delivery** — fields that change *how* a result is
  computed or delivered without changing *which* result is correct
  (deadline, warm-start permission, async flag) are excluded from the
  key.  Results produced under a deadline (degraded) or from a warm start
  are never written back to the exact-key cache, so a cached entry is
  always the full-fidelity answer for its key.

:func:`warm_key` hashes the *problem shape only* (graph, spec, schedule
parameters, weights, model) — requests that differ merely in search
budget or seed share a warm key, which is how a near-identical request
finds a cached constructive binding to warm-start from.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Optional

from repro.errors import ReproError
from repro.cdfg.graph import CDFG
from repro.datapath.cost import CostWeights
from repro.datapath.units import HardwareSpec
from repro.io.json_io import (canonical_dumps, cdfg_from_json, cdfg_to_dict,
                              spec_to_dict, _spec_from_dict)

import json

#: schema version of the request encoding; bump to invalidate all caches
REQUEST_FORMAT = 1

ENGINES = ("improve", "anneal")
MODELS = ("salsa", "traditional")

#: named benchmark CDFGs a request may refer to instead of embedding a
#: graph (resolved to the full graph before hashing, so ``{"bench":
#: "ewf"}`` and the embedded EWF graph are the same request)
_BENCH_BUILDERS = {
    "ewf": "elliptic_wave_filter",
    "dct": "discrete_cosine_transform",
    "fir": "fir_filter",
    "diffeq": "hal_diffeq",
    "ar": "ar_lattice",
}

#: most restarts one request may ask for.  Every restart is a search of
#: the full budget, and ``prepare_jobs`` builds all of a request's
#: restart jobs (and the job manager one pool future each) before the
#: first search runs, so the count sets memory and queued work before
#: any deadline can act.  The restart study (results/restart_variance.txt)
#: needs 13 restarts on EWF at 19 steps for a 90% chance of coming within
#: one cost unit of the best; 64 is about five times that.
MAX_RESTARTS = 64


class RequestError(ReproError):
    """A malformed or unsupported allocation request."""


@dataclass
class AllocateRequest:
    """One allocation problem plus its delivery options."""

    graph: CDFG
    spec: HardwareSpec
    model: str = "salsa"            # salsa | traditional
    engine: str = "improve"         # improve | anneal
    length: Optional[int] = None
    fu_counts: Optional[Dict[str, int]] = None
    registers: Optional[int] = None
    weights: CostWeights = CostWeights()
    seed: int = 0
    restarts: int = 1
    #: engine knob overrides (only keys in ``_IMPROVE_KNOBS`` /
    #: ``_ANNEAL_KNOBS``, with values their checks pass; everything else
    #: is rejected at decode time)
    improve: Dict[str, Any] = field(default_factory=dict)
    anneal: Dict[str, Any] = field(default_factory=dict)
    #: timing constraint: when the winning binding's analyzed clock period
    #: exceeds this, the result is delivered with ``degraded: true`` (and,
    #: like every degraded result, never cached).  Part of the request
    #: identity — but omitted from the key payload when None, so requests
    #: that predate the knob keep their exact keys.
    max_clock_ns: Optional[float] = None
    # ----- delivery options (never part of the cache key) -----
    #: wall-clock budget; when it fires mid-search the response carries
    #: the best-so-far binding with ``degraded: true``
    deadline_ms: Optional[int] = None
    #: allow warm-starting from a cached allocation of the same shape
    warm_start: bool = False
    #: ``"cache": false`` opts this submission out of the shared cache
    #: tier entirely — no exact-key read, no write-back, no warm-store
    #: publish.  A delivery option (load generators measuring pure search
    #: throughput, operators bypassing a suspect entry), never part of
    #: the request identity.
    cache_ok: bool = True

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise RequestError(f"unknown engine {self.engine!r} "
                               f"(expected one of {ENGINES})")
        if self.model not in MODELS:
            raise RequestError(f"unknown model {self.model!r} "
                               f"(expected one of {MODELS})")
        if self.restarts < 1:
            raise RequestError("restarts must be >= 1")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise RequestError("deadline_ms must be positive")
        if self.max_clock_ns is not None and self.max_clock_ns <= 0:
            raise RequestError("max_clock_ns must be positive")
        for engine, knobs, checks in (
                ("improve", self.improve, _IMPROVE_KNOBS),
                ("anneal", self.anneal, _ANNEAL_KNOBS)):
            for knob, value in knobs.items():
                if knob not in checks:
                    raise RequestError(f"unknown {engine} knob {knob!r}")
                checks[knob](f"{engine}[{knob!r}]", value)


# ----------------------------------------------------------------- decode

def _graph_from_spec(data: Any) -> CDFG:
    if isinstance(data, dict) and "bench" in data:
        name = data["bench"]
        builder_name = _BENCH_BUILDERS.get(name)
        if builder_name is None:
            raise RequestError(
                f"unknown benchmark {name!r} "
                f"(expected one of {sorted(_BENCH_BUILDERS)})")
        import repro.bench as bench
        return getattr(bench, builder_name)()
    if isinstance(data, dict) and data.get("type") == "cdfg":
        return cdfg_from_json(json.dumps(data))
    raise RequestError(
        "request 'cdfg' must be a serialized CDFG document or "
        "{'bench': <name>}")


def _finite_number(name: str, value: Any) -> float:
    """*value* if it is a finite int or float (not a bool).

    A cost weight multiplies an integer count inside the search, so a
    string would fail there with a TypeError and a NaN would make every
    accept test false; both are rejected here, at decode time.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise RequestError(f"bad {name}: {value!r} is not a finite number")
    return value


def _integer(name: str, value: Any, least: Optional[int]) -> int:
    """*value* if it is an int (not a bool) and, when *least* is given,
    at least *least*.

    A length, a unit/register count or a search budget is used as a count
    by scheduling, allocation and search, so a string or a float would
    fail there with a TypeError, and ``int()`` would quietly turn
    ``true`` into 1 and ``2.7`` into 2.
    """
    if isinstance(value, bool) or not isinstance(value, int) \
            or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise RequestError(f"bad {name}: {value!r} is not an integer{bound}")
    return value


def _count(name: str, value: Any) -> int:
    return _integer(name, value, 0)


def _flag(name: str, value: Any) -> bool:
    """*value* if it is a JSON boolean (``bool("no")`` would be True)."""
    if not isinstance(value, bool):
        raise RequestError(f"bad {name}: {value!r} is not a boolean")
    return value


def _temperature(name: str, value: Any) -> float:
    """A finite number > 0: the Metropolis test divides by it."""
    if _finite_number(name, value) <= 0:
        raise RequestError(f"bad {name}: {value!r} is not > 0")
    return value


def _cooling(name: str, value: Any) -> float:
    """A finite number in (0, 1]: it scales the temperature each level."""
    if not 0 < _finite_number(name, value) <= 1:
        raise RequestError(f"bad {name}: {value!r} is not in (0, 1]")
    return value


#: engine knob -> check of its value, run when a request is built, so a
#: bad value is a 400 rather than a failed (or quietly wrong) search
_IMPROVE_KNOBS: Dict[str, Callable[[str, Any], Any]] = {
    "max_trials": _count, "moves_per_trial": _count,
    "uphill_per_trial": _count, "idle_trials_stop": _count,
    "restart_from_best": _flag, "polish_trials": _flag}
_ANNEAL_KNOBS: Dict[str, Callable[[str, Any], Any]] = {
    "initial_temperature": _temperature, "cooling": _cooling,
    "temperature_levels": _count, "moves_per_level": _count,
    "min_temperature": _temperature}


def _knobs(data: Dict[str, Any], engine: str) -> Dict[str, Any]:
    knobs = data.get(engine, {})
    if not isinstance(knobs, dict):
        raise RequestError(f"request {engine!r} must be an object")
    return dict(knobs)


def request_from_dict(data: Dict[str, Any]) -> AllocateRequest:
    """Decode an HTTP request body into an :class:`AllocateRequest`."""
    if not isinstance(data, dict):
        raise RequestError("request body must be a JSON object")
    known = {"cdfg", "spec", "model", "engine", "length", "fu_counts",
             "registers", "weights", "seed", "restarts", "improve",
             "anneal", "deadline_ms", "warm_start", "async", "cache",
             "latency_weight", "max_clock_ns"}
    unknown = set(data) - known
    if unknown:
        raise RequestError(f"unknown request fields {sorted(unknown)}")
    if "cdfg" not in data:
        raise RequestError("request is missing the 'cdfg' field")
    graph = _graph_from_spec(data["cdfg"])

    spec_data = data.get("spec", "non_pipelined")
    if spec_data == "non_pipelined":
        spec = HardwareSpec.non_pipelined()
    elif spec_data == "pipelined":
        spec = HardwareSpec.pipelined()
    elif isinstance(spec_data, dict):
        spec = _spec_from_dict(spec_data)
    else:
        raise RequestError("request 'spec' must be 'non_pipelined', "
                           "'pipelined' or a spec document")

    weights_data = data.get("weights")
    if weights_data is None:
        weights = CostWeights()
    else:
        try:
            weights = CostWeights(**weights_data)
        except TypeError as exc:
            raise RequestError(f"bad weights: {exc}") from None
        for name, value in weights_data.items():
            _finite_number(f"weights[{name!r}]", value)

    # whitelisted shorthand for weights.latency: steer the search toward
    # shallow mux trees without spelling out the whole weights vector
    if "latency_weight" in data:
        if weights_data is not None and "latency" in weights_data:
            raise RequestError(
                "give either 'latency_weight' or weights['latency'], "
                "not both")
        latency = _finite_number("latency_weight", data["latency_weight"])
        weights = replace(weights, latency=float(latency))

    max_clock_ns = data.get("max_clock_ns")
    if max_clock_ns is not None:
        max_clock_ns = float(_finite_number("max_clock_ns", max_clock_ns))

    # a NaN deadline never fires, and bool("false") is True: the delivery
    # options are checked like every other field.  "async" is read by the
    # server and only checked here.
    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None:
        _finite_number("deadline_ms", deadline_ms)
    _flag("async", data.get("async", False))

    # The scheduler sizes its busy columns by the length and make_fus
    # builds one object per counted unit, so both are capped here, before
    # either runs.  A fully serial schedule (one op at a time, each
    # starting when the one before it ends) meets every dependence, and
    # no critical path is longer.  A sweep asks for the critical path
    # plus a slack (the zoo adds 1 to 4 steps), and on a chain such as
    # the zoo's fanout the critical path already is the serial length.
    # So the cap is twice the serial length: it admits any slack up to a
    # whole serial schedule and stays linear in the graph size.  At one
    # step a busy unit carries an op or a pass-through of a value, so no
    # type can put more than ops + values units to use.
    length, registers = data.get("length"), data.get("registers")
    if length is not None:
        length = _integer("length", length, 1)
        delays = spec.delays()
        longest = 2 * sum(delays.get(op.kind, 1)
                          for op in graph.ops.values())
        if length > longest:
            raise RequestError(
                f"bad length: {length} is over {longest}, twice the "
                f"length of a fully serial schedule")
    # make_registers builds one object per register as well, and every
    # register move scans the whole file.  A legal binding never needs
    # more than the schedule's lifetime minimum, which is at most one
    # register per value; registers beyond it are headroom for value
    # copies (R5) and segment hops.  The cap is fu_counts' ops + values,
    # which leaves at least one spare register per op above any lifetime
    # minimum (a zoo scenario grants its minimum plus one or two).
    most = len(graph.ops) + len(graph.values)
    if registers is not None:
        registers = _integer("registers", registers, 1)
        if registers > most:
            raise RequestError(
                f"bad registers: {registers} is over {most}, the ops plus "
                f"values of the graph")
    fu_counts = data.get("fu_counts")
    if fu_counts is not None:
        if not isinstance(fu_counts, dict):
            raise RequestError("request 'fu_counts' must be an object")
        fu_counts = {str(k): _integer(f"fu_counts[{k!r}]", v, 1)
                     for k, v in fu_counts.items()}
        for name, count in fu_counts.items():
            if count > most:
                raise RequestError(
                    f"bad fu_counts[{name!r}]: {count} is over {most}, "
                    f"the ops plus values of the graph")
    restarts = _integer("restarts", data.get("restarts", 1), 1)
    if restarts > MAX_RESTARTS:
        raise RequestError(f"bad restarts: {restarts} is over "
                           f"{MAX_RESTARTS}")
    try:
        return AllocateRequest(
            graph=graph, spec=spec,
            model=data.get("model", "salsa"),
            engine=data.get("engine", "improve"),
            length=length,
            fu_counts=fu_counts,
            registers=registers,
            weights=weights,
            seed=_integer("seed", data.get("seed", 0), None),
            restarts=restarts,
            improve=_knobs(data, "improve"),
            anneal=_knobs(data, "anneal"),
            deadline_ms=deadline_ms,
            warm_start=_flag("warm_start", data.get("warm_start", False)),
            cache_ok=_flag("cache", data.get("cache", True)),
            max_clock_ns=max_clock_ns)
    except (ValueError, TypeError) as exc:
        raise RequestError(f"bad request field: {exc}") from None


# ----------------------------------------------------------------- encode

def _weights_to_dict(weights: CostWeights) -> Dict[str, float]:
    payload = {"fu": weights.fu, "register": weights.register,
               "mux": weights.mux, "wire": weights.wire}
    # a zero latency weight is the pre-timing cost function: omit the key
    # so every request that predates the knob hashes to its old cache key
    if weights.latency:
        payload["latency"] = weights.latency
    return payload


def _shape_payload(request: AllocateRequest) -> Dict[str, Any]:
    """The problem-shape identity shared by :func:`warm_key`."""
    return {
        "format": REQUEST_FORMAT,
        "cdfg": cdfg_to_dict(request.graph),
        "spec": spec_to_dict(request.spec),
        "model": request.model,
        "length": request.length,
        "fu_counts": dict(sorted(request.fu_counts.items()))
        if request.fu_counts is not None else None,
        "registers": request.registers,
        "weights": _weights_to_dict(request.weights),
    }


def cache_key_payload(request: AllocateRequest) -> Dict[str, Any]:
    """The full identity payload hashed by :func:`request_key`.

    Delivery options (deadline, warm-start permission) are deliberately
    absent: they select *how hard* to try, not *what* the answer is.
    """
    payload = _shape_payload(request)
    payload.update({
        "engine": request.engine,
        "seed": request.seed,
        "restarts": request.restarts,
        "improve": dict(sorted(request.improve.items())),
        "anneal": dict(sorted(request.anneal.items())),
    })
    # identity-bearing, but omitted when absent: requests without the
    # constraint keep the exact keys they had before the knob existed
    if request.max_clock_ns is not None:
        payload["max_clock_ns"] = request.max_clock_ns
    return payload


def request_key(request: AllocateRequest) -> str:
    """sha256 over the canonical JSON of the request identity."""
    text = canonical_dumps(cache_key_payload(request))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def warm_key(request: AllocateRequest) -> str:
    """sha256 over the problem shape only (search knobs/seeds excluded)."""
    text = canonical_dumps(_shape_payload(request))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def job_id_for(key: str) -> str:
    """Deterministic job ID: identical requests map to the same job.

    This is what makes duplicate in-flight submissions coalesce instead of
    running the same search twice.
    """
    digest = hashlib.sha256(b"repro-job:" + key.encode("ascii"))
    return digest.hexdigest()[:16]
