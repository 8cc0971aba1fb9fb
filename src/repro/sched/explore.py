"""Latency/resource exploration: minimum FU counts for a target latency.

Scheduling "fixes the minimum number of functional units and registers"
(paper Sec. 1); this module finds those minima.  The search enumerates FU
count vectors in order of increasing total area and returns the first one
the list scheduler proves feasible — exact for the monotone feasibility
predicate list scheduling provides in practice on these benchmark sizes.

One search builds the list scheduler's tables (:class:`ListTables`) once
for its (graph, spec, length) and runs every count vector against them.
Most vectors are infeasible; each of those stops at the first step that
leaves an op unplaced past its ALAP start, which already proves the
makespan exceeds the length (see :mod:`repro.sched.list_scheduler`).
:func:`schedule_graph` returns the winning vector's schedule itself
rather than scheduling it a second time.
"""

from __future__ import annotations

import heapq
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ScheduleError
from repro.cdfg.graph import CDFG
from repro.datapath.units import HardwareSpec
from repro.sched.asap import asap_length
from repro.sched.forcedirected import force_directed_schedule
from repro.sched.list_scheduler import ListTables, list_schedule
from repro.sched.schedule import Schedule


def _occupancy(graph: CDFG, spec: HardwareSpec) -> Dict[str, int]:
    """Total busy-steps demanded of each FU type over one iteration."""
    occupancy = {name: 0 for name in spec.fu_types}
    for op in graph.ops.values():
        fu_type = spec.type_for_kind(op.kind)
        occupancy[fu_type.name] += 1 if fu_type.pipelined else fu_type.delay
    return occupancy


def lower_bounds(graph: CDFG, spec: HardwareSpec,
                 length: int) -> Dict[str, int]:
    """Utilization lower bound: ceil(total busy steps / length) per type."""
    occupancy = _occupancy(graph, spec)
    return {name: max((occ + length - 1) // length, 1 if occ else 0)
            for name, occ in occupancy.items()}


def _cheapest_schedule(graph: CDFG, spec: HardwareSpec, length: int,
                       label: str = "") -> Tuple[Dict[str, int], Schedule]:
    """The smallest-area feasible count vector and its schedule."""
    if length < asap_length(graph, spec):
        raise ScheduleError(
            f"target length {length} below critical path "
            f"{asap_length(graph, spec)} of {graph.name!r}")
    occupancy = _occupancy(graph, spec)
    base = lower_bounds(graph, spec, length)
    type_names = sorted(base)
    caps = {name: max(base[name], occupancy[name], 1)
            for name in type_names}
    tables = ListTables(graph, spec, length)

    def area(counts: Mapping[str, int]) -> float:
        return sum(spec.type_named(n).area * c for n, c in counts.items())

    start = tuple(base[n] for n in type_names)
    heap: list = [(area(base), start)]
    seen = {start}
    while heap:
        _, vector = heapq.heappop(heap)
        counts = dict(zip(type_names, vector))
        try:
            return counts, tables.schedule(counts, label)
        except ScheduleError:
            pass
        for index, name in enumerate(type_names):
            if vector[index] >= caps[name]:
                continue
            bumped = vector[:index] + (vector[index] + 1,) + vector[index + 1:]
            if bumped not in seen:
                seen.add(bumped)
                bumped_counts = dict(zip(type_names, bumped))
                heapq.heappush(heap, (area(bumped_counts), bumped))
    raise ScheduleError(
        f"no feasible FU allocation meets length {length} for {graph.name!r}")


def minimal_fu_counts(graph: CDFG, spec: HardwareSpec,
                      length: int) -> Dict[str, int]:
    """Smallest-area FU count vector for which list scheduling meets *length*.

    Explores count vectors best-first by total area starting from the
    utilization lower bounds; each expansion bumps one type by one unit.
    Every vector runs against one :class:`ListTables` build, and an
    infeasible one stops as soon as an op passes its ALAP start.
    """
    return _cheapest_schedule(graph, spec, length)[0]


def schedule_graph(graph: CDFG, spec: HardwareSpec,
                   length: Optional[int] = None,
                   fu_counts: Optional[Mapping[str, int]] = None,
                   method: str = "list",
                   label: str = "") -> Schedule:
    """One-stop scheduling entry point.

    * *length* ``None`` ⇒ critical-path length (fastest schedule).
    * *fu_counts* ``None`` ⇒ minimal counts found by :func:`minimal_fu_counts`;
      the schedule is the one that search found feasible, not a re-run.
    * *method* ``"list"`` (resource-constrained list scheduling) or
      ``"fds"`` (force-directed; balances concurrency, same FU minima are
      verified afterwards).
    """
    if length is None:
        length = asap_length(graph, spec)
    if method not in ("list", "fds"):
        raise ScheduleError(f"unknown scheduling method {method!r}")
    if method == "fds":
        return force_directed_schedule(graph, spec, length, label=label)
    if fu_counts is None:
        return _cheapest_schedule(graph, spec, length, label)[1]
    return list_schedule(graph, spec, dict(fu_counts), target_length=length,
                         label=label)
