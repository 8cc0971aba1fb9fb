"""ASAP / ALAP scheduling and mobility (slack) analysis.

These unconstrained schedules bound every operation's feasible start-step
window; the window width is the operation's *mobility*, which the paper's
slack nodes represent explicitly on control edges (Sec. 2) and which the
list and force-directed schedulers use as priority.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.errors import ScheduleError
from repro.cdfg.graph import CDFG
from repro.datapath.units import HardwareSpec
from repro.sched.schedule import anti_predecessors, data_predecessors


def asap_schedule(graph: CDFG, spec: HardwareSpec) -> Dict[str, int]:
    """Earliest feasible start step for every operation (unlimited FUs)."""
    delays = spec.delays()
    start: Dict[str, int] = {}
    order = graph.topo_order()
    for op_name in order:
        earliest = 0
        for pred in data_predecessors(graph, op_name):
            earliest = max(earliest,
                           start[pred] + delays[graph.ops[pred].kind])
        start[op_name] = earliest
    # anti-dependence edges (loop producers after consumers) are resolved by
    # fixed-point iteration: consumer starts only ever move producers later
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > len(graph.ops) + 2:
            raise ScheduleError(
                f"ASAP: anti-dependence constraints do not converge on "
                f"{graph.name!r}")
        for op_name in order:
            lo = start[op_name]
            for anti in anti_predecessors(graph, op_name):
                lo = max(lo, start[anti])
            for pred in data_predecessors(graph, op_name):
                lo = max(lo, start[pred] + delays[graph.ops[pred].kind])
            if lo != start[op_name]:
                start[op_name] = lo
                changed = True
    return start


def asap_length(graph: CDFG, spec: HardwareSpec) -> int:
    """Minimum schedule length (critical path) with unlimited resources."""
    delays = spec.delays()
    start = asap_schedule(graph, spec)
    return max(start[name] + delays[graph.ops[name].kind]
               for name in graph.ops) if graph.ops else 0


def alap_schedule(graph: CDFG, spec: HardwareSpec,
                  length: int) -> Dict[str, int]:
    """Latest feasible start steps for a schedule of *length* steps."""
    delays = spec.delays()
    if length < asap_length(graph, spec):
        raise ScheduleError(
            f"ALAP: length {length} below critical path "
            f"{asap_length(graph, spec)} for {graph.name!r}")
    start: Dict[str, int] = {}
    order = graph.topo_order()
    for op_name in reversed(order):
        op = graph.ops[op_name]
        latest = length - delays[op.kind]
        for succ in graph.op_successors(op_name):
            latest = min(latest, start[succ] - delays[op.kind])
        start[op_name] = latest
    # anti-dependence: a loop-value consumer must start no later than the
    # value's producer; consumers only ever move earlier, so fixed-point
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > len(graph.ops) + 2:
            raise ScheduleError(
                f"ALAP: anti-dependence constraints do not converge on "
                f"{graph.name!r}")
        for op_name in reversed(order):
            op = graph.ops[op_name]
            hi = start[op_name]
            for succ in graph.op_successors(op_name):
                hi = min(hi, start[succ] - delays[op.kind])
            # if this op consumes a loop value, it must start <= producer
            for _, ref in op.value_operands():
                val = graph.values[ref.name]
                if val.loop_carried and val.producer is not None \
                        and val.producer != op_name:
                    hi = min(hi, start[val.producer])
            if hi < start[op_name]:
                start[op_name] = hi
                changed = True
    for op_name, step in start.items():
        if step < 0:
            raise ScheduleError(
                f"ALAP: operation {op_name!r} cannot meet length {length}")
    return start


def mobility(graph: CDFG, spec: HardwareSpec,
             length: int) -> Dict[str, int]:
    """Per-op slack: ALAP start − ASAP start (0 ⇒ on the critical path)."""
    asap = asap_schedule(graph, spec)
    alap = alap_schedule(graph, spec, length)
    result = {}
    for op_name in graph.ops:
        slack = alap[op_name] - asap[op_name]
        if slack < 0:
            raise ScheduleError(
                f"negative mobility for {op_name!r}: ASAP {asap[op_name]}, "
                f"ALAP {alap[op_name]}")
        result[op_name] = slack
    return result
