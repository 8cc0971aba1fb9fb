"""The table-driven list scheduler against the loop it replaced.

:func:`reference_list_schedule` is the list scheduler as it stood before
the per-problem tables and the fail-fast rule, copied verbatim (only the
name changed); :func:`reference_minimal_fu_counts` is the area-ordered
count search as it stood then, running on the reference.  They are the
referees: on random small CDFGs with multi-cycle, pipelined and
loop-carried values the new code must place every op on the same step, in
the same order, and raise :class:`ScheduleError` exactly when they do.
"""

import heapq
from typing import Dict, List, Mapping, Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cdfg.builder import CDFGBuilder
from repro.cdfg.graph import CDFG
from repro.datapath.units import HardwareSpec
from repro.errors import ScheduleError
from repro.sched.asap import alap_schedule, asap_length
from repro.sched.explore import (_occupancy, lower_bounds,
                                 minimal_fu_counts, schedule_graph)
from repro.sched.list_scheduler import list_schedule
from repro.sched.schedule import (Schedule, anti_predecessors,
                                  data_predecessors)

PROPERTY = settings(deadline=None, max_examples=300,
                    suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------- referees

def reference_list_schedule(graph: CDFG, spec: HardwareSpec,
                            fu_counts: Mapping[str, int],
                            target_length: Optional[int] = None,
                            label: str = "") -> Schedule:
    """Schedule *graph* on at most ``fu_counts[type]`` units of each type.

    When *target_length* is given the result is padded/validated to exactly
    that many control steps (raising :class:`ScheduleError` if the resources
    cannot meet it); otherwise the makespan becomes the schedule length.
    """
    delays = spec.delays()
    for op in graph.ops.values():
        type_name = spec.type_for_kind(op.kind).name
        if fu_counts.get(type_name, 0) < 1:
            raise ScheduleError(
                f"no {type_name!r} units provided but operation "
                f"{op.name!r} ({op.kind}) needs one")

    horizon = target_length if target_length is not None else \
        2 * max(asap_length(graph, spec), 1) + len(graph.ops)
    priority = alap_schedule(graph, spec,
                             max(horizon, asap_length(graph, spec)))

    max_delay = max(delays.values())
    max_steps = horizon + len(graph.ops) * max_delay
    busy: Dict[str, List[int]] = {
        name: [0] * (max_steps + max_delay + 2) for name in spec.fu_types}
    start: Dict[str, int] = {}
    unscheduled = set(graph.ops)
    step = 0

    def ready_at(op_name: str, when: int) -> bool:
        for pred in data_predecessors(graph, op_name):
            if pred in unscheduled:
                return False
            if when <= start[pred] + delays[graph.ops[pred].kind] - 1:
                return False
        for anti in anti_predecessors(graph, op_name):
            if anti in unscheduled:
                return False
        return True

    while unscheduled:
        if step > max_steps:
            raise ScheduleError(
                f"list scheduler on {graph.name!r} exceeded {max_steps} "
                f"steps; resources {dict(fu_counts)} look infeasible")
        # anti-dependence edges allow a loop-value producer to start in the
        # *same* step as its last consumer, so an op can become ready midway
        # through filling a step: iterate to a fixed point within the step
        progress = True
        while progress:
            progress = False
            candidates = sorted(
                (name for name in unscheduled if ready_at(name, step)),
                key=lambda n: (priority[n], n))
            for op_name in candidates:
                op = graph.ops[op_name]
                fu_type = spec.type_for_kind(op.kind)
                limit = fu_counts[fu_type.name]
                occupied = ((step,) if fu_type.pipelined
                            else tuple(range(step, step + fu_type.delay)))
                if any(busy[fu_type.name][s] >= limit for s in occupied):
                    continue
                for s in occupied:
                    busy[fu_type.name][s] += 1
                start[op_name] = step
                unscheduled.discard(op_name)
                progress = True
        step += 1

    makespan = max(start[name] + delays[graph.ops[name].kind]
                   for name in graph.ops)
    length = target_length if target_length is not None else makespan
    if makespan > length:
        raise ScheduleError(
            f"list scheduler needed {makespan} steps for {graph.name!r}, "
            f"exceeding target {length} with resources {dict(fu_counts)}")
    return Schedule(graph, spec, length, start,
                    label=label or f"{graph.name}@{length}")


def reference_minimal_fu_counts(graph: CDFG, spec: HardwareSpec,
                                length: int) -> Dict[str, int]:
    if length < asap_length(graph, spec):
        raise ScheduleError(
            f"target length {length} below critical path "
            f"{asap_length(graph, spec)} of {graph.name!r}")
    base = lower_bounds(graph, spec, length)
    type_names = sorted(base)
    caps = {name: max(base[name], _occupancy(graph, spec)[name], 1)
            for name in type_names}

    def area(counts: Mapping[str, int]) -> float:
        return sum(spec.type_named(n).area * c for n, c in counts.items())

    start = tuple(base[n] for n in type_names)
    heap: list = [(area(base), start)]
    seen = {start}
    while heap:
        _, vector = heapq.heappop(heap)
        counts = dict(zip(type_names, vector))
        try:
            reference_list_schedule(graph, spec, counts,
                                    target_length=length)
            return counts
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


# ------------------------------------------------------------ generators

KINDS = ("add", "sub", "mul")
SPECS = {"non_pipelined": HardwareSpec.non_pipelined(),
         "pipelined": HardwareSpec.pipelined()}


@st.composite
def small_cdfgs(draw):
    """Up to ten ops over adders and (multi-cycle or pipelined)
    multipliers; any result may be loop-carried, and any op may read a
    loop-carried value whatever its producer's position."""
    n_inputs = draw(st.integers(1, 3))
    n_ops = draw(st.integers(1, 10))
    # about one result in four is loop-carried
    loop = draw(st.lists(st.integers(0, 3), min_size=n_ops, max_size=n_ops))
    inputs = [f"i{k}" for k in range(n_inputs)]
    results = [f"v{k}" for k in range(n_ops)]
    carried = [name for name, mark in zip(results, loop) if mark == 0]
    builder = CDFGBuilder("prop", cyclic=bool(carried))
    for name in inputs:
        builder.input(name)
    read = set()
    for k in range(n_ops):
        pool = inputs + results[:k] + \
            [name for name in carried if name not in results[:k]]
        operands = [draw(st.sampled_from(pool)),
                    draw(st.sampled_from(pool + [0.5]))]
        read.update(operands)
        builder.op(f"o{k}", draw(st.sampled_from(KINDS)), operands,
                   results[k])
    for name in carried:
        builder.loop_value(name)
    for name in results:
        if name not in read:
            builder.output(name)
    return builder.build()


def _asap_or_size(graph, spec):
    """ASAP length, or the op count where anti-dependences cannot hold."""
    try:
        return asap_length(graph, spec)
    except ScheduleError:
        return len(graph.ops)


def outcome(schedule_fn, *args, **kwargs):
    """Length, label and start steps in placement order, or ``"error"``."""
    try:
        schedule = schedule_fn(*args, **kwargs)
    except ScheduleError:
        return "error"
    return schedule.length, schedule.label, list(schedule.start.items())


# ------------------------------------------------------------ properties

#: unit counts; a zero now and then exercises the missing-units check
UNITS = st.sampled_from((1, 2, 1, 3, 1, 2, 0))


@given(small_cdfgs(), st.sampled_from(sorted(SPECS)), UNITS, UNITS,
       st.one_of(st.none(), st.integers(-1, 4)))
@PROPERTY
def test_list_schedule_matches_reference(graph, spec_name, adders, mults,
                                         slack):
    spec = SPECS[spec_name]
    counts = {name: adders if name == "adder" else mults
              for name in spec.fu_types}
    target = None if slack is None else _asap_or_size(graph, spec) + slack
    assert outcome(list_schedule, graph, spec, counts, target) == \
        outcome(reference_list_schedule, graph, spec, counts, target)


def _reference_schedule_graph(graph, spec, length):
    counts = reference_minimal_fu_counts(graph, spec, length)
    return reference_list_schedule(graph, spec, counts, target_length=length)


def _counts_or_error(search, graph, spec, length):
    try:
        return search(graph, spec, length)
    except ScheduleError:
        return "error"


@given(small_cdfgs(), st.sampled_from(sorted(SPECS)), st.integers(-1, 3))
@settings(PROPERTY, max_examples=100)
def test_minimal_search_matches_reference(graph, spec_name, slack):
    spec = SPECS[spec_name]
    length = _asap_or_size(graph, spec) + slack
    assert _counts_or_error(minimal_fu_counts, graph, spec, length) == \
        _counts_or_error(reference_minimal_fu_counts, graph, spec, length)
    assert outcome(schedule_graph, graph, spec, length) == \
        outcome(_reference_schedule_graph, graph, spec, length)


# ------------------------------------------------------------- fail fast

def test_infeasible_attempt_stops_at_first_late_op():
    builder = CDFGBuilder("par")
    builder.input("x")
    for k in range(4):
        builder.add(f"a{k}", "x", float(k), f"y{k}")
        builder.output(f"y{k}")
    spec = HardwareSpec.non_pipelined()
    # one adder, four adds, two steps: a0, a1 fill steps 0-1 and a2 is
    # still unplaced when its latest start (step 1) ends
    with pytest.raises(ScheduleError,
                       match="'a2' .* latest start 1, exceeding target 2"):
        list_schedule(builder.build(), spec, {"adder": 1, "mult": 0},
                      target_length=2)
