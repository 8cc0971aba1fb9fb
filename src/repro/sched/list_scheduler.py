"""Resource-constrained list scheduling.

The stand-in for the SALSA scheduler [16] the paper pairs its allocator
with: a classic priority-list scheduler that honours multi-cycle and
pipelined functional units and the loop anti-dependence rule (producers of
loop-carried values never start before their next-iteration consumers).

Priority is *urgency* (ALAP start ascending, i.e. least slack first), which
for the benchmark CDFGs reproduces the canonical minimum-resource schedules
(e.g. EWF in 17 steps on 3 adders / 3 multipliers).

Everything an attempt reads that does not depend on the FU counts — each
op's data predecessors with their lag, its anti-predecessors, its FU type,
the ALAP priorities and the op order they imply — is built once per
(graph, spec, target length) in :class:`ListTables`;
:func:`repro.sched.explore.minimal_fu_counts` runs every count vector it
tries against one table build.

**Fail fast.** An attempt with a target length stops as soon as a step
ends with an op still unplaced whose ALAP start for that target was that
step, instead of placing every op and only then comparing the makespan
with the target.  It rejects exactly the attempts that would miss the
target.  Start steps only grow as the scheduler advances, so that op will
start after its ALAP start.  ALAP start is the latest start from which an
op and everything after it can still end by the target, under the
precedence rules every start the scheduler picks obeys: a data successor
starts no earlier than its predecessor's end, and a loop-carried value's
producer starts no earlier than its consumers (ALAP folds that rule in).
So an op starting after it forces the makespan past the target.
Conversely, an op that ends past the target started after its ALAP start,
so no attempt that misses the target gets through.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.errors import ScheduleError
from repro.cdfg.graph import CDFG
from repro.datapath.units import HardwareSpec
from repro.sched.asap import alap_schedule, asap_length
from repro.sched.schedule import (Schedule, anti_predecessors,
                                  data_predecessors)

#: ready step of an op whose predecessors are not all placed yet
_BLOCKED = 1 << 62


class ListTables:
    """The per-problem facts every list-scheduling attempt reads.

    Ops are indexed in priority order, (ALAP start, name); every list below
    is indexed the same way.
    """

    def __init__(self, graph: CDFG, spec: HardwareSpec,
                 target_length: Optional[int] = None) -> None:
        self.graph = graph
        self.spec = spec
        self.target_length = target_length
        delays = spec.delays()
        fu_types = {name: spec.type_for_kind(op.kind)
                    for name, op in graph.ops.items()}
        #: FU type name -> its first op in graph order (the units check)
        self.first_user: Dict[str, str] = {}
        for name, fu_type in fu_types.items():
            self.first_user.setdefault(fu_type.name, name)

        self.asap = asap_length(graph, spec)
        horizon = target_length if target_length is not None else \
            2 * max(self.asap, 1) + len(graph.ops)
        alap = alap_schedule(graph, spec, max(horizon, self.asap))
        self.names: List[str] = sorted(graph.ops,
                                       key=lambda n: (alap[n], n))
        index = {name: i for i, name in enumerate(self.names)}
        self.alap = [alap[name] for name in self.names]
        self.delay = [delays[graph.ops[name].kind] for name in self.names]
        self.fu_type = [fu_types[name].name for name in self.names]
        #: steps an op holds its unit: the issue slot if pipelined
        self.span = [1 if fu_types[name].pipelined else fu_types[name].delay
                     for name in self.names]
        #: placing op i unblocks these (a repeated operand counts twice)
        self.data_succs: List[List[int]] = [[] for _ in self.names]
        self.anti_succs: List[List[int]] = [[] for _ in self.names]
        #: unplaced data and anti-predecessors per op
        self.blockers = [0] * len(self.names)
        for i, name in enumerate(self.names):
            for pred in data_predecessors(graph, name):
                self.data_succs[index[pred]].append(i)
                self.blockers[i] += 1
            for anti in anti_predecessors(graph, name):
                self.anti_succs[index[anti]].append(i)
                self.blockers[i] += 1

        max_delay = max(delays.values())
        self.max_steps = horizon + len(graph.ops) * max_delay
        self.columns = self.max_steps + max_delay + 2

    def _attempt(self, fu_counts: Mapping[str, int]) -> Dict[str, int]:
        """Start steps (in placement order) on ``fu_counts`` units.

        Raises :class:`ScheduleError` when a used type has no units or the
        target length cannot be met.
        """
        graph = self.graph
        for type_name, op_name in self.first_user.items():
            if fu_counts.get(type_name, 0) < 1:
                raise ScheduleError(
                    f"no {type_name!r} units provided but operation "
                    f"{op_name!r} ({graph.ops[op_name].kind}) needs one")
        target = self.target_length
        if target is not None and target < self.asap:
            raise ScheduleError(
                f"{graph.name!r} needs at least {self.asap} steps (its "
                f"critical path), exceeding target {target}")

        names, alap, delay, span = self.names, self.alap, self.delay, \
            self.span
        data_succs, anti_succs = self.data_succs, self.anti_succs
        blockers = list(self.blockers)
        earliest = [0] * len(names)
        ready_step = [0 if count == 0 else _BLOCKED for count in blockers]
        busy = {name: [0] * self.columns for name in set(self.fu_type)}
        column = [busy[name] for name in self.fu_type]
        limit = [fu_counts[name] for name in self.fu_type]
        start: Dict[str, int] = {}
        waiting = list(range(len(names)))
        step = 0

        while waiting:
            if step > self.max_steps:
                raise ScheduleError(
                    f"list scheduler on {graph.name!r} exceeded "
                    f"{self.max_steps} steps; resources {dict(fu_counts)} "
                    f"look infeasible")
            # anti-dependence edges allow a loop-value producer to start in
            # the *same* step as its last consumer, so an op can become
            # ready midway through filling a step: iterate to a fixed point
            # within the step.  Candidates are collected before any of them
            # is placed.
            while True:
                candidates = [i for i in waiting if ready_step[i] <= step]
                placed = False
                for i in candidates:
                    col, end = column[i], step + span[i]
                    if max(col[step:end]) >= limit[i]:
                        continue
                    for s in range(step, end):
                        col[s] += 1
                    start[names[i]] = step
                    placed = True
                    done = step + delay[i]
                    for j in data_succs[i]:
                        if earliest[j] < done:
                            earliest[j] = done
                        blockers[j] -= 1
                        if blockers[j] == 0:
                            ready_step[j] = earliest[j]
                    for j in anti_succs[i]:
                        blockers[j] -= 1
                        if blockers[j] == 0:
                            ready_step[j] = earliest[j]
                if not placed:
                    break
                waiting = [i for i in waiting if names[i] not in start]
            if target is not None and waiting and alap[waiting[0]] <= step:
                first = waiting[0]
                raise ScheduleError(
                    f"list scheduler left {names[first]!r} of "
                    f"{graph.name!r} unplaced past its latest start "
                    f"{alap[first]}, exceeding target {target} with "
                    f"resources {dict(fu_counts)}")
            step += 1
        return start

    def schedule(self, fu_counts: Mapping[str, int],
                 label: str = "") -> Schedule:
        """One attempt, as a validated :class:`Schedule`.

        A returned attempt placed every op by its ALAP start, so its
        makespan fits the target; without a target the makespan is the
        length.
        """
        start = self._attempt(fu_counts)
        makespan = max(start[name] + delay
                       for name, delay in zip(self.names, self.delay))
        length = self.target_length if self.target_length is not None \
            else makespan
        return Schedule(self.graph, self.spec, length, start,
                        label=label or f"{self.graph.name}@{length}")


def list_schedule(graph: CDFG, spec: HardwareSpec,
                  fu_counts: Mapping[str, int],
                  target_length: Optional[int] = None,
                  label: str = "") -> Schedule:
    """Schedule *graph* on at most ``fu_counts[type]`` units of each type.

    When *target_length* is given the result is padded/validated to exactly
    that many control steps (raising :class:`ScheduleError` if the resources
    cannot meet it); otherwise the makespan becomes the schedule length.
    """
    return ListTables(graph, spec, target_length).schedule(fu_counts, label)
