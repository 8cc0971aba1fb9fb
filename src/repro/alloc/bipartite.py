"""Weighted-bipartite-matching functional-unit binding (Huang et al. 1990).

Processes control steps in order; at each step the operations issuing
there are matched to the functional units of their type by minimum-cost
bipartite assignment, where the cost of putting operation *o* on unit *f*
is the number of **new** register-to-FU-input connections that binding
would create given the (monolithic) register assignment and everything
bound so far.  This reproduces the flavour of "Data Path Allocation Based
on Bipartite Weighted Matching" (paper reference [13]), one of the exact
traditional-model approaches the introduction contrasts against.

Uses :func:`scipy.optimize.linear_sum_assignment` for the matching.
numpy and scipy are imported on the first call, not with this module:
nothing else in the package needs them, and loading them costs most of
``import repro``'s time and memory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import AllocationError
from repro.datapath.units import FU
from repro.sched.schedule import Schedule


def bipartite_fu_binding(schedule: Schedule, fus: Sequence[FU],
                         value_reg: Dict[str, str]) -> Dict[str, str]:
    """Bind every operation to an FU by per-step min-cost matching.

    *value_reg* is a monolithic value -> register map (e.g. from
    :func:`repro.alloc.leftedge.left_edge`); the matching cost counts new
    (register, FU input port) pairs.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    graph = schedule.graph
    by_type: Dict[str, List[FU]] = {}
    for fu in fus:
        by_type.setdefault(fu.type_name, []).append(fu)

    #: connections built so far: set of (reg, fu, port)
    existing: set = set()
    busy: Dict[Tuple[str, int], str] = {}
    op_fu: Dict[str, str] = {}

    def busy_steps(op_name: str) -> Tuple[int, ...]:
        return schedule.busy_steps(op_name)

    def edge_cost(op_name: str, fu: FU) -> float:
        cost = 0.0
        op = graph.ops[op_name]
        for port, ref in op.value_operands():
            reg = value_reg.get(ref.name)
            if reg is None:
                continue
            if (reg, fu.name, port) not in existing:
                cost += 1.0
        return cost

    for step in range(schedule.length):
        ops_here = sorted(op for op in graph.ops
                          if schedule.start[op] == step)
        by_kind_type: Dict[str, List[str]] = {}
        for op_name in ops_here:
            tname = schedule.spec.type_for_kind(
                graph.ops[op_name].kind).name
            by_kind_type.setdefault(tname, []).append(op_name)
        for tname, ops in by_kind_type.items():
            units = [fu for fu in by_type.get(tname, [])
                     if all((fu.name, s) not in busy
                            for s in range(step, step + 1))]
            # a unit is eligible only if free over the op's busy window
            matrix = np.full((len(ops), len(units)), 1e6)
            for i, op_name in enumerate(ops):
                for j, fu in enumerate(units):
                    if any((fu.name, s) in busy
                           for s in busy_steps(op_name)):
                        continue
                    matrix[i, j] = edge_cost(op_name, fu)
            if len(units) < len(ops):
                raise AllocationError(
                    f"step {step}: {len(ops)} {tname!r} operations but "
                    f"only {len(units)} free units")
            rows, cols = linear_sum_assignment(matrix)
            for i, j in zip(rows, cols):
                if matrix[i, j] >= 1e6:
                    raise AllocationError(
                        f"no feasible {tname!r} unit for {ops[i]!r} at "
                        f"step {step}")
                op_name, fu = ops[i], units[j]
                op_fu[op_name] = fu.name
                for s in busy_steps(op_name):
                    busy[(fu.name, s)] = op_name
                op = graph.ops[op_name]
                for port, ref in op.value_operands():
                    reg = value_reg.get(ref.name)
                    if reg is not None:
                        existing.add((reg, fu.name, port))
    return op_fu
