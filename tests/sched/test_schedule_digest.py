"""Pinned scheduling outputs: every schedule, FU count and error outcome.

Each problem is scheduled through the public entry points and reduced to
``(length, label, sorted start)`` on success or an error marker on
:class:`ScheduleError`; a sha256 over all of them is compared with a value
generated before the list scheduler was rewritten around precomputed
tables.  The FU-count minima of the same problems are pinned the same way.

Print fresh digests to pin (only when scheduling is meant to change)::

    PYTHONPATH=src python tests/sched/test_schedule_digest.py
"""

import hashlib
import json

from repro.bench import discrete_cosine_transform, elliptic_wave_filter
from repro.bench.zoo import FAMILIES, Scenario
from repro.datapath.units import HardwareSpec
from repro.errors import ScheduleError
from repro.sched.asap import asap_length
from repro.sched.explore import minimal_fu_counts, schedule_graph
from repro.sched.list_scheduler import list_schedule

ZOO_SEEDS = (0, 1, 2)
#: steps over the critical path tried beside each family's own slack
EXTRA_SLACKS = (1, 2, 4)
#: EWF/DCT lengths: ASAP .. ASAP + 11
BENCH_SLACKS = tuple(range(12))

SCHEDULE_DIGEST = \
    "54f988fbb08e1069ec964a59bf382607bb6cac37233a68dbf7910d37b098d0b4"
FU_COUNT_DIGEST = \
    "2c5eb5cf9278757e6e9fa9f99e85f1eeb036487d973554b0dbb694889e0c7ab0"


def problems():
    """``(name, graph, spec, length)``; a ``None`` length is the default."""
    cases = []
    for family in sorted(FAMILIES, key=lambda n: FAMILIES[n].fid):
        for seed in ZOO_SEEDS:
            scenario = Scenario.make(family, seed=seed)
            graph, spec = scenario.build(), scenario.spec()
            asap = asap_length(graph, spec)
            lengths = [asap + scenario.definition.length_slack, None]
            lengths += [asap + extra for extra in EXTRA_SLACKS]
            cases += [(scenario.name, graph, spec, length)
                      for length in lengths]
    for graph in (elliptic_wave_filter(), discrete_cosine_transform()):
        for spec_name in ("non_pipelined", "pipelined"):
            spec = getattr(HardwareSpec, spec_name)()
            asap = asap_length(graph, spec)
            cases += [(f"{graph.name}-{spec_name}", graph, spec,
                       asap + extra) for extra in BENCH_SLACKS]
    return cases


def _schedule_record(schedule):
    return [schedule.length, schedule.label, sorted(schedule.start.items())]


def _attempt(graph, spec, counts, target):
    try:
        return _schedule_record(list_schedule(graph, spec, counts, target))
    except ScheduleError:
        return "error"


def schedule_records():
    """Per problem: the default schedule, then list schedules on its FU
    counts with no target (the makespan path) and with a target one step
    shorter (mostly infeasible, so it pins error outcomes too)."""
    records = []
    for name, graph, spec, length in problems():
        try:
            schedule = schedule_graph(graph, spec, length)
        except ScheduleError:
            records.append([name, length, "error"])
            continue
        counts = schedule.min_fus()
        records.append([name, length, _schedule_record(schedule),
                        _attempt(graph, spec, counts, None),
                        _attempt(graph, spec, counts, schedule.length - 1)])
    return records


def fu_count_records():
    records = []
    for name, graph, spec, length in problems():
        target = asap_length(graph, spec) if length is None else length
        try:
            counts = sorted(minimal_fu_counts(graph, spec, target).items())
        except ScheduleError:
            counts = "error"
        records.append([name, target, counts])
    return records


def digest(records):
    blob = json.dumps(records, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def test_schedules_match_pinned_digest():
    assert digest(schedule_records()) == SCHEDULE_DIGEST


def test_minimal_fu_counts_match_pinned_digest():
    assert digest(fu_count_records()) == FU_COUNT_DIGEST


if __name__ == "__main__":
    print(f"SCHEDULE_DIGEST = {digest(schedule_records())!r}")
    print(f"FU_COUNT_DIGEST = {digest(fu_count_records())!r}")
