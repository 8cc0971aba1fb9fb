"""Parallel restart engine: speedup and result-equivalence vs. serial.

The restarts of `SalsaAllocator` are independent searches, so fanning them
out over processes must change *nothing* but wall-clock time.  This bench
verifies both halves of that contract on the EWF:

* equivalence — best cost and winning binding state are bit-identical for
  ``workers=1`` and ``workers=4``;
* speedup — wall-clock improves with workers (asserted at >= 2x for 4
  workers when the machine actually has >= 4 CPUs; on smaller boxes the
  ratio is still reported).

It also exports the full search telemetry of the serial run as JSON
(``results/out/parallel_restarts_stats.json``) and checks the telemetry
invariant that per-move accept + rollback counters partition the applied
moves.
"""

import json
import os
import time

from conftest import FAST, RESULTS_DIR, publish

from repro.analysis import ExperimentTable
from repro.analysis.stats import telemetry_report
from repro.bench import elliptic_wave_filter
from repro.datapath.units import HardwareSpec
from repro.io import stats_to_json
from repro.sched import schedule_graph
from repro.core import ImproveConfig, SalsaAllocator


def _wall(allocator, graph, schedule, workers):
    started = time.perf_counter()
    result = allocator.allocate(graph, schedule=schedule, workers=workers)
    return result, time.perf_counter() - started


def test_parallel_restarts(capsys):
    graph = elliptic_wave_filter()
    schedule = schedule_graph(graph, HardwareSpec.non_pipelined(), 19)
    restarts = 4 if FAST else 8
    config = ImproveConfig(max_trials=3 if FAST else 8,
                           moves_per_trial=200 if FAST else 600)
    allocator = SalsaAllocator(seed=7, restarts=restarts, config=config)

    serial, serial_seconds = _wall(allocator, graph, schedule, workers=1)
    rows = [["1", f"{serial_seconds:.2f}", "1.00",
             f"{serial.cost.total:.2f}", "reference"]]
    for workers in (2, 4):
        result, seconds = _wall(allocator, graph, schedule, workers)
        identical = (result.cost == serial.cost
                     and result.best_restart == serial.best_restart
                     and result.binding.clone_state()
                     == serial.binding.clone_state())
        assert identical, f"workers={workers} diverged from serial"
        rows.append([str(workers), f"{seconds:.2f}",
                     f"{serial_seconds / seconds:.2f}",
                     f"{result.cost.total:.2f}", "bit-identical"])
        if workers == 4 and (os.cpu_count() or 1) >= 4:
            assert serial_seconds / seconds >= 2.0, \
                f"expected >= 2x speedup at 4 workers, got " \
                f"{serial_seconds / seconds:.2f}x"

    table = ExperimentTable(
        name=f"Parallel restarts — EWF @ 19 csteps, {restarts} restarts",
        headers=["workers", "seconds", "speedup", "best cost", "result"])
    table.rows = rows
    table.notes.append(
        f"host has {os.cpu_count() or 1} CPU(s); the >= 2x assertion at 4 "
        "workers only applies on >= 4-CPU machines")
    publish(table, "parallel_restarts.txt", capsys)

    # search telemetry export + invariant check
    for stats in serial.stats:
        accepts = sum(c.accepts for c in stats.per_move.values())
        rollbacks = sum(c.rollbacks for c in stats.per_move.values())
        assert accepts + rollbacks == stats.moves_applied
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stats_path = os.path.join(RESULTS_DIR, "parallel_restarts_stats.json")
    with open(stats_path, "w") as fh:
        fh.write(stats_to_json(serial.stats))
    report_path = os.path.join(RESULTS_DIR, "parallel_restarts_report.json")
    with open(report_path, "w") as fh:
        json.dump(telemetry_report(serial.stats), fh, indent=2,
                  sort_keys=True)
