"""The calibration passes that the timing metrics are scaled by.

Timings are divided by a slowdown read from ``workloads.calibration_ms``.
If the pass paid for collecting objects the program leaves behind, a
change that grows the heap would slow the pass and hide part of its own
regression.
"""

import gc
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def _live_heap(size):
    """Tracked containers kept alive, plus unreachable reference cycles
    the collector has not reclaimed yet."""
    live = [[index] for index in range(size)]
    gc.disable()
    for _ in range(size // 4):
        cycle = []
        cycle.append(cycle)
    gc.enable()
    return live


def test_pass_runs_no_collection_and_restores_the_collector():
    collections = []

    def note(phase, _info):
        collections.append(phase)

    heap = _live_heap(100_000)
    threshold = gc.get_threshold()
    gc.set_threshold(10, 1, 1)  # collect at the slightest allocation
    gc.callbacks.append(note)
    try:
        workloads.calibration_ms()
        assert collections == []
        assert gc.isenabled()
    finally:
        gc.callbacks.remove(note)
        gc.set_threshold(*threshold)
    del heap
    gc.disable()
    try:
        workloads.calibration_ms()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_median_pass_is_the_same_with_a_large_live_heap():
    def median_pass():
        return statistics.median(workloads.calibration_ms()
                                 for _ in range(15))

    # interleaved, so that a change in the host's speed hits both sides
    empty, loaded = [], []
    for _ in range(5):
        empty.append(median_pass())
        heap = _live_heap(400_000)
        loaded.append(median_pass())
        del heap
        gc.collect()
    ratio = statistics.median(loaded) / statistics.median(empty)
    assert 0.85 < ratio < 1.15, (empty, loaded)


def test_each_op_takes_the_passes_around_it():
    m = workloads.Measurement("search-hotloop",
                              ops=[workloads.Op("a", 10.0),
                                   workloads.Op("b", 10.0)],
                              calibration=[2.0, 8.0])
    workloads.attach_slowdowns(m)
    assert len(m.calibration) == 3
    assert m.ops[0].slowdown == 4.0 / workloads.CAL_REF_MS
    assert m.ops[1].slowdown > 0


def test_host_slowdown_reads_every_cpu_and_restores_the_affinity():
    cpus = os.sched_getaffinity(0)
    assert workloads.host_slowdown() > 0
    assert os.sched_getaffinity(0) == cpus
