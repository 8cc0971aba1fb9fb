"""Workload inputs are a pure function of the seed."""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from repro.io.json_io import canonical_dumps, cdfg_to_dict  # noqa: E402


def _round_bytes(seed, index):
    return [canonical_dumps(cdfg_to_dict(scenario.build()))
            for scenario in workloads.zoo_round(seed, index)]


def test_zoo_rounds_repeat_per_seed_and_differ_across_seeds():
    assert _round_bytes(7, 0) == _round_bytes(7, 0)
    assert _round_bytes(7, 1) == _round_bytes(7, 1)
    assert _round_bytes(7, 0) != _round_bytes(8, 0)
    assert _round_bytes(7, 0) != _round_bytes(7, 1)
    families = [s.family for s in workloads.zoo_round(7, 0)]
    assert tuple(families) == workloads.FAMILY_ORDER == run.FAMILIES


def test_quick_round_is_a_subset_of_the_full_round():
    full = {s.family: s for s in workloads.zoo_round(3, 2)}
    for scenario in workloads.zoo_round(3, 2, workloads.QUICK.families):
        assert full[scenario.family] == scenario


def test_request_bodies_repeat_per_seed():
    for stream in (workloads._MISS, workloads._HIT):
        first = [workloads.encode_body(workloads.service_body(5, stream, i))
                 for i in range(len(workloads.FAMILY_ORDER) + 2)]
        again = [workloads.encode_body(workloads.service_body(5, stream, i))
                 for i in range(len(workloads.FAMILY_ORDER) + 2)]
        other = [workloads.encode_body(workloads.service_body(6, stream, i))
                 for i in range(len(workloads.FAMILY_ORDER) + 2)]
        assert first == again
        assert all(a != b for a, b in zip(first, other))
        assert len(set(first)) == len(first)


def test_bodies_cycle_families_in_a_fixed_order():
    count = len(workloads.FAMILY_ORDER)
    names = [json.loads(workloads.encode_body(
        workloads.service_body(1, workloads._MISS, index)))["cdfg"]["name"]
        for index in range(2 * count)]
    assert len(set(names[:count])) == count
    assert names[:count] == names[count:]


def test_hotloop_problems_repeat_per_seed():
    first = workloads.hotloop_problems(4)
    again = workloads.hotloop_problems(4)
    assert [p.name for p in first] == ["ewf", "dct", "fir", "fanout"]
    for a, b in zip(first, again):
        assert a.schedule.start == b.schedule.start
        assert [f.name for f in a.fus] == [f.name for f in b.fus]
    assert workloads.hotloop_config(4, 3).seed == \
        workloads.hotloop_config(4, 3).seed
    assert workloads.hotloop_config(4, 3).seed != \
        workloads.hotloop_config(4, 4).seed
