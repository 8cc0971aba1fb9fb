"""Span recorder, self-time arithmetic and percentile helper."""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import spans as sp  # noqa: E402


def test_percentile_needs_ten_samples_beyond():
    assert sp.percentile(list(range(99)), 90) is None
    assert sp.percentile(list(range(100)), 90) == 89
    assert sp.percentile(list(range(19)), 50) is None
    assert sp.percentile(list(range(20)), 50) == 9
    assert sp.percentile([], 50) is None
    assert sp.percentile(list(range(999)), 99) is None
    assert sp.percentile(list(range(1000)), 99) == 989


def test_percentile_with_ten_beyond_is_reported_for_any_n():
    for n in range(1, 400):
        values = [float(v) for v in range(n)]
        for q in (50, 90, 99):
            reported = sp.percentile(values, q)
            if reported is None:
                continue
            assert sum(1 for v in values if v > reported) >= 10


def test_min_samples_for():
    assert sp.min_samples_for(90) == 100
    assert sp.min_samples_for(50) == 20
    assert sp.min_samples_for(99) == 1000


def test_self_time_of_nested_spans():
    # root [0, 100] with children [10, 30] and [20, 50] (overlapping) and
    # [60, 70]; the first child has a grandchild [12, 18]
    spans = [
        ["root", 0, 100, -1, "r"],
        ["a", 10, 30, 0, "r"],
        ["b", 20, 50, 0, "r"],
        ["c", 60, 70, 0, "r"],
        ["a.x", 12, 18, 1, "r"],
    ]
    assert sp.self_times(spans) == [100 - 50, 20 - 6, 30, 10, 6]
    assert sorted(sp.descendants(spans, 0)) == [1, 2, 3, 4]


def test_child_outside_parent_is_clipped():
    spans = [["root", 10, 20, -1, None], ["late", 15, 40, 0, None]]
    assert sp.self_times(spans)[0] == 5


def test_tracer_nests_and_inherits_request_id():
    tracer = sp.Tracer()
    with tracer.span("outer", "req-1"):
        with tracer.span("inner"):
            pass
    with tracer.span("other"):
        pass
    outer, inner, other = tracer.export()
    assert inner[sp.PARENT] == 0 and inner[sp.REQUEST] == "req-1"
    assert other[sp.PARENT] == -1 and other[sp.REQUEST] is None
    assert outer[sp.START] <= inner[sp.START] <= inner[sp.END] \
        <= outer[sp.END]


def test_patch_and_unpatch_module_and_class():
    module = types.ModuleType("fake")
    module.work = lambda x: x + 1

    class Thing:
        def method(self, x):
            return module.work(x) * 2

    tracer = sp.Tracer()
    original_work = module.work
    original_method = Thing.__dict__["method"]
    tracer.patch(module, "work", "layer.work")
    tracer.patch(Thing, "method", "layer.method")
    assert Thing().method(1) == 4
    names = [record[sp.NAME] for record in tracer.export()]
    assert names == ["layer.method", "layer.work"]
    assert tracer.export()[1][sp.PARENT] == 0
    tracer.unpatch()
    assert module.work is original_work
    assert Thing.__dict__["method"] is original_method
