"""``benchmarks/perf_gate.py``: a perfbench run against its reference."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
GATE = os.path.join(ROOT, "benchmarks", "perf_gate.py")


def reference_path(name):
    return os.path.join(ROOT, "results", name)


def gate(tmp_path, reference, metric, factor, failed=0):
    """Exit code of the gate on the reference line with *metric* scaled
    by *factor*, written below a table as perfbench prints it."""
    with open(reference_path(reference), encoding="utf-8") as handle:
        result = json.loads(handle.read())
    result["metrics"][metric]["value"] *= factor
    result["failed"] = failed
    result["correct"] = failed == 0
    run = tmp_path / "run.txt"
    run.write_text("search-hotloop: seed 0, ...\n" + json.dumps(result)
                   + "\n")
    return subprocess.run(
        [sys.executable, GATE, str(run), reference_path(reference)],
        capture_output=True, text=True).returncode


@pytest.mark.parametrize("reference,metric", [
    ("perf_search_hotloop.json", "moves_per_s"),
    ("perf_zoo_pipeline.json", "allocs_per_s"),
])
def test_throughput_may_fall_by_the_benchmark_bound(tmp_path, reference,
                                                    metric):
    assert gate(tmp_path, reference, metric, 1.0) == 0
    assert gate(tmp_path, reference, metric, 0.76) == 0
    # 30% below the reference: the bound is 25%
    assert gate(tmp_path, reference, metric, 0.70) == 1


def test_restore_may_rise_to_three_times_the_reference(tmp_path):
    reference = "perf_search_hotloop_traced.json"
    assert gate(tmp_path, reference, "core.restore_us", 2.9) == 0
    assert gate(tmp_path, reference, "core.restore_us", 3.1) == 1


def test_a_failed_operation_fails_the_gate(tmp_path):
    assert gate(tmp_path, "perf_search_hotloop.json", "moves_per_s", 1.0,
                failed=1) == 1


def test_an_unknown_reference_is_a_usage_error(tmp_path):
    run = tmp_path / "run.txt"
    run.write_text("{}\n")
    assert subprocess.run([sys.executable, GATE, str(run), str(run)],
                          capture_output=True).returncode == 2
