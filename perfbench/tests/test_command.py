"""Seconds-long smokes of the command, and BENCHMARK.json consistency.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

RUN = os.path.join(BENCH, "run.py")


def _run(*args, cwd=ROOT, timeout=180):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_smoke(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert [name for name, _u, _b in run.END_TO_END] == \
        list(result["metrics"])
    for name, unit, _better in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
    assert not os.path.exists(os.path.join(BENCH, "_work"))


@pytest.mark.parametrize("workload", ("zoo-pipeline", "service-hit"))
def test_traced_smoke(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = _result(proc)
    assert [name for name, _u, _b in run.PER_LAYER] == \
        list(result["metrics"])
    assert "attribution:" in proc.stdout
    assert "tracing overhead" in proc.stdout
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    if workload == "service-hit":
        assert metrics["service.cache_hit_ratio"] == 1.0
        assert metrics["server.transport_ms"] > 0
    else:
        assert metrics["core.polish_share"] > 0
        assert metrics["attrib.covered_share"] > 0.9


def test_same_seed_same_quality():
    first = _result(_run("--workload", "search-hotloop", "--seed", "9",
                         "--seconds", "0", "--quick"))
    again = _result(_run("--workload", "search-hotloop", "--seed", "9",
                         "--seconds", "0", "--quick"))
    assert first["metrics"]["quality_cost_sum"] == \
        again["metrics"]["quality_cost_sum"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zoo-pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_command():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    # service-hit stays runnable but is not gated (README, "Measured
    # spread")
    assert [w["name"] for w in spec["workloads"]] == \
        ["zoo-pipeline", "search-hotloop", "service-miss"]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
