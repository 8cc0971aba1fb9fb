"""Scenario zoo: determinism, validity, goldens, CLI, and integrations."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.bench.__main__ import _parse_scenario, main as bench_main
from repro.bench.runner import (check_rows, load_golden, render_table,
                                results_document, run_scenario,
                                write_results)
from repro.bench.zoo import FAMILIES, Scenario, default_suite, \
    scenario_for_fuzz
from repro.cdfg.validate import validate_cdfg
from repro.core import ImproveConfig
from repro.io.json_io import cdfg_to_dict

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "..",
                      "results", "bench_zoo.json")

#: one small parameter point per family, for fast golden-style checks
SMALL = {
    "fft": {"points": 4},
    "fir": {"taps": 4},
    "iir": {"sections": 1},
    "lattice": {"order": 2},
    "loopy": {"chains": 2, "depth": 2},
    "branchy": {"diamonds": 2},
    "multiprec": {"words": 2},
    "longlife": {"width": 2, "stretch": 3},
    "fanout": {"readers": 4},
}

TINY = ImproveConfig(max_trials=1, moves_per_trial=60)


def _encode(graph) -> str:
    return json.dumps(cdfg_to_dict(graph), sort_keys=True)


# ------------------------------------------------------------ the generators

@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_builds_and_validates_at_small_size(family):
    scenario = Scenario.make(family, seed=3, **SMALL[family])
    graph = scenario.build()
    validate_cdfg(graph)
    assert len(graph) >= 5
    # every op kind must be executable on the family's hardware spec
    spec = scenario.spec()
    for op in graph.ops.values():
        assert spec.type_for_kind(op.kind) is not None


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_deterministic_for_equal_triples(family):
    first = Scenario.make(family, seed=11).build()
    second = Scenario.make(family, seed=11).build()
    assert _encode(first) == _encode(second)


def test_seed_varies_coefficients_but_not_structure():
    base = Scenario.make("fir", seed=0).build()
    other = Scenario.make("fir", seed=1).build()
    assert _encode(base) != _encode(other)
    assert len(base) == len(other)
    assert sorted(base.ops) == sorted(other.ops)


def test_lattice_default_is_the_fifth_order_elliptic_target():
    scenario = Scenario.make("lattice")
    assert scenario.params_dict == {"order": 5}
    graph = scenario.build()
    # 5 loop-carried lattice states (the z^-1 registers of the filter)
    states = [v for v in graph.values.values() if v.loop_carried]
    assert len(states) == 5


def test_scenario_names_round_trip_through_the_cli_parser():
    for scenario in default_suite(seed=2):
        assert _parse_scenario(scenario.name) == scenario


def test_unknown_family_and_parameter_are_rejected():
    with pytest.raises(ValueError):
        Scenario.make("nonesuch")
    with pytest.raises(ValueError):
        Scenario.make("fft", bogus=1)


def test_scenario_for_fuzz_clamps_sizes():
    tiny = scenario_for_fuzz("lattice", 1, seed=0)
    assert tiny.params_dict["order"] >= 2
    big = scenario_for_fuzz("fft", 10_000, seed=0)
    assert big.params_dict["points"] == 16
    tiny.build()
    big.build()


# ------------------------------------------------------- runner and goldens

@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_small_scenario_pipeline_is_deterministic(family):
    scenario = Scenario.make(family, seed=5, **SMALL[family])
    first = run_scenario(scenario, budget=TINY, restarts=1)
    second = run_scenario(scenario, budget=TINY, restarts=1)
    assert first.cost_total == second.cost_total
    assert first.mux_count == second.mux_count
    assert first.checker_violations == 0
    assert first.cost_total > 0
    assert first.moves > 0


def test_committed_golden_spot_check():
    """The two cheapest committed scenarios reproduce exactly."""
    golden = load_golden(GOLDEN)
    for name in ("fanout-readers12-s0", "loopy-chains4-depth3-s0"):
        want = golden["rows"][name]
        row = run_scenario(_parse_scenario(name))
        assert row.mux_count == want["mux_count"]
        assert abs(row.cost_total - want["cost_total"]) < 1e-9
        assert row.ops == want["ops"]
        assert row.csteps == want["csteps"]


def test_check_rows_flags_drift_and_missing():
    scenario = Scenario.make("loopy", seed=5, **SMALL["loopy"])
    row = run_scenario(scenario, budget=TINY, restarts=1)
    document = results_document([row], "fast", 1, "list")
    assert check_rows([row], document) == []

    tampered = json.loads(json.dumps(document))
    tampered["rows"][row.scenario]["mux_count"] += 1
    tampered["rows"][row.scenario]["cost_total"] += 0.5
    problems = check_rows([row], tampered)
    assert any("mux_count" in p for p in problems)
    assert any("cost_total" in p for p in problems)

    assert any("missing" in p for p in check_rows([], document))
    assert any("not in golden" in p
               for p in check_rows([row], {"rows": {}}))


def test_render_table_has_all_scenarios():
    scenario = Scenario.make("fanout", seed=5, **SMALL["fanout"])
    row = run_scenario(scenario, budget=TINY, restarts=1)
    table = render_table([row])
    assert row.scenario in table
    assert "moves/s" in table


# -------------------------------------------------------------------- the CLI

def test_cli_list(capsys):
    assert bench_main(["--list"]) == 0
    out = capsys.readouterr().out
    for family in FAMILIES:
        assert family in out


def test_cli_sweep_writes_json(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    assert bench_main(["--scenarios", "loopy-chains2-depth2-s1",
                       "--restarts", "1", "--json", str(path)]) == 0
    report = json.loads(path.read_text())
    assert list(report["rows"]) == ["loopy-chains2-depth2-s1"]
    assert report["rows"]["loopy-chains2-depth2-s1"]["cost_total"] > 0
    assert "loopy-chains2-depth2-s1" in capsys.readouterr().out


def test_cli_check_passes_and_fails(tmp_path, capsys):
    scenario = Scenario.make("fanout", seed=4, **SMALL["fanout"])
    row = run_scenario(scenario, budget=ImproveConfig(
        max_trials=2, moves_per_trial=300), restarts=2)
    golden_path = tmp_path / "golden.json"
    write_results(results_document([row], "fast", 2, "list"),
                  str(golden_path))
    assert bench_main(["--check", "--golden", str(golden_path)]) == 0
    capsys.readouterr()

    tampered = json.loads(golden_path.read_text())
    tampered["rows"][row.scenario]["cost_total"] += 1.0
    golden_path.write_text(json.dumps(tampered))
    assert bench_main(["--check", "--golden", str(golden_path)]) == 1
    assert "cost_total" in capsys.readouterr().err

    # budget metadata mismatch is a usage error, not a quality failure
    assert bench_main(["--check", "--golden", str(golden_path),
                       "--restarts", "1"]) == 2


def test_cli_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit):
        bench_main(["--families", "nonesuch"])


# ------------------------------------------------------------ fuzz integration

def test_fuzzcase_from_dict_accepts_legacy_reproducers():
    from repro.verify.fuzz import FuzzCase

    legacy = {
        "index": 1, "seed": 2, "n_ops": 8, "n_inputs": 2,
        "const_fraction": 0.1, "loop_fraction": 0.0, "scheduler": "list",
        "length_slack": 1, "extra_registers": 1, "restarts": 1,
        "max_trials": 2, "moves_per_trial": 60, "uphill": 2,
        "iterations": 2,
    }  # written before the `family` field existed
    case = FuzzCase.from_dict(legacy)
    assert case.family == ""
    assert FuzzCase.from_dict(case.to_dict()) == case


def test_sample_case_draws_zoo_families():
    from repro.rng import SeedStream
    from repro.verify.fuzz import FuzzConfig, sample_case

    stream = SeedStream(3)
    config = FuzzConfig(zoo_fraction=1.0)
    families = {sample_case(stream, index, config).family
                for index in range(12)}
    assert families <= set(FAMILIES)
    assert len(families) >= 3

    none_config = FuzzConfig(zoo_fraction=0.0)
    assert all(sample_case(stream, index, none_config).family == ""
               for index in range(6))


def test_build_problem_zoo_case_uses_family_spec():
    from repro.rng import SeedStream
    from repro.verify.fuzz import FuzzConfig, build_problem, sample_case

    case = sample_case(SeedStream(3), 0, FuzzConfig(zoo_fraction=0.0))
    zoo_case = dataclasses.replace(case, family="multiprec", n_ops=14)
    graph, schedule = build_problem(zoo_case)
    kinds = {op.kind for op in graph.ops.values()}
    assert {"and", "xor"} <= kinds
    assert "alu" in schedule.spec.fu_types


def test_run_case_zoo_family_end_to_end():
    from repro.verify.fuzz import FuzzCase, run_case

    case = FuzzCase(
        index=0, seed=9, n_ops=14, n_inputs=1, const_fraction=0.0,
        loop_fraction=0.0, scheduler="list", length_slack=1,
        extra_registers=1, restarts=1, max_trials=1, moves_per_trial=40,
        uphill=2, iterations=2, family="lattice")
    assert run_case(case) is None


# --------------------------------------------------------- loadgen integration

def test_zoo_requests_embed_distinct_graphs():
    from repro.service.loadgen import zoo_requests

    pool = zoo_requests(8, seed_base=1)
    assert len(pool) == 8
    for body in pool:
        assert body["cdfg"]["type"] == "cdfg"
        assert body["spec"]["fu_types"]
    # deterministic pool, with deliberate verbatim repeats for the cache
    assert pool == zoo_requests(8, seed_base=1)
    encoded = [json.dumps(body, sort_keys=True) for body in pool]
    assert len(set(encoded)) < len(encoded)
