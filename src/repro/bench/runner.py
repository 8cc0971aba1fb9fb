"""Run zoo scenarios through schedule → SALSA binding → checker.

One :func:`run_scenario` call is the whole pipeline for one scenario:
build the CDFG, schedule it against the family's hardware spec, allocate
with the extended binding model, then re-verify the winning binding with
the independent legality checker.  The result row carries the
*quality* numbers only (mux count, weighted cost, analyzed clock period —
deterministic for a given scenario triple and budget, which is what the
committed goldens pin).  Throughput is perfbench's to measure: its
``zoo-pipeline`` workload times these same nine families.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.alloc.checker import check_binding
from repro.core import AllocationResult, ImproveConfig, SalsaAllocator
from repro.rng import SeedStream
from repro.sched.asap import asap_length
from repro.sched.explore import schedule_graph
from repro.bench.zoo import Scenario

#: search budget for sweeps: small enough that the full suite runs in CI,
#: large enough that the extended moves (splits, passthroughs) engage
FAST_BUDGET = ImproveConfig(max_trials=2, moves_per_trial=300)

#: budget for overnight quality runs (allocator defaults)
FULL_BUDGET = ImproveConfig()

BUDGETS: Dict[str, ImproveConfig] = {"fast": FAST_BUDGET,
                                     "full": FULL_BUDGET}

#: committed golden results live here (regenerate with --write-golden)
GOLDEN_PATH = os.path.join("results", "bench_zoo.json")


@dataclass
class ScenarioRow:
    """One scenario's trip through the pipeline."""

    scenario: str
    family: str
    ops: int
    csteps: int
    fus: int
    registers: int
    mux_count: int
    cost_total: float
    checker_violations: int
    #: filled by a ``--timing`` sweep (None otherwise, omitted from dicts
    #: so pre-timing goldens and reports keep their exact shape)
    clock_period_ns: Optional[float] = None
    mux_depth_max: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["cost_total"] = round(self.cost_total, 6)
        if self.clock_period_ns is None:
            del data["clock_period_ns"]
            del data["mux_depth_max"]
        else:
            data["clock_period_ns"] = round(self.clock_period_ns, 6)
        return data


def allocate_scenario(scenario: Scenario,
                      budget: Optional[ImproveConfig] = None,
                      restarts: int = 2,
                      method: str = "list") -> AllocationResult:
    """Build, schedule and allocate one scenario deterministically.

    The schedule is the family's ASAP length plus its slack, the register
    budget the schedule's minimum plus the family's extra registers, and
    the allocator seed a child of the scenario seed.  *budget* defaults
    to :data:`FAST_BUDGET`.
    """
    graph = scenario.build()
    spec = scenario.spec()
    definition = scenario.definition
    length = asap_length(graph, spec) + definition.length_slack
    schedule = schedule_graph(graph, spec, length=length, method=method,
                              label=scenario.name)
    allocator = SalsaAllocator(
        seed=SeedStream(scenario.seed).child(definition.fid, 0xB),
        restarts=restarts, config=budget or FAST_BUDGET)
    return allocator.allocate(
        graph, schedule=schedule, spec=spec,
        registers=schedule.min_registers() + definition.extra_registers)


def run_scenario(scenario: Scenario,
                 budget: ImproveConfig = FAST_BUDGET,
                 restarts: int = 2,
                 method: str = "list",
                 timing: bool = False) -> ScenarioRow:
    """Build, schedule, allocate and re-check one scenario.

    With *timing*, the winning binding's netlist additionally goes through
    the static timing analyzer (:mod:`repro.timing.sta`) and the row gains
    deterministic ``clock_period_ns`` / ``mux_depth_max`` columns.
    """
    result = allocate_scenario(scenario, budget, restarts, method)
    # allocate() already asserts legality; run the checker once more so a
    # sweep explicitly exercises the verification stage per scenario
    violations = check_binding(result.binding)
    clock_period_ns: Optional[float] = None
    mux_depth_max: Optional[int] = None
    if timing:
        # deferred: repro.timing.rtlcheck imports back into repro.bench
        from repro.timing.sta import analyze_binding
        report = analyze_binding(result.binding)
        clock_period_ns = report.clock_period_ns
        mux_depth_max = report.mux_depth_max
    return ScenarioRow(
        scenario=scenario.name,
        family=scenario.family,
        ops=len(result.schedule.graph),
        csteps=result.schedule.length,
        fus=len(result.binding.fus),
        registers=len(result.binding.regs),
        mux_count=result.cost.mux_count,
        cost_total=result.cost.total,
        checker_violations=len(violations),
        clock_period_ns=clock_period_ns,
        mux_depth_max=mux_depth_max,
    )


def run_suite(scenarios: Iterable[Scenario],
              budget: ImproveConfig = FAST_BUDGET,
              restarts: int = 2,
              method: str = "list",
              timing: bool = False) -> List[ScenarioRow]:
    return [run_scenario(scenario, budget=budget, restarts=restarts,
                         method=method, timing=timing)
            for scenario in scenarios]


# ---------------------------------------------------------------- reporting

_COLUMNS: Sequence[Tuple[str, str]] = (
    ("scenario", "scenario"), ("ops", "ops"), ("csteps", "steps"),
    ("fus", "FUs"), ("registers", "regs"), ("mux_count", "mux"),
    ("cost_total", "cost"),
)

#: appended after ``cost`` when the sweep ran with timing analysis
_TIMING_COLUMNS: Sequence[Tuple[str, str]] = (
    ("clock_period_ns", "clock_ns"), ("mux_depth_max", "depth"),
)


def render_table(rows: Sequence[ScenarioRow]) -> str:
    """Fixed-width sweep table (also valid GitHub-flavoured markdown)."""
    columns = _COLUMNS
    if any(row.clock_period_ns is not None for row in rows):
        columns = tuple(_COLUMNS) + tuple(_TIMING_COLUMNS)
    cells = [[header for _, header in columns]]
    for row in rows:
        data = row.to_dict()
        rendered = []
        for key, _ in columns:
            value = data.get(key)
            if value is None:
                rendered.append("-")
            elif key == "cost_total":
                rendered.append(f"{value:.2f}")
            elif key == "clock_period_ns":
                rendered.append(f"{value:.3f}")
            else:
                rendered.append(str(value))
        cells.append(rendered)
    widths = [max(len(line[col]) for line in cells)
              for col in range(len(columns))]
    lines = []
    for index, line in enumerate(cells):
        padded = [line[0].ljust(widths[0])]
        padded += [cell.rjust(width)
                   for cell, width in zip(line[1:], widths[1:])]
        lines.append("| " + " | ".join(padded) + " |")
        if index == 0:
            rule = ["-" * widths[0]] + ["-" * width for width in widths[1:]]
            lines.append("| " + " | ".join(rule) + " |")
    return "\n".join(lines)


def results_document(rows: Sequence[ScenarioRow],
                     budget_name: str, restarts: int,
                     method: str) -> Dict[str, Any]:
    """The machine-readable sweep report written under ``results/``."""
    return {
        "type": "bench_zoo",
        "budget": budget_name,
        "restarts": restarts,
        "method": method,
        "timing": any(row.clock_period_ns is not None for row in rows),
        "python": platform.python_version(),
        "rows": {row.scenario: row.to_dict() for row in rows},
    }


def write_results(document: Dict[str, Any], path: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ------------------------------------------------------------- golden gating

#: row fields pinned exactly by the golden file (problem structure and
#: search outcome are both deterministic for a fixed scenario + budget)
_EXACT_FIELDS = ("family", "ops", "csteps", "fus", "registers",
                 "mux_count", "checker_violations")


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("type") != "bench_zoo":
        raise ValueError(f"{path} is not a bench_zoo results document")
    return document


def check_rows(rows: Sequence[ScenarioRow], golden: Dict[str, Any],
               tolerance: float = 0.0) -> List[str]:
    """Compare a fresh sweep against a golden document.

    Structural fields and mux counts must match exactly; the weighted cost
    is gated within *tolerance* (relative).
    """
    problems: List[str] = []
    fresh = {row.scenario: row for row in rows}
    for name, want in sorted(golden["rows"].items()):
        row = fresh.get(name)
        if row is None:
            problems.append(f"{name}: missing from sweep")
            continue
        got = row.to_dict()
        for fieldname in _EXACT_FIELDS:
            if got[fieldname] != want[fieldname]:
                problems.append(
                    f"{name}: {fieldname} = {got[fieldname]!r}, "
                    f"golden {want[fieldname]!r}")
        want_cost = float(want["cost_total"])
        drift = abs(row.cost_total - want_cost)
        if drift > tolerance * max(1.0, abs(want_cost)) + 1e-9:
            problems.append(
                f"{name}: cost_total {row.cost_total:.6f} vs golden "
                f"{want_cost:.6f} (tolerance {tolerance:g})")
        if "clock_period_ns" in want:
            # the analyzed clock period is pure arithmetic over a
            # deterministic netlist: zero tolerance, always
            if got.get("clock_period_ns") != want["clock_period_ns"]:
                problems.append(
                    f"{name}: clock_period_ns = "
                    f"{got.get('clock_period_ns')!r}, golden "
                    f"{want['clock_period_ns']!r} (exact)")
            if got.get("mux_depth_max") != want["mux_depth_max"]:
                problems.append(
                    f"{name}: mux_depth_max = {got.get('mux_depth_max')!r}, "
                    f"golden {want['mux_depth_max']!r}")
    extra = sorted(set(fresh) - set(golden["rows"]))
    for name in extra:
        problems.append(f"{name}: not in golden file (refresh with "
                        f"--write-golden)")
    return problems


__all__ = [
    "BUDGETS", "FAST_BUDGET", "FULL_BUDGET", "GOLDEN_PATH", "ScenarioRow",
    "allocate_scenario", "check_rows", "load_golden", "render_table",
    "results_document", "run_scenario", "run_suite", "write_results",
]
