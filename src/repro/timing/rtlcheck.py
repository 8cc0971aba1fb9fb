"""RTL round-trip verification: interpreter stimuli vs datapath netlist.

The differential lane the nightly fuzzer runs per scenario-zoo family:

1. build and allocate a zoo scenario (same deterministic seeding as the
   bench sweep),
2. generate random-but-reproducible stimuli and run them through the CDFG
   interpreter (:mod:`repro.cdfg.interp`) — the golden model,
3. drive :class:`repro.datapath.simulate.DatapathSimulator` on the
   emitted netlist with the same stimuli,
4. diff every sampled output cycle-accurately (per iteration, per value),
5. emit the Verilog for the datapath *and* the controller and reject
   structural nonsense (empty modules, negative port ranges).

Unlike :func:`repro.datapath.simulate.verify_binding`, which raises on
the first mismatch, the round trip collects **all** mismatches into a
:class:`RoundTripReport` so a nightly failure names every diverging
output at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import DatapathError
from repro.cdfg.interp import run_iterations
from repro.datapath.controller import controller_to_verilog, extract_control
from repro.datapath.netlist import build_netlist
from repro.datapath.rtl import netlist_to_verilog
from repro.datapath.simulate import DatapathSimulator
from repro.rng import make_rng


@dataclass
class RoundTripReport:
    """Outcome of one interpreter-vs-datapath differential run."""

    name: str
    family: str
    iterations: int
    cycles: int
    outputs_checked: int
    max_abs_err: float
    mismatches: List[Dict[str, Any]] = field(default_factory=list)
    rtl_problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.rtl_problems

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "family": self.family,
            "iterations": self.iterations,
            "cycles": self.cycles,
            "outputs_checked": self.outputs_checked,
            "max_abs_err": self.max_abs_err,
            "mismatches": list(self.mismatches),
            "rtl_problems": list(self.rtl_problems),
            "ok": self.ok,
        }

    def __str__(self) -> str:
        status = "ok" if self.ok else (
            f"{len(self.mismatches)} mismatches, "
            f"{len(self.rtl_problems)} rtl problems")
        return (f"roundtrip({self.name}: {self.outputs_checked} samples "
                f"over {self.cycles} cycles, max_err={self.max_abs_err:g}, "
                f"{status})")


def _rtl_problems(netlist) -> List[str]:
    """Structural sanity of the emitted Verilog (datapath + controller)."""
    problems: List[str] = []
    datapath = netlist_to_verilog(netlist)
    table = extract_control(netlist)
    controller = controller_to_verilog(table)
    for label, text in (("datapath", datapath), ("controller", controller)):
        if "module" not in text or "endmodule" not in text:
            problems.append(f"{label}: not a Verilog module")
        if "[-1:0]" in text:
            problems.append(f"{label}: negative port range emitted")
    return problems


def roundtrip_binding(binding, name: str = "", family: str = "",
                      iterations: int = 4, seed: Any = 0,
                      tol: float = 1e-9,
                      emit_rtl: bool = True) -> RoundTripReport:
    """Diff the netlist simulation against the interpreter, cycle by cycle.

    Stimuli follow the :func:`repro.datapath.simulate.verify_binding`
    conventions exactly (same rounding, same extra trailing iteration for
    cyclic graphs) so the two verifiers agree on what "pass" means.
    """
    graph = binding.graph
    rng = make_rng(seed)
    if not graph.cyclic:
        iterations = 1
    sim_iterations = iterations + (1 if graph.cyclic else 0)
    streams = {vname: [round(rng.uniform(-4.0, 4.0), 3)
                       for _ in range(sim_iterations)]
               for vname in graph.inputs}
    state = {vname: round(rng.uniform(-4.0, 4.0), 3)
             for vname in graph.loop_values}

    expected = run_iterations(graph, streams, state, iterations)
    netlist = build_netlist(binding)
    trace = DatapathSimulator(netlist).run(streams, state, sim_iterations)

    report = RoundTripReport(
        name=name or graph.name, family=family,
        iterations=iterations, cycles=sim_iterations * netlist.length,
        outputs_checked=0, max_abs_err=0.0)
    for iteration in range(iterations):
        for vname in graph.outputs:
            want = expected[iteration][vname]
            got = trace.outputs[iteration].get(vname)
            report.outputs_checked += 1
            if got is None:
                report.mismatches.append(
                    {"output": vname, "iteration": iteration,
                     "expected": want, "actual": None})
                continue
            err = abs(got - want)
            if err > report.max_abs_err:
                report.max_abs_err = err
            if err > tol * max(1.0, abs(want)):
                report.mismatches.append(
                    {"output": vname, "iteration": iteration,
                     "expected": want, "actual": got})
    if emit_rtl:
        report.rtl_problems = _rtl_problems(netlist)
    return report


def roundtrip_family(family: str, seed: int = 0, iterations: int = 4,
                     budget=None, restarts: int = 2) -> RoundTripReport:
    """Allocate one zoo family's canonical scenario and round-trip it."""
    # deferred: repro.bench imports back into timing for the --timing sweep
    from repro.bench.runner import allocate_scenario
    from repro.bench.zoo import default_suite

    for scenario in default_suite(seed):
        if scenario.family == family:
            binding = allocate_scenario(scenario, budget=budget,
                                        restarts=restarts).binding
            return roundtrip_binding(binding, name=scenario.name,
                                     family=family, iterations=iterations,
                                     seed=seed)
    raise DatapathError(f"unknown zoo family {family!r}")


def roundtrip_zoo(seed: int = 0, iterations: int = 4, budget=None,
                  restarts: int = 2,
                  families: Optional[List[str]] = None) \
        -> List[RoundTripReport]:
    """Round-trip every zoo family (or *families*); deterministic order."""
    # deferred: repro.bench imports back into timing for the --timing sweep
    from repro.bench.runner import allocate_scenario
    from repro.bench.zoo import default_suite

    reports: List[RoundTripReport] = []
    for scenario in default_suite(seed):
        if families is not None and scenario.family not in families:
            continue
        binding = allocate_scenario(scenario, budget=budget,
                                    restarts=restarts).binding
        reports.append(roundtrip_binding(
            binding, name=scenario.name, family=scenario.family,
            iterations=iterations, seed=seed))
    return reports


__all__ = ["RoundTripReport", "roundtrip_binding", "roundtrip_family",
           "roundtrip_zoo"]
