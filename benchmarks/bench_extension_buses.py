"""Future-work extension — bus-oriented interconnect (paper Sec. 7).

"Extensions to interconnection allocation should be investigated to
improve on the point-to-point model currently used."  This bench runs the
bus-extraction post-pass on SALSA allocations of the EWF and DCT and
tabulates wires vs buses and the two cost views.
"""

from conftest import FAST, publish

from repro.analysis import ExperimentTable
from repro.bench import discrete_cosine_transform, elliptic_wave_filter
from repro.datapath.buses import extract_buses
from repro.datapath.netlist import build_netlist
from repro.datapath.units import HardwareSpec
from repro.sched import schedule_graph
from repro.core import ImproveConfig, SalsaAllocator


def test_extension_buses(capsys):
    config = ImproveConfig(max_trials=4 if FAST else 10,
                           moves_per_trial=250 if FAST else 600)
    table = ExperimentTable(
        name="Extension — bus-oriented interconnect after allocation",
        headers=["design", "p2p wires", "buses", "p2p eq 2-1",
                 "bus eq 2-1"])
    reports = []
    for graph, length in ((elliptic_wave_filter(), 17),
                          (elliptic_wave_filter(), 19),
                          (discrete_cosine_transform(), 10)):
        schedule = schedule_graph(graph, HardwareSpec.non_pipelined(),
                                  length)
        result = SalsaAllocator(seed=5, restarts=2,
                                config=config).allocate(graph,
                                                        schedule=schedule)
        netlist = build_netlist(result.binding)
        report = extract_buses(netlist)
        reports.append(report)
        table.rows.append([f"{graph.name}@{length}",
                           report.point_to_point_wires, report.bus_count,
                           report.point_to_point_eq21, report.bus_eq21])
    table.notes.append(
        "buses trade mux fan-in for shared wires: fewer physical lines, "
        "sometimes more selector hardware — the trade-off the paper "
        "defers to future work")
    publish(table, "extension_buses.txt", capsys)

    for report in reports:
        assert report.bus_count < report.point_to_point_wires
