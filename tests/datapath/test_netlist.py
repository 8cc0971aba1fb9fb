"""Unit tests for netlist construction."""

import pytest

from repro.errors import DatapathError
from repro.bench import hal_diffeq, elliptic_wave_filter
from repro.datapath.netlist import build_netlist
from repro.datapath.units import HardwareSpec, make_registers
from repro.sched.explore import schedule_graph
from repro.core.initial import initial_allocation

SPEC = HardwareSpec.non_pipelined()


@pytest.fixture
def diffeq_netlist(diffeq_binding):
    return build_netlist(diffeq_binding)


class TestBuild:
    def test_counts_match_binding(self, diffeq_binding, diffeq_netlist):
        assert diffeq_netlist.mux_eq21() == \
            diffeq_binding.cost().mux_count
        assert len(diffeq_netlist.connections) == \
            diffeq_binding.cost().wire_count

    def test_every_op_issued_once(self, diffeq_binding, diffeq_netlist):
        issued = [i.op for i in diffeq_netlist.issues]
        assert sorted(issued) == sorted(diffeq_binding.graph.ops)

    def test_issue_steps_match_schedule(self, diffeq_binding,
                                        diffeq_netlist):
        for issue in diffeq_netlist.issues:
            assert issue.step == diffeq_binding.schedule.start[issue.op]
            assert issue.end_step == diffeq_binding.schedule.end(issue.op)

    def test_loop_values_preloaded(self, diffeq_netlist):
        preloaded = {v for v, _ in diffeq_netlist.preloads}
        assert {"x", "y", "u"} <= preloaded

    def test_writes_reference_known_regs(self, diffeq_binding,
                                         diffeq_netlist):
        for write in diffeq_netlist.writes:
            assert write.reg in diffeq_binding.regs

    def test_selection_schedule_consistent(self, diffeq_netlist):
        sel = diffeq_netlist.selection_schedule()
        for mux in diffeq_netlist.muxes:
            schedule = sel.get(mux.sink, {})
            for src in schedule.values():
                assert src in mux.sources

    def test_unbound_op_rejected(self, diffeq_binding):
        diffeq_binding.set_op_fu("m1", None)
        with pytest.raises(DatapathError, match="unbound"):
            build_netlist(diffeq_binding)


class TestTransfers:
    def test_split_value_produces_transfer_write(self, ewf19,
                                                 nonpipe_spec):
        fus = nonpipe_spec.make_fus(ewf19.min_fus())
        regs = make_registers(ewf19.min_registers() + 1)
        binding = initial_allocation(ewf19, fus, regs)
        # force a segment hop on some multi-step value
        from repro.core.moves import fixup_segment
        target = None
        for vname in binding.graph.values:
            if binding.port_captured(vname):
                continue
            iv = binding.interval(vname)
            if iv.length >= 2:
                target = vname
                break
        assert target is not None
        iv = binding.interval(target)
        last = iv.steps[-1]
        free = next(r for r in sorted(binding.regs)
                    if binding.reg_free(r, last))
        binding.set_placements(target, last, (free,))
        fixup_segment(binding, target, last)
        binding.flush()
        netlist = build_netlist(binding)
        transfer_writes = [w for w in netlist.writes
                           if w.source[0] in ("reg", "pt")
                           and w.value == target]
        assert len(transfer_writes) == 1
