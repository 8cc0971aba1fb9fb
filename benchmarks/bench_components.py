"""Micro-benchmarks of the allocator's hot paths.

Not a paper table — these time the substrate operations that dominate the
iterative search (the paper reports 8–10 CPU minutes per EWF allocation on
a SPARCstation 1; these numbers document where our Python implementation
spends its time).
"""

import random

from repro.bench import elliptic_wave_filter
from repro.datapath.interconnect import ConnectionLedger, fu_in, reg_out
from repro.datapath.simulate import verify_binding
from repro.datapath.units import HardwareSpec, make_registers
from repro.sched import list_schedule, schedule_graph
from repro.core import initial_allocation
from repro.core.moves import MoveSet

SPEC = HardwareSpec.non_pipelined()


def _binding():
    graph = elliptic_wave_filter()
    schedule = schedule_graph(graph, SPEC, 19)
    return initial_allocation(
        schedule, SPEC.make_fus(schedule.min_fus()),
        make_registers(schedule.min_registers() + 1))


def test_ledger_throughput(benchmark):
    """Add+remove of one connection use (the per-move cost unit)."""
    ledger = ConnectionLedger()
    src, snk = reg_out("R0"), fu_in("f", 0)

    def add_remove():
        ledger.add(src, snk)
        ledger.remove(src, snk)

    benchmark(add_remove)


def test_move_apply_rollback_throughput(benchmark):
    """One random move proposal + cost evaluation + rollback."""
    binding = _binding()
    rng = random.Random(0)
    moves = MoveSet().enabled_moves()
    fns = [fn for _n, fn, _w in moves]

    def one_move():
        fn = fns[rng.randrange(len(fns))]
        binding.begin_move()
        if fn(binding, rng):
            binding.cost()
            binding.abort_move()
        else:
            binding.commit_move()

    benchmark(one_move)


def test_list_scheduler_ewf(benchmark):
    graph = elliptic_wave_filter()
    benchmark.pedantic(lambda: list_schedule(graph, SPEC,
                                             {"adder": 2, "mult": 2},
                                             target_length=19).length,
                       rounds=10, iterations=1)


def test_initial_allocation_ewf(benchmark):
    benchmark.pedantic(lambda: _binding().cost().mux_count,
                       rounds=5, iterations=1)


def test_simulation_verification_ewf(benchmark):
    binding = _binding()
    benchmark.pedantic(lambda: verify_binding(binding, iterations=3),
                       rounds=5, iterations=1)
