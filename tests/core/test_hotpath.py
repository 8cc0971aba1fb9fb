"""Hot-path invariants: the O(1) cost fast path and diff-based restore.

Property-style coverage that reuses the ``repro.verify.fuzz`` CDFG
generator: across random problems and random move sequences the
incremental ``Binding.total_cost()`` must equal the structured
``cost().total`` *exactly* (same floats, not approximately), and the
diff-based ``restore_state()`` must land on a state bit-identical to a
from-scratch rebuild (``Binding.from_state``).
"""

import pytest

from repro.bench import elliptic_wave_filter
from repro.core import MoveSet, initial_allocation
from repro.core.binding import Binding
from repro.datapath.units import HardwareSpec, make_registers
from repro.rng import SeedStream, make_rng
from repro.sched.explore import schedule_graph
from repro.verify.fuzz import FuzzConfig, build_problem, sample_case
from repro.verify.sanitizer import SanitizerError, ShadowSanitizer

SPEC = HardwareSpec.non_pipelined()

#: fuzz-case indices exercised by the property tests (deterministic:
#: SeedStream children depend only on the root and the index)
CASE_INDICES = [0, 1, 2, 3, 5, 8]


def _fuzz_binding(index: int):
    """A random-but-reproducible allocation problem from the fuzz corpus."""
    case = sample_case(SeedStream(20260806), index, FuzzConfig())
    _graph, schedule = build_problem(case)
    fus = SPEC.make_fus(schedule.min_fus())
    regs = make_registers(schedule.min_registers()
                          + max(0, case.extra_registers))
    return initial_allocation(schedule, fus, regs), case


def _ewf_binding():
    graph = elliptic_wave_filter()
    schedule = schedule_graph(graph, SPEC, 19)
    return initial_allocation(
        schedule, SPEC.make_fus(schedule.min_fus()),
        make_registers(schedule.min_registers() + 1))


@pytest.mark.parametrize("index", CASE_INDICES)
def test_total_cost_tracks_cost_exactly(index):
    """total_cost() == cost().total bit-for-bit across random move walks."""
    binding, case = _fuzz_binding(index)
    rng = make_rng(case.seed)
    moves = MoveSet().enabled_moves()
    assert binding.total_cost() == binding.cost().total
    for _ in range(150):
        _name, fn, _weight = moves[rng.randrange(len(moves))]
        binding.begin_move()
        applied = fn(binding, rng)
        if not applied or rng.random() < 0.5:
            binding.commit_move()
        else:
            binding.abort_move()
        assert binding.total_cost() == binding.cost().total
        assert binding.cost() == binding.cost_from_scratch()


@pytest.mark.parametrize("index", CASE_INDICES)
def test_diff_restore_bit_identical_to_fresh_rebuild(index):
    """Diff-based restore from a *mutated* live state must equal a fresh
    binding loaded from the same snapshot."""
    binding, case = _fuzz_binding(index)
    snapshot = binding.clone_state()
    rng = make_rng(case.seed + 1)
    moves = MoveSet().enabled_moves()
    for _ in range(120):
        _name, fn, _weight = moves[rng.randrange(len(moves))]
        binding.begin_move()
        fn(binding, rng)
        binding.commit_move()
    binding.restore_state(snapshot)

    fresh = Binding.from_state(binding.schedule, list(binding.fus.values()),
                               list(binding.regs.values()), snapshot,
                               binding.weights)
    assert binding.derived_snapshot() == fresh.derived_snapshot()
    assert binding.cost() == fresh.cost()
    assert binding.total_cost() == fresh.total_cost()


def test_skewed_incremental_counter_caught_by_sanitizer():
    """A drifted running counter must trip the from-scratch cross-check."""
    binding = _ewf_binding()
    sanitizer = ShadowSanitizer(binding, every=1)
    sanitizer.check()  # clean state passes
    binding._fu_used_count += 1
    with pytest.raises(SanitizerError, match="diverged"):
        sanitizer.check()


def test_skewed_register_counter_caught_by_sanitizer():
    binding = _ewf_binding()
    sanitizer = ShadowSanitizer(binding, every=1)
    binding._reg_used_count -= 1
    with pytest.raises(SanitizerError, match="diverged"):
        sanitizer.check()
