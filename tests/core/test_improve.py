"""Unit tests for iterative improvement, polish and annealing."""

import hashlib
import json

import pytest

from repro.bench import (discrete_cosine_transform, elliptic_wave_filter,
                         hal_diffeq)
from repro.datapath.units import HardwareSpec, make_registers
from repro.sched.explore import schedule_graph
from repro.core import (AnnealConfig, ImproveConfig, MoveSet, anneal,
                        improve, initial_allocation, polish)
from repro.core.improve import ImproveStats
from repro.alloc.checker import check_binding

SPEC = HardwareSpec.non_pipelined()


def fresh_binding(length=19, extra_regs=1):
    graph = elliptic_wave_filter()
    schedule = schedule_graph(graph, SPEC, length)
    return initial_allocation(
        schedule, SPEC.make_fus(schedule.min_fus()),
        make_registers(schedule.min_registers() + extra_regs))


class TestImprove:
    def test_dct_trajectory_matches_pinned_digest(self):
        """A seeded search is pinned move for move: the digest covers the
        best-cost trace, the per-move counters and the decision dicts in
        iteration order.  This run reaches an R3 decline that drops the
        transfer-candidate memo, whose order F4 then draws from
        (DESIGN.md §3.3)."""
        schedule = schedule_graph(discrete_cosine_transform(), SPEC, 10)
        binding = initial_allocation(
            schedule, SPEC.make_fus(schedule.min_fus()),
            make_registers(schedule.min_registers() + 1))
        stats = improve(binding, ImproveConfig(max_trials=3,
                                               moves_per_trial=1500, seed=0))
        document = {
            "best_trace": stats.best_trace,
            "per_move": {name: c.to_dict()
                         for name, c in sorted(stats.per_move.items())},
            "placements": [[v, s, list(regs)]
                           for (v, s), regs in binding.placements.items()],
            "read_src": [[op, port, reg]
                         for (op, port), reg in binding.read_src.items()],
            "pt_impl": [[list(key), list(impl)]
                        for key, impl in binding.pt_impl.items()],
            "op_fu": list(binding.op_fu.items()),
        }
        blob = json.dumps(document, separators=(",", ":")).encode("utf-8")
        assert hashlib.sha256(blob).hexdigest() == (
            "6ece71fdaf4b13c87b47ca6047a16e98465a91745a63354c76358bf8b6c378fd")

    def test_never_worse_than_initial(self):
        binding = fresh_binding()
        initial = binding.cost().total
        stats = improve(binding, ImproveConfig(max_trials=4,
                                               moves_per_trial=300, seed=1))
        assert stats.final_cost.total <= initial
        assert check_binding(binding) == []

    def test_stats_populated(self):
        binding = fresh_binding()
        stats = improve(binding, ImproveConfig(max_trials=3,
                                               moves_per_trial=150, seed=2))
        assert stats.trials_run >= 1
        assert stats.moves_attempted >= stats.moves_applied
        assert stats.moves_applied >= stats.moves_accepted
        assert len(stats.cost_trace) == stats.trials_run
        assert "improve:" in stats.summary()

    def test_stops_after_idle_trials(self):
        binding = fresh_binding()
        stats = improve(binding, ImproveConfig(
            max_trials=50, moves_per_trial=40, uphill_per_trial=0,
            idle_trials_stop=2, polish_trials=False, seed=3))
        assert stats.trials_run < 50

    def test_no_moves_enabled_rejected(self):
        binding = fresh_binding()
        with pytest.raises(ValueError, match="no moves"):
            improve(binding, ImproveConfig(
                move_set=MoveSet(weights={k: 0.0 for k in
                                          MoveSet.DEFAULT_WEIGHTS})))

    def test_deterministic_for_fixed_seed(self):
        results = []
        for _ in range(2):
            binding = fresh_binding()
            improve(binding, ImproveConfig(max_trials=3,
                                           moves_per_trial=200, seed=42))
            results.append(binding.cost().total)
        assert results[0] == results[1]

    def test_traditional_move_set_keeps_values_monolithic(self):
        binding = fresh_binding()
        improve(binding, ImproveConfig(max_trials=3, moves_per_trial=300,
                                       move_set=MoveSet.traditional(),
                                       seed=4))
        assert not binding.pt_impl
        assert all(len(r) == 1 for r in binding.placements.values())


class TestPolish:
    def test_polish_monotone(self):
        binding = fresh_binding()
        start = binding.cost().total
        final = polish(binding)
        assert final <= start
        assert binding.cost().total == pytest.approx(final)
        assert check_binding(binding) == []

    def test_polish_idempotent(self):
        binding = fresh_binding()
        first = polish(binding)
        second = polish(binding)
        assert second == pytest.approx(first)

    def test_polish_respects_traditional_move_set(self):
        binding = fresh_binding()
        polish(binding, MoveSet.traditional())
        assert not binding.pt_impl


class TestStatsCompat:
    def test_from_dict_accepts_legacy_payload(self):
        """Regression: stats JSON written before the extended telemetry
        landed (no per_move/trial_seconds/best_trace/seed/...) must load
        with the dataclass defaults instead of raising KeyError."""
        legacy = {
            "trials_run": 2, "moves_attempted": 10, "moves_applied": 8,
            "moves_accepted": 5, "uphill_accepted": 1,
            "initial_cost": None, "final_cost": None,
            "per_move_accepts": {"F1": 5}, "cost_trace": [3.0, 2.5],
        }
        stats = ImproveStats.from_dict(legacy)
        assert stats.trials_run == 2
        assert stats.per_move_accepts == {"F1": 5}
        assert stats.per_move == {}
        assert stats.trial_seconds == []
        assert stats.uphill_used == []
        assert stats.best_trace == []
        assert stats.seconds == 0.0
        assert stats.seed is None
        assert stats.phase_ns == {}
        # and the loaded object round-trips through the modern serializer
        again = ImproveStats.from_json(stats.to_json())
        assert again.to_dict() == stats.to_dict()


class TestAnneal:
    def test_anneal_runs_and_stays_legal(self):
        binding = fresh_binding()
        initial = binding.cost().total
        stats = anneal(binding, AnnealConfig(temperature_levels=5,
                                             moves_per_level=150, seed=5))
        assert stats.final_cost.total <= initial
        assert check_binding(binding) == []

    def test_no_moves_enabled_rejected(self):
        """Regression: anneal() must reject an empty enabled-move set the
        same way improve() does, not spin the full budget doing nothing."""
        binding = fresh_binding()
        with pytest.raises(ValueError, match="no moves"):
            anneal(binding, AnnealConfig(
                move_set=MoveSet(weights={k: 0.0 for k in
                                          MoveSet.DEFAULT_WEIGHTS})))

    def test_telemetry_parity_with_improve(self):
        """Regression: annealing runs once reported seconds=0.0, no seed,
        and empty per-move counters / traces."""
        binding = fresh_binding()
        stats = anneal(binding, AnnealConfig(temperature_levels=4,
                                             moves_per_level=120, seed=9))
        assert stats.seed == 9
        assert stats.seconds > 0.0
        assert stats.per_move
        assert sum(c.attempts for c in stats.per_move.values()) \
            == stats.moves_attempted
        assert sum(c.accepts for c in stats.per_move.values()) \
            == stats.moves_accepted
        assert stats.best_trace
        assert stats.best_trace[0] == (0, stats.initial_cost.total)
        assert len(stats.trial_seconds) == stats.trials_run
        assert len(stats.uphill_used) == stats.trials_run

    def test_improvement_beats_annealing_at_equal_budget(self):
        """The paper's Sec. 4 claim, at a modest equal move budget."""
        graph = hal_diffeq()
        schedule = schedule_graph(graph, SPEC, 7)
        fus = SPEC.make_fus(schedule.min_fus())
        regs = make_registers(schedule.min_registers() + 1)

        imp = initial_allocation(schedule, fus, regs)
        improve(imp, ImproveConfig(max_trials=6, moves_per_trial=400,
                                   seed=6))
        ann = initial_allocation(schedule, fus, regs)
        anneal(ann, AnnealConfig(temperature_levels=8, moves_per_level=300,
                                 seed=6))
        assert imp.cost().total <= ann.cost().total + 1e-9
