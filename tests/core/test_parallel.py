"""Tests for the parallel multi-restart engine and its determinism.

The engine's contract: a restart outcome is a pure function of its job, so
the best cost and winning binding state are bit-identical for any worker
count — serial fallback, 2 workers, or 4 workers on a single core.
"""

import pytest

from repro.bench import elliptic_wave_filter
from repro.bench.random_cdfg import random_cdfg
from repro.datapath.units import HardwareSpec
from repro.sched.explore import schedule_graph
from repro.core import (ImproveConfig, RestartOutcome, SalsaAllocator,
                        TraditionalAllocator, best_outcome, run_restarts)
from repro.core.moves import MoveSet
from repro.core.parallel import _fork_context, run_restart
from repro.datapath.cost import CostBreakdown

SPEC = HardwareSpec.non_pipelined()
FAST = ImproveConfig(max_trials=2, moves_per_trial=120)

WORKER_COUNTS = (1, 2, 4)


def _cost(total: float) -> CostBreakdown:
    return CostBreakdown(fu_count=0, fu_area=total, register_count=0,
                         mux_count=0, wire_count=0)


class TestEngine:
    def test_outcomes_in_job_order(self, ewf19):
        alloc = SalsaAllocator(seed=3, restarts=3, config=FAST)
        _schedule, jobs = alloc.prepare_jobs(ewf19.graph, schedule=ewf19)
        outcomes = run_restarts(jobs, workers=2)
        assert [o.index for o in outcomes] == [0, 1, 2]

    def test_best_outcome_tie_breaks_on_index(self):
        outcomes = [RestartOutcome(index=2, state={}, cost=_cost(1.0)),
                    RestartOutcome(index=0, state={}, cost=_cost(1.0)),
                    RestartOutcome(index=1, state={}, cost=_cost(2.0))]
        assert best_outcome(outcomes).index == 0

    def test_best_outcome_rejects_empty(self):
        from repro.errors import AllocationError
        with pytest.raises(AllocationError):
            best_outcome([])

    def test_restart_seconds_recorded(self, ewf19):
        alloc = TraditionalAllocator(seed=1, restarts=2, config=FAST)
        result = alloc.allocate(ewf19.graph, schedule=ewf19)
        assert len(result.outcomes) == 2
        assert all(o.seconds > 0 for o in result.outcomes)
        assert result.seconds == pytest.approx(
            sum(o.seconds for o in result.outcomes))

    def test_anneal_config_runs_through_anneal(self, ewf19):
        from dataclasses import replace
        from repro.core.anneal import AnnealConfig, anneal
        from repro.core.initial import initial_allocation
        config = AnnealConfig(temperature_levels=3, moves_per_level=60,
                              seed=4)
        alloc = SalsaAllocator(seed=3, restarts=1, config=FAST)
        _schedule, jobs = alloc.prepare_jobs(ewf19.graph, schedule=ewf19)
        job = replace(jobs[0], configs=(config,))
        outcome = run_restart(job)
        binding = initial_allocation(ewf19, list(job.fus), list(job.regs),
                                     weights=job.weights,
                                     allow_split=job.allow_split)
        stats = anneal(binding, config)
        assert outcome.state == binding.clone_state()
        assert outcome.cost == binding.cost()
        assert outcome.stats[0].moves_attempted == stats.moves_attempted \
            == 180

    def test_sanitize_env_set_after_prepare_still_checks(self, ewf19,
                                                         monkeypatch):
        """REPRO_SANITIZE=1 set after the jobs were prepared still arms the
        sanitizer inside run_restart (it is read at call time)."""
        from repro.verify.fuzz import BrokenRollbackMoveSet
        from repro.verify.sanitizer import SANITIZE_ENV, SanitizerError
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        config = ImproveConfig(max_trials=3, moves_per_trial=400,
                               uphill_per_trial=0, sanitize_every=1,
                               move_set=BrokenRollbackMoveSet())
        alloc = SalsaAllocator(seed=3, restarts=1, config=config,
                               warm_start_traditional=False)
        _schedule, jobs = alloc.prepare_jobs(ewf19.graph, schedule=ewf19)
        assert not any(c.sanitize for c in jobs[0].configs)
        monkeypatch.setenv(SANITIZE_ENV, "1")
        with pytest.raises(SanitizerError):
            run_restart(jobs[0])


class TestSeedDerivation:
    def test_all_derived_seeds_distinct(self, ewf19):
        """Regression for the old ``seed``/``seed + 1`` derivation, where
        restart k's second seed could equal restart k+1's first."""
        alloc = SalsaAllocator(seed=0, restarts=8, config=FAST)
        _schedule, jobs = alloc.prepare_jobs(ewf19.graph, schedule=ewf19)
        seeds = [cfg.seed for job in jobs for cfg in job.configs]
        assert len(seeds) == 16  # warm-start + full search per restart
        assert len(set(seeds)) == len(seeds)

    def test_traditional_seeds_distinct(self, ewf19):
        alloc = TraditionalAllocator(seed=0, restarts=8, config=FAST)
        _schedule, jobs = alloc.prepare_jobs(ewf19.graph, schedule=ewf19)
        seeds = [cfg.seed for job in jobs for cfg in job.configs]
        assert len(set(seeds)) == len(seeds)

    def test_restart_prefix_stable(self, ewf19):
        """Restart k's seeds do not depend on how many restarts run —
        best-of-n can only improve on best-of-(n-1)."""
        short = SalsaAllocator(seed=5, restarts=1, config=FAST)
        long = SalsaAllocator(seed=5, restarts=4, config=FAST)
        _s, short_jobs = short.prepare_jobs(ewf19.graph, schedule=ewf19)
        _s, long_jobs = long.prepare_jobs(ewf19.graph, schedule=ewf19)
        assert short_jobs[0].configs == long_jobs[0].configs


class TestWorkerDeterminism:
    @pytest.mark.parametrize("traditional", [False, True])
    def test_ewf_identical_across_worker_counts(self, ewf19, traditional):
        cls = TraditionalAllocator if traditional else SalsaAllocator
        results = [cls(seed=11, restarts=4, config=FAST).allocate(
            ewf19.graph, schedule=ewf19, workers=workers)
            for workers in WORKER_COUNTS]
        reference = results[0]
        for result in results[1:]:
            assert result.cost == reference.cost
            assert result.best_restart == reference.best_restart
            assert result.binding.clone_state() == \
                reference.binding.clone_state()

    def test_random_cdfg_identical_across_worker_counts(self):
        graph = random_cdfg(n_ops=14, n_inputs=3, seed=23)
        results = [SalsaAllocator(seed=7, restarts=3,
                                  config=FAST).allocate(
            graph, spec=SPEC, workers=workers)
            for workers in WORKER_COUNTS]
        reference = results[0]
        for result in results[1:]:
            assert result.cost == reference.cost
            assert result.binding.clone_state() == \
                reference.binding.clone_state()

    def test_seed_study_identical_across_worker_counts(self, ewf19):
        from repro.analysis.stats import seed_study
        studies = [seed_study(ewf19.graph, ewf19, seeds=range(4),
                              config=FAST, workers=workers)
                   for workers in (1, 2)]
        assert studies[0].mux_counts == studies[1].mux_counts


class TestTelemetry:
    @pytest.fixture(scope="class")
    def result(self, request):
        graph = elliptic_wave_filter()
        schedule = schedule_graph(graph, SPEC, 19)
        return SalsaAllocator(seed=2, restarts=2,
                              config=FAST).allocate(graph,
                                                    schedule=schedule)

    def test_counters_partition_applied_moves(self, result):
        for stats in result.stats:
            accepts = sum(c.accepts for c in stats.per_move.values())
            rollbacks = sum(c.rollbacks for c in stats.per_move.values())
            assert accepts + rollbacks == stats.moves_applied
            assert accepts == stats.moves_accepted
            attempts = sum(c.attempts for c in stats.per_move.values())
            assert attempts == stats.moves_attempted

    def test_per_trial_telemetry_lengths(self, result):
        for stats in result.stats:
            assert len(stats.trial_seconds) == stats.trials_run
            assert len(stats.uphill_used) == stats.trials_run
            assert sum(stats.uphill_used) == stats.uphill_accepted
            assert stats.seconds >= sum(stats.trial_seconds) - 1e-6

    def test_best_trace_monotone(self, result):
        for stats in result.stats:
            totals = [total for _move, total in stats.best_trace]
            assert totals == sorted(totals, reverse=True)
            moves = [move for move, _total in stats.best_trace]
            assert moves == sorted(moves)

    def test_stats_json_round_trip(self, result):
        from repro.io import stats_from_json, stats_to_json
        for stats in result.stats:
            [again] = stats_from_json(stats_to_json([stats]))
            assert again.to_dict() == stats.to_dict()
            assert again.final_cost == stats.final_cost

    def test_stats_list_round_trip_via_io(self, result):
        from repro.io import stats_from_json, stats_to_json
        text = stats_to_json(result.stats)
        again = stats_from_json(text)
        assert [s.to_dict() for s in again] == \
            [s.to_dict() for s in result.stats]

    def test_telemetry_report_aggregates(self, result):
        from repro.analysis.stats import telemetry_report
        report = telemetry_report(result.stats)
        assert report["runs"] == len(result.stats)
        assert report["moves_applied"] == \
            sum(s.moves_applied for s in result.stats)
        for counters in report["per_move"].values():
            assert counters["accepts"] + counters["rollbacks"] == \
                counters["applies"]

    def test_render_cost_trace(self, result):
        from repro.analysis.figures import render_cost_trace
        art = render_cost_trace(result.stats[0])
        assert "#" in art and "moves" in art


# ------------------------------------------- worker exceptions must surface

class ExplodingMoveSet(MoveSet):
    """Module-level (hence picklable) move set that dies on first use."""

    def enabled_moves(self):
        raise RuntimeError("injected worker bug")


def _exploding_jobs(ewf19):
    from dataclasses import replace
    alloc = SalsaAllocator(seed=1, restarts=2, config=FAST,
                           warm_start_traditional=False)
    _schedule, jobs = alloc.prepare_jobs(ewf19.graph, schedule=ewf19)
    return [replace(job, configs=tuple(
        replace(config, move_set=ExplodingMoveSet())
        for config in job.configs)) for job in jobs]


class TestWorkerExceptionsSurface:
    """Regression for the silent-swallow audit: an unexpected exception
    inside a restart is a bug in the search, not a pool-infrastructure
    failure, and must propagate to the caller — it must NOT be caught by
    the serial-fallback path (which used to catch RuntimeError wholesale
    and re-run the buggy search a second time)."""

    def test_serial_path_propagates(self, ewf19):
        with pytest.raises(RuntimeError, match="injected worker bug"):
            run_restarts(_exploding_jobs(ewf19), workers=1)

    @pytest.mark.skipif(_fork_context() is None,
                        reason="fork start method unavailable")
    def test_pool_path_propagates_with_worker_traceback(self, ewf19):
        with pytest.raises(RuntimeError,
                           match="injected worker bug") as excinfo:
            run_restarts(_exploding_jobs(ewf19), workers=2)
        # concurrent.futures chains the worker-side traceback as __cause__
        # so the failure is debuggable from the parent process
        cause = excinfo.value.__cause__
        assert cause is not None
        assert "injected worker bug" in str(cause)

    def test_fork_context_probe_narrowed(self, monkeypatch):
        """Only the expected probe failures degrade to the serial path."""
        import multiprocessing

        def boom():
            raise ValueError("no such start method")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", boom)
        assert _fork_context() is None

        def bug():
            raise ZeroDivisionError("a genuine bug")

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", bug)
        with pytest.raises(ZeroDivisionError):
            _fork_context()
