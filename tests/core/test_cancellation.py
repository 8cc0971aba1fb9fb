"""Cooperative cancellation / deadline hook (``should_stop``).

The service layer (``repro.service``) relies on three guarantees when the
hook fires mid-search: the run ends promptly, the binding is left at the
*best allocation seen so far* (not wherever the random walk happened to
be), and the telemetry records the early stop so callers can mark the
result degraded.
"""

from repro.bench import elliptic_wave_filter
from repro.datapath.units import HardwareSpec, make_registers
from repro.sched.explore import schedule_graph
from repro.core import AnnealConfig, ImproveConfig, anneal, improve, \
    initial_allocation
from repro.alloc.checker import check_binding

SPEC = HardwareSpec.non_pipelined()


def fresh_binding(length=19, extra_regs=1):
    graph = elliptic_wave_filter()
    schedule = schedule_graph(graph, SPEC, length)
    return initial_allocation(
        schedule, SPEC.make_fus(schedule.min_fus()),
        make_registers(schedule.min_registers() + extra_regs))


class CountdownStop:
    """A should_stop callback that fires after N checks."""

    def __init__(self, after: int) -> None:
        self.after = after
        self.calls = 0

    def __call__(self) -> bool:
        self.calls += 1
        return self.calls > self.after


class TestImproveCancellation:
    def test_early_stop_returns_best_so_far(self):
        binding = fresh_binding()
        stop = CountdownStop(after=120)
        stats = improve(binding, ImproveConfig(
            max_trials=50, moves_per_trial=500, seed=7, should_stop=stop))
        assert stats.stopped_early
        # the callback is polled once per attempted move, so the search
        # ended promptly after it fired
        assert stats.moves_attempted <= 121
        assert stats.trials_run < 50
        # the binding ends at the recorded best, which is a legal
        # allocation whose cost matches the telemetry's final cost
        assert check_binding(binding) == []
        assert binding.cost().total == stats.final_cost.total
        assert stats.final_cost.total <= stats.initial_cost.total
        # best_trace/cost_trace/timings cover the truncated trial too
        assert stats.best_trace and stats.best_trace[0][0] == 0
        assert len(stats.cost_trace) == stats.trials_run
        assert len(stats.trial_seconds) == stats.trials_run
        assert len(stats.uphill_used) == stats.trials_run

    def test_stop_before_first_move(self):
        binding = fresh_binding()
        stats = improve(binding, ImproveConfig(
            max_trials=4, moves_per_trial=100, seed=8,
            should_stop=lambda: True))
        assert stats.stopped_early
        assert stats.moves_attempted == 0
        assert check_binding(binding) == []
        assert binding.cost().total == stats.final_cost.total

    def test_no_callback_unchanged(self):
        binding = fresh_binding()
        stats = improve(binding, ImproveConfig(
            max_trials=2, moves_per_trial=100, seed=9))
        assert not stats.stopped_early

    def test_stopped_early_round_trips(self):
        binding = fresh_binding()
        stats = improve(binding, ImproveConfig(
            max_trials=4, moves_per_trial=200, seed=10,
            should_stop=CountdownStop(after=50)))
        assert stats.stopped_early
        from repro.core.improve import ImproveStats
        from repro.io import stats_from_json, stats_to_json
        [reloaded] = stats_from_json(stats_to_json([stats]))
        assert reloaded.stopped_early
        # payloads missing the field (pre-service telemetry) default False
        legacy = stats.to_dict()
        del legacy["stopped_early"]
        assert not ImproveStats.from_dict(legacy).stopped_early


class TestAnnealCancellation:
    def test_early_stop_returns_best_so_far(self):
        binding = fresh_binding()
        stop = CountdownStop(after=150)
        stats = anneal(binding, AnnealConfig(
            temperature_levels=30, moves_per_level=400, seed=7,
            should_stop=stop))
        assert stats.stopped_early
        assert stats.moves_attempted <= 151
        assert stats.trials_run < 30
        assert check_binding(binding) == []
        assert binding.cost().total == stats.final_cost.total
        assert stats.final_cost.total <= stats.initial_cost.total
        assert len(stats.cost_trace) == stats.trials_run
        assert len(stats.trial_seconds) == stats.trials_run
