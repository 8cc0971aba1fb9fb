"""Simulated-annealing allocation (the approach the paper tried first).

"It was originally thought that allocation improvement would be implemented
using simulated annealing.  However, attempts to use annealing produced
poor results and seldom converged on a good solution." (Sec. 4)

This module keeps a faithful annealer over the same move set so the claim
can be reproduced as an ablation (``benchmarks/bench_ablation_anneal.py``):
at equal move budgets, the bounded-uphill iterative-improvement scheme of
:mod:`repro.core.improve` should reach lower cost than annealing.

The returned :class:`~repro.core.improve.ImproveStats` carries the same
telemetry :func:`~repro.core.improve.improve` populates — wall-clock,
integer seed, per-move-type counters, per-level seconds, and the best-cost
trace — so :mod:`repro.analysis.stats` reports treat both engines alike.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.rng import RngLike, WeightedChooser, make_rng
from repro.core.binding import Binding
from repro.core.improve import ImproveStats
from repro.core.moves import MoveSet
from repro.verify.sanitizer import make_sanitizer


@dataclass
class AnnealConfig:
    """Classic geometric-cooling annealing schedule."""

    initial_temperature: float = 12.0
    cooling: float = 0.92
    temperature_levels: int = 40
    moves_per_level: int = 900
    min_temperature: float = 0.05
    move_set: MoveSet = field(default_factory=MoveSet)
    seed: RngLike = 0
    #: run the shadow-state sanitizer (:mod:`repro.verify.sanitizer`)
    #: alongside the annealing; also forced on by ``REPRO_SANITIZE=1``
    sanitize: bool = False
    sanitize_every: int = 64
    #: cooperative cancellation/deadline hook, checked once per attempted
    #: move; returning True ends the run at the best state seen so far
    #: with ``ImproveStats.stopped_early`` set (see ``ImproveConfig``)
    should_stop: Optional[Callable[[], bool]] = field(
        default=None, repr=False, compare=False)


def anneal(binding: Binding,
           config: Optional[AnnealConfig] = None) -> ImproveStats:
    """Run simulated annealing in place; ends at the best state found."""
    if config is None:
        config = AnnealConfig()
    started = time.perf_counter()
    rng = make_rng(config.seed)
    moves = config.move_set.enabled_moves()
    if not moves:
        raise ValueError("no moves enabled")
    chooser = WeightedChooser([m[0] for m in moves], [m[2] for m in moves])
    fns = {m[0]: m[1] for m in moves}

    stats = ImproveStats()
    if isinstance(config.seed, int):
        stats.seed = config.seed
    sanitizer = make_sanitizer(
        binding, config.sanitize, config.sanitize_every,
        context=f"anneal(seed={config.seed!r})")
    if sanitizer is not None:
        sanitizer.check()
    stats.initial_cost = binding.cost()
    current = stats.initial_cost.total
    best = current
    best_state = binding.clone_state()
    stats.best_trace.append((0, best))
    temperature = config.initial_temperature

    should_stop = config.should_stop
    for _level in range(config.temperature_levels):
        level_started = time.perf_counter()
        stats.trials_run += 1
        uphill_before = stats.uphill_accepted
        for _ in range(config.moves_per_level):
            if should_stop is not None and should_stop():
                stats.stopped_early = True
                break
            stats.moves_attempted += 1
            name = chooser.choose(rng)
            counters = stats.counters_for(name)
            counters.attempts += 1
            if sanitizer is not None:
                sanitizer.pre_move(name, stats.moves_attempted)
            binding.begin_move()
            if not fns[name](binding, rng):
                binding.commit_move()  # the move wrote nothing
                continue
            stats.moves_applied += 1
            counters.applies += 1
            new_cost = binding.total_cost()
            delta = new_cost - current
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                binding.commit_move()
                stats.moves_accepted += 1
                counters.accepts += 1
                stats.per_move_accepts[name] = \
                    stats.per_move_accepts.get(name, 0) + 1
                if delta > 0:
                    stats.uphill_accepted += 1
                    counters.uphill += 1
                current = new_cost
                if current < best - 1e-9:
                    best = current
                    best_state = binding.clone_state()
                    stats.best_trace.append((stats.moves_attempted, best))
                if sanitizer is not None:
                    sanitizer.after_accept(name, stats.moves_attempted)
            else:
                counters.rollbacks += 1
                binding.abort_move()
                if sanitizer is not None:
                    sanitizer.after_rollback(name, stats.moves_attempted)
        stats.cost_trace.append(current)
        stats.uphill_used.append(stats.uphill_accepted - uphill_before)
        stats.trial_seconds.append(time.perf_counter() - level_started)
        if stats.stopped_early:
            break
        temperature *= config.cooling
        if temperature < config.min_temperature:
            break

    binding.restore_state(best_state)
    if sanitizer is not None:
        sanitizer.check()
    stats.final_cost = binding.cost()
    stats.seconds = time.perf_counter() - started
    return stats
