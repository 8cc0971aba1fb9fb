"""Simulated-annealing allocation (the approach the paper tried first).

"It was originally thought that allocation improvement would be implemented
using simulated annealing.  However, attempts to use annealing produced
poor results and seldom converged on a good solution." (Sec. 4)

This module keeps a faithful annealer over the same move set so the claim
can be reproduced as an ablation (``benchmarks/bench_ablation_anneal.py``):
at equal move budgets, the bounded-uphill iterative-improvement scheme of
:mod:`repro.core.improve` should reach lower cost than annealing.

Both engines run one move loop (:class:`~repro.core.improve.MoveLoop`)
and differ inside it only by the accept test for an uphill move: here the
Metropolis test, ``random() < exp(-Δ/T)``, drawn only when Δ > 0.  This
module adds the cooling schedule; each temperature level is one trial, so
both engines report the same :class:`~repro.core.improve.ImproveStats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.rng import RngLike
from repro.core.binding import Binding
from repro.core.improve import ImproveStats, MoveLoop
from repro.core.moves import MoveSet


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
    loop = MoveLoop(binding, config, "anneal")
    loop.start()
    random = loop.rng.random
    temperature = config.initial_temperature

    def metropolis(delta: float) -> bool:
        # reads the temperature of the level being run
        return random() < math.exp(-delta / temperature)

    for _level in range(config.temperature_levels):
        with loop.trial():
            loop.moves(config.moves_per_level, metropolis)
        if loop.stats.stopped_early:
            break
        temperature *= config.cooling
        if temperature < config.min_temperature:
            break
    return loop.finish()
