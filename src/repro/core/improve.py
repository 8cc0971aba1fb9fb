"""Randomized iterative improvement (paper Sec. 4).

The paper found simulated annealing "produced poor results and seldom
converged" and used this scheme instead:

* several **trials** are attempted (analogous to annealing temperature
  levels); each trial attempts a fixed number of moves;
* a move is selected by randomly picking a move *type* (weighted so that
  complex moves are picked less often) and then random elements;
* downhill moves (cost decrease) are always accepted; a fixed number of
  uphill moves are accepted at the *beginning* of each trial (letting the
  search jump to a new region), after which only downhill moves are kept;
* the best allocation seen anywhere is recorded, and the search stops when
  three successive trials bring no improvement (or a trial cap is hit).

:class:`MoveLoop` is the one randomized move loop of both engines: it
draws, applies, prices, keeps or reverts every move.  :func:`improve` and
the annealing ablation (:mod:`repro.core.anneal`) differ inside it only
by the accept test for an uphill move: here the per-trial uphill budget,
there the Metropolis test.  The between-trial steps (restore churn,
restart from best, polish, the idle-trial stop) stay in :func:`improve`.

:class:`ImproveStats` is full search telemetry, not just a counter bag:
per-trial wall-clock and uphill-budget consumption, per-move-type
attempt/apply/accept/rollback counters, and the best-cost trace with the
move index at which each improvement landed.  It round-trips through
``to_dict()`` / ``from_dict()`` (and, as a list, through
:func:`repro.io.stats_to_json` / :func:`repro.io.stats_from_json`) so
multi-process restarts (see :mod:`repro.core.parallel`) and offline
analysis can exchange it freely.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.rng import RngLike, WeightedChooser, make_rng
from repro.core.binding import Binding
from repro.core.moves import MoveSet
from repro.core.polish import polish
from repro.datapath.cost import CostBreakdown, CostWeights
from repro.verify.sanitizer import make_sanitizer


@dataclass
class ImproveConfig:
    """Knobs of the iterative-improvement search."""

    max_trials: int = 24
    moves_per_trial: int = 1500
    uphill_per_trial: int = 12
    idle_trials_stop: int = 3
    #: start every trial from the best allocation seen so far (iterated
    #: local search); the uphill budget then acts as the trial's "kick"
    restart_from_best: bool = True
    #: run deterministic hill-climbing sweeps (:mod:`repro.core.polish`)
    #: before the first trial and at the end of every trial
    polish_trials: bool = True
    move_set: MoveSet = field(default_factory=MoveSet)
    seed: RngLike = 0
    #: run the shadow-state sanitizer (:mod:`repro.verify.sanitizer`)
    #: alongside the search; also forced on by ``REPRO_SANITIZE=1``
    sanitize: bool = False
    #: probe density: every Nth attempt gets a rollback round-trip check
    #: and every Nth acceptance a full shadow-rebuild equivalence check
    sanitize_every: int = 64
    #: when > 0, sample every Nth attempt with ``time.perf_counter_ns``
    #: and accumulate per-phase totals (propose/evaluate/rollback/restore)
    #: into ``ImproveStats.phase_ns`` / ``phase_samples``
    profile_every: int = 0
    #: fuzz/stress knob: when > 0, every Nth trial round-trips the live
    #: state through ``clone_state()`` → ``restore_state(best)`` →
    #: ``restore_state(clone)`` before searching.  Content-preserving (the
    #: trial still starts from exactly the state it would have), but it
    #: drives the diff-replay restore machinery across a real diff twice
    #: per churn, so a restore bug surfaces as a sanitizer/differential
    #: failure instead of hiding behind the rare once-per-trial restore.
    #: Not trajectory-neutral: restores reconcile dict iteration order, so
    #: runs with different churn settings are each deterministic but not
    #: comparable move-for-move
    restore_churn: int = 0
    #: cooperative cancellation/deadline hook: checked once per attempted
    #: move (and between trials); when it returns True the search stops,
    #: restores the best allocation seen so far and sets
    #: ``ImproveStats.stopped_early``.  Not part of the search identity
    #: (excluded from comparison) and typically not picklable — strip it
    #: before shipping configs across process boundaries.
    should_stop: Optional[Callable[[], bool]] = field(
        default=None, repr=False, compare=False)


@dataclass
class MoveCounters:
    """Per-move-type tallies of one improvement run."""

    attempts: int = 0   # times the move type was drawn
    applies: int = 0    # times it mutated the binding
    accepts: int = 0    # applications kept (downhill or uphill budget)
    rollbacks: int = 0  # applications reverted
    uphill: int = 0     # accepts that consumed uphill budget

    def to_dict(self) -> Dict[str, int]:
        return {"attempts": self.attempts, "applies": self.applies,
                "accepts": self.accepts, "rollbacks": self.rollbacks,
                "uphill": self.uphill}

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "MoveCounters":
        return cls(**data)


def _cost_to_dict(cost: Optional[CostBreakdown]) -> Optional[Dict[str, Any]]:
    if cost is None:
        return None
    return {"fu_count": cost.fu_count, "fu_area": cost.fu_area,
            "register_count": cost.register_count,
            "mux_count": cost.mux_count, "wire_count": cost.wire_count,
            "mux_depth": cost.mux_depth, "weights": cost.weights.to_dict()}


def _cost_from_dict(data: Optional[Dict[str, Any]]) \
        -> Optional[CostBreakdown]:
    if data is None:
        return None
    return CostBreakdown(
        fu_count=data["fu_count"], fu_area=data["fu_area"],
        register_count=data["register_count"],
        mux_count=data["mux_count"], wire_count=data["wire_count"],
        mux_depth=data.get("mux_depth", 0),
        weights=CostWeights(**data["weights"]))


@dataclass
class ImproveStats:
    """Search telemetry returned by :func:`improve`."""

    trials_run: int = 0
    moves_attempted: int = 0
    moves_applied: int = 0
    moves_accepted: int = 0
    uphill_accepted: int = 0
    initial_cost: Optional[CostBreakdown] = None
    final_cost: Optional[CostBreakdown] = None
    per_move_accepts: Dict[str, int] = field(default_factory=dict)
    cost_trace: List[float] = field(default_factory=list)
    # -------------------------------------------------- extended telemetry
    #: per-move-type attempt/apply/accept/rollback/uphill counters
    per_move: Dict[str, MoveCounters] = field(default_factory=dict)
    #: wall-clock seconds of each trial (polish included)
    trial_seconds: List[float] = field(default_factory=list)
    #: uphill acceptances consumed by each trial (budget usage)
    uphill_used: List[int] = field(default_factory=list)
    #: ``(move_attempt_index, best_total)`` every time the best improves;
    #: index 0 is the starting point (after the initial polish, if any)
    best_trace: List[Tuple[int, float]] = field(default_factory=list)
    #: total wall-clock seconds of the run
    seconds: float = 0.0
    #: the integer seed the run used, when one was given (for replay)
    seed: Optional[int] = None
    #: sampled per-phase nanosecond totals (``ImproveConfig.profile_every``)
    phase_ns: Dict[str, int] = field(default_factory=dict)
    #: number of samples behind each ``phase_ns`` total
    phase_samples: Dict[str, int] = field(default_factory=dict)
    #: True when the run was cut short by ``ImproveConfig.should_stop``
    #: (deadline or cancellation) rather than by convergence or trial cap
    stopped_early: bool = False

    def add_phase(self, phase: str, elapsed_ns: int) -> None:
        """Accumulate one ``perf_counter_ns`` sample for *phase*."""
        self.phase_ns[phase] = self.phase_ns.get(phase, 0) + elapsed_ns
        self.phase_samples[phase] = self.phase_samples.get(phase, 0) + 1

    def summary(self) -> str:
        initial = self.initial_cost.total if self.initial_cost else float("nan")
        final = self.final_cost.total if self.final_cost else float("nan")
        return (f"improve: {self.trials_run} trials, "
                f"{self.moves_attempted} attempts, "
                f"{self.moves_accepted} accepted "
                f"({self.uphill_accepted} uphill); cost {initial:.1f} -> "
                f"{final:.1f} in {self.seconds:.2f}s")

    # ------------------------------------------------------- serialization

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trials_run": self.trials_run,
            "moves_attempted": self.moves_attempted,
            "moves_applied": self.moves_applied,
            "moves_accepted": self.moves_accepted,
            "uphill_accepted": self.uphill_accepted,
            "initial_cost": _cost_to_dict(self.initial_cost),
            "final_cost": _cost_to_dict(self.final_cost),
            "per_move_accepts": dict(self.per_move_accepts),
            "cost_trace": list(self.cost_trace),
            "per_move": {name: c.to_dict()
                         for name, c in sorted(self.per_move.items())},
            "trial_seconds": list(self.trial_seconds),
            "uphill_used": list(self.uphill_used),
            "best_trace": [[index, total]
                           for index, total in self.best_trace],
            "seconds": self.seconds,
            "seed": self.seed,
            "phase_ns": dict(self.phase_ns),
            "phase_samples": dict(self.phase_samples),
            "stopped_early": self.stopped_early,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ImproveStats":
        # telemetry fields added after the first release fall back to the
        # dataclass defaults, so stats JSON written by older versions (or
        # hand-trimmed fixtures) still loads
        return cls(
            trials_run=data["trials_run"],
            moves_attempted=data["moves_attempted"],
            moves_applied=data["moves_applied"],
            moves_accepted=data["moves_accepted"],
            uphill_accepted=data["uphill_accepted"],
            initial_cost=_cost_from_dict(data["initial_cost"]),
            final_cost=_cost_from_dict(data["final_cost"]),
            per_move_accepts=dict(data["per_move_accepts"]),
            cost_trace=list(data["cost_trace"]),
            per_move={name: MoveCounters.from_dict(c)
                      for name, c in data.get("per_move", {}).items()},
            trial_seconds=list(data.get("trial_seconds", [])),
            uphill_used=list(data.get("uphill_used", [])),
            best_trace=[(index, total)
                        for index, total in data.get("best_trace", [])],
            seconds=data.get("seconds", 0.0),
            seed=data.get("seed"),
            phase_ns=dict(data.get("phase_ns", {})),
            phase_samples=dict(data.get("phase_samples", {})),
            stopped_early=data.get("stopped_early", False),
        )


class MoveLoop:
    """The randomized move loop of both engines.  An engine brackets each
    trial (an annealing level) with :meth:`trial`, runs its moves with
    :meth:`moves` and ends with :meth:`finish`."""

    def __init__(self, binding: Binding, config: Any, engine: str,
                 profile_every: int = 0) -> None:
        self.started = time.perf_counter()
        self.binding = binding
        self.config = config
        self.profile_every = profile_every
        self.rng = make_rng(config.seed)
        moves = config.move_set.enabled_moves()
        if not moves:
            raise ValueError("no moves enabled")
        self.chooser = WeightedChooser([m[0] for m in moves],
                                       [m[2] for m in moves])
        self.fns = {m[0]: m[1] for m in moves}
        self.stats = ImproveStats()
        if isinstance(config.seed, int):
            self.stats.seed = config.seed
        self.sanitizer = make_sanitizer(
            binding, config.sanitize, config.sanitize_every,
            context=f"{engine}(seed={config.seed!r})")
        self.stats.initial_cost = binding.cost()
        self.current = self.stats.initial_cost.total
        self.best = math.inf

    def check(self) -> None:
        """Run the sanitizer's full check, when the sanitizer is on."""
        if self.sanitizer is not None:
            self.sanitizer.check()

    def start(self) -> None:
        """Check the current state and record it as the first best."""
        self.check()
        self.settle(self.current, 0)

    def settle(self, cost: float, index: int) -> bool:
        """Make *cost* the current cost; True (and a snapshot of the
        binding) when it beats the best by more than the tolerance."""
        self.current = cost
        if cost < self.best - 1e-9:
            self.best = cost
            self.best_snapshot = self.binding.clone_state()
            self.stats.best_trace.append((index, cost))
            return True
        return False

    def restore_best(self) -> None:
        """Return the binding to the best state seen so far."""
        tick = time.perf_counter_ns()
        self.binding.restore_state(self.best_snapshot)
        if self.profile_every:
            self.stats.add_phase("restore", time.perf_counter_ns() - tick)
        self.current = self.best

    @contextmanager
    def trial(self) -> Iterator[None]:
        """Bracket one trial: its cost, uphill use and wall-clock cover
        everything the engine does inside the ``with`` block."""
        stats = self.stats
        started = time.perf_counter()
        stats.trials_run += 1
        uphill_before = stats.uphill_accepted
        yield
        stats.cost_trace.append(self.current)
        stats.uphill_used.append(stats.uphill_accepted - uphill_before)
        stats.trial_seconds.append(time.perf_counter() - started)

    def moves(self, count: int,
              accept_uphill: Callable[[float], bool]) -> bool:
        """Attempt up to *count* random moves.  A move that does not raise
        the cost is kept; one that does is kept only when *accept_uphill*
        (called with its Δcost > 0) says so.  Stops early, setting
        ``stats.stopped_early``, when ``config.should_stop`` fires.
        Returns whether the best cost improved."""
        binding = self.binding
        rng = self.rng
        stats = self.stats
        sanitizer = self.sanitizer
        fns = self.fns
        profile_every = self.profile_every
        # hot-loop locals: the loop runs tens of thousands of times per
        # second, so attribute lookups on these are hoisted out of it
        should_stop = self.config.should_stop
        choose = self.chooser.choose
        begin_move = binding.begin_move
        commit_move = binding.commit_move
        abort_move = binding.abort_move
        total_cost = binding.total_cost
        settle = self.settle
        counters_map = stats.per_move
        current = self.current
        attempted = stats.moves_attempted
        improved = False
        for _ in range(count):
            if should_stop is not None and should_stop():
                stats.stopped_early = True
                break
            attempted += 1
            sampled = profile_every and attempted % profile_every == 0
            name = choose(rng)
            counters = counters_map.get(name)
            if counters is None:
                counters = counters_map[name] = MoveCounters()
            counters.attempts += 1
            if sanitizer is not None:
                sanitizer.pre_move(name, attempted)
            begin_move()
            if sampled:
                tick = time.perf_counter_ns()
                applied = fns[name](binding, rng)
                stats.add_phase("propose", time.perf_counter_ns() - tick)
            else:
                applied = fns[name](binding, rng)
            if not applied:
                commit_move()  # the move wrote nothing
                continue
            counters.applies += 1
            if sampled:
                tick = time.perf_counter_ns()
            new_cost = total_cost()
            if sampled:
                stats.add_phase("evaluate", time.perf_counter_ns() - tick)
            if new_cost > current:
                if not accept_uphill(new_cost - current):
                    counters.rollbacks += 1
                    if sampled:
                        tick = time.perf_counter_ns()
                        abort_move()
                        stats.add_phase("rollback",
                                        time.perf_counter_ns() - tick)
                    else:
                        abort_move()
                    if sanitizer is not None:
                        sanitizer.after_rollback(name, attempted)
                    continue
                stats.uphill_accepted += 1
                counters.uphill += 1
            commit_move()
            counters.accepts += 1
            current = new_cost
            if settle(current, attempted):
                improved = True
            if sanitizer is not None:
                sanitizer.after_accept(name, attempted)
        stats.moves_attempted = attempted
        self.current = current
        return improved

    def finish(self) -> ImproveStats:
        """Fill in the derived totals, restore the best state and return
        the stats."""
        stats = self.stats
        # the aggregate tallies are derivable from the per-move counters,
        # so the move loop maintains only the latter
        counters = stats.per_move
        stats.moves_applied = sum(c.applies for c in counters.values())
        stats.moves_accepted = sum(c.accepts for c in counters.values())
        stats.per_move_accepts = {name: c.accepts
                                  for name, c in sorted(counters.items())
                                  if c.accepts}
        self.binding.restore_state(self.best_snapshot)
        self.check()
        stats.final_cost = self.binding.cost()
        stats.seconds = time.perf_counter() - self.started
        return stats


def improve(binding: Binding,
            config: Optional[ImproveConfig] = None) -> ImproveStats:
    """Run iterative improvement in place; the binding ends at the best
    allocation found."""
    if config is None:
        config = ImproveConfig()
    loop = MoveLoop(binding, config, "improve", config.profile_every)
    if config.polish_trials:
        loop.current = polish(binding, config.move_set)
    loop.start()
    stats = loop.stats
    uphill_left = 0

    def spend_uphill(_delta: float) -> bool:
        nonlocal uphill_left
        if uphill_left > 0:
            uphill_left -= 1
            return True
        return False

    idle_trials = 0
    for trial in range(config.max_trials):
        uphill_left = config.uphill_per_trial
        with loop.trial():
            if config.restore_churn > 0 and trial % config.restore_churn == 0:
                churn_snap = binding.clone_state()
                binding.restore_state(loop.best_snapshot)
                binding.restore_state(churn_snap)
                loop.check()
            if config.restart_from_best and loop.current > loop.best + 1e-9:
                loop.restore_best()
            improved = loop.moves(config.moves_per_trial, spend_uphill)
            # a trial cut short skips its polish
            if config.polish_trials and not stats.stopped_early:
                if loop.settle(polish(binding, config.move_set),
                               stats.moves_attempted):
                    improved = True
        if stats.stopped_early:
            break
        if improved:
            idle_trials = 0
        else:
            idle_trials += 1
            if idle_trials >= config.idle_trials_stop:
                break
    return loop.finish()
