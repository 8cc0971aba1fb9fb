"""Parallel multi-restart search engine.

The paper leans on multiple random restarts ("multiple trials are
sometimes necessary to find the best result", Sec. 5) and every restart is
independent, so the restart loop is the natural seam to parallelize.  This
module is that seam:

* a :class:`RestartJob` is a self-contained, picklable description of one
  restart: the schedule, hardware, and the ordered improvement configs to
  run (e.g. the traditional warm-start pass followed by the full extended
  search), each carrying its own pre-derived child seed;
* :func:`run_restart` executes one job — rebuild the deterministic initial
  allocation, run the configured search passes (iterative improvement, or
  the Sec. 4 annealing ablation), and return only the compact
  :class:`RestartOutcome` (decision-state snapshot, cost, telemetry) so no
  live :class:`~repro.core.binding.Binding` ever crosses a process
  boundary;
* :func:`run_restarts` fans jobs out over a
  :class:`concurrent.futures.ProcessPoolExecutor` (fork start method),
  falling back to a deterministic in-process loop for ``workers=1``, for
  platforms without fork, or when a pool cannot be created.

Because a job's outcome is a pure function of its content (seeds come from
an explicit :class:`repro.rng.SeedStream`, never shared RNG state), the
results — and the winner picked by :func:`best_outcome` — are bit-identical
for any worker count.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, \
    Tuple, Union

from repro.errors import AllocationError
from repro.datapath.cost import CostBreakdown, CostWeights
from repro.datapath.units import FU, Register
from repro.sched.schedule import Schedule
from repro.core.anneal import AnnealConfig, anneal
from repro.core.binding import Binding
from repro.core.improve import ImproveConfig, ImproveStats, improve
from repro.core.initial import initial_allocation

logger = logging.getLogger(__name__)


class StopSignal:
    """A picklable cooperative stop condition, usable in any worker.

    A live ``should_stop`` closure cannot cross a process boundary (it
    must observe its caller's state); this one can, so the service uses
    it for thread and process workers alike:

    * ``deadline`` — an absolute :func:`time.monotonic` instant.  With the
      fork start method on Linux ``CLOCK_MONOTONIC`` is system-wide, so a
      deadline computed in the parent is directly comparable in a child;
    * ``flag_path`` — a sentinel file whose *existence* means "stop now".
      The parent signals cancellation by creating the file (see
      ``repro.service.jobs``); existence checks are throttled to one
      ``stat`` every ``check_every`` calls so the per-move cost stays in
      the nanoseconds.

    Once either condition trips the signal latches: every later call
    returns True without touching the clock or the filesystem again.
    """

    __slots__ = ("deadline", "flag_path", "check_every", "_calls",
                 "_tripped")

    def __init__(self, deadline: Optional[float] = None,
                 flag_path: Optional[str] = None,
                 check_every: int = 32) -> None:
        self.deadline = deadline
        self.flag_path = flag_path
        self.check_every = max(1, check_every)
        self._calls = 0
        self._tripped = False

    def __call__(self) -> bool:
        if self._tripped:
            return True
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self._tripped = True
            return True
        if self.flag_path is not None:
            self._calls += 1
            if self._calls >= self.check_every:
                self._calls = 0
                if os.path.exists(self.flag_path):
                    self._tripped = True
                    return True
        return False

    def __getstate__(self) -> Dict[str, Any]:
        # the latch and throttle counter are per-process scratch state
        return {"deadline": self.deadline, "flag_path": self.flag_path,
                "check_every": self.check_every}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.deadline = state["deadline"]
        self.flag_path = state["flag_path"]
        self.check_every = state["check_every"]
        self._calls = 0
        self._tripped = False


def is_process_safe_callback(callback: Optional[object]) -> bool:
    """True when a ``should_stop`` value may cross a process boundary."""
    return callback is None or isinstance(callback, StopSignal)


@dataclass(frozen=True)
class RestartJob:
    """Everything one worker needs to run one independent restart."""

    index: int
    schedule: Schedule
    fus: Tuple[FU, ...]
    regs: Tuple[Register, ...]
    #: search passes run back-to-back on the same binding, in order; each
    #: config carries its own independent child seed and picks its engine
    #: by type (:func:`improve` or, for an ``AnnealConfig``, :func:`anneal`)
    configs: Tuple[Union[ImproveConfig, AnnealConfig], ...]
    weights: CostWeights = CostWeights()
    allow_split: bool = True
    #: optional decision-state snapshot (``Binding.clone_state``, or
    #: ``state_from_dict`` of a binding document's decision sections) the
    #: restart starts from instead of the constructive initial
    #: allocation, loaded with :meth:`Binding.from_state` — the
    #: warm-start seam used by
    #: ``repro.service`` to reuse a cached allocation of the same problem
    #: shape.  A :class:`~repro.core.snapshot.BindingState` pickles as its
    #: six decision dicts, without its derived state.
    warm_state: Optional[Mapping[str, object]] = None


@dataclass
class RestartOutcome:
    """What one restart sends back to the parent process."""

    index: int
    #: :meth:`Binding.clone_state` snapshot of the restart's best binding
    state: Mapping[str, object]
    cost: CostBreakdown
    stats: List[ImproveStats] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def moves_per_sec(self) -> float:
        """Search throughput of this restart (0.0 when untimed)."""
        if self.seconds <= 0.0:
            return 0.0
        attempted = sum(s.moves_attempted for s in self.stats)
        return attempted / self.seconds


def run_restart(job: RestartJob) -> RestartOutcome:
    """Execute one restart job (used directly and as the pool worker)."""
    started = time.perf_counter()
    if job.warm_state is None:
        binding = initial_allocation(job.schedule, list(job.fus),
                                     list(job.regs), weights=job.weights,
                                     allow_split=job.allow_split)
    else:
        binding = Binding.from_state(job.schedule, list(job.fus),
                                     list(job.regs), job.warm_state,
                                     job.weights)
    stats = [anneal(binding, config) if isinstance(config, AnnealConfig)
             else improve(binding, config) for config in job.configs]
    return RestartOutcome(index=job.index, state=binding.clone_state(),
                          cost=binding.cost(), stats=stats,
                          seconds=time.perf_counter() - started)


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The fork start method, or ``None`` where it is unavailable.

    Fork keeps workers cheap (no re-import of the package per job) and is
    the only start method that works from interactive ``__main__`` scripts
    without an import guard; platforms without it (Windows, some sandboxes)
    use the deterministic in-process path instead.
    """
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
    except (ValueError, OSError) as exc:
        # ValueError: the interpreter build does not know the method;
        # OSError: locked-down sandboxes where querying process start
        # methods is itself forbidden.  Anything else is a real bug and
        # must surface, not silently degrade to the serial path.
        logger.warning("fork start method unavailable (%s); "
                       "restarts will run in-process", exc)
    return None


def run_restarts(jobs: Iterable[RestartJob],
                 workers: int = 1) -> List[RestartOutcome]:
    """Run every job and return outcomes in job order.

    ``workers=1`` (or a single job, or no usable fork context) runs
    in-process; anything else fans out over a process pool.  Either path
    produces identical outcomes because each job is self-contained.
    """
    job_list = list(jobs)
    workers = max(1, int(workers))
    context = _fork_context()
    # a live should_stop callback (deadline/cancellation closure) must keep
    # observing its caller's state, so those jobs never cross a process
    # boundary — the serial path runs them in-process.  A picklable
    # :class:`StopSignal` carries its own deadline/flag-file condition and
    # is explicitly process-safe.
    has_callback = any(not is_process_safe_callback(config.should_stop)
                       for job in job_list for config in job.configs)
    if (workers == 1 or len(job_list) <= 1 or context is None
            or has_callback):
        return [run_restart(job) for job in job_list]
    try:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(job_list)),
                                   mp_context=context)
    except (OSError, RuntimeError, PermissionError) as exc:
        # pool creation can fail in constrained environments (no /dev/shm,
        # process limits); the serial path computes the same result
        logger.warning("process pool unavailable (%s: %s); running %d "
                       "restart(s) in-process", type(exc).__name__, exc,
                       len(job_list))
        return [run_restart(job) for job in job_list]
    with pool:
        try:
            return list(pool.map(run_restart, job_list))
        except BrokenExecutor:
            # pool *infrastructure* died mid-run (a worker OOM-killed or
            # terminated by the platform) — recompute serially, the
            # outcome is identical.  A worker raising an ordinary
            # exception is NOT caught here: that is a bug in the search
            # itself and propagates to the caller with the worker's
            # traceback attached (concurrent.futures chains it as
            # __cause__), instead of being silently swallowed by a
            # serial re-run.
            logger.warning("process pool broke mid-run; recomputing %d "
                           "restart(s) in-process", len(job_list),
                           exc_info=True)
            return [run_restart(job) for job in job_list]


def best_outcome(outcomes: Sequence[RestartOutcome]) -> RestartOutcome:
    """The winning restart: lowest total cost, earliest index on ties.

    The index tie-break makes the winner independent of completion order,
    which keeps multi-worker runs bit-identical to serial ones.
    """
    if not outcomes:
        raise AllocationError("no restart outcomes to choose from")
    return min(outcomes, key=lambda o: (o.cost.total, o.index))


def rebuild_binding(job: RestartJob, outcome: RestartOutcome) -> Binding:
    """Materialize a full :class:`Binding` from a restart outcome."""
    return Binding.from_state(job.schedule, list(job.fus), list(job.regs),
                              outcome.state, job.weights)
