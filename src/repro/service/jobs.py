"""Async job orchestration over the allocation engines.

A :class:`JobManager` owns a bounded FIFO queue, a small pool of
orchestrator *threads*, and one shared restart executor the orchestrators
fan restart jobs out to.  The worker mode only picks that executor: a
fork-based :class:`~concurrent.futures.ProcessPoolExecutor` in
``worker_mode="process"`` (the default for the served stack: one
CPU-bound search no longer starves the node), or an in-process
:class:`~concurrent.futures.ThreadPoolExecutor` in ``"thread"`` mode (for
embedding and for platforms without the fork start method).

Each job runs the restarts of one
:class:`~repro.service.codec.AllocateRequest` through
:func:`repro.core.parallel.run_restart` — iterative improvement, or one
annealing pass per restart for ``engine="anneal"`` — and ends in exactly
one of:

* **done** — full-fidelity result, written through to the exact-key cache;
* **done, degraded** — the deadline fired mid-search: the response is the
  checker-validated best-so-far binding plus telemetry, marked
  ``degraded: true`` and *not* cached (a later undeadlined request must
  not inherit a truncated answer);
* **cancelled** — every coalesced waiter gave up; nothing is returned or
  cached;
* **failed** — a fatal error, or a retryable one that survived
  ``max_attempts`` attempts.

Cancellation and deadlines reach a running restart through a picklable
:class:`~repro.core.parallel.StopSignal` in both modes: the deadline is
an absolute monotonic instant (system-wide under fork), and cancellation
is a per-job sentinel *flag file* the manager touches — the search's
cooperative ``should_stop`` check stats it every few dozen moves.  All
duration/latency figures (queue age, run seconds) are computed from
``time.monotonic()`` stamps; the wall-clock
``submitted_at``/``started_at``/``finished_at`` fields exist only for
display and are never subtracted from one another.

Duplicate in-flight submissions coalesce onto one job and are
*refcounted*: a cancel detaches one waiter, and only the last waiter's
cancel stops the underlying search.

Each orchestrator claims one job at a time, so a job blocked in its
search never holds a queued job back while another orchestrator is idle.
Jobs of one problem shape share a memoized schedule resolution.

Retry policy rides on :mod:`repro.verify.classify`.  A transient fault
(``OSError``, ``MemoryError``, a broken worker pool) is retried with the
request's own seed, so the retry computes the answer a clean run would
and that answer is cached under the exact key.  A
:class:`~repro.verify.sanitizer.SanitizerError` is retried with a fresh
seed (derived via :class:`repro.rng.SeedStream`, never reusing the failed
trajectory); that answer is not the one the request's seed names, so,
like a degraded one, it stays out of the exact-key cache.  Deterministic
:class:`~repro.errors.ReproError`\\ s fail immediately.

Warm starts: every successful job publishes its winning decision-state
snapshot under ``warm_<shape-key>``; a request with ``warm_start: true``
whose exact key misses but whose shape key hits starts every restart from
that snapshot (``Binding.from_state``) instead of the constructive initial
allocation.  Warm-started results are themselves kept out of the
exact-key cache, because their content depends on what happened to be in
the warm store.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, Executor, Future, \
    ProcessPoolExecutor, ThreadPoolExecutor, wait as wait_futures
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.errors import ReproError
from repro.alloc.checker import assert_legal
from repro.core.allocator import SalsaAllocator, TraditionalAllocator
from repro.core.anneal import AnnealConfig
from repro.core.improve import ImproveConfig, ImproveStats
from repro.core.moves import MoveSet
from repro.core.parallel import (RestartJob, RestartOutcome, StopSignal,
                                 _fork_context, best_outcome,
                                 rebuild_binding, run_restart)
from repro.rng import SeedStream
from repro.sched.schedule import Schedule
from repro.io.json_io import binding_to_dict, canonical_dumps
from repro.verify.classify import is_retryable
from repro.verify.sanitizer import SanitizerError, decode_state, \
    encode_state
from repro.analysis.stats import telemetry_report
from repro.service.cache import TieredCache
from repro.service.codec import (AllocateRequest, job_id_for, request_key,
                                 warm_key)
from repro.service.metrics import MetricsRegistry

#: job states
QUEUED, RUNNING, DONE, FAILED, CANCELLED = \
    "queued", "running", "done", "failed", "cancelled"

#: worker execution modes
THREAD_MODE, PROCESS_MODE = "thread", "process"

#: every job's propose/evaluate/rollback sampling density, fed into the
#: per-phase latency histograms (sampling never changes search results,
#: only telemetry)
DEFAULT_PROFILE_EVERY = 64

#: completed jobs retained for GET /jobs/<id> after they finish
RETAINED_JOBS = 1024

#: memoized schedule resolutions kept per manager (keyed by shape key)
SCHEDULE_MEMO_SIZE = 32

#: format marker of a warm-store snapshot; a blob with any other marker
#: (or none) is a cold start
WARM_FORMAT = "binding-state-v2"


class QueueFullError(ReproError):
    """The job queue is at capacity; the caller should back off."""


class JobNotFoundError(ReproError):
    """No job with the requested ID (expired or never submitted)."""


def resolve_worker_mode(mode: str) -> str:
    """Validate a worker mode; process mode falls back where fork is
    unavailable (Windows, some sandboxes) so the manager always starts."""
    if mode not in (THREAD_MODE, PROCESS_MODE):
        raise ValueError(f"unknown worker mode {mode!r} "
                         f"(expected {THREAD_MODE!r} or {PROCESS_MODE!r})")
    if mode == PROCESS_MODE and _fork_context() is None:
        return THREAD_MODE
    return mode


@dataclass
class Job:
    """One submitted allocation request and its lifecycle."""

    id: str
    key: str
    shape_key: str
    request: AllocateRequest
    status: str = QUEUED
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None
    attempts: int = 0
    #: coalesced submissions currently waiting on this job; the underlying
    #: search is only cancelled when the *last* waiter cancels
    waiters: int = 1
    # wall-clock stamps, for display only — durations must never be
    # derived from these (a clock step makes them negative or jumpy)
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    # monotonic stamps — the only clock durations are computed from
    submitted_mono: float = field(default_factory=time.monotonic)
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    #: absolute monotonic deadline of the current execution (None when the
    #: request carries no ``deadline_ms``)
    deadline_mono: Optional[float] = None
    done_event: threading.Event = field(default_factory=threading.Event)
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: warm snapshot of the winning state (``encode_state`` under
    #: :data:`WARM_FORMAT`, as canonical JSON), published to the warm
    #: store when the job finishes; internal, never in ``describe()``
    warm_payload: Optional[bytes] = field(default=None, repr=False)

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.done_event.wait(timeout)

    def queue_seconds(self) -> Optional[float]:
        """Monotonic queue age (``None`` until the job starts)."""
        if self.started_mono is None:
            return None
        return max(0.0, self.started_mono - self.submitted_mono)

    def run_seconds(self) -> Optional[float]:
        """Monotonic execution time so far (``None`` until it starts)."""
        if self.started_mono is None:
            return None
        end = self.finished_mono if self.finished_mono is not None \
            else time.monotonic()
        return max(0.0, end - self.started_mono)

    def describe(self) -> Dict[str, Any]:
        """JSON-able job status (without the result payload)."""
        return {
            "job_id": self.id,
            "key": self.key,
            "status": self.status,
            "attempts": self.attempts,
            "waiters": self.waiters,
            "error": self.error,
            "error_kind": self.error_kind,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_seconds": self.queue_seconds(),
            "run_seconds": self.run_seconds(),
        }


class JobManager:
    """Bounded-queue executor for allocation requests.

    The orchestrator threads are dispatchers: each submits a job's
    restarts to one shared executor and collects the futures, cancelling
    pending ones on cancel or deadline.  ``worker_mode`` only chooses that
    executor (see :meth:`_new_pool`); deadlines and cancellation reach the
    running restarts as a :class:`~repro.core.parallel.StopSignal` either
    way.
    """

    def __init__(self, cache: Optional[TieredCache] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 workers: int = 2, queue_limit: int = 64,
                 max_attempts: int = 3,
                 worker_mode: str = THREAD_MODE) -> None:
        self.cache = cache
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_attempts = max(1, max_attempts)
        self.queue_limit = max(1, queue_limit)
        self.workers = max(1, workers)
        self.worker_mode = resolve_worker_mode(worker_mode)

        self._lock = threading.Lock()
        self._queue: List[Job] = []
        self._work = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []  # insertion order, for pruning
        self._shutdown = False
        self._schedule_memo: "OrderedDict[str, Schedule]" = OrderedDict()

        self._pool_lock = threading.Lock()
        self._signal_dir = tempfile.mkdtemp(prefix="repro-service-stop-")
        # a fork-context process pool forks no worker when it is built
        # here: it forks all of them at its first submit, which comes from
        # an orchestrator thread (_dispatch_restarts), and _ensure_pool
        # builds any replacement pool from an orchestrator thread too, so
        # workers are forked from a multi-threaded process
        self._pool: Optional[Executor] = self._new_pool()

        m = self.metrics
        self._submitted = m.counter("jobs_submitted", "requests accepted")
        self._coalesced = m.counter(
            "jobs_coalesced", "submissions attached to an in-flight job")
        self._rejected = m.counter(
            "jobs_rejected", "submissions refused by the full queue")
        self._completed = m.counter("jobs_completed", "jobs finished done")
        self._failed = m.counter("jobs_failed", "jobs finished failed")
        self._cancelled = m.counter("jobs_cancelled", "jobs cancelled")
        self._cancel_detached = m.counter(
            "jobs_cancel_detached",
            "coalesced waiters that gave up while others kept waiting")
        self._retried = m.counter(
            "jobs_retried", "retries after retryable failures")
        self._degraded = m.counter(
            "jobs_degraded", "jobs that returned best-so-far on deadline")
        self._warm = m.counter(
            "jobs_warm_started", "jobs seeded from a cached shape snapshot")
        self._memo_hits = m.counter(
            "schedule_memo_hits",
            "jobs that reused a memoized schedule resolution")
        self._queue_depth = m.gauge("queue_depth", "jobs waiting to run")
        self._in_flight = m.gauge("jobs_in_flight", "jobs currently running")
        self._job_seconds = m.histogram(
            "job_seconds", "monotonic seconds per executed job")
        self._queue_seconds = m.histogram(
            "queue_seconds", "monotonic seconds a job waited in the queue")
        self._clock_ns = m.histogram(
            "clock_period_ns",
            "analyzed critical-path clock period of delivered bindings (ns)",
            buckets=(1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.5, 10.0))

        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-service-worker-{index}",
                             daemon=True)
            for index in range(self.workers)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------ lifecycle

    def submit(self, request: AllocateRequest) \
            -> Tuple[Job, Optional[bytes]]:
        """Queue a request; returns ``(job, cached_payload)``.

        When the exact key is already cached the returned job is a
        synthetic already-done record and ``cached_payload`` holds the
        byte-identical stored result; nothing is queued.
        """
        key = request_key(request)
        job_id = job_id_for(key)
        if self.cache is not None and request.cache_ok:
            cached = self.cache.get(key)
            if cached is not None:
                job = Job(id=job_id, key=key, shape_key=warm_key(request),
                          request=request, status=DONE)
                job.finished_at = job.started_at = job.submitted_at
                job.finished_mono = job.started_mono = job.submitted_mono
                job.done_event.set()
                with self._lock:
                    self._remember(job)
                return job, cached

        with self._lock:
            if self._shutdown:
                raise QueueFullError("job manager is shut down")
            existing = self._jobs.get(job_id)
            if existing is not None and existing.status in (QUEUED, RUNNING):
                existing.waiters += 1
                self._coalesced.inc()
                return existing, None
            if len(self._queue) >= self.queue_limit:
                self._rejected.inc()
                raise QueueFullError(
                    f"queue is full ({self.queue_limit} jobs waiting)")
            job = Job(id=job_id, key=key, shape_key=warm_key(request),
                      request=request)
            self._remember(job)
            self._queue.append(job)
            self._queue_depth.set(len(self._queue))
            self._submitted.inc()
            self._work.notify()
        return job, None

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no job {job_id!r}")
        return job

    def cancel(self, job_id: str) -> Job:
        """Detach one waiter; cancel the job when it was the last one.

        Duplicate submissions coalesce onto a single job, so one client's
        cancel must not kill every other waiter's request: the job is only
        cancelled when its waiter refcount reaches zero.  No-op once the
        job finished.
        """
        job = self.get(job_id)
        with self._lock:
            if job.status not in (QUEUED, RUNNING):
                return job
            if job.waiters > 1:
                job.waiters -= 1
                self._cancel_detached.inc()
                return job
            job.waiters = 0
            if job.status == QUEUED and job in self._queue:
                # the queued path must latch cancel_event too: duplicate
                # submissions still coalesce onto this job until _finish
                # publishes its terminal state, and waiters (plus the
                # coalesced-cancel refcount logic) read the event to tell
                # "cancelled for real" from "merely detached"
                job.cancel_event.set()
                self._queue.remove(job)
                self._queue_depth.set(len(self._queue))
                self._finish(job, CANCELLED)
                return job
        job.cancel_event.set()
        # wake running restarts promptly; the orchestrator re-touches
        # the flag in its wait loop, so this is belt-and-braces
        self._signal_stop(job)
        return job

    def shutdown(self, wait: bool = True, timeout: float = 10.0) -> None:
        with self._lock:
            self._shutdown = True
            for job in self._queue:
                self._finish(job, CANCELLED)
            self._queue.clear()
            self._queue_depth.set(0)
            self._work.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=timeout)
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)
        shutil.rmtree(self._signal_dir, ignore_errors=True)

    # ------------------------------------------------------ restart dispatch

    def _flag_path(self, job: Job) -> str:
        return os.path.join(self._signal_dir, f"{job.id}.stop")

    def _signal_stop(self, job: Job) -> None:
        """Touch the job's stop flag so running restarts see the cancel."""
        try:
            with open(self._flag_path(job), "wb"):
                pass
        except OSError:
            pass  # the parent-side checks still stop the orchestrator

    def _clear_stop(self, job: Job) -> None:
        try:
            os.unlink(self._flag_path(job))
        except OSError:
            pass

    def _new_pool(self) -> Executor:
        """The restart executor: the only place the worker mode matters."""
        if self.worker_mode == PROCESS_MODE:
            return ProcessPoolExecutor(max_workers=self.workers,
                                       mp_context=_fork_context())
        return ThreadPoolExecutor(max_workers=self.workers,
                                  thread_name_prefix="repro-service-restart")

    def _ensure_pool(self) -> Executor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._new_pool()
            return self._pool

    def _discard_pool(self, pool: Executor) -> None:
        """Drop a broken pool so the next attempt gets a fresh one."""
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False)

    def _collect_outcomes(self, job: Job,
                          futures: List["Future[RestartOutcome]"]) \
            -> List[RestartOutcome]:
        """Await pool futures while observing cancel/deadline state.

        On client cancel every pending future is cancelled (no answer is
        owed).  On deadline, pending futures are cancelled *except* the
        first live one, so at least one restart completes and a legal
        degraded best-so-far answer exists; started workers stop
        cooperatively via their :class:`StopSignal`.
        """
        pending: Set["Future[RestartOutcome]"] = set(futures)
        signalled = False
        while pending:
            done, pending = wait_futures(pending, timeout=0.05)
            if not pending:
                break
            if job.cancel_event.is_set():
                if not signalled:
                    self._signal_stop(job)
                    signalled = True
                for future in list(pending):
                    if future.cancel():
                        pending.discard(future)
            elif job.deadline_mono is not None \
                    and time.monotonic() >= job.deadline_mono:
                protected = next(
                    (f for f in futures if not f.cancelled()), None)
                for future in list(pending):
                    if future is not protected and future.cancel():
                        pending.discard(future)
        return [future.result() for future in futures
                if not future.cancelled()]

    def _dispatch_restarts(self, job: Job, restart_jobs: List[RestartJob]) \
            -> List[RestartOutcome]:
        """Submit a job's restarts to the pool and await their outcomes."""
        pool = self._ensure_pool()
        try:
            futures = [pool.submit(run_restart, rjob)
                       for rjob in restart_jobs]
            return self._collect_outcomes(job, futures)
        except BrokenExecutor:
            self._discard_pool(pool)
            raise

    # ------------------------------------------------------------- internals

    def _remember(self, job: Job) -> None:
        # caller holds self._lock
        if job.id not in self._jobs:
            self._order.append(job.id)
        self._jobs[job.id] = job
        while len(self._order) > RETAINED_JOBS:
            oldest = self._order.pop(0)
            stale = self._jobs.get(oldest)
            if stale is not None and stale.status in (QUEUED, RUNNING):
                self._order.append(oldest)  # never drop live jobs
                break
            self._jobs.pop(oldest, None)

    def _finish(self, job: Job, status: str) -> None:
        job.status = status
        job.finished_at = time.time()
        job.finished_mono = time.monotonic()
        self._clear_stop(job)
        if status == DONE:
            self._completed.inc()
        elif status == FAILED:
            self._failed.inc()
        elif status == CANCELLED:
            self._cancelled.inc()
        # last: anyone woken by the event must see final stamps + counters
        job.done_event.set()

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._shutdown:
                    self._work.wait()
                if self._shutdown and not self._queue:
                    return
                job = self._queue.pop(0)
                self._queue_depth.set(len(self._queue))
            job.status = RUNNING
            job.started_at = time.time()
            job.started_mono = time.monotonic()
            self._queue_seconds.observe(job.queue_seconds() or 0.0)
            self._in_flight.inc()
            try:
                self._execute(job)
            finally:
                self._in_flight.dec()

    def _execute(self, job: Job) -> None:
        request = job.request
        started = job.started_mono if job.started_mono is not None \
            else time.monotonic()
        job.deadline_mono = None
        if request.deadline_ms is not None:
            job.deadline_mono = started + request.deadline_ms / 1000.0
        # flags are named by job id, so a cancel that raced an earlier
        # job with this id to its finish may have left one behind
        self._clear_stop(job)
        last_error: Optional[BaseException] = None
        # the retry seed: 0 runs the request's own seed; only a sanitizer
        # trip moves to a fresh one, since its fault is the trajectory
        reseed = 0
        for attempt in range(self.max_attempts):
            if job.cancel_event.is_set():
                self._finish(job, CANCELLED)
                return
            job.attempts = attempt + 1
            try:
                result = self._run_search(job, reseed)
                break
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                if job.cancel_event.is_set():
                    # the search unwound because the last waiter gave up;
                    # whatever it threw on the way out is not an error
                    self._finish(job, CANCELLED)
                    self._job_seconds.observe(time.monotonic() - started)
                    return
                last_error = exc
                out_of_time = job.deadline_mono is not None and \
                    time.monotonic() >= job.deadline_mono
                if (is_retryable(exc) and attempt + 1 < self.max_attempts
                        and not out_of_time):
                    self._retried.inc()
                    if isinstance(exc, SanitizerError):
                        reseed = attempt + 1
                    continue
                job.error = f"{type(exc).__name__}: {exc}"
                job.error_kind = type(exc).__name__
                self._finish(job, FAILED)
                self._job_seconds.observe(time.monotonic() - started)
                return
        else:  # pragma: no cover - loop always breaks or returns
            raise AssertionError(f"retry loop fell through: {last_error}")

        if job.cancel_event.is_set():
            self._finish(job, CANCELLED)
            self._job_seconds.observe(time.monotonic() - started)
            return

        job.result = result
        self._observe_phases(result)
        if result["degraded"]:
            self._degraded.inc()
        if self.cache is not None and request.cache_ok:
            # degraded/warm-started/reseeded answers depend on the
            # deadline, on whatever the warm store held or on a seed the
            # request did not name — only full-fidelity results are
            # publishable under the exact key
            if not (result["degraded"] or result["warm_started"]
                    or reseed):
                self.cache.put(job.key,
                               canonical_dumps(result).encode("utf-8"))
            # the warm store holds the snapshot _run_search left on the job
            assert job.warm_payload is not None
            self.cache.put("warm_" + job.shape_key, job.warm_payload)
        self._finish(job, DONE)
        self._job_seconds.observe(time.monotonic() - started)

    # ------------------------------------------------------------ the search

    def _allocator(self, request: AllocateRequest, reseed: int):
        seed = request.seed if reseed == 0 else \
            SeedStream(request.seed).child(0xDEAD, reseed)
        config = ImproveConfig(**request.improve)
        if request.model == "traditional":
            return TraditionalAllocator(seed=seed, restarts=request.restarts,
                                        weights=request.weights,
                                        config=config)
        return SalsaAllocator(seed=seed, restarts=request.restarts,
                              weights=request.weights, config=config)

    def _warm_state(self, job: Job) -> Optional[Mapping[str, Any]]:
        if not job.request.warm_start or self.cache is None:
            return None
        payload = self.cache.get("warm_" + job.shape_key)
        if payload is None:
            return None
        try:
            data = json.loads(payload.decode("utf-8"))
            if isinstance(data, dict) and data.get("format") == WARM_FORMAT:
                return decode_state(data["state"])
        except (ValueError, KeyError, TypeError):
            pass
        return None  # torn or foreign snapshot: fall back to a cold start

    def _search_configs(self, request: AllocateRequest, rjob: RestartJob,
                        stop: StopSignal) \
            -> Tuple[Union[ImproveConfig, AnnealConfig], ...]:
        """The passes one restart runs, all stopping on *stop*.

        An anneal request runs a single annealing pass seeded with the
        restart's last improvement seed, over the move set of its model.
        """
        if request.engine == "anneal":
            move_set = MoveSet.traditional() \
                if request.model == "traditional" else MoveSet()
            return (AnnealConfig(move_set=move_set,
                                 seed=rjob.configs[-1].seed,
                                 should_stop=stop, **request.anneal),)
        return tuple(replace(config, should_stop=stop,
                             profile_every=DEFAULT_PROFILE_EVERY)
                     for config in rjob.configs)

    def _memo_schedule(self, shape_key: str) -> Optional[Schedule]:
        with self._lock:
            schedule = self._schedule_memo.get(shape_key)
            if schedule is not None:
                self._schedule_memo.move_to_end(shape_key)
                self._memo_hits.inc()
            return schedule

    def _remember_schedule(self, shape_key: str,
                           schedule: Schedule) -> None:
        with self._lock:
            self._schedule_memo[shape_key] = schedule
            self._schedule_memo.move_to_end(shape_key)
            while len(self._schedule_memo) > SCHEDULE_MEMO_SIZE:
                self._schedule_memo.popitem(last=False)

    def _run_search(self, job: Job, reseed: int) -> Dict[str, Any]:
        request = job.request
        allocator = self._allocator(request, reseed)
        schedule, restart_jobs = allocator.prepare_jobs(
            request.graph, schedule=self._memo_schedule(job.shape_key),
            spec=request.spec, length=request.length,
            fu_counts=request.fu_counts, registers=request.registers)
        self._remember_schedule(job.shape_key, schedule)

        warm_state = self._warm_state(job)
        if warm_state is not None:
            self._warm.inc()

        # one signal per restart: thread workers then share no stop state
        restart_jobs = [
            replace(rjob, warm_state=warm_state,
                    configs=self._search_configs(request, rjob, StopSignal(
                        job.deadline_mono, self._flag_path(job))))
            for rjob in restart_jobs]
        outcomes = self._dispatch_restarts(job, restart_jobs)

        best = best_outcome(outcomes)
        binding = rebuild_binding(restart_jobs[best.index], best)
        # even a degraded best-so-far answer must be a *legal* allocation
        assert_legal(binding)
        best_state = encode_state(binding.clone_state())
        job.warm_payload = canonical_dumps(
            {"format": WARM_FORMAT, "state": best_state}).encode("utf-8")

        all_stats: List[ImproveStats] = \
            [s for outcome in outcomes for s in outcome.stats]
        skipped = len(restart_jobs) - len(outcomes)
        degraded = skipped > 0 or any(s.stopped_early for s in all_stats)

        # timing-aware requests get the analyzed critical path attached;
        # an unmeetable max_clock_ns makes the (legal, best-effort) answer
        # degraded, which also keeps it out of the exact-key cache
        timing: Optional[Dict[str, Any]] = None
        if request.max_clock_ns is not None or request.weights.latency:
            from repro.timing.sta import analyze_binding
            report = analyze_binding(binding)
            timing = {
                "clock_period_ns": round(report.clock_period_ns, 6),
                "mux_depth_max": report.mux_depth_max,
                "critical_step": report.critical_step,
            }
            if request.max_clock_ns is not None:
                timing["max_clock_ns"] = request.max_clock_ns
                if report.clock_period_ns > request.max_clock_ns:
                    timing["clock_met"] = False
                    degraded = True
                else:
                    timing["clock_met"] = True
        result = {
            "key": job.key,
            "engine": request.engine,
            "model": request.model,
            "schedule_label": schedule.label,
            "schedule_length": schedule.length,
            "degraded": degraded,
            "warm_started": warm_state is not None,
            "restarts_requested": len(restart_jobs),
            "restarts_run": len(outcomes),
            "best_restart": best.index,
            "cost": self._cost_to_dict(best.cost),
            "binding": binding_to_dict(binding),
            "best_state": best_state,
            "telemetry": telemetry_report(all_stats),
            "search_seconds": sum(o.seconds for o in outcomes),
        }
        if timing is not None:
            result["timing"] = timing
        return result

    # ------------------------------------------------------------- reporting

    @staticmethod
    def _cost_to_dict(cost) -> Dict[str, Any]:
        return {"total": cost.total, "fu_count": cost.fu_count,
                "fu_area": cost.fu_area,
                "register_count": cost.register_count,
                "mux_count": cost.mux_count, "wire_count": cost.wire_count}

    def _observe_phases(self, result: Dict[str, Any]) -> None:
        """Feed sampled per-phase ns totals into latency histograms."""
        timing = result.get("timing")
        if timing is not None:
            # /metricsz critical-path histogram: one sample per delivered
            # timing-analyzed binding
            self._clock_ns.observe(timing["clock_period_ns"])
        telemetry = result.get("telemetry", {})
        phase_ns = telemetry.get("phase_ns", {})
        phase_samples = telemetry.get("phase_samples", {})
        for phase, total_ns in phase_ns.items():
            samples = phase_samples.get(phase, 0)
            if samples > 0:
                self.metrics.histogram(
                    f"phase_us_{phase}",
                    f"sampled µs per {phase} step",
                    buckets=(1, 2, 5, 10, 25, 50, 100, 250, 500,
                             1000, 5000)).observe(
                    total_ns / samples / 1000.0)
