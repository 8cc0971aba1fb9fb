"""Job orchestration: caching, coalescing, deadlines, retries, cancel."""

from __future__ import annotations

import hashlib
import json
import threading
import time

import pytest

from repro.alloc.checker import check_binding
from repro.core.parallel import _fork_context
from repro.errors import ReproError
from repro.io.json_io import binding_from_json, canonical_dumps
from repro.service.cache import MemoryLRUCache, TieredCache
from repro.service.codec import request_from_dict, request_key
from repro.service.jobs import (CANCELLED, DONE, FAILED, PROCESS_MODE,
                                THREAD_MODE, JobManager, JobNotFoundError,
                                QueueFullError)
from repro.service.metrics import MetricsRegistry
from repro.core.snapshot import DOCUMENT_SECTIONS, state_from_dict
from repro.verify.sanitizer import SanitizerError

FAST_BUDGET = {"max_trials": 1, "moves_per_trial": 60}
#: the largest budget a request may ask for (10x the default 24 x 1500):
#: a search that outlives every cancel and deadline these tests send
LONG_BUDGET = {"max_trials": 24, "moves_per_trial": 15000}


def make_manager(**kwargs):
    metrics = MetricsRegistry()
    cache = TieredCache(MemoryLRUCache(16 * 1024 * 1024), None,
                        metrics=metrics)
    kwargs.setdefault("workers", 2)
    manager = JobManager(cache=cache, metrics=metrics, **kwargs)
    return manager, cache, metrics


def fast_request(**overrides):
    body = {"cdfg": {"bench": "ewf"}, "length": 17, "seed": 5,
            "improve": dict(FAST_BUDGET)}
    body.update(overrides)
    return request_from_dict(body)


@pytest.fixture
def manager_setup():
    manager, cache, metrics = make_manager()
    yield manager, cache, metrics
    manager.shutdown()


def test_job_runs_to_done_with_legal_binding(manager_setup):
    manager, _, _ = manager_setup
    job, cached = manager.submit(fast_request())
    assert cached is None
    assert job.wait(120)
    assert job.status == DONE
    result = job.result
    assert result["degraded"] is False
    assert result["restarts_run"] == 1
    binding = binding_from_json(json.dumps(result["binding"]))
    assert check_binding(binding) == []
    assert binding.cost().total == pytest.approx(result["cost"]["total"])


def test_second_submit_is_a_byte_identical_cache_hit(manager_setup):
    manager, cache, _ = manager_setup
    request = fast_request()
    job, cached = manager.submit(request)
    assert cached is None
    job.wait(120)
    stored = cache.get(request_key(request))
    assert stored is not None

    again, payload = manager.submit(fast_request())
    assert again.status == DONE
    assert payload == stored  # byte-identical, served without queueing
    assert json.loads(payload.decode("utf-8")) == job.result


def test_inflight_duplicates_coalesce_to_one_job(manager_setup):
    manager, _, metrics = manager_setup
    block = threading.Event()
    real = manager._run_search

    def slow(job, attempt):
        block.wait(30)
        return real(job, attempt)

    manager._run_search = slow
    first, _ = manager.submit(fast_request())
    second, payload = manager.submit(fast_request())
    assert second is first
    assert payload is None
    assert metrics.counter("jobs_coalesced").value == 1
    block.set()
    assert first.wait(120)
    assert first.status == DONE


def test_deadline_returns_degraded_best_so_far(manager_setup):
    manager, cache, metrics = manager_setup
    request = fast_request(
        deadline_ms=1, restarts=3,
        improve={"max_trials": 50, "moves_per_trial": 5000})
    job, cached = manager.submit(request)
    assert cached is None
    assert job.wait(120)
    assert job.status == DONE
    result = job.result
    assert result["degraded"] is True
    assert result["restarts_run"] < 3 or \
        result["telemetry"]["stopped_early_runs"] > 0
    # the degraded answer is still a checker-valid allocation
    binding = binding_from_json(json.dumps(result["binding"]))
    assert check_binding(binding) == []
    # ... and is never published under the exact key
    assert cache.get(request_key(request)) is None
    assert metrics.counter("jobs_degraded").value == 1


def test_warm_start_reuses_shape_snapshot(manager_setup):
    manager, cache, metrics = manager_setup
    job, _ = manager.submit(fast_request(seed=5))
    job.wait(120)
    assert job.status == DONE

    # same shape, different seed, warm_start on: exact key misses but the
    # shape snapshot seeds the search
    warm_job, cached = manager.submit(fast_request(seed=6, warm_start=True))
    assert cached is None
    assert warm_job.wait(120)
    assert warm_job.status == DONE
    assert warm_job.result["warm_started"] is True
    assert metrics.counter("jobs_warm_started").value == 1
    # warm-started results stay out of the exact-key cache
    assert cache.get(warm_job.key) is None


#: sha256 of the warm-started result of ``test_warm_start_result_is_pinned``
#: minus its wall-time and sampled-phase fields
WARM_START_DIGEST = (
    "7cecbaf5980cf8a9d59b472181483cc5d955f8bf47edf6e853633d6020aadd99")


def _result_digest(result):
    """sha256 of a result minus its wall-time and sampled-phase fields."""
    trimmed = {k: v for k, v in result.items() if k != "search_seconds"}
    trimmed["telemetry"] = {
        k: v for k, v in result["telemetry"].items()
        if k != "seconds" and not k.startswith("phase_")}
    return hashlib.sha256(canonical_dumps(trimmed).encode("utf-8")) \
        .hexdigest()


@pytest.mark.parametrize("mode", [
    THREAD_MODE,
    pytest.param(PROCESS_MODE, marks=pytest.mark.skipif(
        _fork_context() is None, reason="fork start method unavailable"))])
def test_warm_start_result_is_pinned(mode):
    """A search seeded from the warm store gives a fixed result: the
    snapshot's codec may change, the state it loads may not.  In process
    mode the warm state crosses the pickle boundary first."""
    manager, _, _ = make_manager(worker_mode=mode)
    try:
        assert manager.worker_mode == mode
        job, _ = manager.submit(fast_request(seed=5))
        assert job.wait(120)
        assert job.status == DONE

        warm_job, _ = manager.submit(fast_request(seed=6, warm_start=True,
                                                  restarts=2))
        assert warm_job.wait(120)
        assert warm_job.status == DONE
        assert warm_job.result["warm_started"] is True
        assert _result_digest(warm_job.result) == WARM_START_DIGEST
    finally:
        manager.shutdown()


def test_warm_snapshot_is_an_encoded_state(manager_setup, monkeypatch):
    """The warm store holds the decision sections of the reply's binding
    document under the warm format marker, and a warm-started job
    restores them as a decoded name-keyed state."""
    import repro.service.jobs as jobs_mod

    manager, cache, _ = manager_setup
    job, _ = manager.submit(fast_request(seed=5))
    assert job.wait(120)
    assert job.status == DONE
    blob = json.loads(cache.get("warm_" + job.shape_key).decode("utf-8"))
    assert blob["format"] == jobs_mod.WARM_FORMAT
    document = job.result["binding"]
    assert blob["state"] == {key: document[key]
                             for key in DOCUMENT_SECTIONS}

    warm_states = []
    real_run = jobs_mod.run_restart

    def spying_run(rjob):
        warm_states.append(rjob.warm_state)
        return real_run(rjob)

    monkeypatch.setattr(jobs_mod, "run_restart", spying_run)
    warm_job, _ = manager.submit(fast_request(seed=6, warm_start=True))
    assert warm_job.wait(120)
    assert warm_job.status == DONE
    assert warm_job.result["warm_started"] is True
    assert warm_states
    assert all(state == state_from_dict(blob["state"])
               for state in warm_states)


def test_name_keyed_warm_snapshot_is_a_cold_start(manager_setup):
    """Only a snapshot under the current warm format warms a search: the
    column payload and the list-of-lists ``binding-state-v2`` snapshot of
    earlier releases, and bare, unmarked decision sections, are all cold
    starts."""
    manager, cache, metrics = manager_setup
    job, _ = manager.submit(fast_request(seed=5))
    assert job.wait(120)
    assert job.status == DONE
    old_format = {"format": "compact-state-v1", "tables": {}, "pool": [[]]}
    document = job.result["binding"]
    unmarked = {key: document[key] for key in DOCUMENT_SECTIONS}
    # the previous release's encoding of the same decisions
    v2 = {"format": "binding-state-v2", "state": {
        "op_fu": document["op_fu"], "op_swap": document["op_swap"],
        "placements": [[p["value"], p["step"], p["regs"]]
                       for p in document["placements"]],
        "read_src": [[r["op"], r["port"], r["reg"]]
                     for r in document["read_src"]],
        "out_src": document["out_src"],
        "pt_impl": [[t["value"], t["dst_step"], t["dst_reg"],
                     [t["src_reg"], t["fu"], t["port"]]]
                    for t in document["passthroughs"]]}}

    for seed, blob in ((6, old_format), (7, unmarked), (8, v2)):
        cache.put("warm_" + job.shape_key,
                  canonical_dumps(blob).encode("utf-8"))
        warm_job, _ = manager.submit(fast_request(seed=seed,
                                                  warm_start=True))
        assert warm_job.wait(120)
        assert warm_job.status == DONE
        assert warm_job.result["warm_started"] is False
    assert metrics.counter("jobs_warm_started").value == 0


def test_retryable_failure_gets_a_fresh_seed(manager_setup):
    manager, cache, metrics = manager_setup
    real = manager._run_search
    calls = []

    def flaky(job, attempt):
        calls.append(attempt)
        if len(calls) == 1:
            raise SanitizerError("injected shadow-state divergence")
        return real(job, attempt)

    manager._run_search = flaky
    job, _ = manager.submit(fast_request())
    assert job.wait(120)
    assert job.status == DONE
    assert job.attempts == 2
    assert calls == [0, 1]
    assert metrics.counter("jobs_retried").value == 1
    # the fresh seed's answer is not the one the request names
    assert cache.get(request_key(fast_request())) is None


def test_transient_failure_retries_with_the_request_seed():
    """An OSError retry caches the same answer a clean run computes."""
    body = {"cdfg": {"bench": "ewf"}, "length": 17, "seed": 5,
            "improve": {"max_trials": 3, "moves_per_trial": 400}}
    clean = JobManager(cache=None, workers=1)
    try:
        job, _ = clean.submit(request_from_dict(body))
        assert job.wait(120) and job.status == DONE
        expected = job.result["binding"]
    finally:
        clean.shutdown()

    manager, cache, metrics = make_manager(workers=1)
    try:
        real = manager._run_search
        calls = []

        def flaky(job, reseed):
            calls.append(reseed)
            if len(calls) == 1:
                raise OSError("injected transient fault")
            return real(job, reseed)

        manager._run_search = flaky
        request = request_from_dict(body)
        job, _ = manager.submit(request)
        assert job.wait(120)
        assert job.status == DONE and job.attempts == 2
        assert metrics.counter("jobs_retried").value == 1
        stored = cache.get(request_key(request))
        assert stored is not None
        assert json.loads(stored.decode("utf-8"))["binding"] == expected
    finally:
        manager.shutdown()


def test_fatal_error_fails_without_retry(manager_setup):
    manager, _, metrics = manager_setup

    def broken(job, attempt):
        raise ReproError("deterministic modeling error")

    manager._run_search = broken
    job, _ = manager.submit(fast_request())
    assert job.wait(120)
    assert job.status == FAILED
    assert job.attempts == 1
    assert "deterministic modeling error" in job.error
    assert metrics.counter("jobs_retried").value == 0
    assert metrics.counter("jobs_failed").value == 1


def test_retry_budget_exhausts_to_failed():
    manager, _, metrics = make_manager(max_attempts=2)
    try:
        def always_flaky(job, attempt):
            raise SanitizerError("never converges")

        manager._run_search = always_flaky
        job, _ = manager.submit(fast_request())
        assert job.wait(120)
        assert job.status == FAILED
        assert job.attempts == 2
        assert metrics.counter("jobs_retried").value == 1
    finally:
        manager.shutdown()


def test_queue_full_rejects_with_backpressure():
    manager, _, metrics = make_manager(workers=1, queue_limit=1)
    try:
        block = threading.Event()
        real = manager._run_search

        def slow(job, attempt):
            block.wait(30)
            return real(job, attempt)

        manager._run_search = slow
        running, _ = manager.submit(fast_request(seed=1))
        time.sleep(0.2)  # let the worker pick it up
        queued, _ = manager.submit(fast_request(seed=2))
        with pytest.raises(QueueFullError):
            manager.submit(fast_request(seed=3))
        assert metrics.counter("jobs_rejected").value == 1
        block.set()
        assert running.wait(120) and queued.wait(120)
    finally:
        manager.shutdown()


def test_cancel_queued_job():
    manager, _, _ = make_manager(workers=1, queue_limit=8)
    try:
        block = threading.Event()
        real = manager._run_search

        def slow(job, attempt):
            block.wait(30)
            return real(job, attempt)

        manager._run_search = slow
        running, _ = manager.submit(fast_request(seed=1))
        time.sleep(0.2)
        queued, _ = manager.submit(fast_request(seed=2))
        cancelled = manager.cancel(queued.id)
        assert cancelled.status == CANCELLED
        assert queued.wait(1)
        block.set()
        running.wait(120)
    finally:
        manager.shutdown()


def test_cancel_running_job_stops_the_search(manager_setup):
    manager, _, metrics = manager_setup
    request = fast_request(improve=LONG_BUDGET)
    job, _ = manager.submit(request)
    deadline = time.monotonic() + 10
    while job.started_at is None and time.monotonic() < deadline:
        time.sleep(0.01)
    manager.cancel(job.id)
    assert job.wait(120)
    assert job.status == CANCELLED
    assert job.result is None
    assert metrics.counter("jobs_cancelled").value == 1


def test_unknown_job_raises(manager_setup):
    manager, _, _ = manager_setup
    with pytest.raises(JobNotFoundError):
        manager.get("feedfacedeadbeef")


# ------------------------------------------------- clock-handling regression


def test_durations_come_from_monotonic_stamps_only():
    """Regression: queue/run durations must be derived from the monotonic
    stamps.  Before the fix they subtracted wall-clock fields, so an NTP
    step between submit and finish produced negative (or wildly wrong)
    latencies in /jobs and the histograms."""
    from repro.service.jobs import Job

    job = Job(id="j", key="k", shape_key="s", request=fast_request())
    # wall clock stepped back ~32 years mid-job; monotonic marched on
    job.submitted_at = 2_000_000_000.0
    job.started_at = 1_000_000_000.0
    job.finished_at = 1_000_000_000.25
    job.submitted_mono = 100.0
    job.started_mono = 100.5
    job.finished_mono = 102.5
    assert job.queue_seconds() == pytest.approx(0.5)
    assert job.run_seconds() == pytest.approx(2.0)
    described = job.describe()
    assert described["queue_seconds"] == pytest.approx(0.5)
    assert described["run_seconds"] == pytest.approx(2.0)
    # the wall stamps are still reported verbatim — display only
    assert described["started_at"] < described["submitted_at"]


def test_wall_clock_step_does_not_corrupt_live_durations(manager_setup,
                                                         monkeypatch):
    """End-to-end flavour: ``time.time`` steps back an hour while the job
    is running; every reported duration must still be non-negative."""
    manager, _, metrics = manager_setup
    real_time = time.time
    skew = {"offset": 0.0}
    monkeypatch.setattr(time, "time",
                        lambda: real_time() + skew["offset"])
    real = manager._run_search

    def stepping(job, attempt):
        skew["offset"] = -3600.0  # the NTP step lands mid-search
        return real(job, attempt)

    manager._run_search = stepping
    job, _ = manager.submit(fast_request())
    assert job.wait(120)
    assert job.status == DONE
    assert job.finished_at < job.started_at  # the wall clock really stepped
    assert job.queue_seconds() >= 0.0
    assert job.run_seconds() >= 0.0
    for histogram in ("job_seconds", "queue_seconds"):
        stats = metrics.snapshot()[histogram]
        assert stats["count"] >= 1
        assert stats["sum"] >= 0.0


# --------------------------------------------- coalesced-cancel refcounting


def test_coalesced_cancel_only_last_waiter_stops_the_job():
    """Regression: two clients coalesce onto one job; the first client's
    cancel must *detach* it, not kill the search the second client is
    still waiting on.  Pre-fix, cancel() stopped the job outright."""
    manager, _, metrics = make_manager(workers=1)
    try:
        block = threading.Event()
        real = manager._run_search

        def slow(job, attempt):
            block.wait(30)
            return real(job, attempt)

        manager._run_search = slow
        first, _ = manager.submit(fast_request())
        second, _ = manager.submit(fast_request())
        assert second is first
        assert first.waiters == 2

        manager.cancel(first.id)  # client one gives up
        assert first.status in ("queued", "running")
        assert not first.cancel_event.is_set()
        assert first.waiters == 1
        assert metrics.counter("jobs_cancel_detached").value == 1
        assert metrics.counter("jobs_cancelled").value == 0

        block.set()
        assert first.wait(120)
        assert first.status == DONE  # the survivor got its answer
        assert first.result is not None
    finally:
        manager.shutdown()


def test_coalesced_cancel_last_waiter_cancels_for_real():
    manager, _, metrics = make_manager(workers=1)
    try:
        block = threading.Event()
        running = threading.Event()
        real = manager._run_search

        def slow(job, attempt):
            running.set()
            block.wait(30)
            return real(job, attempt)

        manager._run_search = slow
        job, _ = manager.submit(fast_request(
            improve=LONG_BUDGET))
        again, _ = manager.submit(fast_request(
            improve=LONG_BUDGET))
        assert again is job
        # this test exercises the RUNNING cancel path: without the wait,
        # both cancels can land before the worker dequeues the job and the
        # queued path finishes it instead
        assert running.wait(30)
        manager.cancel(job.id)
        manager.cancel(job.id)  # the *last* waiter cancels the search
        assert job.cancel_event.is_set()
        block.set()
        assert job.wait(120)
        assert job.status == CANCELLED
        assert job.result is None
        assert metrics.counter("jobs_cancel_detached").value == 1
        assert metrics.counter("jobs_cancelled").value == 1
    finally:
        manager.shutdown()


def test_cancel_while_queued_sets_cancel_event():
    """Regression: the QUEUED cancel path must latch cancel_event too."""
    manager, _, metrics = make_manager(workers=1)
    try:
        block = threading.Event()
        running = threading.Event()
        real = manager._run_search

        def slow(job, attempt):
            running.set()
            block.wait(30)
            return real(job, attempt)

        manager._run_search = slow
        blocker, _ = manager.submit(fast_request(seed=1))
        assert running.wait(30)  # the single worker is busy with blocker
        queued, _ = manager.submit(fast_request(seed=2))
        assert queued.status == "queued"
        manager.cancel(queued.id)
        assert queued.status == CANCELLED
        assert queued.cancel_event.is_set()
        assert queued.done_event.is_set()
        assert queued.result is None
        assert metrics.counter("jobs_cancelled").value == 1
        block.set()
        assert blocker.wait(120)
        assert blocker.status == DONE
    finally:
        manager.shutdown()


# ------------------------------------------------- one job per orchestrator


def test_queued_job_runs_beside_a_blocked_job_of_its_shape():
    """A job blocked in its search must not hold back a queued job of the
    same shape while another orchestrator is idle."""
    manager, _, metrics = make_manager(workers=2)
    try:
        go, hold = threading.Event(), threading.Event()
        real = manager._run_search

        def gated(job, attempt):
            seed = job.request.seed
            if seed in (1, 2):
                go.wait(30)   # the two occupiers
            elif seed == 10:
                hold.wait(60)  # the blocked job
            return real(job, attempt)

        manager._run_search = gated
        # two shapes, so neither occupier can queue behind the other
        occupiers = [manager.submit(fast_request(seed=1))[0],
                     manager.submit(fast_request(seed=2, length=19))[0]]
        for _ in range(200):  # both orchestrators are now busy
            if all(job.status == "running" for job in occupiers):
                break
            time.sleep(0.01)
        assert all(job.status == "running" for job in occupiers)
        blocked, _ = manager.submit(fast_request(seed=10))
        queued, _ = manager.submit(fast_request(seed=11))
        go.set()
        # one orchestrator takes the blocked job, the other the queued one
        assert queued.wait(30)
        assert queued.status == DONE
        assert blocked.status == "running"
        hold.set()
        for job in occupiers + [blocked]:
            assert job.wait(120)
            assert job.status == DONE
        # both length-17 jobs ran after the first occupier memoized the
        # shape's schedule resolution
        assert metrics.counter("schedule_memo_hits").value >= 2
    finally:
        hold.set()
        go.set()
        manager.shutdown()


def test_timing_section_for_latency_weighted_request(manager_setup):
    manager, _, metrics = manager_setup
    job, _ = manager.submit(fast_request(latency_weight=0.5))
    assert job.wait(120)
    assert job.status == DONE
    timing = job.result["timing"]
    assert timing["clock_period_ns"] > 0
    assert timing["mux_depth_max"] >= 0
    assert "max_clock_ns" not in timing  # no constraint was given
    hist = metrics.snapshot()["clock_period_ns"]
    assert hist["count"] == 1
    assert hist["sum"] == pytest.approx(timing["clock_period_ns"])


def test_plain_request_carries_no_timing_section(manager_setup):
    manager, _, metrics = manager_setup
    job, _ = manager.submit(fast_request())
    assert job.wait(120)
    assert "timing" not in job.result
    assert "clock_period_ns" not in metrics.snapshot() or \
        metrics.snapshot()["clock_period_ns"]["count"] == 0


def test_unmeetable_clock_degrades_and_skips_the_cache(manager_setup):
    manager, cache, _ = manager_setup
    request = fast_request(max_clock_ns=0.01)  # impossible: < clk->q+setup
    job, cached = manager.submit(request)
    assert cached is None
    assert job.wait(120)
    assert job.status == DONE
    result = job.result
    assert result["degraded"] is True
    assert result["timing"]["clock_met"] is False
    assert result["timing"]["max_clock_ns"] == 0.01
    # degraded answers are never published under the exact key
    assert cache.get(request_key(request)) is None


def test_meetable_clock_is_full_fidelity(manager_setup):
    manager, cache, _ = manager_setup
    request = fast_request(max_clock_ns=100.0)
    job, _ = manager.submit(request)
    assert job.wait(120)
    result = job.result
    assert result["degraded"] is False
    assert result["timing"]["clock_met"] is True
    assert result["timing"]["clock_period_ns"] <= 100.0
    assert cache.get(request_key(request)) is not None
