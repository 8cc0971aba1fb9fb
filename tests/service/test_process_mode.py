"""Process-mode workers: StopSignal semantics, cross-boundary cancel and
deadlines, and the shared disk tier observed from two manager instances.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.alloc.checker import check_binding
from repro.io.json_io import binding_from_json, canonical_dumps
from repro.core.parallel import (StopSignal, _fork_context,
                                 is_process_safe_callback, run_restart)
from repro.service.cache import DiskCache, MemoryLRUCache, TieredCache
from repro.service.codec import request_from_dict, request_key
from repro.service.jobs import (CANCELLED, DONE, PROCESS_MODE, THREAD_MODE,
                                JobManager, resolve_worker_mode)
from repro.service.metrics import MetricsRegistry

needs_fork = pytest.mark.skipif(_fork_context() is None,
                                reason="fork start method unavailable")

FAST_BUDGET = {"max_trials": 1, "moves_per_trial": 60}


def fast_request(**overrides):
    body = {"cdfg": {"bench": "ewf"}, "length": 17, "seed": 5,
            "improve": dict(FAST_BUDGET)}
    body.update(overrides)
    return request_from_dict(body)


# -------------------------------------------------------------- StopSignal


def test_stop_signal_deadline_trips_and_latches():
    signal = StopSignal(deadline=time.monotonic() - 0.001)
    assert signal() is True
    signal.deadline = time.monotonic() + 3600  # latched: not re-evaluated
    assert signal() is True


def test_stop_signal_future_deadline_does_not_trip():
    signal = StopSignal(deadline=time.monotonic() + 3600)
    assert signal() is False


def test_stop_signal_flag_file_checked_every_n_calls(tmp_path):
    flag = tmp_path / "job.stop"
    flag.write_bytes(b"")
    signal = StopSignal(flag_path=str(flag), check_every=4)
    assert [signal() for _ in range(3)] == [False, False, False]
    assert signal() is True      # 4th call stats the file
    flag.unlink()
    assert signal() is True      # latched


def test_stop_signal_missing_flag_never_trips(tmp_path):
    signal = StopSignal(flag_path=str(tmp_path / "absent.stop"),
                        check_every=1)
    assert not any(signal() for _ in range(8))


def test_stop_signal_pickle_resets_per_process_scratch(tmp_path):
    flag = tmp_path / "job.stop"
    flag.write_bytes(b"")
    signal = StopSignal(flag_path=str(flag), check_every=1)
    assert signal() is True  # tripped in the parent
    clone = pickle.loads(pickle.dumps(signal))
    flag.unlink()
    # the latch is parent-side scratch: the clone re-evaluates fresh
    assert clone() is False
    assert clone.check_every == 1 and clone.flag_path == str(flag)


def test_is_process_safe_callback():
    assert is_process_safe_callback(None)
    assert is_process_safe_callback(StopSignal())
    assert not is_process_safe_callback(lambda: False)


def test_resolve_worker_mode_validates_and_falls_back(monkeypatch):
    assert resolve_worker_mode(THREAD_MODE) == THREAD_MODE
    with pytest.raises(ValueError):
        resolve_worker_mode("fibers")
    import repro.service.jobs as jobs_mod
    monkeypatch.setattr(jobs_mod, "_fork_context", lambda: None)
    assert resolve_worker_mode(PROCESS_MODE) == THREAD_MODE


# ------------------------------------------------------- end-to-end (fork)


def make_process_manager(disk_root=None, **kwargs):
    metrics = MetricsRegistry()
    disk = DiskCache(root=disk_root) if disk_root is not None else None
    cache = TieredCache(MemoryLRUCache(16 * 1024 * 1024), disk,
                        metrics=metrics)
    kwargs.setdefault("workers", 2)
    manager = JobManager(cache=cache, metrics=metrics,
                         worker_mode=PROCESS_MODE, **kwargs)
    return manager, cache, metrics


@needs_fork
def test_process_mode_runs_job_to_done_with_legal_binding():
    manager, cache, _ = make_process_manager()
    try:
        assert manager.worker_mode == PROCESS_MODE
        request = fast_request(restarts=2)
        job, cached = manager.submit(request)
        assert cached is None
        assert job.wait(180)
        assert job.status == DONE
        result = job.result
        assert result["degraded"] is False
        assert result["restarts_run"] == 2
        binding = binding_from_json(json.dumps(result["binding"]))
        assert check_binding(binding) == []
        # the pool-computed result reached the exact-key cache
        assert cache.get(request_key(request)) is not None
    finally:
        manager.shutdown()


@needs_fork
def test_process_mode_cancel_crosses_the_boundary():
    manager, _, metrics = make_process_manager(workers=1)
    try:
        job, _ = manager.submit(fast_request(
            restarts=2,
            improve={"max_trials": 500, "moves_per_trial": 20000}))
        deadline = time.monotonic() + 30
        while job.started_mono is None and time.monotonic() < deadline:
            time.sleep(0.01)
        manager.cancel(job.id)
        assert job.wait(120)
        assert job.status == CANCELLED
        assert job.result is None
        assert metrics.counter("jobs_cancelled").value == 1
    finally:
        manager.shutdown()


@needs_fork
def test_process_mode_deadline_degrades_not_fails():
    manager, cache, metrics = make_process_manager()
    try:
        request = fast_request(
            deadline_ms=300, restarts=3,
            improve={"max_trials": 500, "moves_per_trial": 20000})
        job, _ = manager.submit(request)
        assert job.wait(180)
        assert job.status == DONE
        result = job.result
        assert result["degraded"] is True
        binding = binding_from_json(json.dumps(result["binding"]))
        assert check_binding(binding) == []
        assert cache.get(request_key(request)) is None  # never cached
        assert metrics.counter("jobs_degraded").value == 1
    finally:
        manager.shutdown()


@needs_fork
def test_shared_disk_tier_across_two_managers(tmp_path):
    """Two managers on one disk root model two server processes: what A
    computed in its pool, B serves byte-identically without searching."""
    root = str(tmp_path / "shared")
    first, _, _ = make_process_manager(disk_root=root)
    try:
        job, cached = first.submit(fast_request(seed=9))
        assert cached is None
        assert job.wait(180)
        assert job.status == DONE
    finally:
        first.shutdown()

    second, _, metrics = make_process_manager(disk_root=root)
    try:
        twin, payload = second.submit(fast_request(seed=9))
        assert twin.status == DONE
        assert payload is not None
        assert json.loads(payload.decode("utf-8")) == job.result
        assert metrics.counter("jobs_submitted").value == 0  # no search ran
    finally:
        second.shutdown()


def _stall_first_restart(marker_dir, job):
    """``run_restart`` for the worker-death test: the first call writes
    its pid to ``marker_dir/pid`` and blocks until the test kills its
    process; every later call runs the real restart."""
    try:
        os.close(os.open(os.path.join(marker_dir, "claimed"),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return run_restart(job)
    staging = os.path.join(marker_dir, "pid.tmp")
    with open(staging, "w") as handle:
        handle.write(str(os.getpid()))
    os.rename(staging, os.path.join(marker_dir, "pid"))
    time.sleep(300)
    return run_restart(job)


@needs_fork
def test_process_mode_worker_death_retries_on_a_fresh_pool(tmp_path,
                                                           monkeypatch):
    """SIGKILL the pool worker running a job: the broken pool is
    discarded, the job is retried on a new one, and the reply is the
    binding a clean run computes."""
    import repro.service.jobs as jobs_mod
    # a budget large enough that another seed ends on another binding
    request = fast_request(improve={"max_trials": 3,
                                    "moves_per_trial": 400})
    clean = JobManager(cache=None, workers=1)
    try:
        job, _ = clean.submit(request)
        assert job.wait(120) and job.status == DONE
        expected = canonical_dumps(job.result["binding"])
    finally:
        clean.shutdown()

    monkeypatch.setattr(jobs_mod, "run_restart", functools.partial(
        _stall_first_restart, str(tmp_path)))
    manager, _, metrics = make_process_manager(workers=1)
    discarded = []
    discard = manager._discard_pool

    def spying_discard(pool):
        discarded.append(pool)
        discard(pool)

    manager._discard_pool = spying_discard
    try:
        job, _ = manager.submit(request)
        pid_path = tmp_path / "pid"
        deadline = time.monotonic() + 60
        while not pid_path.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        pid = int(pid_path.read_text())
        first_pool = manager._pool
        # only ever kill a worker of the pool this test started
        assert pid in first_pool._processes
        os.kill(pid, signal.SIGKILL)

        assert job.wait(180)
        assert job.status == DONE
        assert job.attempts == 2
        assert metrics.counter("jobs_retried").value == 1
        assert discarded == [first_pool]
        assert manager._pool is not None and manager._pool is not first_pool
        binding = binding_from_json(json.dumps(job.result["binding"]))
        assert check_binding(binding) == []
        assert canonical_dumps(job.result["binding"]) == expected
    finally:
        manager.shutdown()


def _children(pid):
    """Pids whose parent is *pid*, read from ``/proc``."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except (OSError, ValueError):
            continue
        # the fields after the parenthesized command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry))
    return found


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_sigterm_shuts_the_served_pool_down():
    """Regression: SIGTERM killed ``python -m repro.service serve`` outright
    and left its forked pool workers running, orphaned."""
    import repro
    from repro.service.__main__ import _free_port
    from repro.service.client import ServiceClient
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    port = _free_port()
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--port", str(port),
         "--workers", "2", "--worker-mode", "process", "--no-disk-cache"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}")
        client.wait_until_healthy(timeout=60)
        body = {"cdfg": {"bench": "ewf"}, "length": 17, "seed": 5,
                "improve": dict(FAST_BUDGET)}
        assert client.allocate(body)["status"] == "done"  # forks the pool
        workers = _children(proc.pid)
        assert len(workers) == 2
        proc.terminate()
        assert proc.wait(timeout=60) == 0
        assert not [pid for pid in workers
                    if os.path.exists(f"/proc/{pid}")]
    finally:
        for pid in [proc.pid] + workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        proc.wait(timeout=60)


# --------------------------------------------- engine × mode equivalence

#: sha256 of the mode-independent part of each result (see
#: ``_result_digest``) for the seeded requests built by ``engine_request``
ENGINE_MODE_DIGESTS = {
    ("improve", "salsa"):
        "7193933dba5d49c5d16c84ad2b3d122f2c93e57d76ccd052cda9d77616f549d5",
    ("improve", "traditional"):
        "bc28b54b4b3d0e8c54e46200e5803797812f013372a56695cc35c2f37e6169f8",
    ("anneal", "salsa"):
        "d21143575d4e3a235f2bd44e40b4022529eda7fbb8f3bf6ea1f021bd09b01788",
    ("anneal", "traditional"):
        "72fc7686df51634b7d2d6529971c96a6a6a6c968413d90ea4524e5cf9e144c91",
}


def engine_request(engine, model):
    return fast_request(engine=engine, model=model, seed=11, restarts=2,
                        anneal={"temperature_levels": 3,
                                "moves_per_level": 60})


def _result_digest(result):
    """sha256 of a result minus its wall-time and sampled-phase fields."""
    trimmed = {k: v for k, v in result.items() if k != "search_seconds"}
    trimmed["telemetry"] = {
        k: v for k, v in result["telemetry"].items()
        if k != "seconds" and not k.startswith("phase_")}
    return hashlib.sha256(canonical_dumps(trimmed).encode("utf-8")) \
        .hexdigest()


@needs_fork
@pytest.mark.parametrize("engine,model", sorted(ENGINE_MODE_DIGESTS))
def test_thread_and_process_mode_give_the_same_result(engine, model):
    digests = {}
    for mode in (THREAD_MODE, PROCESS_MODE):
        manager = JobManager(cache=None, workers=2, worker_mode=mode)
        try:
            assert manager.worker_mode == mode
            job, _ = manager.submit(engine_request(engine, model))
            assert job.wait(180)
            assert job.status == DONE
            assert job.result["engine"] == engine
            digests[mode] = _result_digest(job.result)
        finally:
            manager.shutdown()
    assert digests[THREAD_MODE] == digests[PROCESS_MODE]
    assert digests[PROCESS_MODE] == ENGINE_MODE_DIGESTS[(engine, model)]
