"""End-to-end HTTP tests driving a real in-process server."""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.errors import ReproError
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobManager
from repro.service.server import ServerThread

FAST_BODY = {"cdfg": {"bench": "ewf"}, "length": 17, "seed": 2,
             "improve": {"max_trials": 1, "moves_per_trial": 60}}


@pytest.fixture(scope="module")
def service_url():
    with ServerThread(workers=2, persistent_cache=False) as url:
        ServiceClient(url).wait_until_healthy()
        yield url


def test_healthz(service_url):
    health = ServiceClient(service_url).healthz()
    assert health["status"] == "ok"
    assert health["uptime_s"] >= 0
    assert "cache" in health


def test_uptime_survives_wall_clock_step(monkeypatch):
    """Regression: uptime_s was ``time.time() - started_at``, so an NTP
    step backwards reported a negative uptime.  It must come from
    monotonic stamps (the wall-clock ``started_at`` stays display-only)."""
    import time as time_mod

    from repro.service.server import AllocationService

    service = AllocationService(workers=1, persistent_cache=False)
    try:
        real_time = time_mod.time
        monkeypatch.setattr(time_mod, "time",
                            lambda: real_time() - 3600.0)
        _status, health = service.healthz()
        assert 0.0 <= health["uptime_s"] < 60.0
    finally:
        service.close()


def test_allocate_sync_then_cached(service_url):
    client = ServiceClient(service_url)
    first = client.allocate(dict(FAST_BODY))
    assert first["status"] == "done"
    assert first["cached"] is False
    assert first["degraded"] is False
    assert first["result"]["binding"]["type"] == "binding"

    second = client.allocate(dict(FAST_BODY))
    assert second["cached"] is True
    assert json.dumps(second["result"], sort_keys=True) == \
        json.dumps(first["result"], sort_keys=True)
    # the job is addressable afterwards, too
    status = client.job(first["job_id"])
    assert status["status"] == "done"


def test_allocate_async_then_poll(service_url):
    client = ServiceClient(service_url)
    body = dict(FAST_BODY, seed=77)
    envelope = client.submit(body)
    assert envelope["job_id"]
    assert envelope["status"] in ("queued", "running")
    final = client.wait(envelope["job_id"], timeout=120)
    assert final["status"] == "done"
    assert final["result"]["cost"]["total"] > 0


def test_deadline_degraded_over_http(service_url):
    client = ServiceClient(service_url)
    body = dict(FAST_BODY, seed=31, deadline_ms=1, restarts=3,
                improve={"max_trials": 50, "moves_per_trial": 5000})
    response = client.allocate(body)
    # degraded still means HTTP 200 + a usable best-so-far result
    assert response["status"] == "done"
    assert response["degraded"] is True
    assert response["result"]["binding"]["type"] == "binding"
    assert response["result"]["telemetry"]["runs"] >= 1


def test_metricsz_raw_and_condensed(service_url):
    client = ServiceClient(service_url)
    raw = client.metricsz()
    assert raw["jobs_submitted"]["kind"] == "counter"
    condensed = client.metricsz(condensed=True)
    assert set(condensed) == {"requests", "jobs", "cache", "latency"}
    assert condensed["jobs"]["completed"] >= 1
    assert condensed["cache"]["hit_rate"] is not None


def test_bad_request_is_400(service_url):
    client = ServiceClient(service_url)
    with pytest.raises(ServiceError) as excinfo:
        client.allocate({"cdfg": {"bench": "ewf"}, "bogus_field": 1})
    assert excinfo.value.status == 400
    assert "unknown request fields" in str(excinfo.value)


def test_non_numeric_weight_is_400(service_url):
    client = ServiceClient(service_url)
    with pytest.raises(ServiceError) as excinfo:
        client.allocate({"cdfg": {"bench": "ewf"}, "weights": {"mux": "x"}})
    assert excinfo.value.status == 400
    assert "not a finite number" in str(excinfo.value)


def test_non_finite_max_clock_is_400(service_url):
    client = ServiceClient(service_url)
    with pytest.raises(ServiceError) as excinfo:
        client.allocate({"cdfg": {"bench": "ewf"}, "max_clock_ns": "nan"})
    assert excinfo.value.status == 400
    assert "max_clock_ns" in str(excinfo.value)


def test_non_boolean_async_is_400(service_url):
    """``bool("false")`` is True: this body used to be answered 202."""
    client = ServiceClient(service_url)
    with pytest.raises(ServiceError) as excinfo:
        client.allocate(dict(FAST_BODY, **{"async": "false"}))
    assert excinfo.value.status == 400
    assert "async" in str(excinfo.value)


def test_non_integer_length_is_400(service_url):
    client = ServiceClient(service_url)
    with pytest.raises(ServiceError) as excinfo:
        client.allocate({"cdfg": {"bench": "ewf"}, "length": "17"})
    assert excinfo.value.status == 400
    assert "not an integer >= 1" in str(excinfo.value)


@pytest.mark.parametrize("field", ["length", "fu_counts"])
def test_oversized_scheduling_field_is_400(service_url, field):
    """Regression: any integer >= 1 was accepted, and the scheduler and
    make_fus allocated by it before any check ran.  One over each cap is
    enough to show it."""
    from repro.bench import elliptic_wave_filter
    from repro.datapath.units import HardwareSpec

    graph = elliptic_wave_filter()
    delays = HardwareSpec.non_pipelined().delays()
    over = {"length": 2 * sum(delays[op.kind]
                              for op in graph.ops.values()) + 1,
            "fu_counts": {"adder": len(graph.ops) + len(graph.values) + 1}}
    client = ServiceClient(service_url)
    with pytest.raises(ServiceError) as excinfo:
        client.allocate({"cdfg": {"bench": "ewf"}, field: over[field],
                         "improve": {"max_trials": 1, "moves_per_trial": 60}})
    assert excinfo.value.status == 400
    assert f"bad {field}" in str(excinfo.value)


def test_deeply_nested_body_is_400(service_url):
    """Regression: a body nesting deeper than the JSON decoder's recursion
    guard raised RecursionError, which only the last-resort handler
    caught, so a ~200 KB body got a 500."""
    from urllib.parse import urlparse

    from repro.service.server import MAX_BODY_BYTES

    body = ("[" * 100000 + "]" * 100000).encode("ascii")
    assert len(body) < MAX_BODY_BYTES
    parsed = urlparse(service_url)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port,
                                      timeout=30)
    try:
        conn.request("POST", "/allocate", body=body,
                     headers={"Content-Type": "application/json"})
        reply = conn.getresponse()
        payload = json.loads(reply.read())
    finally:
        conn.close()
    assert reply.status == 400
    assert "nested too deeply" in payload["error"]
    assert ServiceClient(service_url).healthz()["status"] == "ok"


@pytest.mark.parametrize("length", ["abc", "1.5"])
def test_non_integer_content_length_is_400(service_url, length):
    """Regression: the Content-Length header was parsed outside the
    body's error handling, so a non-integer value got a 500."""
    from urllib.parse import urlparse

    parsed = urlparse(service_url)
    conn = http.client.HTTPConnection(parsed.hostname, parsed.port,
                                      timeout=30)
    try:
        conn.putrequest("POST", "/allocate")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders(json.dumps(FAST_BODY).encode("utf-8"))
        reply = conn.getresponse()
        payload = json.loads(reply.read())
    finally:
        conn.close()
    assert reply.status == 400
    assert "Content-Length" in payload["error"]
    assert ServiceClient(service_url).healthz()["status"] == "ok"


def test_short_body_times_out_quietly(service_url, monkeypatch, capsys):
    """Regression: a body shorter than its Content-Length held the
    handler thread in ``rfile.read`` for as long as the client kept the
    socket open.  The read now times out and the connection closes
    without a reply or a logged traceback."""
    import socket
    import time
    from urllib.parse import urlparse

    from repro.service.server import _Handler

    monkeypatch.setattr(_Handler, "timeout", 0.5)
    parsed = urlparse(service_url)
    with socket.create_connection((parsed.hostname, parsed.port),
                                  timeout=10) as sock:
        sock.sendall(b"POST /allocate HTTP/1.1\r\n"
                     b"Host: localhost\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Content-Length: 100\r\n\r\n"
                     b'{"cdfg":')
        started = time.monotonic()
        assert sock.recv(65536) == b""  # closed, no reply
        assert time.monotonic() - started < 5
    assert ServiceClient(service_url).healthz()["status"] == "ok"
    assert "Traceback" not in capsys.readouterr().err


def test_unknown_job_is_404(service_url):
    with pytest.raises(ServiceError) as excinfo:
        ServiceClient(service_url).job("feedfacedeadbeef")
    assert excinfo.value.status == 404


def test_unknown_route_is_404(service_url):
    with pytest.raises(ServiceError) as excinfo:
        ServiceClient(service_url)._expect_2xx(
            *ServiceClient(service_url)._call("GET", "/nope"))
    assert excinfo.value.status == 404


def test_cancel_unknown_job_is_404(service_url):
    with pytest.raises(ServiceError) as excinfo:
        ServiceClient(service_url).cancel("feedfacedeadbeef")
    assert excinfo.value.status == 404


def test_sync_reply_is_the_job_it_waited_on(monkeypatch):
    """Regression: the synchronous reply was looked up by job id after
    the wait, so an identical uncached request submitted once the job
    had finished took over the id, and the first client got its 202."""
    from repro.service.jobs import Job
    from repro.service.server import AllocationService
    service = AllocationService(workers=1, persistent_cache=False)
    body = dict(FAST_BODY, cache=False)
    wait = Job.wait
    resubmitted = []

    def wait_then_resubmit(self, timeout=None):
        finished = wait(self, timeout)
        if not resubmitted:
            resubmitted.append(service.allocate(dict(body, **{"async": True})))
        return finished

    monkeypatch.setattr(Job, "wait", wait_then_resubmit)
    try:
        status, payload = service.allocate(body)
    finally:
        service.close()
    assert resubmitted[0][0] == 202
    assert status == 200
    assert payload["status"] == "done" and "result" in payload


def test_listen_backlog_holds_the_largest_smoke_burst():
    """Regression: with the stdlib backlog of 5, a 32-client burst
    overflowed the accept queue, and a few connections were reset."""
    from repro.service.__main__ import BURST_CLIENTS
    harness = ServerThread(workers=1, persistent_cache=False)
    with harness:
        assert harness.server.request_queue_size >= max(BURST_CLIENTS)


def test_cli_smoke_command_passes():
    from repro.service.__main__ import main
    assert main(["smoke"]) == 0


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_cli_smoke_fails_on_one_failed_burst_request(mode, monkeypatch,
                                                      capsys):
    from repro.service.__main__ import main
    search = JobManager._run_search
    lock = threading.Lock()
    failed = []

    def fail_first_burst_request(self, job, reseed):
        # burst bodies are the only ones that bypass the cache
        with lock:
            fail = not job.request.cache_ok and not failed
            if fail:
                failed.append(job.id)
        if fail:
            raise ReproError("injected burst failure")
        return search(self, job, reseed)

    monkeypatch.setattr(JobManager, "_run_search", fail_first_burst_request)
    assert main(["smoke", "--worker-mode", mode]) == 1
    out = capsys.readouterr().out
    assert len(failed) == 1
    assert "FAIL: burst of 2 clients: 1/2 done" in out
    assert "smoke FAILED (1 checks)" in out


class _CountingWriter:
    """Wraps a handler's ``wfile`` and logs every write call."""

    def __init__(self, inner, log):
        self._inner = inner
        self._log = log

    def write(self, data):
        self._log.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_reply_is_one_write_on_a_kept_alive_connection():
    """Regression: headers and body went out in two writes, so on a
    kept-alive connection each reply's body waited for the client's
    delayed ACK of the headers (Nagle), ~40 ms per request.  Every reply
    must leave in one write, and the connection must stay open."""
    harness = ServerThread(workers=1, persistent_cache=False)
    writes = []
    handler = harness.server.RequestHandlerClass

    class CountingHandler(handler):
        def setup(self):
            super().setup()
            self.wfile = _CountingWriter(self.wfile, writes)

    harness.server.RequestHandlerClass = CountingHandler
    with harness:
        host, port = harness.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            sockets = set()
            for path in ("/healthz", "/healthz", "/nope", "/metricsz"):
                before = len(writes)
                conn.request("GET", path)
                reply = conn.getresponse()
                body = reply.read()
                assert json.loads(body)
                assert not reply.will_close
                sockets.add(id(conn.sock))
                assert len(writes) - before == 1, path
            assert len(sockets) == 1  # one kept-alive connection throughout
        finally:
            conn.close()
