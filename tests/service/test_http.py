"""End-to-end HTTP tests driving a real in-process server."""

from __future__ import annotations

import http.client
import json

import pytest

from repro.service.client import ServiceClient, ServiceError
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


def test_cli_smoke_command_passes():
    from repro.service.__main__ import main
    assert main(["smoke"]) == 0


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
