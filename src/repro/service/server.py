"""Stdlib-only JSON API over the job manager.

Endpoints (all JSON):

* ``POST /allocate`` — submit an allocation request.  Synchronous by
  default: the connection is held until the job finishes (or the server's
  sync-wait cap fires, after which the client polls).  ``"async": true``
  in the body returns ``202 Accepted`` with the job ID immediately.
* ``GET /jobs/<id>`` — job status, plus the result once done.
* ``POST /jobs/<id>/cancel`` (or ``DELETE /jobs/<id>``) — cancellation.
* ``GET /healthz`` — liveness: uptime, queue depth, jobs in flight.
* ``GET /metricsz`` — full metrics-registry snapshot;
  ``GET /metricsz?report=1`` returns the condensed
  :func:`repro.analysis.stats.service_report` instead.

Status codes: ``200`` done (including deadline-degraded results, which
carry ``degraded: true``), ``202`` accepted/still running, ``400`` bad
request, ``404`` unknown job or path, ``422`` failed job, ``503`` queue
full.  The server is a :class:`http.server.ThreadingHTTPServer`, so slow
searches never block health checks or metrics scrapes.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.cache import (DEFAULT_MEMORY_BUDGET, TieredCache)
from repro.service.codec import RequestError, request_from_dict
from repro.service.jobs import (DONE, FAILED, CANCELLED, Job, JobManager,
                                JobNotFoundError, QueueFullError)
from repro.service.metrics import MetricsRegistry
from repro.analysis.stats import service_report

#: maximum accepted request body (a large CDFG document is ~1 MB)
MAX_BODY_BYTES = 16 * 1024 * 1024

#: socket timeout of one connection: a client that stalls this long in a
#: read — a body shorter than its Content-Length, an idle kept-alive
#: connection — is disconnected and frees its handler thread
SOCKET_TIMEOUT_S = 30.0

#: how long a synchronous POST /allocate holds the connection before
#: telling the client to poll GET /jobs/<id> instead
DEFAULT_SYNC_WAIT_S = 600.0


class AllocationService:
    """The service core the HTTP layer (and tests) drive directly."""

    def __init__(self, workers: int = 2, queue_limit: int = 64,
                 cache_dir: Optional[str] = None,
                 memory_budget: int = DEFAULT_MEMORY_BUDGET,
                 persistent_cache: bool = True,
                 max_attempts: int = 3,
                 sync_wait_s: float = DEFAULT_SYNC_WAIT_S,
                 worker_mode: str = "thread") -> None:
        self.metrics = MetricsRegistry()
        self.cache = TieredCache.standard(cache_dir=cache_dir,
                                          memory_budget=memory_budget,
                                          metrics=self.metrics,
                                          persistent=persistent_cache)
        self.jobs = JobManager(cache=self.cache, metrics=self.metrics,
                               workers=workers, queue_limit=queue_limit,
                               max_attempts=max_attempts,
                               worker_mode=worker_mode)
        self.sync_wait_s = sync_wait_s
        self.started_at = time.time()  # display-only wall stamp
        self._started_mono = time.monotonic()

    def close(self) -> None:
        self.jobs.shutdown()

    # ---------------------------------------------------------- operations

    def allocate(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        """Handle one ``POST /allocate`` body; returns (status, payload)."""
        self.metrics.counter("requests_allocate",
                             "POST /allocate requests").inc()
        request = request_from_dict(body)
        wants_async = body.get("async", False)
        try:
            job, cached = self.jobs.submit(request)
        except QueueFullError as exc:
            return 503, {"error": str(exc), "status": "rejected"}

        if cached is not None:
            return 200, {
                "job_id": job.id,
                "status": DONE,
                "cached": True,
                "degraded": False,
                "result": json.loads(cached.decode("utf-8")),
            }
        if wants_async:
            return 202, {"job_id": job.id, "status": job.status,
                         "cached": False}
        job.wait(self.sync_wait_s)
        # answer with the job this request waited on, not a lookup by id:
        # an identical request submitted once it finished with nothing
        # cached (cache bypassed, degraded) takes over the id
        return self._status_of(job)

    def job_status(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        self.metrics.counter("requests_jobs", "GET /jobs requests").inc()
        # raises JobNotFoundError -> 404
        return self._status_of(self.jobs.get(job_id))

    def _status_of(self, job: Job) -> Tuple[int, Dict[str, Any]]:
        payload: Dict[str, Any] = dict(job.describe())
        payload["cached"] = False
        if job.status == DONE:
            if job.result is not None:
                payload["result"] = job.result
                payload["degraded"] = job.result["degraded"]
            else:
                # synthetic record for a cache-served submission: re-read
                # the payload so polling the job ID still yields the result
                cached = self.cache.get(job.key)
                if cached is not None:
                    payload["cached"] = True
                    payload["degraded"] = False
                    payload["result"] = json.loads(cached.decode("utf-8"))
            return 200, payload
        if job.status == FAILED:
            return 422, payload
        if job.status == CANCELLED:
            return 200, payload
        return 202, payload

    def cancel_job(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        self.metrics.counter("requests_jobs", "GET /jobs requests").inc()
        job = self.jobs.cancel(job_id)
        return 202, job.describe()

    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        self.metrics.counter("requests_healthz", "GET /healthz").inc()
        return 200, {
            "status": "ok",
            "uptime_s": time.monotonic() - self._started_mono,
            "worker_mode": self.jobs.worker_mode,
            "workers": self.jobs.workers,
            "queue_depth": self.metrics.gauge("queue_depth").value,
            "jobs_in_flight": self.metrics.gauge("jobs_in_flight").value,
            "cache": self.cache.stats(),
        }

    def metricsz(self, condensed: bool = False) \
            -> Tuple[int, Dict[str, Any]]:
        self.metrics.counter("requests_metricsz", "GET /metricsz").inc()
        snapshot = self.metrics.snapshot()
        if condensed:
            return 200, service_report(snapshot)
        return 200, snapshot


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs/paths onto the :class:`AllocationService`."""

    service: AllocationService  # injected by make_server()
    protocol_version = "HTTP/1.1"
    timeout = SOCKET_TIMEOUT_S

    # ------------------------------------------------------------- plumbing

    def log_message(self, format: str, *args: Any) -> None:
        pass  # quiet by default; metrics carry the traffic numbers

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # headers and body leave in one write: a separate small body write
        # waits for the client's delayed ACK of the headers (Nagle), which
        # stalls every reply on a kept-alive connection by ~40 ms
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _read_body(self) -> Dict[str, Any]:
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            # the unread body's extent is unknown, so this connection
            # cannot carry another request
            self.close_connection = True
            raise RequestError(
                f"Content-Length {raw_length!r} is not an integer") from None
        if length <= 0:
            raise RequestError("empty request body")
        if length > MAX_BODY_BYTES:
            raise RequestError(f"request body over {MAX_BODY_BYTES} bytes")
        try:
            data = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise RequestError(f"body is not valid JSON: {exc}") from None
        except RecursionError:
            # the decoder's nesting guard: a body can be small and still
            # nest deeper than the interpreter allows
            raise RequestError("body is not valid JSON: nested too deeply") \
                from None
        if not isinstance(data, dict):
            raise RequestError("request body must be a JSON object")
        return data

    def _dispatch(self, handler) -> None:
        try:
            status, payload = handler()
        except RequestError as exc:
            status, payload = 400, {"error": str(exc)}
        except JobNotFoundError as exc:
            status, payload = 404, {"error": str(exc)}
        except TimeoutError:
            # the client stalled mid-body: handle_one_request closes the
            # connection without a reply (and log_message keeps it quiet)
            raise
        except Exception as exc:  # pragma: no cover - last-resort guard
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        self._send(status, payload)

    # --------------------------------------------------------------- routes

    def do_POST(self) -> None:
        path = urlparse(self.path).path.rstrip("/")
        if path == "/allocate":
            self._dispatch(lambda: self.service.allocate(self._read_body()))
        elif path.startswith("/jobs/") and path.endswith("/cancel"):
            job_id = path[len("/jobs/"):-len("/cancel")]
            self._dispatch(lambda: self.service.cancel_job(job_id))
        else:
            self._send(404, {"error": f"no POST route {path!r}"})

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        path = parsed.path.rstrip("/")
        if path == "/healthz":
            self._dispatch(self.service.healthz)
        elif path == "/metricsz":
            condensed = "report" in parse_qs(parsed.query)
            self._dispatch(lambda: self.service.metricsz(condensed))
        elif path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            self._dispatch(lambda: self.service.job_status(job_id))
        else:
            self._send(404, {"error": f"no GET route {path!r}"})

    def do_DELETE(self) -> None:
        path = urlparse(self.path).path.rstrip("/")
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            self._dispatch(lambda: self.service.cancel_job(job_id))
        else:
            self._send(404, {"error": f"no DELETE route {path!r}"})


class _Server(ThreadingHTTPServer):
    #: listen backlog.  The stdlib's 5 overflows when a burst of clients
    #: connects while the accept thread waits for the interpreter lock;
    #: the kernel then answers with SYN cookies, and a connection whose
    #: cookie fails is reset mid-request.
    request_queue_size = 128


def make_server(host: str = "127.0.0.1", port: int = 8977,
                service: Optional[AllocationService] = None,
                **service_kwargs: Any) \
        -> Tuple[ThreadingHTTPServer, AllocationService]:
    """Build (but do not start) the HTTP server and its service core."""
    svc = service if service is not None \
        else AllocationService(**service_kwargs)

    class BoundHandler(_Handler):
        pass

    BoundHandler.service = svc
    server = _Server((host, port), BoundHandler)
    return server, svc


def serve_forever(host: str = "127.0.0.1", port: int = 8977,
                  **service_kwargs: Any) -> None:
    """Run the service until interrupted (the ``serve`` CLI command)."""
    server, svc = make_server(host, port, **service_kwargs)
    bound_port = server.server_address[1]
    print(f"repro.service listening on http://{host}:{bound_port} "
          f"(POST /allocate, GET /jobs/<id>, /healthz, /metricsz)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        svc.close()


class ServerThread:
    """A server on an ephemeral port running in a daemon thread.

    The in-process harness used by tests and the CI smoke check::

        with ServerThread() as url:
            ...  # drive url with urllib / ServiceClient
    """

    def __init__(self, **service_kwargs: Any) -> None:
        self.server, self.service = make_server(port=0, **service_kwargs)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="repro-service-http",
                                       daemon=True)

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def __enter__(self) -> str:
        self.thread.start()
        return self.url

    def __exit__(self, *exc_info: Any) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.close()
