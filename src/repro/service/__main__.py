"""``python -m repro.service`` — serve, submit, status, smoke.

* ``serve``  — run the HTTP server in the foreground.
* ``submit`` — build a request from flags (or ``--request-file``) and
  POST it; prints the JSON response.
* ``status`` — poll ``GET /jobs/<id>`` (``--wait`` blocks until done).
* ``smoke``  — the CI end-to-end check: start a server, submit the same
  EWF request twice, assert the second is a cache hit with a
  byte-identical result payload, scrape ``/metricsz``, then post a burst
  of cache-bypassing zoo bodies at each of :data:`BURST_CLIENTS`
  concurrent clients; any dropped or failed request fails the smoke.
  ``--multiprocess`` hardens the check: two *separate server processes*
  share one on-disk cache tier, and the reply served by the second
  process must be byte-identical to the one computed by the first.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
from typing import Any, Callable, Dict, List, Optional

from repro.service.client import ServiceClient, ServiceError
from repro.service.loadgen import _drive_clients, zoo_requests
from repro.service.server import ServerThread, serve_forever

#: concurrent clients of each smoke burst; each client posts one
#: cache-bypassing zoo body, so every request is a real search
BURST_CLIENTS = (2, 8, 32)


def _build_request(args: argparse.Namespace) -> Dict[str, Any]:
    if args.request_file:
        with open(args.request_file, "r", encoding="utf-8") as handle:
            body = json.load(handle)
    else:
        body = {"cdfg": {"bench": args.bench}}
    if args.length is not None:
        body["length"] = args.length
    if args.seed is not None:
        body["seed"] = args.seed
    if args.restarts is not None:
        body["restarts"] = args.restarts
    if args.engine:
        body["engine"] = args.engine
    if args.model:
        body["model"] = args.model
    if args.deadline_ms is not None:
        body["deadline_ms"] = args.deadline_ms
    if args.warm_start:
        body["warm_start"] = True
    return body


def _cmd_serve(args: argparse.Namespace) -> int:
    # a supervisor stops the server with SIGTERM: unwind as on Ctrl-C, so
    # serve_forever shuts the worker pool down instead of orphaning it
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    serve_forever(host=args.host, port=args.port, workers=args.workers,
                  queue_limit=args.queue_limit,
                  cache_dir=args.cache_dir,
                  persistent_cache=not args.no_disk_cache,
                  max_attempts=args.max_attempts,
                  worker_mode=args.worker_mode)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    body = _build_request(args)
    if args.asynchronous:
        payload = client.submit(body)
    else:
        payload = client.allocate(body)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    client = ServiceClient(args.url)
    if args.wait:
        payload = client.wait(args.job_id, timeout=args.timeout)
    else:
        payload = client.job(args.job_id)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if payload.get("status") != "failed" else 1


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_server(port: int, cache_dir: str, workers: int,
                  worker_mode: str) -> "subprocess.Popen[bytes]":
    """Start a *real* server process sharing ``cache_dir`` as disk tier."""
    src_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing
                                    else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--port", str(port), "--workers", str(workers),
         "--worker-mode", worker_mode, "--cache-dir", cache_dir],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def _smoke_multiprocess(body: Dict[str, Any],
                        check: Callable[[bool, str], None],
                        workers: int, worker_mode: str) -> None:
    """Two server *processes* share one disk tier; B must replay A's
    answer byte-for-byte without recomputing it."""
    cache_dir = tempfile.mkdtemp(prefix="repro-smoke-cache-")
    procs: List["subprocess.Popen[bytes]"] = []
    try:
        ports = [_free_port(), _free_port()]
        procs = [_spawn_server(port, cache_dir, workers, worker_mode)
                 for port in ports]
        first_client, second_client = (
            ServiceClient(f"http://127.0.0.1:{port}") for port in ports)
        for label, client in (("A", first_client), ("B", second_client)):
            health = client.wait_until_healthy(timeout=90.0)
            check(health.get("status") == "ok",
                  f"server process {label} answers healthz")
            check(health.get("worker_mode") == worker_mode,
                  f"server process {label} runs worker_mode="
                  f"{worker_mode}")

        first = first_client.allocate(body)
        check(first.get("status") == "done",
              "process A computes the allocation")
        check(not first.get("cached"), "process A starts from a cold cache")

        second = second_client.allocate(body)
        check(bool(second.get("cached")),
              "process B serves the request from the shared disk tier")
        check(json.dumps(first.get("result"), sort_keys=True)
              == json.dumps(second.get("result"), sort_keys=True),
              "cross-process cached reply is byte-identical")

        metrics = second_client.metricsz(condensed=True)
        check(metrics["jobs"]["completed"] == 0,
              "process B never ran the search itself")
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=15)
        shutil.rmtree(cache_dir, ignore_errors=True)


def _smoke_bursts(url: str, check: Callable[[bool, str], None]) -> None:
    """One burst per level of :data:`BURST_CLIENTS`; none may drop or
    fail a request."""
    for index, clients in enumerate(BURST_CLIENTS):
        pool = zoo_requests(clients, seed_base=1000 * (index + 1),
                            use_cache=False)
        samples = _drive_clients(url, pool, clients)
        done = sum(1 for sample in samples if sample["ok"])
        errors = sorted({str(sample.get("error", sample["status"]))
                         for sample in samples if not sample["ok"]})
        check(done == clients,
              f"burst of {clients} clients: {done}/{clients} done, "
              f"{clients - len(samples)} dropped"
              + (f", errors {errors}" if errors else ""))


def _cmd_smoke(args: argparse.Namespace) -> int:
    """End-to-end smoke: same request twice must hit the cache exactly."""
    body = {"cdfg": {"bench": "ewf"}, "length": 17, "seed": 1,
            "improve": {"max_trials": 2, "moves_per_trial": 150}}
    failures: List[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"  {'ok' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    if args.url:
        urls = [args.url]
        server: Optional[ServerThread] = None
    else:
        server = ServerThread(workers=args.workers,
                              worker_mode=args.worker_mode,
                              persistent_cache=False)
        urls = [server.__enter__()]
    try:
        client = ServiceClient(urls[0])
        health = client.wait_until_healthy()
        check(health.get("status") == "ok", "healthz answers ok")

        first = client.allocate(body)
        check(first.get("status") == "done", "first allocate completes")
        check(not first.get("cached"), "first allocate is a cache miss")
        check(not first.get("degraded"), "first allocate is full-fidelity")

        second = client.allocate(body)
        check(bool(second.get("cached")), "second allocate is a cache hit")
        check(json.dumps(first.get("result"), sort_keys=True)
              == json.dumps(second.get("result"), sort_keys=True),
              "cached result is byte-identical to the first")

        metrics = client.metricsz(condensed=True)
        hit_rate = metrics["cache"]["hit_rate"]
        check(hit_rate is not None and hit_rate > 0,
              f"/metricsz reports a cache hit-rate ({hit_rate})")
        check(metrics["jobs"]["completed"] >= 1,
              "/metricsz counted the completed job")

        _smoke_bursts(urls[0], check)
    finally:
        if server is not None:
            server.__exit__(None, None, None)

    if args.multiprocess and not args.url:
        _smoke_multiprocess(body, check, workers=args.workers,
                            worker_mode=args.worker_mode)

    if failures:
        print(f"smoke FAILED ({len(failures)} checks)")
        return 1
    print("smoke passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Data-path allocation as a service")
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run the HTTP server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8977)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--queue-limit", type=int, default=64)
    serve.add_argument("--cache-dir", default=None)
    serve.add_argument("--no-disk-cache", action="store_true")
    serve.add_argument("--max-attempts", type=int, default=3)
    serve.add_argument("--worker-mode", choices=("thread", "process"),
                       default="process",
                       help="run searches in worker processes (default) "
                            "or threads; falls back to threads where "
                            "fork is unavailable")
    serve.set_defaults(func=_cmd_serve)

    submit = commands.add_parser("submit", help="POST /allocate")
    submit.add_argument("--url", default="http://127.0.0.1:8977")
    submit.add_argument("--bench", default="ewf",
                        help="named benchmark CDFG (ewf, dct, fir, ...)")
    submit.add_argument("--request-file", default=None,
                        help="JSON file with the full request body")
    submit.add_argument("--length", type=int, default=None)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--restarts", type=int, default=None)
    submit.add_argument("--engine", choices=("improve", "anneal"),
                        default=None)
    submit.add_argument("--model", choices=("salsa", "traditional"),
                        default=None)
    submit.add_argument("--deadline-ms", type=int, default=None)
    submit.add_argument("--warm-start", action="store_true")
    submit.add_argument("--async", dest="asynchronous",
                        action="store_true",
                        help="return the job ID immediately")
    submit.set_defaults(func=_cmd_submit)

    status = commands.add_parser("status", help="GET /jobs/<id>")
    status.add_argument("job_id")
    status.add_argument("--url", default="http://127.0.0.1:8977")
    status.add_argument("--wait", action="store_true")
    status.add_argument("--timeout", type=float, default=600.0)
    status.set_defaults(func=_cmd_status)

    smoke = commands.add_parser(
        "smoke", help="CI end-to-end check (cache-hit identity, "
                      "zero-drop bursts)")
    smoke.add_argument("--url", default=None,
                       help="existing server (default: in-process)")
    smoke.add_argument("--workers", type=int, default=2)
    smoke.add_argument("--worker-mode", choices=("thread", "process"),
                       default="process")
    smoke.add_argument("--multiprocess", action="store_true",
                       help="also spawn two real server processes "
                            "sharing one disk cache tier and assert "
                            "byte-identical cross-process replies")
    smoke.set_defaults(func=_cmd_smoke)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
