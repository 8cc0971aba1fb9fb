"""Start ``repro.service serve`` for the benchmark, optionally traced.

Usage::

    python -u perfbench/serve.py --cache-dir DIR [--trace-out FILE]

It runs exactly ``python -m repro.service serve --port 0 --workers 2
--worker-mode process --cache-dir DIR`` in this process.  With
``--trace-out`` it first routes the service's HTTP handler, request
decode, cache-key hashing, cache tier and response encoding through
:class:`spans.Tracer` wrappers, and writes the recorded spans as JSON to
FILE when the server shuts down (SIGTERM or SIGINT).  The wrappers are
installed before the process pool forks, but pool workers only run the
search, whose internals the benchmark reads from ``/metricsz`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Any, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402

#: request header carrying the benchmark's request id into the spans
REQUEST_ID_HEADER = "X-Request-Id"


class _TracedJson:
    """Stand-in for the ``json`` module inside ``repro.service.server``:
    ``dumps`` (the response encoder) and ``loads`` (the request body and
    a cached result payload) are timed, everything else passes."""

    def __init__(self, tracer: Tracer) -> None:
        self.dumps = tracer.wrap(json.dumps, "service.response_encode")
        self.loads = tracer.wrap(json.loads, "service.json_parse")

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


def install(tracer: Tracer) -> None:
    """Wrap the service layers the benchmark attributes time to."""
    from repro.service import cache, jobs, server

    handler = server._Handler
    original_post = handler.__dict__["do_POST"]

    def do_post(self: Any) -> None:
        index = tracer.begin("server.handle",
                             self.headers.get(REQUEST_ID_HEADER))
        try:
            original_post(self)
        finally:
            tracer.end(index)

    # installed by hand, not through patch(): the span takes its request
    # id from the headers.  This process never unpatches.
    handler.do_POST = do_post
    tracer.patch(handler, "_read_body", "server.read_body")
    tracer.patch(handler, "_send", "server.send")
    tracer.patch(server.AllocationService, "allocate", "service.allocate")
    tracer.patch(jobs.JobManager, "submit", "service.submit")
    tracer.patch(server, "request_from_dict", "service.decode")
    tracer.patch(jobs, "request_key", "service.key")
    tracer.patch(jobs, "warm_key", "service.key")
    tracer.patch(cache.TieredCache, "get", "service.cache_get")
    tracer.patch(cache.TieredCache, "put", "service.cache_put")
    server.json = _TracedJson(tracer)  # type: ignore[assignment]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    # serve_forever shuts the pool down cleanly on KeyboardInterrupt; set
    # both handlers explicitly, since a parent started in the background
    # may have left SIGINT ignored
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = Tracer()
    if args.trace_out:
        install(tracer)
    from repro.service.__main__ import main as service_main
    try:
        return service_main(["serve", "--host", "127.0.0.1", "--port", "0",
                             "--workers", "2",
                             "--worker-mode", "process",
                             "--cache-dir", args.cache_dir])
    finally:
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(tracer.export(), handle)


if __name__ == "__main__":
    sys.exit(main())
