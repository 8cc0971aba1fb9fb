"""Allocation-as-a-service: codec, cache, jobs, HTTP API, metrics.

The service wraps the allocator behind a content-addressed request cache
and a bounded job queue, exposed over a stdlib-only JSON HTTP API::

    python -m repro.service serve          # run the server
    python -m repro.service submit ...     # POST /allocate from the CLI
    python -m repro.service smoke          # the CI end-to-end check

Throughput and latency are measured by the repository benchmark,
``python3 perfbench/run.py --workload service-miss``.

See DESIGN.md §4 for the canonical-encoding / cache-key invariant and
the retry/degradation policy the whole layer is built on.
"""

from repro.service.codec import (AllocateRequest, RequestError,
                                 cache_key_payload, job_id_for,
                                 request_from_dict, request_key, warm_key)
from repro.service.cache import (DiskCache, MemoryLRUCache, TieredCache,
                                 default_cache_dir)
from repro.service.jobs import (Job, JobManager, JobNotFoundError,
                                QueueFullError)
from repro.service.metrics import (Counter, Gauge, Histogram,
                                   MetricsRegistry)
from repro.service.server import (AllocationService, ServerThread,
                                  make_server, serve_forever)
from repro.service.client import ServiceClient, ServiceError

__all__ = [
    "AllocateRequest", "AllocationService", "Counter", "DiskCache",
    "Gauge", "Histogram", "Job", "JobManager", "JobNotFoundError",
    "MemoryLRUCache", "MetricsRegistry", "QueueFullError", "RequestError",
    "ServerThread", "ServiceClient", "ServiceError", "TieredCache",
    "cache_key_payload", "default_cache_dir", "job_id_for",
    "make_server", "request_from_dict", "request_key", "serve_forever",
    "warm_key",
]
