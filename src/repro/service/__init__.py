"""Long-lived anonymization service: HTTP job API over the batch executor.

The library's resident deployment form. A process that stays up between
requests can keep :class:`~repro.core.cache.EngineCacheStore` objects warm
per tenant and environment, so repeat workloads — the common case for a
publishing pipeline that re-anonymizes the same table under evolving
configs — skip straight to memo hits instead of re-scanning rows.

Layering (each module usable on its own):

* :mod:`~repro.service.server` — ``AnonymizationService`` (state) +
  ``create_server`` (``ThreadingHTTPServer`` front end);
* :mod:`~repro.service.queue` — bounded admission queue and worker pool
  draining through :func:`repro.api.run_batch`;
* :mod:`~repro.service.tenants` — the warm stores of every tenant in one
  LRU order, bounded by store count and held bytes;
* :mod:`~repro.service.replay` — append-only JSONL audit log, replayable
  to byte-identical releases;
* :mod:`~repro.service.metrics` — counters and latency histograms;
* :mod:`~repro.service.data` — inline-CSV / data-root resolution;
* :mod:`~repro.service.client` — stdlib HTTP client.

Start one from the CLI: ``repro serve --port 8035``.
"""

from .client import ServiceClient, ServiceError
from .metrics import ServiceMetrics
from .queue import BatchWork, JobQueue, JobRecord, QueueFull
from .replay import ReplayLog, read_events, replay
from .server import AnonymizationService, create_server
from .tenants import TenantCaches

__all__ = [
    "AnonymizationService",
    "BatchWork",
    "JobQueue",
    "JobRecord",
    "QueueFull",
    "ReplayLog",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "TenantCaches",
    "create_server",
    "read_events",
    "replay",
]
