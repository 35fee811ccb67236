"""Bounded job queue draining through :func:`repro.api.run_batch`.

The HTTP layer turns every request into one :class:`BatchWork` item (a
single job is a batch of one) and calls :meth:`JobQueue.submit` — which
never blocks: a full queue raises :class:`QueueFull` and the handler
answers 503, so backpressure is visible to clients instead of piling up
as threads. A fixed pool of worker threads drains the queue; each item
runs as one ``run_batch`` call with ``on_error="collect"`` (a failing job
yields a recorded failure, never a crashed worker) and with the tenant's
warm stores injected via ``cache_stores`` — the hand-off point between
the service's resident state and the executor, which uses each injected
store as the cache of its table environment (every QI set over the same
data, dropped columns and hierarchy specs). Each store holds its jobs'
own ``cache_bytes``, as in :func:`repro.api.run`; the registry
(:mod:`~repro.service.tenants`) caps it and drops whole stores.

A worker finishes each job completely before it publishes ``done``: it
digests the release, renders its CSV once per distinct release per tenant,
freezes the result payload, and only then flips the status. A finished
:class:`JobRecord` holds plain data — the payload, the digest and shared
CSV bytes — so polls and release fetches serve it without touching a live
result, and no release table outlives its job.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..api import AnonymizationConfig, JobFailure, run_batch
from ..api.executor import _environment_key
from ..core.cache import DEFAULT_CACHE_BYTES
from ..core.table import Table
from .data import release_csv_bytes, table_sha256
from .metrics import ServiceMetrics
from .replay import ReplayLog
from .tenants import TenantCaches

__all__ = ["BatchWork", "JobQueue", "JobRecord", "QueueFull"]

#: run_batch knobs a batch payload may set; everything else is fixed by
#: the service (notably ``on_error`` — always "collect").
BATCH_OPTIONS = (
    "workers",
    "job_timeout",
    "batch_deadline",
    "retries",
    "retry_backoff",
)


class QueueFull(Exception):
    """The admission queue is at capacity — surface as HTTP 503."""


@dataclass
class JobRecord:
    """One accepted job, from admission to terminal state.

    ``status`` is written last: every field a state exposes is set before
    the status that exposes it, so a reader that reads ``status`` first
    never sees a ``done`` record without its payload, digest and bytes.
    """

    id: str
    batch_id: str
    tenant: str
    config: AnonymizationConfig
    status: str = "queued"  # queued -> running -> done | failed
    #: The result's ``to_dict()``, frozen when the job finished.
    payload: dict[str, Any] | None = None
    #: The release as CSV bytes, shared by the tenant's identical releases.
    release_csv: bytes | None = None
    error: dict[str, Any] | None = None
    release_sha256: str | None = None
    enqueued_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None

    def to_dict(self) -> dict[str, Any]:
        status = self.status
        out: dict[str, Any] = {
            "job_id": self.id,
            "batch_id": self.batch_id,
            "tenant": self.tenant,
            "status": status,
            "enqueued_at": self.enqueued_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if status == "done":
            out["result"] = self.payload
            out["release_sha256"] = self.release_sha256
        elif status == "failed" and self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class BatchWork:
    """One queue item: a tenant's configs over one resolved table."""

    batch_id: str
    tenant: str
    records: list[JobRecord]
    table: Table
    data_digest: str
    options: dict[str, Any] = field(default_factory=dict)


class JobQueue:
    """Fixed worker pool over a bounded admission queue."""

    def __init__(
        self,
        caches: TenantCaches,
        metrics: ServiceMetrics,
        replay: ReplayLog,
        workers: int = 2,
        depth: int = 32,
    ):
        if workers < 1:
            raise ValueError(f"queue workers must be >= 1, got {workers}")
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        self.caches = caches
        self.metrics = metrics
        self.replay = replay
        self.capacity = depth
        # Rendered releases keyed by (tenant, release_sha256, n_rows,
        # per-column dtypes). table_sha256 hashes raw buffers without their
        # dtype, so an int64 1 and the float64 5e-324 share a digest but
        # not a rendering; the row count and dtypes tell them apart. Every
        # entry is referenced by at least one job record, and records live
        # as long as the process, so the memo holds nothing the records do
        # not: at most one CSV per distinct release per tenant, and no
        # release table. Bounding it means bounding record retention.
        self._releases: dict[tuple, bytes] = {}
        self._releases_lock = threading.Lock()
        self._queue: "queue.Queue[BatchWork | None]" = queue.Queue(maxsize=depth)
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    @property
    def workers(self) -> int:
        return len(self._threads)

    def depth(self) -> int:
        return self._queue.qsize()

    def submit(self, work: BatchWork) -> None:
        try:
            self._queue.put_nowait(work)
        except queue.Full:
            self.metrics.rejected(len(work.records))
            raise QueueFull(
                f"queue at capacity ({self.capacity} batches)"
            ) from None

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting sentinel-terminated workers; drain then join."""
        for _ in self._threads:
            self._queue.put(None)
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))

    # -- worker side -----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            work = self._queue.get()
            if work is None:
                return
            try:
                self._run(work)
            except Exception as exc:  # planner-level failure: fail the batch
                self._fail_batch(work, exc)
            finally:
                self._queue.task_done()

    def _run(self, work: BatchWork) -> None:
        started = time.time()
        start_mono = time.monotonic()
        for record in work.records:
            record.started_at = started
            record.status = "running"
        # The store key names the budget, so its jobs agree on it.
        budgets = {
            _environment_key(record.config)[0]: (
                record.config.cache_bytes or DEFAULT_CACHE_BYTES
            )
            for record in work.records
        }
        stores = self.caches.stores_for(work.tenant, work.data_digest, budgets)
        results = run_batch(
            [record.config for record in work.records],
            work.table,
            on_error="collect",
            cache_stores=stores,
            **work.options,
        )
        queue_seconds = max(0.0, started - work.records[0].enqueued_at)
        for record, result in zip(work.records, results):
            ok = not isinstance(result, JobFailure)
            if ok:
                table = result.release.table
                record.release_sha256 = table_sha256(table)
                record.release_csv = self._render(
                    work.tenant, record.release_sha256, table
                )
                record.payload = result.to_dict()
                self.replay.completed(
                    record.id, "ok", release_sha256=record.release_sha256
                )
            else:
                record.error = result.to_dict()
                self.replay.completed(
                    record.id,
                    "failed",
                    error=f"{result.error_type}: {result.error.get('message')}",
                )
            self.metrics.finished(
                work.tenant, ok, queue_seconds, time.monotonic() - start_mono
            )
            record.finished_at = time.time()
            record.status = "done" if ok else "failed"

    def _render(self, tenant: str, digest: str, table: Table) -> bytes:
        """The release's CSV bytes, rendered once per tenant and release."""
        dtypes = tuple(
            (column.codes if column.is_categorical else column.values).dtype.str
            for column in table
        )
        key = (tenant, digest, table.n_rows, dtypes)
        with self._releases_lock:
            body = self._releases.get(key)
        if body is None:
            body = release_csv_bytes(table)
            with self._releases_lock:
                # Two workers may render the same release at once; both
                # records then share whichever copy landed first.
                body = self._releases.setdefault(key, body)
        return body

    def _fail_batch(self, work: BatchWork, exc: Exception) -> None:
        finished = time.time()
        error = {"error": f"{type(exc).__name__}: {exc}"}
        for record in work.records:
            if record.status in ("done", "failed"):
                continue  # finished before the failure; keep its outcome
            record.error = dict(error)
            self.replay.completed(record.id, "failed", error=error["error"])
            self.metrics.finished(work.tenant, False, 0.0, 0.0)
            record.finished_at = finished
            record.status = "failed"
