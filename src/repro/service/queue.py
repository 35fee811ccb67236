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
store as its environment's cache and leaves its budget to the tenant
ladder.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..api import AnonymizationConfig, JobFailure, run_batch
from ..api.executor import _environment_key
from ..core.table import Table
from .data import table_sha256
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
    """One accepted job, from admission to terminal state."""

    id: str
    batch_id: str
    tenant: str
    config: AnonymizationConfig
    status: str = "queued"  # queued -> running -> done | failed
    result: Any = None  # AnonymizationResult | JobFailure | None
    error: dict[str, Any] | None = None
    release_sha256: str | None = None
    enqueued_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "job_id": self.id,
            "batch_id": self.batch_id,
            "tenant": self.tenant,
            "status": self.status,
            "enqueued_at": self.enqueued_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.status == "done" and self.result is not None:
            out["result"] = self.result.to_dict()
            out["release_sha256"] = self.release_sha256
        elif self.status == "failed" and self.error is not None:
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
            record.status = "running"
            record.started_at = started
        evaluator_keys: list[str] = []
        for record in work.records:
            key = _environment_key(record.config)[0]
            if key not in evaluator_keys:
                evaluator_keys.append(key)
        stores = self.caches.stores_for(
            work.tenant, work.data_digest, evaluator_keys
        )
        results = run_batch(
            [record.config for record in work.records],
            work.table,
            on_error="collect",
            cache_stores=stores,
            **work.options,
        )
        finished = time.time()
        run_seconds = time.monotonic() - start_mono
        queue_seconds = max(0.0, started - work.records[0].enqueued_at)
        for record, result in zip(work.records, results):
            record.finished_at = finished
            record.result = result
            if isinstance(result, JobFailure):
                record.status = "failed"
                record.error = result.to_dict()
                self.replay.completed(
                    record.id,
                    "failed",
                    error=f"{result.error_type}: {result.error.get('message')}",
                )
                self.metrics.finished(
                    work.tenant, False, queue_seconds, run_seconds
                )
            else:
                record.status = "done"
                record.release_sha256 = table_sha256(result.release.table)
                self.replay.completed(
                    record.id, "ok", release_sha256=record.release_sha256
                )
                self.metrics.finished(
                    work.tenant, True, queue_seconds, run_seconds
                )

    def _fail_batch(self, work: BatchWork, exc: Exception) -> None:
        finished = time.time()
        error = {"error": f"{type(exc).__name__}: {exc}"}
        for record in work.records:
            record.status = "failed"
            record.error = dict(error)
            record.finished_at = finished
            self.replay.completed(record.id, "failed", error=error["error"])
            self.metrics.finished(work.tenant, False, 0.0, 0.0)
