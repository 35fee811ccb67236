"""The anonymization service: HTTP front end over the job queue.

Stdlib-only by design (``http.server.ThreadingHTTPServer``): the service
must run wherever the library runs, with no framework dependency. Endpoints:

====== ============================ ==============================================
Method Path                         Purpose
====== ============================ ==============================================
POST   ``/v1/jobs``                 submit one job ``{"config": ..., "data": ...}``
POST   ``/v1/batches``              submit ``{"jobs": [...], "data": ..., knobs}``
GET    ``/v1/jobs/{id}``            job status; full result dict once done
GET    ``/v1/jobs/{id}/release``    the anonymized release as ``text/csv``
GET    ``/v1/batches/{id}``         status of every job in the batch
GET    ``/healthz``                 liveness: version, queue depth, worker count
GET    ``/metrics``                 counters, latency histograms, cache occupancy
====== ============================ ==============================================

Tenancy is a header: ``X-Tenant`` (default ``"public"``) namespaces both
the warm cache stores and job visibility — reading another tenant's job id
is a 404, indistinguishable from an id that never existed.

Admission is synchronous and cheap (parse config, resolve data, register
records, enqueue); execution happens on the queue's worker threads. A full
queue answers 503 with ``Retry-After`` rather than blocking the handler.
Retrieval serves what the worker froze when the job finished: the status
payload and the release's CSV bytes, rendered once per tenant and release.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from .._version import __version__
from ..api import AnonymizationConfig, FailurePolicy
from ..api.executor import _check_workers
from ..errors import ConfigError, ReproError, SchemaError
from .data import TableCache
from .metrics import ServiceMetrics
from .queue import BATCH_OPTIONS, BatchWork, JobQueue, JobRecord, QueueFull
from .replay import ReplayLog
from .tenants import TenantCaches

__all__ = ["AnonymizationService", "create_server"]

DEFAULT_TENANT = "public"
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_JOB_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9]+)(/release)?$")
_BATCH_PATH = re.compile(r"^/v1/batches/([A-Za-z0-9]+)$")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class AnonymizationService:
    """Service state: tenant caches, metrics, replay log, queue, registry.

    Owns everything that outlives a request; the HTTP handler below is a
    stateless router over this object, so tests can drive the service
    directly without a socket.
    """

    def __init__(
        self,
        queue_workers: int = 2,
        queue_depth: int = 32,
        replay_path: str | None = None,
        data_root: str | None = None,
        service_cache_bytes: int | None = None,
    ):
        self.caches = TenantCaches(service_cache_bytes)
        self.metrics = ServiceMetrics()
        self.replay = ReplayLog(replay_path)
        self.queue = JobQueue(
            self.caches,
            self.metrics,
            self.replay,
            workers=queue_workers,
            depth=queue_depth,
        )
        self.data_root = data_root
        # Content-addressed parse memo: warm serving covers the dataset
        # too — re-submitting the same bytes skips the CSV parse.
        self.tables = TableCache()
        self._lock = threading.Lock()
        self._jobs: dict[str, JobRecord] = {}
        self._batches: dict[str, list[str]] = {}
        self._counter = 0

    # -- admission -------------------------------------------------------------

    def submit_job(self, tenant: str, payload: Any) -> dict[str, Any]:
        """One job = a batch of one; same pipeline, same warm stores."""
        if not isinstance(payload, dict) or "config" not in payload:
            raise ConfigError("job payload must be {'config': ..., 'data': ...}")
        batch_payload = {
            k: v for k, v in payload.items() if k not in ("config",)
        }
        batch_payload["jobs"] = [payload["config"]]
        out = self.submit_batch(tenant, batch_payload)
        return {
            "job_id": out["job_ids"][0],
            "batch_id": out["batch_id"],
            "status": "queued",
        }

    def submit_batch(self, tenant: str, payload: Any) -> dict[str, Any]:
        if not isinstance(payload, dict):
            raise ConfigError("batch payload must be a JSON object")
        jobs = payload.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            raise ConfigError("'jobs' must be a non-empty list of configs")
        configs = [AnonymizationConfig.from_dict(job) for job in jobs]
        options = self._batch_options(payload)
        table, digest, normalized = self.tables.load(
            payload.get("data"), data_root=self.data_root
        )
        with self._lock:
            self._counter += 1
            batch_id = f"b{self._counter:08d}"
            records = []
            for config in configs:
                self._counter += 1
                record = JobRecord(
                    id=f"j{self._counter:08d}",
                    batch_id=batch_id,
                    tenant=tenant,
                    config=config,
                )
                records.append(record)
                self._jobs[record.id] = record
            self._batches[batch_id] = [record.id for record in records]
        work = BatchWork(
            batch_id=batch_id,
            tenant=tenant,
            records=records,
            table=table,
            data_digest=digest,
            options=options,
        )
        try:
            self.queue.submit(work)
        except QueueFull:
            with self._lock:  # admission failed: leave no orphan records
                for record in records:
                    self._jobs.pop(record.id, None)
                self._batches.pop(batch_id, None)
            raise
        self.metrics.accepted(tenant, len(records))
        for record, job_spec in zip(records, jobs):
            self.replay.accepted(
                record.id, tenant, job_spec, normalized, batch_id, options
            )
        return {
            "batch_id": batch_id,
            "job_ids": [record.id for record in records],
            "status": "queued",
        }

    @staticmethod
    def _batch_options(payload: dict) -> dict[str, Any]:
        known = set(BATCH_OPTIONS) | {"jobs", "data"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(
                f"unknown batch keys {sorted(unknown)}; "
                f"options: {', '.join(BATCH_OPTIONS)}"
            )
        options = {
            key: payload[key]
            for key in BATCH_OPTIONS
            if payload.get(key) is not None
        }
        # The queue runs every batch with on_error="collect"; validating the
        # same knobs here turns a bad value into a 400 at admission instead
        # of a whole-batch failure on the worker.
        _check_workers(options.get("workers", 1))
        FailurePolicy(
            on_error="collect",
            **{k: v for k, v in options.items() if k != "workers"},
        )
        if "workers" in options:
            # A batch starts min(workers, jobs) threads and its releases are
            # the same at any count, so it gets no more threads than the
            # server may use CPUs.
            options["workers"] = min(options["workers"], _usable_cpus())
        return options

    # -- lookup ----------------------------------------------------------------

    def job(self, tenant: str, job_id: str) -> JobRecord | None:
        with self._lock:
            record = self._jobs.get(job_id)
        # Tenant mismatch is indistinguishable from absence by design.
        if record is None or record.tenant != tenant:
            return None
        return record

    def batch(self, tenant: str, batch_id: str) -> list[JobRecord] | None:
        with self._lock:
            job_ids = self._batches.get(batch_id)
            records = None if job_ids is None else [self._jobs[j] for j in job_ids]
        if records is None or any(r.tenant != tenant for r in records):
            return None
        return records

    def release_bytes(self, tenant: str, job_id: str) -> bytes | None:
        """CSV bytes of a finished job's release, as the worker rendered
        them; None if absent. Raises :class:`_NotReady` if the job exists
        but has no release (yet)."""
        record = self.job(tenant, job_id)
        if record is None:
            return None
        status = record.status
        if status != "done":
            raise _NotReady(status)
        return record.release_csv

    # -- introspection ---------------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "version": __version__,
            "queue": {
                "depth": self.queue.depth(),
                "capacity": self.queue.capacity,
                "workers": self.queue.workers,
            },
            "jobs": len(self._jobs),
        }

    def metrics_snapshot(self) -> dict[str, Any]:
        snap = self.metrics.snapshot()
        snap["queue"] = {
            "depth": self.queue.depth(),
            "capacity": self.queue.capacity,
            "workers": self.queue.workers,
        }
        snap["caches"] = self.caches.occupancy()
        return snap

    def close(self) -> None:
        self.queue.close()


class _NotReady(Exception):
    """Release requested before the job reached ``done``."""

    def __init__(self, status: str):
        super().__init__(status)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """Stateless router; all state lives on :attr:`service`."""

    service: AnonymizationService  # bound by create_server
    protocol_version = "HTTP/1.1"
    server_version = f"repro-service/{__version__}"
    # One buffered write per response, sent without Nagle's algorithm.
    # Unbuffered, the headers and the body leave as two sends; with Nagle
    # on, the body then waits for the client's delayed ACK of the headers,
    # about 40 ms on Linux. ``handle_one_request`` flushes after each
    # method, so a small response leaves as one segment.
    wbufsize = -1
    disable_nagle_algorithm = True
    #: 16 MiB request-body ceiling — inline CSV is the only large payload.
    max_body = 16 << 20
    #: Seconds a request body may take to arrive in all, and an idle
    #: keep-alive connection may wait for its next request
    #: (``StreamRequestHandler`` sets it on the connection); the
    #: ``ServiceClient`` default. A client that sends less body than its
    #: Content-Length, or sends it a byte at a time, gets a 408 and an idle
    #: connection closes, instead of either holding a handler thread forever.
    timeout = 30

    # -- routing ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        tenant = self._tenant()
        if tenant is None:
            return
        if self.path == "/healthz":
            self._json(200, self.service.healthz())
        elif self.path == "/metrics":
            self._json(200, self.service.metrics_snapshot())
        elif match := _JOB_PATH.match(self.path):
            job_id, want_release = match.group(1), bool(match.group(2))
            if want_release:
                self._send_release(tenant, job_id)
            else:
                record = self.service.job(tenant, job_id)
                if record is None:
                    self._json(404, {"error": f"no such job {job_id!r}"})
                else:
                    self._json(200, record.to_dict())
        elif match := _BATCH_PATH.match(self.path):
            records = self.service.batch(tenant, match.group(1))
            if records is None:
                self._json(404, {"error": f"no such batch {match.group(1)!r}"})
            else:
                self._json(
                    200,
                    {
                        "batch_id": match.group(1),
                        "jobs": [r.to_dict() for r in records],
                    },
                )
        else:
            self._json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802
        tenant = self._tenant()
        if tenant is None:
            return
        try:
            payload = self._body()
            if payload is _INVALID:
                return
            if self.path == "/v1/jobs":
                self._json(202, self.service.submit_job(tenant, payload))
            elif self.path == "/v1/batches":
                self._json(202, self.service.submit_batch(tenant, payload))
            else:
                self._json(404, {"error": f"unknown path {self.path!r}"})
        except QueueFull as exc:
            self._json(503, {"error": str(exc)}, headers={"Retry-After": "1"})
        except MemoryError:
            # Reading or parsing the request ran out of memory. Like a full
            # queue this is load, so the client may retry; the body may be
            # half read, so the connection cannot carry another request.
            self._json(
                503,
                {"error": "out of memory while reading the request"},
                headers={"Retry-After": "1", "Connection": "close"},
            )
        except (ConfigError, SchemaError) as exc:
            self._json(400, {"error": str(exc)})
        except ReproError as exc:
            self._json(400, {"error": f"{type(exc).__name__}: {exc}"})

    # -- plumbing --------------------------------------------------------------

    def _tenant(self) -> str | None:
        tenant = self.headers.get("X-Tenant", DEFAULT_TENANT)
        if not _TENANT_RE.match(tenant):
            self._json(400, {"error": f"invalid X-Tenant {tenant!r}"})
            return None
        return tenant

    def _body(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            # Without a length the body cannot be skipped, so the
            # connection cannot carry another request.
            self._json(
                400,
                {"error": "Content-Length must be an integer"},
                headers={"Connection": "close"},
            )
            return _INVALID
        if length <= 0:
            self._json(400, {"error": "request body required"})
            return _INVALID
        if length > self.max_body:
            self._json(413, {"error": f"body exceeds {self.max_body} bytes"})
            return _INVALID
        # One deadline for the whole body: each read may wait only for the
        # time left, so a client trickling bytes cannot hold the handler.
        deadline = time.monotonic() + self.timeout
        raw = bytearray(length)
        view = memoryview(raw)
        received = 0
        try:
            try:
                while received < length:
                    left = deadline - time.monotonic()
                    if left <= 0:
                        raise TimeoutError
                    self.connection.settimeout(left)
                    n = self.rfile.readinto1(view[received:])
                    if not n:  # the client closed early: parse what arrived
                        raw = raw[:received]
                        break
                    received += n
            finally:
                self.connection.settimeout(self.timeout)
        except TimeoutError:
            # Whatever part of the body did arrive is lost with the read,
            # so the connection cannot carry another request.
            self._json(
                408,
                {"error": f"request body not received within {self.timeout} s"},
                headers={"Connection": "close"},
            )
            return _INVALID
        try:
            return json.loads(raw)
        except (ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON and bytes that are not
            # UTF-8; RecursionError, nesting deeper than the parser allows.
            self._json(400, {"error": f"invalid JSON: {exc}"})
            return _INVALID

    def _send_release(self, tenant: str, job_id: str) -> None:
        try:
            body = self.service.release_bytes(tenant, job_id)
        except _NotReady as exc:
            self._json(
                409, {"error": f"job {job_id!r} is {exc.status}, not done"}
            )
            return
        if body is None:
            self._json(404, {"error": f"no such job {job_id!r}"})
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/csv; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(
        self, status: int, payload: dict, headers: dict[str, str] | None = None
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        # Quiet by default; the service's own telemetry is /metrics.
        pass


_INVALID = object()


def create_server(
    service: AnonymizationService,
    host: str = "127.0.0.1",
    port: int = 8035,
) -> ThreadingHTTPServer:
    """Bind a threading HTTP server over ``service`` (not yet serving)."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server
