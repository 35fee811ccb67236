"""service-mixed-50k: ``repro serve`` driven by two closed-loop HTTP clients.

The server runs as a subprocess with two queue workers; two client threads
of this process, one tenant each, repeat the op: submit one job with the
50k-row CSV inline, poll until it is done, then GET its ``/release``. Ops
cycle through eight Flash configs, and every fourth op is a relaxed
Mondrian k=10 job, so p50 sits in the warm-Flash mode and p90 in the
Mondrian mode. Set-up is spawn-to-banner plus one warm-up op of each kind
per tenant. The traced variant runs the server under ``traced_main.py``
and reads job-record timestamps and ``/metrics`` from the client side.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field

import datagen
import jobs
from check import check_csv
from common import SETUP_REPEATS, Context, Outcome, python, stop, vm_hwm_mb
from spans import union_seconds

ROWS = 50_000
TENANTS = ("tenant-a", "tenant-b")
QUEUE_WORKERS = 2
MONDRIAN_EVERY = 4
POLL_S = 0.01
OP_TIMEOUT_S = 60.0
#: The server keeps every job record (and its release) for the life of the
#: process, so its resident memory grows with each op: ``peak_rss_mb`` is
#: read when this many timed ops have completed, and the timed loop runs
#: at least that long whatever ``--seconds`` says.
RSS_OPS = 30
BANNER_TIMEOUT_S = 60.0


@dataclass
class OpRecord:
    kind: int
    wall: float = 0.0
    submit_s: float = 0.0
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    poll_lag_s: float = 0.0
    release_s: float = 0.0
    release_bytes: int = 0
    rejected: bool = False
    partition: dict = field(default_factory=dict)
    #: (start, end) wall-clock intervals of submit, queue wait, run, poll
    #: lag and release; their union is the op's attributed time.
    segments: list = field(default_factory=list)

    @property
    def covered(self) -> float:
        return union_seconds(self.segments)


class Server:
    """One ``repro serve --port 0`` subprocess (optionally traced)."""

    def __init__(self, ctx: Context, spans=None):
        argv = ["serve", "--port", "0", "--queue-workers", str(QUEUE_WORKERS)]
        if spans is None:
            command = [python(), "-m", "repro", *argv]
        else:
            script = ctx.root / "perfbench" / "traced_main.py"
            command = [python(), str(script), str(spans), "--", *argv]
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=ctx.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        timer = threading.Timer(BANNER_TIMEOUT_S, self.process.kill)
        timer.start()
        try:
            banner = self.process.stdout.readline()
        finally:
            timer.cancel()
        if "listening on http://" not in banner:
            stop(self.process)
            raise RuntimeError(f"server did not start: {banner!r}")
        self.startup_s = time.perf_counter() - start
        self.port = int(banner.rsplit(":", 1)[1])

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> int:
        code = stop(self.process)
        self.process.stdout.close()
        return code


class Client:
    """A closed-loop client: one tenant, one keep-alive connection."""

    def __init__(self, server: Server, tenant: str, bodies: list[bytes]):
        self.tenant = tenant
        self.bodies = bodies
        self.conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        self.flash_ops = 0

    def next_kind(self, index: int) -> int:
        """Body index of op ``index``: the Mondrian body on every fourth op."""
        if index % MONDRIAN_EVERY == MONDRIAN_EVERY - 1:
            return len(self.bodies) - 1
        kind = self.flash_ops % (len(self.bodies) - 1)
        self.flash_ops += 1
        return kind

    def request(self, method: str, path: str, body: bytes | None = None):
        headers = {"X-Tenant": self.tenant}
        if body is not None:
            headers["Content-Type"] = "application/json"
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def op(self, kind: int) -> tuple[OpRecord, bytes | None]:
        record = OpRecord(kind)
        start = time.perf_counter()
        deadline = start + OP_TIMEOUT_S
        began = time.time()
        try:
            status, body = self.request("POST", "/v1/jobs", self.bodies[kind])
            submitted = time.time()
            record.submit_s = time.perf_counter() - start
            if status != 202:
                record.rejected = status == 503
                return record, None
            job_id = json.loads(body)["job_id"]
            while True:
                status, body = self.request("GET", f"/v1/jobs/{job_id}")
                job = json.loads(body)
                if status != 200 or job["status"] in ("done", "failed"):
                    seen = time.time()
                    break
                if time.perf_counter() > deadline:
                    return record, None
                time.sleep(POLL_S)
            if status != 200 or job["status"] != "done":
                return record, None
            record.queue_wait_s = job["started_at"] - job["enqueued_at"]
            record.run_s = job["finished_at"] - job["started_at"]
            record.poll_lag_s = seen - job["finished_at"]
            record.partition = job["result"].get("partition_cache") or {}
            fetch = time.perf_counter()
            fetched = time.time()
            status, release = self.request("GET", f"/v1/jobs/{job_id}/release")
            record.release_s = time.perf_counter() - fetch
            record.segments = [
                (began, submitted),
                (job["enqueued_at"], job["started_at"]),
                (job["started_at"], job["finished_at"]),
                (job["finished_at"], seen),
                (fetched, fetched + record.release_s),
            ]
            if status != 200:
                return record, None
            record.release_bytes = len(release)
            return record, release
        except (OSError, http.client.HTTPException, ValueError, KeyError):
            self.conn.close()
            return record, None
        finally:
            record.wall = time.perf_counter() - start

    def close(self) -> None:
        self.conn.close()


class ServiceOps:
    def __init__(self, ctx: Context, outcome: Outcome):
        self.ctx = ctx
        self.outcome = outcome
        self.lock = threading.Lock()
        self.configs = [*jobs.service_flash_jobs(), jobs.service_mondrian_job()]
        text = datagen.dataset(ctx.out, ROWS, ctx.seed).read_text()
        data = {
            "csv": text,
            "categorical": ["zipcode", "job", "sex", "edu", "disease"],
            "numeric": ["age"],
        }
        self.bodies = [json.dumps({"config": c, "data": data}).encode() for c in self.configs]
        self.digests: dict[int, str] = {}
        self.rejected = 0  # 503 queue-full answers

    def account(self, record: OpRecord, release: bytes | None) -> bool:
        """Count the op and check its release; True if it succeeded."""
        with self.lock:
            self.outcome.attempted += 1
            self.rejected += record.rejected
            if release is None:
                self.outcome.failed += 1
                return False
            digest = hashlib.sha256(release).hexdigest()
            known = self.digests.get(record.kind)
            if known is None:
                config = self.configs[record.kind]
                k, l = jobs.model_bounds(config)
                reason = check_csv(release, jobs.qi_names(config), jobs.SENSITIVE, k, l)
                if reason:
                    self.outcome.fail_check(f"config {record.kind}: {reason}")
                    return False
                self.digests[record.kind] = digest
            elif digest != known:
                self.outcome.fail_check(f"config {record.kind}: release differs between ops")
                return False
            return True

    def warm_up(self, server: Server) -> list[OpRecord]:
        """One op of each kind per tenant, the tenants concurrently."""
        records: list[OpRecord] = []

        def warm(tenant: str) -> None:
            client = Client(server, tenant, self.bodies)
            try:
                for kind in (0, len(self.bodies) - 1):
                    record, release = client.op(kind)
                    if self.account(record, release):
                        with self.lock:
                            records.append(record)
            finally:
                client.close()

        _run_threads(warm)
        return records

    def loop(self, server: Server, seconds: float, min_ops: int = 0):
        """Both tenants' closed loops for ``seconds`` and at least ``min_ops``
        ops: (ok ops, wall, server VmHWM in MiB after ``min_ops`` ops)."""
        records: list[OpRecord] = []
        done = [0]
        rss_mb = [0.0]
        start = time.perf_counter()

        def drive(tenant: str) -> None:
            client = Client(server, tenant, self.bodies)
            index = 0
            try:
                while time.perf_counter() - start < seconds or done[0] < min_ops:
                    record, release = client.op(client.next_kind(index))
                    index += 1
                    ok = self.account(record, release)
                    with self.lock:
                        done[0] += 1
                        if done[0] == min_ops:
                            rss_mb[0] = vm_hwm_mb(server.process.pid)
                        if ok:
                            records.append(record)
            finally:
                client.close()

        _run_threads(drive)
        return records, time.perf_counter() - start, rss_mb[0]

    def setup(self, spans=None) -> tuple[Server, float, list[OpRecord]]:
        server = Server(self.ctx, spans)
        start = time.perf_counter()
        try:
            warm = self.warm_up(server)
        except BaseException:
            server.close()
            raise
        return server, server.startup_s + time.perf_counter() - start, warm


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target, args=(tenant,)) for tenant in TENANTS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _tenant_counters(server: Server) -> dict[str, float]:
    """Sum of every tenant environment's cache counters and bytes, from /metrics."""
    totals: dict[str, float] = {"bytes": 0.0}
    tenants = server.get_json("/metrics")["caches"]["tenants"]
    for tenant in tenants.values():
        for environment in tenant["environments"].values():
            totals["bytes"] += environment["bytes"]
            for name, value in environment["counters"].items():
                totals[name] = totals.get(name, 0.0) + value
    return totals


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    ops = ServiceOps(ctx, outcome)
    if not ctx.trace:
        for repeat in range(SETUP_REPEATS):
            server, setup_s, _ = ops.setup()
            outcome.setups.append(setup_s)
            if repeat < SETUP_REPEATS - 1:
                server.close()
        try:
            records, elapsed, outcome.peak_rss_mb = ops.loop(server, ctx.seconds, RSS_OPS)
        finally:
            server.close()
        outcome.latencies = [r.wall for r in records]
        outcome.jobs_per_s = len(records) / elapsed
        for kind in range(len(ops.configs)):
            outcome.samples[f"latency_s.config{kind}"] = [r.wall for r in records if r.kind == kind]
        for name in ("submit_s", "queue_wait_s", "run_s", "poll_lag_s", "release_s"):
            outcome.samples[f"service.{name}"] = [getattr(r, name) for r in records]
        return outcome

    server, _, _ = ops.setup()
    try:
        untraced = [r.wall for r in ops.loop(server, ctx.seconds / 2)[0]]
    finally:
        server.close()
    spans = ctx.work_dir("service") / "spans.json"
    server = Server(ctx, spans)
    try:
        before = _tenant_counters(server)
        warm = ops.warm_up(server)
        timed = ops.loop(server, ctx.seconds / 2)[0]
        after = _tenant_counters(server)
    finally:
        server.close()
    traced = [r.wall for r in timed]
    outcome.latencies = untraced
    outcome.samples["traced_latency_s"] = traced
    if not (traced and untraced):
        return outcome
    trace = json.loads(spans.read_text())
    records = warm + timed
    n = len(records)
    # Server-side spans cover every op the traced server ran, warm-ups too.
    layers = {name: value / n for name, value in trace["layers"].items()}
    delta = {name: after.get(name, 0.0) - before.get(name, 0.0) for name in after}
    for name in ("hits", "misses", "from_rows", "rollups", "coalesced"):
        layers[f"engine.{name}"] = delta.get(name, 0.0) / n
    for name in ("evictions", "recomputed_after_evict"):
        layers[f"cache.{name}"] = delta.get(name, 0.0) / n
    layers["cache.peak_bytes"] = max(before["bytes"], after["bytes"])
    layers["service.tenant_hits"] = layers["engine.hits"]
    layers["service.tenant_from_rows"] = layers["engine.from_rows"]
    for name in ("submit_s", "queue_wait_s", "run_s", "poll_lag_s", "release_s", "release_bytes"):
        layers[f"service.{name}"] = sum(getattr(r, name) for r in records) / n
    for name in ("groups_materialized", "histogram_splits", "checks_fast", "checks_legacy",
                 "raw_rescans"):
        layers[f"partition_engine.{name}"] = sum(r.partition.get(name, 0) for r in records) / n
    walls = sum(r.wall for r in records)
    covered = sum(r.covered for r in records)
    layers.update({
        "repro.import_s": trace["import_s"],
        "service.rejected": ops.rejected / n,
        "trace.coverage": covered / walls,
        "trace.unattributed_s": (walls - covered) / n,
        "trace.overhead": statistics.median(traced) / statistics.median(untraced),
        "trace.ops": n,
    })
    outcome.layers = layers
    return outcome
