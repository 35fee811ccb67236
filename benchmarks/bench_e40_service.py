"""E40 — Service gate: warm tenants are fast and memory is bounded.

The service's reason to exist is cross-request cache residency, so this
bench drives a real ``ThreadingHTTPServer`` (in-process, ephemeral port)
through the stdlib client and gates on the resident-state contract:

1. **warm >= 2x cold throughput** — a tenant's first batch over a fresh
   table environment pays row scans and roll-ups; identical follow-up batches
   must be served from the tenant's warm store at at least twice the
   cold jobs/sec (the memo-hit path skips lattice evaluation entirely);
2. **warm serving does no row rescans** — the tenant store's
   ``from_rows``/``rollups`` counters are frozen across the sustained
   phase (every warm node is a hit);
3. **bounded RSS** — sustained identical batches must not grow resident
   memory beyond a fixed slack over the post-cold baseline (each store's
   budget and the registry's one LRU over every tenant's stores, not
   per-request accumulation, own memory).

Results are recorded to ``BENCH_E40.json`` via the shared writer. Runnable
standalone (``python benchmarks/bench_e40_service.py [--rows N]``,
non-zero exit on failure) or via pytest (a small instance; every gate is
size-independent).
"""

import argparse
import os
import sys
import tempfile
import threading
import time

import numpy as np

from conftest import cpu_count, print_series, write_results

from repro.core.io import write_csv
from repro.core.table import Column, Table
from repro.service import AnonymizationService, ServiceClient, create_server

#: Two QI sets of one table environment: each batch fills the tenant's
#: one store through two evaluators.
ENVIRONMENTS = (["zip", "sector"], ["zip", "edu"])
K_SWEEP = (5, 10, 25, 50)

#: Gate 1 threshold: warm batches at >= this multiple of cold jobs/sec.
WARM_SPEEDUP_FLOOR = 2.0
#: Identical warm batches in the sustained phase.
SUSTAINED_ROUNDS = 4
#: Gate 3 slack: sustained-phase RSS growth over the post-cold baseline.
RSS_SLACK_BYTES = 256 << 20

#: Digit-string domains so the default "auto" hierarchy builder derives
#: multi-level prefix masking — deep enough lattices that cold batches are
#: evaluation-bound (that is what warm serving then skips).
DOMAINS = {"zip": 64, "sector": 32, "edu": 16}
SENSITIVE_VALUES = [f"d{i}" for i in range(8)]


def _make_csv_text(n_rows, seed):
    rng = np.random.default_rng(seed)
    columns = []
    for name, domain in DOMAINS.items():
        width = len(str(domain - 1))
        codes = rng.integers(0, domain, size=n_rows)
        columns.append(
            Column.from_codes(
                name, codes, [f"{i:0{width}d}" for i in range(domain)]
            )
        )
    columns.append(
        Column.from_codes(
            "disease",
            rng.integers(0, len(SENSITIVE_VALUES), size=n_rows),
            SENSITIVE_VALUES,
        )
    )
    table = Table(columns)
    with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as handle:
        path = handle.name
    try:
        write_csv(table, path)
        with open(path) as handle:
            return handle.read()
    finally:
        os.unlink(path)


def _sweep():
    return [
        {
            "quasi_identifiers": qis,
            "sensitive": ["disease"],
            "models": [{"model": "k-anonymity", "k": k}],
            "algorithm": {"algorithm": "flash", "max_suppression": 0.05},
        }
        for qis in ENVIRONMENTS
        for k in K_SWEEP
    ]


def _rss_bytes():
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * os.sysconf("SC_PAGESIZE")


def _run_round(client, jobs, data, **options):
    start = time.perf_counter()
    out = client.submit_batch(jobs, data, **options)
    for job_id in out["job_ids"]:
        record = client.wait(job_id, timeout=600, poll=0.005)
        assert record["status"] == "done", record
    return time.perf_counter() - start


def _tenant_counters(client, tenant):
    occupancy = client.metrics()["caches"]["tenants"].get(tenant, {})
    totals = {"from_rows": 0, "rollups": 0, "hits": 0}
    for env in occupancy.get("environments", {}).values():
        for key in totals:
            totals[key] += env["counters"][key]
    return totals


def run_bench(n_rows=100_000, seed=42):
    bench_start = time.perf_counter()
    csv_text = _make_csv_text(n_rows, seed)
    data = {
        "csv": csv_text,
        "categorical": list(DOMAINS) + ["disease"],
        "numeric": [],
    }
    jobs = _sweep()

    service = AnonymizationService(queue_workers=2, queue_depth=16)
    server = create_server(service, port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    try:
        client = ServiceClient(f"http://127.0.0.1:{port}", tenant="bench")

        # Cold: fresh tenant, empty stores — pays every row scan/roll-up.
        cold_seconds = _run_round(client, jobs, data)
        cold_jps = len(jobs) / cold_seconds
        after_cold = _tenant_counters(client, "bench")
        rss_baseline = _rss_bytes()

        # Sustained warm phase: identical batches, same tenant.
        warm_seconds = []
        for _ in range(SUSTAINED_ROUNDS):
            warm_seconds.append(_run_round(client, jobs, data))
        warm_jps = (SUSTAINED_ROUNDS * len(jobs)) / sum(warm_seconds)
        after_warm = _tenant_counters(client, "bench")
        rss_after = _rss_bytes()

        health = client.healthz()
    finally:
        server.shutdown()
        server.server_close()
        service.close()

    speedup = warm_jps / cold_jps
    speedup_ok = speedup >= WARM_SPEEDUP_FLOOR
    no_rescan = (
        after_warm["from_rows"] == after_cold["from_rows"]
        and after_warm["rollups"] == after_cold["rollups"]
        and after_warm["hits"] > after_cold["hits"]
    )
    rss_growth = rss_after - rss_baseline
    rss_ok = rss_growth <= RSS_SLACK_BYTES

    print_series(
        f"E40: service gate (n={n_rows}, {len(jobs)}-job "
        f"batches over {len(ENVIRONMENTS)} QI sets, {cpu_count()} CPUs)",
        ["phase", "seconds", "jobs/sec"],
        [
            ("cold (fresh tenant)", cold_seconds, cold_jps),
            (
                f"warm x{SUSTAINED_ROUNDS} (same tenant)",
                sum(warm_seconds),
                warm_jps,
            ),
        ],
    )
    print(
        f"warm speedup: {speedup:.2f}x (gate: >= {WARM_SPEEDUP_FLOOR:.0f}x); "
        f"warm rescans: from_rows +"
        f"{after_warm['from_rows'] - after_cold['from_rows']}, rollups +"
        f"{after_warm['rollups'] - after_cold['rollups']} (gate: +0/+0)"
    )
    print(
        f"sustained RSS growth: {rss_growth / 2**20:.1f} MiB "
        f"(gate: <= {RSS_SLACK_BYTES / 2**20:.0f} MiB); "
        f"service version: {health['version']}"
    )

    ok = speedup_ok and no_rescan and rss_ok
    elapsed = time.perf_counter() - bench_start
    write_results(
        "E40",
        {
            "n_rows": n_rows,
            "n_jobs": len(jobs),
            "cold_seconds": cold_seconds,
            "warm_seconds": sum(warm_seconds),
            "cold_jobs_per_sec": cold_jps,
            "warm_jobs_per_sec": warm_jps,
            "warm_speedup": speedup,
            "rss_growth_bytes": rss_growth,
            "total_seconds": elapsed,
            "speedup_ok": speedup_ok,
            "no_rescan": no_rescan,
            "rss_ok": rss_ok,
            "ok": ok,
        },
    )
    return ok


def test_e40_service():
    # Small instance for the pytest tier: every gate is size-independent.
    assert run_bench(n_rows=20_000), "service gates must hold"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=100_000,
                        help="synthetic table size (CI default)")
    args = parser.parse_args()
    sys.exit(0 if run_bench(n_rows=args.rows) else 1)
