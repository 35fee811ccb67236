"""Service-layer contract tests.

What must hold:

* the HTTP surface (jobs, batches, release streaming, healthz, metrics)
  answers correctly, and a release fetched over HTTP is byte-identical to
  the same config executed through :func:`repro.api.run` in-process;
* tenancy isolates: another tenant's job id is a 404, a tenant's second
  identical-environment batch is served warm (memo hits, no row rescans)
  while a different tenant's first batch stays cold;
* budgets bind: a job's ``cache_bytes`` budgets its store as in
  :func:`repro.api.run`, every tenant's stores share one LRU order, and
  past 16 stores or ``service_cache_bytes`` held, the least recently used
  stores outside the batch go, deterministically;
* a worker finishes a job completely before the job reads ``done``: the
  record then holds its frozen payload, its digest and CSV bytes rendered
  once per distinct release per tenant, and no release table;
* responses leave in one write without Nagle's 40 ms stall, and hostile
  request bodies get a 400, never a dropped connection;
* the replay log re-runs to byte-identical releases, reports a job that
  fails now, stale config and vanished data included, without stopping,
  and judges each match against what the log recorded;
* ``cache_stores`` warm-starts work at the executor level across two
  separate :func:`run_batch` calls;
* ``repro serve`` shuts down cleanly and exits 0 on SIGINT and SIGTERM.
"""

import gc
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import AnonymizationConfig, run, run_batch
from repro.api.executor import _environment_key
from repro.core.cache import DEFAULT_CACHE_BYTES, EngineCacheStore
from repro.core.table import Column, Table
from repro.errors import ConfigError
from repro.service import (
    AnonymizationService,
    QueueFull,
    ReplayLog,
    ServiceClient,
    ServiceError,
    TenantCaches,
    create_server,
    read_events,
    replay,
)
from repro.service import data as service_data
from repro.service import server as service_server
from repro.service.data import load_data_spec, release_csv_bytes, table_sha256
from repro.service.metrics import LATENCY_BUCKETS, LatencyHistogram, ServiceMetrics
from repro.service.tenants import MAX_STORES

CSV_TEXT = (
    "zipcode,job,age,disease\n"
    "13053,engineer,29,flu\n"
    "13068,teacher,31,hiv\n"
    "13053,engineer,35,ulcer\n"
    "13068,nurse,40,flu\n"
    "14850,teacher,22,flu\n"
    "14850,nurse,24,cancer\n"
    "14853,engineer,28,hiv\n"
    "14853,teacher,33,ulcer\n"
)

JOB = {
    "quasi_identifiers": ["zipcode", "job"],
    "numeric_quasi_identifiers": ["age"],
    "sensitive": ["disease"],
    "models": [{"model": "k-anonymity", "k": 2}],
    "algorithm": {"algorithm": "flash"},
}

DATA = {
    "csv": CSV_TEXT,
    "categorical": ["zipcode", "job", "disease"],
    "numeric": ["age"],
}

#: Same table, different QI roles: another evaluator over JOB's store.
JOB_OTHER_ENV = {**JOB, "quasi_identifiers": ["zipcode"]}


def _wait(service, job_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.job(record_tenant(service, job_id), job_id)
        if record is not None and record.status in ("done", "failed"):
            return record
        time.sleep(0.01)
    raise TimeoutError(f"job {job_id} not terminal after {timeout}s")


def record_tenant(service, job_id):
    with service._lock:
        return service._jobs[job_id].tenant


@pytest.fixture
def service():
    svc = AnonymizationService(queue_workers=1, queue_depth=8)
    yield svc
    svc.close()


# ---------------------------------------------------------------------------
# metrics


class TestMetrics:
    def test_histogram_buckets_are_cumulative(self):
        hist = LatencyHistogram()
        for value in (0.0005, 0.3, 0.3, 1e9):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        by_le = {b["le"]: b["count"] for b in snap["buckets"]}
        assert by_le[0.001] == 1
        assert by_le[0.5] == 3
        assert by_le["inf"] == 4
        assert len(snap["buckets"]) == len(LATENCY_BUCKETS) + 1

    def test_registry_counts_per_tenant(self):
        metrics = ServiceMetrics()
        metrics.accepted("a", 2)
        metrics.finished("a", True, 0.01, 0.5)
        metrics.finished("a", False, 0.01, 0.5)
        metrics.rejected(3)
        snap = metrics.snapshot()
        assert snap["jobs"] == {
            "accepted": 2, "completed": 1, "failed": 1, "rejected": 3,
        }
        assert snap["by_tenant"]["a"]["completed"] == 1
        assert snap["run_seconds"]["count"] == 2


# ---------------------------------------------------------------------------
# data specs


class TestDataSpec:
    def test_inline_round_trip_and_digest(self):
        table, digest, normalized = load_data_spec(DATA)
        assert table.n_rows == 8
        assert normalized["csv"] == CSV_TEXT
        # digest covers roles, not just bytes
        _, other, _ = load_data_spec({**DATA, "numeric": []})
        assert digest != other

    def test_path_requires_data_root(self):
        with pytest.raises(ConfigError, match="data root"):
            load_data_spec({"path": "x.csv"})

    def test_path_cannot_escape_root(self, tmp_path):
        (tmp_path / "ok.csv").write_text(CSV_TEXT)
        table, _, normalized = load_data_spec(
            {"path": "ok.csv", "categorical": DATA["categorical"],
             "numeric": ["age"]},
            data_root=tmp_path,
        )
        assert table.n_rows == 8 and normalized["path"] == "ok.csv"
        with pytest.raises(ConfigError, match="escapes"):
            load_data_spec({"path": "../etc/passwd"}, data_root=tmp_path)

    def test_rejects_malformed_specs(self):
        for bad in (None, [], {"csv": ""}, {"neither": 1},
                    {"csv": CSV_TEXT, "categorical": "zipcode"}):
            with pytest.raises(ConfigError):
                load_data_spec(bad)


# ---------------------------------------------------------------------------
# tenant caches: one LRU over every tenant's stores


def _env_config(n):
    """JOB in table environment ``n``: its budget is part of the store key,
    and never binds on DATA, so every environment's store holds as much."""
    return AnonymizationConfig.from_dict({**JOB, "cache_bytes": (64 << 20) + n})


def _env(config):
    """The environment name ``/metrics`` lists a config's store under."""
    return TenantCaches.fingerprint("digest", _environment_key(config)[0])[:12]


def _op(caches, tenant, configs, table):
    """One service batch: its stores from ``caches``, then ``run_batch``.

    Returns the batch's stores (by store key), the results, and whether
    any store computed stats from rows (a cold op).
    """
    budgets = {
        _environment_key(config)[0]: config.cache_bytes or DEFAULT_CACHE_BYTES
        for config in configs
    }
    stores = caches.stores_for(tenant, "digest", budgets)
    before = {key: store.counters["from_rows"] for key, store in stores.items()}
    results = run_batch(configs, table, cache_stores=stores)
    cold = any(store.counters["from_rows"] > before[key]
               for key, store in stores.items())
    return stores, results, cold


def _live(caches):
    """(tenant, environment) of every live store, as ``/metrics`` lists
    them: grouped by tenant, coldest first."""
    return [(tenant, env)
            for tenant, slot in caches.occupancy()["tenants"].items()
            for env in slot["environments"]]


def _held(caches):
    return sum(env["bytes"]
               for slot in caches.occupancy()["tenants"].values()
               for env in slot["environments"].values())


@pytest.fixture(scope="module")
def table():
    return load_data_spec(DATA)[0]


@pytest.fixture(scope="module")
def store_bytes(table):
    """What one environment's store holds after one job on DATA."""
    (store,) = _op(TenantCaches(), "x", [_env_config(0)], table)[0].values()
    assert store.info()["bytes"] > 0
    return store.info()["bytes"]


class TestTenantCaches:
    def test_stores_keyed_by_data_and_evaluator(self):
        caches = TenantCaches()
        budgets = {"env1": DEFAULT_CACHE_BYTES}
        first = caches.stores_for("a", "digest1", budgets)["env1"]
        again = caches.stores_for("a", "digest1", budgets)["env1"]
        assert again is first  # warm: same store object survives
        other_data = caches.stores_for("a", "digest2", budgets)["env1"]
        assert other_data is not first  # different table bytes: no reuse
        other_tenant = caches.stores_for("b", "digest1", budgets)["env1"]
        assert other_tenant is not first  # tenants never share stores

    def test_store_budget_is_the_jobs_capped_at_the_service(self):
        caches = TenantCaches(service_cache_bytes=1 << 20)
        stores = caches.stores_for(
            "a", "d", {"small": 65536, "default": DEFAULT_CACHE_BYTES}
        )
        assert stores["small"].cache_bytes == 65536
        assert stores["default"].cache_bytes == 1 << 20
        with pytest.raises(ConfigError, match="service_cache_bytes"):
            TenantCaches(service_cache_bytes=0)

    def test_recency_is_shared_across_tenants(self, table):
        caches = TenantCaches()
        config = _env_config(0)
        for i in range(MAX_STORES):
            _op(caches, f"t{i}", [config], table)
        # t0's warm op makes t1's store the least recently used of all.
        assert _op(caches, "t0", [config], table)[2] is False
        _op(caches, f"t{MAX_STORES}", [config], table)
        assert caches.counters["stores_evicted"] == 1
        assert [tenant for tenant, _ in _live(caches)] == (
            [f"t{i}" for i in range(2, MAX_STORES)] + ["t0", f"t{MAX_STORES}"]
        )

    def test_past_max_stores_exactly_the_least_recent_others_go(self, table):
        caches = TenantCaches()
        for n in range(MAX_STORES - 2):
            _op(caches, "a", [_env_config(n)], table)
        # One batch over four environments makes 18 stores: the two least
        # recently used go, and none of the batch's own.
        batch = [_env_config(n) for n in range(100, 104)]
        _op(caches, "b", batch, table)
        assert caches.counters["stores_evicted"] == 2
        assert _live(caches) == (
            [("a", _env(_env_config(n))) for n in range(2, MAX_STORES - 2)]
            + [("b", _env(config)) for config in batch]
        )

    def test_byte_cap_drops_least_recent_others_until_the_rest_fit(
        self, table, store_bytes
    ):
        caches = TenantCaches(service_cache_bytes=store_bytes * 5 // 2)
        _op(caches, "a", [_env_config(0)], table)
        _op(caches, "b", [_env_config(0)], table)
        # c's two new stores start empty, so they fit; once its batch has
        # run, the four stores hold four stores' bytes.
        _op(caches, "c", [_env_config(0), _env_config(1)], table)
        assert _held(caches) == 4 * store_bytes
        caches.stores_for("d", "digest", {"env": DEFAULT_CACHE_BYTES})
        # a and b, the least recently used, go; then the rest fit.
        assert caches.counters["stores_evicted"] == 2
        assert [tenant for tenant, _ in _live(caches)] == ["c", "c", "d"]
        assert _held(caches) == 2 * store_bytes <= caches.service_cache_bytes

    def test_a_batchs_own_stores_never_go(self, table, store_bytes):
        caches = TenantCaches(service_cache_bytes=2 * store_bytes)
        batch = [_env_config(n) for n in range(MAX_STORES + 1)]
        stores = _op(caches, "a", batch, table)[0]
        assert _held(caches) == (MAX_STORES + 1) * store_bytes
        # The same batch again: over both bounds, but every store is its
        # own, so all 17 stay and serve it warm.
        again, _, cold = _op(caches, "a", batch, table)
        assert cold is False and caches.counters["stores_evicted"] == 0
        assert all(again[key] is store for key, store in stores.items())
        # Another tenant's batch drops the least recently used until the
        # rest fit.
        _op(caches, "b", batch[:1], table)
        assert caches.counters["stores_evicted"] == MAX_STORES - 1
        assert _live(caches) == [
            ("a", _env(batch[-2])), ("a", _env(batch[-1])), ("b", _env(batch[0]))
        ]

    def test_a_dropped_store_comes_back_cold(self, table):
        caches = TenantCaches(service_cache_bytes=1)
        config = _env_config(0)
        first, _, cold = _op(caches, "a", [config], table)
        assert cold is True
        _op(caches, "b", [config], table)  # drops a's store
        assert caches.counters["stores_evicted"] == 1
        second, _, cold = _op(caches, "a", [config], table)
        assert cold is True
        ((key, store),) = first.items()
        assert second[key] is not store
        assert second[key].counters == store.counters

    def test_releases_identical_at_one_byte(self, table):
        caches = TenantCaches(service_cache_bytes=1)
        configs = [
            _env_config(0),
            AnonymizationConfig.from_dict({**JOB_OTHER_ENV, "bins": 4}),
            AnonymizationConfig.from_dict(
                {**JOB, "algorithm": {"algorithm": "mondrian", "mode": "relaxed"}}
            ),
        ]
        direct = [release_csv_bytes(run(config, table).release.table)
                  for config in configs]
        for tenant in ("a", "b", "a", "c", "b"):
            results = _op(caches, tenant, configs, table)[1]
            assert [release_csv_bytes(r.release.table) for r in results] == direct
        assert caches.counters["stores_evicted"] > 0

    def test_bound_holds_after_each_stores_for(self, table, store_bytes):
        caches = TenantCaches(service_cache_bytes=5 * store_bytes)
        for step in range(40):
            batch = [_env_config((step * 5 + i) % 11) for i in range(1 + step % 3)]
            budgets = {_environment_key(c)[0]: c.cache_bytes for c in batch}
            stores = caches.stores_for(f"t{step % 7}", "digest", budgets)
            live = len(_live(caches))
            if live > len(stores):  # others' stores remain
                assert live <= MAX_STORES
                assert _held(caches) <= caches.service_cache_bytes
            run_batch(batch, table, cache_stores=stores)
            for store in stores.values():
                info = store.info()
                assert info["bytes"] <= store.cache_bytes or info["entries"] == 1
        assert caches.counters["stores_evicted"] > 0

    def test_concurrent_batches_lose_no_store(self):
        # Every store handed out is either live or counted as evicted once.
        caches = TenantCaches()
        seen = []  # every store handed out, kept alive so ids stay unique
        seen_lock = threading.Lock()

        def worker(w):
            rng = np.random.default_rng(w)
            for _ in range(300):
                keys = {f"env{n}": DEFAULT_CACHE_BYTES
                        for n in rng.integers(0, 4, 1 + w % 3)}
                stores = caches.stores_for(f"t{rng.integers(0, 8)}", "d", keys)
                with seen_lock:
                    seen.extend(stores.values())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        created = len({id(store) for store in seen})
        live = len(_live(caches))
        assert live <= MAX_STORES
        assert created - live == caches.counters["stores_evicted"] > 0

    def test_eight_tenants_with_one_environment_each_stay_warm(self, table):
        caches = TenantCaches()
        config = _env_config(0)
        cold = [_op(caches, f"t{i}", [config], table)[2]
                for _ in range(3) for i in range(8)]
        assert sum(cold) == 8
        assert caches.counters["stores_evicted"] == 0

    def test_one_tenant_with_six_environments_stays_warm(self, table):
        caches = TenantCaches()
        cold = [_op(caches, "a", [_env_config(n)], table)[2]
                for _ in range(3) for n in range(6)]
        assert sum(cold) == 6
        assert caches.counters["stores_evicted"] == 0


# ---------------------------------------------------------------------------
# executor warm starts across run_batch calls (satellite)


class TestCacheStoreWarmStart:
    def test_second_run_batch_is_memo_served(self):
        table, _, _ = load_data_spec(DATA)
        config = AnonymizationConfig.from_dict(JOB)
        key = _environment_key(config)[0]
        store = EngineCacheStore()
        cold = run_batch([config], table, cache_stores={key: store})
        after_cold = dict(store.counters)
        assert after_cold["from_rows"] >= 1  # the cold run scanned rows
        warm = run_batch([config], table, cache_stores={key: store})
        after_warm = dict(store.counters)
        # warm run: every node a memo hit, zero row rescans, zero rollups
        assert after_warm["from_rows"] == after_cold["from_rows"]
        assert after_warm["rollups"] == after_cold["rollups"]
        assert after_warm["hits"] > after_cold["hits"]
        assert (release_csv_bytes(cold[0].release.table)
                == release_csv_bytes(warm[0].release.table))

    def test_injected_store_budget_is_respected_not_resliced(self):
        table, _, _ = load_data_spec(DATA)
        config = AnonymizationConfig.from_dict({**JOB, "cache_bytes": 256 << 20})
        key = _environment_key(config)[0]
        store = EngineCacheStore(cache_bytes=32 << 20)
        results = run_batch([config], table, cache_stores={key: store})
        assert results[0].engine.cache is store
        assert store.cache_bytes == 32 << 20  # the job's budget left it alone

    def test_uninjected_environments_unaffected(self):
        table, _, _ = load_data_spec(DATA)
        config = AnonymizationConfig.from_dict(JOB)
        other = AnonymizationConfig.from_dict(JOB_OTHER_ENV)
        store = EngineCacheStore()
        key = _environment_key(config)[0]
        results = run_batch([config, other], table, cache_stores={key: store})
        assert all(r.status == "ok" for r in results)
        assert store.counters["misses"] > 0  # injected env went through store


# ---------------------------------------------------------------------------
# service: admission, lookup, tenancy, warm serving


class TestService:
    def test_job_lifecycle_and_release_byte_identity(self, service):
        out = service.submit_job("acme", {"config": JOB, "data": DATA})
        record = _wait(service, out["job_id"])
        assert record.status == "done"
        payload = record.to_dict()
        assert payload["result"]["version"] == repro.__version__
        assert payload["result"]["status"] == "ok"
        served = service.release_bytes("acme", out["job_id"])
        table, _, _ = load_data_spec(DATA)
        direct = run(AnonymizationConfig.from_dict(JOB), table)
        assert served == release_csv_bytes(direct.release.table)
        assert table_sha256(direct.release.table) == record.release_sha256

    def test_batch_submission_and_status(self, service):
        out = service.submit_batch(
            "acme", {"jobs": [JOB, JOB_OTHER_ENV], "data": DATA, "workers": 2}
        )
        assert len(out["job_ids"]) == 2
        for job_id in out["job_ids"]:
            assert _wait(service, job_id).status == "done"
        records = service.batch("acme", out["batch_id"])
        assert [r.status for r in records] == ["done", "done"]

    def test_batch_workers_are_clamped_to_usable_cpus(self, monkeypatch):
        admit = AnonymizationService._batch_options
        cpus = service_server._usable_cpus()
        assert admit({"jobs": [JOB], "workers": 10**6})["workers"] == cpus
        monkeypatch.setattr(service_server, "_usable_cpus", lambda: 3)
        assert admit({"jobs": [JOB], "workers": 10**6})["workers"] == 3
        assert admit({"jobs": [JOB], "workers": 2})["workers"] == 2
        assert "workers" not in admit({"jobs": [JOB]})

    def test_cross_tenant_lookup_is_404_shaped(self, service):
        out = service.submit_job("acme", {"config": JOB, "data": DATA})
        _wait(service, out["job_id"])
        assert service.job("rival", out["job_id"]) is None
        assert service.batch("rival", out["batch_id"]) is None
        assert service.release_bytes("rival", out["job_id"]) is None

    def test_second_identical_batch_served_warm_other_tenant_cold(self, service):
        first = service.submit_job("acme", {"config": JOB, "data": DATA})
        _wait(service, first["job_id"])
        occupancy = service.caches.occupancy()
        (env,) = occupancy["tenants"]["acme"]["environments"].values()
        cold_counters = env["counters"]
        assert cold_counters["from_rows"] >= 1
        second = service.submit_job("acme", {"config": JOB, "data": DATA})
        _wait(service, second["job_id"])
        occupancy = service.caches.occupancy()
        (env,) = occupancy["tenants"]["acme"]["environments"].values()
        warm_counters = env["counters"]
        # warm: no new row scans or rollups, strictly more memo hits
        assert warm_counters["from_rows"] == cold_counters["from_rows"]
        assert warm_counters["rollups"] == cold_counters["rollups"]
        assert warm_counters["hits"] > cold_counters["hits"]
        # a different tenant starts cold in its own store
        other = service.submit_job("rival", {"config": JOB, "data": DATA})
        _wait(service, other["job_id"])
        occupancy = service.caches.occupancy()
        (rival_env,) = occupancy["tenants"]["rival"]["environments"].values()
        assert rival_env["counters"] == cold_counters
        _, digest, _ = load_data_spec(DATA)
        key = _environment_key(AnonymizationConfig.from_dict(JOB))[0]
        budgets = {key: DEFAULT_CACHE_BYTES}
        assert (service.caches.stores_for("rival", digest, budgets)[key]
                is not service.caches.stores_for("acme", digest, budgets)[key])

    def test_a_jobs_cache_bytes_binds_as_in_run(self, service):
        rng = np.random.default_rng(5)
        jobs = ["engineer", "teacher", "nurse", "clerk", "baker", "cook"]
        diseases = ["flu", "hiv", "ulcer", "cancer", "asthma"]
        rows = zip(rng.integers(0, 40, 2000), rng.integers(0, 6, 2000),
                   rng.integers(18, 80, 2000), rng.integers(0, 5, 2000))
        data = {**DATA, "csv": "zipcode,job,age,disease\n" + "".join(
            f"{13000 + z},{jobs[j]},{age},{diseases[d]}\n"
            for z, j, age, d in rows
        )}
        job = {**JOB, "cache_bytes": 65536}
        out = service.submit_job("acme", {"config": job, "data": data})
        record = _wait(service, out["job_id"])
        occupancy = service.caches.occupancy()
        (env,) = occupancy["tenants"]["acme"]["environments"].values()
        assert env["cache_bytes"] == 65536
        # The same budget evicts the same entries as run() does.
        table, _, _ = load_data_spec(data)
        direct = run(AnonymizationConfig.from_dict(job), table)
        assert record.payload["engine_cache"] == direct.to_dict()["engine_cache"]
        assert direct.engine.cache_info()["evictions"] > 0
        assert (service.release_bytes("acme", out["job_id"])
                == release_csv_bytes(direct.release.table))

    def test_failed_job_is_collected_not_fatal(self, service):
        infeasible = {**JOB, "models": [{"model": "k-anonymity", "k": 10**9}]}
        out = service.submit_batch(
            "acme", {"jobs": [infeasible, JOB], "data": DATA}
        )
        bad = _wait(service, out["job_ids"][0])
        good = _wait(service, out["job_ids"][1])
        assert bad.status == "failed" and bad.error["error"]["type"]
        assert good.status == "done"
        with pytest.raises(Exception):
            service.release_bytes("acme", out["job_ids"][0])

    def test_admission_validation(self, service):
        with pytest.raises(ConfigError, match="non-empty list"):
            service.submit_batch("acme", {"jobs": [], "data": DATA})
        with pytest.raises(ConfigError, match="unknown batch keys"):
            service.submit_batch(
                "acme", {"jobs": [JOB], "data": DATA, "on_error": "raise"}
            )
        with pytest.raises(ConfigError, match=r"unknown batch keys \['plan'\]"):
            service.submit_batch(
                "acme", {"jobs": [JOB], "data": DATA, "plan": "nope"}
            )
        with pytest.raises(ConfigError):
            service.submit_job("acme", {"data": DATA})

    def test_record_is_never_done_before_its_data(self, service, monkeypatch):
        from repro.service import queue as queue_module

        real = queue_module.table_sha256
        seen = []

        def spy(table):
            # Read every record mid-completion, as a concurrent poll would.
            with service._lock:
                records = list(service._jobs.values())
            seen.extend(
                (
                    r.status,
                    r.release_sha256,
                    getattr(r, "payload", None),
                    getattr(r, "release_csv", None),
                )
                for r in records
            )
            return real(table)

        monkeypatch.setattr(queue_module, "table_sha256", spy)
        out = service.submit_batch(
            "acme", {"jobs": [JOB, JOB_OTHER_ENV], "data": DATA}
        )
        for job_id in out["job_ids"]:
            assert _wait(service, job_id).status == "done"
        done = [state for state in seen if state[0] == "done"]
        assert done  # the first job was done while the second was hashed
        assert all(None not in state for state in done), done

    def test_failure_after_a_finished_job_keeps_it_done(self, service, monkeypatch):
        from repro.service import queue as queue_module

        real = queue_module.release_csv_bytes
        calls = []

        def second_render_fails(table):
            calls.append(table.n_rows)
            if len(calls) == 2:
                raise MemoryError("render failed")
            return real(table)

        monkeypatch.setattr(queue_module, "release_csv_bytes", second_render_fails)
        out = service.submit_batch(
            "acme", {"jobs": [JOB, JOB_OTHER_ENV], "data": DATA}
        )
        first, second = (_wait(service, job_id) for job_id in out["job_ids"])
        assert first.status == "done" and first.release_csv
        assert second.status == "failed"
        assert second.error == {"error": "MemoryError: render failed"}

    def test_identical_releases_share_bytes_within_a_tenant(self, service):
        first = service.submit_job("acme", {"config": JOB, "data": DATA})
        second = service.submit_job("acme", {"config": JOB, "data": DATA})
        other = service.submit_job("rival", {"config": JOB, "data": DATA})
        for out in (first, second, other):
            assert _wait(service, out["job_id"]).status == "done"
        body = service.release_bytes("acme", first["job_id"])
        assert service.release_bytes("acme", second["job_id"]) is body
        rival = service.release_bytes("rival", other["job_id"])
        assert rival == body and rival is not body

    def test_concurrent_workers_share_one_rendering(self):
        # More workers than cores and a short switch interval: workers that
        # miss the memo together must still leave every record one object.
        interval = sys.getswitchinterval()
        svc = AnonymizationService(queue_workers=4, queue_depth=32)
        try:
            sys.setswitchinterval(1e-6)
            outs = [
                svc.submit_job("acme", {"config": JOB, "data": DATA})
                for _ in range(32)
            ]
            bodies = []
            for out in outs:
                _wait(svc, out["job_id"])
                bodies.append(svc.release_bytes("acme", out["job_id"]))
        finally:
            sys.setswitchinterval(interval)
            svc.close()
        assert all(body is bodies[0] for body in bodies)

    def test_finished_record_keeps_no_release_table(self, service, monkeypatch):
        from repro.service import queue as queue_module

        real = queue_module.run_batch
        tables = []

        def spy(*args, **kwargs):
            results = real(*args, **kwargs)
            tables.extend(weakref.ref(r.release.table) for r in results)
            return results

        monkeypatch.setattr(queue_module, "run_batch", spy)
        out = service.submit_job("acme", {"config": JOB, "data": DATA})
        record = _wait(service, out["job_id"])
        service.queue._queue.join()  # the worker is done with the batch
        gc.collect()
        assert record.status == "done" and len(tables) == 1
        assert tables[0]() is None
        assert record.to_dict()["result"]["summary"]
        assert service.release_bytes("acme", out["job_id"]) == record.release_csv

    def test_release_memo_tells_dtypes_apart(self, service):
        # table_sha256 hashes raw buffers: int64 1 and float64 5e-324
        # digest equal but render differently.
        one = np.array([1], dtype=np.int64)
        ints = Table([Column.numeric("x", one)])
        floats = Table([Column.numeric("x", one.view(np.float64))])
        digest = table_sha256(ints)
        assert table_sha256(floats) == digest
        as_int = service.queue._render("acme", digest, ints)
        as_float = service.queue._render("acme", digest, floats)
        assert as_int == release_csv_bytes(ints)
        assert as_float == release_csv_bytes(floats)
        assert as_int != as_float

    def test_queue_full_rejects_and_rolls_back(self, monkeypatch):
        gate = threading.Event()
        from repro.service import queue as queue_module
        real = queue_module.run_batch

        def blocked(*args, **kwargs):
            gate.wait(30)
            return real(*args, **kwargs)

        monkeypatch.setattr(queue_module, "run_batch", blocked)
        svc = AnonymizationService(queue_workers=1, queue_depth=1)
        try:
            running = svc.submit_job("a", {"config": JOB, "data": DATA})
            time.sleep(0.05)  # let the worker pick it up and block
            queued = svc.submit_job("a", {"config": JOB, "data": DATA})
            with pytest.raises(QueueFull):
                svc.submit_job("a", {"config": JOB, "data": DATA})
            # the rejected job left no registry orphan
            assert len(svc._jobs) == 2
            assert svc.metrics.snapshot()["jobs"]["rejected"] == 1
            gate.set()
            assert _wait(svc, running["job_id"]).status == "done"
            assert _wait(svc, queued["job_id"]).status == "done"
        finally:
            gate.set()
            svc.close()


# ---------------------------------------------------------------------------
# replay log


class TestReplay:
    def test_log_records_and_replays_byte_identical(self, tmp_path):
        log_path = tmp_path / "replay.jsonl"
        svc = AnonymizationService(
            queue_workers=1, queue_depth=8, replay_path=str(log_path)
        )
        try:
            out = svc.submit_batch("acme", {"jobs": [JOB], "data": DATA})
            _wait(svc, out["job_ids"][0])
        finally:
            svc.close()
        events = list(read_events(log_path))
        kinds = [e["event"] for e in events]
        assert kinds == ["accepted", "completed"]
        assert events[0]["tenant"] == "acme"
        assert events[0]["data"]["csv"] == CSV_TEXT
        assert events[1]["status"] == "ok" and events[1]["release_sha256"]
        report = replay(log_path)
        assert [entry["match"] for entry in report] == [True]
        assert report[0]["release_sha256"] == events[1]["release_sha256"]
        # Logs written while batches took a ``plan`` option still replay:
        # replay re-runs each job alone and ignores batch options.
        events[0]["options"] = {"plan": "waves"}
        log_path.write_text(
            "".join(json.dumps(event, sort_keys=True) + "\n" for event in events)
        )
        assert [entry["match"] for entry in replay(log_path)] == [True]

    def test_failed_jobs_logged_and_matched(self, tmp_path):
        log_path = tmp_path / "replay.jsonl"
        infeasible = {**JOB, "models": [{"model": "k-anonymity", "k": 10**9}]}
        svc = AnonymizationService(
            queue_workers=1, queue_depth=8, replay_path=str(log_path)
        )
        try:
            out = svc.submit_job("acme", {"config": infeasible, "data": DATA})
            _wait(svc, out["job_id"])
        finally:
            svc.close()
        report = replay(log_path)
        assert report[0]["status"] == "failed"
        assert report[0]["match"] is True

    def test_a_stale_config_fails_its_entry_and_the_replay_goes_on(self, tmp_path):
        """A config logged with a key this version rejects (``chunk_rows``,
        which every ``to_dict()`` once carried) is one failed entry."""
        log_path = tmp_path / "replay.jsonl"
        config = AnonymizationConfig.from_dict(JOB)
        table, _, data = load_data_spec(DATA)
        digest = table_sha256(run(config, table).release.table)
        log = ReplayLog(log_path)
        for job_id, logged in (
            ("stale", {**config.to_dict(), "chunk_rows": 3}),
            ("valid", config.to_dict()),
        ):
            log.accepted(job_id, "acme", logged, data, batch_id="b")
            log.completed(job_id, "ok", release_sha256=digest)
        stale, valid = replay(log_path)
        assert stale["job_id"] == "stale" and stale["status"] == "failed"
        assert "unknown key 'chunk_rows'" in stale["error"]
        assert stale["match"] is False
        assert valid["job_id"] == "valid" and valid["status"] == "ok"
        assert valid["match"] is True

    def test_a_recorded_release_that_now_fails_is_a_mismatch(self, tmp_path):
        log_path = tmp_path / "replay.jsonl"
        config = {
            "quasi_identifiers": ["zipcode"],
            "models": [{"model": "k-anonymity", "k": 1000}],
            "algorithm": {"algorithm": "flash"},
        }
        data = {"csv": "zipcode\n13053\n13068\n14850\n14853\n", "categorical": ["zipcode"]}
        log = ReplayLog(log_path)
        log.accepted("j", "acme", config, data, batch_id="b")
        log.completed("j", "ok", release_sha256="0" * 64)
        (entry,) = replay(log_path)
        assert entry["status"] == "failed"
        assert entry["match"] is False
        assert entry["recorded_sha256"] == "0" * 64

    @pytest.mark.parametrize(
        "completed, feasible, match",
        [
            pytest.param("published", True, True, id="recorded-digest-republished"),
            pytest.param("other", True, False, id="recorded-digest-differs"),
            pytest.param("other", False, False, id="recorded-digest-now-fails"),
            pytest.param("failed", False, True, id="failed-both-times"),
            pytest.param("failed", True, None, id="failed-then-now-succeeds"),
            pytest.param(None, True, None, id="never-completed-now-succeeds"),
            pytest.param(None, False, None, id="never-completed-now-fails"),
        ],
    )
    def test_match_compares_with_what_the_log_recorded(
        self, tmp_path, completed, feasible, match
    ):
        log_path = tmp_path / "replay.jsonl"
        infeasible = {**JOB, "models": [{"model": "k-anonymity", "k": 10**9}]}
        table, _, data = load_data_spec(DATA)
        published = table_sha256(
            run(AnonymizationConfig.from_dict(JOB), table).release.table
        )
        recorded = {"published": published, "other": "0" * 64}.get(completed)
        log = ReplayLog(log_path)
        log.accepted("j", "acme", JOB if feasible else infeasible, data, batch_id="b")
        if recorded is not None:
            log.completed("j", "ok", release_sha256=recorded)
        elif completed == "failed":
            log.completed("j", "failed", error="InfeasibleError: no node")
        (entry,) = replay(log_path)
        assert entry["status"] == ("ok" if feasible else "failed")
        assert entry["match"] is match
        assert entry["recorded_sha256"] == recorded
        assert entry.get("release_sha256") == (published if feasible else None)

    def test_data_that_no_longer_loads_fails_its_entry(self, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        (root / "gone.csv").write_text(CSV_TEXT)
        spec = {key: value for key, value in DATA.items() if key != "csv"}
        table, _, moved = load_data_spec({**spec, "path": "gone.csv"}, data_root=root)
        _, _, inline = load_data_spec(DATA)
        digest = table_sha256(run(AnonymizationConfig.from_dict(JOB), table).release.table)
        log_path = tmp_path / "replay.jsonl"
        log = ReplayLog(log_path)
        for job_id, data in (("moved", moved), ("inline", inline)):
            log.accepted(job_id, "acme", JOB, data, batch_id="b")
            log.completed(job_id, "ok", release_sha256=digest)
        (root / "gone.csv").unlink()
        moved_entry, inline_entry = replay(log_path, data_root=root)
        assert moved_entry["status"] == "failed"
        assert "'data.path' 'gone.csv' not found" in moved_entry["error"]
        assert moved_entry["match"] is False
        assert inline_entry["status"] == "ok" and inline_entry["match"] is True


# ---------------------------------------------------------------------------
# HTTP surface (live ThreadingHTTPServer on an ephemeral port)


@pytest.fixture
def http_service():
    svc = AnonymizationService(queue_workers=1, queue_depth=4)
    server = create_server(svc, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    port = server.server_address[1]
    yield svc, f"http://127.0.0.1:{port}"
    server.shutdown()
    server.server_close()
    svc.close()


def _host_port(base):
    host, port = base.removeprefix("http://").rsplit(":", 1)
    return host, int(port)


class TestHTTP:
    def test_end_to_end_over_http(self, http_service):
        _, base = http_service
        client = ServiceClient(base, tenant="acme")
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        out = client.submit_job(JOB, DATA)
        record = client.wait(out["job_id"], timeout=30)
        assert record["status"] == "done"
        assert record["result"]["version"] == repro.__version__
        served = client.release_csv(out["job_id"])
        table, _, _ = load_data_spec(DATA)
        direct = run(AnonymizationConfig.from_dict(JOB), table)
        assert served == release_csv_bytes(direct.release.table)
        metrics = client.metrics()
        assert metrics["jobs"]["completed"] >= 1
        assert "acme" in metrics["caches"]["tenants"]
        assert metrics["queue"]["capacity"] == 4

    def test_http_error_mapping(self, http_service):
        _, base = http_service
        client = ServiceClient(base, tenant="acme")
        with pytest.raises(ServiceError) as excinfo:
            client.job("j99999999")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.submit_batch([], DATA)
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit_job({**JOB, "models": [{"model": "nope"}]}, DATA)
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit_job(
                {**JOB, "algorithm": {"algorithm": "mondrian", "engine": "legacy"}},
                DATA,
            )
        assert excinfo.value.status == 400
        assert "unknown key 'engine'" in excinfo.value.message
        bad_tenant = ServiceClient(base, tenant="..")
        with pytest.raises(ServiceError) as excinfo:
            bad_tenant.healthz()
        assert excinfo.value.status == 400

    def test_release_before_done_is_409(self, http_service):
        svc, base = http_service
        client = ServiceClient(base, tenant="acme")
        # register a record directly, bypassing the queue, so it stays queued
        from repro.service.queue import JobRecord
        with svc._lock:
            svc._jobs["j77777777"] = JobRecord(
                id="j77777777", batch_id="b0", tenant="acme",
                config=AnonymizationConfig.from_dict(JOB),
            )
        with pytest.raises(ServiceError) as excinfo:
            client.release_csv("j77777777")
        assert excinfo.value.status == 409

    @pytest.mark.parametrize(
        ("option", "key"),
        [
            ({"job_timeout": 0}, "job_timeout"),
            ({"batch_deadline": float("nan")}, "batch_deadline"),
            ({"retry_backoff": 1.0}, "retry_backoff"),
            ({"backend": "thread"}, "backend"),
            ({"plan": "waves"}, "plan"),
            ({"workers": True}, "workers"),
        ],
        ids=[
            "job_timeout", "batch_deadline", "retry_backoff", "backend", "plan",
            "workers",
        ],
    )
    def test_bad_batch_option_is_400_with_no_job_record(
        self, http_service, option, key
    ):
        svc, base = http_service
        client = ServiceClient(base, tenant="acme")
        with pytest.raises(ServiceError) as excinfo:
            client.submit_batch([JOB], DATA, **option)
        assert excinfo.value.status == 400
        assert f"'{key}'" in excinfo.value.message
        assert svc._jobs == {} and svc._batches == {}

    def test_keep_alive_responses_skip_the_nagle_stall(self, http_service):
        # Headers and body sent as two writes with Nagle on stall each
        # response on the client's delayed ACK, about 40 ms on Linux, so
        # 20 responses take about 0.8 s; in one write they take a few ms.
        _, base = http_service
        conn = http.client.HTTPConnection(*_host_port(base), timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.4

    @pytest.mark.parametrize(
        ("length", "body", "message"),
        [
            (b"abc", b"{}", "Content-Length"),
            (None, b"[" * 100_000, "invalid JSON"),
            (None, b'{"config": "\xff"}', "invalid JSON"),
            (
                None,
                json.dumps(
                    {"config": JOB, "data": {**DATA, "csv": CSV_TEXT + "\ud800"}}
                ).encode(),
                "'data.csv'",
            ),
            (
                None,
                json.dumps({"config": {**JOB, "models": 5}, "data": DATA}).encode(),
                "'models'",
            ),
        ],
        ids=["length-not-integer", "deep-nesting", "not-utf8", "lone-surrogate",
             "mistyped-config"],
    )
    def test_hostile_body_is_400_and_server_survives(
        self, http_service, length, body, message
    ):
        svc, base = http_service
        if length is None:
            length = str(len(body)).encode()
        with socket.create_connection(_host_port(base), timeout=10) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: " + length + b"\r\n\r\n" + body
            )
            response = http.client.HTTPResponse(sock)
            response.begin()
            payload = json.loads(response.read())
        assert response.status == 400
        assert message in payload["error"]
        assert svc._jobs == {}
        assert ServiceClient(base).healthz()["status"] == "ok"

    def test_out_of_memory_parse_is_503_and_server_survives(
        self, http_service, monkeypatch
    ):
        # A CSV parse that runs out of memory is load, like a full queue:
        # 503 with Retry-After, no job record, and the service keeps serving.
        svc, base = http_service

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 5.15 GiB for an array")

        monkeypatch.setattr(service_data, "parse_csv", exhausted)
        conn = http.client.HTTPConnection(*_host_port(base), timeout=10)
        try:
            conn.request("POST", "/v1/jobs", json.dumps({"config": JOB, "data": DATA}))
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 503
        assert response.getheader("Retry-After") == "1"
        assert "out of memory" in payload["error"]
        assert svc._jobs == {}
        client = ServiceClient(base, tenant="acme")
        assert client.healthz()["status"] == "ok"
        monkeypatch.undo()
        out = client.submit_job(JOB, DATA)
        assert client.wait(out["job_id"], timeout=30)["status"] == "done"

    def test_stalled_body_is_408_and_frees_the_handler(self, http_service, monkeypatch):
        # A client that sends less body than its Content-Length would hold a
        # handler thread forever without a read timeout on the connection.
        svc, base = http_service
        monkeypatch.setattr(service_server._Handler, "timeout", 0.5)
        before = set(threading.enumerate())
        with socket.create_connection(_host_port(base), timeout=10) as sock:
            start = time.perf_counter()
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: 100\r\n\r\n" + b'{"config": '
            )
            handlers = []
            while not handlers and time.perf_counter() - start < 2:
                handlers = [
                    thread for thread in set(threading.enumerate()) - before
                    if "process_request_thread" in thread.name
                ]
                time.sleep(0.01)
            response = http.client.HTTPResponse(sock)
            response.begin()
            payload = json.loads(response.read())
            elapsed = time.perf_counter() - start
            assert sock.recv(1) == b""  # the server closed the connection
        assert response.status == 408
        assert response.getheader("Connection") == "close"
        assert "request body" in payload["error"]
        assert elapsed < 2
        assert len(handlers) == 1
        handlers[0].join(timeout=2)
        assert not handlers[0].is_alive()
        assert svc._jobs == {}
        # An idle keep-alive connection closes after the same timeout.
        with socket.create_connection(_host_port(base), timeout=10) as idle:
            start = time.perf_counter()
            assert idle.recv(1) == b""
            assert time.perf_counter() - start < 2
        assert ServiceClient(base).healthz()["status"] == "ok"

    def test_trickled_body_gets_its_408_on_time(self, http_service, monkeypatch):
        # A byte just inside each read's timeout would restart a per-read
        # timeout forever; the whole body has one deadline instead.
        svc, base = http_service
        monkeypatch.setattr(service_server._Handler, "timeout", 0.5)
        stop = threading.Event()
        with socket.create_connection(_host_port(base), timeout=10) as sock:

            def trickle():
                for _ in range(20):
                    if stop.wait(0.15):
                        return
                    try:
                        sock.sendall(b" ")
                    except OSError:  # the server closed the connection
                        return

            start = time.perf_counter()
            sock.sendall(b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\nContent-Length: 20\r\n\r\n")
            trickler = threading.Thread(target=trickle)
            trickler.start()
            try:
                response = http.client.HTTPResponse(sock)
                response.begin()
                payload = json.loads(response.read())
                elapsed = time.perf_counter() - start
            finally:
                stop.set()
                trickler.join(timeout=5)
        assert not trickler.is_alive()
        assert response.status == 408
        assert response.getheader("Connection") == "close"
        assert "request body" in payload["error"]
        assert elapsed < 2 * 0.5
        assert svc._jobs == {}
        assert ServiceClient(base).healthz()["status"] == "ok"

    def test_path_data_that_is_not_utf8_is_400(self, tmp_path):
        raw = CSV_TEXT.encode().replace(b"nurse", b"nurs\xe9", 1)
        (tmp_path / "latin1.csv").write_bytes(raw)
        svc = AnonymizationService(queue_workers=1, queue_depth=4, data_root=tmp_path)
        server = create_server(svc, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
            data = {**DATA, "path": "latin1.csv"}
            del data["csv"]
            with pytest.raises(ServiceError) as excinfo:
                client.submit_job(JOB, data)
            assert excinfo.value.status == 400
            offset = raw.index(b"nurs\xe9") + 4
            assert excinfo.value.message == (
                f"'data': not UTF-8: byte 0xe9 at offset {offset}"
            )
            assert client.healthz()["status"] == "ok"
            assert svc._jobs == {}
        finally:
            server.shutdown()
            server.server_close()
            svc.close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_unknown_path_404(self, http_service):
        _, base = http_service
        client = ServiceClient(base)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v2/nope")
        assert excinfo.value.status == 404


# ---------------------------------------------------------------------------
# CLI serve subcommand


class TestServeCLI:
    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_parser
        args = build_serve_parser().parse_args([])
        assert args.port == 8035 and args.queue_workers == 2

    @pytest.mark.parametrize(
        "flag", ["--tenants-config", "--default-cache-bytes"]
    )
    def test_removed_tenant_flags_exit_2(self, flag, capsys):
        from repro.cli import build_serve_parser
        with pytest.raises(SystemExit) as excinfo:
            build_serve_parser().parse_args([flag, "1"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
    )
    def test_serve_subprocess_round_trip(self, signum):
        env = {**os.environ, "PYTHONPATH": "src"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--queue-workers", "1", "--service-cache-bytes", str(64 << 20)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=Path(__file__).resolve().parent.parent,
        )
        with proc:  # leaving it closes the child's stdout pipe
            try:
                banner = proc.stdout.readline().strip()
                match = re.search(r"http://([\d.]+):(\d+)$", banner)
                assert match, f"unexpected banner: {banner!r}"
                client = ServiceClient(
                    f"http://{match.group(1)}:{match.group(2)}", tenant="acme"
                )
                out = client.submit_job(JOB, DATA)
                record = client.wait(out["job_id"], timeout=30)
                assert record["status"] == "done"
            finally:
                proc.send_signal(signum)
                assert proc.wait(timeout=15) == 0


# ---------------------------------------------------------------------------
# graceful shutdown: the serve loop's signal conversion


class TestGracefulShutdown:
    def test_sigint_equivalent_conversion(self):
        from repro.cli import _arm_signal_conversion
        restore = _arm_signal_conversion()
        try:
            with pytest.raises(KeyboardInterrupt, match="terminated by signal"):
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(1)  # give the handler a bytecode boundary
        finally:
            restore()
        # handlers restored: SIGTERM's previous (default) disposition back
        assert signal.getsignal(signal.SIGTERM) in (
            signal.SIG_DFL, signal.default_int_handler, signal.Handlers.SIG_DFL,
        ) or callable(signal.getsignal(signal.SIGTERM))
