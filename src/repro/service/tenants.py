"""The warm cache registry: every tenant's stores in one recency order.

The service's whole reason to stay resident is this module: one
:class:`~repro.core.cache.EngineCacheStore` per (tenant, environment
fingerprint) survives across requests, so a tenant's second batch over the
same data starts warm — node statistics computed last request are memo
hits now, whichever of the data's QI sets asked for them, and the store's
hierarchies and QI encodings are reused rather than rebuilt — while every
other tenant's traffic stays isolated in its own stores.

The environment fingerprint is ``sha256(data digest + store key)``: cached
``GroupStats`` hold row-level group codes, so warm reuse is sound only
over a byte-identical table (the data digest) evaluated under identical
dropped columns / hierarchy specs / binning / budget (the store key,
element 0 of :func:`repro.api.executor._environment_key`). The key leaves
out the QI roles: one store serves every QI set of a table environment,
since entries are keyed by their column sets (sorted QI names).

One budget rule covers every store:

* a store is created with its jobs' own ``cache_bytes`` (256 MiB when they
  set none), capped at ``service_cache_bytes``, and keeps that budget for
  life — a job's budget means the same here as in :func:`repro.api.run`;
* all stores, whatever their tenant, share one least-recently-used order.
  Each batch moves its stores to the recent end; then, while more than
  :data:`MAX_STORES` stores are live or the live stores hold more than
  ``service_cache_bytes``, the least recently used store outside the batch
  is dropped. A batch's own stores never go.

So right after :meth:`TenantCaches.stores_for` the live stores hold at
most ``service_cache_bytes`` and number at most :data:`MAX_STORES`, unless
only the batch's own stores remain; while a batch runs, each of its stores
holds at most its own budget (or one entry larger than it), and the next
``stores_for`` trims the registry back. The store count needs its own bound because a store's
budget counts only its entries, not the hierarchies, QI encodings and
published columns it also pins.

Recency is dict order, not wall-clock time, so eviction order is
deterministic under test.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Mapping

from ..core.cache import DEFAULT_CACHE_BYTES, EngineCacheStore, check_cache_bytes
from ..errors import ConfigError

__all__ = ["MAX_STORES", "TenantCaches"]

#: Live stores past which the least recently used ones go: 4 tenants × 4
#: table environments.
MAX_STORES = 16


class TenantCaches:
    """Registry of warm :class:`EngineCacheStore` objects, one per
    (tenant, environment fingerprint), in one recency order.

    ``service_cache_bytes`` caps both each new store's budget and the bytes
    the live stores hold together (None: 1 GiB).
    """

    def __init__(self, service_cache_bytes: int | None = None):
        if service_cache_bytes is None:
            service_cache_bytes = 4 * DEFAULT_CACHE_BYTES
        try:
            self.service_cache_bytes = check_cache_bytes(service_cache_bytes)
        except ValueError as exc:
            raise ConfigError(f"service_cache_bytes {exc}") from None
        self._lock = threading.Lock()
        # (tenant, fingerprint) -> store; dict order doubles as the LRU
        # order (touch = pop + re-insert), coldest first, mirroring the
        # store's own recency trick.
        self._stores: dict[tuple[str, str], EngineCacheStore] = {}
        self.counters = {"stores_evicted": 0}

    @staticmethod
    def fingerprint(data_digest: str, evaluator_key: str) -> str:
        """Environment identity: byte-identical data × one table environment.

        ``evaluator_key`` is the store key :func:`repro.api.run_batch`
        shares one store under (element 0 of ``_environment_key``).
        """
        return hashlib.sha256(
            (data_digest + "\x00" + evaluator_key).encode()
        ).hexdigest()

    def stores_for(
        self, tenant: str, data_digest: str, budgets: Mapping[str, int]
    ) -> dict[str, EngineCacheStore]:
        """The ``cache_stores`` mapping for one batch of a tenant's jobs.

        ``budgets`` maps the batch's distinct store keys to their jobs'
        ``cache_bytes``. Returns ``{evaluator_key: store}`` — keyed the way
        :func:`repro.api.run_batch` expects — creating the stores not yet
        resident, then drops least recently used stores of other batches
        past the registry's bounds. Safe to call concurrently.
        """
        with self._lock:
            out: dict[str, EngineCacheStore] = {}
            for evaluator_key, cache_bytes in budgets.items():
                key = (tenant, self.fingerprint(data_digest, evaluator_key))
                store = self._stores.pop(key, None)
                if store is None:
                    store = EngineCacheStore(
                        cache_bytes=min(cache_bytes, self.service_cache_bytes)
                    )
                self._stores[key] = out[evaluator_key] = store
            # The batch's stores sit at the recent end, so the others come
            # first, coldest first.
            held = [store.info()["bytes"] for store in self._stores.values()]
            total = sum(held)
            for size in held[: len(self._stores) - len(out)]:
                if len(self._stores) <= MAX_STORES and total <= self.service_cache_bytes:
                    break
                del self._stores[next(iter(self._stores))]
                total -= size
                self.counters["stores_evicted"] += 1
            return out

    def occupancy(self) -> dict[str, Any]:
        """Residency for ``/metrics``: each live store's bytes, entries,
        budget and counters, grouped by tenant, coldest first."""
        with self._lock:
            tenants: dict[str, Any] = {}
            for (tenant, fp), store in self._stores.items():
                info = store.info()
                slot = tenants.setdefault(tenant, {"environments": {}})
                slot["environments"][fp[:12]] = {
                    "bytes": info.pop("bytes"),
                    "entries": info.pop("entries"),
                    "cache_bytes": store.cache_bytes,
                    "counters": info,
                }
            return {
                "service_cache_bytes": self.service_cache_bytes,
                "counters": dict(self.counters),
                "tenants": tenants,
            }
