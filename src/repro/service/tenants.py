"""Per-tenant warm cache registry with budget slicing and eviction ladder.

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
since entries are keyed by their column sets (sorted QI names). An
environment here, and so ``max_environments``, counts table environments.

Budgets form a ladder, applied in order whenever a store is created:

1. **slice** — a tenant's ``cache_bytes`` is divided equally across its
   live environment stores (shrinks evict immediately via
   :meth:`EngineCacheStore.resize`);
2. **environment LRU** — a tenant over its ``max_environments`` drops its
   least-recently-used environment store;
3. **tenant LRU** — when the sum of live tenants' budgets exceeds the
   global ``service_cache_bytes``, whole least-recently-used tenants are
   evicted (never the one currently being served).

Recency is a monotone counter, not wall-clock time, so eviction order is
deterministic under test.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Mapping

from ..core.cache import DEFAULT_CACHE_BYTES, EngineCacheStore, check_cache_bytes
from ..errors import ConfigError

__all__ = ["TenantCaches", "TenantPolicy"]

#: A slice never shrinks below this — a store too small to hold one node's
#: stats would thrash instead of warming.
MIN_SLICE_BYTES = 1 << 20


class TenantPolicy:
    """Validated per-tenant knobs (from the ``--tenants-config`` JSON)."""

    __slots__ = ("cache_bytes", "max_environments")

    def __init__(self, cache_bytes: int, max_environments: int):
        try:
            self.cache_bytes = check_cache_bytes(cache_bytes)
        except ValueError as exc:
            raise ConfigError(f"tenant cache_bytes {exc}") from None
        if int(max_environments) < 1:
            raise ConfigError(
                f"tenant max_environments must be >= 1, got {max_environments}"
            )
        self.max_environments = int(max_environments)


class TenantCaches:
    """Registry of warm :class:`EngineCacheStore` objects, one per
    (tenant, environment fingerprint).

    Parameters
    ----------
    tenants_config:
        mapping of tenant name -> ``{"cache_bytes": int, "max_environments":
        int}`` (both optional per tenant). Unknown tenants get the defaults.
    default_cache_bytes / default_max_environments:
        policy for tenants absent from ``tenants_config``.
    service_cache_bytes:
        global cap on the sum of live tenants' budgets; exceeding it evicts
        whole LRU tenants.
    """

    def __init__(
        self,
        tenants_config: Mapping[str, Any] | None = None,
        default_cache_bytes: int = DEFAULT_CACHE_BYTES,
        default_max_environments: int = 4,
        service_cache_bytes: int = 4 * DEFAULT_CACHE_BYTES,
    ):
        self._default = TenantPolicy(default_cache_bytes, default_max_environments)
        self._policies: dict[str, TenantPolicy] = {}
        for tenant, spec in dict(tenants_config or {}).items():
            if not isinstance(spec, dict):
                raise ConfigError(f"tenant {tenant!r}: config must be an object")
            unknown = set(spec) - {"cache_bytes", "max_environments"}
            if unknown:
                raise ConfigError(
                    f"tenant {tenant!r}: unknown keys {sorted(unknown)}"
                )
            self._policies[tenant] = TenantPolicy(
                spec.get("cache_bytes", default_cache_bytes),
                spec.get("max_environments", default_max_environments),
            )
        try:
            self.service_cache_bytes = check_cache_bytes(service_cache_bytes)
        except ValueError as exc:
            raise ConfigError(f"service_cache_bytes {exc}") from None
        self._lock = threading.Lock()
        # tenant -> fingerprint -> store; dict order doubles as LRU order
        # at both levels (touch = pop + re-insert), mirroring the store's
        # own recency trick.
        self._stores: dict[str, dict[str, EngineCacheStore]] = {}
        self._clock = 0
        self.counters = {"environments_evicted": 0, "tenants_evicted": 0}

    def policy(self, tenant: str) -> TenantPolicy:
        return self._policies.get(tenant, self._default)

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
        self, tenant: str, data_digest: str, evaluator_keys: list[str]
    ) -> dict[str, EngineCacheStore]:
        """The ``cache_stores`` mapping for one batch of a tenant's jobs.

        ``evaluator_keys`` are the batch's distinct store keys. Returns
        ``{evaluator_key: store}`` — keyed the way
        :func:`repro.api.run_batch` expects — creating stores (and walking
        the eviction ladder) for fingerprints not yet resident. Safe to
        call concurrently; a tenant's own batch never evicts its sibling
        environments mid-flight beyond what the ladder demands.
        """
        with self._lock:
            per_tenant = self._stores.pop(tenant, {})
            self._stores[tenant] = per_tenant  # tenant LRU touch
            policy = self.policy(tenant)
            out: dict[str, EngineCacheStore] = {}
            for evaluator_key in evaluator_keys:
                fp = self.fingerprint(data_digest, evaluator_key)
                store = per_tenant.pop(fp, None)
                if store is None:
                    store = EngineCacheStore(cache_bytes=policy.cache_bytes)
                per_tenant[fp] = store  # environment LRU touch
                out[evaluator_key] = store
            # Ladder step 2: environment LRU within the tenant.
            protected = {
                self.fingerprint(data_digest, k) for k in evaluator_keys
            }
            while len(per_tenant) > policy.max_environments:
                victim = next(
                    (fp for fp in per_tenant if fp not in protected), None
                )
                if victim is None:
                    break  # one batch legitimately spans > max_environments
                del per_tenant[victim]
                self.counters["environments_evicted"] += 1
            # Ladder step 1: equal re-slice of the tenant budget.
            slice_bytes = max(
                policy.cache_bytes // max(len(per_tenant), 1), MIN_SLICE_BYTES
            )
            for store in per_tenant.values():
                if store.cache_bytes != slice_bytes:
                    store.resize(slice_bytes)
            # Ladder step 3: global tenant LRU (never the tenant in hand).
            while (
                sum(self.policy(t).cache_bytes for t in self._stores if self._stores[t])
                > self.service_cache_bytes
                and len([t for t in self._stores if self._stores[t]]) > 1
            ):
                victim_tenant = next(
                    (t for t in self._stores if t != tenant and self._stores[t]),
                    None,
                )
                if victim_tenant is None:
                    break
                self._stores[victim_tenant] = {}
                self.counters["tenants_evicted"] += 1
            return out

    def occupancy(self) -> dict[str, Any]:
        """Per-tenant residency for ``/metrics``: budgets, live environments,
        and each store's byte occupancy."""
        with self._lock:
            tenants = {}
            for tenant, per_tenant in self._stores.items():
                if not per_tenant:
                    continue
                policy = self.policy(tenant)
                tenants[tenant] = {
                    "cache_bytes": policy.cache_bytes,
                    "max_environments": policy.max_environments,
                    "environments": {
                        fp[:12]: {
                            "bytes": (occ := store.occupancy())["bytes"],
                            "entries": occ["entries"],
                            "slice_bytes": store.cache_bytes,
                            "counters": dict(store.counters),
                        }
                        for fp, store in per_tenant.items()
                    },
                }
            return {
                "service_cache_bytes": self.service_cache_bytes,
                "counters": dict(self.counters),
                "tenants": tenants,
            }
