"""The engine cache store: pluggable memoization for lattice evaluation.

:class:`EngineCacheStore` is the standalone home of everything that used to
be buried inside :class:`~repro.core.engine.LatticeEvaluator`: the
``store key -> GroupStats`` memo table, the byte budget accounting, the
level-sum stratum index that makes roll-up candidate lookup cheap, the
single-flight in-flight table that keeps concurrent workers from
ever deriving one node's stats twice, and the full telemetry counter set.
An evaluator owns exactly one store, but a store can be constructed first
and handed in (``LatticeEvaluator(..., cache=store)``) — which is how a
batch gives every evaluator of one table environment (one per QI set) a
single store with their jobs' budget, and how the service keeps a warm
store across requests (it bounds its stores by dropping whole ones, see
:mod:`repro.service.tenants`).

A store also holds its table environment for as long as it lives: each
column's hierarchy, built once per table object (:meth:`hierarchies`), and
each QI column's encoding, built once per column and hierarchy object
(:meth:`encoding`), with the published columns memoized on it. Every
evaluator built over the store takes its encodings from there, so a batch
over a warm store builds no hierarchy, encodes no column and rebuilds no
published column. Neither memo counts against the byte budget, and
neither holds an evaluator, so a store is still freed by reference
counting.

Entries are keyed by *store key*: ``(names, node)`` with the QI names in
sorted order and the node's levels permuted to match. A node's groups over
a set of columns do not depend on the order a job lists them in, so
evaluators over different QI sets, or over one column set in different
orders, share whatever column subsets they both reach, and every one of
them reads the entry in that order. The entries grow lazily through one
context the store makes on first use (:meth:`context`): each evaluator
built over the store points it at its table, and it reads the QI
encodings from the store's memo, so an entry grows the same whichever
evaluator asks for it.

Eviction
--------
The store holds one budget, approximate payload bytes (``cache_bytes``),
fixed for its life, and evicts the least recently *used* entry until an
insertion fits. A use is an insertion, a memo hit, or being read as a
roll-up ancestor, so a roll-up workhorse node (typically a subset's
bottom, which is read almost exclusively through the ancestor path) stays
hot. Payload grown after insertion counts too
(:meth:`EngineCacheStore.note_bytes`). A single entry larger than the
budget is kept rather than thrashed.

Counters
--------
Cumulative (never reset by eviction):

========================  ====================================================
``hits``                  requests served from the memo table
``misses``                requests that had to compute (``== from_rows +
                          rollups`` — each miss resolves into exactly one
                          computation)
``from_rows``             O(n_rows) stats computations
``rollups``               O(n_groups) derivations from a cached ancestor
``coalesced``             requests that blocked on another worker's in-flight
                          computation of the same node instead of recomputing
``evictions``             entries dropped by the byte budget
``recomputed_after_evict`` computations of a key that had been cached before
                          and was evicted — the budget-thrash signal
========================  ====================================================
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterator

__all__ = ["EngineCacheStore", "check_cache_bytes"]

Node = tuple[int, ...]
Key = tuple[tuple[str, ...], Node]

#: Default payload budget (bytes) — matches the evaluator's historic default.
DEFAULT_CACHE_BYTES = 256 * 2**20


def check_cache_bytes(value: Any) -> int:
    """Validate a cache byte budget; the single validator every layer uses.

    Raises :class:`ValueError` whose message starts after the field name,
    so callers prepend their own naming style (``"cache_bytes ..."`` here,
    ``"key 'cache_bytes' ..."`` at the config layer).
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"must be a positive integer (bytes), got {value!r}")
    if value <= 0:
        raise ValueError(f"must be a positive integer (bytes), got {value}")
    return value


class EngineCacheStore:
    """Thread-safe, single-flight, byte-budgeted LRU store of ``GroupStats``.

    Parameters
    ----------
    cache_bytes:
        approximate payload-byte budget (keyword-only). Payload grown
        lazily after insertion (histograms, row labels, bounds) is
        accounted via :meth:`note_bytes` and can evict older entries.

    The store never holds its mutex during a stats computation: the first
    thread to request an uncached key registers an in-flight event and
    computes outside the lock; concurrent requesters of the same key block
    on the event and then re-read the cache (``coalesced``). If the owner
    fails, waiters find neither entry nor marker and take over — no lock is
    ever poisoned.
    """

    def __init__(self, *, cache_bytes: int = DEFAULT_CACHE_BYTES):
        try:
            self.cache_bytes = check_cache_bytes(cache_bytes)
        except ValueError as exc:
            raise ValueError(f"cache_bytes {exc}") from None
        # Entry order doubles as the recency order: uses re-insert at the
        # end, so iteration starts at the coldest.
        self._entries: dict[Key, Any] = {}
        # Exact bytes attributed to each *currently cached* entry, so lazy
        # growth on an already-evicted GroupStats can never leak into the
        # budget (that would eventually collapse the cache to one entry).
        self._accounted: dict[Key, int] = {}
        self._cached_bytes = 0
        # Roll-up memo index: names -> level-sum -> set of cached nodes.
        # A roll-up ancestor of ``node`` is componentwise <= ``node``, hence
        # has a strictly smaller level sum, so candidate lookup only touches
        # the strata below the node's instead of scanning the whole cache.
        self._stratum_index: dict[tuple[str, ...], dict[int, set[Node]]] = {}
        # Keys that were cached once and evicted — a later recomputation of
        # one of these is budget thrash, not a first-time miss.
        self._evicted: set[Key] = set()
        self.counters = {
            "hits": 0,
            "misses": 0,
            "from_rows": 0,
            "rollups": 0,
            "evictions": 0,
            "coalesced": 0,
            "recomputed_after_evict": 0,
        }
        # The table environment: hierarchies by (column, numeric role) for
        # the table object in ``_table``, and encodings by column name next
        # to the column and hierarchy objects they were built from.
        self._table: Any = None
        self._hierarchies: dict[tuple[str, bool], Any] = {}
        self._encodings: dict[str, tuple[Any, Any, Any]] = {}
        # The context every entry grows through, made on first use.
        self._context: Any = None
        # One mutex guards every structure above plus the in-flight table;
        # stats computation itself runs outside it (single-flight).
        self._mutex = threading.Lock()
        self._inflight: dict[Key, threading.Event] = {}

    # -- the single-flight memo protocol --------------------------------------

    def get_or_compute(
        self,
        names: tuple[str, ...],
        node: Node,
        compute: Callable[[Any], Any],
    ):
        """Memoized stats of the store key ``(names, node)``; single-flight
        on misses.

        ``compute(ancestor)`` is invoked outside the store lock by exactly
        one thread per uncached key; ``ancestor`` is the store's chosen
        roll-up candidate (a cached strictly-more-specific ``GroupStats``
        over the same names) or None. The returned stats object is inserted
        under the budget and handed to every coalesced waiter.
        """
        key = (names, node)
        event = None
        # The marker is registered inside the try so *any* exit — including
        # an exception raised mid-computation, or an async exception landing
        # right after registration — clears it and wakes the waiters, who
        # then find neither entry nor marker and take over ownership.
        try:
            while True:
                with self._mutex:
                    cached = self._entries.get(key)
                    if cached is not None:
                        self.counters["hits"] += 1
                        self._touch(key)
                        return cached
                    waiter = self._inflight.get(key)
                    if waiter is None:
                        # This thread owns the computation; the roll-up
                        # candidate is picked under the mutex (it reads the
                        # cache), the computation itself runs outside it.
                        ancestor = self._rollup_candidate(names, node)
                        event = threading.Event()
                        self._inflight[key] = event
                        break
                # Another worker is computing this exact node: wait for it,
                # then loop to read the cached result (or take over if it
                # failed / the entry was immediately evicted).
                waiter.wait()
                with self._mutex:
                    self.counters["coalesced"] += 1
            stats = compute(ancestor)
            with self._mutex:
                self.counters["misses"] += 1
                self.counters["rollups" if stats._parent is not None else "from_rows"] += 1
                if key in self._evicted:
                    self._evicted.discard(key)
                    self.counters["recomputed_after_evict"] += 1
                self._insert(key, stats, self.footprint(stats))
            return stats
        finally:
            if event is not None:
                with self._mutex:
                    del self._inflight[key]
                event.set()

    def note_bytes(self, stats: Any, n_bytes: int) -> None:
        """Account payload grown after insertion (lazy histograms, lazily
        resolved row labels, bounds) and evict if the budget is now
        exceeded. Growth on stats no longer cached is ignored — their bytes
        were already released at eviction."""
        with self._mutex:
            key = stats._cache_key
            if key is None or self._entries.get(key) is not stats:
                return
            self._cached_bytes += int(n_bytes)
            self._accounted[key] += int(n_bytes)
            while len(self._entries) > 1 and self._cached_bytes > self.cache_bytes:
                self._evict_one()

    # -- the table environment -------------------------------------------------

    def hierarchies(self, table: Any) -> dict:
        """The per-column hierarchy memo for ``table`` (the ``built=`` dict
        of :func:`repro.api.build_hierarchies`).

        One dict per table object: a batch over another table, even one
        with equal content, gets a fresh dict, because hierarchies are
        built from the rows. Concurrent batches over one table share the
        dict, and ``build_hierarchies`` fills it with ``setdefault``, so
        they end up sharing one hierarchy object per column.
        """
        with self._mutex:
            if self._table is not table:
                self._table = table
                self._hierarchies = {}
            return self._hierarchies

    def encoding(self, column: Any, hierarchy: Any, build: Callable[[], Any]) -> Any:
        """The QI encoding of ``column`` under ``hierarchy``, built by
        ``build()`` unless this store holds one for the same two objects.

        The build runs outside the mutex. Of two evaluators that race to
        encode one column, the first to finish installs its encoding and
        the other returns that one, so both share one object.
        """
        with self._mutex:
            held = self._encodings.get(column.name)
        if held is not None and held[0] is column and held[1] is hierarchy:
            return held[2]
        encoding = build()
        with self._mutex:
            held = self._encodings.get(column.name)
            if held is not None and held[0] is column and held[1] is hierarchy:
                return held[2]
            self._encodings[column.name] = (column, hierarchy, encoding)
        return encoding

    def context(self, table: Any, make: Callable[[], Any]) -> Any:
        """The context every entry grows through (``make()`` builds it on
        first use), pointed at ``table``: each evaluator over the store
        passes its own, so a retired request's table is not pinned."""
        with self._mutex:
            if self._context is None:
                self._context = make()
            self._context.table = table
            return self._context

    # -- bookkeeping (all called under the mutex) ------------------------------

    def _touch(self, key: Key) -> None:
        """Refresh a key's recency (entry order doubles as LRU order)."""
        self._entries[key] = self._entries.pop(key)

    def _insert(self, key: Key, stats: Any, footprint: int) -> None:
        while self._entries and self._cached_bytes + footprint > self.cache_bytes:
            self._evict_one()
        stats._cache_key = key
        self._entries[key] = stats
        names, node = key
        self._stratum_index.setdefault(names, {}).setdefault(sum(node), set()).add(node)
        self._accounted[key] = footprint
        self._cached_bytes += footprint

    def _evict_one(self) -> None:
        """Drop the least recently used entry."""
        key = next(iter(self._entries))
        del self._entries[key]
        self._cached_bytes -= self._accounted.pop(key)
        names, node = key
        stratum = self._stratum_index[names][sum(node)]
        stratum.discard(node)
        if not stratum:
            del self._stratum_index[names][sum(node)]
        self._remember_evicted(key)
        self.counters["evictions"] += 1

    def _remember_evicted(self, key: Key) -> None:
        """Track an evicted key for recomputed_after_evict attribution.

        The set is bookkeeping the byte budget never sees, so it is capped
        at 2**17 keys: under sustained thrash over a huge key universe it
        is dropped wholesale rather than growing without bound (the counter may then
        undercount — an acceptable trade for a store whose whole job is
        bounding memory)."""
        if len(self._evicted) >= 1 << 17:
            self._evicted.clear()
        self._evicted.add(key)

    def _rollup_candidate(self, names: tuple[str, ...], node: Node):
        """Cheapest cached strictly-more-specific node over the same QIs.

        Strata are probed from the most general (highest level sum below the
        node's) downward, and the first stratum holding an ancestor wins:
        roll-up cost is O(parent.n_groups) and group counts shrink as level
        sums grow, so the nearest stratum is where the cheapest parents live.
        This keeps candidate lookup proportional to the cached nodes *below*
        the requested node for the same QI subset, not to the whole cache.
        """
        strata = self._stratum_index.get(names)
        if not strata:
            return None
        node_sum = sum(node)
        for stratum_sum in sorted(strata, reverse=True):
            if stratum_sum >= node_sum:
                # Equal sums + componentwise <= would force equality, and an
                # exact hit was already handled; larger sums cannot qualify.
                continue
            best = None
            for cached_node in strata[stratum_sum]:
                if all(a <= b for a, b in zip(cached_node, node)):
                    stats = self._entries[(names, cached_node)]
                    if best is None or stats.n_groups < best.n_groups:
                        best = stats
            if best is not None:
                # Serving as a roll-up ancestor is a use: without this the
                # workhorse bottoms (only ever read through this path, never
                # as plain hits) would be the *oldest* entries and the first
                # eviction victims under pressure — the opposite of what an
                # LRU order is for.
                self._touch(best._cache_key)
                return best
        return None

    @staticmethod
    def footprint(stats: Any) -> int:
        """Approximate cached payload bytes of one GroupStats entry."""
        total = stats.sizes.nbytes + stats.group_codes.nbytes
        if stats._row_labels is not None:
            total += stats._row_labels.nbytes
        total += sum(hist.nbytes for hist in stats._hists.values())
        total += sum(low.nbytes + high.nbytes for low, high in stats._bounds.values())
        if stats._external is not None:
            total += stats._external[1].nbytes
        return total

    # -- inspection & lifecycle ------------------------------------------------

    def info(self) -> dict:
        """Cumulative counters plus current occupancy."""
        with self._mutex:
            return {
                **self.counters,
                "entries": len(self._entries),
                "bytes": self._cached_bytes,
            }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[Key]:
        """The cached store keys (sorted names, node), coldest first."""
        return iter(self._entries)

    def __repr__(self) -> str:
        return (
            f"EngineCacheStore({len(self._entries)} entries, "
            f"{self._cached_bytes} bytes)"
        )
