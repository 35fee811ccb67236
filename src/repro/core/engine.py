"""Vectorized lattice-node evaluation engine.

Checking a candidate lattice node used to mean rebuilding a generalized
:class:`~repro.core.table.Table` (``apply_node``) and re-partitioning it from
raw rows (``partition_by_qi``) — per node, per algorithm. This module turns
node evaluation into a handful of numpy gathers and bincounts shared by
Incognito, OLA, Flash, and Datafly.

Design
------
**LUTs.** Every QI is encoded once into *base codes* — ground-domain
codes for categorical QIs (via :meth:`Hierarchy.level_map`), rank codes
over the distinct values for numeric QIs — plus one int lookup table per
generalization level. Generalizing a QI to level ``lv`` is then the single
gather ``lut[lv][base_codes]``; no Table is ever rebuilt during the
search. The encodings live on the cache store
(:meth:`EngineCacheStore.encoding`), so the evaluators over one store share
each column's, and a later evaluator over a warm store encodes nothing.

**GroupStats.** Evaluating a node packs the per-QI level codes into one
mixed-radix signature per row (falling back to ``np.unique(axis=0)`` on
int64 overflow, exactly like :meth:`Table.group_signature`) and numbers
the distinct signatures in ascending order. While the radix product R is
at most 4 × rows + 4096, that takes no sort: the present signatures are
marked in a bool array of length R, each row's label is its signature's
rank among them and the group codes are unpacked with
``np.unravel_index``; a larger R sorts through ``np.unique``. It then
materializes a :class:`GroupStats`: per-group sizes via ``np.bincount``,
per-group representative QI codes, and — lazily, per sensitive attribute
— the full (n_groups × n_categories) histogram matrix via a single
flattened bincount (``group_label * n_cats + sens_code``).
Every privacy model's one verdict, ``ok_mask(stats)``, runs directly on
these arrays; no candidate table is materialized during the search.

**Memoization & roll-up contract.** Stats are memoized per *store key*:
the node's QI names in sorted order, with its levels permuted to match.
A node's groups over a set of columns are the same whatever order a job
lists the columns in, so every QI order of one column set shares one
entry. When a node is requested and a *more specific* node over the same
column set is already cached (componentwise ≤), its stats are *rolled up*
instead of recomputed from rows: each cached group's representative codes
are mapped through composed level-to-level LUTs, re-packed, and sizes /
histograms are aggregated group-wise by one weighted ``np.bincount`` each —
O(n_groups) instead of O(n_rows). A histogram is summed from the parent's
only while the parent's (groups × categories) cells are no more than the
table's rows; past that it is counted from the rows.
Roll-up preserves the canonical group order (ascending signature, i.e. the
order :func:`partition_by_qi` produces), so the group indices of an
``ok_mask`` are the same no matter how the stats were derived. Row-level
labels are reconstructed lazily through the parent chain only when failing
rows need them.

Group ordering is byte-compatible with the legacy path over the store
key's columns: groups ascend by packed signature, rows within a group
ascend by index.

**One order, one context.** :meth:`LatticeEvaluator.stats` returns the
stored entry to every caller, so its ``names``, ``node``, group order, row
labels and histogram rows follow the store key whatever order
the caller lists the columns in; no verdict and no release depends on
group order. Every entry grows lazily through its store's one
:class:`_StatsContext`, which each evaluator built over the store points
at its table and which reads each QI's column, hierarchy and encoding from
the store's encoding memo, so an entry grows the same whichever QI set the
evaluator asking for it has.

**Cache store.** Memoization lives in a standalone
:class:`~repro.core.cache.EngineCacheStore`: one byte budget with
least-recently-used eviction, the single-flight in-flight table, and the
counter set — hits, misses, from_rows, rollups, evictions, coalesced,
recomputed_after_evict. The evaluator owns one store but accepts a
pre-built one (``cache=``), which is how :class:`repro.api.BatchPlanner`
gives each environment its jobs' budget and the service injects a
tenant's warm store.

**Concurrency.** One evaluator may serve several worker threads at once
(:func:`repro.api.run_batch` with ``workers > 1``). The store's cache is
guarded by a single mutex, and computations are *single-flight*: the first
thread to request an uncached node registers an in-flight marker and
computes outside the lock; any other thread asking for the same store
key meanwhile blocks on that marker instead of recomputing
(``cache_info()["coalesced"]`` counts those waits), so no node's stats are
ever derived twice. Lazily-grown payload (histograms, value bounds, row
labels) is serialized per :class:`GroupStats` by its own
re-entrant lock. See ``docs/architecture.md`` for the full design.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..errors import ConfigError, HierarchyError, SchemaError
from . import faults
from .cache import EngineCacheStore
from .deadline import check_deadline
from .generalize import HierarchyLike
from .hierarchy import Hierarchy
from .partition_engine import grouped_bounds
from .table import Column, Table, mixed_radix_fits, pack_code_columns

__all__ = ["GroupStats", "LatticeEvaluator"]

Node = tuple[int, ...]

#: Dense grouping allocates arrays of R = ∏radices entries, so it runs while
#: R ≤ _DENSE_ROWS · n + _DENSE_SLACK for n signatures. On a 2-vCPU host
#: (numpy 2.4) it beat np.unique's sort 2.3–4.7× at R = 4n for n from 5k to
#: 200k, and lost from about R = 16n on uniformly random signatures.
_DENSE_ROWS = 4
_DENSE_SLACK = 4096


def _group_signatures(
    signature: np.ndarray, radices: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """(labels, group_codes) of mixed-radix packed signatures.

    Labels number the distinct signatures in ascending order, exactly as
    ``np.unique(signature, return_inverse=True)`` does, and row ``g`` of
    ``group_codes`` unpacks the ``g``-th distinct signature into its
    per-column codes. While the radix product R is small against the row
    count, the present signatures are marked in a bool array of length R
    and each row is labelled by its signature's rank among them, with no
    sort; a larger R sorts through ``np.unique``.
    """
    dims = tuple(max(int(radix), 1) for radix in radices)
    size = math.prod(dims)
    if size <= _DENSE_ROWS * signature.size + _DENSE_SLACK:
        present = np.zeros(size, dtype=bool)
        present[signature] = True
        uniques = np.flatnonzero(present)
        # Zero-filled pages are mapped lazily, so only the ranks written
        # at present signatures cost memory traffic.
        rank = np.zeros(size, dtype=np.int64)
        rank[uniques] = np.arange(uniques.size)
        labels = rank[signature]
    else:
        uniques, labels = np.unique(signature, return_inverse=True)
    return labels, np.stack(np.unravel_index(uniques, dims), axis=1)


def _store_key(names: tuple[str, ...], node: Sequence[int]) -> tuple:
    """A node's store key: its QI names sorted, its levels permuted to match."""
    order = sorted(range(len(names)), key=names.__getitem__)
    return tuple(names[i] for i in order), tuple(node[i] for i in order)


def _sum_by_group(
    group_of: np.ndarray, counts: np.ndarray, n_groups: int, n_rows: int
) -> np.ndarray:
    """int64 sums of ``counts`` per group through one weighted bincount.

    The weights accumulate in float64, exact for integers below 2**53; every
    sum here counts rows of an ``n_rows``-row table.
    """
    assert n_rows < 2**53, "weighted bincount sums are exact only below 2**53 rows"
    return np.bincount(group_of, weights=counts, minlength=n_groups).astype(np.int64)


@dataclass
class GroupStats:
    """Equivalence-class statistics of one lattice node.

    The privacy models' ``ok_mask`` consumes:

    * :attr:`sizes` and :attr:`n_groups` — int64 per-group sizes;
    * :meth:`histogram` — (n_groups, n_categories) int64 counts of a
      sensitive attribute per group;
    * :meth:`global_distribution` — the table-wide sensitive distribution;
    * :meth:`value_bounds` — per-group (min, max) of a numeric column;
    * :meth:`external_counts` — per-group row counts of a population table.

    ``group_codes[g, i]`` is the generalized code of QI ``i`` shared by all
    rows of group ``g`` — the ingredient of roll-up and of distinct-value
    heuristics. Row-level labels are reconstructed lazily (through the
    roll-up parent chain if the stats were derived by roll-up rather than
    from rows). ``names`` and ``node`` are the store key: the QI names
    sorted, the levels permuted to match.

    The eager fields (sizes, group_codes) are immutable after construction;
    every lazily-grown field is guarded by ``_lock`` so one stats object can
    serve several worker threads. The lock is re-entrant (``value_bounds()``
    resolves ``row_labels`` while holding it) and locks are only ever taken
    child-then-parent along the acyclic roll-up chain, so the order is
    deadlock-free.
    """

    names: tuple[str, ...]
    node: Node
    sizes: np.ndarray
    group_codes: np.ndarray
    n_rows: int
    _context: "_StatsContext"
    _row_labels: np.ndarray | None = None
    _parent: tuple["GroupStats", np.ndarray] | None = None
    _hists: dict = field(default_factory=dict)
    _bounds: dict = field(default_factory=dict)
    _external: tuple | None = None
    _cache_key: tuple | None = None
    _lock: Any = field(default_factory=threading.RLock, repr=False, compare=False)

    @property
    def n_groups(self) -> int:
        return int(self.sizes.size)

    def min_size(self) -> int:
        return int(self.sizes.min()) if self.sizes.size else 0

    @property
    def row_labels(self) -> np.ndarray:
        """Per-row group label (resolved through the roll-up parent chain)."""
        with self._lock:
            if self._row_labels is None:
                assert self._parent is not None, "root stats always carry row labels"
                parent, group_map = self._parent
                self._row_labels = group_map[parent.row_labels]
                self._context.note_bytes(self, self._row_labels.nbytes)
            return self._row_labels

    def histogram(self, sensitive: str) -> np.ndarray:
        """(n_groups, n_categories) counts of ``sensitive`` per group.

        A rolled-up node sums its parent's histogram while that has no more
        cells than the table has rows; past that, counting the rows is the
        cheaper pass. Both give the same exact counts.
        """
        with self._lock:
            hist = self._hists.get(sensitive)
            if hist is not None:
                return hist
            codes, n_cats = self._context.column(sensitive)
            parent, group_map = self._parent or (None, None)
            if parent is not None and parent.n_groups * n_cats <= self.n_rows:
                # One weighted bincount over the parent's (group, category) cells.
                cells = (group_map[:, None] * n_cats + np.arange(n_cats)).ravel()
                hist = _sum_by_group(
                    cells, parent.histogram(sensitive).ravel(),
                    self.n_groups * n_cats, self.n_rows,
                ).reshape(self.n_groups, n_cats)
            else:
                labels = self._row_labels
                if labels is None:
                    # Not kept: holding them would cost 8 bytes per row.
                    labels = group_map[parent.row_labels]
                flat = np.bincount(
                    labels * n_cats + codes, minlength=self.n_groups * n_cats
                )
                hist = flat.reshape(self.n_groups, n_cats)
            self._hists[sensitive] = hist
            self._context.note_bytes(self, hist.nbytes)
            return hist

    def global_distribution(self, sensitive: str) -> np.ndarray:
        """Table-wide distribution of ``sensitive`` (t-closeness baseline)."""
        counts = self.histogram(sensitive).sum(axis=0).astype(np.float64)
        total = counts.sum()
        return counts / total if total else counts

    def value_bounds(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-group (min, max) of numeric column ``name`` (float64)."""
        with self._lock:
            bounds = self._bounds.get(name)
            if bounds is not None:
                return bounds
            if self._parent is not None:
                parent, group_map = self._parent
                low, high = parent.value_bounds(name)
                bounds = grouped_bounds(group_map, low, high, self.n_groups)
            else:
                values = self._context.table.values(name)
                bounds = grouped_bounds(self.row_labels, values, values, self.n_groups)
            self._bounds[name] = bounds
            self._context.note_bytes(self, bounds[0].nbytes + bounds[1].nbytes)
            return bounds

    def external_counts(self, table: Table) -> np.ndarray:
        """Per-group row counts of an external table at this node (memoized).

        δ-presence's ``p`` vector: population rows encoded
        through the same hierarchies at this node's generalization, counted
        per group in this stats' group order. Single-slot memo, pinning the
        table it was computed from — a long-cached node never accumulates
        retired population tables across refreshes.
        """
        with self._lock:
            if self._external is None or self._external[0] is not table:
                counts = self._context.external_group_counts(self, table)
                self._external = (table, counts)
                self._context.note_bytes(self, counts.nbytes)
                return counts
            return self._external[1]


class _QIEncoding:
    """Per-QI precomputation: base codes + one LUT per generalization level.

    ``uniques`` is the sorted distinct-value array a numeric QI's rank codes
    index into (None for categorical QIs); external tables — e.g. the
    population table of δ-presence — are translated into the same code space
    through it. ``published`` memoizes the QI's published column per level
    (see :meth:`LatticeEvaluator.materialize`).
    """

    __slots__ = ("base_codes", "luts", "n_labels", "uniques", "published")

    def __init__(
        self,
        base_codes: np.ndarray,
        luts: list[np.ndarray],
        n_labels: list[int],
        uniques: np.ndarray | None = None,
    ):
        self.base_codes = base_codes
        self.luts = luts
        self.n_labels = n_labels
        self.uniques = uniques
        self.published: dict[int, Column] = {}


class _StatsContext:
    """The table-side lookups a :class:`GroupStats` grows lazily through.

    One per :class:`EngineCacheStore` (:meth:`EngineCacheStore.context`),
    shared by all its entries. Each evaluator built over the store points
    :attr:`table` at its own table, byte-identical to the entries' one, and
    the QI lookups read the store's encoding memo (name → column, hierarchy,
    encoding), so any entry grows whatever QI set the asking evaluator has.
    The store is held weakly, so store → stats → context holds no reference
    cycle, and the lookups strongly, so stats keep working after their store
    is dropped (their growth then needs no accounting).
    """

    def __init__(self, store: EngineCacheStore):
        self.table: Table | None = None
        self.encodings = store._encodings
        self._store = weakref.ref(store)
        self._columns: dict[str, tuple[np.ndarray, int]] = {}
        # External-table ground codes, one slot per QI name: the domain
        # translation is node-independent, so a lattice search re-evaluating
        # δ-presence at every node pays for it once per table. Single-slot
        # so a long-lived store seeing refreshed population tables never
        # pins retired ones; the entry stores the table for identity checks.
        self._external_grounds: dict[str, tuple[Table, np.ndarray]] = {}

    def note_bytes(self, stats: GroupStats, n_bytes: int) -> None:
        store = self._store()
        if store is not None:
            store.note_bytes(stats, n_bytes)

    def column(self, name: str) -> tuple[np.ndarray, int]:
        """(int64 codes, category count) of a categorical column."""
        cached = self._columns.get(name)
        if cached is None:
            column = self.table.column(name)
            if not column.is_categorical:
                raise SchemaError(
                    f"column {name!r} must be categorical for group histograms"
                )
            assert column.codes is not None
            cached = (column.codes.astype(np.int64), len(column.categories))
            self._columns[name] = cached
        return cached

    def _external_ground(
        self, name: str, table: Table, column, hierarchy: Hierarchy
    ) -> np.ndarray:
        """External rows as research-domain ground codes (-1 = no match)."""
        entry = self._external_grounds.get(name)
        if entry is not None and entry[0] is table:
            return entry[1]
        ground_index = {value: code for code, value in enumerate(hierarchy.ground)}
        translate = np.array(
            [ground_index.get(v, -1) for v in column.categories], dtype=np.int64
        )
        ground = translate[column.codes]
        self._external_grounds[name] = (table, ground)
        return ground

    def external_group_counts(self, stats: GroupStats, table: Table) -> np.ndarray:
        """Rows of an external table matching each of ``stats``' groups.

        The external table (e.g. δ-presence's population) is generalized
        through the same hierarchies at ``stats.node`` and its rows are
        matched against the groups' representative codes. Values outside the
        research table's domain — an unseen category, or (at level 0) a
        numeric value absent from the research column — match no group.
        Returns int64 counts aligned with ``stats``' group order.
        """
        code_columns: list[np.ndarray] = []
        radices: list[int] = []
        valid = np.ones(table.n_rows, dtype=bool)
        for name, level in zip(stats.names, stats.node):
            _, hierarchy, enc = self.encodings[name]
            column = table.column(name)
            if column.is_categorical:
                assert isinstance(hierarchy, Hierarchy) and column.codes is not None
                ground = self._external_ground(name, table, column, hierarchy)
                valid &= ground >= 0
                codes = enc.luts[level][np.where(ground >= 0, ground, 0)]
            else:
                assert column.values is not None and enc.uniques is not None
                if level == 0:
                    ranks = np.searchsorted(enc.uniques, column.values)
                    ranks = np.clip(ranks, 0, enc.uniques.size - 1)
                    valid &= enc.uniques[ranks] == column.values
                    codes = ranks.astype(np.int64)
                else:
                    codes = hierarchy.bin_values(column.values, level).astype(np.int64)
            code_columns.append(codes)
            radices.append(enc.n_labels[level])
        # Pack external rows and group representatives in ONE call: the
        # int64-overflow fallback labels by np.unique(axis=0), and labels
        # from separate pack calls would not be comparable.
        joint = [
            np.concatenate([codes, stats.group_codes[:, i]])
            for i, codes in enumerate(code_columns)
        ]
        packed = pack_code_columns(joint, radices)
        external_sig = packed[: table.n_rows][valid]
        group_sig = packed[table.n_rows :]
        uniques, match_counts = np.unique(external_sig, return_counts=True)
        slots = np.searchsorted(uniques, group_sig)
        slots = np.clip(slots, 0, max(uniques.size - 1, 0))
        counts = np.zeros(stats.n_groups, dtype=np.int64)
        if uniques.size:
            matched = uniques[slots] == group_sig
            counts[matched] = match_counts[slots[matched]]
        return counts


class LatticeEvaluator:
    """Shared node-evaluation engine for full-domain lattice searches.

    Construct once per search from the (identifier-stripped) input table,
    the QI list, and the hierarchies; then evaluate any node of the full
    lattice — or of any projected sub-lattice (``names=`` subset, as
    Incognito's subset phases need) — without rebuilding tables.

    The memo cache is an :class:`~repro.core.cache.EngineCacheStore`
    holding :class:`GroupStats` by store key (sorted names, levels permuted
    to match), which every caller reads whatever its column order.
    ``cache=`` hands in a pre-built store; the default is a fresh one with
    the default byte budget (256 MiB), so large-lattice searches over
    many-row tables cannot pin O(nodes × rows) of label arrays. The store
    evicts its least recently used entry. Payload grown after insertion
    (lazy histograms, lazily-resolved row labels) is accounted too and can
    trigger eviction of older entries. Evicted entries may stay
    alive while a rolled-up descendant still references them, but each
    roll-up chain shares a single per-row label array at its root, so that
    overhang is bounded.

    The evaluator is thread-safe: cache bookkeeping runs under one mutex and
    node computations are single-flight (see the module docstring), so
    :func:`repro.api.run_batch` can point several worker threads at one
    shared evaluator without ever evaluating a node twice.

    Example (doctested)::

        >>> import numpy as np
        >>> from repro.core.table import Table
        >>> from repro.core.hierarchy import Hierarchy
        >>> table = Table.from_dict(
        ...     {"city": ["paris", "paris", "lyon", "osaka"],
        ...      "disease": ["flu", "flu", "hiv", "flu"]},
        ...     categorical=["city", "disease"],
        ... )
        >>> hierarchy = Hierarchy.from_tree({"EU": ["paris", "lyon"],
        ...                                  "AS": ["osaka"]})
        >>> engine = LatticeEvaluator(table, ["city"], {"city": hierarchy})
        >>> engine.stats((1,)).sizes.tolist()   # EU: 3 rows, AS: 1 row
        [3, 1]
        >>> engine.n_groups((2,))               # everything rolls up to '*'
        1
        >>> engine.stats((1,)).histogram("disease").tolist()
        [[2, 1], [1, 0]]
        >>> engine.cache_info()["from_rows"]
        1
    """

    def __init__(
        self,
        table: Table,
        qi_names: Sequence[str],
        hierarchies: Mapping[str, HierarchyLike],
        cache: EngineCacheStore | None = None,
    ):
        self.table = table
        self.qi_names = tuple(qi_names)
        self.hierarchies = hierarchies
        # The store carries the memo table, budget accounting, stratum
        # index, single-flight table, and counters; a pre-built store may
        # be handed in (a batch's per-environment store, a warm one).
        self.cache = EngineCacheStore() if cache is None else cache
        # Encodings live on the store, so evaluators over one store (other
        # QI sets, later requests) share each column's.
        self._encodings = {
            name: self.cache.encoding(
                table.column(name), hierarchies[name], lambda: self._encode_qi(name)
            )
            for name in self.qi_names
        }
        self._level_maps: dict[tuple[str, int, int], np.ndarray] = {}
        #: The store's one context, which every entry grows through, now
        #: pointed at this evaluator's table.
        self.context = self.cache.context(table, lambda: _StatsContext(self.cache))

    # -- precomputation ------------------------------------------------------

    def _encode_qi(self, name: str) -> _QIEncoding:
        column = self.table.column(name)
        hierarchy = self.hierarchies[name]
        if column.is_categorical:
            if not isinstance(hierarchy, Hierarchy):
                raise HierarchyError(
                    f"categorical QI {name!r} needs a Hierarchy, got {type(hierarchy).__name__}"
                )
            base = hierarchy.ground_codes(column)
            luts = [hierarchy.level_map(lv) for lv in range(hierarchy.height + 1)]
            n_labels = [len(hierarchy.labels(lv)) for lv in range(hierarchy.height + 1)]
            return _QIEncoding(base, luts, n_labels)
        # Numeric QI: rank-encode the distinct values, then per-level LUTs
        # over the distinct-value domain via interval binning.
        if not hasattr(hierarchy, "bin_values"):
            raise HierarchyError(
                f"column {name!r} is numeric; use IntervalHierarchy, "
                f"got {type(hierarchy).__name__}"
            )
        assert column.values is not None
        uniques, base = np.unique(column.values, return_inverse=True)
        luts = [np.arange(uniques.size, dtype=np.int64)]
        n_labels = [int(uniques.size)]
        for lv in range(1, hierarchy.height + 1):
            luts.append(hierarchy.bin_values(uniques, lv).astype(np.int64))
            n_labels.append(len(hierarchy.intervals(lv)))
        return _QIEncoding(base.astype(np.int64), luts, n_labels, uniques=uniques)

    def _level_map_between(self, name: str, low: int, high: int) -> np.ndarray:
        """Composed LUT mapping level-``low`` codes to level-``high`` codes.

        Valid because every hierarchy level refines the next (checked at
        Hierarchy construction; interval merging is monotone by design), so
        scattering ``lut[high]`` through ``lut[low]`` is conflict-free.

        Unlocked on purpose: the memo write is idempotent (two racing
        threads compute identical arrays and either may win), so the worst
        case is one wasted recomputation, never a wrong value. The same
        holds for the encodings' ``published`` and the context's
        ``_columns`` and ``_external_grounds`` memos.
        """
        key = (name, low, high)
        comp = self._level_maps.get(key)
        if comp is None:
            enc = self._encodings[name]
            comp = np.zeros(enc.n_labels[low], dtype=np.int64)
            comp[enc.luts[low]] = enc.luts[high]
            self._level_maps[key] = comp
        return comp

    # -- stats ---------------------------------------------------------------

    def stats(self, node: Sequence[int], names: Sequence[str] | None = None) -> GroupStats:
        """Memoized :class:`GroupStats` of a node (roll-up when possible).

        Every caller gets the stored entry, so its ``names``, ``node`` and
        groups follow the store key (names sorted, levels permuted to
        match), whatever order ``names`` lists the columns in.

        Thread-safe and single-flight via the cache store: when several
        workers request the same uncached store key at once, exactly one
        computes it (from rows or by roll-up) while the others block on
        the computation's in-flight marker and then read the freshly cached
        entry — counted under ``coalesced`` in :meth:`cache_info`.

        This is also the executor's cooperative checkpoint: an armed
        :class:`~repro.core.deadline.Deadline` is checked between node
        evaluations here, so an overrunning search is interrupted with a
        timeout/deadline error at the next node boundary. The
        ``evaluate-node`` fault-injection point fires here too, once per
        call, with the store key's ``names`` and ``node`` (no-op unless a
        fault plan is armed).
        """
        names = self.qi_names if names is None else tuple(names)
        key_names, key_node = _store_key(names, tuple(int(lv) for lv in node))
        check_deadline()
        if faults.any_armed():
            faults.fire("evaluate-node", names=key_names, node=key_node)

        def compute(ancestor: GroupStats | None) -> GroupStats:
            if ancestor is not None:
                return self._rollup(ancestor, key_node)
            return self._stats_from_rows(key_names, key_node)

        return self.cache.get_or_compute(key_names, key_node, compute)

    def cache_info(self) -> dict:
        """Cumulative cache telemetry plus current occupancy.

        ``from_rows`` counts O(n_rows) stats computations, ``rollups``
        O(n_groups) derivations, ``hits`` memo returns, ``misses`` requests
        that had to compute (``misses == from_rows + rollups``). A shared
        evaluator re-used across batch jobs shows ``hits`` growing while
        ``from_rows`` stays put — the evidence that lattice nodes are
        evaluated once. ``coalesced`` counts requests that blocked on
        another worker's in-flight computation of the same node instead of
        recomputing it (each such request is then also a ``hit`` when it
        reads the freshly cached entry); with zero evictions, ``from_rows +
        rollups == entries`` proves no node was ever evaluated twice,
        sequentially or under parallel workers. ``recomputed_after_evict``
        counts computations of keys that had been cached and were evicted —
        the budget-thrash signal.
        """
        return self.cache.info()

    def _group(
        self, code_columns: list[np.ndarray], radices: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(labels, group_codes) of packed columns.

        Delegates the packing (and its int64-overflow fallback) to
        :func:`repro.core.table.pack_code_columns` so the engine's group
        order is the same code path ``Table.group_rows`` uses, by
        construction rather than by parallel implementation.
        """
        signature = pack_code_columns(code_columns, radices)
        if mixed_radix_fits(radices):
            return _group_signatures(signature, radices)
        _, first, labels = np.unique(signature, return_index=True, return_inverse=True)
        group_codes = np.stack([codes[first] for codes in code_columns], axis=1)
        return labels, group_codes

    def _stats_from_rows(self, names: tuple[str, ...], node: Node) -> GroupStats:
        encodings = [self._encodings[name] for name in names]
        radices = [enc.n_labels[level] for enc, level in zip(encodings, node)]
        code_columns = [
            enc.luts[level][enc.base_codes].astype(np.int64)
            for enc, level in zip(encodings, node)
        ]
        labels, group_codes = self._group(code_columns, radices)
        sizes = np.bincount(labels, minlength=group_codes.shape[0]).astype(np.int64)
        return GroupStats(
            names=names,
            node=node,
            sizes=sizes,
            group_codes=group_codes,
            n_rows=self.table.n_rows,
            _context=self.context,
            _row_labels=labels,
        )

    def _rollup(self, parent: GroupStats, node: Node) -> GroupStats:
        """``parent``'s groups raised to ``node`` over the same columns."""
        code_columns = []
        radices = []
        for i, (name, level) in enumerate(zip(parent.names, node)):
            comp = self._level_map_between(name, parent.node[i], level)
            code_columns.append(comp[parent.group_codes[:, i]])
            radices.append(self._encodings[name].n_labels[level])
        group_map, group_codes = self._group(code_columns, radices)
        sizes = _sum_by_group(group_map, parent.sizes, group_codes.shape[0], parent.n_rows)
        return GroupStats(
            names=parent.names,
            node=node,
            sizes=sizes,
            group_codes=group_codes,
            n_rows=parent.n_rows,
            _context=self.context,
            _parent=(parent, group_map),
        )

    # -- model evaluation ----------------------------------------------------

    def check(
        self,
        node: Sequence[int],
        models: Sequence,
        names: Sequence[str] | None = None,
    ) -> bool:
        """True iff the node has groups and every model's ``ok_mask`` holds."""
        stats = self.stats(node, names)
        return bool(stats.n_groups) and all(
            bool(model.ok_mask(stats).all()) for model in models
        )

    def failing_row_count(
        self,
        node: Sequence[int],
        models: Sequence,
        names: Sequence[str] | None = None,
    ) -> int:
        """Rows belonging to any failing group (the suppression cost)."""
        stats = self.stats(node, names)
        return int(stats.sizes[self._failing_mask(stats, models)].sum())

    def failing_rows(
        self,
        node: Sequence[int],
        models: Sequence,
        names: Sequence[str] | None = None,
    ) -> np.ndarray:
        """Ascending row indices of every failing group at the node.

        Suppression steps consume this, so the search's admission decision
        and the final suppression read the same verdicts.
        """
        stats = self.stats(node, names)
        return np.flatnonzero(self._failing_mask(stats, models)[stats.row_labels])

    @staticmethod
    def _failing_mask(stats: GroupStats, models: Sequence) -> np.ndarray:
        mask = np.zeros(stats.n_groups, dtype=bool)
        for model in models:
            mask |= ~model.ok_mask(stats)
        return mask

    def evaluate(
        self,
        node: Sequence[int],
        models: Sequence,
        max_suppression: float = 0.0,
        names: Sequence[str] | None = None,
    ) -> bool:
        """Node satisfies the models, possibly within a suppression budget.

        With a budget the failing mask is computed directly, since a failed
        check alone cannot decide the verdict anyway.
        """
        if max_suppression <= 0:
            return self.check(node, models, names)
        budget = max_suppression * self.table.n_rows
        return self.failing_row_count(node, models, names) <= budget

    # -- materialization & heuristics ---------------------------------------

    def materialize(
        self,
        node: Sequence[int],
        names: Sequence[str] | None = None,
        table: Table | None = None,
    ) -> Table:
        """Generalized copy of ``table`` at the node (the winning node only).

        ``table`` defaults to the evaluator's own; a search passes the job's
        identifier-stripped input, whatever table the evaluator was built
        over. Each QI column is the level's LUT gathered at the engine's
        base codes, so no value is translated or binned again; a numeric QI
        at level 0 stays as it is. Equal to :func:`apply_node` over the same
        rows, codes and dtypes included. A column is built once per (QI,
        level) and memoized on the QI's encoding, so every release over
        this evaluator's store that publishes it shares it, later requests
        over a warm store included, as the non-QI columns are shared with
        the input table.
        """
        names = self.qi_names if names is None else tuple(names)
        table = self.table if table is None else table
        if table.n_rows != self.table.n_rows:
            raise ConfigError(
                f"the evaluator holds {self.table.n_rows} rows but the table "
                f"to publish has {table.n_rows}"
            )
        if len(names) != len(node):
            raise HierarchyError("attributes and node levels must be parallel")
        columns = []
        for name, level in zip(names, node):
            enc = self._encodings[name]
            level = int(level)
            if enc.uniques is not None and level == 0:
                continue
            column = enc.published.get(level)
            if column is None:
                hierarchy = self.hierarchies[name]
                if enc.uniques is None:
                    labels = hierarchy.labels(level)
                else:
                    intervals = hierarchy.intervals(level)
                    labels = [hierarchy.label(interval) for interval in intervals]
                column = Column.from_codes(name, enc.luts[level][enc.base_codes], labels)
                enc.published[level] = column
            columns.append(column)
        return table.replace(*columns)

    def n_groups(self, node: Sequence[int], names: Sequence[str] | None = None) -> int:
        return self.stats(node, names).n_groups

    def min_size(self, node: Sequence[int], names: Sequence[str] | None = None) -> int:
        """Size of the node's smallest group (its k-anonymity level)."""
        return self.stats(node, names).min_size()

    def distinct_counts(
        self, node: Sequence[int], names: Sequence[str] | None = None
    ) -> list[int]:
        """Per-QI distinct generalized values present (Datafly heuristic),
        in the order of ``names``."""
        names = self.qi_names if names is None else tuple(names)
        stats = self.stats(node, names)
        return [
            int(np.unique(stats.group_codes[:, stats.names.index(name)]).size)
            for name in names
        ]

    def distinct_after(
        self,
        node: Sequence[int],
        qi_index: int,
        new_level: int,
        names: Sequence[str] | None = None,
    ) -> int:
        """Distinct values of one QI if raised to ``new_level`` (loss ablation)."""
        names = self.qi_names if names is None else tuple(names)
        stats = self.stats(node, names)
        name = names[qi_index]
        comp = self._level_map_between(name, int(node[qi_index]), new_level)
        return int(np.unique(comp[stats.group_codes[:, stats.names.index(name)]]).size)

    def __repr__(self) -> str:
        return (
            f"LatticeEvaluator({len(self.qi_names)} QIs, {self.table.n_rows} rows, "
            f"{len(self.cache)} cached nodes)"
        )
