"""Incremental partition statistics for the local-recoding algorithms.

The lattice algorithms score whole generalization nodes through
:class:`~repro.core.engine.GroupStats`; the local-recoding family (Mondrian,
top-down specialization, MDAV, k-member, anatomy, slicing) instead refines an
explicit row partition, and checks every candidate split of every node.

This module is the partition-based analog of ``GroupStats``:

* :class:`PartitionGroup` — one candidate equivalence class: its row indices
  plus lazily-cached per-attribute code slices and sensitive histograms. A
  child's histogram is *derived*, never recounted: when a group is split in
  two and the sibling's histogram is already known, the other side is the
  parent's bincount minus the sibling's (one vector subtraction); otherwise
  it is a single masked bincount over the group's cached code slice. The
  full table is scanned exactly once per attribute, at the root.
* :class:`PartitionStats` — duck-types the ``GroupStats`` surface the privacy
  models' ``ok_mask`` consumes (``sizes``, ``min_size``, ``n_groups``,
  ``histogram``, ``global_distribution``, ``value_bounds``) so every model
  runs unchanged on row partitions. Its ``external_counts`` raises a
  :class:`~repro.errors.ConfigError`: a row partition is not a
  generalization node, so δ-presence's population cannot be generalized
  like it.
* :class:`PartitionEngine` — owns the table-wide caches (column codes, level
  encodings, global distributions), materializes groups/splits, and answers
  feasibility checks through ``ok_mask``. ``cache_info()`` exposes counters:
  ``groups_materialized``, ``histogram_splits`` (delta-derived histograms),
  ``histogram_scans`` (bincount-derived, including the root) and
  ``checks_fast`` (model verdicts).

Group row order is preserved verbatim (children are carved out positionally,
not re-sorted): relaxed-mode Mondrian's child ordering feeds its grandchild
splits, so order is part of byte-for-byte output parity with the legacy path.
Mondrian's frontier keeps a level's groups as packed arrays rather
than ``PartitionGroup`` objects and reproduces the same positional order
with one stable sort per level.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..errors import ConfigError
from .table import Table

__all__ = [
    "PartitionEngine",
    "PartitionGroup",
    "PartitionStats",
    "grouped_bounds",
    "grouped_histograms",
]


def grouped_histograms(
    labels: np.ndarray, codes: np.ndarray, n_groups: int, n_cats: int
) -> np.ndarray:
    """(n_groups, n_cats) counts via one flattened bincount.

    Integer-exact equivalent of bincounting each group separately — the same
    trick ``GroupStats.histogram`` uses for lattice nodes.
    """
    flat = np.bincount(
        labels.astype(np.int64) * n_cats + codes.astype(np.int64),
        minlength=n_groups * n_cats,
    )
    return flat.reshape(n_groups, n_cats)


def grouped_bounds(
    labels: np.ndarray, low: np.ndarray, high: np.ndarray, n_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-group (min of ``low``, max of ``high``) as float64 arrays.

    ``low`` and ``high`` are the same value column for raw rows, or child
    bounds when rolling groups up; an empty group reads (inf, -inf).
    """
    mins = np.full(n_groups, np.inf)
    maxs = np.full(n_groups, -np.inf)
    np.minimum.at(mins, labels, low)
    np.maximum.at(maxs, labels, high)
    return mins, maxs


class PartitionGroup:
    """One candidate equivalence class tracked by a :class:`PartitionEngine`.

    ``rows`` is the group's row-index array in *algorithm order* (not
    sorted). Code slices and histograms are cached lazily; splitting carries
    them down positionally so no attribute is ever re-gathered from the full
    table.
    """

    __slots__ = ("rows", "_engine", "_parent", "_positions", "_sibling_hists", "_codes", "_hists")

    def __init__(self, engine, rows, parent=None, positions=None):
        self.rows = rows
        self._engine = engine
        self._parent = parent
        self._positions = positions
        # The sibling's histogram memo rather than the sibling itself: two
        # groups pointing at each other would be a reference cycle, left
        # for the cyclic collector instead of freed by reference counting.
        self._sibling_hists: dict[str, np.ndarray] | None = None
        self._codes: dict[str, np.ndarray] = {}
        self._hists: dict[str, np.ndarray] = {}

    @property
    def size(self) -> int:
        return int(self.rows.size)

    def codes(self, name: str) -> np.ndarray:
        """This group's code slice of attribute ``name`` (row order)."""
        slice_ = self._codes.get(name)
        if slice_ is None:
            if self._parent is None:
                slice_ = self._engine.column_codes(name)
            else:
                slice_ = self._parent.codes(name)[self._positions]
            self._codes[name] = slice_
        return slice_

    def histogram(self, name: str) -> np.ndarray:
        """Category counts of ``name`` over this group (int64, n_cats wide)."""
        hist = self._hists.get(name)
        if hist is None:
            parent, sibling_hists = self._parent, self._sibling_hists
            if (
                parent is not None
                and sibling_hists is not None
                and name in parent._hists
                and name in sibling_hists
            ):
                hist = parent._hists[name] - sibling_hists[name]
                self._engine.counters["histogram_splits"] += 1
            else:
                hist = np.bincount(
                    self.codes(name), minlength=self._engine.column_cats(name)
                )
                self._engine.counters["histogram_scans"] += 1
            self._hists[name] = hist
        return hist


class PartitionStats:
    """GroupStats-shaped view over a list of :class:`PartitionGroup`."""

    __slots__ = ("_engine", "_groups", "sizes", "_hists")

    def __init__(self, engine: "PartitionEngine", groups: Sequence[PartitionGroup]):
        self._engine = engine
        self._groups = list(groups)
        self.sizes = np.array([g.size for g in self._groups], dtype=np.int64)
        self._hists: dict[str, np.ndarray] = {}

    @property
    def n_groups(self) -> int:
        return int(self.sizes.size)

    def min_size(self) -> int:
        return int(self.sizes.min()) if self.sizes.size else 0

    def histogram(self, sensitive: str) -> np.ndarray:
        hist = self._hists.get(sensitive)
        if hist is None:
            if self._groups:
                hist = np.stack([g.histogram(sensitive) for g in self._groups])
            else:
                hist = np.zeros((0, self._engine.column_cats(sensitive)), dtype=np.int64)
            self._hists[sensitive] = hist
        return hist

    def global_distribution(self, sensitive: str) -> np.ndarray:
        return self._engine.global_distribution(sensitive)

    def value_bounds(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        values = self._engine.table.values(name)
        rows = [g.rows for g in self._groups]
        picked = values[np.concatenate(rows)] if rows else values[:0]
        labels = np.repeat(np.arange(self.n_groups), self.sizes)
        return grouped_bounds(labels, picked, picked, self.n_groups)

    def external_counts(self, table: Table) -> np.ndarray:
        raise ConfigError(
            "δ-presence needs a full-domain lattice algorithm (incognito, "
            "flash, ola, datafly or bottom-up): a local-recoding partition is "
            "not a generalization the population table can be mapped through"
        )


class PartitionEngine:
    """Table-wide caches plus group/split bookkeeping for one anonymize run."""

    def __init__(self, table: Table, hierarchies: Mapping | None = None):
        self.table = table
        self.hierarchies = dict(hierarchies or {})
        self.counters = {
            "groups_materialized": 0,
            "histogram_splits": 0,
            "histogram_scans": 0,
            "checks_fast": 0,
            "level_encodings": 0,
        }
        self._codes: dict[str, np.ndarray] = {}
        self._cats: dict[str, int] = {}
        self._globals: dict[str, np.ndarray] = {}
        self._levels: dict[tuple[str, int], tuple[np.ndarray, int]] = {}

    def cache_info(self) -> dict:
        """Copy of the run's counters (JSON-safe)."""
        return dict(self.counters)

    # -- column caches ---------------------------------------------------

    def column_codes(self, name: str) -> np.ndarray:
        codes = self._codes.get(name)
        if codes is None:
            codes = self.table.codes(name)
            self._codes[name] = codes
            self._cats[name] = len(self.table.column(name).categories)
        return codes

    def column_cats(self, name: str) -> int:
        if name not in self._cats:
            self.column_codes(name)
        return self._cats[name]

    def global_distribution(self, name: str) -> np.ndarray:
        dist = self._globals.get(name)
        if dist is None:
            counts = np.bincount(
                self.column_codes(name), minlength=self.column_cats(name)
            ).astype(np.float64)
            dist = counts / counts.sum()
            self._globals[name] = dist
        return dist

    def level_codes(self, name: str, level: int) -> tuple[np.ndarray, int]:
        """(codes, n_values) of QI ``name`` generalized to ``level``.

        Computed through ``hierarchy.generalize_column`` — the same
        translation ``apply_node`` uses — and memoized per (name, level).
        Numeric identity levels (IntervalHierarchy level 0 returns the raw
        numeric column) are rank-encoded so they partition like any code
        column (``Table.codes`` rejects numeric columns).
        """
        key = (name, int(level))
        entry = self._levels.get(key)
        if entry is None:
            hierarchy = self.hierarchies[name]
            column = hierarchy.generalize_column(self.table.column(name), int(level))
            if column.is_categorical:
                codes = column.codes.astype(np.int64)
                n_values = len(column.categories)
            else:
                uniques, inverse = np.unique(column.values, return_inverse=True)
                codes = inverse.astype(np.int64)
                n_values = int(uniques.size)
            entry = (codes, n_values)
            self._levels[key] = entry
            self.counters["level_encodings"] += 1
        return entry

    # -- group construction ----------------------------------------------

    def root(self) -> PartitionGroup:
        """The whole table as one group (row order 0..n-1, like the legacy
        ``np.arange`` root)."""
        self.counters["groups_materialized"] += 1
        return PartitionGroup(self, np.arange(self.table.n_rows, dtype=np.int64))

    def split(self, group: PartitionGroup, left_positions, right_positions):
        """Two children carved out of ``group`` by positions into its rows.

        Positions may be integer arrays or boolean masks; the children keep
        the positional order, and are linked as siblings so either one's
        histogram can later be derived from the parent's by subtraction.
        """
        left = PartitionGroup(self, group.rows[left_positions], group, left_positions)
        right = PartitionGroup(self, group.rows[right_positions], group, right_positions)
        left._sibling_hists = right._hists
        right._sibling_hists = left._hists
        self.counters["groups_materialized"] += 2
        return left, right

    def split_by_codes(self, group: PartitionGroup, codes_slice: np.ndarray):
        """Multiway split of ``group`` by distinct values of ``codes_slice``.

        Children are ordered by ascending code value with ascending position
        inside each child. A group whose slice holds a single value is
        returned unchanged (cached histograms and all).
        """
        values, inverse = np.unique(codes_slice, return_inverse=True)
        if values.size <= 1:
            return [group]
        order = np.argsort(inverse, kind="stable")
        bounds = np.cumsum(np.bincount(inverse, minlength=values.size))
        children = []
        start = 0
        for end in bounds:
            positions = order[start : int(end)]
            children.append(PartitionGroup(self, group.rows[positions], group, positions))
            start = int(end)
        self.counters["groups_materialized"] += len(children)
        return children

    # -- feasibility -----------------------------------------------------

    def stats(self, groups: Sequence[PartitionGroup]) -> PartitionStats:
        return PartitionStats(self, groups)

    def check(self, groups_or_stats, models) -> bool:
        """Would these groups, as equivalence classes, satisfy the models?"""
        if isinstance(groups_or_stats, PartitionStats):
            stats = groups_or_stats
        else:
            stats = PartitionStats(self, groups_or_stats)
        if not stats.n_groups:
            return False
        for model in models:
            self.counters["checks_fast"] += 1
            if not model.ok_mask(stats).all():
                return False
        return True
