"""Row-partition statistics for Mondrian's local recoding.

The lattice algorithms score whole generalization nodes through
:class:`~repro.core.engine.GroupStats`; Mondrian instead refines an explicit
row partition, and checks every candidate cut of every group.

This module is the partition-based analog of ``GroupStats``:

* :func:`grouped_histograms` and :func:`grouped_bounds` — the shared kernels:
  every group's category counts from one flattened bincount (Anatomy, MDAV
  and top-down specialization use it too), and every group's value bounds
  from one ``minimum.at``/``maximum.at`` pair (so does ``GroupStats``).
* :class:`PartitionGroup` — one equivalence class: its row indices, whose
  sensitive histograms are counted on demand.
* :class:`PartitionStats` — duck-types the ``GroupStats`` surface the privacy
  models' ``ok_mask`` consumes (``sizes``, ``min_size``, ``n_groups``,
  ``histogram``, ``global_distribution``, ``value_bounds``) so every model
  runs unchanged on row partitions. Its ``external_counts`` raises a
  :class:`~repro.errors.ConfigError`: a row partition is not a
  generalization node, so δ-presence's population cannot be generalized
  like it.
* :class:`PartitionEngine` — owns the table-wide caches (column codes,
  category counts, global distributions), the root group and its
  feasibility check through ``ok_mask``. ``cache_info()`` exposes counters:
  ``groups_materialized``, ``histogram_splits`` (child histograms derived
  as parent − left), ``histogram_scans`` (bincount-derived, the root's) and
  ``checks_fast`` (model verdicts).

Mondrian's frontier keeps each tree level's groups as packed arrays rather
than ``PartitionGroup`` objects; only the root is one.
"""

from __future__ import annotations

from typing import Sequence

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
    """One equivalence class tracked by a :class:`PartitionEngine`: its
    row-index array in algorithm order (not sorted)."""

    __slots__ = ("rows", "_engine")

    def __init__(self, engine: "PartitionEngine", rows: np.ndarray):
        self.rows = rows
        self._engine = engine

    @property
    def size(self) -> int:
        return int(self.rows.size)

    def histogram(self, name: str) -> np.ndarray:
        """Category counts of ``name`` over this group (int64, n_cats wide)."""
        engine = self._engine
        engine.counters["histogram_scans"] += 1
        return np.bincount(
            engine.column_codes(name)[self.rows], minlength=engine.column_cats(name)
        )


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
    """Table-wide caches plus the root group and its check for one run."""

    def __init__(self, table: Table):
        self.table = table
        self.counters = {
            "groups_materialized": 0,
            "histogram_splits": 0,
            "histogram_scans": 0,
            "checks_fast": 0,
        }
        self._codes: dict[str, np.ndarray] = {}
        self._cats: dict[str, int] = {}
        self._globals: dict[str, np.ndarray] = {}

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

    # -- groups and feasibility ------------------------------------------

    def root(self) -> PartitionGroup:
        """The whole table as one group (row order 0..n-1)."""
        self.counters["groups_materialized"] += 1
        return PartitionGroup(self, np.arange(self.table.n_rows, dtype=np.int64))

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
