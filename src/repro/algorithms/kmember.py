"""Greedy k-member clustering (Byun et al.).

A clustering-based anonymizer for mixed categorical+numeric QIs: build
clusters of exactly ``k`` records by repeatedly picking the record farthest
from the previous cluster and greedily adding the record whose inclusion
minimizes the cluster's information loss; leftover records join the cluster
whose loss they increase least. Clusters become equivalence classes via
local recoding (hierarchy covers for categorical QIs, min-max intervals for
numeric).

Distance/loss follows the paper: for numeric attributes, range/span; for
categorical attributes, (subtree-height of the minimal covering node) /
(hierarchy height).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.generalize import HierarchyLike, apply_partition_recoding
from ..core.hierarchy import Hierarchy
from ..core.release import Release
from ..core.schema import Schema
from ..core.table import Table
from ..errors import InfeasibleError
from ..privacy.base import PrivacyModel
from .base import check_int, prepare_input

__all__ = ["KMemberClustering"]


class KMemberClustering:
    """Greedy loss-minimizing clusters of exactly k records."""

    def __init__(self, k: int, sample_candidates: int = 64, seed: int = 0):
        self.k = check_int("k", k, minimum=2)
        # Evaluating every remaining record per addition is O(n^2 k); we
        # evaluate a random sample of candidates instead, which preserves
        # the greedy quality on real data at a fraction of the cost.
        self.sample_candidates = check_int("sample_candidates", sample_candidates, minimum=1)
        self.seed = check_int("seed", seed, minimum=0)
        self.name = f"kmember[k={k}]"

    def anonymize(
        self,
        table: Table,
        schema: Schema,
        hierarchies: Mapping[str, HierarchyLike],
        models: Sequence[PrivacyModel] = (),
    ) -> Release:
        original = prepare_input(table, schema, hierarchies)
        if original.n_rows < self.k:
            raise InfeasibleError(f"table has fewer than k={self.k} rows")

        loss_model = _LossModel(original, schema, hierarchies)
        rng = np.random.default_rng(self.seed)

        remaining = list(range(original.n_rows))
        rng.shuffle(remaining)
        remaining_set = set(remaining)
        clusters: list[list[int]] = []
        anchor = remaining[0]

        while len(remaining_set) >= self.k:
            anchor = loss_model.farthest_from(anchor, remaining_set, rng, self.sample_candidates)
            cluster = [anchor]
            remaining_set.discard(anchor)
            while len(cluster) < self.k:
                best = loss_model.cheapest_addition(
                    cluster, remaining_set, rng, self.sample_candidates
                )
                cluster.append(best)
                remaining_set.discard(best)
            clusters.append(cluster)

        for row in list(remaining_set):
            best_cluster = min(
                range(len(clusters)),
                key=lambda ci: loss_model.marginal_loss(clusters[ci], row),
            )
            clusters[best_cluster].append(row)
        groups = [np.sort(np.array(c, dtype=np.int64)) for c in clusters]

        categorical = {
            name: hierarchies[name] for name in schema.categorical_quasi_identifiers
        }
        recoded = apply_partition_recoding(
            original,
            groups,
            categorical_qis=categorical,  # type: ignore[arg-type]
            numeric_qis=schema.numeric_quasi_identifiers,
        )
        return Release(
            table=recoded,
            schema=schema,
            algorithm=self.name,
            node=None,
            suppressed=0,
            original_n_rows=original.n_rows,
            kept_rows=None,
            info={"n_clusters": len(groups), "total_loss": loss_model.total(groups)},
        )

    def __repr__(self) -> str:
        return f"KMemberClustering(k={self.k})"


class _LossModel:
    """Cluster information loss over mixed QIs (Byun et al.'s IL).

    ``marginal_loss`` (the inner loop of cluster growth) costs
    O(attributes), not O(cluster × attributes): each live cluster list
    carries running numeric min/max, a sorted distinct-code array per
    categorical QI, and its cached covering level. Losses are computed from
    the aggregates in the same accumulation order as :meth:`cluster_loss`,
    and running min/max equals ``subset.min()``/``subset.max()`` exactly,
    so ``marginal_loss`` returns the same float as the difference of two
    ``cluster_loss`` calls.

    Aggregates are keyed by ``id(cluster)``: safe because every cluster
    list the algorithm passes here stays alive in ``clusters`` for the
    whole run (no id reuse), and clusters only ever grow (missing rows are
    folded in from ``cluster[seen:]``).
    """

    def __init__(self, table: Table, schema: Schema, hierarchies: Mapping[str, HierarchyLike]):
        self.numeric: dict[str, np.ndarray] = {}
        self.spans: dict[str, float] = {}
        for name in schema.numeric_quasi_identifiers:
            values = table.values(name).astype(np.float64)
            self.numeric[name] = values
            span = float(values.max() - values.min())
            self.spans[name] = span if span > 0 else 1.0
        self.categorical: dict[str, tuple[np.ndarray, Hierarchy]] = {}
        for name in schema.categorical_quasi_identifiers:
            hierarchy = hierarchies[name]
            assert isinstance(hierarchy, Hierarchy)
            # Remap column codes into hierarchy ground codes once.
            codes = hierarchy.ground_codes(table.column(name)).astype(np.int64)
            self.categorical[name] = (codes, hierarchy)
        self._stats: dict[int, _ClusterAggregates] = {}

    def cluster_loss(self, rows: Sequence[int]) -> float:
        rows_arr = np.asarray(rows, dtype=np.int64)
        loss = 0.0
        for name, values in self.numeric.items():
            subset = values[rows_arr]
            loss += float(subset.max() - subset.min()) / self.spans[name]
        for name, (codes, hierarchy) in self.categorical.items():
            distinct = np.unique(codes[rows_arr])
            loss += _covering_level(hierarchy, distinct) / max(hierarchy.height, 1)
        return loss

    def _aggregates(self, cluster: Sequence[int]) -> "_ClusterAggregates":
        stats = self._stats.get(id(cluster))
        if stats is None or stats.n > len(cluster):
            stats = _ClusterAggregates(self)
            self._stats[id(cluster)] = stats
        for row in cluster[stats.n:]:
            stats.add(row)
        return stats

    def marginal_loss(self, cluster: Sequence[int], candidate: int) -> float:
        stats = self._aggregates(cluster)
        return stats.loss_with(candidate) - stats.loss()

    def cheapest_addition(self, cluster, remaining_set, rng, sample_size) -> int:
        candidates = _sample(remaining_set, rng, sample_size)
        return min(candidates, key=lambda row: self.marginal_loss(cluster, row))

    def farthest_from(self, anchor: int, remaining_set, rng, sample_size) -> int:
        candidates = _sample(remaining_set, rng, sample_size)
        return max(candidates, key=lambda row: self.cluster_loss([anchor, row]))

    def total(self, groups: Sequence[np.ndarray]) -> float:
        return sum(self.cluster_loss(list(g)) * len(g) for g in groups)


class _ClusterAggregates:
    """Running per-attribute aggregates of one growing cluster."""

    __slots__ = ("model", "n", "mins", "maxs", "distincts", "levels", "_loss")

    def __init__(self, model: _LossModel):
        self.model = model
        self.n = 0
        self.mins: dict[str, np.floating] = {}
        self.maxs: dict[str, np.floating] = {}
        self.distincts: dict[str, np.ndarray] = {}
        self.levels: dict[str, int] = {}
        self._loss: float | None = None

    def add(self, row: int) -> None:
        first = self.n == 0
        for name, values in self.model.numeric.items():
            value = values[row]
            if first:
                self.mins[name] = value
                self.maxs[name] = value
            else:
                if value < self.mins[name]:
                    self.mins[name] = value
                if value > self.maxs[name]:
                    self.maxs[name] = value
        for name, (codes, hierarchy) in self.model.categorical.items():
            code = codes[row]
            if first:
                self.distincts[name] = np.array([code], dtype=np.int64)
                self.levels[name] = 0
            else:
                distinct = self.distincts[name]
                at = int(np.searchsorted(distinct, code))
                if at == distinct.size or distinct[at] != code:
                    grown = np.insert(distinct, at, code)
                    self.distincts[name] = grown
                    self.levels[name] = _covering_level(
                        hierarchy, grown, start=self.levels[name]
                    )
        self.n += 1
        self._loss = None

    def loss(self) -> float:
        """Same accumulation order as ``_LossModel.cluster_loss``."""
        if self._loss is None:
            total = 0.0
            for name in self.model.numeric:
                total += float(self.maxs[name] - self.mins[name]) / self.model.spans[name]
            for name, (codes, hierarchy) in self.model.categorical.items():
                total += self.levels[name] / max(hierarchy.height, 1)
            self._loss = total
        return self._loss

    def loss_with(self, row: int) -> float:
        """Loss if ``row`` joined, without mutating the aggregates."""
        total = 0.0
        for name, values in self.model.numeric.items():
            value = values[row]
            low = self.mins[name] if self.mins[name] <= value else value
            high = self.maxs[name] if self.maxs[name] >= value else value
            total += float(high - low) / self.model.spans[name]
        for name, (codes, hierarchy) in self.model.categorical.items():
            code = codes[row]
            distinct = self.distincts[name]
            at = int(np.searchsorted(distinct, code))
            if at < distinct.size and distinct[at] == code:
                level = self.levels[name]
            else:
                level = _covering_level(
                    hierarchy, np.insert(distinct, at, code), start=self.levels[name]
                )
            total += level / max(hierarchy.height, 1)
        return total


def _covering_level(hierarchy: Hierarchy, distinct_codes: np.ndarray, start: int = 0) -> int:
    """Lowest level whose mapping unifies the distinct ground codes.

    ``start`` skips levels already known not to unify a *subset* of the
    codes — sound because a level failing to unify fewer codes cannot unify
    more.
    """
    if distinct_codes.size <= 1:
        return 0
    for level in range(max(start, 1), hierarchy.height + 1):
        if np.unique(hierarchy.map_codes(distinct_codes.astype(np.int32), level)).size == 1:
            return level
    return hierarchy.height


def _sample(remaining_set: set, rng: np.random.Generator, size: int) -> list[int]:
    if len(remaining_set) <= size:
        return list(remaining_set)
    as_list = list(remaining_set)
    picks = rng.choice(len(as_list), size=size, replace=False)
    return [as_list[i] for i in picks]
