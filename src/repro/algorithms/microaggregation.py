"""Microaggregation via MDAV (Domingo-Ferrer & Torra).

A perturbative alternative to generalization for numeric quasi-identifiers:
records are clustered into groups of at least ``k`` similar records, and each
record's QI vector is replaced by its group centroid. The published table is
k-anonymous over the (replaced) QIs while keeping them numeric — no interval
labels — which matters for downstream statistics.

MDAV (Maximum Distance to Average Vector), the standard fixed-size
heuristic:

1. compute the centroid of the remaining records;
2. find the record ``r`` farthest from the centroid, group ``r`` with its
   ``k-1`` nearest neighbours;
3. find the record ``s`` farthest from ``r``, group ``s`` with its ``k-1``
   nearest neighbours;
4. repeat until fewer than ``2k`` records remain, which form the last group.

Distances are Euclidean over z-score standardized QI columns. Categorical
QIs, if present, are handled by replacing each group's values with the
group's modal value (a common extension); the k-anonymity guarantee then
applies to the numeric projection only, which is how the SSE experiments
(E13) use it.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.generalize import HierarchyLike
from ..core.partition_engine import grouped_histograms
from ..core.release import Release
from ..core.schema import Schema
from ..core.table import Column, Table
from ..errors import InfeasibleError
from ..privacy.base import PrivacyModel
from .base import check_int, prepare_input

__all__ = ["MDAVMicroaggregation", "within_group_sse"]


class MDAVMicroaggregation:
    """Fixed-size MDAV clustering with centroid replacement.

    Both group-local steps are vectorized: k-nearest selection via
    ``np.argpartition`` instead of a full sort, and modal categorical
    replacement via one flattened grouped bincount for all groups.
    """

    def __init__(self, k: int):
        self.k = check_int("k", k, minimum=2)
        self.name = f"mdav[k={k}]"

    def anonymize(
        self,
        table: Table,
        schema: Schema,
        hierarchies: Mapping[str, HierarchyLike] | None = None,
        models: Sequence[PrivacyModel] = (),
    ) -> Release:
        original = prepare_input(table, schema, hierarchies or {n: _DUMMY for n in schema.categorical_quasi_identifiers})
        numeric = schema.numeric_quasi_identifiers
        if not numeric:
            raise InfeasibleError("MDAV needs at least one numeric quasi-identifier")
        if original.n_rows < self.k:
            raise InfeasibleError(f"table has fewer than k={self.k} rows")

        matrix = np.stack([original.values(name) for name in numeric], axis=1).astype(np.float64)
        groups = self.cluster(matrix)

        # Replace numeric QIs by group centroids.
        replaced = matrix.copy()
        for group in groups:
            replaced[group] = matrix[group].mean(axis=0)
        new_columns = [
            Column.numeric(name, replaced[:, j]) for j, name in enumerate(numeric)
        ]
        # Categorical QIs: modal value per group (first maximum on ties),
        # from one flattened bincount over all groups.
        if schema.categorical_quasi_identifiers:
            group_labels = np.empty(original.n_rows, dtype=np.int64)
            for gid, group in enumerate(groups):
                group_labels[group] = gid
        for name in schema.categorical_quasi_identifiers:
            codes = original.codes(name)
            n_cats = len(original.column(name).categories)
            hists = grouped_histograms(group_labels, codes, len(groups), n_cats)
            modal = hists.argmax(axis=1).astype(codes.dtype)
            codes = modal[group_labels]
            new_columns.append(
                Column.from_codes(name, codes, original.column(name).categories)
            )

        result = original.replace(*new_columns)
        return Release(
            table=result,
            schema=schema,
            algorithm=self.name,
            node=None,
            suppressed=0,
            original_n_rows=original.n_rows,
            kept_rows=None,
            info={"groups": groups, "sse": within_group_sse(matrix, groups)},
        )

    # -- clustering ----------------------------------------------------------

    def cluster(self, matrix: np.ndarray) -> list[np.ndarray]:
        """MDAV grouping of the rows of ``matrix``; returns row-index arrays."""
        n = matrix.shape[0]
        std = matrix.std(axis=0)
        std[std == 0] = 1.0
        z = (matrix - matrix.mean(axis=0)) / std

        remaining = np.arange(n)
        groups: list[np.ndarray] = []
        while remaining.size >= 2 * self.k:
            points = z[remaining]
            centroid = points.mean(axis=0)
            far_r = int(np.argmax(_sq_dist(points, centroid)))
            group_r = _nearest(points, far_r, self.k)
            first = remaining[group_r]

            mask = np.ones(remaining.size, dtype=bool)
            mask[group_r] = False
            rest = remaining[mask]
            points_rest = z[rest]
            far_s = int(np.argmax(_sq_dist(points_rest, points[far_r])))
            group_s = _nearest(points_rest, far_s, self.k)
            second = rest[group_s]

            groups.extend([np.sort(first), np.sort(second)])
            mask2 = np.ones(rest.size, dtype=bool)
            mask2[group_s] = False
            remaining = rest[mask2]

        if remaining.size >= self.k:
            groups.append(np.sort(remaining))
        elif remaining.size:
            # Fewer than k leftovers: merge into the nearest existing group.
            if not groups:
                raise InfeasibleError("cannot form any group of size k")
            leftovers = z[remaining]
            centroids = np.stack([z[g].mean(axis=0) for g in groups])
            for row, point in zip(remaining, leftovers):
                nearest = int(np.argmin(_sq_dist(centroids, point)))
                groups[nearest] = np.sort(np.append(groups[nearest], row))
        return groups

    def __repr__(self) -> str:
        return f"MDAVMicroaggregation(k={self.k})"


def within_group_sse(matrix: np.ndarray, groups: Sequence[np.ndarray]) -> float:
    """Sum of squared distances to group centroids (information loss)."""
    total = 0.0
    for group in groups:
        points = matrix[group]
        centroid = points.mean(axis=0)
        total += float(((points - centroid) ** 2).sum())
    return total


def _sq_dist(points: np.ndarray, reference: np.ndarray) -> np.ndarray:
    return ((points - reference) ** 2).sum(axis=1)


def _nearest(points: np.ndarray, anchor: int, k: int) -> np.ndarray:
    """Indices (into ``points``) of ``anchor`` plus its k-1 nearest others.

    Selected via ``np.argpartition`` (O(n) instead of O(n log n)): every
    index strictly inside the k-th smallest distance, plus the
    lowest-indexed ties at that distance — exactly the set a stable full
    sort's first k entries contain. Callers only consume the set (the
    result is masked and re-sorted), so its order does not matter.
    """
    distances = _sq_dist(points, points[anchor])
    if k >= distances.size:
        return np.argsort(distances, kind="stable")[:k]
    nearest_k = np.argpartition(distances, k - 1)[:k]
    threshold = distances[nearest_k].max()
    below = np.flatnonzero(distances < threshold)
    ties = np.flatnonzero(distances == threshold)
    return np.concatenate([below, ties[: k - below.size]])


class _Dummy:
    height = 0


_DUMMY = _Dummy()
