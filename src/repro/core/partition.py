"""Equivalence-class computation.

An *equivalence class* (EC) is a maximal set of rows agreeing on every
quasi-identifier of the (generalized) table. Attacks and most loss metrics
are functions of a release's EC partition plus the sensitive column, so this
module is the shared hub between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .table import Table, split_by_labels

__all__ = [
    "EquivalenceClasses",
    "partition_by_qi",
    "classes_from_labels",
]


@dataclass(frozen=True)
class EquivalenceClasses:
    """The EC partition of a table under a set of quasi-identifiers.

    Attributes
    ----------
    groups:
        list of row-index arrays, one per EC.
    qi_names:
        the quasi-identifiers the partition was computed over.
    n_rows:
        total rows covered (sum of group sizes).
    """

    groups: tuple
    qi_names: tuple
    n_rows: int

    def __len__(self) -> int:
        return len(self.groups)

    def sizes(self) -> np.ndarray:
        """Per-group sizes (cached; treat the returned array as read-only)."""
        cached = self.__dict__.get("_sizes")
        if cached is None:
            cached = np.array([g.size for g in self.groups], dtype=np.int64)
            object.__setattr__(self, "_sizes", cached)
        return cached

    def min_size(self) -> int:
        return int(self.sizes().min()) if self.groups else 0

    def sensitive_counts(self, table: Table, sensitive: str) -> list[np.ndarray]:
        """Per-EC histograms over the sensitive attribute's category list."""
        codes = table.codes(sensitive)
        n_cats = len(table.column(sensitive).categories)
        return [np.bincount(codes[g], minlength=n_cats) for g in self.groups]

    def global_sensitive_distribution(self, table: Table, sensitive: str) -> np.ndarray:
        """Overall distribution of the sensitive attribute (t-closeness base)."""
        codes = table.codes(sensitive)
        n_cats = len(table.column(sensitive).categories)
        counts = np.bincount(codes, minlength=n_cats).astype(np.float64)
        return counts / counts.sum()


def partition_by_qi(table: Table, qi_names: Sequence[str]) -> EquivalenceClasses:
    """Compute the EC partition of ``table`` under ``qi_names``."""
    groups = table.group_rows(list(qi_names))
    return EquivalenceClasses(
        groups=tuple(groups), qi_names=tuple(qi_names), n_rows=table.n_rows
    )


def classes_from_labels(
    labels: np.ndarray, qi_names: Sequence[str], n_rows: int
) -> EquivalenceClasses:
    """Build an EC partition from per-row integer group labels.

    Groups are ordered by ascending label value and each group's row indices
    are ascending, matching :meth:`Table.group_rows` exactly — so partitions
    built from the lattice-evaluation engine's labels are interchangeable
    with :func:`partition_by_qi` output (same group indices).
    """
    return EquivalenceClasses(
        groups=tuple(split_by_labels(labels)), qi_names=tuple(qi_names), n_rows=int(n_rows)
    )
