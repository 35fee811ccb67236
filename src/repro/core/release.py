"""The :class:`Release` object: the output of an anonymization run.

A release bundles the published table with the audit trail a data custodian
needs: which algorithm and privacy models produced it, the generalization
node or recoding applied, how many records were suppressed, and the EC
partition (recomputed lazily) that metrics and attacks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .engine import _group_signatures
from .partition import EquivalenceClasses, partition_by_qi
from .schema import Schema
from .table import Table

__all__ = ["Release"]


@dataclass
class Release:
    """An anonymized table plus metadata about how it was produced."""

    table: Table
    schema: Schema
    algorithm: str
    node: tuple | None = None
    suppressed: int = 0
    original_n_rows: int = 0
    kept_rows: np.ndarray | None = None
    info: Mapping[str, Any] = field(default_factory=dict)
    _partition: EquivalenceClasses | None = field(default=None, repr=False)
    _labels: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_rows(self) -> int:
        return self.table.n_rows

    @property
    def suppression_rate(self) -> float:
        """Fraction of original rows dropped by suppression."""
        if not self.original_n_rows:
            return 0.0
        return self.suppressed / self.original_n_rows

    def partition(self) -> EquivalenceClasses:
        """EC partition of the released table (cached)."""
        if self._partition is None:
            self._partition = partition_by_qi(self.table, self.schema.quasi_identifiers)
        return self._partition

    def class_labels(self) -> np.ndarray:
        """Each row's equivalence class, numbered in :meth:`partition` group
        order (cached; treat the returned array as read-only)."""
        if self._labels is None:
            signature = self.table.group_signature(self.schema.quasi_identifiers)
            # The signatures lie in [0, max], so the engine's labelling (a
            # rank without a sort while that range is small against the row
            # count, else np.unique) numbers them as np.unique would.
            size = int(signature.max()) + 1 if signature.size else 1
            self._labels = _group_signatures(signature, (size,))[0]
        return self._labels

    def equivalence_class_sizes(self) -> np.ndarray:
        """Per-class row counts, in :meth:`partition` group order."""
        if self._partition is None and self.n_rows:
            # Counting the class labels gives the same sizes without one
            # row-index array per class; a job summary needs only these.
            return np.bincount(self.class_labels())
        return self.partition().sizes()

    def summary(self) -> dict:
        """Human-readable audit summary."""
        sizes = self.equivalence_class_sizes()
        return {
            "algorithm": self.algorithm,
            "node": self.node,
            "rows_published": self.n_rows,
            "rows_suppressed": self.suppressed,
            "suppression_rate": round(self.suppression_rate, 4),
            "equivalence_classes": len(sizes),
            "min_class_size": int(sizes.min()) if sizes.size else 0,
            "avg_class_size": float(sizes.mean()) if sizes.size else 0.0,
        }
