"""LKC-privacy (Mohammed, Fung et al.) for high-dimensional data.

Full k-anonymity over many quasi-identifiers destroys high-dimensional data
(the curse of dimensionality: every record is unique). LKC-privacy assumes
the attacker knows at most ``L`` QI values of the target, and requires that
every combination of at most L QI values that actually occurs in the data

* matches at least ``K`` records, and
* lets no sensitive value be inferred with confidence above ``C``.

Checking enumerates the occurring value combinations of sizes 1..L over the
(generalized) QIs — exponential in L but L is small (2–3) by design.

LKC-privacy is a table-level audit, not a per-class predicate: it has no
``ok_mask``, so no anonymization algorithm accepts it. Run :meth:`check`
or :meth:`violations` on a published table instead.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from ..core.partition import EquivalenceClasses
from ..core.table import Table

__all__ = ["LKCPrivacy"]


class LKCPrivacy:
    """Bound on adversaries knowing at most L quasi-identifier values."""

    monotone = True

    def __init__(
        self,
        l: int,
        k: int,
        c: float,
        sensitive: str,
        qi_names: Sequence[str],
    ):
        if l < 1:
            raise ValueError(f"L must be >= 1, got {l}")
        if k < 1:
            raise ValueError(f"K must be >= 1, got {k}")
        if not 0 < c <= 1:
            raise ValueError(f"C must lie in (0, 1], got {c}")
        self.l = int(l)
        self.k = int(k)
        self.c = float(c)
        self.sensitive = sensitive
        self.qi_names = tuple(qi_names)
        self.name = f"LKC(L={l},K={k},C={c:g},{sensitive})"

    def violations(self, table: Table) -> list[dict]:
        """All (subset, value-combination) pairs breaking the K or C bound."""
        sensitive_codes = table.codes(self.sensitive)
        n_sensitive = len(table.column(self.sensitive).categories)
        out = []
        usable = [name for name in self.qi_names if name in table.column_names]
        for size in range(1, min(self.l, len(usable)) + 1):
            for subset in combinations(usable, size):
                for group in table.group_rows(list(subset)):
                    histogram = np.bincount(sensitive_codes[group], minlength=n_sensitive)
                    total = int(histogram.sum())
                    confidence = float(histogram.max()) / total if total else 0.0
                    if total < self.k or confidence > self.c + 1e-12:
                        out.append(
                            {
                                "attributes": subset,
                                "group_size": total,
                                "max_confidence": confidence,
                                "rows": group,
                            }
                        )
        return out

    def check(self, table: Table, partition: EquivalenceClasses | None = None) -> bool:
        """Partition argument accepted for protocol compatibility; LKC checks
        value combinations directly on the (generalized) table."""
        return not self.violations(table)

    def failing_groups(self, table: Table, partition: EquivalenceClasses) -> list[int]:
        violating_rows: set[int] = set()
        for violation in self.violations(table):
            violating_rows.update(int(r) for r in violation["rows"])
        failing = []
        for index, group in enumerate(partition.groups):
            if any(int(r) in violating_rows for r in group):
                failing.append(index)
        return failing

    def __repr__(self) -> str:
        return f"LKCPrivacy(L={self.l}, K={self.k}, C={self.c}, sensitive={self.sensitive!r})"
