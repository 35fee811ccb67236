"""Personalized privacy (Xiao & Tao).

Each record owner chooses a *guarding node* in the sensitive attribute's
taxonomy: the released data must not let an attacker infer, with breach
probability above ``p_breach``, that the owner's sensitive value falls in
the guarding node's subtree. An owner who picks the taxonomy root wants no
protection beyond k-anonymity; one who picks their exact value wants the
strongest.

Breach probability for record ``r`` in an equivalence class: the fraction
of the class's records whose sensitive value lies in r's guarding subtree
(the attacker's posterior that r's value is in the subtree, under random-
world semantics).

Personalized privacy is a per-record audit, not a per-class predicate: it
has no ``ok_mask``, so no anonymization algorithm accepts it. Run
:meth:`PersonalizedPrivacy.check` on a published table and its partition.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.hierarchy import Hierarchy
from ..core.partition import EquivalenceClasses
from ..core.table import Table
from ..errors import HierarchyError

__all__ = ["PersonalizedPrivacy", "GuardingNode"]


class GuardingNode:
    """A node in the sensitive taxonomy: (level, code) or a raw value."""

    def __init__(self, hierarchy: Hierarchy, level: int, label):
        labels = hierarchy.labels(level)
        if label not in labels:
            raise HierarchyError(f"label {label!r} not at level {level}")
        self.level = int(level)
        self.label = label
        code = labels.index(label)
        self.ground_codes = frozenset(
            int(c) for c in hierarchy.cover_codes(level, code)
        ) if level > 0 else frozenset({code})

    def covers(self, ground_code: int) -> bool:
        return int(ground_code) in self.ground_codes


class PersonalizedPrivacy:
    """Per-record guarding-node breach probability bound.

    Parameters
    ----------
    guarding:
        mapping from original row index to :class:`GuardingNode`. Rows not
        in the map are treated as unprotected (root guarding node).
    p_breach:
        maximum tolerated breach probability per protected record.
    sensitive:
        name of the (categorical) sensitive column.
    row_map:
        optional array mapping table row -> original row index (use the
        release's ``kept_rows`` after suppression). Defaults to identity.
    """

    monotone = True

    def __init__(
        self,
        guarding: Mapping[int, GuardingNode],
        p_breach: float,
        sensitive: str,
        row_map: np.ndarray | None = None,
    ):
        if not 0 < p_breach <= 1:
            raise ValueError(f"p_breach must lie in (0, 1], got {p_breach}")
        self.guarding = dict(guarding)
        self.p_breach = float(p_breach)
        self.sensitive = sensitive
        self.row_map = row_map
        self.name = f"personalized(p<={p_breach:g},{sensitive})"

    def breach_probabilities(
        self, table: Table, partition: EquivalenceClasses
    ) -> list[tuple[int, float]]:
        """(table_row, breach_probability) for every guarded record."""
        codes = table.codes(self.sensitive)
        row_map = (
            self.row_map if self.row_map is not None else np.arange(table.n_rows)
        )
        out = []
        for group in partition.groups:
            group_codes = codes[group]
            for row in group:
                node = self.guarding.get(int(row_map[row]))
                if node is None:
                    continue
                in_subtree = sum(1 for c in group_codes if node.covers(int(c)))
                out.append((int(row), in_subtree / group.size))
        return out

    def check(self, table: Table, partition: EquivalenceClasses) -> bool:
        if not len(partition):
            return False
        return all(
            p <= self.p_breach + 1e-12
            for _, p in self.breach_probabilities(table, partition)
        )

    def failing_groups(self, table: Table, partition: EquivalenceClasses) -> list[int]:
        row_to_group = {}
        for index, group in enumerate(partition.groups):
            for row in group:
                row_to_group[int(row)] = index
        failing = {
            row_to_group[row]
            for row, p in self.breach_probabilities(table, partition)
            if p > self.p_breach + 1e-12
        }
        return sorted(failing)

    def __repr__(self) -> str:
        return (
            f"PersonalizedPrivacy(p_breach={self.p_breach}, "
            f"sensitive={self.sensitive!r}, guarded={len(self.guarding)})"
        )
