"""Privacy-model protocol.

A privacy model is a predicate over the equivalence classes of a candidate
release. Each model implements exactly one verdict,
:meth:`PrivacyModel.ok_mask`, vectorized over the per-group statistics an
engine hands it: :class:`~repro.core.engine.GroupStats` for a full-domain
lattice node (the full-domain searches, top-down specialization included),
:class:`~repro.core.partition_engine.PartitionStats` for Mondrian's root
group, or Mondrian's per-level frontier views. A stats
object offers ``sizes``, ``n_groups``, ``histogram(name)``,
``global_distribution(name)``, ``value_bounds(name)`` and
``external_counts(table)``; a model reads only what it needs. Each group's
verdict must depend only on that group's statistics (and table-wide ones
such as the global distribution): Mondrian's frontier judges the candidate
children of many groups in one call. A candidate satisfies a model when it
has at least one group and the mask is all True; the False entries are the
classes suppression removes.

Monotonicity: every model shipped here is *generalization-monotone* — if a
node satisfies it, so does every more general node (given the same record
set). Incognito's pruning and Datafly's greedy loop rely on this; models
advertise it via :attr:`PrivacyModel.monotone` so non-monotone extensions can
opt out of the pruning.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["PrivacyModel", "CompositeModel"]


@runtime_checkable
class PrivacyModel(Protocol):
    """Protocol all privacy models implement."""

    #: Human-readable model name, e.g. ``"5-anonymity"``.
    name: str
    #: True if satisfaction is preserved under further generalization.
    monotone: bool

    def ok_mask(self, stats) -> np.ndarray:
        """Boolean verdict per group: True where the class satisfies the model."""
        ...


class CompositeModel:
    """Conjunction of several privacy models (e.g. k-anonymity AND ℓ-diversity)."""

    def __init__(self, *models: PrivacyModel):
        if not models:
            raise ValueError("CompositeModel needs at least one model")
        self.models = models
        self.name = " & ".join(m.name for m in models)
        self.monotone = all(m.monotone for m in models)

    def ok_mask(self, stats) -> np.ndarray:
        mask = np.ones(stats.n_groups, dtype=bool)
        for model in self.models:
            mask &= model.ok_mask(stats)
        return mask
