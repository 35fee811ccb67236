"""Top-Down Specialization (Fung, Wang & Yu).

Starts from the fully-generalized table (every QI at the top of its
hierarchy) and greedily *specializes* one attribute at a time — the one with
the best information-gain-per-privacy-cost score — as long as the privacy
models keep holding. The classic score trades classification information
gain against anonymity loss; this implementation scores a candidate
specialization by

    score = information_gain / (anonymity_loss + 1)

where information gain is the reduction in class-label entropy over the
affected records and anonymity loss is the drop in the minimum
equivalence-class size. A ``target`` label column drives the gain term; when
no target is supplied the gain term falls back to the number of distinct
values exposed (pure utility refinement).

The search keeps the current partition as live
:class:`~repro.core.partition_engine.PartitionGroup` sets and *refines*
them instead of re-materializing the candidate table per trial: a
candidate is a multiway split of each group by the QI's next-level codes
(memoized per level through the engine), feasibility goes through the
models' ``ok_mask``, and per-level conditional label entropies are
computed once from a joint flattened bincount and cached for the whole run.
A numeric QI scored at hierarchy level 0 (the raw column, which
``Table.codes`` rejects) is rank-encoded by the engine.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.generalize import HierarchyLike, apply_node
from ..core.partition_engine import PartitionEngine, grouped_histograms
from ..core.release import Release
from ..core.schema import Schema
from ..core.table import Table
from ..errors import InfeasibleError
from ..privacy.base import PrivacyModel
from .base import check_int, prepare_input

__all__ = ["TopDownSpecialization"]

_INFEASIBLE_MSG = "even the fully-generalized table violates the models"


def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    probs = counts[counts > 0] / total
    return float(-(probs * np.log2(probs)).sum())


class TopDownSpecialization:
    """Greedy top-down specialization guided by information gain."""

    def __init__(self, target: str | None = None, max_steps: int = 10_000):
        self.target = target
        self.max_steps = check_int("max_steps", max_steps, minimum=0)
        self.name = "tds"

    def anonymize(
        self,
        table: Table,
        schema: Schema,
        hierarchies: Mapping[str, HierarchyLike],
        models: Sequence[PrivacyModel],
    ) -> Release:
        original = prepare_input(table, schema, hierarchies)
        qi_names = schema.quasi_identifiers
        heights = [hierarchies[name].height for name in qi_names]

        node, cache_info = self._specialize(original, qi_names, heights, hierarchies, models)

        final = apply_node(original, hierarchies, qi_names, node)
        return Release(
            table=final,
            schema=schema,
            algorithm=self.name,
            node=tuple(node),
            suppressed=0,
            original_n_rows=original.n_rows,
            kept_rows=None,
            info={"target": self.target, "partition_cache": cache_info},
        )

    def _specialize(self, original, qi_names, heights, hierarchies, models):
        engine = PartitionEngine(original, hierarchies)
        node = list(heights)
        groups = [engine.root()]
        for i, name in enumerate(qi_names):
            groups = self._refine(engine, groups, name, node[i])
        stats = engine.stats(groups)
        if not engine.check(stats, models):
            raise InfeasibleError(_INFEASIBLE_MSG)

        label_codes = None
        n_labels = 0
        if self.target is not None:
            label_codes = original.codes(self.target)
            n_labels = int(label_codes.max()) + 1
        gain_cache: dict[tuple[str, int], float] = {}

        current_min = stats.min_size()
        for _ in range(self.max_steps):
            best_index, best_score, best_state = None, -np.inf, None
            for i, name in enumerate(qi_names):
                if node[i] == 0:
                    continue
                cand_groups = self._refine(engine, groups, name, node[i] - 1)
                cand_stats = engine.stats(cand_groups)
                if not engine.check(cand_stats, models):
                    continue
                gain = self._gain(
                    engine, name, node[i], label_codes, n_labels, gain_cache
                )
                anonymity_loss = max(current_min - cand_stats.min_size(), 0)
                score = gain / (anonymity_loss + 1.0)
                if score > best_score:
                    best_index, best_score = i, score
                    best_state = (cand_groups, cand_stats)
            if best_index is None:
                break
            node[best_index] -= 1
            groups, stats = best_state
            current_min = stats.min_size()
        return node, engine.cache_info()

    @staticmethod
    def _refine(engine, groups, name, level):
        """Split every group by QI ``name`` generalized to ``level``.

        Valid because hierarchy levels are refinements: rows sharing a
        level-``l`` value also share every coarser value, so splitting the
        current partition reproduces the full EC partition at the new node.
        """
        codes, _ = engine.level_codes(name, level)
        refined = []
        for group in groups:
            refined.extend(engine.split_by_codes(group, codes[group.rows]))
        return refined

    def _gain(self, engine, name, level, label_codes, n_labels, gain_cache):
        """Gain of specializing ``name`` from ``level`` to ``level - 1``.

        With a target, the reduction in conditional label entropy; without
        one, the number of distinct values exposed. Per-value label counts
        come from one joint flattened bincount, and each (name, level)
        conditional entropy is computed once per run.
        """
        if label_codes is None:
            key = (name, level - 1)
            gain = gain_cache.get(key)
            if gain is None:
                codes, _ = engine.level_codes(name, level - 1)
                gain = float(np.unique(codes).size)
                gain_cache[key] = gain
            return gain
        return (
            self._conditional_entropy(engine, name, level, label_codes, n_labels, gain_cache)
            - self._conditional_entropy(engine, name, level - 1, label_codes, n_labels, gain_cache)
        )

    @staticmethod
    def _conditional_entropy(engine, name, level, label_codes, n_labels, gain_cache):
        key = (name, level)
        value = gain_cache.get(key)
        if value is None:
            codes, n_values = engine.level_codes(name, level)
            joint = grouped_histograms(codes, label_codes, n_values, n_labels)
            sizes = joint.sum(axis=1)
            total = 0.0
            for v in np.flatnonzero(sizes):
                total += (sizes[v] / codes.size) * _entropy(joint[v])
            value = total
            gain_cache[key] = value
        return value

    def __repr__(self) -> str:
        return f"TopDownSpecialization(target={self.target!r})"
