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

Every candidate is a full-domain node, so the search runs on a private
:class:`~repro.core.engine.LatticeEvaluator` like bottom-up generalization:
feasibility and the minimum class size of each candidate node come from its
memoized ``GroupStats`` through the models' ``ok_mask``, and only the
released node is materialized. The gain's per-level conditional label
entropies are computed once per (QI, level) from a joint flattened bincount
over the evaluator's level codes. Like every full-domain search, TDS
accepts δ-presence.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.engine import LatticeEvaluator
from ..core.generalize import HierarchyLike
from ..core.partition_engine import grouped_histograms
from ..core.release import Release
from ..core.schema import Schema
from ..core.table import Table
from ..errors import InfeasibleError
from ..privacy.base import PrivacyModel
from .base import check_int, prepare_input

__all__ = ["TopDownSpecialization"]

_INFEASIBLE_MSG = "even the fully-generalized table violates the models"


def _codes_at(evaluator: LatticeEvaluator, name: str, level: int):
    """(codes, n_values) of QI ``name`` at ``level``: the evaluator's LUT
    gathered at its base codes, as :meth:`LatticeEvaluator.materialize`
    publishes it."""
    enc = evaluator._encodings[name]
    return enc.luts[level][enc.base_codes], enc.n_labels[level]


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
        evaluator = LatticeEvaluator(original, qi_names, hierarchies)
        node = self._specialize(evaluator, qi_names, models)
        return Release(
            table=evaluator.materialize(node),
            schema=schema,
            algorithm=self.name,
            node=node,
            suppressed=0,
            original_n_rows=original.n_rows,
            kept_rows=None,
            info={"target": self.target},
        )

    def _specialize(self, evaluator, qi_names, models):
        node = [evaluator.hierarchies[name].height for name in qi_names]
        if not evaluator.check(node, models):
            raise InfeasibleError(_INFEASIBLE_MSG)

        label_codes = None
        n_labels = 0
        if self.target is not None:
            label_codes = evaluator.table.codes(self.target)
            n_labels = int(label_codes.max()) + 1
        gain_cache: dict[tuple[str, int], float] = {}

        current_min = evaluator.min_size(node)
        for _ in range(self.max_steps):
            best_index, best_score = None, -np.inf
            for i, name in enumerate(qi_names):
                if node[i] == 0:
                    continue
                candidate = node[:i] + [node[i] - 1] + node[i + 1 :]
                if not evaluator.check(candidate, models):
                    continue
                gain = self._gain(
                    evaluator, name, node[i], label_codes, n_labels, gain_cache
                )
                anonymity_loss = max(current_min - evaluator.min_size(candidate), 0)
                score = gain / (anonymity_loss + 1.0)
                if score > best_score:
                    best_index, best_score = i, score
            if best_index is None:
                break
            node[best_index] -= 1
            current_min = evaluator.min_size(node)
        return tuple(node)

    def _gain(self, evaluator, name, level, label_codes, n_labels, gain_cache):
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
                codes, _ = _codes_at(evaluator, name, level - 1)
                gain = float(np.unique(codes).size)
                gain_cache[key] = gain
            return gain
        return (
            self._conditional_entropy(evaluator, name, level, label_codes, n_labels, gain_cache)
            - self._conditional_entropy(evaluator, name, level - 1, label_codes, n_labels, gain_cache)
        )

    @staticmethod
    def _conditional_entropy(evaluator, name, level, label_codes, n_labels, gain_cache):
        key = (name, level)
        value = gain_cache.get(key)
        if value is None:
            codes, n_values = _codes_at(evaluator, name, level)
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
