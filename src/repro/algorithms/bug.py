"""Bottom-Up Generalization (Wang, Yu & Chakraborty, ICDM 2004).

A greedy full-domain search that climbs the generalization lattice one
single-attribute step at a time, choosing at each step the attribute whose
raise maximizes the **anonymity-gain / information-loss ratio**:

    score(step) = (min(A(after), k) − A(before)) / (IL(after) − IL(before))

where ``A(node)`` is the minimum equivalence-class size under the node (the
"anonymity" of the table) and ``IL`` is the per-cell NCP loss of the node.
Capping the gain at ``k`` follows the paper: generalizing past the target
anonymity earns no credit, which steers the greedy walk away from needless
over-generalization.

Contrast with :class:`~repro.algorithms.Datafly`, which raises the attribute
with the *most distinct values* and never looks at either anonymity or loss
— BUG is the metric-driven member of the greedy family and is the ablation
partner in experiment E23. Like Datafly it returns a single (locally, not
globally, minimal) node, so it is cheap: at most ``sum(heights)`` rounds of
at most ``n_qi`` candidate checks each.

Supports any combination of generalization-monotone privacy models; the
anonymity term always uses min class size (the k-anonymity surrogate that
drives all of them upward), while satisfaction is tested against the actual
models. Candidates are scored on a private
:class:`~repro.core.engine.LatticeEvaluator`, so only the chosen node's
table is ever materialized.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.engine import LatticeEvaluator
from ..core.generalize import HierarchyLike
from ..core.hierarchy import Hierarchy, IntervalHierarchy
from ..core.lattice import GeneralizationLattice
from ..core.release import Release
from ..core.schema import Schema
from ..core.table import Table
from ..privacy.base import PrivacyModel
from ..privacy.k_anonymity import KAnonymity
from .base import prepare_input, publish_node

__all__ = ["BottomUpGeneralization"]

Node = tuple[int, ...]


class BottomUpGeneralization:
    """Greedy AG/IL-driven bottom-up full-domain generalization."""

    def __init__(self, max_suppression: float = 0.0):
        self.max_suppression = float(max_suppression)
        self.name = "bottom-up"
        self.stats: dict = {}

    def anonymize(
        self,
        table: Table,
        schema: Schema,
        hierarchies: Mapping[str, HierarchyLike],
        models: Sequence[PrivacyModel],
    ) -> Release:
        original = prepare_input(table, schema, hierarchies)
        qi_names = schema.quasi_identifiers
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi_names)
        evaluator = LatticeEvaluator(original, qi_names, hierarchies)
        target_k = _target_k(models)
        self.stats = {"nodes_checked": 0, "steps": 0, "lattice_size": lattice.size}

        node: Node = lattice.bottom
        anonymity = evaluator.min_size(node)
        loss = self._node_loss(original, hierarchies, qi_names, node)

        while not evaluator.check(node, models):
            if node == lattice.top:
                break  # even the top node fails; fall through to suppression
            best = self._best_step(
                evaluator, hierarchies, qi_names, node, lattice, anonymity, loss, target_k
            )
            if best is None:  # pragma: no cover - top handled above
                break
            node, anonymity, loss = best
            self.stats["steps"] += 1

        return publish_node(
            evaluator, node, models, original, schema, self.name,
            self.max_suppression, {"stats": dict(self.stats)},
        )

    # -- greedy step ---------------------------------------------------------

    def _best_step(
        self,
        evaluator: LatticeEvaluator,
        hierarchies: Mapping[str, HierarchyLike],
        qi_names: Sequence[str],
        node: Node,
        lattice: GeneralizationLattice,
        anonymity: int,
        loss: float,
        target_k: int,
    ):
        """Evaluate every single-attribute raise; return the best candidate."""
        best = None
        best_key: tuple | None = None
        for successor in lattice.successors(node):
            self.stats["nodes_checked"] += 1
            cand_anonymity = evaluator.min_size(successor)
            cand_loss = self._node_loss(evaluator.table, hierarchies, qi_names, successor)
            gain = min(cand_anonymity, target_k) - min(anonymity, target_k)
            cost = max(cand_loss - loss, 1e-12)
            # Ties: prefer the cheaper raise, then the more anonymous one.
            key = (gain / cost, -cost, cand_anonymity)
            if best_key is None or key > best_key:
                best_key = key
                best = (successor, cand_anonymity, cand_loss)
        return best

    def _node_loss(
        self,
        table: Table,
        hierarchies: Mapping[str, HierarchyLike],
        qi_names: Sequence[str],
        node: Node,
    ) -> float:
        """Average per-cell NCP of a full-domain node, computed analytically.

        No table materialization needed: for categorical QIs the loss of a
        row is ``(leaves(label) - 1)/(|domain| - 1)``; for numeric QIs it is
        the interval width over the span.
        """
        total = 0.0
        for name, level in zip(qi_names, node):
            hierarchy = hierarchies[name]
            column = table.column(name)
            if isinstance(hierarchy, IntervalHierarchy):
                if level == 0:
                    continue
                assert column.values is not None
                bins = hierarchy.bin_values(column.values, int(level))
                total += float(hierarchy.width_fraction(int(level))[bins].mean())
            else:
                assert isinstance(hierarchy, Hierarchy)
                domain_size = len(hierarchy.ground)
                if domain_size <= 1:
                    continue
                generalized = hierarchy.generalize_column(column, int(level))
                assert generalized.codes is not None
                cover = hierarchy.leaf_count(int(level))
                total += float(
                    ((cover[generalized.codes] - 1) / (domain_size - 1)).mean()
                )
        return total / len(qi_names)

    def __repr__(self) -> str:
        return f"BottomUpGeneralization(max_suppression={self.max_suppression})"


def _target_k(models: Sequence[PrivacyModel]) -> int:
    """The k that drives the anonymity-gain cap (2 if no k-anonymity model)."""
    ks = [m.k for m in models if isinstance(m, KAnonymity)]
    if ks:
        return max(ks)
    # ℓ-diversity/t-closeness still push class sizes up; use a soft cap.
    ells = [getattr(m, "l", None) for m in models]
    ells = [int(e) for e in ells if isinstance(e, (int, float))]
    return max(ells) if ells else 2
