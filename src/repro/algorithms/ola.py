"""Optimal Lattice Anonymization (OLA; El Emam et al.).

Full-domain search that finds the *globally optimal* (lowest-loss)
satisfying node under a suppression budget, using binary search over lattice
strata:

1. The predicate "node satisfies the models within the suppression budget"
   is monotone along every lattice path when the budget is zero, or when
   every model is *suppression-monotone*: merging two classes never adds
   failing rows (k-anonymity, distinct ℓ-diversity). Models that average
   over a class (entropy and recursive ℓ-diversity, t-closeness,
   β-likeness, (α,k)-anonymity) can fail more rows on a merged class, so
   with a budget a more general node may break it where a less general one
   met it. The tagging below may then skip satisfying nodes, and the result
   is the best node found rather than the global optimum. On
   ``random_scenario(300, 2, 6, 4, seed=17)`` with t-closeness 0.15 and a
   0.05 budget, OLA reports ``(3, 1, 4)`` and ``(3, 2, 2)`` as the minimal
   nodes where ``(2, 1, 4)`` and ``(3, 1, 2)`` are; on ``seed=20`` Flash
   releases ``(0, 3, 4)`` though ``(3, 1, 2)`` satisfies.
2. Binary-search the strata of each sub-lattice between known-unsatisfying
   bottom and known-satisfying top, tagging up-sets/down-sets to avoid
   re-evaluation.
3. Among all minimal satisfying nodes, return the one minimizing a loss
   function (default: non-uniform entropy proxy = sum of level fractions,
   ties broken by suppression count).

Instrumentation mirrors Incognito's: ``stats["nodes_checked"]`` vs lattice
size.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ..core.engine import LatticeEvaluator
from ..core.generalize import HierarchyLike
from ..core.lattice import GeneralizationLattice
from ..core.release import Release
from ..core.schema import Schema
from ..core.table import Table
from ..errors import InfeasibleError
from ..privacy.base import PrivacyModel
from .base import prepare_input, publish_node

__all__ = ["OLA"]

Node = tuple[int, ...]


class OLA:
    """Binary-search lattice anonymization with a suppression budget."""

    #: ``anonymize`` accepts an external LatticeEvaluator (batch sharing).
    uses_evaluator = True

    def __init__(
        self,
        max_suppression: float = 0.05,
        loss: Callable[[Node, Sequence[int]], float] | None = None,
    ):
        self.max_suppression = float(max_suppression)
        self.loss = loss or self._default_loss
        self.name = "ola"
        self.stats: dict = {}

    @staticmethod
    def _default_loss(node: Node, heights: Sequence[int]) -> float:
        """Sum of per-attribute level fractions (precision metric)."""
        return sum(
            (level / height) if height else 0.0
            for level, height in zip(node, heights)
        )

    def anonymize(
        self,
        table: Table,
        schema: Schema,
        hierarchies: Mapping[str, HierarchyLike],
        models: Sequence[PrivacyModel],
        evaluator: LatticeEvaluator | None = None,
    ) -> Release:
        original = prepare_input(table, schema, hierarchies)
        qi_names = schema.quasi_identifiers
        if evaluator is None:
            evaluator = LatticeEvaluator(original, qi_names, hierarchies)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi_names)
        heights = lattice.heights
        self.stats = {"nodes_checked": 0, "lattice_size": lattice.size}
        # Deterministic cache fill: OLA probes the top first (which can
        # never serve as a roll-up ancestor), so mid-stratum probes used to
        # be O(n_rows) from-rows computations in an order parallel batch
        # jobs race over. Seeding the bottom gives every probe a roll-up
        # ancestor, pinning the engine's from_rows/rollups profile at any
        # worker count — and making each probe O(n_groups) instead.
        evaluator.n_groups(lattice.bottom)

        satisfying: set[Node] = set()
        unsatisfying: set[Node] = set()

        def evaluate(node: Node) -> bool:
            if node in satisfying:
                return True
            if node in unsatisfying:
                return False
            self.stats["nodes_checked"] += 1
            ok = evaluator.evaluate(node, models, self.max_suppression)
            if ok:
                satisfying.update(lattice.up_set(node))
            else:
                down = {
                    other
                    for other in lattice.nodes()
                    if GeneralizationLattice.dominates(node, other)
                }
                unsatisfying.update(down)
            return ok

        if not evaluate(lattice.top):
            raise InfeasibleError(
                "even the fully-generalized table violates the models within "
                "the suppression budget"
            )

        # Stratified binary search: repeatedly probe mid-height nodes that
        # are still unclassified, narrowing towards the minimal frontier.
        strata = list(lattice.levels())
        low, high = 0, len(strata) - 1
        while low < high:
            mid = (low + high) // 2
            unresolved = [
                node
                for node in strata[mid]
                if node not in satisfying and node not in unsatisfying
            ]
            any_satisfying = any(evaluate(node) for node in unresolved) or any(
                node in satisfying for node in strata[mid]
            )
            if any_satisfying:
                high = mid
            else:
                low = mid + 1

        # Sweep the (small) remaining unresolved frontier to finalize minima.
        for stratum in strata:
            for node in stratum:
                if node not in satisfying and node not in unsatisfying:
                    evaluate(node)

        minimal = [
            node
            for node in satisfying
            if not any(
                predecessor in satisfying
                for predecessor in lattice.predecessors(node)
            )
        ]
        if not minimal:  # pragma: no cover - top evaluated satisfying above
            raise InfeasibleError("no satisfying node found")

        best = min(minimal, key=lambda node: self.loss(node, heights))
        return publish_node(
            evaluator, best, models, original, schema, self.name,
            self.max_suppression,
            {"minimal_nodes": sorted(minimal), "stats": dict(self.stats)},
        )

    def __repr__(self) -> str:
        return f"OLA(max_suppression={self.max_suppression})"
