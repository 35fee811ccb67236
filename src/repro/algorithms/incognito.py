"""Incognito (LeFevre, DeWitt & Ramakrishnan).

Finds *all* minimal full-domain generalizations satisfying the privacy
models, using the apriori-style observation that if a QI subset's
generalization violates (monotone) k-anonymity, every superset node below it
does too.

Implementation walks QI subsets of increasing size; for each subset it does a
bottom-up BFS of the projected lattice, with two classic optimizations:

* **predictive tagging** — once a node satisfies the models, its whole up-set
  is marked satisfying without re-checking (requires monotone models);
* **candidate pruning across subset sizes** — a size-``s`` node is only
  checked if all its size-``s-1`` projections were satisfying.

Both rules hold without a suppression budget. With ``max_suppression > 0``
a node satisfies when its failing classes' rows fit the budget, which is
monotone only for *suppression-monotone* models, those for which merging two
classes never adds failing rows (k-anonymity, distinct ℓ-diversity). With a
model that averages over a class (entropy and recursive ℓ-diversity,
t-closeness, β-likeness, (α,k)-anonymity) a more general node can break a
budget a less general one met, so the tagging and the pruning may skip
satisfying nodes and the minimal set may be wrong. On
``random_scenario(300, 2, 6, 4, seed=35)`` with t-closeness 0.15 and a 0.05
budget, Incognito's minimal set lacks ``(3, 2, 2)``; on ``seed=20`` Flash
releases ``(0, 3, 4)`` though ``(3, 1, 2)`` satisfies.

The returned release uses the minimal satisfying node with the best value of
a caller-supplied scoring function (default: lowest total height, ties by
most equivalence classes).

Instrumentation: ``stats`` on the instance records nodes checked vs. lattice
size (the E12 pruning experiment).
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Mapping, Sequence

from ..core.engine import LatticeEvaluator
from ..core.generalize import HierarchyLike
from ..core.lattice import GeneralizationLattice, minimal_antichain
from ..core.release import Release
from ..core.schema import Schema
from ..core.table import Table
from ..errors import InfeasibleError
from ..privacy.base import PrivacyModel
from .base import choose_minimal, prepare_input, publish_node

__all__ = ["Incognito"]

Node = tuple[int, ...]


class Incognito:
    """Breadth-first lattice search for all minimal satisfying nodes."""

    #: ``anonymize`` accepts an external LatticeEvaluator (batch sharing).
    uses_evaluator = True

    def __init__(
        self,
        max_suppression: float = 0.0,
        score: Callable[[Table, Node], float] | None = None,
        use_subset_pruning: bool = True,
        use_predictive_tagging: bool = True,
    ):
        self.max_suppression = float(max_suppression)
        self.score = score
        self.use_subset_pruning = use_subset_pruning
        self.use_predictive_tagging = use_predictive_tagging
        self.name = "incognito"
        self.stats: dict = {}

    # -- public API ----------------------------------------------------------

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
        minimal = self.find_minimal_nodes(
            original, qi_names, hierarchies, models, evaluator=evaluator
        )
        if not minimal:
            raise InfeasibleError("no full-domain generalization satisfies the models")
        best = choose_minimal(minimal, evaluator, self.score, original)
        return publish_node(
            evaluator, best, models, original, schema, self.name,
            self.max_suppression,
            {"minimal_nodes": sorted(minimal), "stats": dict(self.stats)},
        )

    # -- search --------------------------------------------------------------

    def find_minimal_nodes(
        self,
        table: Table,
        qi_names: Sequence[str],
        hierarchies: Mapping[str, HierarchyLike],
        models: Sequence[PrivacyModel],
        evaluator: LatticeEvaluator | None = None,
    ) -> list[Node]:
        """All minimal satisfying nodes of the full lattice."""
        if evaluator is None:
            evaluator = LatticeEvaluator(table, qi_names, hierarchies)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi_names)
        monotone = all(getattr(m, "monotone", False) for m in models)
        self.stats = {
            "nodes_checked": 0,
            "lattice_size": lattice.size,
            "tagged_without_check": 0,
            "pruned_by_subsets": 0,
            "preseeded_subsets": 0,
        }

        # satisfying_by_subset[frozenset of names] = set of satisfying nodes
        # (in the projected lattice of that subset, ordered as sorted names).
        satisfying_by_subset: dict[frozenset, set[Node]] = {}

        names_sorted = sorted(qi_names)
        # Deterministic cache fill: a subset's bottom node has no
        # strictly-more-specific neighbour, so it is always an O(n_rows)
        # from-rows computation — and *which* nodes end up from-rows is
        # exactly what used to depend on how parallel batch jobs interleaved
        # their searches (racing workers saw emptier caches, computed more
        # nodes from rows, rolled up fewer). Each subset's bottom is seeded
        # right before its search below, so every job — whatever worker it
        # runs on — has the bottom cached before requesting any other node
        # of that subset, and `cache_info()` shows the same from_rows/rollups
        # split at any worker count. Seeding lazily (not all 2^n bottoms up
        # front) keeps an infeasible or heavily-pruned search from paying
        # for subsets it never reaches.
        for size in range(1, len(names_sorted) + 1):
            for subset in combinations(names_sorted, size):
                evaluator.n_groups((0,) * size, names=subset)
                self.stats["preseeded_subsets"] += 1
                sub_lattice = lattice.project(subset)
                satisfying = self._search_subset(
                    evaluator, subset, sub_lattice, models,
                    satisfying_by_subset, monotone,
                )
                if not satisfying:
                    return []  # even this subset cannot be protected
                satisfying_by_subset[frozenset(subset)] = satisfying

        full = satisfying_by_subset[frozenset(names_sorted)]
        # Re-order node components from sorted-name order to qi_names order.
        order = [sorted(qi_names).index(name) for name in qi_names]
        return minimal_antichain(tuple(node[i] for i in order) for node in full)

    def _search_subset(
        self,
        evaluator: LatticeEvaluator,
        subset: tuple,
        sub_lattice: GeneralizationLattice,
        models: Sequence[PrivacyModel],
        satisfying_by_subset: dict,
        monotone: bool,
    ) -> set[Node]:
        satisfying: set[Node] = set()
        for stratum in sub_lattice.levels():
            for node in stratum:
                if node in satisfying:
                    continue  # predictively tagged
                if self.use_subset_pruning and len(subset) > 1:
                    if self._pruned_by_subsets(node, subset, satisfying_by_subset):
                        self.stats["pruned_by_subsets"] += 1
                        continue
                self.stats["nodes_checked"] += 1
                # Evaluate over the full table's rows (not a projection):
                # models like l-diversity/t-closeness need the sensitive
                # column, which GroupStats histograms carry.
                if evaluator.evaluate(node, models, self.max_suppression, names=subset):
                    if monotone and self.use_predictive_tagging:
                        up = sub_lattice.up_set(node)
                        self.stats["tagged_without_check"] += len(up - satisfying) - 1
                        satisfying |= up
                    else:
                        satisfying.add(node)
        return satisfying

    def _pruned_by_subsets(self, node: Node, subset: tuple, satisfying_by_subset: dict) -> bool:
        """True if any (s-1)-projection of ``node`` was unsatisfying."""
        for drop in range(len(subset)):
            smaller = subset[:drop] + subset[drop + 1 :]
            projected = node[:drop] + node[drop + 1 :]
            known = satisfying_by_subset.get(frozenset(smaller))
            if known is not None and projected not in known:
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"Incognito(max_suppression={self.max_suppression}, "
            f"subset_pruning={self.use_subset_pruning}, "
            f"predictive_tagging={self.use_predictive_tagging})"
        )

