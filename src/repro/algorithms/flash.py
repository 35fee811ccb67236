"""Flash lattice search (Kohlmayer, Prasser, Eckert, Kemper & Kuhn, 2012).

Flash is the generalization-lattice search used by the ARX anonymization
tool. Like Incognito and OLA it walks the full-domain lattice looking for
minimal satisfying nodes, but it does so with a *greedy path / binary check*
strategy that is markedly cheaper in practice:

1. visit the lattice bottom-up, one total-height stratum at a time;
2. from every node whose state is still unknown, greedily build an upward
   **path** (a chain of direct successors, preferring successors with the
   smallest average hierarchy-level ratio — the paper's heuristic keeps
   paths in the "cheap" corner of the lattice);
3. **binary-search** the path for the lowest satisfying node — anonymity is
   monotone along a chain, so a single bisection classifies the whole path;
4. propagate the outcome predictively: a satisfying node tags its entire
   up-set satisfying, a violating node tags its entire down-set violating.

Every lattice node ends up classified, so the minimal satisfying antichain
is exact — Flash and Incognito return the same set of minimal nodes (tested
in ``tests/test_flash.py``); only the number of explicit model checks
differs. That holds without a suppression budget, where every registered
model is monotone along a chain. With ``max_suppression > 0`` a node
satisfies when its failing classes' rows fit the budget, which stays
monotone only for *suppression-monotone* models, those for which merging two
classes never adds failing rows (k-anonymity, distinct ℓ-diversity). Models
that average over a class (entropy and recursive ℓ-diversity, t-closeness,
β-likeness, (α,k)-anonymity) can fail more rows on a merged class, so steps
3 and 4 may tag satisfying nodes violating and the antichain may miss
minimal nodes: on ``random_scenario(300, 2, 6, 4, seed=20)`` with
t-closeness 0.15 and a 0.05 budget, Flash releases ``(0, 3, 4)`` though
``(3, 1, 2)`` satisfies. Instrumentation mirrors :class:`~repro.algorithms.Incognito`:
``stats`` records nodes checked vs. lattice size (experiment E23).

The release node is chosen among the minimal antichain exactly as Incognito
does (lowest total height, ties broken by most equivalence classes) so the
two algorithms are interchangeable in pipelines.
"""

from __future__ import annotations

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

__all__ = ["Flash"]

Node = tuple[int, ...]

_UNKNOWN, _SATISFYING, _VIOLATING = 0, 1, 2


class Flash:
    """Greedy-path / binary-check search for all minimal satisfying nodes.

    Parameters
    ----------
    max_suppression:
        fraction of records that may be dropped if the chosen node still
        leaves violating equivalence classes (normally zero — the node
        already satisfies the models).
    score:
        optional ``score(table, node) -> float``; the minimal node with the
        lowest score is released. Defaults to Incognito's key (total height,
        then negated EC count).
    """

    #: ``anonymize`` accepts an external LatticeEvaluator (batch sharing).
    uses_evaluator = True

    def __init__(
        self,
        max_suppression: float = 0.0,
        score: Callable[[Table, Node], float] | None = None,
    ):
        self.max_suppression = float(max_suppression)
        self.score = score
        self.name = "flash"
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
        """Classify every lattice node; return the minimal satisfying antichain.

        Requires generalization-monotone models (every model shipped with the
        library is); non-monotone models make predictive tagging unsound, so
        they are rejected up front.
        """
        non_monotone = [m.name for m in models if not getattr(m, "monotone", False)]
        if non_monotone:
            raise InfeasibleError(
                f"Flash requires monotone privacy models; got {non_monotone}"
            )
        if evaluator is None:
            evaluator = LatticeEvaluator(table, qi_names, hierarchies)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi_names)
        self.stats = {
            "nodes_checked": 0,
            "lattice_size": lattice.size,
            "paths_built": 0,
            "tagged_without_check": 0,
        }
        # Deterministic cache fill: Flash's first stats request is a
        # mid-path bisection pivot, and lower nodes visited later cannot
        # roll up from it — so which nodes came "from rows" depended on the
        # request order, which parallel batch jobs race over. Seeding the
        # lattice bottom first gives every other node a roll-up ancestor,
        # pinning the engine's from_rows/rollups profile at any worker count.
        evaluator.n_groups(lattice.bottom)
        state: dict[Node, int] = {}

        for stratum in lattice.levels():
            for node in stratum:
                if state.get(node, _UNKNOWN) is not _UNKNOWN:
                    continue
                path = self._build_path(node, lattice, state)
                self.stats["paths_built"] += 1
                self._check_path(path, evaluator, models, lattice, state)

        return minimal_antichain(node for node, s in state.items() if s is _SATISFYING)

    def _build_path(
        self,
        start: Node,
        lattice: GeneralizationLattice,
        state: dict[Node, int],
    ) -> list[Node]:
        """Greedy upward chain of unknown nodes starting at ``start``.

        Successor choice follows the Flash heuristic: prefer the successor
        with the lowest average level/height ratio, i.e. stay as specific as
        possible for as long as possible, so the bisection pivot lands near
        the satisfaction frontier.
        """
        path = [start]
        current = start
        while True:
            candidates = [
                succ
                for succ in lattice.successors(current)
                if state.get(succ, _UNKNOWN) is _UNKNOWN
            ]
            if not candidates:
                break
            current = min(candidates, key=lambda n: (_level_ratio(n, lattice.heights), n))
            path.append(current)
        return path

    def _check_path(
        self,
        path: list[Node],
        evaluator: LatticeEvaluator,
        models: Sequence[PrivacyModel],
        lattice: GeneralizationLattice,
        state: dict[Node, int],
    ) -> None:
        """Bisect a chain for its lowest satisfying node; tag both sides."""
        lo, hi = 0, len(path) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._satisfies(path[mid], evaluator, models):
                self._tag_up(path[mid], lattice, state)
                hi = mid - 1
            else:
                self._tag_down(path[mid], lattice, state)
                lo = mid + 1
        # Nodes below the frontier end up tagged violating by the last
        # failing pivot's _tag_down, nodes above by _tag_up — nothing on the
        # path itself is left unknown.

    def _satisfies(
        self,
        node: Node,
        evaluator: LatticeEvaluator,
        models: Sequence[PrivacyModel],
    ) -> bool:
        self.stats["nodes_checked"] += 1
        return evaluator.evaluate(node, models, self.max_suppression)

    def _tag_up(self, node: Node, lattice: GeneralizationLattice, state: dict[Node, int]) -> None:
        for other in lattice.up_set(node):
            if state.get(other, _UNKNOWN) is _UNKNOWN:
                if other != node:
                    self.stats["tagged_without_check"] += 1
                state[other] = _SATISFYING

    def _tag_down(self, node: Node, lattice: GeneralizationLattice, state: dict[Node, int]) -> None:
        for other in _down_set(node):
            if state.get(other, _UNKNOWN) is _UNKNOWN:
                if other != node:
                    self.stats["tagged_without_check"] += 1
                state[other] = _VIOLATING

    def __repr__(self) -> str:
        return f"Flash(max_suppression={self.max_suppression})"


def _level_ratio(node: Node, heights: tuple[int, ...]) -> float:
    """Average fraction of each hierarchy consumed by the node."""
    ratios = [lv / h if h else 0.0 for lv, h in zip(node, heights)]
    return sum(ratios) / len(ratios)


def _down_set(node: Node) -> list[Node]:
    """Every node componentwise ≤ ``node`` (inclusive)."""
    from itertools import product

    return [tuple(p) for p in product(*(range(lv + 1) for lv in node))]

