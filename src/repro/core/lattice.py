"""Full-domain generalization lattice.

A lattice node is a tuple of generalization levels, one per quasi-identifier.
The bottom node is all zeros (raw data); the top node is every hierarchy's
height (single equivalence class). Incognito, Datafly, and OLA-style searches
all walk this structure.

The lattice supports:

* node enumeration grouped by total height (BFS strata),
* direct successors/predecessors (one attribute raised/lowered one level),
* generality comparison (componentwise ≤),
* up-set computation (everything above a node) for predictive tagging,
* the minimal antichain of a set of nodes (the searches' result).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import HierarchyError
from .hierarchy import Hierarchy, IntervalHierarchy

__all__ = ["GeneralizationLattice", "minimal_antichain"]

Node = tuple[int, ...]


class GeneralizationLattice:
    """The lattice of full-domain generalization level vectors."""

    def __init__(self, attributes: Sequence[str], heights: Sequence[int]):
        if len(attributes) != len(heights):
            raise HierarchyError("attributes and heights must be parallel")
        if not attributes:
            raise HierarchyError("lattice needs at least one attribute")
        if any(h < 0 for h in heights):
            raise HierarchyError("heights must be non-negative")
        self.attributes = list(attributes)
        self.heights = tuple(int(h) for h in heights)

    @staticmethod
    def from_hierarchies(
        hierarchies: Mapping[str, Hierarchy | IntervalHierarchy],
        attributes: Sequence[str] | None = None,
    ) -> "GeneralizationLattice":
        names = list(attributes) if attributes is not None else list(hierarchies)
        return GeneralizationLattice(names, [hierarchies[name].height for name in names])

    # -- basic structure -----------------------------------------------------

    @property
    def bottom(self) -> Node:
        return (0,) * len(self.heights)

    @property
    def top(self) -> Node:
        return tuple(self.heights)

    @property
    def size(self) -> int:
        """Total number of nodes: product of (height+1)."""
        n = 1
        for h in self.heights:
            n *= h + 1
        return n

    def contains(self, node: Node) -> bool:
        return len(node) == len(self.heights) and all(
            0 <= lv <= h for lv, h in zip(node, self.heights)
        )

    def _check(self, node: Node) -> None:
        if not self.contains(node):
            raise HierarchyError(f"node {node} outside lattice with heights {self.heights}")

    def total_height(self, node: Node) -> int:
        self._check(node)
        return sum(node)

    # -- traversal -----------------------------------------------------------

    def nodes(self) -> Iterator[Node]:
        """All nodes, in lexicographic order."""
        for node in product(*(range(h + 1) for h in self.heights)):
            yield node

    def levels(self) -> Iterator[list[Node]]:
        """Nodes grouped by total height, bottom stratum first (BFS order)."""
        strata: list[list[Node]] = [[] for _ in range(sum(self.heights) + 1)]
        for node in self.nodes():
            strata[sum(node)].append(node)
        yield from strata

    def successors(self, node: Node) -> list[Node]:
        """Direct generalizations: raise exactly one attribute by one level."""
        self._check(node)
        result = []
        for i, (lv, h) in enumerate(zip(node, self.heights)):
            if lv < h:
                result.append(node[:i] + (lv + 1,) + node[i + 1 :])
        return result

    def predecessors(self, node: Node) -> list[Node]:
        """Direct specializations: lower exactly one attribute by one level."""
        self._check(node)
        result = []
        for i, lv in enumerate(node):
            if lv > 0:
                result.append(node[:i] + (lv - 1,) + node[i + 1 :])
        return result

    @staticmethod
    def dominates(general: Node, specific: Node) -> bool:
        """True if ``general`` is at least as generalized componentwise."""
        return all(g >= s for g, s in zip(general, specific))

    def up_set(self, node: Node) -> set[Node]:
        """Every node ≥ the given node (inclusive)."""
        self._check(node)
        ranges = [range(lv, h + 1) for lv, h in zip(node, self.heights)]
        return set(product(*ranges))

    def project(self, attributes: Sequence[str]) -> "GeneralizationLattice":
        """Sub-lattice over a subset of the attributes (Incognito subsets)."""
        index = {name: i for i, name in enumerate(self.attributes)}
        missing = [a for a in attributes if a not in index]
        if missing:
            raise HierarchyError(f"attributes {missing} not in lattice")
        return GeneralizationLattice(
            list(attributes), [self.heights[index[a]] for a in attributes]
        )

    def embed(self, sub_node: Node, sub_attributes: Sequence[str], base: Node | None = None) -> Node:
        """Lift a sub-lattice node into this lattice (others from ``base``/0)."""
        levels = list(base) if base is not None else [0] * len(self.attributes)
        index = {name: i for i, name in enumerate(self.attributes)}
        for name, lv in zip(sub_attributes, sub_node):
            levels[index[name]] = lv
        node = tuple(levels)
        self._check(node)
        return node

    def __repr__(self) -> str:
        return f"GeneralizationLattice({dict(zip(self.attributes, self.heights))}, size={self.size})"


def minimal_antichain(nodes: Iterable[Node]) -> list[Node]:
    """The nodes no other node of the set is componentwise ≤ to, sorted.

    Nodes are walked by ascending level sum, so a node's strict
    predecessors come first and it is compared only with the minimal nodes
    kept so far: anything below it is, or lies above, one of those.
    """
    minimal: list[Node] = []
    for node in sorted(set(nodes), key=sum):
        if not any(all(m <= n for m, n in zip(kept, node)) for kept in minimal):
            minimal.append(node)
    return sorted(minimal)
