"""t-closeness (Li, Li & Venkatasubramanian).

ℓ-diversity still leaks when the class's sensitive distribution differs
sharply from the table-wide one (skewness and similarity attacks).
t-closeness requires the Earth Mover's Distance between each equivalence
class's sensitive distribution and the global distribution to be at most
``t``.

Three ground distances are provided, matching the original paper:

* **equal** — all distinct values are distance 1 apart; EMD reduces to half
  the L1 distance (total variation distance).
* **ordered** — values lie on a line (numeric/ordinal sensitive attribute);
  EMD is the classic cumulative-sum formula, normalized by ``m - 1``.
* **hierarchical** — distance derived from a generalization hierarchy; EMD is
  computed bottom-up by accumulating unmatched mass through the tree
  (``cost = sum over nodes of |net flow through node| * edge length``,
  normalized by tree height).
"""

from __future__ import annotations

import numpy as np

from ..core.hierarchy import Hierarchy

__all__ = ["TCloseness", "emd_equal", "emd_ordered", "emd_hierarchical"]


def emd_equal(p: np.ndarray, q: np.ndarray) -> float:
    """EMD under the equal ground distance: total variation distance."""
    return 0.5 * float(np.abs(p - q).sum())


def emd_ordered(p: np.ndarray, q: np.ndarray) -> float:
    """EMD for values on an ordered line, normalized to [0, 1].

    With m ordered values at unit spacing, EMD is the sum of absolute
    cumulative differences; dividing by ``m - 1`` normalizes the maximum
    (all mass moved across the whole line) to 1.
    """
    m = p.shape[0]
    if m <= 1:
        return 0.0
    cumulative = np.cumsum(p - q)
    return float(np.abs(cumulative[:-1]).sum()) / (m - 1)


def emd_hierarchical(p: np.ndarray, q: np.ndarray, hierarchy: Hierarchy) -> float:
    """EMD with ground distance from a generalization hierarchy.

    Ground distance between two values is ``level(LCA) / height`` — 1 when
    they only meet at the root, smaller within subtrees. For a tree metric,
    EMD has the closed form ``Σ_edges w(e) · |net flow through e|``: the flow
    through the edge above a node is the net residual mass of its subtree,
    and uniform per-level edge weights of ``1/(2·height)`` realize the
    LCA-level ground distance. Summing over levels 0..height-1 (every node
    except the root, whose net flow is always 0) gives a value in [0, 1].
    """
    if len(hierarchy.ground) != p.shape[0]:
        raise ValueError("distribution length does not match hierarchy ground domain")
    height = hierarchy.height
    if height == 0:
        return 0.0
    residual = p - q
    ground = np.arange(len(hierarchy.ground))
    cost = 0.0
    for level in range(height):  # root (level == height) excluded
        mapping = hierarchy.map_codes(ground, level)
        flows = np.zeros(hierarchy.level_of_distinct(level))
        np.add.at(flows, mapping, residual)
        cost += float(np.abs(flows).sum())
    return cost / (2.0 * height)


class TCloseness:
    """EMD bound between per-EC and global sensitive distributions."""

    monotone = True

    def __init__(
        self,
        t: float,
        sensitive: str,
        ground_distance: str = "equal",
        hierarchy: Hierarchy | None = None,
    ):
        if not 0 <= t <= 1:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        if ground_distance not in ("equal", "ordered", "hierarchical"):
            raise ValueError(f"unknown ground distance {ground_distance!r}")
        if ground_distance == "hierarchical" and hierarchy is None:
            raise ValueError("hierarchical ground distance requires a hierarchy")
        self.t = float(t)
        self.sensitive = sensitive
        self.ground_distance = ground_distance
        self.hierarchy = hierarchy
        self.name = f"{self.t:g}-closeness({sensitive},{ground_distance})"
        self._level_aggregates: list[np.ndarray] | None = None

    def distances(self, stats) -> np.ndarray:
        """EMD of every group against the global distribution."""
        hist = stats.histogram(self.sensitive).astype(np.float64)
        global_dist = stats.global_distribution(self.sensitive)
        totals = hist.sum(axis=1)
        safe = np.where(totals > 0, totals, 1.0)
        local = np.where(totals[:, None] > 0, hist / safe[:, None], 0.0)
        residual = local - global_dist[None, :]
        if self.ground_distance == "equal":
            return 0.5 * np.abs(residual).sum(axis=1)
        if self.ground_distance == "ordered":
            m = residual.shape[1]
            if m <= 1:
                return np.zeros(residual.shape[0])
            cumulative = np.cumsum(residual, axis=1)
            return np.abs(cumulative[:, :-1]).sum(axis=1) / (m - 1)
        assert self.hierarchy is not None
        hierarchy = self.hierarchy
        if len(hierarchy.ground) != residual.shape[1]:
            raise ValueError("distribution length does not match hierarchy ground domain")
        height = hierarchy.height
        if height == 0:
            return np.zeros(residual.shape[0])
        cost = np.zeros(residual.shape[0])
        for aggregate in self._aggregates():  # root (level == height) excluded
            flows = residual @ aggregate
            cost += np.abs(flows).sum(axis=1)
        return cost / (2.0 * height)

    def _aggregates(self) -> list[np.ndarray]:
        """Per-level one-hot (ground × level-values) matrices, cached —
        they depend only on the (immutable) hierarchy."""
        if self._level_aggregates is None:
            assert self.hierarchy is not None
            ground = np.arange(len(self.hierarchy.ground))
            matrices = []
            for level in range(self.hierarchy.height):
                mapping = self.hierarchy.map_codes(ground, level)
                aggregate = np.zeros((ground.size, self.hierarchy.level_of_distinct(level)))
                aggregate[ground, mapping] = 1.0
                matrices.append(aggregate)
            self._level_aggregates = matrices
        return self._level_aggregates

    def ok_mask(self, stats) -> np.ndarray:
        return self.distances(stats) <= self.t + 1e-12

    def __repr__(self) -> str:
        return (
            f"TCloseness(t={self.t}, sensitive={self.sensitive!r}, "
            f"ground_distance={self.ground_distance!r})"
        )
