"""Generalization hierarchies.

A generalization hierarchy defines, for each level ``0..height``, a mapping
from ground values to progressively coarser values. Level 0 is the identity;
the top level maps every value to a single root (``"*"`` by convention).

Two concrete kinds:

* :class:`Hierarchy` — categorical, built from a rooted tree or from explicit
  per-level mapping rows (ARX-style).
* :class:`IntervalHierarchy` — numeric, built by recursively merging base
  intervals; generalizing a numeric column yields interval labels, turning
  the column categorical.

Both expose the same level-mapping API, which is what the lattice,
algorithms, and loss metrics consume:

``map_codes(codes, level) -> codes'`` plus ``labels(level)`` (the category
list at that level) and ``leaf_count(level)`` (how many ground values each
level-``level`` value covers — the ingredient of NCP/ILoss).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..errors import HierarchyError
from .table import Column

__all__ = ["Hierarchy", "IntervalHierarchy", "suppression_hierarchy"]


class Hierarchy:
    """Categorical generalization hierarchy over a fixed ground domain.

    Internally stored as per-level arrays: ``level_maps[lv][ground_code]``
    is the code (into ``level_labels[lv]``) of the generalized value of each
    ground value at level ``lv``.
    """

    def __init__(self, ground: Sequence, level_maps: list[np.ndarray], level_labels: list[tuple]):
        if not level_maps or len(level_maps) != len(level_labels):
            raise HierarchyError("level maps and labels must be parallel and non-empty")
        self.ground = tuple(ground)
        self._level_maps = [np.asarray(m, dtype=np.int32) for m in level_maps]
        self._level_labels = [tuple(labels) for labels in level_labels]
        for lv, (mapping, labels) in enumerate(zip(self._level_maps, self._level_labels)):
            if mapping.shape != (len(self.ground),):
                raise HierarchyError(f"level {lv} map length != ground domain size")
            if mapping.size and (mapping.min() < 0 or mapping.max() >= len(labels)):
                raise HierarchyError(f"level {lv} map points outside its label list")
        if len(self._level_labels[-1]) != 1:
            raise HierarchyError("top level must have exactly one value (the root)")
        if list(self._level_labels[0]) != list(self.ground):
            raise HierarchyError("level 0 must be the identity over the ground domain")
        self._check_monotone()

    def _check_monotone(self) -> None:
        """Each level must refine the next: equal codes stay equal upward."""
        for lv in range(len(self._level_maps) - 1):
            lower, upper = self._level_maps[lv], self._level_maps[lv + 1]
            seen: dict[int, int] = {}
            for ground_code in range(len(self.ground)):
                lo, hi = int(lower[ground_code]), int(upper[ground_code])
                if lo in seen and seen[lo] != hi:
                    raise HierarchyError(
                        f"level {lv} value {self._level_labels[lv][lo]!r} maps to two "
                        f"different level-{lv + 1} values"
                    )
                seen[lo] = hi

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_tree(tree: Mapping, root="*") -> "Hierarchy":
        """Build from a nested dict tree.

        ``tree`` maps each internal node label to either a list of leaf
        values or a nested dict. The hierarchy height equals the tree depth;
        ragged branches are padded by repeating the leaf's nearest ancestor.

        Example::

            Hierarchy.from_tree({
                "Europe": {"West": ["France", "Spain"], "East": ["Poland"]},
                "Asia": ["Japan", "China"],
            }, root="Any")
        """
        # paths[leaf] = [leaf, parent, ..., root-child]
        paths: dict[object, list] = {}

        def walk(node, ancestors: list) -> None:
            if isinstance(node, Mapping):
                for label, child in node.items():
                    walk(child, [label] + ancestors)
            else:
                for leaf in node:
                    if leaf in paths:
                        raise HierarchyError(f"leaf {leaf!r} appears twice in tree")
                    paths[leaf] = [leaf] + ancestors

        walk(tree, [])
        if not paths:
            raise HierarchyError("tree has no leaves")
        depth = max(len(p) for p in paths.values())
        # Pad ragged paths by repeating the leaf's highest named ancestor.
        for leaf, path in paths.items():
            while len(path) < depth:
                path.insert(1, path[0] if len(path) == 1 else path[1])
        ground = sorted(paths, key=str)
        levels: list[list] = [[paths[g][lv] for g in ground] for lv in range(depth)]
        levels.append([root] * len(ground))
        return Hierarchy._from_value_levels(ground, levels)

    @staticmethod
    def from_levels(rows: Mapping[object, Sequence]) -> "Hierarchy":
        """Build from ARX-style rows: ``{ground: [lv1, lv2, ..., root]}``.

        All rows must have the same length; a final all-equal root level is
        appended automatically if the last column is not constant.
        """
        if not rows:
            raise HierarchyError("no rows given")
        ground = sorted(rows, key=str)
        widths = {len(rows[g]) for g in ground}
        if len(widths) != 1:
            raise HierarchyError(f"rows have mismatched lengths: {sorted(widths)}")
        width = widths.pop()
        levels: list[list] = [list(ground)]
        for lv in range(width):
            levels.append([rows[g][lv] for g in ground])
        if len(set(levels[-1])) != 1:
            levels.append(["*"] * len(ground))
        return Hierarchy._from_value_levels(ground, levels)

    @staticmethod
    def flat(values: Sequence, root="*") -> "Hierarchy":
        """Two-level hierarchy: identity, then everything to ``root``."""
        ground = sorted(set(values), key=str)
        return Hierarchy._from_value_levels(ground, [list(ground), [root] * len(ground)])

    @staticmethod
    def _from_value_levels(ground: Sequence, levels: list[list]) -> "Hierarchy":
        level_maps: list[np.ndarray] = []
        level_labels: list[tuple] = []
        for level_values in levels:
            labels: list = []
            index: dict = {}
            mapping = np.empty(len(ground), dtype=np.int32)
            for i, value in enumerate(level_values):
                if value not in index:
                    index[value] = len(labels)
                    labels.append(value)
                mapping[i] = index[value]
            level_maps.append(mapping)
            level_labels.append(tuple(labels))
        return Hierarchy(ground, level_maps, level_labels)

    # -- level-mapping API ---------------------------------------------------

    @property
    def height(self) -> int:
        """Maximum generalization level (top of the hierarchy)."""
        return len(self._level_maps) - 1

    def labels(self, level: int) -> tuple:
        self._check_level(level)
        return self._level_labels[level]

    def level_map(self, level: int) -> np.ndarray:
        """int32 lookup table: ``level_map(lv)[ground_code] -> level-lv code``.

        Generalizing a whole column is then a single gather,
        ``level_map(lv)[codes]``, with no Table rebuild — this is the LUT the
        lattice-evaluation engine precomputes per QI. Treat the returned
        array as read-only; it is the hierarchy's internal storage.
        """
        self._check_level(level)
        return self._level_maps[level]

    def map_codes(self, codes: np.ndarray, level: int) -> np.ndarray:
        """Map ground codes to level-``level`` codes (vectorized)."""
        self._check_level(level)
        return self._level_maps[level][codes]

    def ground_codes(self, column: Column) -> np.ndarray:
        """Codes of a categorical column translated into ground-domain order.

        The column's category order need not match the hierarchy's ground
        ordering; codes are remapped through a value index. Only categories
        some row holds must be in the ground domain: a row subset keeps its
        table's category list, and an absent category is never translated.
        The single shared translation used by :meth:`generalize_column`, the
        lattice-evaluation engine, local recoding and k-member's loss model —
        do not fork it.
        """
        if not column.is_categorical:
            raise HierarchyError(f"column {column.name!r} is numeric; use IntervalHierarchy")
        assert column.codes is not None
        if tuple(column.categories) == self.ground:
            return column.codes
        ground_index = {value: code for code, value in enumerate(self.ground)}
        missing = [v for v in column.value_counts() if v not in ground_index]
        if missing:
            raise HierarchyError(
                f"column {column.name!r} values {missing} not in hierarchy ground domain"
            )
        translate = np.array(
            [ground_index.get(v, 0) for v in column.categories], dtype=np.int32
        )
        return translate[column.codes]

    def generalize_column(self, column: Column, level: int) -> Column:
        """Generalize a categorical column whose categories ⊆ ground."""
        return Column.from_codes(
            column.name,
            self.map_codes(self.ground_codes(column), level),
            self.labels(level),
        )

    def leaf_count(self, level: int) -> np.ndarray:
        """For each level-``level`` value, the number of ground values it covers."""
        self._check_level(level)
        return np.bincount(self._level_maps[level], minlength=len(self._level_labels[level]))

    def level_of_distinct(self, level: int) -> int:
        """Number of distinct values at a level (domain size after mapping)."""
        self._check_level(level)
        return len(self._level_labels[level])

    def cover_codes(self, level: int, code: int) -> np.ndarray:
        """Ground codes covered by a given level-``level`` value code."""
        self._check_level(level)
        return np.flatnonzero(self._level_maps[level] == code)

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.height:
            raise HierarchyError(f"level {level} outside [0, {self.height}]")

    def __repr__(self) -> str:
        return f"Hierarchy(|ground|={len(self.ground)}, height={self.height})"


class IntervalHierarchy:
    """Numeric generalization hierarchy producing interval labels.

    Built from cut points: level 1 buckets the real line into the base
    intervals between consecutive cuts; each subsequent level merges
    ``merge_factor`` adjacent intervals. Level 0 is the raw value (identity);
    the top level is the single interval covering everything.

    A generalized numeric column becomes categorical with labels like
    ``"[30-40)"``.
    """

    def __init__(self, cuts: Sequence[float], merge_factor: int = 2, precision: int = 6):
        cuts = sorted(float(c) for c in cuts)
        if len(cuts) < 2:
            raise HierarchyError("need at least two cut points")
        if len(set(cuts)) != len(cuts):
            raise HierarchyError("cut points must be distinct")
        if merge_factor < 2:
            raise HierarchyError("merge_factor must be >= 2")
        self.cuts = cuts
        self.merge_factor = merge_factor
        self.precision = precision
        # levels[k] = list of (lo, hi) interval tuples for generalization level k+1
        self._interval_levels: list[list[tuple[float, float]]] = []
        base = [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]
        self._interval_levels.append(base)
        current = base
        while len(current) > 1:
            merged = [
                (chunk[0][0], chunk[-1][1])
                for chunk in _chunks(current, merge_factor)
            ]
            self._interval_levels.append(merged)
            current = merged

    @staticmethod
    def uniform(lo: float, hi: float, n_bins: int, merge_factor: int = 2) -> "IntervalHierarchy":
        """Evenly spaced cut points over ``[lo, hi]``."""
        if n_bins < 1:
            raise HierarchyError("need at least one bin")
        cuts = np.linspace(lo, hi, n_bins + 1)
        return IntervalHierarchy(cuts.tolist(), merge_factor=merge_factor)

    @property
    def height(self) -> int:
        return len(self._interval_levels)  # +1 identity level at 0

    @property
    def span(self) -> float:
        return self.cuts[-1] - self.cuts[0]

    def intervals(self, level: int) -> list[tuple[float, float]]:
        if not 1 <= level <= self.height:
            raise HierarchyError(f"level {level} outside [1, {self.height}]")
        return list(self._interval_levels[level - 1])

    def label(self, interval: tuple[float, float]) -> str:
        lo, hi = interval
        fmt = f"%.{self.precision}g"
        return f"[{fmt % lo}-{fmt % hi})"

    def bin_values(self, values: np.ndarray, level: int) -> np.ndarray:
        """Interval index (at ``level``) of each value; clips out-of-range."""
        intervals = self.intervals(level)
        edges = np.array([iv[0] for iv in intervals][1:])
        return np.clip(np.searchsorted(edges, values, side="right"), 0, len(intervals) - 1)

    def generalize_column(self, column: Column, level: int) -> Column:
        """Generalize a numeric column to interval labels at ``level``.

        Level 0 returns the column unchanged (still numeric).
        """
        if column.is_categorical:
            raise HierarchyError(f"column {column.name!r} is categorical; use Hierarchy")
        if level == 0:
            return column
        assert column.values is not None
        intervals = self.intervals(level)
        bins = self.bin_values(column.values, level)
        labels = [self.label(iv) for iv in intervals]
        return Column.from_codes(column.name, bins.astype(np.int32), labels)

    def width_fraction(self, level: int) -> np.ndarray:
        """Per-interval width divided by total span (NCP ingredient)."""
        if level == 0:
            return np.zeros(1)
        intervals = self.intervals(level)
        return np.array([(hi - lo) / self.span for lo, hi in intervals])

    def __repr__(self) -> str:
        return (
            f"IntervalHierarchy([{self.cuts[0]}, {self.cuts[-1]}], "
            f"bins={len(self._interval_levels[0])}, height={self.height})"
        )


def suppression_hierarchy(values: Sequence) -> Hierarchy:
    """The trivial hierarchy used when no domain knowledge exists."""
    return Hierarchy.flat(values)


def _chunks(seq: list, size: int) -> list[list]:
    return [seq[i : i + size] for i in range(0, len(seq), size)]
