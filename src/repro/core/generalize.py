"""Applying generalizations to tables.

Two styles, matching the survey's operation taxonomy:

* **full-domain** (:func:`apply_node`) — a lattice node assigns one level per
  QI; every value of that attribute is mapped through its hierarchy at that
  level. Used by Datafly, Incognito, and the lattice searches.
* **local recoding** (:func:`apply_partition_recoding`) — each equivalence
  class gets its own representative value per QI (the minimal hierarchy node
  covering the class, or the min-max interval for numeric QIs). Used by
  Mondrian and microaggregation, which produce multidimensional regions.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..errors import HierarchyError
from .hierarchy import Hierarchy, IntervalHierarchy
from .table import Column, Table

__all__ = ["apply_node", "apply_partition_recoding"]

HierarchyLike = Hierarchy | IntervalHierarchy


def apply_node(
    table: Table,
    hierarchies: Mapping[str, HierarchyLike],
    attributes: Sequence[str],
    node: Sequence[int],
) -> Table:
    """Generalize ``attributes`` of ``table`` to the levels in ``node``."""
    if len(attributes) != len(node):
        raise HierarchyError("attributes and node levels must be parallel")
    new_columns = []
    for name, level in zip(attributes, node):
        hierarchy = hierarchies[name]
        new_columns.append(hierarchy.generalize_column(table.column(name), int(level)))
    return table.replace(*new_columns)


def apply_partition_recoding(
    table: Table,
    groups: Sequence[np.ndarray],
    categorical_qis: Mapping[str, Hierarchy],
    numeric_qis: Sequence[str] = (),
    precision: int = 6,
) -> Table:
    """Local recoding: give each group a shared representative per QI.

    * Categorical QIs: the lowest hierarchy level at which the group's values
      collapse to a single generalized value; the group is recoded to that
      value's label.
    * Numeric QIs: the group's ``[min-max]`` interval label (point values stay
      numeric-looking strings only when min == max).

    Returns a new table where each recoded QI is a categorical column whose
    categories are its distinct labels sorted as strings. Works in code
    space: the groups are concatenated once, every per-group minimum and
    maximum is one ``reduceat``, and each distinct label (a hierarchy label
    id, or a numeric ``(min, max)`` pair) is rendered once. Labels are then
    merged by their text, so two labels that render alike are one category.
    """
    n_rows = table.n_rows
    sizes = np.array([len(group) for group in groups], dtype=np.int64)
    if (sizes == 0).any():
        raise HierarchyError(f"group {int(np.argmin(sizes))} is empty")
    rows = (
        np.concatenate(groups).astype(np.intp, copy=False)
        if groups
        else np.empty(0, dtype=np.intp)
    )
    covered = np.zeros(n_rows, dtype=bool)
    covered[rows] = True
    if not covered.all():
        raise HierarchyError("groups do not cover every row")
    starts = np.cumsum(sizes) - sizes

    def labelled(name: str, texts: list[str], label_of_group: np.ndarray) -> Column:
        """The column giving each group the text of its label: ``texts`` holds
        one text per distinct label, ``label_of_group`` indexes it."""
        categories = sorted(set(texts), key=str)
        index = {text: code for code, text in enumerate(categories)}
        text_codes = np.fromiter(map(index.__getitem__, texts), np.int32, len(texts))
        codes = np.empty(n_rows, dtype=np.int32)
        codes[rows] = np.repeat(text_codes[label_of_group], sizes)
        return Column.from_codes(name, codes, categories)

    new_columns: list[Column] = []
    for name, hierarchy in categorical_qis.items():
        codes = hierarchy.ground_codes(table.column(name))[rows]
        # Every level's labels are numbered consecutively; each group takes
        # the label of the lowest level at which its mapped codes agree. The
        # top level has one value, so every group is unified by then.
        chosen = np.zeros(sizes.size, dtype=np.int64)
        pending = np.ones(sizes.size, dtype=bool)
        offset = 0
        for level in range(hierarchy.height + 1):
            mapped = hierarchy.level_map(level)[codes]
            low = np.minimum.reduceat(mapped, starts)
            high = np.maximum.reduceat(mapped, starts)
            unified = pending & (low == high)
            chosen[unified] = offset + low[unified]
            pending &= ~unified
            offset += len(hierarchy.labels(level))
            if not pending.any():
                break
        labels = [
            label
            for level in range(hierarchy.height + 1)
            for label in hierarchy.labels(level)
        ]
        ids, label_of_group = np.unique(chosen, return_inverse=True)
        texts = [str(labels[i]) for i in ids.tolist()]
        new_columns.append(labelled(name, texts, label_of_group))

    fmt = f"%.{precision}g"
    for name in numeric_qis:
        values = table.values(name)[rows].astype(np.float64)
        bounds = np.stack(
            [np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)]
        )
        # Distinct (low, high) pairs, told apart by their bits so that 0.0
        # and -0.0 render apart.
        distinct, bound_codes = np.unique(bounds.view(np.int64).ravel(), return_inverse=True)
        pairs = bound_codes[: sizes.size] * distinct.size + bound_codes[sizes.size :]
        _, first, label_of_group = np.unique(pairs, return_index=True, return_inverse=True)
        texts = [
            fmt % lo if lo == hi else f"[{fmt % lo}-{fmt % hi}]"
            for lo, hi in zip(*bounds[:, first].tolist())
        ]
        new_columns.append(labelled(name, texts, label_of_group))

    return table.replace(*new_columns)
