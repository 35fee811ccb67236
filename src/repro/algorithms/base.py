"""Algorithm protocol and shared machinery.

Every anonymization algorithm takes an original :class:`~repro.core.Table`,
a :class:`~repro.core.Schema`, the generalization hierarchies, and one or
more privacy models; it returns a :class:`~repro.core.Release`.

Shared here:

* :func:`prepare_input` — validates the schema, strips identifying columns.
* :func:`check_int` — constructor validation of integer parameters.
* :func:`suppress_rows` — standard record-suppression step: drop the rows of
  equivalence classes that still violate the models, within a suppression
  budget.
* :func:`choose_minimal` and :func:`publish_node` — the full-domain
  searches' release step: pick a node of the minimal antichain, then
  materialize it and suppress what still fails.
* :class:`AnonymizationAlgorithm` — the protocol.
"""

from __future__ import annotations

from numbers import Integral
from typing import Callable, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.engine import LatticeEvaluator
from ..core.generalize import HierarchyLike
from ..core.release import Release
from ..core.schema import Schema
from ..core.table import Table
from ..errors import InfeasibleError
from ..privacy.base import PrivacyModel

__all__ = [
    "AnonymizationAlgorithm",
    "check_int",
    "choose_minimal",
    "prepare_input",
    "publish_node",
    "suppress_rows",
]

Node = tuple[int, ...]


@runtime_checkable
class AnonymizationAlgorithm(Protocol):
    """Protocol all algorithms implement."""

    name: str

    def anonymize(
        self,
        table: Table,
        schema: Schema,
        hierarchies: Mapping[str, HierarchyLike],
        models: Sequence[PrivacyModel],
    ) -> Release:
        ...


def check_int(name: str, value, minimum: int) -> int:
    """Return ``value`` as an ``int`` if it is a non-bool integer ``>= minimum``.

    Raises ``TypeError``/``ValueError`` naming ``name`` otherwise, so a bad
    spec fails when it is parsed (``Registry.from_spec`` turns both into a
    ``ConfigError``) instead of being truncated or failing mid-run.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def prepare_input(table: Table, schema: Schema, hierarchies: Mapping[str, HierarchyLike]) -> Table:
    """Validate and strip direct identifiers from the input table."""
    schema.validate(table)
    for name in schema.categorical_quasi_identifiers:
        if name not in hierarchies:
            raise InfeasibleError(f"no hierarchy supplied for categorical QI {name!r}")
    if schema.identifying:
        table = table.drop(*schema.identifying)
    return table


def suppress_rows(
    table: Table, drop: np.ndarray, max_suppression: float
) -> tuple[Table, np.ndarray, int]:
    """Drop the given row indices within the suppression budget.

    Returns ``(kept_table, kept_row_indices, n_suppressed)``. Raises
    :class:`InfeasibleError` if suppression would exceed
    ``max_suppression * n_rows`` or would empty the table. Lattice searches
    pass :meth:`~repro.core.engine.LatticeEvaluator.failing_rows`, so the
    admission verdict and the suppression step read the same verdicts.
    """
    if drop.size > max_suppression * table.n_rows:
        raise InfeasibleError(
            f"suppressing {drop.size}/{table.n_rows} rows exceeds the "
            f"{max_suppression:.0%} suppression budget"
        )
    if drop.size == table.n_rows:
        raise InfeasibleError("every record would be suppressed")
    keep = np.ones(table.n_rows, dtype=bool)
    keep[drop] = False
    kept_indices = np.flatnonzero(keep)
    return table.take(kept_indices), kept_indices, int(drop.size)


def choose_minimal(
    minimal: Sequence[Node],
    evaluator: LatticeEvaluator,
    score: Callable[[Table, Node], float] | None = None,
    table: Table | None = None,
) -> Node:
    """The release node of a minimal antichain: the lowest
    ``score(table, node)`` if a score is given, else the lowest total
    height, ties broken by the most equivalence classes."""
    if score is not None:
        return min(minimal, key=lambda node: score(table, node))
    return min(minimal, key=lambda node: (sum(node), -evaluator.n_groups(node)))


def publish_node(
    evaluator: LatticeEvaluator,
    node: Node,
    models: Sequence[PrivacyModel],
    original: Table,
    schema: Schema,
    name: str,
    max_suppression: float,
    info: dict,
) -> Release:
    """The release of a full-domain search's chosen node.

    ``original`` (the identifier-stripped input) is materialized at
    ``node``; if a model still fails there, the failing groups' rows are
    suppressed within ``max_suppression`` (:func:`suppress_rows`).
    """
    table = evaluator.materialize(node, schema.quasi_identifiers, table=original)
    suppressed, kept = 0, None
    if not evaluator.check(node, models):
        table, kept, suppressed = suppress_rows(
            table, evaluator.failing_rows(node, models), max_suppression
        )
    return Release(
        table=table,
        schema=schema,
        algorithm=name,
        node=node,
        suppressed=suppressed,
        original_n_rows=original.n_rows,
        kept_rows=kept,
        info=info,
    )
