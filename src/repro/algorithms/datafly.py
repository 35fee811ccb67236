"""Datafly (Sweeney).

The classic greedy full-domain generalizer: while the table is not
k-anonymous (more precisely: while the records violating the models exceed
the suppression budget), generalize one step the quasi-identifier with the
most distinct values, then suppress whatever small classes remain.

The "most distinct values" heuristic is fast but utility-blind; the survey's
experiments use it as the baseline that smarter searches (Incognito,
Mondrian, TDS) beat. An alternative ``heuristic="loss"`` ablation picks the
attribute whose single-step generalization costs the least NCP — used by the
E3 ablation bench.

Node checks and the distinct-value heuristics run on the shared
:class:`~repro.core.engine.LatticeEvaluator`; only the final winning node is
materialized, from the engine's codes, into the job's identifier-stripped
table.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.engine import LatticeEvaluator
from ..core.generalize import HierarchyLike
from ..core.release import Release
from ..core.schema import Schema
from ..core.table import Table
from ..errors import InfeasibleError
from ..privacy.base import PrivacyModel
from .base import prepare_input, suppress_rows

__all__ = ["Datafly"]


class Datafly:
    """Greedy full-domain generalization with record suppression."""

    #: ``anonymize`` accepts an external LatticeEvaluator (batch sharing).
    uses_evaluator = True

    def __init__(self, max_suppression: float = 0.05, heuristic: str = "distinct"):
        if heuristic not in ("distinct", "loss"):
            raise ValueError(f"unknown heuristic {heuristic!r}")
        self.max_suppression = float(max_suppression)
        self.heuristic = heuristic
        self.name = f"datafly[{heuristic}]"

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
        heights = [hierarchies[name].height for name in qi_names]
        node = [0] * len(qi_names)

        while True:
            if evaluator.check(node, models):
                final = evaluator.materialize(node, qi_names, table=original)
                suppressed = 0
                kept = None
                break
            # Suppression short-circuit: if few enough rows fail, suppress.
            # The engine's failing rows feed both the budget admission and
            # the drop itself (one failing-mask computation), so the two can
            # never disagree on borderline float verdicts.
            drop = evaluator.failing_rows(node, models)
            if (
                drop.size <= self.max_suppression * original.n_rows
                and drop.size < original.n_rows
            ):
                # The job's stripped table, whatever table the evaluator
                # was built over: a caller's evaluator may hold identifiers.
                final, kept, suppressed = suppress_rows(
                    evaluator.materialize(node, qi_names, table=original),
                    drop,
                    self.max_suppression,
                )
                break
            target = self._pick_attribute(evaluator, node, heights)
            if target is None:
                raise InfeasibleError(
                    "all quasi-identifiers fully generalized and the models "
                    "still fail within the suppression budget"
                )
            node[target] += 1

        return Release(
            table=final,
            schema=schema,
            algorithm=self.name,
            node=tuple(node),
            suppressed=suppressed,
            original_n_rows=original.n_rows,
            kept_rows=kept,
            info={"heuristic": self.heuristic},
        )

    def _pick_attribute(
        self,
        evaluator: LatticeEvaluator,
        node: Sequence[int],
        heights: Sequence[int],
    ) -> int | None:
        """Index of the QI to generalize next, or None if all are topped out."""
        raisable = [i for i in range(len(node)) if node[i] < heights[i]]
        if not raisable:
            return None
        if self.heuristic == "distinct":
            counts = evaluator.distinct_counts(node)
            return max(raisable, key=counts.__getitem__)
        # "loss" ablation: raise the attribute that *keeps* the most distinct
        # values after its one-step generalization (least coarsening first).
        return max(
            raisable, key=lambda i: evaluator.distinct_after(node, i, node[i] + 1)
        )

    def __repr__(self) -> str:
        return f"Datafly(max_suppression={self.max_suppression}, heuristic={self.heuristic!r})"
