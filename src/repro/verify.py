"""A naive, independent verifier for published tables.

Does a release satisfy its privacy models? This module answers that
without sharing code with the anonymization engines or the model classes:
it imports only :mod:`repro.core.table` and the standard library, groups
rows by their published quasi-identifier values in a dict, and checks
each class with plain Python arithmetic. Tests and benchmarks use it as
the reference the engines' ``ok_mask`` verdicts are compared against.

Models are the JSON specs of :mod:`repro.api`, for example
``{"model": "k-anonymity", "k": 5}``. Covered: the eight registered names
(t-closeness with the ``equal`` or ``ordered`` ground distance) and
``{"model": "delta-presence", "delta_min": ..., "delta_max": ...}``,
which is checked against a ``population`` table generalized like
``table``. Sensitive distributions (the global one of t-closeness and
β-likeness) are those of ``table`` itself, over its column's category
list::

    >>> from repro.core.table import Table
    >>> table = Table.from_dict(
    ...     {"zip": ["130**", "130**", "148**"], "disease": ["flu", "hiv", "flu"]},
    ...     categorical=["zip", "disease"],
    ... )
    >>> violations(table, ["zip"], [{"model": "k-anonymity", "k": 2}])
    [('k-anonymity', ('148**',), 'size 1 < k=2')]
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence

from .core.table import Table

__all__ = ["violations"]

TOLERANCE = 1e-12


def violations(
    table: Table,
    quasi_identifiers: Sequence[str],
    models: Sequence[Mapping],
    population: Table | None = None,
) -> list[tuple[str, tuple, str]]:
    """Every ``(model, class_key, reason)`` where a class breaks a model.

    ``class_key`` is the tuple of the class's published QI values and
    ``model`` the spec's ``"model"`` name. An empty list means the table
    satisfies every model.
    """
    classes = _classes(table, quasi_identifiers)
    out = []
    for spec in models:
        name = spec["model"]
        if name not in _CHECKS:
            raise ValueError(
                f"cannot verify model {name!r}; known: {sorted(_CHECKS)}"
            )
        if name == "delta-presence":
            if population is None:
                raise ValueError("delta-presence needs a population table")
            context = Counter(_keys(population, quasi_identifiers))
        elif "sensitive" in spec:
            context = _Sensitive(table, spec["sensitive"])
        else:
            context = None
        for key, rows in classes.items():
            reason = _CHECKS[name](spec, key, rows, context)
            if reason:
                out.append((name, key, reason))
    return out


def _keys(table: Table, names: Sequence[str]) -> list[tuple]:
    return list(zip(*(table.column(name).decode() for name in names)))


def _classes(table: Table, names: Sequence[str]) -> dict[tuple, list[int]]:
    classes: dict[tuple, list[int]] = {}
    for row, key in enumerate(_keys(table, names)):
        classes.setdefault(key, []).append(row)
    return classes


class _Sensitive:
    """One sensitive column: per-row values, domain and global counts."""

    def __init__(self, table: Table, name: str):
        column = table.column(name)
        self.values = column.decode()
        self.domain = list(column.categories)
        self.total = Counter(self.values)
        self.n = len(self.values)

    def counts(self, rows: list[int]) -> Counter:
        return Counter(self.values[row] for row in rows)


def _k_anonymity(spec, _key, rows, _sens):
    if len(rows) < spec["k"]:
        return f"size {len(rows)} < k={spec['k']}"


def _distinct_l(spec, _key, rows, sens):
    distinct = len(sens.counts(rows))
    if distinct < spec["l"]:
        return f"{distinct} distinct values < l={spec['l']}"


def _entropy_l(spec, _key, rows, sens):
    n = len(rows)
    entropy = -sum(c / n * math.log(c / n) for c in sens.counts(rows).values())
    if entropy < math.log(spec["l"]) - TOLERANCE:
        return f"entropy {entropy:.6g} < log(l={spec['l']})"


def _recursive_l(spec, _key, rows, sens):
    ranked = sorted(sens.counts(rows).values(), reverse=True)
    l, c = spec["l"], spec["c"]
    if len(ranked) < l:
        return f"{len(ranked)} distinct values < l={l}"
    if not ranked[0] < c * sum(ranked[l - 1 :]):
        return f"top count {ranked[0]} >= c={c} x tail {sum(ranked[l - 1:])}"


def _t_closeness(spec, _key, rows, sens):
    ground = spec.get("ground_distance", "equal")
    counts = sens.counts(rows)
    residual = [counts[v] / len(rows) - sens.total[v] / sens.n for v in sens.domain]
    if ground == "equal":
        distance = 0.5 * sum(abs(r) for r in residual)
    elif ground == "ordered":
        m = len(residual)
        running, distance = 0.0, 0.0
        for r in residual[:-1]:
            running += r
            distance += abs(running)
        distance = distance / (m - 1) if m > 1 else 0.0
    else:
        raise ValueError(f"cannot verify the {ground!r} ground distance")
    if distance > spec["t"] + TOLERANCE:
        return f"EMD {distance:.6g} > t={spec['t']}"


def _alpha_k(spec, _key, rows, sens):
    n, top = len(rows), max(sens.counts(rows).values())
    if n < spec["k"]:
        return f"size {n} < k={spec['k']}"
    if top > spec["alpha"] * n + TOLERANCE:
        return f"top share {top}/{n} > alpha={spec['alpha']}"


def _beta_likeness(spec, _key, rows, sens):
    counts = sens.counts(rows)
    for value in sens.domain:
        p, q = sens.total[value] / sens.n, counts[value] / len(rows)
        gain = math.inf if p == 0 and q > 0 else (q - p) / p if p else 0.0
        if gain > spec["beta"] + TOLERANCE:
            return f"gain {gain:.6g} of {value!r} > beta={spec['beta']}"


def _ke_anonymity(spec, _key, rows, sens):
    if sens.domain:
        raise ValueError(f"(k,e)-anonymity needs a numeric {spec['sensitive']!r}")
    values = [sens.values[row] for row in rows]
    if len(rows) < spec["k"]:
        return f"size {len(rows)} < k={spec['k']}"
    if max(values) - min(values) < spec["e"] - TOLERANCE:
        return f"range {max(values) - min(values)} < e={spec['e']}"


def _delta_presence(spec, key, rows, population):
    matches = population[key]
    belief = len(rows) / matches if matches else math.inf
    if not spec["delta_min"] - TOLERANCE <= belief <= spec["delta_max"] + TOLERANCE:
        return (
            f"belief {belief:.6g} outside "
            f"[{spec['delta_min']}, {spec['delta_max']}]"
        )


_CHECKS = {
    "k-anonymity": _k_anonymity,
    "distinct-l-diversity": _distinct_l,
    "entropy-l-diversity": _entropy_l,
    "recursive-l-diversity": _recursive_l,
    "t-closeness": _t_closeness,
    "alpha-k-anonymity": _alpha_k,
    "beta-likeness": _beta_likeness,
    "ke-anonymity": _ke_anonymity,
    "delta-presence": _delta_presence,
}
