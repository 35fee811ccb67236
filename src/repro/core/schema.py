"""Attribute typing for publishing scenarios.

A :class:`Schema` classifies each column of a table into the standard PPDP
roles:

* **identifying** — direct identifiers (name, SSN): always removed.
* **quasi-identifier** (categorical or numeric) — externally linkable
  attributes that generalization/suppression operate on.
* **sensitive** — the attribute(s) whose disclosure privacy models bound.
* **insensitive** — everything else, published unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from ..errors import SchemaError
from .table import Table

__all__ = ["AttributeType", "Schema", "check_finite"]


def check_finite(name: str, values: np.ndarray) -> None:
    """Reject a numeric QI holding a NaN or inf, naming its first bad row."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise SchemaError(
            f"numeric QI {name!r} holds the non-finite value "
            f"{values[bad[0]]} in row {bad[0]} (0-based)"
        )


class AttributeType(Enum):
    """Role of an attribute in the publishing scenario."""

    IDENTIFYING = "identifying"
    QI_CATEGORICAL = "qi_categorical"
    QI_NUMERIC = "qi_numeric"
    SENSITIVE = "sensitive"
    INSENSITIVE = "insensitive"


@dataclass(frozen=True)
class Schema:
    """Immutable mapping of column name to :class:`AttributeType`."""

    types: Mapping[str, AttributeType]

    @staticmethod
    def build(
        quasi_identifiers: Sequence[str] = (),
        sensitive: Sequence[str] = (),
        identifying: Sequence[str] = (),
        insensitive: Sequence[str] = (),
        numeric_quasi_identifiers: Sequence[str] = (),
    ) -> "Schema":
        """Convenience constructor from role lists.

        ``quasi_identifiers`` are categorical QIs; numeric QIs go in
        ``numeric_quasi_identifiers``.
        """
        types: dict[str, AttributeType] = {}
        groups = [
            (quasi_identifiers, AttributeType.QI_CATEGORICAL),
            (numeric_quasi_identifiers, AttributeType.QI_NUMERIC),
            (sensitive, AttributeType.SENSITIVE),
            (identifying, AttributeType.IDENTIFYING),
            (insensitive, AttributeType.INSENSITIVE),
        ]
        for names, attr_type in groups:
            for name in names:
                if name in types:
                    raise SchemaError(f"attribute {name!r} assigned two roles")
                types[name] = attr_type
        if not any(t in (AttributeType.QI_CATEGORICAL, AttributeType.QI_NUMERIC) for t in types.values()):
            raise SchemaError("a publishing schema needs at least one quasi-identifier")
        return Schema(types=types)

    # -- accessors ----------------------------------------------------------

    def of_type(self, *attr_types: AttributeType) -> list[str]:
        return [name for name, t in self.types.items() if t in attr_types]

    @property
    def quasi_identifiers(self) -> list[str]:
        """All QI names (categorical + numeric), in declaration order."""
        return self.of_type(AttributeType.QI_CATEGORICAL, AttributeType.QI_NUMERIC)

    @property
    def categorical_quasi_identifiers(self) -> list[str]:
        return self.of_type(AttributeType.QI_CATEGORICAL)

    @property
    def numeric_quasi_identifiers(self) -> list[str]:
        return self.of_type(AttributeType.QI_NUMERIC)

    @property
    def sensitive(self) -> list[str]:
        return self.of_type(AttributeType.SENSITIVE)

    @property
    def identifying(self) -> list[str]:
        return self.of_type(AttributeType.IDENTIFYING)

    @property
    def insensitive(self) -> list[str]:
        return self.of_type(AttributeType.INSENSITIVE)

    def type_of(self, name: str) -> AttributeType:
        try:
            return self.types[name]
        except KeyError:
            raise SchemaError(f"attribute {name!r} not in schema") from None

    # -- validation ---------------------------------------------------------

    def validate(self, table: Table) -> None:
        """Check the schema is consistent with a concrete table.

        Every schema attribute must exist in the table; categorical QIs and
        sensitive attributes must be categorical columns; numeric QIs must be
        numeric columns of finite values (a NaN or inf has no interval to
        generalize into).
        """
        for name, attr_type in self.types.items():
            col = table.column(name)
            if attr_type is AttributeType.QI_CATEGORICAL and not col.is_categorical:
                raise SchemaError(f"QI {name!r} declared categorical but column is numeric")
            if attr_type is AttributeType.QI_NUMERIC:
                if col.is_categorical:
                    raise SchemaError(f"QI {name!r} declared numeric but column is categorical")
                check_finite(name, col.values)
            if attr_type is AttributeType.SENSITIVE and not col.is_categorical:
                raise SchemaError(
                    f"sensitive attribute {name!r} must be categorical "
                    "(discretize numeric sensitive values first)"
                )
