"""Column-oriented table engine.

The library's "database" substrate: a :class:`Table` is an ordered mapping of
column name to :class:`Column`. Columns are numpy-backed and come in two
flavours:

* **categorical** — values are dictionary-encoded as ``int32`` codes into a
  ``categories`` list (strings or arbitrary hashables). This is what
  generalization operates on.
* **numeric** — a ``float64`` (or integer) array. Numeric quasi-identifiers
  are generalized into intervals, which turns them categorical.

Design notes
------------
* Tables are cheap, immutable-by-convention views: transformation functions
  return new ``Table`` objects sharing untouched column arrays.
* Group-by over several columns packs the per-column codes into a single
  mixed-radix signature per row (:func:`pack_code_columns`) and splits rows
  by a stable argsort of it. The lattice engine groups the same signatures
  without a sort while their radix product is small against the row count
  (:mod:`repro.core.engine`); the order of groups is the same either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import SchemaError

__all__ = [
    "Column",
    "Table",
    "mixed_radix_fits",
    "pack_code_columns",
    "split_by_labels",
]

_RADIX_LIMIT = 2**62


def mixed_radix_fits(radices: Sequence[int]) -> bool:
    """True when the mixed-radix product stays below the int64 packing limit.

    Past it, :func:`pack_code_columns` labels rows by ``np.unique(axis=0)``
    instead, and the labels are no longer the packed column codes.
    """
    product = 1.0
    for radix in radices:
        product *= max(radix, 1)
    return product < _RADIX_LIMIT


def pack_code_columns(
    code_columns: Sequence[np.ndarray], radices: Sequence[int]
) -> np.ndarray:
    """Pack parallel integer code columns into one int64 label per row.

    Uses mixed-radix arithmetic over the per-column radices; falls back to
    ``np.unique(axis=0)`` labelling if the radix product overflows int64.
    Rows with equal labels agree on every column, and in both paths label
    order equals lexicographic column order — the ordering contract that
    keeps :meth:`Table.group_rows` and the lattice-evaluation engine's
    partitions interchangeable. This is the single shared implementation;
    do not fork it.
    """
    if mixed_radix_fits(radices):
        signature = np.zeros(code_columns[0].shape[0], dtype=np.int64)
        for codes, radix in zip(code_columns, radices):
            signature *= max(radix, 1)
            signature += codes
        return signature
    stacked = np.stack(code_columns, axis=1)
    _, labels = np.unique(stacked, axis=0, return_inverse=True)
    return labels.reshape(-1).astype(np.int64)


def split_by_labels(labels: np.ndarray) -> list[np.ndarray]:
    """Row-index arrays of the groups induced by per-row labels.

    Groups are ordered by ascending label; within a group, row indices
    ascend (stable argsort keeps original order for equal labels).
    """
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    return np.split(order, boundaries)


@dataclass(frozen=True)
class Column:
    """A single named column of data.

    Exactly one of the two representations is active:

    * ``codes`` + ``categories`` for categorical data;
    * ``values`` for numeric data.
    """

    name: str
    codes: np.ndarray | None = None
    categories: tuple = ()
    values: np.ndarray | None = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def categorical(name: str, data: Iterable, categories: Sequence | None = None) -> "Column":
        """Build a categorical column, dictionary-encoding ``data``.

        ``categories`` fixes the code space explicitly (useful to share a
        dictionary across tables); otherwise categories are the sorted
        distinct values of ``data``.
        """
        data = list(data)
        if categories is None:
            categories = sorted(set(data), key=str)
        index = {value: code for code, value in enumerate(categories)}
        try:
            codes = np.fromiter(map(index.__getitem__, data), dtype=np.int32, count=len(data))
        except KeyError as exc:
            raise SchemaError(
                f"value {exc.args[0]!r} of column {name!r} not in its category list"
            ) from exc
        return Column(name=name, codes=codes, categories=tuple(categories))

    @staticmethod
    def from_codes(name: str, codes: np.ndarray, categories: Sequence) -> "Column":
        """Build a categorical column directly from integer codes."""
        codes = np.asarray(codes, dtype=np.int32)
        if codes.size and (codes.min() < 0 or codes.max() >= len(categories)):
            raise SchemaError(f"codes of column {name!r} fall outside the category list")
        return Column(name=name, codes=codes, categories=tuple(categories))

    @staticmethod
    def numeric(name: str, data: Iterable) -> "Column":
        """Build a numeric column from any sequence of numbers."""
        values = np.asarray(list(data) if not isinstance(data, np.ndarray) else data)
        if values.dtype.kind not in "if":
            values = values.astype(np.float64)
        return Column(name=name, values=values)

    # -- basic protocol ----------------------------------------------------

    @property
    def is_categorical(self) -> bool:
        return self.codes is not None

    def __len__(self) -> int:
        array = self.codes if self.codes is not None else self.values
        assert array is not None
        return int(array.shape[0])

    def decode(self) -> list:
        """Materialize the column as a Python list of original values."""
        if self.is_categorical:
            # One object-array gather instead of a per-row loop: loop over
            # the (few) categories, not the (many) rows. Elementwise fill
            # keeps tuple-valued categories as scalars.
            lookup = np.empty(len(self.categories), dtype=object)
            for code, value in enumerate(self.categories):
                lookup[code] = value
            return lookup[self.codes].tolist()  # type: ignore[index]
        return list(self.values)  # type: ignore[arg-type]

    def take(self, indices: np.ndarray) -> "Column":
        """Row subset (or reorder) of this column."""
        if self.is_categorical:
            return Column(self.name, codes=self.codes[indices], categories=self.categories)
        return Column(self.name, values=self.values[indices])

    def value_counts(self) -> dict:
        """Counts of distinct values, keyed by original value."""
        if self.is_categorical:
            counts = np.bincount(self.codes, minlength=len(self.categories))
            return {cat: int(n) for cat, n in zip(self.categories, counts) if n}
        uniques, counts = np.unique(self.values, return_counts=True)
        return {u.item(): int(n) for u, n in zip(uniques, counts)}

    def n_distinct(self) -> int:
        """Number of distinct values actually present."""
        if self.is_categorical:
            return int(np.unique(self.codes).size)
        return int(np.unique(self.values).size)


class Table:
    """An ordered collection of equal-length :class:`Column` objects."""

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise SchemaError("a table needs at least one column")
        lengths = {len(col) for col in columns}
        if len(lengths) != 1:
            raise SchemaError(f"columns have mismatched lengths: {sorted(lengths)}")
        names = [col.name for col in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names: {names}")
        self._columns: dict[str, Column] = {col.name: col for col in columns}
        self._n_rows = lengths.pop()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(
        rows: Sequence[Mapping],
        categorical: Sequence[str] = (),
        numeric: Sequence[str] = (),
    ) -> "Table":
        """Build a table from a list of row dicts with declared column kinds."""
        if not rows:
            raise SchemaError("cannot build a table from zero rows")
        columns: list[Column] = []
        for name in categorical:
            columns.append(Column.categorical(name, (row[name] for row in rows)))
        for name in numeric:
            columns.append(Column.numeric(name, (row[name] for row in rows)))
        if not columns:
            raise SchemaError("declare at least one categorical or numeric column")
        return Table(columns)

    @staticmethod
    def from_dict(
        data: Mapping[str, Iterable],
        categorical: Sequence[str] = (),
        numeric: Sequence[str] = (),
    ) -> "Table":
        """Build a table from a mapping of column name to values."""
        columns: list[Column] = []
        for name in categorical:
            columns.append(Column.categorical(name, data[name]))
        for name in numeric:
            columns.append(Column.numeric(name, data[name]))
        return Table(columns)

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return self._n_rows

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns.values())

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def column(self, name: str) -> Column:
        try:
            return self._columns[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}; have {self.column_names}") from None

    def codes(self, name: str) -> np.ndarray:
        """Integer codes of a categorical column (hot-path accessor)."""
        col = self.column(name)
        if not col.is_categorical:
            raise SchemaError(f"column {name!r} is numeric, not categorical")
        assert col.codes is not None
        return col.codes

    def values(self, name: str) -> np.ndarray:
        """Raw values of a numeric column."""
        col = self.column(name)
        if col.is_categorical:
            raise SchemaError(f"column {name!r} is categorical, not numeric")
        assert col.values is not None
        return col.values

    # -- transformations ---------------------------------------------------

    def replace(self, *columns: Column) -> "Table":
        """New table with the given columns substituted (matched by name)."""
        merged = dict(self._columns)
        for col in columns:
            if col.name not in merged:
                raise SchemaError(f"cannot replace unknown column {col.name!r}")
            merged[col.name] = col
        return Table(list(merged.values()))

    def with_column(self, column: Column) -> "Table":
        """New table with an extra column appended."""
        if column.name in self._columns:
            raise SchemaError(f"column {column.name!r} already exists")
        return Table(list(self._columns.values()) + [column])

    def drop(self, *names: str) -> "Table":
        """New table without the named columns."""
        for name in names:
            self.column(name)  # validate
        keep = [col for col in self._columns.values() if col.name not in names]
        return Table(keep)

    def select(self, names: Sequence[str]) -> "Table":
        """New table with exactly the named columns, in order."""
        return Table([self.column(name) for name in names])

    def take(self, indices: np.ndarray) -> "Table":
        """Row subset/reorder across all columns."""
        return Table([col.take(indices) for col in self._columns.values()])

    def mask(self, keep: np.ndarray) -> "Table":
        """Row filter by boolean mask."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self._n_rows,):
            raise SchemaError("mask length does not match row count")
        return self.take(np.flatnonzero(keep))

    def head(self, n: int = 5) -> "Table":
        return self.take(np.arange(min(n, self._n_rows)))

    # -- grouping ----------------------------------------------------------

    def group_signature(self, names: Sequence[str]) -> np.ndarray:
        """Pack the named columns into one int64 signature per row.

        Rows with equal signatures agree on every named column. Numeric
        columns are rank-encoded first. The packing uses mixed-radix
        arithmetic over per-column cardinalities; falls back to
        ``np.unique(axis=0)`` labelling if the radix product overflows int64.
        """
        if not names:
            raise SchemaError("group_signature needs at least one column")
        code_arrays: list[np.ndarray] = []
        radices: list[int] = []
        for name in names:
            col = self.column(name)
            if col.is_categorical:
                code_arrays.append(col.codes.astype(np.int64))  # type: ignore[union-attr]
                radices.append(max(len(col.categories), 1))
            else:
                uniques = np.unique(col.values)
                code_arrays.append(np.searchsorted(uniques, col.values).astype(np.int64))
                radices.append(max(int(uniques.size), 1))
        return pack_code_columns(code_arrays, radices)

    def group_rows(self, names: Sequence[str]) -> list[np.ndarray]:
        """Row-index arrays of the groups induced by the named columns."""
        return split_by_labels(self.group_signature(names))

    # -- conversion / display ----------------------------------------------

    def to_rows(self) -> list[dict]:
        """Materialize as a list of row dicts (for small tables / display)."""
        decoded = {name: col.decode() for name, col in self._columns.items()}
        return [
            {name: decoded[name][i] for name in self._columns}
            for i in range(self._n_rows)
        ]

    def fingerprint(self) -> list[tuple]:
        """Hashable content identity: ``[(name, decoded values), ...]``.

        Two tables fingerprint equal iff they publish the same values in
        the same order — the equality behind the API's byte-identical-
        release guarantees (one job through every door, parallel vs
        sequential batches), asserted by tests and benchmarks alike.
        """
        return [(col.name, tuple(col.decode())) for col in self]

    def __repr__(self) -> str:
        kinds = ", ".join(
            f"{name}:{'cat' if col.is_categorical else 'num'}"
            for name, col in self._columns.items()
        )
        return f"Table({self._n_rows} rows; {kinds})"
