"""Data specs: how jobs reference the table they anonymize.

A job or batch payload carries a ``data`` object in one of two forms:

* inline — ``{"csv": "<header+rows>", "categorical": [...], "numeric": [...]}``;
  the CSV text travels inside the request (and inside the replay log, which
  is what makes a replay self-contained).
* by path — ``{"path": "relative/file.csv", "categorical": [...], ...}``;
  only allowed when the server was started with ``--data-root``, and the
  resolved path must stay inside that root (no ``..`` escapes, no symlink
  tricks — both sides are resolved before the containment check).

Both forms parse in memory through :func:`repro.core.io.parse_csv` — the
parser behind the CLI's :func:`~repro.core.io.read_csv` — so a job submitted
over HTTP sees exactly the table the CLI would build, and
:func:`release_csv_bytes` serializes through :func:`repro.core.io.format_csv`
— the writer behind :func:`~repro.core.io.write_csv` — so the streamed
release is byte-identical to a CLI output file.

The digest returned by :func:`load_data_spec` is a sha256 over the raw CSV
bytes plus the declared column roles. It namespaces warm-cache stores: cached
``GroupStats`` hold row-level group codes, so reusing them is only sound when
the table contents are byte-identical — the digest makes that precise.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any

import numpy as np

from ..core.io import format_csv, parse_csv
from ..core.table import Table
from ..errors import ConfigError

__all__ = ["TableCache", "load_data_spec", "release_csv_bytes", "table_sha256"]


def _resolve_raw(
    spec: Any, data_root: str | os.PathLike | None
) -> tuple[bytes, list[str], list[str], dict]:
    """Validate a spec and fetch its raw CSV bytes *without parsing*.

    Split out so the digest — raw bytes + declared roles — is computable
    before the (much more expensive) parse, which lets :class:`TableCache`
    answer repeat submissions of the same data from the parsed table.
    """
    if not isinstance(spec, dict):
        raise ConfigError("'data' must be an object with 'csv' or 'path'")
    categorical = _roles(spec, "categorical")
    numeric = _roles(spec, "numeric")
    if "csv" in spec:
        text = spec["csv"]
        if not isinstance(text, str) or not text.strip():
            raise ConfigError("'data.csv' must be non-empty CSV text")
        try:
            raw = text.encode()
        except UnicodeEncodeError as exc:  # a lone surrogate from JSON
            raise ConfigError(f"'data.csv' is not encodable text: {exc}") from None
        normalized = {"csv": text}
    elif "path" in spec:
        if data_root is None:
            raise ConfigError(
                "'data.path' requires the server to be started with a data root"
            )
        root = Path(data_root).resolve()
        target = (root / str(spec["path"])).resolve()
        if root != target and root not in target.parents:
            raise ConfigError(f"'data.path' {spec['path']!r} escapes the data root")
        if not target.is_file():
            raise ConfigError(f"'data.path' {spec['path']!r} not found under data root")
        raw = target.read_bytes()
        normalized = {"path": str(spec["path"])}
    else:
        raise ConfigError("'data' must provide either 'csv' (inline) or 'path'")
    if categorical:
        normalized["categorical"] = list(categorical)
    if numeric:
        normalized["numeric"] = list(numeric)
    return raw, categorical, numeric, normalized


def _digest(raw: bytes, categorical: list[str], numeric: list[str]) -> str:
    return hashlib.sha256(
        raw + json.dumps([sorted(categorical), sorted(numeric)]).encode()
    ).hexdigest()


def load_data_spec(
    spec: Any, data_root: str | os.PathLike | None = None
) -> tuple[Table, str, dict]:
    """Resolve a ``data`` payload into ``(table, digest, normalized_spec)``.

    ``normalized_spec`` is what the replay log records: for inline data it
    embeds the CSV text verbatim; for path data it keeps the original
    relative path (a replay then needs the same ``--data-root``).
    """
    raw, categorical, numeric, normalized = _resolve_raw(spec, data_root)
    table = parse_csv(raw, categorical, numeric)
    return table, _digest(raw, categorical, numeric), normalized


class TableCache:
    """Content-addressed memo of parsed tables, keyed by the data digest.

    The dataset-side half of warm serving: a tenant re-submitting the
    same bytes should skip the Python-level CSV parse just as it skips
    lattice evaluation. Content addressing makes sharing across tenants
    safe — equal digest means equal bytes and roles, and tables are
    treated as immutable everywhere downstream. Bounded LRU (dict order
    doubles as recency, the same trick as the engine store)."""

    def __init__(self, capacity: int = 8):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._tables: dict[str, Table] = {}

    def load(
        self, spec: Any, data_root: str | os.PathLike | None = None
    ) -> tuple[Table, str, dict]:
        """:func:`load_data_spec`, memoized on the content digest."""
        raw, categorical, numeric, normalized = _resolve_raw(spec, data_root)
        digest = _digest(raw, categorical, numeric)
        with self._lock:
            table = self._tables.pop(digest, None)
            if table is not None:
                self._tables[digest] = table  # LRU touch
                return table, digest, normalized
        table = parse_csv(raw, categorical, numeric)
        with self._lock:
            self._tables[digest] = table
            while len(self._tables) > self.capacity:
                self._tables.pop(next(iter(self._tables)))
        return table, digest, normalized


def table_sha256(table: Table) -> str:
    """Fast content digest of a table: names, categories, raw value buffers.

    The digest the replay log and job records pin releases with. Hashes
    the numpy buffers directly instead of serializing to CSV, so stamping
    every completed job stays cheap; two tables digest equal iff they
    publish the same decoded values in the same order (same contract as
    ``Table.fingerprint()``, at buffer speed)."""
    digest = hashlib.sha256()
    for name in table.column_names:
        column = table.column(name)
        digest.update(name.encode())
        if column.is_categorical:
            digest.update(repr(list(column.categories)).encode())
            digest.update(np.ascontiguousarray(column.codes).data)
        else:
            digest.update(np.ascontiguousarray(column.values).data)
    return digest.hexdigest()


def release_csv_bytes(table: Table) -> bytes:
    """Serialize a release table exactly as ``repro anonymize -o out.csv`` would."""
    return format_csv(table)


def _roles(spec: dict, key: str) -> list[str]:
    value = spec.get(key, [])
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, str) for v in value
    ):
        raise ConfigError(f"'data.{key}' must be a list of column names")
    return list(value)
