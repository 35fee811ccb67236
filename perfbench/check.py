"""Independent release check: group rows naively, count, compare.

Shares no code with the program's engines or privacy models: a release is
read with the ``csv`` module (or from decoded column lists), its rows are
grouped by their published quasi-identifier values in a plain dict, and
the smallest class must hold at least ``k`` rows with at least ``l``
distinct sensitive values. Suppressed rows are absent from a release, so
every published row belongs to a class that must pass.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Sequence


def check_groups(rows: Iterable[tuple], k: int, l: int) -> str | None:
    """``rows`` yields (qi_tuple, sensitive); None if they pass, else why."""
    sizes: dict[tuple, int] = {}
    values: dict[tuple, set] = {}
    for key, sensitive in rows:
        sizes[key] = sizes.get(key, 0) + 1
        values.setdefault(key, set()).add(sensitive)
    if not sizes:
        return "release has no rows"
    smallest = min(sizes.values())
    if smallest < k:
        return f"smallest class has {smallest} rows < k={k}"
    fewest = min(len(v) for v in values.values())
    if fewest < l:
        return f"a class has {fewest} distinct sensitive values < l={l}"
    return None


def check_csv(data: bytes, qis: Sequence[str], sensitive: str, k: int, l: int) -> str | None:
    """Check published CSV bytes (header row first)."""
    reader = csv.reader(io.StringIO(data.decode()))
    header = next(reader, None)
    if header is None:
        return "release is empty"
    missing = [name for name in (*qis, sensitive) if name not in header]
    if missing:
        return f"release lacks columns {missing}"
    qi_at = [header.index(name) for name in qis]
    s_at = header.index(sensitive)
    return check_groups(
        ((tuple(row[i] for i in qi_at), row[s_at]) for row in reader if row), k, l
    )


def check_columns(columns: dict[str, list], qis: Sequence[str], sensitive: str,
                  k: int, l: int) -> str | None:
    """Check a release given as decoded column lists."""
    return check_groups(
        zip(zip(*(columns[name] for name in qis)), columns[sensitive]), k, l
    )
