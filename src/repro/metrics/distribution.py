"""Distributional utility metrics.

Loss metrics like NCP/GCP score *cell-level* distortion. Synthetic-data
pipelines (the DP synthesizers, Anatomy, slicing) are instead judged on how
well the released data preserve *statistics*: marginal distributions and
pairwise association structure. This module provides the standard distances
and a one-call utility report:

* :func:`total_variation`, :func:`kl_divergence`, :func:`js_divergence`,
  :func:`hellinger` — f-divergences between two discrete distributions.
* :func:`marginal_distance` — any of the above between the original and
  released marginal of one column.
* :func:`cramers_v` / :func:`pairwise_association_error` — Cramér's V
  association matrix and its preservation across a release.
* :func:`distribution_report` — per-column and pairwise summary used by the
  synthesizer benchmarks (E24) and examples.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np

from ..core.table import Table
from ..errors import SchemaError

__all__ = [
    "total_variation",
    "kl_divergence",
    "js_divergence",
    "hellinger",
    "marginal_distance",
    "cramers_v",
    "pairwise_association_error",
    "distribution_report",
]

_DISTANCES = {}


def _register(fn):
    _DISTANCES[fn.__name__] = fn
    return fn


def _validate_pair(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise SchemaError(f"distributions have different shapes: {p.shape} vs {q.shape}")
    if (p < 0).any() or (q < 0).any():
        raise SchemaError("distributions must be non-negative")
    p_sum, q_sum = p.sum(), q.sum()
    if p_sum <= 0 or q_sum <= 0:
        raise SchemaError("distributions must have positive mass")
    return p / p_sum, q / q_sum


@_register
def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """TV distance: half the L1 distance; in [0, 1]."""
    p, q = _validate_pair(p, q)
    return float(0.5 * np.abs(p - q).sum())


@_register
def kl_divergence(p: np.ndarray, q: np.ndarray, smoothing: float = 1e-9) -> float:
    """KL(p ‖ q) with additive smoothing so empty released cells stay finite."""
    p, q = _validate_pair(p, q)
    if smoothing:
        p = (p + smoothing) / (1.0 + smoothing * p.size)
        q = (q + smoothing) / (1.0 + smoothing * q.size)
    support = p > 0
    if (q[support] <= 0).any():
        return float("inf")
    return float(np.sum(p[support] * np.log(p[support] / q[support])))


@_register
def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen–Shannon divergence (symmetric, bounded by log 2)."""
    p, q = _validate_pair(p, q)
    m = 0.5 * (p + q)
    # 0.5 * (p + q) underflows to 0 when a cell holds the smallest subnormal
    # float, which would send kl_divergence to inf on a cell the mixture
    # actually covers; max(p, q) is a valid stand-in (>= the true m up to a
    # factor of 2, so the log 2 bound still holds).
    underflow = (m == 0) & ((p > 0) | (q > 0))
    if underflow.any():
        m = np.where(underflow, np.maximum(p, q), m)
    js = 0.5 * kl_divergence(p, m, smoothing=0.0) + 0.5 * kl_divergence(q, m, smoothing=0.0)
    # Rounding in the two KL sums can leave a ~1e-18 negative residue when
    # p and q are (nearly) identical; the true divergence is >= 0.
    return max(js, 0.0)


@_register
def hellinger(p: np.ndarray, q: np.ndarray) -> float:
    """Hellinger distance; in [0, 1]."""
    p, q = _validate_pair(p, q)
    return float(np.sqrt(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)))


def _aligned_marginals(original: Table, released: Table, column: str) -> tuple[np.ndarray, np.ndarray]:
    """Marginals of both tables over the *union* of the two category lists."""
    orig_col, rel_col = original.column(column), released.column(column)
    if not orig_col.is_categorical or not rel_col.is_categorical:
        raise SchemaError(
            f"distribution metrics need categorical columns; {column!r} is numeric"
        )
    union = list(orig_col.categories)
    index = {v: i for i, v in enumerate(union)}
    for v in rel_col.categories:
        if v not in index:
            index[v] = len(union)
            union.append(v)
    p = np.zeros(len(union))
    q = np.zeros(len(union))
    for value, count in orig_col.value_counts().items():
        p[index[value]] += count
    for value, count in rel_col.value_counts().items():
        q[index[value]] += count
    return p, q


def marginal_distance(
    original: Table, released: Table, column: str, metric: str = "total_variation"
) -> float:
    """Distance between the original and released marginal of one column."""
    if metric not in _DISTANCES:
        raise SchemaError(f"unknown metric {metric!r}; have {sorted(_DISTANCES)}")
    p, q = _aligned_marginals(original, released, column)
    return _DISTANCES[metric](p, q)


def cramers_v(table: Table, col_a: str, col_b: str) -> float:
    """Cramér's V association between two categorical columns; in [0, 1].

    The bias-uncorrected version (chi² / (n · min(r−1, c−1)))^½ — the
    released-vs-original *difference* is what matters, and both sides use
    the same estimator.
    """
    a, b = table.codes(col_a), table.codes(col_b)
    n_a = len(table.column(col_a).categories)
    n_b = len(table.column(col_b).categories)
    joint = np.zeros((n_a, n_b))
    np.add.at(joint, (a, b), 1.0)
    n = joint.sum()
    if n == 0:
        return 0.0
    row = joint.sum(axis=1, keepdims=True)
    col = joint.sum(axis=0, keepdims=True)
    expected = row @ col / n
    with np.errstate(divide="ignore", invalid="ignore"):
        chi2 = np.where(expected > 0, (joint - expected) ** 2 / expected, 0.0).sum()
    k = min((row > 0).sum(), (col > 0).sum())
    if k <= 1:
        return 0.0
    return float(np.sqrt(chi2 / (n * (k - 1))))


def pairwise_association_error(
    original: Table, released: Table, columns: Sequence[str]
) -> float:
    """Mean |ΔCramér's V| over all column pairs — structure preservation."""
    pairs = list(combinations(columns, 2))
    if not pairs:
        raise SchemaError("need at least two columns for pairwise association")
    errors = [
        abs(cramers_v(original, a, b) - cramers_v(released, a, b)) for a, b in pairs
    ]
    return float(np.mean(errors))


def distribution_report(
    original: Table, released: Table, columns: Sequence[str]
) -> dict:
    """One-call utility summary for a released/synthetic table.

    Returns per-column TV/JS distances, their averages, and the pairwise
    association error. All columns must be categorical in both tables.
    """
    per_column = {}
    for name in columns:
        per_column[name] = {
            "tv": marginal_distance(original, released, name, "total_variation"),
            "js": marginal_distance(original, released, name, "js_divergence"),
        }
    report = {
        "per_column": per_column,
        "avg_tv": float(np.mean([v["tv"] for v in per_column.values()])),
        "avg_js": float(np.mean([v["js"] for v in per_column.values()])),
    }
    if len(columns) >= 2:
        report["association_error"] = pairwise_association_error(original, released, columns)
    return report
