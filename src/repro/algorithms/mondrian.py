"""Mondrian multidimensional partitioning (LeFevre, DeWitt & Ramakrishnan).

Recursively splits the record set on the quasi-identifier with the widest
normalized range, at the median, as long as both halves remain feasible for
the privacy models. Leaves become equivalence classes; each leaf's QI values
are locally recoded to the class's covering region.

Two modes, matching the paper:

* **strict** — a categorical/numeric value may not straddle the cut: records
  with the median value all go to one side. Guarantees non-overlapping
  regions.
* **relaxed** — records with the median value are distributed to balance the
  halves, allowing overlapping regions and (much) smaller classes on skewed
  data.

Numeric QIs split on the value median; categorical QIs split on the ordered
category-code median (a standard, hierarchy-free treatment; the hierarchy is
still used to label the recoded regions).

Partitioning runs on :class:`~repro.core.partition_engine.PartitionEngine`'s
table-wide caches and splits a whole tree level at once over packed arrays:
each QI's spans, medians and cut sizes for every group of a level come from
one sort of that level's (group, code) keys, every model's verdicts from
one ``ok_mask`` call per QI and side, and the chosen cuts of all groups are
applied and laid out for the next level by one stable sort, so the work per
level is a fixed number of array operations whatever its group count. Each
sort packs its keys into int32 when their bound is below ``2**31`` and into
int64 otherwise; numpy sorts int32 keys about twice as fast.
InfoGain runs (``target`` set) score each group's cut from the level's
label histograms, one scalar entropy per group and side. Cache counters
ride in ``release.info["partition_cache"]``.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping, Sequence

import numpy as np

from ..core.generalize import HierarchyLike, apply_partition_recoding
from ..core.partition_engine import (
    PartitionEngine,
    PartitionStats,
    grouped_bounds,
    grouped_histograms,
)
from ..core.release import Release
from ..core.schema import Schema
from ..core.table import Table
from ..errors import InfeasibleError
from ..privacy.base import PrivacyModel
from .base import prepare_input

__all__ = ["Mondrian"]

_INFEASIBLE_MSG = (
    "the whole table as one class violates the privacy models; "
    "no partitioning can help"
)


def _hist_entropy(counts: np.ndarray) -> float:
    """Shannon entropy of a count vector (zero bins ignored)."""
    probs = counts[counts > 0] / counts.sum()
    return float(-(probs * np.log2(probs)).sum())


def _value_views(table: Table, qi_names: Sequence[str]):
    """Per-QI values for median computation (float64 values of numeric
    QIs, the column codes of categorical ones) plus the spans that
    normalize the range score."""
    views: dict[str, np.ndarray] = {}
    spans: dict[str, float] = {}
    for name in qi_names:
        col = table.column(name)
        if col.is_categorical:
            views[name] = col.codes  # type: ignore[assignment]
            spans[name] = max(len(col.categories) - 1, 1)
        else:
            views[name] = col.values.astype(np.float64)  # type: ignore[union-attr]
            span = float(col.values.max() - col.values.min())  # type: ignore[union-attr]
            spans[name] = span if span > 0 else 1.0
    return views, spans


class _Level:
    """One frontier level's packed rows, shared by every QI's candidate cuts.

    Row-order sensitive codes and each group's histogram are gathered on
    first use, once per level and column.
    """

    def __init__(self, engine: PartitionEngine, rows: np.ndarray, gid: np.ndarray, n_groups: int):
        self.engine = engine
        self.rows = rows
        self.gid = gid
        self.n_groups = n_groups
        self._codes: dict[str, np.ndarray] = {}
        self._hists: dict[str, np.ndarray] = {}

    def codes(self, name: str) -> np.ndarray:
        codes = self._codes.get(name)
        if codes is None:
            codes = self._codes[name] = self.engine.column_codes(name)[self.rows]
        return codes

    def histogram(self, name: str) -> np.ndarray:
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = grouped_histograms(
                self.gid, self.codes(name), self.n_groups, self.engine.column_cats(name)
            )
        return hist


class _Cut:
    """One QI's median cut of every group of a level.

    The row mask of the left children and each column's child histograms
    and value bounds are built on first use and shared by every model,
    which sees the left and the right children as two :class:`_CutSide`
    views.
    """

    def __init__(self, level: _Level, left_mask):
        self.level = level
        self._left_mask_of = left_mask
        self._left_mask: np.ndarray | None = None
        self._hists: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._bounds: dict[str, tuple] = {}

    def left_mask(self) -> np.ndarray:
        if self._left_mask is None:
            self._left_mask = self._left_mask_of()
        return self._left_mask

    def histograms(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        pair = self._hists.get(name)
        if pair is None:
            level = self.level
            n_cats = level.engine.column_cats(name)
            flat = level.gid * n_cats + level.codes(name)
            left = np.bincount(
                flat[self.left_mask()], minlength=level.n_groups * n_cats
            ).reshape(level.n_groups, n_cats)
            pair = self._hists[name] = (left, level.histogram(name) - left)
            level.engine.counters["histogram_splits"] += level.n_groups
        return pair

    def bounds(self, name: str) -> tuple:
        pair = self._bounds.get(name)
        if pair is None:
            level = self.level
            values = level.engine.table.values(name)[level.rows]
            pair = self._bounds[name] = tuple(
                grouped_bounds(level.gid[side], values[side], values[side], level.n_groups)
                for side in (self.left_mask(), ~self.left_mask())
            )
        return pair


class _CutSide:
    """GroupStats-shaped view of one side of a :class:`_Cut`, one row per
    group. ``ok_mask`` decides each group from its own row, so the verdicts
    equal those of checking each candidate's two children alone."""

    __slots__ = ("_cut", "_side", "sizes")

    def __init__(self, cut: _Cut, side: int, sizes: np.ndarray):
        self._cut = cut
        self._side = side
        self.sizes = sizes

    @property
    def n_groups(self) -> int:
        return int(self.sizes.size)

    def histogram(self, name: str) -> np.ndarray:
        return self._cut.histograms(name)[self._side]

    def global_distribution(self, name: str) -> np.ndarray:
        return self._cut.level.engine.global_distribution(name)

    def value_bounds(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self._cut.bounds(name)[self._side]

    external_counts = PartitionStats.external_counts


def _key_dtype(bound: int) -> type:
    """The integer type of keys that all lie below ``bound``: int32 when
    ``bound <= 2**31``, else int64. numpy sorts 50k int32 keys in about
    half the time of int64 ones."""
    return np.int32 if bound <= 2**31 else np.int64


def _strict_left_mask(codes: np.ndarray, gid: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    return codes < boundary[gid]


def _relaxed_masks(codes, gid, starts, idx_lt, idx_le, diff, head) -> tuple[np.ndarray, ...]:
    """Rows sent left by the relaxed cut, and the median-valued rows.

    Every row below the median goes left, plus the median-valued rows that,
    taken in group row order, each join the smaller half (the left one on a
    tie).
    """
    less_mask = codes < idx_lt[gid]
    eq_mask = ~less_mask & (codes < idx_le[gid])
    # Rank of each median-valued row among its group's median block (group
    # row order), counted from the end of the head. Counts and offsets stay
    # below the row count plus two, so they fit its key type.
    count_type = _key_dtype(codes.size + 2)
    eq_cum = np.cumsum(eq_mask, dtype=count_type)
    before = eq_cum[starts] - eq_mask[starts]
    past_head = eq_cum - (before + 1 + head).astype(count_type)[gid]
    # The same head-then-alternate assignment: with diff <= 0 the head and
    # then every odd row go left, with diff > 0 exactly the other rows.
    # (``& 1`` is the parity of negative integers too.)
    head_or_odd = (past_head < 0) | ((past_head & 1) == 1)
    return less_mask | (eq_mask & (head_or_odd != (diff > 0)[gid])), eq_mask


def _relaxed_left_mask(*cut) -> np.ndarray:
    return _relaxed_masks(*cut)[0]


def _pair_sort(major: np.ndarray, n_major: int, minor: np.ndarray, bound: int) -> np.ndarray:
    """``minor`` ordered by (``major``, ``minor``), like ``minor[np.lexsort((minor,
    major))]``, as one sort of the pairs packed into one integer each.

    Both arrays are non-negative integers, ``major`` below ``n_major`` and
    ``minor`` below ``bound``. The packed keys are int32 when
    ``n_major << bound.bit_length() <= 2**31``, else int64; the result is
    int64, since numpy gathers through int64 indices fastest.
    """
    shift = int(bound).bit_length()
    key_type = _key_dtype(int(n_major) << shift)
    packed = (major.astype(key_type, copy=False) << shift) | minor.astype(key_type, copy=False)
    packed.sort()
    return (packed & ((1 << shift) - 1)).astype(np.int64, copy=False)


class Mondrian:
    """Top-down greedy multidimensional partitioning with local recoding.

    ``target`` switches on *InfoGain Mondrian* (LeFevre et al.'s
    workload-aware variant): split dimensions are ranked by the label-
    entropy reduction of their median cut instead of by normalized range,
    trading a little geometric balance for classification utility.
    """

    def __init__(self, mode: str = "strict", target: str | None = None):
        if mode not in ("strict", "relaxed"):
            raise ValueError(f"mode must be 'strict' or 'relaxed', got {mode!r}")
        self.mode = mode
        self.target = target
        suffix = ",infogain" if target else ""
        self.name = f"mondrian[{mode}{suffix}]"

    def anonymize(
        self,
        table: Table,
        schema: Schema,
        hierarchies: Mapping[str, HierarchyLike],
        models: Sequence[PrivacyModel],
    ) -> Release:
        original = prepare_input(table, schema, hierarchies)
        qi_names = schema.quasi_identifiers

        views, spans = _value_views(original, qi_names)
        leaves, cache_info = self._partition(original, qi_names, views, spans, models)

        categorical = {
            name: hierarchies[name]
            for name in schema.categorical_quasi_identifiers
        }
        recoded = apply_partition_recoding(
            original,
            leaves,
            categorical_qis=categorical,  # type: ignore[arg-type]
            numeric_qis=schema.numeric_quasi_identifiers,
        )
        return Release(
            table=recoded,
            schema=schema,
            algorithm=self.name,
            node=None,
            suppressed=0,
            original_n_rows=original.n_rows,
            kept_rows=None,
            info={
                "n_leaves": len(leaves),
                "mode": self.mode,
                "partition_cache": cache_info,
            },
        )

    def _partition(self, original, qi_names, views, spans, models):
        engine = PartitionEngine(original)
        root = engine.root()
        if not engine.check([root], models):
            raise InfeasibleError(_INFEASIBLE_MSG)
        leaves = self._partition_frontier(engine, root, qi_names, views, spans, models)
        return leaves, engine.cache_info()

    def _partition_frontier(self, engine, root, qi_names, views, spans, models):
        """Level-synchronous vectorized Mondrian.

        A frontier level (every group of one tree depth with at least two
        rows) is packed arrays: ``rows`` holds each group's rows
        contiguously in algorithm order, beside per-group ``sizes``. Each
        QI's order statistics come from one sort of ``gid * n_values +
        code`` over the level, int32 while ``n_groups * n_values < 2**31``:
        a group's codes form a sorted run, whose ends give the span score,
        whose middle entries give the median, and where ``searchsorted``
        (with queries of the keys' type) finds the cut sizes. An InfoGain
        run scores each group's strict median cut (<= median, else <
        median) instead, from the level's parent and left-child label
        histograms. Every model's
        ``ok_mask`` then runs once per QI on the left and on the right
        children of all groups. Each group takes its first feasible QI in
        ``sorted((score, name), reverse=True)`` order, and the whole level
        is cut with the closed-form left masks and laid out for the next
        level by one stable sort on (child, median-valued): each child keeps
        its parent's row order, with relaxed mode's median-valued rows after
        the rest. A group that does not split is a leaf, its rows sorted;
        when every group splits, the level's rows stay as they are.
        """
        if root.size < 2:
            return [root.rows]
        n_qis, n_rows = len(qi_names), root.size
        # Value-space encodings: sorted values per QI plus per-row codes
        # into them, so medians/spans/cut counts are exact in the same
        # float64 value space as np.median over the group's values. A
        # categorical QI's values are its column codes, so its encoding is
        # the codes themselves over every category: order-preserving, which
        # keeps each median, span and cut count. Numeric codes are below
        # n_rows and categorical ones are int32.
        enc_vals: list[np.ndarray] = []
        all_codes = np.empty((n_qis, n_rows), dtype=_key_dtype(n_rows))
        for qi, name in enumerate(qi_names):
            if engine.table.column(name).is_categorical:
                vals = np.arange(engine.column_cats(name), dtype=np.float64)
                all_codes[qi] = engine.column_codes(name)
            else:
                vals, all_codes[qi] = np.unique(views[name], return_inverse=True)
            enc_vals.append(vals)
        # Walking the QIs by ascending name and letting >= on the score take
        # over picks the first feasible QI of sorted(..., reverse=True).
        by_name = sorted(range(n_qis), key=qi_names.__getitem__)
        relaxed = self.mode == "relaxed"

        leaves: list[np.ndarray] = []
        rows = root.rows
        sizes = np.array([root.size], dtype=np.int64)
        while sizes.size:
            n_groups = sizes.size
            starts = np.cumsum(sizes) - sizes
            gid = np.repeat(np.arange(n_groups, dtype=np.int64), sizes)
            # Keys that fit int32 are built from an int32 copy, exact since
            # such a key bounds n_groups too; gathers index through ``gid``,
            # as numpy gathers through int64 indices fastest.
            gid32 = gid.astype(np.int32)
            level = _Level(engine, rows, gid, n_groups)
            if self.target is not None:
                parent_entropy = [_hist_entropy(hist) for hist in level.histogram(self.target)]

            scores = np.empty((n_qis, n_groups))
            feasible = np.empty((n_qis, n_groups), dtype=bool)
            # Each QI's closed-form cut parameters, per group.
            params = np.empty((n_qis, 4 if relaxed else 1, n_groups), dtype=np.int64)
            for qi, name in enumerate(qi_names):
                vals = enc_vals[qi]
                codes_lvl = all_codes[qi][rows]
                # Run keys gid * n_values + code, and the queries that search
                # them (up to n_groups * n_values), share one key type.
                key_type = _key_dtype(n_groups * vals.size + 1)
                base = np.arange(n_groups, dtype=key_type) * vals.size
                runs = np.sort((gid32 if key_type is np.int32 else gid) * vals.size + codes_lvl)

                # Median = mean of the two middle order statistics, exactly
                # as np.median computes it on the gathered float64 values.
                i_lo = runs[starts + (sizes - 1) // 2] - base
                i_hi = runs[starts + sizes // 2] - base
                median = (vals[i_lo] + vals[i_hi]) / 2.0

                idx_lt = np.searchsorted(vals, median, side="left")
                idx_le = np.searchsorted(vals, median, side="right")
                n_lt = np.searchsorted(runs, (base + idx_lt).astype(key_type)) - starts
                n_le = np.searchsorted(runs, (base + idx_le).astype(key_type)) - starts
                n_eq = n_le - n_lt

                # The strict cut (<= median, else < median) cuts strict runs
                # and is the one InfoGain scores, in either mode.
                if not relaxed or self.target is not None:
                    ok_le = (n_le > 0) & (n_le < sizes)
                    ok_lt = (n_lt > 0) & (n_lt < sizes)
                    strict_degenerate = ~ok_le & ~ok_lt
                    boundary = np.where(ok_le, idx_le, idx_lt)
                    strict = _Cut(level, partial(_strict_left_mask, codes_lvl, gid, boundary))
                    strict_sizes = np.where(ok_le, n_le, n_lt)
                if not relaxed:
                    cut, left_sizes, degenerate = strict, strict_sizes, strict_degenerate
                    params[qi] = boundary
                else:
                    diff = n_lt - (sizes - n_le)
                    head_bal = np.minimum(n_eq, 1 - diff)
                    left_eq_bal = head_bal + (n_eq - head_bal) // 2
                    head_skip = np.minimum(n_eq, diff)
                    left_eq_skip = (n_eq - head_skip + 1) // 2
                    left_eq = np.where(diff <= 0, left_eq_bal, left_eq_skip)
                    left_sizes = n_lt + left_eq
                    degenerate = (left_sizes == 0) | (left_sizes == sizes)
                    head = np.where(diff <= 0, head_bal, head_skip)
                    params[qi] = (idx_lt, idx_le, diff, head)
                    cut = _Cut(level, partial(
                        _relaxed_left_mask, codes_lvl, gid, starts, idx_lt, idx_le, diff, head
                    ))

                if self.target is None:
                    first = runs[starts] - base
                    last = runs[starts + sizes - 1] - base
                    scores[qi] = (vals[last] - vals[first]) / spans[name]
                else:
                    scores[qi] = _info_gains(
                        parent_entropy, *strict.histograms(self.target),
                        strict_sizes, sizes, strict_degenerate,
                    )

                sides = (_CutSide(cut, 0, left_sizes), _CutSide(cut, 1, sizes - left_sizes))
                verdict = ~degenerate
                for model in models:
                    for side in sides:
                        verdict &= model.ok_mask(side)
                feasible[qi] = verdict
            engine.counters["checks_fast"] += n_groups * len(models)

            best = np.full(n_groups, -1)
            best_score = np.full(n_groups, -np.inf)
            for qi in by_name:
                take = feasible[qi] & (scores[qi] >= best_score)
                best[take] = qi
                best_score[take] = scores[qi][take]
            split = best >= 0
            n_split = int(split.sum())

            if n_split < n_groups:
                # Groups with no feasible cut are leaves: their rows sorted,
                # one sort for the whole level.
                stay = ~split
                in_leaf = stay[gid]
                kept_rows = _pair_sort(gid[in_leaf], n_groups, rows[in_leaf], n_rows)
                ends = np.cumsum(sizes[stay]).tolist()
                leaves += [kept_rows[a:b] for a, b in zip([0, *ends], ends)]
                if not n_split:
                    break
                # Compact the splitting groups.
                rows = rows[~in_leaf]
                sizes = sizes[split]
                starts = np.cumsum(sizes) - sizes
                gid = np.repeat(np.arange(n_split, dtype=np.int64), sizes)
                gid32 = gid.astype(np.int32)
                best = best[split]
                params = params[:, :, split]
            engine.counters["groups_materialized"] += 2 * n_split

            # Cut every splitting group under its chosen QI at once.
            cut_params = params[best, :, np.arange(n_split)].T
            codes_cut = np.take(all_codes, best[gid] * n_rows + rows)
            # Child and layout keys stay below 4 * n_split.
            key_gid = gid32 if _key_dtype(4 * n_split) is np.int32 else gid
            if relaxed:
                left, median_valued = _relaxed_masks(codes_cut, gid, starts, *cut_params)
                child = 2 * key_gid + ~left
                # Within a child the off-median rows come first, then the
                # median-valued ones, each block in parent order.
                key = 2 * child + median_valued
            else:
                child = key = 2 * key_gid + ~_strict_left_mask(codes_cut, gid, cut_params[0])
            rows = rows[_pair_sort(key, 4 * n_split, np.arange(rows.size), rows.size)]
            sizes = np.bincount(child, minlength=2 * n_split)

            single = sizes < 2
            if single.any():
                lone = np.repeat(single, sizes)
                leaves += list(rows[lone].reshape(-1, 1))
                rows, sizes = rows[~lone], sizes[~single]
        return leaves

    def __repr__(self) -> str:
        return f"Mondrian(mode={self.mode!r})"


def _info_gains(parent_entropy, left, right, n_left, sizes, degenerate) -> np.ndarray:
    """Each group's InfoGain H(parent) - (n_l H(left) + n_r H(right)) / n.

    ``left`` and ``right`` are the level's (groups x labels) child label
    histograms; a degenerate cut scores -inf. Each entropy is the scalar
    :func:`_hist_entropy` of one group's row, weighted with Python ints, so
    every float sum adds in the order of scoring that group alone.
    """
    gains = np.full(sizes.size, -np.inf)
    for g in np.flatnonzero(~degenerate).tolist():
        n, n_l = int(sizes[g]), int(n_left[g])
        children = (n_l * _hist_entropy(left[g]) + (n - n_l) * _hist_entropy(right[g])) / n
        gains[g] = parent_entropy[g] - children
    return gains
