"""Sort-free lattice kernels and code-space local recoding vs references.

* **grouping** — dense grouping (a mark array over the mixed-radix values)
  and ``np.unique`` grouping give the labels and ``group_codes`` of a
  test-side ``np.unique`` reference over the store key's column order, on
  random radices and with the radix product just inside and just outside
  the dense threshold, from rows and by roll-up, whatever column order the
  evaluator lists;
* **roll-ups** — rolled-up sizes and histograms equal an ``np.add.at``
  reference over the parent's;
* **recoding** — :func:`apply_partition_recoding` publishes what the old
  per-group label loop, kept here and fed ground codes, publishes.
"""

import numpy as np
import pytest

import repro.core.engine as engine_module
from repro.core.engine import LatticeEvaluator, _group_signatures
from repro.core.generalize import apply_partition_recoding
from repro.core.hierarchy import Hierarchy
from repro.core.table import Column, Table
from repro.data.synthetic import random_scenario
from repro.errors import HierarchyError


def _reference_groups(code_columns, radices):
    """(labels, group_codes) by mixed-radix packing and ``np.unique``."""
    signature = np.zeros(code_columns[0].size, dtype=np.int64)
    for codes, radix in zip(code_columns, radices):
        signature = signature * max(radix, 1) + codes
    _, first, labels = np.unique(signature, return_index=True, return_inverse=True)
    return labels, np.stack([codes[first] for codes in code_columns], axis=1)


def _threshold(n_rows):
    return engine_module._DENSE_ROWS * n_rows + engine_module._DENSE_SLACK


# -- grouping -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("branch", ["natural", "dense", "sorted"])
def test_group_signatures_match_np_unique(monkeypatch, seed, branch):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(1, 3000))
    radices = [int(r) for r in rng.integers(1, 40, size=rng.integers(1, 5))]
    code_columns = [rng.integers(0, radix, n_rows) for radix in radices]
    signature = np.zeros(n_rows, dtype=np.int64)
    for codes, radix in zip(code_columns, radices):
        signature = signature * radix + codes
    if branch == "dense":
        monkeypatch.setattr(engine_module, "_DENSE_SLACK", int(np.prod(radices)))
    elif branch == "sorted":
        monkeypatch.setattr(engine_module, "_DENSE_ROWS", 0)
        monkeypatch.setattr(engine_module, "_DENSE_SLACK", 0)
    labels, group_codes = _group_signatures(signature, radices)
    ref_labels, ref_codes = _reference_groups(code_columns, radices)
    assert labels.dtype == np.int64 and group_codes.dtype == np.int64
    assert np.array_equal(labels, ref_labels)
    assert np.array_equal(group_codes, ref_codes)


def _flat_table(n_rows, radices, seed):
    """Uniform categorical QIs with flat hierarchies of ``radices`` values."""
    rng = np.random.default_rng(seed)
    columns, hierarchies = [], {}
    for i, radix in enumerate(radices):
        ground = [f"q{i}_{j:05d}" for j in range(radix)]
        draws = rng.integers(0, radix, n_rows)
        columns.append(Column.categorical(f"q{i}", [ground[d] for d in draws]))
        hierarchies[f"q{i}"] = Hierarchy.flat(ground)
    return Table(columns), [f"q{i}" for i in range(len(radices))], hierarchies


def _count_unique_calls(monkeypatch):
    calls = []
    real = np.unique

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    return calls


@pytest.mark.parametrize("order", ["sorted", "reversed"])
@pytest.mark.parametrize("radices", [(41, 53, 3), (7, 11, 13, 5), (2, 4099)])
def test_stats_group_like_np_unique_at_the_dense_threshold(monkeypatch, radices, order):
    """``reversed`` lists the columns against the store key's sorted order;
    the stats still come back grouped from rows in the sorted order."""
    product = int(np.prod(radices))
    # The fewest rows at which this radix product still groups densely.
    dense_rows = -(-(product - engine_module._DENSE_SLACK) // engine_module._DENSE_ROWS)
    for n_rows, dense in ((dense_rows, True), (dense_rows - 1, False)):
        assert (product <= _threshold(n_rows)) is dense
        table, qi, hierarchies = _flat_table(n_rows, radices, seed=n_rows)
        evaluator = LatticeEvaluator(
            table, qi[::-1] if order == "reversed" else qi, hierarchies
        )
        calls = _count_unique_calls(monkeypatch)
        stats = evaluator.stats((0,) * len(qi))
        monkeypatch.undo()
        # The flat names q0, q1, ... are already the store key's order.
        assert stats.names == tuple(sorted(qi)) == tuple(qi)
        code_columns = [
            hierarchies[name].ground_codes(table.column(name)).astype(np.int64)
            for name in qi
        ]
        labels, group_codes = _reference_groups(code_columns, radices)
        assert len(calls) == (0 if dense else 1)
        assert np.array_equal(stats.row_labels, labels)
        assert np.array_equal(stats.group_codes, group_codes)
        assert np.array_equal(stats.sizes, np.bincount(labels))


@pytest.mark.parametrize("walk", ["ascending", "descending"])
@pytest.mark.parametrize("seed", range(4))
def test_every_node_groups_like_np_unique(seed, walk):
    """``ascending`` starts at the bottom, so every other node rolls up from
    a cached ancestor; ``descending`` never has one cached (a node visited
    earlier is lexicographically larger, so never componentwise smaller),
    so every node groups from rows. The evaluator lists the scenario's
    unsorted QIs; the reference groups over the store key's order."""
    table, schema, hierarchies = random_scenario(n_rows=300, seed=seed)
    qi = schema.quasi_identifiers
    key_order = sorted(range(len(qi)), key=qi.__getitem__)
    assert key_order != list(range(len(qi)))
    evaluator = LatticeEvaluator(table, qi, hierarchies)
    heights = [hierarchies[name].height for name in qi]
    nodes = list(np.ndindex(*(h + 1 for h in heights)))
    if walk == "descending":
        nodes.reverse()
    for node in nodes:
        stats = evaluator.stats(node)
        code_columns = []
        radices = []
        for name, level in ((qi[i], node[i]) for i in key_order):
            column = table.column(name)
            hierarchy = hierarchies[name]
            if column.is_categorical:
                code_columns.append(
                    hierarchy.map_codes(hierarchy.ground_codes(column), level)
                )
                radices.append(len(hierarchy.labels(level)))
            elif level == 0:
                uniques, ranks = np.unique(column.values, return_inverse=True)
                code_columns.append(ranks)
                radices.append(uniques.size)
            else:
                code_columns.append(hierarchy.bin_values(column.values, level))
                radices.append(len(hierarchy.intervals(level)))
        labels, group_codes = _reference_groups(
            [codes.astype(np.int64) for codes in code_columns], radices
        )
        assert np.array_equal(stats.row_labels, labels), node
        assert np.array_equal(stats.group_codes, group_codes), node
    info = evaluator.cache_info()
    if walk == "ascending":
        assert (info["from_rows"], info["rollups"]) == (1, len(nodes) - 1)
    else:
        assert (info["from_rows"], info["rollups"]) == (len(nodes), 0)


# -- roll-ups -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_rollup_sizes_and_histograms_match_add_at(seed):
    table, schema, hierarchies = random_scenario(n_rows=400, seed=seed)
    qi = schema.quasi_identifiers
    evaluator = LatticeEvaluator(table, qi, hierarchies)
    bottom = evaluator.stats((0,) * len(qi))
    bottom.histogram("sensitive")
    heights = [hierarchies[name].height for name in qi]
    rolled = 0
    for node in np.ndindex(*(h + 1 for h in heights)):
        stats = evaluator.stats(node)
        if stats._parent is None:
            continue
        rolled += 1
        parent, group_map = stats._parent
        sizes = np.zeros(stats.n_groups, dtype=np.int64)
        np.add.at(sizes, group_map, parent.sizes)
        hist = np.zeros((stats.n_groups, len(table.column("sensitive").categories)), np.int64)
        np.add.at(hist, group_map, parent.histogram("sensitive"))
        assert stats.sizes.dtype == np.int64 and np.array_equal(stats.sizes, sizes)
        got = stats.histogram("sensitive")
        assert got.dtype == np.int64 and np.array_equal(got, hist)
    assert rolled > 0


# -- recoding -------------------------------------------------------------------


def _old_group_label(hierarchy, ground_codes):
    """The per-group label loop the code-space recoder replaced."""
    distinct = np.unique(ground_codes)
    if distinct.size == 1:
        return str(hierarchy.ground[int(distinct[0])])
    for level in range(1, hierarchy.height + 1):
        mapped = np.unique(hierarchy.map_codes(distinct, level))
        if mapped.size == 1:
            return str(hierarchy.labels(level)[int(mapped[0])])
    raise HierarchyError("hierarchy top level does not unify the domain")


def _old_recoding(table, groups, categorical_qis, numeric_qis=(), precision=6):
    """The old per-group loop over ground codes, one Column.categorical each."""
    columns = []
    for name, hierarchy in categorical_qis.items():
        ground = hierarchy.ground_codes(table.column(name))
        out = np.empty(table.n_rows, dtype=object)
        for group in groups:
            out[group] = _old_group_label(hierarchy, ground[group])
        columns.append(Column.categorical(name, out.tolist()))
    fmt = f"%.{precision}g"
    for name in numeric_qis:
        values = table.values(name)
        out = np.empty(table.n_rows, dtype=object)
        for group in groups:
            lo, hi = float(values[group].min()), float(values[group].max())
            out[group] = fmt % lo if lo == hi else f"[{fmt % lo}-{fmt % hi}]"
        columns.append(Column.categorical(name, out.tolist()))
    return table.replace(*columns)


def _assert_same_table(mine, theirs):
    for got, want in zip(mine, theirs):
        assert got.name == want.name
        assert got.categories == want.categories, got.name
        if got.is_categorical:
            assert np.array_equal(got.codes, want.codes), got.name
        else:
            assert np.array_equal(got.values, want.values), got.name


def _random_groups(rng, n_rows, max_size):
    order = rng.permutation(n_rows)
    cuts = np.sort(rng.choice(np.arange(1, n_rows), size=n_rows // max_size, replace=False))
    return [np.sort(group) for group in np.split(order, cuts)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_values", [8, 12])
def test_recoding_matches_per_group_loop(seed, n_values):
    # From 11 values on, the columns list qiN_10 after qiN_9 while the
    # hierarchies' ground domains sort it after qiN_1.
    rng = np.random.default_rng(seed)
    table, schema, hierarchies = random_scenario(n_rows=500, n_values=n_values, seed=seed)
    if n_values > 10:
        assert table.column("qi0").categories != hierarchies["qi0"].ground
    groups = _random_groups(rng, table.n_rows, max_size=int(rng.integers(2, 30)))
    categorical = {name: hierarchies[name] for name in schema.categorical_quasi_identifiers}
    args = (table, groups, categorical, schema.numeric_quasi_identifiers)
    _assert_same_table(apply_partition_recoding(*args), _old_recoding(*args))


def test_recoding_point_and_interval_numeric_labels():
    table = Table(
        [
            Column.numeric("n", [5.0, 5.0, 1.0, 9.0, 2.5, 1e7, 1.25e-7]),
            Column.numeric("i", np.array([3, 3, 4, 8, 8, 1, 2], dtype=np.int64)),
        ]
    )
    groups = [np.array([0, 1]), np.array([2, 3]), np.array([4]), np.array([5, 6])]
    mine = apply_partition_recoding(table, groups, {}, ["n", "i"])
    _assert_same_table(mine, _old_recoding(table, groups, {}, ["n", "i"]))
    assert mine.column("n").decode() == [
        "5", "5", "[1-9]", "[1-9]", "2.5", "[1.25e-07-1e+07]", "[1.25e-07-1e+07]"
    ]
    assert mine.column("i").decode() == ["3", "3", "[4-8]", "[4-8]", "8", "[1-2]", "[1-2]"]


def test_recoding_merges_levels_that_render_the_same_text():
    # "a" is a ground value and the level-1 label of {a, b}; 1 and "1" are a
    # ground value and a level-2 label that both render as "1".
    hierarchy = Hierarchy.from_levels(
        {"a": ["a", "1"], "b": ["a", "1"], "c": ["c", "1"], 1: [1, "1"]}
    )
    table = Table([Column.categorical("q", ["a", "a", "b", "c", 1, "a", 1])])
    groups = [
        np.array([0]), np.array([1, 2]), np.array([3, 4]), np.array([5]), np.array([6]),
    ]
    mine = apply_partition_recoding(table, groups, {"q": hierarchy})
    _assert_same_table(mine, _old_recoding(table, groups, {"q": hierarchy}))
    assert mine.column("q").categories == ("1", "a")
    assert mine.column("q").decode() == ["a", "a", "a", "1", "1", "a", "1"]


def test_recoding_merges_numeric_labels_that_render_the_same_text():
    # 1.0000001 and 1.0000002 differ but render "1" at %.6g, alone and as the
    # low end of "[1-2]"; 0.0 and -0.0 compare equal but render apart.
    table = Table([
        Column.numeric("n", [1.0000001, 1.0000002, 1.0000001, 2.0, 1.0000002, 2.0, 0.0, -0.0])
    ])
    groups = [
        np.array([0]), np.array([1]), np.array([2, 3]), np.array([4, 5]),
        np.array([6]), np.array([7]),
    ]
    mine = apply_partition_recoding(table, groups, {}, ["n"])
    _assert_same_table(mine, _old_recoding(table, groups, {}, ["n"]))
    assert mine.column("n").categories == ("-0", "0", "1", "[1-2]")
    assert mine.column("n").decode() == ["1", "1", "[1-2]", "[1-2]", "[1-2]", "[1-2]", "0", "-0"]


def test_recoding_empty_group_raises():
    table = Table([Column.categorical("q", ["x", "y"]), Column.numeric("n", [1.0, 2.0])])
    groups = [np.array([0, 1]), np.array([], dtype=np.int64)]
    with pytest.raises(HierarchyError, match="empty"):
        apply_partition_recoding(table, groups, {"q": Hierarchy.flat(["x", "y"])})
    with pytest.raises(HierarchyError, match="empty"):
        apply_partition_recoding(table, groups, {}, ["n"])
