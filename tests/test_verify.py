"""Differential suite: every model's ``ok_mask`` against :mod:`repro.verify`.

The verifier shares no code with the engines or the model classes, so the
two agreeing on random inputs is evidence that both are right:

* on random row partitions, each model fails exactly the classes the
  verifier flags on a table published with one label per class;
* on random lattice nodes, ``LatticeEvaluator.failing_rows`` equals the rows
  of the classes flagged on the materialized node (δ-presence included,
  against the population generalized at the same node);
* permuting the input rows leaves the failing classes of every node
  unchanged.

Tier-1 runs the few examples of the ``tier1`` hypothesis profile; CI runs
this file with ``--hypothesis-profile ci`` (10,000 derandomized examples per
property, see ``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import LatticeEvaluator
from repro.core.generalize import apply_node
from repro.core.hierarchy import Hierarchy, IntervalHierarchy
from repro.core.lattice import GeneralizationLattice
from repro.core.partition_engine import PartitionEngine, PartitionGroup
from repro.core.table import Column, Table
from repro.privacy import (
    AlphaKAnonymity,
    BetaLikeness,
    CompositeModel,
    DeltaPresence,
    DistinctLDiversity,
    EntropyLDiversity,
    KAnonymity,
    KEAnonymity,
    RecursiveCLDiversity,
    TCloseness,
)
from repro.verify import violations

A_VALUES = ["a0", "a1", "a2", "a3"]
B_VALUES = ["b0", "b1", "b2"]
# "s_none" is in the category list but never drawn: a zero global mass
# inside the ordered domain.
S_VALUES = ["s0", "s1", "s_none", "s2", "s3"]
QI = ["a", "b", "num"]
HIERARCHIES = {
    "a": Hierarchy.from_tree({"A01": ["a0", "a1"], "A23": ["a2", "a3"]}),
    "b": Hierarchy.flat(B_VALUES),
    "num": IntervalHierarchy.uniform(0, 10, n_bins=4, merge_factor=2),
}
NODES = list(GeneralizationLattice.from_hierarchies(HIERARCHIES, QI).nodes())

differential = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def tables(draw):
    n = draw(st.integers(1, 40))

    def column(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    return Table([
        Column.categorical("a", column(st.sampled_from(A_VALUES)), A_VALUES),
        Column.categorical("b", column(st.sampled_from(B_VALUES)), B_VALUES),
        Column.numeric("num", column(st.integers(0, 9))),
        Column.categorical("s", column(st.sampled_from(["s0", "s1", "s2", "s3"])), S_VALUES),
        Column.numeric("salary", column(st.integers(0, 100))),
    ])


@st.composite
def registered_models(draw):
    """One instance of every registered model, parameters from small grids."""
    models = [
        KAnonymity(draw(st.integers(1, 6))),
        DistinctLDiversity(draw(st.integers(1, 4)), "s"),
        EntropyLDiversity(draw(st.sampled_from([1.0, 1.5, 2.0, 3.0])), "s"),
        RecursiveCLDiversity(
            draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])), draw(st.integers(2, 3)), "s"
        ),
        TCloseness(draw(st.sampled_from([0.1, 0.25, 0.5])), "s", "equal"),
        TCloseness(draw(st.sampled_from([0.1, 0.25, 0.5])), "s", "ordered"),
        AlphaKAnonymity(
            draw(st.sampled_from([0.34, 0.5, 0.75, 1.0])), draw(st.integers(1, 4)), "s"
        ),
        BetaLikeness(draw(st.sampled_from([0.5, 1.0, 2.0])), "s"),
        KEAnonymity(draw(st.integers(1, 4)), draw(st.sampled_from([0.0, 5.0, 20.0])), "salary"),
    ]
    return models + [CompositeModel(*draw(st.permutations(models))[:2])]


def _concat(top: Table, bottom: Table) -> Table:
    columns = []
    for name in top.column_names:
        upper, lower = top.column(name), bottom.column(name)
        if upper.is_categorical:
            values = upper.decode() + lower.decode()
            columns.append(Column.categorical(name, values, upper.categories))
        else:
            values = np.concatenate([upper.values, lower.values])
            columns.append(Column.numeric(name, values))
    return Table(columns)


@differential
@given(table=tables(), data=st.data(), models=registered_models())
def test_partition_verdicts_match_verifier(table, data, models, flagged_rows):
    labels = np.array(data.draw(st.lists(
        st.integers(0, 5), min_size=table.n_rows, max_size=table.n_rows
    )))
    engine = PartitionEngine(table)
    # One group per distinct label, in ascending label order.
    stats = engine.stats([
        PartitionGroup(engine, np.flatnonzero(labels == label)) for label in np.unique(labels)
    ])
    published = table.with_column(Column.categorical("class", labels.tolist()))
    for model in models:
        failing = np.isin(labels, np.unique(labels)[~model.ok_mask(stats)])
        expected = flagged_rows(published, ["class"], [model])
        assert np.array_equal(np.flatnonzero(failing), expected), model.name


@differential
@given(
    table=tables(),
    extra=tables(),
    node=st.sampled_from(NODES),
    delta=st.sampled_from([(0.0, 0.5), (0.2, 1.0), (0.0, 1.0)]),
    models=registered_models(),
)
def test_lattice_failing_rows_match_verifier(table, extra, node, delta, models, flagged_rows):
    population = _concat(table, extra)
    evaluator = LatticeEvaluator(table, QI, HIERARCHIES)
    candidate = apply_node(table, HIERARCHIES, QI, node)
    for model in models:
        expected = flagged_rows(candidate, QI, [model])
        assert np.array_equal(evaluator.failing_rows(node, [model]), expected), model.name
    spec = {"model": "delta-presence", "delta_min": delta[0], "delta_max": delta[1]}
    expected = flagged_rows(
        candidate, QI, [spec], population=apply_node(population, HIERARCHIES, QI, node)
    )
    model = DeltaPresence(*delta, population)
    assert np.array_equal(evaluator.failing_rows(node, [model]), expected)


def _failing_classes(table, models):
    """Per node, the generalized QI codes of every failing class."""
    evaluator = LatticeEvaluator(table, QI, HIERARCHIES)
    out = {}
    for node in NODES:
        stats = evaluator.stats(node)
        ok = np.logical_and.reduce([model.ok_mask(stats) for model in models])
        out[node] = {tuple(codes) for codes in stats.group_codes[~ok].tolist()}
    return out


@differential
@given(table=tables(), seed=st.integers(0, 2**32 - 1), models=registered_models())
def test_row_permutation_keeps_failing_classes(table, seed, models):
    permuted = table.take(np.random.default_rng(seed).permutation(table.n_rows))
    assert _failing_classes(permuted, models) == _failing_classes(table, models)


def test_rejects_what_it_cannot_verify():
    table = Table([Column.categorical("q", ["x"]), Column.categorical("s", ["y"])])
    with pytest.raises(ValueError, match="cannot verify model 'lkc'"):
        violations(table, ["q"], [{"model": "lkc"}])
    hierarchical = {"model": "t-closeness", "t": 0.2, "sensitive": "s",
                    "ground_distance": "hierarchical"}
    with pytest.raises(ValueError, match="hierarchical"):
        violations(table, ["q"], [hierarchical])
    with pytest.raises(ValueError, match="population"):
        violations(table, ["q"], [{"model": "delta-presence", "delta_min": 0, "delta_max": 1}])
