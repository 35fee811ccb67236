"""Unit tests for the privacy models (k-anonymity, ℓ-diversity, t-closeness,
(α,k)-anonymity, δ-presence, composite), each through its ``ok_mask`` on a
lattice engine's stats."""

import numpy as np
import pytest

from repro.core.engine import LatticeEvaluator
from repro.core.hierarchy import Hierarchy
from repro.core.table import Column, Table
from repro.privacy import (
    AlphaKAnonymity,
    CompositeModel,
    DeltaPresence,
    DistinctLDiversity,
    EntropyLDiversity,
    KAnonymity,
    RecursiveCLDiversity,
    TCloseness,
)


def make_table(qi, sensitive):
    return Table(
        [
            Column.categorical("qi", qi),
            Column.categorical("s", sensitive),
        ]
    )


def evaluator_of(table):
    """An engine whose node (0,) has one class per value of column "qi"."""
    hierarchy = Hierarchy.flat(table.column("qi").categories)
    return LatticeEvaluator(table, ["qi"], {"qi": hierarchy})


def stats_of(table):
    return evaluator_of(table).stats((0,))


def holds(model, table):
    return evaluator_of(table).check((0,), [model])


def failing(model, table):
    return np.flatnonzero(~model.ok_mask(stats_of(table))).tolist()


@pytest.fixture
def homogeneous():
    """Two classes of 3; class 'a' homogeneous, class 'b' diverse."""
    return make_table(
        ["a", "a", "a", "b", "b", "b"],
        ["flu", "flu", "flu", "flu", "hiv", "ulcer"],
    )


class TestKAnonymity:
    def test_satisfied(self, homogeneous):
        assert holds(KAnonymity(3), homogeneous)

    def test_violated(self, homogeneous):
        assert not holds(KAnonymity(4), homogeneous)

    def test_failing_groups(self):
        table = make_table(["a", "a", "b"], ["x", "y", "x"])
        assert failing(KAnonymity(2), table) == [1]
        assert stats_of(table).sizes[1] == 1

    def test_k1_always_satisfied(self, homogeneous):
        assert holds(KAnonymity(1), homogeneous)

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            KAnonymity(0)

    def test_failing_rows_helper(self):
        table = make_table(["a", "b", "b"], ["x", "y", "x"])
        rows = evaluator_of(table).failing_rows((0,), [KAnonymity(2)])
        assert rows.tolist() == [0]

    def test_failing_rows_empty(self):
        table = make_table(["a", "a"], ["x", "y"])
        assert evaluator_of(table).failing_rows((0,), [KAnonymity(2)]).size == 0


class TestDistinctLDiversity:
    def test_homogeneous_class_fails(self, homogeneous):
        model = DistinctLDiversity(2, "s")
        assert not holds(model, homogeneous)
        assert len(failing(model, homogeneous)) == 1

    def test_diverse_table_passes(self):
        table = make_table(["a", "a", "b", "b"], ["flu", "hiv", "flu", "hiv"])
        assert holds(DistinctLDiversity(2, "s"), table)

    def test_l3_requires_three_values(self, homogeneous):
        # class 'b' has exactly 3 distinct, class 'a' only 1.
        assert len(failing(DistinctLDiversity(3, "s"), homogeneous)) == 1

    def test_invalid_l_raises(self):
        with pytest.raises(ValueError):
            DistinctLDiversity(0, "s")


class TestEntropyLDiversity:
    def test_uniform_distribution_meets_log_l(self):
        table = make_table(["a"] * 4, ["w", "x", "y", "z"])
        assert holds(EntropyLDiversity(4, "s"), table)

    def test_skewed_distribution_fails_high_l(self):
        table = make_table(["a"] * 4, ["w", "w", "w", "x"])
        assert not holds(EntropyLDiversity(2, "s"), table)

    def test_entropy_l_stricter_than_distinct(self):
        # 2 distinct values but very skewed: distinct-2 passes, entropy-2 fails.
        table = make_table(["a"] * 10, ["w"] * 9 + ["x"])
        assert holds(DistinctLDiversity(2, "s"), table)
        assert not holds(EntropyLDiversity(2, "s"), table)

    def test_l1_trivially_satisfied(self):
        table = make_table(["a", "a"], ["w", "w"])
        assert holds(EntropyLDiversity(1, "s"), table)


class TestRecursiveCLDiversity:
    def test_needs_at_least_l_values(self):
        table = make_table(["a"] * 3, ["w", "w", "x"])
        assert not holds(RecursiveCLDiversity(2.0, 3, "s"), table)

    def test_bound_on_top_count(self):
        # counts sorted: [5, 2, 1]; l=2 => tail = 2+1 = 3; c=2 => 5 < 6 OK.
        table = make_table(["a"] * 8, ["w"] * 5 + ["x"] * 2 + ["y"])
        assert holds(RecursiveCLDiversity(2.0, 2, "s"), table)
        # c=1.5 => 5 < 4.5 fails.
        assert not holds(RecursiveCLDiversity(1.5, 2, "s"), table)

    def test_l_below_two_raises(self):
        with pytest.raises(ValueError):
            RecursiveCLDiversity(1.0, 1, "s")

    def test_nonpositive_c_raises(self):
        with pytest.raises(ValueError):
            RecursiveCLDiversity(0.0, 2, "s")


class TestTCloseness:
    def test_matching_distribution_distance_zero(self):
        table = make_table(["a", "a", "b", "b"], ["flu", "hiv", "flu", "hiv"])
        model = TCloseness(0.0, "s")
        assert holds(model, table)
        assert model.distances(stats_of(table)).max() == pytest.approx(0.0)

    def test_skewed_class_fails_small_t(self, homogeneous):
        assert not holds(TCloseness(0.1, "s"), homogeneous)
        assert holds(TCloseness(1.0, "s"), homogeneous)

    def test_equal_distance_value(self, homogeneous):
        distances = TCloseness(0.5, "s").distances(stats_of(homogeneous))
        # global = (4/6 flu, 1/6 hiv, 1/6 ulcer); class a = (1,0,0):
        # TV = 0.5 * (|1-4/6| + 4/6... ) -> 1/3
        assert distances.max() == pytest.approx(1.0 / 3.0)

    def test_invalid_t_raises(self):
        with pytest.raises(ValueError):
            TCloseness(1.5, "s")

    def test_unknown_ground_distance_raises(self):
        with pytest.raises(ValueError):
            TCloseness(0.2, "s", ground_distance="hyperbolic")

    def test_hierarchical_requires_hierarchy(self):
        with pytest.raises(ValueError):
            TCloseness(0.2, "s", ground_distance="hierarchical")


class TestAlphaK:
    def test_both_conditions_needed(self):
        table = make_table(["a"] * 4 + ["b"], ["x", "x", "y", "z", "x"])
        # class b has size 1 < k=2.
        assert not holds(AlphaKAnonymity(0.9, 2, "s"), table)

    def test_alpha_cap(self):
        table = make_table(["a"] * 4, ["x", "x", "x", "y"])
        assert not holds(AlphaKAnonymity(0.5, 2, "s"), table)
        assert holds(AlphaKAnonymity(0.75, 2, "s"), table)

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            AlphaKAnonymity(0.0, 2, "s")
        with pytest.raises(ValueError):
            AlphaKAnonymity(0.5, 0, "s")


class TestDeltaPresence:
    def test_belief_is_r_over_p(self):
        research = make_table(["a", "a"], ["x", "y"])
        population = make_table(["a", "a", "a", "a", "b"], ["x"] * 5)
        model = DeltaPresence(0.0, 0.6, population)
        assert model.beliefs(stats_of(research)).tolist() == [0.5]
        assert holds(model, research)

    def test_over_delta_max_fails(self):
        research = make_table(["a", "a", "a"], ["x", "y", "z"])
        population = make_table(["a", "a", "a", "a"], ["x"] * 4)
        model = DeltaPresence(0.0, 0.5, population)
        assert not holds(model, research)
        assert failing(model, research) == [0]

    def test_missing_population_match_is_infinite(self):
        research = make_table(["a"], ["x"])
        population = make_table(["b"], ["x"])
        model = DeltaPresence(0.0, 1.0, population)
        assert model.beliefs(stats_of(research)).tolist() == [np.inf]
        assert not holds(model, research)

    def test_invalid_bounds_raise(self):
        population = make_table(["a"], ["x"])
        with pytest.raises(ValueError):
            DeltaPresence(0.8, 0.2, population)


class TestCompositeModel:
    def test_conjunction(self, homogeneous):
        both = CompositeModel(KAnonymity(3), DistinctLDiversity(2, "s"))
        assert not holds(both, homogeneous)  # l-diversity fails
        only_k = CompositeModel(KAnonymity(3))
        assert holds(only_k, homogeneous)

    def test_failing_groups_union(self):
        table = make_table(["a", "a", "b"], ["x", "x", "y"])
        both = CompositeModel(KAnonymity(2), DistinctLDiversity(2, "s"))
        # class a fails diversity; class b fails k.
        assert failing(both, table) == [0, 1]

    def test_empty_composite_raises(self):
        with pytest.raises(ValueError):
            CompositeModel()

    def test_name_and_monotone(self):
        model = CompositeModel(KAnonymity(2), DistinctLDiversity(2, "s"))
        assert "anonymity" in model.name and "diversity" in model.name
        assert model.monotone
