"""Tests for the extended privacy models: (k,e)-anonymity, personalized
privacy, and LKC-privacy."""

import numpy as np
import pytest

from repro.core.engine import LatticeEvaluator
from repro.core.hierarchy import Hierarchy
from repro.core.partition import partition_by_qi
from repro.core.table import Column, Table
from repro.errors import SchemaError
from repro.privacy import GuardingNode, KEAnonymity, LKCPrivacy, PersonalizedPrivacy


def ok_mask(model, table):
    """The model's verdicts on one class per value of column "qi"."""
    hierarchy = Hierarchy.flat(table.column("qi").categories)
    return model.ok_mask(LatticeEvaluator(table, ["qi"], {"qi": hierarchy}).stats((0,)))


@pytest.fixture
def salary_table():
    return Table(
        [
            Column.categorical("qi", ["a"] * 4 + ["b"] * 4),
            Column.numeric("salary", [30, 35, 40, 60, 30, 31, 32, 33]),
        ]
    )


class TestKEAnonymity:
    def test_range_condition(self, salary_table):
        # class a range 30, class b range 3.
        assert ok_mask(KEAnonymity(3, 10.0, "salary"), salary_table).tolist() == [True, False]
        assert ok_mask(KEAnonymity(3, 3.0, "salary"), salary_table).all()

    def test_k_condition(self, salary_table):
        assert not ok_mask(KEAnonymity(5, 1.0, "salary"), salary_table).any()

    def test_categorical_sensitive_raises(self):
        table = Table(
            [Column.categorical("qi", ["a", "a"]), Column.categorical("s", ["x", "y"])]
        )
        with pytest.raises(SchemaError, match="categorical, not numeric"):
            ok_mask(KEAnonymity(2, 1.0, "s"), table)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KEAnonymity(0, 1.0, "s")
        with pytest.raises(ValueError):
            KEAnonymity(2, -1.0, "s")

    def test_zero_e_reduces_to_k_anonymity(self, salary_table):
        assert ok_mask(KEAnonymity(4, 0.0, "salary"), salary_table).all()


class TestPersonalizedPrivacy:
    @pytest.fixture
    def disease_hierarchy(self):
        return Hierarchy.from_tree(
            {"Respiratory": ["flu", "pneumonia"], "Chronic": ["cancer", "hiv"]}
        )

    @pytest.fixture
    def table(self):
        return Table(
            [
                Column.categorical("qi", ["a"] * 4 + ["b"] * 4),
                Column.categorical(
                    "disease",
                    ["flu", "flu", "pneumonia", "cancer",
                     "flu", "cancer", "hiv", "pneumonia"],
                ),
            ]
        )

    def test_guarding_node_covers_subtree(self, disease_hierarchy):
        node = GuardingNode(disease_hierarchy, 1, "Respiratory")
        ground = disease_hierarchy.ground
        assert node.covers(ground.index("flu"))
        assert node.covers(ground.index("pneumonia"))
        assert not node.covers(ground.index("cancer"))

    def test_unknown_label_raises(self, disease_hierarchy):
        from repro.errors import HierarchyError

        with pytest.raises(HierarchyError):
            GuardingNode(disease_hierarchy, 1, "Imaginary")

    def test_breach_probability(self, table, disease_hierarchy):
        # Row 0 guards "Respiratory": class a has 3/4 respiratory records.
        model = PersonalizedPrivacy(
            {0: GuardingNode(disease_hierarchy, 1, "Respiratory")},
            p_breach=0.5,
            sensitive="disease",
        )
        partition = partition_by_qi(table, ["qi"])
        breaches = model.breach_probabilities(table, partition)
        assert breaches == [(0, 0.75)]
        assert not model.check(table, partition)
        assert model.failing_groups(table, partition) == [0]

    def test_leaf_guarding_node(self, table, disease_hierarchy):
        # Row 5 guards its exact value "cancer": class b has 1/4 cancer.
        model = PersonalizedPrivacy(
            {5: GuardingNode(disease_hierarchy, 0, "cancer")},
            p_breach=0.3,
            sensitive="disease",
        )
        partition = partition_by_qi(table, ["qi"])
        assert model.check(table, partition)

    def test_unguarded_rows_free(self, table):
        model = PersonalizedPrivacy({}, p_breach=0.01, sensitive="disease")
        partition = partition_by_qi(table, ["qi"])
        assert model.check(table, partition)

    def test_invalid_p_breach(self):
        with pytest.raises(ValueError):
            PersonalizedPrivacy({}, p_breach=0.0, sensitive="s")


class TestLKCPrivacy:
    @pytest.fixture
    def table(self):
        return Table(
            [
                Column.categorical("a", ["x", "x", "x", "y", "y", "y"]),
                Column.categorical("b", ["p", "p", "q", "q", "q", "q"]),
                Column.categorical("s", ["s1", "s2", "s1", "s2", "s1", "s2"]),
            ]
        )

    def test_l1_checks_single_attributes(self, table):
        # a=x matches 3, a=y matches 3, b=p matches 2, b=q matches 4.
        assert LKCPrivacy(1, 2, 1.0, "s", ["a", "b"]).check(table)
        assert not LKCPrivacy(1, 3, 1.0, "s", ["a", "b"]).check(table)

    def test_l2_checks_pairs(self, table):
        # (a=x, b=q) matches only 1 record.
        assert not LKCPrivacy(2, 2, 1.0, "s", ["a", "b"]).check(table)

    def test_confidence_bound(self, table):
        # b=p: both records have distinct s => confidence 0.5.
        model = LKCPrivacy(1, 2, 0.4, "s", ["a", "b"])
        violations = model.violations(table)
        assert any(v["max_confidence"] > 0.4 for v in violations)

    def test_violations_report_rows(self, table):
        model = LKCPrivacy(2, 2, 1.0, "s", ["a", "b"])
        violations = model.violations(table)
        assert all("rows" in v and len(v["rows"]) for v in violations)

    def test_failing_groups_maps_to_partition(self, table):
        partition = partition_by_qi(table, ["a", "b"])
        model = LKCPrivacy(2, 2, 1.0, "s", ["a", "b"])
        failing = model.failing_groups(table, partition)
        assert failing  # the singleton (x,q) class fails

    def test_l_capped_by_available_attributes(self, table):
        # L larger than the number of QIs: degrades to checking all subsets.
        assert LKCPrivacy(5, 1, 1.0, "s", ["a", "b"]).check(table)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LKCPrivacy(0, 2, 0.5, "s", ["a"])
        with pytest.raises(ValueError):
            LKCPrivacy(1, 0, 0.5, "s", ["a"])
        with pytest.raises(ValueError):
            LKCPrivacy(1, 2, 1.5, "s", ["a"])

    def test_generalization_fixes_lkc(self, medical_setup):
        """Generalizing QIs monotonically shrinks the violation list."""
        from repro.core.generalize import apply_node

        table, schema, hierarchies = medical_setup
        qi = schema.quasi_identifiers
        model = LKCPrivacy(2, 5, 0.9, "disease", qi)
        raw_violations = len(model.violations(table))
        generalized = apply_node(
            table, hierarchies, qi, [hierarchies[n].height for n in qi]
        )
        top_violations = len(model.violations(generalized))
        assert top_violations <= raw_violations
