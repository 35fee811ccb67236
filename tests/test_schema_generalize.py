"""Tests for Schema validation and generalization application."""

import numpy as np
import pytest

from repro.algorithms import Flash, Mondrian
from repro.core.generalize import apply_node, apply_partition_recoding
from repro.core.schema import AttributeType, Schema
from repro.core.table import Column, Table
from repro.errors import HierarchyError, SchemaError
from repro.privacy import KAnonymity


class TestSchema:
    def test_build_roles(self, tiny_schema):
        assert tiny_schema.quasi_identifiers == ["zipcode", "nationality", "age"]
        assert tiny_schema.sensitive == ["disease"]
        assert tiny_schema.numeric_quasi_identifiers == ["age"]

    def test_duplicate_role_raises(self):
        with pytest.raises(SchemaError, match="two roles"):
            Schema.build(quasi_identifiers=["a"], sensitive=["a"])

    def test_no_qi_raises(self):
        with pytest.raises(SchemaError, match="quasi-identifier"):
            Schema.build(sensitive=["s"])

    def test_type_of(self, tiny_schema):
        assert tiny_schema.type_of("disease") is AttributeType.SENSITIVE
        with pytest.raises(SchemaError):
            tiny_schema.type_of("ghost")

    def test_validate_passes_on_matching_table(self, tiny_table, tiny_schema):
        tiny_schema.validate(tiny_table)

    def test_validate_catches_numeric_qi_declared_categorical(self, tiny_table):
        schema = Schema.build(quasi_identifiers=["age"], sensitive=["disease"])
        with pytest.raises(SchemaError, match="declared categorical"):
            schema.validate(tiny_table)

    def test_validate_catches_categorical_qi_declared_numeric(self, tiny_table):
        schema = Schema.build(
            quasi_identifiers=["nationality"],
            numeric_quasi_identifiers=["zipcode"],
            sensitive=["disease"],
        )
        with pytest.raises(SchemaError, match="declared numeric"):
            schema.validate(tiny_table)

    def test_validate_catches_numeric_sensitive(self, tiny_table):
        schema = Schema.build(quasi_identifiers=["zipcode"], sensitive=["age"])
        with pytest.raises(SchemaError, match="must be categorical"):
            schema.validate(tiny_table)

    def test_validate_missing_column(self, tiny_table):
        schema = Schema.build(quasi_identifiers=["ghost"])
        with pytest.raises(SchemaError):
            schema.validate(tiny_table)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("algorithm", [Flash(), Mondrian(mode="relaxed")])
    def test_non_finite_numeric_qi_is_rejected(
        self, tiny_table, tiny_schema, tiny_hierarchies, algorithm, bad
    ):
        ages = tiny_table.values("age").astype(np.float64)
        ages[5] = bad
        table = tiny_table.replace(Column.numeric("age", ages))
        with pytest.raises(SchemaError, match=f"'age' holds the non-finite value {bad} in row 5"):
            algorithm.anonymize(table, tiny_schema, tiny_hierarchies, [KAnonymity(2)])


class TestApplyNode:
    def test_apply_node_generalizes_each_attribute(self, tiny_table, tiny_hierarchies):
        out = apply_node(
            tiny_table, tiny_hierarchies, ["zipcode", "nationality", "age"], (1, 1, 2)
        )
        assert set(out.column("zipcode").decode()) <= {"1305*", "1306*", "1485*"}
        assert set(out.column("nationality").decode()) <= {"Americas", "Asia", "Europe"}
        assert all(v.startswith("[") for v in out.column("age").decode())

    def test_apply_node_level_zero_keeps_values(self, tiny_table, tiny_hierarchies):
        out = apply_node(tiny_table, tiny_hierarchies, ["zipcode"], (0,))
        assert out.column("zipcode").decode() == tiny_table.column("zipcode").decode()

    def test_mismatched_lengths_raise(self, tiny_table, tiny_hierarchies):
        with pytest.raises(HierarchyError, match="parallel"):
            apply_node(tiny_table, tiny_hierarchies, ["zipcode"], (1, 2))

    def test_untouched_columns_preserved(self, tiny_table, tiny_hierarchies):
        out = apply_node(tiny_table, tiny_hierarchies, ["zipcode"], (2,))
        assert out.column("disease").decode() == tiny_table.column("disease").decode()


class TestPartitionRecoding:
    def test_groups_must_cover(self, tiny_table, tiny_hierarchies):
        with pytest.raises(HierarchyError, match="cover"):
            apply_partition_recoding(
                tiny_table,
                [np.array([0, 1])],
                categorical_qis={"nationality": tiny_hierarchies["nationality"]},
            )

    def test_recoding_unifies_group_values(self, tiny_table, tiny_hierarchies):
        groups = [np.arange(4), np.arange(4, 8)]
        out = apply_partition_recoding(
            tiny_table,
            groups,
            categorical_qis={"nationality": tiny_hierarchies["nationality"]},
            numeric_qis=["age"],
        )
        nat = out.column("nationality").decode()
        age = out.column("age").decode()
        for group in groups:
            assert len({nat[i] for i in group}) == 1
            assert len({age[i] for i in group}) == 1

    def test_singleton_value_not_generalized(self, tiny_table, tiny_hierarchies):
        # Rows 6 and 7 are both American: group label should stay "American".
        groups = [np.array([6, 7]), np.arange(6)]
        out = apply_partition_recoding(
            tiny_table,
            groups,
            categorical_qis={"nationality": tiny_hierarchies["nationality"]},
        )
        assert out.column("nationality").decode()[6] == "American"

    def test_numeric_point_group_label(self, tiny_hierarchies):
        table = Table(
            [
                Column.categorical("c", ["x", "x"]),
                Column.numeric("n", [5.0, 5.0]),
            ]
        )
        out = apply_partition_recoding(
            table, [np.array([0, 1])], categorical_qis={}, numeric_qis=["n"]
        )
        assert out.column("n").decode() == ["5", "5"]

    def test_numeric_range_label(self):
        table = Table([Column.numeric("n", [1.0, 9.0])])
        out = apply_partition_recoding(
            table, [np.array([0, 1])], categorical_qis={}, numeric_qis=["n"]
        )
        assert out.column("n").decode() == ["[1-9]", "[1-9]"]
