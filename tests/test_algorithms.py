"""Tests for the anonymization algorithms: post-conditions, mode differences,
instrumentation, and error paths."""

import numpy as np
import pytest

from repro import (
    Anatomy,
    Datafly,
    DistinctLDiversity,
    Incognito,
    InfeasibleError,
    KAnonymity,
    MDAVMicroaggregation,
    Mondrian,
    TopDownSpecialization,
)
from repro.core.schema import Schema
from repro.core.table import Column, Table
from repro.verify import violations


def assert_k_anonymous(release, k):
    sizes = release.equivalence_class_sizes()
    assert sizes.min() >= k, f"min class size {sizes.min()} < k={k}"


class TestDatafly:
    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_produces_k_anonymous_release(self, adult_setup, k):
        table, schema, hierarchies = adult_setup
        release = Datafly().anonymize(table, schema, hierarchies, [KAnonymity(k)])
        assert_k_anonymous(release, k)

    def test_suppression_within_budget(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Datafly(max_suppression=0.05).anonymize(
            table, schema, hierarchies, [KAnonymity(5)]
        )
        assert release.suppression_rate <= 0.05

    def test_records_node(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Datafly().anonymize(table, schema, hierarchies, [KAnonymity(5)])
        assert release.node is not None
        assert len(release.node) == len(schema.quasi_identifiers)

    def test_loss_heuristic_also_valid(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Datafly(heuristic="loss").anonymize(
            table, schema, hierarchies, [KAnonymity(5)]
        )
        assert_k_anonymous(release, 5)

    def test_unknown_heuristic_raises(self):
        with pytest.raises(ValueError):
            Datafly(heuristic="magic")

    def test_with_l_diversity(self, medical_setup):
        table, schema, hierarchies = medical_setup
        release = Datafly().anonymize(
            table, schema, hierarchies, [KAnonymity(4), DistinctLDiversity(3, "disease")]
        )
        for counts in release.partition().sensitive_counts(release.table, "disease"):
            assert np.count_nonzero(counts) >= 3


class TestMondrian:
    @pytest.mark.parametrize("mode", ["strict", "relaxed"])
    @pytest.mark.parametrize("k", [3, 8])
    def test_k_anonymity_postcondition(self, adult_setup, mode, k):
        table, schema, hierarchies = adult_setup
        release = Mondrian(mode).anonymize(table, schema, hierarchies, [KAnonymity(k)])
        assert_k_anonymous(release, k)
        assert release.suppressed == 0

    def test_strict_class_sizes_below_2k_unless_unsplittable(self, adult_setup):
        table, schema, hierarchies = adult_setup
        k = 5
        release = Mondrian("strict").anonymize(table, schema, hierarchies, [KAnonymity(k)])
        # Mondrian produces many classes; average should be well under 4k.
        assert release.equivalence_class_sizes().mean() < 4 * k

    def test_relaxed_splits_skewed_data_strict_cannot(self):
        """One dominant repeated value defeats strict median cuts but not
        relaxed ones (the relaxed mode's raison d'être)."""
        from repro.core.hierarchy import IntervalHierarchy

        n = 40
        values = [50.0] * 36 + [10.0, 20.0, 80.0, 90.0]
        table = Table(
            [
                Column.numeric("num", values),
                Column.categorical("s", ["x", "y"] * (n // 2)),
            ]
        )
        schema = Schema.build(numeric_quasi_identifiers=["num"], sensitive=["s"])
        hierarchies = {"num": IntervalHierarchy.uniform(0, 100, n_bins=4)}
        strict = Mondrian("strict").anonymize(table, schema, hierarchies, [KAnonymity(10)])
        relaxed = Mondrian("relaxed").anonymize(table, schema, hierarchies, [KAnonymity(10)])
        assert len(relaxed.partition()) >= len(strict.partition())
        assert_k_anonymous(relaxed, 10)

    def test_infeasible_whole_table_raises(self):
        table = Table(
            [
                Column.categorical("qi", ["a", "b"]),
                Column.categorical("s", ["x", "x"]),
            ]
        )
        schema = Schema.build(quasi_identifiers=["qi"], sensitive=["s"])
        from repro.core.hierarchy import Hierarchy

        with pytest.raises(InfeasibleError):
            Mondrian().anonymize(
                table, schema, {"qi": Hierarchy.flat(["a", "b"])}, [KAnonymity(5)]
            )

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError):
            Mondrian("fuzzy")

    def test_with_l_diversity(self, medical_setup):
        table, schema, hierarchies = medical_setup
        release = Mondrian().anonymize(
            table, schema, hierarchies, [KAnonymity(4), DistinctLDiversity(2, "disease")]
        )
        for counts in release.partition().sensitive_counts(release.table, "disease"):
            assert np.count_nonzero(counts) >= 2

    def test_leaf_count_recorded(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Mondrian().anonymize(table, schema, hierarchies, [KAnonymity(10)])
        assert release.info["n_leaves"] == len(release.partition())


class TestIncognito:
    def test_minimality_by_exhaustive_comparison(self, tiny_table, tiny_schema, tiny_hierarchies):
        """Incognito's minimal nodes match brute-force lattice scanning."""
        from repro.core.generalize import apply_node
        from repro.core.lattice import GeneralizationLattice

        model = KAnonymity(2)
        algo = Incognito()
        minimal = algo.find_minimal_nodes(
            tiny_table, tiny_schema.quasi_identifiers, tiny_hierarchies, [model]
        )
        lattice = GeneralizationLattice.from_hierarchies(
            tiny_hierarchies, tiny_schema.quasi_identifiers
        )
        satisfying = set()
        for node in lattice.nodes():
            candidate = apply_node(
                tiny_table, tiny_hierarchies, tiny_schema.quasi_identifiers, node
            )
            spec = {"model": "k-anonymity", "k": 2}
            if not violations(candidate, tiny_schema.quasi_identifiers, [spec]):
                satisfying.add(node)
        brute_minimal = {
            node
            for node in satisfying
            if not any(
                other != node and all(o <= n for o, n in zip(other, node))
                for other in satisfying
            )
        }
        assert set(minimal) == brute_minimal

    def test_pruning_does_not_change_result(self, tiny_table, tiny_schema, tiny_hierarchies):
        args = (tiny_table, tiny_schema.quasi_identifiers, tiny_hierarchies, [KAnonymity(2)])
        with_pruning = Incognito(use_subset_pruning=True).find_minimal_nodes(*args)
        without = Incognito(use_subset_pruning=False, use_predictive_tagging=False).find_minimal_nodes(*args)
        assert set(with_pruning) == set(without)

    def test_stats_instrumentation(self, tiny_table, tiny_schema, tiny_hierarchies):
        algo = Incognito()
        algo.find_minimal_nodes(
            tiny_table, tiny_schema.quasi_identifiers, tiny_hierarchies, [KAnonymity(2)]
        )
        assert algo.stats["nodes_checked"] > 0
        assert algo.stats["lattice_size"] > 0

    def test_release_satisfies_model(self, tiny_table, tiny_schema, tiny_hierarchies):
        release = Incognito().anonymize(
            tiny_table, tiny_schema, tiny_hierarchies, [KAnonymity(2)]
        )
        assert_k_anonymous(release, 2)

    def test_infeasible_k_raises(self, tiny_table, tiny_schema, tiny_hierarchies):
        with pytest.raises(InfeasibleError):
            Incognito().anonymize(
                tiny_table, tiny_schema, tiny_hierarchies, [KAnonymity(100)]
            )

    def test_custom_score_function(self, tiny_table, tiny_schema, tiny_hierarchies):
        picked = []

        def score(table, node):
            picked.append(node)
            return sum(node)

        Incognito(score=score).anonymize(
            tiny_table, tiny_schema, tiny_hierarchies, [KAnonymity(2)]
        )
        assert picked  # scorer consulted


class TestTopDownSpecialization:
    def test_k_anonymity_postcondition(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = TopDownSpecialization(target="salary").anonymize(
            table, schema, hierarchies, [KAnonymity(5)]
        )
        assert_k_anonymous(release, 5)

    def test_without_target_still_valid(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = TopDownSpecialization().anonymize(
            table, schema, hierarchies, [KAnonymity(5)]
        )
        assert_k_anonymous(release, 5)

    def test_specializes_below_top(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = TopDownSpecialization(target="salary").anonymize(
            table, schema, hierarchies, [KAnonymity(3)]
        )
        heights = [hierarchies[name].height for name in schema.quasi_identifiers]
        assert sum(release.node) < sum(heights)  # something was specialized

    def test_infeasible_even_at_top_raises(self):
        from repro.core.hierarchy import Hierarchy

        table = Table(
            [Column.categorical("qi", ["a", "b"]), Column.categorical("s", ["x", "y"])]
        )
        schema = Schema.build(quasi_identifiers=["qi"], sensitive=["s"])
        with pytest.raises(InfeasibleError):
            TopDownSpecialization().anonymize(
                table, schema, {"qi": Hierarchy.flat(["a", "b"])}, [KAnonymity(5)]
            )


class TestAnatomy:
    def test_groups_are_l_diverse(self, medical_setup):
        table, schema, _ = medical_setup
        release = Anatomy(l=3).anonymize(table, schema, {})
        anatomized = release.info["anatomized"]
        for st_entry in anatomized.st:
            assert len(st_entry) >= 3

    def test_qit_has_group_id_not_sensitive(self, medical_setup):
        table, schema, _ = medical_setup
        release = Anatomy(l=3).anonymize(table, schema, {})
        qit = release.info["anatomized"].qit
        assert "group_id" in qit
        assert "disease" not in qit

    def test_st_counts_match_group_sizes(self, medical_setup):
        table, schema, _ = medical_setup
        anatomized, kept = Anatomy(l=3).anatomize(table, schema)
        for group, st_entry in zip(anatomized.groups, anatomized.st):
            assert sum(st_entry.values()) == group.size

    def test_l_exceeding_distinct_values_raises(self):
        table = Table(
            [Column.categorical("qi", ["a", "b", "c"]), Column.categorical("s", ["x", "x", "x"])]
        )
        schema = Schema.build(quasi_identifiers=["qi"], sensitive=["s"])
        with pytest.raises(InfeasibleError):
            Anatomy(l=2).anonymize(table, schema, {})

    def test_invalid_l_raises(self):
        with pytest.raises(ValueError):
            Anatomy(l=1)

    def test_preserves_exact_qi_values(self, medical_setup):
        table, schema, _ = medical_setup
        anatomized, kept = Anatomy(l=3).anatomize(table, schema)
        original_ages = table.values("age")[kept]
        assert (anatomized.qit.values("age") == original_ages).all()


class TestMDAV:
    def test_group_sizes_between_k_and_2k(self, adult_setup):
        table, schema, hierarchies = adult_setup
        k = 5
        release = MDAVMicroaggregation(k).anonymize(table, schema, hierarchies)
        sizes = [g.size for g in release.info["groups"]]
        assert min(sizes) >= k
        # All but possibly merged leftovers stay below 3k.
        assert np.mean(sizes) < 3 * k

    def test_groups_partition_rows(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = MDAVMicroaggregation(4).anonymize(table, schema, hierarchies)
        covered = np.sort(np.concatenate(release.info["groups"]))
        assert covered.tolist() == list(range(table.n_rows))

    def test_centroid_replacement_preserves_mean(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = MDAVMicroaggregation(5).anonymize(table, schema, hierarchies)
        assert release.table.values("age").mean() == pytest.approx(
            table.values("age").mean()
        )

    def test_mdav_beats_random_grouping_on_sse(self, rng):
        from repro.algorithms.microaggregation import within_group_sse

        matrix = rng.normal(0, 1, (200, 2))
        k = 5
        mdav_groups = MDAVMicroaggregation(k).cluster(matrix)
        order = rng.permutation(200)
        random_groups = [order[i : i + k] for i in range(0, 200, k)]
        assert within_group_sse(matrix, mdav_groups) < within_group_sse(matrix, random_groups)

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            MDAVMicroaggregation(1)

    def test_too_few_rows_raises(self, adult_setup):
        table, schema, hierarchies = adult_setup
        small = table.take(np.arange(3))
        with pytest.raises(InfeasibleError):
            MDAVMicroaggregation(5).anonymize(small, schema, hierarchies)
