"""Coverage for Release bookkeeping, the Adult file parser, Incognito with
non-monotone models, and assorted reprs/edge cases."""

import numpy as np
import pytest

from repro import (
    Anonymizer,
    Datafly,
    Incognito,
    KAnonymity,
    MDAVMicroaggregation,
    Mondrian,
    TCloseness,
    TopDownSpecialization,
)
from repro.core.generalize import apply_node
from repro.core.partition import partition_by_qi
from repro.core.release import Release
from repro.core.schema import Schema
from repro.core.table import Column, Table
from repro.data import load_adult_file


class TestRelease:
    def test_summary_fields(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Mondrian().anonymize(table, schema, hierarchies, [KAnonymity(5)])
        summary = release.summary()
        assert summary["rows_published"] == table.n_rows
        assert summary["equivalence_classes"] == len(release.partition())
        assert summary["min_class_size"] >= 5

    def test_suppression_rate_zero_without_original_count(self, adult_setup):
        table, schema, hierarchies = adult_setup
        qi = schema.quasi_identifiers
        release = Release(
            table=apply_node(table, hierarchies, qi, [0] * len(qi)),
            schema=schema,
            algorithm="raw",
        )
        assert release.suppression_rate == 0.0

    def test_partition_cached(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Mondrian().anonymize(table, schema, hierarchies, [KAnonymity(5)])
        assert release.partition() is release.partition()

    @pytest.mark.parametrize("rows", ["all", "none"])
    def test_class_sizes_match_partition_without_building_it(self, adult_setup, rows):
        table, schema, hierarchies = adult_setup
        qi = schema.quasi_identifiers
        published = [
            apply_node(table, hierarchies, qi, [0] * len(qi)),
            apply_node(table, hierarchies, qi, [1] * len(qi)),
            Mondrian().anonymize(table, schema, hierarchies, [KAnonymity(5)]).table,
        ]
        for released in published:
            if rows == "none":
                released = released.take(np.array([], dtype=np.int64))
            expected = partition_by_qi(released, qi).sizes()
            release = Release(table=released, schema=schema, algorithm="any")
            sizes = release.equivalence_class_sizes()
            assert sizes.dtype == expected.dtype
            assert sizes.tolist() == expected.tolist()
            assert release.summary()["equivalence_classes"] == len(expected)
            labels = release.class_labels()
            assert labels is release.class_labels()
            for index, group in enumerate(partition_by_qi(released, qi).groups):
                assert (labels[group] == index).all()
            if rows == "all":
                assert release._partition is None

    @pytest.mark.parametrize(
        "columns, distinct",
        [(3, 4), (3, 900), (8, 900)],
        ids=["dense-rank", "sorted", "radix-overflow"],
    )
    def test_class_labels_number_signatures_as_np_unique(self, columns, distinct):
        rng = np.random.default_rng(distinct)
        names = [f"q{i}" for i in range(columns)]
        released = Table(
            [Column.categorical(name, rng.integers(0, distinct, 1000)) for name in names]
        )
        release = Release(released, Schema.build(quasi_identifiers=names), algorithm="any")
        signature = released.group_signature(names)
        expected = np.unique(signature, return_inverse=True)[1]
        assert release.class_labels().tolist() == expected.tolist()

    def test_suppressed_release_rates(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Datafly(max_suppression=0.10).anonymize(
            table, schema, hierarchies, [KAnonymity(30)]
        )
        assert release.suppressed == table.n_rows - release.n_rows
        assert release.suppression_rate == pytest.approx(
            release.suppressed / table.n_rows
        )
        if release.suppressed:
            assert release.kept_rows is not None
            assert release.kept_rows.shape[0] == release.n_rows


class TestAdultFileParser:
    RAW = (
        "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical,"
        " Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K\n"
        "50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse,"
        " Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, <=50K.\n"
        "38, Private, 215646, HS-grad, 9, Divorced, Handlers-cleaners,"
        " Not-in-family, White, Male, 0, 0, 40, ?, <=50K\n"
    )

    def test_parses_and_skips_missing(self, tmp_path):
        path = tmp_path / "adult.data"
        path.write_text(self.RAW)
        table = load_adult_file(path)
        assert table.n_rows == 2  # third row has '?'
        assert table.column("marital_status").decode() == ["Never-married", "Married"]
        assert table.values("age").tolist() == [39.0, 50.0]
        # Trailing period on salary stripped.
        assert table.column("salary").decode() == ["<=50K", "<=50K"]


class TestIncognitoNonMonotone:
    def test_non_monotone_model_disables_tagging(self, tiny_table, tiny_schema, tiny_hierarchies):
        class Whimsical:
            """Satisfied only at exactly-even total generalization heights."""

            name = "whimsical"
            monotone = False

            def ok_mask(self, stats):
                return stats.sizes >= 2

        algo = Incognito()
        minimal = algo.find_minimal_nodes(
            tiny_table, tiny_schema.quasi_identifiers, tiny_hierarchies, [Whimsical()]
        )
        # Tagging must not have fired for a non-monotone model.
        assert algo.stats["tagged_without_check"] == 0
        assert minimal  # same k=2 semantics, so a frontier exists


class TestFacadeAndReprs:
    def test_utility_report_values(self, adult_setup):
        table, schema, hierarchies = adult_setup
        anonymizer = Anonymizer(table, schema, hierarchies)
        release = anonymizer.apply(KAnonymity(5))
        report = anonymizer.utility_report(release)
        assert set(report) == {"gcp", "discernibility", "c_avg"}

    def test_reprs_are_informative(self):
        assert "k=5" in repr(MDAVMicroaggregation(5))
        assert "strict" in repr(Mondrian())
        assert "0.05" in repr(Datafly())
        assert "salary" in repr(TopDownSpecialization(target="salary"))
        assert "closeness" not in repr(KAnonymity(3))
        assert "0.2" in repr(TCloseness(0.2, "s"))

    def test_model_names_render(self):
        from repro import (
            AlphaKAnonymity,
            DistinctLDiversity,
            EntropyLDiversity,
            KEAnonymity,
            LKCPrivacy,
            RecursiveCLDiversity,
        )

        assert KAnonymity(7).name == "7-anonymity"
        assert "distinct-3" in DistinctLDiversity(3, "d").name
        assert "entropy-2" in EntropyLDiversity(2, "d").name
        assert "(2,3)" in RecursiveCLDiversity(2, 3, "d").name
        assert "(0.6,4)" in AlphaKAnonymity(0.6, 4, "d").name
        assert "(3,10)" in KEAnonymity(3, 10, "d").name
        assert "LKC" in LKCPrivacy(2, 3, 0.5, "d", ["a"]).name


class TestHierarchyEdgeCases:
    def test_interval_repr(self, tiny_hierarchies):
        assert "bins=8" in repr(tiny_hierarchies["age"])

    def test_hierarchy_repr(self, tiny_hierarchies):
        assert "height=2" in repr(tiny_hierarchies["nationality"])
