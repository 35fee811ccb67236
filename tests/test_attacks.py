"""Tests for the attack simulators."""

import numpy as np
import pytest

from repro import (
    Anonymizer,
    DistinctLDiversity,
    KAnonymity,
    Mondrian,
    TCloseness,
)
from repro.attacks import (
    background_knowledge_attack,
    homogeneity_attack,
    intersection_attack,
    journalist_risks,
    linkage_risks,
    membership_attack,
    membership_beliefs,
    simulate_linkage,
    skewness_gain,
)
from repro.core.generalize import apply_node
from repro.core.release import Release


@pytest.fixture(scope="module")
def medical_release(medical_setup_module):
    table, schema, hierarchies = medical_setup_module
    anon = Anonymizer(table, schema, hierarchies)
    return table, schema, hierarchies, anon.apply(KAnonymity(5))


@pytest.fixture(scope="module")
def medical_setup_module():
    from repro.data import load_medical, medical_hierarchies, medical_schema

    return load_medical(n_rows=800, seed=11), medical_schema(), medical_hierarchies()


class TestLinkageRisks:
    def test_prosecutor_max_is_inverse_min_class(self, medical_release):
        table, schema, hierarchies, release = medical_release
        risks = linkage_risks(release)
        k = release.equivalence_class_sizes().min()
        assert risks["prosecutor_max_risk"] == pytest.approx(1.0 / k)

    def test_avg_risk_at_most_max(self, medical_release):
        *_, release = medical_release
        risks = linkage_risks(release)
        assert risks["prosecutor_avg_risk"] <= risks["prosecutor_max_risk"]

    def test_marketer_equals_classes_over_records(self, medical_release):
        *_, release = medical_release
        risks = linkage_risks(release)
        assert risks["marketer_risk"] == pytest.approx(
            len(release.partition()) / release.n_rows
        )

    def test_threshold_fraction(self, medical_release):
        *_, release = medical_release
        # With k=5, every record's risk is <= 0.2.
        assert linkage_risks(release, threshold=0.2)["records_above_threshold"] == 0.0
        assert linkage_risks(release, threshold=0.05)["records_above_threshold"] > 0.0

    def test_risk_decreases_with_k(self, medical_setup_module):
        table, schema, hierarchies = medical_setup_module
        anon = Anonymizer(table, schema, hierarchies)
        risk_small = linkage_risks(anon.apply(KAnonymity(2)))["prosecutor_max_risk"]
        risk_large = linkage_risks(anon.apply(KAnonymity(20)))["prosecutor_max_risk"]
        assert risk_large < risk_small


class TestSimulatedLinkage:
    def test_no_unique_matches_at_k5(self, medical_release):
        table, schema, hierarchies, release = medical_release
        result = simulate_linkage(table, release, n_targets=100, seed=4)
        assert result["unique_match_rate"] == 0.0
        assert result["avg_candidate_set"] >= 5

    def test_raw_release_reidentifies(self, medical_setup_module):
        table, schema, hierarchies = medical_setup_module
        qi = schema.quasi_identifiers
        raw = Release(
            table=apply_node(table, hierarchies, qi, [0] * len(qi)),
            schema=schema,
            algorithm="raw",
            original_n_rows=table.n_rows,
        )
        result = simulate_linkage(table, raw, n_targets=200, seed=4)
        assert result["correct_reidentification_rate"] > 0.3


class TestJournalist:
    def test_population_match_reduces_risk(self, medical_setup_module):
        table, schema, hierarchies = medical_setup_module
        anon = Anonymizer(table, schema, hierarchies)
        release = anon.apply(KAnonymity(5))
        # Population = the release itself twice over -> candidate sets double.
        population = release.table
        risks = journalist_risks(release, population)
        prosecutor = linkage_risks(release)["prosecutor_max_risk"]
        assert risks["journalist_max_risk"] <= prosecutor + 1e-9


class TestHomogeneity:
    def test_k_anonymity_alone_leaks(self, medical_setup_module):
        """The l-diversity paper's motivating observation (E7 shape)."""
        table, schema, hierarchies = medical_setup_module
        anon = Anonymizer(table, schema, hierarchies)
        k_only = anon.apply(KAnonymity(4))
        diverse = anon.apply(KAnonymity(4), DistinctLDiversity(3, "disease"))
        leak_k = homogeneity_attack(k_only, confidence=0.99)["exposed_fraction"]
        leak_l = homogeneity_attack(diverse, confidence=0.99)["exposed_fraction"]
        assert leak_l <= leak_k
        assert leak_l == 0.0  # 3 distinct values => top share < 0.99

    def test_confidence_fields_bounded(self, medical_release):
        *_, release = medical_release
        result = homogeneity_attack(release)
        assert 0.0 <= result["avg_inference_confidence"] <= 1.0
        assert result["avg_inference_confidence"] <= result["max_inference_confidence"]

    @pytest.mark.parametrize("confidence", [0.5, 0.9])
    def test_matches_the_per_class_loop(self, medical_setup_module, confidence):
        table, schema, hierarchies = medical_setup_module
        anon = Anonymizer(table, schema, hierarchies)
        identity = Release(table=table, schema=schema, algorithm="identity")
        for release in (anon.apply(KAnonymity(5)), anon.apply(KAnonymity(2)), identity):
            expected = _homogeneity_loop(release, "disease", confidence)
            assert homogeneity_attack(release, "disease", confidence) == expected


def _homogeneity_loop(release, sensitive, confidence):
    """Reference: one histogram per equivalence class, scored in a loop."""
    partition = release.partition()
    shares, exposed, total = [], 0, 0
    for counts in partition.sensitive_counts(release.table, sensitive):
        size = counts.sum()
        top = counts.max() / size if size else 0.0
        shares.append(top)
        total += int(size)
        if top >= confidence:
            exposed += int(size)
    return {
        "exposed_fraction": exposed / total if total else 0.0,
        "avg_inference_confidence": float(np.mean(shares)) if shares else 0.0,
        "max_inference_confidence": float(np.max(shares)) if shares else 0.0,
    }


class TestBackgroundKnowledge:
    def test_elimination_raises_confidence(self, medical_release):
        *_, release = medical_release
        none = background_knowledge_attack(release, eliminated=0)
        some = background_knowledge_attack(release, eliminated=2)
        assert some["avg_worst_case_confidence"] >= none["avg_worst_case_confidence"]

    def test_l_diversity_resists_b_eliminations(self, medical_setup_module):
        table, schema, hierarchies = medical_setup_module
        anon = Anonymizer(table, schema, hierarchies)
        diverse = anon.apply(KAnonymity(4), DistinctLDiversity(4, "disease"))
        # With 4 distinct values, eliminating 1 still leaves >= 3 candidates
        # unless counts are skewed; full certainty requires eliminating 3.
        result = background_knowledge_attack(diverse, eliminated=1, confidence=1.0)
        assert result["exposed_fraction"] == 0.0


class TestSkewness:
    def test_t_closeness_reduces_skew(self, medical_setup_module):
        table, schema, hierarchies = medical_setup_module
        anon = Anonymizer(table, schema, hierarchies)
        plain = anon.apply(KAnonymity(4))
        close = anon.apply(KAnonymity(4), TCloseness(0.25, "disease"))
        assert (
            skewness_gain(close)["max_emd"] <= skewness_gain(plain)["max_emd"] + 1e-9
        )
        assert skewness_gain(close)["max_emd"] <= 0.25 + 1e-9

    def test_amplification_at_least_one(self, medical_release):
        *_, release = medical_release
        assert skewness_gain(release)["max_belief_amplification"] >= 1.0


class TestMembership:
    def test_beliefs_in_unit_interval(self, medical_setup_module):
        table, schema, hierarchies = medical_setup_module
        anon = Anonymizer(table, schema, hierarchies)
        release = anon.apply(KAnonymity(5))
        qi = schema.quasi_identifiers
        # Population = research data itself => belief 1 everywhere it matches.
        beliefs = membership_beliefs(release, release.table)
        assert ((0 <= beliefs) & (beliefs <= 1)).all()

    def test_attack_advantage_with_disjoint_population(self, medical_setup_module):
        """Members get belief ~1, padding non-members ~0: advantage near 1."""
        table, schema, hierarchies = medical_setup_module
        anon = Anonymizer(table, schema, hierarchies)
        release = anon.apply(KAnonymity(5))
        from repro.core.table import Column, Table

        # Population: the released rows (members) + fabricated rows with a QI
        # signature that cannot occur in the release (non-members).
        released = release.table
        n_fake = 100
        fake_columns = []
        for col in released:
            if col.name in schema.quasi_identifiers and col.is_categorical:
                fake_columns.append(
                    Column.categorical(col.name, ["__ghost__"] * n_fake)
                )
            elif col.is_categorical:
                fake_columns.append(
                    Column.categorical(col.name, [col.categories[0]] * n_fake)
                )
            else:
                fake_columns.append(Column.numeric(col.name, np.full(n_fake, -1.0)))
        fake = Table(fake_columns)

        combined_rows = []
        member_mask = np.zeros(released.n_rows + n_fake, dtype=bool)
        member_mask[: released.n_rows] = True
        population = _vstack(released, fake)
        result = membership_attack(release, population, member_mask)
        assert result["advantage"] > 0.9


def _vstack(a, b):
    """Concatenate two tables with identical column names row-wise."""
    from repro.core.table import Column, Table

    columns = []
    for col_a in a:
        col_b = b.column(col_a.name)
        if col_a.is_categorical:
            columns.append(
                Column.categorical(col_a.name, col_a.decode() + col_b.decode())
            )
        else:
            columns.append(
                Column.numeric(col_a.name, np.concatenate([col_a.values, col_b.values]))
            )
    return Table(columns)


class TestComposition:
    def test_intersection_shrinks_candidate_sets(self, medical_setup_module):
        """E14: two k-anonymous releases jointly violate k."""
        table, schema, hierarchies = medical_setup_module
        anon = Anonymizer(table, schema, hierarchies)
        release_a = anon.apply(KAnonymity(5), algorithm=Mondrian("strict"))
        release_b = anon.apply(KAnonymity(5), algorithm=Mondrian("relaxed"))
        result = intersection_attack(release_a, release_b)
        assert result["n_shared"] == table.n_rows
        assert result["avg_intersection"] < 5  # below k on average
        assert result["below_k_fraction"] > 0.0

    def test_identical_releases_do_not_shrink(self, medical_setup_module):
        table, schema, hierarchies = medical_setup_module
        anon = Anonymizer(table, schema, hierarchies)
        release = anon.apply(KAnonymity(5))
        result = intersection_attack(release, release)
        assert result["min_intersection"] >= 5
        assert result["below_k_fraction"] == 0.0
