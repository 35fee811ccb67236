"""End-to-end integration tests across modules."""

import numpy as np
import pytest

from repro import (
    AlphaKAnonymity,
    Anonymizer,
    CompositeModel,
    Datafly,
    DeltaPresence,
    DistinctLDiversity,
    EntropyLDiversity,
    Incognito,
    KAnonymity,
    Mondrian,
    SchemaError,
    TCloseness,
    TopDownSpecialization,
)
from repro.attacks import homogeneity_attack, linkage_risks, simulate_linkage
from repro.core.engine import LatticeEvaluator
from repro.metrics import accuracy_experiment, gcp, non_uniform_entropy


class TestAnonymizerFacade:
    def test_missing_hierarchy_raises(self, adult_small):
        from repro.data import adult_schema

        with pytest.raises(SchemaError, match="no hierarchy"):
            Anonymizer(adult_small, adult_schema(), {})

    def test_default_algorithm_is_mondrian(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Anonymizer(table, schema, hierarchies).apply(KAnonymity(5))
        assert release.algorithm.startswith("mondrian")

    def test_reports(self, adult_setup):
        table, schema, hierarchies = adult_setup
        anon = Anonymizer(table, schema, hierarchies)
        release = anon.apply(KAnonymity(5))
        risk = anon.risk_report(release)
        utility = anon.utility_report(release)
        assert risk["prosecutor_max_risk"] <= 0.2
        assert 0 <= utility["gcp"] <= 1


class TestFullPipelines:
    def test_medical_full_stack(self, medical_setup):
        """The l-diversity paper's scenario end-to-end."""
        table, schema, hierarchies = medical_setup
        anon = Anonymizer(table, schema, hierarchies)
        release = anon.apply(
            KAnonymity(4),
            EntropyLDiversity(2, "disease"),
            TCloseness(0.3, "disease"),
        )
        assert release.equivalence_class_sizes().min() >= 4
        assert homogeneity_attack(release, confidence=0.95)["exposed_fraction"] == 0.0
        assert linkage_risks(release)["prosecutor_max_risk"] <= 0.25

    def test_alpha_k_via_datafly(self, medical_setup):
        table, schema, hierarchies = medical_setup
        release = Datafly(max_suppression=0.1).anonymize(
            table, schema, hierarchies, [AlphaKAnonymity(0.7, 3, "disease")]
        )
        for counts in release.partition().sensitive_counts(release.table, "disease"):
            assert counts.sum() >= 3
            assert counts.max() <= 0.7 * counts.sum() + 1e-9

    def test_delta_presence_pipeline(self, medical_setup):
        """Generalize research + population identically, check presence bound."""
        table, schema, hierarchies = medical_setup
        rng = np.random.default_rng(3)
        member_rows = np.sort(rng.choice(table.n_rows, size=table.n_rows // 3, replace=False))
        research = table.take(member_rows)
        qi = schema.quasi_identifiers
        node = [h.height for h in (hierarchies[n] for n in qi)]
        node = [max(level - 1, 0) for level in node]  # one below top
        model = DeltaPresence(0.0, 0.9, table)
        stats = LatticeEvaluator(research, qi, hierarchies).stats(node)
        beliefs = model.beliefs(stats)
        assert np.isfinite(beliefs).all()
        assert (beliefs <= 1.0 + 1e-9).all()

    def test_composite_model_through_incognito(self, medical_setup):
        table, schema, hierarchies = medical_setup
        model = CompositeModel(KAnonymity(3), DistinctLDiversity(2, "disease"))
        release = Incognito().anonymize(table, schema, hierarchies, [model])
        assert release.equivalence_class_sizes().min() >= 3
        for counts in release.partition().sensitive_counts(release.table, "disease"):
            assert np.count_nonzero(counts) >= 2

    def test_k_sweep_risk_utility_tradeoff(self, adult_setup):
        """Risk falls and loss rises monotonically along the k sweep (E1/E3)."""
        table, schema, hierarchies = adult_setup
        anon = Anonymizer(table, schema, hierarchies)
        risks, losses = [], []
        for k in (2, 5, 15, 40):
            release = anon.apply(KAnonymity(k))
            risks.append(linkage_risks(release)["prosecutor_max_risk"])
            losses.append(gcp(table, release, hierarchies))
        assert risks == sorted(risks, reverse=True)
        assert losses == sorted(losses)

    def test_classification_utility_survives_anonymization(self, adult_setup):
        """E4's shape: anonymized accuracy stays above the majority baseline."""
        table, schema, hierarchies = adult_setup
        release = Anonymizer(table, schema, hierarchies).apply(KAnonymity(10))
        result = accuracy_experiment(table, release, "salary", seed=1)
        assert result["anonymized_accuracy"] >= result["baseline_accuracy"] - 0.05

    def test_tds_preserves_label_information_better_than_datafly(self, adult_setup):
        table, schema, hierarchies = adult_setup
        tds = TopDownSpecialization(target="salary").anonymize(
            table, schema, hierarchies, [KAnonymity(8)]
        )
        datafly = Datafly().anonymize(table, schema, hierarchies, [KAnonymity(8)])
        entropy_tds = non_uniform_entropy(table, tds, hierarchies)
        entropy_datafly = non_uniform_entropy(table, datafly, hierarchies)
        assert entropy_tds <= entropy_datafly + 0.05

    def test_simulated_attack_consistent_with_analytic_risk(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Anonymizer(table, schema, hierarchies).apply(KAnonymity(5))
        simulated = simulate_linkage(table, release, n_targets=150, seed=2)
        analytic = linkage_risks(release)
        assert simulated["unique_match_rate"] <= analytic["prosecutor_max_risk"]
        assert simulated["avg_candidate_set"] >= 5
