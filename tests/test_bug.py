"""Bottom-Up Generalization: greedy AG/IL climbing."""

import pytest

from repro import BottomUpGeneralization, Datafly, DistinctLDiversity, KAnonymity
from repro.algorithms.bug import _target_k
from repro.errors import InfeasibleError
from repro.verify import violations


class TestBottomUp:
    def test_release_satisfies_k(self, adult_setup):
        table, schema, hierarchies = adult_setup
        for k in (2, 5, 20):
            release = BottomUpGeneralization().anonymize(
                table, schema, hierarchies, [KAnonymity(k)]
            )
            assert release.partition().min_size() >= k

    def test_release_satisfies_l_diversity(self, medical_setup):
        table, schema, hierarchies = medical_setup
        models = [KAnonymity(3), DistinctLDiversity(2, schema.sensitive[0])]
        release = BottomUpGeneralization().anonymize(table, schema, hierarchies, models)
        specs = [
            {"model": "k-anonymity", "k": 3},
            {"model": "distinct-l-diversity", "l": 2, "sensitive": schema.sensitive[0]},
        ]
        assert violations(release.table, schema.quasi_identifiers, specs) == []

    def test_node_within_lattice(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = BottomUpGeneralization().anonymize(
            table, schema, hierarchies, [KAnonymity(5)]
        )
        for name, level in zip(schema.quasi_identifiers, release.node):
            assert 0 <= level <= hierarchies[name].height

    def test_trivial_k_stays_at_bottom(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = BottomUpGeneralization().anonymize(
            table, schema, hierarchies, [KAnonymity(1)]
        )
        assert release.node == tuple([0] * len(schema.quasi_identifiers))
        assert release.info["stats"]["steps"] == 0

    def test_stats_track_work(self, adult_setup):
        table, schema, hierarchies = adult_setup
        algo = BottomUpGeneralization()
        algo.anonymize(table, schema, hierarchies, [KAnonymity(10)])
        assert algo.stats["steps"] >= 1
        assert algo.stats["nodes_checked"] >= algo.stats["steps"]
        # Greedy never checks more than the whole lattice.
        assert algo.stats["nodes_checked"] < algo.stats["lattice_size"]

    def test_infeasible_k_raises_without_budget(self, adult_setup):
        table, schema, hierarchies = adult_setup
        with pytest.raises(InfeasibleError):
            BottomUpGeneralization().anonymize(
                table, schema, hierarchies, [KAnonymity(table.n_rows + 1)]
            )

    def test_suppression_budget_rescues_top_node_failure(self, adult_setup):
        table, schema, hierarchies = adult_setup
        # k = n passes only at the top node (single EC), so no suppression
        # is needed there; k = n+1 needs the budget to drop everything —
        # which the budget forbids. Use a huge k with full budget instead.
        release = BottomUpGeneralization(max_suppression=1.0).anonymize(
            table, schema, hierarchies, [KAnonymity(table.n_rows)]
        )
        assert release.partition().min_size() >= table.n_rows - release.suppressed

    def test_comparable_loss_to_datafly(self, adult_setup):
        """BUG's metric-driven greedy should not be wildly worse than Datafly."""
        from repro.metrics import gcp

        table, schema, hierarchies = adult_setup
        k = 10
        bug = BottomUpGeneralization().anonymize(table, schema, hierarchies, [KAnonymity(k)])
        datafly = Datafly(max_suppression=0.0).anonymize(
            table, schema, hierarchies, [KAnonymity(k)]
        )
        loss_bug = gcp(table, bug, hierarchies)
        loss_datafly = gcp(table, datafly, hierarchies)
        assert loss_bug <= loss_datafly * 1.5


class TestTargetK:
    def test_uses_max_k(self):
        assert _target_k([KAnonymity(5), KAnonymity(9)]) == 9

    def test_defaults_without_k(self):
        assert _target_k([]) == 2

    def test_uses_ell_when_no_k(self):
        assert _target_k([DistinctLDiversity(4, "disease")]) == 4
