"""Flash lattice search: equivalence with Incognito, efficiency, release validity."""

import numpy as np
import pytest

from repro import (
    DistinctLDiversity,
    Flash,
    Incognito,
    KAnonymity,
    partition_by_qi,
)
from repro.api.registry import model_registry
from repro.core.engine import LatticeEvaluator
from repro.errors import InfeasibleError
from repro.verify import violations


class TestFlashMatchesIncognito:
    def test_same_minimal_nodes_k_anonymity(self, adult_setup):
        table, schema, hierarchies = adult_setup
        qi = schema.quasi_identifiers
        for k in (2, 5, 25):
            inc = Incognito().find_minimal_nodes(table, qi, hierarchies, [KAnonymity(k)])
            fl = Flash().find_minimal_nodes(table, qi, hierarchies, [KAnonymity(k)])
            assert set(inc) == set(fl), f"divergence at k={k}"

    def test_same_minimal_nodes_l_diversity(self, medical_setup):
        table, schema, hierarchies = medical_setup
        qi = schema.quasi_identifiers
        models = [KAnonymity(3), DistinctLDiversity(2, schema.sensitive[0])]
        inc = Incognito().find_minimal_nodes(table, qi, hierarchies, models)
        fl = Flash().find_minimal_nodes(table, qi, hierarchies, models)
        assert set(inc) == set(fl)

    def test_fewer_checks_than_naive_scan(self, adult_setup):
        table, schema, hierarchies = adult_setup
        qi = schema.quasi_identifiers
        flash = Flash()
        flash.find_minimal_nodes(table, qi, hierarchies, [KAnonymity(5)])
        assert flash.stats["nodes_checked"] < flash.stats["lattice_size"]
        assert flash.stats["tagged_without_check"] > 0
        assert flash.stats["paths_built"] >= 1

    def test_fewer_checks_than_incognito(self, adult_setup):
        """The headline claim of the Flash paper on this workload."""
        table, schema, hierarchies = adult_setup
        qi = schema.quasi_identifiers
        inc, fl = Incognito(), Flash()
        inc.find_minimal_nodes(table, qi, hierarchies, [KAnonymity(5)])
        fl.find_minimal_nodes(table, qi, hierarchies, [KAnonymity(5)])
        assert fl.stats["nodes_checked"] < inc.stats["nodes_checked"]


class TestFlashRelease:
    def test_release_satisfies_model(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Flash().anonymize(table, schema, hierarchies, [KAnonymity(10)])
        assert release.partition().min_size() >= 10
        assert release.algorithm == "flash"
        assert release.suppressed == 0

    def test_release_node_is_minimal(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Flash().anonymize(table, schema, hierarchies, [KAnonymity(10)])
        minimal = release.info["minimal_nodes"]
        assert release.node in minimal
        # No listed node strictly dominates another (antichain).
        for a in minimal:
            for b in minimal:
                if a != b:
                    assert not all(x <= y for x, y in zip(a, b))

    def test_same_default_choice_as_incognito(self, adult_setup):
        table, schema, hierarchies = adult_setup
        r_inc = Incognito().anonymize(table, schema, hierarchies, [KAnonymity(5)])
        r_fl = Flash().anonymize(table, schema, hierarchies, [KAnonymity(5)])
        assert r_inc.node == r_fl.node

    def test_custom_score_changes_choice(self, adult_setup):
        table, schema, hierarchies = adult_setup
        # Score preferring generalized age (attribute index of 'age' high).
        release = Flash(score=lambda _t, node: -sum(node)).anonymize(
            table, schema, hierarchies, [KAnonymity(5)]
        )
        default = Flash().anonymize(table, schema, hierarchies, [KAnonymity(5)])
        assert sum(release.node) >= sum(default.node)

    def test_impossible_model_raises(self, adult_setup):
        table, schema, hierarchies = adult_setup
        with pytest.raises(InfeasibleError):
            Flash().anonymize(table, schema, hierarchies, [KAnonymity(table.n_rows + 1)])

    def test_rejects_non_monotone_model(self, adult_setup):
        table, schema, hierarchies = adult_setup

        class FakeModel:
            name = "fake"
            monotone = False

            def ok_mask(self, stats):
                return stats.sizes > 0

        with pytest.raises(InfeasibleError, match="monotone"):
            Flash().find_minimal_nodes(
                table, schema.quasi_identifiers, hierarchies, [FakeModel()]
            )

    def test_k_one_returns_bottom(self, adult_setup):
        table, schema, hierarchies = adult_setup
        release = Flash().anonymize(table, schema, hierarchies, [KAnonymity(1)])
        assert release.node == tuple([0] * len(schema.quasi_identifiers))

    def test_suppression_budget_allows_lower_node(self, adult_setup):
        table, schema, hierarchies = adult_setup
        strict = Flash().anonymize(table, schema, hierarchies, [KAnonymity(25)])
        relaxed = Flash(max_suppression=0.05).anonymize(
            table, schema, hierarchies, [KAnonymity(25)]
        )
        assert sum(relaxed.node) <= sum(strict.node)
        # Whatever was kept satisfies the model after suppression.
        assert partition_by_qi(
            relaxed.table, schema.quasi_identifiers
        ).min_size() >= 25


@pytest.mark.parametrize("algorithm", [Flash, Incognito], ids=["flash", "incognito"])
def test_suppression_drops_exactly_the_failing_rows(adult_setup, algorithm):
    # k + distinct-l: merging two classes never adds failing rows, so the
    # searches' pruning is sound under a suppression budget. The released
    # node fails the models outright and is published without the rows of
    # its failing classes.
    table, schema, hierarchies = adult_setup
    qi = schema.quasi_identifiers
    models = [KAnonymity(5), DistinctLDiversity(2, "occupation")]
    release = algorithm(max_suppression=0.05).anonymize(table, schema, hierarchies, models)
    failing = LatticeEvaluator(table, qi, hierarchies).failing_rows(release.node, models)
    assert release.suppressed == failing.size > 0
    assert np.array_equal(release.kept_rows, np.setdiff1d(np.arange(table.n_rows), failing))
    specs = [model_registry.to_spec(model) for model in models]
    assert violations(release.table, qi, specs) == []
