"""Engine parity: GroupStats verdicts vs materialized nodes and repro.verify.

The lattice-evaluation engine must be *observably identical* to
materializing every node (apply_node + partition_by_qi): same group sizes
and orderings, every model's ``ok_mask`` failing exactly the classes the
naive verifier (:mod:`repro.verify`) flags on the materialized node, and
byte-identical releases from the searches (Incognito, OLA, Flash, Datafly).
"""

import numpy as np
import pytest

from repro.algorithms import Datafly, Flash, Incognito, OLA
from repro.algorithms.base import suppress_rows
from repro.core import (
    Column,
    GeneralizationLattice,
    Hierarchy,
    IntervalHierarchy,
    LatticeEvaluator,
    Table,
    apply_node,
    classes_from_labels,
    partition_by_qi,
)
from repro.core.cache import EngineCacheStore
from repro.data.synthetic import random_scenario
from repro.errors import ConfigError
from repro.privacy import (
    AlphaKAnonymity,
    BetaLikeness,
    CompositeModel,
    DeltaPresence,
    DistinctLDiversity,
    EntropyLDiversity,
    KAnonymity,
    RecursiveCLDiversity,
    TCloseness,
    emd_hierarchical,
)

SENSITIVE = "sensitive"


def classes_of(stats):
    """A node's equivalence classes, in its stats' group order."""
    return classes_from_labels(stats.row_labels, stats.names, stats.n_rows)


def fast_models():
    return [
        KAnonymity(4),
        DistinctLDiversity(2, SENSITIVE),
        EntropyLDiversity(1.6, SENSITIVE),
        RecursiveCLDiversity(2.0, 2, SENSITIVE),
        TCloseness(0.35, SENSITIVE, ground_distance="equal"),
        TCloseness(0.35, SENSITIVE, ground_distance="ordered"),
        AlphaKAnonymity(0.6, 3, SENSITIVE),
        BetaLikeness(1.5, SENSITIVE),
        CompositeModel(KAnonymity(3), DistinctLDiversity(2, SENSITIVE)),
        CompositeModel(AlphaKAnonymity(0.7, 2, SENSITIVE), BetaLikeness(2.0, SENSITIVE)),
    ]


def scenario(seed, n_rows=180):
    table, schema, hierarchies = random_scenario(
        n_rows=n_rows, n_categorical_qis=2, n_values=8, seed=seed
    )
    return table, schema.quasi_identifiers, hierarchies


class TestGroupStatsParity:
    """The evaluators list the scenarios' unsorted QIs (``qi0, qi1, num``);
    their groups follow the store key's order (``num, qi0, qi1``)."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_partition_matches_legacy_on_every_node(self, seed):
        table, qi, hierarchies = scenario(seed)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        for node in lattice.nodes():
            candidate = apply_node(table, hierarchies, qi, node)
            legacy = partition_by_qi(candidate, sorted(qi))
            stats = evaluator.stats(node)
            assert stats.n_groups == len(legacy)
            assert np.array_equal(stats.sizes, legacy.sizes())
            engine_partition = classes_of(stats)
            assert engine_partition.qi_names == legacy.qi_names
            assert len(engine_partition.groups) == len(legacy.groups)
            for mine, theirs in zip(engine_partition.groups, legacy.groups):
                assert np.array_equal(mine, theirs)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_every_fast_model_agrees_with_legacy_on_every_node(self, seed, flagged_rows):
        """Each model fails exactly the classes repro.verify flags."""
        table, qi, hierarchies = scenario(seed)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        for node in lattice.nodes():
            candidate = apply_node(table, hierarchies, qi, node)
            for model in fast_models():
                expected = flagged_rows(candidate, qi, [model])
                failing = evaluator.failing_rows(node, [model])
                assert np.array_equal(failing, expected), (model.name, node)
                assert evaluator.check(node, [model]) == (not expected.size)

    def test_tcloseness_hierarchical_fast_path(self):
        table, qi, hierarchies = scenario(5)
        sens_hierarchy = Hierarchy.from_tree({"L": ["s0", "s1"], "R": ["s2", "s3"]})
        model = TCloseness(
            0.3, SENSITIVE, ground_distance="hierarchical", hierarchy=sens_hierarchy
        )
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        for node in lattice.nodes():
            candidate = apply_node(table, hierarchies, qi, node)
            partition = partition_by_qi(candidate, sorted(qi))
            global_dist = partition.global_sensitive_distribution(candidate, SENSITIVE)
            scalar = np.array([
                emd_hierarchical(counts / counts.sum(), global_dist, sens_hierarchy)
                for counts in partition.sensitive_counts(candidate, SENSITIVE)
            ])
            stats = evaluator.stats(node)
            assert np.allclose(model.distances(stats), scalar, atol=1e-12)
            assert np.array_equal(model.ok_mask(stats), scalar <= 0.3 + 1e-12)

    def test_subset_projection_matches_legacy(self, flagged_rows):
        """Incognito-style evaluation over a QI subset (names=...)."""
        table, qi, hierarchies = scenario(2)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        for subset in ([qi[0]], [qi[1], qi[2]], [qi[0], qi[2]]):
            lattice = GeneralizationLattice.from_hierarchies(hierarchies, subset)
            for node in lattice.nodes():
                candidate = apply_node(table, hierarchies, subset, node)
                partition = partition_by_qi(candidate, sorted(subset))
                stats = evaluator.stats(node, names=subset)
                assert np.array_equal(stats.sizes, partition.sizes())
                for model in (KAnonymity(4), DistinctLDiversity(2, SENSITIVE)):
                    assert np.array_equal(
                        evaluator.failing_rows(node, [model], names=subset),
                        flagged_rows(candidate, subset, [model]),
                    )

    def test_rollup_matches_from_rows(self):
        """Stats derived by group roll-up equal stats computed from raw rows."""
        table, qi, hierarchies = scenario(4)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
        warm = LatticeEvaluator(table, qi, hierarchies)
        warm.stats(lattice.bottom)  # seed the cache so later nodes roll up
        rolled_up = 0
        for node in lattice.nodes():
            rolled = warm.stats(node)
            fresh = LatticeEvaluator(table, qi, hierarchies).stats(node)
            rolled_up += rolled._parent is not None
            assert np.array_equal(rolled.sizes, fresh.sizes)
            assert np.array_equal(rolled.group_codes, fresh.group_codes)
            assert np.array_equal(
                rolled.histogram(SENSITIVE), fresh.histogram(SENSITIVE)
            )
            for mine, theirs in zip(rolled.value_bounds("num"), fresh.value_bounds("num")):
                assert np.array_equal(mine, theirs)
            for mine, theirs in zip(classes_of(rolled).groups, classes_of(fresh).groups):
                assert np.array_equal(mine, theirs)
        assert rolled_up > 0

    def test_memoized_stats_are_reused(self):
        table, qi, hierarchies = scenario(6)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        node = (1,) * len(qi)
        assert evaluator.stats(node) is evaluator.stats(node)

    def test_failing_row_count_matches_union_of_failing_groups(self, flagged_rows):
        table, qi, hierarchies = scenario(9)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        models = [KAnonymity(6), DistinctLDiversity(2, SENSITIVE)]
        node = (0,) * len(qi)
        candidate = apply_node(table, hierarchies, qi, node)
        expected = flagged_rows(candidate, qi, models).size
        assert evaluator.failing_row_count(node, models) == expected


def _table_fingerprint(table):
    """Deterministic byte-comparable rendering of a table."""
    return [(col.name, tuple(col.decode())) for col in table]


def _legacy_minimal_nodes(table, qi, hierarchies, models, flagged_rows, max_suppression=0.0):
    """Brute-force reference: materialize and verify every lattice node."""
    lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
    satisfying = []
    for node in lattice.nodes():
        candidate = apply_node(table, hierarchies, qi, node)
        n_failing = flagged_rows(candidate, qi, models).size
        if n_failing <= max_suppression * candidate.n_rows:
            satisfying.append(node)
    minimal = [
        node
        for node in satisfying
        if not any(
            other != node and all(o <= n for o, n in zip(other, node))
            for other in satisfying
        )
    ]
    return sorted(minimal)


class TestAlgorithmParity:
    """The rewired searches return exactly what the legacy path returned."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_incognito_and_flash_match_bruteforce_frontier(self, seed, flagged_rows):
        table, schema, hierarchies = random_scenario(n_rows=160, seed=seed)
        qi = schema.quasi_identifiers
        models = [KAnonymity(4)]
        expected = _legacy_minimal_nodes(table, qi, hierarchies, models, flagged_rows)
        assert Incognito().find_minimal_nodes(table, qi, hierarchies, models) == expected
        assert Flash().find_minimal_nodes(table, qi, hierarchies, models) == expected

    @pytest.mark.parametrize("seed", [1, 6])
    def test_incognito_release_is_byte_identical_to_legacy_choice(self, seed, flagged_rows):
        table, schema, hierarchies = random_scenario(n_rows=160, seed=seed)
        qi = schema.quasi_identifiers
        models = [KAnonymity(4), DistinctLDiversity(2, SENSITIVE)]
        minimal = _legacy_minimal_nodes(table, qi, hierarchies, models, flagged_rows)

        def legacy_key(node):
            candidate = apply_node(table.select(qi), hierarchies, qi, node)
            return (sum(node), -len(partition_by_qi(candidate, qi)))

        best = min(minimal, key=legacy_key)
        expected = apply_node(table, hierarchies, qi, best)

        release = Incognito().anonymize(table, schema, hierarchies, models)
        assert release.node == best
        assert release.suppressed == 0
        assert _table_fingerprint(release.table) == _table_fingerprint(expected)

        flash_release = Flash().anonymize(table, schema, hierarchies, models)
        assert flash_release.node == best
        assert _table_fingerprint(flash_release.table) == _table_fingerprint(expected)

    @pytest.mark.parametrize("seed", [2, 9])
    def test_ola_release_matches_legacy_semantics(self, seed, flagged_rows):
        table, schema, hierarchies = random_scenario(n_rows=160, seed=seed)
        qi = schema.quasi_identifiers
        models = [KAnonymity(5)]
        budget = 0.05
        minimal = _legacy_minimal_nodes(table, qi, hierarchies, models, flagged_rows, budget)
        heights = GeneralizationLattice.from_hierarchies(hierarchies, qi).heights
        best_loss = min(OLA._default_loss(node, heights) for node in minimal)

        release = OLA(max_suppression=budget).anonymize(table, schema, hierarchies, models)
        # Legacy OLA broke loss ties by set-iteration order, so pin the
        # frontier and the optimal loss rather than one arbitrary tied node.
        assert release.node in minimal
        assert OLA._default_loss(release.node, heights) == pytest.approx(best_loss)
        candidate = apply_node(table, hierarchies, qi, release.node)
        failing = flagged_rows(candidate, qi, models)
        expected = suppress_rows(candidate, failing, budget)[0] if failing.size else candidate
        assert _table_fingerprint(release.table) == _table_fingerprint(expected)

    @pytest.mark.parametrize("heuristic", ["distinct", "loss"])
    def test_datafly_follows_legacy_greedy_trajectory(self, heuristic, flagged_rows):
        table, schema, hierarchies = random_scenario(n_rows=160, seed=3)
        qi = schema.quasi_identifiers
        models = [KAnonymity(4)]
        heights = [hierarchies[name].height for name in qi]

        # Legacy greedy loop from the pre-engine implementation, with the
        # verdicts read from repro.verify on the materialized node.
        node = [0] * len(qi)
        while True:
            candidate = apply_node(table, hierarchies, qi, node)
            failing = flagged_rows(candidate, qi, models)
            if not failing.size:
                expected, expected_suppressed = candidate, 0
                break
            if failing.size <= 0.05 * candidate.n_rows and failing.size < candidate.n_rows:
                expected, _, expected_suppressed = suppress_rows(candidate, failing, 0.05)
                break
            raisable = [i for i in range(len(qi)) if node[i] < heights[i]]
            if heuristic == "distinct":
                target = max(
                    raisable, key=lambda i: candidate.column(qi[i]).n_distinct()
                )
            else:
                target = max(
                    raisable,
                    key=lambda i: hierarchies[qi[i]]
                    .generalize_column(table.column(qi[i]), node[i] + 1)
                    .n_distinct(),
                )
            node[target] += 1

        release = Datafly(max_suppression=0.05, heuristic=heuristic).anonymize(
            table, schema, hierarchies, models
        )
        assert release.node == tuple(node)
        assert release.suppressed == expected_suppressed
        assert _table_fingerprint(release.table) == _table_fingerprint(expected)


class TestReviewHardening:
    def test_pack_code_columns_overflow_fallback_preserves_grouping(self):
        from repro.core.table import pack_code_columns, split_by_labels

        rng = np.random.default_rng(0)
        columns = [rng.integers(0, 5, 40).astype(np.int64) for _ in range(3)]
        packed = pack_code_columns(columns, [5, 5, 5])
        lexicographic = pack_code_columns(columns, [2**31, 2**31, 2**31])
        for a, b in zip(split_by_labels(packed), split_by_labels(lexicographic)):
            assert np.array_equal(a, b)

    def test_numeric_qi_with_wrong_hierarchy_type_raises_actionable_error(self):
        from repro.errors import HierarchyError

        table, qi, hierarchies = scenario(13, n_rows=50)
        broken = dict(hierarchies)
        broken["num"] = hierarchies[qi[0]]  # a categorical Hierarchy
        with pytest.raises(HierarchyError, match="IntervalHierarchy"):
            LatticeEvaluator(table, qi, broken)

    def test_cache_accounting_survives_lazy_growth_on_evicted_entries(self):
        """Lazy histograms/row labels on evicted GroupStats must not leak
        into the byte budget (which would collapse the cache to one entry),
        and parity must hold under constant eviction pressure."""
        table, qi, hierarchies = scenario(3, n_rows=120)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)

        def grown(evaluator, node):
            stats = evaluator.stats(node)
            stats.histogram(SENSITIVE)
            stats.value_bounds("num")
            stats.row_labels
            return stats

        # Room for four fully grown entries.
        sizing = LatticeEvaluator(table, qi, hierarchies)
        sized = [grown(sizing, node) for node in lattice.nodes()]
        store = EngineCacheStore(
            cache_bytes=4 * max(map(EngineCacheStore.footprint, sized))
        )
        evaluator = LatticeEvaluator(table, qi, hierarchies, cache=store)
        held = []
        for node in lattice.nodes():
            stats = grown(evaluator, node)
            held.append(stats)  # keep evicted entries alive as they grow
            candidate = apply_node(table, hierarchies, qi, node)
            legacy = partition_by_qi(candidate, sorted(qi))
            assert np.array_equal(stats.sizes, legacy.sizes()), node
            for mine, theirs in zip(classes_of(stats).groups, legacy.groups):
                assert np.array_equal(mine, theirs), node
        assert store.counters["evictions"] > 0
        assert store._cached_bytes == sum(store._accounted.values())
        assert len(store) > 1, "cache collapsed — accounting leak"

    def test_js_divergence_finite_on_subnormal_cells(self):
        from repro.metrics.distribution import js_divergence

        p = np.array([5e-324, 1.0, 0.0, 0.0, 0.0])
        q = np.array([0.0, 1.0, 0.0, 0.0, 5e-324])
        value = js_divergence(p, q)
        assert np.isfinite(value)
        assert 0.0 <= value <= np.log(2) + 1e-9


class TestDeltaPresenceFastPath:
    """δ-presence generalizes its population at the node through the
    engine's hierarchies; repro.verify checks the materialized node against
    the population generalized at the same node."""

    def _scenario(self, seed):
        table, qi, hierarchies = scenario(seed, n_rows=140)
        rng = np.random.default_rng(seed)
        # Population = research subset + duplicated rows (same value domain).
        extra = rng.integers(0, table.n_rows, 90)
        population = table.take(np.concatenate([np.arange(table.n_rows), extra]))
        return table, qi, hierarchies, population

    @pytest.mark.parametrize("seed", [0, 4])
    def test_matches_rebound_legacy_on_every_node(self, seed, flagged_rows):
        table, qi, hierarchies, population = self._scenario(seed)
        model = DeltaPresence(0.0, 0.75, population)
        spec = {"model": "delta-presence", "delta_min": 0.0, "delta_max": 0.75}
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        for node in lattice.nodes():
            candidate = apply_node(table, hierarchies, qi, node)
            generalized = apply_node(population, hierarchies, qi, node)
            expected = flagged_rows(candidate, qi, [spec], population=generalized)
            assert np.array_equal(evaluator.failing_rows(node, [model]), expected), node

    def test_unseen_population_values_match_no_group(self):
        table, qi, hierarchies, population = self._scenario(1)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        stats = evaluator.stats((0,) * len(qi))
        counts = stats.external_counts(population)
        # Every research row appears in the population, so every group
        # matches at least its own rows.
        assert (counts >= stats.sizes).all()
        # A population over a disjoint numeric domain matches nothing at
        # level 0 (values absent from the research column).
        from repro.core.table import Column, Table

        shifted = Table(
            [
                table.column(qi[0]),
                table.column(qi[1]),
                Column.numeric("num", table.values("num") + 1e9),
                table.column(SENSITIVE),
            ]
        )
        assert stats.external_counts(shifted).sum() == 0

    def test_composite_with_delta_presence_takes_fast_path(self):
        table, qi, hierarchies, population = self._scenario(2)
        members = (KAnonymity(3), DeltaPresence(0.0, 0.9, population))
        stats = LatticeEvaluator(table, qi, hierarchies).stats((1,) * len(qi))
        assert np.array_equal(
            CompositeModel(*members).ok_mask(stats),
            members[0].ok_mask(stats) & members[1].ok_mask(stats),
        )


class TestEngineCacheTelemetry:
    def test_cache_info_counts_hits_and_sources(self):
        table, qi, hierarchies = scenario(10, n_rows=80)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        bottom = (0,) * len(qi)
        top = tuple(hierarchies[name].height for name in qi)
        evaluator.stats(bottom)
        evaluator.stats(bottom)
        evaluator.stats(top)  # rolls up from the cached bottom
        info = evaluator.cache_info()
        assert info["hits"] == 1
        assert info["from_rows"] == 1
        assert info["rollups"] == 1
        assert info["entries"] == 2
        assert info["bytes"] > 0

    def test_stratum_index_tracks_cache_under_eviction(self):
        table, qi, hierarchies = scenario(7, n_rows=90)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
        # Room for the five largest entries.
        sizing = LatticeEvaluator(table, qi, hierarchies)
        sizes = sorted(
            EngineCacheStore.footprint(sizing.stats(node)) for node in lattice.nodes()
        )
        store = EngineCacheStore(cache_bytes=sum(sizes[-5:]))
        evaluator = LatticeEvaluator(table, qi, hierarchies, cache=store)
        for node in lattice.nodes():
            evaluator.stats(node)
            indexed = {
                (names, node_)
                for names, strata in store._stratum_index.items()
                for nodes in strata.values()
                for node_ in nodes
            }
            assert indexed == set(store.keys())
        assert store.counters["evictions"] > 0

    def test_rollup_prefers_most_general_cached_ancestor(self):
        table, qi, hierarchies = scenario(11, n_rows=80)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        bottom = (0,) * len(qi)
        mid = (1,) + (0,) * (len(qi) - 1)
        evaluator.stats(bottom)
        evaluator.stats(mid)
        top = tuple(hierarchies[name].height for name in qi)
        # The QIs ("qi0", "qi1", "num") are unsorted; the stored entry's
        # levels follow the sorted names ("num", "qi0", "qi1").
        stored = evaluator.stats(top)
        # The mid node lives in a higher stratum than the bottom, so it is
        # the chosen roll-up parent.
        assert stored._parent is not None
        assert stored._parent[0].names == ("num", "qi0", "qi1")
        assert stored._parent[0].node == (0, 1, 0)

    @pytest.mark.parametrize("verdict", ["evaluate", "failing_rows"])
    def test_budgeted_verdict_requests_its_node_once(self, verdict):
        """A suppression-budget verdict reads one stats object: one miss, no
        hit and one ``evaluate-node`` fire on a cold evaluator."""
        from repro.core import faults

        table, qi, hierarchies = scenario(9)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        node = (0,) * len(qi)
        models = [KAnonymity(6), DistinctLDiversity(2, SENSITIVE)]
        # A zero delay without an error fires on every call and raises nothing.
        with faults.injection({"points": {"evaluate-node": {"delay": 0}}}):
            if verdict == "evaluate":
                evaluator.evaluate(node, models, max_suppression=0.05)
            else:
                evaluator.failing_rows(node, models)
            fired = faults.fired()
        info = evaluator.cache_info()
        assert (info["misses"], info["hits"]) == (1, 0)
        assert fired == [("evaluate-node", 1)]


class TestViews:
    """The store keys each node by its sorted names, and every caller reads
    that one entry, whatever order it lists the columns in."""

    def test_every_order_of_every_node_equals_a_from_rows_pass(self):
        import itertools

        table, qi, hierarchies = scenario(12, n_rows=150)
        rng = np.random.default_rng(12)
        population = table.take(
            np.concatenate([np.arange(table.n_rows), rng.integers(0, table.n_rows, 60)])
        )
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        key_names = tuple(sorted(qi))
        fresh = LatticeEvaluator(table, key_names, hierarchies)
        orders = list(itertools.permutations(range(len(qi))))
        # Bottom up, so most stored entries are roll-ups and their rows
        # resolve through a roll-up chain.
        nodes = [node for stratum in lattice.levels() for node in stratum]
        for node in nodes:
            asked = [
                evaluator.stats(tuple(node[i] for i in order), tuple(qi[i] for i in order))
                for order in orders
            ]
            mine = asked[0]
            assert all(stats is mine for stats in asked)
            key_node = tuple(node[qi.index(name)] for name in key_names)
            theirs = fresh._stats_from_rows(key_names, key_node)
            assert (mine.names, mine.node) == (key_names, key_node)
            assert np.array_equal(mine.sizes, theirs.sizes)
            assert np.array_equal(mine.group_codes, theirs.group_codes)
            assert np.array_equal(mine.row_labels, theirs.row_labels)
            assert np.array_equal(mine.histogram(SENSITIVE), theirs.histogram(SENSITIVE))
            for ours, other in zip(mine.value_bounds("num"), theirs.value_bounds("num")):
                assert np.array_equal(ours, other)
            for ours, other in zip(classes_of(mine).groups, classes_of(theirs).groups):
                assert np.array_equal(ours, other)
            assert classes_of(mine).qi_names == classes_of(theirs).qi_names == key_names
            assert np.array_equal(
                mine.external_counts(population), theirs.external_counts(population)
            )
        # One miss per node; the other five orders of it are hits.
        info = evaluator.cache_info()
        assert info["entries"] == info["misses"] == len(nodes)
        assert info["hits"] == (len(orders) - 1) * len(nodes)

    def test_an_evaluator_over_unsorted_qis_is_freed_by_reference_counting(self):
        """Stats point at their store's context, which holds the store only
        weakly, so no GroupStats is left in a reference cycle."""
        import gc

        table, qi, hierarchies = scenario(14, n_rows=100)
        assert list(qi) != sorted(qi)
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            evaluator = LatticeEvaluator(table, qi, hierarchies)
            for node in ((0, 0, 0), (1, 1, 1)):
                classes_of(evaluator.stats(node)).groups
            del evaluator
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [
                type(o).__qualname__
                for o in gc.garbage
                if type(o).__module__.startswith("repro.core")
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert not leaked, leaked


class TestSatelliteChanges:
    def test_decode_handles_tuple_categories(self):
        column = Column.from_codes("c", np.array([0, 1, 0]), [("a", 1), ("b", 2)])
        assert column.decode() == [("a", 1), ("b", 2), ("a", 1)]

    def test_sizes_is_cached_and_consistent(self):
        table, qi, hierarchies = scenario(0, n_rows=60)
        partition = partition_by_qi(table, qi)
        first = partition.sizes()
        assert partition.sizes() is first
        assert int(first.sum()) == table.n_rows
        assert partition.min_size() == int(first.min())


class TestRolledUpHistograms:
    """A rolled-up node sums its parent's histogram only while that has no
    more cells than the table has rows, and counts its rows otherwise;
    either way every count is exact."""

    @pytest.mark.parametrize("order", ["bottom-up", "top-down"])
    def test_every_rolled_up_histogram_equals_counting_rows(self, order):
        table, qi, hierarchies = scenario(5)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        # Strata from the bottom up, so every node above it rolls up from
        # the nearest cached stratum and the chains run through the lattice.
        nodes = [node for stratum in lattice.levels() for node in stratum]
        stats = [evaluator.stats(node) for node in nodes]
        if order == "top-down":
            # Histograms asked for top first: each roll-up forces its
            # parent's histogram on demand.
            stats.reverse()
        codes = table.column(SENSITIVE).codes.astype(np.int64)
        n_cats = len(table.column(SENSITIVE).categories)
        sides = set()
        for node_stats in stats:
            hist = node_stats.histogram(SENSITIVE)
            if node_stats._parent is not None:
                parent = node_stats._parent[0]
                sides.add(parent.n_groups * n_cats <= table.n_rows)
            expected = np.bincount(
                node_stats.row_labels * n_cats + codes,
                minlength=node_stats.n_groups * n_cats,
            ).reshape(node_stats.n_groups, n_cats)
            assert hist.dtype == np.int64
            assert np.array_equal(hist, expected), node_stats.node
        # Parents on both sides of the rule were exercised.
        assert sides == {True, False}


class TestMaterializeFromCodes:
    def _lattice_table(self):
        rng = np.random.default_rng(3)
        # The column's category order differs from the hierarchy's ground
        # order (sorted), so a wrong translation would show.
        order = ["c", "a", "d", "b"]
        table = Table(
            [
                Column.categorical(
                    "cat", [order[i] for i in rng.integers(0, 4, 90)], order
                ),
                Column.numeric("num", rng.normal(50, 20, 90).round()),
                Column.categorical("other", [f"o{i}" for i in rng.integers(0, 3, 90)]),
            ]
        )
        hierarchies = {
            "cat": Hierarchy.from_tree({"ab": ["a", "b"], "cd": ["c", "d"]}),
            "num": IntervalHierarchy.uniform(-50, 150, n_bins=8, merge_factor=2),
        }
        return table, ["cat", "num"], hierarchies

    def test_every_node_equals_apply_node(self):
        table, qi, hierarchies = self._lattice_table()
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
        for node in lattice.nodes():
            mine = evaluator.materialize(node)
            reference = apply_node(table, hierarchies, qi, node)
            assert mine.fingerprint() == reference.fingerprint(), node
            for ours, theirs in zip(mine, reference):
                assert ours.categories == theirs.categories
                for attr in ("codes", "values"):
                    array = getattr(ours, attr)
                    other = getattr(theirs, attr)
                    assert (array is None) == (other is None)
                    if array is not None:
                        assert array.dtype == other.dtype, (node, ours.name)

    def test_publishes_the_given_table_with_the_evaluators_rows(self):
        table, qi, hierarchies = self._lattice_table()
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        stripped = table.drop("other")
        node = (1, 2)
        published = evaluator.materialize(node, table=stripped)
        assert published.column_names == ["cat", "num"]
        assert (
            published.fingerprint()
            == apply_node(stripped, hierarchies, qi, node).fingerprint()
        )
        with pytest.raises(ConfigError, match="holds 90 rows .* has 10"):
            evaluator.materialize(node, table=stripped.head(10))

    def test_jobs_on_one_evaluator_share_each_published_column(self):
        from repro.api import AnonymizationConfig, run_batch

        table, qi, hierarchies = self._lattice_table()
        configs = [
            AnonymizationConfig.from_dict(
                {
                    "quasi_identifiers": ["cat"],
                    "numeric_quasi_identifiers": ["num"],
                    "sensitive": ["other"],
                    "models": [{"model": "k-anonymity", "k": 10}],
                    "algorithm": {"algorithm": algorithm},
                }
            )
            for algorithm in ("flash", "incognito")
        ]
        first, second = run_batch(configs, table, hierarchies=hierarchies)
        assert first.engine is second.engine
        node = first.release.node
        # A numeric QI at level 0 stays the input's column; here both QIs
        # are built from codes.
        assert node == second.release.node and node[1] > 0, node
        reference = apply_node(table, hierarchies, qi, node)
        for result in (first, second):
            published = result.release.table
            assert published.fingerprint() == reference.fingerprint()
            for name in qi:
                dtypes = (published.column(name).codes.dtype, reference.column(name).codes.dtype)
                assert dtypes[0] == dtypes[1], (name, dtypes)
        for name in qi:
            assert first.release.table.column(name) is second.release.table.column(name)
