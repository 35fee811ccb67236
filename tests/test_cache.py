"""Engine cache store + batch grouping.

Pins the contracts of the pluggable cache layer and the planner on top:

* :class:`~repro.core.cache.EngineCacheStore` — budget validation, LRU
  eviction under a byte budget (the survivors are always the most recently
  used keys, a budget below one entry keeps the latest, and every node
  reads the same stats at any budget), the full counter set
  (hits / misses / evictions / coalesced / recomputed_after_evict) and the
  inspection methods;
* eviction-under-pressure correctness: a deliberately tiny byte budget
  yields byte-identical releases to an unconstrained run for all four
  full-domain algorithms, sequential and at ``workers=4``;
* ``AnonymizationConfig`` rejects bad ``cache_bytes`` values at validation
  time with the key-naming error style;
* deterministic parallel cache fill: Incognito's pre-seeded subset bottoms
  make the engine's from_rows/rollups profile identical at any worker count;
* the :class:`~repro.api.BatchPlanner`: environment grouping and
  ``workers`` validation, and the CLI engine flag ``--cache-bytes``, which
  binds only the engine jobs of a mixed batch and leaves every output
  unchanged, a one-entry budget included;
* one store per table environment: a batch over overlapping QI sets
  publishes what each job publishes alone and computes each shared column
  subset once, also under racing workers and when jobs list one column set
  in different orders (the store keys entries by sorted names), and an
  evaluator over other columns leaves the entries over columns it lacks
  growing as before, racing δ-presence searches included;
* the store's table environment: a warm batch builds no hierarchy,
  encodes no column and builds no published column, yet publishes what a
  cold run does; evaluators over one store (racing ones included) share
  one hierarchy and encoding per column, another table object rebuilds
  them and takes over the store's one stats context without a from-rows
  pass, a used store is still freed by reference counting, and live
  hierarchy overrides cannot reach an injected store.
"""

import itertools
import json

import numpy as np
import pytest

from repro.api import AnonymizationConfig, BatchPlanner, run, run_batch
from repro.api.executor import _environment_key
from repro.cli import main as cli_main
from repro.core.cache import EngineCacheStore
from repro.core.engine import LatticeEvaluator
from repro.core.hierarchy import Hierarchy
from repro.core.io import read_csv
from repro.core.lattice import GeneralizationLattice
from repro.core.partition import classes_from_labels
from repro.core.table import Column, Table
from repro.data import adult_hierarchies, load_adult
from repro.data.synthetic import random_scenario
from repro.errors import ConfigError
from repro.service.data import release_csv_bytes

CSV_TEXT = (
    "zipcode,job,age,disease\n"
    "13053,engineer,29,flu\n"
    "13068,teacher,31,hiv\n"
    "13053,engineer,35,ulcer\n"
    "13068,nurse,40,flu\n"
    "14850,teacher,22,flu\n"
    "14850,nurse,24,cancer\n"
    "14853,engineer,28,hiv\n"
    "14853,teacher,33,ulcer\n"
)

JOB = {
    "quasi_identifiers": ["zipcode", "job"],
    "numeric_quasi_identifiers": ["age"],
    "sensitive": ["disease"],
    "models": [{"model": "k-anonymity", "k": 2}],
    "algorithm": {"algorithm": "flash"},
}


def _fingerprint(table):
    return table.fingerprint()


def _store_node(qi, node):
    """``node``'s levels in store-key order: the store sorts the QI names
    (the scenarios' ``qi0, qi1, num`` become ``num, qi0, qi1``)."""
    return tuple(node[i] for i in sorted(range(len(qi)), key=qi.__getitem__))


def _scenario(seed, n_rows=160):
    table, schema, hierarchies = random_scenario(
        n_rows=n_rows, n_categorical_qis=2, n_values=8, seed=seed
    )
    return table, schema.quasi_identifiers, hierarchies


def _budget_holding(n, table, qi, hierarchies, nodes):
    """A byte budget that holds any ``n`` of the entries ``nodes`` fill when
    requested in this order, and so evicts once ``n + 1`` are cached."""
    evaluator = LatticeEvaluator(table, qi, hierarchies)
    sizes = sorted(EngineCacheStore.footprint(evaluator.stats(node)) for node in nodes)
    return sum(sizes[-n:])


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(CSV_TEXT)
    return path


@pytest.fixture
def table(csv_path):
    return read_csv(
        csv_path, categorical=["zipcode", "job", "disease"], numeric=["age"]
    )


class TestEngineCacheStore:
    def test_rejects_bad_construction(self):
        for bad in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match="cache_bytes"):
                EngineCacheStore(cache_bytes=bad)
        # The budget is keyword-only: a positional 5 was once a 5-entry cap.
        with pytest.raises(TypeError):
            EngineCacheStore(5)

    def test_misses_equal_computations_and_sum_to_entries(self):
        table, qi, hierarchies = _scenario(0)
        evaluator = LatticeEvaluator(table, qi, hierarchies)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
        for node in lattice.nodes():
            evaluator.stats(node)
        evaluator.stats(lattice.bottom)  # one guaranteed hit
        info = evaluator.cache_info()
        assert info["misses"] == info["from_rows"] + info["rollups"]
        assert info["misses"] == info["entries"] == lattice.size
        assert info["hits"] >= 1
        assert info["recomputed_after_evict"] == 0

    def test_lru_keeps_recently_hit_entries(self):
        table, qi, hierarchies = _scenario(1)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
        nodes = list(lattice.nodes())
        a, b, c, d = nodes[0], nodes[1], nodes[2], nodes[3]
        budget = _budget_holding(3, table, qi, hierarchies, nodes[:4])
        evaluator = LatticeEvaluator(
            table, qi, hierarchies, cache=EngineCacheStore(cache_bytes=budget)
        )
        for node in (a, b, c):
            evaluator.stats(node)
        evaluator.stats(a)  # refresh a: b is now the coldest
        evaluator.stats(d)  # evicts exactly one entry
        cached = {key[1] for key in evaluator.cache.keys()}
        assert cached == {_store_node(qi, node) for node in (a, c, d)}

    def test_lru_counts_rollup_ancestor_reads_as_uses(self):
        """The workhorse bottom is read almost only through the ancestor
        path; that must refresh its recency or it is the first victim."""
        table, qi, hierarchies = _scenario(8)
        bottom = (0,) * len(qi)
        # Pairwise-incomparable nodes: each rolls up from the bottom (its
        # only cached ancestor), touching it before every insertion.
        singles = [
            tuple(1 if i == j else 0 for j in range(len(qi)))
            for i in range(len(qi))
        ]
        budget = _budget_holding(3, table, qi, hierarchies, [bottom, *singles])
        evaluator = LatticeEvaluator(
            table, qi, hierarchies, cache=EngineCacheStore(cache_bytes=budget)
        )
        evaluator.stats(bottom)
        for node in singles:
            evaluator.stats(node)
        cached = {key[1] for key in evaluator.cache.keys()}
        # singles[0] is the true LRU victim.
        assert cached == {bottom} | {_store_node(qi, node) for node in singles[1:]}

    def test_recomputed_after_evict_counts_budget_thrash(self):
        table, qi, hierarchies = _scenario(3)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
        nodes = list(lattice.nodes())[:4]
        budget = _budget_holding(2, table, qi, hierarchies, nodes)
        store = EngineCacheStore(cache_bytes=budget)
        evaluator = LatticeEvaluator(table, qi, hierarchies, cache=store)
        for node in nodes:
            evaluator.stats(node)
        assert store.counters["recomputed_after_evict"] == 0
        for node in nodes:  # the early nodes were evicted by the later ones
            evaluator.stats(node)
        assert store.counters["recomputed_after_evict"] > 0

    def test_a_budget_below_one_entry_keeps_only_the_latest(self):
        """A single entry larger than the budget is kept, not thrashed, and
        the next insertion evicts it."""
        table, qi, hierarchies = _scenario(4)
        lattice = GeneralizationLattice.from_hierarchies(hierarchies, qi)
        store = EngineCacheStore(cache_bytes=1)
        evaluator = LatticeEvaluator(table, qi, hierarchies, cache=store)
        for evicted, node in enumerate(list(lattice.nodes())[:5]):
            stats = evaluator.stats(node)
            assert [key[1] for key in store.keys()] == [_store_node(qi, node)]
            assert store.info()["bytes"] == store.footprint(stats)
            assert store.counters["evictions"] == evicted

    @pytest.mark.parametrize("share", [0.0, 0.25, 0.5])
    def test_answers_and_budget_hold_under_eviction(self, share):
        """However hard the budget evicts, each node reads what an
        unbudgeted store reads, and after every request and every lazy
        growth the store holds at most its budget, or one entry."""
        table, qi, hierarchies = _scenario(5)
        nodes = list(GeneralizationLattice.from_hierarchies(hierarchies, qi).nodes())
        reference = LatticeEvaluator(table, qi, hierarchies)
        for node in nodes:
            reference.stats(node).row_labels
            reference.stats(node).histogram("sensitive")
        budget = max(1, int(share * reference.cache_info()["bytes"]))
        store = EngineCacheStore(cache_bytes=budget)
        evaluator = LatticeEvaluator(table, qi, hierarchies, cache=store)

        def within_budget():
            info = store.info()
            return info["bytes"] <= budget or info["entries"] == 1

        # Up, down and up again: roll-ups from cached ancestors, passes
        # from rows, and recomputations of evicted nodes.
        for node in [*nodes, *nodes[::-1], *nodes]:
            stats, expected = evaluator.stats(node), reference.stats(node)
            assert within_budget()
            assert np.array_equal(stats.sizes, expected.sizes)
            assert np.array_equal(stats.group_codes, expected.group_codes)
            assert np.array_equal(stats.row_labels, expected.row_labels)
            assert within_budget()
            assert np.array_equal(
                stats.histogram("sensitive"), expected.histogram("sensitive")
            )
            assert within_budget()
        assert store.counters["evictions"] > 0
        assert store.counters["recomputed_after_evict"] > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_survivors_are_the_most_recently_used_keys(self, seed):
        """Eviction takes the least recently used entry, wherever it sits
        in the lattice: after every request the store holds, coldest
        first, the last keys of the use order, where a hit, a read as a
        roll-up ancestor and an insertion each count as a use."""
        table, qi, hierarchies = _scenario(10 + seed)
        nodes = list(GeneralizationLattice.from_hierarchies(hierarchies, qi).nodes())
        full = LatticeEvaluator(table, qi, hierarchies)
        for node in nodes:
            full.stats(node)
        store = EngineCacheStore(cache_bytes=full.cache_info()["bytes"] // 3)
        evaluator = LatticeEvaluator(table, qi, hierarchies, cache=store)
        uses = []  # store keys, least recently used first

        def use(key):
            if key in uses:
                uses.remove(key)
            uses.append(key)

        rng = np.random.default_rng(seed)
        for index in rng.integers(0, len(nodes), size=4 * len(nodes)):
            key = (tuple(sorted(qi)), _store_node(qi, nodes[index]))
            cached = key in store
            stats = evaluator.stats(nodes[index])
            if not cached and stats._parent is not None:
                use(stats._parent[0]._cache_key)
            use(key)
            assert list(store.keys()) == uses[-len(store):]
        assert store.counters["evictions"] > 0

    def test_inspection_reports_one_byte_budget(self):
        table, qi, hierarchies = _scenario(2)
        store = EngineCacheStore(cache_bytes=1 << 20)
        LatticeEvaluator(table, qi, hierarchies, cache=store).stats((0,) * len(qi))
        info = store.info()
        assert set(info) == {
            "hits", "misses", "from_rows", "rollups", "evictions", "coalesced",
            "recomputed_after_evict", "entries", "bytes",
        }
        assert store.cache_bytes == 1 << 20
        assert repr(store) == f"EngineCacheStore(1 entries, {info['bytes']} bytes)"


class TestConfigCacheBytes:
    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "256M"])
    def test_invalid_values_rejected_at_config_time(self, bad):
        with pytest.raises(ConfigError, match="cache_bytes"):
            AnonymizationConfig.from_dict({**JOB, "cache_bytes": bad})

    def test_rejected_for_algorithms_without_an_engine(self):
        """A memory bound the algorithm can never consume must not
        validate silently — same guard style as max_suppression."""
        for name in ("mondrian", "tds"):
            with pytest.raises(ConfigError, match="cache_bytes"):
                AnonymizationConfig.from_dict(
                    {
                        **JOB,
                        "algorithm": {"algorithm": name},
                        "cache_bytes": 1 << 20,
                    }
                )

    def test_valid_budget_round_trips(self):
        config = AnonymizationConfig.from_dict({**JOB, "cache_bytes": 1 << 20})
        assert config.cache_bytes == 1 << 20
        assert AnonymizationConfig.from_json(config.to_json()) == config

    def test_run_builds_budgeted_evaluator(self, table):
        config = AnonymizationConfig.from_dict({**JOB, "cache_bytes": 1 << 20})
        result = run(config, table)
        assert result.engine is not None
        assert result.engine.cache.cache_bytes == 1 << 20

    def test_jobs_with_different_budgets_get_different_engines(self, table):
        config_a = AnonymizationConfig.from_dict({**JOB, "cache_bytes": 1 << 20})
        config_b = AnonymizationConfig.from_dict({**JOB, "cache_bytes": 2 << 20})
        results = run_batch([config_a, config_b], table)
        assert results[0].engine is not results[1].engine
        assert results[0].engine.cache.cache_bytes == 1 << 20
        assert results[1].engine.cache.cache_bytes == 2 << 20


class TestEvictionUnderPressureCorrectness:
    """Byte-identical releases under a deliberately tiny byte budget."""

    ALGORITHMS = ("incognito", "ola", "flash", "datafly")

    def _configs(self, cache_bytes=None):
        qis = ["workclass", "education", "marital_status"]
        base = {
            "quasi_identifiers": qis,
            "sensitive": ["salary"],
            "models": [{"model": "k-anonymity", "k": 4}],
        }
        if cache_bytes is not None:
            base["cache_bytes"] = cache_bytes
        return [
            AnonymizationConfig.from_dict(
                {**base, "algorithm": {"algorithm": name}}
            )
            for name in self.ALGORITHMS
        ]

    @pytest.fixture(scope="class")
    def adult(self):
        return load_adult(n_rows=800, seed=3)

    @pytest.fixture(scope="class")
    def hierarchies(self):
        keep = ("workclass", "education", "marital_status")
        return {
            name: hierarchy
            for name, hierarchy in adult_hierarchies().items()
            if name in keep
        }

    @pytest.fixture(scope="class")
    def reference(self, adult, hierarchies):
        return run_batch(self._configs(), adult, hierarchies=hierarchies)

    @pytest.fixture(scope="class")
    def tiny(self, reference):
        """Half the unconstrained store's bytes, as E37 sets its budget: the
        four jobs share one store, so this forces eviction mid-run."""
        (store,) = {id(r.engine.cache): r.engine.cache for r in reference}.values()
        return store.info()["bytes"] // 2

    def test_tiny_budget_releases_byte_identical(
        self, adult, hierarchies, reference, tiny
    ):
        squeezed = run_batch(self._configs(tiny), adult, hierarchies=hierarchies)
        evicted = 0
        for ref, sq in zip(reference, squeezed):
            assert ref.release.node == sq.release.node
            assert _fingerprint(ref.release.table) == _fingerprint(sq.release.table)
            evicted += sq.engine.cache_info()["evictions"]
        assert evicted > 0, "budget was not actually under pressure"

    def test_tiny_budget_parallel_matches_sequential(self, adult, hierarchies, tiny):
        sequential = run_batch(self._configs(tiny), adult, hierarchies=hierarchies)
        parallel = run_batch(
            self._configs(tiny), adult, hierarchies=hierarchies, workers=4
        )
        for seq, par in zip(sequential, parallel):
            assert seq.release.node == par.release.node
            assert _fingerprint(seq.release.table) == _fingerprint(par.release.table)


class TestIncognitoDeterministicCacheFill:
    def _configs(self):
        base = {
            "quasi_identifiers": ["workclass", "education", "marital_status"],
            "sensitive": ["salary"],
            "algorithm": {"algorithm": "incognito"},
        }
        return [
            AnonymizationConfig.from_dict(
                {**base, "models": [{"model": "k-anonymity", "k": k}]}
            )
            for k in (3, 7, 15)
        ]

    @pytest.fixture(scope="class")
    def adult(self):
        return load_adult(n_rows=500, seed=11)

    @pytest.fixture(scope="class")
    def curated(self):
        return adult_hierarchies()

    def test_parallel_profile_equals_sequential_profile(self, adult, curated):
        sequential = run_batch(self._configs(), adult, hierarchies=curated)
        seq_info = sequential[0].engine.cache_info()
        for workers in (2, 4):
            parallel = run_batch(
                self._configs(), adult, hierarchies=curated, workers=workers
            )
            par_info = parallel[0].engine.cache_info()
            assert par_info["from_rows"] == seq_info["from_rows"]
            assert par_info["rollups"] == seq_info["rollups"]
            for seq, par in zip(sequential, parallel):
                assert _fingerprint(seq.release.table) == _fingerprint(
                    par.release.table
                )

    def test_preseed_pins_from_rows_to_subset_bottoms(self, adult, curated):
        results = run_batch(self._configs(), adult, hierarchies=curated)
        info = results[0].engine.cache_info()
        # 3 QIs -> 7 subset bottoms; the release phase reads the full
        # subset's entries, whatever the QI order. Everything else rolls up.
        assert info["from_rows"] == 2**3 - 1
        assert info["recomputed_after_evict"] == 0
        assert info["misses"] == info["from_rows"] + info["rollups"]


class TestBatchPlanner:
    @pytest.mark.parametrize(
        "bad", [0, -3, 2.7, True, "2"], ids=["zero", "negative", "float", "bool", "str"]
    )
    def test_rejects_bad_workers(self, table, bad):
        with pytest.raises(
            ConfigError, match=r"key 'workers' must be a positive integer, got"
        ):
            BatchPlanner([AnonymizationConfig.from_dict(JOB)], table, workers=bad)
        with pytest.raises(ConfigError, match="'workers'"):
            run_batch([AnonymizationConfig.from_dict(JOB)], table, workers=bad)

    def test_plan_groups_jobs_by_environment(self, table):
        """Jobs sharing QI roles and hierarchy specs share one evaluator;
        the plan lists each environment's jobs in first-appearance order."""
        env_b = {**JOB, "quasi_identifiers": ["zipcode"]}
        configs = [
            AnonymizationConfig.from_dict(spec)
            for spec in (
                JOB,
                env_b,
                {**JOB, "models": [{"model": "k-anonymity", "k": 3}]},
                {**JOB, "algorithm": {"algorithm": "ola"}},
                {**env_b, "models": [{"model": "k-anonymity", "k": 3}]},
            )
        ]
        planner = BatchPlanner(configs, table, workers=2)
        assert planner.plan().environments == ((0, 2, 3), (1, 4))
        results = planner.execute()
        engines = [result.engine for result in results]
        assert engines[0] is engines[2] is engines[3]
        assert engines[1] is engines[4] and engines[1] is not engines[0]


def _shared_table(n_rows=600, seed=5):
    rng = np.random.default_rng(seed)
    zipcodes = [f"{p}{s:02d}" for p in ("130", "148", "606") for s in range(0, 40, 10)]
    return Table(
        [
            Column.categorical("zipcode", rng.choice(zipcodes, n_rows)),
            Column.categorical("job", rng.choice([f"j{i}" for i in range(6)], n_rows)),
            Column.categorical("sex", rng.choice(["F", "M"], n_rows)),
            Column.categorical("edu", rng.choice([f"e{i}" for i in range(5)], n_rows)),
            Column.numeric("age", rng.integers(18, 80, n_rows)),
            Column.categorical("disease", rng.choice([f"d{i}" for i in range(4)], n_rows)),
        ]
    )


#: QI sets that share columns: (categorical QIs, numeric QIs).
SHARED_QI_SETS = (
    (["zipcode", "job"], ["age"]),
    (["zipcode", "sex"], ["age"]),
    (["job", "sex", "edu"], []),
)

SHARED_MODELS = (
    [{"model": "k-anonymity", "k": 4}],
    [
        {"model": "k-anonymity", "k": 3},
        {"model": "distinct-l-diversity", "l": 2, "sensitive": "disease"},
    ],
    [
        {"model": "k-anonymity", "k": 2},
        {"model": "t-closeness", "t": 0.3, "sensitive": "disease"},
    ],
)


def _shared_config(qis, numeric, algorithm, models):
    return AnonymizationConfig.from_dict(
        {
            "quasi_identifiers": qis,
            "numeric_quasi_identifiers": numeric,
            "sensitive": ["disease"],
            "models": models,
            "algorithm": {"algorithm": algorithm},
            "max_suppression": 0.05,
        }
    )


def _bottoms(qi_names):
    """The column sets whose bottoms Incognito requests: each sorted subset
    (its release phase reads the full set's entries under the same key)."""
    return {
        subset
        for size in range(1, len(qi_names) + 1)
        for subset in itertools.combinations(sorted(qi_names), size)
    }


def _store_totals(results):
    """Counters and occupancy summed over the distinct stores of a batch."""
    stores = {id(r.engine.cache): r.engine.cache for r in results if r.engine}
    totals = {"stores": len(stores)}
    for store in stores.values():
        for key, value in store.info().items():
            totals[key] = totals.get(key, 0) + value
    return totals


class TestCrossQISharing:
    """One store per table environment, shared by the evaluators of every
    QI set: node statistics depend only on the rows and on the columns'
    hierarchies and levels, so sharing them changes no release."""

    ALGORITHMS = ("flash", "incognito", "ola", "datafly")

    def test_batch_over_qi_sets_equals_each_job_alone(self):
        table = _shared_table()
        configs = [
            _shared_config(qis, numeric, algorithm, models)
            for qis, numeric in SHARED_QI_SETS
            for algorithm in self.ALGORITHMS
            for models in SHARED_MODELS
        ]
        results = run_batch(configs, table, workers=2)
        assert _store_totals(results)["stores"] == 1
        assert len({id(r.engine) for r in results}) == len(SHARED_QI_SETS)
        for config, result in zip(configs, results):
            alone = run(config, table)
            assert result.node == alone.node, config.to_dict()
            assert result.suppressed == alone.suppressed
            assert _fingerprint(result.release.table) == _fingerprint(alone.release.table)

    def test_delta_presence_over_shared_store_equals_each_job_alone(self):
        from concurrent.futures import ThreadPoolExecutor

        from repro.api import algorithm_registry, build_hierarchies, build_schema, execute
        from repro.privacy import DeltaPresence, KAnonymity

        table = _shared_table()
        rng = np.random.default_rng(1)
        population = table.take(
            np.concatenate([np.arange(table.n_rows), rng.integers(0, table.n_rows, 400)])
        )
        store = EngineCacheStore()
        jobs = []
        for qis, numeric in SHARED_QI_SETS:
            config = _shared_config(qis, numeric, "flash", [{"model": "k-anonymity", "k": 2}])
            schema = build_schema(config, table)
            hierarchies = build_hierarchies(config, table)
            evaluator = LatticeEvaluator(
                table, schema.quasi_identifiers, hierarchies, cache=store
            )
            for algorithm in self.ALGORITHMS:
                jobs.append((schema, hierarchies, algorithm, evaluator))

        def job(entry, evaluator=None):
            schema, hierarchies, algorithm, _ = entry
            models = [KAnonymity(2), DeltaPresence(0.0, 0.9, population)]
            instance = algorithm_registry.from_spec({"algorithm": algorithm})
            instance.max_suppression = 0.05
            return execute(
                table, schema, hierarchies, models, instance, evaluator=evaluator
            )

        with ThreadPoolExecutor(max_workers=2) as pool:
            shared = list(pool.map(lambda entry: job(entry, entry[3]), jobs))
        assert all(result.engine.cache is store for result in shared)
        for entry, result in zip(jobs, shared):
            alone = job(entry)
            assert result.node == alone.node
            assert _fingerprint(result.release.table) == _fingerprint(alone.release.table)

    def _incognito_pair(self):
        return [
            _shared_config(["zipcode", "job"], ["age"], "incognito",
                           [{"model": "k-anonymity", "k": 3}]),
            _shared_config(["zipcode", "job", "sex"], [], "incognito",
                           [{"model": "k-anonymity", "k": 3}]),
        ]

    def test_incognito_computes_each_shared_subset_once(self):
        table = _shared_table()
        results = run_batch(self._incognito_pair(), table)
        assert results[0].engine is not results[1].engine
        assert results[0].engine.cache is results[1].engine.cache
        totals = _store_totals(results)
        distinct = _bottoms(["zipcode", "job", "age"]) | _bottoms(["zipcode", "job", "sex"])
        assert totals["stores"] == 1
        assert totals["from_rows"] == len(distinct) == 11
        assert totals["evictions"] == 0
        assert totals["from_rows"] + totals["rollups"] == totals["entries"]

    def test_racing_workers_compute_each_node_once(self):
        import sys
        import threading

        table = _shared_table()
        configs = self._incognito_pair() + [
            _shared_config(qis, numeric, algorithm, [{"model": "k-anonymity", "k": k}])
            for qis, numeric in (SHARED_QI_SETS[0], (["zipcode", "job", "sex"], []))
            for algorithm in ("incognito", "flash")
            for k in (2, 5)
        ]
        sequential = run_batch(configs, table)
        out = {}

        def parallel():
            out["results"] = run_batch(configs, table, workers=4)

        thread = threading.Thread(target=parallel, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive(), "the parallel batch did not finish in 120 s"
        racing = out["results"]
        for alone, raced in zip(sequential, racing):
            assert raced.node == alone.node
            assert _fingerprint(raced.release.table) == _fingerprint(alone.release.table)
        totals = _store_totals(racing)
        assert totals["stores"] == 1 and totals["evictions"] == 0
        assert totals["from_rows"] + totals["rollups"] == totals["entries"]
        assert totals["from_rows"] == _store_totals(sequential)["from_rows"]

    def _two_orders(self):
        """One column set listed in two orders, plus a subset of it."""
        return [
            _shared_config(["zipcode", "job"], ["age"], "flash",
                           [{"model": "k-anonymity", "k": 3}]),
            _shared_config(["job", "zipcode"], ["age"], "incognito",
                           [{"model": "k-anonymity", "k": 3}]),
            _shared_config(["job", "zipcode"], [], "datafly",
                           [{"model": "k-anonymity", "k": 3}]),
        ]

    def test_one_column_set_in_two_orders_shares_its_entries(self):
        table = _shared_table()
        configs = self._two_orders()
        results = run_batch(configs, table)
        totals = _store_totals(results)
        # Incognito's subsets cover every column set of the batch, and
        # each is computed from rows once, whatever order a job lists it in.
        assert totals["stores"] == 1 and totals["evictions"] == 0
        assert totals["from_rows"] == len(_bottoms(["zipcode", "job", "age"])) == 7
        assert totals["from_rows"] + totals["rollups"] == totals["entries"]
        for config, result in zip(configs, results):
            alone = run(config, table)
            assert result.node == alone.node, config.to_dict()
            assert result.suppressed == alone.suppressed
            assert _fingerprint(result.release.table) == _fingerprint(alone.release.table)

    def test_racing_workers_over_two_orders_match_sequential(self):
        import sys
        import threading

        table = _shared_table()
        configs = self._two_orders()
        sequential = run_batch(configs, table)
        out = {}

        def parallel():
            out["results"] = run_batch(configs, table, workers=4)

        thread = threading.Thread(target=parallel, daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive(), "the parallel batch did not finish in 120 s"
        racing = out["results"]
        for alone, raced in zip(sequential, racing):
            assert raced.node == alone.node
            assert _fingerprint(raced.release.table) == _fingerprint(alone.release.table)
        totals = _store_totals(racing)
        assert totals["stores"] == 1 and totals["evictions"] == 0
        assert totals["from_rows"] + totals["rollups"] == totals["entries"]

    def test_searches_over_unsorted_qis_read_stored_entries(self, monkeypatch):
        """Every stats object a search over unsorted QIs reads is the stored
        entry of its store key, so its groups follow the sorted names."""
        from repro.api import build_hierarchies

        seen = []
        stats = LatticeEvaluator.stats

        def spy(self, node, names=None):
            result = stats(self, node, names)
            seen.append((self.cache, result))
            return result

        monkeypatch.setattr(LatticeEvaluator, "stats", spy)
        table = _shared_table()
        for algorithm in ("flash", "ola", "incognito", "datafly", "bottom-up"):
            config = _shared_config(["zipcode", "job"], ["age"], algorithm,
                                    [{"model": "k-anonymity", "k": 3}])
            assert run(config, table).release.table.n_rows > 0
        assert len({id(store) for store, _ in seen}) == 5
        for store, result in seen:
            assert result.names == tuple(sorted(result.names))
            assert store.info()["evictions"] == 0
            assert store._entries[result._cache_key] is result
        # Stats asked for in QI order are the stored entry's too, whose
        # classes follow the sorted names.
        evaluator = LatticeEvaluator(
            table, ["zipcode", "job", "age"], build_hierarchies(config, table)
        )
        entry = evaluator.stats((1, 0, 2))
        classes = classes_from_labels(entry.row_labels, entry.names, entry.n_rows)
        assert classes.qi_names == ("age", "job", "zipcode")
        assert entry is evaluator.stats((2, 0, 1), ("age", "job", "zipcode"))
        assert evaluator.cache._entries[entry._cache_key] is entry

    def _delta_setup(self):
        from repro.api import build_hierarchies

        table = _shared_table()
        population = table.take(np.concatenate([np.arange(table.n_rows)] * 2))
        hierarchies = build_hierarchies(
            _shared_config(["zipcode", "job", "sex"], ["age"], "flash",
                           [{"model": "k-anonymity", "k": 2}]),
            table,
        )
        return table, population, hierarchies

    def test_entries_over_columns_a_later_evaluator_lacks_keep_growing(self):
        from repro.privacy import DeltaPresence

        table, population, hierarchies = self._delta_setup()
        store = EngineCacheStore()
        first = LatticeEvaluator(table, ["zipcode", "job", "age"], hierarchies, cache=store)
        nodes = [(0, 0, 0), (1, 1, 1)]
        for node in nodes:
            first.check(node, [DeltaPresence(0.0, 1.0, population)])
        # A later request over other columns of the same data shares the
        # store's one context.
        second = LatticeEvaluator(table, ["zipcode", "sex"], hierarchies, cache=store)
        assert second.context is first.context
        # A refreshed population table makes the stats count through the
        # context again; entries over "job" and "age" must still resolve,
        # and grow their other payload too.
        refreshed = population.take(np.arange(population.n_rows))
        reference = LatticeEvaluator(table, ["zipcode", "job", "age"], hierarchies)
        for node in nodes:
            mine, theirs = first.stats(node), reference.stats(node)
            assert mine._context is second.context
            assert np.array_equal(
                mine.external_counts(refreshed), theirs.external_counts(refreshed)
            )
            assert np.array_equal(mine.histogram("disease"), theirs.histogram("disease"))
            for ours, other in zip(mine.value_bounds("age"), theirs.value_bounds("age")):
                assert np.array_equal(ours, other)

    def test_racing_delta_presence_searches_over_two_qi_sets(self):
        """Two Flash searches with δ-presence over QI sets that differ in a
        column race on one store, each building its evaluator as the other
        runs: each publishes what it publishes alone."""
        import sys
        import threading

        from repro.algorithms import Flash
        from repro.api import build_schema, execute
        from repro.privacy import DeltaPresence, KAnonymity

        table, population, hierarchies = self._delta_setup()
        schemas = [
            build_schema(
                _shared_config(qis, ["age"], "flash", [{"model": "k-anonymity", "k": 2}]),
                table,
            )
            for qis in (["zipcode", "job"], ["zipcode", "sex"])
        ]

        def job(schema, store=None):
            evaluator = None
            if store is not None:
                evaluator = LatticeEvaluator(
                    table, schema.quasi_identifiers, hierarchies, cache=store
                )
            models = [KAnonymity(2), DeltaPresence(0.0, 0.9, population)]
            return execute(
                table, schema, hierarchies, models, Flash(max_suppression=0.05),
                evaluator=evaluator,
            )

        store = EngineCacheStore()
        start = threading.Barrier(len(schemas))
        out = {}

        def racer(index):
            start.wait(timeout=60)
            out[index] = job(schemas[index], store)

        threads = [
            threading.Thread(target=racer, args=(index,), daemon=True)
            for index in range(len(schemas))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(out) == len(schemas)
        for index, schema in enumerate(schemas):
            alone = job(schema)
            assert out[index].engine.cache is store
            assert out[index].node == alone.node
            assert release_csv_bytes(out[index].release.table) == release_csv_bytes(
                alone.release.table
            )


def _warm_config(algorithm, qis=("zipcode", "job"), numeric=("age",)):
    spec = {
        "quasi_identifiers": list(qis),
        "numeric_quasi_identifiers": list(numeric),
        "sensitive": ["disease"],
        "models": [{"model": "k-anonymity", "k": 4}],
        "algorithm": algorithm,
    }
    if algorithm["algorithm"] != "mondrian":  # it has no suppression budget
        spec["max_suppression"] = 0.05
    return AnonymizationConfig.from_dict(spec)


def _count_environment_builds(monkeypatch):
    """Record every hierarchy build, QI encoding and published QI column
    from now on."""
    import repro.api.config as config_module
    import repro.core.engine as engine_module

    calls = []
    for name in ("_build_categorical", "_build_interval"):
        def counted(column_name, *args, _build=getattr(config_module, name)):
            calls.append(("hierarchy", column_name))
            return _build(column_name, *args)

        monkeypatch.setattr(config_module, name, counted)
    encode = LatticeEvaluator._encode_qi

    def counted_encode(self, name):
        calls.append(("encode", name))
        return encode(self, name)

    monkeypatch.setattr(LatticeEvaluator, "_encode_qi", counted_encode)

    class CountedColumn:
        @staticmethod
        def from_codes(name, codes, categories):
            calls.append(("publish", name))
            return Column.from_codes(name, codes, categories)

    monkeypatch.setattr(engine_module, "Column", CountedColumn)
    return calls


class TestWarmEnvironment:
    """A store keeps its table environment: a later batch over the same
    table object reuses its hierarchies and QI encodings."""

    ALGORITHMS = (
        {"algorithm": "flash"},
        {"algorithm": "ola"},
        {"algorithm": "incognito"},
        {"algorithm": "datafly"},
        {"algorithm": "mondrian", "mode": "relaxed"},
    )

    @pytest.mark.parametrize(
        "algorithm", ALGORITHMS, ids=[a["algorithm"] for a in ALGORITHMS]
    )
    def test_warm_batch_builds_and_encodes_nothing(self, monkeypatch, algorithm):
        table = _shared_table()
        config = _warm_config(algorithm)
        stores = {_environment_key(config)[0]: EngineCacheStore()}
        calls = _count_environment_builds(monkeypatch)
        run_batch([config], table, cache_stores=stores)
        assert ("hierarchy", "zipcode") in calls
        if algorithm["algorithm"] != "mondrian":  # the lattice searches encode
            assert ("encode", "zipcode") in calls and ("publish", "zipcode") in calls
        calls.clear()
        warm = run_batch([config], table, cache_stores=stores)
        assert calls == []
        cold = run(config, table)
        assert warm[0].node == cold.node
        assert release_csv_bytes(warm[0].release.table) == release_csv_bytes(
            cold.release.table
        )

    def test_evaluators_over_one_store_share_each_column_encoding(self):
        table = _shared_table()
        configs = [
            _warm_config({"algorithm": "flash"}),
            _warm_config({"algorithm": "flash"}, qis=("zipcode", "sex")),
        ]
        first, second = (result.engine for result in run_batch(configs, table))
        assert first is not second and first.cache is second.cache
        for name in ("zipcode", "age"):
            assert first._encodings[name] is second._encodings[name]
            assert first.hierarchies[name] is second.hierarchies[name]
        assert sorted(first.cache._encodings) == ["age", "job", "sex", "zipcode"]

    def test_encodings_are_reused_only_for_the_same_column_and_hierarchy(self):
        from repro.api import build_hierarchies

        table = _shared_table()
        qi = ["zipcode", "job", "age"]
        hierarchies = build_hierarchies(_warm_config({"algorithm": "flash"}), table)
        store = EngineCacheStore()
        first = LatticeEvaluator(table, qi, hierarchies, cache=store)
        # Dropping a column keeps the other Column objects: reused.
        again = LatticeEvaluator(table.drop("sex"), qi, hierarchies, cache=store)
        assert all(again._encodings[name] is first._encodings[name] for name in qi)
        # Other rows under the same hierarchies, or another hierarchy for
        # one column, get encodings of their own.
        reversed_rows = table.take(np.arange(table.n_rows)[::-1])
        flat = {
            **hierarchies,
            "zipcode": Hierarchy.flat(sorted(table.column("zipcode").value_counts())),
        }
        for other_table, other_hierarchies, changed in (
            (table, flat, ["zipcode"]),
            (reversed_rows, hierarchies, qi),
        ):
            other = LatticeEvaluator(other_table, qi, other_hierarchies, cache=store)
            fresh = LatticeEvaluator(other_table, qi, other_hierarchies)
            for name in changed:
                assert other._encodings[name] is not first._encodings[name]
                mine, theirs = other._encodings[name], fresh._encodings[name]
                assert np.array_equal(mine.base_codes, theirs.base_codes)
                assert mine.n_labels == theirs.n_labels

    def test_another_table_with_equal_content_rebuilds(self, monkeypatch):
        import gc
        import weakref

        table = _shared_table()
        twin = table.take(np.arange(table.n_rows))  # equal content, new objects
        config = _warm_config({"algorithm": "flash"})
        stores = {_environment_key(config)[0]: EngineCacheStore()}
        first = run_batch([config], table, cache_stores=stores)[0]
        calls = _count_environment_builds(monkeypatch)
        from_rows = first.engine.cache_info()["from_rows"]
        second = run_batch([config], twin, cache_stores=stores)[0]
        assert sorted(call for call in calls if call[0] != "publish") == [
            ("encode", "age"), ("encode", "job"), ("encode", "zipcode"),
            ("hierarchy", "age"), ("hierarchy", "job"), ("hierarchy", "zipcode"),
        ]
        assert second.engine.cache is first.engine.cache
        assert second.engine._encodings["zipcode"] is not first.engine._encodings["zipcode"]
        assert _fingerprint(second.release.table) == _fingerprint(first.release.table)
        # Both evaluators share the store's one context, now pointed at the
        # twin, and the twin's batch computed nothing from rows.
        assert second.engine.context is first.engine.context
        assert second.engine.context.table is twin
        assert second.engine.cache_info()["from_rows"] == from_rows
        # Nothing the store holds pins the first table: reference counting
        # frees it once its result goes.
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            freed = weakref.ref(table)
            del table, first
            assert freed() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_racing_batches_share_one_object_per_column(self):
        import sys
        import threading

        table = _shared_table()
        configs = [
            _warm_config({"algorithm": algorithm}, qis=qis)
            for algorithm in ("flash", "incognito")
            for qis in (("zipcode", "job"), ("zipcode", "sex"))
        ]
        store = EngineCacheStore()
        stores = {_environment_key(configs[0])[0]: store}
        start = threading.Barrier(len(configs))
        out = {}

        def batch(index):
            start.wait(timeout=60)
            out[index] = run_batch([configs[index]], table, cache_stores=stores)[0]

        threads = [
            threading.Thread(target=batch, args=(index,), daemon=True)
            for index in range(len(configs))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(out) == len(configs)
        for index, result in out.items():
            evaluator = result.engine
            assert evaluator.cache is store
            for name in evaluator.qi_names:
                numeric = name == "age"
                assert evaluator.hierarchies[name] is store._hierarchies[name, numeric]
                assert evaluator._encodings[name] is store._encodings[name][2]
            alone = run(configs[index], table)
            assert _fingerprint(result.release.table) == _fingerprint(alone.release.table)

    def test_used_store_is_freed_by_reference_counting(self):
        import gc
        import weakref

        table = _shared_table()
        config = _warm_config({"algorithm": "flash"})
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            store = EngineCacheStore()
            stores = {_environment_key(config)[0]: store}
            for _ in range(2):
                results = run_batch([config], table, cache_stores=stores)
            assert results[0].engine.cache is store and len(store) > 0
            freed = weakref.ref(store)
            del store, stores, results
            assert freed() is None
        finally:
            if was_enabled:
                gc.enable()


class TestHierarchyOverridesOnWarmStores:
    def test_overrides_and_injected_stores_are_rejected(self):
        """An override's stats must not answer later batches over the same
        store: 12-anonymity over four zip codes of 10 rows is (2,), but a
        store filled under an override that pairs the codes would make a
        later batch publish (1,), whose classes hold 10 rows."""
        table = Table.from_dict(
            {"zip": ["13053", "13068", "14850", "14853"] * 10}, categorical=["zip"]
        )
        config = AnonymizationConfig.from_dict(
            {
                "quasi_identifiers": ["zip"],
                "models": [{"model": "k-anonymity", "k": 12}],
                "algorithm": {"algorithm": "flash"},
            }
        )
        custom = Hierarchy.from_levels(
            {"13053": ["A"], "14853": ["A"], "13068": ["B"], "14850": ["B"]}
        )
        stores = {_environment_key(config)[0]: EngineCacheStore()}
        both = r"'hierarchies' and 'cache_stores' cannot be given together"
        with pytest.raises(ConfigError, match=both):
            run_batch([config], table, hierarchies={"zip": custom}, cache_stores=stores)
        with pytest.raises(ConfigError, match=both):
            BatchPlanner([config], table, hierarchies={"zip": custom}, cache_stores=stores)
        # Each alone still works, and the store answers with its own specs.
        assert run_batch([config], table, hierarchies={"zip": custom})[0].node == (1,)
        warm = run_batch([config], table, cache_stores=stores)[0]
        assert warm.node == (2,)
        assert warm.release.table.column("zip").value_counts() == {"130**": 20, "148**": 20}


class TestCLICacheKnobs:
    #: A Flash job (lattice engine) next to a relaxed-Mondrian job (none).
    MIXED = [JOB, {**JOB, "algorithm": {"algorithm": "mondrian", "mode": "relaxed"}}]

    def test_cache_bytes_flag_mode(self, csv_path, tmp_path, capsys):
        out = tmp_path / "anon.csv"
        rc = cli_main(
            [
                str(csv_path), str(out),
                "--qi", "zipcode", "--qi", "job", "--numeric-qi", "age",
                "--sensitive", "disease", "--k", "2", "--algorithm", "flash",
                "--cache-bytes", "1048576", "--report",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().err)
        assert report["config"]["cache_bytes"] == 1048576
        assert report["engine_cache"]["recomputed_after_evict"] == 0
        assert "misses" in report["engine_cache"]

    def test_invalid_cache_bytes_fails_loudly(self, csv_path, tmp_path, capsys):
        rc = cli_main(
            [
                str(csv_path), str(tmp_path / "anon.csv"),
                "--qi", "zipcode", "--cache-bytes", "0",
            ]
        )
        assert rc == 2
        assert "cache_bytes" in capsys.readouterr().err

    def _batch(self, csv_path, out, jobs, *flags):
        job_path = out.parent / "jobs.json"
        job_path.write_text(json.dumps(jobs))
        return cli_main([str(csv_path), str(out), "--config", str(job_path), *flags])

    def test_batch_cache_bytes_binds_only_engine_jobs(self, csv_path, tmp_path, capsys):
        plain = tmp_path / "plain" / "anon.csv"
        flagged = tmp_path / "flagged" / "anon.csv"
        plain.parent.mkdir()
        flagged.parent.mkdir()
        assert self._batch(csv_path, plain, self.MIXED) == 0
        capsys.readouterr()
        assert self._batch(
            csv_path, flagged, self.MIXED, "--cache-bytes", "65536", "--report"
        ) == 0
        flash, mondrian = json.loads(capsys.readouterr().err)
        assert flash["config"]["cache_bytes"] == 65536
        assert mondrian["config"]["cache_bytes"] is None
        for index in (1, 2):
            name = f"anon.{index}.csv"
            assert (plain.with_name(name).read_bytes()
                    == flagged.with_name(name).read_bytes())

    @pytest.mark.parametrize("algorithm", ["flash", "incognito", "ola", "datafly"])
    def test_a_one_entry_budget_leaves_the_output_unchanged(
        self, csv_path, tmp_path, capsys, algorithm
    ):
        flags = [
            "--qi", "zipcode", "--qi", "job", "--numeric-qi", "age",
            "--sensitive", "disease", "--k", "2", "--algorithm", algorithm,
        ]
        plain, squeezed = tmp_path / "plain.csv", tmp_path / "squeezed.csv"
        assert cli_main([str(csv_path), str(plain), *flags]) == 0
        capsys.readouterr()
        assert cli_main(
            [str(csv_path), str(squeezed), *flags, "--cache-bytes", "1", "--report"]
        ) == 0
        report = json.loads(capsys.readouterr().err)
        assert report["engine_cache"]["evictions"] > 0
        assert plain.read_bytes() == squeezed.read_bytes()

    def test_batch_cache_bytes_without_engine_job_rejected(
        self, csv_path, tmp_path, capsys
    ):
        out = tmp_path / "anon.csv"
        rc = self._batch(csv_path, out, self.MIXED[1:], "--cache-bytes", "4096")
        assert rc == 2
        assert "does not apply to algorithm 'mondrian'" in capsys.readouterr().err
