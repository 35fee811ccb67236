"""The declarative job API: registries, AnonymizationConfig, executor.

Pins the api_redesign contracts:

* every registered algorithm/model round-trips through ``to_spec``/
  ``from_spec`` (property-tested over the parameter space);
* ``AnonymizationConfig`` round-trips through JSON, and malformed specs
  fail with errors naming the offending key or registry name;
* one job expressed as JSON produces byte-identical releases through
  ``run()``, the CLI ``--config`` path, and the legacy
  ``Anonymizer.apply()`` shim;
* ``run_batch`` over several configs on one table shares the lattice
  engine, so nodes evaluated by one job are cache hits for the next;
* ``run`` is a batch of one: every algorithm publishes and reports the
  same through ``run`` as through ``run_batch``;
* a caller's evaluator built over the raw table, handed to ``execute``,
  still yields the job's identifier-stripped release.
"""

import gc
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Anonymizer
from repro.api import (
    AnonymizationConfig,
    algorithm_registry,
    build_hierarchies,
    build_schema,
    metric_registry,
    model_registry,
    run,
    run_batch,
)
from repro.api.executor import _resolve, execute
from repro.cli import main as cli_main
from repro.core.cache import DEFAULT_CACHE_BYTES
from repro.core.deadline import Deadline, deadline_scope
from repro.core.io import format_csv, read_csv
from repro.core.table import Column, Table
from repro.errors import ConfigError, InfeasibleError, SchemaError
from repro.verify import violations

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
    "metrics": ["gcp", "linkage"],
}


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(CSV_TEXT)
    return path


@pytest.fixture
def table(csv_path):
    return read_csv(csv_path, categorical=["zipcode", "job", "disease"], numeric=["age"])


# -- registries --------------------------------------------------------------

# Per-parameter value strategies: every registered class is described by
# (name, params), so one table drives the whole property test.
_PARAM_STRATEGIES = {
    # Floor of 2: shared with mdav/kmember, whose constructors reject k < 2.
    "k": st.integers(2, 50),
    "l": st.integers(2, 8),
    "c": st.floats(0.5, 10, allow_nan=False),
    "t": st.floats(0, 1, allow_nan=False),
    "e": st.floats(0, 100, allow_nan=False),
    "alpha": st.floats(0.01, 1, allow_nan=False),
    "beta": st.floats(0.01, 10, allow_nan=False),
    "sensitive": st.sampled_from(["disease", "occupation"]),
    "ground_distance": st.sampled_from(["equal", "ordered"]),
    "max_suppression": st.floats(0, 0.5, allow_nan=False),
    "heuristic": st.sampled_from(["distinct", "loss"]),
    "mode": st.sampled_from(["strict", "relaxed"]),
    "target": st.none(),
    "max_steps": st.integers(1, 10_000),
    "sample_candidates": st.integers(1, 256),
    "seed": st.integers(0, 2**31 - 1),
    "max_column_width": st.integers(1, 4),
}


def _spec_strategy(registry):
    entries = [(name, registry._entries[name].params) for name in registry.names()]

    def build(draw):
        name, params = draw(st.sampled_from(entries))
        spec = {registry.spec_key: name}
        for param in params:
            spec[param] = draw(_PARAM_STRATEGIES[param])
        return spec

    return st.composite(build)()


class TestRegistryRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(spec=_spec_strategy(model_registry))
    def test_every_model_round_trips(self, spec):
        model = model_registry.from_spec(spec)
        dumped = model_registry.to_spec(model)
        clone = model_registry.from_spec(dumped)
        assert type(clone) is type(model)
        assert model_registry.to_spec(clone) == dumped
        for param, expected in spec.items():
            if param == "model":
                continue
            value = getattr(clone, param)
            if isinstance(expected, float):
                assert value == pytest.approx(expected)
            else:
                assert value == expected

    @settings(max_examples=100, deadline=None)
    @given(spec=_spec_strategy(algorithm_registry))
    def test_every_algorithm_round_trips(self, spec):
        algorithm = algorithm_registry.from_spec(spec)
        dumped = algorithm_registry.to_spec(algorithm)
        clone = algorithm_registry.from_spec(dumped)
        assert type(clone) is type(algorithm)
        assert algorithm_registry.to_spec(clone) == dumped

    def test_defaults_apply_and_round_trip(self):
        model = model_registry.from_spec(
            {"model": "t-closeness", "t": 0.2, "sensitive": "disease"}
        )
        assert model.ground_distance == "equal"
        assert model_registry.to_spec(model)["ground_distance"] == "equal"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ConfigError, match="unknown privacy model 'k-anon'"):
            model_registry.from_spec({"model": "k-anon", "k": 3})

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="unknown key 'kk'"):
            model_registry.from_spec({"model": "k-anonymity", "kk": 3})

    def test_missing_required_key_is_named(self):
        with pytest.raises(ConfigError, match="missing the required key 'sensitive'"):
            model_registry.from_spec({"model": "distinct-l-diversity", "l": 2})

    def test_missing_spec_key_is_named(self):
        with pytest.raises(ConfigError, match="missing the 'algorithm' key"):
            algorithm_registry.from_spec({"k": 3})

    def test_constructor_rejection_carries_registry_name(self):
        with pytest.raises(ConfigError, match="invalid privacy model spec for 'k-anonymity'"):
            model_registry.from_spec({"model": "k-anonymity", "k": 0})

    def test_hierarchical_ground_distance_rejected_in_spec(self):
        with pytest.raises(ConfigError, match="ground_distance"):
            model_registry.from_spec(
                {
                    "model": "t-closeness",
                    "t": 0.2,
                    "sensitive": "disease",
                    "ground_distance": "hierarchical",
                }
            )

    def test_unregistered_instance_to_spec_raises(self):
        class Custom:
            pass

        with pytest.raises(ConfigError, match="not a registered"):
            model_registry.to_spec(Custom())

    def test_metric_registry_unknown_name(self):
        from repro.api.registry import MetricContext

        with pytest.raises(ConfigError, match="unknown metric 'nope'"):
            metric_registry.compute("nope", MetricContext(None, None, {}))


# -- AnonymizationConfig -----------------------------------------------------


class TestConfig:
    def test_json_round_trip_exact(self):
        config = AnonymizationConfig.from_dict(JOB)
        clone = AnonymizationConfig.from_json(config.to_json())
        assert clone == config
        assert clone.to_dict() == config.to_dict()
        json.dumps(config.to_dict())  # JSON-safe all the way down

    def test_unknown_top_level_key_is_named(self):
        with pytest.raises(ConfigError, match="unknown key 'quasi_identifier'"):
            AnonymizationConfig.from_dict({"quasi_identifier": ["a"]})

    def test_needs_a_quasi_identifier(self):
        with pytest.raises(ConfigError, match="quasi_identifiers"):
            AnonymizationConfig.from_dict({"sensitive": ["disease"]})

    def test_duplicate_role_is_named(self):
        with pytest.raises(ConfigError, match="'age'.*'numeric_quasi_identifiers'.*'sensitive'"):
            AnonymizationConfig.from_dict(
                {"numeric_quasi_identifiers": ["age"], "sensitive": ["age"]}
            )

    def test_bad_model_spec_fails_at_config_time(self):
        with pytest.raises(ConfigError, match="unknown privacy model"):
            AnonymizationConfig.from_dict(
                {**JOB, "models": [{"model": "nope", "k": 2}]}
            )

    def test_unknown_metric_is_named(self):
        with pytest.raises(ConfigError, match="unknown metric 'gpc'"):
            AnonymizationConfig.from_dict({**JOB, "metrics": ["gpc"]})

    def test_hierarchy_for_undeclared_qi_is_named(self):
        with pytest.raises(ConfigError, match="'city'.*not a declared quasi-identifier"):
            AnonymizationConfig.from_dict(
                {**JOB, "hierarchies": {"city": {"builder": "flat"}}}
            )

    def test_unknown_builder_is_named(self):
        with pytest.raises(ConfigError, match="unknown builder 'tree-ish'"):
            AnonymizationConfig.from_dict(
                {**JOB, "hierarchies": {"job": {"builder": "tree-ish"}}}
            )

    def test_unknown_builder_key_is_named(self):
        with pytest.raises(ConfigError, match="unknown key 'bin'"):
            AnonymizationConfig.from_dict(
                {**JOB, "hierarchies": {"age": {"builder": "interval", "bin": 4}}}
            )

    def test_interval_builder_requires_numeric_qi(self):
        with pytest.raises(ConfigError, match="'interval' for 'job' needs a numeric"):
            AnonymizationConfig.from_dict(
                {**JOB, "hierarchies": {"job": {"builder": "interval"}}}
            )

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            AnonymizationConfig.from_json("{nope")

    @pytest.mark.parametrize(
        ("override", "key"),
        [
            ({"quasi_identifiers": "zipcode"}, "quasi_identifiers"),
            ({"quasi_identifiers": [5]}, "quasi_identifiers"),
            ({"numeric_quasi_identifiers": "age"}, "numeric_quasi_identifiers"),
            ({"sensitive": 5}, "sensitive"),
            ({"drop": {"ssn": True}}, "drop"),
            ({"metrics": 5}, "metrics"),
            ({"models": 5}, "models"),
            ({"models": [5]}, "models"),
            ({"models": {"model": "k-anonymity", "k": 2}}, "models"),
            ({"models": [{"model": ["k-anonymity"], "k": 2}]}, "model"),
            ({"algorithm": 5}, "algorithm"),
            ({"algorithm": ["flash"]}, "algorithm"),
            ({"algorithm": {"algorithm": ["flash"]}}, "algorithm"),
            ({"hierarchies": [1]}, "hierarchies"),
            ({"hierarchies": {"job": "flat"}}, "hierarchies"),
            ({"bins": "16"}, "bins"),
            ({"bins": True}, "bins"),
            ({"max_suppression": "0.1"}, "max_suppression"),
        ],
        ids=lambda value: json.dumps(value) if isinstance(value, dict) else value,
    )
    def test_wrongly_typed_field_is_named(self, override, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            AnonymizationConfig.from_dict({**JOB, **override})

    def test_wrongly_typed_field_via_cli_is_one_error_line(
        self, csv_path, tmp_path, capsys
    ):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({**JOB, "models": 5}))
        out = tmp_path / "out.csv"
        rc = cli_main([str(csv_path), str(out), "--config", str(job)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: key 'models' must be a list of model objects"
        ]
        assert not out.exists()

    def test_invalid_json_config_via_cli_returns_error(self, csv_path, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps({"quasi_identifiers": ["zipcode"], "metrics": ["gpc"]}))
        rc = cli_main([str(csv_path), str(tmp_path / "out.csv"), "--config", str(job)])
        assert rc == 2
        assert "unknown metric" in capsys.readouterr().err


# -- hierarchy builders ------------------------------------------------------


class TestHierarchyBuilders:
    def test_auto_prefix_for_digit_strings(self, table):
        config = AnonymizationConfig.from_dict(JOB)
        hierarchies = build_hierarchies(config, table)
        assert hierarchies["zipcode"].height == 5  # 5-digit prefix masking
        assert hierarchies["job"].height == 1  # flat fallback

    def test_explicit_builders(self, table):
        config = AnonymizationConfig.from_dict(
            {
                **JOB,
                "hierarchies": {
                    "zipcode": {"builder": "flat"},
                    "job": {
                        "builder": "tree",
                        "tree": {"tech": ["engineer"], "care": ["teacher", "nurse"]},
                    },
                    "age": {"builder": "interval", "cuts": [20, 30, 40, 50]},
                },
            }
        )
        hierarchies = build_hierarchies(config, table)
        assert hierarchies["zipcode"].height == 1
        assert "tech" in hierarchies["job"].labels(1)
        assert hierarchies["age"].intervals(1) == [(20, 30), (30, 40), (40, 50)]

    def test_prefix_builder_rejects_non_digit_domain(self, table):
        config = AnonymizationConfig.from_dict(
            {**JOB, "hierarchies": {"job": {"builder": "prefix"}}}
        )
        with pytest.raises(ConfigError, match="'prefix' for 'job' needs fixed-width"):
            build_hierarchies(config, table)

    def test_schema_roles_and_missing_column(self, table):
        config = AnonymizationConfig.from_dict(JOB)
        schema = build_schema(config, table)
        assert schema.quasi_identifiers == ["zipcode", "job", "age"]
        assert schema.sensitive == ["disease"]
        bad = AnonymizationConfig.from_dict({**JOB, "drop": ["ssn"]})
        with pytest.raises(ConfigError, match="'ssn'.*not present"):
            build_schema(bad, table)


# -- executor ----------------------------------------------------------------


def _fingerprint(table):
    return table.fingerprint()


class TestExecutor:
    def test_result_bundle(self, table):
        result = run(AnonymizationConfig.from_dict(JOB), table)
        assert result.release.table.n_rows == 8
        assert result.node is not None
        assert set(result.metrics) == {"gcp", "linkage"}
        assert "anonymize" in result.timings and "prepare" in result.timings
        payload = result.to_dict()
        json.dumps(payload)  # fully JSON-safe
        assert payload["summary"]["min_class_size"] >= 2
        assert payload["config"]["models"] == JOB["models"]

    def test_c_avg_uses_requested_k(self, table):
        """C_AVG normalizes by the job's k, not the observed min class size."""
        from repro.metrics.discernibility import c_avg

        result = run(
            AnonymizationConfig.from_dict({**JOB, "metrics": ["c_avg"]}), table
        )
        assert result.metrics["c_avg"] == c_avg(result.release.partition(), k=2)

    def test_same_job_byte_identical_via_run_cli_and_apply(
        self, csv_path, tmp_path, table
    ):
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps(JOB))

        # Path 1: the declarative executor on the parsed JSON.
        from repro.core.io import write_csv

        config = AnonymizationConfig.from_json(job_path.read_text())
        out_run = tmp_path / "run.csv"
        write_csv(run(config, table).release.table, out_run)

        # Path 2: the CLI --config route.
        out_cli = tmp_path / "cli.csv"
        assert cli_main([str(csv_path), str(out_cli), "--config", str(job_path)]) == 0

        # Path 3: the legacy Anonymizer.apply shim with equivalent objects.
        schema = build_schema(config, table)
        hierarchies = build_hierarchies(config, table)
        models = [model_registry.from_spec(spec) for spec in config.models]
        algorithm = algorithm_registry.from_spec(config.algorithm)
        release = Anonymizer(table, schema, hierarchies).apply(
            *models, algorithm=algorithm
        )
        out_apply = tmp_path / "apply.csv"
        write_csv(release.table, out_apply)

        assert out_run.read_bytes() == out_cli.read_bytes()
        assert out_run.read_bytes() == out_apply.read_bytes()

    def test_max_suppression_override(self):
        config = AnonymizationConfig.from_dict(
            {**JOB, "algorithm": {"algorithm": "incognito"}, "max_suppression": 0.25}
        )
        _, algorithm = _resolve(config)
        assert algorithm.max_suppression == 0.25

    def test_max_suppression_rejected_for_unbudgeted_algorithm(self):
        """A budget the algorithm cannot honor fails loudly at config time."""
        for name in ("mondrian", "tds"):
            with pytest.raises(ConfigError, match="max_suppression"):
                AnonymizationConfig.from_dict(
                    {**JOB, "algorithm": {"algorithm": name}, "max_suppression": 0.05}
                )

    def test_run_batch_shares_lattice_nodes(self, table):
        base = {k: v for k, v in JOB.items() if k != "metrics"}
        configs = [
            AnonymizationConfig.from_dict({**base, "algorithm": {"algorithm": name}})
            for name in ("incognito", "flash", "ola")
        ]

        solo_results = [run(config, table) for config in configs]
        # Independent runs: each result's engine counts its own store.
        solo_from_rows = 0
        for result in solo_results:
            assert result.engine is not None
            solo_from_rows += result.engine.cache_info()["from_rows"]
            solo_from_rows += result.engine.cache_info()["rollups"]
        assert len({id(result.engine) for result in solo_results}) == len(configs)

        batch_results = run_batch(configs, table)
        engine = batch_results[0].engine
        assert engine is not None
        assert all(result.engine is engine for result in batch_results)
        info = engine.cache_info()
        # Shared nodes are computed once: later jobs hit the memo instead.
        assert info["hits"] > 0
        assert info["from_rows"] + info["rollups"] < solo_from_rows
        # And sharing never changes the outputs.
        for solo, batch in zip(solo_results, batch_results):
            assert solo.release.node == batch.release.node
            assert _fingerprint(solo.release.table) == _fingerprint(batch.release.table)

    def test_run_batch_groups_by_environment(self, table):
        """Different QI sets get different engines; equal ones share."""
        config_a = AnonymizationConfig.from_dict(JOB)
        config_b = AnonymizationConfig.from_dict(
            {**JOB, "quasi_identifiers": ["zipcode"]}
        )
        results = run_batch([config_a, config_b, config_a], table)
        assert results[0].engine is results[2].engine
        assert results[0].engine is not results[1].engine

    def test_run_batch_respects_per_job_sensitive(self, table):
        """Jobs differing only in sensitive share an engine, not a schema."""
        base = {
            **{k: v for k, v in JOB.items() if k not in ("sensitive", "metrics")},
            "quasi_identifiers": ["zipcode"],
        }
        config_a = AnonymizationConfig.from_dict(
            {**base, "sensitive": ["disease"], "metrics": ["homogeneity"]}
        )
        config_b = AnonymizationConfig.from_dict(
            {**base, "sensitive": ["job"], "metrics": ["homogeneity"]}
        )
        solo = [run(config_a, table), run(config_b, table)]
        batch = run_batch([config_a, config_b], table)
        for solo_result, batch_result in zip(solo, batch):
            assert solo_result.metrics["homogeneity"] == batch_result.metrics["homogeneity"]
        # The lattice engine is still shared across the differing-sensitive
        # jobs (node stats don't depend on sensitive roles).
        assert batch[0].engine is batch[1].engine
        assert batch[1].engine.cache_info()["hits"] > 0

    def test_run_batch_frees_engines_by_reference_counting(self, table):
        """Dropping a batch's results frees every engine object at once.

        With the cyclic collector off, a batch mixing the lattice engine
        (Flash, Incognito) and the partition engine (relaxed Mondrian) must
        leave no ``repro.core`` object behind in a reference cycle.
        """
        jobs = [
            JOB,
            {**JOB, "algorithm": {"algorithm": "incognito"}},
            {**JOB, "algorithm": {"algorithm": "mondrian", "mode": "relaxed"}},
        ]
        configs = [AnonymizationConfig.from_dict(job) for job in jobs]
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            results = run_batch(configs, table, workers=2)
            assert [r.release.table.n_rows for r in results] == [8, 8, 8]
            del results
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = Counter(
                type(o).__qualname__
                for o in gc.garbage
                if type(o).__module__.startswith("repro.core")
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert not leaked, leaked

    def test_homogeneity_metric_requires_sensitive(self, table):
        config = AnonymizationConfig.from_dict(
            {
                "quasi_identifiers": ["zipcode", "job"],
                "numeric_quasi_identifiers": ["age"],
                "models": [{"model": "k-anonymity", "k": 2}],
                "metrics": ["homogeneity"],
            }
        )
        with pytest.raises(ConfigError, match="homogeneity"):
            run(config, table)

    def test_anatomy_homogeneity_reads_the_sensitive_table(self):
        """Anatomy moves the sensitive column into its ST; the attacker
        follows a QIT row to its group and the group to its ST counts."""
        config = AnonymizationConfig.from_dict(
            {**JOB, "algorithm": {"algorithm": "anatomy", "l": 2}, "metrics": ["homogeneity"]}
        )
        result = run(config, _random_table(400))
        shares = [
            max(counts.values()) / sum(counts.values())
            for counts in result.release.info["anatomized"].st
        ]
        homogeneity = result.metrics["homogeneity"]
        assert homogeneity["max_inference_confidence"] == max(shares) == 0.5
        assert homogeneity["avg_inference_confidence"] == pytest.approx(np.mean(shares))
        assert homogeneity["exposed_fraction"] == 0.0


class TestRunIsABatchOfOne:
    """``run(config, table)`` is ``run_batch([config], table)[0]``: one
    planner builds every job's environment, store and evaluator."""

    @pytest.mark.parametrize("name", algorithm_registry.names())
    def test_every_algorithm_publishes_and_reports_alike(self, name):
        table = _random_table(400)
        spec = {"algorithm": name, **{key: 2 for key in algorithm_registry.required(name)}}
        config = AnonymizationConfig.from_dict({**JOB, "algorithm": spec})
        alone, batched = run(config, table), run_batch([config], table)[0]
        assert _fingerprint(alone.release.table) == _fingerprint(batched.release.table)
        assert alone.node == batched.node
        assert alone.suppressed == batched.suppressed
        alone_report, batch_report = alone.to_dict(), batched.to_dict()
        assert alone_report.keys() == batch_report.keys()
        # Apart from how long it took, the job's record is the same.
        assert alone_report.pop("timings").keys() == batch_report.pop("timings").keys()
        assert alone_report == batch_report

    def test_a_full_domain_run_holds_its_configs_budget(self, table):
        budgeted = run(AnonymizationConfig.from_dict({**JOB, "cache_bytes": 65536}), table)
        assert budgeted.engine.cache.cache_bytes == 65536
        assert "engine_cache" in budgeted.to_dict()
        default = run(AnonymizationConfig.from_dict(JOB), table)
        assert default.engine.cache.cache_bytes == DEFAULT_CACHE_BYTES

    def test_an_outer_deadline_does_not_reach_the_job(self, table):
        """As for every batch job, the config's own ``job_timeout`` is the
        job's only time budget."""
        expired = Deadline(1e-9)
        while expired.remaining() > 0:
            pass
        with deadline_scope(expired):
            result = run(AnonymizationConfig.from_dict(JOB), table)
        assert result.release.table.n_rows == 8


class TestCallerEvaluator:
    """``execute(..., evaluator=...)`` with an evaluator built over the raw
    table, identifier column included: the release is the job's
    identifier-stripped table generalized at the chosen node."""

    @staticmethod
    def _table():
        rng = np.random.default_rng(0)
        n = 400
        return Table.from_dict(
            {
                "name": [f"person{i}" for i in range(n)],
                "zip": [str(v) for v in rng.integers(13000, 13004, n)],
                "job": [f"j{v}" for v in rng.integers(0, 30, n)],
                "disease": [f"d{v}" for v in rng.integers(0, 4, n)],
            },
            categorical=["name", "zip", "job", "disease"],
        )

    @staticmethod
    def _execute(config, table, evaluator):
        """The job on the caller's evaluator, as ``run`` resolves it."""
        models, algorithm = _resolve(config)
        return execute(
            table, build_schema(config, table), build_hierarchies(config, table),
            models, algorithm, metrics=config.metrics, evaluator=evaluator, config=config,
        )

    @pytest.mark.parametrize("algorithm", ["datafly", "flash", "incognito", "ola"])
    def test_release_drops_identifiers_and_equals_the_plain_run(self, algorithm):
        from repro.core.engine import LatticeEvaluator

        table = self._table()
        config = AnonymizationConfig.from_dict(
            {
                "quasi_identifiers": ["zip", "job"],
                "sensitive": ["disease"],
                "drop": ["name"],
                "models": [{"model": "k-anonymity", "k": 3}],
                "algorithm": {"algorithm": algorithm},
                "max_suppression": 0.2,
            }
        )
        evaluator = LatticeEvaluator(
            table, ["zip", "job"], build_hierarchies(config, table)
        )
        shared = self._execute(config, table, evaluator)
        plain = run(config, table)
        assert "name" not in shared.release.table.column_names
        assert shared.release.table.column_names == ["zip", "job", "disease"]
        assert shared.node == plain.node
        assert shared.suppressed == plain.suppressed
        assert _fingerprint(shared.release.table) == _fingerprint(plain.release.table)

    def test_evaluator_over_other_rows_is_a_config_error(self):
        from repro.core.engine import LatticeEvaluator

        table = self._table()
        config = AnonymizationConfig.from_dict(
            {
                "quasi_identifiers": ["zip", "job"],
                "drop": ["name"],
                "models": [{"model": "k-anonymity", "k": 3}],
                "algorithm": {"algorithm": "flash"},
            }
        )
        subset = table.head(200)
        evaluator = LatticeEvaluator(
            subset, ["zip", "job"], build_hierarchies(config, subset)
        )
        with pytest.raises(ConfigError, match="evaluator holds 200 rows"):
            self._execute(config, table, evaluator)


def _random_table(n_rows, seed=3):
    rng = np.random.default_rng(seed)
    zipcodes = ["13053", "13068", "14850", "14853"]
    return Table(
        [
            Column.categorical("zipcode", rng.choice(zipcodes, n_rows)),
            Column.categorical("job", rng.choice(["engineer", "teacher", "nurse"], n_rows)),
            Column.numeric("age", rng.integers(20, 60, n_rows)),
            Column.categorical("disease", rng.choice(["flu", "hiv", "ulcer", "cancer"], n_rows)),
        ]
    )


class TestTableShapes:
    """Row subsets, and tables too small to anonymize, under auto hierarchies."""

    def test_row_subset_keeps_absent_categories_out_of_the_hierarchy(self):
        table = _random_table(400)
        rows = np.flatnonzero(np.asarray(table.column("zipcode").decode()) != "14853")
        subset = table.take(rows)
        assert "14853" in subset.column("zipcode").categories
        # The same rows, encoded over only the values they hold.
        encoded = Table(
            [
                Column.categorical(column.name, column.decode())
                if column.is_categorical
                else column
                for column in subset
            ]
        )
        assert "14853" not in encoded.column("zipcode").categories
        job = {**JOB, "models": [{"model": "k-anonymity", "k": 5}]}
        for algorithm in ({"algorithm": "flash"}, {"algorithm": "kmember", "k": 5}):
            config = AnonymizationConfig.from_dict({**job, "algorithm": algorithm})
            got, expected = run(config, subset), run(config, encoded)
            assert format_csv(got.release.table) == format_csv(expected.release.table)
            assert got.metrics == expected.metrics
        # Mondrian normalizes a categorical range by the column's category
        # count, so its cut may differ; its release must still verify.
        mondrian = AnonymizationConfig.from_dict(
            {**job, "algorithm": {"algorithm": "mondrian", "mode": "relaxed"}}
        )
        release = run(mondrian, subset).release.table
        assert release.n_rows == subset.n_rows
        assert violations(release, ["zipcode", "job", "age"], mondrian.models) == []

    @pytest.mark.parametrize("name", algorithm_registry.names())
    def test_zero_and_one_row_tables_are_taxonomy_errors(self, name):
        table = _random_table(1)
        spec = {"algorithm": name, **{key: 2 for key in algorithm_registry.required(name)}}
        config = AnonymizationConfig.from_dict(
            {**JOB, "models": [{"model": "k-anonymity", "k": 2}], "algorithm": spec}
        )
        with pytest.raises(SchemaError, match="no rows"):
            run(config, table.take(np.array([], dtype=np.int64)))
        with pytest.raises(InfeasibleError):
            run(config, table)


class TestCLIConfig:
    def test_cli_config_end_to_end_with_report(self, csv_path, tmp_path, capsys):
        job = tmp_path / "job.json"
        job.write_text(json.dumps(JOB))
        out = tmp_path / "anon.csv"
        rc = cli_main([str(csv_path), str(out), "--config", str(job), "--report"])
        assert rc == 0
        published = read_csv(out, categorical=["zipcode", "job", "disease", "age"])
        groups = published.group_rows(["zipcode", "job", "age"])
        assert min(g.size for g in groups) >= 2
        report = json.loads(capsys.readouterr().err)
        assert report["summary"]["min_class_size"] >= 2
        assert 0 <= report["gcp"] <= 1
        assert report["config"]["algorithm"] == {"algorithm": "flash"}
        assert report["timings"]["anonymize"] >= 0

    @pytest.mark.parametrize(
        "algorithm, flags, overrides",
        [
            ("flash", [], {"max_suppression": 0.02}),  # the CLI's historic flash budget
            # Algorithms with their own k or l take it from --k and --l.
            ("mdav", [], {"algorithm": {"algorithm": "mdav", "k": 2}}),
            ("kmember", [], {"algorithm": {"algorithm": "kmember", "k": 2}}),
            ("slicing", [], {"algorithm": {"algorithm": "slicing", "k": 2}}),
            (
                "anatomy",
                ["--l", "2"],
                {
                    "models": [
                        *JOB["models"],
                        {"model": "distinct-l-diversity", "l": 2, "sensitive": "disease"},
                    ],
                    "algorithm": {"algorithm": "anatomy", "l": 2},
                },
            ),
        ],
        ids=["flash", "mdav", "kmember", "slicing", "anatomy"],
    )
    def test_cli_flags_build_equivalent_config(
        self, csv_path, tmp_path, algorithm, flags, overrides
    ):
        """Flag mode and an equivalent config file produce identical output."""
        out_flags = tmp_path / "flags.csv"
        assert cli_main(
            [
                str(csv_path), str(out_flags),
                "--qi", "zipcode", "--qi", "job", "--numeric-qi", "age",
                "--sensitive", "disease", "--k", "2", *flags, "--algorithm", algorithm,
            ]
        ) == 0
        job = tmp_path / "job.json"
        job.write_text(
            json.dumps({**{k: v for k, v in JOB.items() if k != "metrics"}, **overrides})
        )
        out_config = tmp_path / "config.csv"
        assert cli_main([str(csv_path), str(out_config), "--config", str(job)]) == 0
        assert out_flags.read_bytes() == out_config.read_bytes()

    def test_cli_config_without_report_skips_metrics(self, csv_path, tmp_path):
        """Metric values are only surfaced by --report; don't compute them."""
        from repro.cli import _load_configs, build_parser

        job = tmp_path / "job.json"
        job.write_text(json.dumps(JOB))
        out = tmp_path / "anon.csv"
        args = build_parser().parse_args([str(csv_path), str(out), "--config", str(job)])
        configs, is_batch = _load_configs(args)
        assert configs[0].metrics == () and not is_batch
        args = build_parser().parse_args(
            [str(csv_path), str(out), "--config", str(job), "--report"]
        )
        configs, _ = _load_configs(args)
        assert configs[0].metrics == ("gcp", "linkage")

    def test_cli_missing_config_file(self, csv_path, tmp_path, capsys):
        rc = cli_main(
            [str(csv_path), str(tmp_path / "x.csv"), "--config", str(tmp_path / "no.json")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestNumpyJsonable:
    def test_jsonable_handles_numpy_and_tuples(self):
        from repro.api import jsonable

        payload = jsonable(
            {"a": np.int64(3), "b": np.float64(0.5), "c": (1, 2), "d": np.arange(2)}
        )
        assert payload == {"a": 3, "b": 0.5, "c": [1, 2], "d": [0, 1]}
        json.dumps(payload)
