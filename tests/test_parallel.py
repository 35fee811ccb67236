"""Parallel batch execution: thread-safe engine cache + run_batch(workers=N).

Pins the concurrency contracts of this repo's parallel executor:

* the engine's memo cache is single-flight — hammering one evaluator from
  many threads never computes a node's stats twice, and the stats arrays
  are identical to a sequential evaluator's;
* ``run_batch(workers=N)`` returns byte-identical releases to sequential
  mode for mixed same/different-environment job sets, preserving the
  engine-sharing pattern;
* the CLI batch mode (``--config`` with a JSON job list, ``--workers``)
  writes numbered outputs identical at any worker count;
* chunked packing (``chunk_rows=``) streams group signatures through row
  windows without changing a single label, and bounds the memory peak.
"""

import itertools
import json
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import AnonymizationConfig, run_batch
from repro.cli import main as cli_main
from repro.core.engine import LatticeEvaluator
from repro.core.io import read_csv
from repro.core.table import (
    Column,
    Table,
    check_chunk_rows,
    mixed_radix_fits,
    pack_code_columns,
)
from repro.data import adult_hierarchies, load_adult
from repro.errors import ConfigError

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


class TestSingleFlightCache:
    QIS = ("workclass", "education", "age")

    def _evaluator(self, table):
        hierarchies = {
            name: hierarchy
            for name, hierarchy in adult_hierarchies().items()
            if name in self.QIS
        }
        return LatticeEvaluator(table, self.QIS, hierarchies)

    def _nodes(self, evaluator):
        heights = [
            len(evaluator._encodings[name].luts) - 1 for name in self.QIS
        ]
        return list(itertools.product(*(range(h + 1) for h in heights)))

    def test_hammered_cache_never_computes_a_node_twice(self):
        table = load_adult(n_rows=500, seed=9)
        evaluator = self._evaluator(table)
        nodes = self._nodes(evaluator)
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        rng = np.random.default_rng(0)
        orders = [rng.permutation(len(nodes)) for _ in range(n_threads)]

        def worker(order):
            barrier.wait()  # maximal contention: all threads start at once
            for index in order:
                evaluator.stats(nodes[index])

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(worker, orders))

        info = evaluator.cache_info()
        assert info["evictions"] == 0
        # Single-flight: every distinct node computed exactly once ...
        assert info["from_rows"] + info["rollups"] == info["entries"] == len(nodes)
        # ... and every other request was served from cache (a coalesced
        # wait resolves into a hit once the in-flight computation lands).
        assert info["hits"] == n_threads * len(nodes) - len(nodes)
        assert 0 <= info["coalesced"] <= info["hits"]

    def test_hammered_stats_equal_sequential_stats(self):
        table = load_adult(n_rows=400, seed=12)
        stressed = self._evaluator(table)
        nodes = self._nodes(stressed)

        def worker(seed):
            order = np.random.default_rng(seed).permutation(len(nodes))
            for index in order:
                stats = stressed.stats(nodes[index])
                stats.histogram("marital_status")

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(worker, range(6)))

        reference = self._evaluator(table)
        for node in nodes:
            expected = reference.stats(node)
            actual = stressed.stats(node)
            np.testing.assert_array_equal(actual.sizes, expected.sizes)
            np.testing.assert_array_equal(actual.group_codes, expected.group_codes)
            np.testing.assert_array_equal(
                actual.histogram("marital_status"),
                expected.histogram("marital_status"),
            )
            np.testing.assert_array_equal(
                actual.row_labels, expected.row_labels
            )


class TestParallelRunBatch:
    def _mixed_configs(self):
        """Same-environment pair + different-QI job + a non-lattice job."""
        return [
            AnonymizationConfig.from_dict(JOB),
            AnonymizationConfig.from_dict(
                {**JOB, "models": [{"model": "k-anonymity", "k": 3}]}
            ),
            AnonymizationConfig.from_dict(
                {**JOB, "quasi_identifiers": ["zipcode"]}
            ),
            AnonymizationConfig.from_dict(
                {**JOB, "algorithm": {"algorithm": "mondrian"}}
            ),
        ]

    def test_workers_byte_identical_on_mixed_environments(self, table):
        configs = self._mixed_configs()
        sequential = run_batch(configs, table)
        parallel = run_batch(configs, table, workers=4)
        for seq, par in zip(sequential, parallel):
            assert seq.release.node == par.release.node
            assert _fingerprint(seq.release.table) == _fingerprint(par.release.table)
        # Engine-sharing pattern survives parallel dispatch: jobs 0/1 share
        # one evaluator, job 2 has its own, the Mondrian job has none.
        assert parallel[0].engine is parallel[1].engine
        assert parallel[2].engine is not None
        assert parallel[2].engine is not parallel[0].engine
        assert parallel[3].engine is None

    def test_workers_cache_proves_no_duplicate_evaluation(self, table):
        configs = self._mixed_configs()
        results = run_batch(configs, table, workers=4)
        for engine in {r.engine for r in results} - {None}:
            info = engine.cache_info()
            assert info["evictions"] == 0
            assert info["from_rows"] + info["rollups"] == info["entries"]

    def test_worker_count_does_not_change_results(self, table):
        configs = self._mixed_configs()
        baseline = run_batch(configs, table, workers=1)
        for workers in (2, 3, 8):
            results = run_batch(configs, table, workers=workers)
            for base, result in zip(baseline, results):
                assert _fingerprint(base.release.table) == _fingerprint(
                    result.release.table
                )

    def test_worker_job_failure_propagates(self, table):
        from repro.errors import ReproError

        impossible = AnonymizationConfig.from_dict(
            # k larger than the table: every node fails, flash raises.
            {**JOB, "models": [{"model": "k-anonymity", "k": 500}]}
        )
        with pytest.raises(ReproError):
            run_batch([AnonymizationConfig.from_dict(JOB), impossible] * 2,
                      table, workers=2)


class TestCLIBatch:
    def _jobs(self):
        return [
            JOB,
            {**JOB, "models": [{"model": "k-anonymity", "k": 4}],
             "algorithm": {"algorithm": "ola"}},
        ]

    def test_batch_outputs_identical_at_any_worker_count(
        self, csv_path, tmp_path
    ):
        job_path = tmp_path / "jobs.json"
        job_path.write_text(json.dumps(self._jobs()))
        out_seq = tmp_path / "seq" / "anon.csv"
        out_par = tmp_path / "par" / "anon.csv"
        out_seq.parent.mkdir()
        out_par.parent.mkdir()
        assert cli_main(
            [str(csv_path), str(out_seq), "--config", str(job_path)]
        ) == 0
        assert cli_main(
            [str(csv_path), str(out_par), "--config", str(job_path),
             "--workers", "4"]
        ) == 0
        for index in (1, 2):
            seq = out_seq.with_name(f"anon.{index}.csv")
            par = out_par.with_name(f"anon.{index}.csv")
            assert seq.read_bytes() == par.read_bytes()

    def test_batch_report_is_a_json_array(self, csv_path, tmp_path, capsys):
        job_path = tmp_path / "jobs.json"
        jobs = self._jobs()
        job_path.write_text(json.dumps(jobs))
        rc = cli_main(
            [str(csv_path), str(tmp_path / "anon.csv"), "--config",
             str(job_path), "--workers", "2", "--report"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().err)
        assert isinstance(report, list) and len(report) == len(jobs)
        for entry in report:
            assert entry["summary"]["min_class_size"] >= 2
            assert "gcp" in entry and "linkage" in entry

    def test_single_job_file_keeps_legacy_output_shape(
        self, csv_path, tmp_path
    ):
        """A non-list config file still writes exactly the named output."""
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps(JOB))
        out = tmp_path / "anon.csv"
        assert cli_main([str(csv_path), str(out), "--config", str(job_path)]) == 0
        assert out.exists()
        assert not out.with_name("anon.1.csv").exists()

    def test_workers_without_config_is_rejected(self, csv_path, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                [str(csv_path), str(tmp_path / "out.csv"),
                 "--qi", "zipcode", "--workers", "4"]
            )

    def test_workers_with_single_job_config_is_rejected(
        self, csv_path, tmp_path, capsys
    ):
        """A lone job object can't honor --workers; failing loudly beats
        silently running one job on one thread."""
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps(JOB))
        rc = cli_main(
            [str(csv_path), str(tmp_path / "anon.csv"), "--config",
             str(job_path), "--workers", "4"]
        )
        assert rc == 2
        assert "JSON list of jobs" in capsys.readouterr().err

    def test_clashing_column_types_across_jobs_rejected(
        self, csv_path, tmp_path, capsys
    ):
        job_path = tmp_path / "jobs.json"
        job_path.write_text(json.dumps([
            JOB,
            {**JOB,
             "quasi_identifiers": ["zipcode", "job", "age"],
             "numeric_quasi_identifiers": []},
        ]))
        rc = cli_main(
            [str(csv_path), str(tmp_path / "anon.csv"), "--config", str(job_path)]
        )
        assert rc == 2
        assert "agree on column types" in capsys.readouterr().err

    def test_empty_job_list_rejected(self, csv_path, tmp_path, capsys):
        job_path = tmp_path / "jobs.json"
        job_path.write_text("[]")
        rc = cli_main(
            [str(csv_path), str(tmp_path / "anon.csv"), "--config", str(job_path)]
        )
        assert rc == 2
        assert "empty job list" in capsys.readouterr().err


class TestChunkedPacking:
    """chunk_rows: streamed group signatures equal the one-shot ones."""

    def test_check_chunk_rows_accepts_positive_integers(self):
        assert check_chunk_rows(1) == 1
        assert check_chunk_rows(1 << 20) == 1 << 20

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "256k", None])
    def test_check_chunk_rows_rejects_non_positive(self, bad):
        with pytest.raises(ValueError, match="positive integer"):
            check_chunk_rows(bad)

    def test_pack_out_matches_fresh_allocation(self):
        rng = np.random.default_rng(11)
        radices = [5, 3, 7]
        cols = [rng.integers(0, r, size=97).astype(np.int64) for r in radices]
        fresh = pack_code_columns(cols, radices)
        out = np.empty(97, dtype=np.int64)
        returned = pack_code_columns(cols, radices, out=out)
        assert returned is out
        np.testing.assert_array_equal(out, fresh)

    def test_pack_overflow_fallback_matches_out_variant(self):
        rng = np.random.default_rng(5)
        radices = [1 << 16] * 4  # product 2**64: mixed radix would overflow
        assert not mixed_radix_fits(radices)
        cols = [rng.integers(0, r, size=50).astype(np.int64) for r in radices]
        fresh = pack_code_columns(cols, radices)
        out = np.empty(50, dtype=np.int64)
        np.testing.assert_array_equal(pack_code_columns(cols, radices, out=out), fresh)
        # The fallback's labels group rows exactly like the raw tuples do.
        stacked = [tuple(col[i] for col in cols) for i in range(50)]
        for i in range(50):
            for j in range(50):
                assert (fresh[i] == fresh[j]) == (stacked[i] == stacked[j])

    @pytest.mark.parametrize("chunk_rows", [1, 3, 5, 8, 1000])
    def test_group_signature_chunked_equals_unchunked(self, table, chunk_rows):
        names = ["zipcode", "job", "age"]
        unchunked = table.group_signature(names)
        chunked = table.group_signature(names, chunk_rows=chunk_rows)
        np.testing.assert_array_equal(chunked, unchunked)

    def test_iter_chunks_covers_all_rows_in_order(self, table):
        chunks = list(table.iter_chunks(3))
        assert [chunk.n_rows for chunk in chunks] == [3, 3, 2]
        merged = [
            value
            for chunk in chunks
            for value in chunk.column("zipcode").decode()
        ]
        assert merged == table.column("zipcode").decode()

    def test_engine_chunked_stats_equal_unchunked(self, table):
        config = AnonymizationConfig.from_dict(JOB)
        from repro.api import build_hierarchies, build_schema

        schema = build_schema(config, table)
        hierarchies = build_hierarchies(config, table)
        qis = schema.quasi_identifiers
        plain = LatticeEvaluator(table, qis, hierarchies)
        chunked = LatticeEvaluator(table, qis, hierarchies, chunk_rows=3)
        heights = [len(plain._encodings[name].luts) - 1 for name in qis]
        for node in itertools.product(*(range(h + 1) for h in heights)):
            expected = plain.stats(node)
            actual = chunked.stats(node)
            np.testing.assert_array_equal(actual.sizes, expected.sizes)
            np.testing.assert_array_equal(actual.group_codes, expected.group_codes)
            np.testing.assert_array_equal(actual.row_labels, expected.row_labels)

    def test_engine_rejects_bad_chunk_rows(self, table):
        config = AnonymizationConfig.from_dict(JOB)
        from repro.api import build_hierarchies, build_schema

        schema = build_schema(config, table)
        hierarchies = build_hierarchies(config, table)
        with pytest.raises(ValueError, match="chunk_rows"):
            LatticeEvaluator(
                table, schema.quasi_identifiers, hierarchies, chunk_rows=0
            )


    def test_chunked_group_signature_bounds_the_memory_peak(self):
        """chunk_rows exists to bound memory: packing a categorical group
        signature in row chunks must peak well below the one-shot pass."""
        rng = np.random.default_rng(42)
        n_rows = 20_000
        domains = {"zip": 64, "job": 32, "edu": 16, "city": 32}
        big = Table(
            [
                Column.from_codes(
                    name,
                    rng.integers(0, domain, size=n_rows),
                    [f"{name}_{i}" for i in range(domain)],
                )
                for name, domain in domains.items()
            ]
        )
        names = list(domains)
        peaks = []
        for chunk_rows in (None, n_rows // 8):
            tracemalloc.start()
            try:
                big.group_signature(names, chunk_rows=chunk_rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        unchunked, chunked = peaks
        assert chunked < 0.5 * unchunked

    def test_chunked_configs_byte_identical_at_any_worker_count(self, table):
        chunked = [
            AnonymizationConfig.from_dict({**JOB, "chunk_rows": 3}),
            AnonymizationConfig.from_dict(
                {**JOB, "quasi_identifiers": ["zipcode"], "chunk_rows": 3}
            ),
        ]
        plain = [
            AnonymizationConfig.from_dict(JOB),
            AnonymizationConfig.from_dict({**JOB, "quasi_identifiers": ["zipcode"]}),
        ]
        reference = run_batch(plain, table)
        for workers in (1, 2):
            results = run_batch(chunked, table, workers=workers)
            for ref, res in zip(reference, results):
                assert _fingerprint(ref.release.table) == _fingerprint(
                    res.release.table
                )

    def test_chunk_rows_does_not_change_single_job_output(
        self, csv_path, tmp_path
    ):
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps(JOB))
        plain = tmp_path / "plain.csv"
        chunked = tmp_path / "chunked.csv"
        assert cli_main(
            [str(csv_path), str(plain), "--config", str(job_path)]
        ) == 0
        assert cli_main(
            [str(csv_path), str(chunked), "--config", str(job_path),
             "--chunk-rows", "3"]
        ) == 0
        assert plain.read_bytes() == chunked.read_bytes()


class TestConfigProcessKeys:
    """Config-time validation for the chunk_rows key; backend is not a key."""

    def test_backend_must_be_known(self):
        for value in ("mpi", "thread", "process"):
            with pytest.raises(ConfigError, match="unknown key 'backend'"):
                AnonymizationConfig.from_dict({**JOB, "backend": value})

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "64k"])
    def test_chunk_rows_must_be_a_positive_integer(self, bad):
        with pytest.raises(ConfigError, match="key 'chunk_rows'"):
            AnonymizationConfig.from_dict({**JOB, "chunk_rows": bad})

    def test_chunk_rows_requires_an_engine_algorithm(self):
        with pytest.raises(ConfigError, match="does not apply"):
            AnonymizationConfig.from_dict(
                {**JOB, "algorithm": {"algorithm": "mondrian"}, "chunk_rows": 64}
            )

    def test_round_trips_through_to_dict(self):
        config = AnonymizationConfig.from_dict({**JOB, "chunk_rows": 1024})
        twin = AnonymizationConfig.from_dict(config.to_dict())
        assert twin == config
        assert twin.chunk_rows == 1024
