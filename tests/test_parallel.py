"""Parallel batch execution: thread-safe engine cache + run_batch(workers=N).

Pins the concurrency contracts of this repo's parallel executor:

* the engine's memo cache is single-flight — hammering one evaluator from
  many threads never computes a node's stats twice, and the stats arrays
  are identical to a sequential evaluator's;
* ``run_batch(workers=N)`` returns byte-identical releases to sequential
  mode for mixed same/different-environment job sets, preserving the
  engine-sharing pattern;
* a free worker takes the lowest pending job whose evaluator no running
  job uses, else the lowest pending job (``_PendingJobs``, checked without
  threads against a scan of the pending list), and under
  ``on_error="raise"`` the lowest-index failure is raised;
* the CLI batch mode (``--config`` with a JSON job list, ``--workers``)
  writes numbered outputs identical at any worker count;
* ``chunk_rows`` and ``backend`` are unknown config keys, and
  ``--chunk-rows`` is an unknown flag.
"""

import itertools
import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import AnonymizationConfig, run_batch
from repro.api import executor
from repro.api.executor import _PendingJobs
from repro.cli import main as cli_main
from repro.core.engine import LatticeEvaluator
from repro.core.io import read_csv
from repro.data import adult_hierarchies, load_adult
from repro.errors import ConfigError, InfeasibleError, SchemaError

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

    @staticmethod
    def _qi_set_jobs():
        """Three QI sets (three evaluators) x two jobs each, QI set by QI set."""
        return [
            AnonymizationConfig.from_dict({
                **JOB,
                "quasi_identifiers": qis,
                "models": [{"model": "k-anonymity", "k": k}],
                "algorithm": {"algorithm": algorithm},
            })
            for qis in (["zipcode", "job"], ["zipcode"], ["job"])
            for k, algorithm in ((2, "flash"), (3, "incognito"))
        ]

    def test_three_evaluators_two_jobs_each_identical_at_two_workers(self, table):
        configs = self._qi_set_jobs()
        sequential = run_batch(configs, table, workers=1)
        parallel = run_batch(configs, table, workers=2)
        for seq, par in zip(sequential, parallel):
            assert seq.release.node == par.release.node
            assert _fingerprint(seq.release.table) == _fingerprint(par.release.table)
        engines = [result.engine for result in parallel]
        assert engines[0] is engines[1] and engines[2] is engines[3]
        assert engines[4] is engines[5]
        assert len({id(engine) for engine in engines}) == 3

    @pytest.mark.parametrize("swap", [False, True], ids=["infeasible-first", "schema-first"])
    def test_raise_reports_the_lowest_index_failure(self, table, monkeypatch, swap):
        # Two different failures in two evaluators, both raised by the
        # search (not by planning): k above the row count is infeasible,
        # and distinct l-diversity over the numeric age is a schema error.
        infeasible = AnonymizationConfig.from_dict(
            {**JOB, "models": [{"model": "k-anonymity", "k": 500}]}
        )
        bad_schema = AnonymizationConfig.from_dict({
            **JOB,
            "quasi_identifiers": ["zipcode"],
            "models": [{"model": "distinct-l-diversity", "l": 2, "sensitive": "age"}],
        })
        first, second = (bad_schema, infeasible) if swap else (infeasible, bad_schema)
        ok = self._qi_set_jobs()
        configs = [ok[4], first, second, ok[5], ok[0]]
        ran = []
        attempt = executor._attempt_job
        second_failed = threading.Event()

        def counting(config, *args, **kwargs):
            ran.append(config)
            if config is first:  # the higher-index failure comes first in time
                second_failed.wait(timeout=30)
            try:
                return attempt(config, *args, **kwargs)
            finally:
                if config is second:
                    second_failed.set()

        monkeypatch.setattr(executor, "_attempt_job", counting)
        with pytest.raises(SchemaError if swap else InfeasibleError):
            run_batch(configs, table, workers=2)
        assert sorted(map(id, ran)) == sorted(map(id, configs))  # every job ran

    def test_many_workers_take_every_job_once(self, table, monkeypatch):
        """More workers than cores and a short switch interval over jobs that
        return at once, so threads mostly race through the pick: no job is
        lost or run twice, and each result lands in its own slot."""
        mondrian = AnonymizationConfig.from_dict({**JOB, "algorithm": {"algorithm": "mondrian"}})
        configs = [  # distinct objects, so a job run twice cannot hide
            AnonymizationConfig.from_dict(config.to_dict())
            for config in self._qi_set_jobs() * 200 + [mondrian] * 100
        ]
        ran: list[int] = []

        def instant(config, *args, **kwargs):
            ran.append(id(config))
            return config

        monkeypatch.setattr(executor, "_attempt_job", instant)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                ran.clear()
                out: list = []
                runner = threading.Thread(
                    target=lambda: out.append(run_batch(configs, table, workers=8))
                )
                runner.start()
                runner.join(timeout=60)
                assert not runner.is_alive()
                (results,) = out
                assert sorted(ran) == sorted(map(id, configs))
                assert all(result is config for result, config in zip(results, configs))
        finally:
            sys.setswitchinterval(interval)


def _reference_pick(keys, pending, running):
    """The dispatch rule as a scan of the pending list."""
    busy = {keys[index] for index in running} - {None}
    idle = [index for index in pending if keys[index] is None or keys[index] not in busy]
    return min(idle or pending)


class TestPendingJobs:
    """The dispatch rule, driven by hand without threads."""

    def test_takes_the_lowest_job_of_an_idle_evaluator(self):
        jobs = _PendingJobs(["a", "a", "b", "b", "c", "c"])
        assert [jobs.take(), jobs.take(), jobs.take()] == [0, 2, 4]
        jobs.finish(2)  # b is idle again: its next job beats a's and c's
        assert jobs.take() == 3
        jobs.finish(0)
        jobs.finish(4)
        assert jobs.take() == 1  # a and c idle; a's next job is lower
        assert jobs.take() == 5

    def test_when_every_evaluator_is_busy_takes_the_lowest_pending_job(self):
        jobs = _PendingJobs(["a", "a", "b", "a", "b"])
        assert [jobs.take(), jobs.take()] == [0, 2]
        assert jobs.take() == 1  # a and b both busy
        jobs.finish(2)
        assert jobs.take() == 4  # b idle again, though a's 3 is lower
        assert jobs.take() == 3
        assert jobs.take() is None

    def test_one_evaluator_keeps_input_order(self):
        jobs = _PendingJobs(["a"] * 4)
        assert [jobs.take(), jobs.take()] == [0, 1]
        jobs.finish(1)
        assert [jobs.take(), jobs.take(), jobs.take()] == [2, 3, None]

    def test_an_evaluator_less_job_always_counts_as_idle(self):
        jobs = _PendingJobs(["a", "a", None, "a", None])
        assert jobs.take() == 0
        # a is busy, so its job 1 waits behind both evaluator-less jobs.
        assert [jobs.take(), jobs.take(), jobs.take()] == [2, 4, 1]
        jobs.finish(2)  # finishing an evaluator-less job frees nothing
        assert jobs.take() == 3
        assert jobs.take() is None

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_a_scan_of_the_pending_list(self, seed):
        rng = random.Random(seed)
        n_jobs = rng.randint(1, 40)
        keys = [rng.choice([None, "a", "b", "c", "d"]) for _ in range(n_jobs)]
        jobs = _PendingJobs(keys)
        pending, running = set(range(n_jobs)), set()
        while pending or running:
            if pending and (not running or rng.random() < 0.6):
                expected = _reference_pick(keys, pending, running)
                assert jobs.take() == expected
                pending.remove(expected)
                running.add(expected)
            else:
                index = rng.choice(sorted(running))
                jobs.finish(index)
                running.remove(index)
        assert jobs.take() is None


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


class TestConfigProcessKeys:
    """Neither backend nor chunk_rows is a config key."""

    def test_backend_must_be_known(self):
        for value in ("mpi", "thread", "process"):
            with pytest.raises(ConfigError, match="unknown key 'backend'"):
                AnonymizationConfig.from_dict({**JOB, "backend": value})

    @pytest.mark.parametrize("value", [None, 0, -1, 2.5, True, "64k", 3, 1024])
    def test_chunk_rows_is_rejected_at_every_value(self, value):
        # None is what a to_dict() of a config that still had the key held.
        with pytest.raises(ConfigError, match="^unknown key 'chunk_rows' in config"):
            AnonymizationConfig.from_dict({**JOB, "chunk_rows": value})

    def test_chunk_rows_flag_exits_2(self, csv_path, tmp_path, capsys):
        job_path = tmp_path / "job.json"
        job_path.write_text(json.dumps(JOB))
        with pytest.raises(SystemExit) as exit_info:
            cli_main(
                [str(csv_path), str(tmp_path / "anon.csv"), "--config",
                 str(job_path), "--chunk-rows", "3"]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --chunk-rows 3" in capsys.readouterr().err
        assert not (tmp_path / "anon.csv").exists()

    def test_round_trips_through_to_dict(self):
        config = AnonymizationConfig.from_dict({**JOB, "cache_bytes": 1024})
        assert "chunk_rows" not in config.to_dict()
        assert AnonymizationConfig.from_dict(config.to_dict()) == config
