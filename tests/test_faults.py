"""Fault tolerance: deterministic injection, retries, deadlines.

Pins the robustness contracts of the batch executor:

* the fault-injection subsystem (``repro.core.faults``) is deterministic —
  the same seed always produces the same failure sequence — and plans are
  validated, JSON round-trippable, and scoped by :func:`faults.injection`;
* cooperative deadlines interrupt jobs at the engine's node-evaluation
  checkpoints as :class:`JobTimeoutError` / :class:`BatchDeadlineError`;
* ``run_batch(on_error="collect")`` isolates failing jobs as structured
  :class:`JobFailure` records with the taxonomy label, per-attempt timings,
  and the exponential ``retry_backoff * 2**(attempt-1)`` schedule;
* nonsense policy combinations are rejected at validation time with
  key-naming :class:`ConfigError` messages;
* the CLI surfaces the same policy (``--on-error``, ``--retries``,
  ``--job-timeout``) with failure summaries and exit-code semantics.
"""

import json

import pytest

from repro.api import AnonymizationConfig, FailurePolicy, JobFailure, run, run_batch
from repro.api import executor as executor_module
from repro.cli import main as cli_main
from repro.core import faults
from repro.core.deadline import Deadline, current_deadline, deadline_scope, tightest
from repro.core.io import read_csv
from repro.errors import (
    BatchDeadlineError,
    ConfigError,
    FaultInjectedError,
    InfeasibleError,
    JobTimeoutError,
    classify_error,
)

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

#: k so large no generalization satisfies it — the stock failing job.
INFEASIBLE = {**JOB, "models": [{"model": "k-anonymity", "k": 10**9}]}


def _configs(*dicts):
    return [AnonymizationConfig.from_dict(d) for d in dicts]


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


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no plan armed (env read stays lazy)."""
    faults.reset()
    yield
    faults.reset()


class TestFaultPlan:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            faults.FaultPlan({"no-such-point": {}})
        with pytest.raises(ValueError, match="known points: evaluate-node"):
            faults.FaultPlan({"worker-kill": {}})

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown spec key"):
            faults.FaultPlan({"evaluate-node": {"whenever": 3}})

    @pytest.mark.parametrize("rate", [0.0, -0.5, 1.5, True, "half"])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="key 'rate'"):
            faults.FaultPlan({"evaluate-node": {"rate": rate}})

    @pytest.mark.parametrize("value", [0, -1, 1.5, True])
    def test_bad_at_every_rejected(self, value):
        with pytest.raises(ValueError, match="positive integer"):
            faults.FaultPlan({"evaluate-node": {"at": value}})

    def test_bad_error_family_rejected(self):
        with pytest.raises(ValueError, match="key 'error'"):
            faults.FaultPlan({"evaluate-node": {"error": "kaboom"}})

    def test_json_round_trip(self):
        plan = faults.FaultPlan(
            {"evaluate-node": {"at": 2, "delay": 0.5, "error": "os"}}, seed=7
        )
        clone = faults.FaultPlan.from_json(json.dumps(plan.to_dict()))
        assert clone.to_dict() == plan.to_dict()

    def test_injection_scope_restores_previous_state(self):
        assert not faults.any_armed()
        with faults.injection({"points": {"evaluate-node": {}}}):
            assert faults.any_armed()
        assert not faults.any_armed()

    def test_env_var_arms_lazily(self, monkeypatch):
        plan = {"points": {"evaluate-node": {"at": 1}}, "seed": 3}
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(plan))
        faults.reset()
        assert faults.any_armed()
        with pytest.raises(FaultInjectedError):
            faults.fire("evaluate-node")
        assert faults.fired() == [("evaluate-node", 1)]

    def test_invalid_env_var_is_a_loud_error(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "{not json")
        faults.reset()
        with pytest.raises(ValueError, match="not valid JSON"):
            faults.any_armed()


class TestDeterminism:
    def test_rate_decisions_are_a_pure_function_of_seed(self):
        spec = {"rate": 0.5}
        first = [faults._decide(spec, 7, "evaluate-node", n) for n in range(1, 101)]
        second = [faults._decide(spec, 7, "evaluate-node", n) for n in range(1, 101)]
        other = [faults._decide(spec, 8, "evaluate-node", n) for n in range(1, 101)]
        assert first == second
        assert first != other
        assert 20 < sum(first) < 80  # the hash draw actually approximates rate

    def test_same_seed_same_failure_sequence(self, table):
        configs = _configs(JOB, {**JOB, "metrics": ["gcp"]}, JOB)
        plan = {"points": {"evaluate-node": {"rate": 0.4}}, "seed": 11}

        def fired_log():
            with faults.injection(plan):
                results = run_batch(configs, table, on_error="collect")
                log = faults.fired()
            statuses = [r.status for r in results]
            return log, statuses

        first_log, first_statuses = fired_log()
        second_log, second_statuses = fired_log()
        assert first_log == second_log
        assert first_statuses == second_statuses
        assert any(isinstance(s, str) and s == "failed" for s in first_statuses)

    def test_at_triggers_exactly_once(self, table):
        with faults.injection({"points": {"evaluate-node": {"at": 1}}}):
            results = run_batch(_configs(JOB), table, on_error="collect")
            assert faults.fired() == [("evaluate-node", 1)]
        (failure,) = results
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "fault"

    def test_match_filter_only_counts_eligible_calls(self):
        faults.arm({"points": {"evaluate-node": {"at": 1, "match": {"node": [1]}}}})
        faults.fire("evaluate-node", node=(0,))  # filtered out, not counted
        with pytest.raises(FaultInjectedError):
            faults.fire("evaluate-node", node=(1,))


    def test_match_names_the_store_key_whatever_the_qi_order(self, table):
        """The context is the store key (names sorted, levels permuted to
        match), so a plan written that way fires for a job whose QIs are
        listed unsorted: Flash over zipcode, job releases node (0, 1)."""
        config = {**JOB, "numeric_quasi_identifiers": []}
        match = {"names": ["job", "zipcode"], "node": [1, 0]}
        with faults.injection({"points": {"evaluate-node": {"match": match}}}):
            (failure,) = run_batch(_configs(config), table, on_error="collect")
            assert faults.fired() == [("evaluate-node", 1)]
        assert isinstance(failure, JobFailure)
        assert failure.error_type == "fault"
        assert run(AnonymizationConfig.from_dict(config), table).node == (0, 1)


class TestDeadlines:
    def test_kind_selects_the_taxonomy_error(self):
        with pytest.raises(JobTimeoutError):
            Deadline(1e-9, kind="job-timeout").check()
        with pytest.raises(BatchDeadlineError):
            Deadline(1e-9, kind="batch-deadline").check()

    def test_tightest_picks_least_remaining(self):
        loose = Deadline(100.0)
        tight = Deadline(0.5)
        assert tightest(loose, None, tight) is tight
        assert tightest(None, None) is None

    def test_scope_nesting_and_explicit_clear(self):
        outer = Deadline(100.0)
        with deadline_scope(outer):
            assert current_deadline() is outer
            with deadline_scope(None):
                assert current_deadline() is None
            assert current_deadline() is outer
        assert current_deadline() is None

    def test_config_job_timeout_interrupts_run(self, table):
        config = AnonymizationConfig.from_dict({**JOB, "job_timeout": 0.01})
        plan = {"points": {"evaluate-node": {"delay": 0.05}}}
        with faults.injection(plan):
            with pytest.raises(JobTimeoutError, match="job timeout"):
                run(config, table)

    def test_batch_deadline_collects_deadline_failures(self, table):
        configs = _configs(JOB, JOB, JOB)
        plan = {"points": {"evaluate-node": {"delay": 0.05, "every": 1}}}
        with faults.injection(plan):
            results = run_batch(
                configs, table, on_error="collect", batch_deadline=0.02
            )
        assert all(isinstance(r, JobFailure) for r in results)
        assert {r.error_type for r in results} == {"deadline"}

    def test_deadline_failures_are_not_retried(self, table):
        plan = {"points": {"evaluate-node": {"delay": 0.05, "every": 1}}}
        with faults.injection(plan):
            (failure,) = run_batch(
                _configs(JOB),
                table,
                on_error="collect",
                batch_deadline=0.02,
                retries=3,
            )
        assert isinstance(failure, JobFailure)
        assert len(failure.attempts) == 1  # BatchDeadlineError is non-retryable


class TestRetries:
    def test_retry_succeeds_after_transient_fault(self, table):
        with faults.injection({"points": {"evaluate-node": {"at": 1}}}):
            (result,) = run_batch(
                _configs(JOB), table, on_error="collect", retries=1
            )
        assert result.status == "ok"
        assert result.attempts == 2
        assert result.error["type"] == "fault"  # audit trail of attempt 1
        assert result.release is not None

    def test_backoff_schedule_is_exponential(self, table, monkeypatch):
        sleeps = []
        monkeypatch.setattr(executor_module, "_sleep", sleeps.append)
        plan = {"points": {"evaluate-node": {"every": 1}}}
        with faults.injection(plan):
            (failure,) = run_batch(
                _configs(JOB),
                table,
                on_error="collect",
                retries=3,
                retry_backoff=0.001,
            )
        assert isinstance(failure, JobFailure)
        assert len(failure.attempts) == 4
        assert sleeps == [0.001, 0.002, 0.004]
        assert [a["backoff"] for a in failure.attempts[:-1]] == sleeps
        assert "backoff" not in failure.attempts[-1]

    def test_collect_isolates_the_bad_job(self, table):
        results = run_batch(
            _configs(JOB, INFEASIBLE, JOB), table, on_error="collect"
        )
        assert [r.status for r in results] == ["ok", "failed", "ok"]
        failure = results[1]
        assert failure.error_type == "infeasible"
        assert failure.error["message"] in failure.error["traceback"]
        payload = failure.to_dict()
        assert payload["status"] == "failed"
        assert payload["attempts"][0]["attempt"] == 1

    def test_raise_mode_keeps_the_historic_contract(self, table):
        with pytest.raises(InfeasibleError):
            run_batch(_configs(JOB, INFEASIBLE), table)

    def test_result_to_dict_carries_status_and_attempts(self, table):
        (result,) = run_batch(_configs(JOB), table)
        payload = result.to_dict()
        assert payload["status"] == "ok"
        assert payload["attempts"] == 1
        assert "error" not in payload


class TestPolicyValidation:
    @pytest.mark.parametrize(
        ("kwargs", "key"),
        [
            ({"on_error": "ignore"}, "on_error"),
            ({"on_error": "collect", "job_timeout": 0}, "job_timeout"),
            ({"on_error": "collect", "job_timeout": float("inf")}, "job_timeout"),
            ({"on_error": "collect", "batch_deadline": -3}, "batch_deadline"),
            ({"on_error": "collect", "retries": -1}, "retries"),
            ({"on_error": "collect", "retries": 1.5}, "retries"),
            ({"on_error": "collect", "retries": 1, "retry_backoff": -0.1},
             "retry_backoff"),
        ],
    )
    def test_key_naming_messages(self, kwargs, key):
        with pytest.raises(ConfigError, match=f"key '{key}'"):
            FailurePolicy(**kwargs)

    def test_retries_require_collect(self):
        with pytest.raises(ConfigError, match="only applies with on_error='collect'"):
            FailurePolicy(retries=2)

    def test_backoff_requires_retries(self):
        with pytest.raises(ConfigError, match="without 'retries'"):
            FailurePolicy(on_error="collect", retry_backoff=0.5)

    def test_run_batch_validates_before_running(self, table):
        with pytest.raises(ConfigError, match="key 'retries'"):
            run_batch(_configs(JOB), table, retries=1)

    def test_config_job_timeout_validated(self):
        with pytest.raises(ConfigError, match="key 'job_timeout'"):
            AnonymizationConfig.from_dict({**JOB, "job_timeout": -1})

    def test_classify_covers_the_new_errors(self):
        assert classify_error(JobTimeoutError("x")) == "timeout"
        assert classify_error(BatchDeadlineError("x")) == "deadline"
        assert classify_error(FaultInjectedError("x")) == "fault"


class TestFaultsCLI:
    def _write_batch(self, tmp_path, jobs):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(jobs))
        return str(path)

    def test_collect_skips_failed_outputs_and_exits_1(
        self, csv_path, tmp_path, capsys
    ):
        jobs = self._write_batch(tmp_path, [JOB, INFEASIBLE, JOB])
        out = tmp_path / "out.csv"
        code = cli_main(
            [str(csv_path), str(out), "--config", jobs, "--on-error", "collect"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert (tmp_path / "out.1.csv").exists()
        assert not (tmp_path / "out.2.csv").exists()
        assert (tmp_path / "out.3.csv").exists()
        assert "job 2 failed [infeasible] after 1 attempt(s)" in captured.err

    def test_collect_report_carries_structured_failures(
        self, csv_path, tmp_path, capsys
    ):
        jobs = self._write_batch(tmp_path, [JOB, INFEASIBLE])
        code = cli_main(
            [str(csv_path), str(tmp_path / "out.csv"), "--config", jobs,
             "--on-error", "collect", "--report"]
        )
        assert code == 1
        err = capsys.readouterr().err  # the report prints to stderr
        payload = json.loads(err[err.index("\n[") :])
        assert [entry["status"] for entry in payload] == ["ok", "failed"]
        assert payload[1]["error"]["type"] == "infeasible"

    def test_raise_mode_stays_the_default(self, csv_path, tmp_path, capsys):
        jobs = self._write_batch(tmp_path, [JOB, INFEASIBLE])
        code = cli_main([str(csv_path), str(tmp_path / "out.csv"), "--config", jobs])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["read_csv", "run", "batch"])
    def test_out_of_memory_exits_2_with_one_error_line(
        self, csv_path, tmp_path, capsys, monkeypatch, where
    ):
        # An allocation failure in CSV ingest, in a job or in a batch under
        # the default --on-error raise is one error line and exit 2, not a
        # traceback and exit 1.
        jobs = self._write_batch(tmp_path, [JOB, JOB] if where == "batch" else JOB)
        plan = {"points": {"evaluate-node": {"at": 1, "error": "memory"}}}
        if where == "read_csv":
            def exhausted(*args, **kwargs):
                raise MemoryError("Unable to allocate 5.15 GiB for an array")

            monkeypatch.setattr("repro.cli.read_csv", exhausted)
            plan = {"points": {}}
        with faults.injection(plan):
            code = cli_main([str(csv_path), str(tmp_path / "out.csv"), "--config", jobs])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        message = (
            "Unable to allocate 5.15 GiB for an array" if where == "read_csv"
            else "injected fault at point 'evaluate-node' (call #1)"
        )
        assert line == f"error: out of memory: {message}"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv", "jobs.json"]

    def test_policy_flags_require_batch_mode(self, csv_path, tmp_path, capsys):
        with pytest.raises(SystemExit):
            cli_main(
                [str(csv_path), str(tmp_path / "out.csv"), "--qi", "zipcode",
                 "--on-error", "collect"]
            )
        single = tmp_path / "one.json"
        single.write_text(json.dumps(JOB))
        code = cli_main(
            [str(csv_path), str(tmp_path / "out.csv"), "--config", str(single),
             "--retries", "2"]
        )
        assert code == 2
        assert "--retries applies to batch mode" in capsys.readouterr().err
        batch = tmp_path / "jobs.json"
        batch.write_text(json.dumps([JOB, JOB]))
        with pytest.raises(SystemExit) as excinfo:
            cli_main(
                [str(csv_path), str(tmp_path / "out.csv"), "--config", str(batch),
                 "--backend", "thread"]
            )
        assert excinfo.value.code == 2

    def test_negative_retries_rejected(self, csv_path, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                [str(csv_path), str(tmp_path / "out.csv"), "--config", "x.json",
                 "--retries", "-1"]
            )

    def test_single_job_timeout_flag_sets_config(self, csv_path, tmp_path):
        out = tmp_path / "out.csv"
        code = cli_main(
            [str(csv_path), str(out), "--qi", "zipcode", "--qi", "job",
             "--numeric-qi", "age", "--sensitive", "disease", "--k", "2",
             "--job-timeout", "30"]
        )
        assert code == 0
        assert out.exists()
