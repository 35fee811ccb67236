"""The job executor: one entry point that every public surface funnels into.

:func:`execute` is the single code path that turns (table, schema,
hierarchies, models, algorithm) into a :class:`AnonymizationResult`; the
declarative :func:`run`, the batch :func:`run_batch`, the CLI, and the
legacy :meth:`Anonymizer.apply <repro.core.anonymizer.Anonymizer.apply>`
shim all call it, which is what makes a job expressed once produce
byte-identical releases no matter which door it enters through.

:func:`run` is a batch of one: it returns ``run_batch([config], table)[0]``.
So :class:`BatchPlanner` is the only code that builds a job's schema,
hierarchies, engine cache store and evaluator, and :func:`_attempt_job`
the only code that arms a job's time budget, and a job's
``AnonymizationResult.to_dict()`` reads the same whichever door it took.

:func:`run_batch` additionally shares one
:class:`~repro.core.engine.LatticeEvaluator` across all jobs that agree on
QI roles and the table environment, and one engine cache store across every
QI set of a table environment, so a multi-config sweep (an algorithm
shootout, a k-sweep, a QI-subset sweep) evaluates each lattice node once —
the engine's memoized ``GroupStats`` serve every job;
``LatticeEvaluator.cache_info()`` shows the sharing (``hits`` grow,
``from_rows`` do not). With ``workers > 1`` the jobs of a batch run on
that many threads against the same shared evaluators, whose store is
thread-safe and single-flight — two workers never evaluate the same
lattice node twice, and results are byte-identical to sequential execution.
A free thread takes the lowest pending job whose evaluator no running job
uses, so workers sweeping several QI sets do not wait on each other's
nodes (see ``docs/architecture.md``).

The grouping is done by :class:`BatchPlanner`: the evaluators of one table
environment (same dropped columns, hierarchy specs, ``bins`` and
``cache_bytes``) get one :class:`~repro.core.cache.EngineCacheStore`
holding their jobs' own ``cache_bytes`` budget (256 MiB by default), so a
batch's engine memory is bounded per table environment, and one
identifier-stripped table, which the store's one stats context points at.
The store also holds the environment's hierarchies and QI encodings, which
a batch over an injected warm store reuses instead of rebuilding.
"""

from __future__ import annotations

import heapq
import math
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .._version import __version__
from ..core.cache import DEFAULT_CACHE_BYTES, EngineCacheStore
from ..core.deadline import Deadline, check_seconds, deadline_scope, tightest
from ..core.engine import LatticeEvaluator
from ..core.release import Release
from ..core.schema import Schema
from ..core.table import Table
from ..errors import (
    BatchDeadlineError,
    ConfigError,
    HierarchyError,
    SchemaError,
    classify_error,
)
from .config import AnonymizationConfig, build_hierarchies, build_schema
from .registry import (
    MetricContext,
    algorithm_registry,
    metric_registry,
    model_registry,
)

__all__ = [
    "AnonymizationResult",
    "BatchPlan",
    "BatchPlanner",
    "FailurePolicy",
    "JobFailure",
    "ON_ERROR",
    "execute",
    "run",
    "run_batch",
    "jsonable",
]

#: Recognized ``on_error=`` values for :func:`run_batch`.
ON_ERROR = ("raise", "collect")

#: Deterministic input errors that a retry can never fix (same config, same
#: table, same verdict), plus the batch deadline — once it has passed, every
#: further attempt is born expired.
_NON_RETRYABLE = (ConfigError, SchemaError, HierarchyError, BatchDeadlineError)

#: Seam for tests: the backoff sleeper (monkeypatch to assert the schedule
#: without actually waiting).
_sleep = time.sleep


def _check_workers(value: Any) -> int:
    """Reject a worker count that is not a positive int (bools included)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"key 'workers' must be a positive integer, got {value!r}")
    return value


@dataclass(frozen=True)
class FailurePolicy:
    """Validated failure-handling policy of one batch.

    ``on_error="raise"`` (default) preserves the historic contract: the
    first failing job aborts the whole batch with its original exception.
    ``"collect"`` turns each failing job into a :class:`JobFailure` record
    in the results list instead, optionally after ``retries`` extra
    attempts spaced by exponential backoff (``retry_backoff * 2**(attempt-1)``
    seconds). ``job_timeout`` and ``batch_deadline`` are cooperative
    budgets enforced at the engine's node-evaluation checkpoints.
    Validation happens at construction — nonsense combinations fail before
    any job runs.
    """

    on_error: str = "raise"
    job_timeout: float | None = None
    batch_deadline: float | None = None
    retries: int = 0
    retry_backoff: float = 0.0

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR:
            raise ConfigError(
                f"key 'on_error' must be one of {', '.join(ON_ERROR)}; "
                f"got {self.on_error!r}"
            )
        check_seconds("job_timeout", self.job_timeout)
        check_seconds("batch_deadline", self.batch_deadline)
        if (
            isinstance(self.retries, bool)
            or not isinstance(self.retries, int)
            or self.retries < 0
        ):
            raise ConfigError(
                f"key 'retries' must be a non-negative integer, got {self.retries!r}"
            )
        if (
            isinstance(self.retry_backoff, bool)
            or not isinstance(self.retry_backoff, (int, float))
            or not math.isfinite(self.retry_backoff)
            or self.retry_backoff < 0
        ):
            raise ConfigError(
                f"key 'retry_backoff' must be a non-negative number of seconds, "
                f"got {self.retry_backoff!r}"
            )
        if self.retries and self.on_error == "raise":
            raise ConfigError(
                "key 'retries' only applies with on_error='collect'; under "
                "'raise' the first failure aborts the batch, so a retry "
                "budget could never be spent"
            )
        if self.retry_backoff and not self.retries:
            raise ConfigError(
                "key 'retry_backoff' without 'retries' is a silent knob; "
                "set 'retries' >= 1 or drop 'retry_backoff'"
            )


@dataclass
class JobFailure:
    """Structured record of one job's failure inside a collected batch.

    Takes a failed job's slot in the :func:`run_batch` results list under
    ``on_error="collect"``. ``error`` is ``{"type", "message", "traceback"}``
    — ``type`` being the :data:`repro.errors.ERROR_TAXONOMY` label of the
    final attempt's exception — and ``attempts`` holds one record per
    attempt (``attempt``, ``seconds``, ``error``, and ``backoff`` when a
    retry followed). ``release``/``engine`` are always ``None`` and
    ``status`` is ``"failed"``, so result-shaped consumers can branch on
    the same attributes they read from :class:`AnonymizationResult`.
    """

    config: AnonymizationConfig | None
    error: dict[str, Any]
    attempts: list[dict[str, Any]] = field(default_factory=list)
    status: str = "failed"

    # Result-shaped accessors (class attributes, not fields: a failure
    # never carries a release or an engine).
    release = None
    engine = None

    @property
    def error_type(self) -> str:
        return str(self.error.get("type", "runtime"))

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "status": self.status,
            "algorithm": (
                self.config.algorithm.get("algorithm")
                if self.config is not None
                else None
            ),
            "error": self.error,
            "attempts": self.attempts,
        }
        if self.config is not None:
            out["config"] = self.config.to_dict()
        return jsonable(out)


def _failure_record(exc: BaseException) -> dict[str, Any]:
    """The picklable ``{"type", "message", "traceback"}`` view of an error."""
    return {
        "type": classify_error(exc),
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


def jsonable(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays and tuples into JSON types."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (bool, int, float, str, type(None))):
        return value
    return str(value)


@dataclass
class AnonymizationResult:
    """The executor's bundled output: release + audit trail + reports.

    ``to_dict()`` is JSON-safe end to end — what a service logs or returns
    as an API response; the :class:`~repro.core.release.Release` itself
    (with the published table) stays on the object for library callers.
    """

    release: Release
    models: tuple = ()
    config: AnonymizationConfig | None = None
    timings: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    engine: LatticeEvaluator | None = None
    #: ``"ok"`` always — the failed counterpart is a :class:`JobFailure`
    #: (``status="failed"``); the shared field lets result consumers branch
    #: without isinstance checks.
    status: str = "ok"
    #: Error record of the *last failed attempt* when the job only
    #: succeeded after retries; ``None`` for a first-attempt success.
    error: dict[str, Any] | None = None
    #: Number of attempts it took to produce this result (1 = no retries).
    attempts: int = 1

    @property
    def table(self) -> Table:
        return self.release.table

    @property
    def node(self) -> tuple | None:
        """Chosen lattice node (full-domain algorithms only)."""
        return self.release.node

    @property
    def suppressed(self) -> int:
        return self.release.suppressed

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "status": self.status,
            "version": __version__,
            "algorithm": self.release.algorithm,
            "models": [getattr(m, "name", str(m)) for m in self.models],
            "summary": self.release.summary(),
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
            "metrics": self.metrics,
            "attempts": self.attempts,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.engine is not None:
            out["engine_cache"] = self.engine.cache_info()
        partition_cache = (self.release.info or {}).get("partition_cache")
        if partition_cache is not None:
            # Local-recoding algorithms report their PartitionEngine
            # counters the same way lattice jobs report engine_cache.
            out["partition_cache"] = dict(partition_cache)
        if self.config is not None:
            out["config"] = self.config.to_dict()
        return jsonable(out)


def execute(
    table: Table,
    schema: Schema,
    hierarchies: Mapping[str, Any],
    models: Sequence,
    algorithm=None,
    metrics: Sequence[str] = (),
    evaluator: LatticeEvaluator | None = None,
    config: AnonymizationConfig | None = None,
) -> AnonymizationResult:
    """Run one job from resolved (live) objects.

    The lowest-level entry point — :func:`run`, :func:`run_batch`, the CLI,
    and ``Anonymizer.apply`` are wrappers over it. ``evaluator`` is handed
    to lattice-search algorithms that advertise ``uses_evaluator`` so batch
    callers can share memoized node statistics across jobs.
    """
    if algorithm is None:
        from ..algorithms.mondrian import Mondrian

        algorithm = Mondrian(mode="strict")
    timings: dict[str, float] = {}
    start = time.perf_counter()
    uses_evaluator = evaluator is not None and getattr(
        type(algorithm), "uses_evaluator", False
    )
    if uses_evaluator:
        release = algorithm.anonymize(
            table, schema, hierarchies, list(models), evaluator=evaluator
        )
    else:
        release = algorithm.anonymize(table, schema, hierarchies, list(models))
    timings["anonymize"] = time.perf_counter() - start

    start = time.perf_counter()
    # Metrics defined against the job's target k (e.g. C_AVG) must see the
    # requested k, not whatever minimum class size the release happens to have.
    target_ks = [int(m.k) for m in models if hasattr(m, "k")]
    context = MetricContext(
        original=table,
        release=release,
        hierarchies=hierarchies,
        sensitive=tuple(schema.sensitive),
        extras={"target_k": max(target_ks)} if target_ks else {},
    )
    computed = {name: metric_registry.compute(name, context) for name in metrics}
    if metrics:
        timings["metrics"] = time.perf_counter() - start
    return AnonymizationResult(
        release=release,
        models=tuple(models),
        config=config,
        timings=timings,
        metrics=computed,
        # Only algorithms that consumed the evaluator report its cache —
        # attaching it to e.g. a Mondrian run would imply sharing that
        # never happened.
        engine=evaluator if uses_evaluator else None,
    )


def _resolve(config: AnonymizationConfig) -> tuple[list, Any]:
    """(models, algorithm) from a config, with its suppression budget set."""
    models = [model_registry.from_spec(spec) for spec in config.models]
    algorithm = algorithm_registry.from_spec(config.algorithm)
    if config.max_suppression is not None and hasattr(algorithm, "max_suppression"):
        algorithm.max_suppression = float(config.max_suppression)
    return models, algorithm


def run(
    config: AnonymizationConfig,
    table: Table,
    hierarchies: Mapping[str, Any] | None = None,
) -> AnonymizationResult:
    """Execute one declarative job against a table: a batch of one.

    ``hierarchies`` optionally overrides spec-built hierarchies with live
    objects (curated domain trees that have no JSON spec form); everything
    else still comes from the config. The job takes the path of every
    :func:`run_batch` job: its store holds the config's ``cache_bytes``
    (256 MiB by default), a lattice search reports that store's counters
    as ``engine_cache``, and the config's ``job_timeout`` is its only time
    budget — a deadline armed around the call does not reach it.

    Example (doctested)::

        >>> from repro.core.table import Table
        >>> table = Table.from_dict(
        ...     {"zip": ["130", "130", "148", "148"]}, categorical=["zip"])
        >>> result = run(AnonymizationConfig.from_dict({
        ...     "quasi_identifiers": ["zip"],
        ...     "models": [{"model": "k-anonymity", "k": 2}],
        ...     "algorithm": {"algorithm": "flash"},
        ... }), table)
        >>> result.node       # level 0 already satisfies k=2 here
        (0,)
        >>> result.release.table.column("zip").decode()
        ['130', '130', '148', '148']
        >>> sorted(result.to_dict())  # JSON-safe report for logs/services
        ['algorithm', 'attempts', 'config', 'engine_cache', 'metrics', 'models', 'status', 'summary', 'timings', 'version']
    """
    return run_batch([config], table, hierarchies=hierarchies)[0]


def _effective_deadline(
    config: AnonymizationConfig,
    policy: FailurePolicy,
    batch_deadline: Deadline | None,
) -> Deadline | None:
    """Tightest of the job's own timeout(s) and the batch deadline.

    Per-job timeouts restart on every attempt (a fresh :class:`Deadline`
    each call); the batch deadline is one budget shared by every job.
    """
    job_seconds = [
        s for s in (config.job_timeout, policy.job_timeout) if s is not None
    ]
    job = Deadline(min(job_seconds), kind="job-timeout") if job_seconds else None
    return tightest(job, batch_deadline)


def _attempt_job(
    config: AnonymizationConfig,
    table: Table,
    schema: Schema,
    hierarchies: Mapping[str, Any],
    policy: FailurePolicy,
    batch_deadline: Deadline | None,
    evaluator: LatticeEvaluator | None = None,
) -> "AnonymizationResult | JobFailure":
    """Run one job under the failure policy: deadlines, retries, backoff.

    The one job runner: the sequential loop and the worker threads of
    every batch, :func:`run`'s batch of one included, funnel through it,
    so it is the only code that arms a job's time budget and retry or
    timeout semantics cannot drift between paths. Each attempt runs
    :func:`execute` under the tightest of the job's timeouts and the
    batch deadline; a deadline armed by the caller does not reach it.
    Under ``on_error="raise"`` the first failure propagates unchanged
    (the historic contract); under ``"collect"`` the job's final failure
    comes back as a :class:`JobFailure` carrying every attempt's timing
    and error record.
    """
    attempts: list[dict[str, Any]] = []
    total = policy.retries + 1
    for attempt in range(1, total + 1):
        started = time.perf_counter()
        try:
            if batch_deadline is not None:
                batch_deadline.check()
            with deadline_scope(
                _effective_deadline(config, policy, batch_deadline)
            ):
                models, algorithm = _resolve(config)
                prepared = time.perf_counter()
                result = execute(
                    table, schema, hierarchies, models, algorithm,
                    metrics=config.metrics, evaluator=evaluator, config=config,
                )
            result.timings = {"prepare": prepared - started, **result.timings}
        except Exception as exc:  # noqa: BLE001 - isolating a bad job is the point
            record: dict[str, Any] = {
                "attempt": attempt,
                "seconds": round(time.perf_counter() - started, 6),
                "error": _failure_record(exc),
            }
            attempts.append(record)
            if policy.on_error == "raise":
                raise
            if attempt < total and not isinstance(exc, _NON_RETRYABLE):
                backoff = policy.retry_backoff * (2 ** (attempt - 1))
                if batch_deadline is not None:
                    # Sleeping past the batch deadline would only convert
                    # this failure into a less informative "deadline" one.
                    backoff = min(backoff, max(batch_deadline.remaining(), 0.0))
                record["backoff"] = round(backoff, 6)
                if backoff > 0:
                    _sleep(backoff)
                continue
            return JobFailure(config=config, error=record["error"], attempts=attempts)
        result.attempts = attempt
        if attempts:
            # Succeeded after retries: keep the last failed attempt's error
            # on the result for the audit trail.
            result.error = attempts[-1]["error"]
        return result
    raise AssertionError("unreachable: every attempt returns or raises")


def _environment_key(config: AnonymizationConfig) -> tuple[str, str]:
    """(store_key, schema_key) for batch sharing.

    The store key names a table environment: the dropped columns, the
    hierarchy specs, ``bins`` and ``cache_bytes``. A node's statistics over
    some columns are a pure function of the table rows and those columns'
    hierarchies and levels, not of which job's QI set asked for them, so
    every job of one table environment can share one engine cache store.
    Jobs demanding different budgets cannot.
    The schema key adds the QI and sensitive roles: two jobs may share a
    store yet need different schemas, and collapsing them would hand job B
    job A's QIs or sensitive column (search, metrics, release schema)
    without any error.
    """
    import json

    store_key = json.dumps(
        {
            "drop": config.drop,
            "hier": config.hierarchies,
            "bins": config.bins,
            "cache_bytes": config.cache_bytes,
        },
        sort_keys=True,
        default=list,
    )
    schema_key = store_key + json.dumps(
        {
            "qi": config.quasi_identifiers,
            "num": config.numeric_quasi_identifiers,
            "sensitive": config.sensitive,
        },
        sort_keys=True,
        default=list,
    )
    return store_key, schema_key


def run_batch(
    configs: Iterable[AnonymizationConfig],
    table: Table,
    hierarchies: Mapping[str, Any] | None = None,
    workers: int = 1,
    on_error: str = "raise",
    job_timeout: float | None = None,
    batch_deadline: float | None = None,
    retries: int = 0,
    retry_backoff: float = 0.0,
    cache_stores: Mapping[str, EngineCacheStore] | None = None,
) -> "list[AnonymizationResult | JobFailure]":
    """Execute many jobs on one table, sharing lattice evaluation.

    Configs that agree on QI roles and hierarchy specs (the typical sweep:
    same data scenario, varying models/algorithms/budgets) are served by a
    single shared :class:`LatticeEvaluator`, so a node evaluated by one
    job's search is a memo hit for every later job. The evaluators of
    different QI sets share one cache store when their jobs agree on the
    table side (dropped columns, hierarchy specs, ``bins``, ``cache_bytes``):
    a column subset that several QI sets reach, such as Incognito's subset
    bottoms, is evaluated once, and each column's hierarchy is built once. Results come back in input order, each
    carrying its evaluator on ``.engine``; its ``cache_info()`` counts the
    whole shared store. ``hierarchies`` overrides spec-built hierarchies
    with live objects for the whole batch; it cannot be combined with
    ``cache_stores`` (:class:`ConfigError`).

    ``workers`` must be a positive integer (else :class:`ConfigError`);
    ``workers > 1`` runs the jobs on ``min(workers, len(configs))``
    threads. A free thread takes the lowest-index pending job whose
    evaluator no running job uses (a job that uses none always qualifies),
    and only when there is none the lowest-index pending job: a QI-set
    sweep gives each thread its own evaluator, and a one-evaluator batch
    runs in input order on every thread. Jobs still share evaluators
    exactly as in sequential mode — the engine's cache is thread-safe with
    single-flight computation, so concurrent searches never evaluate one
    lattice node twice (the ``coalesced`` counter of
    :meth:`LatticeEvaluator.cache_info` shows how often a worker waited on
    another's in-flight node instead). Every job's computation is
    deterministic and isolated apart from that cache, so the returned
    releases are byte-identical to ``workers=1`` regardless of scheduling.
    Under ``on_error="raise"`` every job still runs, and the lowest-index
    failure is raised.
    Each shared store holds its jobs' own ``cache_bytes`` budget (256 MiB
    by default); there is no batch-wide budget.

    The failure-policy arguments make a batch survive bad jobs (see
    :class:`FailurePolicy` and ``docs/architecture.md`` — *Fault
    tolerance*). ``on_error="raise"`` (default) keeps the
    historic all-or-nothing contract; ``on_error="collect"`` returns a
    structured :class:`JobFailure` in the failed job's slot instead of
    aborting its siblings, optionally retrying each failed job
    ``retries`` times with exponential ``retry_backoff``. ``job_timeout``
    and ``batch_deadline`` are cooperative budgets (seconds) enforced
    between node evaluations; the tighter of ``job_timeout`` and a job's
    own ``AnonymizationConfig.job_timeout`` wins.

    Example (doctested)::

        >>> from repro.core.table import Table
        >>> table = Table.from_dict(
        ...     {"zip": ["130", "130", "148", "148", "130", "148"],
        ...      "disease": ["flu", "hiv", "flu", "flu", "flu", "hiv"]},
        ...     categorical=["zip", "disease"],
        ... )
        >>> jobs = [
        ...     AnonymizationConfig.from_dict({
        ...         "quasi_identifiers": ["zip"], "sensitive": ["disease"],
        ...         "models": [{"model": "k-anonymity", "k": k}],
        ...         "algorithm": {"algorithm": "flash"},
        ...     })
        ...     for k in (2, 3)
        ... ]
        >>> results = run_batch(jobs, table, workers=2)
        >>> [r.node for r in results]           # input order is preserved
        [(0,), (0,)]
        >>> results[0].engine is results[1].engine  # one shared evaluator
        True

    ``cache_stores`` is the cross-batch warm-start seam: a mapping from
    table-environment store keys (element 0 of :func:`_environment_key`)
    to long-lived :class:`~repro.core.cache.EngineCacheStore` objects. The
    evaluators of every QI set whose store key appears in the mapping use
    the given store as their memo store instead of building a fresh one —
    entries cached by an earlier batch over a byte-identical table are
    memo hits here (``hits`` grow, ``from_rows`` stays put), and this
    batch's entries stay behind in the store for the next. A store also
    keeps its table environment: a batch over the same ``Table`` object
    reuses its hierarchies and QI encodings, so it builds no hierarchy and
    encodes no column. Injected stores keep their own byte budgets; the
    caller owns their lifecycle. This is the hook the multi-tenant service
    (:mod:`repro.service`) keeps per-tenant caches warm through. A store
    key cannot name live hierarchy objects, so passing ``hierarchies`` too
    raises :class:`ConfigError` instead of letting an override's stats
    answer later batches that have none.
    """
    planner = BatchPlanner(
        configs,
        table,
        hierarchies=hierarchies,
        workers=workers,
        on_error=on_error,
        job_timeout=job_timeout,
        batch_deadline=batch_deadline,
        retries=retries,
        retry_backoff=retry_backoff,
        cache_stores=cache_stores,
    )
    return planner.execute()


def _uses_evaluator(config: AnonymizationConfig) -> bool:
    """True if the config's algorithm class consumes a shared evaluator."""
    entry = algorithm_registry._entry(config.algorithm["algorithm"])
    return bool(getattr(entry.cls, "uses_evaluator", False))


def _stripped(table: Table, schema: Schema) -> Table:
    """``table`` without the schema's identifying columns, as searches see it."""
    return table.drop(*schema.identifying) if schema.identifying else table


@dataclass
class _EnvGroup:
    """One shared-evaluator environment of a batch."""

    store: EngineCacheStore
    schema: Schema
    hierarchies: dict
    job_indices: list[int] = field(default_factory=list)
    uses_evaluator: bool = False
    evaluator: LatticeEvaluator | None = None


@dataclass(frozen=True)
class BatchPlan:
    """The planner's grouping, inspectable before execution.

    ``environments`` holds the job indices served by each shared
    evaluator, environments in first-appearance order and jobs in input
    order within one.
    """

    environments: tuple[tuple[int, ...], ...]


class BatchPlanner:
    """Grouping and dispatch of a job batch.

    :meth:`plan` groups jobs into shared-evaluator environments (same QI
    roles + table environment, see :func:`_environment_key`) and gives each
    table environment one store: an injected ``cache_stores`` entry if
    there is one, else a fresh store holding the jobs' own ``cache_bytes``
    (256 MiB by default). Each column's hierarchy comes
    from the store's memo, so it is built once per store and table, and
    each schema once. :meth:`execute` gives every environment whose jobs
    consume an engine one evaluator over its store, which takes its QI
    encodings from the store too, and over its table environment's one
    identifier-stripped table. Jobs run in input order for
    ``workers=1`` and otherwise on ``min(workers, jobs)`` threads that
    take jobs one at a time by :class:`_PendingJobs`' rule. Releases are
    byte-identical at every worker count — job outputs are pure functions
    of (config, table, hierarchies).
    """

    def __init__(
        self,
        configs: Iterable[AnonymizationConfig],
        table: Table,
        hierarchies: Mapping[str, Any] | None = None,
        workers: int = 1,
        on_error: str = "raise",
        job_timeout: float | None = None,
        batch_deadline: float | None = None,
        retries: int = 0,
        retry_backoff: float = 0.0,
        cache_stores: Mapping[str, EngineCacheStore] | None = None,
    ):
        # FailurePolicy validates the whole failure-handling surface at
        # construction time: bad combinations fail before any job runs.
        self.policy = FailurePolicy(
            on_error=on_error,
            job_timeout=job_timeout,
            batch_deadline=batch_deadline,
            retries=retries,
            retry_backoff=retry_backoff,
        )
        self.workers = _check_workers(workers)
        if hierarchies and cache_stores:
            # A store key names hierarchy specs, not live objects, so stats
            # and hierarchies cached under an override would answer later
            # batches over the same store that have none.
            raise ConfigError(
                "'hierarchies' and 'cache_stores' cannot be given together: "
                "a store outlives the batch, and its key cannot name live "
                "hierarchy objects"
            )
        self.configs = list(configs)
        self.table = table
        self.hierarchy_overrides = hierarchies
        self.cache_stores = dict(cache_stores) if cache_stores else {}
        self._plan: BatchPlan | None = None
        self._groups: list[_EnvGroup] = []
        self._jobs: list[tuple[AnonymizationConfig, tuple[Schema, dict], _EnvGroup]] = []
        self._batch_deadline: Deadline | None = None

    def plan(self) -> BatchPlan:
        """Group the jobs into environments (memoized) without executing."""
        if self._plan is not None:
            return self._plan
        # Per table environment, its store: an injected one, else a fresh
        # one holding the jobs' own budget. The store's memo holds each
        # column's hierarchy; per evaluator, the hierarchy set its jobs share.
        stores = dict(self.cache_stores)
        hierarchy_sets: dict[tuple, dict] = {}
        environments: dict[str, tuple[Schema, dict]] = {}
        groups: dict[tuple, _EnvGroup] = {}
        for index, config in enumerate(self.configs):
            store_key, schema_key = _environment_key(config)
            store = stores.get(store_key)
            if store is None:
                store = stores[store_key] = EngineCacheStore(
                    cache_bytes=config.cache_bytes or DEFAULT_CACHE_BYTES
                )
            evaluator_key = (
                store_key,
                tuple(config.quasi_identifiers),
                tuple(config.numeric_quasi_identifiers),
            )
            environment = environments.get(schema_key)
            if environment is None:
                built = hierarchy_sets.get(evaluator_key)
                if built is None:
                    built = build_hierarchies(
                        config, self.table, store.hierarchies(self.table)
                    )
                    if self.hierarchy_overrides:
                        built.update(self.hierarchy_overrides)
                    hierarchy_sets[evaluator_key] = built
                environment = (build_schema(config, self.table), built)
                environments[schema_key] = environment
            group = groups.get(evaluator_key)
            if group is None:
                schema, built = environment
                group = _EnvGroup(store=store, schema=schema, hierarchies=built)
                groups[evaluator_key] = group
                self._groups.append(group)
            group.job_indices.append(index)
            if _uses_evaluator(config):
                group.uses_evaluator = True
            self._jobs.append((config, environment, group))
        self._plan = BatchPlan(
            environments=tuple(tuple(g.job_indices) for g in self._groups)
        )
        return self._plan

    def _run_job(self, index: int) -> "AnonymizationResult | JobFailure":
        """One job on its group's evaluator under the batch's failure policy."""
        config, (schema, hierarchies), group = self._jobs[index]
        return _attempt_job(
            config,
            self.table,
            schema,
            hierarchies,
            self.policy,
            self._batch_deadline,
            evaluator=group.evaluator,
        )

    def execute(self) -> "list[AnonymizationResult | JobFailure]":
        """Run the batch; results come back in input order."""
        self.plan()
        self._batch_deadline = (
            Deadline(self.policy.batch_deadline, kind="batch-deadline")
            if self.policy.batch_deadline is not None
            else None
        )
        # One identifier-stripped table per store (table environment), so
        # the evaluators over it share one table object.
        tables: dict[int, Table] = {}
        for group in self._groups:
            if group.uses_evaluator and group.evaluator is None:
                table = tables.setdefault(id(group.store), _stripped(self.table, group.schema))
                group.evaluator = LatticeEvaluator(
                    table, group.schema.quasi_identifiers, group.hierarchies, cache=group.store
                )
        n_jobs = len(self.configs)
        if self.workers == 1 or n_jobs <= 1:
            return [self._run_job(index) for index in range(n_jobs)]
        pending = _PendingJobs([
            id(group) if _uses_evaluator(config) else None for config, _, group in self._jobs
        ])
        lock = threading.Lock()
        results: list = [None] * n_jobs
        errors: dict[int, BaseException] = {}

        def work() -> None:
            index = None
            while True:
                with lock:
                    if index is not None:
                        pending.finish(index)
                    index = pending.take()
                if index is None:
                    return
                try:
                    results[index] = self._run_job(index)
                except BaseException as exc:  # re-raised on the calling thread
                    errors[index] = exc

        threads = [threading.Thread(target=work) for _ in range(min(self.workers, n_jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            # Every job ran; the lowest-index failure is the one a
            # sequential run would have raised first.
            raise errors[min(errors)]
        return results


class _PendingJobs:
    """The pending jobs of a parallel batch, and the rule that hands them out.

    ``keys[i]`` names the evaluator job ``i`` searches through, or is
    ``None`` for a job that uses none. :meth:`take` returns the
    lowest-index pending job whose evaluator no running job uses (a job
    without one always qualifies); only when no pending job qualifies does
    it return the lowest-index pending job. So on a QI-set sweep each
    worker walks one evaluator's jobs in input order rather than waiting on
    another worker's in-flight nodes, and a one-evaluator batch runs in
    input order on every worker. Each evaluator keeps a FIFO of its pending
    jobs and a heap holds the idle ones by their next job, so a pick costs
    O(log n). Not thread-safe: callers hold one lock around :meth:`take`
    and :meth:`finish`.
    """

    def __init__(self, keys: Sequence[Any]):
        self._keys = keys
        self._taken = [False] * len(keys)
        self._lowest = 0  # no job below this index is pending
        self._queues: dict[Any, deque[int]] = {}
        self._running: dict[Any, int] = {}
        # (next job, key) per idle evaluator with pending jobs, plus every
        # pending evaluator-less job; built in index order, so a heap.
        self._idle: list[tuple[int, Any]] = []
        for index, key in enumerate(keys):
            if key is None:
                self._idle.append((index, None))
            elif key in self._queues:
                self._queues[key].append(index)
            else:
                self._queues[key] = deque([index])
                self._running[key] = 0
                self._idle.append((index, key))

    def take(self) -> int | None:
        """The next job to run, or ``None`` once every job was taken."""
        if self._idle:
            index, key = heapq.heappop(self._idle)
        else:
            # Every evaluator with pending jobs is in use: the lowest
            # pending job heads its evaluator's queue.
            while self._lowest < len(self._keys) and self._taken[self._lowest]:
                self._lowest += 1
            if self._lowest == len(self._keys):
                return None
            index = self._lowest
            key = self._keys[index]
        self._taken[index] = True
        if key is not None:
            self._queues[key].popleft()
            self._running[key] += 1
        return index

    def finish(self, index: int) -> None:
        """Mark job ``index``, taken earlier, as no longer running."""
        key = self._keys[index]
        if key is None:
            return
        self._running[key] -= 1
        queue = self._queues[key]
        if not self._running[key] and queue:
            heapq.heappush(self._idle, (queue[0], key))
