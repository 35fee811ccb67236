"""Exception taxonomy for the ``repro`` library.

All library errors derive from :class:`ReproError` so callers can catch one
base class. Subclasses distinguish schema problems, hierarchy problems,
infeasible anonymization requests, privacy-budget exhaustion, and — since
the fault-tolerant batch executor — runtime execution failures (timeouts,
deadlines, crashed workers, injected faults).

:func:`classify_error` maps any exception onto the stable taxonomy label
that :class:`repro.api.JobFailure` records and services key their alerting
on; the labels are part of the JSON result schema (``docs/api.md``), so
they change only additively.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SchemaError(ReproError):
    """A table/schema operation referenced a missing or mistyped attribute."""


class HierarchyError(ReproError):
    """A generalization hierarchy is malformed or does not cover a value."""


class InfeasibleError(ReproError):
    """No generalization satisfies the requested privacy constraints.

    Raised, e.g., when even the fully-generalized table (single equivalence
    class) violates a privacy model, or when suppression limits are exceeded.
    """


class BudgetError(ReproError):
    """A differential-privacy accountant has exhausted its budget."""


class ConfigError(ReproError):
    """A declarative job spec (``repro.api``) is malformed.

    Messages always name the offending key or registry name so a bad JSON
    job description can be fixed without reading library source.
    """


class NotFittedError(ReproError):
    """A mining model was asked to predict before being fitted."""


class ExecutionError(ReproError):
    """A job or batch failed at run time for an operational reason.

    Distinct from :class:`ConfigError` (the request was malformed) and
    :class:`InfeasibleError` (the request is well-formed but unsatisfiable):
    an ``ExecutionError`` means the work itself was interrupted — it may
    well succeed if retried on healthy infrastructure or with a larger
    time budget.
    """


class JobTimeoutError(ExecutionError):
    """A single job exceeded its cooperative ``job_timeout`` budget."""


class BatchDeadlineError(ExecutionError):
    """The whole batch exceeded its cooperative ``batch_deadline`` budget."""


class WorkerCrashError(ExecutionError):
    """A batch worker died abnormally (killed, segfault, OOM).

    No executor raises it today; it keeps its ``"worker-crash"`` label
    because taxonomy labels are additive-only.
    """


class FaultInjectedError(ExecutionError):
    """Raised by an armed :mod:`repro.core.faults` injection point.

    Only ever seen in chaos tests and fault drills; production code never
    raises it unless a fault plan has been armed explicitly.
    """


#: Stable taxonomy labels emitted by :func:`classify_error`, most specific
#: first. ``JobFailure.error["type"]`` is always one of these.
ERROR_TAXONOMY = (
    "timeout",
    "deadline",
    "worker-crash",
    "fault",
    "infeasible",
    "budget",
    "config",
    "schema",
    "hierarchy",
    "not-fitted",
    "repro",
    "resource",
    "os",
    "runtime",
)

_CLASSIFIERS: tuple[tuple[type[BaseException], str], ...] = (
    (JobTimeoutError, "timeout"),
    (BatchDeadlineError, "deadline"),
    (WorkerCrashError, "worker-crash"),
    (FaultInjectedError, "fault"),
    (InfeasibleError, "infeasible"),
    (BudgetError, "budget"),
    (ConfigError, "config"),
    (SchemaError, "schema"),
    (HierarchyError, "hierarchy"),
    (NotFittedError, "not-fitted"),
    (ReproError, "repro"),
    (MemoryError, "resource"),
    (OSError, "os"),
)


def classify_error(exc: BaseException) -> str:
    """Map an exception onto its :data:`ERROR_TAXONOMY` label.

    >>> classify_error(JobTimeoutError("too slow"))
    'timeout'
    >>> classify_error(ValueError("oops"))
    'runtime'
    """
    for exc_type, label in _CLASSIFIERS:
        if isinstance(exc, exc_type):
            return label
    return "runtime"
