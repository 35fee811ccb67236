"""Declarative job API: serializable configs, registries, one executor.

The service-shaped entry point to the library. A job is described once as
plain data — roles, hierarchy builders, model/algorithm specs, metrics —
and executed by :func:`run`; batches share lattice evaluation through
:func:`run_batch`::

    from repro.api import AnonymizationConfig, run

    config = AnonymizationConfig.from_dict({
        "quasi_identifiers": ["zipcode", "job"],
        "numeric_quasi_identifiers": ["age"],
        "sensitive": ["disease"],
        "models": [
            {"model": "k-anonymity", "k": 5},
            {"model": "distinct-l-diversity", "l": 2, "sensitive": "disease"},
        ],
        "algorithm": {"algorithm": "flash"},
        "metrics": ["gcp", "linkage"],
    })
    result = run(config, table)
    result.release          # the published Release
    result.to_dict()        # JSON-safe report for logs / API responses

Because configs are JSON-safe both ways (``to_dict``/``from_dict``), a job
can be queued, replayed, or shipped over the wire — the precondition for
serving anonymization as a multi-tenant service.
"""

from .config import AnonymizationConfig, build_hierarchies, build_schema
from .executor import (
    ON_ERROR,
    AnonymizationResult,
    BatchPlan,
    BatchPlanner,
    FailurePolicy,
    JobFailure,
    execute,
    jsonable,
    run,
    run_batch,
)
from .registry import (
    MetricContext,
    MetricRegistry,
    Registry,
    algorithm_registry,
    metric_registry,
    model_registry,
)

__all__ = [
    "AnonymizationConfig",
    "AnonymizationResult",
    "BatchPlan",
    "BatchPlanner",
    "FailurePolicy",
    "JobFailure",
    "MetricContext",
    "MetricRegistry",
    "ON_ERROR",
    "Registry",
    "algorithm_registry",
    "build_hierarchies",
    "build_schema",
    "execute",
    "jsonable",
    "metric_registry",
    "model_registry",
    "run",
    "run_batch",
]
