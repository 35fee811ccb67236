"""repro — a privacy-preserving data publishing (PPDP) library.

Implements the canonical PPDP toolbox: generalization-based anonymization
algorithms (Datafly, Incognito, Mondrian, Top-Down Specialization, Anatomy,
MDAV), privacy models (k-anonymity, ℓ-diversity, t-closeness, δ-presence,
(α,k)-anonymity, ε-differential privacy), attack simulators (record /
attribute / table linkage, composition), and the standard information-loss
metrics — all on a self-contained numpy column store.

Quickstart::

    from repro import Anonymizer, KAnonymity, Mondrian
    from repro.data import load_adult, adult_schema, adult_hierarchies

    table = load_adult(n_rows=5000, seed=0)
    anon = Anonymizer(table, adult_schema(), adult_hierarchies())
    release = anon.apply(KAnonymity(10), algorithm=Mondrian())
    print(release.summary())
    print(anon.risk_report(release))
"""

from ._lazy import attach
from ._version import __version__
from .errors import (
    BudgetError,
    ConfigError,
    HierarchyError,
    InfeasibleError,
    NotFittedError,
    ReproError,
    SchemaError,
)

# Everything else resolves on first access, so ``import repro.cli`` loads
# only the modules a job runs (see repro._lazy).
__getattr__, __dir__ = attach(
    __name__,
    globals(),
    {
        ".api": (
            "AnonymizationConfig",
            "AnonymizationResult",
            "algorithm_registry",
            "metric_registry",
            "model_registry",
            "run",
            "run_batch",
        ),
        ".algorithms": (
            "Anatomy",
            "BottomUpGeneralization",
            "Datafly",
            "Flash",
            "Incognito",
            "KMemberClustering",
            "MDAVMicroaggregation",
            "Mondrian",
            "OLA",
            "TopDownSpecialization",
        ),
        ".core": (
            "AttributeType",
            "Column",
            "GeneralizationLattice",
            "GroupStats",
            "Hierarchy",
            "IntervalHierarchy",
            "LatticeEvaluator",
            "Release",
            "Schema",
            "Table",
            "partition_by_qi",
        ),
        ".core.anonymizer": ("Anonymizer",),
        ".privacy": (
            "AlphaKAnonymity",
            "CompositeModel",
            "DeltaPresence",
            "DistinctLDiversity",
            "EntropyLDiversity",
            "GuardingNode",
            "KAnonymity",
            "KEAnonymity",
            "LKCPrivacy",
            "PersonalizedPrivacy",
            "RecursiveCLDiversity",
            "TCloseness",
        ),
    },
)

__all__ = [
    "AlphaKAnonymity",
    "Anatomy",
    "AnonymizationConfig",
    "AnonymizationResult",
    "Anonymizer",
    "AttributeType",
    "BudgetError",
    "Column",
    "CompositeModel",
    "ConfigError",
    "BottomUpGeneralization",
    "Datafly",
    "DeltaPresence",
    "Flash",
    "DistinctLDiversity",
    "EntropyLDiversity",
    "GeneralizationLattice",
    "GroupStats",
    "GuardingNode",
    "Hierarchy",
    "HierarchyError",
    "Incognito",
    "InfeasibleError",
    "IntervalHierarchy",
    "KAnonymity",
    "LatticeEvaluator",
    "KEAnonymity",
    "KMemberClustering",
    "LKCPrivacy",
    "MDAVMicroaggregation",
    "Mondrian",
    "NotFittedError",
    "OLA",
    "PersonalizedPrivacy",
    "RecursiveCLDiversity",
    "Release",
    "ReproError",
    "Schema",
    "SchemaError",
    "TCloseness",
    "Table",
    "TopDownSpecialization",
    "algorithm_registry",
    "metric_registry",
    "model_registry",
    "partition_by_qi",
    "run",
    "run_batch",
    "__version__",
]
