"""Anonymization algorithms.

Two execution substrates back the family:

* The **full-domain** searches (Datafly, Incognito, OLA, Flash,
  BottomUpGeneralization in ``bug.py`` and TopDownSpecialization) evaluate
  generalization nodes through :class:`~repro.core.engine.LatticeEvaluator`
  and its ``GroupStats`` cache.
* The **local-recoding** algorithms (Mondrian, MDAVMicroaggregation,
  KMemberClustering, Anatomy, Slicing) publish explicit row partitions;
  Mondrian checks its candidate cuts on
  :class:`~repro.core.partition_engine.PartitionEngine`, and MDAV and
  Anatomy share its flattened grouped-histogram kernel.

BottomUpGeneralization walks generalization nodes bottom-up and
TopDownSpecialization top-down, each one single-attribute step at a time,
so they score their candidates on a private ``LatticeEvaluator`` like
Datafly. Both are registered in ``repro.api.registry`` (``"bottom-up"``,
``"tds"``) like the rest of the family.
"""

from .._lazy import attach

__getattr__, __dir__ = attach(
    __name__,
    globals(),
    {
        ".anatomy": ("AnatomizedRelease", "Anatomy"),
        ".base": ("AnonymizationAlgorithm", "prepare_input"),
        ".bug": ("BottomUpGeneralization",),
        ".datafly": ("Datafly",),
        ".flash": ("Flash",),
        ".incognito": ("Incognito",),
        ".kmember": ("KMemberClustering",),
        ".microaggregation": ("MDAVMicroaggregation", "within_group_sse"),
        ".mondrian": ("Mondrian",),
        ".ola": ("OLA",),
        ".slicing": ("SlicedRelease", "Slicing"),
        ".topdown": ("TopDownSpecialization",),
    },
)

__all__ = [
    "AnatomizedRelease",
    "Anatomy",
    "AnonymizationAlgorithm",
    "BottomUpGeneralization",
    "Datafly",
    "Flash",
    "Incognito",
    "KMemberClustering",
    "MDAVMicroaggregation",
    "Mondrian",
    "OLA",
    "SlicedRelease",
    "Slicing",
    "TopDownSpecialization",
    "prepare_input",
    "within_group_sse",
]
