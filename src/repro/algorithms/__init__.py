"""Anonymization algorithms.

Two execution substrates back the family:

* The **lattice** algorithms (Datafly, Incognito, OLA, Flash, and
  BottomUpGeneralization in ``bug.py``) enumerate full-domain
  generalization nodes through :class:`~repro.core.engine.LatticeEvaluator`
  and its ``GroupStats`` cache.
* The **local-recoding** algorithms (Mondrian, TopDownSpecialization,
  MDAVMicroaggregation, KMemberClustering, Anatomy, Slicing) refine explicit
  row partitions; those with per-candidate feasibility checks run on
  :class:`~repro.core.partition_engine.PartitionEngine`, the rest share its
  flattened grouped-histogram kernel.

BottomUpGeneralization walks generalization *nodes* bottom-up (no per-row
partition to refine incrementally), so it scores its candidates on a private
``LatticeEvaluator`` like Datafly. It is registered in
``repro.api.registry`` as ``"bottom-up"`` like the rest of the family.
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
