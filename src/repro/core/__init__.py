"""Core substrate: table engine, schema, hierarchies, lattice, partitions."""

from .engine import GroupStats, LatticeEvaluator
from .generalize import apply_node, apply_partition_recoding
from .hierarchy import Hierarchy, IntervalHierarchy, suppression_hierarchy
from .io import read_csv, write_csv
from .lattice import GeneralizationLattice
from .partition import (
    EquivalenceClasses,
    classes_from_labels,
    partition_by_qi,
)
from .partition_engine import PartitionEngine, PartitionGroup, PartitionStats
from .release import Release
from .schema import AttributeType, Schema
from .table import Column, Table

__all__ = [
    "AttributeType",
    "Column",
    "EquivalenceClasses",
    "GeneralizationLattice",
    "GroupStats",
    "Hierarchy",
    "IntervalHierarchy",
    "LatticeEvaluator",
    "PartitionEngine",
    "PartitionGroup",
    "PartitionStats",
    "Release",
    "Schema",
    "Table",
    "apply_node",
    "apply_partition_recoding",
    "classes_from_labels",
    "partition_by_qi",
    "read_csv",
    "suppression_hierarchy",
    "write_csv",
]
