"""Core data structures: SB-trees, MSB-trees, and the value algebra."""

from .dual import DualTreeAggregate
from .fixed_window import FixedWindowTree
from .intervals import Interval, NEG_INF, POS_INF, Time
from .msbtree import MSBTree
from .results import ConstantIntervalTable, merge_step_functions
from .sbtree import SBTree
from .nodestore import MemoryNodeStore, NodeStore, StoreStats
from .validate import TreeInvariantError, check_tree
from .values import AggregateKind, AggregateSpec, spec_for

__all__ = [
    "AggregateKind",
    "AggregateSpec",
    "ConstantIntervalTable",
    "DualTreeAggregate",
    "FixedWindowTree",
    "Interval",
    "MSBTree",
    "MemoryNodeStore",
    "NEG_INF",
    "NodeStore",
    "POS_INF",
    "SBTree",
    "StoreStats",
    "Time",
    "TreeInvariantError",
    "check_tree",
    "merge_step_functions",
    "spec_for",
]
