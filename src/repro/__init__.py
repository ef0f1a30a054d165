"""repro: SB-trees and MSB-trees for temporal aggregates.

A full reproduction of Yang & Widom, *Incremental Computation and
Maintenance of Temporal Aggregates* (ICDE 2001): disk-capable index
structures for instantaneous and cumulative (moving-window) temporal
aggregates, the baseline algorithms the paper compares against, a
temporal-warehouse view layer, and the benchmark harness that
regenerates every figure and table of the paper.

Quickstart::

    from repro import SBTree, Interval

    tree = SBTree("sum")
    tree.insert(2, Interval(10, 40))     # Amy's prescription
    tree.insert(3, Interval(10, 30))     # Ben's
    tree.lookup(19)                      # -> 5
    print(tree.to_table().pretty("sum"))
"""

from .core import (
    AggregateKind,
    AggregateSpec,
    ConstantIntervalTable,
    DualTreeAggregate,
    FixedWindowTree,
    Interval,
    MSBTree,
    MemoryNodeStore,
    NEG_INF,
    NodeStore,
    POS_INF,
    SBTree,
    StoreStats,
    TreeInvariantError,
    check_tree,
    spec_for,
)
from . import obs
from .concurrent import ConcurrentTree, ReadWriteLock
from .sharding import ShardRouter, ShardedTree

__version__ = "0.1.0"

__all__ = [
    "AggregateKind",
    "AggregateSpec",
    "ConcurrentTree",
    "ConstantIntervalTable",
    "DualTreeAggregate",
    "FixedWindowTree",
    "Interval",
    "MSBTree",
    "MemoryNodeStore",
    "NEG_INF",
    "NodeStore",
    "POS_INF",
    "ReadWriteLock",
    "SBTree",
    "ShardRouter",
    "ShardedTree",
    "StoreStats",
    "TreeInvariantError",
    "check_tree",
    "obs",
    "spec_for",
    "__version__",
]
