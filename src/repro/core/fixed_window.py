"""Cumulative aggregates with a fixed, known-in-advance window offset.

Section 4.1 of the paper: one SB-tree (or MSB-tree-free plain SB-tree)
per (aggregate, window offset) pair.  A base tuple valid over ``[s, e)``
contributes to the cumulative value at every instant ``t`` with
``s <= t < e + w`` -- exactly the instants whose closed window
``[t - w, t]`` intersects ``[s, e)`` -- so its effect interval is simply
stretched to ``[s, e + w)`` before the ordinary SB-tree insertion.
Lookups and range queries need no change at all.

An instantaneous aggregate is the special case ``w == 0``.
"""

from __future__ import annotations

from typing import Any, Optional

from ..obs import observed
from .intervals import Interval, POS_INF, Time
from .results import ConstantIntervalTable
from .sbtree import IntervalLike, SBTree, as_interval
from .nodestore import NodeStore

__all__ = ["FixedWindowTree"]

_inner_store = lambda self: self.tree.store  # noqa: E731 - obs accessor


class FixedWindowTree:
    """An SB-tree specialised to one cumulative window offset.

    Supports all five aggregate kinds; deletions only for the
    invertible ones (SUM/COUNT/AVG), exactly as in Section 3.4.
    A tree built for offset ``w`` cannot answer queries for any other
    offset -- that is the limitation Sections 4.2/4.3 lift.
    """

    def __init__(
        self,
        kind,
        window: Time,
        store: Optional[NodeStore] = None,
        *,
        branching: int = 32,
        leaf_capacity: Optional[int] = None,
    ) -> None:
        if window < 0:
            raise ValueError("window offset must be non-negative")
        self.window = window
        self.tree = SBTree(
            kind, store, branching=branching, leaf_capacity=leaf_capacity
        )
        self.spec = self.tree.spec

    # ------------------------------------------------------------------
    def _stretched(self, interval: IntervalLike) -> Interval:
        interval = as_interval(interval)
        if interval.end == POS_INF:
            return interval
        return interval.extended(self.window)

    @observed("insert", stores=_inner_store)
    def insert(self, value: Any, interval: IntervalLike) -> None:
        """Record a base-table insertion."""
        self.tree.insert_effect(self.spec.effect(value), self._stretched(interval))

    @observed("delete", stores=_inner_store)
    def delete(self, value: Any, interval: IntervalLike) -> None:
        """Record a base-table deletion (SUM/COUNT/AVG only)."""
        self.tree.insert_effect(
            self.spec.negated_effect(value), self._stretched(interval)
        )

    @observed("lookup", stores=_inner_store)
    def lookup(self, t: Time) -> Any:
        """Cumulative value at instant *t* (internal form), O(h)."""
        return self.tree.lookup(t)

    def lookup_final(self, t: Time) -> Any:
        """Cumulative value at instant *t* in user-facing form."""
        return self.spec.finalize(self.lookup(t))

    @observed("range_query", stores=_inner_store)
    def range_query(self, interval: IntervalLike) -> ConstantIntervalTable:
        """Constant intervals of the cumulative aggregate over *interval*."""
        return self.tree.range_query(interval)

    def to_table(self, **kwargs) -> ConstantIntervalTable:
        """Full reconstruction of the cumulative aggregate."""
        return self.tree.to_table(**kwargs)

    @observed("compact", stores=_inner_store)
    def compact(self) -> None:
        """Batch-compact the underlying tree (needed for MIN/MAX)."""
        self.tree.compact()
