"""Cumulative SUM/COUNT/AVG with *any* window offset (Section 4.2).

A single instantaneous index cannot answer cumulative queries (the
paper's Figure 20 counterexample: two base tables with identical
instantaneous SUMs but different cumulative SUMs).  The fix is a pair of
SB-trees:

* ``T``  -- the ordinary instantaneous tree: ``lookup(T, t)`` aggregates
  tuples valid *at* ``t``;
* ``T'`` -- an "already ended" tree: ``lookup(T', t)`` aggregates tuples
  whose valid interval lies entirely before ``t``.

The cumulative value at ``t`` with offset ``w`` is then::

    acc( lookup(T, t), diff( lookup(T', t), lookup(T', t - w) ) )

where the ``diff`` term isolates tuples that ended inside the window.

**Erratum note.**  The paper inserts into ``T'`` with effect interval
``(end(I), +inf)``.  Under the paper's own window semantics (a tuple
counts at ``t`` iff it overlaps the closed window ``[t - w, t]``, which
is what Figures 5, 6 and 18 encode) that is off by one: a tuple ending
exactly at ``t - w`` would still be counted.  With ``[end(I), +inf)``
the ``diff`` term counts exactly the tuples with ``t - w < end <= t``,
and all computation routes agree; we use that form and pin the
agreement with regression tests (see DESIGN.md).
"""

from __future__ import annotations

from typing import Any, Optional

from ..obs import observed
from .intervals import Interval, NEG_INF, POS_INF, Time, is_finite
from .results import ConstantIntervalTable, merge_step_functions, trim_initial
from .sbtree import IntervalLike, SBTree, as_interval
from .nodestore import NodeStore

__all__ = ["DualTreeAggregate"]

_both_stores = lambda self: (self.current.store, self.ended.store)  # noqa: E731


class DualTreeAggregate:
    """A pair of SB-trees answering cumulative SUM/COUNT/AVG for any offset."""

    def __init__(
        self,
        kind,
        store: Optional[NodeStore] = None,
        ended_store: Optional[NodeStore] = None,
        *,
        branching: int = 32,
        leaf_capacity: Optional[int] = None,
    ) -> None:
        self.current = SBTree(
            kind, store, branching=branching, leaf_capacity=leaf_capacity
        )
        self.spec = self.current.spec
        if not self.spec.invertible:
            raise ValueError(
                "dual SB-trees support SUM/COUNT/AVG; use an MSB-tree for MIN/MAX"
            )
        self.ended = SBTree(
            self.spec,
            ended_store,
            branching=branching,
            leaf_capacity=leaf_capacity,
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    @observed("insert", stores=_both_stores)
    def insert(self, value: Any, interval: IntervalLike) -> None:
        """Record a base-table insertion in both trees."""
        interval = as_interval(interval)
        effect = self.spec.effect(value)
        self.current.insert_effect(effect, interval)
        if is_finite(interval.end):
            # The tuple counts as "ended" from its end instant onward.
            self.ended.insert_effect(effect, Interval(interval.end, POS_INF))

    @observed("delete", stores=_both_stores)
    def delete(self, value: Any, interval: IntervalLike) -> None:
        """Record a base-table deletion in both trees."""
        interval = as_interval(interval)
        effect = self.spec.negated_effect(value)
        self.current.insert_effect(effect, interval)
        if is_finite(interval.end):
            self.ended.insert_effect(effect, Interval(interval.end, POS_INF))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @observed("window_lookup", stores=_both_stores)
    def window_lookup(self, t: Time, w: Time) -> Any:
        """Cumulative value at instant *t* with offset *w* (internal form)."""
        if w < 0:
            raise ValueError("window offset must be non-negative")
        spec = self.spec
        in_window_ended = spec.diff(self.ended.lookup(t), self.ended.lookup(t - w))
        return spec.acc(self.current.lookup(t), in_window_ended)

    def window_lookup_final(self, t: Time, w: Time) -> Any:
        """Cumulative value at instant *t* with offset *w*, user-facing."""
        return self.spec.finalize(self.window_lookup(t, w))

    def lookup(self, t: Time) -> Any:
        """Instantaneous value at *t* (the ``w == 0`` special case)."""
        return self.current.lookup(t)

    @observed("window_query", stores=_both_stores)
    def window_query(self, interval: IntervalLike, w: Time) -> ConstantIntervalTable:
        """Constant intervals of the cumulative aggregate over *interval*.

        Combines three step functions -- ``T(t)``, ``T'(t)`` and the
        ``+w`` translate of ``T'`` -- pointwise; their merged breakpoints
        are exactly the cumulative aggregate's breakpoints.
        """
        interval = as_interval(interval)
        spec = self.spec
        current = self.current.range_query(interval)
        ended = self.ended.range_query(interval)
        shifted_window = Interval(
            interval.start - w if interval.start != NEG_INF else NEG_INF,
            interval.end - w if interval.end != POS_INF else POS_INF,
        )
        ended_shifted = ConstantIntervalTable(
            (value, piece.shifted(w))
            for value, piece in self.ended.range_query(shifted_window)
        )

        def combine(cur: Any, end_now: Any, end_then: Any) -> Any:
            return spec.acc(cur, spec.diff(end_now, end_then))

        return merge_step_functions(
            [current, ended, ended_shifted], combine, interval
        ).coalesce(spec.eq)

    def window_table(self, w: Time, *, drop_initial: bool = True) -> ConstantIntervalTable:
        """Full reconstruction of the cumulative aggregate for offset *w*."""
        table = self.window_query(Interval(NEG_INF, POS_INF), w)
        if drop_initial:
            table = trim_initial(table, self.spec)
        return table
