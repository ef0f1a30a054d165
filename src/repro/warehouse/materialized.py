"""Direct materialization of a temporal aggregate view.

The comparator the paper's introduction argues against: the warehouse
stores the aggregate's constant-interval table *itself* and updates the
stored rows on every base change.  A single inserted tuple with a long
valid interval forces an update of every constant interval it covers --
the "more than half of SumDosage must be updated" example -- i.e. O(m)
row touches per update versus the SB-tree's O(log m) node touches.
``rows_touched`` counts exactly that quantity for the benchmarks.

Structurally this is one giant SB-tree leaf: sorted boundaries plus one
value per gap, covering the whole time line.
"""

from __future__ import annotations

import bisect
from typing import Any, List

from ..core.intervals import Interval, NEG_INF, POS_INF, Time
from ..core.results import ConstantIntervalTable, trim_initial
from ..core.values import spec_for

__all__ = ["MaterializedView"]


class MaterializedView:
    """A directly materialized instantaneous temporal aggregate."""

    def __init__(self, kind) -> None:
        self.spec = spec_for(kind)
        self._times: List[Time] = []
        self._values: List[Any] = [self.spec.v0]
        #: Total stored rows written by updates (the paper's cost measure).
        self.rows_touched = 0

    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return len(self._values)

    def _cut(self, t: Time) -> None:
        """Ensure a row boundary exists at finite instant *t*."""
        i = bisect.bisect_left(self._times, t)
        if i < len(self._times) and self._times[i] == t:
            return
        self._times.insert(i, t)
        self._values.insert(i + 1, self._values[i])

    def _maybe_uncut(self, t: Time) -> None:
        """Drop the boundary at *t* if its two sides became equal."""
        i = bisect.bisect_left(self._times, t)
        if i >= len(self._times) or self._times[i] != t:
            return
        if self.spec.eq(self._values[i], self._values[i + 1]):
            del self._times[i]
            del self._values[i + 1]

    # ------------------------------------------------------------------
    def insert(self, value: Any, interval) -> None:
        """Apply a base insertion: update every covered stored row."""
        self._apply(self.spec.effect(value), interval)

    def delete(self, value: Any, interval) -> None:
        """Apply a base deletion (SUM/COUNT/AVG only)."""
        self._apply(self.spec.negated_effect(value), interval)

    def _apply(self, effect: Any, interval) -> None:
        if not isinstance(interval, Interval):
            interval = Interval(*interval)
        if interval.start > NEG_INF:
            self._cut(interval.start)
        if interval.end < POS_INF:
            self._cut(interval.end)
        first = bisect.bisect_right(self._times, interval.start) if interval.start > NEG_INF else 0
        last = (
            bisect.bisect_left(self._times, interval.end)
            if interval.end < POS_INF
            else len(self._times)
        )
        for i in range(first, min(last + 1, len(self._values))):
            self._values[i] = self.spec.acc(effect, self._values[i])
            self.rows_touched += 1
        if interval.start > NEG_INF:
            self._maybe_uncut(interval.start)
        if interval.end < POS_INF:
            self._maybe_uncut(interval.end)

    # ------------------------------------------------------------------
    def lookup(self, t: Time) -> Any:
        """Value at instant *t*: a binary search over the stored rows."""
        if t != t:
            raise ValueError("instant must not be NaN")
        return self._values[bisect.bisect_right(self._times, t)]

    def to_table(self, *, drop_initial: bool = True) -> ConstantIntervalTable:
        edges = [NEG_INF] + self._times + [POS_INF]
        rows = [
            (self._values[i], Interval(edges[i], edges[i + 1]))
            for i in range(len(self._values))
        ]
        table = ConstantIntervalTable(rows).coalesce(self.spec.eq)
        if drop_initial:
            table = trim_initial(table, self.spec)
        return table
