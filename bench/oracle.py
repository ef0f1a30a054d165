"""The correctness gate: an O(log n) prefix-sum oracle for SUM aggregates.

Every reply collected in a timed phase is checked, after the clock
stops, against this oracle; the oracle itself is cross-checked against
the program's executable semantics (``repro.core.reference``) on 200
sampled instants per workload.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Any, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Oracle", "coalesce", "cross_check"]

Row = Tuple[Any, Any, Any]  # (value, start, end)


class Oracle:
    """SUM over facts ``(value, [start, end))``: sorted endpoints with
    their deltas, and the running sums cached until the next ``add``."""

    def __init__(self, facts: Iterable[Tuple[int, int, int]] = ()) -> None:
        self._xs: List[int] = []
        self._deltas: List[int] = []
        self._sums: Optional[List[int]] = None
        for value, start, end in facts:
            self.add(value, start, end)

    def add(self, value: int, start: int, end: int) -> None:
        """Insert a fact; a negative *value* deletes an earlier one."""
        for x, delta in ((start, value), (end, -value)):
            i = bisect.bisect_left(self._xs, x)
            if i < len(self._xs) and self._xs[i] == x:
                self._deltas[i] += delta
            else:
                self._xs.insert(i, x)
                self._deltas.insert(i, delta)
        self._sums = None

    def _running(self) -> List[int]:
        if self._sums is None:
            self._sums = list(itertools.accumulate(self._deltas))
        return self._sums

    def value_at(self, t: int) -> int:
        i = bisect.bisect_right(self._xs, t)
        return self._running()[i - 1] if i else 0

    def rows(self, start: int, end: int) -> List[Row]:
        """The coalesced step function clipped to ``[start, end)``."""
        sums = self._running()
        i = bisect.bisect_right(self._xs, start)
        j = bisect.bisect_left(self._xs, end)
        raw = []
        at = start
        for k in range(i, j):
            raw.append((sums[k - 1] if k else 0, at, self._xs[k]))
            at = self._xs[k]
        raw.append((sums[j - 1] if j else 0, at, end))
        return coalesce(raw)


def coalesce(rows: Iterable[Sequence[Any]]) -> List[Row]:
    """Merge adjacent equal-valued rows; empty values (a view's elided
    row) count as 0.  Accepts ``(value, start, end)`` triples."""
    out: List[Row] = []
    for value, start, end in rows:
        value = value or 0
        if out and out[-1][0] == value and out[-1][2] == start:
            out[-1] = (value, out[-1][1], end)
        else:
            out.append((value, start, end))
    return out


def cross_check(
    oracle: Oracle, facts: Sequence[Tuple[int, int, int]], sample: Sequence[int]
) -> int:
    """Compare the oracle with ``repro.core.reference`` at the sampled
    instants; returns the number of disagreements (0 on a sound oracle)."""
    from repro.core import reference
    from repro.core.intervals import Interval

    pairs = [(value, Interval(start, end)) for value, start, end in facts]
    return sum(
        1
        for t in sample
        if reference.instantaneous_value(pairs, "sum", t) != oracle.value_at(t)
    )
