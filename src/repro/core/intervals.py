"""Time instants and half-open intervals.

The paper models a temporal database over a totally ordered time domain.
Every tuple carries a *valid interval* ``[start, end)``; the index's
conceptual domain is the whole time line ``(-inf, +inf)``.  Infinite
endpoints are never stored inside tree nodes -- they exist only at the
outer edges of the time line -- but intervals handed around by the
algorithms may be unbounded on either side (e.g. the dual-tree insertion
effect ``[end, +inf)`` of Section 4.2).

Instants are plain numbers (``int`` or ``float``); all paper examples use
integers.  ``NEG_INF``/``POS_INF`` are ordinary IEEE infinities, which
compare correctly against both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple, Union

Time = Union[int, float]

NEG_INF: float = -math.inf
POS_INF: float = math.inf

__all__ = [
    "Time",
    "NEG_INF",
    "POS_INF",
    "Interval",
    "is_finite",
    "coalesce_pairs",
]


def is_finite(t: Time) -> bool:
    """Return ``True`` when *t* is a finite time instant."""
    return NEG_INF < t < POS_INF


@dataclass(frozen=True, init=False)
class Interval:
    """A half-open time interval ``[start, end)``.

    Either endpoint may be infinite.  An interval with ``start >= end``
    is rejected: empty intervals never arise in the algorithms and
    allowing them would silently hide bugs.
    """

    start: Time
    end: Time

    def __init__(self, start: Time, end: Time) -> None:
        if not start < end:
            raise ValueError(f"empty or inverted interval [{start}, {end})")
        # A range read builds one per row: write the fields directly
        # rather than through the frozen dataclass's object.__setattr__.
        fields = self.__dict__
        fields["start"] = start
        fields["end"] = end

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains(self, t: Time) -> bool:
        """Return ``True`` when instant *t* lies inside ``[start, end)``."""
        return self.start <= t < self.end

    def overlaps(self, other: "Interval") -> bool:
        """Return ``True`` when the two half-open intervals intersect."""
        return self.start < other.end and other.start < self.end

    def covers(self, other: "Interval") -> bool:
        """Return ``True`` when *other* is fully contained in this interval."""
        return self.start <= other.start and other.end <= self.end

    def meets(self, other: "Interval") -> bool:
        """Return ``True`` when this interval ends exactly where *other* starts."""
        return self.end == other.start

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def intersection(self, other: "Interval") -> Optional["Interval"]:
        """Return the overlap of two intervals, or ``None`` when disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo < hi:
            return Interval(lo, hi)
        return None

    def shifted(self, delta: Time) -> "Interval":
        """Return this interval translated by *delta* time units."""
        return Interval(self.start + delta, self.end + delta)

    def extended(self, delta: Time) -> "Interval":
        """Return ``[start, end + delta)`` -- the Section 4.1 window stretch."""
        if delta < 0:
            raise ValueError("extension must be non-negative")
        return Interval(self.start, self.end + delta)

    # ------------------------------------------------------------------
    # Window (closed-interval) predicates, used by cumulative aggregates.
    #
    # A cumulative aggregate at instant ``t`` with window offset ``w``
    # ranges over tuples overlapping the *closed* window ``[t - w, t]``.
    # ------------------------------------------------------------------
    def overlaps_window(self, lo: Time, hi: Time) -> bool:
        """Return ``True`` when ``[start, end)`` meets the closed ``[lo, hi]``."""
        return self.start <= hi and self.end > lo

    def within_window(self, lo: Time, hi: Time) -> bool:
        """Return ``True`` when ``[start, end)`` is contained in closed ``[lo, hi]``.

        The check is conservative for discrete domains (it never claims
        containment that does not hold in the continuous reading), which
        is the safe direction for the MSB-tree pruning that relies on it.
        """
        return self.start >= lo and self.end <= hi

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, t: Time) -> bool:
        return self.contains(t)

    def __str__(self) -> str:
        lo = "-inf" if self.start == NEG_INF else repr(self.start)
        hi = "inf" if self.end == POS_INF else repr(self.end)
        open_lo = "(" if self.start == NEG_INF else "["
        return f"{open_lo}{lo}, {hi})"

    @property
    def is_bounded(self) -> bool:
        """Return ``True`` when both endpoints are finite."""
        return is_finite(self.start) and is_finite(self.end)

    @property
    def length(self) -> Time:
        """Return ``end - start`` (may be infinite)."""
        return self.end - self.start


def coalesce_pairs(
    pairs: Iterable[Tuple[object, Interval]],
    equal=lambda a, b: a == b,
) -> Iterator[Tuple[object, Interval]]:
    """Merge adjacent ``(value, interval)`` pairs with equal values.

    The input must be sorted by interval start with contiguous or disjoint
    intervals; only *touching* intervals (``prev.end == next.start``) with
    equal values are merged.  This is the coalescing step of ``bmerge``
    (Section 3.6) and of the reconstruction queries.
    """
    pending_value: object = None
    pending: Optional[Interval] = None
    for value, interval in pairs:
        if pending is not None and pending.meets(interval) and equal(pending_value, value):
            pending = Interval(pending.start, interval.end)
        else:
            if pending is not None:
                yield pending_value, pending
            pending_value, pending = value, interval
    if pending is not None:
        yield pending_value, pending
