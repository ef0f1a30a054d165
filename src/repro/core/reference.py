"""Brute-force reference oracle for temporal aggregates.

Deliberately simple O(n * m) implementations used to cross-check every
index and baseline in the test suite.  Semantics (shared by the whole
package):

* the *instantaneous* aggregate at instant ``t`` ranges over tuples
  whose valid interval ``[s, e)`` contains ``t``;
* the *cumulative* aggregate at instant ``t`` with window offset ``w``
  ranges over tuples whose valid interval intersects the closed window
  ``[t - w, t]``, i.e. tuples with ``s <= t`` and ``e > t - w``.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

from .intervals import Interval, NEG_INF, POS_INF, Time
from .results import ConstantIntervalTable, trim_initial
from .values import AggregateSpec, spec_for

__all__ = [
    "instantaneous_value",
    "view_value",
    "cumulative_value",
    "instantaneous_table",
    "cumulative_table",
]

#: A base fact: (value, valid interval).
Fact = Tuple[Any, Interval]


def _facts(tuples: Iterable) -> List[Fact]:
    out = []
    for item in tuples:
        value, interval = item[0], item[1]
        if not isinstance(interval, Interval):
            interval = Interval(*interval)
        out.append((value, interval))
    return out


def _effects(tuples: Iterable, spec: AggregateSpec) -> List[Tuple[Any, Interval]]:
    """Each fact as ``(effect, interval)``: what every sample folds."""
    return [(spec.effect(value), interval) for value, interval in _facts(tuples)]


def _instantaneous(effects, spec: AggregateSpec, t: Time) -> Any:
    result = spec.v0
    for effect, interval in effects:
        if interval.contains(t):
            result = spec.acc(result, effect)
    return result


def _cumulative(effects, spec: AggregateSpec, t: Time, w: Time) -> Any:
    result = spec.v0
    for effect, interval in effects:
        if interval.overlaps_window(t - w, t):
            result = spec.acc(result, effect)
    return result


def instantaneous_value(tuples: Iterable[Fact], kind, t: Time) -> Any:
    """Aggregate over all tuples valid at instant *t* (internal form)."""
    spec = spec_for(kind)
    return _instantaneous(_effects(tuples, spec), spec, t)


def view_value(rows: Iterable[Tuple], kind, t: Time, key: Any = None) -> Any:
    """What a (grouped) view over *rows* must answer at instant *t*.

    Rows are ``(value, interval, group)``; with *key* only that group's
    rows count, without it all of them do.  The result is finalized --
    the form views, ``query_view`` and ``lookup`` hand to callers.
    """
    kept = [row for row in rows if key is None or row[2] == key]
    return spec_for(kind).finalize(instantaneous_value(kept, kind, t))


def cumulative_value(tuples: Iterable[Fact], kind, t: Time, w: Time) -> Any:
    """Aggregate over tuples overlapping the closed window ``[t-w, t]``."""
    spec = spec_for(kind)
    return _cumulative(_effects(tuples, spec), spec, t, w)


def _table(
    spec: AggregateSpec,
    boundaries: Iterable[Time],
    value_at,
    drop_initial: bool,
) -> ConstantIntervalTable:
    table = ConstantIntervalTable.from_boundaries(
        sorted({b for b in boundaries if NEG_INF < b < POS_INF}), value_at
    ).coalesce(spec.eq)
    if drop_initial:
        table = trim_initial(table, spec)
    return table


def instantaneous_table(
    tuples: Iterable[Fact], kind, *, drop_initial: bool = True
) -> ConstantIntervalTable:
    """Full constant-interval table of the instantaneous aggregate."""
    spec = spec_for(kind)
    effects = _effects(tuples, spec)
    boundaries: List[Time] = []
    for _, interval in effects:
        boundaries.extend((interval.start, interval.end))
    return _table(
        spec,
        boundaries,
        lambda t: _instantaneous(effects, spec, t),
        drop_initial,
    )


def cumulative_table(
    tuples: Iterable[Fact], kind, w: Time, *, drop_initial: bool = True
) -> ConstantIntervalTable:
    """Full constant-interval table of the cumulative aggregate.

    The cumulative value changes only when a tuple enters the window
    (at ``t = start``) or leaves it (at ``t = end + w``).
    """
    spec = spec_for(kind)
    effects = _effects(tuples, spec)
    boundaries: List[Time] = []
    for _, interval in effects:
        boundaries.append(interval.start)
        if interval.end != POS_INF:
            boundaries.append(interval.end + w)
    return _table(
        spec,
        boundaries,
        lambda t: _cumulative(effects, spec, t, w),
        drop_initial,
    )
