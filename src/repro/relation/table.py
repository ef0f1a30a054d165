"""Temporal base tables with change notification.

A :class:`TemporalRelation` is the source side of the paper's
warehousing scenario: a set of live temporal tuples plus an observer
list.  Every insert or delete is forwarded to subscribers (materialized
views, indices) as a :class:`~repro.relation.tuples.ChangeEvent`, which
is exactly the information the SB-tree maintenance procedures consume.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..core.intervals import Interval, Time
from .tuples import ChangeEvent, ChangeKind, TemporalTuple

__all__ = ["TemporalRelation"]

Subscriber = Callable[[ChangeEvent], None]


class TemporalRelation:
    """A named collection of temporal tuples with insert/delete streams."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._tuples: Dict[int, TemporalTuple] = {}
        self._ids = itertools.count(1)
        self._subscribers: List[Subscriber] = []

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, value: Any, valid, **payload: Any) -> TemporalTuple:
        """Insert a tuple; returns it (with its assigned id)."""
        if not isinstance(valid, Interval):
            valid = Interval(*valid)
        row = TemporalTuple(next(self._ids), value, valid, payload)
        event = ChangeEvent(ChangeKind.INSERT, row)
        self._validate(event)
        self._tuples[row.tuple_id] = row
        self._notify(event)
        return row

    def delete(self, row_or_id) -> TemporalTuple:
        """Delete a tuple by id or by the tuple object itself.

        The change is validated with every subscriber *before* any state
        is mutated; a subscriber that cannot process it (e.g. a MIN/MAX
        view, which is not maintainable under deletions) vetoes the
        whole change, leaving the relation and all views untouched.
        """
        tuple_id = row_or_id.tuple_id if isinstance(row_or_id, TemporalTuple) else row_or_id
        if tuple_id not in self._tuples:
            raise KeyError(f"no tuple #{tuple_id} in relation {self.name!r}")
        row = self._tuples[tuple_id]
        event = ChangeEvent(ChangeKind.DELETE, row)
        self._validate(event)
        del self._tuples[tuple_id]
        self._notify(event)
        return row

    def restore(self, rows) -> None:
        """Adopt ``(tuple_id, value, valid, payload)`` rows silently.

        Checkpoint-load path: the rows re-enter with their original ids
        and **no subscriber notification** -- a restored view must not
        re-emit change events its consumers already processed.  The id
        counter advances past the highest restored id so later inserts
        cannot collide.
        """
        top = 0
        for tuple_id, value, valid, payload in rows:
            if not isinstance(valid, Interval):
                valid = Interval(*valid)
            tuple_id = int(tuple_id)
            self._tuples[tuple_id] = TemporalTuple(
                tuple_id, value, valid, dict(payload)
            )
            top = max(top, tuple_id)
        next_id = max(top + 1, next(self._ids))
        self._ids = itertools.count(next_id)

    def clear(self) -> None:
        """Drop every tuple silently (no subscriber notification); ids
        are never reused, so later inserts keep counting."""
        self._tuples.clear()

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: Subscriber, *, replay: bool = True) -> None:
        """Attach a change consumer; optionally replay the current contents.

        With ``replay`` the subscriber first receives one INSERT per live
        tuple, so a view created over a non-empty table starts complete.
        """
        if replay:
            for row in self._tuples.values():
                subscriber(ChangeEvent(ChangeKind.INSERT, row))
        self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        self._subscribers.remove(subscriber)

    def _validate(self, event: ChangeEvent) -> None:
        """First phase: let every subscriber veto before anything mutates."""
        for subscriber in self._subscribers:
            validate = getattr(subscriber, "validate", None)
            if validate is not None:
                validate(event)

    def _notify(self, event: ChangeEvent) -> None:
        for subscriber in self._subscribers:
            subscriber(event)

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[TemporalTuple]:
        return iter(self._tuples.values())

    def scan(self, *, valid_at: Optional[Time] = None) -> Iterator[TemporalTuple]:
        """Yield live tuples, optionally only those valid at an instant."""
        for row in self._tuples.values():
            if valid_at is None or row.valid.contains(valid_at):
                yield row

    def facts(self) -> List:
        """Return the ``(value, interval)`` pairs of the live tuples."""
        return [(row.value, row.valid) for row in self._tuples.values()]

    def get(self, tuple_id: int) -> TemporalTuple:
        return self._tuples[tuple_id]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TemporalRelation {self.name!r} with {len(self)} tuples>"
