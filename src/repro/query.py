"""Temporal aggregate queries over relations (the TSQL2/TQuel setting).

The paper's Section 1 frames temporal aggregates as query-language
constructs: an instantaneous aggregate with *temporal grouping* (one
result row per constant interval) as in TQuel and TSQL2, optionally
cumulative with a window offset.  This module provides that query
surface over :class:`~repro.relation.table.TemporalRelation`:

    >>> from repro.query import TemporalQuery
    >>> q = (TemporalQuery(prescriptions)
    ...        .where(lambda row: row.payload["patient"] != "Dan")
    ...        .value(lambda row: row.value)
    ...        .aggregate("sum"))
    >>> q.table()            # the SumDosage table, temporally grouped
    >>> q.at(19)             # the value at one instant
    >>> q.window(5).at(32)   # cumulative, window offset 5
    >>> q.partition_by(lambda row: row.payload["patient"]).tables()

One-shot queries execute with the appropriate O(n log n) algorithm
(end-point sort for SUM/COUNT/AVG, merge sort for MIN/MAX) over the
relation's current contents.  For repeated querying over changing data,
:meth:`TemporalQuery.materialize` turns the same specification into an
incrementally maintained SB-tree-backed view.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional

from .baselines import endpoint_sort, merge_sort
from .core.intervals import Interval, Time
from .core.reference import cumulative_value
from .core.results import ConstantIntervalTable
from .core.sbtree import IntervalLike, as_interval
from .core.values import AggregateSpec, spec_for
from .relation.table import TemporalRelation
from .relation.tuples import TemporalTuple

__all__ = ["TemporalQuery", "PartitionedQuery"]

Predicate = Callable[[TemporalTuple], bool]
ValueOf = Callable[[TemporalTuple], Any]
KeyOf = Callable[[TemporalTuple], Hashable]


class TemporalQuery:
    """A declarative temporal aggregate query; immutable and chainable."""

    def __init__(self, relation: TemporalRelation) -> None:
        self.relation = relation
        self._predicate: Optional[Predicate] = None
        self._value_of: ValueOf = lambda row: row.value
        self._spec: Optional[AggregateSpec] = None
        self._window: Time = 0

    def _copy(self) -> "TemporalQuery":
        clone = TemporalQuery(self.relation)
        clone._predicate = self._predicate
        clone._value_of = self._value_of
        clone._spec = self._spec
        clone._window = self._window
        return clone

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def where(self, predicate: Predicate) -> "TemporalQuery":
        """Restrict to tuples satisfying *predicate* (conjunctive)."""
        clone = self._copy()
        previous = self._predicate
        if previous is None:
            clone._predicate = predicate
        else:
            clone._predicate = lambda row: previous(row) and predicate(row)
        return clone

    def value(self, value_of: ValueOf) -> "TemporalQuery":
        """Select the quantity to aggregate (default: the tuple value)."""
        clone = self._copy()
        clone._value_of = value_of
        return clone

    def aggregate(self, kind) -> "TemporalQuery":
        """Choose the aggregate function (sum/count/avg/min/max)."""
        clone = self._copy()
        clone._spec = spec_for(kind)
        return clone

    def window(self, w: Time) -> "TemporalQuery":
        """Make the query cumulative with window offset *w* (Section 4)."""
        if w < 0:
            raise ValueError("window offset must be non-negative")
        clone = self._copy()
        clone._window = w
        return clone

    def partition_by(self, key_of: KeyOf) -> "PartitionedQuery":
        """Group tuples by a key; one temporal aggregate per group."""
        return PartitionedQuery(self, key_of)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def spec(self) -> AggregateSpec:
        if self._spec is None:
            raise ValueError("call .aggregate(kind) before executing the query")
        return self._spec

    def _facts(self) -> List:
        rows = self.relation if self._predicate is None else (
            row for row in self.relation if self._predicate(row)
        )
        return [(self._value_of(row), row.valid) for row in rows]

    def _instantaneous(self, facts) -> ConstantIntervalTable:
        spec = self.spec
        if self._window:
            facts = [
                (value, interval.extended(self._window))
                for value, interval in facts
            ]
        if spec.invertible:
            return endpoint_sort.compute(facts, spec)
        return merge_sort.compute(facts, spec)

    def table(self, *, finalized: bool = True) -> ConstantIntervalTable:
        """Execute, returning the temporally grouped constant intervals."""
        table = self._instantaneous(self._facts())
        if finalized:
            table = table.finalized(self.spec).coalesce()
        return table

    def at(self, t: Time) -> Any:
        """The (finalized) aggregate value at instant *t*."""
        return self.spec.finalize(
            cumulative_value(self._facts(), self.spec, t, self._window)
        )

    def over(self, interval: IntervalLike, *, finalized: bool = True) -> ConstantIntervalTable:
        """The aggregate's rows clipped to *interval*."""
        interval = as_interval(interval)
        full = self._instantaneous(self._facts())
        spec = self.spec
        # Pad with v0 so clipping covers regions without data.
        rows = []
        cursor = interval.start
        for value, piece in full:
            clipped = piece.intersection(interval)
            if clipped is None:
                continue
            if cursor < clipped.start:
                rows.append((spec.v0, Interval(cursor, clipped.start)))
            rows.append((value, clipped))
            cursor = clipped.end
        if cursor < interval.end:
            rows.append((spec.v0, Interval(cursor, interval.end)))
        table = ConstantIntervalTable(rows).coalesce(spec.eq)
        if finalized:
            table = table.finalized(spec).coalesce()
        return table

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def materialize(self, name: str, **view_kwargs):
        """Create an incrementally maintained view of this query.

        Returns a :class:`~repro.warehouse.view.TemporalAggregateView`
        subscribed to the relation, carrying over this query's aggregate
        kind, window offset, value extractor and filter (``key_of=`` in
        *view_kwargs* groups it; see :meth:`partition_by`).
        """
        from .warehouse.view import TemporalAggregateView

        return TemporalAggregateView(
            name,
            _FilteredRelation(self.relation, self._predicate),
            self.spec,
            window=self._window,
            value_of=self._value_of,
            **view_kwargs,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = self._spec.kind.value if self._spec else "?"
        w = f" window={self._window}" if self._window else ""
        return f"<TemporalQuery {kind}({self.relation.name}){w}>"


class _FilteredSubscriber:
    """Wraps a subscriber so it only sees events matching a predicate."""

    def __init__(self, subscriber, predicate: Predicate) -> None:
        self._subscriber = subscriber
        self._predicate = predicate

    def __call__(self, event) -> None:
        if self._predicate(event.tuple):
            self._subscriber(event)

    def validate(self, event) -> None:
        validate = getattr(self._subscriber, "validate", None)
        if validate is not None and self._predicate(event.tuple):
            validate(event)


class _FilteredRelation:
    """A relation facade that forwards only matching change events."""

    def __init__(self, relation: TemporalRelation, predicate: Optional[Predicate]):
        self._relation = relation
        self._predicate = predicate
        self._wrappers: Dict[Any, _FilteredSubscriber] = {}
        self.name = relation.name

    def subscribe(self, subscriber, *, replay: bool = True) -> None:
        if self._predicate is None:
            self._relation.subscribe(subscriber, replay=replay)
            return
        from .relation.tuples import ChangeEvent, ChangeKind

        if replay:
            for row in self._relation:
                if self._predicate(row):
                    subscriber(ChangeEvent(ChangeKind.INSERT, row))
        wrapper = _FilteredSubscriber(subscriber, self._predicate)
        self._wrappers[subscriber] = wrapper
        self._relation.subscribe(wrapper, replay=False)

    def unsubscribe(self, subscriber) -> None:
        if self._predicate is None:
            self._relation.unsubscribe(subscriber)
            return
        self._relation.unsubscribe(self._wrappers.pop(subscriber))


class PartitionedQuery:
    """A temporal aggregate per group key (TSQL2 GROUP BY + grouping)."""

    def __init__(self, base: TemporalQuery, key_of: KeyOf) -> None:
        self._base = base
        self._key_of = key_of

    def tables(self, *, finalized: bool = True) -> Dict[Hashable, ConstantIntervalTable]:
        """One temporally grouped table per partition key."""
        groups: Dict[Hashable, List[TemporalTuple]] = {}
        predicate = self._base._predicate
        for row in self._base.relation:
            if predicate is not None and not predicate(row):
                continue
            groups.setdefault(self._key_of(row), []).append(row)
        out = {}
        for key, rows in sorted(groups.items(), key=lambda kv: str(kv[0])):
            sub = self._base._copy()
            sub._predicate = None
            facts = [(sub._value_of(row), row.valid) for row in rows]
            table = sub._instantaneous(facts)
            if finalized:
                table = table.finalized(sub.spec).coalesce()
            out[key] = table
        return out

    def at(self, t: Time) -> Dict[Hashable, Any]:
        """Each partition's (finalized) value at instant *t*."""
        spec = self._base.spec
        values = {}
        for key, table in self.tables(finalized=False).items():
            try:
                raw = table.value_at(t)
            except KeyError:
                raw = spec.v0
            values[key] = spec.finalize(raw)
        return values

    def materialize(self, name: str, **view_kwargs):
        """Create an incrementally maintained view with one group per key.

        Returns a :class:`~repro.warehouse.view.TemporalAggregateView`
        carrying this query's aggregate kind, window, value extractor,
        filter and partition key.
        """
        return self._base.materialize(name, key_of=self._key_of, **view_kwargs)
