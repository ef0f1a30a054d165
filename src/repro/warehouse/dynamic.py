"""Dynamic materialized views: a DAG of lag-driven incremental refreshes.

The rest of :mod:`repro.warehouse` maintains each view *eagerly*: every
base-table change descends the view's SB-tree before the insert call
returns.  That is the paper's O(log n) bound per change, but it couples
every writer to every view.  This module adds Snowflake-style *dynamic
tables* on top of the same machinery:

* every node (base table or view) keeps a :class:`ChangeLog` -- the
  sequence-numbered stream of :class:`~repro.relation.tuples.ChangeEvent`
  records the journal already motivates;
* a :class:`DynamicView` declares its **sources** (base tables or other
  views), an aggregate kind, an optional grouping key, and a freshness
  target (``lag="5s"``, ``lag="1h"``, or ``lag="downstream"`` -- refresh
  only when a dependent needs it);
* a refresh consumes only the change records recorded since the view's
  per-source **watermark** (never a full rebuild), at a cost of
  O(log n + what the batch affects) however much history the view
  holds: SUM/COUNT/AVG first *fold* the pending records of a group
  into their net effect -- a sorted list of disjoint segments, each
  the sum of the records over it and of nothing else, so the
  retract/re-emit pairs of an upstream view cancel before they reach
  a tree -- and the group's SB-tree takes the segments as one batch
  (``SBTree.insert_effects``: one descent per root-to-leaf path they
  share, each touched node written once); MIN/MAX, which nothing can
  cancel (paper, Section 3.4), hand their records over as they are,
  one batch per group.  Only the affected (key, time-range) regions of
  the view's *output rows* are then regenerated and re-emitted as
  change events for downstream views, found by bisecting the group's
  sorted row index, never by scanning it.  For SUM/COUNT/AVG those
  regions are the spans of the net effect -- where the group's tree
  changed -- not the spans of the records, so a row an upstream view
  retracted and re-emitted unchanged is left alone;
* the :class:`DynamicCatalog` owns the dependency DAG (cycle rejection
  at ``create_view`` time), refreshes stale views in topological order
  on each :meth:`~DynamicCatalog.tick`, persists per-view watermarks
  and change logs to ``<directory>/dynamic.json`` so refresh survives a
  restart, and serves reads that report ``(value, as_of_watermark,
  staleness_s)`` -- optionally pinned to one consistent watermark
  across several views in a single report query.

Consistency model
-----------------

A view's state always equals "the aggregate of everything its sources
had emitted up to ``watermarks``"; refreshes are atomic under the
catalog lock, so a reader never observes a half-applied batch.  That
holds for a refresh that *fails*, too: a SUM/COUNT/AVG batch is folded
before the first tree write, so a record the aggregate cannot
accumulate (a non-numeric value) rejects the whole batch and the
quarantined view serves exactly its last-good state.  (MIN/MAX apply
group by group, and an in-memory tree cannot undo a pass that failed
half-way: a value that cannot be compared with what a tree holds can
leave earlier records of its batch applied.  The watermarks
then still name the state before the batch, and because MIN/MAX
inserts are idempotent the retry by ``repair`` converges on the right
answer.)  A
:meth:`~DynamicCatalog.report` with ``pin=True`` refreshes the whole
ancestor closure of the requested views first, which makes every
returned value reflect the *same* base-table log heads -- the
snapshot-consistent multi-view read of PAPERS.md's "Concurrent
aggregate queries", implemented with batching per refresh tick as "The
Persistent Buffer Tree" argues (amortize change application, never
descend per event on the hot path): records are folded to segments,
and the tree is descended once per path the segments share, not once
per record or per segment.

MIN/MAX views are maintainable only while their sources never emit
deletions (paper, Section 3.4).  Because an upstream *view* regenerates
affected regions by retracting and re-emitting rows, MIN/MAX cannot be
declared over another view -- :meth:`DynamicCatalog.create_view`
rejects that shape up front instead of failing mid-refresh.

Output-row semantics: a view materializes one temporal tuple per
constant interval of its (per-group) aggregate **where the internal
value differs from the aggregate's initial value** ``v0``; regions
where the aggregate sits at ``v0`` (no contributing tuples, or exact
cancellation) carry no row.  Downstream SUM/COUNT/AVG views are
insensitive to the dropped rows (``v0`` contributes nothing), and the
recompute-from-scratch oracle in the tests mirrors the same rule.

Robustness (DESIGN.md section 14)
---------------------------------

* **Bounded retention.**  A change log keeps exactly the records its
  slowest consumer has not read: each refresh drops what every
  consumer of its sources has read, each DDL recomputes who consumes
  what, and a node no view consumes builds no record at all.  That
  holds with or without a directory; what the dropped records built
  is checkpointed as per-group *tree checkpoints* -- the coalesced
  internal step function of each group's SB-tree -- so a restore
  replays only the unconsumed tail.
* **Crash safety.**  ``save`` is fault-injectable (``faults=``) at
  labeled crash points (torn temp write, fsync failure, crash
  before/after the rename) and always retains the previous checkpoint
  as ``dynamic.json.prev``; ``load`` falls back to it when the main
  checkpoint is corrupt (or raises :class:`CatalogCheckpointError`
  under ``strict=True``) and never adopts a leftover temp file.
* **Quarantine.**  A view whose refresh raises during a scheduler
  :meth:`~DynamicCatalog.tick` is quarantined: siblings keep
  refreshing, reads serve its last-good values flagged
  ``degraded=True``, and :meth:`DynamicCatalog.repair` retries.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from .. import obs
from ..core.intervals import Interval, Time
from ..core.sbtree import SBTree
from ..core.values import AggregateSpec, spec_for
from ..relation.table import TemporalRelation
from ..relation.tuples import ChangeEvent, ChangeKind, TemporalTuple

__all__ = [
    "DOWNSTREAM",
    "CATALOG_CRASH_POINTS",
    "parse_lag",
    "format_lag",
    "ChangeLog",
    "LogRecord",
    "ViewReading",
    "DynamicView",
    "DynamicCatalog",
    "ViewDependencyError",
    "CycleError",
    "CatalogCheckpointError",
]

#: Name of the catalog's checkpoint file inside its directory.
CHECKPOINT_NAME = "dynamic.json"

#: Labeled crash points the checkpoint path consults (via ``faults=``),
#: in the order :meth:`DynamicCatalog.save` reaches them.  Torn temp
#: writes and fsync failures are armed separately through the
#: injector's ``tear_write``/``fail_fsyncs`` on the ``"view_ckpt"``
#: write label.
CATALOG_CRASH_POINTS = (
    "view_ckpt:serialized",
    "view_ckpt:before_rename",
    "view_ckpt:after_rename",
)

#: Write/fsync label the checkpoint temp-file I/O is intercepted under.
CATALOG_WRITE_LABEL = "view_ckpt"


class CatalogCheckpointError(RuntimeError):
    """A catalog checkpoint that cannot be restored (corrupt or absent)."""


class ViewDependencyError(ValueError):
    """An invalid DAG operation: unknown source, dependent in the way."""


class CycleError(ViewDependencyError):
    """Creating the view would introduce a dependency cycle."""


class _Downstream:
    """Sentinel lag: refresh only when a dependent (or a reader) needs it."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "DOWNSTREAM"


DOWNSTREAM = _Downstream()

_LAG_UNITS = {"ms": 1e-3, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}


def parse_lag(lag: Any) -> Union[float, _Downstream]:
    """Parse a freshness target: ``"5s"``, ``"1h"``, seconds, ``"downstream"``.

    Numbers are taken as seconds.  Raises ``ValueError`` for anything
    else, negative and non-finite lags included: a NaN or infinite lag
    would never fall due (the on-demand spelling is ``"downstream"``).
    """
    if lag is DOWNSTREAM or (isinstance(lag, str) and lag.lower() == "downstream"):
        return DOWNSTREAM
    if isinstance(lag, bool) or not isinstance(lag, (int, float, str)):
        raise ValueError(f"unparsable lag {lag!r}")
    number, scale = lag, 1.0
    if isinstance(lag, str):
        number = lag.strip().lower()
        for suffix in sorted(_LAG_UNITS, key=len, reverse=True):
            if number.endswith(suffix):
                number, scale = number[: -len(suffix)], _LAG_UNITS[suffix]
                break
    try:
        seconds = float(number) * scale
    except (ValueError, OverflowError):
        raise ValueError(f"unparsable lag {lag!r}") from None
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ValueError(f"lag must be finite and non-negative, got {lag!r}")
    return seconds


def format_lag(lag: Union[float, _Downstream]) -> Any:
    """The JSON/wire form of a parsed lag (inverse of :func:`parse_lag`)."""
    return "downstream" if lag is DOWNSTREAM else lag


@dataclass(frozen=True)
class LogRecord:
    """One change-stream entry: a sequence-numbered, timestamped event."""

    seq: int
    kind: str  # "insert" | "delete"
    value: Any
    start: Time
    end: Time
    payload: Mapping[str, Any]
    at: float  # catalog-clock arrival time (for staleness accounting)

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.end)

    def to_json(self) -> List[Any]:
        return [self.seq, self.kind, self.value, self.start, self.end,
                dict(self.payload), self.at]

    @classmethod
    def from_json(cls, raw: Sequence[Any]) -> "LogRecord":
        seq, kind, value, start, end, payload, at = raw
        return cls(int(seq), kind, value, start, end, dict(payload), float(at))


class ChangeLog:
    """An append-only, sequence-numbered change stream for one node.

    Sequence numbers start at 1; ``head`` is the last assigned number
    (0 for an empty log).  Consumers remember a *watermark* -- the last
    sequence they applied -- and read forward with :meth:`since`.
    The log keeps exactly the records its slowest consumer has not
    read (records ``seq <= base`` are gone): the catalog calls
    :meth:`compact` after every refresh and every DDL, and while no
    view consumes it (``consumed`` is false) a change is only numbered
    (:meth:`skip`), so ``base == head``.  What a dropped prefix
    built lives in the consumers' trees, checkpointed per view (see
    :meth:`DynamicCatalog.save`); DESIGN.md section 14 has the
    trade-off.
    """

    def __init__(self) -> None:
        self.records: List[LogRecord] = []
        self.head = 0
        #: Highest compacted-away sequence number; retained records are
        #: exactly ``base + 1 .. head``.
        self.base = 0
        #: Whether any view consumes this log; the catalog sets it.
        self.consumed = False

    def append(self, kind: str, value: Any, interval: Interval,
               payload: Mapping[str, Any], at: float) -> int:
        self.head += 1
        self.records.append(
            LogRecord(self.head, kind, value, interval.start, interval.end,
                      dict(payload), at)
        )
        return self.head

    def skip(self) -> None:
        """Number a change nobody will read, keeping no record of it."""
        self.head += 1
        self.base = self.head

    def since(self, watermark: int) -> List[LogRecord]:
        """Records with ``seq > watermark``, oldest first."""
        if watermark >= self.head:
            return []
        if watermark < self.base:
            raise ValueError(
                f"change log compacted through seq {self.base}; cannot "
                f"stream from watermark {watermark}"
            )
        # Sequence numbers are dense (base+1..head), so the slice is direct.
        return self.records[watermark - self.base:]

    def compact(self, upto_seq: int) -> int:
        """Drop the prefix ``seq <= upto_seq``; returns records dropped.

        Compacting past ``head`` clamps to ``head``; compacting behind
        ``base`` is a no-op.  Callers must not compact past the lowest
        consumer watermark (the catalog never does) or :meth:`since`
        will refuse those consumers.
        """
        target = min(upto_seq, self.head)
        if target <= self.base:
            return 0
        dropped = target - self.base
        self.records = self.records[dropped:]
        self.base = target
        return dropped

    @property
    def retained(self) -> int:
        """Number of records currently held in memory."""
        return len(self.records)

    def oldest_pending_at(self, watermark: int) -> Optional[float]:
        pending = self.since(max(watermark, self.base))
        return pending[0].at if pending else None

    def to_json(self) -> Dict[str, Any]:
        return {
            "head": self.head,
            "base": self.base,
            "records": [r.to_json() for r in self.records],
        }

    @classmethod
    def from_json(cls, raw: Dict[str, Any]) -> "ChangeLog":
        log = cls()
        log.records = [LogRecord.from_json(r) for r in raw.get("records", ())]
        log.head = int(raw.get("head", len(log.records)))
        log.base = int(raw.get("base", log.head - len(log.records)))
        return log


class _LogTap:
    """Relation subscriber appending every change event to a log."""

    def __init__(self, log: ChangeLog, clock) -> None:
        self.log = log
        self._clock = clock

    def __call__(self, event: ChangeEvent) -> None:
        if not self.log.consumed:
            self.log.skip()
            return
        self.log.append(
            "insert" if event.kind is ChangeKind.INSERT else "delete",
            event.tuple.value,
            event.tuple.valid,
            event.tuple.payload,
            self._clock(),
        )


class _BaseNode:
    """A base table registered in the catalog: a relation plus its log."""

    def __init__(self, name: str, relation: TemporalRelation, clock) -> None:
        self.name = name
        self.relation = relation
        self.log = ChangeLog()
        self._tap = _LogTap(self.log, clock)
        relation.subscribe(self._tap, replay=True)

    def detach(self) -> None:
        self.relation.unsubscribe(self._tap)


@dataclass
class ViewReading:
    """One view read: the value plus its consistency coordinates.

    ``degraded`` marks a read served from a quarantined view's
    last-good state; it appears in the JSON form only when set, so
    healthy readings (and their typed binary wire layout) are
    unchanged.
    """

    value: Any
    as_of_watermark: Dict[str, int]
    staleness_s: float
    degraded: bool = False

    def to_json(self) -> Dict[str, Any]:
        watermark: Any = self.as_of_watermark
        if len(watermark) == 1:
            watermark = next(iter(watermark.values()))
        reading = {
            "value": self.value,
            "watermark": watermark,
            "staleness_s": self.staleness_s,
        }
        if self.degraded:
            reading["degraded"] = True
        return reading


class DynamicView:
    """One node of the DAG: sources, an aggregate, and refresh state.

    Not constructed directly -- use :meth:`DynamicCatalog.create_view`,
    which validates the DAG.  The view owns

    * one SB-tree per group key (created lazily as keys appear in the
      consumed change stream) holding the paper's aggregate index,
    * an output :class:`TemporalRelation` materializing the aggregate's
      constant intervals as temporal tuples (so a view is consumable by
      further views exactly like a base table), and
    * ``watermarks`` -- the last consumed sequence number per source.
    """

    def __init__(
        self,
        name: str,
        sources: List[str],
        kind,
        *,
        key: Optional[str] = None,
        lag: Union[float, _Downstream] = DOWNSTREAM,
        clock=time.monotonic,
        branching: int = 32,
        leaf_capacity: Optional[int] = None,
    ) -> None:
        self.name = name
        self.sources = list(sources)
        self.spec: AggregateSpec = spec_for(kind)
        self.key_field = key
        self.lag = lag
        self.watermarks: Dict[str, int] = {src: 0 for src in self.sources}
        self.relation = TemporalRelation(name)
        self.log = ChangeLog()
        self._tap = _LogTap(self.log, clock)
        self.relation.subscribe(self._tap, replay=True)
        self._tree_args = dict(branching=branching, leaf_capacity=leaf_capacity)
        self._trees: Dict[Hashable, SBTree] = {}
        # Per-group row index, the view's own affected-region index: the
        # group's output rows sorted by start (they are disjoint) beside
        # the parallel list of those starts, so regeneration bisects to
        # the rows an affected span overlaps and splices their
        # replacements in place.
        self._index: Dict[Hashable, Tuple[List[Time], List[TemporalTuple]]] = {}
        self.refreshes = 0
        self.events_consumed = 0
        self.rows_emitted = 0
        self.rows_retracted = 0
        # Not persisted (the checkpoint must not grow): output rows a
        # regeneration looked at, and effects applied to group trees.
        self.rows_examined = 0
        self.effects_applied = 0
        self.last_refresh_at: Optional[float] = None
        self.last_refresh_s = 0.0
        # Quarantine state: set by the catalog when a scheduled refresh
        # raises; reads then serve last-good values flagged degraded.
        self.quarantined = False
        self.quarantined_at: Optional[float] = None
        self.last_error: Optional[str] = None

    # ------------------------------------------------------------------
    def _tree(self, key: Hashable) -> SBTree:
        tree = self._trees.get(key)
        if tree is None:
            tree = SBTree(self.spec, **self._tree_args)
            self._trees[key] = tree
            self._index[key] = ([], [])
        return tree

    def _key_of(self, record: LogRecord) -> Hashable:
        if self.key_field is None:
            return None
        return record.payload.get(self.key_field)

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def refresh(self, resolve, now: float) -> int:
        """Consume every source record past the watermarks; return count.

        *resolve* maps a source name to its node (the catalog).  The
        pending records of all sources are grouped by key.  For
        SUM/COUNT/AVG each group's records are first **folded** into
        their net effect -- a sorted list of disjoint segments, see
        :meth:`_fold` -- and the group's tree takes them in one pass
        (:meth:`SBTree.insert_effects`: one descent per path the
        segments share, not one per segment), so records that cancel (an
        upstream view's retract / re-emit pairs) never reach the tree.
        MIN/MAX are insert-only and nothing cancels (paper, Section
        3.4): each group's records go in as they are, as one batch,
        behind the veto.  Output rows are then regenerated only where
        a group's tree changed: over the merged spans of its folded
        segments, or for MIN/MAX of its records.

        Folding touches no state, so a record the aggregate cannot
        accumulate (a non-numeric value in a SUM) raises before the
        first tree write and the view is left exactly at its
        watermarks.
        """
        batches: List[Tuple[str, List[LogRecord]]] = []
        for src in self.sources:
            node = resolve(src)
            batch = node.log.since(self.watermarks[src])
            if batch:
                batches.append((src, batch))
        if not batches:
            return 0
        started = time.perf_counter()
        groups: Dict[Hashable, List[LogRecord]] = {}
        consumed = 0
        for _, batch in batches:
            for record in batch:
                groups.setdefault(self._key_of(record), []).append(record)
            consumed += len(batch)
        changed: Dict[Hashable, List[Tuple[Time, Time]]] = {}
        if self.spec.invertible:
            folded = [self._fold(records) for records in groups.values()]
            for key, segments in zip(groups, folded):
                self._tree(key).insert_effects(
                    (value, Interval(start, end))
                    for value, start, end in segments
                )
                self.effects_applied += len(segments)
                changed[key] = [(start, end) for _, start, end in segments]
        else:
            # Two-phase, like the eager views: veto before any mutation
            # so a batch with a deletion cannot half-apply.
            for _, batch in batches:
                for record in batch:
                    if record.kind == "delete":
                        raise ValueError(
                            f"view {self.name!r}: {self.spec.kind} aggregates "
                            "cannot be maintained under deletions (paper, "
                            "Section 3.4); the source change stream "
                            "retracted a tuple"
                        )
            for key, records in groups.items():
                self._tree(key).insert_batch(
                    (record.value, record.interval) for record in records
                )
                self.effects_applied += len(records)
                changed[key] = [(r.start, r.end) for r in records]
        for src, batch in batches:
            self.watermarks[src] = batch[-1].seq
        for key, spans in changed.items():
            for lo, hi in _merge_spans(spans):
                self._regenerate(key, lo, hi)
        self.refreshes += 1
        self.events_consumed += consumed
        self.last_refresh_at = now
        self.last_refresh_s = time.perf_counter() - started
        registry = obs.get_registry()
        if registry is not None:
            registry.record_op(obs.OpRecord(
                op=f"view.{self.name}.refresh",
                wall_us=self.last_refresh_s * 1e6,
            ))
        return consumed

    def _fold(self, records: List[LogRecord]) -> List[List[Any]]:
        """The net effect of one group's records as a step function.

        A sweep over the sorted endpoints keeps the effects of the
        records *open* at the sweep line (a deletion's is the negated
        effect) in a tournament: leaf ``i`` holds record ``i``'s effect
        while it is open and ``v0`` otherwise, every inner slot the
        ``acc`` of its two children, so the root is the value of the
        current segment.  A record that closes is taken out of the sum,
        never subtracted from a running total -- a segment's value is
        built from the records that overlap it and from nothing else,
        so one fact's float round-off (or ``inf``) cannot reach a region
        the fact does not cover.  Opening or closing costs ``log m``
        calls of ``acc``.

        The result is a sorted list of disjoint ``[effect, start, end]``
        segments with ``v0`` runs dropped and equal neighbours
        coalesced: at most ``2 * len(records) - 1`` of them, far fewer
        when records cancel.  Pure: nothing is written here.
        """
        spec = self.spec
        acc, v0 = spec.acc, spec.v0
        changes: Dict[Time, List[Tuple[int, Any]]] = {}
        for slot, record in enumerate(records):
            if record.kind == "delete":
                effect = spec.negated_effect(record.value)
            else:
                effect = spec.effect(record.value)
            # acc(v0, .) changes nothing, but a value acc cannot take
            # (a string in a SUM) raises here, before any tree is written.
            changes.setdefault(record.start, []).append((slot, acc(v0, effect)))
            changes.setdefault(record.end, []).append((slot, v0))
        leaves = 1 << (len(records) - 1).bit_length()
        open_sum = [v0] * (2 * leaves)
        segments: List[List[Any]] = []
        instants = sorted(changes)
        for t, following in zip(instants, instants[1:]):
            for slot, effect in changes[t]:
                at = leaves + slot
                open_sum[at] = effect
                while at > 1:
                    at >>= 1
                    open_sum[at] = acc(open_sum[2 * at], open_sum[2 * at + 1])
            _extend_segments(spec, segments, open_sum[1], t, following)
        return segments

    def _regenerate(self, key: Hashable, lo: Time, hi: Time) -> None:
        """Rebuild this group's output rows over one affected span.

        Two bisects of the group's row index find the rows the span
        overlaps; the span is widened to cover the first and the last
        of them (rows of one group are disjoint, so that is a fixpoint),
        they are retracted, the group's tree is range-queried once to
        emit the new constant intervals, and those are spliced into the
        index where the old rows were: O(log n + rows replaced) row
        visits and tree work.  (When the span's row count changes, the
        list splice also shifts the tail of the group's index, a
        memmove of one pointer per later row: linear, but not work the
        view does row by row.)  Rows whose internal value is ``v0`` are
        elided (see the module docstring).
        """
        starts, rows = self._index[key]
        # rows[:reach] start at or before lo; only the last of them can
        # reach into the span.
        reach = bisect.bisect_right(starts, lo)
        first = reach
        if reach and rows[reach - 1].valid.end > lo:
            first -= 1
        stop = bisect.bisect_left(starts, hi, first)
        self.rows_examined += stop - reach + (1 if reach else 0)
        stale = rows[first:stop]
        if stale:
            lo = min(lo, stale[0].valid.start)
            hi = max(hi, stale[-1].valid.end)
            # Oldest row first: the order the emitted change log has
            # always had.
            for row in sorted(stale, key=lambda row: row.tuple_id):
                self.relation.delete(row)  # emits DELETE downstream via the tap
            self.rows_retracted += len(stale)
        step = self._trees[key].range_query(Interval(lo, hi)).coalesce(self.spec.eq)
        payload = {} if self.key_field is None else {self.key_field: key}
        fresh = []
        for value, interval in step:
            if self.spec.is_initial(value):
                continue
            final = self.spec.finalize(value)
            if final is None:
                continue
            fresh.append(self.relation.insert(final, interval, **payload))
        self.rows_emitted += len(fresh)
        rows[first:stop] = fresh
        starts[first:stop] = [row.valid.start for row in fresh]

    # ------------------------------------------------------------------
    # Reads (values come from the trees, never from rows that may be
    # mid-regeneration; see "Consistency model" in the module docstring
    # for what a failed refresh leaves behind)
    # ------------------------------------------------------------------
    def value_at(self, t: Time, key: Hashable = None) -> Any:
        """Finalized value at *t* for one group (or the single group)."""
        tree = self._trees.get(key)
        if tree is None:
            return self.spec.finalize(self.spec.v0)
        return tree.lookup_final(t)

    def values_at(self, t: Time) -> Dict[Hashable, Any]:
        """Every known group's finalized value at *t*."""
        return {key: tree.lookup_final(t) for key, tree in self._trees.items()}

    def keys(self):
        return self._trees.keys()

    def row_count(self) -> int:
        return len(self.relation)

    def pending_from(self, resolve) -> int:
        """Unconsumed source records (0 when fully fresh)."""
        return sum(
            resolve(src).log.head - self.watermarks[src] for src in self.sources
        )

    def oldest_pending_at(self, resolve) -> Optional[float]:
        stamps = [
            resolve(src).log.oldest_pending_at(self.watermarks[src])
            for src in self.sources
        ]
        stamps = [s for s in stamps if s is not None]
        return min(stamps) if stamps else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DynamicView {self.name!r} {self.spec.kind} over {self.sources} "
            f"lag={format_lag(self.lag)!r} watermarks={self.watermarks}>"
        )


def _extend_segments(
    spec: AggregateSpec, segments: List[List[Any]], value: Any,
    start: Time, end: Time,
) -> None:
    """Append ``[value, start, end)`` to a sorted disjoint segment list:
    ``v0`` is dropped, a segment that continues its predecessor with an
    equal value extends it."""
    if spec.is_initial(value):
        return
    if segments and segments[-1][2] == start and spec.eq(segments[-1][0], value):
        segments[-1][2] = end
    else:
        segments.append([value, start, end])


def _merge_spans(spans: List[Tuple[Time, Time]]) -> List[Tuple[Time, Time]]:
    """Collapse (start, end) pairs into disjoint (lo, hi) spans, sorted."""
    merged: List[Tuple[Time, Time]] = []
    for lo, hi in sorted(spans):
        if merged and lo <= merged[-1][1]:
            last_lo, last_hi = merged[-1]
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


def _restore_relation(relation: TemporalRelation, rows: List[List[Any]]) -> None:
    relation.restore(
        (tid, value, Interval(start, end), payload)
        for tid, value, start, end, payload in rows
    )


class DynamicCatalog:
    """The view fleet: a DAG of dynamic views over base change streams.

    Thread-safe (one re-entrant lock serializes every public method),
    so the TCP service can drive it from its executor pool while the
    refresh tick runs.  With *directory*, :meth:`save` checkpoints the
    whole catalog -- definitions, watermarks, change logs, and output
    rows -- to ``dynamic.json``; :meth:`load` (or constructing over a
    directory holding a checkpoint) restores it and resumes refresh
    from the persisted watermarks.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        *,
        clock=time.monotonic,
        branching: int = 32,
        leaf_capacity: Optional[int] = None,
        faults=None,
        strict: bool = False,
    ) -> None:
        self.directory = directory
        self.clock = clock
        self._tree_args = dict(branching=branching, leaf_capacity=leaf_capacity)
        self._lock = threading.RLock()
        self._tables: Dict[str, _BaseNode] = {}
        self._views: Dict[str, DynamicView] = {}
        self._order: List[str] = []  # creation order == a topological order
        # node -> the views consuming it; rebuilt by every DDL.
        self._readers: Dict[str, List[DynamicView]] = {}
        self.ticks = 0
        #: Optional :class:`repro.faults.FaultInjector` consulted at the
        #: checkpoint crash points and around the temp-file write/fsync.
        self.faults = faults
        #: With ``strict`` a corrupt checkpoint raises instead of falling
        #: back to ``dynamic.json.prev``.
        self.strict = strict
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            if os.path.exists(os.path.join(directory, CHECKPOINT_NAME)):
                self.load()

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def _node(self, name: str):
        node = self._tables.get(name)
        if node is not None:
            return node
        view = self._views.get(name)
        if view is not None:
            return view
        raise ViewDependencyError(f"unknown table or view {name!r}")

    def atomic(self):
        """``with catalog.atomic():`` holds the (re-entrant) catalog lock
        across several calls -- a check-then-act, a multi-row insert."""
        return self._lock

    def has_node(self, name: str) -> bool:
        return name in self._tables or name in self._views

    def table_names(self) -> List[str]:
        return list(self._tables)

    def view_names(self) -> List[str]:
        return list(self._views)

    def view(self, name: str) -> DynamicView:
        view = self._views.get(name)
        if view is None:
            raise ViewDependencyError(f"unknown view {name!r}")
        return view

    def create_table(self, name: str) -> TemporalRelation:
        """Register a base table, with a relation of its own."""
        with self._lock:
            if self.has_node(name):
                raise ValueError(f"table or view {name!r} already exists")
            relation = TemporalRelation(name)
            node = _BaseNode(name, relation, self.clock)
            self._tables[name] = node
            self._order.append(name)
            self._recount_readers()
            return relation

    def table(self, name: str) -> TemporalRelation:
        with self._lock:
            node = self._tables.get(name)
            if node is None:
                raise ViewDependencyError(f"unknown table {name!r}")
            return node.relation

    def insert(self, table: str, value: Any, valid, **payload: Any):
        """Insert one tuple into a base table (records its change event)."""
        with self._lock:
            return self.table(table).insert(value, valid, **payload)

    def delete(self, table: str, row_or_id):
        with self._lock:
            return self.table(table).delete(row_or_id)

    # ------------------------------------------------------------------
    # DAG maintenance
    # ------------------------------------------------------------------
    def dependents_of(self, name: str) -> List[str]:
        """Views that consume *name* directly."""
        with self._lock:
            return [v.name for v in self._views.values() if name in v.sources]

    def _recount_readers(self) -> None:
        """Recompute which views consume each node (after any DDL), then
        trim every log to what its slowest consumer has not read."""
        self._readers = {name: [] for name in self._order}
        for view in self._views.values():
            for src in view.sources:
                self._readers[src].append(view)
        for name, readers in self._readers.items():
            self._node(name).log.consumed = bool(readers)
        self._trim(self._order)

    def _trim(self, names: Sequence[str]) -> None:
        """Drop from each named log what all of its consumers have read
        (everything, when it has none)."""
        for name in names:
            log = self._node(name).log
            log.compact(min(
                (view.watermarks[name] for view in self._readers[name]),
                default=log.head,
            ))

    def _check_acyclic(self, name: str, sources: Sequence[str]) -> None:
        """Reject any edge set that would close a cycle through *name*.

        Sources must already exist, so the only reachable cycles run
        through the new view itself; the walk still follows the full
        transitive closure so the guard stays correct if forward
        references are ever allowed.
        """
        stack = list(sources)
        seen = set()
        while stack:
            current = stack.pop()
            if current == name:
                raise CycleError(
                    f"view {name!r} cannot (transitively) depend on itself"
                )
            if current in seen:
                continue
            seen.add(current)
            view = self._views.get(current)
            if view is not None:
                stack.extend(view.sources)

    def create_view(
        self,
        name: str,
        over: Union[str, Sequence[str]],
        kind,
        *,
        key: Optional[str] = None,
        lag: Any = DOWNSTREAM,
        create_sources: bool = False,
    ) -> DynamicView:
        """Declare a dynamic view over base tables and/or other views.

        ``lag`` accepts anything :func:`parse_lag` does.  With
        ``create_sources`` unknown source names are auto-created as
        base tables (the service's ingest-after-declare convenience);
        otherwise they are rejected.  A source whose log still holds
        its whole history (another consumer has not read past its
        start) is replayed by the first refresh; any other source --
        one nobody consumed keeps no records -- seeds the view from
        its live rows here, so the view is complete when created.
        """
        sources = [over] if isinstance(over, str) else list(over)
        if not sources:
            raise ValueError("a view needs at least one source")
        parsed_lag = parse_lag(lag)
        with self._lock:
            if self.has_node(name):
                raise ValueError(f"table or view {name!r} already exists")
            self._check_acyclic(name, sources)
            spec = spec_for(kind)
            for src in sources:
                if src in self._views and not spec.invertible:
                    raise ValueError(
                        f"view {name!r}: {spec.kind} cannot be maintained over "
                        f"view {src!r} -- refreshing a view retracts rows, and "
                        "MIN/MAX aggregates are not maintainable under "
                        "deletions (paper, Section 3.4)"
                    )
                if not self.has_node(src):
                    if not create_sources:
                        raise ViewDependencyError(
                            f"view {name!r}: unknown source {src!r}"
                        )
                    self.create_table(src)
            view = DynamicView(
                name, sources, spec, key=key, lag=parsed_lag,
                clock=self.clock, **self._tree_args,
            )
            self._bootstrap_compacted_sources(view)
            self._views[name] = view
            self._order.append(name)
            self._recount_readers()
            return view

    def _bootstrap_compacted_sources(self, view: DynamicView) -> None:
        """Seed a new view from sources whose log prefix was compacted.

        A new view starts at watermark 0 and replays a source's log on
        first refresh only while that log still starts at seq 1; once
        retention has dropped a prefix -- always, for a source nobody
        consumed -- that replay is impossible.  The source relation's
        live rows are the net effect of the whole log (inserts minus
        deletions, so a MIN/MAX view answers the live rows where a
        replay would have vetoed a deletion), and the view bootstraps
        from those rows instead, starting at the source's current head.
        """
        seeds: Dict[Hashable, List[TemporalTuple]] = {}
        heads: Dict[str, int] = {}
        for src in view.sources:
            node = self._node(src)
            if node.log.base <= 0:
                continue
            for row in node.relation:
                key = (
                    None if view.key_field is None
                    else row.payload.get(view.key_field)
                )
                seeds.setdefault(key, []).append(row)
            heads[src] = node.log.head
        for key, rows in seeds.items():
            view._tree(key).insert_batch((row.value, row.valid) for row in rows)
        view.watermarks.update(heads)
        for key, rows in seeds.items():
            spans = [(row.valid.start, row.valid.end) for row in rows]
            for lo, hi in _merge_spans(spans):
                view._regenerate(key, lo, hi)

    def drop_view(self, name: str) -> None:
        """Remove a view; refused while other views still consume it."""
        with self._lock:
            view = self.view(name)
            dependents = self.dependents_of(name)
            if dependents:
                raise ViewDependencyError(
                    f"cannot drop view {name!r}: still consumed by "
                    f"{sorted(dependents)}"
                )
            view.relation.unsubscribe(view._tap)
            del self._views[name]
            self._order.remove(name)
            self._recount_readers()

    def drop_table(self, name: str) -> None:
        """Unregister a base table; refused while views consume it."""
        with self._lock:
            node = self._tables.get(name)
            if node is None:
                raise ViewDependencyError(f"unknown table {name!r}")
            dependents = self.dependents_of(name)
            if dependents:
                raise ViewDependencyError(
                    f"cannot drop table {name!r}: still consumed by "
                    f"{sorted(dependents)}"
                )
            node.detach()
            del self._tables[name]
            self._order.remove(name)
            self._recount_readers()

    # ------------------------------------------------------------------
    # Refresh scheduling
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self.clock()

    def _transitive_oldest(
        self, name: str, cache: Dict[str, Optional[float]]
    ) -> Optional[float]:
        """Arrival time of the oldest event not yet *reflected* in node
        *name*, looking through the whole ancestor chain (``None`` when
        the node is fully fresh).  A base table is always fresh with
        respect to itself; a view is stale both for records it has not
        consumed and for records its source views have not yet emitted.
        """
        if name in cache:
            return cache[name]
        cache[name] = None  # cycle guard; the DAG check makes this moot
        view = self._views.get(name)
        oldest: Optional[float] = None
        if view is not None:
            for src in view.sources:
                candidates = [
                    self._node(src).log.oldest_pending_at(
                        view.watermarks.get(src, 0)
                    ),
                    self._transitive_oldest(src, cache),
                ]
                for stamp in candidates:
                    if stamp is not None and (oldest is None or stamp < oldest):
                        oldest = stamp
        cache[name] = oldest
        return oldest

    def staleness(self, view: DynamicView, now: Optional[float] = None) -> float:
        """Seconds the view lags the *base data* (0 when fully fresh).

        Transitive: counts events the view has not consumed *and*
        events its source views have not yet emitted, so a chain's
        staleness never under-reports just because an intermediate view
        is itself behind.
        """
        oldest = self._transitive_oldest(view.name, {})
        if oldest is None:
            return 0.0
        now = self._now() if now is None else now
        return max(0.0, now - oldest)

    def _due(self, now: float) -> List[str]:
        """Views whose numeric lag budget is exhausted, in topo order."""
        due = []
        cache: Dict[str, Optional[float]] = {}
        for name in self._order:
            view = self._views.get(name)
            if view is None or view.lag is DOWNSTREAM:
                continue
            oldest = self._transitive_oldest(name, cache)
            if oldest is None:
                continue
            if max(0.0, now - oldest) >= view.lag:
                due.append(name)
        return due

    def _closure_with_lazy_ancestors(self, names: Sequence[str]) -> List[str]:
        """*names* plus their ``downstream``-lagged ancestors, topo order.

        Numeric-lag ancestors are *not* pulled in: their freshness is
        their own schedule's business; a lazy (``downstream``) ancestor
        refreshes exactly because a dependent needs it now.
        """
        needed = set(names)
        # Walk ancestors; _order is topological, so one reverse sweep
        # suffices to propagate need from dependents to sources.
        for name in reversed(self._order):
            if name not in needed:
                continue
            view = self._views.get(name)
            if view is None:
                continue
            for src in view.sources:
                ancestor = self._views.get(src)
                if ancestor is not None and (
                    src in needed or ancestor.lag is DOWNSTREAM
                ):
                    needed.add(src)
        return [n for n in self._order if n in needed and n in self._views]

    def _refresh_names(
        self,
        names: Sequence[str],
        now: float,
        *,
        isolate: bool = False,
        on_error=None,
    ) -> Dict[str, int]:
        """Refresh *names* in order; quarantined views are skipped.

        With ``isolate`` (the scheduler path) a refresh that raises
        quarantines only that view -- siblings and dependents keep
        going -- and ``on_error(name, exc)`` is invoked for logging.
        Without it (explicit refreshes, pinned reports) the exception
        propagates to the caller unchanged.
        """
        consumed = {}
        for name in names:
            view = self._views[name]
            if view.quarantined:
                continue
            if isolate:
                try:
                    count = view.refresh(self._node, now)
                except Exception as exc:
                    self._quarantine(view, exc, now)
                    if on_error is not None:
                        on_error(name, exc)
                    continue
            else:
                count = view.refresh(self._node, now)
            if count:
                consumed[name] = count
                self._trim(view.sources)
        return consumed

    def _quarantine(self, view: DynamicView, exc: BaseException, now: float) -> None:
        view.quarantined = True
        view.quarantined_at = now
        view.last_error = f"{type(exc).__name__}: {exc}"
        obs.count("views.quarantined")

    def quarantined_names(self) -> List[str]:
        with self._lock:
            return [n for n, v in self._views.items() if v.quarantined]

    def repair(self, name: str) -> Dict[str, Any]:
        """Clear a view's quarantine and retry its refresh.

        On success returns ``{"repaired", "was_quarantined",
        "refreshed"}``; if the retry raises again the view goes straight
        back into quarantine and the exception propagates (so the
        caller sees *why* the view is still broken).
        """
        with self._lock:
            view = self.view(name)
            was = view.quarantined
            view.quarantined = False
            view.quarantined_at = None
            view.last_error = None
            now = self._now()
            try:
                refreshed = self._refresh_names(
                    self._ancestor_closure([name]), now
                )
            except Exception as exc:
                self._quarantine(view, exc, now)
                raise
            return {
                "repaired": name,
                "was_quarantined": was,
                "refreshed": refreshed,
            }

    def tick(self, now: Optional[float] = None, *, on_error=None) -> Dict[str, int]:
        """One scheduler pass: refresh every due view, each at most
        once, in topological order.  A due view pulls its *full*
        ancestor closure into the tick -- a ``lag="0s"`` rollup over a
        ``lag="1h"`` intermediate obliges the intermediate to move at
        the rollup's cadence (a dependent's lag is a constraint on its
        whole upstream chain, which is also why due-ness is judged on
        *transitive* staleness).  Returns ``{view: events_consumed}``
        for the views that moved.

        A view whose refresh raises is quarantined rather than killing
        the tick: the remaining views still refresh, and ``on_error``
        (when given) is called with ``(view_name, exception)``.
        """
        with self._lock:
            now = self._now() if now is None else now
            self.ticks += 1
            due = self._due(now)
            if not due:
                return {}
            return self._refresh_names(
                self._ancestor_closure(due), now,
                isolate=True, on_error=on_error,
            )

    def refresh(self, name: Optional[str] = None) -> Dict[str, int]:
        """Force a refresh: one view (with its full ancestor closure,
        lag targets notwithstanding) or, with ``name=None``, every view.
        """
        with self._lock:
            now = self._now()
            if name is None:
                names = [n for n in self._order if n in self._views]
            else:
                self.view(name)  # raise early on unknown names
                names = self._ancestor_closure([name])
            return self._refresh_names(names, now)

    def _ancestor_closure(self, names: Sequence[str]) -> List[str]:
        needed = set(names)
        for name in reversed(self._order):
            if name not in needed:
                continue
            view = self._views.get(name)
            if view is not None:
                needed.update(view.sources)
        return [n for n in self._order if n in needed and n in self._views]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(
        self, name: str, t: Time, *, key: Hashable = None, now: Optional[float] = None
    ) -> ViewReading:
        """Read one view at instant *t*.

        A ``downstream``-lagged view (and its lazy ancestors) refreshes
        first -- that is what the lag means; views on a numeric lag
        serve their current state and let ``staleness_s`` say how old
        it is.  For a grouped view, *key* selects one group (unknown
        keys read as the empty group); ``key=None`` returns every
        group's value as a dict.
        """
        with self._lock:
            view = self.view(name)
            now = self._now() if now is None else now
            if view.lag is DOWNSTREAM and not view.quarantined:
                self._refresh_names(self._closure_with_lazy_ancestors([name]), now)
            if view.key_field is not None and key is None:
                value: Any = view.values_at(t)
            else:
                value = view.value_at(t, key)
            return ViewReading(
                value=value,
                as_of_watermark=dict(view.watermarks),
                staleness_s=self.staleness(view, now),
                degraded=view.quarantined,
            )

    def report(
        self, names: Sequence[str], t: Time, *, pin: bool = True
    ) -> Dict[str, Any]:
        """Read several views at *t* in one consistent snapshot.

        With ``pin`` the full ancestor closure of *names* refreshes
        first (inside the lock, so no ingest interleaves), after which
        every reading reflects the same base-table log heads; those
        heads are returned as the report's pinned watermark.  Without
        ``pin`` each view is read as-is, like :meth:`read`.
        """
        with self._lock:
            now = self._now()
            for name in names:
                self.view(name)
            if pin:
                self._refresh_names(self._ancestor_closure(names), now)
            readings = {
                name: self.read(name, t, now=now).to_json() for name in names
            }
            bases = {
                tname: node.log.head for tname, node in self._tables.items()
            }
            return {
                "views": readings,
                "pinned": bool(pin),
                "base_watermarks": bases,
            }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Per-node freshness and cost counters (the ``view_stats`` op)."""
        with self._lock:
            now = self._now()
            tables = {
                name: {
                    "head": node.log.head,
                    "log_base": node.log.base,
                    "log_retained": node.log.retained,
                    "tuples": len(node.relation),
                }
                for name, node in self._tables.items()
            }
            views = {}
            for name, view in self._views.items():
                views[name] = {
                    "sources": list(view.sources),
                    "kind": view.spec.kind.value,
                    "key": view.key_field,
                    "lag": format_lag(view.lag),
                    "watermarks": dict(view.watermarks),
                    "pending": view.pending_from(self._node),
                    "head": view.log.head,
                    "log_retained": view.log.retained,
                    "staleness_s": self.staleness(view, now),
                    "refreshes": view.refreshes,
                    "events_consumed": view.events_consumed,
                    "rows": view.row_count(),
                    "rows_emitted": view.rows_emitted,
                    "rows_retracted": view.rows_retracted,
                    "rows_examined": view.rows_examined,
                    "effects_applied": view.effects_applied,
                    "groups": len(list(view.keys())),
                    "last_refresh_s": view.last_refresh_s,
                    "quarantined": view.quarantined,
                    "last_error": view.last_error,
                }
            return {
                "tables": tables,
                "views": views,
                "order": list(self._order),
                "ticks": self.ticks,
                "quarantined": sum(
                    1 for v in self._views.values() if v.quarantined
                ),
            }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _checkpoint_path(self) -> str:
        if self.directory is None:
            raise ValueError("this catalog has no directory to persist into")
        return os.path.join(self.directory, CHECKPOINT_NAME)

    @staticmethod
    def _rows_json(relation: TemporalRelation) -> List[List[Any]]:
        return [
            [row.tuple_id, row.value, row.valid.start, row.valid.end,
             row.payload]
            for row in relation
        ]

    @staticmethod
    def _trees_json(view: DynamicView) -> List[List[Any]]:
        """Per-group tree checkpoints: the coalesced internal step
        function of each group's SB-tree, ``v0`` segments elided, from
        one walk over the tree's leaves.  Re-applying each segment as a
        raw effect reconstructs the tree exactly (segments are disjoint
        and ``acc(v0, x) == x``)."""
        out: List[List[Any]] = []
        for key, tree in view._trees.items():
            segments: List[List[Any]] = []
            for value, start, end in tree.leaf_pieces():
                _extend_segments(view.spec, segments, value, start, end)
            out.append([key, segments])
        return out

    def save(self) -> str:
        """Checkpoint definitions, watermarks, logs, trees, and rows.

        The logs hold only their unconsumed tails (refresh and DDL
        drop the rest); the checkpoint carries per-group tree
        checkpoints instead, so a restore replays only those tails.
        The write is atomic (temp file + fsync + rename) and
        the previous checkpoint is retained as ``dynamic.json.prev``
        before the rename, so a crash at *any* point of the sequence
        leaves a restorable checkpoint behind.  With ``faults`` the
        labeled crash points in :data:`CATALOG_CRASH_POINTS` and the
        ``"view_ckpt"`` write/fsync label are consulted.
        """
        with self._lock:
            path = self._checkpoint_path()
            payload: Dict[str, Any] = {
                "version": 2,
                "order": list(self._order),
                "tables": {
                    name: {
                        "log": node.log.to_json(),
                        "rows": self._rows_json(node.relation),
                    }
                    for name, node in self._tables.items()
                },
                "views": {
                    name: {
                        "sources": view.sources,
                        "kind": view.spec.kind.value,
                        "key": view.key_field,
                        "lag": format_lag(view.lag),
                        "watermarks": view.watermarks,
                        "refreshes": view.refreshes,
                        "events_consumed": view.events_consumed,
                        "log": view.log.to_json(),
                        "rows": self._rows_json(view.relation),
                        "trees": self._trees_json(view),
                        "quarantined": view.quarantined,
                        "last_error": view.last_error,
                    }
                    for name, view in self._views.items()
                },
            }
            data = json.dumps(payload).encode("utf-8")
            faults = self.faults
            if faults is not None:
                faults.crash_point("view_ckpt:serialized")
            tmp = path + ".tmp"
            handle = open(tmp, "wb")
            try:
                torn_exc = None
                out = data
                if faults is not None:
                    out, torn_exc = faults.intercept_write(
                        CATALOG_WRITE_LABEL, data
                    )
                handle.write(out)
                handle.flush()
                if torn_exc is not None:
                    # Torn-write protocol: the prefix reaches the file,
                    # then the simulated crash fires.
                    os.fsync(handle.fileno())
                    raise torn_exc
                if faults is not None:
                    faults.intercept_fsync(CATALOG_WRITE_LABEL)
                os.fsync(handle.fileno())
            finally:
                handle.close()
            if faults is not None:
                faults.crash_point("view_ckpt:before_rename")
            if os.path.exists(path):
                # Retain the last-good checkpoint via a hardlink swap:
                # the main file is never missing, and .prev is complete
                # before the main rename can clobber anything.
                prev_tmp = path + ".prev.tmp"
                try:
                    os.remove(prev_tmp)
                except FileNotFoundError:
                    pass
                os.link(path, prev_tmp)
                os.replace(prev_tmp, path + ".prev")
            os.replace(tmp, path)
            if faults is not None:
                faults.crash_point("view_ckpt:after_rename")
            self._fsync_directory()
            return path

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    def _load_payload(self, path: str) -> Dict[str, Any]:
        """Read and parse the checkpoint, falling back to ``.prev``.

        Under ``strict`` any unreadable/corrupt main checkpoint raises
        :class:`CatalogCheckpointError` immediately; otherwise the
        previous checkpoint (retained by :meth:`save`) is tried, and
        only when *neither* restores does the error propagate.  A
        leftover ``.tmp`` file is never adopted -- it may be torn.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                raise ValueError("checkpoint must be a JSON object")
            return payload
        except (OSError, ValueError) as exc:
            main_error = exc
        if self.strict:
            raise CatalogCheckpointError(
                f"corrupt or unreadable catalog checkpoint {path}: "
                f"{main_error}"
            ) from main_error
        prev = path + ".prev"
        try:
            with open(prev, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict):
                raise ValueError("checkpoint must be a JSON object")
            obs.count("views.ckpt.fallbacks")
            return payload
        except (OSError, ValueError) as prev_error:
            raise CatalogCheckpointError(
                f"catalog checkpoint {path} is corrupt or unreadable "
                f"({main_error}) and no previous checkpoint could be "
                f"restored ({prev_error})"
            ) from main_error

    def load(self) -> None:
        """Restore a checkpoint: logs, rows, and trees; tail replayable.

        Each view's per-group trees come back from their saved step
        functions, so a reopened catalog resumes incremental refresh
        from the persisted watermarks instead of rebuilding from
        scratch.  Any checkpoint version but 2 is refused.
        """
        with self._lock:
            path = self._checkpoint_path()
            payload = self._load_payload(path)
            version = payload.get("version")
            if version != 2:
                raise CatalogCheckpointError(
                    f"unsupported catalog checkpoint version {version!r} "
                    f"in {path}"
                )
            # A crash mid-save can leave temp files behind; they are
            # superseded by whichever checkpoint just restored.
            for leftover in (path + ".tmp", path + ".prev.tmp"):
                try:
                    os.remove(leftover)
                except OSError:
                    pass
            self._tables.clear()
            self._views.clear()
            self._order = []
            tables = payload.get("tables", {})
            views = payload.get("views", {})
            for name in payload.get("order", ()):
                if name in tables:
                    raw = tables[name]
                    relation = TemporalRelation(name)
                    _restore_relation(relation, raw["rows"])
                    node = _BaseNode.__new__(_BaseNode)
                    node.name = name
                    node.relation = relation
                    node.log = ChangeLog.from_json(raw["log"])
                    node._tap = _LogTap(node.log, self.clock)
                    relation.subscribe(node._tap, replay=False)
                    self._tables[name] = node
                    self._order.append(name)
                elif name in views:
                    raw = views[name]
                    view = DynamicView(
                        name, list(raw["sources"]), raw["kind"],
                        key=raw.get("key"), lag=parse_lag(raw["lag"]),
                        clock=self.clock, **self._tree_args,
                    )
                    # Output rows and the emitted log restore verbatim
                    # (re-inserting them would re-emit downstream).
                    view.relation.unsubscribe(view._tap)
                    self._restore_rows(view, raw["rows"])
                    view.log = ChangeLog.from_json(raw["log"])
                    view._tap = _LogTap(view.log, self.clock)
                    view.relation.subscribe(view._tap, replay=False)
                    view.watermarks = {
                        src: int(seq)
                        for src, seq in raw.get("watermarks", {}).items()
                    }
                    for src in view.sources:
                        view.watermarks.setdefault(src, 0)
                    view.refreshes = int(raw.get("refreshes", 0))
                    view.events_consumed = int(raw.get("events_consumed", 0))
                    view.quarantined = bool(raw.get("quarantined", False))
                    last_error = raw.get("last_error")
                    view.last_error = (
                        str(last_error) if last_error is not None else None
                    )
                    self._views[name] = view
                    self._order.append(name)
                    self._restore_trees(view, raw["trees"])
            self._recount_readers()

    def _restore_rows(self, view: DynamicView, rows: List[List[Any]]) -> None:
        _restore_relation(view.relation, rows)
        grouped: Dict[Hashable, List[TemporalTuple]] = {}
        for row in view.relation:
            key = (
                None if view.key_field is None
                else row.payload.get(view.key_field)
            )
            grouped.setdefault(key, []).append(row)
        for key, members in grouped.items():
            view._tree(key)  # ensure the per-group row index exists
            members.sort(key=lambda row: row.valid.start)
            view._index[key] = ([row.valid.start for row in members], members)

    def _restore_trees(self, view: DynamicView, raw_trees: List[List[Any]]) -> None:
        """Rebuild a restored view's trees from saved step functions.

        Each segment's internal value re-applies as a raw effect over
        its interval, one batch per tree; AVG pairs come back from JSON
        as lists and are restored to tuples so the value algebra sees
        its own types.
        """
        for key, segments in raw_trees:
            view._tree(key).insert_effects(
                (
                    tuple(value) if isinstance(value, list) else value,
                    Interval(start, end),
                )
                for value, start, end in segments
            )

    def close(self) -> None:
        """Checkpoint (when persistent) and detach every node."""
        with self._lock:
            if self.directory is not None:
                self.save()
            for node in self._tables.values():
                node.detach()

    def __enter__(self) -> "DynamicCatalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
