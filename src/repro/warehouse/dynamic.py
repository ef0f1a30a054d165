"""Dynamic materialized views: a DAG of lag-driven incremental refreshes.

This is the package's one view engine.  A view indexes a temporal
aggregate with the paper's trees -- O(log n) per change, however long
the changed tuple's interval -- but applies changes in batches, so no
writer waits on a view.  It follows Snowflake-style *dynamic tables*:

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
  one batch per group.  For a view another view consumes, only the
  affected (key, time-range) regions of its *output rows* are then
  regenerated and re-emitted as change events for downstream views,
  found by bisecting the group's sorted row index, never by scanning
  it.  For SUM/COUNT/AVG those regions are the spans of the net
  effect -- where the group's tree changed -- not the spans of the
  records, so a row an upstream view retracted and re-emitted
  unchanged is left alone;
* a view may be cumulative (paper, Section 4): ``window=w`` stretches
  each record to ``[s, e + w)`` as it is folded (the fixed window of
  4.1, one SB-tree per group); ``window=ANY_WINDOW`` gives each
  SUM/COUNT/AVG group a dual pair (4.2: ``T`` takes the records,
  ``T'`` each record's effect over ``[e, inf)``, the pinned erratum)
  and each MIN/MAX group an MSB-tree (4.3), read at any offset ``w``
  with the tree's own ``window_lookup``.  A windowed view holds no
  output rows, so no view may consume it;
* the :class:`DynamicCatalog` owns the dependency DAG (cycle rejection
  at ``create_view`` time), refreshes stale views in topological order
  on each :meth:`~DynamicCatalog.tick`, persists per-view watermarks
  and change logs to ``<directory>/dynamic.json`` so refresh survives a
  restart, and serves reads that report ``(value, as_of_watermark,
  staleness_s)`` -- optionally pinned to one consistent watermark
  across several views in a single report query.  Each DDL records
  every view's ancestry once (the views to refresh, and the edges a
  record crosses on its way to the view), so a read of a fresh view
  costs one pass over its edges plus one tree lookup per group.

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

Output-row semantics: a view holds output rows **iff some view
consumes it**.  Every read comes from its SB-trees, which index the
aggregate itself (the paper's point: a long fact costs O(h), not a
visit to every row it covers), so the rows exist only to feed
consumers.  The DDL that gives a view its first consumer materializes
them from the trees, one whole-line regeneration per group, before the
consumer bootstraps from them; the DDL that drops its last consumer
forgets them, and a load drops any an older checkpoint kept for a view
nothing consumes.  The rows are one temporal tuple per constant
interval of the (per-group) aggregate **where the internal value
differs from the aggregate's initial value** ``v0``; regions where the
aggregate sits at ``v0`` (no contributing tuples, or exact
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
  replays only the unconsumed tail.  Likewise a view nothing consumes
  keeps, and checkpoints, no output rows: its trees are the view.
* **Checkpoints.**  :mod:`repro.warehouse.checkpoint` writes and reads
  ``dynamic.json``: a save costs what changed since the last one (each
  tree write first marks its spans in the view's ``saved`` texts) and
  is crash-safe, and a load refuses exactly what ``repro fsck``
  reports, falling back to ``dynamic.json.prev`` (or raising
  :class:`CatalogCheckpointError` under ``strict=True``).
* **Quarantine.**  A view whose refresh raises during a scheduler
  :meth:`~DynamicCatalog.tick` is quarantined: siblings keep
  refreshing, reads serve its last-good values flagged
  ``degraded=True``, and :meth:`DynamicCatalog.repair` retries.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from .. import obs
from ..core.dual import DualTreeAggregate
from ..core.fixed_window import stretched
from ..core.intervals import NEG_INF, POS_INF, Interval, Time
from ..core.msbtree import MSBTree
from ..core.results import ConstantIntervalTable, trim_initial
from ..core.sbtree import SBTree
from ..core.values import AggregateSpec, spec_for
from ..relation.table import TemporalRelation
from ..relation.tuples import ChangeEvent, ChangeKind, TemporalTuple
from . import checkpoint
from .checkpoint import CATALOG_CRASH_POINTS, CHECKPOINT_NAME, CatalogCheckpointError, SavedTexts

__all__ = [
    "ANY_WINDOW",
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

#: What a group key may be: a JSON scalar, which the checkpoint returns
#: as itself (a tuple would come back as an unhashable list).
_KEY_TYPES = (str, int, float, bool, type(None))

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


class _AnyWindow:
    """Sentinel window: the view answers cumulative reads at any offset."""

    def __repr__(self) -> str:
        return "ANY_WINDOW"


ANY_WINDOW = _AnyWindow()


def parse_window(window: Any) -> Union[Time, _AnyWindow]:
    """A view's window: ``0`` (instantaneous), a finite offset ``w > 0``,
    or :data:`ANY_WINDOW` (``"any"`` in a checkpoint).  ``ValueError``
    for anything else."""
    if window is ANY_WINDOW or window == "any":
        return ANY_WINDOW
    if isinstance(window, bool) or not isinstance(window, (int, float)) \
            or not (math.isfinite(window) and window >= 0):
        raise ValueError(
            f"window must be 0, a finite offset w > 0 or ANY_WINDOW, got {window!r}"
        )
    return window


def _ended(records: List["LogRecord"]) -> List["LogRecord"]:
    """What ``T'`` of a dual pair takes of *records* (Section 4.2): each
    one that ends, over ``[e, inf)`` -- the pinned erratum's closed
    start, so a tuple ending at ``t - w`` is out of the window at ``t``."""
    return [
        dataclasses.replace(record, start=record.end, end=POS_INF)
        for record in records if record.end != POS_INF
    ]


def _trees_of(index: Any) -> Tuple[SBTree, ...]:
    """The SB-trees behind a group's index: ``T`` and ``T'`` of a dual
    pair, else the index itself."""
    if isinstance(index, DualTreeAggregate):
        return index.current, index.ended
    return (index,)


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
    :mod:`repro.warehouse.checkpoint`); DESIGN.md section 14 has the
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
        """Arrival time of the oldest record past *watermark* (``None``
        when there is none), without copying the pending tail."""
        seq = max(watermark, self.base)
        return self.records[seq - self.base].at if seq < self.head else None



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
        self.saved = SavedTexts()

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

    * one index per group key (created lazily as keys appear in the
      consumed change stream): an SB-tree, or with ``window=ANY_WINDOW``
      a dual pair (SUM/COUNT/AVG) or an MSB-tree (MIN/MAX),
    * an output :class:`TemporalRelation` materializing the aggregate's
      constant intervals as temporal tuples (so a view is consumable by
      further views exactly like a base table) -- empty while no view
      consumes it, and
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
        window: Union[Time, _AnyWindow] = 0,
        clock=time.monotonic,
        branching: int = 32,
        leaf_capacity: Optional[int] = None,
    ) -> None:
        self.name = name
        self.sources = list(sources)
        self.spec: AggregateSpec = spec_for(kind)
        self.key_field = key
        self.lag = lag
        self.window = window
        # The window is chosen here, once: the index a group gets, and
        # what each of its trees takes of a group's records.
        if window is ANY_WINDOW:
            self._new_index = DualTreeAggregate if self.spec.invertible else MSBTree
            self._inputs = (lambda records: (records, _ended(records))) \
                if self.spec.invertible else (lambda records: (records,))
        else:
            self._new_index = SBTree
            self._inputs = (lambda records: ([stretched(r, window) for r in records],)) \
                if window else (lambda records: (records,))
        self.watermarks: Dict[str, int] = {src: 0 for src in self.sources}
        self.relation = TemporalRelation(name)
        self.log = ChangeLog()
        self._tap = _LogTap(self.log, clock)
        self.relation.subscribe(self._tap, replay=True)
        self._tree_args = dict(branching=branching, leaf_capacity=leaf_capacity)
        self._trees: Dict[Hashable, Any] = {}
        # Per-group row index, the view's own affected-region index: the
        # group's output rows sorted by start (they are disjoint) beside
        # the parallel list of those starts, so regeneration bisects to
        # the rows an affected span overlaps and splices their
        # replacements in place.
        self._index: Dict[Hashable, Tuple[List[Time], List[TemporalTuple]]] = {}
        # What the last save wrote, kept for the next one.
        self.saved = SavedTexts(self.spec)
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
        # Ancestry, recorded by the catalog after every DDL: the views a
        # full and a lazy read refresh (this one and its ancestors, and
        # this one and its ``downstream``-lagged ones), in topological
        # order, and every edge -- (source log, consuming view, source
        # name) -- a record crosses on its way here.
        self.closure: List[str] = [name]
        self.lazy_closure: List[str] = [name]
        self.edges: List[Tuple[ChangeLog, DynamicView, str]] = []

    # ------------------------------------------------------------------
    def _tree(self, key: Hashable) -> Any:
        """Group *key*'s index, created empty on first use."""
        tree = self._trees.get(key)
        if tree is None:
            tree = self._new_index(self.spec, **self._tree_args)
            self._trees[key] = tree
            self._index[key] = ([], [])
        return tree

    def _key_of(self, payload: Mapping[str, Any]) -> Hashable:
        """The group of a record or row with this *payload*; ``ValueError``
        for a key the checkpoint cannot give back as itself."""
        if self.key_field is None:
            return None
        key = payload.get(self.key_field)
        if not isinstance(key, _KEY_TYPES):
            raise ValueError(
                f"view {self.name!r}: group key field {self.key_field!r} "
                f"holds {key!r}; a group key must be a str, int, float, "
                "bool or None"
            )
        return key

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
        behind the veto.  A windowed view folds or batches what each of
        its trees takes (see ``_inputs``): the stretched records, or
        the records and, for ``T'``, their ends.  If a view consumes
        this one, its output rows are then regenerated only where a
        group's tree changed: over the merged spans of its folded
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
                groups.setdefault(self._key_of(record.payload), []).append(record)
            consumed += len(batch)
        changed, effects = self._apply(groups)
        self.effects_applied += effects
        for src, batch in batches:
            self.watermarks[src] = batch[-1].seq
        if self.log.consumed:
            for key, spans in changed.items():
                self._regenerate_spans(key, spans)
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

    def _apply(
        self, groups: Dict[Hashable, List[LogRecord]]
    ) -> Tuple[Dict[Hashable, List[Tuple[Time, Time]]], int]:
        """Write each group's records to its trees.  Returns, per group,
        the spans its (first) tree may have changed, and how many
        effects the trees took."""
        changed: Dict[Hashable, List[Tuple[Time, Time]]] = {}
        effects = 0
        if self.spec.invertible:
            folded = [
                [self._fold(part) for part in self._inputs(records)]
                for records in groups.values()
            ]
            for key, parts in zip(groups, folded):
                trees = _trees_of(self._tree(key))
                for part, (tree, segments) in enumerate(zip(trees, parts)):
                    spans = [(start, end) for _, start, end in segments]
                    self.saved.mark((part, key), spans, [value for value, _, _ in segments])
                    tree.insert_effects(
                        (value, Interval(start, end))
                        for value, start, end in segments
                    )
                    effects += len(segments)
                    changed.setdefault(key, spans)
            return changed, effects
        # Two-phase: veto before any mutation so a batch with a deletion
        # cannot half-apply.
        for records in groups.values():
            for record in records:
                if record.kind == "delete":
                    raise ValueError(
                        f"view {self.name!r}: {self.spec.kind} aggregates "
                        "cannot be maintained under deletions (paper, "
                        "Section 3.4); the source change stream "
                        "retracted a tuple"
                    )
        inputs = {key: self._inputs(records)[0] for key, records in groups.items()}
        # Every group's spans are marked before the first write: a
        # value a tree cannot compare fails its group's batch after
        # earlier groups took theirs.
        for key, records in inputs.items():
            changed[key] = [(r.start, r.end) for r in records]
            self.saved.mark((0, key), changed[key])
        for key, records in inputs.items():
            self._tree(key).insert_batch(
                (record.value, record.interval) for record in records
            )
            effects += len(records)
        return changed, effects

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

    def _materialize(self) -> None:
        """Emit every group's output rows from its tree, one whole-line
        :meth:`_regenerate` per group: for the DDL that gives this view
        its first consumer (until then it holds none)."""
        for key in self._trees:
            self._regenerate(key, NEG_INF, POS_INF)

    def _drop_rows(self) -> None:
        """Forget every output row, silently: nothing consumes them."""
        self.relation.clear()
        self._index = {key: ([], []) for key in self._trees}
        self.saved.rows = {}

    def _regenerate_spans(self, key: Hashable, spans: List[Tuple[Time, Time]]) -> None:
        """Rebuild this group's output rows where its tree changed.

        Every span is widened to the rows it overlaps *before* the spans
        are merged, so two spans that share a row regenerate it once:
        each row the batch touches is retracted and re-emitted once.
        """
        widened = [self._widen(key, lo, hi) for lo, hi in spans]
        for lo, hi in _merge_spans(widened):
            self._regenerate(key, lo, hi)

    def _overlap(self, key: Hashable, lo: Time, hi: Time) -> Tuple[int, int, int]:
        """Two bisects of the group's row index: ``rows[first:stop]``
        are the rows ``[lo, hi)`` overlaps, and ``reach`` counts the rows
        starting at or before *lo* (only the last of those can reach
        into the span)."""
        starts, rows = self._index[key]
        reach = bisect.bisect_right(starts, lo)
        first = reach - 1 if reach and rows[reach - 1].valid.end > lo else reach
        return reach, first, bisect.bisect_left(starts, hi, first)

    def _widen(self, key: Hashable, lo: Time, hi: Time) -> Tuple[Time, Time]:
        """``[lo, hi)`` grown to cover the first and the last row it
        overlaps (rows of one group are disjoint, so that is a
        fixpoint)."""
        _, first, stop = self._overlap(key, lo, hi)
        if first == stop:
            return lo, hi
        rows = self._index[key][1]
        return min(lo, rows[first].valid.start), max(hi, rows[stop - 1].valid.end)

    def _regenerate(self, key: Hashable, lo: Time, hi: Time) -> None:
        """Rebuild this group's output rows over one widened span.

        The rows the span overlaps (it covers each of them whole, see
        :meth:`_widen`) are retracted, the group's tree is range-queried
        once to emit the new constant intervals, and those are spliced
        into the index where the old rows were: O(log n + rows replaced)
        row visits and tree work.  (When the span's row count changes,
        the list splice also shifts the tail of the group's index, a
        memmove of one pointer per later row: linear, but not work the
        view does row by row.)  Rows whose internal value is ``v0`` are
        elided (see the module docstring).
        """
        starts, rows = self._index[key]
        reach, first, stop = self._overlap(key, lo, hi)
        self.rows_examined += stop - reach + (1 if reach else 0)
        stale = rows[first:stop]
        if stale:
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
    def _check_read(self, key: Hashable, w: Optional[Time]) -> None:
        """Refuse (``ValueError``) a read this view cannot answer: a
        *key* on an ungrouped view or one no group can have, an offset
        *w* on a view without ``ANY_WINDOW`` (a fixed window answers for
        its own offset), none on one with it, or a negative one."""
        if key is not None:
            if self.key_field is None:
                raise ValueError(
                    f"view {self.name!r} is not grouped: it has no key {key!r}"
                )
            if not isinstance(key, _KEY_TYPES):
                raise ValueError(
                    f"view {self.name!r}: a group key is a str, int, float, "
                    f"bool or None, not {key!r}"
                )
        if (w is None) == (self.window is ANY_WINDOW):
            raise ValueError(
                f"view {self.name!r} answers any window offset; pass w"
                if w is None else
                f"view {self.name!r} has window={self.window!r}; only a view "
                "with window=ANY_WINDOW is read at an offset w"
            )
        if w is not None and not w >= 0:
            raise ValueError("window offset must be non-negative")

    def value_at(self, t: Time, key: Hashable = None, w: Optional[Time] = None) -> Any:
        """Finalized value at *t* for one group (or the single group),
        over the closed window ``[t - w, t]`` when *w* is given."""
        tree = self._trees.get(key)
        if tree is None:
            return self.spec.finalize(self.spec.v0)
        if w is None:
            return tree.lookup_final(t)
        return self.spec.finalize(tree.window_lookup(t, w))

    def values_at(self, t: Time, w: Optional[Time] = None) -> Dict[Hashable, Any]:
        """Every known group's finalized value at *t* (at offset *w*)."""
        if w is None:
            return {key: tree.lookup_final(t) for key, tree in self._trees.items()}
        return {key: self.value_at(t, key, w) for key in self._trees}

    def table(self, key: Hashable = None, w: Optional[Time] = None) -> ConstantIntervalTable:
        """One group's contents as it stands (no refresh): its constant
        intervals, finalized, those at the aggregate's initial value
        trimmed from either end.  Pass *w* exactly when the view has
        ``window=ANY_WINDOW``; an unknown key is the empty table."""
        self._check_read(key, w)
        index = self._trees.get(key)
        if index is None:
            return ConstantIntervalTable([])
        if w is None:
            raw = index.to_table()
        else:
            raw = trim_initial(index.window_query(Interval(NEG_INF, POS_INF), w), self.spec)
        return raw.finalized(self.spec).coalesce()

    def keys(self):
        return self._trees.keys()

    def row_count(self) -> int:
        return len(self.relation)

    def pending_from(self, resolve) -> int:
        """Unconsumed source records (0 when fully fresh)."""
        return sum(
            resolve(src).log.head - self.watermarks[src] for src in self.sources
        )

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
        self._rank: Dict[str, int] = {}  # node -> position in _order
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
        if not isinstance(name, str):
            raise ValueError(f"a table name must be a str, not {name!r}")
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
        """Recompute, after any DDL, which views consume each node and
        each view's ancestry, then trim every log to what its slowest
        consumer has not read."""
        self._readers = {name: [] for name in self._order}
        for view in self._views.values():
            for src in view.sources:
                self._readers[src].append(view)
        for name, readers in self._readers.items():
            self._node(name).log.consumed = bool(readers)
        self._rank = {name: i for i, name in enumerate(self._order)}
        for name in self._order:  # topological: sources come first
            view = self._views.get(name)
            if view is None:
                continue
            closure, lazy = {name}, {name}
            for src in view.sources:
                ancestor = self._views.get(src)
                if ancestor is not None:
                    closure.update(ancestor.closure)
                    if ancestor.lag is DOWNSTREAM:
                        lazy.update(ancestor.lazy_closure)
            view.closure = sorted(closure, key=self._rank.__getitem__)
            view.lazy_closure = sorted(lazy, key=self._rank.__getitem__)
            view.edges = [
                (self._node(src).log, reader, src)
                for reader in map(self._views.__getitem__, view.closure)
                for src in reader.sources
            ]
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
        """Reject any edge set that would close a cycle through *name*:
        a source that is *name* or has it in its recorded ancestry.

        Sources must already exist, so the only reachable cycles run
        through the new view itself; the ancestry check keeps the guard
        correct if forward references are ever allowed.
        """
        views = self._views
        if any(src == name or (src in views and name in views[src].closure)
               for src in sources):
            raise CycleError(f"view {name!r} cannot (transitively) depend on itself")

    def create_view(
        self,
        name: str,
        over: Union[str, Sequence[str]],
        kind,
        *,
        key: Optional[str] = None,
        lag: Any = DOWNSTREAM,
        window: Any = 0,
        create_sources: bool = False,
    ) -> DynamicView:
        """Declare a dynamic view over base tables and/or other views.

        ``lag`` accepts anything :func:`parse_lag` does, ``window``
        anything :func:`parse_window` does: ``0``, a fixed offset ``w``
        (the view reads as the aggregate over ``[t - w, t]``) or
        :data:`ANY_WINDOW` (:meth:`read` takes the offset).  A windowed
        view holds no output rows, so it cannot be a source.  With
        ``create_sources`` unknown source names are auto-created as
        base tables (the service's ingest-after-declare convenience)
        once every source is checked, so a refused view creates none;
        otherwise they are rejected.  A source whose log still holds
        its whole history (another consumer has not read past its
        start) is replayed by the first refresh; any other source --
        one nobody consumed keeps no records -- seeds the view from
        its live rows here, so the view is complete when created.  A
        source view nothing consumed yet holds no rows: it materializes
        them from its trees first.
        """
        sources = [over] if isinstance(over, str) else list(over)
        if not sources:
            raise ValueError("a view needs at least one source")
        parsed_lag = parse_lag(lag)
        window = parse_window(window)
        # Names are what a checkpoint can give back as themselves.
        names = [name, *sources] if key is None else [name, *sources, key]
        if not all(isinstance(field, str) for field in names):
            raise ValueError(f"view {name!r} over {sources!r} by {key!r}: names must be strs")
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
                if src in self._views and self._views[src].window != 0:
                    raise ValueError(
                        f"view {name!r}: view {src!r} has a window, so it holds "
                        "no rows and cannot be a source"
                    )
                if not self.has_node(src) and not create_sources:
                    raise ViewDependencyError(
                        f"view {name!r}: unknown source {src!r}"
                    )
            view = DynamicView(
                name, sources, spec, key=key, lag=parsed_lag, window=window,
                clock=self.clock, **self._tree_args,
            )
            # Only now, with every source checked, do the missing ones
            # become tables; a bootstrap that raises removes them again.
            created = [src for src in dict.fromkeys(sources) if not self.has_node(src)]
            for src in created:
                self.create_table(src)
            try:
                for src in sources:
                    source = self._views.get(src)
                    if source is not None and not source.log.consumed:
                        # Its tap still skips: the rows log no records.
                        source._materialize()
                self._bootstrap_compacted_sources(view)
            except Exception:
                self._drop_unconsumed_rows(sources)
                for src in created:
                    self.drop_table(src)
                raise
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
        seeds: Dict[Hashable, List[LogRecord]] = {}
        heads: Dict[str, int] = {}
        for src in view.sources:
            node = self._node(src)
            if node.log.base <= 0:
                continue
            for row in node.relation:
                seeds.setdefault(view._key_of(row.payload), []).append(LogRecord(
                    0, "insert", row.value, row.valid.start, row.valid.end,
                    row.payload, 0.0,
                ))
            heads[src] = node.log.head
        view._apply(seeds)
        view.watermarks.update(heads)

    def _drop_unconsumed_rows(self, names: Sequence[str]) -> None:
        """Drop the output rows of each named view nothing consumes."""
        for name in names:
            view = self._views.get(name)
            if view is not None and not view.log.consumed:
                view._drop_rows()

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
            self._drop_unconsumed_rows(view.sources)

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

    @staticmethod
    def _oldest_unreflected(view: DynamicView) -> Optional[float]:
        """Arrival time of the oldest record not yet *reflected* in
        *view* (``None`` when it is fully fresh): one pass over the
        edges of its ancestry, so a view is stale both for records it
        has not consumed and for records its source views have not yet
        emitted."""
        oldest = None
        for log, reader, src in view.edges:
            stamp = log.oldest_pending_at(reader.watermarks[src])
            if stamp is not None and (oldest is None or stamp < oldest):
                oldest = stamp
        return oldest

    def _age(self, oldest: Optional[float], now: Optional[float]) -> float:
        """Seconds since *oldest*; 0 for a fresh view, without the clock."""
        if oldest is None:
            return 0.0
        now = self._now() if now is None else now
        return max(0.0, now - oldest)

    def staleness(self, view: DynamicView, now: Optional[float] = None) -> float:
        """Seconds the view lags the *base data* (0 when fully fresh).

        Transitive: counts events the view has not consumed *and*
        events its source views have not yet emitted, so a chain's
        staleness never under-reports just because an intermediate view
        is itself behind.
        """
        return self._age(self._oldest_unreflected(view), now)

    def _due(self, now: float) -> List[str]:
        """Views whose numeric lag budget is exhausted, in topo order."""
        due = []
        for name in self._order:
            view = self._views.get(name)
            if view is None or view.lag is DOWNSTREAM:
                continue
            oldest = self._oldest_unreflected(view)
            if oldest is not None and max(0.0, now - oldest) >= view.lag:
                due.append(name)
        return due

    def _closure(self, names: Sequence[str]) -> List[str]:
        """The views of *names*' ancestries, in topological order."""
        needed = set()
        for name in names:
            needed.update(self._views[name].closure)
        return sorted(needed, key=self._rank.__getitem__)

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
                refreshed = self._refresh_names(view.closure, now)
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
                self._closure(due), now, isolate=True, on_error=on_error,
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
                names = self.view(name).closure
            return self._refresh_names(names, now)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(
        self, name: str, t: Time, *, key: Hashable = None, w: Optional[Time] = None,
        now: Optional[float] = None,
    ) -> ViewReading:
        """Read one view at instant *t* (a view with ``window=ANY_WINDOW``
        over the closed window ``[t - w, t]``: pass *w*, and only then).

        A ``downstream``-lagged view (and its lazy ancestors) refreshes
        first when a record is pending anywhere upstream of it -- that
        is what the lag means; views on a numeric lag serve their
        current state and let ``staleness_s`` say how old it is.  For a
        grouped view, *key* selects one group (unknown keys read as the
        empty group) and ``key=None`` returns every group's value as a
        dict; an ungrouped view refuses a *key*, and any view a *key*
        that is not a str, int, float, bool or None (``ValueError``).

        Cost: a fresh view -- nothing pending on any edge of its
        ancestry -- is one pass over those edges plus one tree lookup
        per group read; the clock is not consulted.  A NaN *t*, and
        any argument the view refuses, is refused (``ValueError``) before
        anything refreshes.
        """
        if t != t:
            raise ValueError("instant must not be NaN")
        with self._lock:
            view = self.view(name)
            # An instantaneous read with no key and no offset passes every
            # check: the hot path skips the call.
            if key is not None or w is not None or view.window is ANY_WINDOW:
                view._check_read(key, w)
            oldest = self._oldest_unreflected(view)
            if oldest is not None and view.lag is DOWNSTREAM and not view.quarantined:
                now = self._now() if now is None else now
                self._refresh_names(view.lazy_closure, now)
                oldest = self._oldest_unreflected(view)
            if view.key_field is not None and key is None:
                value: Any = view.values_at(t, w)
            else:
                value = view.value_at(t, key, w)
            return ViewReading(
                value=value,
                as_of_watermark=dict(view.watermarks),
                staleness_s=self._age(oldest, now),
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
        if t != t:
            raise ValueError("instant must not be NaN")
        with self._lock:
            now = self._now()
            for name in names:
                self.view(name)
            if pin:
                self._refresh_names(self._closure(names), now)
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
                    "window": "any" if view.window is ANY_WINDOW else view.window,
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
    def save(self) -> str:
        """Checkpoint to ``<directory>/dynamic.json``; see :func:`checkpoint.save`."""
        return checkpoint.save(self)

    def load(self) -> None:
        """Restore from ``<directory>/dynamic.json``; see :func:`checkpoint.load`."""
        checkpoint.load(self)

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
