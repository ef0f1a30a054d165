"""Time-partitioned SB-tree shards (the scale-out layer).

Section 2 of the paper describes the [MLI00] bucket algorithm, which
"works by partitioning the time line into disjoint intervals" and notes
the approach "is complementary to ours and can be used to parallelize
them".  :mod:`repro.parallel` exploits that for one-shot builds; this
module applies the same time decomposition to the *maintained* index:

* :class:`ShardRouter` partitions the time line at fixed finite
  boundaries into ``k`` half-open shard ranges covering ``(-inf, inf)``
  (the outermost ranges are unbounded, so no fact can miss).
* :class:`ShardedTree` keeps one :class:`~repro.concurrent.ConcurrentTree`
  per shard range.  A fact ``[s, e)`` is *split at shard boundaries*
  and each piece goes to the shard whose range covers it -- exactly the
  bucket decomposition, except spanning facts are split instead of
  parked in a meta array, so there is no hot meta shard and writers
  block only the shards their time range touches.  Splitting preserves
  every *instantaneous* aggregate: the value at instant ``t`` depends
  only on the facts containing ``t``, and each piece contains exactly
  the instants its source fact did within that shard range.

Queries fan out to the shards their window overlaps and merge with the
same step-function concatenation the bucket algorithm uses (per-shard
results are disjoint and adjacent, so the merge concatenates the shards'
flat ``(edges, values)`` step functions).  Cumulative window lookups are served for MIN/MAX through
the paper's own range-scan route (Section 4: cumulative MIN/MAX at
``t`` equals the extremum of the instantaneous aggregate over the
closed window ``[t - w, t]``).  For SUM/COUNT/AVG a cumulative window
aggregate is *not* derivable from the sharded instantaneous index
(splitting would double-count a spanning fact; the paper's Figure 20
makes the general point), so :meth:`ShardedTree.window_lookup` raises
:class:`WindowUnsupportedError` for invertible kinds -- callers get a
structured refusal, never a wrong number.

Concurrency contract: each shard is individually linearizable (its
:class:`~repro.concurrent.ConcurrentTree` lock).  A multi-shard
operation (spanning insert, fan-out query) is *not* atomic across
shards: a concurrent reader may observe a spanning insert applied to a
prefix of its shards.  The service layer (:mod:`repro.service`)
restores per-request ordering by acknowledging group-committed writes
only after every shard applied them.

On disk, :meth:`ShardedTree.open` is the one layout: a directory of
page files ``shard-<i>.sbt``, each stamped with the shard
boundaries it was created for.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .concurrent import ConcurrentTree
from .core.intervals import Interval, NEG_INF, POS_INF, Time, is_finite
from .core.results import ConstantIntervalTable, trim_initial
from .core.sbtree import IntervalLike, SBTree, as_interval
from .core.values import AggregateSpec, spec_for
from .obs import stores_of, trace
from .storage import PagedNodeStore

__all__ = [
    "LAYOUT_META_KEY",
    "ShardRouter",
    "ShardedTree",
    "ShardingError",
    "WindowUnsupportedError",
    "WouldBlock",
    "even_boundaries",
    "shard_path",
]

#: Header-metadata key holding the boundaries (a JSON list) a shard page
#: file was created for by :meth:`ShardedTree.open`.
LAYOUT_META_KEY = "sharding.boundaries"


class ShardingError(ValueError):
    """Invalid sharding configuration or routing request."""


class WindowUnsupportedError(ShardingError):
    """Cumulative window lookups are MIN/MAX-only on a sharded tree."""


class WouldBlock(Exception):
    """``lookup(t, wait=False)`` declined: answering now could block the
    caller on a writer or make it write a page."""


def even_boundaries(lo: Time, hi: Time, num_shards: int) -> List[Time]:
    """Evenly spaced internal boundaries for *num_shards* over ``[lo, hi)``.

    Integer endpoints stay integers (the same endpoint-type fidelity
    rule as :func:`repro.parallel._edges`): true division would leak
    float cut points into an int-valued timeline.
    """
    if num_shards < 1:
        raise ShardingError("need at least one shard")
    if not (is_finite(lo) and is_finite(hi) and lo < hi):
        raise ShardingError(f"need a finite non-empty span, got [{lo}, {hi})")
    if isinstance(lo, int) and isinstance(hi, int):
        span = hi - lo
        cuts = [lo + (span * i) // num_shards for i in range(1, num_shards)]
    else:
        width = (hi - lo) / num_shards
        cuts = [lo + i * width for i in range(1, num_shards)]
    # Degenerate spans (span < num_shards in the int domain) can repeat
    # a cut; deduplicate so every shard range is non-empty.
    return sorted(set(cuts))


def shard_path(directory: str, index: int) -> str:
    """The page file of shard *index* under *directory*."""
    return os.path.join(directory, f"shard-{index}.sbt")


def _unwritten(store: Any) -> bool:
    """Whether *store* is durable and its next commit has something to
    write (``store.dirty``, a counter read on every loop lookup; a
    durable store that cannot say counts as dirty).  In-memory stores
    never do."""
    return getattr(store, "commit", None) is not None and getattr(
        store, "dirty", True
    )


class ShardRouter:
    """Maps instants and intervals onto time-range shards.

    ``boundaries`` are the *internal* cut points: ``k - 1`` sorted,
    distinct, finite instants produce ``k`` shard ranges

    ``(-inf, b0), [b0, b1), ..., [b_{k-2}, +inf)``

    which cover the whole time line.  An instant exactly at a boundary
    belongs to the shard *starting* there, matching the half-open
    ``[start, end)`` convention everywhere else in the package.
    """

    __slots__ = ("boundaries",)

    def __init__(self, boundaries: Sequence[Time]) -> None:
        cuts = list(boundaries)
        if cuts != sorted(cuts) or len(set(cuts)) != len(cuts):
            raise ShardingError("boundaries must be sorted and distinct")
        if any(not is_finite(b) for b in cuts):
            raise ShardingError("boundaries must be finite instants")
        self.boundaries: Tuple[Time, ...] = tuple(cuts)

    @property
    def num_shards(self) -> int:
        return len(self.boundaries) + 1

    def shard_of(self, t: Time) -> int:
        """Index of the shard whose range contains instant *t*."""
        return bisect.bisect_right(self.boundaries, t)

    def range_of(self, index: int) -> Interval:
        """The half-open time range served by shard *index*."""
        if not 0 <= index < self.num_shards:
            raise ShardingError(f"no shard {index} (have {self.num_shards})")
        lo = NEG_INF if index == 0 else self.boundaries[index - 1]
        hi = POS_INF if index == len(self.boundaries) else self.boundaries[index]
        return Interval(lo, hi)

    def overlapping(self, interval: IntervalLike) -> range:
        """Indices of every shard the interval overlaps, in time order."""
        interval = as_interval(interval)
        first = self.shard_of(interval.start)
        # The last shard touched is the one containing the last covered
        # instant; with half-open intervals an end exactly at a boundary
        # does *not* reach the shard starting there.
        last = bisect.bisect_left(self.boundaries, interval.end)
        return range(first, last + 1)

    def split(self, interval: IntervalLike) -> Iterator[Tuple[int, Interval]]:
        """Decompose an interval into per-shard pieces.

        Yields ``(shard_index, piece)`` with the pieces disjoint,
        adjacent, and exactly covering the input -- the bucket
        decomposition of [MLI00] applied to one fact.  A fact inside one
        shard (almost every fact of a time-ordered stream) is its own
        piece: the interval itself is yielded, nothing is built.
        """
        interval = as_interval(interval)
        cuts = self.boundaries
        first = bisect.bisect_right(cuts, interval.start)
        last = bisect.bisect_left(cuts, interval.end, first)
        if first == last:
            yield first, interval
            return
        yield first, Interval(interval.start, cuts[first])
        for index in range(first + 1, last):
            yield index, Interval(cuts[index - 1], cuts[index])
        yield last, Interval(cuts[last - 1], interval.end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardRouter {self.num_shards} shards @ {list(self.boundaries)}>"


def _router(
    boundaries: Optional[Sequence[Time]],
    num_shards: Optional[int],
    span: Optional[Tuple[Time, Time]],
) -> ShardRouter:
    if boundaries is None:
        if num_shards is None or span is None:
            raise ShardingError("pass either boundaries or num_shards + span")
        boundaries = even_boundaries(span[0], span[1], num_shards)
    return ShardRouter(boundaries)


class ShardedTree:
    """A time-partitioned temporal aggregate index.

    Parameters
    ----------
    kind:
        Aggregate kind (name, :class:`AggregateKind`, or spec).
    boundaries:
        Internal shard cut points (see :class:`ShardRouter`).  Mutually
        exclusive with ``num_shards``/``span``.
    num_shards, span:
        Convenience: evenly partition ``span = (lo, hi)`` into
        ``num_shards`` ranges via :func:`even_boundaries`.
    stores:
        Optional per-shard node stores (one per shard, e.g.
        :class:`~repro.storage.PagedNodeStore` instances); defaults to
        fresh in-memory stores.  :meth:`open` builds the page-file
        stores the service requires.
    read_timeout, write_timeout:
        Per-shard lock timeouts in seconds (see
        :class:`~repro.concurrent.ConcurrentTree`).
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector`; consulted at the
        ``shard_apply`` crash point (and ``shard_apply:<i>`` per shard)
        before a batch touches a shard, so tests can inject slow or
        failed applies without corrupting tree state.
    """

    def __init__(
        self,
        kind,
        boundaries: Optional[Sequence[Time]] = None,
        *,
        num_shards: Optional[int] = None,
        span: Optional[Tuple[Time, Time]] = None,
        stores: Optional[Sequence[Any]] = None,
        branching: int = 32,
        leaf_capacity: Optional[int] = None,
        read_timeout: Optional[float] = None,
        write_timeout: Optional[float] = None,
        fault_injector: Optional[Any] = None,
    ) -> None:
        self.spec: AggregateSpec = spec_for(kind)
        self.router = _router(boundaries, num_shards, span)
        if stores is not None and len(stores) != self.router.num_shards:
            raise ShardingError(
                f"{self.router.num_shards} shards need {self.router.num_shards}"
                f" stores, got {len(stores)}"
            )
        #: Whether a store already held a tree (a restart over page files).
        self.reopened = any(store.get_root() is not None for store in stores or ())
        self.fault_injector = fault_injector
        self.shards: List[ConcurrentTree] = []
        for i in range(self.router.num_shards):
            store = stores[i] if stores is not None else None
            tree = SBTree(
                self.spec,
                store,
                branching=branching,
                leaf_capacity=leaf_capacity,
            )
            self.shards.append(
                ConcurrentTree(
                    tree,
                    read_timeout=read_timeout,
                    write_timeout=write_timeout,
                )
            )
        self._counts_lock = threading.Lock()
        self.facts_applied = 0  # whole facts accepted
        self.pieces_applied = [0] * self.router.num_shards

    @classmethod
    def open(
        cls,
        directory: str,
        kind,
        boundaries: Optional[Sequence[Time]] = None,
        *,
        num_shards: Optional[int] = None,
        span: Optional[Tuple[Time, Time]] = None,
        buffer_capacity: int = 64,
        **tree_options: Any,
    ) -> "ShardedTree":
        """Open (or create) one page file per shard under
        *directory*, each behind a pool of *buffer_capacity* frames:
        :func:`shard_path` names them.

        A file created here records the boundaries in its header metadata
        (:data:`LAYOUT_META_KEY`); reopening it under other boundaries
        raises :class:`ShardingError` naming both, since the pieces it
        holds belong to another shard's time range.
        """
        cuts = list(_router(boundaries, num_shards, span).boundaries)
        os.makedirs(directory, exist_ok=True)
        stores: List[PagedNodeStore] = []
        try:
            for index in range(len(cuts) + 1):
                path = shard_path(directory, index)
                store = PagedNodeStore(path, kind, buffer_capacity=buffer_capacity)
                stores.append(store)
                stored = store.get_meta(LAYOUT_META_KEY)
                if stored is None:
                    store.set_meta(LAYOUT_META_KEY, json.dumps(cuts))
                elif json.loads(stored) != cuts:
                    raise ShardingError(
                        f"{path} was created for shard boundaries {stored}, "
                        f"not {json.dumps(cuts)}"
                    )
            return cls(kind, cuts, stores=stores, **tree_options)
        except BaseException:
            for store in stores:
                store.close()
            raise

    # ------------------------------------------------------------------
    @property
    def kind(self):
        return self.spec.kind

    @property
    def num_shards(self) -> int:
        return self.router.num_shards

    def _crash_point(self, shard: Optional[int] = None) -> None:
        injector = self.fault_injector
        if injector is None:
            return
        injector.crash_point("shard_apply")
        if shard is not None:
            injector.crash_point(f"shard_apply:{shard}")

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def insert(self, value: Any, interval: IntervalLike) -> None:
        """Insert one fact, splitting it at shard boundaries."""
        self.batch_insert([(value, interval)])

    def delete(self, value: Any, interval: IntervalLike) -> None:
        """Delete one fact (invertible kinds only), piece by piece.

        The split is deterministic, so deleting an interval previously
        inserted removes exactly the pieces the insert created.
        """
        by_shard = self._group([(value, interval)])
        for index, pieces in by_shard.items():
            shard = self.shards[index]
            self._crash_point(index)
            with shard.lock.write_locked(shard.write_timeout):
                for piece_value, piece in pieces:
                    shard.tree.delete(piece_value, piece)
        with self._counts_lock:
            self.facts_applied -= 1
            for index, pieces in by_shard.items():
                self.pieces_applied[index] -= len(pieces)

    def batch_insert(self, facts: Iterable[Tuple[Any, IntervalLike]]) -> int:
        """Insert many facts with one lock acquisition, and one tree pass,
        per touched shard.

        This is the group-commit apply path of the service layer: pieces
        are grouped per shard first, then each shard is locked once and
        its tree takes all its pieces as one
        :meth:`~repro.core.sbtree.SBTree.insert_batch`.  Returns the
        number of whole facts applied.

        Atomicity is per shard, not per call.  A batch a shard's tree
        rejects (an empty interval, a value its page codec cannot store)
        leaves *that* tree untouched; but shards are applied in index
        order, so a ``shard_apply:<i>`` fault, a
        :class:`~repro.concurrent.LockTimeout` or
        a rejection on shard *i* leaves the lower-numbered shards
        applied.  Making the call atomic across shards needs versioned
        roots (ROADMAP item 2A).
        """
        facts = list(facts)
        by_shard = self._group(facts)
        for index in sorted(by_shard):
            pieces = by_shard[index]
            shard = self.shards[index]
            self._crash_point(index)
            # One shard.apply span per touched shard (covers the lock
            # wait), with the tree's batched insert as its single tree-op
            # child -- the per-shard leaf the trace tree promises.
            with trace.span(
                "shard.apply", attrs={"shard": index, "pieces": len(pieces)}
            ):
                with shard.lock.write_locked(shard.write_timeout):
                    with trace.span(
                        "tree.insert",
                        stores_of(shard.tree),
                        attrs={"shard": index, "pieces": len(pieces)},
                    ) as span:
                        stats = shard.tree.store.stats
                        written = stats.writes
                        shard.tree.insert_batch(pieces)
                        span.set("nodes_written", stats.writes - written)
        with self._counts_lock:
            self.facts_applied += len(facts)
            for index, pieces in by_shard.items():
                self.pieces_applied[index] += len(pieces)
        return len(facts)

    def _group(
        self, facts: Iterable[Tuple[Any, IntervalLike]]
    ) -> Dict[int, List[Tuple[Any, Interval]]]:
        by_shard: Dict[int, List[Tuple[Any, Interval]]] = {}
        for value, interval in facts:
            for index, piece in self.router.split(interval):
                by_shard.setdefault(index, []).append((value, piece))
        return by_shard

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def lookup(self, t: Time, *, wait: bool = True) -> Any:
        """Internal aggregate value at instant *t* (one shard touched).

        ``wait=False`` is the read for a caller that must neither block
        nor write (the service's event loop): it raises
        :class:`WouldBlock` unless the shard's read lock is free *right
        now* and its store holds nothing unwritten.  The O(h) descent
        is one :meth:`~repro.core.nodestore.NodeStore.descend` call
        under one hold of the pool's mutex; with every frame clean, a
        buffer miss on it evicts without a write-back: a level the pool
        holds is a pointer chase to its cached node, and the worst a
        level costs is a ``pread``, a checksum and a bisect.  A NaN instant is refused
        (:class:`ShardingError`) before any shard is touched.
        """
        if t != t:
            raise ShardingError("instant must not be NaN")
        index = self.router.shard_of(t)
        if wait:
            with trace.span("shard.lookup", attrs={"shard": index}):
                return self.shards[index].lookup(t)
        shard = self.shards[index]
        if not shard.lock.acquire_read(0):
            raise WouldBlock(f"shard {index} is being written")
        try:
            # Stable under the read lock: only a writer dirties a store.
            if _unwritten(shard.tree.store):
                raise WouldBlock(f"shard {index} holds unwritten pages")
            return shard.tree.lookup(t)
        finally:
            shard.lock.release_read()

    def lookup_final(self, t: Time) -> Any:
        """User-facing aggregate value at instant *t*."""
        return self.spec.finalize(self.lookup(t))

    def steps(self, interval: IntervalLike) -> Tuple[List[Time], List[Any]]:
        """Fan out to the overlapped shards and concatenate their flat
        step functions (:meth:`~repro.core.sbtree.SBTree.steps`).

        Each shard returns the step function over its clip of the query
        window; the clips are disjoint and adjacent, so the merged
        result is their concatenation (the bucket algorithm's merge,
        with an empty meta array because spanning facts were split).
        A shard's first edge is its clip's start: the window start for
        the first shard, the cut -- already the last edge so far -- for
        every later one, so it is dropped.
        """
        interval = as_interval(interval)
        edges: List[Time] = [interval.start]
        values: List[Any] = []
        for index in self.router.overlapping(interval):
            clip = self.range_of(index).intersection(interval)
            with trace.span("shard.range_query", attrs={"shard": index}):
                shard_edges, shard_values = self.shards[index].steps(clip)
            edges += shard_edges[1:]
            values += shard_values
        return edges, values

    def range_query(self, interval: IntervalLike) -> ConstantIntervalTable:
        """:meth:`steps` as ``(value, Interval)`` rows."""
        return ConstantIntervalTable.from_steps(*self.steps(interval))

    def range_of(self, index: int) -> Interval:
        return self.router.range_of(index)

    def to_table(
        self, *, coalesced: bool = True, drop_initial: bool = True
    ) -> ConstantIntervalTable:
        """Reconstruct the full aggregate over ``(-inf, +inf)``.

        Matches :meth:`repro.core.sbtree.SBTree.to_table` row for row on
        the same fact set.
        """
        table = self.range_query(Interval(NEG_INF, POS_INF))
        if coalesced:
            table = table.coalesce(self.spec.eq)
        if drop_initial:
            table = trim_initial(table, self.spec)
        return table

    def window_lookup(self, t: Time, w: Time) -> Any:
        """Cumulative MIN/MAX over the closed window ``[t - w, t]``.

        Uses the paper's range-scan route (Section 4): the cumulative
        extremum equals the extremum of the instantaneous aggregate over
        the window, which splitting preserves.  Invertible kinds raise
        :class:`WindowUnsupportedError` -- their cumulative aggregate
        cannot be recovered from split pieces (a spanning fact would be
        double-counted).
        """
        if self.spec.invertible:
            raise WindowUnsupportedError(
                f"cumulative window lookups on a sharded {self.spec.kind} "
                "index are unsupported (use a dual-tree per shard range "
                "or an unsharded DualTreeAggregate)"
            )
        if not w >= 0:
            raise ShardingError("window offset must be non-negative")
        result = self.lookup(t)
        if w > 0:
            for value in self.steps(Interval(t - w, t))[1]:
                result = self.spec.acc(result, value)
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Structural and routing statistics, one entry per shard."""
        shards = []
        for index, shard in enumerate(self.shards):
            shards.append(
                {
                    "index": index,
                    "range": [self.range_of(index).start, self.range_of(index).end],
                    "height": shard.height,
                    "nodes": shard.tree.node_count(),
                    "pieces": self.pieces_applied[index],
                }
            )
        return {
            "kind": self.spec.kind.value,
            "num_shards": self.num_shards,
            "boundaries": list(self.router.boundaries),
            "facts": self.facts_applied,
            "shards": shards,
        }

    def check(self) -> None:
        """Run the structural invariant audit on every shard."""
        from .core.validate import check_tree

        for shard in self.shards:
            check_tree(shard.tree)

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def commit(self, meta: Optional[Dict[str, str]] = None) -> int:
        """Commit the shard stores that have something to commit; returns
        how many were committed.

        This is the service layer's group-commit durability point: the
        server calls it after a write batch applied, *before* the
        batch's waiters are acknowledged, so an acked write is durable.
        Only a store the batch dirtied (``store.dirty``; a store without
        that attribute counts as dirty) is locked and committed -- a
        shard nothing touched costs no lock, no write and no fsync, and a
        touched one a single WAL fsync (``store.dirty`` is False again
        as soon as a commit is in the WAL, checkpointed or not).
        ``meta`` entries are written into the header metadata of exactly
        those stores (of the first durable store if none is dirty, so
        metadata always lands somewhere), inside the same commit: the
        header page is the commit's last frame, so metadata (the dedup
        window, the replication watermark) and tree data are atomic per
        store.
        Because a store that sat out a commit keeps an older copy,
        readers of :meth:`get_meta` merge what the stores return; both
        service keys merge exactly (dedup windows: union of entries, max
        floor per client; watermark: max).  Stores without a ``commit``
        method (in-memory shards) are skipped.

        Caveat: commits are per store -- one WAL and one fsync each.  A
        crash *between* two shard commits can leave a spanning fact
        applied in a prefix of its shards; single-store deployments
        (what ``repro-rescheck`` verifies) have no such window.
        """
        targets = [
            shard for shard in self.shards if _unwritten(shard.tree.store)
        ]
        if meta and not targets:
            targets = [
                shard for shard in self.shards
                if getattr(shard.tree.store, "commit", None) is not None
            ][:1]
        for shard in targets:
            store = shard.tree.store
            with shard.lock.write_locked(shard.write_timeout):
                if meta:
                    for key, value in meta.items():
                        store.set_meta(key, value)
                store.commit()
        return len(targets)

    def get_meta(self, key: str) -> List[str]:
        """Collect a metadata value from every shard store that has it."""
        values: List[str] = []
        for shard in self.shards:
            get = getattr(shard.tree.store, "get_meta", None)
            if get is None:
                continue
            value = get(key)
            if value is not None:
                values.append(value)
        return values

    def close(self) -> None:
        """Close every shard's node store (no-op for in-memory stores)."""
        for shard in self.shards:
            close = getattr(shard.tree.store, "close", None)
            if close is not None:
                close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedTree {self.spec.kind.value} shards={self.num_shards} "
            f"facts={self.facts_applied}>"
        )
