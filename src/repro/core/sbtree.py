"""The SB-tree (Section 3 of the paper).

An SB-tree indexes a *temporal aggregate* rather than a base table.  It
combines:

* **segment-tree value placement** -- the effect of a base tuple whose
  valid interval fully covers a node interval is recorded *at that
  interval* and never pushed further down, so tuples with long valid
  intervals are absorbed in O(h) node touches; and
* **B-tree balancing** -- nodes are at least half full, splits propagate
  upward, and underfull nodes borrow from or merge with siblings.

The aggregate value at an instant is the ``acc`` of the values stored
along the root-to-leaf search path (Section 3.1).  Updates are expressed
as an *effect* pair ``<v, I>`` applied along at most two root-to-leaf
paths (Section 3.3); deletions are insertions of a negated effect
(Section 3.4, SUM/COUNT/AVG only).  Compaction merges adjacent
equal-valued leaf intervals around the endpoints of each update
(``imerge``/``nmerge``, Section 3.6); MIN/MAX trees are compacted in
batch instead (``bmerge``).

All node access goes through a :class:`~repro.core.nodestore.NodeStore`, so
the same code runs in memory or on disk pages.
"""

from __future__ import annotations

import bisect
import functools
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..obs import observed
from .intervals import Interval, NEG_INF, POS_INF, Time
from .nodes import Node, NodeId
from .results import ConstantIntervalTable, trim_initial
from .nodestore import MemoryNodeStore, NodeStore
from .values import AggregateKind, AggregateSpec, spec_for

__all__ = ["SBTree"]

IntervalLike = Union[Interval, Tuple[Time, Time]]


def as_interval(interval: IntervalLike) -> Interval:
    """Accept an :class:`Interval` or a ``(start, end)`` pair."""
    if isinstance(interval, Interval):
        return interval
    start, end = interval
    return Interval(start, end)


def _reverting(method):
    """Make a mutating method leave no unwritten node changes on failure.

    ``_insert`` adjusts interior values before it descends and writes the
    node afterwards; over a store that hands out live nodes, a failure in
    between (a value the page codec rejects, an I/O error) would leave
    those adjustments visible to later reads.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        try:
            return method(self, *args, **kwargs)
        except BaseException:
            self.store.revert_unwritten()
            raise

    return wrapper


class _Batch:
    """What one batched insert has done so far, for its single write
    (or its undo): the nodes it changed, each once and children before
    parents; the nodes it allocated; and the effect endpoints that may
    now separate equal values (SUM/COUNT/AVG)."""

    __slots__ = ("touched", "allocated", "merge_at")

    def __init__(self) -> None:
        self.touched: List[Node] = []
        self.allocated: List[Node] = []
        self.merge_at: Set[Time] = set()


class SBTree:
    """A balanced, store-backed index over one temporal aggregate.

    Parameters
    ----------
    kind:
        Aggregate kind (``AggregateKind`` value, spec, or name string).
        May be omitted when reopening a store that already holds a tree.
    store:
        A :class:`NodeStore`; defaults to a fresh in-memory store.
    branching:
        Maximum branching factor ``b`` (intervals per interior node).
    leaf_capacity:
        Maximum leaf capacity ``l``; defaults to ``branching``.  The
        paper notes ``l`` may exceed ``b`` because leaves carry no child
        pointers.

    Both capacities must be at least 4 so that every node retains at
    least two intervals, which the compaction procedures rely on.
    """

    def __init__(
        self,
        kind=None,
        store: Optional[NodeStore] = None,
        *,
        branching: int = 32,
        leaf_capacity: Optional[int] = None,
    ) -> None:
        self.store = store if store is not None else MemoryNodeStore()
        existing_root = self.store.get_root()
        if existing_root is not None:
            stored_kind = self.store.get_meta("kind")
            if stored_kind is None:
                raise ValueError("store has a root but no aggregate kind metadata")
            if kind is not None and spec_for(kind).kind.value != stored_kind:
                raise ValueError(
                    f"store holds a {stored_kind} tree, not {spec_for(kind).kind}"
                )
            self.spec: AggregateSpec = spec_for(stored_kind)
            self.b = int(self.store.get_meta("branching"))
            self.l = int(self.store.get_meta("leaf_capacity"))
            self._root_id: NodeId = existing_root
            return
        if kind is None:
            raise ValueError("an aggregate kind is required for a new tree")
        self.spec = spec_for(kind)
        self.b = int(branching)
        self.l = int(leaf_capacity) if leaf_capacity is not None else self.b
        if self.b < 4 or self.l < 4:
            raise ValueError("branching factor and leaf capacity must be >= 4")
        self._check_store_limits()
        root = self.store.allocate(is_leaf=True, with_uvalues=False)
        root.values = [self.spec.v0]
        self.store.write(root)
        self.store.set_root(root.node_id)
        self.store.set_meta("kind", self.spec.kind.value)
        self.store.set_meta("branching", str(self.b))
        self.store.set_meta("leaf_capacity", str(self.l))
        self._root_id = root.node_id

    def _check_store_limits(self) -> None:
        """Reject b/l that cannot fit the store's pages (if it has pages)."""
        max_b = getattr(self.store, "default_branching", None)
        if self._root_has_u():
            max_b = getattr(self.store, "default_branching_annotated", max_b)
        max_l = getattr(self.store, "default_leaf_capacity", None)
        if max_b is not None and self.b > max_b:
            raise ValueError(
                f"branching factor {self.b} exceeds the page limit {max_b}"
            )
        if max_l is not None and self.l > max_l:
            raise ValueError(
                f"leaf capacity {self.l} exceeds the page limit {max_l}"
            )

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    @property
    def kind(self) -> AggregateKind:
        return self.spec.kind

    @property
    def min_leaf(self) -> int:
        return (self.l + 1) // 2

    @property
    def min_interior(self) -> int:
        return (self.b + 1) // 2

    def _capacity(self, node: Node) -> int:
        return self.l if node.is_leaf else self.b

    def _minimum(self, node: Node) -> int:
        return self.min_leaf if node.is_leaf else self.min_interior

    def _overflows(self, node: Node) -> bool:
        return node.interval_count > self._capacity(node)

    def _read(self, node_id: NodeId) -> Node:
        return self.store.read(node_id)

    def _root(self) -> Node:
        return self._read(self._root_id)

    @property
    def height(self) -> int:
        """Number of levels (1 for a lone root leaf)."""
        h, node = 1, self._root()
        while not node.is_leaf:
            node = self._read(node.children[0])
            h += 1
        return h

    def node_count(self) -> int:
        """Number of live nodes in the tree's store."""
        return self.store.node_count()

    # Whether updates are followed by endpoint compaction.  Per
    # Section 3.6 this holds for SUM/COUNT/AVG; MIN/MAX trees are
    # compacted in batch via :meth:`compact` instead.
    @property
    def _auto_compact(self) -> bool:
        return self.spec.invertible

    # ------------------------------------------------------------------
    # Lookup (Section 3.1)
    # ------------------------------------------------------------------
    @observed("lookup")
    def lookup(self, t: Time) -> Any:
        """Return the internal aggregate value at instant *t* in O(h):
        one :meth:`NodeStore.probe` per level, root to leaf."""
        acc, probe = self.spec.acc, self.store.probe
        result, node_id = self.spec.v0, self._root_id
        while node_id is not None:
            value, node_id = probe(node_id, t)
            result = acc(result, value)
        return result

    def lookup_final(self, t: Time) -> Any:
        """Return the user-facing aggregate value at instant *t*."""
        return self.spec.finalize(self.lookup(t))

    # ------------------------------------------------------------------
    # Range queries and reconstruction (Section 3.2)
    # ------------------------------------------------------------------
    @observed("range_query")
    def steps(self, interval: IntervalLike) -> Tuple[List[Time], List[Any]]:
        """Return the aggregate over *interval* as a flat step function
        ``(edges, values)``: row k is ``values[k]`` over ``[edges[k],
        edges[k + 1])``, uncoalesced, one row per leaf interval the
        window meets, clipped to it.

        A depth-first traversal of the leaves intersecting *interval*,
        accumulating values along each root-to-leaf path: O(h + r) where
        r is the number of leaves touched.  Every other read of a range
        (:meth:`range_query`, :meth:`to_table`, the sharded and served
        ones) is built on this walk.
        """
        interval = as_interval(interval)
        edges: List[Time] = [interval.start]
        values: List[Any] = []
        self._steps(
            self._root(), interval.start, interval.end, self.spec.v0, edges, values
        )
        edges.append(interval.end)
        return edges, values

    def _steps(
        self,
        node: Node,
        start: Time,
        end: Time,
        carried: Any,
        edges: List[Time],
        values: List[Any],
    ) -> None:
        # Each stored instant sits at exactly one node, so the stored
        # instants inside (start, end) -- leaf and separator alike, in
        # time order -- are exactly the inner edges of the result.
        acc = self.spec.acc
        times = node.times
        # Intervals i..m meet the window: the one holding start, through
        # the last one starting before end.
        i = bisect.bisect_right(times, start)
        m = bisect.bisect_left(times, end, i)
        if node.is_leaf:
            edges.extend(times[i:m])
            values.extend([acc(carried, own) for own in node.values[i:m + 1]])
            return
        own, children, read = node.values, node.children, self.store.read
        for k in range(i, m + 1):
            if k > i:
                edges.append(times[k - 1])
            self._steps(
                read(children[k]), start, end, acc(carried, own[k]), edges, values
            )

    @observed("range_query")
    def range_query(self, interval: IntervalLike) -> ConstantIntervalTable:
        """Return the aggregate's constant intervals clipped to *interval*:
        :meth:`steps` as ``(value, Interval)`` rows."""
        return ConstantIntervalTable.from_steps(*self.steps(interval))

    def leaf_pieces(self) -> Iterator[Tuple[Any, Time, Time]]:
        """Yield ``(value, start, end)`` for every leaf interval in time
        order, each value accumulated along its root-to-leaf path: the
        uncoalesced full reconstruction (:meth:`steps` over
        ``(-inf, inf)``), no table objects."""
        edges, values = self.steps((NEG_INF, POS_INF))
        return zip(values, edges, edges[1:])

    @observed("range_query")
    def to_table(
        self, *, coalesced: bool = True, drop_initial: bool = True
    ) -> ConstantIntervalTable:
        """Reconstruct the full aggregate over ``(-inf, +inf)``.

        With ``drop_initial`` the "harmless" leading/trailing ``v0`` rows
        of Section 3.2 are stripped, matching the paper's result tables.
        """
        table = ConstantIntervalTable.from_steps(*self.steps((NEG_INF, POS_INF)))
        if coalesced:
            table = table.coalesce(self.spec.eq)
        if drop_initial:
            table = trim_initial(table, self.spec)
        return table

    # ------------------------------------------------------------------
    # Insertion and deletion (Sections 3.3 -- 3.5)
    # ------------------------------------------------------------------
    @observed("insert")
    def insert(self, value: Any, interval: IntervalLike) -> None:
        """Record the insertion of a base tuple with *value* valid over *interval*."""
        self.insert_effect(self.spec.effect(value), interval)

    @observed("delete")
    def delete(self, value: Any, interval: IntervalLike) -> None:
        """Record the deletion of a base tuple (SUM/COUNT/AVG only)."""
        self.insert_effect(self.spec.negated_effect(value), interval)

    @observed("insert")
    @_reverting
    def insert_effect(self, effect: Any, interval: IntervalLike) -> None:
        """Apply a raw effect pair ``<effect, interval>`` (Section 3.3).

        One descent along the at most two paths bounding *interval*
        (:meth:`_insert`), which writes only the nodes it changed and,
        on SUM/COUNT/AVG trees, notes which endpoints may now separate
        equal values (:meth:`_merge_candidates`).  ``imerge`` then runs
        at those endpoints only, start before end.  An endpoint the
        descent found between unequal values stays so while the other
        endpoint's ``nmerge`` reshapes the tree, since every such step
        preserves each instant's lookup value.
        """
        interval = as_interval(interval)
        root = self._root()
        merge_at: Optional[Set[Time]] = set() if self._auto_compact else None
        self._insert(root, NEG_INF, POS_INF, effect, interval, merge_at)
        if self._overflows(root):
            self._grow_root(root)
        if merge_at:
            self._imerge_each(sorted(merge_at))

    def _insert(
        self,
        node: Node,
        lo: Time,
        hi: Time,
        v: Any,
        query: Interval,
        merge_at: Optional[Set[Time]] = None,
    ) -> None:
        """Apply effect *v* over *query* at and below *node* (span
        ``[lo, hi)``), and write *node* only if it changed: a value or
        u-value the effect moved, a leaf interval it cut, or a child
        that split.  Interior values are adjusted before the descent and
        the node is written after it, so a failure in between leaves an
        unwritten change for ``revert_unwritten``.  With a *merge_at*
        set, the endpoints that may now separate equal values are added
        to it (:meth:`_merge_candidates`)."""
        s, e = query.start, query.end
        if node.is_leaf:
            changed = self._apply_to_leaf(node, lo, hi, v, query)
            if merge_at is not None:
                self._merge_candidates(node, (s, e), merge_at)
            if changed:
                self.store.write(node)
            return
        if merge_at is not None:
            self._merge_candidates(node, (s, e), merge_at)
        acc, eq = self.spec.acc, self.spec.eq
        times, values, uvalues = node.times, node.values, node.uvalues
        changed = False
        # Intervals before the one holding s end at or before it and are
        # untouched (values and u-values alike): start there.
        i = bisect.bisect_right(times, s)
        while i < len(values):
            a = times[i - 1] if i else lo
            if a >= e:
                break
            b = times[i] if i < len(times) else hi
            if uvalues is not None:
                # MSB-tree: the interval overlaps the effect, so its
                # exact-extremum annotation absorbs v (Section 4.3).
                u = acc(v, uvalues[i])
                if not eq(u, uvalues[i]):
                    uvalues[i] = u
                    changed = True
            current = values[i]
            updated = acc(v, current)
            if eq(updated, current):
                # The effect cannot change anything at or below this
                # interval (MIN/MAX pruning; zero-effect for SUM).
                i += 1
                continue
            if s <= a and b <= e:
                # Segment-tree case: fully covered, record here and stop.
                values[i] = updated
                changed = True
                i += 1
                continue
            child = self._read(node.children[i])
            self._insert(child, a, b, v, query, merge_at)
            if self._overflows(child):
                self._split_child(node, i, child)
                changed = True
                i += 2
            else:
                i += 1
        if changed:
            self.store.write(node)

    def _merge_candidates(
        self, node: Node, endpoints: Iterable[Time], merge_at: Set[Time]
    ) -> None:
        """Add to *merge_at* each effect endpoint that *node* stores and
        that may now separate equal values (Section 3.6).

        Endpoints are the only boundaries whose two sides an effect can
        move by different amounts, and each stored instant lives at
        exactly one node.  In a leaf both neighbours are right here: the
        endpoint is a candidate only if they are now equal, so call this
        after the effects are applied.  In an interior node they are
        leaves of two subtrees, which ``imerge`` compares: an endpoint
        stored there is always a candidate, so call this before a child
        split adds separators the effects did not pass.
        """
        times, values = node.times, node.values
        eq = self.spec.eq if node.is_leaf else None
        for t in endpoints:
            k = bisect.bisect_left(times, t)
            if k < len(times) and times[k] == t and (
                eq is None or eq(values[k], values[k + 1])
            ):
                merge_at.add(t)

    def _apply_to_leaf(self, node: Node, lo: Time, hi: Time, v: Any, query: Interval) -> bool:
        """Cut the affected leaf intervals at the effect's endpoints, and
        return whether any value changed (if none did, the leaf is left
        as it was).

        An effect partially covering a leaf interval splits it into up to
        three pieces, adding at most two intervals to the leaf overall.
        Only the intervals ``[s, e)`` overlaps are looked at (two
        bisects) and spliced; the replacement is complete before the
        leaf is touched, so a value ``acc`` rejects leaves it as it was.
        """
        acc, eq = self.spec.acc, self.spec.eq
        s = max(query.start, lo)
        e = min(query.end, hi)
        times, values = node.times, node.values
        # Interval i spans [times[i-1], times[i]): `first` holds s, and
        # `last` is the final one starting before e.
        first = bisect.bisect_right(times, s)
        last = bisect.bisect_left(times, e, first)
        new_values: List[Any] = []
        new_times: List[Time] = []
        changed = False
        for i in range(first, last + 1):
            if i > first:
                new_times.append(times[i - 1])
            old = values[i]
            updated = acc(v, old)
            if eq(updated, old):
                new_values.append(old)
                continue
            changed = True
            if i == first and (times[i - 1] if i > 0 else lo) < s:
                new_values.append(old)
                new_times.append(s)
            new_values.append(updated)
            if i == last and e < (times[i] if i < len(times) else hi):
                new_times.append(e)
                new_values.append(old)
        if changed:
            values[first:last + 1] = new_values
            times[first:last] = new_times
        return changed

    # ------------------------------------------------------------------
    # Batched insertion: one descent per path, not per effect
    # ------------------------------------------------------------------
    def insert_batch(self, facts: Iterable[Tuple[Any, IntervalLike]]) -> None:
        """Record the insertion of many base tuples in one pass.

        Leaves the same aggregate as one :meth:`insert` per fact, in
        that order, and the same invariants; the tree's shape differs
        (fuller nodes, see :meth:`_cut`).  All or nothing per tree: a
        fact whose interval is empty, or a value the page codec cannot
        store, rejects the whole batch and leaves the tree as it was.
        """
        effect = self.spec.effect
        self._insert_batch([(effect(v), as_interval(iv)) for v, iv in facts])

    def insert_effects(self, effects: Iterable[Tuple[Any, IntervalLike]]) -> None:
        """:meth:`insert_batch` for raw ``<effect, interval>`` pairs."""
        self._insert_batch([(v, as_interval(iv)) for v, iv in effects])

    @observed("insert_batch", effects=len)
    def _insert_batch(self, items: List[Tuple[Any, Interval]]) -> None:
        """Apply *items* in one recursive pass, then write, then compact.

        Each node an effect reaches is read and visited once for the
        whole batch (:meth:`_batch_visit`).  Nothing is written while
        the pass runs: the nodes it changed are handed to the store
        together (``write_all`` encodes all of them before it installs
        one), and only then does the root pointer move.  Any failure up
        to that point frees the pages the batch allocated and reverts
        the unwritten mutations, so the tree is as before the call.

        Compaction (SUM/COUNT/AVG) runs last, over the written tree:
        the pass collected the effect endpoints that may now separate
        equal values by the rule a single insert uses
        (:meth:`_merge_candidates`), and each goes through the same
        ``imerge``.
        """
        if not items:
            return
        store = self.store
        batch = _Batch()
        try:
            top = self._root()
            spill = self._batch_visit(top, NEG_INF, POS_INF, items, batch)
            while spill:
                # The root was cut: stack a new root over the pieces,
                # and cut that too if the batch was large enough.
                below = [top] + [sibling for _, sibling in spill]
                top = store.allocate(
                    is_leaf=False,
                    with_uvalues=top.uvalues is not None or self._root_has_u(),
                )
                batch.allocated.append(top)
                top.times = [separator for separator, _ in spill]
                top.values = [self.spec.v0] * len(below)
                top.children = [node.node_id for node in below]
                if top.uvalues is not None:
                    top.uvalues = [self._subtree_u(node) for node in below]
                spill = self._settle(top, batch)
            store.write_all(batch.touched)
        except BaseException:
            try:
                for node in batch.allocated:
                    store.free(node.node_id)
            finally:
                store.revert_unwritten()
            raise
        if top.node_id != self._root_id:
            store.set_root(top.node_id)
            self._root_id = top.node_id
        if batch.merge_at:
            self._imerge_each(sorted(batch.merge_at))

    @_reverting
    def _imerge_each(self, boundaries: List[Time]) -> None:
        for t in boundaries:
            self._imerge_at(t)

    def _batch_visit(
        self,
        node: Node,
        lo: Time,
        hi: Time,
        items: List[Tuple[Any, Interval]],
        batch: "_Batch",
    ) -> List[Tuple[Time, Node]]:
        """Apply *items*, in order, at and below *node* (span ``[lo, hi)``).

        Per interval the rules are :meth:`_insert`'s: an interval the
        effect covers records it and stops (MSB ``u`` absorbed, MIN/MAX
        pruning kept); the at most two it partly covers hand the effect
        to that child's list, and each child with a list is visited
        once.  Returns what :meth:`_settle` returns: the right siblings
        *node* was cut into, for the caller to adopt.
        """
        compact = self._auto_compact
        if node.is_leaf:
            for v, query in items:
                self._apply_to_leaf(node, lo, hi, v, query)
            if compact:
                # Only an endpoint strictly inside the span can be here.
                inside = {
                    t
                    for _, query in items
                    for t in (query.start, query.end)
                    if lo < t < hi
                }
                self._merge_candidates(node, inside, batch.merge_at)
            return self._settle(node, batch)

        acc, eq = self.spec.acc, self.spec.eq
        times, values, uvalues = node.times, node.values, node.uvalues
        last = len(times)
        below: Dict[int, List[Tuple[Any, Interval]]] = {}
        changed = False
        # The endpoints found among the separators on the way, for the
        # candidate rule; before any child split adds separators.
        stored: List[Time] = []
        for item in items:
            v, query = item
            s, e = query.start, query.end
            i = bisect.bisect_right(times, s)
            a = times[i - 1] if i else lo
            if i and a == s:
                stored.append(s)
            while True:
                b = times[i] if i < last else hi
                if uvalues is not None:
                    uvalues[i] = acc(v, uvalues[i])
                    changed = True
                current = values[i]
                updated = acc(v, current)
                if not eq(updated, current):
                    if s <= a and b <= e:
                        values[i] = updated
                        changed = True
                    else:
                        below.setdefault(i, []).append(item)
                if b >= e or i == last:
                    if b == e and i < last:
                        stored.append(e)
                    break
                a = b
                i += 1
        if compact:
            self._merge_candidates(node, stored, batch.merge_at)

        # Right to left, so adopting a child's siblings shifts no index
        # still to be visited.
        children = node.children
        for i in sorted(below, reverse=True):
            a, b = node.bounds(i, lo, hi)
            child = self._read(children[i])
            spill = self._batch_visit(child, a, b, below[i], batch)
            if not spill:
                continue
            siblings = [sibling for _, sibling in spill]
            times[i:i] = [separator for separator, _ in spill]
            values[i + 1:i + 1] = [values[i]] * len(spill)
            children[i + 1:i + 1] = [sibling.node_id for sibling in siblings]
            if uvalues is not None:
                # msplit (Section 4.3), once per piece.
                uvalues[i:i + 1] = [
                    self._subtree_u(piece) for piece in (child, *siblings)
                ]
            changed = True
        if not changed:
            return []
        return self._settle(node, batch)

    def _settle(self, node: Node, batch: "_Batch") -> List[Tuple[Time, Node]]:
        """Queue *node* for the batch's write, cutting it first if it
        overflows; returns ``(separator, sibling)`` per piece cut off."""
        spill = self._cut(node, batch) if self._overflows(node) else []
        batch.touched.append(node)
        batch.touched.extend(sibling for _, sibling in spill)
        return spill

    def _cut(self, node: Node, batch: "_Batch") -> List[Tuple[Time, Node]]:
        """Cut a node that overflows by any amount into as many nodes as
        it needs, once: full nodes and a tail of at least the minimum,
        the packing :meth:`bulk_load` uses.  *node* keeps the leftmost
        piece.  A batch that appends at the right edge thus leaves full
        nodes behind it, where one split per overflow leaves half-full
        ones (sorted B-tree insertion)."""
        sizes = self._chunk(
            node.interval_count, self._capacity(node), self._minimum(node)
        )
        times, values = node.times, node.values
        children, uvalues = node.children, node.uvalues
        spill: List[Tuple[Time, Node]] = []
        position = keep = sizes[0]
        for size in sizes[1:]:
            sibling = self.store.allocate(
                is_leaf=node.is_leaf, with_uvalues=uvalues is not None
            )
            batch.allocated.append(sibling)
            end = position + size
            sibling.times = times[position:end - 1]
            sibling.values = values[position:end]
            if not node.is_leaf:
                sibling.children = children[position:end]
            if uvalues is not None:
                sibling.uvalues = uvalues[position:end]
            spill.append((times[position - 1], sibling))
            position = end
        del times[keep - 1:]
        del values[keep:]
        del children[keep:]
        if uvalues is not None:
            del uvalues[keep:]
        return spill

    # ------------------------------------------------------------------
    # Node splitting (Section 3.5)
    # ------------------------------------------------------------------
    def _split_child(self, parent: Node, i: int, child: Node) -> Node:
        """Split overflowing *child* (the i-th child of *parent*) in two."""
        n = child.interval_count
        mid = (n + 1) // 2  # the left half keeps ceil(n/2) intervals
        sibling = self.store.allocate(
            is_leaf=child.is_leaf, with_uvalues=child.uvalues is not None
        )
        separator = child.times[mid - 1]
        sibling.times = child.times[mid:]
        sibling.values = child.values[mid:]
        child.times = child.times[: mid - 1]
        child.values = child.values[:mid]
        if not child.is_leaf:
            sibling.children = child.children[mid:]
            child.children = child.children[:mid]
        if child.uvalues is not None:
            sibling.uvalues = child.uvalues[mid:]
            child.uvalues = child.uvalues[:mid]
        parent.times.insert(i, separator)
        parent.values.insert(i + 1, parent.values[i])
        parent.children.insert(i + 1, sibling.node_id)
        if parent.uvalues is not None:
            # MSB-tree: recompute the exact extremum of both halves from
            # their u and v annotations (Section 4.3, msplit).
            parent.uvalues.insert(i + 1, None)
            parent.uvalues[i] = self._subtree_u(child)
            parent.uvalues[i + 1] = self._subtree_u(sibling)
        self.store.write(child)
        self.store.write(sibling)
        return sibling

    def _subtree_u(self, node: Node) -> Any:
        """Aggregate all u and v annotations of *node* (msplit helper)."""
        acc = self.spec.acc
        result = self.spec.v0
        for i, value in enumerate(node.values):
            result = acc(result, value)
            if node.uvalues is not None:
                result = acc(result, node.uvalues[i])
        return result

    def _grow_root(self, old_root: Node) -> None:
        """Create a new root above an overflowing one."""
        new_root = self.store.allocate(
            is_leaf=False, with_uvalues=old_root.uvalues is not None or self._root_has_u()
        )
        new_root.values = [self.spec.v0]
        new_root.children = [old_root.node_id]
        if new_root.uvalues is not None:
            new_root.uvalues = [self._subtree_u(old_root)]
        self._split_child(new_root, 0, old_root)
        self.store.write(new_root)
        self.store.set_root(new_root.node_id)
        self._root_id = new_root.node_id

    def _root_has_u(self) -> bool:
        """Whether newly created interior nodes carry u annotations."""
        return False

    # ------------------------------------------------------------------
    # Interval and node merging (Section 3.6)
    # ------------------------------------------------------------------
    def _imerge_at(self, t: Time) -> None:
        """Merge the adjacent leaf intervals meeting at boundary *t*, if equal.

        Each stored time instant appears at exactly one node.  When that
        node is a leaf the two intervals around *t* live side by side;
        when it is interior, they are the rightmost leaf interval of the
        left subtree and the leftmost leaf interval of the right subtree,
        compared through their accumulated lookup values below the
        common ancestor (including the ancestor's own two interval
        values, which the two paths do not share).
        """
        spec = self.spec
        path: List[Tuple[Node, int]] = []
        node = self._root()
        lo: Time = NEG_INF
        hi: Time = POS_INF
        while True:
            k = bisect.bisect_left(node.times, t)
            if k < len(node.times) and node.times[k] == t:
                break
            if node.is_leaf:
                return  # t is not a stored boundary; nothing to merge
            i = node.find(t)
            path.append((node, i))
            lo, hi = node.bounds(i, lo, hi)
            node = self._read(node.children[i])

        if node.is_leaf:
            if spec.eq(node.values[k], node.values[k + 1]):
                del node.times[k]
                del node.values[k + 1]
                self.store.write(node)
                if node.interval_count < self._minimum(node) and path:
                    self._nmerge(node, path)
            return

        # Interior node: t separates intervals k and k+1.
        left_acc, _, left_leaf = self._descend_edge(node.children[k], rightmost=True)
        right_acc, right_path, right_leaf = self._descend_edge(
            node.children[k + 1], rightmost=False
        )
        full_left = spec.acc(node.values[k], left_acc)
        full_right = spec.acc(node.values[k + 1], right_acc)
        if not spec.eq(full_left, full_right):
            return
        if left_leaf.interval_count > self.min_leaf:
            # Fold the left leaf's last interval into the right leaf's first.
            node.times[k] = left_leaf.times[-1]
            del left_leaf.times[-1]
            del left_leaf.values[-1]
            self.store.write(left_leaf)
            self.store.write(node)
        else:
            # Fold the right leaf's first interval into the left leaf's last.
            node.times[k] = right_leaf.times[0]
            del right_leaf.times[0]
            del right_leaf.values[0]
            self.store.write(right_leaf)
            self.store.write(node)
            if right_leaf.interval_count < self._minimum(right_leaf):
                full_path = path + [(node, k + 1)] + right_path
                self._nmerge(right_leaf, full_path)

    def _descend_edge(
        self, child_id: NodeId, rightmost: bool
    ) -> Tuple[Any, List[Tuple[Node, int]], Node]:
        """Walk to the leftmost or rightmost leaf below *child_id*.

        Returns the accumulated edge value (the lookup contribution of
        the subtree, excluding anything above it), the descent path, and
        the leaf itself.
        """
        acc = self.spec.acc
        accumulated = self.spec.v0
        entries: List[Tuple[Node, int]] = []
        node = self._read(child_id)
        while True:
            idx = node.interval_count - 1 if rightmost else 0
            accumulated = acc(accumulated, node.values[idx])
            if node.is_leaf:
                return accumulated, entries, node
            entries.append((node, idx))
            node = self._read(node.children[idx])

    def _nmerge(self, node: Node, path: List[Tuple[Node, int]]) -> None:
        """Fix an underfull *node* by borrowing from or merging with a sibling.

        Every transformation preserves the value returned by ``lookup``
        along every path, by pushing parent interval values down before
        moving intervals across nodes.
        """
        spec = self.spec
        acc = spec.acc
        if not path:
            # node is the root.  An interior root with a single child is
            # collapsed: its one value is folded into every child value.
            if not node.is_leaf and node.interval_count == 1:
                child = self._read(node.children[0])
                child.values = [acc(node.values[0], v) for v in child.values]
                self.store.write(child)
                self.store.free(node.node_id)
                self.store.set_root(child.node_id)
                self._root_id = child.node_id
            return

        parent, k = path[-1]
        minimum = self._minimum(node)
        right = (
            self._read(parent.children[k + 1])
            if k + 1 < parent.interval_count
            else None
        )
        left = self._read(parent.children[k - 1]) if k > 0 else None

        if right is not None and right.interval_count > self._minimum(right):
            self._borrow_from_right(parent, k, node, right)
            return
        if left is not None and left.interval_count > self._minimum(left):
            self._borrow_from_left(parent, k, node, left)
            return

        # Merge with a sibling (prefer the right one when both exist).
        if right is not None:
            self._merge_siblings(parent, k, node, right)
        else:
            assert left is not None, "non-root node must have a sibling"
            self._merge_siblings(parent, k - 1, left, node)

        parent_is_root = len(path) == 1
        if parent_is_root:
            if parent.interval_count == 1:
                self._nmerge(parent, [])
        elif parent.interval_count < self._minimum(parent):
            self._nmerge(parent, path[:-1])

    def _borrow_from_right(self, parent: Node, k: int, node: Node, right: Node) -> None:
        acc = self.spec.acc
        node.values = [acc(parent.values[k], v) for v in node.values]
        parent.values[k] = self.spec.v0
        node.times.append(parent.times[k])
        node.values.append(acc(parent.values[k + 1], right.values[0]))
        if not node.is_leaf:
            node.children.append(right.children[0])
            del right.children[0]
        parent.times[k] = right.times[0]
        del right.times[0]
        del right.values[0]
        self.store.write(node)
        self.store.write(right)
        self.store.write(parent)

    def _borrow_from_left(self, parent: Node, k: int, node: Node, left: Node) -> None:
        acc = self.spec.acc
        node.values = [acc(parent.values[k], v) for v in node.values]
        parent.values[k] = self.spec.v0
        node.times.insert(0, parent.times[k - 1])
        node.values.insert(0, acc(parent.values[k - 1], left.values[-1]))
        if not node.is_leaf:
            node.children.insert(0, left.children[-1])
            del left.children[-1]
        parent.times[k - 1] = left.times[-1]
        del left.times[-1]
        del left.values[-1]
        self.store.write(node)
        self.store.write(left)
        self.store.write(parent)

    def _merge_siblings(self, parent: Node, k: int, first: Node, second: Node) -> None:
        """Merge children k and k+1 of *parent* into the first one."""
        acc = self.spec.acc
        merged_values = [acc(parent.values[k], v) for v in first.values]
        merged_values += [acc(parent.values[k + 1], v) for v in second.values]
        first.values = merged_values
        first.times = first.times + [parent.times[k]] + second.times
        if not first.is_leaf:
            first.children = first.children + second.children
        parent.values[k] = self.spec.v0
        del parent.times[k]
        del parent.values[k + 1]
        del parent.children[k + 1]
        self.store.free(second.node_id)
        self.store.write(first)
        self.store.write(parent)

    # ------------------------------------------------------------------
    # Batch compaction (bmerge, Section 3.6) and bulk loading
    # ------------------------------------------------------------------
    @observed("compact")
    @_reverting
    def compact(self, *, bulk: bool = False) -> None:
        """Rebuild the tree from its coalesced constant intervals.

        This is the paper's ``bmerge``: a full reconstruction pass whose
        coalesced output replaces the tree.  Required periodically for
        MIN/MAX trees, which perform no per-update merging; a
        no-op-in-content rebuild for already-compact SUM/COUNT/AVG
        trees.

        By default the replacement is built by re-inserting each output
        row, exactly as the paper describes (O(n + m log m)); this
        reproduces the paper's post-``mbmerge`` tree shapes.  With
        ``bulk=True`` the replacement is packed bottom-up via
        :meth:`bulk_load` in O(n + m).
        """
        table = self.range_query(Interval(NEG_INF, POS_INF)).coalesce(self.spec.eq)
        if bulk:
            self.bulk_load(table)
            return
        self._free_subtree(self._root_id)
        root = self.store.allocate(is_leaf=True, with_uvalues=False)
        root.values = [self.spec.v0]
        self.store.write(root)
        self.store.set_root(root.node_id)
        self._root_id = root.node_id
        for value, interval in table:
            if self.spec.is_initial(value):
                continue
            root_node = self._root()
            self._insert(root_node, NEG_INF, POS_INF, value, interval)
            if self._overflows(root_node):
                self._grow_root(root_node)

    @observed("bulk_load")
    @_reverting
    def bulk_load(self, table: ConstantIntervalTable) -> None:
        """Replace the tree's contents with *table*, built bottom-up.

        *table* must be a contiguous step function covering the whole
        time line (a full, coalesced reconstruction); the existing
        contents are discarded.  Leaves are packed to capacity with the
        tail redistributed to respect minimum occupancy, interior levels
        carry ``v0`` (all value mass sits in the leaves), and MSB
        annotations are recomputed per level.  Runs in O(m).
        """
        rows = table.rows
        if not rows:
            rows = [(self.spec.v0, Interval(NEG_INF, POS_INF))]
        if rows[0][1].start != NEG_INF or rows[-1][1].end != POS_INF:
            raise ValueError("bulk_load needs a table covering (-inf, inf)")
        self._free_subtree(self._root_id)

        # Build the leaf level.
        values = [value for value, _ in rows]
        boundaries = [interval.end for _, interval in rows[:-1]]
        leaf_chunks = self._chunk(len(values), self.l, self.min_leaf)
        level: List[NodeId] = []
        separators: List[Time] = []
        position = 0
        for size in leaf_chunks:
            node = self.store.allocate(is_leaf=True, with_uvalues=False)
            node.values = values[position : position + size]
            node.times = boundaries[position : position + size - 1]
            self.store.write(node)
            level.append(node.node_id)
            if position + size <= len(boundaries):
                separators.append(boundaries[position + size - 1])
            position += size

        # Stack interior levels until one node remains.
        annotate = self._root_has_u()
        while len(level) > 1:
            chunks = self._chunk(len(level), self.b, self.min_interior)
            next_level: List[NodeId] = []
            next_separators: List[Time] = []
            position = 0
            for size in chunks:
                node = self.store.allocate(is_leaf=False, with_uvalues=annotate)
                node.children = level[position : position + size]
                node.values = [self.spec.v0] * size
                node.times = separators[position : position + size - 1]
                if annotate:
                    node.uvalues = [
                        self._subtree_u(self.store.read(child))
                        for child in node.children
                    ]
                self.store.write(node)
                next_level.append(node.node_id)
                if position + size <= len(separators):
                    next_separators.append(separators[position + size - 1])
                position += size
            level, separators = next_level, next_separators

        self.store.set_root(level[0])
        self._root_id = level[0]

    def retain_after(self, cutoff: Time) -> ConstantIntervalTable:
        """Archive and drop all aggregate history before *cutoff*.

        The warehouse setting of Section 1: old history may be retired
        once nobody queries it (indeed the paper notes the base data
        needed to recompute it may be gone).  Everything before *cutoff*
        is returned as a coalesced table for archival, and the tree is
        rebuilt holding ``v0`` there; lookups before *cutoff* afterwards
        return the initial value.
        """
        if not (NEG_INF < cutoff < POS_INF):
            raise ValueError("cutoff must be a finite instant")
        full = self.range_query(Interval(NEG_INF, POS_INF)).coalesce(self.spec.eq)
        archived = trim_initial(full.restrict(Interval(NEG_INF, cutoff)), self.spec)
        kept = full.restrict(Interval(cutoff, POS_INF))
        rows = [(self.spec.v0, Interval(NEG_INF, cutoff))] + kept.rows
        self.bulk_load(ConstantIntervalTable(rows).coalesce(self.spec.eq))
        return archived

    @staticmethod
    def _chunk(total: int, capacity: int, minimum: int) -> List[int]:
        """Split *total* items into chunks of at most *capacity*, each at
        least *minimum* (except a lone chunk), preferring full chunks."""
        if total <= capacity:
            return [total]
        chunks = []
        remaining = total
        while remaining > capacity:
            take = capacity
            if 0 < remaining - take < minimum:
                take = remaining - minimum
            chunks.append(take)
            remaining -= take
        chunks.append(remaining)
        return chunks

    def _free_subtree(self, node_id: NodeId) -> None:
        node = self._read(node_id)
        if not node.is_leaf:
            for child in node.children:
                self._free_subtree(child)
        self.store.free(node_id)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SBTree {self.spec.kind} b={self.b} l={self.l} "
            f"nodes={self.node_count()}>"
        )
