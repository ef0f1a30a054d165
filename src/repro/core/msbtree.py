"""The MSB-tree (Section 4.3 of the paper).

An MSB-tree is an SB-tree for a MIN or MAX aggregate whose interior
intervals carry an extra annotation ``u``: the *exact* extremum of the
aggregate over the whole interval.  The annotation turns a cumulative
(moving-window) lookup -- which on a plain SB-tree needs an O(h + r)
range scan over the window -- into an O(h) search (``mlookup``): a
window that fully covers an interior interval is answered from ``u``
without descending, and subtrees that cannot improve the running
extremum are pruned.

MSB-trees inherit all structural behaviour from :class:`SBTree`; the
``u`` maintenance in ``insert`` and ``split`` is keyed off the presence
of ``uvalues`` on a node, so interior nodes allocated by this class are
annotated automatically.  Like every MIN/MAX index in the paper,
MSB-trees reject deletions and are compacted in batch (``mbmerge`` ==
:meth:`SBTree.compact`).
"""

from __future__ import annotations

from typing import Any, Optional

from ..obs import observed
from .intervals import Interval, NEG_INF, POS_INF, Time
from .nodes import Node
from .results import ConstantIntervalTable
from .sbtree import IntervalLike, SBTree, as_interval
from .nodestore import NodeStore
from .values import AggregateKind

__all__ = ["MSBTree"]


class MSBTree(SBTree):
    """An SB-tree with exact-extremum annotations for windowed MIN/MAX."""

    def __init__(
        self,
        kind=None,
        store: Optional[NodeStore] = None,
        *,
        branching: int = 32,
        leaf_capacity: Optional[int] = None,
    ) -> None:
        super().__init__(
            kind, store, branching=branching, leaf_capacity=leaf_capacity
        )
        if self.spec.kind not in (AggregateKind.MIN, AggregateKind.MAX):
            raise ValueError("MSB-trees support only MIN and MAX aggregates")

    def _root_has_u(self) -> bool:
        # Interior nodes created above this tree's root carry u values.
        return True

    # ------------------------------------------------------------------
    # Windowed lookup (mlookup)
    # ------------------------------------------------------------------
    @observed("mlookup")
    def window_lookup(self, t: Time, w: Time) -> Any:
        """Return the cumulative MIN/MAX at instant *t* with offset *w*.

        The value ranges over all base tuples whose valid interval
        intersects the closed window ``[t - w, t]``.  Runs in O(h).
        """
        if t != t:
            raise ValueError("instant must not be NaN")
        if not w >= 0:
            raise ValueError("window offset must be non-negative")
        return self._mlookup(self._root(), NEG_INF, POS_INF, t - w, t, self.spec.v0)

    def _mlookup(
        self, node: Node, nlo: Time, nhi: Time, lo: Time, hi: Time, running: Any
    ) -> Any:
        acc, eq = self.spec.acc, self.spec.eq
        for i in range(node.interval_count):
            a, b = node.bounds(i, nlo, nhi)
            # Overlap with the *closed* window [lo, hi].
            if b <= lo:
                continue
            if a > hi:
                break
            if node.is_leaf:
                running = acc(running, node.values[i])
                continue
            candidate = acc(acc(running, node.uvalues[i]), node.values[i])
            if eq(running, candidate):
                # This interval cannot improve the running extremum.
                continue
            if a >= lo and b <= hi:
                # Fully covered: the exact extremum over the interval is
                # available from the annotations, no descent needed.
                running = candidate
                continue
            child = self._read(node.children[i])
            running = self._mlookup(child, a, b, lo, hi, acc(running, node.values[i]))
        return running

    @observed("mlookup")
    def extremum_over(self, lo: Time, hi: Time) -> Any:
        """The exact MIN/MAX over the closed interval ``[lo, hi]`` in O(h).

        This is the paper's omitted "use the u values" range optimization
        in its purest form: a window lookup is the special case
        ``extremum_over(t - w, t)``, but the annotations answer *any*
        interval extremum without the O(h + r) leaf scan that ``rangeq``
        would need.
        """
        if not lo <= hi:
            raise ValueError("empty interval")
        return self._mlookup(self._root(), NEG_INF, POS_INF, lo, hi, self.spec.v0)

    # ------------------------------------------------------------------
    # Windowed range query
    # ------------------------------------------------------------------
    @observed("window_query")
    def window_query(self, interval: IntervalLike, w: Time) -> ConstantIntervalTable:
        """Return the cumulative aggregate's constant intervals over *interval*.

        The cumulative value can only change when an edge of the sliding
        window crosses a breakpoint of the instantaneous aggregate, so
        the candidate cuts are the instantaneous breakpoints and their
        ``+w`` translates; each resulting piece is evaluated with one
        O(h) :meth:`window_lookup`.
        """
        interval = as_interval(interval)
        base = self.range_query(
            Interval(
                interval.start - w if interval.start != NEG_INF else NEG_INF,
                interval.end,
            )
        ).coalesce(self.spec.eq)
        cuts = set()
        for _, piece in base:
            for endpoint in (piece.start, piece.end):
                for candidate in (endpoint, endpoint + w):
                    if interval.start < candidate < interval.end:
                        cuts.add(candidate)
        edges = [interval.start] + sorted(cuts) + [interval.end]
        rows = []
        for a, b in zip(edges, edges[1:]):
            sample = a if a != NEG_INF else (b - 1 if b != POS_INF else 0)
            rows.append((self.window_lookup(sample, w), Interval(a, b)))
        return ConstantIntervalTable(rows).coalesce(self.spec.eq)

    # ------------------------------------------------------------------
    # mbmerge is the inherited batch compaction; make the name available.
    # ------------------------------------------------------------------
    def mbmerge(self) -> None:
        """Alias for :meth:`SBTree.compact` (the paper calls it mbmerge)."""
        self.compact()
