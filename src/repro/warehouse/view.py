"""SB-tree-backed materialized temporal aggregate views.

The paper's proposal (Sections 1 and 3): instead of materializing a
temporal aggregate's contents, the warehouse materializes and maintains
an SB-tree *index* of the aggregate, which is cheap to update (O(log n)
per base change, even for tuples with long valid intervals) and can
reconstruct the view contents on demand.

A :class:`TemporalAggregateView` subscribes to a
:class:`~repro.relation.table.TemporalRelation` and routes every change
event into the right index structure for its aggregate kind and window
specification:

===============  =============================  ==========================
window           kinds                          backing structure
===============  =============================  ==========================
``0`` (default)  all five                       one SB-tree (Section 3)
fixed ``w > 0``  all five                       one SB-tree on stretched
                                                effect intervals (4.1)
``ANY_WINDOW``   SUM / COUNT / AVG              dual SB-trees (4.2)
``ANY_WINDOW``   MIN / MAX                      one MSB-tree (4.3)
===============  =============================  ==========================
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from .. import obs
from ..core.dual import DualTreeAggregate
from ..core.fixed_window import FixedWindowTree
from ..core.intervals import Interval, Time
from ..core.msbtree import MSBTree
from ..core.results import ConstantIntervalTable
from ..core.sbtree import SBTree
from ..core.nodestore import NodeStore
from ..core.values import spec_for
from ..relation.table import TemporalRelation
from ..relation.tuples import ChangeEvent, ChangeKind, TemporalTuple

__all__ = ["TemporalAggregateView", "ANY_WINDOW"]


class _AnyWindow:
    """Sentinel: the view must answer queries for arbitrary offsets."""

    def __repr__(self) -> str:
        return "ANY_WINDOW"


ANY_WINDOW = _AnyWindow()

ValueOf = Callable[[TemporalTuple], Any]


class _ChangeHandler:
    """The subscriber object a view registers with its relation.

    Exposes the two-phase protocol: ``validate`` (may veto, must not
    mutate) and ``__call__`` (applies the change to the backing index).
    """

    def __init__(self, view: "TemporalAggregateView") -> None:
        self._view = view

    def validate(self, event: ChangeEvent) -> None:
        self._view._validate_change(event)

    def __call__(self, event: ChangeEvent) -> None:
        self._view._on_change(event)


class TemporalAggregateView:
    """An incrementally maintained temporal aggregate over a relation.

    Parameters
    ----------
    name:
        View name (used in the warehouse catalog and error messages).
    relation:
        The base :class:`TemporalRelation`; the view subscribes to its
        change stream and replays existing contents.
    kind:
        Aggregate kind.
    window:
        ``0`` for an instantaneous aggregate, a positive offset for a
        fixed-window cumulative aggregate, or :data:`ANY_WINDOW`.
    value_of:
        Extracts the aggregated quantity from a tuple (defaults to the
        tuple's ``value`` field).
    store / ended_store:
        Optional node stores (e.g. :class:`repro.storage.PagedNodeStore`)
        for the backing tree(s); dual-tree views take two.
    """

    def __init__(
        self,
        name: str,
        relation: TemporalRelation,
        kind,
        *,
        window: Union[Time, _AnyWindow] = 0,
        value_of: Optional[ValueOf] = None,
        store: Optional[NodeStore] = None,
        ended_store: Optional[NodeStore] = None,
        branching: int = 32,
        leaf_capacity: Optional[int] = None,
    ) -> None:
        self.name = name
        self.relation = relation
        self.spec = spec_for(kind)
        self.window = window
        self._value_of: ValueOf = value_of or (lambda row: row.value)
        tree_args = dict(branching=branching, leaf_capacity=leaf_capacity)
        if isinstance(window, _AnyWindow):
            if self.spec.invertible:
                self._index = DualTreeAggregate(
                    self.spec, store, ended_store, **tree_args
                )
            else:
                self._index = MSBTree(self.spec, store, **tree_args)
        elif window == 0:
            self._index = SBTree(self.spec, store, **tree_args)
        elif window > 0:
            self._index = FixedWindowTree(self.spec, window, store, **tree_args)
        else:
            raise ValueError(f"invalid window specification: {window!r}")
        self._handler = _ChangeHandler(self)
        relation.subscribe(self._handler, replay=True)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _validate_change(self, event: ChangeEvent) -> None:
        """Veto changes this view cannot absorb, before anything mutates."""
        if event.kind is ChangeKind.DELETE and not self.spec.invertible:
            raise ValueError(
                f"view {self.name!r}: {self.spec.kind} aggregates cannot "
                "be maintained under deletions (paper, Section 3.4); "
                "drop the view before retracting tuples"
            )

    def _on_change(self, event: ChangeEvent) -> None:
        if not obs.ENABLED:
            self._apply_change(event)
            return
        # Per-view maintenance cost: one op record per base-table change
        # routed into this view, named so each view is distinguishable.
        with obs.Op(
            f"view.{self.name}.maintain",
            obs.stores_of(self._index),
            subject=type(self._index).__name__,
        ):
            self._apply_change(event)

    def _apply_change(self, event: ChangeEvent) -> None:
        value = self._value_of(event.tuple)
        if event.kind is ChangeKind.INSERT:
            self._index.insert(value, event.tuple.valid)
        else:
            self._validate_change(event)
            self._index.delete(value, event.tuple.valid)

    def detach(self) -> None:
        """Stop maintaining this view."""
        self.relation.unsubscribe(self._handler)

    def compact(self) -> None:
        """Batch-compact the backing tree(s) (bmerge / mbmerge)."""
        if isinstance(self._index, DualTreeAggregate):
            self._index.current.compact()
            self._index.ended.compact()
        else:
            self._index.compact()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def index(self):
        """The backing index structure (for inspection and stats)."""
        return self._index

    @property
    def supports_any_window(self) -> bool:
        return isinstance(self.window, _AnyWindow)

    def value_at(self, t: Time, w: Optional[Time] = None) -> Any:
        """The (user-facing) aggregate value at instant *t*.

        Pass *w* only on ANY_WINDOW views; fixed-window views answer for
        their configured offset alone.
        """
        if w is None:
            if self.supports_any_window:
                raise ValueError(
                    f"view {self.name!r} answers arbitrary offsets; pass w"
                )
            return self._index.lookup_final(t)
        if not self.supports_any_window:
            raise ValueError(
                f"view {self.name!r} was built for window={self.window!r}; "
                "create it with window=ANY_WINDOW for arbitrary offsets"
            )
        if isinstance(self._index, DualTreeAggregate):
            return self._index.window_lookup_final(t, w)
        return self.spec.finalize(self._index.window_lookup(t, w))

    def table(self, w: Optional[Time] = None, **kwargs) -> ConstantIntervalTable:
        """Reconstruct the view contents (finalized values)."""
        if w is None:
            if self.supports_any_window:
                raise ValueError(
                    f"view {self.name!r} answers arbitrary offsets; pass w"
                )
            raw = self._index.to_table(**kwargs)
        elif isinstance(self._index, DualTreeAggregate):
            raw = self._index.window_table(w, **kwargs)
        elif isinstance(self._index, MSBTree):
            raw = self._index.window_query(
                Interval(float("-inf"), float("inf")), w
            )
        else:
            raise ValueError(f"view {self.name!r} cannot answer offset {w}")
        return raw.finalized(self.spec).coalesce()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TemporalAggregateView {self.name!r} {self.spec.kind} "
            f"window={self.window!r} over {self.relation.name!r}>"
        )
