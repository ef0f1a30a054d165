"""SB-tree-backed materialized temporal aggregate views.

The paper's proposal (Sections 1 and 3): instead of materializing a
temporal aggregate's contents, the warehouse materializes and maintains
an SB-tree *index* of the aggregate, which is cheap to update (O(log n)
per base change, even for tuples with long valid intervals) and can
reconstruct the view contents on demand.

A :class:`TemporalAggregateView` is an in-memory index over one
:class:`~repro.relation.table.TemporalRelation`: it subscribes to the
relation and routes every change event into the right index structure
for its aggregate kind and window specification:

===============  =============================  ==========================
window           kinds                          backing structure
===============  =============================  ==========================
``0`` (default)  all five                       one SB-tree (Section 3)
fixed ``w > 0``  all five                       one SB-tree on stretched
                                                effect intervals (4.1)
``ANY_WINDOW``   SUM / COUNT / AVG              dual SB-trees (4.2)
``ANY_WINDOW``   MIN / MAX                      one MSB-tree (4.3)
===============  =============================  ==========================

With ``key_of`` the view is a TSQL2-style ``GROUP BY`` combined with
temporal grouping: it keeps one such index per distinct key, created
as the key first appears in the change stream.  An ungrouped view is
the single group ``None``::

    view = TemporalAggregateView(
        "DosageByPatient", prescriptions, "sum",
        key_of=lambda row: row.payload["patient"],
    )
    view.value_at(19, key="Amy")   # Amy's dosage at day 19
    view.values_at(19)             # every patient's value at day 19
    view.table(key="Amy")          # Amy's constant intervals

A named, durable set of views is a ``DynamicCatalog``; a durable tree
is an ``SBTree``, ``DualTreeAggregate`` or ``MSBTree`` on a
``PagedNodeStore``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Union

from .. import obs
from ..core.dual import DualTreeAggregate
from ..core.fixed_window import FixedWindowTree
from ..core.intervals import Interval, Time
from ..core.msbtree import MSBTree
from ..core.results import ConstantIntervalTable
from ..core.sbtree import SBTree
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
KeyOf = Callable[[TemporalTuple], Hashable]


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
        View name (used in error messages and in the
        ``view.<name>.maintain`` op every change records).
    relation:
        The base :class:`TemporalRelation`; the view subscribes to its
        change stream and replays existing contents.
    kind:
        Aggregate kind.
    key_of:
        Maps a tuple to its group key; the view then keeps one index
        per key.  ``None`` (the default) keeps one index, the group
        ``None``.
    window:
        ``0`` for an instantaneous aggregate, a positive offset for a
        fixed-window cumulative aggregate, or :data:`ANY_WINDOW`.
    value_of:
        Extracts the aggregated quantity from a tuple (defaults to the
        tuple's ``value`` field).
    """

    def __init__(
        self,
        name: str,
        relation: TemporalRelation,
        kind,
        *,
        key_of: Optional[KeyOf] = None,
        window: Union[Time, _AnyWindow] = 0,
        value_of: Optional[ValueOf] = None,
        branching: int = 32,
        leaf_capacity: Optional[int] = None,
    ) -> None:
        self.name = name
        self.relation = relation
        self.spec = spec_for(kind)
        self.window = window
        self._key_of = key_of
        self._value_of: ValueOf = value_of or (lambda row: row.value)
        self._new_index = _index_factory(
            self.spec, window, dict(branching=branching, leaf_capacity=leaf_capacity)
        )
        self._indexes: Dict[Hashable, Any] = {}
        if key_of is None:
            self._indexes[None] = self._new_index()
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
        key = None if self._key_of is None else self._key_of(event.tuple)
        index = self._indexes.get(key)
        if index is None:
            index = self._indexes[key] = self._new_index()
        if not obs.ENABLED:
            self._apply_change(index, event)
            return
        # Per-view maintenance cost: one op record per base-table change
        # routed into this view, whatever its group, named so each view
        # is distinguishable.
        with obs.Op(
            f"view.{self.name}.maintain",
            obs.stores_of(index),
            subject=type(index).__name__,
        ):
            self._apply_change(index, event)

    def _apply_change(self, index, event: ChangeEvent) -> None:
        value = self._value_of(event.tuple)
        if event.kind is ChangeKind.INSERT:
            index.insert(value, event.tuple.valid)
        else:
            self._validate_change(event)
            index.delete(value, event.tuple.valid)

    def detach(self) -> None:
        """Stop maintaining this view."""
        self.relation.unsubscribe(self._handler)

    def compact(self) -> None:
        """Batch-compact every group's backing tree(s) (bmerge / mbmerge)."""
        for index in self._indexes.values():
            if isinstance(index, DualTreeAggregate):
                index.current.compact()
                index.ended.compact()
            else:
                index.compact()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def index(self):
        """An ungrouped view's backing index (for inspection and stats)."""
        if self._key_of is not None:
            raise AttributeError(
                f"view {self.name!r} is grouped: it keeps one index per key"
            )
        return self._indexes[None]

    @property
    def supports_any_window(self) -> bool:
        return isinstance(self.window, _AnyWindow)

    def keys(self):
        """The group keys seen so far (including now-empty groups)."""
        return self._indexes.keys()

    def _check_read(self, w: Optional[Time], key: Hashable) -> None:
        """The window/offset and key validation every read shares.

        It runs before the group is looked up, so an unknown key's read
        is refused exactly as a known key's would be.  An ungrouped
        view refuses any key: it has no group to read.
        """
        if key is not None and self._key_of is None:
            raise ValueError(
                f"view {self.name!r} is not grouped: it has no key {key!r}"
            )
        if w is None and self.supports_any_window:
            raise ValueError(
                f"view {self.name!r} answers arbitrary offsets; pass w"
            )
        if w is not None and not self.supports_any_window:
            raise ValueError(
                f"view {self.name!r} was built for window={self.window!r}; "
                "create it with window=ANY_WINDOW for arbitrary offsets"
            )

    def value_at(self, t: Time, w: Optional[Time] = None, *, key: Hashable = None) -> Any:
        """One group's (user-facing) aggregate value at instant *t*.

        Pass *w* only on ANY_WINDOW views; fixed-window views answer for
        their configured offset alone.  A key that never appeared is an
        empty group: it reads as the aggregate's empty value.  An
        ungrouped view refuses a key (``ValueError``).
        """
        self._check_read(w, key)
        index = self._indexes.get(key)
        if index is None:
            return self.spec.finalize(self.spec.v0)
        if w is None:
            return index.lookup_final(t)
        if isinstance(index, DualTreeAggregate):
            return index.window_lookup_final(t, w)
        return self.spec.finalize(index.window_lookup(t, w))

    def values_at(self, t: Time, w: Optional[Time] = None) -> Dict[Hashable, Any]:
        """Every known group's value at instant *t* (``{}`` if none yet)."""
        return {key: self.value_at(t, w, key=key) for key in self._indexes}

    def table(self, w: Optional[Time] = None, *, key: Hashable = None) -> ConstantIntervalTable:
        """Reconstruct one group's contents (finalized values).

        A key that never appeared reconstructs as the empty table; an
        ungrouped view refuses a key (``ValueError``).
        """
        self._check_read(w, key)
        index = self._indexes.get(key)
        if index is None:
            return ConstantIntervalTable([])
        if w is None:
            raw = index.to_table()
        elif isinstance(index, DualTreeAggregate):
            raw = index.window_table(w)
        else:
            raw = index.window_query(Interval(float("-inf"), float("inf")), w)
        return raw.finalized(self.spec).coalesce()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TemporalAggregateView {self.name!r} {self.spec.kind} "
            f"window={self.window!r} groups={len(self._indexes)} "
            f"over {self.relation.name!r}>"
        )


def _index_factory(spec, window, tree_args) -> Callable[[], Any]:
    """The constructor of one group's index."""
    if isinstance(window, _AnyWindow):
        if spec.invertible:
            return lambda: DualTreeAggregate(spec, **tree_args)
        return lambda: MSBTree(spec, **tree_args)
    if window == 0:
        return lambda: SBTree(spec, **tree_args)
    if window > 0:
        return lambda: FixedWindowTree(spec, window, **tree_args)
    raise ValueError(f"invalid window specification: {window!r}")
