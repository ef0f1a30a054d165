"""The temporal data warehouse: base tables plus maintained views.

A small catalog tying the pieces together: named base relations, named
SB-tree-backed aggregate views over them, and (optionally) a directory
in which each view's tree pages are persisted via
:class:`repro.storage.PagedNodeStore`.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Union

from .. import obs
from ..core.intervals import Time
from ..core.values import spec_for
from ..relation.table import TemporalRelation
from .view import KeyOf, TemporalAggregateView, _AnyWindow

__all__ = ["TemporalWarehouse"]


class TemporalWarehouse:
    """A catalog of temporal base tables and maintained aggregate views."""

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self._relations: Dict[str, TemporalRelation] = {}
        self._views: Dict[str, TemporalAggregateView] = {}
        self._dynamic = None

    # ------------------------------------------------------------------
    # Base tables
    # ------------------------------------------------------------------
    def create_table(self, name: str) -> TemporalRelation:
        """Create and register a new base relation."""
        if name in self._relations:
            raise ValueError(f"table {name!r} already exists")
        relation = TemporalRelation(name)
        self._relations[name] = relation
        return relation

    def table(self, name: str) -> TemporalRelation:
        return self._relations[name]

    def drop_table(self, name: str) -> None:
        """Unregister a base table.

        Refused while any view still depends on the relation -- both
        the eagerly-maintained views of this warehouse and any dynamic
        views of the attached :attr:`dynamic` catalog (a dangling view
        would silently stop reflecting reality).
        """
        if name not in self._relations:
            raise KeyError(f"no table {name!r}")
        relation = self._relations[name]
        dependents = [
            view_name
            for view_name, view in self._views.items()
            if view.relation is relation
        ]
        if self._dynamic is not None:
            if name in self._dynamic.table_names():
                dependents.extend(self._dynamic.dependents_of(name))
        if dependents:
            raise ValueError(
                f"cannot drop table {name!r}: still referenced by views "
                f"{sorted(set(dependents))}"
            )
        if self._dynamic is not None and name in self._dynamic.table_names():
            self._dynamic.drop_table(name)
        del self._relations[name]

    # ------------------------------------------------------------------
    # Dynamic views
    # ------------------------------------------------------------------
    @property
    def dynamic(self):
        """The lazily-created dynamic-view catalog sharing these tables.

        See :mod:`repro.warehouse.dynamic`: lag-driven views over base
        tables and other views, refreshed incrementally from the change
        stream.  Persistent when the warehouse has a directory (the
        catalog checkpoints to ``<directory>/dynamic.json``).
        """
        if self._dynamic is None:
            from .dynamic import DynamicCatalog

            self._dynamic = DynamicCatalog(self.directory, warehouse=self)
        return self._dynamic

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def create_view(
        self,
        name: str,
        over: Union[str, TemporalRelation],
        kind,
        *,
        key_of: Optional[KeyOf] = None,
        window: Union[Time, _AnyWindow] = 0,
        persistent: bool = False,
        **view_kwargs,
    ) -> TemporalAggregateView:
        """Create a maintained aggregate view over a base table.

        With ``key_of`` the view keeps one index per group key (GROUP
        BY).  With ``persistent`` (requires the warehouse to have a
        directory, and refused for a grouped view: a page file holds
        one tree) the backing tree pages live in
        ``<directory>/<name>.sbt`` -- plus ``<name>.ended.sbt`` for
        ANY_WINDOW SUM/COUNT/AVG views, which need the second tree of
        Section 4.2 -- each page file with its write-ahead log;
        :meth:`checkpoint` commits them.
        """
        if name in self._views:
            raise ValueError(f"view {name!r} already exists")
        relation = self.table(over) if isinstance(over, str) else over
        if persistent:
            if self.directory is None:
                raise ValueError("a persistent view needs a warehouse directory")
            if key_of is not None:
                raise ValueError(
                    f"view {name!r}: a grouped view keeps one tree per key "
                    "and a page file holds one tree; it cannot be persistent"
                )
            from ..storage import PagedNodeStore

            spec = spec_for(kind)
            view_kwargs.setdefault(
                "store",
                PagedNodeStore(os.path.join(self.directory, f"{name}.sbt"), spec),
            )
            if isinstance(window, _AnyWindow) and spec.invertible:
                view_kwargs.setdefault(
                    "ended_store",
                    PagedNodeStore(
                        os.path.join(self.directory, f"{name}.ended.sbt"), spec
                    ),
                )
        view = TemporalAggregateView(
            name, relation, kind, key_of=key_of, window=window, **view_kwargs
        )
        self._views[name] = view
        return view

    def view(self, name: str) -> TemporalAggregateView:
        return self._views[name]

    def drop_view(self, name: str) -> None:
        """Detach a view and close + remove its persisted page stores.

        A dropped persistent view's ``<name>.sbt`` page file (and its
        write-ahead log, and the ``.ended.sbt`` pair of an ANY_WINDOW
        view) are deleted -- a dropped view that leaves pages or frames
        behind would resurrect stale aggregates if the name were ever
        reused.
        """
        view = self._views.pop(name)
        view.detach()
        for store in self._stores_of(view):
            pager = getattr(store, "pager", None)
            store.close()
            if pager is None:
                continue
            for path in (pager.path, pager.wal_path):
                if path and os.path.exists(path):
                    os.remove(path)

    # ------------------------------------------------------------------
    @staticmethod
    def _stores_of(view: TemporalAggregateView):
        return [
            store for index in view._indexes.values()
            for store in obs.stores_of(index)
        ]

    def maintenance_summary(self):
        """Per-view maintenance cost from the active metrics registry.

        Returns ``{view_name: op_summary}`` for every registered view
        that has recorded ``view.<name>.maintain`` operations; empty when
        observability is off (see :mod:`repro.obs`).
        """
        registry = obs.get_registry()
        if registry is None:
            return {}
        summaries = {}
        for name in self._views:
            op = f"view.{name}.maintain"
            summary = registry.op_summary(op)
            if summary["count"]:
                summaries[name] = summary
        return summaries

    def checkpoint(self) -> None:
        """Commit every persistent view store (a durable snapshot)."""
        for view in self._views.values():
            for store in self._stores_of(view):
                commit = getattr(store, "commit", None)
                if commit is not None:
                    commit()

    def close(self) -> None:
        """Commit and close every persistent view store and the dynamic
        catalog (checkpointing its watermarks when persistent)."""
        if self._dynamic is not None:
            self._dynamic.close()
        for view in self._views.values():
            for store in self._stores_of(view):
                store.close()

    def __enter__(self) -> "TemporalWarehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
