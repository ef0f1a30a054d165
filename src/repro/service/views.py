"""The dynamic-view surface of the service (see
:mod:`repro.warehouse.dynamic` and DESIGN.md sections 13-14).

Named base tables ingest rows via ``table_insert``; views over them are
declared, queried, refreshed, dropped and repaired by name; a background
tick drives the catalog's refresh scheduler (``tick`` <= 0 disables the
loop; ``lag="downstream"`` views and pinned reports still refresh on
demand).  The catalog has its own lock, so every operation runs in the
executor (``run``) like a tree operation.

On a primary, ``table_insert`` / ``create_view`` / ``drop_view`` are
also handed to ``ship`` -- a coroutine that records one catalog mutation
in the replication stream and returns once it is replicated -- and a
follower applies them with :meth:`ViewService.apply_shipped`, so a
promoted replica holds every view the primary did.  Whether this node
may mutate at all (it is not a replica) is the server's check, made
before any handler here runs.
"""

from __future__ import annotations

import asyncio
import logging
import traceback
from typing import Any, Dict, Tuple

from .. import obs
from ..core.intervals import Interval
from ..obs.health import record_view_gauges
from ..warehouse.dynamic import DynamicCatalog, ViewDependencyError, format_lag
from . import protocol as wire

__all__ = ["ViewService"]

logger = logging.getLogger(__name__)


def _view_row(item) -> Tuple[Any, Interval, Dict[str, Any]]:
    """Parse one ``table_insert`` row: ``[value, start, end]`` plus an
    optional payload dict (or a bare scalar shorthand, stored as
    ``{"key": <scalar>}`` for the common one-key grouping)."""
    if not isinstance(item, (list, tuple)) or len(item) not in (3, 4):
        raise wire.ProtocolError(
            "rows must be [value, start, end] or [value, start, end, payload]"
        )
    value, interval = wire.fact(item[0], item[1], item[2], "row")
    payload: Dict[str, Any] = {}
    if len(item) == 4 and item[3] is not None:
        raw = item[3]
        if isinstance(raw, dict):
            if not all(isinstance(k, str) for k in raw):
                raise wire.ProtocolError("payload keys must be strings")
            payload = dict(raw)
        else:
            payload = {"key": raw}
    return value, interval, payload


def _name(request: Dict[str, Any], field: str, op: str) -> str:
    name = request.get(field)
    if not isinstance(name, str) or not name:
        raise wire.ProtocolError(f"{op} needs a {field!r} string")
    return name


class ViewService:
    """The seven view ops, the tick loop, and shipped-event apply."""

    def __init__(
        self,
        catalog: DynamicCatalog,
        *,
        run,
        ship,
        registry: obs.MetricsRegistry,
        tick: float = 0.05,
    ) -> None:
        self.catalog = catalog
        self.tick = tick
        self.registry = registry
        self._run = run
        self._ship = ship
        self._tick_task = None

    def handlers(self) -> Dict[str, Any]:
        return {
            "table_insert": self.table_insert,
            "create_view": self.create_view,
            "query_view": self.query_view,
            "refresh_view": self.refresh_view,
            "drop_view": self.drop_view,
            "view_stats": self.view_stats,
            "repair_view": self.repair_view,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.tick > 0:
            self._tick_task = asyncio.get_running_loop().create_task(
                self._tick_loop()
            )

    async def stop(self) -> None:
        """Stop ticking and checkpoint the catalog (a no-op for
        in-memory ones) so persisted watermarks reflect everything
        acknowledged."""
        if self._tick_task is not None:
            self._tick_task.cancel()
            self._tick_task = None
        try:
            await self._run(self.catalog.close)
        except Exception:
            self.registry.counter("service.views.close_errors").inc()

    async def _tick_loop(self) -> None:
        """Drive the catalog's refresh scheduler off the event loop.

        Per-view failures inside a tick are isolated by the catalog
        (the view is quarantined, siblings keep refreshing) and
        surfaced here with the view's name and traceback plus a
        per-view error counter; a failing pass as a whole is counted,
        never fatal -- the next tick retries.
        """

        def on_error(name: str, exc: BaseException) -> None:
            self.registry.counter("service.views.refresh_errors").inc()
            self.registry.counter(f"service.views.{name}.refresh_errors").inc()
            logger.error(
                "view %r refresh failed (quarantined):\n%s",
                name,
                "".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                ),
            )

        try:
            while True:
                await asyncio.sleep(self.tick)
                try:
                    await self._run(lambda: self.catalog.tick(on_error=on_error))
                except Exception:
                    self.registry.counter("service.views.tick_errors").inc()
        except asyncio.CancelledError:
            pass

    async def _run_view(self, fn, *args, ctx=None, **kwargs):
        """Run a catalog operation in the executor, mapping the
        catalog's validation errors (unknown names, cycles, bad lags,
        non-maintainable aggregates) to ``bad_request`` -- they are
        client mistakes, not server faults."""
        try:
            if kwargs:
                return await self._run(lambda: fn(*args, **kwargs), ctx=ctx)
            return await self._run(fn, *args, ctx=ctx)
        except wire.ProtocolError:
            raise
        except (ViewDependencyError, ValueError) as exc:
            raise wire.ProtocolError(str(exc)) from None

    # ------------------------------------------------------------------
    # Catalog mutations (shared by the ops and the shipped-event apply)
    # ------------------------------------------------------------------
    def _insert_rows(self, table: str, rows) -> int:
        catalog = self.catalog
        with catalog.atomic():
            if not catalog.has_node(table):
                catalog.create_table(table)
            for value, interval, payload in rows:
                catalog.insert(table, value, interval, **payload)
        return len(rows)

    def _apply_event(self, event: Dict[str, Any]) -> None:
        """Apply one shipped catalog mutation to the local catalog.

        Tolerant by design: a resubscribe after a link fault can
        redeliver an event, so a create of an existing view and a drop
        of an unknown one are no-ops, and unknown kinds (from a newer
        primary) are skipped rather than fatal.
        """
        kind = event.get("kind")
        catalog = self.catalog
        if kind == "table_insert":
            table = event.get("table")
            rows = [_view_row(item) for item in event.get("rows") or ()]
            if isinstance(table, str) and table and rows:
                self._insert_rows(table, rows)
            return
        name = event.get("name" if kind == "create_view" else "view")
        if not isinstance(name, str) or not name:
            return
        with catalog.atomic():
            if kind == "create_view" and not catalog.has_node(name):
                catalog.create_view(
                    name,
                    list(event.get("over") or ()),
                    event.get("agg", "sum"),
                    key=event.get("key"),
                    lag=event.get("lag", "downstream"),
                    create_sources=True,
                )
            elif kind == "drop_view" and catalog.has_node(name):
                catalog.drop_view(name)

    async def apply_shipped(self, event: Dict[str, Any]) -> None:
        """Follower side: apply one event, never letting it poison the
        stream (failures are counted; the batch still acknowledges)."""
        try:
            await self._run(self._apply_event, event)
            self.registry.counter("service.repl.view_events_applied").inc()
        except Exception:
            self.registry.counter("service.repl.view_event_failures").inc()

    # ------------------------------------------------------------------
    # The ops
    # ------------------------------------------------------------------
    async def table_insert(self, request, sctx) -> Dict[str, Any]:
        table = _name(request, "table", "table_insert")
        raw = request.get("rows")
        if not isinstance(raw, list) or not raw:
            raise wire.ProtocolError("table_insert needs a non-empty 'rows' list")
        rows = [_view_row(item) for item in raw]
        applied = await self._run_view(self._insert_rows, table, rows, ctx=sctx)
        await self._ship(
            {
                "kind": "table_insert",
                "table": table,
                "rows": [
                    [value, iv.start, iv.end, payload]
                    for value, iv, payload in rows
                ],
            }
        )
        return wire.ok_reply({"applied": applied}, request)

    async def create_view(self, request, sctx) -> Dict[str, Any]:
        name = _name(request, "name", "create_view")
        over = request.get("over")
        if isinstance(over, str):
            over = [over]
        if (
            not isinstance(over, list)
            or not over
            or not all(isinstance(s, str) and s for s in over)
        ):
            raise wire.ProtocolError(
                "create_view needs 'over': a source name or list of names"
            )
        key = request.get("key")
        if key is not None and not isinstance(key, str):
            raise wire.ProtocolError("field 'key' must be a payload field name")

        def create():
            view = self.catalog.create_view(
                name,
                over,
                request.get("agg", "sum"),
                key=key,
                lag=request.get("lag", "downstream"),
                create_sources=True,
            )
            return {
                "name": view.name,
                "sources": view.sources,
                "agg": view.spec.kind.value,
                "key": view.key_field,
                "lag": format_lag(view.lag),
            }

        created = await self._run_view(create, ctx=sctx)
        await self._ship(
            {
                "kind": "create_view",
                "name": created["name"],
                "over": created["sources"],
                "agg": created["agg"],
                "key": created["key"],
                "lag": created["lag"],
            }
        )
        return wire.ok_reply(created, request)

    async def query_view(self, request, sctx) -> Dict[str, Any]:
        t = wire.instant(request.get("t"), "t")
        names = request.get("views")
        if names is not None:
            if (
                not isinstance(names, list)
                or not names
                or not all(isinstance(n, str) for n in names)
            ):
                raise wire.ProtocolError(
                    "field 'views' must be a non-empty list of view names"
                )
            pin = request.get("pin", True)
            report = await self._run_view(
                self.catalog.report, names, t, pin=bool(pin), ctx=sctx
            )
            return wire.ok_reply(report, request)
        name = request.get("view")
        if not isinstance(name, str) or not name:
            raise wire.ProtocolError("query_view needs 'view' (or 'views')")
        reading = await self._run_view(
            lambda: self.catalog.read(name, t, key=request.get("key")).to_json(),
            ctx=sctx,
        )
        return wire.ok_reply(reading, request)

    async def refresh_view(self, request, sctx) -> Dict[str, Any]:
        name = request.get("view")
        if name is not None and not isinstance(name, str):
            raise wire.ProtocolError("field 'view' must be a view name")
        refreshed = await self._run_view(self.catalog.refresh, name, ctx=sctx)
        return wire.ok_reply(
            {"refreshed": refreshed, "events": sum(refreshed.values())},
            request,
        )

    async def drop_view(self, request, sctx) -> Dict[str, Any]:
        name = _name(request, "view", "drop_view")
        await self._run_view(self.catalog.drop_view, name, ctx=sctx)
        await self._ship({"kind": "drop_view", "view": name})
        return wire.ok_reply({"dropped": name}, request)

    def stats(self) -> Dict[str, Any]:
        """Catalog stats, also published as registry gauges (blocking)."""
        stats = self.catalog.stats()
        record_view_gauges(self.registry, stats)
        return stats

    async def view_stats(self, request, sctx) -> Dict[str, Any]:
        return wire.ok_reply(await self._run(self.stats), request)

    async def repair_view(self, request, sctx) -> Dict[str, Any]:
        """Clear a quarantined view and retry its refresh.

        Deliberately node-local (allowed on replicas): quarantine is a
        per-catalog condition, so each node repairs its own copy.  A
        refresh that fails again re-quarantines and surfaces the error
        to the caller.
        """
        name = _name(request, "view", "repair_view")
        result = await self._run_view(self.catalog.repair, name, ctx=sctx)
        return wire.ok_reply(result, request)
