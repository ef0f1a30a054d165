"""The dynamic-view surface of the service (see
:mod:`repro.warehouse.dynamic` and DESIGN.md sections 13-14).

Named base tables ingest rows via ``table_insert``; views over them are
declared, queried, refreshed, dropped and repaired by name; a background
tick drives the catalog's refresh scheduler (``tick`` <= 0 disables the
loop; ``lag="downstream"`` views and pinned reports still refresh on
demand).  The catalog has its own lock, so every operation runs in the
executor (``run``) like a tree operation.

There is one write route: ``table_insert`` / ``create_view`` /
``drop_view`` are group-commit writes like ``insert``.  The server
parses each into a catalog change (:func:`change_of`, also its
replication record), and its one apply -- flush and follower replay
alike -- puts a batch's changes into the catalog with
:meth:`ViewService.apply`, so a promoted replica holds every view the
primary did.  Whether this node may mutate at all (it is not a
replica) is the server's check, made before any handler here runs.
"""

from __future__ import annotations

import asyncio
import logging
import traceback
from typing import Any, Dict, Tuple

from .. import obs
from ..core.intervals import Interval
from ..obs.health import record_view_gauges
from ..warehouse.dynamic import DynamicCatalog, format_lag
from . import protocol as wire

__all__ = ["ViewService"]

logger = logging.getLogger(__name__)


#: Payload keys that name a parameter of ``DynamicCatalog.insert``: a
#: row carrying one would fail mid-write, after the rows before it.
_RESERVED = frozenset(("self", "table", "value", "valid"))


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
            if not _RESERVED.isdisjoint(raw):
                raise wire.ProtocolError(
                    f"payload keys {sorted(_RESERVED)} are reserved"
                )
            payload = dict(raw)
        else:
            payload = {"key": raw}
    return value, interval, payload


def _name(request: Dict[str, Any], field: str, op: str) -> str:
    name = request.get(field)
    if not isinstance(name, str) or not name:
        raise wire.ProtocolError(f"{op} needs a {field!r} string")
    return name


def change_of(request: Dict[str, Any]) -> Dict[str, Any]:
    """The catalog change a ``table_insert`` / ``create_view`` /
    ``drop_view`` asks for: ``{"table", "rows"}`` or ``{"ddl": {"op",
    ...}}``.  Raises ``ProtocolError`` for a malformed request; what
    only the catalog can judge (a cycle, a name taken) is judged when
    the change applies."""
    op = request.get("op")
    if op == "table_insert":
        table = _name(request, "table", op)
        raw = request.get("rows")
        if not isinstance(raw, list) or not raw:
            raise wire.ProtocolError("table_insert needs a non-empty 'rows' list")
        rows = [_view_row(item) for item in raw]
        return {"table": table, "rows": [
            [value, iv.start, iv.end, payload] for value, iv, payload in rows
        ]}
    if op == "drop_view":
        return {"ddl": {"op": op, "view": _name(request, "view", op)}}
    name = _name(request, "name", op)
    over = request.get("over")
    over = [over] if isinstance(over, str) else over
    if not over or not isinstance(over, list) or not all(
        isinstance(s, str) and s for s in over
    ):
        raise wire.ProtocolError(
            "create_view needs 'over': a source name or list of names"
        )
    key = request.get("key")
    if key is not None and not isinstance(key, str):
        raise wire.ProtocolError("field 'key' must be a payload field name")
    return {"ddl": {"op": op, "name": name, "over": over, "key": key,
                    "agg": request.get("agg", "sum"),
                    "lag": request.get("lag", "downstream")}}


class ViewService:
    """The view ops that are not writes, the tick loop, and the catalog
    half of a batch's apply."""

    def __init__(
        self,
        catalog: DynamicCatalog,
        *,
        run,
        registry: obs.MetricsRegistry,
        tick: float = 0.05,
    ) -> None:
        self.catalog = catalog
        self.tick = tick
        self.registry = registry
        self._run = run
        self._tick_task = None

    def handlers(self) -> Dict[str, Any]:
        return {
            "query_view": self.query_view,
            "refresh_view": self.refresh_view,
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
        except ValueError as exc:  # ViewDependencyError included
            raise wire.ProtocolError(str(exc)) from None

    # ------------------------------------------------------------------
    # Catalog writes
    # ------------------------------------------------------------------
    def apply(self, writes) -> None:
        """Apply a batch's catalog changes in queue order, each under its
        own ``catalog.atomic()`` (blocking: the executor's), setting its
        write's ``result``.  A change the catalog refuses (a cycle, a
        name taken, a view given as a table) gets a ``ProtocolError`` --
        a client mistake -- and its siblings still apply."""
        for write in writes:
            if write.change is None:
                continue
            try:
                with self.catalog.atomic():
                    write.result = self._apply_change(write.change)
            except Exception as exc:
                write.result = (
                    wire.ProtocolError(str(exc))
                    if isinstance(exc, ValueError) else exc
                )

    def _apply_change(self, change: Dict[str, Any]) -> Dict[str, Any]:
        catalog = self.catalog
        table = change.get("table")
        if table is not None:
            rows = [_view_row(item) for item in change["rows"]]
            if not catalog.has_node(table):
                catalog.create_table(table)
            for value, interval, payload in rows:
                catalog.insert(table, value, interval, **payload)
            return {"applied": len(rows)}
        ddl = change["ddl"]
        if ddl["op"] == "drop_view":
            catalog.drop_view(ddl["view"])
            return {"dropped": ddl["view"]}
        view = catalog.create_view(
            ddl["name"], ddl["over"], ddl["agg"], key=ddl["key"],
            lag=ddl["lag"], create_sources=True,
        )
        return {
            "name": view.name,
            "sources": view.sources,
            "agg": view.spec.kind.value,
            "key": view.key_field,
            "lag": format_lag(view.lag),
        }

    # ------------------------------------------------------------------
    # The ops
    # ------------------------------------------------------------------
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
