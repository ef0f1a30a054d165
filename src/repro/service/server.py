"""The asyncio TCP front end over a :class:`~repro.sharding.ShardedTree`.

Stdlib-only.  One event loop owns all connections.  Whatever can block
-- a batch apply and its commit, a view refresh, a read that has to
wait for a writer or may write a page back -- runs in a small thread
pool, so a slow (or fault-injected) shard apply delays only the requests
waiting on it, never the loop.  A ``lookup`` that can do neither is
O(h) and is answered on the loop itself; every other read of one
wake-up shares one pool job (:mod:`~repro.service.connection` has the
two routes and the argument).  :class:`TemporalAggregateServer` is the
composition root over four components, each owning its state
exclusively:

* :mod:`~repro.service.connection` -- the frame loop, admission
  control, per-connection backpressure, deadline shedding, the reply
  writer, the two read routes and the write burst.
* :mod:`~repro.service.groupcommit` -- the pending write queue, its
  one flusher task, and the exactly-once dedup window: the one route
  of every mutating op, view DDL and ``table_insert`` included.
* :mod:`~repro.service.replication` -- the publisher a primary streams
  committed batches from (semi-sync by default) and the follower a
  server started with ``replica_of`` runs instead of accepting writes.
* :mod:`~repro.service.views` -- the dynamic-view reads, their tick
  and the catalog half of a batch's apply.

What stays here is the wiring between them and what only the whole can
decide: the op table and the one not-primary check, the tree reads as
one blocking callable (``_read``), the writes' hand-over to the group
commit (``_submit_write``), the one ``_apply`` of a batch (flush and
replay alike), the executor, the exception -> error-reply mapping,
``stats``, and:

* **Durable acks.**  Every shard is a page file with its write-ahead
  log (the constructor refuses anything else), and every group-commit flush
  ends in :meth:`~repro.sharding.ShardedTree.commit` before the batch's
  waiters are acknowledged: an acked write is on disk.  The dedup
  window and the replication watermark ride the same commit's header
  metadata, so they survive a crash-restart atomically with the data.
  The view catalog does not: it is in memory only, so a restarted
  primary comes back with no views and no base-table rows.
* **Graceful drain.**  ``stop()`` refuses new writes
  (``ERR_SHUTTING_DOWN``), flushes and commits the pending batch,
  closes the listener, waits for in-flight requests to reply, and only
  then closes connections.
* **Roles.**  A replica serves reads tagged with its applied-commit
  watermark and rejects every mutating op with ``ERR_NOT_PRIMARY`` + a
  redirect hint; ``promote`` seals the stream and flips it into a
  primary with the exactly-once dedup window intact.
* **Observability.**  Every component counts into one
  :class:`~repro.obs.MetricsRegistry` under ``service.*`` (docs/API.md
  lists every name); the ``stats`` op serves them to clients.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from .. import obs
from ..concurrent import LockTimeout
from ..core.intervals import Interval
from ..core.results import finalized_rows
from ..faults import SimulatedCrash
from ..obs import trace
from ..obs.health import record_health, sharded_health
from ..sharding import ShardedTree, ShardingError, WindowUnsupportedError
from ..warehouse.dynamic import DynamicCatalog
from . import protocol as wire
from .connection import Connections, DeadlineExpired
from .groupcommit import DEDUP_META_KEY, CommitFailed, Draining, GroupCommitter
from .groupcommit import applied, applied_keys
from .replication import (
    Follower,
    Publisher,
    ReplicationError,
    split_records,
    write_records,
)
from .views import ViewService, change_of

__all__ = ["TemporalAggregateServer", "ServerHandle"]

#: Header-metadata key the replication commit watermark is persisted
#: under.  Written inside every group commit (primaries write
#: their commit-log head, replicas their applied commit), so a restarted
#: process knows exactly where in the replication stream its on-disk
#: state sits: a primary restores its commit numbering (and refuses
#: followers that would need the unretained prefix), a replica resumes
#: its subscription from the watermark instead of refetching history.
REPL_COMMIT_META_KEY = "service.repl.commit"

#: Ops a replica refuses (``repair_view`` is node-local by design).
MUTATING_OPS = frozenset(
    ("insert", "batch_insert", "table_insert", "create_view",
     "refresh_view", "drop_view")
)


#: Seconds a drain (``stop``) or a promotion waits for in-flight
#: requests and the follower's sealed stream before giving up on them.
DRAIN_TIMEOUT = 5.0


class NotPrimary(Exception):
    """A write reached a replica; the client must redirect."""


class TemporalAggregateServer:
    """Serve one sharded temporal-aggregate index over TCP.

    Every shard store must be a page file
    (:meth:`ShardedTree.open <repro.sharding.ShardedTree.open>`); an
    in-memory store raises :class:`ValueError`.  ``batch_delay`` is
    accepted and ignored: group commit has no timer (the frozen
    ``bench/workloads/service.py`` still passes it)."""

    def __init__(
        self,
        sharded: ShardedTree,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_max: int = 64,
        batch_delay: float = 0.002,
        health_interval: float = 0.0,
        max_inflight: int = 256,
        dedup_window: int = 128,
        registry: Optional[obs.MetricsRegistry] = None,
        replica_of: Optional[str] = None,
        replica_name: Optional[str] = None,
        repl_sync: bool = True,
        repl_ack_timeout: float = 10.0,
        view_tick: float = 0.05,
    ) -> None:
        # Duck-typed: a tracing proxy around a store forwards ``pager``.
        if not all(
            getattr(shard.tree.store, "pager", None) is not None
            for shard in sharded.shards
        ):
            raise ValueError(
                "the service serves page files only: open the shards "
                "with ShardedTree.open(directory, ...)"
            )
        self.sharded = sharded
        self.host = host
        self.port = port
        self.health_interval = health_interval
        self.registry = registry if registry is not None else obs.MetricsRegistry()
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, sharded.num_shards + 2),
            thread_name_prefix="repro-service",
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._health_task: Optional[asyncio.Task] = None
        self._promote_lock: Optional[asyncio.Lock] = None
        #: Backoff hint for overload/drain rejections (seconds).
        self._retry_after = 0.05
        # A flush's commit number is fixed before its apply, so the
        # watermark rides its commit; flushes are serialized, so it is
        # the number _on_committed publishes under.
        self.committer = GroupCommitter(
            lambda writes, collector: self._apply(
                writes, self.publisher.head + 1, collector
            ),
            self._on_committed,
            registry=self.registry,
            batch_max=batch_max,
            dedup_window=dedup_window,
        )
        self.committer.dedup_budget = min(
            shard.tree.store.pager.page_size for shard in sharded.shards
        ) // 2
        self.committer.load(sharded.get_meta(DEDUP_META_KEY))
        # The durable watermark ties the on-disk tree to a position in
        # the commit stream (see REPL_COMMIT_META_KEY); both roles
        # restore it on open.
        restored = 0
        for raw in sharded.get_meta(REPL_COMMIT_META_KEY):
            try:
                restored = max(restored, int(raw))
            except (TypeError, ValueError):
                pass
        layout = {
            "kind": sharded.spec.kind.value,
            "boundaries": list(sharded.router.boundaries),
        }
        self.publisher = Publisher(
            base=restored,
            layout=layout,
            registry=self.registry,
            sync=repl_sync,
            ack_timeout=repl_ack_timeout,
        )
        #: The replication follower while this node is a replica.
        self.follower: Optional[Follower] = None
        if replica_of is not None:
            self.follower = Follower(
                replica_of,
                self._apply_replicated,
                applied=restored,
                layout=layout,
                registry=self.registry,
                idle=max(3.0 * self.publisher.heartbeat, 2.0),
                name=replica_name,
            )
        self.views = DynamicCatalog()
        self.view_service = ViewService(
            self.views,
            run=self._run,
            registry=self.registry,
            tick=view_tick,
        )
        self.connections = Connections(
            sharded,
            dispatch=self._dispatch,
            read=self._read,
            submit=self._submit_write,
            run=self._run,
            error_reply_for=self._error_reply_for,
            control={
                "subscribe_journal": self._subscribe_journal,
                "journal_ack": self._journal_ack,
            },
            follower=lambda: self.follower,
            registry=self.registry,
            max_inflight=max_inflight,
            retry_after=self._retry_after,
        )
        self._handlers = {
            "ping": self._op_ping,
            "stats": self._op_stats,
            "promote": self._op_promote,
            **self.view_service.handlers(),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the real port."""
        self._loop = asyncio.get_running_loop()
        self._promote_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self.connections.handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.health_interval > 0:
            self._health_task = self._loop.create_task(self._health_loop())
        self.view_service.start()
        if self.follower is not None:
            if self.follower.name is None:
                self.follower.name = f"{self.host}:{self.port}"
            self.follower.start()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Graceful drain: refuse and flush writes, answer in-flight."""
        await self.committer.drain()
        if self.follower is not None:
            await self.follower.seal(DRAIN_TIMEOUT)
        self.publisher.stop()
        if self._health_task is not None:
            self._health_task.cancel()
            self._health_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.connections.drain(DRAIN_TIMEOUT)
        await self.view_service.stop()
        self._executor.shutdown(wait=True)

    async def _health_loop(self) -> None:
        """Periodically publish tree-health gauges to the registry."""
        try:
            while True:
                await asyncio.sleep(self.health_interval)
                try:
                    await self._run(self.refresh_health)
                except Exception:
                    self.registry.counter("service.health.poll_errors").inc()
        except asyncio.CancelledError:
            pass

    def refresh_health(self) -> Dict[str, Any]:
        """Snapshot shard health and record it as registry gauges.

        Blocking (takes each shard's read lock): call from the executor
        or another non-loop thread (the ``/metrics`` endpoint does).
        """
        health = sharded_health(self.sharded)
        record_health(self.registry, health)
        try:
            (self.follower or self.publisher).refresh_gauges()
        except Exception:
            pass  # gauge refresh races the loop; never fail a scrape
        return health

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        request: Dict[str, Any],
        sctx: Optional[trace.TraceContext] = None,
    ) -> Dict[str, Any]:
        op = request.get("op")
        handler = self._handlers.get(op)
        if handler is None:
            raise_op = repr(op) if op is not None else "missing 'op' field"
            return wire.error_reply(
                wire.ERR_UNKNOWN_OP, f"unknown op {raise_op}", request
            )
        self._refuse_on_replica(op)
        return await handler(request, sctx)

    def _refuse_on_replica(self, op) -> None:
        if self.follower is not None and op in MUTATING_OPS:
            raise NotPrimary(
                "this server is a read replica; send writes to the primary"
            )

    async def _op_ping(self, request, sctx) -> Dict[str, Any]:
        return wire.ok_reply("pong", request)

    def _submit_write(self, request, sctx) -> "asyncio.Future":
        """Hand one write -- facts, or a view op's catalog change -- to
        the group commit, to apply exactly once (per idempotency key):
        returns the future of its result, or raises why it was refused.
        Never suspends -- the connection layer's write burst submits in
        arrival order."""
        op = request.get("op")
        self._refuse_on_replica(op)
        if op == "insert":
            raw = [(request.get("value"), request.get("start"), request.get("end"))]
        elif op == "batch_insert":
            raw = request.get("facts")
            if not isinstance(raw, list) or not raw:
                raise wire.ProtocolError("batch_insert needs a non-empty 'facts' list")
        else:
            change = change_of(request)
            return self.committer.submit([], wire.idem_key(request), sctx, change)
        facts = []
        for item in raw:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise wire.ProtocolError("facts must be [value, start, end] triples")
            facts.append(wire.fact(*item))
        return self.committer.submit(facts, wire.idem_key(request), sctx)

    def _read(self, request: Dict[str, Any], wait: bool = True) -> Any:
        """The three tree reads (``lookup``, ``rangeq``, ``window``):
        validate, run, return the result.  Blocking -- the connection
        layer runs it inside an executor job, one job per burst -- except
        ``lookup`` with ``wait=False``, which it calls on the loop and
        which raises :class:`~repro.sharding.WouldBlock` instead of
        waiting for a lock or writing a page."""
        op = request.get("op")
        sharded = self.sharded
        if op == "lookup":
            t = wire.instant(request.get("t"), "t")
            return sharded.spec.finalize(sharded.lookup(t, wait=wait))
        if op == "rangeq":
            start = wire.number(request.get("start"), "start")
            end = wire.number(request.get("end"), "end")
            if not start < end:
                raise wire.ProtocolError(f"empty range [{start}, {end})")
            edges, values = sharded.steps(Interval(start, end))
            return finalized_rows(edges, values, sharded.spec)
        t = wire.instant(request.get("t"), "t")
        w = wire.instant(request.get("w"), "w")
        return sharded.spec.finalize(sharded.window_lookup(t, w))

    async def _op_stats(self, request, sctx) -> Dict[str, Any]:
        return wire.ok_reply(await self._run(self._stats), request)

    def _stats(self) -> Dict[str, Any]:
        health = self.refresh_health()
        ops = {
            name: self.registry.op_summary(name)
            for name in self.registry.op_names()
            if name.startswith("service.")
        }
        snapshot = self.registry.to_dict()
        # Zero-valued counters are pre-bound hot-path handles, not
        # events that happened; the stats view shows only the latter.
        counters = {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith("service.") and value
        }
        spans = {
            name[len("span."):-len(".wall_us")]: hist
            for name, hist in snapshot["histograms"].items()
            if name.startswith("span.") and name.endswith(".wall_us")
        }
        committer = self.committer.stats()
        return {
            "kind": self.sharded.spec.kind.value,
            "shards": self.sharded.stats(),
            "health": health,
            "ops": ops,
            "counters": counters,
            "gauges": snapshot.get("gauges", {}),
            "spans": spans,
            "batch": {
                **committer["batch"],
                "size": snapshot["histograms"].get("service.batch.size"),
                "oldest_wait_us": snapshot["histograms"].get(
                    "service.batch.oldest_wait_us"
                ),
            },
            "resilience": {
                "dedup": committer["dedup"],
                **self.connections.stats(),
            },
            "replication": (self.follower or self.publisher).stats(),
            "views": self.view_service.stats(),
        }

    def _error_reply_for(
        self, exc: BaseException, request, trace_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """The one exception -> error-reply mapping, for every reply path.

        Subclasses are tested before their bases
        (``WindowUnsupportedError`` is a ``ShardingError``).  *trace_id*
        lands in the ``server_error`` fallback only, where an operator
        needs it to find the failing request's spans.
        """
        if isinstance(exc, DeadlineExpired):
            return wire.error_reply(wire.ERR_DEADLINE, str(exc), request)
        if isinstance(exc, Draining):
            return wire.error_reply(
                wire.ERR_SHUTTING_DOWN, str(exc), request,
                retry_after=self._retry_after,
            )
        if isinstance(exc, (WindowUnsupportedError, ReplicationError)):
            return wire.error_reply(wire.ERR_UNSUPPORTED, str(exc), request)
        if isinstance(exc, (wire.ProtocolError, ShardingError)):
            return wire.error_reply(wire.ERR_BAD_REQUEST, str(exc), request)
        if isinstance(exc, SimulatedCrash):
            return wire.error_reply(wire.ERR_FAULT, str(exc), request)
        if isinstance(exc, LockTimeout):
            return wire.error_reply(wire.ERR_TIMEOUT, str(exc), request)
        if isinstance(exc, NotPrimary):
            return wire.error_reply(
                wire.ERR_NOT_PRIMARY, str(exc), request,
                primary=self.follower and self.follower.primary_hint(),
            )
        return wire.error_reply(
            wire.ERR_SERVER, f"{type(exc).__name__}: {exc}", request,
            trace_id=trace_id,
        )

    # ------------------------------------------------------------------
    # Wiring: commits, the replication stream, roles
    # ------------------------------------------------------------------
    def _apply_batch(self, facts, meta, collector) -> None:
        """Executor half of a flush: apply the facts, then commit."""
        if collector is not None:
            with collector.recording():
                self.sharded.batch_insert(facts)
        else:
            self.sharded.batch_insert(facts)
        try:
            self.sharded.commit(meta)
        except Exception as exc:
            raise CommitFailed(str(exc)) from exc

    async def _apply(self, writes, commit: int, collector=None) -> None:
        """Apply one batch of writes as replication commit *commit*: the
        committer's ``apply`` on a primary, the follower's replay.  The
        catalog changes go first, in one executor job (none for facts
        only); then, on the loop, the dedup window over the keys that
        applied joins the commit metadata; a second job puts the facts
        into the shards and runs the one ``sharded.commit``.  A batch in
        which every change was refused commits nothing."""
        if any(write.change is not None for write in writes):
            await self._run(self.view_service.apply, writes)
            if not applied(writes):
                return
        meta = self.committer.commit_meta(applied_keys(writes))
        meta[REPL_COMMIT_META_KEY] = str(commit)
        facts = [fact for write in writes for fact in write.facts]
        await self._run(self._apply_batch, facts, meta, collector)

    async def _on_committed(self, writes) -> None:
        """Ship the applied writes of one flush as one commit and
        (semi-sync) await follower acks."""
        seq = self.publisher.publish(write_records(writes))
        await self.publisher.replicated(seq)

    async def _subscribe_journal(self, request, out) -> None:
        """Turn a connection into a follower's push stream."""
        if self.follower is not None:
            raise NotPrimary("cannot subscribe to a replica; follow the primary")
        async with self.committer.serialized():
            self.publisher.subscribe(request, out.writer)
        try:
            await out.writer.drain()
        except ConnectionError:
            pass

    async def _journal_ack(self, request, out) -> Dict[str, Any]:
        return self.publisher.ack(request)

    async def _apply_replicated(self, records, commit: int) -> int:
        """The follower's ``apply``: one shipped batch through the
        primary's :meth:`_apply`.  The idempotency keys are serialized
        into the commit payload *before* the apply and recorded in
        memory after it, so after a promotion the dedup window is
        exactly as authoritative as it was on the primary at this
        commit."""
        writes = split_records(records)
        try:
            await self._apply(writes, commit)
        except CommitFailed:
            # Applied in memory, commit failed: mirror the primary's
            # degraded-durability handling (the next successful commit
            # persists everything up to its watermark).
            self.registry.counter("service.repl.commit_failures").inc()
        self.committer.remember(applied_keys(writes))
        return sum(len(write.facts) for write in writes)

    async def _op_promote(self, request, sctx) -> Dict[str, Any]:
        """Seal the stream and turn this replica into a primary.

        The promoted server starts a fresh commit log based at its
        applied watermark -- its first write becomes commit
        ``applied + 1`` -- and keeps the dedup window the stream
        delivered, so pre-failover idempotency keys still answer
        ``duplicate: true``.
        """
        assert self._promote_lock is not None
        async with self._promote_lock:
            follower = self.follower
            if follower is not None:
                await follower.seal(DRAIN_TIMEOUT)
                self.publisher.rebase(follower.applied)
                self.follower = None
                self.registry.counter("service.repl.promotions").inc()
                self.publisher.refresh_gauges()
            return wire.ok_reply(
                {
                    "promoted": follower is not None,
                    "role": "primary",
                    "commit": self.publisher.head,
                },
                request,
            )

    async def _run(self, fn, *args, ctx: Optional[trace.TraceContext] = None):
        """Run a blocking tree operation in the service thread pool.

        ``ctx``, when given, is activated as the executor thread's trace
        context for the duration of the call, so spans the operation
        opens become children of the request's server span.
        """
        assert self._loop is not None
        if ctx is not None:
            return await self._loop.run_in_executor(
                self._executor, trace.wrap(ctx, fn, *args)
            )
        return await self._loop.run_in_executor(self._executor, fn, *args)


class ServerHandle:
    """A server running on a background thread (tests and examples).

    ``ServerHandle.start(sharded)`` spins up an event loop thread, binds
    an ephemeral port, and returns once the server accepts connections;
    ``stop()`` drains gracefully and joins the thread.
    """

    def __init__(self, server: TemporalAggregateServer, thread, loop) -> None:
        self.server = server
        self._thread = thread
        self._loop = loop
        self._stopped = threading.Event()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @classmethod
    def start(cls, sharded: ShardedTree, **kwargs) -> "ServerHandle":
        ready = threading.Event()
        box: Dict[str, Any] = {}

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            server = TemporalAggregateServer(sharded, **kwargs)
            stop_event = asyncio.Event()

            async def main() -> None:
                try:
                    await server.start()
                finally:
                    box["server"] = server
                    box["loop"] = loop
                    box["stop_event"] = stop_event
                    ready.set()
                await stop_event.wait()
                await server.stop()

            try:
                loop.run_until_complete(main())
            except Exception as exc:  # surface startup failures to caller
                box.setdefault("error", exc)
                ready.set()
            finally:
                loop.close()

        thread = threading.Thread(target=run, name="repro-service", daemon=True)
        thread.start()
        ready.wait(timeout=10)
        if "error" in box:
            raise box["error"]
        if "server" not in box:
            raise RuntimeError("service thread failed to start")
        handle = cls(box["server"], thread, box["loop"])
        handle._stop_event = box["stop_event"]
        return handle

    def stop(self, timeout: float = 10.0) -> None:
        """Request a graceful drain and wait for the thread to exit."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
