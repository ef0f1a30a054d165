"""The asyncio TCP front end over a :class:`~repro.sharding.ShardedTree`.

Stdlib-only.  One event loop owns all connections; tree operations run
in a small thread pool so shard read locks actually overlap and a slow
(or fault-injected) shard apply delays only the requests waiting on it,
never the loop.  The moving parts:

* **Dual-codec wire.**  Each reply goes out in the codec its request
  frame arrived in (JSON or struct-packed binary, auto-detected per
  frame); the ``hello`` op grants clients the binary codec.  Dispatch
  is codec-agnostic -- both codecs decode to identical request dicts.
* **Group commit.**  ``insert``/``batch_insert`` requests do not touch
  the tree directly: their facts join a pending batch, and a flush is
  triggered when the batch reaches ``batch_max`` facts or the oldest
  waiter has aged ``batch_delay`` seconds.  One flush groups every
  fact's pieces per shard and applies them with *one* write-lock
  acquisition per touched shard (:meth:`ShardedTree.batch_insert`), so
  k concurrent writers cost one lock round per shard, not one per
  fact.  Writers are acknowledged only after their whole batch applied.
* **Backpressure.**  Each connection holds a semaphore of
  ``queue_limit`` in-flight requests; when it is exhausted the reader
  coroutine stops reading frames, which propagates to the client
  through TCP flow control -- a bounded per-connection queue with no
  explicit queue object.
* **Structured errors.**  Every failure the server can attribute to a
  request -- unknown op, bad arguments, unsupported window kind, an
  injected fault, a shard lock timeout -- produces an ``{"ok": false,
  "error": {...}}`` reply on the same connection.  Only unframeable
  garbage closes the connection (after a best-effort error frame).
* **Exactly-once writes.**  Mutating requests may carry an idempotency
  key ``(client, seq)``; applied keys are remembered in a
  :class:`~repro.service.dedup.DedupWindow` and duplicates are answered
  by replaying the original reply (``"duplicate": true``) instead of
  re-applying -- blind client retries cannot double-count a SUM.  When
  the shards are store-backed, the window is serialized into the page
  file's header metadata *inside* the group commit, so dedup state and
  tree data survive a crash-restart atomically.
* **Durable acks.**  With store-backed shards, every group-commit flush
  ends in :meth:`~repro.sharding.ShardedTree.commit` before the batch's
  waiters are acknowledged: an acked write is on disk, mirroring the
  pager's acked-write contract over the network.
* **Overload protection.**  Admission control bounds the *global*
  in-flight request count and bytes (``max_inflight`` /
  ``max_inflight_bytes``); requests beyond the bound are rejected
  immediately with ``ERR_OVERLOADED`` and a ``retry_after`` hint,
  before they consume a queue slot.  Requests carrying ``deadline_ms``
  are shed with ``ERR_DEADLINE`` if their budget expired while queued.
* **Graceful drain.**  ``stop()`` closes the listener, flushes (and,
  when durable, commits) the pending write batch, waits for in-flight
  requests to reply, and only then closes connections.  Writes arriving
  during the drain get ``ERR_SHUTTING_DOWN``.
* **Observability.**  Per-op counters and latency histograms land in a
  :class:`~repro.obs.MetricsRegistry` under ``service.<op>.*`` (reusing
  the ``op.*`` record machinery), plus ``service.batch.size``, flush,
  dedup, overload, and deadline counters; the ``stats`` op serves them
  to clients.
* **Replication.**  A primary ships every committed batch to
  subscribed followers (``subscribe_journal`` / ``journal_batch``, see
  :mod:`repro.service.replication`) and, by default, holds each
  write's ack until every live follower has applied it (semi-sync,
  bounded by ``repl_ack_timeout``).  A server started with
  ``replica_of`` follows a primary instead of accepting writes: reads
  are served tagged with the applied-commit watermark, writes are
  rejected with ``ERR_NOT_PRIMARY`` + a redirect hint, and the
  ``promote`` op seals the stream and flips the replica into a
  primary with the exactly-once dedup window intact.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import traceback
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from .. import obs
from ..concurrent import LockTimeout
from ..core.intervals import Interval
from ..faults import SimulatedCrash
from ..obs import trace
from ..obs.health import record_health, record_view_gauges, sharded_health
from ..sharding import ShardedTree, ShardingError, WindowUnsupportedError
from ..warehouse.dynamic import DynamicCatalog, ViewDependencyError
from . import dedup as dedup_mod
from . import protocol as wire
from .dedup import DedupWindow
from .replication import CommitLog, ReplicationError, decode_records, encode_records

__all__ = ["TemporalAggregateServer", "ServerHandle"]

logger = logging.getLogger(__name__)

#: Header-metadata key the dedup window is persisted under.
DEDUP_META_KEY = "service.dedup"

#: Header-metadata key the replication commit watermark is persisted
#: under.  Written inside every durable group commit (primaries write
#: their commit-log head, replicas their applied commit), so a restarted
#: process knows exactly where in the replication stream its on-disk
#: state sits: a primary restores its commit numbering (and refuses
#: followers that would need the unretained prefix), a replica resumes
#: its subscription from the watermark instead of refetching history.
REPL_COMMIT_META_KEY = "service.repl.commit"


def _number(value: Any, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise wire.ProtocolError(f"field {field!r} must be a number")
    return value


class _InlineAck:
    """Reply slot for an insert enqueued straight from the read loop.

    Takes the place of the per-request ``asyncio.Future`` waiter in the
    group-commit batch: instead of a task awaiting the future and then
    sending its own reply, the flush writes every inline ack of a
    connection in one coalesced ``write``.  ``future`` is non-None only
    when the request carried an idempotency key -- duplicate deliveries
    racing the flush join it via ``_dedup_pending`` exactly as they join
    a slow-path insert.
    """

    __slots__ = ("writer", "write_lock", "request", "codec", "future", "arrival")

    def __init__(self, writer, write_lock, request, codec, future, arrival):
        self.writer = writer
        self.write_lock = write_lock
        self.request = request
        self.codec = codec
        self.future = future
        self.arrival = arrival


class _Draining(Exception):
    """A write arrived while the server is draining."""


class _DeadlineExpired(Exception):
    """A request's propagated deadline lapsed before dispatch."""


class _CommitFailed(Exception):
    """The batch applied but its durability commit failed."""


class _NotPrimary(Exception):
    """A write reached a replica; the client must redirect."""


class _StreamReset(Exception):
    """The follower must drop and re-establish its subscription
    (idle link, sequence gap, corrupt batch) -- transient by design:
    resubscribing from the applied watermark loses nothing."""


class _StreamRejected(Exception):
    """The upstream refused the subscription (wrong shard layout,
    diverged history, itself a replica); retried slowly -- the
    condition usually needs an operator (or a promotion) to clear."""


class _Subscriber:
    """One follower's registration on a primary."""

    __slots__ = ("name", "writer", "codec", "acked", "last_ack")

    def __init__(self, name: str, writer, codec: str, acked: int) -> None:
        self.name = name
        self.writer = writer
        self.codec = codec
        self.acked = acked
        self.last_ack: Optional[float] = None


def _idem_key(request: Dict[str, Any]) -> Optional[dedup_mod.IdemKey]:
    """Validate and extract the request's idempotency key, if any."""
    client = request.get("client")
    seq = request.get("seq")
    if client is None and seq is None:
        return None
    if not isinstance(client, str) or not client:
        raise wire.ProtocolError("field 'client' must be a non-empty string")
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
        raise wire.ProtocolError("field 'seq' must be a positive integer")
    return client, seq


class TemporalAggregateServer:
    """Serve one sharded temporal-aggregate index over TCP."""

    def __init__(
        self,
        sharded: ShardedTree,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_max: int = 64,
        batch_delay: float = 0.002,
        queue_limit: int = 32,
        drain_timeout: float = 5.0,
        health_interval: float = 0.0,
        max_inflight: int = 256,
        max_inflight_bytes: int = 32 * 1024 * 1024,
        dedup_window: int = 128,
        registry: Optional[obs.MetricsRegistry] = None,
        executor: Optional[ThreadPoolExecutor] = None,
        replica_of: Optional[str] = None,
        replica_name: Optional[str] = None,
        repl_sync: bool = True,
        repl_ack_timeout: float = 10.0,
        repl_heartbeat: float = 0.5,
        repl_log_cap: int = 64 * 1024 * 1024,
        views: Optional[DynamicCatalog] = None,
        view_tick: float = 0.05,
    ) -> None:
        if batch_max < 1:
            raise ValueError("batch_max must be at least 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if max_inflight < 1 or max_inflight_bytes < 1:
            raise ValueError("inflight bounds must be positive")
        self.sharded = sharded
        self.host = host
        self.port = port
        self.batch_max = batch_max
        self.batch_delay = batch_delay
        self.queue_limit = queue_limit
        self.drain_timeout = drain_timeout
        self.health_interval = health_interval
        self.max_inflight = max_inflight
        self.max_inflight_bytes = max_inflight_bytes
        self.registry = registry if registry is not None else obs.MetricsRegistry()
        self._executor = executor or ThreadPoolExecutor(
            max_workers=max(4, sharded.num_shards + 2),
            thread_name_prefix="repro-service",
        )
        self._owns_executor = executor is None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._inflight: set = set()
        self._inflight_bytes = 0
        self._connections: set = set()
        # Group-commit state (only touched from the event loop).  Each
        # entry carries the waiter's trace context (or None) so a flush
        # can replay its spans under every sampled participant, plus the
        # request's idempotency key (or None).
        self._pending: List[
            Tuple[
                List[Tuple[Any, Interval]],
                asyncio.Future,
                Optional[trace.TraceContext],
                Optional[dedup_mod.IdemKey],
            ]
        ] = []
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._flush_lock: Optional[asyncio.Lock] = None
        self._health_task: Optional[asyncio.Task] = None
        # Exactly-once state: applied keys, and keys whose batch is in
        # flight (duplicates of those join the batch's future instead of
        # enqueueing a second apply).
        self._durable = sharded.durable
        self._dedup = DedupWindow(per_client=dedup_window)
        self._dedup_pending: Dict[dedup_mod.IdemKey, asyncio.Future] = {}
        loaded = self._dedup.load(sharded.get_meta(DEDUP_META_KEY))
        if loaded:
            self.registry.counter("service.dedup.loaded").inc(loaded)
        # Replication state.  The durable watermark ties the on-disk
        # tree to a position in the commit stream (see
        # REPL_COMMIT_META_KEY); both roles restore it on open.
        restored = 0
        for raw in sharded.get_meta(REPL_COMMIT_META_KEY):
            try:
                restored = max(restored, int(raw))
            except (TypeError, ValueError):
                pass
        self._is_replica = replica_of is not None
        self._promoted = False
        self._primary_addr: Optional[Tuple[str, int]] = None
        if replica_of is not None:
            try:
                if isinstance(replica_of, str):
                    phost, _, pport = replica_of.rpartition(":")
                    self._primary_addr = (phost, int(pport))
                else:
                    phost, pport = replica_of
                    self._primary_addr = (str(phost), int(pport))
            except (TypeError, ValueError):
                raise ValueError(
                    f"replica_of must be 'host:port', got {replica_of!r}"
                ) from None
        self.replica_name = replica_name
        self.repl_sync = repl_sync
        self.repl_ack_timeout = repl_ack_timeout
        self.repl_heartbeat = repl_heartbeat
        self.repl_log_cap = repl_log_cap
        # Primary side: the bounded commit log and its subscribers.
        self._commit_log = CommitLog(base=restored, cap_bytes=repl_log_cap)
        self._stream_id = uuid.uuid4().hex
        self._had_subscriber = False
        # True while the semi-sync floor must hold even with zero live
        # subscriber connections (a follower exists but is mid-reconnect
        # after a link fault); cleared only by a full ack-timeout
        # degrade, set again the moment a follower (re)subscribes.
        self._repl_expected = False
        self._subscribers: Dict[str, _Subscriber] = {}
        self._ack_waiters: List[Tuple[int, asyncio.Future]] = []
        self._heartbeat_task: Optional[asyncio.Task] = None
        # Follower side: applied watermark and the follow loop.
        self._applied_commit = restored
        self._stream_head = restored
        self._last_stream_mono: Optional[float] = None
        self._gap_since: Optional[float] = None
        self._repl_idle = max(3.0 * repl_heartbeat, 2.0)
        self._repl_connected = False
        self._repl_last_error: Optional[str] = None
        self._repl_sealed = False
        self._follow_task: Optional[asyncio.Task] = None
        self._follow_writer = None
        self._repl_stop: Optional[asyncio.Event] = None
        self._promote_lock: Optional[asyncio.Lock] = None
        # Hot-path bindings, resolved once instead of per request: the
        # profile of the dispatch loop showed registry name lookups and
        # the op if-chain costing more than the tree work for ping-sized
        # requests.
        self._m_errors = self.registry.counter("service.errors")
        self._m_overload = self.registry.counter("service.overload.rejected")
        self._m_deadline_shed = self.registry.counter("service.deadline.shed")
        self._m_dedup_replays = self.registry.counter("service.dedup.replays")
        self._m_fast_reads = self.registry.counter("service.fast_reads")
        # Inline read fast path: a ``lookup`` whose shard read lock is
        # free is answered on the event loop itself -- profiling showed
        # the executor round-trip (~70us) plus task creation (~15us)
        # costing 10x the tree lookup (~7us).  Zero-wait try-acquire
        # keeps the loop from ever blocking on a busy shard (those
        # requests take the normal executor path), and the path is
        # disabled entirely for durable or fault-injected trees, whose
        # stores may carry injected delays that must never run on the
        # loop.
        self._inline_reads = (
            not sharded.durable and sharded.fault_injector is None
        )
        # Inline write fast path: an ``insert`` is validated, dedup-
        # checked, and appended to the group-commit batch directly from
        # the connection read loop -- no per-request task, no semaphore,
        # no per-reply drain.  The flush acknowledges all inline inserts
        # of a connection in ONE coalesced write.  The apply itself
        # still runs in the executor via the unchanged flush machinery,
        # so exactly-once and durability semantics are identical.
        # Disabled alongside fault injection because the overload
        # contract counts slow in-flight requests against
        # ``max_inflight``, and inline inserts do not hold a slot.
        # Replicas disable it too: their writes must reach the
        # _NotPrimary rejection in _write_op, not the batch queue.
        self._inline_writes = self._inline_reads and not self._is_replica
        self._m_fast_writes = self.registry.counter("service.fast_writes")
        self._pending_facts = 0  # mirrors sum(len(f) for f, ... in _pending)
        # The dynamic-view fleet (see repro.warehouse.dynamic): named
        # base tables ingested via table_insert, views refreshed by a
        # background tick at view_tick seconds (<= 0 disables the loop;
        # lag="downstream" views and pinned reports still refresh
        # on demand).  The catalog has its own lock, so view ops run in
        # the executor like tree ops.
        self.views = views if views is not None else DynamicCatalog()
        self.view_tick = view_tick
        self._view_task: Optional[asyncio.Task] = None
        self._handlers = {
            "ping": self._op_ping,
            "hello": self._op_hello,
            "insert": self._op_insert,
            "batch_insert": self._op_batch_insert,
            "lookup": self._op_lookup,
            "rangeq": self._op_rangeq,
            "window": self._op_window,
            "stats": self._op_stats,
            "journal_ack": self._op_journal_ack,
            "promote": self._op_promote,
            "table_insert": self._op_table_insert,
            "create_view": self._op_create_view,
            "query_view": self._op_query_view,
            "refresh_view": self._op_refresh_view,
            "drop_view": self._op_drop_view,
            "view_stats": self._op_view_stats,
            "repair_view": self._op_repair_view,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` holds the real port."""
        self._loop = asyncio.get_running_loop()
        self._flush_lock = asyncio.Lock()
        self._promote_lock = asyncio.Lock()
        self._repl_stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.health_interval > 0:
            self._health_task = self._loop.create_task(self._health_loop())
        if self.view_tick > 0:
            self._view_task = self._loop.create_task(self._view_tick_loop())
        if self._is_replica:
            if self.replica_name is None:
                self.replica_name = f"{self.host}:{self.port}"
            self._follow_task = self._loop.create_task(self._follow_loop())

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Graceful drain: stop accepting, flush writes, answer in-flight."""
        self._draining = True
        if self._repl_stop is not None:
            self._repl_stop.set()
        if self._follow_task is not None:
            if self._follow_writer is not None:
                try:
                    self._follow_writer.close()
                except Exception:
                    pass
            try:
                await asyncio.wait_for(
                    self._follow_task, timeout=self.drain_timeout
                )
            except Exception:
                self._follow_task.cancel()
            self._follow_task = None
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        if self._health_task is not None:
            self._health_task.cancel()
            self._health_task = None
        if self._view_task is not None:
            self._view_task.cancel()
            self._view_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        await self._flush_batch()
        if self._inflight:
            await asyncio.wait(
                list(self._inflight), timeout=self.drain_timeout
            )
        for task in list(self._inflight):
            task.cancel()
        for writer in list(self._connections):
            writer.close()
        try:
            # Checkpoint the view catalog (a no-op for in-memory ones)
            # so persisted watermarks reflect everything acknowledged.
            await self._run(self.views.close)
        except Exception:
            self.registry.counter("service.views.close_errors").inc()
        if self._owns_executor:
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
            self._refresh_repl_gauges()
        except Exception:
            pass  # gauge refresh races the loop; never fail a scrape
        return health

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._connections.add(writer)
        slots = asyncio.Semaphore(self.queue_limit)
        write_lock = asyncio.Lock()
        self.registry.counter("service.connections.opened").inc()
        try:
            while True:
                try:
                    header = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                # Replies go out in the codec their request arrived in;
                # a pipelined connection may even interleave codecs
                # (the frame after a binary-granting ``hello`` is the
                # first binary one).
                codec = wire.CODEC_JSON
                try:
                    length = wire.decode_length(header)
                    body = await reader.readexactly(length)
                    codec = wire.codec_of(body)
                    request = wire.decode_body(body)
                except wire.ProtocolError as exc:
                    # Unframeable input: answer once, then hang up (the
                    # stream offset can no longer be trusted).
                    await self._send(
                        writer, write_lock,
                        wire.error_reply(wire.ERR_BAD_REQUEST, str(exc)),
                        codec=codec,
                    )
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                arrival = asyncio.get_running_loop().time()
                if request.get("op") == "subscribe_journal":
                    # Subscriptions bypass admission control (one frame
                    # turns the connection into a push stream) and must
                    # register atomically with the flush machinery.
                    await self._subscribe_journal(
                        request, writer, write_lock, codec
                    )
                    continue
                if request.get("op") == "journal_ack":
                    # Acks release semi-sync writers; they must never
                    # queue behind admission control (a primary at
                    # max_inflight would otherwise deadlock on its own
                    # followers until the ack timeout).
                    try:
                        reply = await self._op_journal_ack(request, None)
                    except wire.ProtocolError as exc:
                        reply = wire.error_reply(
                            wire.ERR_BAD_REQUEST, str(exc), request
                        )
                    await self._send(
                        writer, write_lock, reply, request, codec=codec
                    )
                    continue
                # Admission control: a request beyond the global bounds
                # is rejected *now*, before it holds a queue slot --
                # shedding load costs one error frame, not a thread or a
                # growing queue.
                if (
                    len(self._inflight) >= self.max_inflight
                    or self._inflight_bytes + length > self.max_inflight_bytes
                ):
                    self._m_overload.inc()
                    await self._send(
                        writer, write_lock,
                        wire.error_reply(
                            wire.ERR_OVERLOADED,
                            f"server over capacity ({len(self._inflight)} "
                            f"requests, {self._inflight_bytes} bytes in flight)",
                            request,
                            retry_after=self._retry_after(),
                        ),
                        request,
                        codec=codec,
                    )
                    continue
                if not trace.TRACING and not obs.ENABLED:
                    op = request.get("op")
                    if op == "lookup" and self._inline_reads:
                        reply = self._fast_lookup_reply(request, arrival)
                        if reply is not None:
                            await self._send(
                                writer, write_lock, reply, request,
                                codec=codec,
                            )
                            continue
                    elif op == "insert" and self._inline_writes:
                        if await self._fast_insert(
                            request, arrival, writer, write_lock, codec
                        ):
                            continue
                await slots.acquire()  # backpressure: stop reading when full
                task = asyncio.ensure_future(
                    self._serve_request(
                        request, writer, write_lock, slots, arrival, codec
                    )
                )
                self._inflight.add(task)
                self._inflight_bytes += length
                task.add_done_callback(
                    lambda t, n=length: self._request_done(t, n)
                )
        finally:
            self._connections.discard(writer)
            self.registry.counter("service.connections.closed").inc()
            try:
                writer.close()
            except Exception:
                pass

    def _request_done(self, task, nbytes: int) -> None:
        self._inflight.discard(task)
        self._inflight_bytes -= nbytes

    def _fast_lookup_reply(self, request, arrival) -> Optional[Dict[str, Any]]:
        """Serve a lookup inline on the loop, or None to take the slow path.

        Declines (returns None) when the target shard's read lock is
        not *immediately* free; otherwise it holds the lock only for
        the in-memory tree descent.  Every contract of the normal path
        is preserved: deadline validation and shedding, structured
        errors, and the ``service.lookup`` op record.
        """
        loop = asyncio.get_running_loop()
        try:
            self._check_deadline(request, arrival, loop)
            t = request.get("t")
            if isinstance(t, bool) or not isinstance(t, (int, float)):
                raise wire.ProtocolError("field 't' must be a number")
            sharded = self.sharded
            if "lookup_final" in sharded.__dict__:
                # The read path has been wrapped on the instance (test
                # doubles, instrumentation): honor it via the slow path.
                return None
            shard = sharded.shards[sharded.router.shard_of(t)]
            if not shard.lock.acquire_read(0):
                return None  # contended: queue behind the writer instead
            try:
                value = shard.tree.lookup(t)
            finally:
                shard.lock.release_read()
            reply = wire.ok_reply(sharded.spec.finalize(value), request)
        except Exception as exc:  # never let a request kill the server
            reply = self._error_reply_for(exc, request)
        self._m_fast_reads.inc()
        self.registry.record_op(
            obs.OpRecord(
                op="service.lookup", wall_us=(loop.time() - arrival) * 1e6
            )
        )
        if not reply.get("ok"):
            self._m_errors.inc()
        elif self._is_replica:
            self._tag_watermark(reply)
        return reply

    async def _fast_insert(
        self, request, arrival, writer, write_lock, codec: str
    ) -> bool:
        """Enqueue an insert from the read loop, or False for slow path.

        Validation, deadline shedding, and the dedup window check all
        run inline (they are in-memory and sync); the apply itself still
        happens in the executor through the unchanged flush machinery.
        The only declined case is a duplicate racing its original
        batch -- joining a flight needs the full await machinery of
        ``_check_duplicate``.
        """
        loop = asyncio.get_running_loop()
        idem = None
        reply = None
        try:
            self._check_deadline(request, arrival, loop)
            facts = [self._fact(request)]
            idem = _idem_key(request)
            if self._draining:
                raise _Draining(
                    "server is draining; retry against the new instance"
                )
        except (_DeadlineExpired, wire.ProtocolError, _Draining) as exc:
            reply = self._error_reply_for(exc, request)
        future = None
        if reply is None and idem is not None:
            status, stored = self._dedup.lookup(*idem)
            if status == dedup_mod.HIT:
                self._m_dedup_replays.inc()
                result = (
                    dict(stored) if isinstance(stored, dict) else {"applied": 0}
                )
                result["duplicate"] = True
                reply = wire.ok_reply(result, request)
            elif status == dedup_mod.STALE:
                self._m_dedup_replays.inc()
                self.registry.counter("service.dedup.evicted_replays").inc()
                reply = wire.ok_reply(
                    {"applied": 0, "duplicate": True, "evicted": True},
                    request,
                )
            elif idem in self._dedup_pending:
                return False  # joining an in-flight batch: slow path
            else:
                assert self._loop is not None
                future = self._loop.create_future()
                self._dedup_pending[idem] = future
        if reply is not None:
            # Early answer (shed, rejected, or dedup replay): mirror the
            # slow path's accounting before sending.
            if not reply.get("ok"):
                self._m_errors.inc()
            self._record_insert_at(arrival)
            await self._send(writer, write_lock, reply, request, codec=codec)
            return True
        ack = _InlineAck(writer, write_lock, request, codec, future, arrival)
        self._pending.append((facts, ack, None, idem))
        self._pending_facts += len(facts)
        self._m_fast_writes.inc()
        if self._pending_facts >= self.batch_max:
            if self._flush_handle is not None:
                self._flush_handle.cancel()
                self._flush_handle = None
            self.registry.counter("service.batch.size_flushes").inc()
            # Awaiting the flush here is the backpressure: the read
            # loop stops consuming frames while the apply runs.
            await self._flush_batch()
        elif self._flush_handle is None:
            self._flush_handle = self._loop.call_later(
                self.batch_delay, self._deadline_flush
            )
        return True

    def _record_inline_insert(self, ack: _InlineAck) -> None:
        self._record_insert_at(ack.arrival)

    def _record_insert_at(self, arrival: float) -> None:
        assert self._loop is not None
        self.registry.record_op(
            obs.OpRecord(
                op="service.insert",
                wall_us=(self._loop.time() - arrival) * 1e6,
            )
        )

    def _ack_frame(self, ack: _InlineAck, reply, acks: dict) -> None:
        """Encode one inline reply and group it by destination writer."""
        try:
            frame = wire.encode_frame(reply, ack.codec)
        except Exception as exc:
            self._m_errors.inc()
            frame = wire.encode_frame(
                wire.error_reply(
                    wire.ERR_SERVER,
                    f"reply not serializable: {type(exc).__name__}: {exc}",
                    ack.request,
                ),
                ack.codec,
            )
        entry = acks.get(id(ack.writer))
        if entry is None:
            acks[id(ack.writer)] = (ack.writer, ack.write_lock, [frame])
        else:
            entry[2].append(frame)

    def _flush_acks(self, acks: dict) -> None:
        """Write each connection's inline acks in one coalesced send."""
        assert self._loop is not None
        for writer, write_lock, frames in acks.values():
            task = self._loop.create_task(
                self._write_acks(writer, write_lock, b"".join(frames))
            )
            self._inflight.add(task)
            task.add_done_callback(lambda t: self._request_done(t, 0))

    async def _write_acks(self, writer, write_lock, payload: bytes) -> None:
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(payload)
            try:
                await writer.drain()
            except ConnectionError:
                pass

    def _retry_after(self) -> float:
        """Backoff hint for overload/drain rejections (seconds)."""
        return max(4 * self.batch_delay, 0.05)

    async def _send(
        self,
        writer,
        write_lock,
        reply: Dict[str, Any],
        request=None,
        codec: str = wire.CODEC_JSON,
    ) -> None:
        try:
            frame = wire.encode_frame(reply, codec)
        except Exception as exc:
            # An unserializable result must not silently drop the reply
            # (the client would see its request vanish): degrade to a
            # structured server_error on the same connection.
            if request is None:
                return
            self._m_errors.inc()
            frame = wire.encode_frame(
                wire.error_reply(
                    wire.ERR_SERVER,
                    f"reply not serializable: {type(exc).__name__}: {exc}",
                    request,
                ),
                codec,
            )
        async with write_lock:
            if writer.is_closing():
                return
            writer.write(frame)
            try:
                await writer.drain()
            except ConnectionError:
                pass

    async def _serve_request(
        self, request, writer, write_lock, slots, arrival=None,
        codec: str = wire.CODEC_JSON,
    ) -> None:
        loop = asyncio.get_running_loop()
        started = loop.time()
        if arrival is None:
            arrival = started
        op = request.get("op")
        # The request's trace hop: a child of the client's span,
        # covering the whole server-side dispatch.  Spans inside the
        # executor threads nest under it via trace.wrap; the event loop
        # itself never touches thread-local context (tasks interleave).
        sctx: Optional[trace.TraceContext] = None
        if trace.TRACING:
            ctx_in = trace.TraceContext.from_wire(request.get("trace"))
            if ctx_in is not None:
                sctx = ctx_in.child()
        try:
            self._check_deadline(request, arrival, loop)
            reply = await self._dispatch(request, sctx)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # never let a request kill the server
            reply = self._error_reply_for(
                exc, request, sctx.trace_id if sctx is not None else None
            )
        finally:
            slots.release()
        wall_us = (loop.time() - started) * 1e6
        name = op if isinstance(op, str) and op.isidentifier() else "invalid"
        self.registry.record_op(
            obs.OpRecord(op=f"service.{name}", wall_us=wall_us)
        )
        if not reply.get("ok"):
            self._m_errors.inc()
        elif self._is_replica and op in (
            "lookup", "rangeq", "window", "stats", "query_view", "view_stats",
        ):
            self._tag_watermark(reply)
        if sctx is not None:
            trace.emit_span(
                sctx,
                "server.request",
                wall_us,
                attrs={"op": name, "ok": bool(reply.get("ok"))},
            )
        await self._send(writer, write_lock, reply, request, codec=codec)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self,
        request: Dict[str, Any],
        sctx: Optional[trace.TraceContext] = None,
    ) -> Dict[str, Any]:
        handler = self._handlers.get(request.get("op"))
        if handler is None:
            op = request.get("op")
            raise_op = repr(op) if op is not None else "missing 'op' field"
            return wire.error_reply(
                wire.ERR_UNKNOWN_OP, f"unknown op {raise_op}", request
            )
        return await handler(request, sctx)

    async def _op_ping(self, request, sctx) -> Dict[str, Any]:
        return wire.ok_reply("pong", request)

    async def _op_hello(self, request, sctx) -> Dict[str, Any]:
        """Codec negotiation: grant the first offered codec we speak.

        Nothing about the *connection* changes server-side -- replies
        always go out in the codec their request arrived in -- so the
        grant is simply a promise that binary frames will be understood.
        """
        granted = wire.negotiate(request.get("codecs"))
        return wire.ok_reply(
            {
                "codec": granted,
                "version": wire.BINARY_VERSION,
                "max_frame": wire.MAX_FRAME,
            },
            request,
        )

    async def _op_insert(self, request, sctx) -> Dict[str, Any]:
        facts = [self._fact(request)]
        return await self._write_op(facts, request, sctx)

    async def _op_batch_insert(self, request, sctx) -> Dict[str, Any]:
        raw = request.get("facts")
        if not isinstance(raw, list) or not raw:
            raise wire.ProtocolError("batch_insert needs a non-empty 'facts' list")
        facts = [self._fact_from_triple(item) for item in raw]
        return await self._write_op(facts, request, sctx)

    async def _op_lookup(self, request, sctx) -> Dict[str, Any]:
        t = _number(request.get("t"), "t")
        value = await self._run(self.sharded.lookup_final, t, ctx=sctx)
        return wire.ok_reply(value, request)

    async def _op_rangeq(self, request, sctx) -> Dict[str, Any]:
        start = _number(request.get("start"), "start")
        end = _number(request.get("end"), "end")
        if not start < end:
            raise wire.ProtocolError(f"empty range [{start}, {end})")
        table = await self._run(self._rangeq, Interval(start, end), ctx=sctx)
        return wire.ok_reply(table, request)

    async def _op_window(self, request, sctx) -> Dict[str, Any]:
        t = _number(request.get("t"), "t")
        w = _number(request.get("w"), "w")
        value = await self._run(self._window, t, w, ctx=sctx)
        return wire.ok_reply(value, request)

    async def _op_stats(self, request, sctx) -> Dict[str, Any]:
        return wire.ok_reply(await self._run(self._stats), request)

    # ------------------------------------------------------------------
    # Dynamic views (see repro.warehouse.dynamic and DESIGN.md 13)
    # ------------------------------------------------------------------
    async def _view_tick_loop(self) -> None:
        """Drive the catalog's refresh scheduler off the event loop.

        Each pass runs in the executor (refreshes take the catalog
        lock and descend SB-trees).  Per-view failures inside a tick
        are isolated by the catalog (the view is quarantined, siblings
        keep refreshing) and surfaced here with the view's name and
        traceback plus a per-view error counter; a failing pass as a
        whole is counted, never fatal -- the next tick retries and
        ``lag="downstream"`` reads still refresh on demand.
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
                await asyncio.sleep(self.view_tick)
                try:
                    await self._run(lambda: self.views.tick(on_error=on_error))
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

    def _view_row(self, item) -> Tuple[Any, Interval, Dict[str, Any]]:
        """Parse one ``table_insert`` row: ``[value, start, end]`` plus
        an optional payload dict (or a bare scalar shorthand, stored as
        ``{"key": <scalar>}`` for the common one-key grouping)."""
        if not isinstance(item, (list, tuple)) or len(item) not in (3, 4):
            raise wire.ProtocolError(
                "rows must be [value, start, end] or [value, start, end, payload]"
            )
        value = item[0]
        start = _number(item[1], "start")
        end = _number(item[2], "end")
        if value is None:
            raise wire.ProtocolError("row needs a 'value'")
        if not start < end:
            raise wire.ProtocolError(f"empty row interval [{start}, {end})")
        payload: Dict[str, Any] = {}
        if len(item) == 4 and item[3] is not None:
            raw = item[3]
            if isinstance(raw, dict):
                if not all(isinstance(k, str) for k in raw):
                    raise wire.ProtocolError("payload keys must be strings")
                payload = dict(raw)
            else:
                payload = {"key": raw}
        return value, Interval(start, end), payload

    def _apply_table_rows(self, table: str, rows) -> int:
        views = self.views
        with views._lock:
            if not views.has_node(table):
                views.create_table(table)
            for value, interval, payload in rows:
                views.insert(table, value, interval, **payload)
        return len(rows)

    def _apply_view_event(self, event: Dict[str, Any]) -> None:
        """Apply one shipped catalog mutation to the local catalog.

        Tolerant by design: a resubscribe after a link fault can
        redeliver an event, so a create of an existing view and a drop
        of an unknown one are no-ops, and unknown kinds (from a newer
        primary) are skipped rather than fatal.
        """
        kind = event.get("kind")
        if kind == "table_insert":
            table = event.get("table")
            rows = [self._view_row(item) for item in event.get("rows") or ()]
            if isinstance(table, str) and table and rows:
                self._apply_table_rows(table, rows)
        elif kind == "create_view":
            name = event.get("name")
            if not isinstance(name, str) or not name:
                return
            with self.views._lock:
                if self.views.has_node(name):
                    return  # replayed create: already present
                self.views.create_view(
                    name,
                    list(event.get("over") or ()),
                    event.get("agg", "sum"),
                    key=event.get("key"),
                    lag=event.get("lag", "downstream"),
                    create_sources=True,
                )
        elif kind == "drop_view":
            name = event.get("view")
            if not isinstance(name, str) or not name:
                return
            with self.views._lock:
                if self.views.has_node(name):
                    self.views.drop_view(name)

    async def _op_table_insert(self, request, sctx) -> Dict[str, Any]:
        if self._is_replica:
            raise _NotPrimary(
                "this server is a read replica; send writes to the primary"
            )
        table = request.get("table")
        if not isinstance(table, str) or not table:
            raise wire.ProtocolError("table_insert needs a 'table' string")
        raw = request.get("rows")
        if not isinstance(raw, list) or not raw:
            raise wire.ProtocolError("table_insert needs a non-empty 'rows' list")
        rows = [self._view_row(item) for item in raw]
        applied = await self._run_view(
            self._apply_table_rows, table, rows, ctx=sctx
        )
        await self._ship_view_event(
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

    async def _op_create_view(self, request, sctx) -> Dict[str, Any]:
        if self._is_replica:
            raise _NotPrimary(
                "this server is a read replica; send writes to the primary"
            )
        name = request.get("name")
        if not isinstance(name, str) or not name:
            raise wire.ProtocolError("create_view needs a 'name' string")
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
            from ..warehouse.dynamic import format_lag

            view = self.views.create_view(
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
        await self._ship_view_event(
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

    async def _op_query_view(self, request, sctx) -> Dict[str, Any]:
        t = _number(request.get("t"), "t")
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
                self.views.report, names, t, pin=bool(pin), ctx=sctx
            )
            return wire.ok_reply(report, request)
        name = request.get("view")
        if not isinstance(name, str) or not name:
            raise wire.ProtocolError("query_view needs 'view' (or 'views')")
        reading = await self._run_view(
            lambda: self.views.read(name, t, key=request.get("key")).to_json(),
            ctx=sctx,
        )
        return wire.ok_reply(reading, request)

    async def _op_refresh_view(self, request, sctx) -> Dict[str, Any]:
        if self._is_replica:
            raise _NotPrimary(
                "this server is a read replica; send writes to the primary"
            )
        name = request.get("view")
        if name is not None and not isinstance(name, str):
            raise wire.ProtocolError("field 'view' must be a view name")
        refreshed = await self._run_view(self.views.refresh, name, ctx=sctx)
        return wire.ok_reply(
            {"refreshed": refreshed, "events": sum(refreshed.values())},
            request,
        )

    async def _op_drop_view(self, request, sctx) -> Dict[str, Any]:
        if self._is_replica:
            raise _NotPrimary(
                "this server is a read replica; send writes to the primary"
            )
        name = request.get("view")
        if not isinstance(name, str) or not name:
            raise wire.ProtocolError("drop_view needs a 'view' string")
        await self._run_view(self.views.drop_view, name, ctx=sctx)
        await self._ship_view_event({"kind": "drop_view", "view": name})
        return wire.ok_reply({"dropped": name}, request)

    def _view_stats(self) -> Dict[str, Any]:
        stats = self.views.stats()
        record_view_gauges(self.registry, stats)
        return stats

    async def _op_view_stats(self, request, sctx) -> Dict[str, Any]:
        return wire.ok_reply(await self._run(self._view_stats), request)

    async def _op_repair_view(self, request, sctx) -> Dict[str, Any]:
        """Clear a quarantined view and retry its refresh.

        Deliberately node-local (allowed on replicas): quarantine is a
        per-catalog condition, so each node repairs its own copy.  A
        refresh that fails again re-quarantines and surfaces the error
        to the caller.
        """
        name = request.get("view")
        if not isinstance(name, str) or not name:
            raise wire.ProtocolError("repair_view needs a 'view' string")
        result = await self._run_view(self.views.repair, name, ctx=sctx)
        return wire.ok_reply(result, request)

    async def _ship_view_event(self, event: Dict[str, Any]) -> None:
        """Record one catalog mutation in the replication journal.

        View DDL and base-table inserts ride the same commit log as
        fact batches, appended under the flush lock, so a follower's
        backlog snapshot and the live stream see one gap-free sequence
        and a promoted replica holds every view the primary did.  Like
        :meth:`_ship_batch`, the encode is skipped until the first
        subscriber ever appears, and semi-sync mode holds the reply
        until every live follower has applied the event.
        """
        if self._is_replica or self._flush_lock is None:
            return
        assert self._loop is not None
        async with self._flush_lock:
            now = self._loop.time()
            if not self._had_subscriber:
                self._commit_log.skip(now)
                return
            blob = encode_records([{"view_event": event}])
            seq = self._commit_log.append(blob, now)
            self.registry.counter("service.repl.view_events_shipped").inc()
            if self._subscribers:
                msg = self._batch_msg(seq, blob)
                for sub in list(self._subscribers.values()):
                    self._send_subscriber(sub, msg)
        if self.repl_sync and (self._subscribers or self._repl_expected):
            await self._wait_replicated(seq)

    def _check_deadline(self, request, arrival, loop) -> None:
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is None:
            return
        if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)
        ):
            raise wire.ProtocolError("field 'deadline_ms' must be a number")
        waited_ms = (loop.time() - arrival) * 1e3
        if waited_ms >= deadline_ms:
            self._m_deadline_shed.inc()
            raise _DeadlineExpired(
                f"deadline of {deadline_ms}ms expired after "
                f"{waited_ms:.1f}ms on the server"
            )

    async def _write_op(
        self,
        facts: List[Tuple[Any, Interval]],
        request: Dict[str, Any],
        sctx: Optional[trace.TraceContext],
    ) -> Dict[str, Any]:
        """Apply a mutating request exactly once (per idempotency key)."""
        if self._is_replica:
            raise _NotPrimary(
                "this server is a read replica; send writes to the primary"
            )
        idem = _idem_key(request)
        if idem is not None:
            replay = await self._check_duplicate(idem)
            if replay is not None:
                return wire.ok_reply(replay, request)
        applied = await self._enqueue_write(facts, sctx, idem)
        return wire.ok_reply({"applied": applied}, request)

    async def _check_duplicate(
        self, idem: dedup_mod.IdemKey
    ) -> Optional[Dict[str, Any]]:
        """Resolve a duplicate delivery, or return None for a fresh key.

        A key whose original batch is still in flight *joins* that
        batch's future rather than enqueueing a second apply (the
        chaos proxy duplicates frames faster than a flush completes).
        """
        while True:
            status, stored = self._dedup.lookup(*idem)
            if status == dedup_mod.HIT:
                self._m_dedup_replays.inc()
                result = dict(stored) if isinstance(stored, dict) else {"applied": 0}
                result["duplicate"] = True
                return result
            if status == dedup_mod.STALE:
                # Applied, but the remembered reply has been evicted:
                # still a duplicate, acknowledged without re-applying.
                self._m_dedup_replays.inc()
                self.registry.counter("service.dedup.evicted_replays").inc()
                return {"applied": 0, "duplicate": True, "evicted": True}
            pending = self._dedup_pending.get(idem)
            if pending is None:
                return None
            self.registry.counter("service.dedup.joins").inc()
            try:
                await asyncio.shield(pending)
            except Exception:
                # The original apply failed (its own waiter carries the
                # error); this duplicate re-enters as a fresh write.
                return None
            # The flush records applied keys before resolving futures,
            # so the re-lookup now replays (or, if racing eviction,
            # answers stale).

    def _fact(self, request: Dict[str, Any]) -> Tuple[Any, Interval]:
        value = request.get("value")
        start = _number(request.get("start"), "start")
        end = _number(request.get("end"), "end")
        if value is None:
            raise wire.ProtocolError("insert needs a 'value' field")
        if not start < end:
            raise wire.ProtocolError(f"empty fact interval [{start}, {end})")
        return value, Interval(start, end)

    def _fact_from_triple(self, item: Any) -> Tuple[Any, Interval]:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise wire.ProtocolError("facts must be [value, start, end] triples")
        value, start, end = item
        return self._fact({"value": value, "start": start, "end": end})

    def _rangeq(self, window: Interval) -> List[List[Any]]:
        table = (
            self.sharded.range_query(window)
            .coalesce(self.sharded.spec.eq)
            .finalized(self.sharded.spec)
        )
        return [[value, iv.start, iv.end] for value, iv in table]

    def _window(self, t, w) -> Any:
        return self.sharded.spec.finalize(self.sharded.window_lookup(t, w))

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
            if name.startswith("service.")
            and not name.startswith("service.ops")
            and value
        }
        spans = {
            name[len("span."):-len(".wall_us")]: hist
            for name, hist in snapshot["histograms"].items()
            if name.startswith("span.") and name.endswith(".wall_us")
        }
        batch_size = snapshot["histograms"].get("service.batch.size")
        return {
            "kind": self.sharded.spec.kind.value,
            "shards": self.sharded.stats(),
            "health": health,
            "ops": ops,
            "counters": counters,
            "gauges": snapshot.get("gauges", {}),
            "spans": spans,
            "batch": {
                "max": self.batch_max,
                "delay_s": self.batch_delay,
                "pending": len(self._pending),
                "size": batch_size,
            },
            "resilience": {
                "durable": self._durable,
                "dedup": self._dedup.stats(),
                "inflight": len(self._inflight),
                "inflight_bytes": self._inflight_bytes,
                "limits": {
                    "max_inflight": self.max_inflight,
                    "max_inflight_bytes": self.max_inflight_bytes,
                },
            },
            "replication": self._replication_stats(),
            "views": self._view_stats(),
        }

    # ------------------------------------------------------------------
    # Group commit
    # ------------------------------------------------------------------
    async def _enqueue_write(
        self,
        facts: List[Tuple[Any, Interval]],
        sctx: Optional[trace.TraceContext] = None,
        idem: Optional[dedup_mod.IdemKey] = None,
    ) -> int:
        if self._draining:
            raise _Draining("server is draining; retry against the new instance")
        assert self._loop is not None
        future: asyncio.Future = self._loop.create_future()
        self._pending.append((facts, future, sctx, idem))
        self._pending_facts += len(facts)
        if idem is not None:
            self._dedup_pending[idem] = future
        if self._pending_facts >= self.batch_max:
            if self._flush_handle is not None:
                self._flush_handle.cancel()
                self._flush_handle = None
            self.registry.counter("service.batch.size_flushes").inc()
            await self._flush_batch()
        elif self._flush_handle is None:
            self._flush_handle = self._loop.call_later(
                self.batch_delay, self._deadline_flush
            )
        await future
        return len(facts)

    def _deadline_flush(self) -> None:
        self._flush_handle = None
        if self._pending:
            self.registry.counter("service.batch.deadline_flushes").inc()
            assert self._loop is not None
            self._loop.create_task(self._flush_batch())

    async def _flush_batch(self) -> None:
        # Flushes are serialized: each one snapshots the dedup window
        # into its commit payload, and two interleaved snapshots could
        # otherwise persist each other's keys out of order.
        assert self._flush_lock is not None
        async with self._flush_lock:
            await self._flush_batch_locked()

    async def _flush_batch_locked(self) -> None:
        batch, self._pending = self._pending, []
        self._pending_facts = 0
        if not batch:
            return
        all_facts = [fact for facts, _, _, _ in batch for fact in facts]
        self.registry.counter("service.batch.flushes").inc()
        self.registry.histogram(
            "service.batch.size", bounds=(1, 2, 5, 10, 20, 50, 100, 200, 500)
        ).record(len(all_facts))
        # The batch's own idempotency keys are serialized into the
        # commit payload *before* the apply (dedup-before-ack): after a
        # crash, a key is remembered iff its batch committed.  They are
        # recorded in the in-memory window only after success.
        idem_entries = [
            (idem, {"applied": len(facts)})
            for facts, _, _, idem in batch
            if idem is not None
        ]
        # The commit's replication sequence number is fixed *before* the
        # apply so the durable watermark can ride inside the same commit
        # as the data and dedup pages (one atomic unit per store).
        commit_seq = None if self._is_replica else self._commit_log.head + 1
        meta = None
        if self._durable:
            meta = {}
            payload = self._dedup.encode_with(idem_entries)
            if payload is not None:
                meta[DEDUP_META_KEY] = payload
            if commit_seq is not None:
                meta[REPL_COMMIT_META_KEY] = str(commit_seq)
        # One flush serves several requests; its shard/tree spans are
        # recorded once (trace-agnostically) and replayed under every
        # sampled participant's trace after the apply.
        participants = [sctx for _, _, sctx, _ in batch if sctx is not None]
        collector = (
            trace.SpanCollector() if trace.TRACING and participants else None
        )
        assert self._loop is not None
        started = self._loop.time()
        try:
            await self._run(self._apply_batch, all_facts, meta, collector)
        except _CommitFailed as exc:
            # The batch is applied in memory but its durability commit
            # failed (disk fault): waiters get the error, yet the keys
            # must be remembered -- a retry would otherwise double-apply
            # against the still-running process.  The acked-means-
            # durable contract is downgraded for these keys until the
            # next successful commit persists them.  The batch still
            # ships to followers: its facts are in this primary's
            # memory and will be durable at the next successful commit,
            # so replicas must mirror them or diverge.
            self.registry.counter("service.batch.commit_failures").inc()
            await self._finish_replication(batch, commit_seq)
            self._record_batch(idem_entries, batch)
            self._replay_flush(collector, participants, batch, started)
            self._fail_batch(batch, exc.__cause__ or exc)
        except Exception as exc:
            self._replay_flush(collector, participants, batch, started)
            for _, _, _, idem in batch:
                if idem is not None:
                    self._dedup_pending.pop(idem, None)
            self._fail_batch(batch, exc)
        else:
            if self._durable:
                self.registry.counter("service.batch.commits").inc()
            await self._finish_replication(batch, commit_seq)
            self._record_batch(idem_entries, batch)
            self._replay_flush(collector, participants, batch, started)
            acks: dict = {}
            for facts, waiter, _, _ in batch:
                if isinstance(waiter, _InlineAck):
                    if waiter.future is not None and not waiter.future.done():
                        waiter.future.set_result(True)
                    self._record_inline_insert(waiter)
                    self._ack_frame(
                        waiter,
                        wire.ok_reply(
                            {"applied": len(facts)}, waiter.request
                        ),
                        acks,
                    )
                elif not waiter.done():
                    waiter.set_result(True)
            if acks:
                self._flush_acks(acks)

    def _apply_batch(self, facts, meta, collector) -> int:
        """Executor half of a flush: apply the batch, then commit it."""
        if collector is not None:
            with collector.recording():
                applied = self.sharded.batch_insert(facts)
        else:
            applied = self.sharded.batch_insert(facts)
        if self._durable:
            try:
                self.sharded.commit(meta)
            except Exception as exc:
                raise _CommitFailed(str(exc)) from exc
        return applied

    def _record_batch(self, idem_entries, batch) -> None:
        """Remember the batch's applied keys; unregister their futures."""
        for (client, seq), result in idem_entries:
            self._dedup.record(client, seq, result)
        for _, _, _, idem in batch:
            if idem is not None:
                self._dedup_pending.pop(idem, None)

    def _fail_batch(self, batch, exc: BaseException) -> None:
        acks: dict = {}
        for _, waiter, _, _ in batch:
            future = (
                waiter.future if isinstance(waiter, _InlineAck) else waiter
            )
            if future is not None and not future.done():
                future.set_exception(exc)
        # The exception now belongs to the waiters; if several share
        # it, asyncio would warn about unretrieved futures otherwise.
        # Inline acks additionally get their error reply written (their
        # future, when present, only exists for dedup joiners).
        for _, waiter, _, _ in batch:
            if isinstance(waiter, _InlineAck):
                if waiter.future is not None and waiter.future.done():
                    waiter.future.exception()
                self._m_errors.inc()
                self._record_inline_insert(waiter)
                self._ack_frame(
                    waiter, self._error_reply_for(exc, waiter.request), acks
                )
            elif waiter.done():
                waiter.exception()
        if acks:
            self._flush_acks(acks)

    def _error_reply_for(
        self, exc: BaseException, request, trace_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """The one exception -> error-reply mapping, for every reply path.

        Subclasses are tested before their bases
        (``WindowUnsupportedError`` is a ``ShardingError``).  *trace_id*
        lands in the ``server_error`` fallback only, where an operator
        needs it to find the failing request's spans.
        """
        if isinstance(exc, _DeadlineExpired):
            return wire.error_reply(wire.ERR_DEADLINE, str(exc), request)
        if isinstance(exc, _Draining):
            return wire.error_reply(
                wire.ERR_SHUTTING_DOWN, str(exc), request,
                retry_after=self._retry_after(),
            )
        if isinstance(exc, WindowUnsupportedError):
            return wire.error_reply(wire.ERR_UNSUPPORTED, str(exc), request)
        if isinstance(exc, (wire.ProtocolError, ShardingError)):
            return wire.error_reply(wire.ERR_BAD_REQUEST, str(exc), request)
        if isinstance(exc, SimulatedCrash):
            return wire.error_reply(wire.ERR_FAULT, str(exc), request)
        if isinstance(exc, LockTimeout):
            return wire.error_reply(wire.ERR_TIMEOUT, str(exc), request)
        if isinstance(exc, _NotPrimary):
            return wire.error_reply(
                wire.ERR_NOT_PRIMARY, str(exc), request,
                primary=self._primary_hint(),
            )
        return wire.error_reply(
            wire.ERR_SERVER, f"{type(exc).__name__}: {exc}", request,
            trace_id=trace_id,
        )

    def _replay_flush(self, collector, participants, batch, started) -> None:
        if collector is None:
            return
        assert self._loop is not None
        wall_us = (self._loop.time() - started) * 1e6
        all_facts = sum(len(facts) for facts, _, _, _ in batch)
        for index, sctx in enumerate(participants):
            flush_ctx = sctx.child()
            trace.emit_span(
                flush_ctx,
                "service.flush",
                wall_us,
                attrs={
                    "facts": all_facts,
                    "requests": len(batch),
                    "shared": index > 0,
                },
            )
            # Durations fold into the registry histograms once, not once
            # per participant sharing the flush.
            collector.replay(flush_ctx, fold=index == 0)

    # ------------------------------------------------------------------
    # Replication: shared plumbing
    # ------------------------------------------------------------------
    def _primary_hint(self) -> Optional[str]:
        """The redirect hint a replica attaches to write rejections."""
        if self._primary_addr is None:
            return None
        return f"{self._primary_addr[0]}:{self._primary_addr[1]}"

    def _tag_watermark(self, reply: Dict[str, Any]) -> None:
        """Stamp a replica read reply with its consistency position."""
        reply["watermark"] = self._applied_commit
        if self._last_stream_mono is None or self._loop is None:
            reply["staleness_s"] = -1.0  # never heard from the primary
        else:
            reply["staleness_s"] = max(
                0.0, self._loop.time() - self._last_stream_mono
            )

    def _replication_stats(self) -> Optional[Dict[str, Any]]:
        """The ``stats`` op's replication section (None when inert)."""
        if self._is_replica:
            staleness = -1.0
            if self._last_stream_mono is not None and self._loop is not None:
                staleness = max(0.0, self._loop.time() - self._last_stream_mono)
            return {
                "role": "replica",
                "primary": self._primary_hint(),
                "applied": self._applied_commit,
                "head": self._stream_head,
                "lag_commits": max(0, self._stream_head - self._applied_commit),
                "staleness_s": staleness,
                "connected": self._repl_connected,
                "last_error": self._repl_last_error,
            }
        if not self._had_subscriber and not self._promoted:
            return None  # standalone primary: no replication to report
        now = self._loop.time() if self._loop is not None else None
        replicas = []
        # list(): stats runs in the executor; the loop may be mutating.
        for sub in list(self._subscribers.values()):
            entry: Dict[str, Any] = {
                "name": sub.name,
                "acked": sub.acked,
                "lag_commits": max(0, self._commit_log.head - sub.acked),
                "connected": not sub.writer.is_closing(),
            }
            shipped = self._commit_log.broadcast_time(sub.acked + 1)
            if shipped is not None and now is not None:
                entry["lag_s"] = max(0.0, now - shipped)
            else:
                entry["lag_s"] = 0.0
            replicas.append(entry)
        return {
            "role": "primary",
            "commit": self._commit_log.head,
            "stream": self._stream_id,
            "sync": self.repl_sync,
            "promoted": self._promoted,
            "replicas": replicas,
        }

    def _refresh_repl_gauges(self) -> None:
        """Publish replication lag as registry gauges (for /metrics)."""
        stats = self._replication_stats()
        if stats is None:
            return
        gauge = self.registry.gauge
        if stats["role"] == "replica":
            gauge("service.repl.applied").set(float(stats["applied"]))
            gauge("service.repl.head").set(float(stats["head"]))
            gauge("service.repl.lag_commits").set(float(stats["lag_commits"]))
            gauge("service.repl.staleness_s").set(stats["staleness_s"])
            gauge("service.repl.connected").set(1.0 if stats["connected"] else 0.0)
            return
        gauge("service.repl.commit").set(float(stats["commit"]))
        gauge("service.repl.replicas").set(float(len(stats["replicas"])))
        for entry in stats["replicas"]:
            name = "".join(
                ch if ch.isalnum() else "_" for ch in entry["name"]
            )
            prefix = f"service.repl.replica.{name}"
            gauge(f"{prefix}.acked").set(float(entry["acked"]))
            gauge(f"{prefix}.lag_commits").set(float(entry["lag_commits"]))
            gauge(f"{prefix}.lag_s").set(float(entry["lag_s"]))

    # ------------------------------------------------------------------
    # Replication: primary side
    # ------------------------------------------------------------------
    async def _subscribe_journal(
        self, request, writer, write_lock, codec: str
    ) -> None:
        """Register a follower and replay its backlog.

        Registration, the backlog snapshot, and the handshake write all
        happen under the flush lock, so no commit can slip between the
        snapshot and the live stream -- the follower sees a gap-free
        sequence.  Stream frames are written directly (one buffered
        ``write`` per batch, no per-frame drain): the semi-sync ack wait
        in the flush path is what bounds the send buffer.
        """
        if self._is_replica:
            await self._send(
                writer, write_lock,
                wire.error_reply(
                    wire.ERR_NOT_PRIMARY,
                    "cannot subscribe to a replica; follow the primary",
                    request, primary=self._primary_hint(),
                ),
                request, codec=codec,
            )
            return
        replica = request.get("replica")
        from_commit = request.get("from_commit", 0)
        if not isinstance(replica, str) or not replica:
            await self._send(
                writer, write_lock,
                wire.error_reply(
                    wire.ERR_BAD_REQUEST,
                    "field 'replica' must be a non-empty string", request,
                ),
                request, codec=codec,
            )
            return
        if (
            isinstance(from_commit, bool)
            or not isinstance(from_commit, int)
            or from_commit < 0
        ):
            await self._send(
                writer, write_lock,
                wire.error_reply(
                    wire.ERR_BAD_REQUEST,
                    "field 'from_commit' must be a non-negative integer",
                    request,
                ),
                request, codec=codec,
            )
            return
        assert self._flush_lock is not None and self._loop is not None
        async with self._flush_lock:
            try:
                backlog = self._commit_log.since(from_commit)
            except ReplicationError as exc:
                await self._send(
                    writer, write_lock,
                    wire.error_reply(wire.ERR_UNSUPPORTED, str(exc), request),
                    request, codec=codec,
                )
                return
            sub = self._subscribers.get(replica)
            if sub is None:
                sub = _Subscriber(replica, writer, codec, from_commit)
                self._subscribers[replica] = sub
            else:
                # A reconnect keeps the acked watermark (it only moves
                # forward); the old connection is dead or stale.
                sub.writer = writer
                sub.codec = codec
                sub.acked = max(sub.acked, from_commit)
            self._had_subscriber = True
            self._repl_expected = True
            handshake = wire.ok_reply(
                {
                    "stream": self._stream_id,
                    "commit": self._commit_log.head,
                    "kind": self.sharded.spec.kind.value,
                    "boundaries": list(self.sharded.router.boundaries),
                    "heartbeat_s": self.repl_heartbeat,
                },
                request,
            )
            frames = [wire.encode_frame(handshake, codec)]
            for seq, blob, _ in backlog:
                frames.append(
                    wire.encode_frame(self._batch_msg(seq, blob), codec)
                )
            writer.write(b"".join(frames))
        self.registry.counter("service.repl.subscribes").inc()
        self._resolve_ack_waiters()
        self._refresh_repl_gauges()
        if self._heartbeat_task is None and self.repl_heartbeat > 0:
            self._heartbeat_task = self._loop.create_task(
                self._heartbeat_loop()
            )
        try:
            await writer.drain()
        except ConnectionError:
            pass

    def _batch_msg(self, seq: int, blob: str) -> Dict[str, Any]:
        return {
            "op": "journal_batch",
            "commit": seq,
            "records": blob,
            "stream": self._stream_id,
        }

    async def _heartbeat_loop(self) -> None:
        """Keep follower links warm: gap detection and ack refresh."""
        try:
            while True:
                await asyncio.sleep(self.repl_heartbeat)
                if not self._subscribers:
                    continue
                msg = {
                    "op": "journal_batch",
                    "commit": self._commit_log.head,
                    "heartbeat": True,
                    "stream": self._stream_id,
                }
                for sub in list(self._subscribers.values()):
                    self._send_subscriber(sub, msg)
        except asyncio.CancelledError:
            pass

    def _send_subscriber(self, sub: _Subscriber, msg: Dict[str, Any]) -> None:
        if sub.writer.is_closing():
            return
        try:
            sub.writer.write(wire.encode_frame(msg, sub.codec))
        except Exception:
            pass  # a dead link is detected by pruning, not here

    async def _finish_replication(self, batch, commit_seq) -> None:
        """Ship one flushed batch and (semi-sync) await follower acks."""
        if commit_seq is None:
            return
        seq = self._ship_batch(batch)
        if seq != commit_seq:  # pragma: no cover - flushes are serialized
            raise RuntimeError(
                f"commit sequence skew: shipped {seq}, persisted {commit_seq}"
            )
        # Wait while a follower is *expected*, not merely while one is
        # connected: during a follower's reconnect after a link fault
        # the subscriber dict can be empty, and acking unreplicated
        # writes in that window is exactly the data loss a failover
        # would then expose.
        if self.repl_sync and (self._subscribers or self._repl_expected):
            await self._wait_replicated(seq)

    def _ship_batch(self, batch) -> int:
        """Record one committed batch in the log; push it to followers.

        Until the first subscriber ever appears the encode is skipped
        entirely (``CommitLog.skip``) -- a standalone primary pays
        nothing for replication being possible.
        """
        assert self._loop is not None
        now = self._loop.time()
        if not self._had_subscriber:
            return self._commit_log.skip(now)
        records = []
        for facts, _, _, idem in batch:
            record: Dict[str, Any] = {
                "facts": [[value, iv.start, iv.end] for value, iv in facts]
            }
            if idem is not None:
                record["idem"] = [idem[0], idem[1], {"applied": len(facts)}]
            records.append(record)
        blob = encode_records(records)
        seq = self._commit_log.append(blob, now)
        self.registry.counter("service.repl.batches_shipped").inc()
        if self._subscribers:
            msg = self._batch_msg(seq, blob)
            for sub in list(self._subscribers.values()):
                self._send_subscriber(sub, msg)
        return seq

    def _acked_floor(self) -> float:
        if not self._subscribers:
            # -inf while a follower is expected back (hold the floor
            # through its reconnect); +inf once degraded or standalone.
            return float("-inf") if self._repl_expected else float("inf")
        return min(sub.acked for sub in self._subscribers.values())

    def _resolve_ack_waiters(self) -> None:
        floor = self._acked_floor()
        pending = []
        for seq, future in self._ack_waiters:
            if future.done():
                continue
            if seq <= floor:
                future.set_result(True)
            else:
                pending.append((seq, future))
        self._ack_waiters = pending

    def _prune_subscribers(self) -> None:
        """Drop followers whose connection is gone; release waiters."""
        for name, sub in list(self._subscribers.items()):
            if sub.writer.is_closing():
                del self._subscribers[name]
                self.registry.counter("service.repl.subscriber_drops").inc()
        self._resolve_ack_waiters()

    async def _wait_replicated(self, seq: int) -> None:
        """Semi-sync commit: hold the ack until every live follower has
        applied this batch, bounded by ``repl_ack_timeout``.  On timeout
        the primary degrades to async (counted) rather than stalling
        writers behind a dead or wedged follower forever."""
        if self._acked_floor() >= seq:
            return
        assert self._loop is not None
        future: asyncio.Future = self._loop.create_future()
        self._ack_waiters.append((seq, future))
        try:
            await asyncio.wait_for(future, timeout=self.repl_ack_timeout)
        except asyncio.TimeoutError:
            self.registry.counter("service.repl.sync_timeouts").inc()
            self._prune_subscribers()
            if not self._subscribers:
                # Every follower is gone and none came back within the
                # ack timeout: degrade to async (release all waiters)
                # until one resubscribes.
                self._repl_expected = False
                self._resolve_ack_waiters()
        finally:
            self._ack_waiters = [
                (s, f) for s, f in self._ack_waiters if f is not future
            ]

    async def _op_journal_ack(self, request, sctx) -> Dict[str, Any]:
        replica = request.get("replica")
        commit = request.get("commit")
        if not isinstance(replica, str) or not replica:
            raise wire.ProtocolError("field 'replica' must be a non-empty string")
        if isinstance(commit, bool) or not isinstance(commit, int) or commit < 0:
            raise wire.ProtocolError("field 'commit' must be a non-negative integer")
        sub = self._subscribers.get(replica)
        if sub is not None:
            sub.acked = max(sub.acked, commit)
            if self._loop is not None:
                sub.last_ack = self._loop.time()
            self._resolve_ack_waiters()
            self._refresh_repl_gauges()
        return wire.ok_reply({}, request)

    # ------------------------------------------------------------------
    # Replication: follower side
    # ------------------------------------------------------------------
    async def _follow_loop(self) -> None:
        """Maintain the subscription to the primary until sealed."""
        assert self._repl_stop is not None
        backoff = 0.05
        while not self._repl_stop.is_set():
            try:
                await self._follow_once()
                backoff = 0.05
            except _StreamReset as exc:
                self.registry.counter("service.repl.resubscribes").inc()
                self._repl_last_error = str(exc)
                backoff = 0.05
            except _StreamRejected as exc:
                # The primary said no (diverged, wrong layout, itself a
                # replica).  Retried slowly: a later promotion over
                # there may make the subscription valid again.
                self.registry.counter("service.repl.rejected").inc()
                self._repl_last_error = str(exc)
                backoff = max(backoff, 1.0)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self.registry.counter("service.repl.disconnects").inc()
                self._repl_last_error = f"{type(exc).__name__}: {exc}"
            if self._repl_stop.is_set():
                break
            try:
                await asyncio.wait_for(
                    self._repl_stop.wait(), timeout=backoff
                )
            except asyncio.TimeoutError:
                pass
            backoff = min(backoff * 2, 1.0)

    async def _follow_once(self) -> None:
        assert self._primary_addr is not None
        host, port = self._primary_addr
        reader, writer = await asyncio.open_connection(host, port)
        self._follow_writer = writer
        try:
            subscribe = {
                "op": "subscribe_journal",
                "from_commit": self._applied_commit,
                "replica": self.replica_name,
            }
            writer.write(wire.encode_frame(subscribe, wire.CODEC_JSON))
            await writer.drain()
            self._repl_connected = True
            self._refresh_repl_gauges()
            await self._consume_stream(reader, writer)
        finally:
            self._repl_connected = False
            self._follow_writer = None
            self._gap_since = None
            try:
                writer.close()
            except Exception:
                pass

    async def _consume_stream(self, reader, writer) -> None:
        """Pump one subscription connection until it dies or is sealed.

        A link that goes quiet for ``_repl_idle`` (several heartbeat
        periods) is torn down and re-established -- the cure for every
        dropped-frame case the chaos proxy can produce, because a fresh
        ``subscribe_journal`` from the applied watermark re-fetches
        whatever was lost.
        """
        assert self._repl_stop is not None
        while not self._repl_stop.is_set():
            try:
                header = await asyncio.wait_for(
                    reader.readexactly(4), timeout=self._repl_idle
                )
                length = wire.decode_length(header)
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=self._repl_idle
                )
            except asyncio.TimeoutError:
                raise _StreamReset("replication stream idle") from None
            except (asyncio.IncompleteReadError, ConnectionError):
                if self._repl_stop.is_set():
                    return
                raise _StreamReset("replication stream closed") from None
            message = wire.decode_body(body)
            if message.get("op") == "journal_batch":
                await self._handle_journal_batch(message, writer)
            elif "ok" in message:
                if message.get("ok"):
                    result = message.get("result")
                    if isinstance(result, dict) and "stream" in result:
                        self._adopt_handshake(result)
                    # else: an ack reply to our journal_ack -- ignored.
                else:
                    error = message.get("error") or {}
                    err_type = error.get("type")
                    detail = f"{err_type}: {error.get('message')}"
                    if err_type in (
                        wire.ERR_NOT_PRIMARY,
                        wire.ERR_UNSUPPORTED,
                        wire.ERR_BAD_REQUEST,
                    ):
                        raise _StreamRejected(detail)
                    raise _StreamReset(detail)
            # Anything else on this connection is not for us; skip it.

    def _adopt_handshake(self, result: Dict[str, Any]) -> None:
        kind = result.get("kind")
        if kind is not None and kind != self.sharded.spec.kind.value:
            raise _StreamRejected(
                f"primary serves kind {kind!r}, this replica holds "
                f"{self.sharded.spec.kind.value!r}"
            )
        boundaries = result.get("boundaries")
        if boundaries is not None and list(boundaries) != list(
            self.sharded.router.boundaries
        ):
            raise _StreamRejected(
                "primary shard boundaries differ from this replica's"
            )
        head = result.get("commit")
        if isinstance(head, bool) or not isinstance(head, int):
            head = self._applied_commit
        if head < self._applied_commit:
            raise _StreamRejected(
                f"primary head {head} is behind this replica's applied "
                f"commit {self._applied_commit} (diverged history; "
                f"re-seed one side)"
            )
        self._stream_id = result.get("stream") or self._stream_id
        self._stream_head = max(self._stream_head, head)
        assert self._loop is not None
        self._last_stream_mono = self._loop.time()
        self._refresh_repl_gauges()

    async def _handle_journal_batch(self, message, writer) -> None:
        commit = message.get("commit")
        if isinstance(commit, bool) or not isinstance(commit, int):
            raise _StreamReset(f"journal_batch with bad commit {commit!r}")
        assert self._loop is not None
        now = self._loop.time()
        self._last_stream_mono = now
        if message.get("heartbeat"):
            self._stream_head = max(self._stream_head, commit)
            if self._stream_head > self._applied_commit:
                # The primary is ahead but no batch frames are arriving:
                # a dropped frame with nothing behind it to expose the
                # gap.  Heartbeats carrying a stuck watermark for longer
                # than the idle window force a resubscribe.
                if self._gap_since is None:
                    self._gap_since = now
                elif now - self._gap_since > self._repl_idle:
                    raise _StreamReset(
                        f"stream stalled at commit {self._applied_commit} "
                        f"with head {self._stream_head}"
                    )
            else:
                self._gap_since = None
            self._send_ack(writer)
            self._refresh_repl_gauges()
            return
        if commit <= self._applied_commit:
            # A duplicate delivery (chaos proxy, resubscribe overlap):
            # already applied, just re-acknowledge.
            self._send_ack(writer)
            return
        if commit != self._applied_commit + 1:
            raise _StreamReset(
                f"stream gap: expected commit {self._applied_commit + 1}, "
                f"got {commit}"
            )
        try:
            records = decode_records(message.get("records"))
        except ReplicationError as exc:
            self.registry.counter("service.repl.corrupt_batches").inc()
            raise _StreamReset(str(exc)) from None
        await self._apply_replica_records(records, commit)
        self._gap_since = None
        self._send_ack(writer)
        self._refresh_repl_gauges()

    async def _apply_replica_records(self, records, commit: int) -> None:
        """Apply one shipped batch with the primary's exact discipline.

        The idempotency keys are serialized into the commit payload
        *before* the apply and recorded in memory after it -- the same
        dedup-before-ack ordering the primary uses -- so after a
        promotion the dedup window is exactly as authoritative as it
        was on the primary at this commit.
        """
        facts = []
        idem_entries = []
        for record in records:
            event = record.get("view_event")
            if event is not None:
                # Catalog mutations ship as their own single-record
                # batches; apply tolerantly (a resubscribe can replay
                # them) and never let one poison the stream.
                try:
                    await self._run(self._apply_view_event, event)
                    self.registry.counter(
                        "service.repl.view_events_applied"
                    ).inc()
                except Exception:
                    self.registry.counter(
                        "service.repl.view_event_failures"
                    ).inc()
                continue
            for triple in record.get("facts", ()):
                value, start, end = triple
                facts.append((value, Interval(start, end)))
            idem = record.get("idem")
            if idem is not None:
                (client, seq, result) = idem
                idem_entries.append(((client, int(seq)), result))
        meta = None
        if self._durable:
            meta = {
                DEDUP_META_KEY: self._dedup.encode_with(idem_entries),
                REPL_COMMIT_META_KEY: str(commit),
            }
        try:
            await self._run(self._apply_batch, facts, meta, None)
        except _CommitFailed:
            # Applied in memory, commit failed: mirror the primary's
            # degraded-durability handling (the next successful commit
            # persists everything up to its watermark).
            self.registry.counter("service.repl.commit_failures").inc()
        for (client, seq), result in idem_entries:
            self._dedup.record(client, seq, result)
        self._applied_commit = commit
        self._stream_head = max(self._stream_head, commit)
        self.registry.counter("service.repl.batches_applied").inc()
        if facts:
            self.registry.counter("service.repl.facts_applied").inc(len(facts))

    def _send_ack(self, writer) -> None:
        """Fire-and-forget cumulative ack on the subscription link."""
        if writer.is_closing():
            return
        ack = {
            "op": "journal_ack",
            "commit": self._applied_commit,
            "replica": self.replica_name,
        }
        try:
            writer.write(wire.encode_frame(ack, wire.CODEC_JSON))
        except Exception:
            pass

    async def _op_promote(self, request, sctx) -> Dict[str, Any]:
        """Seal the stream and turn this replica into a primary.

        The follow loop is *awaited out*, never cancelled mid-apply: a
        batch either fully applied (and is covered by the watermark) or
        never started, so promotion cannot tear a commit.  The promoted
        server starts a fresh commit log based at its applied watermark
        -- its first write becomes commit ``applied + 1`` -- and keeps
        the dedup window the stream delivered, so pre-failover
        idempotency keys still answer ``duplicate: true``.
        """
        assert self._promote_lock is not None
        async with self._promote_lock:
            if not self._is_replica:
                return wire.ok_reply(
                    {
                        "promoted": False,
                        "role": "primary",
                        "commit": self._commit_log.head,
                    },
                    request,
                )
            self._repl_sealed = True
            assert self._repl_stop is not None
            self._repl_stop.set()
            if self._follow_writer is not None:
                try:
                    self._follow_writer.close()
                except Exception:
                    pass
            if self._follow_task is not None:
                try:
                    await asyncio.wait_for(
                        asyncio.shield(self._follow_task),
                        timeout=self.drain_timeout,
                    )
                except asyncio.TimeoutError:
                    self._follow_task.cancel()
                self._follow_task = None
            self._commit_log = CommitLog(
                base=self._applied_commit, cap_bytes=self.repl_log_cap
            )
            self._stream_id = uuid.uuid4().hex
            self._is_replica = False
            self._promoted = True
            self._inline_writes = self._inline_reads
            self.registry.counter("service.repl.promotions").inc()
            self._refresh_repl_gauges()
            return wire.ok_reply(
                {
                    "promoted": True,
                    "role": "primary",
                    "commit": self._applied_commit,
                },
                request,
            )

    # ------------------------------------------------------------------
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
    """A server running on a background thread (tests, quickcheck, examples).

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
