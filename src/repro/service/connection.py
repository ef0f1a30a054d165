"""The connection layer: frames in, admission, replies out.

One reader coroutine per connection turns length-prefixed frames into
request dicts and, per request:

* **Admission control** bounds the *global* in-flight request count and
  bytes (``max_inflight`` / ``max_inflight_bytes``); a request beyond
  the bound is rejected immediately with ``ERR_OVERLOADED`` and a
  ``retry_after`` hint, before it holds a queue slot -- shedding load
  costs one error frame, not a thread or a growing queue.
* **Backpressure**: each connection holds a semaphore of ``queue_limit``
  in-flight requests; when it is exhausted the reader stops reading
  frames, which propagates to the client through TCP flow control -- a
  bounded per-connection queue with no explicit queue object.
* **Deadlines**: a request carrying ``deadline_ms`` is shed with
  ``ERR_DEADLINE`` if its budget expired while it queued.
* **Structured errors**: every failure attributable to a request is an
  ``{"ok": false, ...}`` reply on the same connection.  Only an
  unframeable body (one without the binary magic included) closes the
  connection, after one ``bad_request`` frame.
* **One reply writer** (:class:`ReplyWriter`): every reply -- awaited
  sends and the coalesced acks of inline inserts alike -- is encoded by
  the same encode-or-degrade step and written under one lock.

Two **inline fast paths** skip the per-request task on in-memory,
fault-free trees when no tracing is on: a ``lookup`` whose shard read
lock is free is answered on the event loop itself, and an ``insert``
joins the group-commit batch straight from the read loop, its ack
coalesced with its connection's other acks into one write per flush.
Both are off for durable or fault-injected trees, whose stores may
carry delays that must never run on the loop (inline inserts also hold
no admission slot, which the overload contract needs while faults slow
requests down).

What a request *means* is not decided here: ``dispatch`` answers a
request, ``error_reply_for`` maps an exception to a reply, and
``control`` names the ops that bypass admission (the replication
stream's, which must never queue behind the writers they release).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional

from .. import obs
from ..obs import trace
from . import protocol as wire
from .groupcommit import Draining

__all__ = ["Connections", "ReplyWriter", "DeadlineExpired"]

#: Ops whose replies a replica stamps with its applied watermark.
_REPLICA_READS = frozenset(
    ("lookup", "rangeq", "window", "stats", "query_view", "view_stats")
)


class DeadlineExpired(Exception):
    """A request's propagated deadline lapsed before dispatch."""


class ReplyWriter:
    """The write side of one connection."""

    __slots__ = ("writer", "_lock", "_errors", "_track", "_queued")

    def __init__(self, writer, errors, track) -> None:
        self.writer = writer
        self._lock = asyncio.Lock()
        self._errors = errors
        self._track = track
        self._queued: List[bytes] = []

    def _encode(self, reply: Dict[str, Any], request) -> Optional[bytes]:
        try:
            return wire.encode_frame(reply)
        except Exception as exc:
            # An unserializable result must not silently drop the reply
            # (the client would see its request vanish): degrade to a
            # structured server_error on the same connection.
            if request is None:
                return None
            self._errors.inc()
            return wire.encode_frame(
                wire.error_reply(
                    wire.ERR_SERVER,
                    f"reply not serializable: {type(exc).__name__}: {exc}",
                    request,
                )
            )

    async def send(self, reply: Dict[str, Any], request=None) -> None:
        frame = self._encode(reply, request)
        if frame is not None:
            await self._write(frame)

    def queue(self, reply: Dict[str, Any], request) -> None:
        """Send without awaiting: replies queued in one loop turn leave
        in one coalesced write (the task counts as in flight, so a
        drain waits for it)."""
        if not self._queued:
            self._track(
                asyncio.get_running_loop().create_task(self._write_queued())
            )
        self._queued.append(self._encode(reply, request))

    async def _write_queued(self) -> None:
        frames, self._queued = self._queued, []
        await self._write(b"".join(frames))

    async def _write(self, payload: bytes) -> None:
        async with self._lock:
            if self.writer.is_closing():
                return
            self.writer.write(payload)
            try:
                await self.writer.drain()
            except ConnectionError:
                pass


class _InlineAck:
    """Reply slot for an insert enqueued straight from the read loop:
    the flush settles it instead of a task awaiting a future."""

    __slots__ = ("conns", "out", "request", "arrival")

    def __init__(self, conns, out, request, arrival) -> None:
        self.conns = conns
        self.out = out
        self.request = request
        self.arrival = arrival

    def resolve(self, result: Dict[str, Any]) -> None:
        self.conns._record_insert(self.arrival)
        self.out.queue(wire.ok_reply(result, self.request), self.request)

    def fail(self, exc: BaseException) -> None:
        self.conns._m_errors.inc()
        self.conns._record_insert(self.arrival)
        self.out.queue(
            self.conns._error_reply_for(exc, self.request), self.request
        )


class Connections:
    """Every open connection, the global in-flight accounting, and the
    inline fast paths.  ``follower`` returns the node's
    :class:`~repro.service.replication.Follower` while it is a replica
    (else None): replicas tag reads and take no inline writes -- their
    writes must reach the not-primary rejection in dispatch."""

    def __init__(
        self,
        sharded,
        committer,
        *,
        dispatch,
        error_reply_for,
        control: Dict[str, Callable],
        follower: Callable[[], Any],
        registry: obs.MetricsRegistry,
        queue_limit: int = 32,
        max_inflight: int = 256,
        max_inflight_bytes: int = 32 * 1024 * 1024,
        retry_after: float = 0.05,
    ) -> None:
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if max_inflight < 1 or max_inflight_bytes < 1:
            raise ValueError("inflight bounds must be positive")
        self.sharded = sharded
        self.committer = committer
        self.registry = registry
        self.queue_limit = queue_limit
        self.max_inflight = max_inflight
        self.max_inflight_bytes = max_inflight_bytes
        self.retry_after = retry_after
        self._dispatch = dispatch
        self._error_reply_for = error_reply_for
        self._control = control
        self._follower = follower
        self._inflight: set = set()
        self._inflight_bytes = 0
        self._writers: set = set()
        self._inline = not sharded.durable and sharded.fault_injector is None
        # Hot-path bindings, resolved once instead of per request: the
        # profile of the dispatch loop showed registry name lookups
        # costing more than the tree work for ping-sized requests.
        self._m_errors = registry.counter("service.errors")
        self._m_overload = registry.counter("service.overload.rejected")
        self._m_deadline_shed = registry.counter("service.deadline.shed")
        self._m_fast_reads = registry.counter("service.fast_reads")
        self._m_fast_writes = registry.counter("service.fast_writes")

    # ------------------------------------------------------------------
    # Accounting and drain
    # ------------------------------------------------------------------
    def _track(self, task, nbytes: int = 0) -> None:
        self._inflight.add(task)
        self._inflight_bytes += nbytes
        task.add_done_callback(lambda t: self._done(t, nbytes))

    def _done(self, task, nbytes: int) -> None:
        self._inflight.discard(task)
        self._inflight_bytes -= nbytes

    def stats(self) -> Dict[str, Any]:
        return {
            "inflight": len(self._inflight),
            "inflight_bytes": self._inflight_bytes,
            "limits": {
                "max_inflight": self.max_inflight,
                "max_inflight_bytes": self.max_inflight_bytes,
            },
        }

    async def drain(self, timeout: float) -> None:
        """Let in-flight requests reply, then close every connection."""
        if self._inflight:
            await asyncio.wait(list(self._inflight), timeout=timeout)
        for task in list(self._inflight):
            task.cancel()
        for writer in list(self._writers):
            writer.close()

    # ------------------------------------------------------------------
    # The frame loop
    # ------------------------------------------------------------------
    async def handle(self, reader, writer) -> None:
        """``asyncio.start_server`` callback: serve one connection."""
        self._writers.add(writer)
        slots = asyncio.Semaphore(self.queue_limit)
        out = ReplyWriter(writer, self._m_errors, self._track)
        self.registry.counter("service.connections.opened").inc()
        try:
            while True:
                try:
                    header = await reader.readexactly(4)
                    length = wire.decode_length(header)
                    body = await reader.readexactly(length)
                    request = wire.decode_body(body)
                except wire.ProtocolError as exc:
                    # Unframeable input: answer once, then hang up (the
                    # stream offset can no longer be trusted).
                    await out.send(
                        wire.error_reply(wire.ERR_BAD_REQUEST, str(exc))
                    )
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                arrival = asyncio.get_running_loop().time()
                op = request.get("op")
                control = self._control.get(op)
                if control is not None:
                    # Before admission: a follower's ack queued behind
                    # max_inflight would deadlock the writers it releases.
                    try:
                        reply = await control(request, out)
                    except Exception as exc:
                        reply = self._error_reply_for(exc, request)
                    if reply is not None:
                        await out.send(reply, request)
                    continue
                if (
                    len(self._inflight) >= self.max_inflight
                    or self._inflight_bytes + length > self.max_inflight_bytes
                ):
                    self._m_overload.inc()
                    await out.send(
                        wire.error_reply(
                            wire.ERR_OVERLOADED,
                            f"server over capacity ({len(self._inflight)} "
                            f"requests, {self._inflight_bytes} bytes in flight)",
                            request,
                            retry_after=self.retry_after,
                        ),
                        request,
                    )
                    continue
                if self._inline and not trace.TRACING and not obs.ENABLED:
                    if op == "lookup":
                        reply = self._fast_lookup_reply(request, arrival)
                        if reply is not None:
                            await out.send(reply, request)
                            continue
                    elif op == "insert" and self._follower() is None:
                        if await self._fast_insert(request, arrival, out):
                            continue
                await slots.acquire()  # backpressure: stop reading when full
                self._track(
                    asyncio.ensure_future(
                        self._serve_request(request, out, slots, arrival)
                    ),
                    length,
                )
        finally:
            self._writers.discard(writer)
            self.registry.counter("service.connections.closed").inc()
            try:
                writer.close()
            except Exception:
                pass

    def check_deadline(self, request, arrival: float, loop) -> None:
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is None:
            return
        waited_ms = (loop.time() - arrival) * 1e3
        if waited_ms >= wire.instant(deadline_ms, "deadline_ms"):
            self._m_deadline_shed.inc()
            raise DeadlineExpired(
                f"deadline of {deadline_ms}ms expired after "
                f"{waited_ms:.1f}ms on the server"
            )

    async def _serve_request(self, request, out, slots, arrival) -> None:
        loop = asyncio.get_running_loop()
        started = loop.time()
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
            self.check_deadline(request, arrival, loop)
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
        elif op in _REPLICA_READS:
            follower = self._follower()
            if follower is not None:
                follower.tag(reply)
        if sctx is not None:
            trace.emit_span(
                sctx,
                "server.request",
                wall_us,
                attrs={"op": name, "ok": bool(reply.get("ok"))},
            )
        await out.send(reply, request)

    # ------------------------------------------------------------------
    # Inline fast paths
    # ------------------------------------------------------------------
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
            self.check_deadline(request, arrival, loop)
            t = wire.instant(request.get("t"), "t")
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
        else:
            follower = self._follower()
            if follower is not None:
                follower.tag(reply)
        return reply

    async def _fast_insert(self, request, arrival, out: ReplyWriter) -> bool:
        """Enqueue an insert from the read loop, or False for slow path.

        Validation, deadline shedding, and the dedup window check all
        run inline (they are in-memory and sync); the apply itself still
        happens through the committer's unchanged flush, so exactly-once
        and durability semantics are identical.  The only declined case
        is a duplicate racing its original batch -- joining a flight
        needs the await machinery of ``GroupCommitter.write``.
        """
        committer = self.committer
        idem = None
        try:
            self.check_deadline(request, arrival, asyncio.get_running_loop())
            facts = [
                wire.fact(
                    request.get("value"), request.get("start"), request.get("end")
                )
            ]
            idem = wire.idem_key(request)
            if committer.draining:
                raise Draining(
                    "server is draining; retry against the new instance"
                )
            reply = None
        except Exception as exc:
            reply = self._error_reply_for(exc, request)
        if reply is None and idem is not None:
            replay = committer.replay_for(idem)
            if replay is not None:
                reply = wire.ok_reply(replay, request)
            elif committer.in_flight(idem):
                return False  # joining an in-flight batch: slow path
        if reply is not None:
            # Early answer (shed, rejected, or dedup replay): mirror the
            # slow path's accounting before sending.
            if not reply.get("ok"):
                self._m_errors.inc()
            self._record_insert(arrival)
            await out.send(reply, request)
            return True
        self._m_fast_writes.inc()
        await committer.enqueue_inline(
            facts, idem, _InlineAck(self, out, request, arrival)
        )
        return True

    def _record_insert(self, arrival: float) -> None:
        self.registry.record_op(
            obs.OpRecord(
                op="service.insert",
                wall_us=(asyncio.get_running_loop().time() - arrival) * 1e6,
            )
        )
