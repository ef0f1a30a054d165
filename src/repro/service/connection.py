"""The connection layer: frames in, admission, replies out.

One reader coroutine per connection.  Each **wake-up** is one chunked
receive: every complete frame in the buffer is parsed and served before
the coroutine waits for bytes again, and, per request:

* **Admission control** bounds the *global* in-flight request count and
  bytes (``max_inflight`` / :data:`MAX_INFLIGHT_BYTES`); a request
  beyond the bound is rejected immediately with ``ERR_OVERLOADED`` and a
  ``retry_after`` hint, before it holds a queue slot -- shedding load
  costs one error frame, not a thread or a growing queue.
* **Backpressure**: each connection holds a semaphore of
  :data:`QUEUE_LIMIT` in-flight requests; when it is exhausted the
  reader stops serving frames, which propagates to the client through
  TCP flow control -- a bounded per-connection queue with no explicit
  queue object.
* **Deadlines**: a request carrying ``deadline_ms`` is shed with
  ``ERR_DEADLINE`` if its budget expired while it queued.
* **Structured errors**: every failure attributable to a request is an
  ``{"ok": false, ...}`` reply on the same connection.  Only an
  unframeable body (one without the binary magic included) closes the
  connection: the frames before it are answered, then one
  ``bad_request`` frame, then EOF.
* **One reply writer** (:class:`ReplyWriter`): every reply is encoded by
  the same encode-or-degrade step and written under one lock.

**Reads take one of two routes**, chosen by what the server can observe
at that moment, never by a setting:

* *On the loop.*  ``lookup`` is the one read the paper bounds at O(h),
  so it is answered by the reader coroutine itself when that can
  neither block nor write: the tree is fault-free, tracing and per-op
  observability are off, its shard's read lock is free right now and
  that shard's store holds nothing unwritten
  (:meth:`~repro.sharding.ShardedTree.lookup` with ``wait=False``).  A
  buffer miss then evicts only clean frames, so the loop never writes a
  page and never fsyncs.  A level the pool holds costs a pointer chase
  to its cached node; the one cost left is that a cold page is a
  ``pread``, a checksum and a bisect on the loop, at most one per
  level (:meth:`~repro.core.nodestore.NodeStore.descend` reads one
  slot of the page bytes; a page is decoded on its second use).
* *One executor job per burst.*  Every other read of the wake-up --
  ``rangeq`` and ``window``, which are O(h + r) with r unbounded, and
  the lookups that declined -- is answered in order by a single job in
  the server's thread pool: one thread handoff for the burst, not one
  per request.

**Writes take one route, a write burst.**  The mutating frames of one
wake-up -- view DDL and ``table_insert`` too -- are one task
(``_serve_writes``): it hands every request to the group commit
without suspending between them (``submit``), so they reach the
committer in arrival order and join the same batches, then waits for
those batches and writes the replies.

The replies a wake-up produced on the loop leave in one write, and so
do a burst's, read or write.  Inside a burst every request keeps its
own admission count, queue slot, deadline check, error mapping, op
record and trace span; a burst is cut when the connection's slots run
out.

**Everything else** -- view reads and ``refresh_view`` /
``repair_view``, ``ping`` / ``stats`` -- runs as a task
(``_serve_request``) that holds a queue slot and is counted in flight
until its reply is written.  Writes gathered before such a
request are handed on first.

What a request *means* is not decided here: ``dispatch`` answers a
request, ``read`` is the tree reads as one blocking callable,
``submit`` hands one write to the group commit and returns the future
of its result (or raises its refusal), ``run`` moves a callable to the
server's executor, ``error_reply_for`` maps an exception to a reply,
and ``control`` names the ops that bypass admission (the replication
stream's, which must never queue behind the writers they release).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional

from .. import obs
from ..obs import trace
from ..sharding import WouldBlock
from . import protocol as wire

__all__ = ["Connections", "ReplyWriter", "DeadlineExpired"]

#: Ops whose replies a replica stamps with its applied watermark.
_REPLICA_READS = frozenset(
    ("lookup", "rangeq", "window", "stats", "query_view", "view_stats")
)

#: The tree reads: answered on the loop or in a burst, never as a task.
_TREE_READS = frozenset(("lookup", "rangeq", "window"))

#: The group commit's ops: always gathered into a write burst.
_WRITES = frozenset(
    ("insert", "batch_insert", "table_insert", "create_view", "drop_view")
)

#: Requests one connection may have in flight before its reader stops
#: taking frames (the per-connection queue bound).
QUEUE_LIMIT = 32

#: Request bytes the whole server may hold in flight before it sheds.
MAX_INFLIGHT_BYTES = 32 * 1024 * 1024


class DeadlineExpired(Exception):
    """A request's propagated deadline lapsed before dispatch."""


class ReplyWriter:
    """The write side of one connection."""

    __slots__ = ("writer", "_lock", "_errors")

    def __init__(self, writer, errors) -> None:
        self.writer = writer
        self._lock = asyncio.Lock()
        self._errors = errors

    def encode(self, reply: Dict[str, Any], request) -> Optional[bytes]:
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
        frame = self.encode(reply, request)
        if frame is not None:
            await self.write(frame)

    async def write(self, payload: bytes) -> None:
        async with self._lock:
            if self.writer.is_closing():
                return
            self.writer.write(payload)
            try:
                await self.writer.drain()
            except ConnectionError:
                pass


class _Connection:
    """One connection's state between wake-ups: its reply writer, its
    :data:`QUEUE_LIMIT` slots, its unfinished tasks, and what the wake-up
    being served has gathered so far -- replies encoded on the loop, the
    reads of the next executor job and the writes of the next write
    burst."""

    __slots__ = (
        "out", "slots", "tasks", "arrival", "replies", "burst", "burst_bytes",
        "writes", "writes_bytes",
    )

    def __init__(self, out: ReplyWriter, slots: asyncio.Semaphore) -> None:
        self.out = out
        self.slots = slots
        self.tasks: set = set()
        self.arrival = 0.0
        self.replies: List[bytes] = []
        self.burst: List[tuple] = []
        self.burst_bytes = 0
        self.writes: List[tuple] = []
        self.writes_bytes = 0


class Connections:
    """Every open connection, the global in-flight accounting, the
    two read routes and the write route.  ``follower`` returns the node's
    :class:`~repro.service.replication.Follower` while it is a replica
    (else None): replicas tag their reads."""

    def __init__(
        self,
        sharded,
        *,
        dispatch,
        read: Callable[..., Any],
        submit: Callable[..., Any],
        run: Callable[..., Any],
        error_reply_for,
        control: Dict[str, Callable],
        follower: Callable[[], Any],
        registry: obs.MetricsRegistry,
        max_inflight: int = 256,
        retry_after: float = 0.05,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        self.sharded = sharded
        self.registry = registry
        self.max_inflight = max_inflight
        self.retry_after = retry_after
        self._dispatch = dispatch
        self._read = read
        self._submit = submit
        self._run = run
        self._error_reply_for = error_reply_for
        self._control = control
        self._follower = follower
        self._tasks: set = set()
        self._inflight = 0
        self._inflight_bytes = 0
        self._writers: set = set()
        self._fault_free = sharded.fault_injector is None
        # Hot-path bindings, resolved once instead of per request: the
        # profile of the dispatch loop showed registry name lookups
        # costing more than the tree work for ping-sized requests.
        self._m_errors = registry.counter("service.errors")
        self._m_overload = registry.counter("service.overload.rejected")
        self._m_deadline_shed = registry.counter("service.deadline.shed")
        self._m_fast_reads = registry.counter("service.fast_reads")
        self._m_read_bursts = registry.counter("service.read_bursts")
        self._h_read_burst_size = registry.histogram(
            "service.read_burst.size", bounds=(1, 2, 4, 8, 16, 32, 64, 128, 256)
        )
        self._m_write_bursts = registry.counter("service.write_bursts")
        self._h_write_burst_size = registry.histogram(
            "service.write_burst.size", bounds=(1, 2, 4, 8, 16, 32, 64, 128, 256)
        )

    # ------------------------------------------------------------------
    # Accounting and drain
    # ------------------------------------------------------------------
    def _track(self, task, requests: int, nbytes: int) -> None:
        """Count *task* as *requests* in-flight requests until it ends."""
        self._tasks.add(task)
        self._inflight += requests
        self._inflight_bytes += nbytes
        task.add_done_callback(lambda t: self._done(t, requests, nbytes))

    def _done(self, task, requests: int, nbytes: int) -> None:
        self._tasks.discard(task)
        self._inflight -= requests
        self._inflight_bytes -= nbytes

    def stats(self) -> Dict[str, Any]:
        return {
            "inflight": self._inflight,
            "inflight_bytes": self._inflight_bytes,
            "limits": {
                "max_inflight": self.max_inflight,
                "max_inflight_bytes": MAX_INFLIGHT_BYTES,
            },
        }

    async def drain(self, timeout: float) -> None:
        """Let in-flight requests reply, then close every connection."""
        if self._tasks:
            await asyncio.wait(list(self._tasks), timeout=timeout)
        for task in list(self._tasks):
            task.cancel()
        for writer in list(self._writers):
            writer.close()

    # ------------------------------------------------------------------
    # The frame loop
    # ------------------------------------------------------------------
    async def handle(self, reader, writer) -> None:
        """``asyncio.start_server`` callback: serve one connection."""
        self._writers.add(writer)
        out = ReplyWriter(writer, self._m_errors)
        conn = _Connection(out, asyncio.Semaphore(QUEUE_LIMIT))
        self.registry.counter("service.connections.opened").inc()
        buf = bytearray()
        unframeable = None
        try:
            while unframeable is None:
                try:
                    chunk = await reader.read(wire.RECV_CHUNK)
                except ConnectionError:
                    return
                if not chunk:
                    break  # EOF; a partial frame in buf is dropped
                buf += chunk
                frames, unframeable = wire.take_frames(buf)
                await self._serve_frames(conn, frames)
            # The server hangs up only after this connection's accepted
            # requests were answered.
            if conn.tasks:
                await asyncio.wait(list(conn.tasks))
            if unframeable is not None:
                await out.send(
                    wire.error_reply(wire.ERR_BAD_REQUEST, str(unframeable))
                )
        finally:
            self._writers.discard(writer)
            self.registry.counter("service.connections.closed").inc()
            try:
                writer.close()
            except Exception:
                pass

    async def _serve_frames(self, conn: _Connection, frames) -> None:
        """Serve the requests of one wake-up, in order."""
        out, slots = conn.out, conn.slots
        arrival = conn.arrival = asyncio.get_running_loop().time()
        for request, length in frames:
            op = request.get("op")
            control = self._control.get(op)
            if control is not None:
                # Before admission: a follower's ack queued behind
                # max_inflight would deadlock the writers it releases.
                await self._settle(conn)
                try:
                    reply = await control(request, out)
                except Exception as exc:
                    reply = self._error_reply_for(exc, request)
                if reply is not None:
                    await out.send(reply, request)
                continue
            inflight = self._inflight + len(conn.burst) + len(conn.writes)
            inflight_bytes = (
                self._inflight_bytes + conn.burst_bytes + conn.writes_bytes
            )
            if (
                inflight >= self.max_inflight
                or inflight_bytes + length > MAX_INFLIGHT_BYTES
            ):
                self._m_overload.inc()
                conn.replies.append(
                    out.encode(
                        wire.error_reply(
                            wire.ERR_OVERLOADED,
                            f"server over capacity ({inflight} requests, "
                            f"{inflight_bytes} bytes in flight)",
                            request,
                            retry_after=self.retry_after,
                        ),
                        request,
                    )
                )
                continue
            if op in _TREE_READS:
                if (
                    op == "lookup"
                    and self._fault_free
                    and not trace.TRACING
                    and not obs.ENABLED
                ):
                    reply = self._lookup_on_loop(request, arrival)
                    if reply is not None:
                        conn.replies.append(out.encode(reply, request))
                        continue
                await self._take_slot(conn)
                conn.burst.append((request, self._server_span(request)))
                conn.burst_bytes += length
                continue
            await self._take_slot(conn)
            if op in _WRITES:
                conn.writes.append((request, self._server_span(request)))
                conn.writes_bytes += length
                continue
            self._settle_writes(conn)
            self._spawn(
                conn, self._serve_request(request, out, slots, arrival), 1, length
            )
        await self._settle(conn)

    def _spawn(self, conn: _Connection, coro, requests: int, nbytes: int) -> None:
        """Run *coro* as a task that counts as *requests* in flight and
        that its connection waits for before the server hangs up."""
        task = asyncio.ensure_future(coro)
        self._track(task, requests, nbytes)
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)

    async def _take_slot(self, conn: _Connection) -> None:
        """Backpressure: stop serving frames while the connection's
        slots are all taken.  A gathered burst holds slots itself, so it
        is dispatched before the wait -- waiting on slots that only an
        undispatched burst can free would never end."""
        if conn.slots.locked():
            await self._settle(conn)
        await conn.slots.acquire()

    def _settle_writes(self, conn: _Connection) -> None:
        """Hand the writes gathered so far to one write-burst task."""
        if conn.writes:
            entries, nbytes = conn.writes, conn.writes_bytes
            conn.writes, conn.writes_bytes = [], 0
            self._m_write_bursts.inc()
            self._h_write_burst_size.record(len(entries))
            self._spawn(
                conn,
                self._serve_writes(conn, entries, conn.arrival),
                len(entries),
                nbytes,
            )

    async def _settle(self, conn: _Connection) -> None:
        """Hand what the wake-up gathered so far onward: the writes to
        one task, the reads to one executor job, the replies encoded on
        the loop to one write.  Runs before anything that can suspend
        the reader, and last."""
        self._settle_writes(conn)
        if conn.burst:
            entries, nbytes = conn.burst, conn.burst_bytes
            conn.burst, conn.burst_bytes = [], 0
            self._m_read_bursts.inc()
            self._h_read_burst_size.record(len(entries))
            self._spawn(
                conn,
                self._serve_burst(conn, entries, conn.arrival),
                len(entries),
                nbytes,
            )
        if conn.replies:
            payload = b"".join(conn.replies)
            conn.replies.clear()
            await conn.out.write(payload)

    def check_deadline(self, request, arrival: float, now: float) -> None:
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is None:
            return
        waited_ms = (now - arrival) * 1e3
        if waited_ms >= wire.instant(deadline_ms, "deadline_ms"):
            raise DeadlineExpired(
                f"deadline of {deadline_ms}ms expired after "
                f"{waited_ms:.1f}ms on the server"
            )

    # ------------------------------------------------------------------
    # What every answered request shares
    # ------------------------------------------------------------------
    @staticmethod
    def _server_span(request) -> Optional[trace.TraceContext]:
        """The request's trace hop: a child of the client's span,
        covering the whole server-side dispatch.  Spans inside the
        executor threads nest under it via trace.wrap; the event loop
        itself never touches thread-local context (tasks interleave)."""
        if trace.TRACING:
            ctx_in = trace.TraceContext.from_wire(request.get("trace"))
            if ctx_in is not None:
                return ctx_in.child()
        return None

    def _failed(self, exc: BaseException, request, sctx=None) -> Dict[str, Any]:
        if isinstance(exc, DeadlineExpired):
            self._m_deadline_shed.inc()
        return self._error_reply_for(
            exc, request, sctx.trace_id if sctx is not None else None
        )

    def _finish(self, request, reply, wall_us: float, sctx=None) -> Dict[str, Any]:
        """Account for one answered request -- its ``service.<op>`` op
        record, ``service.errors``, the replica's watermark tag, its
        ``server.request`` span -- and return the reply to send."""
        op = request.get("op")
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
        return reply

    def _frame(self, conn, request, outcome, wall_us: float, sctx) -> bytes:
        """One request of a burst, answered and encoded: *outcome* is its
        ok reply, or the exception its error reply maps from."""
        if isinstance(outcome, BaseException):
            outcome = self._failed(outcome, request, sctx)
        return conn.out.encode(
            self._finish(request, outcome, wall_us, sctx), request
        )

    async def _serve_request(self, request, out, slots, arrival) -> None:
        loop = asyncio.get_running_loop()
        started = loop.time()
        sctx = self._server_span(request)
        try:
            self.check_deadline(request, arrival, started)
            reply = await self._dispatch(request, sctx)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # never let a request kill the server
            reply = self._failed(exc, request, sctx)
        finally:
            slots.release()
        wall_us = (loop.time() - started) * 1e6
        await out.send(self._finish(request, reply, wall_us, sctx), request)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    async def _serve_writes(
        self, conn: _Connection, entries: List[tuple], arrival: float
    ) -> None:
        """One task for a burst of writes, one write for its replies.
        Every request reaches the committer before the task first
        suspends; one refused on the way (a lapsed deadline, a malformed
        body, a replica, a drain) joins no batch, and its reply leaves
        with the others once their batches settled."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        outcomes = []
        for request, sctx in entries:
            try:
                self.check_deadline(request, arrival, started)
                outcomes.append(self._submit(request, sctx))
            except Exception as exc:  # never let a request kill the burst
                outcomes.append(exc)
        frames = []
        try:
            for (request, sctx), outcome in zip(entries, outcomes):
                if not isinstance(outcome, Exception):
                    try:
                        outcome = wire.ok_reply(await outcome, request)
                    except Exception as exc:
                        outcome = exc
                wall_us = (loop.time() - started) * 1e6
                frames.append(self._frame(conn, request, outcome, wall_us, sctx))
        finally:
            for _ in entries:
                conn.slots.release()
        await conn.out.write(b"".join(frames))

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _lookup_on_loop(self, request, arrival) -> Optional[Dict[str, Any]]:
        """Answer a lookup on the event loop, or None to put it in the
        burst: the read declines (:class:`~repro.sharding.WouldBlock`)
        when its shard's read lock is not free right now or the shard's
        store holds unwritten pages, so the loop neither waits for a
        writer nor writes for one."""
        now = asyncio.get_running_loop().time
        try:
            self.check_deadline(request, arrival, now())
            reply = wire.ok_reply(self._read(request, wait=False), request)
        except WouldBlock:
            return None
        except Exception as exc:  # never let a request kill the server
            reply = self._failed(exc, request)
        self._m_fast_reads.inc()
        return self._finish(request, reply, (now() - arrival) * 1e6)

    async def _serve_burst(
        self, conn: _Connection, entries: List[tuple], arrival: float
    ) -> None:
        """One executor job for a burst of reads, one write for its
        replies.  Counters, the error mapping and spans stay on the
        loop: the job only reads the tree."""
        try:
            outcomes = await self._run(
                self._answer_burst,
                entries,
                arrival,
                asyncio.get_running_loop().time,
            )
        except Exception as exc:  # the executor refused the job
            outcomes = [(exc, 0.0)] * len(entries)
        finally:
            for _ in entries:
                conn.slots.release()
        frames = [
            self._frame(conn, request, outcome, wall_us, sctx)
            for (request, sctx), (outcome, wall_us) in zip(entries, outcomes)
        ]
        await conn.out.write(b"".join(frames))

    def _answer_burst(self, entries, arrival: float, clock) -> List[tuple]:
        """The executor job: answer each read in order, shedding the
        ones whose deadline lapsed while earlier ones ran.  Returns one
        ``(ok reply | exception, wall_us)`` per entry."""
        outcomes = []
        for request, sctx in entries:
            started = clock()
            try:
                self.check_deadline(request, arrival, started)
                if sctx is None:
                    result = self._read(request)
                else:
                    result = trace.wrap(sctx, self._read, request)()
                outcome = wire.ok_reply(result, request)
            except Exception as exc:  # never let a request kill the burst
                outcome = exc
            outcomes.append((outcome, (clock() - started) * 1e6))
        return outcomes
