"""A pipelined blocking client for the temporal-aggregate service.

Stdlib sockets, no thread.  One connection carries **many in-flight
requests**: whichever caller is waiting for a reply reads the socket and
matches every reply frame it finds to its caller by request id, so
replies may arrive out of order (and stale or duplicated replies -- a
chaos proxy can manufacture both -- are simply discarded when no caller
is waiting on their id).  Replies are read only while somebody waits:
collect results every few thousand requests.  The synchronous methods
(:meth:`ServiceClient.insert`, :meth:`~ServiceClient.lookup`, ...) send
one request and wait for its reply; :meth:`ServiceClient.submit` sends
without waiting and returns a :class:`ReplyFuture`, which is how a
caller keeps a deep pipeline of requests in flight.

**Exactly-once writes.**  Every mutating request carries an idempotency
key ``(client, seq)`` (see :mod:`repro.service.protocol`): the server
applies each key at most once and replays the original reply for
duplicates, so retrying a write whose reply was lost is *safe* -- it
can never double-apply a fact, even through a chaos proxy that drops,
duplicates, or truncates frames.  Callers that retry a logical write
across ``_request`` failures themselves (the patient writers of
:mod:`repro.service.patient` do) must pass the same ``seq`` to every
attempt; :meth:`ServiceClient.next_seq` hands out fresh ones.

**Retries.**  Transport failures (connect refused, timeout, reset,
mid-frame EOF) and the server's explicitly retryable rejections
(``overloaded``, ``shutting_down``) are retried with capped exponential
backoff and deterministic-seedable jitter, honoring the server's
``retry_after`` hint and a per-call *retry budget* -- the total time a
call may spend sleeping between attempts is bounded no matter how many
retries are configured.  Any other structured server error is raised
once as :class:`ServiceError` and never retried.  A request carrying a
``deadline_ms`` budget re-stamps the *remaining* budget on every
attempt (elapsed time and backoff sleeps subtracted) and stops
retrying once it reaches zero -- a retry cannot spend the caller's
budget several times over.

**Circuit breaker.**  After ``circuit_threshold`` consecutive failed
attempts the client stops hammering the server: calls fail fast with
:class:`CircuitOpenError` until ``circuit_cooldown`` elapses, then
exactly one trial request half-opens the circuit (success closes it,
failure re-opens it); concurrent callers keep failing fast while the
trial is in flight.

**Replicas.**  Constructed with ``replicas=["host:port", ...]``, reads
(``lookup``, ``rangeq``, ``window``) round-robin across the replica
set and fall back to the primary when a replica fails or reports
staleness beyond ``max_staleness_s``; every replica-served reply
records the replica's applied-commit watermark on ``last_watermark`` /
``last_staleness_s``.  Writes always go to the primary; a
``not_primary`` rejection (stale routing after a failover) makes the
client adopt the server's redirect hint -- or probe the replica set
for the newly promoted primary -- and retry transparently.

    from repro.service.client import ServiceClient

    with ServiceClient("127.0.0.1", 7071) as svc:
        svc.insert(2, 10, 40)
        svc.lookup(19)                  # -> 2
        svc.rangeq(0, 50)               # -> [(2, Interval(10, 40)), ...]

        futures = [svc.submit("lookup", t=t) for t in range(32)]
        values = [f.result() for f in futures]   # 32 requests, 1 round trip
"""

from __future__ import annotations

import functools
import itertools
import select
import socket
import threading
import time
import uuid
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.intervals import Interval
from ..faults import derive_rng
from ..obs import trace
from . import protocol as wire

__all__ = [
    "ServiceClient",
    "ReplyFuture",
    "ServiceError",
    "TransportError",
    "CircuitOpenError",
]

#: Server rejections that are safe and sensible to retry: the request
#: was not applied (overload shedding happens before the write queue;
#: drain rejections happen before enqueue), and with idempotency keys a
#: lost-reply retry is deduplicated server-side anyway.
RETRYABLE_ERRORS = frozenset({wire.ERR_OVERLOADED, wire.ERR_SHUTTING_DOWN})


class ServiceError(RuntimeError):
    """A structured error reply from the server.

    ``trace_id`` is populated from the error object when the server ran
    the failed request under a trace (``server_error`` replies carry
    it); ``retry_after`` from overload/drain rejections.
    """

    def __init__(
        self,
        err_type: str,
        message: str,
        trace_id: Optional[str] = None,
        retry_after: Optional[float] = None,
        primary: Optional[str] = None,
    ) -> None:
        super().__init__(f"[{err_type}] {message}")
        self.type = err_type
        self.message = message
        self.trace_id = trace_id
        self.retry_after = retry_after
        #: ``"host:port"`` redirect hint from a replica's write rejection.
        self.primary = primary

    @classmethod
    def from_reply(cls, reply: Dict[str, Any]) -> "ServiceError":
        """The exception an ``ok: false`` reply stands for."""
        error = reply.get("error") or {}
        return cls(
            error.get("type", "unknown"),
            error.get("message", ""),
            error.get("trace_id"),
            error.get("retry_after"),
            error.get("primary"),
        )


class TransportError(ConnectionError):
    """Could not complete a request within the retry/budget bounds."""


class CircuitOpenError(TransportError):
    """Failing fast: the client's circuit breaker is open."""


class _Pending:
    """One in-flight request's reply slot (its connection's lock guards it)."""

    reply: Optional[Dict[str, Any]] = None
    error: Optional[BaseException] = None


class _Connection:
    """One socket, no thread: a caller waiting for a reply receives for
    everyone (:meth:`wait`), senders share it under ``_send_lock``.
    When the connection dies -- EOF, reset, a protocol violation from
    the peer, or :meth:`close` -- it *shatters*: every pending request
    fails with the same error and the connection refuses new
    registrations, so no caller blocks on a reply that can never arrive.
    """

    def __init__(self, host: str, port: int, connect_timeout: float) -> None:
        sock = socket.create_connection((host, port), timeout=connect_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Blocking: a request's timeout is its receiver's ``select``.
        sock.settimeout(None)
        self.sock = sock
        self._send_lock = threading.Lock()
        self._outbox = bytearray()
        #: Guards ``_pending``, ``dead`` and ``leading``.
        self._cond = threading.Condition(threading.Lock())
        self._pending: Dict[Any, _Pending] = {}
        self.dead: Optional[BaseException] = None
        #: True while some caller holds the receive side (and ``_buf``).
        self.leading = False
        self._buf = bytearray()

    def usable(self) -> bool:
        """Alive, as far as can be known without waiting.  Nobody reads
        an idle connection, so it is polled here: a peer that closed it
        meanwhile is noticed before the next request is sent on it."""
        if self.dead is None and not self._pending:
            with self._cond:
                idle = not (self._pending or self.leading)
                if idle:
                    self.leading = True
            if idle:
                self._receive(0)
        return self.dead is None

    def register(self, request_id: Any) -> Callable[..., Dict[str, Any]]:
        """Expect a reply to *request_id*; returns its :meth:`wait`."""
        pending = _Pending()
        with self._cond:
            if self.dead is not None:
                raise ConnectionError(
                    f"connection already failed: {self.dead}"
                ) from self.dead
            self._pending[request_id] = pending
        return functools.partial(self.wait, pending)

    def send(self, frame: bytes = b"", flush: bool = True) -> None:
        """Queue one frame; ``flush=False`` corks it, so that a burst
        pays one ``sendall`` system call instead of one per request: the
        next flushing send (an empty one will do) pushes the whole outbox."""
        with self._send_lock:
            self._outbox += frame
            if self._outbox and (flush or len(self._outbox) >= 256 * 1024):
                out, self._outbox = self._outbox, bytearray()
                self.sock.sendall(out)

    def wait(self, pending: _Pending, timeout: Optional[float]) -> Dict[str, Any]:
        """Block until *pending* is filled.  The first waiter leads: it
        receives for everyone until its own reply is in.  The others
        sleep; each turn of the leader wakes them, and when it has left
        one of them takes the socket over."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._cond:
                while pending.reply is None and pending.error is None:
                    left = None if deadline is None else deadline - time.monotonic()
                    if not self.leading:
                        self.leading = True
                        break
                    if left is not None and left <= 0:
                        raise socket.timeout(f"no reply within {timeout}s")
                    self._cond.wait(left)
                else:
                    if pending.error is not None:
                        raise pending.error
                    return pending.reply
            if not self._receive(left):
                raise socket.timeout(f"no reply within {timeout}s")

    def _receive(self, timeout: Optional[float]) -> bool:
        """One turn of the caller that set ``leading``: wait up to
        *timeout* for bytes, read one chunk (a pipelined burst of replies
        often arrives in one) and fill the slot of every reply in it.
        False if nothing arrived in time."""
        error, arrived = None, True
        try:
            if timeout is not None and not select.select(
                [self.sock], (), (), max(timeout, 0.0)
            )[0]:
                arrived = False
            else:
                chunk = self.sock.recv(256 * 1024)
                if not chunk and self._buf:
                    raise wire.ConnectionClosedMidFrame("connection closed mid-frame")
                if not chunk:
                    raise ConnectionError("server closed the connection")
                self._buf += chunk
                frames, error = wire.take_frames(self._buf)
                with self._cond:
                    for reply, _ in frames:
                        # No waiter: a stale or duplicated reply (a chaos
                        # proxy duplicates frames) -- discard it; matching
                        # by id keeps the pipeline synchronized regardless.
                        waiter = self._pending.pop(reply.get("id"), None)
                        if waiter is not None:
                            waiter.reply = reply
        except BaseException as exc:  # noqa: BLE001 -- reaped via shatter
            error = exc
        with self._cond:
            self.leading = False
            self._cond.notify_all()
        if error is not None:
            self._shatter(error)
            if not isinstance(error, Exception):
                raise error
        return arrived

    def _shatter(self, exc: BaseException) -> None:
        with self._cond:
            if self.dead is None:
                self.dead = exc
            for waiter in self._pending.values():
                waiter.error = exc
            self._pending.clear()
            self._cond.notify_all()
        try:
            # shutdown wakes a leader blocked in select; close would not.
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        finally:
            self.sock.close()

    def close(self) -> None:
        self._shatter(ConnectionError("client closed the connection"))


class ReplyFuture:
    """Handle to one pipelined request submitted with
    :meth:`ServiceClient.submit`; :meth:`result` blocks for its reply."""

    def __init__(
        self,
        client: "ServiceClient",
        wait: Callable[..., Dict[str, Any]],
        op: str,
        ctx,
        started: float,
    ) -> None:
        self._client = client
        self._wait = wait
        self._op = op
        self._ctx = ctx
        self._started = started
        self._done = False

    def result(self, timeout: Optional[float] = None) -> Any:
        """The request's result, or the error it failed with.

        Raises :class:`ServiceError` for structured server errors and
        :class:`TransportError` (or the underlying ``OSError``) when
        the connection died before the reply arrived.  No retries: a
        pipelined caller resubmits itself if it wants another attempt
        (writes carry idempotency keys, so resubmission is safe).
        """
        if self._done:
            raise RuntimeError("result() already consumed")
        self._done = True
        ok = False
        try:
            try:
                reply = self._wait(
                    self._client.timeout if timeout is None else timeout
                )
            except socket.timeout:
                # This reply can still arrive and be matched to a new
                # request's id; kill the connection rather than risk it.
                self._client.close()
                self._client._note_failure()
                raise
            except (OSError, wire.ProtocolError):
                self._client._note_failure()
                raise
            if reply.get("ok"):
                ok = True
                self._client._note_success()
                if "watermark" in reply:
                    self._client.last_watermark = reply["watermark"]
                    self._client.last_staleness_s = reply.get("staleness_s")
                return reply.get("result")
            exc = ServiceError.from_reply(reply)
            if exc.type in RETRYABLE_ERRORS:
                self._client._note_failure()
            else:
                self._client._note_success()  # a definitive answer
            raise exc
        finally:
            if self._ctx is not None:
                trace.emit_span(
                    self._ctx,
                    "client.request",
                    (time.perf_counter() - self._started) * 1e6,
                    attrs={"op": self._op, "attempts": 1, "ok": ok},
                )


class ServiceClient:
    """Blocking pipelined client with timeouts and safe retries."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7071,
        *,
        timeout: float = 5.0,
        retries: int = 2,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 2.0,
        retry_budget: float = 5.0,
        circuit_threshold: int = 8,
        circuit_cooldown: float = 0.5,
        client_id: Optional[str] = None,
        jitter_seed: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        replicas: Optional[Sequence[str]] = None,
        max_staleness_s: Optional[float] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.retry_backoff_max = retry_backoff_max
        self.retry_budget = retry_budget
        self.circuit_threshold = circuit_threshold
        self.circuit_cooldown = circuit_cooldown
        #: Idempotency identity: unique per client instance by default.
        self.client_id = client_id or uuid.uuid4().hex[:16]
        #: Deadline budget stamped on every request (ms), or None.
        self.deadline_ms = deadline_ms
        self._rng = (
            derive_rng(jitter_seed, "client", self.client_id)
            if jitter_seed is not None
            else derive_rng(uuid.uuid4().hex)
        )
        self._conn: Optional[_Connection] = None
        self._dial_lock = threading.Lock()
        self._ids = itertools.count(1)  # request ids; next() is atomic
        self._seq = 0
        self._failures = 0  # consecutive failed attempts
        self._open_until: Optional[float] = None
        self._circuit_lock = threading.Lock()
        self._half_open = False  # a half-open trial request is in flight
        #: Consistency position of the last read served by a replica:
        #: its applied-commit watermark and reported staleness (None
        #: until a watermark-tagged reply arrives).
        self.last_watermark: Optional[int] = None
        self.last_staleness_s: Optional[float] = None
        #: Read fan-out targets ("host:port" strings) and the staleness
        #: bound a replica read must satisfy to be accepted.
        self.max_staleness_s = max_staleness_s
        self._replica_addrs: List[Tuple[str, int]] = []
        for target in replicas or ():
            rhost, _, rport = str(target).rpartition(":")
            try:
                self._replica_addrs.append((rhost, int(rport)))
            except ValueError:
                raise ValueError(
                    f"replica target must be 'host:port', got {target!r}"
                ) from None
        self._replica_clients: List["ServiceClient"] = []
        self._read_rr = 0

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connect(self) -> _Connection:
        with self._dial_lock:  # callers racing to reconnect dial once
            conn = self._conn
            if conn is None or not conn.usable():
                conn = self._conn = _Connection(self.host, self.port, self.timeout)
            return conn

    def close(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def close_all(self) -> None:
        """Close the primary connection and every replica sub-client."""
        self.close()
        subs, self._replica_clients = self._replica_clients, []
        for sub in subs:
            sub.close()

    # ------------------------------------------------------------------
    # Retry machinery
    # ------------------------------------------------------------------
    def backoff_delay(
        self,
        attempt: int,
        hint: Optional[float] = None,
        remaining_ms: Optional[float] = None,
    ) -> float:
        """Sleep before retry *attempt* (1-based): capped exponential,
        jittered to [0.5x, 1.0x], floored at the server's ``retry_after``
        hint when one was given.

        The hint wins even when it exceeds ``retry_backoff_max`` -- the
        server knows how long its drain or overload will last, and
        sleeping less just buys another rejection.  What *does* cap the
        hint is ``remaining_ms``, the caller's unspent ``deadline_ms``
        budget: sleeping past the deadline would turn a retryable
        rejection into a guaranteed deadline failure.
        """
        delay = min(
            self.retry_backoff * (2 ** (attempt - 1)), self.retry_backoff_max
        )
        delay *= 0.5 + 0.5 * self._rng.random()
        if hint is not None:
            delay = max(delay, float(hint))
        if remaining_ms is not None:
            delay = min(delay, max(0.0, float(remaining_ms)) / 1e3)
        return delay

    def _check_circuit(self) -> None:
        with self._circuit_lock:
            if self._open_until is None:
                return
            now = time.monotonic()
            if now < self._open_until:
                raise CircuitOpenError(
                    f"circuit open for {self._open_until - now:.2f}s more "
                    f"after {self._failures} consecutive failures"
                )
            # Half-open: admit exactly ONE trial; concurrent submitters
            # keep failing fast until that trial resolves (success
            # closes the circuit, failure re-opens it).  Without the
            # flag, every caller racing the cooldown expiry would be
            # admitted at once -- a thundering herd straight into a
            # server that was overloaded moments ago.
            if self._half_open:
                raise CircuitOpenError(
                    "circuit half-open: a trial request is already in flight"
                )
            self._half_open = True
            self._failures = max(self.circuit_threshold - 1, 0)

    def _note_failure(self) -> None:
        with self._circuit_lock:
            self._half_open = False
            self._failures += 1
            if self._failures >= self.circuit_threshold:
                self._open_until = time.monotonic() + self.circuit_cooldown

    def _note_success(self) -> None:
        with self._circuit_lock:
            self._half_open = False
            self._failures = 0
            self._open_until = None

    @property
    def circuit_open(self) -> bool:
        return (
            self._open_until is not None
            and time.monotonic() < self._open_until
        )

    # ------------------------------------------------------------------
    # Request paths
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Push any corked (``flush=False``) submissions to the socket."""
        conn = self._conn
        if conn is not None and conn.dead is None:
            try:
                conn.send()
            except OSError:
                self.close()
                self._note_failure()
                raise

    def submit(self, op: str, flush: bool = True, **fields: Any) -> ReplyFuture:
        """Send one request without waiting; returns a :class:`ReplyFuture`.

        This is the pipelining path: submit many, then collect results.
        With ``flush=False`` the frame is corked in the connection's
        outbox -- call :meth:`flush` after the burst so the whole batch
        leaves in one system call (and do call it: a corked request
        gets no reply until something flushes).  A transport failure
        while sending raises immediately; failures after that surface
        from :meth:`ReplyFuture.result`.  No retry loop -- resubmit on
        failure if desired (safe for writes, which carry idempotency
        keys).
        """
        self._check_circuit()
        message = dict(fields)
        message["op"] = op
        if self.deadline_ms is not None and "deadline_ms" not in message:
            message["deadline_ms"] = self.deadline_ms
        ctx = trace.new_trace()
        if ctx is not None:
            message["trace"] = ctx.to_wire()
        started = time.perf_counter()
        try:
            conn = self._connect()
            request_id = next(self._ids)
            message["id"] = request_id
            frame = wire.encode_frame(message)
            wait = conn.register(request_id)
            conn.send(frame, flush)
        except (OSError, wire.ProtocolError):
            self.close()
            self._note_failure()
            raise
        return ReplyFuture(self, wait, op, ctx, started)

    def _request(self, op: str, **fields: Any) -> Any:
        self._check_circuit()
        #: Total deadline budget for the call, retries included; each
        #: attempt is stamped with what *remains* of it.  A non-numeric
        #: budget is passed through verbatim so the server's own
        #: validation rejects it.
        budget = fields.pop("deadline_ms", self.deadline_ms)
        if isinstance(budget, bool) or not isinstance(budget, (int, float)):
            if budget is not None:
                fields["deadline_ms"] = budget
            budget = None
        # The trace root: one client.request span covers the whole call,
        # retries included; the context rides in the frame so the server
        # hangs its spans below ours.  Unsampled requests carry nothing.
        ctx = trace.new_trace()
        started = time.perf_counter()
        attempts = 0
        ok = False
        slept = 0.0
        hint: Optional[float] = None

        def remaining_ms() -> float:
            return float(budget) - (time.perf_counter() - started) * 1e3

        try:
            last_exc: Optional[Exception] = None
            for attempt in range(self.retries + 1):
                attempts = attempt + 1
                if attempt:
                    if budget is not None and remaining_ms() <= 0:
                        # The caller's budget is gone: a retry would
                        # only be shed server-side.  Stop here.
                        break
                    delay = self.backoff_delay(
                        attempt,
                        hint,
                        remaining_ms() if budget is not None else None,
                    )
                    if slept + delay > self.retry_budget:
                        last_exc = last_exc or TransportError("retry budget spent")
                        break
                    slept += delay
                    time.sleep(delay)
                    if budget is not None and remaining_ms() <= 0:
                        break  # the backoff sleep spent the rest of it
                hint = None
                message = {"op": op, **fields}
                if budget is not None:
                    # Attempt 0 carries the full budget (a 0 budget is
                    # still *sent*, so the server sheds it -- that is
                    # the deadline contract's observable behavior).
                    message["deadline_ms"] = max(0.0, remaining_ms())
                if ctx is not None:
                    message["trace"] = ctx.to_wire()
                try:
                    conn = self._connect()
                    message["id"] = next(self._ids)
                    frame = wire.encode_frame(message)
                    wait = conn.register(message["id"])
                    conn.send(frame)
                    reply = wait(self.timeout)
                except (OSError, wire.ProtocolError) as exc:
                    self.close()
                    last_exc = exc
                    self._note_failure()
                    if self._replica_addrs and attempt < self.retries:
                        # The primary may be gone for good (SIGKILL plus
                        # failover): ask the replicas whether one of
                        # them has been promoted before retrying.
                        self._resolve_primary()
                    continue
                if reply.get("ok"):
                    ok = True
                    self._note_success()
                    if "watermark" in reply:
                        self.last_watermark = reply["watermark"]
                        self.last_staleness_s = reply.get("staleness_s")
                    return reply.get("result")
                exc = ServiceError.from_reply(reply)
                if exc.type == wire.ERR_NOT_PRIMARY:
                    # We wrote to a replica -- stale routing after a
                    # promotion.  Adopt the redirect hint (or probe the
                    # replica set for the new primary) and retry there.
                    self._note_success()  # the server answered; only the role was wrong
                    if attempt < self.retries and self._adopt_primary(
                        exc.primary
                    ):
                        last_exc = exc
                        continue
                    raise exc
                if exc.type in RETRYABLE_ERRORS:
                    last_exc = exc
                    hint = exc.retry_after
                    self._note_failure()
                    continue
                # A definitive structured answer: the transport works.
                self._note_success()
                raise exc
            if isinstance(last_exc, ServiceError):
                # Out of retries on a retryable rejection: surface the
                # server's own answer, not a transport wrapper.
                raise last_exc
            raise TransportError(
                f"request {op!r} failed after {attempts} attempts"
                f" ({slept:.2f}s of backoff): {last_exc}"
            )
        finally:
            if ctx is not None:
                trace.emit_span(
                    ctx,
                    "client.request",
                    (time.perf_counter() - started) * 1e6,
                    attrs={"op": op, "attempts": attempts, "ok": ok},
                )

    # ------------------------------------------------------------------
    # Replica-aware routing
    # ------------------------------------------------------------------
    def _replica_client(self, index: int) -> "ServiceClient":
        """The lazily-built sub-client for replica *index*.

        Sub-clients never retry (``retries=0``): the routing layer above
        them already fails over to the next replica or the primary, and
        stacked retry loops would multiply worst-case latency.
        """
        while len(self._replica_clients) <= index:
            rhost, rport = self._replica_addrs[len(self._replica_clients)]
            self._replica_clients.append(
                ServiceClient(
                    rhost,
                    rport,
                    timeout=self.timeout,
                    retries=0,
                    client_id=f"{self.client_id}:r{len(self._replica_clients)}",
                )
            )
        return self._replica_clients[index]

    def _adopt_primary(self, hint: Optional[str]) -> bool:
        """Re-point writes at *hint* (``"host:port"``), or probe for one."""
        if hint:
            phost, _, pport = str(hint).rpartition(":")
            try:
                addr = (phost, int(pport))
            except ValueError:
                addr = None
            if addr is not None:
                if addr != (self.host, self.port):
                    self.close()
                    self.host, self.port = addr
                return True
        return self._resolve_primary()

    def _resolve_primary(self) -> bool:
        """Probe the replica set for whichever node now claims primaryhood.

        After a failover the old primary address is dead and no server
        is left to send a redirect hint, so the client asks each known
        replica's ``stats`` for its replication role and adopts the one
        answering ``"primary"``.
        """
        for index in range(len(self._replica_addrs)):
            sub = self._replica_client(index)
            try:
                stats = sub._request("stats")
            except Exception:
                continue
            repl = (stats or {}).get("replication") or {}
            if repl.get("role") == "primary":
                addr = self._replica_addrs[index]
                if addr != (self.host, self.port):
                    self.close()
                    self.host, self.port = addr
                return True
        return False

    def _read_request(self, op: str, **fields: Any) -> Any:
        """Serve one read from the replica set, primary as last resort.

        Round-robins across configured replicas.  A replica that fails,
        or whose reply reports staleness outside ``max_staleness_s``
        (including the -1 "disconnected from primary" sentinel), is
        skipped; when every replica is unusable the read falls back to
        the primary, which is never stale.
        """
        if not self._replica_addrs:
            return self._request(op, **fields)
        count = len(self._replica_addrs)
        start_index = self._read_rr
        self._read_rr = (self._read_rr + 1) % count
        for offset in range(count):
            sub = self._replica_client((start_index + offset) % count)
            try:
                result = sub._request(op, **fields)
            except (TransportError, OSError, ServiceError):
                continue
            self.last_watermark = sub.last_watermark
            self.last_staleness_s = sub.last_staleness_s
            if (
                self.max_staleness_s is not None
                and sub.last_staleness_s is not None
                and not 0 <= sub.last_staleness_s <= self.max_staleness_s
            ):
                continue
            return result
        return self._request(op, **fields)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return self._request("ping") == "pong"

    def next_seq(self) -> int:
        """Allocate the idempotency sequence number for one logical write.

        Callers managing their own retry loops allocate the seq *once*
        and pass it to every attempt of that write.
        """
        self._seq += 1
        return self._seq

    def _write(self, op: str, seq: Optional[int], **fields: Any) -> Any:
        """One write under the key ``(client_id, seq)`` -- a fresh seq
        when None -- so no retry of it applies twice."""
        seq = self.next_seq() if seq is None else seq
        return self._request(op, client=self.client_id, seq=seq, **fields)

    def insert(self, value: Any, start, end, *, seq: Optional[int] = None) -> int:
        """Insert one fact exactly once; returns once its commit applied."""
        return self.insert_result(value, start, end, seq=seq)["applied"]

    def insert_result(
        self, value: Any, start, end, *, seq: Optional[int] = None
    ) -> Dict[str, Any]:
        """Like :meth:`insert`, returning the full result dict.

        The resilience harness reads the ``duplicate`` flag off it to
        count how many acks were served by the server's dedup window.
        """
        return self._write("insert", seq, value=value, start=start, end=end)

    def batch_insert(
        self, facts: Iterable[Sequence[Any]], *, seq: Optional[int] = None
    ) -> int:
        """Insert ``[value, start, end]`` triples in one idempotent request."""
        triples = [list(fact)[:3] for fact in facts]
        return self._write("batch_insert", seq, facts=triples)["applied"]

    def lookup(self, t) -> Any:
        """Finalized aggregate value at instant *t*."""
        return self._read_request("lookup", t=t)

    def rangeq(self, start, end) -> List[Tuple[Any, Interval]]:
        """Finalized, coalesced step function over ``[start, end)``."""
        rows = self._read_request("rangeq", start=start, end=end)
        return [(value, Interval(s, e)) for value, s, e in rows]

    def window(self, t, w) -> Any:
        """Cumulative MIN/MAX over the closed window ``[t - w, t]``."""
        return self._read_request("window", t=t, w=w)

    def stats(self) -> Dict[str, Any]:
        return self._request("stats")

    # ------------------------------------------------------------------
    # Dynamic views (the create_view/query_view family).  View DDL and
    # base-table inserts are writes like insert (one write route), and
    # the primary ships them down the journal stream, so every replica
    # maintains its own catalog copy and view *reads* route through the
    # replica set like any other read (staleness-gated, primary as
    # fallback).
    # ------------------------------------------------------------------
    def table_insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        """Ingest rows into a named view base table (auto-created),
        exactly once.

        Each row is ``[value, start, end]``, optionally followed by a
        payload dict -- or a bare scalar, shorthand for
        ``{"key": <scalar>}``, the field grouped views key on.
        """
        rows = [list(row) for row in rows]
        return self._write("table_insert", None, table=table, rows=rows)["applied"]

    def create_view(
        self,
        name: str,
        over,
        agg: str = "sum",
        *,
        key: Optional[str] = None,
        lag: Any = "downstream",
    ) -> Dict[str, Any]:
        """Declare a dynamic view over base tables and/or other views,
        exactly once: a retry answers the original reply.

        ``lag`` is the freshness target: seconds, a string like ``"5s"``
        or ``"1h"``, or ``"downstream"`` (refresh only when a dependent
        -- or a read -- needs it).  Unknown sources are auto-created as
        base tables.
        """
        return self._write(
            "create_view", None, name=name, over=over, agg=agg, key=key, lag=lag
        )

    def query_view(self, view: str, t, *, key: Any = None) -> Dict[str, Any]:
        """Read one view at instant *t*.

        Returns ``{"value": ..., "watermark": ..., "staleness_s": ...}``
        -- the reading plus the source watermark(s) it reflects and how
        far it trails the base data.  For a grouped view pass ``key``
        for one group; without it the value is a per-group dict.

        Served from the replica set when one is configured (replicas
        maintain their own catalogs off the journal stream), falling
        back to the primary when every replica is down or too stale.
        """
        return self._read_request("query_view", view=view, t=t, key=key)

    def query_views(
        self, views: Sequence[str], t, *, pin: bool = True
    ) -> Dict[str, Any]:
        """Read several views at *t* in one consistent snapshot.

        With ``pin`` (the default) the server refreshes the views'
        shared ancestor closure first and every reading reflects the
        same base watermarks (returned as ``"base_watermarks"``).
        """
        return self._request("query_view", views=list(views), t=t, pin=pin)

    def refresh_view(self, view: Optional[str] = None) -> Dict[str, Any]:
        """Force a refresh of one view (with its ancestors) or of all."""
        return self._request("refresh_view", view=view)

    def drop_view(self, view: str) -> Dict[str, Any]:
        """Drop a view exactly once (refused while other views still
        consume it)."""
        return self._write("drop_view", None, view=view)

    def view_stats(self) -> Dict[str, Any]:
        """The catalog's per-view freshness and cost counters."""
        return self._request("view_stats")

    def repair_view(self, view: str) -> Dict[str, Any]:
        """Clear a quarantined view and retry its refresh (node-local)."""
        return self._request("repair_view", view=view)

    # ------------------------------------------------------------------
    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close_all()
