"""Journal-shipping replication: record format, commit log, and the
two ends of the stream.

A primary ships every committed group-commit batch to its followers as
one ``journal_batch`` message over the ordinary wire protocol (see
:mod:`repro.service.protocol`).  This module owns the two pieces that
are pure data, and the two state machines that move them:

* **The record blob.**  The on-disk write-ahead log is not shipped:
  it is a *physical* redo log of whole page images for one shard file,
  recycled at every checkpoint (see ``storage/pager.py``), so a replica
  would need the primary's exact page layout and every frame since its
  last checkpoint.  What replication ships is the *logical* redo
  stream: each batch carries one record per client write, framed with
  a length + CRC32 header per record, corruption detected before a
  single fact is applied.  A
  record is one write that applied: ``{"facts": [[value, start, end],
  ...]}``, ``{"table": name, "rows": [[value, start, end, payload],
  ...]}`` or ``{"ddl": {"op": "create_view" | "drop_view", ...}}``,
  plus, when the write carried an idempotency key, ``"idem": [client,
  seq, result]`` -- the dedup window therefore rides the stream record
  by record, which is what keeps exactly-once intact across failover.
  Records are framed back-to-back and base64-armored so the blob travels inside a
  JSON-wrapped wire message unchanged.

* **The commit log.**  The primary retains recent batches in memory,
  tagged with a monotonically increasing **commit sequence number**
  (the watermark every replica read reports).  A follower subscribes
  with ``from_commit`` = its applied watermark; the log replays the
  backlog and the subscription continues live.  The log is bounded by
  ``cap_bytes``: once truncation drops commits a follower still needs,
  :meth:`CommitLog.since` raises and the follower must be re-seeded
  from a copy of the primary's data files.  ``base`` > 0 also encodes
  "commits happened before this log existed" -- a primary restarted on
  an existing store restores its head from header metadata and refuses
  followers that would need the unretained prefix.

* **The publisher** (:class:`Publisher`, primary side) numbers commits,
  fans them out and, semi-sync by default, holds each write's ack until
  every live follower applied it or ``ack_timeout`` degrades it to async.

* **The follower** (:class:`Follower`, replica side) subscribes from
  its applied watermark, applies batches in order through an ``apply``
  callable, acknowledges them, and resubscribes on any gap, idle link
  or stalled heartbeat -- a fresh subscription re-fetches what was lost.
"""

from __future__ import annotations

import asyncio
import base64
import json
import struct
import time
import uuid
import zlib
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .. import obs
from ..core.intervals import Interval
from . import protocol as wire
from .groupcommit import Write

__all__ = [
    "ReplicationError",
    "encode_records",
    "decode_records",
    "write_records",
    "split_records",
    "CommitLog",
    "Publisher",
    "Follower",
    "StreamReset",
    "StreamRejected",
]

#: Per-record header: payload byte length, CRC32 of the payload.
_REC = struct.Struct(">II")


class ReplicationError(RuntimeError):
    """A corrupt or unserviceable replication stream."""


# ----------------------------------------------------------------------
# Record blob codec (journal v2 discipline: length + CRC32 per record)
# ----------------------------------------------------------------------
def encode_records(records: Iterable[Dict[str, Any]]) -> str:
    """Encode one batch's records into a base64 CRC-framed blob."""
    parts: List[bytes] = []
    for record in records:
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        parts.append(_REC.pack(len(payload), zlib.crc32(payload) & 0xFFFFFFFF))
        parts.append(payload)
    return base64.b64encode(b"".join(parts)).decode("ascii")


def decode_records(blob: Any) -> List[Dict[str, Any]]:
    """Decode and CRC-verify a record blob; raises :class:`ReplicationError`.

    Verification is all-or-nothing: a follower must apply a batch
    entirely or not at all, so a single bad record rejects the whole
    blob (the follower resubscribes and the primary re-sends it).
    """
    if not isinstance(blob, str):
        raise ReplicationError("records blob must be a base64 string")
    try:
        raw = base64.b64decode(blob.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ReplicationError(f"undecodable records blob: {exc}") from None
    records: List[Dict[str, Any]] = []
    offset = 0
    while offset < len(raw):
        if offset + _REC.size > len(raw):
            raise ReplicationError(f"truncated record header at byte {offset}")
        length, crc = _REC.unpack_from(raw, offset)
        offset += _REC.size
        payload = raw[offset:offset + length]
        if len(payload) != length:
            raise ReplicationError(f"truncated record payload at byte {offset}")
        offset += length
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise ReplicationError(
                f"record CRC mismatch at byte {offset - length}"
            )
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ReplicationError(f"undecodable record: {exc}") from None
        if not isinstance(record, dict):
            raise ReplicationError("record must be a JSON object")
        records.append(record)
    return records


def write_records(writes) -> Iterable[Dict[str, Any]]:
    """One record per applied write of a flushed batch, lazily: a
    publisher nobody ever subscribed to never consumes the generator."""
    for write in writes:
        record: Dict[str, Any] = dict(write.change) if write.change else {
            "facts": [[value, iv.start, iv.end] for value, iv in write.facts]
        }
        if write.idem is not None:
            record["idem"] = [write.idem[0], write.idem[1], write.result]
        yield record


def split_records(records: List[Dict[str, Any]]) -> List[Write]:
    """The inverse, for a follower: the batch's writes, in order (each
    gets the reply this node's apply gives it, the primary's)."""
    writes = []
    for record in records:
        idem, facts = record.pop("idem", None), record.pop("facts", None)
        writes.append(Write(
            [] if facts is None else [(v, Interval(s, e)) for v, s, e in facts],
            record if facts is None else None,
            None if idem is None else (idem[0], int(idem[1])),
        ))
    return writes


# ----------------------------------------------------------------------
# Primary-side commit log
# ----------------------------------------------------------------------
class CommitLog:
    """Bounded in-memory log of committed batches, numbered from ``base``.

    Commit ``base + 1`` is the first entry retained; :attr:`head` is the
    newest committed sequence number.  ``skip`` advances the head
    without retaining a blob (commits on a primary that has never had a
    subscriber -- nothing will ever ask for them, and a later follower
    starting from 0 is correctly refused because ``base`` moved).
    """

    def __init__(self, base: int = 0, cap_bytes: int = 64 * 1024 * 1024) -> None:
        if base < 0 or cap_bytes < 1:
            raise ValueError("base must be >= 0 and cap_bytes positive")
        self.base = base
        self.cap_bytes = cap_bytes
        self.truncations = 0
        self._entries: List[Tuple[int, str, float]] = []  # (seq, blob, mono)
        self._bytes = 0

    @property
    def head(self) -> int:
        return self.base + len(self._entries)

    def append(self, blob: str, now: float) -> int:
        """Retain one committed batch; returns its commit sequence number."""
        seq = self.head + 1
        self._entries.append((seq, blob, now))
        self._bytes += len(blob)
        while self._bytes > self.cap_bytes and len(self._entries) > 1:
            _, old, _ = self._entries.pop(0)
            self._bytes -= len(old)
            self.base += 1
            self.truncations += 1
        return seq

    def skip(self, now: float) -> int:
        """Advance the head past an unretained commit; returns its seq."""
        if self._entries:
            # Once anything is retained, every later commit must be too
            # (a hole would silently corrupt a resuming follower).
            raise ReplicationError("cannot skip past retained commits")
        self.base += 1
        return self.base

    def since(self, from_commit: int) -> List[Tuple[int, str, float]]:
        """Entries after *from_commit*, oldest first.

        Raises :class:`ReplicationError` when the log no longer reaches
        back that far -- the follower needs a re-seed, not a stream.
        """
        if from_commit < self.base:
            raise ReplicationError(
                f"replication log starts at commit {self.base}; cannot "
                f"resume from {from_commit} (re-seed the replica from a "
                f"copy of the primary's data files)"
            )
        return list(self._entries[from_commit - self.base:])

    def broadcast_time(self, seq: int) -> Optional[float]:
        """Monotonic time commit *seq* was shipped, if still retained."""
        index = seq - self.base - 1
        if 0 <= index < len(self._entries):
            return self._entries[index][2]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CommitLog base={self.base} head={self.head} "
            f"bytes={self._bytes}>"
        )


# ----------------------------------------------------------------------
# Primary side: the publisher
# ----------------------------------------------------------------------
class _Subscriber:
    """One follower's registration on a primary."""

    __slots__ = ("name", "writer", "acked", "last_ack")

    def __init__(self, name: str, writer, acked: int) -> None:
        self.name = name
        self.writer = writer
        self.acked = acked
        self.last_ack: Optional[float] = None


class Publisher:
    """Commit numbering, fan-out, and the semi-sync floor.

    Loop-confined except :meth:`stats` / :meth:`refresh_gauges` (read
    from executor threads).  *layout* is what a follower must match:
    ``{"kind": ..., "boundaries": [...]}``.
    """

    def __init__(
        self,
        *,
        base: int,
        layout: Dict[str, Any],
        registry: obs.MetricsRegistry,
        sync: bool = True,
        ack_timeout: float = 10.0,
        heartbeat: float = 0.5,
        log_cap: int = 64 * 1024 * 1024,
    ) -> None:
        self.sync = sync
        self.ack_timeout = ack_timeout
        self.heartbeat = heartbeat
        self.log_cap = log_cap
        self.registry = registry
        self.promoted = False
        self._layout = layout
        self._commit_log = CommitLog(base=base, cap_bytes=log_cap)
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

    @property
    def head(self) -> int:
        """The newest commit sequence number."""
        return self._commit_log.head

    def rebase(self, base: int) -> None:
        """A promoted replica starts a fresh log (and stream identity)
        at its applied watermark: its first write is ``base + 1``."""
        self._commit_log = CommitLog(base=base, cap_bytes=self.log_cap)
        self._stream_id = uuid.uuid4().hex
        self.promoted = True

    def stop(self) -> None:
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None

    def subscribe(self, request: Dict[str, Any], writer) -> None:
        """Register a follower; write its handshake and backlog.

        Call under the committer's flush lock: registration, backlog
        snapshot and handshake write then happen with no commit in
        between, so the follower sees a gap-free sequence.  Stream
        frames are written directly (one buffered ``write`` per batch,
        no per-frame drain): the semi-sync ack wait is what bounds the
        send buffer.  Raises ``ProtocolError`` for a malformed request
        and :class:`ReplicationError` when the log no longer reaches
        back to ``from_commit``.
        """
        replica = request.get("replica")
        from_commit = request.get("from_commit", 0)
        if not isinstance(replica, str) or not replica:
            raise wire.ProtocolError("field 'replica' must be a non-empty string")
        if (
            isinstance(from_commit, bool)
            or not isinstance(from_commit, int)
            or from_commit < 0
        ):
            raise wire.ProtocolError(
                "field 'from_commit' must be a non-negative integer"
            )
        backlog = self._commit_log.since(from_commit)
        sub = self._subscribers.get(replica)
        if sub is None:
            self._subscribers[replica] = _Subscriber(replica, writer, from_commit)
        else:
            # A reconnect keeps the acked watermark (it only moves
            # forward); the old connection is dead or stale.
            sub.writer = writer
            sub.acked = max(sub.acked, from_commit)
        self._had_subscriber = True
        self._repl_expected = True
        handshake = wire.ok_reply(
            {
                "stream": self._stream_id,
                "commit": self.head,
                **self._layout,
                "heartbeat_s": self.heartbeat,
            },
            request,
        )
        frames = [wire.encode_frame(handshake)]
        for seq, blob, _ in backlog:
            frames.append(wire.encode_frame(self._batch_msg(seq, blob)))
        writer.write(b"".join(frames))
        self.registry.counter("service.repl.subscribes").inc()
        self._resolve_ack_waiters()
        self.refresh_gauges()
        if self._heartbeat_task is None and self.heartbeat > 0:
            self._heartbeat_task = asyncio.get_running_loop().create_task(
                self._heartbeat_loop()
            )

    def publish(self, records: Iterable[Dict[str, Any]]) -> int:
        """Number one commit, retain it, push it to every follower.

        Until the first subscriber ever appears *records* is not even
        iterated (``CommitLog.skip``) -- a standalone primary pays
        nothing for replication being possible.
        """
        now = time.monotonic()
        if not self._had_subscriber:
            return self._commit_log.skip(now)
        blob = encode_records(records)
        seq = self._commit_log.append(blob, now)
        self.registry.counter("service.repl.batches_shipped").inc()
        self._broadcast(self._batch_msg(seq, blob))
        return seq

    async def replicated(self, seq: int) -> None:
        """Semi-sync commit: return once every live follower has applied
        *seq*, or after ``ack_timeout`` -- then the primary degrades to
        async (counted) rather than stalling writers behind a dead or
        wedged follower forever.

        The wait holds while a follower is *expected*, not merely
        connected: during a reconnect after a link fault there may be
        no subscriber, and acking unreplicated writes in that window is
        exactly the data loss a failover would then expose.
        """
        if not self.sync or self._acked_floor() >= seq:
            return
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._ack_waiters.append((seq, future))
        try:
            await asyncio.wait_for(future, timeout=self.ack_timeout)
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

    def ack(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The ``journal_ack`` op: a follower's cumulative applied mark."""
        replica = request.get("replica")
        commit = request.get("commit")
        if not isinstance(replica, str) or not replica:
            raise wire.ProtocolError("field 'replica' must be a non-empty string")
        if isinstance(commit, bool) or not isinstance(commit, int) or commit < 0:
            raise wire.ProtocolError("field 'commit' must be a non-negative integer")
        sub = self._subscribers.get(replica)
        if sub is not None:
            sub.acked = max(sub.acked, commit)
            sub.last_ack = time.monotonic()
            self._resolve_ack_waiters()
            self.refresh_gauges()
        return wire.ok_reply({}, request)

    def _batch_msg(self, seq: int, blob: str) -> Dict[str, Any]:
        return {
            "op": "journal_batch",
            "commit": seq,
            "records": blob,
            "stream": self._stream_id,
        }

    def _broadcast(self, msg: Dict[str, Any]) -> None:
        if not self._subscribers:
            return
        frame = wire.encode_frame(msg)
        for sub in list(self._subscribers.values()):
            if not sub.writer.is_closing():
                try:
                    sub.writer.write(frame)
                except Exception:
                    pass  # a dead link is detected by pruning, not here

    async def _heartbeat_loop(self) -> None:
        """Keep follower links warm: gap detection and ack refresh."""
        try:
            while True:
                await asyncio.sleep(self.heartbeat)
                self._broadcast(
                    {
                        "op": "journal_batch",
                        "commit": self.head,
                        "heartbeat": True,
                        "stream": self._stream_id,
                    }
                )
        except asyncio.CancelledError:
            pass

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

    def stats(self) -> Optional[Dict[str, Any]]:
        """The ``stats`` op's replication section (None when inert)."""
        if not self._had_subscriber and not self.promoted:
            return None  # standalone primary: no replication to report
        now = time.monotonic()
        replicas = []
        # list(): stats runs in the executor; the loop may be mutating.
        for sub in list(self._subscribers.values()):
            shipped = self._commit_log.broadcast_time(sub.acked + 1)
            replicas.append(
                {
                    "name": sub.name,
                    "acked": sub.acked,
                    "lag_commits": max(0, self.head - sub.acked),
                    "connected": not sub.writer.is_closing(),
                    "lag_s": max(0.0, now - shipped) if shipped is not None else 0.0,
                }
            )
        return {
            "role": "primary",
            "commit": self.head,
            "stream": self._stream_id,
            "sync": self.sync,
            "promoted": self.promoted,
            "replicas": replicas,
        }

    def refresh_gauges(self) -> None:
        """Publish replication lag as registry gauges (for /metrics)."""
        stats = self.stats()
        if stats is None:
            return
        gauge = self.registry.gauge
        gauge("service.repl.commit").set(float(stats["commit"]))
        gauge("service.repl.replicas").set(float(len(stats["replicas"])))
        for entry in stats["replicas"]:
            name = "".join(ch if ch.isalnum() else "_" for ch in entry["name"])
            prefix = f"service.repl.replica.{name}"
            gauge(f"{prefix}.acked").set(float(entry["acked"]))
            gauge(f"{prefix}.lag_commits").set(float(entry["lag_commits"]))
            gauge(f"{prefix}.lag_s").set(float(entry["lag_s"]))


# ----------------------------------------------------------------------
# Replica side: the follower
# ----------------------------------------------------------------------
class StreamReset(Exception):
    """The follower must drop and re-establish its subscription
    (idle link, sequence gap, corrupt batch) -- transient by design:
    resubscribing from the applied watermark loses nothing."""


class StreamRejected(Exception):
    """The upstream refused the subscription (wrong shard layout,
    diverged history, itself a replica); retried slowly -- the
    condition usually needs an operator (or a promotion) to clear."""


class Follower:
    """One replica's subscription: applied watermark, link clocks,
    handshake adoption, apply + ack, and the seal for promotion.

    ``apply(records, commit)`` is a coroutine that applies one shipped
    batch atomically and returns how many facts it held; *layout* is
    this node's ``{"kind", "boundaries"}``, which the primary's
    handshake must match; a link silent for *idle* seconds is reset.
    """

    def __init__(
        self,
        primary,
        apply,
        *,
        applied: int,
        layout: Dict[str, Any],
        registry: obs.MetricsRegistry,
        idle: float,
        name: Optional[str] = None,
    ) -> None:
        try:
            if isinstance(primary, str):
                host, _, port = primary.rpartition(":")
            else:
                host, port = primary
            self._primary_addr: Tuple[str, int] = (str(host), int(port))
        except (TypeError, ValueError):
            raise ValueError(
                f"replica_of must be 'host:port', got {primary!r}"
            ) from None
        self.name = name
        self.registry = registry
        self._apply = apply
        self._layout = layout
        self._applied_commit = applied
        self._stream_head = applied
        self._last_stream_mono: Optional[float] = None
        self._gap_since: Optional[float] = None
        self._repl_idle = idle
        self._repl_connected = False
        self._repl_last_error: Optional[str] = None
        self._follow_task: Optional[asyncio.Task] = None
        self._follow_writer = None
        self._repl_stop: Optional[asyncio.Event] = None

    @property
    def applied(self) -> int:
        """The applied-commit watermark every replica read reports."""
        return self._applied_commit

    def primary_hint(self) -> str:
        """The redirect hint a replica attaches to write rejections."""
        return f"{self._primary_addr[0]}:{self._primary_addr[1]}"

    def _staleness(self) -> float:
        if self._last_stream_mono is None:
            return -1.0  # never heard from the primary
        return max(0.0, time.monotonic() - self._last_stream_mono)

    def tag(self, reply: Dict[str, Any]) -> None:
        """Stamp a replica read reply with its consistency position."""
        reply["watermark"] = self._applied_commit
        reply["staleness_s"] = self._staleness()

    def stats(self) -> Dict[str, Any]:
        return {
            "role": "replica",
            "primary": self.primary_hint(),
            "applied": self._applied_commit,
            "head": self._stream_head,
            "lag_commits": max(0, self._stream_head - self._applied_commit),
            "staleness_s": self._staleness(),
            "connected": self._repl_connected,
            "last_error": self._repl_last_error,
        }

    def refresh_gauges(self) -> None:
        stats = self.stats()
        gauge = self.registry.gauge
        gauge("service.repl.applied").set(float(stats["applied"]))
        gauge("service.repl.head").set(float(stats["head"]))
        gauge("service.repl.lag_commits").set(float(stats["lag_commits"]))
        gauge("service.repl.staleness_s").set(stats["staleness_s"])
        gauge("service.repl.connected").set(1.0 if stats["connected"] else 0.0)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self._repl_stop = asyncio.Event()
        self._follow_task = asyncio.get_running_loop().create_task(self._run())

    def _sealed(self) -> bool:
        return self._repl_stop is not None and self._repl_stop.is_set()

    async def seal(self, timeout: float) -> None:
        """Stop following.  The loop is *awaited out*, never cancelled
        mid-apply unless *timeout* lapses: a batch either fully applied
        (and is covered by the watermark) or never started, so neither
        a drain nor a promotion can tear a commit."""
        if self._repl_stop is not None:
            self._repl_stop.set()
        if self._follow_writer is not None:
            try:
                self._follow_writer.close()
            except Exception:
                pass
        task, self._follow_task = self._follow_task, None
        if task is not None:
            try:
                await asyncio.wait_for(asyncio.shield(task), timeout=timeout)
            except Exception:
                task.cancel()

    async def _run(self) -> None:
        """Maintain the subscription to the primary until sealed."""
        assert self._repl_stop is not None
        backoff = 0.05
        while not self._repl_stop.is_set():
            try:
                await self._follow_once()
                backoff = 0.05
            except StreamReset as exc:
                self.registry.counter("service.repl.resubscribes").inc()
                self._repl_last_error = str(exc)
                backoff = 0.05
            except StreamRejected as exc:
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
                await asyncio.wait_for(self._repl_stop.wait(), timeout=backoff)
            except asyncio.TimeoutError:
                pass
            backoff = min(backoff * 2, 1.0)

    async def _follow_once(self) -> None:
        reader, writer = await asyncio.open_connection(*self._primary_addr)
        self._follow_writer = writer
        try:
            subscribe = {
                "op": "subscribe_journal",
                "from_commit": self._applied_commit,
                "replica": self.name,
            }
            writer.write(wire.encode_frame(subscribe))
            await writer.drain()
            self._repl_connected = True
            self.refresh_gauges()
            await self.consume(reader, writer)
        finally:
            self._repl_connected = False
            self._follow_writer = None
            self._gap_since = None
            try:
                writer.close()
            except Exception:
                pass

    # -- the stream ----------------------------------------------------
    async def consume(self, reader, writer) -> None:
        """Pump one subscription connection until it dies or is sealed.

        A link that goes quiet for *idle* seconds (several heartbeat
        periods) is torn down and re-established -- the cure for every
        dropped-frame case the chaos proxy can produce, because a fresh
        ``subscribe_journal`` from the applied watermark re-fetches
        whatever was lost.
        """
        buf = bytearray()
        while not self._sealed():
            try:
                chunk = await asyncio.wait_for(
                    reader.read(wire.RECV_CHUNK), timeout=self._repl_idle
                )
            except asyncio.TimeoutError:
                raise StreamReset("replication stream idle") from None
            except ConnectionError:
                chunk = b""
            if not chunk:
                if self._sealed():
                    return
                raise StreamReset("replication stream closed")
            buf += chunk
            frames, unframeable = wire.take_frames(buf)
            for message, _ in frames:
                if self._sealed():
                    return
                await self._handle_message(message, writer)
            if unframeable is not None:
                # The stream offset is lost; a fresh subscription from
                # the applied watermark re-fetches what followed.
                raise StreamReset(f"unframeable stream: {unframeable}")

    async def _handle_message(self, message, writer) -> None:
        if message.get("op") == "journal_batch":
            await self._handle_batch(message, writer)
        elif message.get("ok"):
            result = message.get("result")
            if isinstance(result, dict) and "stream" in result:
                self._adopt_handshake(result)
            # else: an ack reply to our journal_ack -- ignored.
        elif "ok" in message:
            error = message.get("error") or {}
            err_type = error.get("type")
            detail = f"{err_type}: {error.get('message')}"
            if err_type in (
                wire.ERR_NOT_PRIMARY,
                wire.ERR_UNSUPPORTED,
                wire.ERR_BAD_REQUEST,
            ):
                raise StreamRejected(detail)
            raise StreamReset(detail)
        # Anything else on this connection is not for us; skip it.

    def _adopt_handshake(self, result: Dict[str, Any]) -> None:
        kind = result.get("kind")
        if kind is not None and kind != self._layout["kind"]:
            raise StreamRejected(
                f"primary serves kind {kind!r}, this replica holds "
                f"{self._layout['kind']!r}"
            )
        boundaries = result.get("boundaries")
        if boundaries is not None and list(boundaries) != list(
            self._layout["boundaries"]
        ):
            raise StreamRejected(
                "primary shard boundaries differ from this replica's"
            )
        head = result.get("commit")
        if isinstance(head, bool) or not isinstance(head, int):
            head = self._applied_commit
        if head < self._applied_commit:
            raise StreamRejected(
                f"primary head {head} is behind this replica's applied "
                f"commit {self._applied_commit} (diverged history; "
                f"re-seed one side)"
            )
        self._stream_head = max(self._stream_head, head)
        self._last_stream_mono = time.monotonic()
        self.refresh_gauges()

    async def _handle_batch(self, message, writer) -> None:
        commit = message.get("commit")
        if isinstance(commit, bool) or not isinstance(commit, int):
            raise StreamReset(f"journal_batch with bad commit {commit!r}")
        now = self._last_stream_mono = time.monotonic()
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
                    raise StreamReset(
                        f"stream stalled at commit {self._applied_commit} "
                        f"with head {self._stream_head}"
                    )
            else:
                self._gap_since = None
            self._send_ack(writer)
            self.refresh_gauges()
            return
        if commit <= self._applied_commit:
            # A duplicate delivery (chaos proxy, resubscribe overlap):
            # already applied, just re-acknowledge.
            self._send_ack(writer)
            return
        if commit != self._applied_commit + 1:
            raise StreamReset(
                f"stream gap: expected commit {self._applied_commit + 1}, "
                f"got {commit}"
            )
        try:
            records = decode_records(message.get("records"))
        except ReplicationError as exc:
            self.registry.counter("service.repl.corrupt_batches").inc()
            raise StreamReset(str(exc)) from None
        facts = await self._apply(records, commit)
        self._applied_commit = commit
        self._stream_head = max(self._stream_head, commit)
        self.registry.counter("service.repl.batches_applied").inc()
        if facts:
            self.registry.counter("service.repl.facts_applied").inc(facts)
        self._gap_since = None
        self._send_ack(writer)
        self.refresh_gauges()

    def _send_ack(self, writer) -> None:
        """Fire-and-forget cumulative ack on the subscription link."""
        if writer.is_closing():
            return
        ack = {
            "op": "journal_ack",
            "commit": self._applied_commit,
            "replica": self.name,
        }
        try:
            writer.write(wire.encode_frame(ack))
        except Exception:
            pass
