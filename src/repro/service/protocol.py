"""The wire protocol of the temporal-aggregate service.

Stdlib-only framing: every message is a 4-byte big-endian length prefix
followed by a **binary** body (protocol version 1): a struct-packed
typed payload beginning with the magic byte ``0xB1``.  Hot operations
(``insert``, ``batch_insert``, ``lookup``, ``rangeq``, ``window``,
``ping``, single-view ``query_view``) and their replies have fixed
typed layouts; anything else (``stats`` results, view DDL, the
replication stream, requests with unusual fields) travels as a JSON
object wrapped inside the binary envelope, so the one codec carries
*every* message dict.  A body that does not start with the magic byte
is a :class:`ProtocolError`: a server answers it once with
``bad_request`` and closes the connection.

Requests::

    {"op": "ping"}
    {"op": "insert",       "value": 2, "start": 10, "end": 40}
    {"op": "batch_insert", "facts": [[2, 10, 40], [3, 10, 30]]}
    {"op": "lookup",       "t": 19}
    {"op": "rangeq",       "start": 14, "end": 28}
    {"op": "window",       "t": 30, "w": 20}
    {"op": "stats"}
    {"op": "subscribe_journal", "from_commit": 0, "replica": "r1"}
    {"op": "journal_ack",  "commit": 7, "replica": "r1"}
    {"op": "promote"}
    {"op": "table_insert", "table": "obs", "rows": [[2, 10, 40, {"k": "a"}]]}
    {"op": "create_view",  "name": "by_k", "over": ["obs"], "agg": "sum",
                           "key": "k", "lag": "5s"}
    {"op": "query_view",   "view": "by_k", "t": 19, "key": "a"}
    {"op": "query_view",   "views": ["by_k", "tot"], "t": 19, "pin": true}
    {"op": "refresh_view", "view": "by_k"}
    {"op": "drop_view",    "view": "by_k"}
    {"op": "view_stats"}
    {"op": "repair_view",  "view": "by_k"}

The ``table_insert``/``create_view``/``query_view``/``refresh_view``/
``drop_view``/``view_stats``/``repair_view`` family is the dynamic
materialized-view surface (see ``repro.warehouse.dynamic`` and
DESIGN.md sections 13-14):
named base tables ingest rows (``[value, start, end]`` plus an optional
payload dict, or a bare scalar shorthand for ``{"key": <scalar>}``),
views declare sources/aggregate/grouping-key/freshness-lag over them,
and ``query_view`` answers ``{"value": ..., "watermark": ...,
"staleness_s": ...}`` -- the value, the source sequence number(s) it
reflects, and how far it trails the base data.  The multi-view form
with ``"pin"`` refreshes the views' shared ancestor closure first and
reads them all at one consistent set of base watermarks.  Single-view
``query_view`` requests and their scalar readings have typed binary
layouts; the rest of the family travels JSON-wrapped.  One write
route: ``table_insert``/``create_view``/``drop_view`` are keyed
group-commit writes like ``insert``, shipped down the journal stream as
one ``{"table", "rows"}`` / ``{"ddl"}`` record each, so replicas
maintain their own catalog copies and serve ``query_view`` locally
(stamped with ``watermark``/``staleness_s`` like any replica read);
``repair_view`` is node-local -- it clears a quarantined view on
whichever node receives it.

The last three are the replication surface (see
``repro.service.replication`` and DESIGN.md section 12): a follower
subscribes to the primary's committed-batch stream, the primary pushes
``{"op": "journal_batch", "commit": N, "records": "<base64>"}``
messages down the same connection, and the follower acknowledges each
applied commit.  Replica read replies carry two extra top-level fields,
``"watermark"`` (the replica's applied commit sequence) and
``"staleness_s"`` (seconds since it last heard from the primary; -1.0
when unknown), so a client can enforce a max-staleness bound.  A write
sent to a replica fails with ``ERR_NOT_PRIMARY`` whose error object
may carry a ``"primary": "host:port"`` redirect hint.

An optional ``"id"`` field is echoed verbatim in the reply, so clients
may pipeline requests over one connection and match replies out of
order.  An optional ``"trace"`` field -- ``{"id": "<trace_id>",
"span": "<span_id>"}``, the wire form of
:class:`repro.obs.trace.TraceContext` -- propagates the client's trace
into the server; servers ignore it when tracing is off and treat a
malformed value as absent.

Three further optional request fields carry the resilience contract:

* ``"client"`` (non-empty string) and ``"seq"`` (positive integer) form
  an *idempotency key* on mutating requests.  The server applies each
  ``(client, seq)`` pair at most once and replays the original reply
  for duplicates, with ``"duplicate": true`` added to the result -- a
  client may therefore blindly retry a write whose reply was lost.
  Sequence numbers must be monotonically increasing per client; keys
  older than the server's dedup window are answered as duplicates with
  ``"applied": 0`` (their original reply has been evicted).
* ``"deadline_ms"`` (non-negative number) is the request's remaining
  time budget in milliseconds, measured from the moment the frame is
  read off the socket.  A server sheds the request with
  ``ERR_DEADLINE`` if it expires before dispatch (e.g. while queued
  behind admission control); a reply to an expired request would be
  wasted work the client has already given up on.  A client retrying a
  request re-stamps this field with the *remaining* budget on every
  attempt (backoff sleeps included) and stops retrying at zero.

Overload rejections (``ERR_OVERLOADED``) and graceful-drain rejections
(``ERR_SHUTTING_DOWN``) may carry ``"retry_after"`` (seconds) inside
the error object -- a hint for the client's backoff.

Replies::

    {"ok": true,  "result": ...}
    {"ok": false, "error": {"type": "<code>", "message": "..."}}

When a request fails with an unhandled server-side exception the error
``type`` is ``server_error``; with tracing on, the error object also
carries the request's ``trace_id`` so the failure can be joined with
its span records.

``lookup``/``window`` results are finalized scalar values (AVG as a
float quotient, MIN/MAX ``NULL`` as JSON null); ``rangeq`` results are
``[[value, start, end], ...]`` rows of the coalesced, finalized step
function over the requested window.  Error ``type`` is one of the
``ERR_*`` codes below; a server must reply with a structured error --
never drop the connection -- for every request it could frame.

Binary frame layout (version 1)
-------------------------------

After the 4-byte length prefix, a binary body is::

    u8   magic = 0xB1
    u8   message type
    u8   envelope flags      bit 0: idempotency key (client + seq)
                             bit 1: deadline_ms
                             bit 2: trace context
                             bit 3: request/reply id
                             bit 4: replica watermark (replies)
    [scalar id]              if flag bit 3
    [u16 len + client utf-8, u64 seq]            if flag bit 0
    [f64 deadline_ms]                            if flag bit 1
    [u16 len + trace id, u16 len + span id]      if flag bit 2
    [u64 watermark, f64 staleness_s]             if flag bit 4
    <typed payload per message type>

Scalars are 1-byte-tagged: NULL, I64 (``>q``), F64 (``>d``, NaN/inf
allowed), STR (u32 length + UTF-8), TRUE, FALSE.  Whole-valued f64
*times* are restored to ``int`` on decode (mirroring
``storage/codec.py``) so typed and JSON-wrapped forms of the same
logical message compare equal.  All integers are big-endian (network
order); frame-aware middleboxes (the chaos proxy) need only the length
prefix.

A ``rows`` reply (``rangeq``) is a u32 row count, then per row a tagged
scalar value and two raw f64 times.  A row whose value is an I64 or F64
scalar is therefore 25 fixed bytes::

    >Bqdd   u8 tag = 1, i64 value, f64 start, f64 end
    >Bddd   u8 tag = 2, f64 value, f64 start, f64 end

and is packed with one struct call and unpacked with one
``unpack_from`` after a bounds check.  Any other row (``NULL``, a bool,
a string) is written and read field by field, and an int beyond i64
JSON-wraps the whole reply; the bytes are the same either way.

Request field validation (:func:`number`, :func:`instant`,
:func:`fact`, :func:`idem_key`) also lives here: it is where input from
outside becomes trusted, once, for every op that carries the field.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any, Dict, List, Optional, Tuple

from ..core.intervals import Interval

__all__ = [
    "MAX_FRAME",
    "CODEC_BINARY",
    "BINARY_MAGIC",
    "BINARY_VERSION",
    "ProtocolError",
    "FrameTooLarge",
    "ConnectionClosedMidFrame",
    "encode_frame",
    "encode_body",
    "decode_body",
    "take_frames",
    "RECV_CHUNK",
    "recv_frame_blocking",
    "number",
    "instant",
    "fact",
    "idem_key",
    "error_reply",
    "ok_reply",
    "ERR_BAD_REQUEST",
    "ERR_UNKNOWN_OP",
    "ERR_UNSUPPORTED",
    "ERR_FAULT",
    "ERR_TIMEOUT",
    "ERR_DEADLINE",
    "ERR_OVERLOADED",
    "ERR_SHUTTING_DOWN",
    "ERR_NOT_PRIMARY",
    "ERR_INTERNAL",
    "ERR_SERVER",
]

#: Upper bound on one frame's body; a length prefix beyond this is
#: treated as a framing error (garbage or a hostile peer), not an
#: allocation request.
MAX_FRAME = 8 * 1024 * 1024

#: The one wire codec, and the only value the ``codec`` argument of
#: :func:`encode_body` / :func:`encode_frame` accepts.
CODEC_BINARY = "binary"

#: First body byte of every message.
BINARY_MAGIC = 0xB1
BINARY_VERSION = 1

_LEN = struct.Struct(">I")
_HDR = struct.Struct(">BB")  # magic, message type
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
#: A whole ``rows`` row, tag byte included: an I64 or F64 value, then
#: the two f64 times.  The same bytes the per-field path writes.
_ROW_I64 = struct.Struct(">Bqdd")
_ROW_F64 = struct.Struct(">Bddd")

# Envelope flag bits.
_FLAG_IDEM = 1
_FLAG_DEADLINE = 2
_FLAG_TRACE = 4
_FLAG_ID = 8
_FLAG_WATERMARK = 16

# Message types: requests.
_T_PING = 0x01
_T_INSERT = 0x02
_T_BATCH_INSERT = 0x03
_T_LOOKUP = 0x04
_T_RANGEQ = 0x05
_T_WINDOW = 0x06
_T_STATS = 0x07
_T_QUERY_VIEW = 0x08
#: Escape hatch: the payload is a JSON request object (odd fields,
#: future ops); the binary envelope is just framing.
_T_REQ_JSON = 0x1F

# Message types: replies.
_T_OK_SCALAR = 0x21
_T_OK_ROWS = 0x22
_T_OK_APPLIED = 0x23
_T_ERR = 0x24
#: A view reading: scalar value + u64 watermark + f64 staleness.
_T_OK_VIEW = 0x25
_T_REPLY_JSON = 0x3F

_REQ_TYPE_FOR_OP = {
    "ping": _T_PING,
    "insert": _T_INSERT,
    "batch_insert": _T_BATCH_INSERT,
    "lookup": _T_LOOKUP,
    "rangeq": _T_RANGEQ,
    "window": _T_WINDOW,
    "stats": _T_STATS,
    "query_view": _T_QUERY_VIEW,
}
_OP_FOR_REQ_TYPE = {t: op for op, t in _REQ_TYPE_FOR_OP.items()}

#: Per-op payload fields (what the typed layouts carry); a request with
#: any other non-envelope field falls back to the JSON-wrapped form so
#: nothing is ever silently dropped.  ``query_view`` here is the
#: single-view form (``key`` always present, ``None`` for ungrouped
#: reads); the multi-view ``views``/``pin`` form JSON-wraps.
_REQ_FIELDS = {
    "ping": frozenset(),
    "stats": frozenset(),
    "insert": frozenset(("value", "start", "end")),
    "batch_insert": frozenset(("facts",)),
    "lookup": frozenset(("t",)),
    "rangeq": frozenset(("start", "end")),
    "window": frozenset(("t", "w")),
    "query_view": frozenset(("view", "t", "key")),
}
_ENVELOPE_FIELDS = frozenset(
    ("op", "id", "client", "seq", "deadline_ms", "trace")
)

# Scalar tags.
_TAG_NULL = 0
_TAG_I64 = 1
_TAG_F64 = 2
_TAG_STR = 3
_TAG_TRUE = 4
_TAG_FALSE = 5

ERR_BAD_REQUEST = "bad_request"
ERR_UNKNOWN_OP = "unknown_op"
ERR_UNSUPPORTED = "unsupported"
ERR_FAULT = "fault_injected"
ERR_TIMEOUT = "timeout"
ERR_DEADLINE = "deadline_exceeded"
ERR_OVERLOADED = "overloaded"
ERR_SHUTTING_DOWN = "shutting_down"
#: A write (or journal subscription) sent to a replica.  The error
#: object may carry ``"primary"`` -- a ``"host:port"`` redirect hint.
ERR_NOT_PRIMARY = "not_primary"
ERR_INTERNAL = "internal"
ERR_SERVER = "server_error"


class ProtocolError(ValueError):
    """A malformed frame, message body, or request field."""


class FrameTooLarge(ProtocolError):
    """A length prefix (or encoded body) exceeding :data:`MAX_FRAME`."""


class ConnectionClosedMidFrame(ConnectionError):
    """The peer vanished inside a frame: a transport failure, not a
    protocol violation -- retryable, unlike :class:`ProtocolError`."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_body(message: Dict[str, Any], codec: str = CODEC_BINARY) -> bytes:
    """Serialize one message dict into a frame body."""
    if codec != CODEC_BINARY:
        raise ValueError(f"unknown codec {codec!r}; the wire is binary")
    return _encode_binary(message)


def encode_frame(message: Dict[str, Any], codec: str = CODEC_BINARY) -> bytes:
    """Serialize one message to its length-prefixed wire form."""
    body = encode_body(message, codec)
    if len(body) > MAX_FRAME:
        raise FrameTooLarge(f"frame of {len(body)} bytes exceeds {MAX_FRAME}")
    return _LEN.pack(len(body)) + body


def decode_length(header: bytes) -> int:
    """Parse and bound-check a 4-byte length prefix."""
    (length,) = _LEN.unpack(header)
    # The wire format is unsigned, but callers holding an already-parsed
    # int (tests, proxies) go through the same bound check.
    if length < 0:
        raise ProtocolError(f"negative frame length {length}")
    if length > MAX_FRAME:
        raise FrameTooLarge(f"frame of {length} bytes exceeds {MAX_FRAME}")
    return length


def decode_body(body: bytes) -> Dict[str, Any]:
    """Parse a frame body into a message dict."""
    if body[:1] != b"\xb1":
        raise ProtocolError("frame body does not start with the 0xB1 magic")
    return _decode_binary(body)


#: Most bytes a frame loop takes from its socket in one receive.
RECV_CHUNK = 256 * 1024


def take_frames(
    buf: bytearray,
) -> Tuple[List[Tuple[Dict[str, Any], int]], Optional[ProtocolError]]:
    """Remove every complete frame from the head of a receive buffer.

    Returns the decoded ``(message, body length)`` pairs and, if the
    bytes after them cannot be a frame, why: the stream offset can no
    longer be trusted, so the caller handles what came before and gives
    the connection up.  An incomplete frame stays in *buf* for the next
    receive -- under pipelining a whole burst arrives in one segment and
    costs one system call, not two per frame.
    """
    frames: List[Tuple[Dict[str, Any], int]] = []
    offset = 0
    error = None
    try:
        while len(buf) - offset >= 4:
            length = decode_length(buf[offset:offset + 4])
            end = offset + 4 + length
            if end > len(buf):
                break
            frames.append((decode_body(bytes(buf[offset + 4:end])), length))
            offset = end
    except ProtocolError as exc:
        error = exc
    del buf[:offset]
    return frames, error


def recv_frame_blocking(sock) -> Optional[Dict[str, Any]]:
    """Read one frame from a blocking socket; None on clean EOF.

    EOF *inside* a frame -- after the header, or partway through the
    body -- raises :class:`ConnectionClosedMidFrame` (the connection
    died; retryable), never a :class:`ProtocolError` (the peer sent
    garbage; not retryable).
    """
    header = _recv_exactly(sock, _LEN.size)
    if header is None:
        return None
    length = decode_length(header)
    body = _recv_exactly(sock, length)
    if body is None:
        # The peer sent a complete header, then vanished: a transport
        # failure, not a malformed body.
        raise ConnectionClosedMidFrame(
            f"connection closed before the {length}-byte frame body"
        )
    return decode_body(body)


def _recv_exactly(sock, n: int) -> Optional[bytes]:
    if n == 0:
        return b""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == n:
                return None  # clean EOF on a chunk boundary
            raise ConnectionClosedMidFrame("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Reply constructors
# ----------------------------------------------------------------------
def ok_reply(result: Any, request: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build a success reply, echoing the request id if present."""
    reply: Dict[str, Any] = {"ok": True, "result": result}
    if request is not None and "id" in request:
        reply["id"] = request["id"]
    return reply


def error_reply(
    err_type: str,
    message: str,
    request: Optional[Dict[str, Any]] = None,
    *,
    trace_id: Optional[str] = None,
    retry_after: Optional[float] = None,
    primary: Optional[str] = None,
) -> Dict[str, Any]:
    """Build a structured error reply, echoing the request id if present.

    ``trace_id``, when given, lands inside the error object so a client
    (or an operator grepping the trace file) can join the failure with
    its span records.  ``retry_after`` (seconds) is the backoff hint
    overload and drain rejections carry.  ``primary`` is the
    ``"host:port"`` redirect hint a replica attaches to
    :data:`ERR_NOT_PRIMARY` rejections.
    """
    error: Dict[str, Any] = {"type": err_type, "message": message}
    if trace_id is not None:
        error["trace_id"] = trace_id
    if retry_after is not None:
        error["retry_after"] = retry_after
    if primary is not None:
        error["primary"] = primary
    reply: Dict[str, Any] = {"ok": False, "error": error}
    if request is not None and "id" in request:
        reply["id"] = request["id"]
    return reply


# ----------------------------------------------------------------------
# Request field validation
# ----------------------------------------------------------------------
def number(value: Any, field: str) -> Any:
    """A numeric field: int or float (not bool) and never NaN -- one NaN
    stored in a tree answers ``nan`` for every later aggregate over it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"field {field!r} must be a number")
    if value != value:
        raise ProtocolError(f"field {field!r} must not be NaN")
    return value


def instant(value: Any, field: str) -> Any:
    """A finite number: query instants, window widths, ``deadline_ms``.
    Interval *endpoints* go through :func:`number` -- they may be +-inf."""
    if number(value, field) in (math.inf, -math.inf):
        raise ProtocolError(f"field {field!r} must be finite")
    return value


def fact(value: Any, start: Any, end: Any, noun: str = "fact") -> Tuple[Any, Interval]:
    """One ``value, start, end`` triple as ``(value, Interval)``."""
    start = number(start, "start")
    end = number(end, "end")
    if value is None:
        raise ProtocolError(f"{noun} needs a 'value'")
    if isinstance(value, float) and not math.isfinite(value):
        raise ProtocolError(f"{noun} 'value' must be finite, got {value!r}")
    if not start < end:
        raise ProtocolError(f"empty {noun} interval [{start}, {end})")
    return value, Interval(start, end)


def idem_key(request: Dict[str, Any]) -> Optional[Tuple[str, int]]:
    """Validate and extract the request's idempotency key, if any."""
    client = request.get("client")
    seq = request.get("seq")
    if client is None and seq is None:
        return None
    if not isinstance(client, str) or not client:
        raise ProtocolError("field 'client' must be a non-empty string")
    if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
        raise ProtocolError("field 'seq' must be a positive integer")
    return client, seq


# ----------------------------------------------------------------------
# Binary codec: encoding
# ----------------------------------------------------------------------
class _Unpackable(Exception):
    """Internal: this message has no typed layout; use the JSON wrap."""


def _pack_scalar(value: Any, parts: List[bytes]) -> None:
    """Append one tagged scalar; raise _Unpackable for anything else."""
    if value is None:
        parts.append(b"\x00")
    elif value is True:
        parts.append(b"\x04")
    elif value is False:
        parts.append(b"\x05")
    elif isinstance(value, int):
        if -(2**63) <= value < 2**63:
            parts.append(b"\x01" + _I64.pack(value))
        else:  # an int outside i64: JSON carries it exactly
            raise _Unpackable
    elif isinstance(value, float):
        parts.append(b"\x02" + _F64.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        if len(raw) >= 2**32:
            raise _Unpackable
        parts.append(b"\x03" + _U32.pack(len(raw)) + raw)
    else:
        raise _Unpackable


def _pack_str16(value: Any, parts: List[bytes]) -> None:
    if not isinstance(value, str):
        raise _Unpackable
    raw = value.encode("utf-8")
    if len(raw) >= 2**16:
        raise _Unpackable
    parts.append(_U16.pack(len(raw)))
    parts.append(raw)


def _pack_time(value: Any, parts: List[bytes]) -> None:
    """A raw f64 time/number field (no tag; ints restored on decode)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _Unpackable
    parts.append(_F64.pack(float(value)))


def _encode_binary(message: Dict[str, Any]) -> bytes:
    """Encode one message dict into a binary body.

    Messages without a typed layout are wrapped as JSON inside the
    binary envelope, so this refuses nothing ``json.dumps`` accepts.
    """
    try:
        if "op" in message:
            return _encode_binary_request(message)
        if "ok" in message:
            return _encode_binary_reply(message)
    except _Unpackable:
        pass
    wrapped = _T_REQ_JSON if "op" in message else _T_REPLY_JSON
    return _HDR.pack(BINARY_MAGIC, wrapped) + json.dumps(
        message, separators=(",", ":")
    ).encode("utf-8")


def _encode_envelope(message: Dict[str, Any], parts: List[bytes]) -> None:
    """Append the flags byte and optional envelope fields."""
    flags = 0
    tail: List[bytes] = []
    if "id" in message:
        flags |= _FLAG_ID
        _pack_scalar(message["id"], tail)
    if "client" in message or "seq" in message:
        client = message.get("client")
        seq = message.get("seq")
        if (
            not isinstance(client, str)
            or isinstance(seq, bool)
            or not isinstance(seq, int)
            or not 0 <= seq < 2**64
        ):
            raise _Unpackable  # let the server-side validation see it as-is
        flags |= _FLAG_IDEM
        _pack_str16(client, tail)
        tail.append(_U64.pack(seq))
    if "deadline_ms" in message:
        deadline = message["deadline_ms"]
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
            raise _Unpackable
        flags |= _FLAG_DEADLINE
        tail.append(_F64.pack(float(deadline)))
    if "trace" in message:
        trace = message["trace"]
        if (
            not isinstance(trace, dict)
            or set(trace) != {"id", "span"}
        ):
            raise _Unpackable
        flags |= _FLAG_TRACE
        _pack_str16(trace["id"], tail)
        _pack_str16(trace["span"], tail)
    if "watermark" in message or "staleness_s" in message:
        watermark = message.get("watermark")
        staleness = message.get("staleness_s")
        if (
            isinstance(watermark, bool)
            or not isinstance(watermark, int)
            or not 0 <= watermark < 2**64
            or isinstance(staleness, bool)
            or not isinstance(staleness, (int, float))
        ):
            raise _Unpackable  # odd shapes travel as JSON, verbatim
        flags |= _FLAG_WATERMARK
        tail.append(_U64.pack(watermark))
        tail.append(_F64.pack(float(staleness)))
    parts.append(bytes((flags,)))
    parts.extend(tail)


def _encode_binary_request(message: Dict[str, Any]) -> bytes:
    op = message.get("op")
    fields = _REQ_FIELDS.get(op)
    if fields is None:
        raise _Unpackable  # unknown op: carry it as JSON, verbatim
    if not set(message) <= (_ENVELOPE_FIELDS | fields):
        raise _Unpackable  # extra fields must not be dropped
    for name in fields:
        if name not in message:
            raise _Unpackable  # missing field: let the server report it
    parts: List[bytes] = [_HDR.pack(BINARY_MAGIC, _REQ_TYPE_FOR_OP[op])]
    _encode_envelope(message, parts)
    if op == "insert":
        _pack_scalar(message["value"], parts)
        _pack_time(message["start"], parts)
        _pack_time(message["end"], parts)
    elif op == "batch_insert":
        facts = message["facts"]
        if not isinstance(facts, list) or len(facts) >= 2**32:
            raise _Unpackable
        parts.append(_U32.pack(len(facts)))
        for item in facts:
            if not isinstance(item, (list, tuple)) or len(item) != 3:
                raise _Unpackable
            value, start, end = item
            _pack_scalar(value, parts)
            _pack_time(start, parts)
            _pack_time(end, parts)
    elif op == "lookup":
        _pack_time(message["t"], parts)
    elif op == "rangeq":
        _pack_time(message["start"], parts)
        _pack_time(message["end"], parts)
    elif op == "window":
        _pack_time(message["t"], parts)
        _pack_time(message["w"], parts)
    elif op == "query_view":
        _pack_str16(message["view"], parts)
        _pack_time(message["t"], parts)
        _pack_scalar(message["key"], parts)
    # ping / stats: no payload
    return b"".join(parts)


def _encode_binary_reply(message: Dict[str, Any]) -> bytes:
    if message.get("ok"):
        if set(message) - {"ok", "result", "id", "watermark", "staleness_s"}:
            raise _Unpackable
        result = message.get("result")
        parts: List[bytes] = []
        if isinstance(result, dict) and set(result) == {
            "value", "watermark", "staleness_s"
        }:
            # A single-source view reading; dict watermarks (multi-source
            # views) and grouped all-keys values JSON-wrap instead.
            watermark = result["watermark"]
            staleness = result["staleness_s"]
            if (
                isinstance(watermark, bool)
                or not isinstance(watermark, int)
                or not 0 <= watermark < 2**64
                or isinstance(staleness, bool)
                or not isinstance(staleness, (int, float))
            ):
                raise _Unpackable
            parts.append(_HDR.pack(BINARY_MAGIC, _T_OK_VIEW))
            _encode_envelope(message, parts)
            _pack_scalar(result["value"], parts)
            parts.append(_U64.pack(watermark))
            parts.append(_F64.pack(float(staleness)))
        elif isinstance(result, dict):
            if (
                not set(result) <= {"applied", "duplicate", "evicted"}
                or isinstance(result.get("applied"), bool)
                or not isinstance(result.get("applied"), int)
                or not 0 <= result["applied"] < 2**32
            ):
                raise _Unpackable
            parts.append(_HDR.pack(BINARY_MAGIC, _T_OK_APPLIED))
            _encode_envelope(message, parts)
            parts.append(_U32.pack(result["applied"]))
            rflags = (1 if result.get("duplicate") is True else 0) | (
                2 if result.get("evicted") is True else 0
            )
            # Flag fields must be exactly True or absent to round-trip.
            if ("duplicate" in result) != bool(rflags & 1):
                raise _Unpackable
            if ("evicted" in result) != bool(rflags & 2):
                raise _Unpackable
            parts.append(bytes((rflags,)))
        elif isinstance(result, list):
            if len(result) >= 2**32:
                raise _Unpackable
            parts.append(_HDR.pack(BINARY_MAGIC, _T_OK_ROWS))
            _encode_envelope(message, parts)
            parts.append(_U32.pack(len(result)))
            for row in result:
                if not isinstance(row, (list, tuple)) or len(row) != 3:
                    raise _Unpackable
                value, start, end = row
                kind, a, b = type(value), type(start), type(end)
                if (a is int or a is float) and (b is int or b is float):
                    # One struct call per row; an int beyond i64 (or a
                    # time beyond a double) falls through to the
                    # per-field path, which decides what it becomes.
                    try:
                        if kind is int:
                            parts.append(_ROW_I64.pack(_TAG_I64, value, start, end))
                            continue
                        if kind is float:
                            parts.append(_ROW_F64.pack(_TAG_F64, value, start, end))
                            continue
                    except struct.error:
                        pass
                _pack_scalar(value, parts)
                _pack_time(start, parts)
                _pack_time(end, parts)
        else:
            parts.append(_HDR.pack(BINARY_MAGIC, _T_OK_SCALAR))
            _encode_envelope(message, parts)
            _pack_scalar(result, parts)
        return b"".join(parts)
    # Error reply.
    if set(message) - {"ok", "error", "id"}:
        raise _Unpackable
    error = message.get("error")
    if not isinstance(error, dict) or not set(error) <= {
        "type", "message", "trace_id", "retry_after", "primary"
    }:
        raise _Unpackable
    parts = [_HDR.pack(BINARY_MAGIC, _T_ERR)]
    _encode_envelope(message, parts)
    _pack_str16(error.get("type"), parts)
    _pack_str16(error.get("message"), parts)
    eflags = 0
    tail: List[bytes] = []
    if "trace_id" in error:
        eflags |= 1
        _pack_str16(error["trace_id"], tail)
    if "retry_after" in error:
        retry_after = error["retry_after"]
        if isinstance(retry_after, bool) or not isinstance(
            retry_after, (int, float)
        ):
            raise _Unpackable
        eflags |= 2
        tail.append(_F64.pack(float(retry_after)))
    if "primary" in error:
        eflags |= 4
        _pack_str16(error["primary"], tail)
    parts.append(bytes((eflags,)))
    parts.extend(tail)
    return b"".join(parts)


# ----------------------------------------------------------------------
# Binary codec: decoding
# ----------------------------------------------------------------------
def _restore_num(x: float) -> Any:
    """Give whole-valued finite doubles back their int identity."""
    return int(x) if x.is_integer() else x


class _Reader:
    """Bounds-checked cursor over a binary body."""

    __slots__ = ("buf", "off")

    def __init__(self, buf: bytes, off: int) -> None:
        self.buf = buf
        self.off = off

    def _take(self, fmt: struct.Struct) -> Any:
        try:
            (value,) = fmt.unpack_from(self.buf, self.off)
        except struct.error:
            raise ProtocolError("truncated binary frame") from None
        self.off += fmt.size
        return value

    def u8(self) -> int:
        if self.off >= len(self.buf):
            raise ProtocolError("truncated binary frame")
        value = self.buf[self.off]
        self.off += 1
        return value

    def u16(self) -> int:
        return self._take(_U16)

    def u32(self) -> int:
        return self._take(_U32)

    def u64(self) -> int:
        return self._take(_U64)

    def f64(self) -> float:
        return self._take(_F64)

    def time(self) -> Any:
        return _restore_num(self._take(_F64))

    def raw(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise ProtocolError("truncated binary frame")
        chunk = self.buf[self.off:self.off + n]
        self.off += n
        return chunk

    def str16(self) -> str:
        n = self.u16()
        try:
            return self.raw(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"bad utf-8 in binary frame: {exc}") from None

    def scalar(self) -> Any:
        tag = self.u8()
        if tag == _TAG_NULL:
            return None
        if tag == _TAG_I64:
            return self._take(_I64)
        if tag == _TAG_F64:
            return self._take(_F64)
        if tag == _TAG_STR:
            n = self.u32()
            try:
                return self.raw(n).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(
                    f"bad utf-8 in binary frame: {exc}"
                ) from None
        if tag == _TAG_TRUE:
            return True
        if tag == _TAG_FALSE:
            return False
        raise ProtocolError(f"unknown scalar tag {tag}")

    def expect_end(self) -> None:
        if self.off != len(self.buf):
            raise ProtocolError(
                f"{len(self.buf) - self.off} trailing bytes in binary frame"
            )


def _decode_envelope(reader: _Reader, message: Dict[str, Any]) -> None:
    flags = reader.u8()
    if flags & ~(
        _FLAG_IDEM | _FLAG_DEADLINE | _FLAG_TRACE | _FLAG_ID | _FLAG_WATERMARK
    ):
        raise ProtocolError(f"unknown envelope flags 0x{flags:02x}")
    if flags & _FLAG_ID:
        message["id"] = reader.scalar()
    if flags & _FLAG_IDEM:
        message["client"] = reader.str16()
        message["seq"] = reader.u64()
    if flags & _FLAG_DEADLINE:
        message["deadline_ms"] = _restore_num(reader.f64())
    if flags & _FLAG_TRACE:
        message["trace"] = {"id": reader.str16(), "span": reader.str16()}
    if flags & _FLAG_WATERMARK:
        message["watermark"] = reader.u64()
        message["staleness_s"] = reader.f64()


def _decode_binary(body: bytes) -> Dict[str, Any]:
    if len(body) < _HDR.size:
        raise ProtocolError("binary frame shorter than its header")
    mtype = body[1]
    if mtype in (_T_REQ_JSON, _T_REPLY_JSON):
        try:
            message = json.loads(body[_HDR.size:].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"undecodable wrapped body: {exc}") from None
        if not isinstance(message, dict):
            raise ProtocolError("wrapped body must be a JSON object")
        return message
    reader = _Reader(body, _HDR.size)
    op = _OP_FOR_REQ_TYPE.get(mtype)
    if op is not None:
        message: Dict[str, Any] = {"op": op}
        _decode_envelope(reader, message)
        if op == "insert":
            message["value"] = reader.scalar()
            message["start"] = reader.time()
            message["end"] = reader.time()
        elif op == "batch_insert":
            n = reader.u32()
            facts: List[List[Any]] = []
            for _ in range(n):
                value = reader.scalar()
                facts.append([value, reader.time(), reader.time()])
            message["facts"] = facts
        elif op == "lookup":
            message["t"] = reader.time()
        elif op == "rangeq":
            message["start"] = reader.time()
            message["end"] = reader.time()
        elif op == "window":
            message["t"] = reader.time()
            message["w"] = reader.time()
        elif op == "query_view":
            message["view"] = reader.str16()
            message["t"] = reader.time()
            message["key"] = reader.scalar()
        reader.expect_end()
        return message
    if mtype == _T_OK_SCALAR:
        message = {"ok": True}
        _decode_envelope(reader, message)
        message["result"] = reader.scalar()
        reader.expect_end()
        return message
    if mtype == _T_OK_ROWS:
        message = {"ok": True}
        _decode_envelope(reader, message)
        n = reader.u32()
        rows: List[List[Any]] = []
        off, size = reader.off, len(body)
        for _ in range(n):
            # An I64 or F64 row is one unpack, once its 25 bytes are
            # known to be there; any other row is read field by field.
            if off + _ROW_I64.size <= size and body[off] == _TAG_I64:
                _, value, start, end = _ROW_I64.unpack_from(body, off)
                off += _ROW_I64.size
            elif off + _ROW_F64.size <= size and body[off] == _TAG_F64:
                _, value, start, end = _ROW_F64.unpack_from(body, off)
                off += _ROW_F64.size
            else:
                reader.off = off
                value = reader.scalar()
                start, end = reader.f64(), reader.f64()
                off = reader.off
            rows.append([value, _restore_num(start), _restore_num(end)])
        reader.off = off
        message["result"] = rows
        reader.expect_end()
        return message
    if mtype == _T_OK_APPLIED:
        message = {"ok": True}
        _decode_envelope(reader, message)
        result: Dict[str, Any] = {"applied": reader.u32()}
        rflags = reader.u8()
        if rflags & ~3:
            raise ProtocolError(f"unknown applied flags 0x{rflags:02x}")
        if rflags & 1:
            result["duplicate"] = True
        if rflags & 2:
            result["evicted"] = True
        message["result"] = result
        reader.expect_end()
        return message
    if mtype == _T_OK_VIEW:
        message = {"ok": True}
        _decode_envelope(reader, message)
        value = reader.scalar()
        message["result"] = {
            "value": value,
            "watermark": reader.u64(),
            "staleness_s": reader.f64(),
        }
        reader.expect_end()
        return message
    if mtype == _T_ERR:
        message = {"ok": False}
        _decode_envelope(reader, message)
        error: Dict[str, Any] = {
            "type": reader.str16(),
            "message": reader.str16(),
        }
        eflags = reader.u8()
        if eflags & ~7:
            raise ProtocolError(f"unknown error flags 0x{eflags:02x}")
        if eflags & 1:
            error["trace_id"] = reader.str16()
        if eflags & 2:
            error["retry_after"] = _restore_num(reader.f64())
        if eflags & 4:
            error["primary"] = reader.str16()
        message["error"] = error
        reader.expect_end()
        return message
    raise ProtocolError(f"unknown binary message type 0x{mtype:02x}")
