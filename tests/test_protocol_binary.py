"""Tests for the binary wire codec and transport fixes.

Covers the protocol edge cases (zero-length frames, bodies at/past
MAX_FRAME, stale and duplicated replies under pipelining, a JSON-bodied
frame at the server's door) for both payload encodings the one codec
has -- the typed struct layouts and the JSON object wrapped inside the
binary envelope -- plus regression tests for two transport bugs:
mid-frame EOF must surface as a retryable ConnectionClosedMidFrame (not
a ProtocolError), and a retried request must re-stamp its *remaining*
deadline budget, not the full budget.
"""

import json
import random
import socket
import struct
import threading

import pytest

from repro.core import reference
from repro.service import (
    ServerHandle,
    ServiceClient,
    ServiceError,
    TransportError,
    protocol,
)


@pytest.fixture
def sum_server(open_shards):
    sharded = open_shards(num_shards=4, span=(0, 1000),
                          branching=4, leaf_capacity=4)
    with ServerHandle.start(sharded, batch_max=8) as handle:
        yield handle, sharded


def client_for(handle, **kwargs):
    return ServiceClient(handle.host, handle.port, timeout=5.0, **kwargs)


class FakeServer:
    """A scriptable server: ``handler(message) -> [reply frames]``.

    Lets a test control the exact bytes the client sees -- duplicated
    replies, stale ids, out-of-order delivery.
    """

    def __init__(self, handler):
        self.handler = handler
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        self.host, self.port = listener.getsockname()
        self._listener = listener
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, conn):
        try:
            while True:
                message = protocol.recv_frame_blocking(conn)
                if message is None:
                    return
                for frame in self.handler(message):
                    conn.sendall(frame)
        except (OSError, protocol.ProtocolError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._listener.close()


# ----------------------------------------------------------------------
# Binary codec roundtrips
# ----------------------------------------------------------------------
REQUESTS = [
    {"op": "ping"},
    {"op": "stats"},
    {"op": "insert", "value": 5, "start": 10, "end": 40},
    {"op": "insert", "value": -2.75, "start": 10.25, "end": 40},
    {"op": "insert", "value": None, "start": 0, "end": 1},
    {"op": "insert", "value": "tagged", "start": -5, "end": 7},
    {"op": "insert", "value": True, "start": 0, "end": 1},
    {"op": "batch_insert", "facts": [[1, 0, 10], [2.5, 3, 4], [None, 5, 6]]},
    {"op": "batch_insert", "facts": []},
    {"op": "lookup", "t": 19},
    {"op": "rangeq", "start": float("-inf"), "end": float("inf")},
    {"op": "window", "t": 30, "w": 20},
]

REPLIES = [
    {"ok": True, "result": None, "id": 1},
    {"ok": True, "result": 123},
    {"ok": True, "result": -2.5},
    {"ok": True, "result": "pong"},
    {"ok": True, "result": True},
    {"ok": True, "result": [], "id": 8},
    {"ok": True, "result": [[5, 10, 20], [None, 20, 30], [2.5, 30, 40.5]],
     "id": 9},
    {"ok": True, "result": {"applied": 3}, "id": 2},
    {"ok": True, "result": {"applied": 0, "duplicate": True, "evicted": True}},
    {"ok": False, "id": 4,
     "error": {"type": "overloaded", "message": "busy", "retry_after": 0.25}},
    {"ok": False,
     "error": {"type": "server_error", "message": "boom", "trace_id": "ab12"}},
]


def wrapped_body(message):
    """*message* as a JSON object inside the binary envelope -- the form
    every message without a typed layout travels in."""
    mtype = protocol._T_REQ_JSON if "op" in message else protocol._T_REPLY_JSON
    return bytes((protocol.BINARY_MAGIC, mtype)) + json.dumps(message).encode()


class TestBinaryRoundtrip:
    """"Both codecs" in the two test names below reads: both payload
    encodings of the one binary codec, typed layout and JSON-wrapped."""

    @pytest.mark.parametrize("message", REQUESTS)
    def test_requests_roundtrip_on_both_codecs(self, message):
        body = protocol.encode_body(message)
        assert body[0] == protocol.BINARY_MAGIC
        assert body[1] != protocol._T_REQ_JSON  # every one has a typed layout
        assert protocol.decode_body(body) == message
        # Typed and JSON-wrapped decodes of the same message compare equal.
        assert protocol.decode_body(wrapped_body(message)) == message

    @pytest.mark.parametrize("message", REPLIES)
    def test_replies_roundtrip_on_both_codecs(self, message):
        body = protocol.encode_body(message)
        assert body[0] == protocol.BINARY_MAGIC
        assert body[1] != protocol._T_REPLY_JSON
        assert protocol.decode_body(body) == message
        assert protocol.decode_body(wrapped_body(message)) == message

    def test_envelope_fields_roundtrip(self):
        message = {
            "op": "insert",
            "id": 7,
            "client": "client-1",
            "seq": 42,
            "deadline_ms": 250.5,
            "trace": {"id": "0123456789abcdef", "span": "fedcba98"},
            "value": 1,
            "start": 0,
            "end": 5,
        }
        assert protocol.decode_body(
            protocol.encode_body(message, protocol.CODEC_BINARY)
        ) == message

    def test_string_request_id_roundtrips(self):
        message = {"op": "ping", "id": "req-000017"}
        decoded = protocol.decode_body(
            protocol.encode_body(message, protocol.CODEC_BINARY)
        )
        assert decoded == message and isinstance(decoded["id"], str)

    def test_whole_float_times_restored_to_int(self):
        body = protocol.encode_body(
            {"op": "insert", "value": 1, "start": 10.0, "end": 40.0},
            protocol.CODEC_BINARY,
        )
        decoded = protocol.decode_body(body)
        assert isinstance(decoded["start"], int)
        assert isinstance(decoded["end"], int)


class TestJsonWrapFallback:
    def test_unknown_op_wrapped_verbatim(self):
        message = {"op": "frobnicate", "level": 11}
        body = protocol.encode_body(message, protocol.CODEC_BINARY)
        assert body[0] == protocol.BINARY_MAGIC
        assert protocol.decode_body(body) == message

    def test_extra_request_field_not_dropped(self):
        message = {"op": "lookup", "t": 1, "shard_hint": 3}
        body = protocol.encode_body(message, protocol.CODEC_BINARY)
        assert body[1] == protocol._T_REQ_JSON
        assert protocol.decode_body(body) == message

    def test_stats_reply_wrapped(self):
        message = {"ok": True, "result": {"shards": {"facts": 9}}, "id": 2}
        body = protocol.encode_body(message, protocol.CODEC_BINARY)
        assert body[1] == protocol._T_REPLY_JSON
        assert protocol.decode_body(body) == message

    def test_int_outside_i64_carried_exactly(self):
        message = {"op": "lookup", "t": 1, "id": 2**70}
        body = protocol.encode_body(message, protocol.CODEC_BINARY)
        assert body[1] == protocol._T_REQ_JSON
        assert protocol.decode_body(body)["id"] == 2**70


class TestBinaryMalformed:
    def test_truncated_body_rejected(self):
        body = protocol.encode_body(
            {"op": "insert", "value": 5, "start": 10, "end": 40},
            protocol.CODEC_BINARY,
        )
        for cut in (1, 2, len(body) // 2, len(body) - 1):
            with pytest.raises(protocol.ProtocolError):
                protocol.decode_body(body[:cut])

    def test_trailing_bytes_rejected(self):
        body = protocol.encode_body({"op": "ping"}, protocol.CODEC_BINARY)
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(body + b"\x00")

    def test_unknown_message_type_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(bytes((protocol.BINARY_MAGIC, 0x7E, 0)))

    def test_unknown_envelope_flags_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(
                bytes((protocol.BINARY_MAGIC, protocol._T_PING, 0x80))
            )


# ----------------------------------------------------------------------
# Framing edge cases
# ----------------------------------------------------------------------
class TestFramingEdges:
    def test_zero_length_frame_is_protocol_error(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(b"")
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 0))
            with pytest.raises(protocol.ProtocolError) as excinfo:
                protocol.recv_frame_blocking(b)
            # A zero-length frame is the peer's fault, not the network's.
            assert not isinstance(excinfo.value, ConnectionError)
        finally:
            a.close()
            b.close()

    def test_body_exactly_at_max_frame(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME", 256)
        probe = protocol.encode_body({"pad": ""})
        message = {"pad": "x" * (256 - len(probe))}
        frame = protocol.encode_frame(message)
        assert protocol.decode_length(frame[:4]) == 256
        assert protocol.decode_body(frame[4:]) == message

    def test_body_one_past_max_frame(self, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_FRAME", 256)
        probe = protocol.encode_body({"pad": ""})
        message = {"pad": "x" * (257 - len(probe))}
        with pytest.raises(protocol.FrameTooLarge):
            protocol.encode_frame(message)
        with pytest.raises(protocol.FrameTooLarge):
            protocol.decode_length(struct.pack(">I", 257))


class TestMidFrameEofRegression:
    """EOF inside a frame is a transport failure, never a protocol one."""

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert protocol.recv_frame_blocking(b) is None
        finally:
            b.close()

    def test_eof_mid_header(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00")
            a.close()
            with pytest.raises(protocol.ConnectionClosedMidFrame):
                protocol.recv_frame_blocking(b)
        finally:
            b.close()

    def test_eof_after_header_before_body(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 64))
            a.close()
            with pytest.raises(protocol.ConnectionClosedMidFrame):
                protocol.recv_frame_blocking(b)
        finally:
            b.close()

    @pytest.mark.parametrize("extra", [{}, {"shard_hint": 3}],
                             ids=["binary", "wrapped"])
    def test_eof_mid_body(self, extra):
        # "binary": the typed lookup layout; "wrapped": an extra field
        # makes the same request travel as JSON inside the envelope.
        frame = protocol.encode_frame(
            {"op": "lookup", "t": 7, "id": 1, **extra})
        assert (frame[5] == protocol._T_REQ_JSON) == bool(extra)
        a, b = socket.socketpair()
        try:
            a.sendall(frame[: len(frame) - 3])
            a.close()
            with pytest.raises(protocol.ConnectionClosedMidFrame):
                protocol.recv_frame_blocking(b)
        finally:
            b.close()

    def test_mid_frame_eof_is_retryable_not_protocol(self):
        # The classification the retry loop depends on.
        assert issubclass(protocol.ConnectionClosedMidFrame, ConnectionError)
        assert not issubclass(
            protocol.ConnectionClosedMidFrame, protocol.ProtocolError
        )


# ----------------------------------------------------------------------
# Deadline budget across retries (regression)
# ----------------------------------------------------------------------
class TestDeadlineBudgetRegression:
    def test_retries_restamp_remaining_budget(self):
        seen = []

        def handler(message):
            seen.append(message.get("deadline_ms"))
            return [protocol.encode_frame(protocol.error_reply(
                protocol.ERR_OVERLOADED, "busy", message, retry_after=0.05))]

        with FakeServer(handler) as srv:
            with ServiceClient(
                srv.host, srv.port, timeout=5.0,
                deadline_ms=150.0, retries=20, retry_backoff=0.04,
                retry_backoff_max=0.08, retry_budget=30.0,
                circuit_threshold=1000, jitter_seed=3,
            ) as svc:
                with pytest.raises(ServiceError) as excinfo:
                    svc.lookup(1)
        assert excinfo.value.type == protocol.ERR_OVERLOADED
        # It retried, but each attempt carried only what remained of the
        # 150ms budget -- strictly shrinking, never the full budget again.
        assert len(seen) >= 2
        assert seen[0] <= 150.0
        assert all(later < earlier for earlier, later in zip(seen, seen[1:]))
        assert all(d > 0 for d in seen)
        # The budget, not the retry count, ended the loop: with >=50ms of
        # backoff per retry a 150ms budget cannot fund 20 retries.
        assert len(seen) <= 5


# ----------------------------------------------------------------------
# Pipelining: reply matching under duplication, staleness, reordering
# ----------------------------------------------------------------------
class TestPipelineReplyMatching:
    def test_duplicate_and_stale_replies_discarded(self):
        def handler(message):
            reply = protocol.encode_frame(
                protocol.ok_reply(message["t"] * 2, message))
            stale = protocol.encode_frame(
                protocol.ok_reply(-1, {"id": 999_999_999}))
            return [reply, reply, stale]

        with FakeServer(handler) as srv:
            with ServiceClient(srv.host, srv.port, timeout=5.0) as svc:
                for t in range(5):
                    assert svc.lookup(t) == t * 2

    def test_out_of_order_replies_matched_by_id(self):
        buffered = []

        def handler(message):
            buffered.append(message)
            if len(buffered) < 3:
                return []
            frames = [
                protocol.encode_frame(protocol.ok_reply(m["t"] * 10, m))
                for m in reversed(buffered)
            ]
            buffered.clear()
            return frames

        with FakeServer(handler) as srv:
            with ServiceClient(srv.host, srv.port, timeout=5.0) as svc:
                futures = [svc.submit("lookup", t=t) for t in (1, 2, 3)]
                assert [f.result() for f in futures] == [10, 20, 30]

    @pytest.mark.parametrize("extra", [{}, {"note": "x"}],
                             ids=["binary", "wrapped"])
    def test_deep_pipeline_end_to_end(self, sum_server, extra):
        # "wrapped": a field outside the typed layouts sends every
        # request down the JSON-in-envelope path, server side included.
        handle, _ = sum_server
        rng = random.Random(5)
        facts = []
        with client_for(handle) as svc:
            futures = []
            for _ in range(60):
                s = rng.randint(0, 900)
                e = s + rng.randint(1, 80)
                v = rng.randint(1, 9)
                facts.append((v, (s, e)))
                futures.append(svc.submit(
                    "insert", flush=False, value=v, start=s, end=e,
                    client=svc.client_id, seq=svc.next_seq(), **extra))
            svc.flush()
            assert sum(f.result()["applied"] for f in futures) == 60
            times = list(range(0, 1000, 37))
            lookups = [svc.submit("lookup", flush=False, t=t, **extra)
                       for t in times]
            svc.flush()
            for t, future in zip(times, lookups):
                assert future.result() == reference.instantaneous_value(
                    facts, "sum", t)


# ----------------------------------------------------------------------
# One codec: what is left at the edges where JSON used to be accepted
# ----------------------------------------------------------------------
class TestBinaryOnly:
    def test_json_bodied_frame_gets_one_binary_bad_request_then_eof(
            self, sum_server):
        handle, _ = sum_server
        body = b'{"op":"ping"}'
        with socket.create_connection((handle.host, handle.port),
                                      timeout=5.0) as sock:
            sock.sendall(struct.pack(">I", len(body)) + body)
            header = protocol._recv_exactly(sock, 4)
            raw = protocol._recv_exactly(sock, protocol.decode_length(header))
            assert raw[0] == protocol.BINARY_MAGIC
            reply = protocol.decode_body(raw)
            assert reply["ok"] is False
            assert reply["error"]["type"] == protocol.ERR_BAD_REQUEST
            assert sock.recv(1) == b""  # exactly one reply, then EOF
        with client_for(handle) as svc:
            assert svc.ping()  # the listener is unharmed

    def test_decode_rejects_a_body_without_the_magic(self):
        for body in (b'{"op":"ping"}', b" {}", b"\x00\xb1\x01\x00"):
            with pytest.raises(protocol.ProtocolError):
                protocol.decode_body(body)

    def test_encode_accepts_only_the_binary_codec(self):
        message = {"op": "ping", "id": 1}
        frame = protocol.encode_frame(message, protocol.CODEC_BINARY)
        assert frame == protocol.encode_frame(message)
        assert protocol.decode_body(frame[4:]) == message
        for codec in ("json", "auto", None):
            with pytest.raises(ValueError):
                protocol.encode_frame(message, codec)
            with pytest.raises(ValueError):
                protocol.encode_body(message, codec)

    def test_client_has_no_codec_argument(self):
        with pytest.raises(TypeError):
            ServiceClient("127.0.0.1", 1, codec="json")

    def test_client_fails_a_json_speaking_server(self):
        def handler(message):
            body = json.dumps(protocol.ok_reply("pong", message)).encode()
            return [struct.pack(">I", len(body)) + body]

        with FakeServer(handler) as srv:
            with ServiceClient(srv.host, srv.port, timeout=5.0,
                               retries=0) as svc:
                with pytest.raises(TransportError, match="0xB1 magic"):
                    svc.ping()
