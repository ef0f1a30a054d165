"""Fixed-width wire messages: whole-message layouts against the
field-by-field codec.

A ``lookup`` / ``rangeq`` / ``window`` request and an ok-scalar or
``applied`` reply whose envelope holds only an I64 id are packed with
one ``struct`` call and read with one ``unpack_from``.  The reference is
the codec's own field-by-field primitives (``_encode_envelope``,
``_pack_scalar``, ``_pack_time`` and ``_Reader``): bodies must be
byte-identical and decoded messages equal, a message the layouts do not
cover must encode exactly as the primitives (or the JSON wrap) give it,
and a body a byte short or a byte long of a layout must be refused with
the text the field-by-field path gives.
"""

import json
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import protocol

#: 1 under the default profile (100 examples), 5 under ``ci``.
SCALE = settings.default.max_examples / 100

TIMES = {"lookup": ("t",), "rangeq": ("start", "end"), "window": ("t", "w")}


def reference_body(message):
    """*message* written field by field, or JSON-wrapped when a field
    has no typed form -- what the codec gives without the layouts."""
    try:
        parts = []
        if "op" in message:
            op = message["op"]
            parts.append(
                protocol._HDR.pack(protocol.BINARY_MAGIC, protocol._REQ_TYPE_FOR_OP[op])
            )
            protocol._encode_envelope(message, parts)
            for name in TIMES[op]:
                protocol._pack_time(message[name], parts)
        elif isinstance(message["result"], dict):
            # An applied payload has no primitive: the reply encoder's
            # field-by-field branch is its one writer.
            return protocol._encode_binary_reply(message)
        else:
            parts.append(protocol._HDR.pack(protocol.BINARY_MAGIC, protocol._T_OK_SCALAR))
            protocol._encode_envelope(message, parts)
            protocol._pack_scalar(message["result"], parts)
        return b"".join(parts)
    except protocol._Unpackable:
        wrapped = protocol._T_REQ_JSON if "op" in message else protocol._T_REPLY_JSON
        return protocol._HDR.pack(protocol.BINARY_MAGIC, wrapped) + json.dumps(
            message, separators=(",", ":")
        ).encode("utf-8")


def reference_decode(body):
    """A typed body read field by field with ``_Reader``; the JSON wrap
    takes the codec's own path."""
    mtype = body[1]
    reader = protocol._Reader(body, protocol._HDR.size)
    op = protocol._OP_FOR_REQ_TYPE.get(mtype)
    if op in TIMES:
        message = {"op": op}
        protocol._decode_envelope(reader, message)
        for name in TIMES[op]:
            message[name] = reader.time()
    elif mtype == protocol._T_OK_SCALAR:
        message = {"ok": True}
        protocol._decode_envelope(reader, message)
        message["result"] = reader.scalar()
    elif mtype == protocol._T_OK_APPLIED:
        message = {"ok": True}
        protocol._decode_envelope(reader, message)
        result = {"applied": reader.u32()}
        rflags = reader.u8()
        if rflags & 1:
            result["duplicate"] = True
        if rflags & 2:
            result["evicted"] = True
        message["result"] = result
    else:
        return protocol.decode_body(body)
    reader.expect_end()
    return message


def canonical(x):
    """Exact identity of a decoded value: type, and a float's bits (so
    NaN equals NaN and -0.0 differs from 0.0)."""
    if isinstance(x, float):
        return ("float", struct.pack(">d", x))
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [canonical(item) for item in x])
    if isinstance(x, dict):
        return ("dict", sorted((key, canonical(item)) for key, item in x.items()))
    return (type(x).__name__, x)


def refusal(decode, body):
    try:
        decode(body)
    except protocol.ProtocolError as exc:
        return str(exc)
    return None


I64_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 1]
i64s = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1), st.sampled_from(I64_EDGES)
)
f64s = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 2.5]),
)
times = st.one_of(st.integers(min_value=-(2**62), max_value=2**62), f64s)

requests = st.sampled_from(sorted(TIMES)).flatmap(
    lambda op: st.tuples(i64s, st.tuples(*[times] * len(TIMES[op]))).map(
        lambda drawn: {"op": op, "id": drawn[0], **dict(zip(TIMES[op], drawn[1]))}
    )
)
scalar_replies = st.builds(
    lambda ident, value: {"ok": True, "result": value, "id": ident},
    i64s,
    st.one_of(i64s, f64s),
)
applied_replies = st.builds(
    lambda ident, applied, flags: {
        "ok": True,
        "result": {"applied": applied, **{name: True for name in flags}},
        "id": ident,
    },
    i64s,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([(), ("duplicate",), ("evicted",), ("duplicate", "evicted")]),
)
fixed_messages = st.one_of(requests, scalar_replies, applied_replies)


@given(fixed_messages)
@settings(max_examples=int(300 * SCALE), deadline=None)
def test_a_layout_writes_and_reads_what_the_primitives_do(message):
    body = protocol.encode_body(message)
    assert protocol._encode_fixed(message) == body  # one pack
    assert body == reference_body(message)
    decoded = protocol.decode_body(body)
    assert protocol._decode_fixed(body, 0, len(body)) is not None  # one unpack
    assert canonical(decoded) == canonical(reference_decode(body))
    frames, error = protocol.take_frames(bytearray(protocol.encode_frame(message) * 3))
    assert error is None
    assert [canonical(m) for m, _ in frames] == [canonical(decoded)] * 3


def _off_layout(message, field, value):
    changed = dict(message)
    if field == "result" and isinstance(message["result"], dict):
        changed["result"] = {**message["result"], "applied": value}
    else:
        changed[field] = value
    return changed


#: Values no layout takes: a bool, an int beyond i64, a string.  (A
#: time is an f64 on the wire, so an int time of any size has a layout.)
off_values = [True, False, 2**63, -(2**63) - 1, 2**70, "req-1", ""]


@given(fixed_messages, st.data())
@settings(max_examples=int(200 * SCALE), deadline=None)
def test_a_bool_a_wide_int_or_a_string_takes_no_layout(message, data):
    fields = ["id"] + (
        list(TIMES[message["op"]]) if "op" in message else ["result"]
    )
    field = data.draw(st.sampled_from(fields))
    value = data.draw(st.sampled_from([
        value for value in off_values
        if field in ("id", "result") or not isinstance(value, int)
        or isinstance(value, bool)
    ]))
    changed = _off_layout(message, field, value)
    assert protocol._encode_fixed(changed) is None
    body = protocol.encode_body(changed)
    assert body == reference_body(changed)
    assert canonical(protocol.decode_body(body)) == canonical(reference_decode(body))


@pytest.mark.parametrize(
    "message",
    [
        {"op": "lookup", "t": 5},  # no id
        {"op": "lookup", "id": 1, "t": 5, "deadline_ms": 20},  # more envelope
        {"op": "lookup", "id": 1, "t": 5, "extra": 1},  # an extra field
        {"op": "rangeq", "id": 1, "start": 5},  # a missing field
        {"ok": True, "result": None, "id": 1},  # a NULL value
        {"ok": True, "result": 5, "id": 1, "watermark": 3, "staleness_s": 0.5},
        {"ok": True, "result": {"applied": 1, "duplicate": False}, "id": 1},
        {"ok": True, "result": {"applied": 1, "other": True}, "id": 1},
        {"ok": True, "result": {"applied": -1}, "id": 1},
        {"ok": True, "result": {"applied": 2**32}, "id": 1},
    ],
)
def test_other_shapes_take_the_field_by_field_path(message):
    assert protocol._encode_fixed(message) is None
    body = protocol.encode_body(message)
    assert protocol._decode_fixed(body, 0, len(body)) is None
    assert canonical(protocol.decode_body(body)) == canonical(message)


@given(fixed_messages)
@settings(max_examples=int(150 * SCALE), deadline=None)
def test_a_body_off_a_layout_by_one_byte_is_refused_as_before(message):
    body = protocol.encode_body(message)
    for cut in range(len(body)):
        text = refusal(protocol.decode_body, body[:cut])
        assert text is not None
        assert text == refusal(protocol._decode_binary, body[:cut])
        assert text == (
            "frame body does not start with the 0xB1 magic" if cut == 0
            else "binary frame shorter than its header" if cut == 1
            else "truncated binary frame"
        )
    for extra in range(256):
        longer = body + bytes((extra,))
        assert refusal(protocol.decode_body, longer) == "1 trailing bytes in binary frame"
        assert refusal(protocol._decode_binary, longer) == "1 trailing bytes in binary frame"


def test_unknown_applied_flags_are_refused_as_before():
    body = bytearray(protocol.encode_body({"ok": True, "result": {"applied": 1}, "id": 1}))
    body[-1] = 4
    with pytest.raises(protocol.ProtocolError, match="unknown applied flags 0x04"):
        protocol.decode_body(bytes(body))


GOLDEN = [
    ({"op": "lookup", "t": 19, "id": 1},
     "b10408010000000000000001" + "4033000000000000"),
    ({"op": "rangeq", "start": 14, "end": 28.5, "id": -1},
     "b1050801ffffffffffffffff402c000000000000403c800000000000"),
    ({"ok": True, "result": 42, "id": 2**63 - 1},
     "b12108017fffffffffffffff01000000000000002a"),
    ({"ok": True, "result": -0.0, "id": 3},
     "b1210801000000000000000302" + "8000000000000000"),
    ({"ok": True, "result": {"applied": 2, "duplicate": True}, "id": 4},
     "b12308010000000000000004" + "0000000201"),
]


@pytest.mark.parametrize("message,hex_body", GOLDEN)
def test_golden_layout_bodies(message, hex_body):
    body = protocol.encode_body(message)
    assert body.hex() == hex_body
    assert canonical(protocol.decode_body(body)) == canonical(message)
