"""The ``rows`` reply on the wire: fused rows against the per-field codec.

A row whose value is an i64 int or a float, between int or float times,
is packed with one ``struct`` call (``>Bqdd`` / ``>Bddd``) and decoded
with one ``unpack_from``; every other row takes the per-field path.  The
reference here is that per-field encoder and decoder as they were before
rows were fused, kept in this file: bodies must be byte-identical and
decoded messages equal for any mix of rows, and every strict prefix of a
body must be refused with a ``ProtocolError``.
"""

import json
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import protocol

#: 1 under the default profile (100 examples), 5 under ``ci``.
SCALE = settings.default.max_examples / 100


def _restore(x):
    if math.isfinite(x) and x == int(x):
        return int(x)
    return x


def reference_body(message):
    """A ``rows`` reply encoded field by field, or JSON-wrapped when a
    field has no typed layout -- the encoder before rows were fused."""
    try:
        parts = [protocol._HDR.pack(protocol.BINARY_MAGIC, protocol._T_OK_ROWS)]
        protocol._encode_envelope(message, parts)
        rows = message["result"]
        parts.append(protocol._U32.pack(len(rows)))
        for value, start, end in rows:
            protocol._pack_scalar(value, parts)
            protocol._pack_time(start, parts)
            protocol._pack_time(end, parts)
        return b"".join(parts)
    except protocol._Unpackable:
        return protocol._HDR.pack(
            protocol.BINARY_MAGIC, protocol._T_REPLY_JSON
        ) + json.dumps(message, separators=(",", ":")).encode("utf-8")


def reference_decode(body):
    """A ``rows`` body decoded field by field (JSON-wrapped bodies take
    the codec's own path, which did not change)."""
    if body[1] != protocol._T_OK_ROWS:
        return protocol.decode_body(body)
    reader = protocol._Reader(body, protocol._HDR.size)
    message = {"ok": True}
    protocol._decode_envelope(reader, message)
    rows = []
    for _ in range(reader.u32()):
        value = reader.scalar()
        rows.append([value, _restore(reader.f64()), _restore(reader.f64())])
    message["result"] = rows
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


def outcome(encode, message):
    try:
        return encode(message)
    except Exception as exc:  # the same refusal on both sides
        return type(exc)


I64_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 2**63 - 1]
scalars = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from(I64_EDGES + [2**63, -(2**63) - 1, 2**70]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
    st.none(),
    st.booleans(),
    st.text(max_size=8),
    st.tuples(st.integers(-9, 9), st.integers(0, 9)),
)
row_times = st.one_of(
    st.integers(min_value=-(2**60), max_value=2**60),
    st.floats(allow_nan=False),
    st.sampled_from([math.inf, -math.inf, -0.0, 2.5, 10**400]),
    st.booleans(),
)
rows = st.lists(
    st.tuples(scalars, row_times, row_times).flatmap(
        lambda row: st.sampled_from([list(row), row])
    ),
    max_size=12,
)
messages = st.builds(
    lambda result, ident: {"ok": True, "result": result, **ident},
    rows,
    st.sampled_from([{}, {"id": 7}, {"id": "req-1"}]),
)


@given(messages)
@settings(max_examples=int(150 * SCALE), deadline=None)
def test_rows_bodies_match_the_per_field_codec(message):
    body = outcome(protocol.encode_body, message)
    assert canonical(body) == canonical(outcome(reference_body, message))
    if isinstance(body, bytes):
        assert canonical(protocol.decode_body(body)) == canonical(reference_decode(body))


@given(messages)
@settings(max_examples=int(60 * SCALE), deadline=None)
def test_every_strict_prefix_of_a_rows_body_is_refused(message):
    try:
        body = protocol.encode_body(message)
    except OverflowError:
        return  # a time beyond a double: refused before any byte is written
    for cut in range(len(body)):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(body[:cut])


GOLDEN = [
    ([[5, 10, 20]], "b122000000000101000000000000000540240000000000004034000000000000"),
    ([[2.5, 30, 40.5]], "b1220000000001024004000000000000403e0000000000004044400000000000"),
    ([[None, -math.inf, 0]], "b122000000000100fff00000000000000000000000000000"),
    ([[-(2**63), 1, math.inf]], "b12200000000010180000000000000003ff00000000000007ff0000000000000"),
]


@pytest.mark.parametrize("result,hex_body", GOLDEN)
def test_golden_rows_bodies(result, hex_body):
    body = protocol.encode_body({"ok": True, "result": result})
    assert body.hex() == hex_body
    assert protocol.decode_body(body) == {"ok": True, "result": result}
