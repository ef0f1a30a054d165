"""Property tests for the node model and page codec."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.nodes import Node
from repro.core.values import spec_for
from repro.storage import NodeCodec, NodeEncodingError

#: 1 under the default profile (100 examples), 5 under ``ci``.
SCALE = settings.default.max_examples / 100

INT64 = (-(2**63), 2**63 - 1)
finite_times = st.integers(*INT64)
floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
numbers = st.one_of(st.integers(*INT64), floats)
#: What the all-double layout stores exactly: ints up to 2**53.
double_exact = st.one_of(st.integers(-(2**53), 2**53), floats)


def as_stored(items):
    """*items* as the typed rule keeps them: an all-int section exactly;
    in any other section an int is the double it rounds to."""
    flat = [x for item in items for x in (item if isinstance(item, tuple) else (item,))]
    if all(isinstance(x, int) for x in flat):
        return list(items)

    def rounded(x):
        return float(x) if isinstance(x, int) else x

    return [
        tuple(map(rounded, item)) if isinstance(item, tuple) else rounded(item)
        for item in items
    ]


class TestNodeModel:
    def test_find_uses_half_open_semantics(self):
        node = Node(1, True, times=[10, 20, 30], values=[0, 1, 2, 3])
        assert node.find(9) == 0
        assert node.find(10) == 1
        assert node.find(19) == 1
        assert node.find(20) == 2
        assert node.find(30) == 3
        assert node.find(1_000) == 3

    @given(times=st.lists(finite_times, unique=True, min_size=1, max_size=30))
    def test_find_is_consistent_with_bounds(self, times):
        times = sorted(times)
        node = Node(1, True, times=list(times), values=[0] * (len(times) + 1))
        lo, hi = -math.inf, math.inf
        for probe in times + [t + 1 for t in times] + [times[0] - 5]:
            i = node.find(probe)
            start, end = node.bounds(i, lo, hi)
            assert start <= probe < end

    def test_bounds_edges_inherit_span(self):
        node = Node(1, True, times=[10], values=[0, 1])
        assert node.bounds(0, -50, 99) == (-50, 10)
        assert node.bounds(1, -50, 99) == (10, 99)

    def test_interval_count(self):
        node = Node(1, True, times=[1, 2], values=[0, 0, 0])
        assert node.interval_count == 3

    def test_clone_shell_keeps_shape_flags(self):
        interior = Node(1, False, uvalues=[1])
        clone = interior.clone_shell(9)
        assert clone.node_id == 9
        assert not clone.is_leaf
        assert clone.uvalues == []
        leaf = Node(2, True)
        assert leaf.clone_shell(3).uvalues is None


@st.composite
def leaf_nodes(draw, value_strategy, allow_null=False):
    times = sorted(draw(st.lists(finite_times, unique=True, max_size=20)))
    count = len(times) + 1
    values = []
    for _ in range(count):
        if allow_null and draw(st.booleans()):
            values.append(None)
        else:
            values.append(draw(value_strategy))
    return Node(7, True, times=times, values=values)


class TestCodecProperties:
    @pytest.mark.parametrize("kind", ["sum", "count"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_numeric_leaf_roundtrip(self, kind, data):
        node = data.draw(leaf_nodes(numbers))
        codec = NodeCodec(spec_for(kind), payload_size=4092)
        decoded = codec.decode(codec.encode(node), 7)
        assert decoded.times == node.times
        assert decoded.values == as_stored(node.values)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_minmax_leaf_roundtrip_with_nulls(self, data):
        node = data.draw(leaf_nodes(numbers, allow_null=True))
        codec = NodeCodec(spec_for("max"), payload_size=4092)
        decoded = codec.decode(codec.encode(node), 7)
        assert decoded.values == as_stored(node.values)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_avg_pair_roundtrip(self, data):
        pairs = st.tuples(numbers, st.integers(min_value=-(2**30), max_value=2**30))
        node = data.draw(leaf_nodes(pairs))
        codec = NodeCodec(spec_for("avg"), payload_size=8188)
        decoded = codec.decode(codec.encode(node), 7)
        assert decoded.values == as_stored(node.values)

    @given(
        children=st.lists(
            st.integers(min_value=1, max_value=2**40), min_size=1, max_size=20
        ),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_interior_roundtrip(self, children, seed):
        count = len(children)
        node = Node(
            3,
            False,
            times=list(range(count - 1)),
            values=[seed + i for i in range(count)],
            children=children,
            uvalues=[seed - i for i in range(count)],
        )
        codec = NodeCodec(spec_for("max"), payload_size=4092)
        decoded = codec.decode(codec.encode(node), 3)
        assert decoded.children == children
        assert decoded.uvalues == node.uvalues
        assert decoded.times == node.times

    def test_whole_floats_restore_to_int(self):
        codec = NodeCodec(spec_for("sum"), payload_size=4092)
        node = Node(1, True, times=[2.0], values=[3.0, 4.5])
        decoded = codec.decode(codec.encode(node), 1)
        assert decoded.times == [2]
        assert isinstance(decoded.times[0], int)
        assert decoded.values == [3, 4.5]
        assert isinstance(decoded.values[0], int)
        assert isinstance(decoded.values[1], float)


# ----------------------------------------------------------------------
# Golden reference: the typed page layout, one field at a time
# ----------------------------------------------------------------------
_REF_HEADER = struct.Struct("<BBH")
_REF_F64 = struct.Struct("<d")
_REF_I64 = struct.Struct("<q")
_REF_INT_BITS = {"times": 4, "values": 8, "uvalues": 16}


def _ref_restore_int(x):
    if x == int(x):
        return int(x)
    return x


def _ref_members(avg, item):
    return list(item) if avg else [item]


def _ref_all_int64(avg, items):
    """The typed rule: every member an int in int64 range."""
    return all(
        isinstance(x, int) and INT64[0] <= x <= INT64[1]
        for item in items
        for x in _ref_members(avg, item)
    )


def _ref_encode_item(avg, as_int, item):
    if as_int:
        return b"".join(_REF_I64.pack(x) for x in _ref_members(avg, item))
    if item is None:
        return _REF_F64.pack(math.nan)
    return b"".join(_REF_F64.pack(float(x)) for x in _ref_members(avg, item))


def _ref_decode_item(avg, as_int, raw, offset):
    members = []
    for _ in range(2 if avg else 1):
        if as_int:
            (x,) = _REF_I64.unpack_from(raw, offset)
        else:
            (x,) = _REF_F64.unpack_from(raw, offset)
            x = None if math.isnan(x) else _ref_restore_int(x)
        members.append(x)
        offset += 8
    return (tuple(members) if avg else members[0]), offset


def reference_encode(kind, node, typed=True):
    """One ``struct`` call per field.  ``typed=False`` writes every
    section as doubles with its type bit clear: the layout of a page
    written before the type bits existed."""
    avg = kind == "avg"
    sections = [("times", False, node.times), ("values", avg, node.values)]
    if node.uvalues is not None:
        sections.append(("uvalues", avg, node.uvalues))
    flags = (1 if node.is_leaf else 0) | (2 if node.uvalues is not None else 0)
    body = {}
    for name, pairs, items in sections:
        as_int = typed and _ref_all_int64(pairs, items)
        flags |= _REF_INT_BITS[name] if as_int else 0
        body[name] = b"".join(_ref_encode_item(pairs, as_int, x) for x in items)
    parts = [_REF_HEADER.pack(flags, 0, node.interval_count)]
    parts += [body["times"], body["values"]]
    if not node.is_leaf:
        parts += [_REF_I64.pack(c) for c in node.children]
    if node.uvalues is not None:
        parts.append(body["uvalues"])
    return b"".join(parts)


def reference_decode(kind, payload, node_id):
    avg = kind == "avg"
    flags, _, j = _REF_HEADER.unpack_from(payload, 0)
    is_leaf, has_u = bool(flags & 1), bool(flags & 2)
    offset = _REF_HEADER.size

    def section(name, pairs, count):
        nonlocal offset
        items = []
        for _ in range(count):
            item, offset = _ref_decode_item(
                pairs, flags & _REF_INT_BITS[name], payload, offset
            )
            items.append(item)
        return items

    times = section("times", False, max(0, j - 1))
    values = section("values", avg, j)
    children = []
    if not is_leaf:
        for _ in range(j):
            (c,) = _REF_I64.unpack_from(payload, offset)
            children.append(c)
            offset += 8
    uvalues = section("uvalues", avg, j) if has_u else None
    return Node(node_id, is_leaf, times, values, children, uvalues)


def _typed(items):
    """Values with their exact types; AVG pairs member by member."""
    if items is None:
        return None
    return [
        tuple((type(x), x) for x in item) if isinstance(item, tuple)
        else (type(item), item)
        for item in items
    ]


GOLDEN_PAYLOAD = 508  # a 512-byte page: capacities small enough to fill


@st.composite
def golden_nodes(draw, kind, fewest=0, numbers=numbers):
    codec = NodeCodec(spec_for(kind), payload_size=GOLDEN_PAYLOAD)
    shape = draw(st.sampled_from(["leaf", "interior", "annotated"]))
    if shape == "leaf":
        full = codec.max_leaf_capacity() + codec._OVERFLOW_SLACK
    else:
        full = codec.max_branching(shape == "annotated") + codec._OVERFLOW_SLACK
    j = draw(st.sampled_from([fewest, 1, full]) | st.integers(fewest, full))
    scalar = numbers
    if kind in ("min", "max"):
        scalar = st.none() | numbers  # NULL travels as NaN
    value = st.tuples(numbers, numbers) if kind == "avg" else scalar
    exactly = dict(min_size=j, max_size=j)
    times = sorted(
        draw(st.lists(numbers, unique=True, min_size=max(0, j - 1), max_size=max(0, j - 1)))
    )
    return Node(
        node_id=9,
        is_leaf=shape == "leaf",
        times=times,
        values=draw(st.lists(value, **exactly)),
        children=[] if shape == "leaf" else draw(
            st.lists(st.integers(-(2**62), 2**62), **exactly)),
        uvalues=draw(st.lists(value, **exactly)) if shape == "annotated" else None,
    )


class TestCodecGolden:
    @pytest.mark.parametrize("kind", ["sum", "count", "avg", "min", "max"])
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_bytes_and_types_match_the_field_by_field_codec(self, kind, data):
        node = data.draw(golden_nodes(kind))
        codec = NodeCodec(spec_for(kind), payload_size=GOLDEN_PAYLOAD)
        payload = codec.encode(node)
        assert payload == reference_encode(kind, node)
        # As the pager hands it back: zero-padded to the page payload.
        page = payload.ljust(GOLDEN_PAYLOAD, b"\x00")
        for raw in (payload, page):
            got = codec.decode(raw, 9)
            want = reference_decode(kind, raw, 9)
            assert got == want
            assert (got.is_leaf, got.node_id) == (node.is_leaf, 9)
            for field in ("times", "values", "children", "uvalues"):
                assert _typed(getattr(got, field)) == _typed(getattr(want, field))

    @pytest.mark.parametrize("kind", ["sum", "count", "avg", "min", "max"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_page_in_the_all_double_layout_decodes_to_the_typed_node(
        self, kind, data
    ):
        # Pages written before the type bits: every section a double.
        node = data.draw(golden_nodes(kind, numbers=double_exact))
        codec = NodeCodec(spec_for(kind), payload_size=GOLDEN_PAYLOAD)
        legacy = reference_encode(kind, node, typed=False)
        assert legacy[0] & ~3 == 0  # no type bit set
        got = codec.decode(legacy.ljust(GOLDEN_PAYLOAD, b"\x00"), 9)
        want = codec.decode(codec.encode(node), 9)
        assert got == want == reference_decode(kind, legacy, 9)
        for field in ("times", "values", "children", "uvalues"):
            assert _typed(getattr(got, field)) == _typed(getattr(want, field))

    def test_a_page_written_before_the_type_bits_reads_as_it_did(self):
        # A MAX leaf as the all-double codec wrote it: times [10, 20.5],
        # values [NULL, 3, -1.5].
        legacy = bytes.fromhex(
            "0100030000000000000024400000000000803440"
            "000000000000f87f0000000000000840000000000000f8bf"
        )
        got = NodeCodec(spec_for("max"), payload_size=GOLDEN_PAYLOAD).decode(legacy, 9)
        assert _typed(got.times) == [(int, 10), (float, 20.5)]
        assert _typed(got.values) == [(type(None), None), (int, 3), (float, -1.5)]

    @pytest.mark.parametrize("kind", ["sum", "avg", "max"])
    def test_ints_past_2_to_53_are_exact_in_an_int_section(self, kind):
        codec = NodeCodec(spec_for(kind), payload_size=GOLDEN_PAYLOAD)
        big = [2**53 + 1, 2**60 + 1, 2**63 - 1]
        values = [(x, 1) for x in [-(2**63)] + big] if kind == "avg" else [-(2**63)] + big
        node = Node(9, True, times=big, values=values)
        payload = codec.encode(node)
        assert payload[0] == 1 | 4 | 8
        decoded = codec.decode(payload, 9)
        assert decoded == node
        assert codec.probe(payload, 9, 2**60 + 1) == (values[2], None)
        # A float beside the ints makes the section doubles: rounded.
        node.values[-1] = (0.5, 1) if kind == "avg" else 0.5
        payload = codec.encode(node)
        assert payload[0] == 1 | 4
        assert codec.decode(payload, 9).values[2] in (2**60, (2**60, 1))


# ----------------------------------------------------------------------
# probe: one lookup step off the page bytes, against decode + find
# ----------------------------------------------------------------------
KINDS = ["sum", "count", "avg", "min", "max"]


def instants(times):
    """Every stored time, a point between each neighbouring pair and
    beyond either end, and both infinities."""
    points = list(times) + [-math.inf, math.inf]
    points += [(a + b) / 2 for a, b in zip(times, times[1:])]
    if times:
        points += [times[0] - 1, times[-1] + 1]
    return points


class TestCodecProbe:
    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=max(1, int(60 * SCALE)), deadline=None)
    def test_probe_reads_the_slot_decode_then_find_reads(self, kind, data):
        node = data.draw(golden_nodes(kind, fewest=1))
        codec = NodeCodec(spec_for(kind), payload_size=GOLDEN_PAYLOAD)
        payload = codec.encode(node)
        for raw in (payload, payload.ljust(GOLDEN_PAYLOAD, b"\x00")):
            decoded = codec.decode(raw, 9)
            for t in instants(decoded.times):
                i = decoded.find(t)
                value, child = codec.probe(raw, 9, t)
                assert _typed([value]) == _typed([decoded.values[i]])
                if decoded.is_leaf:
                    assert child is None
                else:
                    assert type(child) is int and child == decoded.children[i]

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=max(1, int(15 * SCALE)), deadline=None)
    def test_a_truncated_payload_raises_what_decode_raises(self, kind, data):
        node = data.draw(golden_nodes(kind, fewest=1))
        codec = NodeCodec(spec_for(kind), payload_size=GOLDEN_PAYLOAD)
        payload = codec.encode(node)
        for cut in range(len(payload)):
            with pytest.raises(NodeEncodingError) as decoded:
                codec.decode(payload[:cut], 9)
            with pytest.raises(NodeEncodingError) as probed:
                codec.probe(payload[:cut], 9, 0)
            assert str(probed.value) == str(decoded.value)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_page_without_intervals_does_not_probe(self, kind):
        codec = NodeCodec(spec_for(kind), payload_size=GOLDEN_PAYLOAD)
        empty_pages = [bytes(GOLDEN_PAYLOAD)]  # a page allocated, never written
        for is_leaf, uvalues in ((True, None), (False, None), (False, [])):
            empty_pages.append(codec.encode(Node(5, is_leaf, uvalues=uvalues)))
        for raw in empty_pages:
            assert codec.decode(raw, 5).interval_count == 0
            with pytest.raises(NodeEncodingError, match="page 5"):
                codec.probe(raw, 5, 0)
