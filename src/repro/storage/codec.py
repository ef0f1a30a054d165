"""Node (de)serialization: SB-tree / MSB-tree nodes on fixed-size pages.

Page payload layout::

    u8   flags        bit 0: leaf, bit 1: carries u-values,
                      bits 2-4: times / values / u-values are int64
    u8   reserved
    u16  interval count j
    num  times[j-1]
    num  values[j]     (8 bytes; 16 for AVG's (sum, count) pair)
    i64  children[j]   (interior nodes only)
    num  uvalues[j]    (annotated interior nodes only)

Each ``num`` section is packed in one ``struct`` call, by a type chosen
per section at encode time: a section whose items are all ints in int64
range (for AVG, both members of every pair) is stored as ``<nq`` and
gets its type bit, so it decodes exactly and in one C call.  Any other
section is stored as ``<nd`` with the bit clear: IEEE doubles, MIN/MAX
``NULL`` as NaN, and whole numbers restored to ``int`` on read for
clean equality with in-memory trees.  So an int is exact unless it
shares a double section with a float or a ``NULL`` and lies past
2**53, or lies outside int64; those are rounded to a double.  A page
written before the type bits existed has them clear and reads as it
always did; a flag bit the codec does not know is refused
(:class:`NodeEncodingError`), not guessed at.

``probe`` reads one lookup step -- the value and child of the interval
holding an instant -- straight off a payload, without decoding the
node; ``decode`` and ``probe`` share one header reader and one check of
the declared flags and sections against the payload length.

The codec also derives the maximum branching factor ``b`` and leaf
capacity ``l`` that fit a page -- the quantities the paper sizes its
trees by.
"""

from __future__ import annotations

import bisect
import math
import struct
from itertools import chain
from typing import Any, List, Optional, Sequence, Tuple

from ..core.nodes import Node, NodeId
from ..core.values import AggregateKind, AggregateSpec, spec_for

__all__ = ["NodeCodec", "NodeEncodingError"]

_HEADER = struct.Struct("<BBH")

_FLAG_LEAF = 1
_FLAG_HAS_U = 2
#: One type bit per numeric section: set when it is packed as int64.
_FLAG_INT_TIMES = 4
_FLAG_INT_VALUES = 8
_FLAG_INT_UVALUES = 16
_FLAGS_KNOWN = 31


class _ArrayFormats(dict):
    """``formats[n]`` packs or unpacks *n* little-endian items in one call.

    One compiled :class:`struct.Struct` per count, built on first use; a
    count is bounded by the u16 interval field, so the table is too.
    """

    def __init__(self, code: str) -> None:
        super().__init__()
        self._code = code

    def __missing__(self, count: int) -> struct.Struct:
        fmt = self[count] = struct.Struct("<%d%s" % (count, self._code))
        return fmt


_F64S = _ArrayFormats("d")
_I64S = _ArrayFormats("q")


class NodeEncodingError(RuntimeError):
    """Raised when a node cannot be encoded into (or decoded from) a page."""


#: What a numeric section holds, passed to :func:`_pack` / :func:`_unpack`:
#: times, scalar values (MIN/MAX ``NULL`` travels as NaN in a double
#: section), or AVG's (sum, count) pairs.
_TIMES, _SCALARS, _PAIRS = range(3)


def _pack(items: Sequence[Any], shape: int, flag: int) -> Tuple[bytes, int]:
    """One numeric section and its type bit: ``(bytes, flag)`` as int64
    when every item packs as one, ``(bytes, 0)`` as doubles otherwise."""
    flat = list(chain.from_iterable(items)) if shape == _PAIRS else items
    try:
        return _I64S[len(flat)].pack(*flat), flag
    except struct.error:
        pass
    if shape == _SCALARS:
        flat = [math.nan if v is None else v for v in flat]
    return _F64S[len(flat)].pack(*flat), 0


def _unpack(
    payload: bytes, offset: int, count: int, shape: int, as_int: int
) -> List[Any]:
    """*count* items of a numeric section, read by its type bit."""
    n = 2 * count if shape == _PAIRS else count
    if as_int:
        flat: Sequence[Any] = _I64S[n].unpack_from(payload, offset)
    elif shape == _SCALARS:
        flat = [
            None if x != x else int(x) if x.is_integer() else x  # NaN is NULL
            for x in _F64S[n].unpack_from(payload, offset)
        ]
    else:
        flat = [
            int(x) if x.is_integer() else x
            for x in _F64S[n].unpack_from(payload, offset)
        ]
    return list(zip(flat[0::2], flat[1::2])) if shape == _PAIRS else list(flat)


class NodeCodec:
    """Per-aggregate-kind node serializer with derived page capacities."""

    def __init__(self, spec: AggregateSpec, payload_size: int) -> None:
        self.spec = spec_for(spec)
        self.payload_size = payload_size
        pairs = self.spec.kind is AggregateKind.AVG
        self._shape = _PAIRS if pairs else _SCALARS
        self._value_width = 16 if pairs else 8

    # ------------------------------------------------------------------
    # Capacity derivation (how many intervals fit on a page)
    # ------------------------------------------------------------------
    #: An insertion may leave a node two intervals over capacity for the
    #: instant before it is split (Section 3.5); since writes serialize
    #: immediately, the derived capacities reserve room for that.
    _OVERFLOW_SLACK = 2

    def max_leaf_capacity(self) -> int:
        """Largest safe l: header + (l+1) times + (l+2) values fit a page."""
        usable = self.payload_size - _HEADER.size + 8  # +8: only l-1 times
        return usable // (8 + self._value_width) - self._OVERFLOW_SLACK

    def max_branching(self, with_uvalues: bool) -> int:
        """Largest safe b for an interior node (optionally u-annotated)."""
        per_interval = 8 + self._value_width + 8  # time + value + child
        if with_uvalues:
            per_interval += self._value_width
        usable = self.payload_size - _HEADER.size + 8
        return usable // per_interval - self._OVERFLOW_SLACK

    # ------------------------------------------------------------------
    # Node encoding
    # ------------------------------------------------------------------
    def encode(self, node: Node) -> bytes:
        flags = (_FLAG_LEAF if node.is_leaf else 0) | (
            _FLAG_HAS_U if node.uvalues is not None else 0
        )
        j = node.interval_count
        if j > 0xFFFF:
            raise NodeEncodingError("too many intervals for the u16 count field")
        try:
            times, int_times = _pack(node.times, _TIMES, _FLAG_INT_TIMES)
            values, int_values = _pack(node.values, self._shape, _FLAG_INT_VALUES)
            parts: List[bytes] = [b"", times, values]  # header: once flags are known
            flags |= int_times | int_values
            if not node.is_leaf:
                parts.append(_I64S[len(node.children)].pack(*node.children))
            if node.uvalues is not None:
                uvalues, int_u = _pack(node.uvalues, self._shape, _FLAG_INT_UVALUES)
                parts.append(uvalues)
                flags |= int_u
        except struct.error as exc:
            raise NodeEncodingError(
                f"node {node.node_id} holds a field that is not a number: {exc}"
            ) from exc
        parts[0] = _HEADER.pack(flags, 0, j)
        payload = b"".join(parts)
        if len(payload) > self.payload_size:
            raise NodeEncodingError(
                f"node with {j} intervals needs {len(payload)} bytes, page "
                f"payload is {self.payload_size}"
            )
        return payload

    def _layout(self, payload: bytes, node_id: NodeId) -> Tuple[int, int]:
        """Read a payload's header, refuse flag bits this codec does not
        know, and check the sections it declares fit the payload:
        ``(j, flags)``.  The one check both readers (:meth:`decode`,
        :meth:`probe`) rely on."""
        if len(payload) < _HEADER.size:
            raise NodeEncodingError(
                f"page {node_id}: {len(payload)}-byte payload has no node header"
            )
        flags, _, j = _HEADER.unpack_from(payload, 0)
        if flags & ~_FLAGS_KNOWN:
            raise NodeEncodingError(
                f"page {node_id} has flags {flags:#04x}: bits "
                f"{flags & ~_FLAGS_KNOWN:#04x} are not a node format this "
                "codec knows"
            )
        per_interval = self._value_width * (2 if flags & _FLAG_HAS_U else 1)
        if not flags & _FLAG_LEAF:
            per_interval += 8
        needed = _HEADER.size + 8 * max(0, j - 1) + per_interval * j
        if needed > len(payload):
            raise NodeEncodingError(
                f"page {node_id} declares {j} intervals (flags {flags:#04x}): "
                f"{needed} bytes, but the payload has {len(payload)}"
            )
        return j, flags

    def decode(self, payload: bytes, node_id: NodeId) -> Node:
        j, flags = self._layout(payload, node_id)
        is_leaf = bool(flags & _FLAG_LEAF)
        shape = self._shape
        time_count = max(0, j - 1)
        offset = _HEADER.size
        times = _unpack(payload, offset, time_count, _TIMES, flags & _FLAG_INT_TIMES)
        offset += 8 * time_count
        values = _unpack(payload, offset, j, shape, flags & _FLAG_INT_VALUES)
        offset += self._value_width * j
        children: List[NodeId] = []
        if not is_leaf:
            children = list(_I64S[j].unpack_from(payload, offset))
            offset += 8 * j
        uvalues = None
        if flags & _FLAG_HAS_U:
            uvalues = _unpack(payload, offset, j, shape, flags & _FLAG_INT_UVALUES)
        return Node(
            node_id=node_id,
            is_leaf=is_leaf,
            times=times,
            values=values,
            children=children,
            uvalues=uvalues,
        )

    def probe(
        self, payload: bytes, node_id: NodeId, t: Any
    ) -> Tuple[Any, Optional[NodeId]]:
        """One lookup step on a payload, without decoding the node:
        ``(values[i], children[i])`` for the interval ``i`` holding *t*
        (``children[i]`` is ``None`` on a leaf) -- what
        ``decode(payload, node_id)`` followed by ``find(t)`` reads, with
        the value restored exactly as :meth:`decode` restores it.

        Only the times section is unpacked, by its type bit and without
        the int restore (comparing an int with a float is exact, so the
        bisection lands where ``find`` does on the restored ints), then
        the one value -- through :meth:`decode`'s section reader -- and
        the one child.
        """
        j, flags = self._layout(payload, node_id)
        if j == 0:
            raise NodeEncodingError(f"page {node_id} holds no interval to probe")
        time_count = j - 1
        times = _I64S if flags & _FLAG_INT_TIMES else _F64S
        i = bisect.bisect_right(
            times[time_count].unpack_from(payload, _HEADER.size), t
        )
        values_at = _HEADER.size + 8 * time_count
        width = self._value_width
        (value,) = _unpack(
            payload, values_at + width * i, 1, self._shape, flags & _FLAG_INT_VALUES
        )
        if flags & _FLAG_LEAF:
            return value, None
        (child,) = _I64S[1].unpack_from(payload, values_at + width * j + 8 * i)
        return value, child
