"""Node (de)serialization: SB-tree / MSB-tree nodes on fixed-size pages.

Page payload layout::

    u8   flags        bit 0: leaf, bit 1: carries u-values
    u8   reserved
    u16  interval count j
    f64  times[j-1]
    val  values[j]     (8 bytes; 16 for AVG's (sum, count) pair)
    i64  children[j]   (interior nodes only)
    val  uvalues[j]    (annotated interior nodes only)

Times and numeric values are IEEE doubles (integers up to 2**53 are
exact; decoded whole numbers are restored to ``int`` for clean equality
with in-memory trees).  MIN/MAX ``NULL`` is encoded as NaN.

The codec also derives the maximum branching factor ``b`` and leaf
capacity ``l`` that fit a page -- the quantities the paper sizes its
trees by.
"""

from __future__ import annotations

import math
import struct
from typing import Any, List, Sequence

from ..core.nodes import Node, NodeId
from ..core.values import AggregateKind, AggregateSpec, spec_for

__all__ = ["NodeCodec", "NodeEncodingError"]

_HEADER = struct.Struct("<BBH")

_FLAG_LEAF = 1
_FLAG_HAS_U = 2


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


def _restore_ints(doubles: Sequence[float]) -> List[Any]:
    """Give whole-valued doubles back their int identity."""
    return [int(x) if x.is_integer() else x for x in doubles]


class NodeCodec:
    """Per-aggregate-kind node serializer with derived page capacities."""

    def __init__(self, spec: AggregateSpec, payload_size: int) -> None:
        self.spec = spec_for(spec)
        self.payload_size = payload_size
        self._pairs = self.spec.kind is AggregateKind.AVG
        self._value_width = 16 if self._pairs else 8

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
    # Value sections: one struct call for all j values of a node
    # ------------------------------------------------------------------
    def _pack_values(self, values: Sequence[Any]) -> bytes:
        if self._pairs:
            doubles = [x for total, count in values for x in (total, count)]
        else:
            doubles = [math.nan if v is None else v for v in values]
        return _F64S[len(doubles)].pack(*doubles)

    def _unpack_values(self, payload: bytes, offset: int, j: int) -> List[Any]:
        if self._pairs:
            flat = _restore_ints(_F64S[2 * j].unpack_from(payload, offset))
            return list(zip(flat[0::2], flat[1::2]))
        return [
            None if x != x else int(x) if x.is_integer() else x  # NaN is NULL
            for x in _F64S[j].unpack_from(payload, offset)
        ]

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
            parts: List[bytes] = [
                _HEADER.pack(flags, 0, j),
                _F64S[len(node.times)].pack(*node.times),
                self._pack_values(node.values),
            ]
            if not node.is_leaf:
                parts.append(_I64S[len(node.children)].pack(*node.children))
            if node.uvalues is not None:
                parts.append(self._pack_values(node.uvalues))
        except struct.error as exc:
            raise NodeEncodingError(
                f"node {node.node_id} holds a field that is not a number: {exc}"
            ) from exc
        payload = b"".join(parts)
        if len(payload) > self.payload_size:
            raise NodeEncodingError(
                f"node with {j} intervals needs {len(payload)} bytes, page "
                f"payload is {self.payload_size}"
            )
        return payload

    def decode(self, payload: bytes, node_id: NodeId) -> Node:
        if len(payload) < _HEADER.size:
            raise NodeEncodingError(
                f"page {node_id}: {len(payload)}-byte payload has no node header"
            )
        flags, _, j = _HEADER.unpack_from(payload, 0)
        is_leaf = bool(flags & _FLAG_LEAF)
        has_u = bool(flags & _FLAG_HAS_U)
        time_count = max(0, j - 1)
        children_size = 0 if is_leaf else 8 * j
        values_size = self._value_width * j
        needed = (
            _HEADER.size + 8 * time_count + values_size + children_size
            + (values_size if has_u else 0)
        )
        if needed > len(payload):
            raise NodeEncodingError(
                f"page {node_id} declares {j} intervals (flags {flags:#04x}): "
                f"{needed} bytes, but the payload has {len(payload)}"
            )
        offset = _HEADER.size
        times = _restore_ints(_F64S[time_count].unpack_from(payload, offset))
        offset += 8 * time_count
        values = self._unpack_values(payload, offset, j)
        offset += values_size
        children: List[NodeId] = []
        if not is_leaf:
            children = list(_I64S[j].unpack_from(payload, offset))
            offset += children_size
        uvalues = self._unpack_values(payload, offset, j) if has_u else None
        return Node(
            node_id=node_id,
            is_leaf=is_leaf,
            times=times,
            values=values,
            children=children,
            uvalues=uvalues,
        )
