"""Node store abstraction.

The paper's trees are *disk-based*: nodes live on fixed-size pages and
operation costs are counted in page accesses.  All tree logic in this
package is written against the small :class:`NodeStore` interface so the
same code runs over:

* :class:`MemoryNodeStore` -- a dict of live :class:`~repro.core.nodes.Node`
  objects, for pure-algorithm benchmarks and tests; and
* :class:`repro.storage.PagedNodeStore` -- file-backed pages behind a
  buffer pool with real (de)serialization and I/O accounting.

A store also persists a small amount of tree metadata (the root pointer
and the aggregate kind) so a disk-resident tree can be reopened.
"""

from __future__ import annotations

import abc
import bisect
import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from .nodes import Node, NodeId

__all__ = ["NodeStore", "MemoryNodeStore", "StoreStats"]


@dataclass
class StoreStats:
    """Logical node-access counters maintained by every store, plus
    ``decodes``: how many reads had to turn page bytes into a node (a
    store whose nodes are the only copy never decodes)."""

    reads: int = 0
    writes: int = 0
    allocations: int = 0
    frees: int = 0
    # Not a dataclass field: the fields (``astuple``) stay the four
    # logical node accesses; a decode is what one of them cost.
    decodes = 0

    def reset(self) -> None:
        self.reads = self.writes = self.allocations = self.frees = 0
        self.decodes = 0

    def snapshot(self) -> "StoreStats":
        copy = StoreStats(self.reads, self.writes, self.allocations, self.frees)
        copy.decodes = self.decodes
        return copy

    def __sub__(self, other: "StoreStats") -> "StoreStats":
        diff = StoreStats(
            self.reads - other.reads,
            self.writes - other.writes,
            self.allocations - other.allocations,
            self.frees - other.frees,
        )
        diff.decodes = self.decodes - other.decodes
        return diff


class NodeStore(abc.ABC):
    """Allocate, read, write and free tree nodes; hold the root pointer."""

    stats: StoreStats

    @abc.abstractmethod
    def allocate(self, is_leaf: bool, with_uvalues: bool = False) -> Node:
        """Create and return a fresh empty node."""

    @abc.abstractmethod
    def read(self, node_id: NodeId) -> Node:
        """Return the node with the given id."""

    @abc.abstractmethod
    def probe(self, node_id: NodeId, t: Any) -> Tuple[Any, Optional[NodeId]]:
        """One step of a point lookup: ``(values[i], children[i])`` of
        the node's interval ``i`` holding instant *t* -- what
        ``read(node_id)`` then ``find(t)`` would give, ``children[i]``
        being ``None`` on a leaf.  Counted as one node read; a store
        may answer it without materialising the node."""

    @abc.abstractmethod
    def write(self, node: Node) -> None:
        """Persist (or mark dirty) a mutated node."""

    def write_all(self, nodes: Sequence[Node]) -> None:
        """Persist every node of one batch, all or none.

        The batched insert mutates its nodes in memory and hands them
        over together; a store that serializes must do so for *all* of
        them before it installs the first, so a node it cannot encode
        leaves the store exactly as :meth:`revert_unwritten` expects to
        find it.  The default suits stores whose ``write`` cannot fail.
        """
        for node in nodes:
            self.write(node)

    @abc.abstractmethod
    def free(self, node_id: NodeId) -> None:
        """Release a node's storage."""

    @abc.abstractmethod
    def get_root(self) -> Optional[NodeId]:
        """Return the root node id, or ``None`` for a virgin store."""

    @abc.abstractmethod
    def set_root(self, node_id: NodeId) -> None:
        """Record *node_id* as the tree root."""

    @abc.abstractmethod
    def get_meta(self, key: str) -> Optional[str]:
        """Return a persisted metadata string (e.g. the aggregate kind)."""

    @abc.abstractmethod
    def set_meta(self, key: str, value: str) -> None:
        """Persist a metadata string."""

    @abc.abstractmethod
    def node_count(self) -> int:
        """Return the number of live nodes."""

    def revert_unwritten(self) -> None:
        """Undo node mutations that were never passed to :meth:`write`.

        Called by the trees when a mutating operation raises part-way, so
        a failed update cannot leave half-applied values visible to later
        reads.  A no-op by default: a store whose live nodes are the only
        copy (``MemoryNodeStore``) has nothing to go back to.
        """

    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""


class MemoryNodeStore(NodeStore):
    """A trivial in-memory node store backed by a dict."""

    def __init__(self) -> None:
        self._nodes: Dict[NodeId, Node] = {}
        self._ids: Iterator[int] = itertools.count(1)
        self._root: Optional[NodeId] = None
        self._meta: Dict[str, str] = {}
        self.stats = StoreStats()

    def allocate(self, is_leaf: bool, with_uvalues: bool = False) -> Node:
        node = Node(
            node_id=next(self._ids),
            is_leaf=is_leaf,
            uvalues=[] if with_uvalues else None,
        )
        self._nodes[node.node_id] = node
        self.stats.allocations += 1
        return node

    def read(self, node_id: NodeId) -> Node:
        self.stats.reads += 1
        return self._nodes[node_id]

    def probe(self, node_id: NodeId, t: Any) -> Tuple[Any, Optional[NodeId]]:
        self.stats.reads += 1
        node = self._nodes[node_id]
        i = bisect.bisect_right(node.times, t)
        return node.values[i], None if node.is_leaf else node.children[i]

    def write(self, node: Node) -> None:
        # The caller mutated the live object; just count the access.
        self.stats.writes += 1
        self._nodes[node.node_id] = node

    def free(self, node_id: NodeId) -> None:
        self.stats.frees += 1
        del self._nodes[node_id]

    def get_root(self) -> Optional[NodeId]:
        return self._root

    def set_root(self, node_id: NodeId) -> None:
        self._root = node_id

    def get_meta(self, key: str) -> Optional[str]:
        return self._meta.get(key)

    def set_meta(self, key: str, value: str) -> None:
        self._meta[key] = value

    def node_count(self) -> int:
        return len(self._nodes)
