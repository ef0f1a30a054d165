"""The disk-backed node store: pager + buffer pool + codec.

Implements :class:`repro.core.nodestore.NodeStore` over fixed-size pages, so
any SB-tree or MSB-tree can be persisted, closed, and reopened.  Every
logical node access is one buffered page access; physical I/O happens on
buffer misses and dirty evictions, exactly like a real disk index.

Node ids are page ids, so child pointers serialize directly.

**Live nodes.**  A pool frame keeps the decoded :class:`Node` beside
the page bytes: the node last written, or the one a reader decoded (one
whole-array decode, counted in ``stats.decodes``) -- ``read`` on the
frame's first use, ``probe`` on its second.  ``commit`` and an
eviction's write-back leave it there, so a read that hits the pool --
the upper levels of every lookup, the right-edge path of every batch --
is a pointer chase.  ``read`` returns
the pool's *live* node for as long as the frame lives, the contract
``MemoryNodeStore`` has always had:

* a caller that mutates a node must ``write`` it before anyone reads the
  page again; until then later ``read`` calls already see the mutation
  while the page bytes do not;
* readers sharing a store (``ReadWriteLock``'s shared side) receive the
  same object and must not mutate it;
* a node held across an eviction or a ``free`` is detached, not invalid:
  writing it makes the page dirty again, with that object; two ``read``
  calls either side of an eviction return two objects;
* ``revert_unwritten`` is the one way back to the last written bytes.
  The trees call it when an operation raises between mutating a node and
  writing it: it forgets every decoded node, dirty frame or clean, so
  the next ``read`` decodes the payload again.  The pool then holds
  exactly what byte-only frames would: the writes that completed before
  the failure, nothing of the ones that did not (a rejected insert
  leaves the tree untouched).

**Probes.**  A point lookup's step, ``probe(node_id, t)``, needs one
slot of a node.  On a pool miss it reads that slot off the fetched
bytes (:meth:`NodeCodec.probe`: the times section, one value, one
child) and leaves the frame bytes-only; a probe that hits a bytes-only
frame decodes it, so a page used twice is from then on a pointer chase,
and a page fetched once and evicted is never decoded at all.  A probe
counts as one node read; the pool's hits and misses and the pager's
reads are what ``read`` would have cost.

Decoded memory (roughly 4-5x a 4 KB payload per node) is bounded by the
pool's capacity, not by the dirty set.

**Eager encode.**  ``write`` still serializes at once: a frame's payload
is a snapshot taken at ``write()``, never re-derived from the live node,
so eviction and ``commit`` put the same bytes on disk in the
same order whether or not the node was touched again since.
``write_all`` -- the batched insert's hand-over -- keeps that and adds
an order: every node of the batch is encoded before the first payload is
installed, so a value the codec rejects in the batch's last node leaves
every frame as it was.
"""

from __future__ import annotations

import bisect
from typing import Any, Optional, Sequence, Tuple

from ..core.nodes import Node, NodeId
from ..core.nodestore import NodeStore, StoreStats
from ..core.values import spec_for
from .buffer import BufferPool
from .codec import NodeCodec
from .pager import DEFAULT_PAGE_SIZE, Pager

__all__ = ["PagedNodeStore"]


class PagedNodeStore(NodeStore):
    """A file-backed node store with write-back buffering.

    Parameters
    ----------
    path:
        Page-file path.  An existing file is reopened (its geometry and
        aggregate kind come from the header); a missing one is created.
    kind:
        Aggregate kind; required when creating a new file because the
        node codec's value width depends on it.
    page_size:
        Page size in bytes for a new file; ``None`` (default) accepts an
        existing file's geometry without complaint.
    buffer_capacity:
        Number of page frames held by the buffer pool.
    strict:
        Raise (instead of warning) when reopening a file whose on-disk
        page size differs from the requested one, or when a leftover
        write-ahead log is unusable.
    faults:
        Optional :class:`repro.faults.FaultInjector` passed through to
        the pager (crash points, torn writes, injected I/O errors).
    journaled:
        Accepted and ignored: every page file has a write-ahead log.
        Kept only because the frozen ``bench/`` still passes it.
    """

    def __init__(
        self,
        path: str,
        kind=None,
        *,
        page_size: Optional[int] = None,
        buffer_capacity: int = 64,
        journaled: bool = True,
        strict: bool = False,
        faults=None,
    ) -> None:
        self.pager = Pager(path, page_size=page_size, strict=strict, faults=faults)
        stored_kind = self.pager.get_meta("codec_kind")
        if stored_kind is not None:
            kind = stored_kind
        elif kind is None:
            raise ValueError("an aggregate kind is required for a new page file")
        else:
            self.pager.set_meta("codec_kind", spec_for(kind).kind.value)
        self.codec = NodeCodec(spec_for(kind), self.pager.payload_size)
        self.buffer = BufferPool(self.pager, capacity=buffer_capacity)
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    # Page-derived tree geometry (what the paper sizes b and l from)
    # ------------------------------------------------------------------
    @property
    def default_branching(self) -> int:
        """Maximum interior fanout that fits one page (without u-values)."""
        return self.codec.max_branching(with_uvalues=False)

    @property
    def default_branching_annotated(self) -> int:
        """Maximum interior fanout for u-annotated (MSB) nodes."""
        return self.codec.max_branching(with_uvalues=True)

    @property
    def default_leaf_capacity(self) -> int:
        """Maximum leaf capacity that fits one page."""
        return self.codec.max_leaf_capacity()

    # ------------------------------------------------------------------
    # NodeStore interface
    # ------------------------------------------------------------------
    def allocate(self, is_leaf: bool, with_uvalues: bool = False) -> Node:
        page_id = self.pager.allocate_page()
        self.stats.allocations += 1
        node = Node(
            node_id=page_id,
            is_leaf=is_leaf,
            uvalues=[] if with_uvalues else None,
        )
        self.buffer.write(page_id, self.codec.encode(node), node)
        return node

    def read(self, node_id: NodeId) -> Node:
        self.stats.reads += 1
        return self.buffer.frame(node_id, self._decode).node

    def probe(self, node_id: NodeId, t: Any) -> Tuple[Any, Optional[NodeId]]:
        self.stats.reads += 1
        frame = self.buffer.frame(node_id, self._decode, decode_on_miss=False)
        node = frame.node
        if node is None:  # a miss: one slot read off the page bytes
            return self.codec.probe(frame.payload, node_id, t)
        i = bisect.bisect_right(node.times, t)
        return node.values[i], None if node.is_leaf else node.children[i]

    def _decode(self, payload: bytes, node_id: NodeId) -> Node:
        self.stats.decodes += 1
        return self.codec.decode(payload, node_id)

    def write(self, node: Node) -> None:
        self.stats.writes += 1
        self.buffer.write(node.node_id, self.codec.encode(node), node)

    def write_all(self, nodes: Sequence[Node]) -> None:
        encode = self.codec.encode
        payloads = [encode(node) for node in nodes]
        self.stats.writes += len(nodes)
        for node, payload in zip(nodes, payloads):
            self.buffer.write(node.node_id, payload, node)

    def free(self, node_id: NodeId) -> None:
        self.stats.frees += 1
        self.buffer.discard(node_id)
        self.pager.free_page(node_id)

    def revert_unwritten(self) -> None:
        """Forget every live node, dirty frame or clean; payloads (the
        ``write`` snapshots) stay."""
        self.buffer.drop_nodes()

    def get_root(self) -> Optional[NodeId]:
        return self.pager.get_root()

    def set_root(self, node_id: NodeId) -> None:
        self.pager.set_root(node_id)

    def get_meta(self, key: str) -> Optional[str]:
        return self.pager.get_meta(key)

    def set_meta(self, key: str, value: str) -> None:
        self.pager.set_meta(key, value)

    def node_count(self) -> int:
        return self.pager.live_nodes

    # ------------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """Whether :meth:`commit` has anything to make durable: a dirty
        frame, a dirty header page or a WAL frame written since the last
        commit (committed, not yet checkpointed frames do not count)."""
        return self.buffer.dirty or self.pager.dirty

    def commit(self) -> None:
        """Hand the dirty frames to the pager's commit: they and the
        header page are one WAL append and one WAL fsync -- the commit's
        only fsync unless the commit ends a WAL generation with a
        checkpoint (then a data fsync and a WAL fsync more); no directory
        operation.  A store with nothing to commit (see :attr:`dirty`)
        does no I/O at all.  After a commit a crash at any later point
        reopens to exactly this state.
        """
        self.buffer.flush(commit=True)

    #: The same verb as :meth:`commit`, kept only because the frozen
    #: ``bench/`` calls it.
    flush = commit

    def close(self) -> None:
        """Write back, commit and close; a degraded pager is closed
        without writing anything.

        Once the pager has entered read-only degraded mode the dirty
        frames cannot reach the file anyway; closing the handles leaves
        the WAL in place so the next open recovers the last commit.
        """
        if not self.pager.degraded:
            self.buffer.flush()
        self.pager.close()

    def __enter__(self) -> "PagedNodeStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
