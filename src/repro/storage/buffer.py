"""LRU buffer pool with write-back caching over a pager.

Sits between the node store and the page file.  Reads are served from
the pool when possible (a *hit*); otherwise the page is fetched from the
pager (a *miss*).  Writes dirty the cached copy; dirty pages reach the
pager only on eviction or an explicit flush -- standard write-back
semantics, which is what makes the paper's O(h)-pages-per-update claim
measurable: repeated touches of the upper tree levels are absorbed by
the pool.

A frame holds the page's payload bytes and the *decoded object* those
bytes stand for (for the node store: the :class:`~repro.core.nodes.Node`
its callers read and write), so a hit on a dirty or a clean frame costs
a dictionary lookup instead of a page decode.  The object is the one
last handed to :meth:`BufferPool.write`, or the one the caller's
``decode`` made (installed under the pool's mutex by
:meth:`BufferPool.frame`): on the frame's first use, or on its second
when a point lookup fetched it (:meth:`BufferPool.descend` reads one
slot of a page it fetches, and most such pages are evicted before
anyone reads them again).  The pool reads that object only to walk a
lookup's path and never derives bytes from it: what reaches
the pager on eviction or flush is always ``frame.payload``, the snapshot
handed to :meth:`BufferPool.write`.  A write-back leaves the object in
place; eviction, :meth:`BufferPool.discard` and
:meth:`BufferPool.drop_nodes` forget it.  ``capacity`` counts frames; a
decoded 4 KB node holds roughly 4-5x the memory of its payload (three
lists of boxed numbers), so decoded memory is bounded by the pool, not
by the dirty set, and is not budgeted separately.

Write-back goes to the pager as *sets*: a flush hands the whole dirty
set to :meth:`Pager.write_pages` (a commit hands it to
:meth:`Pager.commit`, which writes it with the header page as one
transaction), an eviction hands over its one victim: one unsynced WAL
frame.

The pool is internally synchronized: even a logically read-only tree
operation *mutates* LRU recency state and may trigger an eviction, so
concurrent readers (e.g. under :class:`repro.concurrent.ConcurrentTree`'s
shared lock) must not race on the frame table.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from .pager import Pager

__all__ = ["BufferPool", "BufferStats", "Frame"]


@dataclass
class BufferStats:
    """Cache behaviour counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.evictions = self.dirty_writebacks = 0

    def snapshot(self) -> "BufferStats":
        return BufferStats(
            self.hits, self.misses, self.evictions, self.dirty_writebacks
        )

    def __sub__(self, other: "BufferStats") -> "BufferStats":
        return BufferStats(
            self.hits - other.hits,
            self.misses - other.misses,
            self.evictions - other.evictions,
            self.dirty_writebacks - other.dirty_writebacks,
        )


class Frame:
    """One cached page: its payload and the object the payload was
    encoded from or decoded into (``None`` until someone decodes it)."""

    __slots__ = ("payload", "dirty", "node")

    def __init__(self, payload: bytes, dirty: bool, node: Any = None) -> None:
        self.payload = payload
        self.dirty = dirty
        self.node = node


class BufferPool:
    """A fixed-capacity, least-recently-used page cache."""

    def __init__(self, pager: Pager, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.pager = pager
        self.capacity = capacity
        self.stats = BufferStats()
        self._frames: "OrderedDict[int, Frame]" = OrderedDict()
        self._dirty_frames = 0  # how many frames have ``dirty`` set
        self._mutex = threading.Lock()

    # ------------------------------------------------------------------
    def frame(
        self, page_id: int, decode: Optional[Callable[[bytes, int], Any]] = None
    ) -> Frame:
        """Return a page's frame, fetching the page on a miss.

        ``frame.node`` is the object last handed to :meth:`write` or
        decoded into the frame; ``None`` on a fresh miss and after
        :meth:`drop_nodes`.  With *decode*, a frame without one gets
        ``decode(frame.payload, page_id)``, under the pool's mutex, so
        concurrent readers of a page share one object.
        """
        with self._mutex:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.stats.hits += 1
                self._frames.move_to_end(page_id)
            else:
                frame = self._fetch(page_id)
            if frame.node is None and decode is not None:
                frame.node = decode(frame.payload, page_id)
            return frame

    def descend(
        self,
        page_id: Optional[int],
        t: Any,
        result: Any,
        acc: Callable[[Any, Any], Any],
        decode: Callable[[bytes, int], Any],
        probe: Callable[[bytes, int, Any], Tuple[Any, Optional[int]]],
    ) -> Tuple[Any, int]:
        """A point lookup, root page to leaf, under one hold of the
        mutex: ``(result, levels)``, *result* folded with ``acc`` over
        the value holding *t* on each level.

        Each level is one pool access, counted as :meth:`frame` counts
        it.  A hit reads the frame's node (``times``, ``values``,
        ``children``, ``is_leaf``), decoding a bytes-only frame first --
        its second use.  A miss fetches the page as :meth:`frame` does
        and reads one slot off the bytes with ``probe(payload, page_id,
        t) -> (value, child)``, leaving the frame bytes-only: most pages
        a lookup fetches are evicted before anyone reads them again.
        """
        frames, touch, find = self._frames, self._frames.move_to_end, bisect_right
        hits = fetched = 0
        with self._mutex:
            try:
                while page_id is not None:
                    frame = frames.get(page_id)
                    if frame is None:
                        fetched += 1
                        frame = self._fetch(page_id)
                        value, page_id = probe(frame.payload, page_id, t)
                        result = acc(result, value)
                        continue
                    hits += 1
                    touch(page_id)
                    node = frame.node
                    if node is None:
                        node = frame.node = decode(frame.payload, page_id)
                    i = find(node.times, t)
                    result = acc(result, node.values[i])
                    page_id = None if node.is_leaf else node.children[i]
            finally:
                self.stats.hits += hits
        return result, hits + fetched

    def write(self, page_id: int, payload: bytes, node: Any) -> None:
        """Record new contents for a page (write-back: no pager I/O yet).

        *payload* is what will reach the pager; *node* is the decoded
        object it was encoded from, kept for as long as the frame stays
        in the pool (``None``: the next reader decodes *payload*).
        """
        with self._mutex:
            frame = self._frames.get(page_id)
            if frame is not None:
                frame.payload = payload
                frame.node = node
                if not frame.dirty:
                    frame.dirty = True
                    self._dirty_frames += 1
                self._frames.move_to_end(page_id)
                return
            self._admit(page_id, Frame(payload, dirty=True, node=node))
            self._dirty_frames += 1

    def discard(self, page_id: int) -> None:
        """Drop a page (payload and decoded object) without writing it back."""
        with self._mutex:
            frame = self._frames.pop(page_id, None)
            if frame is not None and frame.dirty:
                self._dirty_frames -= 1

    def drop_nodes(self) -> None:
        """Forget every decoded object, dirty frame or clean; payloads
        and dirty bits stay.

        The next :meth:`frame` caller decodes the payload again, which
        undoes whatever was done to an object since its last ``write``.
        """
        with self._mutex:
            for frame in self._frames.values():
                frame.node = None

    @property
    def dirty(self) -> bool:
        """Whether any frame awaits write-back (a counter, not a scan)."""
        return self._dirty_frames > 0

    def flush(self, commit: bool = False) -> None:
        """Write every dirty frame back to the pager as one set; they
        become clean and keep their decoded objects.  With ``commit``
        the set is the pager's commit (:meth:`Pager.commit`, called even
        when no frame is dirty).  If the pager raises, all of them stay
        dirty (writing a page twice is harmless)."""
        with self._mutex:
            dirty = [
                (page_id, frame)
                for page_id, frame in self._frames.items()
                if frame.dirty
            ]
            if not (dirty or commit):
                return
            write = self.pager.commit if commit else self.pager.write_pages
            write([(page_id, frame.payload) for page_id, frame in dirty])
            self.stats.dirty_writebacks += len(dirty)
            self._dirty_frames -= len(dirty)
            for _, frame in dirty:
                frame.dirty = False

    # ------------------------------------------------------------------
    def _fetch(self, page_id: int) -> Frame:
        """The one miss path: read the page and admit it bytes-only.  A
        page the pager refuses (``PageCorruptionError``) is not admitted."""
        self.stats.misses += 1
        frame = Frame(self.pager.read_page(page_id), dirty=False)
        self._admit(page_id, frame)
        return frame

    def _admit(self, page_id: int, frame: Frame) -> None:
        while len(self._frames) >= self.capacity:
            # Write the victim back BEFORE dropping its frame: if the
            # pager raises (EIO, degraded mode), the dirty frame must
            # survive in the pool or committed data would silently
            # vanish.  The exception propagates with the pool intact.
            victim_id, victim = next(iter(self._frames.items()))
            if victim.dirty:
                self.pager.write_pages(((victim_id, victim.payload),))
                self.stats.dirty_writebacks += 1
                victim.dirty = False
                self._dirty_frames -= 1
            del self._frames[victim_id]
            self.stats.evictions += 1
        self._frames[page_id] = frame

    def __len__(self) -> int:
        return len(self._frames)
