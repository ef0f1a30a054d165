"""Page files pinned byte for byte.

A tree-layer change that claims "same resulting ``times``/``values``"
(the leaf splice) or a storage-layer one that claims "on-disk bytes
unchanged" (PRs 14 and 15) must leave these hashes and access counters
alone.  The ops are scripted from a linear congruential generator, not
``random``, so the stream cannot drift with the interpreter; the pins
were taken at the commit before the leaf splice.
"""

import dataclasses
import hashlib

import pytest

from repro import Interval, SBTree
from repro.storage import PagedNodeStore

OPS = 1200
COMMIT_EVERY = 64
COMPACT_EVERY = 400  # MIN only: bmerge is its compaction (Section 3.6)


def scripted_ops(kind, count=OPS):
    """``(op, value, interval)`` triples: ints and non-integer floats,
    mostly short intervals with some long ones, 20 % deletes of earlier
    facts on the invertible kinds."""
    state = 20010402
    live = []

    def draw(bound):
        nonlocal state
        state = (state * 1103515245 + 12345) % 2**31
        return (state >> 8) % bound

    for _ in range(count):
        if kind != "min" and live and draw(5) == 0:
            value, interval = live.pop(draw(len(live)))
            yield "delete", value, interval
            continue
        start = draw(50_000)
        length = 1 + (draw(40_000) if draw(10) == 0 else draw(200))
        value = draw(1_000) - 300
        if draw(3) == 0:
            value += 0.25 * (1 + draw(3))
        fact = (value, Interval(start, start + length))
        live.append(fact)
        yield ("insert",) + fact


def build(path, kind, page_size):
    store = PagedNodeStore(
        path, kind, page_size=page_size, buffer_capacity=8
    )
    tree = SBTree(
        kind, store,
        branching=store.default_branching,
        leaf_capacity=store.default_leaf_capacity,
    )
    for n, (op, value, interval) in enumerate(scripted_ops(kind), 1):
        getattr(tree, op)(value, interval)
        if kind == "min" and n % COMPACT_EVERY == 0:
            tree.compact()
        if n % COMMIT_EVERY == 0:
            store.commit()
    store.commit()
    counters = (
        dataclasses.astuple(store.stats)
        + dataclasses.astuple(store.buffer.stats)
        + dataclasses.astuple(store.pager.stats)[:2]  # fsyncs: TestSyncBudget's job
    )
    store.close()
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest(), counters


# (reads, writes, allocations, frees | hits, misses, evictions,
#  dirty_writebacks | physical_reads, physical_writes).  The digests
# predate the redo WAL, which left them alone; physical_writes counts
# data-file writes, which the pager makes only at a checkpoint
# (one copy per page of a 1 MiB WAL generation; the close that follows
# the counters is not in them).
PINNED = {
    ("sum", 1024): (
        "18e8db512b2946557b4e0e292198c80cdc91bdc1b9981dbd20a0544a3c716067",
        (7259, 3083, 36, 0, 6647, 612, 640, 698, 612, 0),
    ),
    ("sum", 4096): (
        "3963e3ae15639a8266b43cdebe1056ce6be3a6ecc0bbefcb21458c161ad12b40",
        (6625, 2734, 9, 0, 6587, 38, 39, 128, 38, 0),
    ),
    ("avg", 1024): (
        "2828e029dcbf10602c4d0c2d43c0759f7a37e660ba94c2fbc8a71c301b1141d8",
        (9007, 3787, 56, 2, 8103, 904, 950, 1005, 906, 55),
    ),
    ("avg", 4096): (
        "5b03bc8c004dae1aa9585d2fdbc804b2cd7bdec610825112c15a97711a33b68d",
        (6874, 2856, 17, 2, 6728, 146, 153, 240, 148, 16),
    ),
    ("min", 1024): (
        "431711bdd1dd327ef8a2a66fffbfa27c319c28439d6e3c71547ceb4f7eb5c11d",
        (2126, 2121, 15, 14, 2126, 0, 0, 60, 8, 0),
    ),
    ("min", 4096): (
        "36b0752f006ef16058d6dae5fa0399498570d24ca13ab56c8deac8c210990ebe",
        (1387, 1385, 4, 3, 1387, 0, 0, 19, 3, 0),
    ),
}


@pytest.mark.parametrize("kind,page_size", sorted(PINNED))
def test_page_file_bytes_and_counters_are_pinned(tmp_path, kind, page_size):
    digest, counters = build(str(tmp_path / f"{kind}.sbt"), kind, page_size)
    assert (digest, counters) == PINNED[kind, page_size]
