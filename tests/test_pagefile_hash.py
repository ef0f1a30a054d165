"""Page files pinned byte for byte.

A tree-layer change that claims "same resulting ``times``/``values``"
(the leaf splice) or a storage-layer one that claims "on-disk bytes
unchanged" must leave these hashes and access counters alone.  The ops
are scripted from a linear congruential generator, not ``random``, so
the stream cannot drift with the interpreter.  The digests were re-pinned
once, when all-int node sections began to be stored as int64 (the
counters did not move); each reopened file must also read back what an
in-memory tree over the same ops holds.
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


def run_ops(tree, kind, commit=lambda: None):
    for n, (op, value, interval) in enumerate(scripted_ops(kind), 1):
        getattr(tree, op)(value, interval)
        if kind == "min" and n % COMPACT_EVERY == 0:
            tree.compact()
        if n % COMMIT_EVERY == 0:
            commit()


def build(path, kind, page_size):
    store = PagedNodeStore(
        path, kind, page_size=page_size, buffer_capacity=8
    )
    tree = SBTree(
        kind, store,
        branching=store.default_branching,
        leaf_capacity=store.default_leaf_capacity,
    )
    run_ops(tree, kind, store.commit)
    store.commit()
    counters = (
        dataclasses.astuple(store.stats)
        + dataclasses.astuple(store.buffer.stats)
        + dataclasses.astuple(store.pager.stats)[:2]  # fsyncs: TestSyncBudget's job
    )
    store.close()
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest(), counters


def reopened_table(path):
    with PagedNodeStore(path) as store:
        return SBTree(store=store).to_table()


# (reads, writes, allocations, frees | hits, misses, evictions,
#  dirty_writebacks | physical_reads, physical_writes).  physical_writes
# counts data-file writes, which the pager makes only at a checkpoint
# (one copy per page of a 1 MiB WAL generation; the close that follows
# the counters is not in them).  The counters moved, the digests did
# not, when the per-fact insert stopped writing nodes it did not change
# and running ``imerge`` at endpoints whose sides differ; the digests
# moved, the counters did not, with the int64 node sections.
PINNED = {
    ("sum", 1024): (
        "28cf1ba9501c2dab52cf1f21a7c736a392a2356aec40c29aa7c5dee8791f905e",
        (3452, 2018, 36, 0, 2841, 611, 639, 697, 611, 0),
    ),
    ("sum", 4096): (
        "dd32d63753e3523022babf1fc9bbb006b60564588ad66a0116b3613be020eed9",
        (3093, 1787, 9, 0, 3055, 38, 39, 125, 38, 0),
    ),
    ("avg", 1024): (
        "f159408fe6e7d161c434e6169b80a429797c9390efd3dda7cfb6434144a7bdb5",
        (4319, 2190, 56, 2, 3415, 904, 950, 987, 906, 55),
    ),
    ("avg", 4096): (
        "036a50bf0eeb8cffab1ac2a0341acddfdd4853c715034917c9f46ded0ef15db5",
        (3230, 1853, 17, 2, 3084, 146, 153, 240, 148, 16),
    ),
    ("min", 1024): (
        "21a54c842e8bdfd26e683f07e301d50575c2eb4a1211394fe2b346d3d03eabbe",
        (2126, 385, 15, 14, 2126, 0, 0, 52, 8, 0),
    ),
    ("min", 4096): (
        "d262c1482a138072101d9a7c9f5fcaf48e74bbc84048a53e2595c76d7d29743a",
        (1387, 353, 4, 3, 1387, 0, 0, 18, 3, 0),
    ),
}


@pytest.mark.parametrize("kind,page_size", sorted(PINNED))
def test_page_file_bytes_and_counters_are_pinned(tmp_path, kind, page_size):
    path = str(tmp_path / f"{kind}.sbt")
    digest, counters = build(path, kind, page_size)
    assert (digest, counters) == PINNED[kind, page_size]
    in_memory = SBTree(kind)
    run_ops(in_memory, kind)
    assert reopened_table(path) == in_memory.to_table()
