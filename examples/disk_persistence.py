#!/usr/bin/env python3
"""SB-trees as disk-resident indices: build, close, reopen, query.

Demonstrates the storage substrate: a page file with checksummed 4 KiB
pages, a write-back LRU buffer pool, page-geometry-derived fanout, and
physical-I/O accounting.  The index is built once, the process-local
state is discarded, and the file is reopened cold to answer queries.

Run:  python examples/disk_persistence.py
"""

import os
import tempfile

from repro import Interval, SBTree
from repro.storage import PagedNodeStore
from repro.workloads import uniform


def main() -> None:
    path = os.path.join(tempfile.mkdtemp(prefix="sbtree-"), "sum_dosage.sbt")
    n = 20_000
    facts = uniform(n, horizon=500_000, max_duration=2_000, seed=1)

    # ------------------------------------------------------------------
    # Build: fanout is derived from the page geometry, as in the paper
    # ("b and l are on the order of hundreds" for realistic page sizes).
    # ------------------------------------------------------------------
    print(f"Building an SB-tree over {n} tuples at {path} ...")
    with PagedNodeStore(path, "sum", page_size=4096, buffer_capacity=256) as store:
        tree = SBTree(
            "sum",
            store,
            branching=store.default_branching,
            leaf_capacity=store.default_leaf_capacity,
        )
        print(f"  page-derived fanout: b={tree.b}, l={tree.l}")
        for value, interval in facts:
            tree.insert(value, interval)
        store.commit()
        stats = store.pager.stats
        print(
            f"  built: height={tree.height}, nodes={store.node_count()}, "
            f"file={store.pager.page_count * 4096 / 1024:.0f} KiB"
        )
        # A page write is a write-ahead-log frame (an eviction, a commit)
        # or a data-file write (a checkpoint copy).
        print(
            f"  physical I/O during build: "
            f"{stats.physical_reads} reads, "
            f"{stats.wal_frames + stats.physical_writes} writes "
            f"(buffer hit rate {store.buffer.stats.hit_rate:.1%})"
        )

    # ------------------------------------------------------------------
    # Reopen cold: the aggregate kind and fanout come from the file
    # header; queries touch only O(height) pages.
    # ------------------------------------------------------------------
    print("\nReopening the file cold (tiny 8-page buffer pool) ...")
    with PagedNodeStore(path, buffer_capacity=8) as store:
        tree = SBTree(store=store)  # kind recovered from metadata
        print(f"  recovered: kind={tree.kind}, b={tree.b}, l={tree.l}")

        t = 250_000
        store.pager.stats.reset()
        value = tree.lookup(t)
        print(
            f"  lookup({t}) = {value} "
            f"using {store.pager.stats.physical_reads} physical page reads "
            f"(height {tree.height})"
        )

        store.pager.stats.reset()
        window = Interval(t, t + 5_000)
        rows = tree.range_query(window)
        print(
            f"  range query over {window}: {len(rows)} constant intervals, "
            f"{store.pager.stats.physical_reads} physical page reads"
        )

        # Updates work on the reopened tree too.
        store.pager.stats.reset()
        tree.insert(7, Interval(100, 400_000))
        print(
            f"  one long-interval insert: "
            f"{store.pager.stats.physical_reads} reads + buffered writes"
        )
        assert tree.lookup(t) == value + 7

    print("\nDone; index file kept at", path)


if __name__ == "__main__":
    main()
