"""The disk-based claim: SB-tree operations in page I/Os.

The paper's central systems argument is that the SB-tree is a *disk*
structure: every operation touches O(h) pages, so with any reasonable
buffer pool the physical I/O per update or lookup is tiny, while
recomputing an aggregate from the base table scans everything.  This
benchmark runs the paged store with a real file, a write-back LRU
buffer pool, and physical-I/O counters, sweeping the pool size
(ablation: DESIGN.md "node store abstraction").
"""

import os

import pytest

from repro import Interval, SBTree
from repro.benchlib import Series, format_table, scaled, time_call
from repro.storage import PagedNodeStore
from repro.workloads import uniform

N = scaled(1500)
HORIZON = 60_000
FACTS = uniform(N, horizon=HORIZON, max_duration=400, seed=71)


def _build_on_disk(path, buffer_capacity, page_size=4096):
    store = PagedNodeStore(
        path, "sum", page_size=page_size, buffer_capacity=buffer_capacity
    )
    tree = SBTree(
        "sum",
        store,
        branching=min(32, store.default_branching),
        leaf_capacity=min(32, store.default_leaf_capacity),
    )
    for value, interval in FACTS:
        tree.insert(value, interval)
    store.commit()
    return store, tree


def test_buffer_pool_sweep(report, tmp_path):
    capacities = [4, 16, 64, 256]
    rows = []
    for capacity in capacities:
        store, tree = _build_on_disk(str(tmp_path / f"t{capacity}.sbt"), capacity)
        store.pager.stats.reset()
        store.buffer.stats.reset()
        probes = [HORIZON * i // 200 for i in range(200)]
        for t in probes:
            tree.lookup(t)
        lookup_reads = store.pager.stats.physical_reads / len(probes)
        hit_rate = store.buffer.stats.hit_rate
        store.pager.stats.reset()
        for i in range(100):
            span = Interval(i * 13 % HORIZON, i * 13 % HORIZON + 500)
            tree.insert(1, span)
        # A page write is a WAL frame (an eviction) or a data-file write
        # (a checkpoint copy).
        stats = store.pager.stats
        update_io = (
            stats.physical_reads + stats.wal_frames + stats.physical_writes
        ) / 100
        rows.append(
            (capacity, tree.height, round(lookup_reads, 3), f"{hit_rate:.2%}",
             round(update_io, 3))
        )
        store.close()
    report(
        "Disk claim / physical I/O vs buffer pool size",
        format_table(
            ["pool pages", "height", "phys reads/lookup", "hit rate", "phys IO/update"],
            rows,
        ),
    )
    # With a pool comfortably larger than the hot path, lookups are
    # nearly I/O-free; with a tiny pool they still cost only ~height.
    assert rows[-1][2] < 0.5
    assert rows[0][2] <= rows[0][1] + 1


def test_index_lookup_vs_recompute_io(report, tmp_path):
    """An indexed lookup reads O(h) pages; recomputation scans all n."""
    store, tree = _build_on_disk(str(tmp_path / "t.sbt"), buffer_capacity=8)
    total_pages = store.pager.page_count
    store.pager.stats.reset()
    tree.lookup(HORIZON // 2)
    lookup_reads = store.pager.stats.physical_reads
    store.pager.stats.reset()
    tree.range_query(Interval(float("-inf"), float("inf")))
    full_scan_reads = store.pager.stats.physical_reads
    report(
        "Disk claim / lookup vs full reconstruction",
        f"file pages={total_pages}  lookup phys reads={lookup_reads}  "
        f"full-scan phys reads={full_scan_reads}",
    )
    assert lookup_reads <= tree.height
    assert full_scan_reads > 10 * max(1, lookup_reads)
    store.close()


def test_page_size_geometry(report, tmp_path):
    """Bigger pages -> bigger fanout -> shorter trees (fewer I/Os)."""
    rows = []
    for page_size in (512, 1024, 4096, 16384):
        store, tree = _build_on_disk(
            str(tmp_path / f"p{page_size}.sbt"),
            buffer_capacity=64,
            page_size=page_size,
        )
        rows.append(
            (page_size, store.default_branching, store.default_leaf_capacity,
             tree.b, tree.height, store.pager.page_count)
        )
        store.close()
    report(
        "Disk claim / page size vs tree geometry",
        format_table(
            ["page size", "max b", "max l", "used b", "height", "file pages"], rows
        ),
    )
    heights = [r[4] for r in rows]
    assert heights[0] >= heights[-1]


def _page_derived_tree(path, page_size=4096):
    """A tree whose b/l are derived from the page geometry (the paper's
    sizing rule) rather than hand-picked."""
    store = PagedNodeStore(path, "sum", page_size=page_size, buffer_capacity=64)
    tree = SBTree(
        "sum",
        store,
        branching=store.default_branching,
        leaf_capacity=store.default_leaf_capacity,
    )
    return store, tree


def test_page_derived_capacities_give_shallow_trees(report, tmp_path):
    store, tree = _page_derived_tree(str(tmp_path / "wide.sbt"))
    for value, interval in FACTS:
        tree.insert(value, interval)
    report(
        "Disk claim / page-derived fanout",
        f"b={tree.b} l={tree.l} n={N} height={tree.height} "
        f"pages={store.pager.page_count}",
    )
    assert tree.height <= 3  # hundreds-wide fanout keeps trees shallow
    store.close()


@pytest.mark.parametrize("capacity", [8, 128])
def test_benchmark_disk_lookup(benchmark, capacity, tmp_path):
    store, tree = _build_on_disk(str(tmp_path / "b.sbt"), capacity)
    benchmark(tree.lookup, HORIZON // 2)
    store.close()


def test_benchmark_disk_insert(benchmark, tmp_path):
    store, tree = _build_on_disk(str(tmp_path / "b.sbt"), 64)
    span = Interval(10, HORIZON - 10)

    def insert_and_undo():
        tree.insert(1, span)
        tree.delete(1, span)

    benchmark(insert_and_undo)
    store.close()
