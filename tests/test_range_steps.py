"""The flat range walk (``SBTree.steps``): pinned costs, locking and
observation.

``steps(window)`` returns the aggregate over a window as two flat lists,
``(edges, values)``, and every range read is built on it: the tree's
``range_query`` / ``leaf_pieces`` / ``to_table``, the locked shard's
``steps``, the sharded fan-out and the served ``rangeq``.  Its answers
and its O(h + r) node reads on every backend are invariants of
``tests/test_oracle_machine.py``; this file pins exact counts on one
seeded tree, the shard's lock and the served op's record.
"""

import pytest

from repro import Interval, SBTree, ShardedTree, obs
from repro.concurrent import LockTimeout
from repro.core.intervals import NEG_INF, POS_INF
from repro.core.results import ConstantIntervalTable
from repro.service import ServerHandle, ServiceClient
from repro.storage import PagedNodeStore
from repro.workloads import uniform


def test_from_steps_rows():
    table = ConstantIntervalTable.from_steps([NEG_INF, 3, 7, POS_INF], [0, 2, 0])
    assert table == ConstantIntervalTable(
        [(0, Interval(NEG_INF, 3)), (2, Interval(3, 7)), (0, Interval(7, POS_INF))]
    )
    assert ConstantIntervalTable.from_steps([4, 9], [1]).rows == [(1, Interval(4, 9))]


# ----------------------------------------------------------------------
# Pinned counts: the nodes a walk reads, and what they cost to decode
# ----------------------------------------------------------------------
COUNT_WINDOWS = [(0, 100_000), (500, 2_500), (40_000, 40_001), (-10, 10), (99_000, 200_000)]


def test_range_reads_pin_node_reads_and_decodes(tmp_path):
    """Rows, ``StoreStats.reads`` and ``decodes`` per window, seed 7
    (O(h + r) nodes), read with a 4-frame pool so the decodes depend on
    the visiting order too."""
    store = PagedNodeStore(str(tmp_path / "t.sbt"), "sum", buffer_capacity=4)
    tree = SBTree("sum", store, branching=8, leaf_capacity=8)
    tree.insert_batch(uniform(1_500, seed=7))
    store.commit()
    assert (tree.height, tree.node_count()) == (4, 424)
    got = []
    for window in COUNT_WINDOWS:
        before = store.stats.snapshot()
        rows = len(tree.range_query(Interval(*window)))
        diff = store.stats - before
        got.append((rows, diff.reads, diff.decodes))
    assert got == [(2948, 423, 419), (52, 10, 10), (1, 4, 4), (1, 4, 3), (36, 9, 8)]
    store.close()

    sharded = ShardedTree.open(
        str(tmp_path / "shards"), "sum", num_shards=4, span=(0, 100_000),
        buffer_capacity=4, branching=8, leaf_capacity=8,
    )
    sharded.batch_insert(uniform(1_500, seed=7))
    sharded.commit()
    stores = [shard.tree.store for shard in sharded.shards]
    got = []
    for window in COUNT_WINDOWS:
        before = [store.stats.snapshot() for store in stores]
        rows = len(sharded.range_query(Interval(*window)))
        diffs = [store.stats - old for store, old in zip(stores, before)]
        got.append((rows, sum(d.reads for d in diffs), sum(d.decodes for d in diffs)))
    assert got == [(2951, 432, 424), (52, 10, 10), (1, 4, 4), (1, 4, 4), (36, 8, 8)]
    sharded.close()


# ----------------------------------------------------------------------
# The shard's walk runs under its lock, and is still observed
# ----------------------------------------------------------------------
def test_shard_steps_wait_for_a_writer():
    sharded = ShardedTree("sum", num_shards=2, span=(0, 100), read_timeout=0.05)
    sharded.insert(3, (10, 60))
    shard = sharded.shards[0]
    assert shard.lock.acquire_write(1.0)
    try:
        with pytest.raises(LockTimeout):
            shard.steps((0, 40))
        with pytest.raises(LockTimeout):
            sharded.steps((0, 40))
    finally:
        shard.lock.release_write()
    assert shard.steps((0, 40)) == ([0, 10, 40], [0, 3])


def test_served_rangeq_publishes_a_range_query_op(open_shards):
    sharded = open_shards(num_shards=2, span=(0, 100))
    with ServerHandle.start(sharded) as handle:
        with ServiceClient(handle.host, handle.port, timeout=5.0) as svc:
            svc.insert(2, 10, 70)
            with obs.collecting() as registry:
                rows = svc.rangeq(20, 80)
            summary = registry.op_summary("range_query")
    assert rows == [(2, Interval(20, 70)), (0, Interval(70, 80))]
    # One record per shard the window crosses, with the nodes it read.
    assert summary["count"] == 2
    assert summary["reads"] >= 2
