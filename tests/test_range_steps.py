"""The flat range walk (``SBTree.steps``) against the walk it replaced.

``steps(window)`` returns the aggregate over a window as two flat lists,
``(edges, values)``, and every range read is built on it: the tree's
``range_query`` / ``leaf_pieces`` / ``to_table``, the locked shard's
``steps``, the sharded fan-out and the served ``rangeq``.  The reference
here is the recursive generator walk ``range_query`` used before,
kept verbatim: per interval it computes the bounds from the inherited
span and clips the leaf interval to the window, so it shares nothing
with the bisect-and-slice walk under test.

Every backend a range read runs on is covered -- an in-memory store, a
page file behind a 2-frame pool (a root-to-leaf path does not fit) and
one that holds every page, MSB-trees, and a 4-shard ``ShardedTree`` --
for all five aggregates, over windows that start or end on a leaf
boundary, an interior separator or a shard cut, lie inside one interval,
lie outside all data, or cover the whole time line.

The example budget follows the loaded hypothesis profile: tier-1 runs
the default, CI runs this file once more with
``--hypothesis-profile=ci --hypothesis-seed=0``.
"""

import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro import Interval, MSBTree, SBTree, ShardedTree, obs
from repro.concurrent import LockTimeout
from repro.core.intervals import NEG_INF, POS_INF
from repro.core.results import ConstantIntervalTable, finalized_rows
from repro.service import ServerHandle, ServiceClient
from repro.storage import PagedNodeStore
from repro.workloads import uniform

#: 1 under the default profile (100 examples), 5 under ``ci``.
SCALE = settings.default.max_examples / 100

ALL = Interval(NEG_INF, POS_INF)
ALL_KINDS = ("sum", "count", "avg", "min", "max")
#: A pool that holds every page.
RESIDENT = 1000
CUTS = [100, 200, 300]


def reference_rows(tree, window):
    """The generator walk ``SBTree.range_query`` ran before the flat
    one: ``(value, Interval)`` per leaf interval the window meets, the
    interval clipped to the window, uncoalesced."""
    acc = tree.spec.acc

    def walk(node, lo, hi, carried):
        for i in range(node.find(window.start), node.interval_count):
            a, b = node.bounds(i, lo, hi)
            if a >= window.end:
                break
            value = acc(carried, node.values[i])
            if node.is_leaf:
                yield value, Interval(max(a, window.start), min(b, window.end))
            else:
                child = tree.store.read(node.children[i])
                yield from walk(child, a, b, value)

    return list(walk(tree.store.read(tree._root_id), NEG_INF, POS_INF, tree.spec.v0))


def reference_sharded(sharded, window):
    rows = []
    for index in sharded.router.overlapping(window):
        clip = sharded.range_of(index).intersection(window)
        rows.extend(reference_rows(sharded.shards[index].tree, clip))
    return rows


def stored_times(tree):
    """(leaf boundaries, interior separators) of *tree*."""
    leaves, interior = set(), set()
    pending = [tree.store.read(tree._root_id)]
    while pending:
        node = pending.pop()
        if node.is_leaf:
            leaves.update(node.times)
        else:
            interior.update(node.times)
            pending.extend(tree.store.read(child) for child in node.children)
    return leaves, interior


# ----------------------------------------------------------------------
# The indexes under test
# ----------------------------------------------------------------------
times = st.integers(min_value=0, max_value=400)
values = st.integers(min_value=-4, max_value=6)
lengths = st.sampled_from([1, 2, 5, 40, 200, None])


@st.composite
def histories(draw, kind):
    """Facts to insert, then (invertible kinds) some of them to delete."""
    facts = []
    for _ in range(draw(st.integers(min_value=0, max_value=60))):
        start, length = draw(times), draw(lengths)
        end = POS_INF if length is None else start + length
        facts.append((draw(values), Interval(start, end)))
    deleted = []
    if kind in ("sum", "count", "avg") and facts:
        deleted = draw(st.lists(st.sampled_from(facts), max_size=len(facts) // 2))
    return facts, deleted


def build(backend, kind, facts, deleted, directory):
    """The index and the trees behind it (one, or one per shard)."""
    if backend == "sharded":
        index = ShardedTree(kind, CUTS, branching=4, leaf_capacity=4)
        index.batch_insert(facts)
        for value, interval in deleted:
            index.delete(value, interval)
        return index, [shard.tree for shard in index.shards]
    if backend in ("paged2", "resident"):
        store = PagedNodeStore(
            os.path.join(directory, "t.sbt"), kind, page_size=512,
            buffer_capacity=2 if backend == "paged2" else RESIDENT,
        )
        index = SBTree(kind, store, branching=4, leaf_capacity=4)
    else:
        cls = MSBTree if backend == "msb" else SBTree
        index = cls(kind, branching=4, leaf_capacity=4)
    for value, interval in facts:
        index.insert(value, interval)
    for value, interval in deleted:
        index.delete(value, interval)
    if not index.spec.invertible and len(facts) % 2:
        index.compact()  # the MIN/MAX bmerge, on half the examples
    if backend in ("paged2", "resident"):
        index.store.commit()
    return index, [index]


def window_strategy(index, trees):
    """Windows that start or end on a stored instant or a shard cut,
    sit inside one interval, lie outside all data, or cover all time."""
    leaves, interior = set(), set()
    for tree in trees:
        tree_leaves, tree_interior = stored_times(tree)
        leaves |= tree_leaves
        interior |= tree_interior
    cuts = set(CUTS) if isinstance(index, ShardedTree) else set()
    points = sorted(leaves | interior | cuts | {NEG_INF, POS_INF, -7, 123.5, 999})
    on_points = st.lists(
        st.sampled_from(points), min_size=2, max_size=2, unique=True
    ).map(lambda pair: Interval(min(pair), max(pair)))

    def inside(row):
        (_, piece) = row
        lo = piece.start if math.isfinite(piece.start) else piece.end - 10
        hi = piece.end if math.isfinite(piece.end) else lo + 10
        if not (math.isfinite(lo) and math.isfinite(hi)):
            lo, hi = 0, 1  # an empty tree: one row over all time
        return Interval(lo + (hi - lo) / 4, lo + (hi - lo) / 2)

    rows = index.range_query(ALL).rows
    return st.one_of(
        on_points,
        st.sampled_from(rows).map(inside),
        st.sampled_from([Interval(-1000, -500), Interval(NEG_INF, -3)]),
        st.just(ALL),
    )


def assert_steps(index, window, want):
    edges, values = index.steps(window)
    assert len(edges) == len(values) + 1
    assert all(a < b for a, b in zip(edges, edges[1:])), edges
    assert (edges[0], edges[-1]) == (window.start, window.end)
    assert list(zip(values, edges, edges[1:])) == [
        (value, piece.start, piece.end) for value, piece in want
    ]
    assert index.range_query(window).rows == want


BACKENDS = [(backend, kind) for backend in ("memory", "paged2", "resident", "sharded")
            for kind in ALL_KINDS] + [("msb", "min"), ("msb", "max")]


@pytest.mark.parametrize("backend,kind", BACKENDS)
@given(data=st.data())
@settings(max_examples=max(1, int(20 * SCALE)), deadline=None)
def test_steps_match_the_generator_walk(backend, kind, data):
    facts, deleted = data.draw(histories(kind))
    with tempfile.TemporaryDirectory() as directory:
        index, trees = build(backend, kind, facts, deleted, directory)
        reference = reference_sharded if backend == "sharded" else reference_rows
        windows = window_strategy(index, trees)
        for window in data.draw(st.lists(windows, min_size=1, max_size=6)):
            assert_steps(index, window, reference(index, window))
        whole = reference(index, ALL)
        assert_steps(index, ALL, whole)
        if backend != "sharded":
            assert list(index.leaf_pieces()) == [
                (value, piece.start, piece.end) for value, piece in whole
            ]
            assert index.to_table(coalesced=False, drop_initial=False).rows == whole
        if backend in ("paged2", "resident"):
            index.store.close()


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(data=st.data())
@settings(max_examples=max(1, int(20 * SCALE)), deadline=None)
def test_served_rows_are_one_pass_over_the_steps(kind, data):
    """``finalized_rows`` is the coalesce + finalize of the table path."""
    facts, deleted = data.draw(histories(kind))
    index, trees = build("sharded", kind, facts, deleted, None)
    for window in data.draw(st.lists(window_strategy(index, trees), min_size=1, max_size=4)):
        table = index.range_query(window).coalesce(index.spec.eq).finalized(index.spec)
        assert finalized_rows(*index.steps(window), index.spec) == [
            [value, piece.start, piece.end] for value, piece in table
        ]


def test_from_steps_rows():
    table = ConstantIntervalTable.from_steps([NEG_INF, 3, 7, POS_INF], [0, 2, 0])
    assert table == ConstantIntervalTable(
        [(0, Interval(NEG_INF, 3)), (2, Interval(3, 7)), (0, Interval(7, POS_INF))]
    )
    assert ConstantIntervalTable.from_steps([4, 9], [1]).rows == [(1, Interval(4, 9))]


# ----------------------------------------------------------------------
# The walk reads the nodes the old one read: pinned counts
# ----------------------------------------------------------------------
COUNT_WINDOWS = [(0, 100_000), (500, 2_500), (40_000, 40_001), (-10, 10), (99_000, 200_000)]


def test_range_reads_pin_node_reads_and_decodes(tmp_path):
    """Rows, ``StoreStats.reads`` and ``decodes`` per window, seed 7:
    the counts the generator walk produced (O(h + r) nodes), read with a
    4-frame pool so the decodes depend on the visiting order too."""
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
