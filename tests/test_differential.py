"""Paged trees against kept reference implementations.

Tiny buffer pools: a paged tree whose pool holds a handful of its pages
answers as the same tree in memory, before and after a reopen.  The
lookup path: ``NodeStore.probe`` answers, and costs, what the
read-then-find loop it replaced did.  (Every route against the oracle
is ``tests/test_oracle_machine.py``.)
"""

import operator
import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro import DualTreeAggregate, Interval, MSBTree, SBTree, check_tree
from repro.core import reference
from repro.sharding import ShardedTree
from repro.storage import PagedNodeStore


def make_workload(seed, n=120):
    rng = random.Random(seed)
    facts = []
    for _ in range(n):
        start = rng.randrange(0, 600)
        length = rng.choice([1, 3, 10, 50, 400])
        facts.append((rng.randint(-5, 9), Interval(start, start + length)))
    return facts


# ----------------------------------------------------------------------
# Tiny buffer pools: live nodes through constant eviction
# ----------------------------------------------------------------------
#: A pool that holds every page: nothing is evicted, and after a commit
#: every read is served a cached clean node.
RESIDENT = 1000


def run_tiny_pool(tmp_path, kind, capacity, *, msb=False, seed=0):
    """One stream into a memory tree and a paged tree whose pool holds
    1-8 of its 75-120 pages, so nodes are evicted mid-operation, held
    across evictions and re-admitted -- or all of them (``RESIDENT``);
    every answer must agree, before and after a close -> reopen."""
    rng = random.Random(1000 * capacity + seed)
    cls = MSBTree if msb else SBTree
    path = str(tmp_path / f"{kind}-{capacity}.sbt")
    store = PagedNodeStore(
        path, kind, page_size=512, buffer_capacity=capacity
    )
    disk = cls(kind, store, branching=5, leaf_capacity=6)
    memory = cls(kind, branching=5, leaf_capacity=6)
    # Long facts would dominate a MIN/MAX tree down to a handful of nodes.
    lengths = [1, 7, 60, 1_500] if disk.spec.invertible else [1, 7, 60]
    live = []
    for n in range(300):
        if disk.spec.invertible and live and rng.random() < 0.2:
            value, interval = live.pop(rng.randrange(len(live)))
            for tree in (disk, memory):
                tree.delete(value, interval)
        else:
            start = rng.randrange(0, 3_000)
            # Quarters are exact in binary, so float sums match the oracle.
            value = rng.choice([rng.randint(-9, 40), rng.randint(-36, 160) / 4])
            interval = Interval(start, start + rng.choice(lengths))
            live.append((value, interval))
            for tree in (disk, memory):
                tree.insert(value, interval)
        if (n + 1) % 50 == 0:
            store.commit()
        if not disk.spec.invertible and (n + 1) % 120 == 0:
            for tree in (disk, memory):
                tree.compact()
    assert disk.height >= 4
    assert disk.node_count() > 8 * capacity or capacity == RESIDENT
    instants = [rng.randrange(-10, 4_600) for _ in range(80)]

    def answers(tree):
        got = [tree.lookup(t) for t in instants]
        got.append(tree.to_table())
        got.append(tree.range_query(Interval(700, 1_900)))
        if msb:
            got.extend(tree.window_lookup(t, 250) for t in instants)
        return got

    expected = answers(memory)
    assert expected[len(instants)] == reference.instantaneous_table(live, kind)
    assert answers(disk) == expected
    check_tree(disk)
    assert disk.node_count() == memory.node_count()
    store.close()
    with PagedNodeStore(path, buffer_capacity=capacity) as reopened:
        again = cls(store=reopened)
        assert answers(again) == expected
        check_tree(again)


@pytest.mark.parametrize("capacity", [1, 2, 3, 8, RESIDENT])
@pytest.mark.parametrize("kind", ["sum", "count", "avg", "min", "max"])
def test_tiny_pool_sbtree_matches_memory_tree(kind, capacity, tmp_path):
    run_tiny_pool(tmp_path, kind, capacity)


@pytest.mark.parametrize("capacity", [1, 2, 3, 8, RESIDENT])
@pytest.mark.parametrize("kind", ["min", "max"])
def test_tiny_pool_msbtree_matches_memory_tree(kind, capacity, tmp_path):
    run_tiny_pool(tmp_path, kind, capacity, msb=True)


# ----------------------------------------------------------------------
# The lookup path: NodeStore.probe against the read-then-find loop
# ----------------------------------------------------------------------
#: 1 under the default profile (100 examples), 5 under ``ci``.
SCALE = settings.default.max_examples / 100


class ReadThenFind(PagedNodeStore):
    """The lookup step ``probe`` replaced: read the whole node, then
    find.  Every lookup route over this store -- trees, dual trees,
    shards, ``wait=False`` -- is the loop before ``probe``."""

    def probe(self, node_id, t):
        node = self.read(node_id)
        i = node.find(t)
        return node.values[i], None if node.is_leaf else node.children[i]


def build(shape, kind, store_of):
    """One structure of *shape* over the stores ``store_of(name)``
    makes (``None``: in memory), and its lookup."""
    geometry = dict(branching=5, leaf_capacity=6)
    if shape in ("sbtree", "msb"):
        tree = (MSBTree if shape == "msb" else SBTree)(kind, store_of("t"), **geometry)
        return tree, lambda t: [tree.lookup(t)]
    if shape == "dual":
        dual = DualTreeAggregate(kind, store_of("c"), store_of("e"), **geometry)
        return dual, lambda t: [dual.lookup(t), dual.window_lookup(t, 250)]
    stores = [store_of(f"s{i}") for i in range(4)]
    sharded = ShardedTree(
        kind, num_shards=4, span=(0, 3_000),
        stores=None if stores[0] is None else stores, **geometry,
    )

    def lookup(t):
        # A shard with nothing unwritten is read as the event loop does.
        store = sharded.shards[sharded.router.shard_of(t)].tree.store
        return [sharded.lookup(t, wait=getattr(store, "dirty", True))]

    return sharded, lookup


def tally(stores):
    """What a lookup costs that ``probe`` must not change."""
    return [
        (s.stats.reads, s.buffer.stats.hits, s.buffer.stats.misses,
         s.buffer.stats.evictions, s.pager.stats.physical_reads)
        for s in stores
    ]


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"), st.integers(-9, 40), st.integers(0, 3_000),
            st.sampled_from([1, 7, 60, 1_500]),
        ),
        st.tuples(st.just("delete"), st.integers(0, 10**6)),
        st.tuples(st.just("lookup"), st.lists(st.integers(-10, 3_100), min_size=1, max_size=8)),
        st.tuples(st.just("commit")),
    ),
    max_size=40,
)


@pytest.mark.parametrize("capacity", [1, 2, 3])
@pytest.mark.parametrize(
    "shape, kind",
    [("sbtree", kind) for kind in ("sum", "count", "avg", "min", "max")]
    + [("msb", "min"), ("msb", "max"), ("dual", "sum"), ("dual", "avg"),
       ("shards", "sum"), ("shards", "max")],
)
@given(seed=st.integers(0, 2**16), stream=ops)
@settings(max_examples=max(1, int(4 * SCALE)), deadline=None)
def test_probe_answers_and_costs_what_read_then_find_did(
    shape, kind, capacity, seed, stream
):
    """A seeded prefill, then *stream*, into a memory structure, one
    over probing page stores and one over ``ReadThenFind`` stores, all
    pools of *capacity* frames.  Every lookup answers the same on all
    three and costs the two paged sides the same reads, hits, misses,
    evictions and page reads; the probing side never decodes more."""
    rng = random.Random(seed)
    invertible = kind in ("sum", "count", "avg")
    with tempfile.TemporaryDirectory() as directory:
        probing, reading = [], []

        def paged(cls, made):
            def store_of(name):
                made.append(cls(
                    os.path.join(directory, f"{cls.__name__}-{name}.sbt"),
                    kind, page_size=512, buffer_capacity=capacity,
                ))
                return made[-1]
            return store_of

        sides = [
            build(shape, kind, lambda name: None),
            build(shape, kind, paged(PagedNodeStore, probing)),
            build(shape, kind, paged(ReadThenFind, reading)),
        ]
        live = []

        def insert(value, start, length):
            if not invertible:
                length = min(length, 60)  # keep MIN/MAX trees deep
            live.append((value, Interval(start, start + length)))
            for structure, _ in sides:
                structure.insert(*live[-1])

        for _ in range(100):
            insert(rng.randint(-9, 40), rng.randrange(0, 3_000), rng.choice([1, 7, 60]))
        for op, *args in stream:
            if op == "insert":
                insert(*args)
            elif op == "delete" and invertible and live:
                fact = live.pop(args[0] % len(live))
                for structure, _ in sides:
                    structure.delete(*fact)
            elif op == "commit":
                for store in probing + reading:
                    store.commit()
            elif op == "lookup":
                for t in args[0]:
                    before = tally(probing), tally(reading)
                    answers = [lookup(t) for _, lookup in sides]
                    assert answers[1] == answers[0] and answers[2] == answers[0]
                    costs = [
                        [tuple(map(operator.sub, *pair)) for pair in zip(tally(made), then)]
                        for made, then in zip((probing, reading), before)
                    ]
                    assert costs[0] == costs[1]
        assert sum(s.stats.decodes for s in probing) <= sum(
            s.stats.decodes for s in reading
        )
        for store in probing + reading:
            store.close()


def filled_tree(path):
    store = PagedNodeStore(path, "sum", page_size=512, buffer_capacity=1000)
    tree = SBTree("sum", store, branching=5, leaf_capacity=6)
    memory = SBTree("sum", branching=5, leaf_capacity=6)
    for fact in make_workload(7, n=300):
        tree.insert(*fact)
        memory.insert(*fact)
    store.commit()
    return store, tree, memory


def test_a_reopened_resident_tree_decodes_each_page_once(tmp_path):
    """Lookups over a reopened tree whose pool holds the file: a page's
    first lookup reads one slot off its bytes, its second decodes it,
    and from then on it is a pointer chase."""
    path = str(tmp_path / "resident.sbt")
    store, _, memory = filled_tree(path)
    store.close()
    instants = list(range(-5, 1_000, 3))
    with PagedNodeStore(path, buffer_capacity=1000) as reopened:
        tree = SBTree(store=reopened)
        for _ in range(3):
            assert [tree.lookup(t) for t in instants] == [
                memory.lookup(t) for t in instants
            ]
        frames = reopened.buffer._frames
        # Every page was looked up at least twice: each decoded once.
        assert reopened.stats.decodes == len(frames) == reopened.buffer.stats.misses
        assert all(frame.node is not None for frame in frames.values())
        before = reopened.stats.decodes
        for t in instants:
            tree.lookup(t)
        assert reopened.stats.decodes == before


def test_a_lookup_after_revert_unwritten_reads_the_last_written_bytes(tmp_path):
    store, tree, memory = filled_tree(str(tmp_path / "revert.sbt"))
    t = 321
    expected = memory.lookup(t)
    # Walk to the leaf holding t and change it without writing it.
    node = store.read(tree._root_id)
    while not node.is_leaf:
        node = store.read(node.children[node.find(t)])
    node.values[node.find(t)] += 1_000
    assert tree.lookup(t) == expected + 1_000  # the live node, unwritten
    store.revert_unwritten()
    assert tree.lookup(t) == expected
    assert tree.lookup(t) == expected  # the decoded frame, second use
    store.close()
