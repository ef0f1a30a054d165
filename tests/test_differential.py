"""Paged trees against the same trees in memory.

Tiny buffer pools: a paged tree whose pool holds a handful of its pages
answers as the same tree in memory, before and after a reopen.  The
lookup path: ``NodeStore.descend`` decodes a page on its second use, and
reads the last written bytes after ``revert_unwritten``.  (Every route
against the oracle, and a lookup's h node reads, pool accesses and page
reads, are ``tests/test_oracle_machine.py``.)
"""

import random

import pytest

from repro import Interval, MSBTree, SBTree, check_tree
from repro.core import reference
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
# The lookup path: what NodeStore.descend decodes
# ----------------------------------------------------------------------
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
