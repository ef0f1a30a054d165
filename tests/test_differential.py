"""Differential fuzzing: every structure answers every query identically.

One random workload is replayed into *all* computation routes at once --
the SB-tree (memory and disk), the MSB-tree, the dual-tree pair, the
fixed-window trees, the directly materialized view, every one-shot
baseline and the brute-force oracle -- and their answers are compared
pairwise at many instants, windows and ranges.  Any divergence anywhere
in the stack fails loudly with the seed that produced it.
"""

import random

import pytest

from repro import (
    DualTreeAggregate,
    FixedWindowTree,
    Interval,
    MSBTree,
    SBTree,
    check_tree,
)
from repro.baselines import (
    aggregation_tree,
    balanced_tree,
    bucket,
    endpoint_sort,
    merge_sort,
    naive,
)
from repro.core import reference
from repro.storage import PagedNodeStore
from repro.warehouse import MaterializedView


def make_workload(seed, n=120):
    rng = random.Random(seed)
    facts = []
    for _ in range(n):
        start = rng.randrange(0, 600)
        length = rng.choice([1, 3, 10, 50, 400])
        facts.append((rng.randint(-5, 9), Interval(start, start + length)))
    return facts


@pytest.mark.parametrize("seed", range(6))
def test_instantaneous_sum_everywhere(seed, tmp_path):
    facts = make_workload(seed)
    oracle = reference.instantaneous_table(facts, "sum")

    routes = {}
    tree = SBTree("sum", branching=5, leaf_capacity=7)
    for value, interval in facts:
        tree.insert(value, interval)
    routes["sbtree"] = tree.to_table()

    with PagedNodeStore(
        str(tmp_path / f"d{seed}.sbt"), "sum", page_size=1024, buffer_capacity=6
    ) as store:
        disk = SBTree("sum", store, branching=6, leaf_capacity=6)
        for value, interval in facts:
            disk.insert(value, interval)
        routes["disk"] = disk.to_table()

    view = MaterializedView("sum")
    for value, interval in facts:
        view.insert(value, interval)
    routes["materialized"] = view.to_table()

    routes["naive"] = naive.compute(facts, "sum")
    routes["endpoint"] = endpoint_sort.compute(facts, "sum")
    routes["balanced"] = balanced_tree.compute(facts, "sum")
    routes["aggr_tree"] = aggregation_tree.compute(facts, "sum")
    routes["bucket"] = bucket.compute(facts, "sum", num_buckets=7)
    routes["merge_sort"] = merge_sort.compute(facts, "sum")

    for name, table in routes.items():
        assert table == oracle, f"route {name!r} diverged (seed={seed})"
    check_tree(tree)


@pytest.mark.parametrize("seed", range(6))
def test_cumulative_sum_everywhere(seed):
    facts = make_workload(seed, n=80)
    dual = DualTreeAggregate("sum", branching=5, leaf_capacity=5)
    fixed = {w: FixedWindowTree("sum", window=w, branching=5, leaf_capacity=5)
             for w in (0, 7, 100)}
    for value, interval in facts:
        dual.insert(value, interval)
        for tree in fixed.values():
            tree.insert(value, interval)
    rng = random.Random(seed * 31 + 7)
    for _ in range(40):
        t = rng.randrange(-50, 1200)
        for w in (0, 7, 100):
            expected = reference.cumulative_value(facts, "sum", t, w)
            assert dual.window_lookup(t, w) == expected, (seed, t, w)
            assert fixed[w].lookup(t) == expected, (seed, t, w)


@pytest.mark.parametrize("seed", range(6))
def test_cumulative_max_everywhere(seed):
    facts = [(abs(v), i) for v, i in make_workload(seed, n=80)]
    msb = MSBTree("max", branching=5, leaf_capacity=5)
    fixed = {w: FixedWindowTree("max", window=w, branching=5, leaf_capacity=5)
             for w in (0, 7, 100)}
    for value, interval in facts:
        msb.insert(value, interval)
        for tree in fixed.values():
            tree.insert(value, interval)
    check_tree(msb)
    rng = random.Random(seed * 17 + 3)
    for _ in range(40):
        t = rng.randrange(-50, 1200)
        for w in (0, 7, 100):
            expected = reference.cumulative_value(facts, "max", t, w)
            assert msb.window_lookup(t, w) == expected, (seed, t, w)
            assert fixed[w].lookup(t) == expected, (seed, t, w)


@pytest.mark.parametrize("seed", range(4))
def test_delete_heavy_stream_everywhere(seed):
    rng = random.Random(seed + 100)
    tree = SBTree("avg", branching=5, leaf_capacity=5)
    dual = DualTreeAggregate("avg", branching=4, leaf_capacity=6)
    view = MaterializedView("avg")
    live = []
    for step in range(250):
        if live and rng.random() < 0.45:
            value, interval = live.pop(rng.randrange(len(live)))
            tree.delete(value, interval)
            dual.delete(value, interval)
            view.delete(value, interval)
        else:
            start = rng.randrange(0, 500)
            fact = (rng.randint(1, 9), Interval(start, start + rng.choice([2, 20, 200])))
            live.append(fact)
            tree.insert(*fact)
            dual.insert(*fact)
            view.insert(*fact)
        if step % 50 == 49:
            oracle = reference.instantaneous_table(live, "avg")
            assert tree.to_table() == oracle, seed
            assert view.to_table() == oracle, seed
            assert dual.current.to_table() == oracle, seed
            check_tree(tree)


@pytest.mark.parametrize("seed", range(4))
def test_range_queries_everywhere(seed):
    facts = make_workload(seed)
    tree = SBTree("count", branching=5, leaf_capacity=5)
    view = MaterializedView("count")
    for value, interval in facts:
        tree.insert(1, interval)
        view.insert(1, interval)
    oracle = reference.instantaneous_table(
        [(1, i) for _, i in facts], "count", drop_initial=False
    )
    rng = random.Random(seed)
    for _ in range(25):
        lo = rng.randrange(-20, 1000)
        window = Interval(lo, lo + rng.randrange(1, 300))
        want = oracle.restrict(window).coalesce()
        assert tree.range_query(window).coalesce(tree.spec.eq) == want


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
