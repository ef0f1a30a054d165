"""Tests for the time-range sharding layer (repro.sharding)."""

import random
import threading

import pytest

from repro import Interval, SBTree
from repro.core import reference
from repro.core.intervals import NEG_INF, POS_INF
from repro.sharding import (
    ShardedTree,
    ShardingError,
    ShardRouter,
    WindowUnsupportedError,
    even_boundaries,
)


class TestShardRouter:
    def test_rejects_bad_boundaries(self):
        with pytest.raises(ShardingError):
            ShardRouter([30, 10])  # unsorted
        with pytest.raises(ShardingError):
            ShardRouter([10, 10])  # duplicate
        with pytest.raises(ShardingError):
            ShardRouter([10, POS_INF])  # infinite cut

    def test_ranges_cover_timeline(self):
        router = ShardRouter([10, 20, 30])
        assert router.num_shards == 4
        assert router.range_of(0) == Interval(NEG_INF, 10)
        assert router.range_of(1) == Interval(10, 20)
        assert router.range_of(3) == Interval(30, POS_INF)
        # Adjacent ranges tile: each end is the next start.
        for i in range(router.num_shards - 1):
            assert router.range_of(i).end == router.range_of(i + 1).start

    def test_instant_at_boundary_goes_right(self):
        router = ShardRouter([10, 20])
        assert router.shard_of(9) == 0
        assert router.shard_of(10) == 1  # half-open: boundary starts shard 1
        assert router.shard_of(19) == 1
        assert router.shard_of(20) == 2

    def test_interval_ending_at_boundary_stays_left(self):
        router = ShardRouter([10, 20])
        # [5, 10) never contains instant 10, so shard 1 is not touched.
        assert list(router.overlapping(Interval(5, 10))) == [0]
        assert list(router.overlapping(Interval(5, 11))) == [0, 1]
        assert list(router.overlapping(Interval(10, 20))) == [1]

    def test_split_tiles_the_input(self):
        router = ShardRouter([10, 20, 30])
        pieces = list(router.split(Interval(5, 35)))
        assert [index for index, _ in pieces] == [0, 1, 2, 3]
        assert [p for _, p in pieces] == [
            Interval(5, 10),
            Interval(10, 20),
            Interval(20, 30),
            Interval(30, 35),
        ]
        # Unbounded facts split too (outer shards are unbounded).
        pieces = list(router.split(Interval(NEG_INF, POS_INF)))
        assert len(pieces) == 4
        assert pieces[0][1] == Interval(NEG_INF, 10)
        assert pieces[-1][1] == Interval(30, POS_INF)

    def test_even_boundaries(self):
        assert even_boundaries(0, 100, 4) == [25, 50, 75]
        assert even_boundaries(0, 100, 1) == []
        # Int endpoints stay ints.
        assert all(isinstance(b, int) for b in even_boundaries(0, 7, 3))
        # Degenerate spans deduplicate repeated cuts.
        assert even_boundaries(0, 2, 4) == [0, 1]
        with pytest.raises(ShardingError):
            even_boundaries(10, 10, 2)


def random_facts(rng, n, lo=0, hi=1000, max_width=120):
    facts = []
    for _ in range(n):
        s = rng.randint(lo, hi - 1)
        e = s + rng.randint(1, max_width)
        facts.append((rng.randint(1, 9), Interval(s, e)))
    return facts


class TestShardedTreeCorrectness:
    def test_fact_exactly_at_boundary(self):
        sharded = ShardedTree("sum", [100, 200])
        # Starts at one cut, ends at the next: lands wholly in shard 1.
        sharded.insert(5, Interval(100, 200))
        assert sharded.pieces_applied == [0, 1, 0]
        assert sharded.lookup(99) == 0
        assert sharded.lookup(100) == 5
        assert sharded.lookup(199) == 5
        assert sharded.lookup(200) == 0
        assert sharded.to_table().rows == [(5, Interval(100, 200))]

    def test_fact_spanning_three_plus_shards(self):
        sharded = ShardedTree("count", [100, 200, 300, 400])
        sharded.insert(1, Interval(50, 450))  # touches all 5 shards
        assert sharded.pieces_applied == [1, 1, 1, 1, 1]
        assert sharded.facts_applied == 1
        # Splitting must not double-count: one fact, value 1 everywhere.
        assert sharded.to_table().rows == [(1, Interval(50, 450))]
        for t in [50, 99, 100, 250, 399, 400, 449]:
            assert sharded.lookup(t) == 1

    def test_empty_shards_answer_identity(self):
        sharded = ShardedTree("sum", [100, 200, 300])
        sharded.insert(7, Interval(110, 120))  # only shard 1 has data
        assert sharded.lookup(50) == 0
        assert sharded.lookup(250) == 0
        assert sharded.lookup(500) == 0
        table = sharded.range_query(Interval(0, 400)).coalesce(
            sharded.spec.eq
        )
        single = SBTree("sum")
        single.insert(7, Interval(110, 120))
        assert table == single.range_query(Interval(0, 400)).coalesce(
            single.spec.eq
        )
        stats = sharded.stats()
        assert [s["pieces"] for s in stats["shards"]] == [0, 1, 0, 0]

class TestShardedWindow:
    @pytest.mark.parametrize("kind", ["sum", "count", "avg"])
    def test_invertible_kinds_refuse(self, kind):
        sharded = ShardedTree(kind, [100])
        sharded.insert(2, Interval(0, 50))
        with pytest.raises(WindowUnsupportedError):
            sharded.window_lookup(60, 30)

    def test_negative_window_rejected(self):
        sharded = ShardedTree("min", [100])
        with pytest.raises(ShardingError):
            sharded.window_lookup(50, -1)

    def test_nan_window_rejected(self):
        sharded = ShardedTree("max", [100])
        sharded.insert(3, Interval(10, 60))
        with pytest.raises(ShardingError):
            sharded.window_lookup(50, float("nan"))

    @pytest.mark.parametrize("wait", [True, False])
    def test_nan_instant_rejected(self, wait):
        sharded = ShardedTree("sum", [100])
        sharded.insert(3, Interval(10, 160))
        with pytest.raises(ShardingError):
            sharded.lookup(float("nan"), wait=wait)


class TestShardedTreeConfig:
    def test_needs_boundaries_or_span(self):
        with pytest.raises(ShardingError):
            ShardedTree("sum")
        with pytest.raises(ShardingError):
            ShardedTree("sum", num_shards=4)  # span missing

    def test_num_shards_span_convenience(self):
        sharded = ShardedTree("sum", num_shards=4, span=(0, 100))
        assert sharded.num_shards == 4
        assert list(sharded.router.boundaries) == [25, 50, 75]

    def test_store_count_must_match(self):
        from repro.core.nodestore import MemoryNodeStore

        with pytest.raises(ShardingError):
            ShardedTree("sum", [100], stores=[MemoryNodeStore()])

    def test_paged_stores(self, tmp_path):
        from repro.storage import PagedNodeStore

        stores = [
            PagedNodeStore(str(tmp_path / f"shard-{i}.sbt"), "sum")
            for i in range(3)
        ]
        sharded = ShardedTree("sum", [100, 200], stores=stores)
        sharded.insert(4, Interval(50, 250))
        assert sharded.lookup(150) == 4
        sharded.close()
        # Shards persisted: reopen and read back.
        stores = [
            PagedNodeStore(str(tmp_path / f"shard-{i}.sbt"))
            for i in range(3)
        ]
        reopened = ShardedTree("sum", [100, 200], stores=stores)
        assert reopened.lookup(150) == 4
        assert reopened.to_table().rows == [(4, Interval(50, 250))]
        reopened.close()

    def test_paged_shards_are_exact_for_nanosecond_instants(self, tmp_path):
        # Four frames per shard, so pages are evicted and read back:
        # an answer must not change once its page has left the pool.
        base = 1_700_000_000_000_000_000
        rng = random.Random(50)
        facts = []
        for _ in range(300):
            start = base + rng.randrange(10**6)
            facts.append((rng.randrange(1, 9), Interval(start, start + 1 + rng.randrange(3))))
        sharded = ShardedTree.open(
            str(tmp_path), "sum", num_shards=4, span=(base, base + 10**6),
            buffer_capacity=4,
        )
        try:
            sharded.batch_insert(facts[:150])
            sharded.commit()
            for value, interval in facts[150:]:
                sharded.insert(value, interval)
            sharded.commit()
            for _, interval in facts[::7]:
                for t in (interval.start - 1, interval.start, interval.end - 1, interval.end):
                    assert sharded.lookup(t) == reference.instantaneous_value(facts, "sum", t)
            assert sharded.to_table() == reference.instantaneous_table(facts, "sum")
        finally:
            sharded.close()

    def test_stats_shape(self):
        sharded = ShardedTree("avg", [10, 20])
        sharded.insert(6, Interval(5, 25))
        stats = sharded.stats()
        assert stats["kind"] == "avg"
        assert stats["num_shards"] == 3
        assert stats["boundaries"] == [10, 20]
        assert stats["facts"] == 1
        assert len(stats["shards"]) == 3
        assert stats["shards"][0]["range"] == [NEG_INF, 10]


class TestShardedConcurrency:
    def test_parallel_writers_disjoint_shards(self):
        """Writers on different time bands proceed concurrently and the
        merged result matches the oracle."""
        sharded = ShardedTree("sum", [1000, 2000, 3000],
                              branching=4, leaf_capacity=4)
        rng = random.Random(17)
        bands = [(0, 999), (1000, 1999), (2000, 2999), (3000, 3999)]
        per_band = [
            random_facts(rng, 50, lo, hi - 60, 50) for lo, hi in bands
        ]
        barrier = threading.Barrier(len(bands), timeout=10)

        def writer(facts):
            barrier.wait()
            for value, iv in facts:
                sharded.insert(value, iv)

        threads = [
            threading.Thread(target=writer, args=(facts,))
            for facts in per_band
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        flat = [fact for facts in per_band for fact in facts]
        assert sharded.to_table() == reference.instantaneous_table(flat, "sum")
        sharded.check()


class TestShardedFaults:
    def test_crash_point_leaves_shard_state_intact(self):
        from repro.faults import FaultInjector, SimulatedCrash

        injector = FaultInjector()
        sharded = ShardedTree("sum", [100], fault_injector=injector)
        sharded.insert(3, Interval(0, 50))  # one shard touched: hit 1
        before = sharded.to_table()
        injector.crash_at("shard_apply", hit=2)
        with pytest.raises(SimulatedCrash):
            sharded.insert(9, Interval(10, 20))
        # The failed insert touched nothing: state identical, counts too.
        assert sharded.to_table() == before
        assert sharded.facts_applied == 1
        sharded.check()

    def test_per_shard_crash_point(self):
        from repro.faults import FaultInjector, SimulatedCrash

        injector = FaultInjector()
        injector.crash_at("shard_apply:1")
        sharded = ShardedTree("sum", [100], fault_injector=injector)
        sharded.insert(3, Interval(0, 50))  # shard 0 only: fine
        with pytest.raises(SimulatedCrash):
            sharded.insert(4, Interval(150, 160))  # shard 1: boom
        assert sharded.lookup(25) == 3
        assert sharded.lookup(155) == 0
