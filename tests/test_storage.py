"""Tests for the disk substrate: pager, buffer pool, codec, paged store."""

import struct

import pytest

from repro import Interval, MSBTree, SBTree, check_tree
from repro.core import reference
from repro.core.nodes import Node
from repro.core.values import spec_for
from repro.storage import (
    BufferPool,
    NodeCodec,
    NodeEncodingError,
    PageCorruptionError,
    PagedNodeStore,
    Pager,
)
from repro.workloads import PRESCRIPTIONS


# ----------------------------------------------------------------------
# Pager
# ----------------------------------------------------------------------
class TestPager:
    def test_create_and_reopen(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        with Pager(path, page_size=1024) as pager:
            pid = pager.allocate_page()
            pager.write_page(pid, b"hello world")
            pager.set_root(pid)
            pager.set_meta("kind", "sum")
        with Pager(path) as pager:
            assert pager.page_size == 1024
            assert pager.get_root() == pid
            assert pager.get_meta("kind") == "sum"
            assert pager.read_page(pid).rstrip(b"\x00") == b"hello world"

    def test_free_list_reuses_pages(self, tmp_path):
        with Pager(str(tmp_path / "t.sbt")) as pager:
            a = pager.allocate_page()
            b = pager.allocate_page()
            count = pager.page_count
            pager.free_page(a)
            pager.free_page(b)
            # LIFO reuse: most recently freed first.
            assert pager.allocate_page() == b
            assert pager.allocate_page() == a
            assert pager.page_count == count

    def test_live_node_count(self, tmp_path):
        with Pager(str(tmp_path / "t.sbt")) as pager:
            assert pager.live_nodes == 0
            a = pager.allocate_page()
            pager.allocate_page()
            assert pager.live_nodes == 2
            pager.free_page(a)
            assert pager.live_nodes == 1

    def test_checksum_detects_corruption(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        with Pager(path, page_size=512) as pager:
            pid = pager.allocate_page()
            pager.write_page(pid, b"payload")
        with open(path, "r+b") as f:
            f.seek(pid * 512 + 3)
            f.write(b"\xff")
        with Pager(path) as pager:
            with pytest.raises(PageCorruptionError):
                pager.read_page(pid)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        with open(path, "wb") as f:
            f.write(b"NOTMAGIC" + b"\x00" * 600)
        with pytest.raises(PageCorruptionError):
            Pager(path)

    def test_out_of_range_page(self, tmp_path):
        with Pager(str(tmp_path / "t.sbt")) as pager:
            with pytest.raises(ValueError):
                pager.read_page(99)
            with pytest.raises(ValueError):
                pager.read_page(0)  # the header page is not a data page

    def test_oversized_payload_rejected(self, tmp_path):
        with Pager(str(tmp_path / "t.sbt"), page_size=512) as pager:
            pid = pager.allocate_page()
            with pytest.raises(ValueError):
                pager.write_page(pid, b"x" * 600)

    def test_io_counters(self, tmp_path):
        with Pager(str(tmp_path / "t.sbt")) as pager:
            pid = pager.allocate_page()
            pager.stats.reset()
            pager.write_page(pid, b"abc")
            pager.read_page(pid)
            # A page write is a WAL frame; the data file waits for a
            # checkpoint.
            assert pager.stats.wal_frames == 1
            assert pager.stats.physical_writes == 0
            assert pager.stats.physical_reads == 1


# ----------------------------------------------------------------------
# Buffer pool
# ----------------------------------------------------------------------
class TestBufferPool:
    def make(self, tmp_path, capacity):
        pager = Pager(str(tmp_path / "t.sbt"), page_size=512)
        return pager, BufferPool(pager, capacity=capacity)

    def test_hit_and_miss_accounting(self, tmp_path):
        pager, pool = self.make(tmp_path, capacity=4)
        pid = pager.allocate_page()
        pager.write_page(pid, b"x")
        pool.frame(pid)
        pool.frame(pid)
        assert pool.stats.misses == 1
        assert pool.stats.hits == 1

    def test_write_back_is_deferred(self, tmp_path):
        pager, pool = self.make(tmp_path, capacity=4)
        pid = pager.allocate_page()
        pager.stats.reset()
        pool.write(pid, b"dirty", None)
        assert pager.stats.wal_frames == 0
        pool.flush()
        assert pager.stats.wal_frames == 1
        assert pager.read_page(pid).rstrip(b"\x00") == b"dirty"

    def test_eviction_writes_back_dirty_pages(self, tmp_path):
        pager, pool = self.make(tmp_path, capacity=2)
        pids = [pager.allocate_page() for _ in range(3)]
        pager.stats.reset()
        for i, pid in enumerate(pids):
            pool.write(pid, b"p%d" % i, None)
        assert pool.stats.evictions == 1
        assert pool.stats.dirty_writebacks == 1
        assert len(pool) == 2
        # The evicted page must be durable.
        assert pager.read_page(pids[0]).rstrip(b"\x00") == b"p0"

    def test_lru_order(self, tmp_path):
        pager, pool = self.make(tmp_path, capacity=2)
        a, b, c = (pager.allocate_page() for _ in range(3))
        pool.write(a, b"a", None)
        pool.write(b, b"b", None)
        pool.frame(a)  # refresh a; b becomes the LRU victim
        pool.write(c, b"c", None)
        assert pager.read_page(b).rstrip(b"\x00") == b"b"  # b was evicted
        pager.stats.reset()
        pool.frame(a)  # still cached
        assert pager.stats.physical_reads == 0

    def test_discard_drops_without_writeback(self, tmp_path):
        pager, pool = self.make(tmp_path, capacity=4)
        pid = pager.allocate_page()
        pager.write_page(pid, b"old")
        pager.stats.reset()
        pool.write(pid, b"new", None)
        pool.discard(pid)
        pool.flush()
        assert pager.stats.wal_frames == 0

    def test_capacity_validation(self, tmp_path):
        pager, _ = self.make(tmp_path, capacity=1)
        with pytest.raises(ValueError):
            BufferPool(pager, capacity=0)


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class TestNodeCodec:
    @pytest.mark.parametrize("kind", ["sum", "count", "min", "max"])
    def test_leaf_roundtrip(self, kind):
        codec = NodeCodec(spec_for(kind), payload_size=4092)
        node = Node(
            node_id=7, is_leaf=True, times=[5, 10, 20], values=[0, 2, 8, None if kind in ("min", "max") else 6]
        )
        decoded = codec.decode(codec.encode(node), 7)
        assert decoded.is_leaf
        assert decoded.times == node.times
        assert decoded.values == node.values
        assert decoded.children == []
        assert decoded.uvalues is None

    def test_interior_roundtrip(self):
        codec = NodeCodec(spec_for("sum"), payload_size=4092)
        node = Node(
            node_id=3,
            is_leaf=False,
            times=[15, 30, 45],
            values=[0, 1, 0, 0],
            children=[11, 12, 13, 14],
        )
        decoded = codec.decode(codec.encode(node), 3)
        assert not decoded.is_leaf
        assert decoded.children == node.children
        assert decoded.values == node.values

    def test_avg_pair_roundtrip(self):
        codec = NodeCodec(spec_for("avg"), payload_size=4092)
        node = Node(node_id=1, is_leaf=True, times=[10], values=[(2, 1), (8, 4)])
        decoded = codec.decode(codec.encode(node), 1)
        assert decoded.values == [(2, 1), (8, 4)]

    def test_msb_uvalues_roundtrip(self):
        codec = NodeCodec(spec_for("max"), payload_size=4092)
        node = Node(
            node_id=2,
            is_leaf=False,
            times=[30],
            values=[None, 4],
            children=[5, 6],
            uvalues=[3, None],
        )
        decoded = codec.decode(codec.encode(node), 2)
        assert decoded.uvalues == [3, None]
        assert decoded.values == [None, 4]

    def test_float_values_survive(self):
        codec = NodeCodec(spec_for("sum"), payload_size=4092)
        node = Node(node_id=1, is_leaf=True, times=[1.5], values=[0.25, -3.75])
        decoded = codec.decode(codec.encode(node), 1)
        assert decoded.times == [1.5]
        assert decoded.values == [0.25, -3.75]

    def test_capacity_bounds_include_overflow_slack(self):
        # A node may transiently hold capacity+2 intervals right before
        # a split (Section 3.5); that state must still fit the page.
        codec = NodeCodec(spec_for("sum"), payload_size=4092)
        l = codec.max_leaf_capacity()
        node = Node(
            node_id=1,
            is_leaf=True,
            times=list(range(l + 1)),
            values=[1] * (l + 2),
        )
        codec.encode(node)  # capacity + 2: must fit
        node.times.append(l + 2)
        node.values.append(1)
        with pytest.raises(NodeEncodingError):
            codec.encode(node)

    def test_avg_nodes_have_smaller_fanout(self):
        sum_codec = NodeCodec(spec_for("sum"), payload_size=4092)
        avg_codec = NodeCodec(spec_for("avg"), payload_size=4092)
        assert avg_codec.max_branching(False) < sum_codec.max_branching(False)

    def test_annotated_nodes_have_smaller_fanout(self):
        # Section 4.3: MSB-trees have a smaller maximum branching factor.
        codec = NodeCodec(spec_for("max"), payload_size=4092)
        assert codec.max_branching(True) < codec.max_branching(False)

    def test_unencodable_fields_raise_a_typed_error(self):
        codec = NodeCodec(spec_for("sum"), payload_size=508)
        for bad in (None, "3", 10**400):
            node = Node(node_id=4, is_leaf=True, times=[bad], values=[1, 2])
            with pytest.raises(NodeEncodingError, match="not a number"):
                codec.encode(node)
        interior = Node(4, False, times=[5], values=[1, 2], children=[7, 2**63])
        with pytest.raises(NodeEncodingError):
            codec.encode(interior)

    @pytest.mark.parametrize("kind", ["sum", "avg", "max"])
    def test_impossible_pages_raise_a_typed_error(self, kind):
        # A page whose declared shape needs more bytes than it has must
        # not leak struct.error (fsck and the stores catch the typed one).
        codec = NodeCodec(spec_for(kind), payload_size=508)
        value = (1, 1) if kind == "avg" else 1
        node = Node(
            node_id=4,
            is_leaf=False,
            times=[10, 20],
            values=[value] * 3,
            children=[5, 6, 7],
            uvalues=[value] * 3,
        )
        payload = codec.encode(node)
        assert codec.decode(payload, 4) == node
        with pytest.raises(NodeEncodingError, match="declares 3 intervals"):
            codec.decode(payload[:-1], 4)  # truncated
        for cut in (0, 3):
            with pytest.raises(NodeEncodingError, match="no node header"):
                codec.decode(payload[:cut], 4)
        page = payload.ljust(508, b"\x00")
        inflated = struct.pack("<BBH", page[0], 0, 0xFFFF) + page[4:]
        with pytest.raises(NodeEncodingError, match="declares 65535 intervals"):
            codec.decode(inflated, 4)

    def test_flags_that_outgrow_the_page_raise_a_typed_error(self):
        # A full leaf re-flagged as an annotated interior node claims two
        # more sections than the page has room for.
        codec = NodeCodec(spec_for("sum"), payload_size=508)
        leaf = Node(node_id=4, is_leaf=True, times=list(range(29)), values=[1] * 30)
        page = codec.encode(leaf).ljust(508, b"\x00")
        with pytest.raises(NodeEncodingError, match="declares 30 intervals"):
            codec.decode(b"\x02" + page[1:], 4)


# ----------------------------------------------------------------------
# Paged node store end-to-end
# ----------------------------------------------------------------------
class TestPagedNodeStore:
    def build(self, store, kind="sum"):
        tree = SBTree(kind, store, branching=8, leaf_capacity=8)
        for p in PRESCRIPTIONS:
            tree.insert(p.dosage, p.valid)
        return tree

    def test_tree_on_disk_matches_memory(self, tmp_path):
        store = PagedNodeStore(str(tmp_path / "t.sbt"), "sum")
        disk_tree = self.build(store)
        expected = SBTree("sum", branching=8, leaf_capacity=8)
        for p in PRESCRIPTIONS:
            expected.insert(p.dosage, p.valid)
        assert disk_tree.to_table() == expected.to_table()
        check_tree(disk_tree)
        store.close()

    def test_close_and_reopen(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        store = PagedNodeStore(path, "sum")
        tree = self.build(store)
        expected = tree.to_table()
        store.close()
        reopened = PagedNodeStore(path)
        tree2 = SBTree(store=reopened)
        assert tree2.kind.value == "sum"
        assert tree2.b == 8 and tree2.l == 8
        assert tree2.to_table() == expected
        assert tree2.lookup(19) == 6
        reopened.close()

    def test_updates_after_reopen(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        with PagedNodeStore(path, "sum") as store:
            self.build(store)
        with PagedNodeStore(path) as store:
            tree = SBTree(store=store)
            tree.insert(5, Interval(15, 45))
            assert tree.lookup(19) == 11
            check_tree(tree)

    def test_msb_tree_on_disk(self, tmp_path):
        with PagedNodeStore(str(tmp_path / "m.sbt"), "max") as store:
            msb = MSBTree("max", store, branching=4, leaf_capacity=4)
            for p in PRESCRIPTIONS:
                msb.insert(p.dosage, p.valid)
            assert msb.window_lookup(50, 20) == 4
            check_tree(msb)

    def test_kind_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        with PagedNodeStore(path, "sum") as store:
            self.build(store)
        with PagedNodeStore(path) as store:
            with pytest.raises(ValueError):
                SBTree("max", store)

    def test_page_derived_capacities(self, tmp_path):
        with PagedNodeStore(str(tmp_path / "t.sbt"), "sum", page_size=4096) as store:
            # ~4 KiB pages hold hundreds of intervals, per the paper's
            # "b and l are on the order of hundreds" remark.
            assert store.default_branching > 100
            assert store.default_leaf_capacity > store.default_branching
            assert store.default_branching_annotated < store.default_branching

    def test_buffer_pool_absorbs_io(self, tmp_path):
        with PagedNodeStore(
            str(tmp_path / "t.sbt"), "sum", buffer_capacity=128
        ) as store:
            tree = self.build(store)
            store.pager.stats.reset()
            for _ in range(50):
                tree.lookup(19)
            # All lookups served from the pool: zero physical reads.
            assert store.pager.stats.physical_reads == 0

    def test_random_workload_on_disk_matches_oracle(self, tmp_path):
        import random

        rng = random.Random(42)
        facts = []
        with PagedNodeStore(
            str(tmp_path / "t.sbt"), "count", buffer_capacity=8
        ) as store:
            tree = SBTree("count", store, branching=4, leaf_capacity=4)
            for _ in range(120):
                start = rng.randrange(0, 300)
                interval = Interval(start, start + rng.randrange(1, 80))
                facts.append((1, interval))
                tree.insert(1, interval)
            for victim in facts[::4]:
                tree.delete(victim[0], victim[1])
            live = [f for i, f in enumerate(facts) if i % 4 != 0]
            assert tree.to_table() == reference.instantaneous_table(live, "count")
            check_tree(tree)

    def test_freed_pages_are_reused(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        with PagedNodeStore(path, "sum") as store:
            tree = SBTree("sum", store, branching=4, leaf_capacity=4)
            for p in PRESCRIPTIONS:
                tree.insert(p.dosage, p.valid)
            grown = store.pager.page_count
            for p in reversed(PRESCRIPTIONS):
                tree.delete(p.dosage, p.valid)
            assert store.node_count() == 1
            tree2 = SBTree("sum", branching=4, leaf_capacity=4)
            # Re-inserting must not grow the file: pages come off the
            # free list.
            for p in PRESCRIPTIONS:
                tree.insert(p.dosage, p.valid)
            assert store.pager.page_count == grown


# ----------------------------------------------------------------------
# Decoded frames: every frame hands out its live node, dirty or clean;
# payloads stay snapshots
# ----------------------------------------------------------------------
class TestLiveNodes:
    def store(self, tmp_path, capacity):
        return PagedNodeStore(
            str(tmp_path / "live.sbt"), "sum", page_size=512,
            buffer_capacity=capacity,
        )

    def leaf(self, store, values):
        node = store.allocate(is_leaf=True)
        node.values = list(values)
        node.times = list(range(1, len(values)))
        store.write(node)
        return node

    def test_dirty_and_clean_frames_return_their_node(self, tmp_path):
        store = self.store(tmp_path, capacity=4)
        a = self.leaf(store, [1, 2, 3])
        assert store.read(a.node_id) is a  # allocate installed it
        store.buffer.flush()  # written back: the frame keeps its node
        assert store.buffer._frames[a.node_id].node is a
        assert store.read(a.node_id) is a
        store.commit()
        assert store.read(a.node_id) is a and store.stats.decodes == 0
        store.buffer.discard(a.node_id)
        decoded = store.read(a.node_id)  # miss: fetched, decoded, installed
        assert decoded is not a and decoded == a
        assert store.read(a.node_id) is decoded  # one decode per miss
        assert store.stats.decodes == 1
        assert (store.buffer.stats.hits, store.buffer.stats.misses) == (4, 1)
        decoded.values[0] = 10
        store.write(decoded)  # dirty again, with that object
        assert store.read(a.node_id) is decoded
        store.close()

    def test_a_lookup_miss_probes_and_a_second_use_decodes(self, tmp_path):
        # 8 frames under a tree six times larger: reads hit and miss.  A
        # lookup that misses reads one slot off the fetched bytes and
        # leaves the frame bytes-only; a hit on that frame decodes it
        # once, and every later hit is a pointer chase.  A range walk
        # reads whole nodes, so each of its misses decodes.
        store = self.store(tmp_path, capacity=8)
        tree = SBTree("sum", store, branching=5, leaf_capacity=6)
        for i in range(200):
            tree.insert(i % 9 + 1, Interval(i * 7, i * 7 + 30))
        store.commit()
        assert not store.dirty and tree.node_count() > 8 * 6
        frames = store.buffer._frames
        store.buffer.drop_nodes()
        nodes, pool = store.stats.snapshot(), store.buffer.stats.snapshot()
        for t in range(0, 1_500, 3):
            tree.lookup(t)
        nodes, pool = store.stats - nodes, store.buffer.stats - pool
        assert pool.hits > pool.misses > 0
        assert nodes.reads == pool.hits + pool.misses
        # At most one decode per frame: the 8 resident ones, plus one
        # per miss.
        assert 0 < nodes.decodes <= pool.misses + 8

        # On an empty pool: h misses probe, the re-touch decodes each of
        # the h pages once, later touches decode no more.
        h = tree.height
        for page_id in list(frames):
            store.buffer.discard(page_id)
        before = store.stats.snapshot()
        tree.lookup(700)
        assert len(frames) == h and all(f.node is None for f in frames.values())
        assert store.stats.decodes == before.decodes
        tree.lookup(700)
        assert all(f.node is not None for f in frames.values())
        tree.lookup(700)
        assert store.stats.decodes == before.decodes + h
        assert (store.stats - before).reads == 3 * h

        # A range walk reads nodes: every miss decodes.
        for page_id in list(frames):
            store.buffer.discard(page_id)
        nodes, pool = store.stats.snapshot(), store.buffer.stats.snapshot()
        tree.range_query(Interval(300, 700))
        nodes, pool = store.stats - nodes, store.buffer.stats - pool
        assert nodes.decodes == pool.misses > 0
        store.close()

    def test_read_after_write_returns_the_written_state(self, tmp_path):
        store = self.store(tmp_path, capacity=4)
        a = self.leaf(store, [1, 2])
        replacement = Node(a.node_id, True, times=[7], values=[8, 9])
        store.write(replacement)
        assert store.read(a.node_id) is replacement
        store.buffer.flush()
        store.buffer.discard(a.node_id)
        assert store.read(a.node_id) == replacement
        store.close()

    def test_node_held_across_an_eviction_is_readmitted_dirty(self, tmp_path):
        path = str(tmp_path / "live.sbt")
        store = self.store(tmp_path, capacity=2)
        a = self.leaf(store, [1, 2])
        held = store.read(a.node_id)
        self.leaf(store, [3, 4])
        self.leaf(store, [5, 6])  # two more frames: a's is evicted
        assert a.node_id not in store.buffer._frames
        # Either side of the eviction: two objects, one content.
        again = store.read(a.node_id)
        assert again is not held and again == held
        held.values[0] = 100
        store.write(held)  # the detached node comes back, dirty
        assert store.buffer._frames[a.node_id].dirty
        assert store.read(a.node_id) is held
        store.close()
        with PagedNodeStore(path) as reopened:
            assert reopened.read(a.node_id).values == [100, 2]

    def test_free_drops_the_decoded_node(self, tmp_path):
        store = self.store(tmp_path, capacity=4)
        a = self.leaf(store, [1, 2])
        store.free(a.node_id)
        assert a.node_id not in store.buffer._frames
        b = store.allocate(is_leaf=False)  # the free list hands the page back
        assert b.node_id == a.node_id
        got = store.read(b.node_id)
        assert got is b and got is not a
        assert not got.is_leaf and got.values == []
        store.close()

    def test_payload_is_a_snapshot_taken_at_write(self, tmp_path):
        # Eager encode: a mutation that was never written is visible to
        # later reads of the live node but never reaches the file.
        path = str(tmp_path / "live.sbt")
        store = self.store(tmp_path, capacity=4)
        a = self.leaf(store, [1, 2])
        store.read(a.node_id).values[1] = 99
        assert store.read(a.node_id).values == [1, 99]
        store.close()  # flushes the payload of the last write()
        with PagedNodeStore(path) as reopened:
            assert reopened.read(a.node_id).values == [1, 2]

    def test_revert_unwritten_goes_back_to_the_last_write(self, tmp_path):
        store = self.store(tmp_path, capacity=4)
        a = self.leaf(store, [1, 2])
        b = self.leaf(store, [3, 4])
        store.commit()
        b.values[0] = 30
        store.write(b)  # written, then mutated again
        store.read(a.node_id).values[1] = 99  # a clean frame: the pool's node
        assert store.read(a.node_id) is a and a.values == [1, 99]
        store.read(b.node_id).values[1] = 98
        assert store.read(b.node_id).values == [30, 98]
        dirty = {pid: f.dirty for pid, f in store.buffer._frames.items()}
        store.revert_unwritten()  # forgets clean frames' nodes too
        assert store.read(a.node_id).values == [1, 2]
        assert store.read(a.node_id) is not a  # decoded from the commit
        assert store.read(b.node_id).values == [30, 4]
        assert store.read(b.node_id) is not b  # decoded from the snapshot
        assert {p: f.dirty for p, f in store.buffer._frames.items()} == dirty
        store.close()

    @pytest.mark.parametrize("committed", [True, False])
    @pytest.mark.parametrize("capacity", [3, 64, 1000])
    def test_a_rejected_insert_leaves_the_tree_untouched(
        self, tmp_path, capacity, committed
    ):
        # _insert adjusts interior values on the way down and writes the
        # node on the way up.  The effect starts on a root boundary, so
        # below the root it covers whole intervals (adjusted in place, in
        # the pool's live nodes: dirty ones, or clean ones after a
        # commit) before it reaches the partly covered one
        # whose leaf is the first node to be encoded -- and 10**400 rejected.
        store = self.store(tmp_path, capacity)
        tree = SBTree("sum", store, branching=5, leaf_capacity=6)
        facts = [(i % 9 + 1, Interval(i * 7, i * 7 + 30)) for i in range(200)]
        for fact in facts:
            tree.insert(*fact)
        if committed:
            store.commit()
        root = store.read(store.get_root())
        assert tree.height >= 3 and not root.is_leaf
        before = tree.to_table(coalesced=False, drop_initial=False)
        bad = Interval(root.times[0], root.times[0] + 400)
        for attempt in (tree.insert, tree.delete):
            with pytest.raises((NodeEncodingError, OverflowError)):
                attempt(10**400, bad)
            assert tree.to_table(coalesced=False, drop_initial=False) == before
            assert tree.lookup(bad.start + 1) < 10**300
            check_tree(tree)
        tree.insert(5, bad)  # the next write through the root succeeds
        facts.append((5, bad))
        assert tree.to_table() == reference.instantaneous_table(facts, "sum")
        store.close()
        with PagedNodeStore(str(tmp_path / "live.sbt")) as reopened:
            assert SBTree(store=reopened).to_table() == (
                reference.instantaneous_table(facts, "sum"))

    @pytest.mark.parametrize("bad_at", [0, 19, 39])
    @pytest.mark.parametrize("committed", [True, False])
    @pytest.mark.parametrize("capacity", [3, 64, 1000])
    def test_a_rejected_batch_leaves_the_tree_untouched(
        self, tmp_path, capacity, committed, bad_at
    ):
        # The batch twin of the test above.  The pass has adjusted the
        # root, cut leaves and allocated their siblings -- all in memory
        # -- before the first node is encoded; the fact carrying 10**400
        # starts on a root separator, so its value reaches interior nodes
        # and a leaf.  Whichever node meets it first, nothing of the
        # other 39 facts may stay behind.
        store = self.store(tmp_path, capacity)
        tree = SBTree("sum", store, branching=5, leaf_capacity=6)
        facts = [(i % 9 + 1, Interval(i * 7, i * 7 + 30)) for i in range(200)]
        tree.insert_batch(facts[:150])
        for fact in facts[150:]:
            tree.insert(*fact)
        if committed:
            store.commit()
        root = store.read(store.get_root())
        assert tree.height >= 3 and not root.is_leaf
        before = tree.to_table(coalesced=False, drop_initial=False)
        nodes = tree.node_count()
        batch = [(i % 5 + 1, Interval(1_000 + i * 3, 1_040 + i * 3))
                 for i in range(40)]
        bad = list(batch)
        bad[bad_at] = (10**400, Interval(root.times[0], root.times[0] + 400))
        for attempt in (tree.insert_batch, tree.insert_effects):
            with pytest.raises((NodeEncodingError, OverflowError)):
                attempt(bad)
            assert tree.to_table(coalesced=False, drop_initial=False) == before
            assert tree.node_count() == nodes
            check_tree(tree)
        with pytest.raises(ValueError, match="empty or inverted"):
            tree.insert_batch(batch + [(1, (5, 5))])  # vetoed before a read
        assert tree.to_table(coalesced=False, drop_initial=False) == before
        tree.insert_batch(batch)  # the next good batch succeeds
        facts += batch
        assert tree.node_count() > nodes
        assert tree.to_table() == reference.instantaneous_table(facts, "sum")
        store.close()
        with PagedNodeStore(str(tmp_path / "live.sbt")) as reopened:
            assert SBTree(store=reopened).to_table() == (
                reference.instantaneous_table(facts, "sum"))

    @pytest.mark.parametrize("kth", [1, 2, 3, 4])
    def test_a_batch_whose_kth_encode_fails_installs_nothing(
        self, tmp_path, monkeypatch, kth
    ):
        # Five effects inside one leaf interval add ten boundaries: the
        # leaf is cut three ways and the batch hands over at least four
        # nodes (the leaf, its two new siblings, their parent).  Encoding
        # any of them may fail; no frame may then hold a node its payload
        # does not decode to, and the sibling pages go back to the pager.
        store = self.store(tmp_path, 64)
        tree = SBTree("sum", store, branching=5, leaf_capacity=6)
        tree.insert_batch(
            [(i % 9 + 1, Interval(i * 7, i * 7 + 30)) for i in range(200)])
        before = tree.to_table(coalesced=False, drop_initial=False)
        nodes, stats = tree.node_count(), store.stats.snapshot()
        a = before.rows[len(before.rows) // 2][1].start
        batch = [(k + 1, Interval(a + 0.125 * k, a + 0.125 * k + 0.0625))
                 for k in range(5)]
        encode, encoded = store.codec.encode, []

        def failing_encode(node):
            if node.values:  # not `allocate`'s encode of an empty page
                encoded.append(node.node_id)
                if len(encoded) == kth:
                    raise NodeEncodingError("injected")
            return encode(node)

        monkeypatch.setattr(store.codec, "encode", failing_encode)
        with pytest.raises(NodeEncodingError, match="injected"):
            tree.insert_batch(batch)
        monkeypatch.setattr(store.codec, "encode", encode)
        for page_id, frame in store.buffer._frames.items():
            if frame.node is not None:
                assert frame.node == store.codec.decode(frame.payload, page_id)
        undone = store.stats - stats
        assert undone.allocations == undone.frees >= 2  # the leaf's siblings
        assert undone.writes == 0 and tree.node_count() == nodes
        assert tree.to_table(coalesced=False, drop_initial=False) == before
        check_tree(tree)
        tree.insert_batch(batch)
        assert tree.node_count() == nodes + undone.allocations
        check_tree(tree)
        assert tree.lookup(a + 0.5) == before.value_at(a) + 5
        store.close()

    @pytest.mark.parametrize("bulk", [False, True])
    def test_a_failed_compact_forgets_its_unwritten_nodes(
        self, tmp_path, monkeypatch, bulk
    ):
        # Both rebuilds fill a node in place and then write it; when that
        # write fails the frame must not keep the node it has no bytes for.
        store = PagedNodeStore(
            str(tmp_path / "min.sbt"), "min", page_size=512, buffer_capacity=64
        )
        tree = SBTree("min", store, branching=5, leaf_capacity=6)
        for i in range(150):
            tree.insert(i % 11, Interval(i * 5, i * 5 + 40))
        encode, calls = store.codec.encode, []

        def failing_encode(node):
            calls.append(1)
            if len(calls) == 6:
                raise NodeEncodingError("injected")
            return encode(node)

        monkeypatch.setattr(store.codec, "encode", failing_encode)
        with pytest.raises(NodeEncodingError, match="injected"):
            tree.compact(bulk=bulk)
        for page_id, frame in store.buffer._frames.items():
            if frame.node is not None:
                assert frame.node == store.codec.decode(frame.payload, page_id)
        store.close()

    def test_counters_for_a_fixed_op_sequence_did_not_move(self, tmp_path):
        # Decoded frames and the find()-started scans changed what an
        # access costs, not how many there are.  The per-fact insert that
        # writes only the nodes it changed and runs imerge only at
        # candidate endpoints changed how many (was 5,211 reads and
        # 2,447 writes); the tree it builds is the same.
        import random

        rng = random.Random(1401)
        store = PagedNodeStore(
            str(tmp_path / "pinned.sbt"), "sum", page_size=512,
            buffer_capacity=4,
        )
        tree = SBTree("sum", store, branching=6, leaf_capacity=6)
        live = []
        for n in range(400):
            if live and rng.random() < 0.2:
                value, interval = live.pop(rng.randrange(len(live)))
                tree.delete(value, interval)
            else:
                start = rng.randrange(0, 5_000)
                fact = (
                    rng.randrange(1, 50),
                    Interval(start, start + rng.choice([3, 40, 900])),
                )
                tree.insert(*fact)
                live.append(fact)
            if (n + 1) % 64 == 0:
                store.commit()
        for t in range(0, 5_000, 97):
            tree.lookup(t)
        rows = tree.range_query(Interval(1_000, 3_000)).rows
        store.commit()
        nodes, buffer, pager = store.stats, store.buffer.stats, store.pager.stats
        assert (nodes.reads, nodes.writes, nodes.allocations, nodes.frees) == (
            2850, 1621, 154, 11)
        # Frames keep their node across write-back and commit, so only a
        # miss decodes -- unless a lookup made it: a lookup's miss reads
        # one slot off the bytes, and the page is decoded on its next
        # hit (was 2,037 = misses).
        assert nodes.decodes == 1983
        assert (
            buffer.hits, buffer.misses, buffer.evictions, buffer.dirty_writebacks
        ) == (813, 2037, 2248, 1257)
        # Writes go to the WAL since the redo log: one frame per dirty
        # write-back (1,257), free-list link (11) and commit (7); the
        # data file is written only by a checkpoint, and these 0.68 MB of
        # frames stay below the 1 MiB that triggers one.
        assert (pager.physical_reads, pager.physical_writes) == (2048, 0)
        assert (pager.wal_frames, pager.fsyncs) == (1275, 9)
        assert (len(rows), tree.height, store.node_count()) == (182, 4, 143)
        assert tree.to_table() == reference.instantaneous_table(live, "sum")
        store.close()


# ----------------------------------------------------------------------
# Pager hardening (geometry mismatch, free-list validation, commit races)
# ----------------------------------------------------------------------
class TestPagerHardening:
    def test_page_size_mismatch_warns(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        with Pager(path, page_size=1024) as pager:
            pid = pager.allocate_page()
            pager.write_page(pid, b"payload")
        with pytest.warns(UserWarning, match="page_size 1024"):
            pager = Pager(path, page_size=4096)
        # The file's geometry wins; the data is still readable.
        assert pager.page_size == 1024
        assert pager.read_page(pid).rstrip(b"\x00") == b"payload"
        pager.close()

    def test_page_size_mismatch_strict_raises(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        Pager(path, page_size=1024).close()
        with pytest.raises(ValueError, match="page_size 1024"):
            Pager(path, page_size=4096, strict=True)
        # Matching geometry passes strict mode.
        Pager(path, page_size=1024, strict=True).close()

    def test_paged_store_strict_geometry(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        PagedNodeStore(path, "sum", page_size=1024).close()
        with pytest.raises(ValueError):
            PagedNodeStore(path, "sum", page_size=4096, strict=True)

    def test_double_free_rejected(self, tmp_path):
        with Pager(str(tmp_path / "t.sbt")) as pager:
            pid = pager.allocate_page()
            pager.free_page(pid)
            with pytest.raises(ValueError, match="double free"):
                pager.free_page(pid)
            # Reallocating the page makes it freeable again.
            assert pager.allocate_page() == pid
            pager.free_page(pid)

    def test_free_header_page_rejected(self, tmp_path):
        with Pager(str(tmp_path / "t.sbt")) as pager:
            pager.allocate_page()
            with pytest.raises(ValueError, match="cannot free page 0"):
                pager.free_page(0)

    def test_free_out_of_range_rejected(self, tmp_path):
        with Pager(str(tmp_path / "t.sbt")) as pager:
            pager.allocate_page()
            with pytest.raises(ValueError, match="cannot free page"):
                pager.free_page(pager.page_count)
            with pytest.raises(ValueError, match="cannot free page"):
                pager.free_page(-3)

    def test_commit_races_with_writes(self, tmp_path):
        """pager.commit() holds the mutex, so a concurrent writer can
        never observe a torn write_page/commit interleaving."""
        import threading

        with Pager(str(tmp_path / "t.sbt"), page_size=512) as pager:
            pids = [pager.allocate_page() for _ in range(8)]
            stop = threading.Event()
            errors = []

            def committer():
                while not stop.is_set():
                    try:
                        pager.commit()
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return

            def writer():
                try:
                    for round_no in range(150):
                        for pid in pids:
                            pager.write_page(pid, b"%d:%d" % (pid, round_no))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=committer) for _ in range(2)]
            threads += [threading.Thread(target=writer)]
            for t in threads:
                t.start()
            threads[-1].join(timeout=60)
            stop.set()
            for t in threads[:-1]:
                t.join(timeout=10)
            assert not errors
            for pid in pids:
                assert pager.read_page(pid).rstrip(b"\x00") == b"%d:149" % pid

    def test_flush_races_with_reads(self, tmp_path):
        """PagedNodeStore.commit (``flush`` is its alias) vs readers."""
        import threading

        with PagedNodeStore(
            str(tmp_path / "t.sbt"), "sum", buffer_capacity=4
        ) as store:
            tree = SBTree("sum", store, branching=4, leaf_capacity=4)
            for i in range(60):
                tree.insert(1, Interval(i * 5, i * 5 + 20))
            stop = threading.Event()
            errors = []

            def flusher():
                while not stop.is_set():
                    try:
                        store.commit()
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)
                        return

            def reader():
                try:
                    for i in range(400):
                        assert tree.lookup(i % 300) >= 0
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            ft = threading.Thread(target=flusher)
            rt = threading.Thread(target=reader)
            ft.start()
            rt.start()
            rt.join(timeout=60)
            stop.set()
            ft.join(timeout=10)
            assert not errors
            check_tree(tree)
