"""Crash-consistency tests for the pager's redo write-ahead log.

Crashes are simulated by abandoning a pager/store mid-transaction
(:func:`repro.faults.simulate_crash`: no close, no commit) and reopening
the files: recovery must replay exactly the committed transactions, so
the page file reads as the last committed snapshot, bit for bit.
"""

import os
import warnings

import pytest

from repro import Interval, SBTree, ShardedTree, check_tree, obs
from repro.core import reference
from repro.faults import FaultInjector, SimulatedCrash, simulate_crash
from repro.service.dedup import HIT, DedupWindow
from repro.storage import PagedNodeStore, Pager
from repro.storage import pager as pager_module
from repro.storage.pager import _FRAME_HEAD, _FRAME_TAIL, _WAL_HEADER, scan_wal

#: One frame at 512-byte pages: page id + flag, image, crc + salt.
STRIDE = _FRAME_HEAD.size + 512 + _FRAME_TAIL.size


def wal_scan(path):
    """(header, frames) of the WAL beside *path*, via the one reader."""
    with open(str(path) + "-wal", "rb") as handle:
        header, *frames = scan_wal(handle)
    return header, frames


@pytest.fixture
def checkpoint_every_commit(monkeypatch):
    monkeypatch.setattr(pager_module, "WAL_CHECKPOINT_BYTES", 0)


class TestPagerJournal:
    def test_journal_created_and_cleared(self, tmp_path):
        """One WAL for the pager's life: a commit appends frames and
        leaves them there (committed, not checkpointed), a write before
        the next commit appends an uncommitted one, only a clean close
        checkpoints and removes the file."""
        path = str(tmp_path / "t.sbt")
        pager = Pager(path, page_size=512)
        pid = pager.allocate_page()
        pager.commit()
        header, frames = wal_scan(path)
        assert header.verdict == "ok"
        # The fresh page (written empty) and page 0, flagged.
        assert [(f.page_id, f.commit) for f in frames] == [(pid, False), (0, True)]
        assert pager.wal_bytes == 2 * STRIDE and not pager.dirty
        assert os.path.getsize(path) == 0  # nothing checkpointed yet
        pager.write_page(pid, b"second")
        assert pager.dirty
        assert [f.commit for f in wal_scan(path)[1]] == [False, True, False]
        pager.commit()
        assert not pager.dirty and pager.wal_commits == 2
        pager.close()
        assert os.listdir(str(tmp_path)) == ["t.sbt"]
        with Pager(path) as reopened:
            assert reopened.read_page(pid).rstrip(b"\x00") == b"second"

    def test_reopened_pager_creates_its_journal_once(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        with Pager(path, page_size=512) as pager:
            pid = pager.allocate_page()
        injector = FaultInjector()
        pager = Pager(path, faults=injector)
        assert not os.path.exists(pager.wal_path)  # reads create nothing
        for round_ in range(5):
            pager.write_page(pid, b"round %d" % round_)
            pager.commit()
        assert injector.hits["before_wal_create"] == 1
        assert injector.hits["after_commit_fsync"] == 5
        assert [e for e in injector.events if e[0] in ("create", "unlink")] == [
            ("create", pager.wal_path)
        ]
        # The header of the new WAL, then one fsync per commit.
        assert injector.fsync_calls == {"wal": 1 + 5, "dir": 1}
        pager.close()
        assert injector.events[-3:] == [
            ("fsync", "data"), ("unlink", pager.wal_path), ("fsync", "dir"),
        ]

    def test_uncommitted_write_rolled_back(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        pager = Pager(path, page_size=512)
        pid = pager.allocate_page()
        pager.write_page(pid, b"committed")
        pager.commit()
        pager.write_page(pid, b"uncommitted")
        simulate_crash(pager)  # the frame hit the WAL, but no commit

        recovered = Pager(path)
        assert recovered.read_page(pid).rstrip(b"\x00") == b"committed"
        recovered.close()

    def test_new_pages_truncated_on_rollback(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        pager = Pager(path, page_size=512)
        pager.allocate_page()
        pager.commit()
        committed_pages = pager.page_count
        for _ in range(5):
            pager.allocate_page()
        simulate_crash(pager)  # crash with 5 uncommitted new pages

        recovered = Pager(path)
        assert recovered.page_count == committed_pages
        assert os.path.getsize(path) == committed_pages * 512
        recovered.close()

    def test_header_changes_rolled_back(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        pager = Pager(path, page_size=512)
        pid = pager.allocate_page()
        pager.set_root(pid)
        pager.set_meta("kind", "sum")
        pager.commit()
        pager.set_meta("kind", "avg")  # uncommitted header change
        pager.write_pages([(pid, b"x")])  # a write-back set leaves page 0 out
        simulate_crash(pager)

        recovered = Pager(path)
        assert recovered.get_meta("kind") == "sum"
        assert recovered.get_root() == pid
        recovered.close()

    def test_torn_journal_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        pager = Pager(path, page_size=512)
        a = pager.allocate_page()
        b = pager.allocate_page()
        pager.write_page(a, b"A1")
        pager.write_page(b, b"B1")
        pager.commit()
        pager.write_page(a, b"A2")
        pager.write_page(b, b"B2")
        simulate_crash(pager)
        # Tear the WAL: chop the last frame in half.
        size = os.path.getsize(pager.wal_path)
        with open(pager.wal_path, "r+b") as wal:
            wal.truncate(size - 200)
        assert wal_scan(path)[1][-1].status == "torn"

        recovered = Pager(path)
        # The committed transaction replays; nothing after it does.
        assert recovered.read_page(a).rstrip(b"\x00") == b"A1"
        assert recovered.read_page(b).rstrip(b"\x00") == b"B1"
        recovered.close()

    def test_clean_close_commits(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        pager = Pager(path, page_size=512)
        pid = pager.allocate_page()
        pager.write_page(pid, b"final")
        pager.close()  # clean shutdown commits
        assert not os.path.exists(path + "-wal")
        with Pager(path) as reopened:
            assert reopened.read_page(pid).rstrip(b"\x00") == b"final"

    def test_read_after_evict_serves_the_wal_image(self, tmp_path):
        """With a pool of 2: commit, evict, read.  The pages the commit
        wrote live in the WAL only -- the data file still holds the
        checkpoint before it -- so a read must serve the WAL image."""
        path = tmp_path / "t.sbt"
        facts = [(i % 5 + 1, Interval(i * 3, i * 3 + 10)) for i in range(12)]
        store = PagedNodeStore(
            str(path), "sum", page_size=512, buffer_capacity=2
        )
        tree = SBTree("sum", store, branching=4, leaf_capacity=4)
        for value, interval in facts:
            tree.insert(value, interval)
        store.close()  # checkpointed: the data file holds all of it
        checkpointed = path.read_bytes()
        store = PagedNodeStore(str(path), buffer_capacity=2)
        tree = SBTree(store=store)
        facts.append((9, Interval(1, 40)))
        tree.insert(*facts[-1])
        store.commit()
        assert path.read_bytes() == checkpointed  # stale from here on
        evictions = store.buffer.stats.evictions
        assert tree.to_table() == reference.instantaneous_table(facts, "sum")
        assert store.buffer.stats.evictions > evictions
        store.close()


class TestStoreCrashRecovery:
    def build_store(self, path):
        store = PagedNodeStore(path, "sum", page_size=1024, buffer_capacity=16)
        tree = SBTree("sum", store, branching=6, leaf_capacity=6)
        return store, tree

    def test_tree_rolls_back_to_committed_snapshot(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        store, tree = self.build_store(path)
        committed_facts = [(i % 5 + 1, Interval(i * 4, i * 4 + 20)) for i in range(40)]
        for value, interval in committed_facts:
            tree.insert(value, interval)
        store.commit()
        committed_table = tree.to_table()

        # More uncommitted work, then a crash.
        for i in range(40, 80):
            tree.insert(2, Interval(i * 4, i * 4 + 20))
        store.buffer.flush()  # dirty pages reach the WAL...
        simulate_crash(store)  # ...but the transaction never commits

        with PagedNodeStore(path) as recovered_store:
            recovered = SBTree(store=recovered_store)
            assert recovered.to_table() == committed_table
            check_tree(recovered)
            # The recovered tree is fully usable.
            recovered.insert(9, Interval(0, 5))
            assert recovered.lookup(1) == committed_table.value_at(1) + 9

    def test_crash_before_any_commit_leaves_empty_tree(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        store, tree = self.build_store(path)
        store.commit()  # commit the empty tree
        for i in range(30):
            tree.insert(1, Interval(i, i + 10))
        store.buffer.flush()
        simulate_crash(store)

        with PagedNodeStore(path) as recovered_store:
            recovered = SBTree(store=recovered_store)
            assert recovered.to_table().rows == []

    def test_multiple_commit_points(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        store, tree = self.build_store(path)
        tree.insert(1, Interval(0, 10))
        store.commit()
        tree.insert(2, Interval(5, 15))
        store.commit()
        snapshot = tree.to_table()
        tree.insert(3, Interval(7, 12))  # never committed
        store.buffer.flush()
        simulate_crash(store)

        with PagedNodeStore(path) as recovered_store:
            recovered = SBTree(store=recovered_store)
            assert recovered.to_table() == snapshot


# ----------------------------------------------------------------------
# One WAL file, reused: stale tails, torn headers, the lifecycle
# ----------------------------------------------------------------------
HEADER_SIZE = _WAL_HEADER.size


def versioned_pager(path, pages=12):
    """*pages* data pages committed as ``v1-<id>``, the WAL in place."""
    pager = Pager(str(path), page_size=512)
    ids = [pager.allocate_page() for _ in range(pages)]
    pager.commit([(page, b"v1-%d" % page) for page in ids])
    return pager, ids


def page_versions(path, ids):
    with Pager(str(path), strict=True) as pager:
        return [pager.read_page(page).rstrip(b"\x00") for page in ids]


class TestJournalReuse:
    def test_stale_tail_of_a_longer_transaction_is_not_replayed(
        self, tmp_path, checkpoint_every_commit
    ):
        """A long generation checkpointed, then a short one: the scan of
        the short one stops at the first frame of the long one's salt."""
        path = tmp_path / "t.sbt"
        pager, ids = versioned_pager(path)
        pager.set_meta("generation", "2")
        pager.commit([(page, b"v2-%d" % page) for page in ids])
        committed = path.read_bytes()  # 13 frames stay beyond the next tail
        pager.set_meta("generation", "3")
        pager.write_pages([(page, b"v3-%d" % page) for page in ids[:2]])
        simulate_crash(pager)  # two uncommitted frames, no commit
        header, frames = wal_scan(path)
        assert header.verdict == "ok"
        assert [(f.status, f.page_id) for f in frames] == [
            ("ok", ids[0]), ("ok", ids[1]), ("stale", -1),
        ]
        assert os.path.getsize(pager.wal_path) == HEADER_SIZE + 13 * STRIDE
        registry = obs.enable(obs.MetricsRegistry())
        try:
            Pager(str(path), strict=True).close()
            assert registry.counter("pager.recoveries").value == 1
            assert registry.counter("pager.replayed_frames").value == 0
        finally:
            obs.disable()
        assert path.read_bytes() == committed

    @pytest.mark.parametrize("first,second", [(3, 9), (9, 3)])
    def test_longer_and_shorter_second_transactions_roll_back(
        self, tmp_path, first, second
    ):
        path = tmp_path / "t.sbt"
        pager, ids = versioned_pager(path)
        pager.commit([(page, b"v2-%d" % page) for page in ids[:first]])
        pager.write_pages([(page, b"v3-%d" % page) for page in ids[-second:]])
        pager.allocate_page()
        simulate_crash(pager)
        _, frames = wal_scan(path)
        assert [f.commit for f in frames if f.status == "ok"] == (
            [False] * 12 + [True] + [False] * first + [True] + [False] * second
        )
        assert page_versions(path, ids) == (
            [b"v2-%d" % page for page in ids[:first]]
            + [b"v1-%d" % page for page in ids[first:]]
        )
        assert os.listdir(str(tmp_path)) == ["t.sbt"]

    def build_tree(self, path):
        store = PagedNodeStore(
            str(path), "sum", page_size=512, buffer_capacity=8
        )
        tree = SBTree("sum", store, branching=4, leaf_capacity=4)
        facts = [(i % 5 + 1, Interval(i * 3, i * 3 + 20)) for i in range(30)]
        for value, interval in facts[:20]:
            tree.insert(value, interval)
        store.commit()
        return store, tree, facts

    def reopen_strict(self, path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store = PagedNodeStore(str(path), strict=True)
        tree = SBTree(store=store)
        check_tree(tree)
        table = tree.to_table()
        store.close()
        return table

    @pytest.mark.parametrize("keep", range(1, HEADER_SIZE))
    def test_torn_invalidation_is_a_committed_state(
        self, tmp_path, keep, checkpoint_every_commit
    ):
        """The header that starts a new generation is what disowns the
        checkpointed one's frames.  Torn at any byte it either still
        reads as the old header (whose frames replay to the state the
        checkpoint just wrote) or fails its checksum with no frame of
        its salt behind it: the commit stands, and a strict reopen
        neither warns nor refuses."""
        path = tmp_path / "t.sbt"
        store, tree, facts = self.build_tree(path)
        for value, interval in facts[20:]:
            tree.insert(value, interval)
        store.buffer.flush()  # the commit is then one WAL write...
        store.pager.faults = FaultInjector().tear_write(
            "wal", call=2, fraction=(keep + 0.5) / HEADER_SIZE
        )  # ...and the new generation's header the next
        with pytest.raises(SimulatedCrash):
            store.commit()
        simulate_crash(store)
        assert wal_scan(path)[0].verdict in ("ok", "cold")
        assert self.reopen_strict(path) == reference.instantaneous_table(facts, "sum")

    @pytest.mark.parametrize("keep", range(1, HEADER_SIZE))
    def test_torn_header_write_is_an_unstarted_transaction(self, tmp_path, keep):
        """A pager's first frame creates the WAL, header first: torn,
        the header is short, nothing after it can replay, and the data
        file is still commit N."""
        path = tmp_path / "t.sbt"
        store, tree, facts = self.build_tree(path)
        store.close()
        committed = path.read_bytes()
        store = PagedNodeStore(
            str(path), faults=FaultInjector().tear_write(
                "wal", fraction=(keep + 0.5) / HEADER_SIZE
            ),
        )
        tree = SBTree(store=store)
        with pytest.raises(SimulatedCrash):
            for value, interval in facts[20:]:
                tree.insert(value, interval)
            store.buffer.flush()
        simulate_crash(store)
        assert os.path.getsize(store.pager.wal_path) == keep
        assert wal_scan(path)[0].verdict == "cold"
        assert self.reopen_strict(path) == reference.instantaneous_table(
            facts[:20], "sum"
        )
        assert path.read_bytes() == committed

    def test_clean_close_removes_the_journal_durably(self, tmp_path):
        path = tmp_path / "t.sbt"
        injector = FaultInjector()
        store, tree, _ = self.build_tree(path)
        store.pager.faults = injector
        tree.insert(3, Interval(0, 9))
        store.close()
        assert os.listdir(str(tmp_path)) == ["t.sbt"]
        # Nothing is left for a power cut to undo: the unlink was synced.
        assert injector.lose_power("all") == {"writes": 0, "dir_ops": 0}
        assert os.listdir(str(tmp_path)) == ["t.sbt"]

    def test_recovery_cut_short_is_repeated(self, tmp_path):
        """Recovery is a checkpoint: a crash inside it (here, before its
        data fsync) leaves the WAL's header untouched, and the next open
        replays the same frames again."""
        path = tmp_path / "t.sbt"
        store, tree, facts = self.build_tree(path)
        simulate_crash(store)
        injector = FaultInjector().crash_at("before_checkpoint_fsync")
        with pytest.raises(SimulatedCrash):
            PagedNodeStore(str(path), faults=injector)
        assert injector.hits["before_page_write"] > 0
        assert "before_wal_reset" not in injector.hits
        assert self.reopen_strict(path) == reference.instantaneous_table(
            facts[:20], "sum"
        )


# ----------------------------------------------------------------------
# What a group commit costs, and which stores it touches
# ----------------------------------------------------------------------
SERVICE_META = {
    "service.dedup": '{"v":1,"clients":{"c1":{"floor":0,"entries":[[7,{"applied":64}]]}}}',
    "service.repl.commit": "41",
}


def bench_geometry(directory, injector=None):
    """The benchmark's durable layout: four journaled shard files, a pool
    of 32 frames each, page-derived fan-out, time span [0, 100000)."""
    stores = [
        PagedNodeStore(
            os.path.join(str(directory), f"shard-{i}.sbt"), "sum",
            buffer_capacity=32, faults=injector,
        )
        for i in range(4)
    ]
    return ShardedTree("sum", num_shards=4, span=(0, 100_000), stores=stores), stores


def one_shard_batch(start, count=64):
    """Near-ordered facts that all fall inside shard 0's range."""
    return [(i % 7 + 1, Interval(start + i * 3, start + i * 3 + 40)) for i in range(count)]


class TestSyncBudget:
    def test_one_shard_group_commit_costs_one_fsync(self, tmp_path):
        sharded, stores = bench_geometry(tmp_path)
        for round_ in range(6):  # grow the shard: splits, a real tree
            sharded.batch_insert(one_shard_batch(round_ * 200))
            sharded.commit(SERVICE_META)
        injector = FaultInjector()
        for store in stores:
            store.pager.faults = injector
        before = [store.pager.stats.snapshot() for store in stores]
        sharded.batch_insert(one_shard_batch(1_200))
        assert sharded.commit(SERVICE_META) == 1
        # One WAL write (the dirty pages, then page 0 flagged) and its
        # fsync: the commit point.  This batch fits its 32 frames.
        assert injector.write_calls == {"wal": 1}
        assert injector.fsync_calls == {"wal": 1}
        spent = [store.pager.stats - mark for store, mark in zip(stores, before)]
        assert [delta.fsyncs for delta in spent] == [1, 0, 0, 0]
        assert [delta.wal_frames > 1 for delta in spent] == [True, False, False, False]
        assert [delta.physical_writes for delta in spent] == [0, 0, 0, 0]
        sharded.close()

    def test_a_checkpointing_commit_costs_two_wal_fsyncs_and_a_data_fsync(
        self, tmp_path, checkpoint_every_commit
    ):
        sharded, stores = bench_geometry(tmp_path)
        sharded.batch_insert(one_shard_batch(0))
        sharded.commit(SERVICE_META)
        injector = FaultInjector()
        stores[0].pager.faults = injector
        sharded.batch_insert(one_shard_batch(200))
        assert sharded.commit(SERVICE_META) == 1
        # The commit point, the copies' fsync, the new header's fsync.
        assert injector.fsync_calls == {"wal": 2, "data": 1}
        assert [e for e in injector.events if e[0] == "fsync"] == [
            ("fsync", "wal"), ("fsync", "data"), ("fsync", "wal"),
        ]
        # The copies: each page of the generation once, not the file.
        assert injector.write_calls["wal"] == 2  # the commit, the header
        assert 0 < injector.write_calls["data"] < stores[0].pager.page_count
        sharded.close()

    def test_an_eviction_costs_a_wal_write_and_no_fsync(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        store = PagedNodeStore(
            path, "sum", page_size=512, buffer_capacity=4
        )
        tree = SBTree("sum", store, branching=4, leaf_capacity=4)
        for i in range(40):
            tree.insert(i % 5 + 1, Interval(i * 3, i * 3 + 25))
        store.commit()
        injector = FaultInjector()
        store.pager.faults = injector
        for i in range(40, 60):
            tree.insert(i % 5 + 1, Interval(i * 3 - 60, i * 3))
        evictions = injector.write_calls["wal"]
        assert evictions > 1  # four frames: the pool evicted mid-transaction
        assert injector.fsync_calls == {}
        store.commit()
        assert injector.write_calls == {"wal": evictions + 1}
        assert injector.fsync_calls == {"wal": 1}
        store.close()

    @pytest.mark.parametrize(
        "checkpoints,budget", [(False, {"wal": 1}), (True, {"wal": 2, "data": 1})]
    )
    def test_a_default_store_flush_is_a_commit(
        self, tmp_path, monkeypatch, checkpoints, budget
    ):
        store = PagedNodeStore(str(tmp_path / "t.sbt"), "sum")
        tree = SBTree("sum", store)
        for value, interval in one_shard_batch(0, 200):
            tree.insert(value, interval)
        store.flush()  # the WAL exists from here on
        if checkpoints:
            monkeypatch.setattr(pager_module, "WAL_CHECKPOINT_BYTES", 0)
        injector = FaultInjector()
        store.pager.faults = injector
        for value, interval in one_shard_batch(600, 200):
            tree.insert(value, interval)
        store.flush()
        assert injector.fsync_calls == budget
        assert not store.dirty
        store.close()

    def test_steady_commits_touch_no_directory(self, tmp_path):
        sharded, stores = bench_geometry(tmp_path)
        sharded.batch_insert(one_shard_batch(0))
        sharded.commit(SERVICE_META)  # every WAL exists from here on
        injector = FaultInjector()
        for store in stores:
            store.pager.faults = injector
        for round_ in range(1, 51):
            sharded.batch_insert(one_shard_batch(round_ * 200))
            assert sharded.commit(SERVICE_META) == 1
        assert not [e for e in injector.events if e[0] in ("create", "unlink")]
        assert "dir" not in injector.fsync_calls
        # One fsync per commit, two more per checkpoint.
        checkpoints = injector.fsync_calls.get("data", 0)
        assert injector.fsync_calls["wal"] == 50 + checkpoints
        assert "before_wal_create" not in injector.hits
        sharded.close()

    def test_commit_of_untouched_store_is_free(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        store = PagedNodeStore(path, "sum")
        tree = SBTree("sum", store)
        tree.insert(1, Interval(0, 10))
        store.commit()
        injector = FaultInjector()
        store.pager.faults = injector
        assert not store.dirty
        assert tree.lookup(5) == 1  # reads do not dirty anything
        store.commit()
        store.commit()
        assert injector.fsync_calls == {}
        assert injector.write_calls == {}
        assert injector.hits == {}  # not even a crash point: nothing ran
        store.close()  # closing a clean store commits nothing either...
        assert "wal" not in injector.write_calls
        # ...it checkpoints what the WAL holds and removes it, synced.
        assert injector.write_calls == {"data": store.pager.page_count}
        assert injector.events[-3:] == [
            ("fsync", "data"), ("unlink", path + "-wal"), ("fsync", "dir"),
        ]
        assert not os.path.exists(path + "-wal")

    def test_metadata_only_commit_is_one_small_transaction(self, tmp_path):
        sharded, stores = bench_geometry(tmp_path)
        sharded.batch_insert(one_shard_batch(0))
        assert sharded.commit() == 4  # creation left all four uncommitted
        assert sharded.commit() == 0
        injector = FaultInjector()
        for store in stores:
            store.pager.faults = injector
        frames = [store.pager.stats.wal_frames for store in stores]
        # Nothing is dirty: the metadata still has to land somewhere.
        assert sharded.commit(SERVICE_META) == 1
        # One frame -- page 0, flagged -- in one write, one fsync.
        assert injector.fsync_calls == {"wal": 1}
        assert injector.write_calls == {"wal": 1}
        assert [
            store.pager.stats.wal_frames - mark for store, mark in zip(stores, frames)
        ] == [1, 0, 0, 0]
        assert sharded.get_meta("service.repl.commit") == ["41"]
        sharded.close()


class TestShardedCommitMetadata:
    def test_meta_goes_to_the_committing_stores_only(self, tmp_path):
        sharded, stores = bench_geometry(tmp_path)
        sharded.commit({"service.repl.commit": "1"})
        assert sharded.get_meta("service.repl.commit") == ["1"] * 4
        sharded.batch_insert([(5, Interval(60_000, 60_040))])  # shard 2 only
        assert sharded.commit({"service.repl.commit": "2"}) == 1
        assert [s.get_meta("service.repl.commit") for s in stores] == [
            "1", "1", "2", "1",
        ]
        sharded.close()
        # A restart reads every copy and keeps the newest.
        reopened = [PagedNodeStore(s.pager.path) for s in stores]
        assert max(int(s.get_meta("service.repl.commit")) for s in reopened) == 2
        for store in reopened:
            store.close()

    def test_crash_between_two_shard_commits(self, tmp_path):
        """SIGKILL after shard 0 committed and before shard 1 did: the
        batch's metadata is in shard 0 only.  The restart merge (dedup:
        union of entries, max floor; watermark: max) still sees it, so a
        replayed key is answered as a duplicate, exactly once."""
        injector = FaultInjector()
        sharded, stores = bench_geometry(tmp_path, injector)
        window = DedupWindow()
        sharded.commit(
            {"service.dedup": window.encode_with([(("c1", 1), {"applied": 1})]),
             "service.repl.commit": "1"}
        )
        window.record("c1", 1, {"applied": 1})
        # One batch, two facts, two shards.
        sharded.batch_insert(
            [(3, Interval(10, 50)), (4, Interval(30_000, 30_050))]
        )
        # Shard 1's commit write is the second WAL write from here.
        injector.crash_at("before_wal_write", hit=injector.hits["before_wal_write"] + 2)
        with pytest.raises(SimulatedCrash):
            sharded.commit(
                {"service.dedup": window.encode_with([(("c1", 2), {"applied": 2})]),
                 "service.repl.commit": "2"}
            )
        for store in stores:
            simulate_crash(store)

        reopened = [PagedNodeStore(s.pager.path) for s in stores]
        restarted = ShardedTree(
            "sum", num_shards=4, span=(0, 100_000), stores=reopened
        )
        assert restarted.lookup(20) == 3  # shard 0 kept the batch
        assert restarted.lookup(30_010) == 0  # shard 1 never wrote it
        marks = restarted.get_meta("service.repl.commit")
        assert sorted(marks) == ["1", "1", "1", "2"]
        assert max(int(mark) for mark in marks) == 2
        merged = DedupWindow()
        merged.load(restarted.get_meta("service.dedup"))
        assert merged.lookup("c1", 2) == (HIT, {"applied": 2})
        assert merged.lookup("c1", 1) == (HIT, {"applied": 1})
        restarted.close()
