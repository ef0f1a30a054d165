"""Crash-consistency tests for the pager's rollback journal.

Crashes are simulated by abandoning a pager/store mid-transaction
(:func:`repro.faults.simulate_crash`: no close, no commit) and reopening
the files: recovery must roll the page file back to the last committed
snapshot, bit for bit.
"""

import os
import warnings

import pytest

from repro import Interval, SBTree, ShardedTree, check_tree, obs
from repro.core import reference
from repro.faults import FaultInjector, SimulatedCrash, simulate_crash
from repro.service.dedup import HIT, DedupWindow
from repro.storage import PagedNodeStore, Pager
from repro.storage.pager import (
    _JOURNAL_HEADER, _JOURNAL_RECORD, _JOURNAL_TRAILER, scan_journal,
)


def journal_scan(path):
    """(header, records) of the journal beside *path*, via the one reader."""
    with open(str(path) + "-journal", "rb") as handle:
        header, *records = scan_journal(handle)
    return header, records


class TestPagerJournal:
    def test_journal_created_and_cleared(self, tmp_path):
        """One journal file for the pager's life: a commit leaves it in
        place with a zeroed header (cold), the next transaction rewrites
        it from offset 0 (hot), only a clean close removes it."""
        path = str(tmp_path / "t.sbt")
        pager = Pager(path, page_size=512, journaled=True)
        pid = pager.allocate_page()
        pager.commit()
        assert journal_scan(path)[0].verdict == "cold"
        assert pager.journal_bytes == 0
        pager.write_page(pid, b"second")
        assert pager.in_transaction()
        header, records = journal_scan(path)
        assert header.verdict == "hot"
        assert [r.status for r in records] == ["ok"]  # page 0 is clean
        assert pager.journal_bytes == _JOURNAL_HEADER.size + (
            _JOURNAL_RECORD.size + 512 + _JOURNAL_TRAILER.size
        )
        pager.commit()
        assert journal_scan(path)[0].verdict == "cold"
        assert not pager.in_transaction()
        pager.close()
        assert os.listdir(str(tmp_path)) == ["t.sbt"]

    def test_reopened_pager_creates_its_journal_once(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        with Pager(path, page_size=512, journaled=True) as pager:
            pid = pager.allocate_page()
        injector = FaultInjector()
        pager = Pager(path, journaled=True, faults=injector)
        assert not os.path.exists(pager.journal_path)  # reads create nothing
        for round_ in range(5):
            pager.write_page(pid, b"round %d" % round_)
            pager.commit()
        assert injector.hits["before_journal_create"] == 1
        assert injector.hits["after_journal_create"] == 1
        assert injector.hits["after_journal_invalidate"] == 5
        assert [e for e in injector.events if e[0] in ("create", "unlink")] == [
            ("create", pager.journal_path)
        ]
        assert injector.fsync_calls == {"journal": 10, "data": 5, "dir": 1}
        pager.close()
        assert injector.events[-2:] == [
            ("unlink", pager.journal_path), ("fsync", "dir"),
        ]

    def test_uncommitted_write_rolled_back(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        pager = Pager(path, page_size=512, journaled=True)
        pid = pager.allocate_page()
        pager.write_page(pid, b"committed")
        pager.commit()
        pager.write_page(pid, b"uncommitted")
        simulate_crash(pager)  # data hit the file, but no commit

        recovered = Pager(path, journaled=True)
        assert recovered.read_page(pid).rstrip(b"\x00") == b"committed"
        recovered.close()

    def test_new_pages_truncated_on_rollback(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        pager = Pager(path, page_size=512, journaled=True)
        pager.allocate_page()
        pager.commit()
        committed_pages = pager.page_count
        for _ in range(5):
            pager.allocate_page()
        simulate_crash(pager)  # crash with 5 uncommitted new pages

        recovered = Pager(path, journaled=True)
        assert recovered.page_count == committed_pages
        assert os.path.getsize(path) == committed_pages * 512
        recovered.close()

    def test_header_changes_rolled_back(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        pager = Pager(path, page_size=512, journaled=True)
        pid = pager.allocate_page()
        pager.set_root(pid)
        pager.set_meta("kind", "sum")
        pager.commit()
        pager.set_meta("kind", "avg")  # uncommitted header change
        pager.sync()  # ...that reached the file
        simulate_crash(pager)

        recovered = Pager(path, journaled=True)
        assert recovered.get_meta("kind") == "sum"
        assert recovered.get_root() == pid
        recovered.close()

    def test_torn_journal_tail_tolerated(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        pager = Pager(path, page_size=512, journaled=True)
        a = pager.allocate_page()
        b = pager.allocate_page()
        pager.write_page(a, b"A1")
        pager.write_page(b, b"B1")
        pager.commit()
        pager.write_page(a, b"A2")
        pager.write_page(b, b"B2")
        simulate_crash(pager)
        # Tear the journal: chop the last record in half.
        size = os.path.getsize(pager.journal_path)
        with open(pager.journal_path, "r+b") as j:
            j.truncate(size - 200)

        recovered = Pager(path, journaled=True)
        # The complete record (page a) must be restored.
        assert recovered.read_page(a).rstrip(b"\x00") == b"A1"
        recovered.close()

    def test_clean_close_commits(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        pager = Pager(path, page_size=512, journaled=True)
        pid = pager.allocate_page()
        pager.write_page(pid, b"final")
        pager.close()  # clean shutdown commits
        assert not os.path.exists(path + "-journal")
        with Pager(path, journaled=True) as reopened:
            assert reopened.read_page(pid).rstrip(b"\x00") == b"final"

    def test_unjournaled_pager_never_journals(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        with Pager(path, page_size=512) as pager:
            pid = pager.allocate_page()
            pager.write_page(pid, b"x")
            assert not os.path.exists(path + "-journal")


class TestStoreCrashRecovery:
    def build_store(self, path):
        store = PagedNodeStore(
            path, "sum", page_size=1024, buffer_capacity=16, journaled=True
        )
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
        store.buffer.flush()  # dirty pages reach the file...
        simulate_crash(store)  # ...but the transaction never commits

        with PagedNodeStore(path, journaled=True) as recovered_store:
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

        with PagedNodeStore(path, journaled=True) as recovered_store:
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

        with PagedNodeStore(path, journaled=True) as recovered_store:
            recovered = SBTree(store=recovered_store)
            assert recovered.to_table() == snapshot


# ----------------------------------------------------------------------
# One journal file, reused: stale tails, torn headers, the lifecycle
# ----------------------------------------------------------------------
HEADER_SIZE = _JOURNAL_HEADER.size


def versioned_pager(path, pages=12):
    """*pages* data pages committed as ``v1-<id>``, the journal in place."""
    pager = Pager(str(path), page_size=512, journaled=True)
    ids = [pager.allocate_page() for _ in range(pages)]
    pager.write_pages([(page, b"v1-%d" % page) for page in ids])
    pager.commit()
    return pager, ids


class TestJournalReuse:
    def test_stale_tail_of_a_longer_transaction_is_not_replayed(self, tmp_path):
        path = tmp_path / "t.sbt"
        pager, ids = versioned_pager(path)
        pager.set_meta("generation", "2")  # journals page 0 too
        pager.write_pages([(page, b"v2-%d" % page) for page in ids])
        pager.commit()  # 13 records, all valid, stay beyond the next tail
        committed = path.read_bytes()
        pager.set_meta("generation", "3")
        pager.write_pages([(page, b"v3-%d" % page) for page in ids[:2]])
        simulate_crash(pager)  # after the barrier, before any commit
        header, records = journal_scan(path)
        assert header.verdict == "hot"
        assert [(r.status, r.page_id) for r in records] == [
            ("ok", 0), ("ok", ids[0]), ("ok", ids[1]), ("stale", -1),
        ]
        stride = _JOURNAL_RECORD.size + 512 + _JOURNAL_TRAILER.size
        assert os.path.getsize(pager.journal_path) == HEADER_SIZE + 13 * stride
        registry = obs.enable(obs.MetricsRegistry())
        try:
            Pager(str(path), journaled=True, strict=True).close()
            assert registry.counter("pager.rollback_pages").value == 3
        finally:
            obs.disable()
        assert path.read_bytes() == committed

    @pytest.mark.parametrize("first,second", [(3, 9), (9, 3)])
    def test_longer_and_shorter_second_transactions_roll_back(
        self, tmp_path, first, second
    ):
        path = tmp_path / "t.sbt"
        pager, ids = versioned_pager(path)
        pager.write_pages([(page, b"v2-%d" % page) for page in ids[:first]])
        pager.commit()
        committed = path.read_bytes()
        pager.write_pages([(page, b"v3-%d" % page) for page in ids[-second:]])
        pager.allocate_page()
        simulate_crash(pager)
        _, records = journal_scan(path)
        assert [r.status for r in records if r.status == "ok"] == ["ok"] * second
        Pager(str(path), journaled=True, strict=True).close()
        assert path.read_bytes() == committed
        assert os.listdir(str(tmp_path)) == ["t.sbt"]

    def build_tree(self, path):
        store = PagedNodeStore(
            str(path), "sum", page_size=512, buffer_capacity=8, journaled=True
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
            store = PagedNodeStore(str(path), journaled=True, strict=True)
        tree = SBTree(store=store)
        check_tree(tree)
        table = tree.to_table()
        store.close()
        return table

    @pytest.mark.parametrize("keep", range(1, HEADER_SIZE))
    def test_torn_invalidation_is_a_committed_state(self, tmp_path, keep):
        """Every proper prefix of the zeroing write clears the first
        header byte, so the tear reads cold: commit N+1 stands (and in
        no case does a strict reopen refuse the journal)."""
        path = tmp_path / "t.sbt"
        store, tree, facts = self.build_tree(path)
        for value, interval in facts[20:]:
            tree.insert(value, interval)
        store.buffer.flush()  # the zeroing write is the next journal write
        store.pager.faults = FaultInjector().tear_write(
            "journal", fraction=(keep + 0.5) / HEADER_SIZE
        )
        with pytest.raises(SimulatedCrash):
            store.commit()
        simulate_crash(store)
        with open(store.pager.journal_path, "rb") as handle:
            raw = handle.read(HEADER_SIZE)
        assert raw[:keep] == bytes(keep) and raw[keep:] != bytes(HEADER_SIZE - keep)
        assert self.reopen_strict(path) == reference.instantaneous_table(facts, "sum")

    @pytest.mark.parametrize("keep", range(1, HEADER_SIZE))
    def test_torn_header_write_is_an_unstarted_transaction(self, tmp_path, keep):
        """The header is written over a zeroed one and its last byte is
        written last: any prefix reads cold, and no barrier ran, so the
        data file is still commit N."""
        path = tmp_path / "t.sbt"
        store, tree, facts = self.build_tree(path)
        committed = path.read_bytes()
        store.pager.faults = FaultInjector().tear_write(
            "journal", fraction=(keep + 0.5) / HEADER_SIZE
        )
        with pytest.raises(SimulatedCrash):
            for value, interval in facts[20:]:
                tree.insert(value, interval)
            store.buffer.flush()
        simulate_crash(store)
        with open(store.pager.journal_path, "rb") as handle:
            assert handle.read(HEADER_SIZE)[keep:] == bytes(HEADER_SIZE - keep)
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
            journaled=True, buffer_capacity=32, faults=injector,
        )
        for i in range(4)
    ]
    return ShardedTree("sum", num_shards=4, span=(0, 100_000), stores=stores), stores


def one_shard_batch(start, count=64):
    """Near-ordered facts that all fall inside shard 0's range."""
    return [(i % 7 + 1, Interval(start + i * 3, start + i * 3 + 40)) for i in range(count)]


class TestSyncBudget:
    def test_one_shard_group_commit_costs_three_fsyncs(self, tmp_path):
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
        # One journal barrier, one data fsync, one journal invalidation
        # (a pool that evicted mid-batch would add a barrier, never a
        # directory sync: this batch fits its 32 frames).
        assert injector.hits["after_journal_fsync"] == 1
        assert injector.fsync_calls == {"journal": 2, "data": 1}
        spent = [store.pager.stats - mark for store, mark in zip(stores, before)]
        assert [delta.fsyncs for delta in spent] == [3, 0, 0, 0]
        assert [delta.physical_writes for delta in spent[1:]] == [0, 0, 0]
        sharded.close()

    def test_an_eviction_barrier_costs_one_more_journal_fsync(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        store = PagedNodeStore(
            path, "sum", page_size=512, buffer_capacity=4, journaled=True
        )
        tree = SBTree("sum", store, branching=4, leaf_capacity=4)
        for i in range(40):
            tree.insert(i % 5 + 1, Interval(i * 3, i * 3 + 25))
        store.commit()
        injector = FaultInjector()
        store.pager.faults = injector
        for i in range(40, 60):
            tree.insert(i % 5 + 1, Interval(i * 3 - 60, i * 3))
        store.commit()
        barriers = injector.hits["after_journal_fsync"]
        assert barriers > 1  # four frames: the pool evicted mid-transaction
        assert injector.fsync_calls == {"journal": barriers + 1, "data": 1}
        store.close()

    def test_steady_commits_touch_no_directory(self, tmp_path):
        sharded, stores = bench_geometry(tmp_path)
        sharded.batch_insert(one_shard_batch(0))
        sharded.commit(SERVICE_META)  # every journal exists from here on
        injector = FaultInjector()
        for store in stores:
            store.pager.faults = injector
        for round_ in range(1, 51):
            sharded.batch_insert(one_shard_batch(round_ * 200))
            assert sharded.commit(SERVICE_META) == 1
        assert not [e for e in injector.events if e[0] in ("create", "unlink")]
        assert "dir" not in injector.fsync_calls
        assert injector.fsync_calls["data"] == 50
        assert "before_journal_create" not in injector.hits
        sharded.close()

    def test_commit_of_untouched_store_is_free(self, tmp_path):
        path = str(tmp_path / "t.sbt")
        store = PagedNodeStore(path, "sum", journaled=True)
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
        store.close()  # closing a clean store writes nothing either...
        assert injector.write_calls == {}
        # ...it only removes the journal, and syncs that.
        assert injector.events == [("unlink", path + "-journal"), ("fsync", "dir")]
        assert not os.path.exists(path + "-journal")

    def test_metadata_only_commit_is_one_small_transaction(self, tmp_path):
        sharded, stores = bench_geometry(tmp_path)
        sharded.batch_insert(one_shard_batch(0))
        assert sharded.commit() == 4  # creation left all four uncommitted
        assert sharded.commit() == 0
        injector = FaultInjector()
        for store in stores:
            store.pager.faults = injector
        # Nothing is dirty: the metadata still has to land somewhere.
        assert sharded.commit(SERVICE_META) == 1
        assert injector.fsync_calls == {"journal": 2, "data": 1}
        # Journal header, page 0's pre-image, the zeroed header; page 0.
        assert injector.write_calls == {"journal": 3, "data": 1}
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
        reopened = [PagedNodeStore(s.pager.path, journaled=True) for s in stores]
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
        injector.crash_at("before_commit_fsync", hit=injector.hits["before_commit_fsync"] + 2)
        with pytest.raises(SimulatedCrash):
            sharded.commit(
                {"service.dedup": window.encode_with([(("c1", 2), {"applied": 2})]),
                 "service.repl.commit": "2"}
            )
        for store in stores:
            simulate_crash(store)

        reopened = [PagedNodeStore(s.pager.path, journaled=True) for s in stores]
        restarted = ShardedTree(
            "sum", num_shards=4, span=(0, 100_000), stores=reopened
        )
        assert restarted.lookup(20) == 3  # shard 0 kept the batch
        assert restarted.lookup(30_010) == 0  # shard 1 rolled it back
        marks = restarted.get_meta("service.repl.commit")
        assert sorted(marks) == ["1", "1", "1", "2"]
        assert max(int(mark) for mark in marks) == 2
        merged = DedupWindow()
        merged.load(restarted.get_meta("service.dedup"))
        assert merged.lookup("c1", 2) == (HIT, {"applied": 2})
        assert merged.lookup("c1", 1) == (HIT, {"applied": 1})
        restarted.close()
