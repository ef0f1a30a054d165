"""Tests for the offline page-file auditor (:mod:`repro.storage.fsck`)
and the ``repro fsck`` CLI: seeded corruption of every class the auditor
claims to detect -- bad checksums, free-list cycles, orphan pages, torn
write-ahead logs -- plus the ``--repair`` paths."""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.core.intervals import Interval
from repro.core.sbtree import SBTree
from repro.faults import FaultInjector, SimulatedCrash, simulate_crash
from repro.storage import PagedNodeStore, Pager, fsck
from repro.storage import pager as pager_module
from repro.storage.fsck import _write_free_page
from repro.storage.pager import (
    _FRAME_HEAD, _FRAME_TAIL, _HEADER, _WAL_HEADER, NO_PAGE, scan_wal,
)

PAGE_SIZE = 512
WAL_HEADER = _WAL_HEADER.size
#: One WAL frame: page id + commit flag, page image, crc + salt.
FRAME = _FRAME_HEAD.size + PAGE_SIZE + _FRAME_TAIL.size

_HEADER_FIELDS = (
    "magic", "version", "page_size", "page_count",
    "free_head", "root", "live", "meta_len",
)


def make_tree_file(path, n=30, *, journaled=False):
    """A committed SB-tree page file with a few dozen pages."""
    store = PagedNodeStore(
        str(path), "sum", page_size=PAGE_SIZE, buffer_capacity=8,
        journaled=journaled,
    )
    tree = SBTree("sum", store, branching=4, leaf_capacity=4)
    for i in range(n):
        tree.insert(i % 5 + 1, Interval(i * 3, i * 3 + 10))
    store.close()
    return store.pager.page_count


def read_header(path):
    with open(path, "rb") as handle:
        raw = handle.read(_HEADER.size)
    return dict(zip(_HEADER_FIELDS, _HEADER.unpack(raw)))


def patch_header(path, **fields):
    header = read_header(path)
    header.update(fields)
    with open(path, "r+b") as handle:
        handle.write(_HEADER.pack(*[header[name] for name in _HEADER_FIELDS]))


def flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def codes(report, severity=None):
    return {
        f.code
        for f in report.findings
        if severity is None or f.severity == severity
    }


# ----------------------------------------------------------------------
# Audit
# ----------------------------------------------------------------------
class TestFsckAudit:
    def test_clean_file_is_ok(self, tmp_path):
        path = tmp_path / "clean.sbt"
        make_tree_file(path)
        report = fsck(str(path))
        assert report.ok
        assert not report.errors()
        assert report.reachable > 0
        assert report.orphans == [] and report.corrupt == []

    def test_missing_file(self, tmp_path):
        report = fsck(str(tmp_path / "nope.sbt"))
        assert not report.ok
        assert report.has("missing-file")

    def test_bad_checksum_detected(self, tmp_path):
        path = tmp_path / "bits.sbt"
        page_count = make_tree_file(path)
        victim = page_count - 1  # flip one payload byte of the last page
        flip_byte(str(path), victim * PAGE_SIZE + 50)
        report = fsck(str(path))
        assert not report.ok
        assert report.has("bad-checksum")
        assert victim in report.corrupt

    def test_free_list_cycle_detected(self, tmp_path):
        path = tmp_path / "cycle.sbt"
        page_count = make_tree_file(path)
        a, b = page_count, page_count + 1
        with open(path, "r+b") as handle:
            _write_free_page(handle, a, b, PAGE_SIZE)
            _write_free_page(handle, b, a, PAGE_SIZE)
        patch_header(str(path), free_head=a, page_count=page_count + 2)
        report = fsck(str(path))
        assert not report.ok
        assert report.has("free-list-cycle")

    def test_free_list_range_detected(self, tmp_path):
        path = tmp_path / "range.sbt"
        page_count = make_tree_file(path)
        patch_header(str(path), free_head=page_count + 7)
        report = fsck(str(path))
        assert not report.ok
        assert report.has("free-list-range")

    def test_reachable_free_detected(self, tmp_path):
        path = tmp_path / "double.sbt"
        make_tree_file(path)
        root = read_header(str(path))["root"]
        patch_header(str(path), free_head=root)
        report = fsck(str(path))
        assert not report.ok
        assert report.has("reachable-free")

    def test_orphan_page_detected(self, tmp_path):
        path = tmp_path / "orphan.sbt"
        make_tree_file(path)
        pager = Pager(str(path))
        orphan = pager.allocate_page()  # allocated, never linked anywhere
        pager.close()
        report = fsck(str(path))
        assert not report.ok
        assert report.has("orphan-page")
        assert orphan in report.orphans

    def test_count_inflated_node_is_undecodable(self, tmp_path):
        # A checksummed page whose header declares more intervals than a
        # page can hold: the codec's typed error becomes a finding.
        path = tmp_path / "inflated.sbt"
        make_tree_file(path)
        root = read_header(str(path))["root"]
        with Pager(str(path)) as pager:
            payload = pager.read_page(root)
            pager.write_page(root, payload[:2] + b"\xff\xff" + payload[4:])
        report = fsck(str(path))
        assert not report.ok
        assert report.has("undecodable-node")
        assert not report.has("bad-checksum")

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "trunc.sbt"
        page_count = make_tree_file(path)
        with open(path, "r+b") as handle:
            handle.truncate(page_count * PAGE_SIZE - PAGE_SIZE // 2)
        report = fsck(str(path))
        assert not report.ok
        assert report.has("truncated-file")


class TestFsckJournal:
    def crash_with_journal(self, path):
        """A store killed with two committed transactions in its WAL
        (not yet checkpointed) and uncommitted frames behind them."""
        make_tree_file(path, journaled=True)
        store = PagedNodeStore(str(path), journaled=True, buffer_capacity=8)
        tree = SBTree(store=store)
        for i in range(10):
            tree.insert(i + 1, Interval(i * 4, i * 4 + 15))
            if i in (3, 6):
                store.commit()
        store.buffer.flush()  # uncommitted frames too
        simulate_crash(store)
        wal = str(path) + "-wal"
        assert os.path.getsize(wal) >= WAL_HEADER + 4 * FRAME
        return wal

    def frames(self, wal):
        with open(wal, "rb") as handle:
            return list(scan_wal(handle))[1:]

    def test_intact_leftover_journal_is_informational(self, tmp_path):
        path = tmp_path / "crashed.sbt"
        self.crash_with_journal(path)
        report = fsck(str(path))
        assert report.ok  # every frame verifies: replay will succeed
        assert report.has("wal-pending")
        assert report.wal_pending == 2

    def test_pending_wal_is_audited_as_replay_will_leave_the_file(self, tmp_path):
        """A store killed before its first checkpoint: the data file is
        empty, every page is in the WAL, and the audit still reads the
        tree the next open will recover."""
        path = tmp_path / "young.sbt"
        store = PagedNodeStore(
            str(path), "sum", page_size=PAGE_SIZE, buffer_capacity=8,
            journaled=True,
        )
        tree = SBTree("sum", store, branching=4, leaf_capacity=4)
        for i in range(30):
            tree.insert(i % 5 + 1, Interval(i * 3, i * 3 + 10))
        store.commit()
        simulate_crash(store)
        assert os.path.getsize(str(path)) == 0
        report = fsck(str(path))
        assert report.ok and report.has("wal-pending")
        assert report.reachable == store.node_count() > 1

    def test_torn_journal_detected(self, tmp_path):
        path = tmp_path / "torn.sbt"
        wal = self.crash_with_journal(path)
        # Corrupt an image inside the second transaction.
        commits = [f for f in self.frames(wal) if f.commit]
        flip_byte(wal, commits[1].offset + _FRAME_HEAD.size + 40)
        report = fsck(str(path))
        assert "torn-wal-tail" in codes(report, "info")
        assert "is corrupt" in report.render()
        assert report.wal_pending == 1  # replay stops after the first
        # What the audit read -- the file as that replay leaves it -- is
        # a committed state, so it is sound.
        assert report.ok

    def test_truncated_journal_tail_is_informational(self, tmp_path):
        path = tmp_path / "tail.sbt"
        wal = self.crash_with_journal(path)
        with open(wal, "r+b") as handle:
            handle.truncate(os.path.getsize(wal) - 100)
        report = fsck(str(path))
        assert report.ok  # a torn tail is the normal crash signature
        assert "torn-wal-tail" in codes(report, "info")
        assert report.wal_pending == 2

    def test_legacy_journal_flagged(self, tmp_path):
        path = tmp_path / "legacy.sbt"
        make_tree_file(path)
        for magic in (b"SBTRjrnl", b"SBTRjrn2", b"SBTRjrn3"):
            with open(str(path) + "-journal", "wb") as handle:
                handle.write(magic + b"\x00" * 32)
            report = fsck(str(path))
            assert not report.ok  # the pager refuses to open the file
            assert "legacy-journal" in codes(report, "error")
        # Repair follows the same verdict: it does not discard
        # pre-images it cannot read, and repairs nothing under them.
        report = fsck(str(path), repair=True)
        assert not report.repaired and report.has("unrepairable-journal")
        assert os.path.exists(str(path) + "-journal")

    def test_cold_journal_beside_a_live_store_is_informational(
        self, tmp_path, monkeypatch
    ):
        """What a running (or killed) journaled server leaves next to
        its page file right after a checkpoint: not a leftover."""
        path = tmp_path / "live.sbt"
        make_tree_file(path, journaled=True)
        store = PagedNodeStore(str(path), journaled=True)
        SBTree(store=store).insert(4, Interval(0, 9))
        monkeypatch.setattr(pager_module, "WAL_CHECKPOINT_BYTES", 0)
        store.commit()  # ...and checkpoints
        report = fsck(str(path))
        assert report.ok and report.wal_pending == 0
        assert codes(report, "info") == {"wal-cold"}
        simulate_crash(store)  # SIGKILL between transactions
        report = fsck(str(path), repair=True)
        assert report.repaired and report.ok
        assert "the cold WAL was removed" in report.render()
        assert os.listdir(str(tmp_path)) == ["live.sbt"]

    def test_stale_records_are_not_counted(self, tmp_path, monkeypatch):
        path = tmp_path / "reused.sbt"
        make_tree_file(path, journaled=True)
        store = PagedNodeStore(str(path), journaled=True)
        tree = SBTree(store=store)
        for i in range(12):  # a long generation...
            tree.insert(i + 1, Interval(i * 4, i * 4 + 15))
        monkeypatch.setattr(pager_module, "WAL_CHECKPOINT_BYTES", 0)
        store.commit()  # ...checkpointed
        long_one = os.path.getsize(store.pager.wal_path)
        monkeypatch.undo()
        tree.insert(5, Interval(0, 9))  # ...then a short one
        store.commit()
        simulate_crash(store)
        report = fsck(str(path))
        assert report.ok and report.has("wal-pending")
        assert report.wal_pending == 1
        assert os.path.getsize(store.pager.wal_path) == long_one
        assert WAL_HEADER + 4 * FRAME < long_one


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------
class TestFsckRepair:
    def test_repair_rebuilds_cyclic_free_list(self, tmp_path):
        path = tmp_path / "cycle.sbt"
        page_count = make_tree_file(path)
        a, b = page_count, page_count + 1
        with open(path, "r+b") as handle:
            _write_free_page(handle, a, b, PAGE_SIZE)
            _write_free_page(handle, b, a, PAGE_SIZE)
        patch_header(str(path), free_head=a, page_count=page_count + 2)
        report = fsck(str(path), repair=True)
        assert report.repaired
        assert report.ok
        assert report.pre_repair is not None
        assert report.pre_repair.has("free-list-cycle")
        assert report.free_pages == 2
        assert fsck(str(path)).ok  # a fresh audit agrees

    def test_repair_reclaims_orphan(self, tmp_path):
        path = tmp_path / "orphan.sbt"
        make_tree_file(path)
        pager = Pager(str(path))
        orphan = pager.allocate_page()
        pager.close()
        report = fsck(str(path), repair=True)
        assert report.repaired and report.ok
        assert report.free_pages == 1
        assert report.orphans == []
        # The reclaimed page is genuinely reusable: the allocator hands
        # it straight back off the rebuilt free list.
        pager = Pager(str(path))
        recycled = pager.allocate_page()
        assert recycled == orphan
        pager.free_page(recycled)
        pager.close()
        assert fsck(str(path)).ok

    def test_repair_quarantines_unreachable_corruption(self, tmp_path):
        path = tmp_path / "quarantine.sbt"
        make_tree_file(path)
        pager = Pager(str(path))
        orphan = pager.allocate_page()
        pager.close()
        flip_byte(str(path), orphan * PAGE_SIZE + 10)
        report = fsck(str(path), repair=True)
        assert report.repaired
        assert report.ok  # quarantined, so no longer an *error*
        assert orphan in report.quarantined
        assert report.has("quarantined-page")
        assert report.unrepairable == []
        # The quarantined page stays fenced off across repeated audits
        # and is never handed back to the allocator.
        again = fsck(str(path))
        assert again.ok and orphan in again.quarantined
        pager = Pager(str(path))
        fresh = pager.allocate_page()
        assert fresh != orphan
        pager.close()

    def test_repair_reports_reachable_corruption_as_unrepairable(self, tmp_path):
        path = tmp_path / "lost.sbt"
        make_tree_file(path)
        root = read_header(str(path))["root"]
        flip_byte(str(path), root * PAGE_SIZE + 30)
        report = fsck(str(path), repair=True)
        assert report.repaired
        assert not report.ok
        assert report.has("unrepairable-node")
        assert root in report.unrepairable

    def test_repair_settles_intact_journal(self, tmp_path):
        path = tmp_path / "crashed.sbt"
        make_tree_file(path, journaled=True)
        store = PagedNodeStore(str(path), journaled=True)
        tree = SBTree(store=store)
        for i in range(10):
            tree.insert(i + 1, Interval(i * 4, i * 4 + 15))
        store.commit()
        committed = tree.to_table()
        tree.insert(99, Interval(0, 99))
        store.buffer.flush()  # an uncommitted frame behind the commit
        simulate_crash(store)
        report = fsck(str(path), repair=True)
        assert report.repaired and report.ok
        assert report.has("wal-settled")
        assert not os.path.exists(str(path) + "-wal")
        reopened = PagedNodeStore(str(path), journaled=True)
        assert SBTree(store=reopened).to_table() == committed
        reopened.close()

    def test_repair_settles_torn_journal(self, tmp_path):
        path = tmp_path / "torn.sbt"
        make_tree_file(path, journaled=True)
        store = PagedNodeStore(str(path), journaled=True)
        tree = SBTree(store=store)
        for i in range(10):
            tree.insert(i + 1, Interval(i * 4, i * 4 + 15))
            store.commit()
        simulate_crash(store)
        wal = str(path) + "-wal"
        flip_byte(wal, WAL_HEADER + 2 * FRAME + _FRAME_HEAD.size + 40)
        report = fsck(str(path), repair=True)
        # Best effort: replay stopped at the corruption, the WAL is
        # settled either way, and whatever data loss remains is reported
        # rather than hidden.
        assert report.repaired
        assert not os.path.exists(wal)

    @pytest.mark.parametrize("keep", ["half-a-header", "two-and-a-half-records"])
    def test_repair_settles_unsynced_journal_tail(self, tmp_path, keep):
        """The WAL a crash *before the commit fsync* leaves: frames no
        fsync covered, so any prefix may survive (and a WAL this
        transaction created may be cut inside its header).  The data
        file was never written, so fsck calls it sound, and repair
        settles the WAL back to exactly the committed bytes."""
        path = tmp_path / "tail.sbt"
        make_tree_file(path, journaled=True)
        committed = path.read_bytes()
        store = PagedNodeStore(str(path), journaled=True, buffer_capacity=64)
        tree = SBTree(store=store)
        for i in range(10):
            tree.insert(i + 1, Interval(i * 4, i * 4 + 15))
        store.pager.faults = FaultInjector().crash_at("before_commit_fsync")
        with pytest.raises(SimulatedCrash):
            store.commit()  # the whole dirty set in one append, then dies
        simulate_crash(store)
        wal = str(path) + "-wal"
        assert os.path.getsize(wal) >= WAL_HEADER + 4 * FRAME
        with open(wal, "r+b") as handle:
            handle.truncate(
                WAL_HEADER // 2 if keep == "half-a-header"
                else WAL_HEADER + 2 * FRAME + FRAME // 2
            )
        assert path.read_bytes() == committed
        report = fsck(str(path))
        assert report.ok and report.has("wal-cold")
        assert report.has("torn-wal-tail") == (keep != "half-a-header")
        report = fsck(str(path), repair=True)
        assert report.repaired and report.ok
        assert not os.path.exists(wal)
        assert path.read_bytes() == committed


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestFsckCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.sbt"
        make_tree_file(path)
        assert cli_main(["fsck", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_corrupt_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bits.sbt"
        page_count = make_tree_file(path)
        flip_byte(str(path), (page_count - 1) * PAGE_SIZE + 50)
        assert cli_main(["fsck", str(path)]) == 1
        assert "bad-checksum" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert cli_main(["fsck", str(tmp_path / "nope.sbt")]) == 2

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "clean.sbt"
        make_tree_file(path)
        assert cli_main(["fsck", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert isinstance(payload["findings"], list)

    def test_repair_flag(self, tmp_path, capsys):
        path = tmp_path / "orphan.sbt"
        make_tree_file(path)
        pager = Pager(str(path))
        pager.allocate_page()
        pager.close()
        assert cli_main(["fsck", str(path)]) == 1
        assert cli_main(["fsck", str(path), "--repair"]) == 0
        assert cli_main(["fsck", str(path)]) == 0
