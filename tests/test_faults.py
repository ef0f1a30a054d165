"""Tests for the fault-injection layer (:mod:`repro.faults`) and the
pager's failure handling: retries, degraded mode, write-ahead journal
discipline (one barrier per write-back set), torn-record recovery, the
power-loss model, and the buffer pool's eviction path under injected
I/O errors."""

import errno
import hashlib
import os
import warnings

import pytest

from repro import obs
from repro.core.intervals import Interval
from repro.core.sbtree import SBTree
from repro.faults import FaultInjector, SimulatedCrash, simulate_crash
from repro.storage import (
    BufferPool,
    JournalError,
    PagedNodeStore,
    Pager,
    PagerDegradedError,
)
from repro.storage.pager import (
    _JOURNAL_HEADER, _JOURNAL_RECORD, _JOURNAL_TRAILER, _journal_header,
    _journal_record, scan_journal,
)

PAGE_SIZE = 512
HEADER_SIZE = _JOURNAL_HEADER.size
#: One journal record: page id, pre-image, crc + salt.
STRIDE = _JOURNAL_RECORD.size + PAGE_SIZE + _JOURNAL_TRAILER.size


def fast_pager(path, **kwargs):
    """A pager with sleeping disabled so retry tests run instantly."""
    kwargs.setdefault("page_size", PAGE_SIZE)
    kwargs.setdefault("retry_backoff", 0.0)
    return Pager(str(path), **kwargs)


def sha256_of(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def assert_write_ahead(events, journal_path, base_count, page_size=PAGE_SIZE):
    """The barrier rule, checked against the injector's event order.

    *events* span one transaction, whose (hot) journal is still on
    disk: every data-file write of a page that existed at the last
    commit (page 0 included) comes after a journal fsync that covers the
    journal header and that page's pre-image record -- and, if that
    transaction created the journal file, after a sync of its directory
    entry.  Returns how many such overwrites were checked.
    """
    with open(journal_path, "rb") as handle:
        header, *records = scan_journal(handle)
    assert header.verdict == "hot"
    record_end = {}  # page id -> where its record ends
    for index, record in enumerate(r for r in records if r.status == "ok"):
        record_end[record.page_id] = HEADER_SIZE + (index + 1) * STRIDE
    appended = synced = checked = 0
    entry_synced = True
    for event in events:
        if event[0] == "create":
            entry_synced = False
        elif event[:2] == ("write", "journal"):
            appended = event[2] + event[3]
        elif event == ("fsync", "journal"):
            synced = appended
        elif event == ("fsync", "dir"):
            entry_synced = True
        elif event[:2] == ("write", "data"):
            page_id = event[2] // page_size
            if page_id < base_count:
                assert entry_synced, f"page {page_id}: journal entry not synced"
                assert page_id in record_end, f"page {page_id}: no pre-image"
                assert record_end[page_id] <= synced, (
                    f"page {page_id} overwritten before its pre-image "
                    f"(ends at {record_end[page_id]}) was fsynced ({synced})"
                )
                checked += 1
    return checked


def committed_pager(path, payloads, **kwargs):
    """A journaled pager with ``payloads`` committed on pages 1..n."""
    pager = fast_pager(path, journaled=True, **kwargs)
    pages = []
    for payload in payloads:
        page_id = pager.allocate_page()
        pager.write_page(page_id, payload)
        pages.append(page_id)
    pager.commit()
    return pager, pages


# ----------------------------------------------------------------------
# The injector itself
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_crash_fires_at_exact_hit(self):
        inj = FaultInjector().crash_at("p", hit=3)
        inj.crash_point("p")
        inj.crash_point("p")
        with pytest.raises(SimulatedCrash) as excinfo:
            inj.crash_point("p")
        assert excinfo.value.point == "p"
        assert inj.hits["p"] == 3
        assert inj.injected["crash"] == 1
        # The charge is spent: the point is passable afterwards.
        inj.crash_point("p")
        assert inj.hits["p"] == 4

    def test_hit_numbers_are_one_based(self):
        with pytest.raises(ValueError):
            FaultInjector().crash_at("p", hit=0)

    def test_disarm_counts_without_firing(self):
        inj = FaultInjector().crash_at("p", hit=1).disarm()
        inj.crash_point("p")
        inj.crash_point("p")
        assert inj.hits["p"] == 2
        assert inj.injected == {}
        inj.rearm()
        # The armed hit number (1) is already past: no crash.
        inj.crash_point("p")

    def test_transient_write_fault_exhausts(self):
        inj = FaultInjector().fail_writes("data", times=2, errno_=errno.EIO)
        for _ in range(2):
            with pytest.raises(OSError) as excinfo:
                inj.intercept_write("data", b"x")
            assert excinfo.value.errno == errno.EIO
        data, crash = inj.intercept_write("data", b"x")
        assert (data, crash) == (b"x", None)
        assert inj.injected["io_error"] == 2
        assert inj.write_calls["data"] == 3

    def test_write_fault_label_is_selective(self):
        inj = FaultInjector().fail_writes("journal", times=1)
        assert inj.intercept_write("data", b"x") == (b"x", None)
        with pytest.raises(OSError):
            inj.intercept_write("journal", b"x")

    def test_torn_write_returns_prefix_and_crash(self):
        inj = FaultInjector().tear_write("journal", fraction=0.5)
        data, crash = inj.intercept_write("journal", b"0123456789")
        assert data == b"01234"
        assert isinstance(crash, SimulatedCrash)
        # One-shot: the next write is whole.
        assert inj.intercept_write("journal", b"ab") == (b"ab", None)

    def test_torn_write_always_keeps_a_strict_prefix(self):
        inj = FaultInjector().tear_write("data", fraction=0.0)
        data, _ = inj.intercept_write("data", b"xy")
        assert data == b"x"
        inj.tear_write("data", call=inj.write_calls["data"] + 1, fraction=1.0)
        data, _ = inj.intercept_write("data", b"xy")
        assert data == b"x"  # never the full payload

    def test_determinism_same_plan_same_firing(self):
        def run():
            inj = FaultInjector(seed=7)
            inj.crash_at("a", hit=2).fail_writes("data", times=1)
            log = []
            for point in ("a", "b", "a", "b"):
                try:
                    inj.crash_point(point)
                    log.append(("pass", point))
                except SimulatedCrash:
                    log.append(("crash", point))
            try:
                inj.intercept_write("data", b"x")
            except OSError:
                log.append(("eio", "data"))
            return log, dict(inj.hits), dict(inj.injected)

        assert run() == run()

    def test_counters_mirrored_into_obs_registry(self):
        registry = obs.enable(obs.MetricsRegistry())
        try:
            inj = FaultInjector().fail_writes("data", times=1)
            with pytest.raises(OSError):
                inj.intercept_write("data", b"x")
            assert registry.counter("faults.io_error").value == 1
        finally:
            obs.disable()


# ----------------------------------------------------------------------
# Pager: retries and degraded mode
# ----------------------------------------------------------------------
class TestPagerRetries:
    def test_transient_write_error_is_retried(self, tmp_path):
        pager = fast_pager(tmp_path / "p.sbt")
        page = pager.allocate_page()
        inj = FaultInjector().fail_writes("data", times=2)
        pager.faults = inj
        pager.write_page(page, b"survived")
        pager.faults = None
        assert pager.write_retries == 2
        assert pager.write_failures == 0
        assert not pager.degraded
        assert pager.read_page(page).rstrip(b"\x00") == b"survived"
        pager.close()

    def test_retry_exhaustion_propagates_oserror(self, tmp_path):
        pager = fast_pager(tmp_path / "p.sbt", max_write_retries=1)
        page = pager.allocate_page()
        pager.write_page(page, b"old")
        pager.faults = FaultInjector().fail_writes("data", times=None)
        with pytest.raises(OSError):
            pager.write_page(page, b"new")
        pager.faults = None
        assert pager.write_failures == 1
        assert not pager.degraded  # one failure < degrade_after
        pager.write_page(page, b"new")  # recovers once the fault clears
        pager.close()

    def test_degraded_mode_after_consecutive_failures(self, tmp_path):
        pager, (page,) = committed_pager(
            tmp_path / "p.sbt", [b"committed"],
            max_write_retries=0, degrade_after=2,
        )
        pager.faults = FaultInjector().fail_writes("data", times=None)
        with pytest.raises(OSError):
            pager.write_page(page, b"doomed-1")
        with pytest.warns(RuntimeWarning, match="degraded mode"):
            with pytest.raises(OSError):
                pager.write_page(page, b"doomed-2")
        assert pager.degraded
        # Mutations now fail fast; reads keep working.
        with pytest.raises(PagerDegradedError):
            pager.write_page(page, b"doomed-3")
        with pytest.raises(PagerDegradedError):
            pager.allocate_page()
        with pytest.raises(PagerDegradedError):
            pager.commit()
        assert pager.read_page(page).rstrip(b"\x00") == b"committed"
        # Degraded close leaves the journal: reopening rolls back.
        pager.close()
        assert os.path.exists(str(tmp_path / "p.sbt") + "-journal")
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()

    def test_degraded_store_close_skips_flush(self, tmp_path):
        path = str(tmp_path / "s.sbt")
        store = PagedNodeStore(
            path, "sum", page_size=PAGE_SIZE, journaled=True, buffer_capacity=8,
        )
        store.pager.retry_backoff = 0.0
        store.pager.max_write_retries = 0
        store.pager.degrade_after = 1
        tree = SBTree("sum", store, branching=4, leaf_capacity=4)
        tree.insert(5, Interval(0, 10))
        store.commit()
        committed = tree.to_table()
        tree.insert(7, Interval(5, 20))  # dirty frames only
        store.pager.faults = FaultInjector().fail_writes("data", times=None)
        with pytest.warns(RuntimeWarning, match="degraded mode"):
            with pytest.raises(OSError):
                store.commit()
        assert store.pager.degraded
        store.close()  # must not raise trying to flush dirty frames
        store.pager.faults = None
        reopened = PagedNodeStore(path, journaled=True)
        assert SBTree(store=reopened).to_table() == committed
        reopened.close()

    def test_fsync_failure_is_never_retried(self, tmp_path):
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.write_page(page, b"uncommitted")
        inj = FaultInjector().fail_fsyncs("data", times=1)
        pager.faults = inj
        with pytest.raises(OSError):
            pager.commit()
        # Exactly one fsync attempt reached the injector: no retry loop.
        assert inj.fsync_calls["data"] == 1
        assert pager.fsync_failures == 1
        # The commit point (the journal's invalidation) was never reached.
        assert "before_journal_invalidate" not in inj.hits
        assert inj.fsync_calls == {"data": 1}
        simulate_crash(pager)
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()


# ----------------------------------------------------------------------
# Write-ahead discipline
# ----------------------------------------------------------------------
class TestJournalWriteAhead:
    def test_journal_record_fsynced_before_page_overwrite(self, tmp_path):
        self.first_overwrite(tmp_path, reopened=False)

    def test_first_transaction_of_a_pager_syncs_the_journal_entry(self, tmp_path):
        self.first_overwrite(tmp_path, reopened=True)

    def first_overwrite(self, tmp_path, reopened):
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        if reopened:  # a pager's first transaction creates the journal
            pager.close()
            pager = fast_pager(tmp_path / "p.sbt", journaled=True)
        base_count = pager.page_count
        inj = FaultInjector()
        pager.faults = inj
        pager.write_page(page, b"uncommitted")
        # The journal header and the pre-image record were written
        # unsynced, then made durable together -- the journal, and the
        # directory entry of one just created -- before the overwrite's
        # data write.
        assert inj.events == [("create", pager.journal_path)] * reopened + [
            ("write", "journal", 0, HEADER_SIZE),
            ("write", "journal", HEADER_SIZE, STRIDE),
            ("fsync", "journal"),
        ] + [("fsync", "dir")] * reopened + [
            ("write", "data", page * PAGE_SIZE, PAGE_SIZE),
        ]
        assert inj.hits.get("after_journal_create", 0) == reopened
        assert inj.hits["after_journal_fsync"] == 1
        simulate_crash(pager)
        assert assert_write_ahead(inj.events, pager.journal_path, base_count) == 1
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()

    def test_every_overwrite_waits_for_its_barrier(self, tmp_path):
        """A transaction big enough to evict mid-way: several write-back
        sets, several barriers, and no committed page overwritten ahead
        of the barrier that covers it."""
        path = str(tmp_path / "s.sbt")
        store = PagedNodeStore(
            path, "sum", page_size=PAGE_SIZE, journaled=True, buffer_capacity=8,
        )
        tree = SBTree("sum", store, branching=4, leaf_capacity=4)
        for i in range(40):
            tree.insert(i % 5 + 1, Interval(i * 3, i * 3 + 25))
        store.commit()
        committed = tree.to_table()
        base_count = store.pager.page_count
        inj = FaultInjector()
        store.pager.faults = inj
        for i in range(40, 70):
            tree.insert(i % 5 + 1, Interval(i * 3 - 60, i * 3))
        store.buffer.flush()
        assert store.buffer.stats.evictions > 0
        assert inj.fsync_calls["journal"] >= 2  # more than one barrier...
        # ...but fewer than one per journaled page.
        assert inj.fsync_calls["journal"] < inj.write_calls["journal"] / 2
        assert "data" not in inj.fsync_calls
        simulate_crash(store)
        checked = assert_write_ahead(inj.events, store.pager.journal_path, base_count)
        assert checked >= 10
        reopened = PagedNodeStore(path, journaled=True)
        assert SBTree(store=reopened).to_table() == committed
        reopened.close()

    def test_eviction_journals_every_dirty_frame_behind_one_barrier(self, tmp_path):
        pager, pages = committed_pager(
            tmp_path / "p.sbt", [b"p%d" % i for i in range(4)]
        )
        pool = BufferPool(pager, capacity=3)
        inj = FaultInjector()
        pager.faults = inj
        for page in pages[:3]:
            pool.write(page, b"dirty", None)
        pool.write(pages[3], b"dirty", None)  # evicts pages[0]
        # One barrier covered the victim and the two frames still dirty.
        assert inj.fsync_calls == {"journal": 1}
        assert inj.write_calls == {"journal": 1 + 3, "data": 1}
        pool.flush()  # pages[3] is new to the journal: one more barrier
        assert inj.fsync_calls == {"journal": 2}
        assert inj.write_calls == {"journal": 1 + 4, "data": 1 + 3}
        simulate_crash(pager)

    @pytest.mark.parametrize(
        "point", ["before_journal_fsync", "before_page_write", "after_page_write"]
    )
    def test_crash_around_first_overwrite_recovers(self, tmp_path, point):
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.faults = FaultInjector().crash_at(point, hit=1)
        with pytest.raises(SimulatedCrash):
            pager.write_page(page, b"uncommitted")
        simulate_crash(pager)
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()


# ----------------------------------------------------------------------
# Torn / corrupt journal records
# ----------------------------------------------------------------------
class TestJournalRecords:
    def test_torn_record_append_recovers_cleanly(self, tmp_path):
        pager, (a, b) = committed_pager(tmp_path / "p.sbt", [b"aaa", b"bbb"])
        pager.write_page(a, b"a-new")  # record 1: complete
        pager.faults = FaultInjector().tear_write("journal", fraction=0.4)
        with pytest.raises(SimulatedCrash):
            pager.write_page(b, b"b-new")  # record 2: torn mid-append
        simulate_crash(pager)
        # The torn tail is the normal crash signature: no warning, and
        # both pages come back committed (b was never overwritten).
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(a).rstrip(b"\x00") == b"aaa"
        assert reopened.read_page(b).rstrip(b"\x00") == b"bbb"
        reopened.close()

    def test_rollback_stops_at_last_valid_record(self, tmp_path):
        pager, (a, b) = committed_pager(tmp_path / "p.sbt", [b"aaa", b"bbb"])
        pager.write_page(a, b"a-new")
        pager.write_page(b, b"b-new")
        simulate_crash(pager)
        # Corrupt the pre-image inside record 2 (page b's).
        offset = HEADER_SIZE + STRIDE + _JOURNAL_RECORD.size + 40
        with open(pager.journal_path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.warns(RuntimeWarning, match="stops at the last valid"):
            reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        # Record 1 (before the corruption) was applied; record 2 was not.
        assert reopened.read_page(a).rstrip(b"\x00") == b"aaa"
        assert reopened.read_page(b).rstrip(b"\x00") == b"b-new"
        reopened.close()

    def test_bad_magic_warns_and_proceeds(self, tmp_path):
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.close()
        with open(pager.journal_path, "wb") as fh:
            fh.write(b"NOTAJRNL".ljust(HEADER_SIZE, b"\x01"))
        with pytest.warns(RuntimeWarning, match="bad journal magic"):
            reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert not os.path.exists(pager.journal_path)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()

    def test_truncated_header_is_an_unstarted_transaction(self, tmp_path):
        """A header that never became durable proves no barrier completed,
        so nothing was overwritten: no warning, no error even under
        ``strict=True``, just "nothing to roll back"."""
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.close()
        before = sha256_of(pager.path)
        with open(pager.journal_path, "wb") as fh:
            fh.write(b"\x01\x02\x03")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened = fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        assert not os.path.exists(pager.journal_path)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()
        assert sha256_of(pager.path) == before

    def test_strict_mode_raises_and_keeps_journal(self, tmp_path):
        pager, _ = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.close()
        with open(pager.journal_path, "wb") as fh:
            fh.write(b"NOTAJRNL".ljust(HEADER_SIZE, b"\x01"))
        with pytest.raises(JournalError, match="bad journal magic"):
            fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        # Left on disk for forensics / `repro fsck`.
        assert os.path.exists(pager.journal_path)

    @pytest.mark.parametrize("magic", [b"SBTRjrnl", b"SBTRjrn2"])
    def test_journal_of_a_previous_format_is_refused(self, tmp_path, magic):
        """No writer of those formats is left to keep a reader for: a v2
        journal existed only while its transaction was open, so one on
        disk is hot -- refused under strict, warned about otherwise."""
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.close()
        with open(pager.journal_path, "wb") as fh:
            fh.write(magic + b"\x00\x02\x00\x00" + b"\x00" * 8)  # a v2 header
        with pytest.raises(JournalError, match="legacy journal format"):
            fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        with pytest.warns(RuntimeWarning, match="legacy journal format"):
            fast_pager(tmp_path / "p.sbt", journaled=True).close()
        assert not os.path.exists(pager.journal_path)

    def test_damaged_hot_header_is_not_trusted(self, tmp_path):
        """A flipped bit in base_count must not truncate the file."""
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.write_page(page, b"uncommitted")
        simulate_crash(pager)
        with open(pager.journal_path, "r+b") as fh:
            fh.seek(12)  # inside base_count
            fh.write(b"\x01")
        size = os.path.getsize(pager.path)
        with pytest.raises(JournalError, match="fails its checksum"):
            fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        assert os.path.getsize(pager.path) == size


# ----------------------------------------------------------------------
# The barrier protocol: what may sit unsynced, and what that leaves behind
# ----------------------------------------------------------------------
class TestJournalBarrier:
    def crash_before_first_barrier(self, path):
        """Commit two pages, then die with a fresh page allocated and the
        pre-images of both pages appended but no barrier run."""
        pager, pages = committed_pager(path, [b"aaa", b"bbb"])
        committed = sha256_of(pager.path)
        pager.faults = FaultInjector().crash_at("before_journal_fsync")
        fresh = pager.allocate_page()  # written at once: no barrier needed
        assert fresh >= len(pages) + 1
        with pytest.raises(SimulatedCrash):
            pager.write_pages([(pages[0], b"a-new"), (pages[1], b"b-new")])
        simulate_crash(pager)
        return pager, committed

    @pytest.mark.parametrize(
        "shape", ["empty", "short-header", "zeroed-header", "torn-record", "whole"]
    )
    def test_crash_before_the_barrier_leaves_the_data_file_untouched(
        self, tmp_path, shape
    ):
        pager, committed = self.crash_before_first_barrier(tmp_path / "p.sbt")
        header, stride = HEADER_SIZE, STRIDE
        # Header + pre-images of page 0 and both data pages, none synced.
        assert pager.journal_bytes == header + 3 * stride
        # None of it was synced, so any of these may be what survives
        # (the first two only of a journal file this transaction made).
        with open(pager.journal_path, "r+b") as fh:
            if shape == "empty":
                fh.truncate(0)
            elif shape == "short-header":
                fh.truncate(header - 5)
            elif shape == "zeroed-header":
                fh.write(b"\x00" * header)
            elif shape == "torn-record":
                fh.truncate(header + stride + stride // 2)
        # The fresh page is in the file; the committed pages were never
        # touched, whatever the journal looks like.
        assert os.path.getsize(pager.path) == 4 * PAGE_SIZE
        with open(pager.path, "rb") as fh:
            assert hashlib.sha256(fh.read(3 * PAGE_SIZE)).hexdigest() == committed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened = fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        assert not os.path.exists(pager.journal_path)
        assert reopened.page_count == 3  # the fresh page is gone again
        reopened.close()
        assert sha256_of(pager.path) == committed

    def test_fresh_pages_are_written_without_a_barrier(self, tmp_path):
        pager, _ = committed_pager(tmp_path / "p.sbt", [b"committed"])
        committed = sha256_of(pager.path)
        inj = FaultInjector()
        pager.faults = inj
        fresh = [pager.allocate_page() for _ in range(3)]
        pager.set_root(fresh[0])
        assert inj.fsync_calls == {}
        assert inj.write_calls == {"journal": 1, "data": 3}  # header + 3 pages
        simulate_crash(pager)
        assert os.path.getsize(pager.path) == 5 * PAGE_SIZE
        fast_pager(tmp_path / "p.sbt", journaled=True, strict=True).close()
        assert sha256_of(pager.path) == committed

    def test_page_freed_and_reallocated_inside_one_transaction(self, tmp_path):
        pager, (a, b) = committed_pager(tmp_path / "p.sbt", [b"aaa", b"bbb"])
        committed = sha256_of(pager.path)
        base_count = pager.page_count
        inj = FaultInjector()
        pager.faults = inj
        pager.free_page(a)  # overwrites a with a free-list link
        assert pager.allocate_page() == a  # ...and hands it out again
        pager.write_pages([(a, b"a-again"), (b, b"b-new")])
        # a's pre-image was journaled once, before the link was written.
        assert inj.write_calls["journal"] == 1 + 3  # header, page 0, a, b
        simulate_crash(pager)
        assert assert_write_ahead(inj.events, pager.journal_path, base_count) == 4
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(a).rstrip(b"\x00") == b"aaa"
        assert reopened.read_page(b).rstrip(b"\x00") == b"bbb"
        reopened.close()
        assert sha256_of(pager.path) == committed

    def test_failed_journal_fsync_is_final(self, tmp_path):
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        committed = sha256_of(pager.path)
        inj = FaultInjector().fail_fsyncs("journal", times=1)
        pager.faults = inj
        with pytest.warns(RuntimeWarning, match="degraded mode"):
            with pytest.raises(OSError):
                pager.write_page(page, b"doomed")
        # One attempt, no retry, and the overwrite never happened.
        assert inj.fsync_calls == {"journal": 1}
        assert "data" not in inj.write_calls
        assert pager.fsync_failures == 1
        # The next barrier would be that retry: the pager refuses it.
        assert pager.degraded
        with pytest.raises(PagerDegradedError):
            pager.write_page(page, b"doomed again")
        with pytest.raises(PagerDegradedError):
            pager.commit()
        assert inj.fsync_calls == {"journal": 1}
        pager.close()  # leaves the journal for the next open
        assert sha256_of(pager.path) == committed
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()

    def test_journal_in_the_previous_layout_still_rolls_back(self, tmp_path):
        """Record *order* is not part of the format: a journal laid out
        as the per-page-sync pager wrote it -- page 0 first, then each
        page as it was first overwritten, data pages overwritten and
        fresh pages appended behind it -- rolls back under this build."""
        pager, (a, b) = committed_pager(tmp_path / "p.sbt", [b"aaa", b"bbb"])
        pager.close()
        committed = sha256_of(pager.path)
        with open(pager.path, "r+b") as data:
            image = data.read()
            with open(pager.journal_path, "wb") as journal:
                journal.write(_journal_header(PAGE_SIZE, 3, salt=77))
                for page_id in (0, b, a):
                    pre = image[page_id * PAGE_SIZE:(page_id + 1) * PAGE_SIZE]
                    journal.write(_journal_record(page_id, pre, salt=77))
            for page_id in (0, a, b, 3, 4):  # overwrite, and grow the file
                data.seek(page_id * PAGE_SIZE)
                data.write(b"\xee" * PAGE_SIZE)
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        assert reopened.read_page(a).rstrip(b"\x00") == b"aaa"
        assert reopened.read_page(b).rstrip(b"\x00") == b"bbb"
        reopened.close()
        assert sha256_of(pager.path) == committed


# ----------------------------------------------------------------------
# Power loss: unsynced writes and directory operations may vanish
# ----------------------------------------------------------------------
class TestPowerLoss:
    def test_synced_writes_survive_and_unsynced_ones_do_not(self, tmp_path):
        pager, (a, b) = committed_pager(tmp_path / "p.sbt", [b"aaa", b"bbb"])
        inj = FaultInjector()
        pager.faults = inj
        pager.write_page(a, b"a-new")
        pager.sync()  # a-new (and the journal before it) are on the platter
        pager.write_page(b, b"b-new")  # journal synced, the data write not
        simulate_crash(pager, power_loss="all")
        assert inj.injected["power_loss"] == 1
        with open(pager.path, "rb") as fh:
            image = fh.read()
        assert image[a * PAGE_SIZE:].startswith(b"a-new")
        assert image[b * PAGE_SIZE:].startswith(b"bbb")
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(a).rstrip(b"\x00") == b"aaa"
        assert reopened.read_page(b).rstrip(b"\x00") == b"bbb"
        reopened.close()

    def test_unsynced_journal_create_may_vanish(self, tmp_path):
        pager, _ = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.close()
        committed = sha256_of(pager.path)
        pager = fast_pager(tmp_path / "p.sbt", journaled=True)
        pager.faults = FaultInjector()
        pager.allocate_page()  # opens the journal; no barrier yet
        assert os.path.exists(pager.journal_path)
        simulate_crash(pager, power_loss="all")
        assert not os.path.exists(pager.journal_path)
        # The fresh page's unsynced write went with it.
        assert sha256_of(pager.path) == committed

    def test_unsynced_journal_unlink_may_come_back(self, tmp_path):
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"old"])
        # Die right after a clean close's unlink, before its directory sync.
        inj = FaultInjector().fail_fsyncs("dir", times=None)
        pager.write_page(page, b"new")
        pager.faults = inj
        with pytest.raises(OSError):
            pager.close()
        assert pager._file.closed  # the handles went all the same
        assert not os.path.exists(pager.journal_path)
        assert inj.lose_power("all") == {"writes": 0, "dir_ops": 1}
        # The journal is back, and cold: the commit it outlived stands.
        assert os.path.exists(pager.journal_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened = fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"new"
        reopened.close()
        assert not os.path.exists(pager.journal_path)

    def test_dropped_invalidation_rolls_the_commit_back_whole(self, tmp_path):
        """The zeroing write is the commit point only once fsynced: if
        the fsync never happens and the zeros are lost, the journal is
        hot again, intact, and the transaction is undone atomically."""
        pager, (a, b) = committed_pager(tmp_path / "p.sbt", [b"aaa", b"bbb"])
        committed = sha256_of(pager.path)
        inj = FaultInjector()
        pager.faults = inj
        pager.write_pages([(a, b"a-new"), (b, b"b-new")])
        inj.fail_fsyncs("journal", times=1)  # the barrier is already behind
        with pytest.warns(RuntimeWarning, match="degraded mode"):
            with pytest.raises(OSError):
                pager.commit()
        assert pager.degraded  # the next transaction must not reuse the file
        assert inj.events[-1] == ("write", "journal", 0, HEADER_SIZE)
        simulate_crash(pager, power_loss="all")
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        assert reopened.read_page(a).rstrip(b"\x00") == b"aaa"
        reopened.close()
        assert sha256_of(pager.path) == committed

    def test_a_surviving_later_write_wins_over_a_dropped_earlier_one(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "raw.bin"
        path.write_bytes(b"0" * 8)
        inj = FaultInjector()
        with open(str(path), "r+b") as handle:
            for offset, data in ((0, b"AAAA"), (0, b"BBBB"), (8, b"CC")):
                payload, _ = inj.intercept_write("data", data, handle, offset)
                handle.seek(offset)
                handle.write(payload)
        # Keep only the second write: the first is dropped but must not
        # resurrect the zeros under it; the append is cut off again.
        survives = iter([False, True, False])  # asked newest first

        class Rigged:
            def choice(self, options):
                return "some"

            def random(self):
                return 0.0 if next(survives) else 1.0

        monkeypatch.setattr("repro.faults.derive_rng", lambda *a: Rigged())
        assert inj.lose_power(1) == {"writes": 2, "dir_ops": 0}
        assert path.read_bytes() == b"BBBB0000"

    def test_seeded_subsets_are_deterministic(self, tmp_path):
        def run(seed):
            base = tmp_path / f"run-{seed}-{len(os.listdir(tmp_path))}"
            base.mkdir()
            pager, pages = committed_pager(base / "p.sbt", [b"aaa", b"bbb", b"ccc"])
            pager.faults = FaultInjector()
            pager.write_pages([(p, b"new") for p in pages])
            pager.allocate_page()
            simulate_crash(pager, power_loss=seed)
            journal = None  # its salt is random: compare what it says
            if os.path.exists(pager.journal_path):
                with open(pager.journal_path, "rb") as handle:
                    journal = tuple(item[:2] for item in scan_journal(handle))
            return sha256_of(pager.path), journal

        assert run(5) == run(5)
        assert len({run(seed) for seed in range(12)}) > 1


# ----------------------------------------------------------------------
# The sync counters count what the injector sees
# ----------------------------------------------------------------------
class TestFsyncAccounting:
    def test_stats_and_counters_reconcile_with_the_injector(self, tmp_path):
        path = str(tmp_path / "s.sbt")
        inj = FaultInjector()
        registry = obs.enable(obs.MetricsRegistry())
        try:
            # From file creation on: every fsync the pager ever issues.
            store = PagedNodeStore(
                path, "sum", page_size=PAGE_SIZE, journaled=True,
                buffer_capacity=4, faults=inj,
            )
            tree = SBTree("sum", store, branching=4, leaf_capacity=4)
            for i in range(60):
                tree.insert(i % 5 + 1, Interval(i * 3, i * 3 + 25))
                if i % 16 == 15:
                    store.commit()
            store.flush()
            inj.fail_fsyncs("data", times=1)  # a failed attempt counts too
            tree.insert(1, Interval(0, 5))
            with pytest.raises(OSError):
                store.commit()
            store.close()
            assert set(inj.fsync_calls) == {"journal", "data", "dir"}
            # The journal's creation and its removal by the clean close:
            # no commit in between touched the directory.
            assert inj.fsync_calls["dir"] == 2
            assert store.pager.stats.fsyncs == sum(inj.fsync_calls.values())
            for label, calls in inj.fsync_calls.items():
                assert registry.counter(f"pager.fsyncs.{label}").value == calls
            # A leftover journal's rollback syncs are counted as well.
            crashed = PagedNodeStore(path, journaled=True, faults=inj)
            before = dict(inj.fsync_calls)
            SBTree(store=crashed).insert(2, Interval(0, 9))
            crashed.buffer.flush()
            simulate_crash(crashed)
            reopened = PagedNodeStore(path, journaled=True, faults=inj)
            assert reopened.pager.stats.fsyncs == 2  # data, then the entry
            assert inj.fsync_calls["data"] == before["data"] + 1
            reopened.close()
        finally:
            obs.disable()


# ----------------------------------------------------------------------
# Buffer pool: the eviction write-back regression
# ----------------------------------------------------------------------
class TestBufferPoolEvictionFailure:
    def test_failed_eviction_writeback_keeps_dirty_frame(self, tmp_path):
        pager = fast_pager(tmp_path / "p.sbt", max_write_retries=0)
        p1 = pager.allocate_page()
        p2 = pager.allocate_page()
        pool = BufferPool(pager, capacity=1)
        pool.write(p1, b"precious", None)
        inj = FaultInjector().fail_writes("data", times=None)
        pager.faults = inj
        # Admitting p2 must evict p1; the write-back fails with EIO.
        with pytest.raises(OSError):
            pool.write(p2, b"newcomer", None)
        # The regression: the dirty victim must still be in the pool,
        # not popped-then-lost.
        assert p1 in pool._frames
        assert pool._frames[p1].dirty
        inj.disarm()
        pool.write(p2, b"newcomer", None)  # eviction now succeeds
        pool.flush()
        assert pager.read_page(p1).rstrip(b"\x00") == b"precious"
        assert pager.read_page(p2).rstrip(b"\x00") == b"newcomer"
        pager.close()

    def test_failed_eviction_during_read_admission(self, tmp_path):
        pager = fast_pager(tmp_path / "p.sbt", max_write_retries=0)
        p1 = pager.allocate_page()
        p2 = pager.allocate_page()
        pager.write_page(p2, b"on-disk")
        pool = BufferPool(pager, capacity=1)
        pool.write(p1, b"precious", None)
        inj = FaultInjector().fail_writes("data", times=None)
        pager.faults = inj
        with pytest.raises(OSError):
            pool.frame(p2)
        assert p1 in pool._frames and pool._frames[p1].dirty
        inj.disarm()
        assert pool.frame(p2).payload.rstrip(b"\x00") == b"on-disk"
        pool.flush()
        assert pager.read_page(p1).rstrip(b"\x00") == b"precious"
        pager.close()


# ----------------------------------------------------------------------
# simulate_crash
# ----------------------------------------------------------------------
class TestSimulateCrash:
    def test_closes_handles_without_committing(self, tmp_path):
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.write_page(page, b"uncommitted")
        simulate_crash(pager)
        assert pager._file.closed
        assert os.path.exists(pager.journal_path)
        assert pager._journal_file.closed
        # Idempotent on already-closed handles.
        simulate_crash(pager)

    def test_accepts_a_store(self, tmp_path):
        store = PagedNodeStore(
            str(tmp_path / "s.sbt"), "sum", page_size=PAGE_SIZE, journaled=True,
        )
        simulate_crash(store)
        assert store.pager._file.closed
