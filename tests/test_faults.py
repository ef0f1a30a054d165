"""Tests for the fault-injection layer (:mod:`repro.faults`) and the
pager's failure handling: retries, degraded mode, write-ahead journal
discipline, torn-record recovery, and the buffer pool's eviction path
under injected I/O errors."""

import errno
import os
import struct
import zlib

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

PAGE_SIZE = 512


def fast_pager(path, **kwargs):
    """A pager with sleeping disabled so retry tests run instantly."""
    kwargs.setdefault("page_size", PAGE_SIZE)
    kwargs.setdefault("retry_backoff", 0.0)
    return Pager(str(path), **kwargs)


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
        # The commit point (journal deletion) was never reached.
        assert os.path.exists(pager.journal_path)
        simulate_crash(pager)
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()


# ----------------------------------------------------------------------
# Write-ahead discipline
# ----------------------------------------------------------------------
class TestJournalWriteAhead:
    def test_journal_record_fsynced_before_page_overwrite(self, tmp_path):
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        inj = FaultInjector()
        pager.faults = inj
        pager.write_page(page, b"uncommitted")
        # Header + one pre-image record, each made durable before the
        # data write of the overwrite happened.
        assert inj.fsync_calls["journal"] == 2
        assert inj.hits["after_journal_create"] == 1
        assert inj.hits["after_journal_fsync"] == 1
        assert inj.write_calls["data"] == 1
        pager.faults = None
        simulate_crash(pager)
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()

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
        record_stride = Pager._JOURNAL_RECORD.size + PAGE_SIZE
        offset = Pager._JOURNAL_HEADER.size + record_stride + (
            Pager._JOURNAL_RECORD.size + 40
        )
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
            fh.write(b"NOTAJRNL" + b"\x00" * 64)
        with pytest.warns(RuntimeWarning, match="bad journal magic"):
            reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert not os.path.exists(pager.journal_path)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()

    def test_truncated_header_warns(self, tmp_path):
        pager, _ = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.close()
        with open(pager.journal_path, "wb") as fh:
            fh.write(b"\x01\x02\x03")
        with pytest.warns(RuntimeWarning, match="truncated journal header"):
            fast_pager(tmp_path / "p.sbt", journaled=True).close()

    def test_strict_mode_raises_and_keeps_journal(self, tmp_path):
        pager, _ = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.close()
        with open(pager.journal_path, "wb") as fh:
            fh.write(b"NOTAJRNL" + b"\x00" * 64)
        with pytest.raises(JournalError, match="bad journal magic"):
            fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        # Left on disk for forensics / `repro fsck`.
        assert os.path.exists(pager.journal_path)


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
        # Idempotent on already-closed handles.
        simulate_crash(pager)

    def test_accepts_a_store(self, tmp_path):
        store = PagedNodeStore(
            str(tmp_path / "s.sbt"), "sum", page_size=PAGE_SIZE, journaled=True,
        )
        simulate_crash(store)
        assert store.pager._file.closed
