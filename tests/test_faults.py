"""Tests for the fault-injection layer (:mod:`repro.faults`) and the
pager's failure handling: retries, degraded mode, the write-ahead log's
ordering (frames durable before the data file is written, the data file
durable before a new generation starts), torn-frame recovery, the
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
from repro.storage import pager as pager_module
from repro.storage.pager import _FRAME_HEAD, _FRAME_TAIL, _WAL_HEADER, scan_wal

PAGE_SIZE = 512
HEADER_SIZE = _WAL_HEADER.size
#: One WAL frame: page id + commit flag, page image, crc + salt.
STRIDE = _FRAME_HEAD.size + PAGE_SIZE + _FRAME_TAIL.size


def fast_pager(path, **kwargs):
    """A pager with sleeping disabled so retry tests run instantly."""
    kwargs.setdefault("page_size", PAGE_SIZE)
    kwargs.setdefault("retry_backoff", 0.0)
    return Pager(str(path), **kwargs)


def sha256_of(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def wal_frames(pager):
    """The frames of *pager*'s WAL, via the one reader."""
    with open(pager.wal_path, "rb") as handle:
        return list(scan_wal(handle))[1:]


def assert_write_ahead(events):
    """The WAL's ordering rules, checked against the injector's events.

    A data-file write (a checkpoint copy) only once every WAL write
    before it is fsynced; a new generation's header (the WAL write at
    offset 0) only once every data write before it is fsynced; a frame
    only once the header before it is fsynced and, for a WAL just
    created, its directory entry synced.  Returns how many data writes
    were checked.
    """
    wal_unsynced = data_unsynced = header_unsynced = False
    entry_synced = True
    checked = 0
    for event in events:
        if event[0] == "create":
            entry_synced = False
        elif event == ("fsync", "dir"):
            entry_synced = True
        elif event == ("fsync", "wal"):
            wal_unsynced = header_unsynced = False
        elif event == ("fsync", "data"):
            data_unsynced = False
        elif event[:2] == ("write", "wal"):
            if event[2] == 0:
                assert not data_unsynced, "new generation before the data fsync"
                header_unsynced = True
            else:
                assert not header_unsynced, "frame before its header is durable"
                assert entry_synced, "frame before the WAL's entry is durable"
            wal_unsynced = True
        elif event[:2] == ("write", "data"):
            assert not wal_unsynced, "data written before its frames are durable"
            data_unsynced = True
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


def checkpointed_pager(path, payloads):
    """:func:`committed_pager`, closed and reopened: the data file holds
    the commit and no WAL exists yet."""
    pager, pages = committed_pager(path, payloads)
    pager.close()
    return fast_pager(path, journaled=True), pages


@pytest.fixture
def checkpoint_every_commit(monkeypatch):
    monkeypatch.setattr(pager_module, "WAL_CHECKPOINT_BYTES", 0)


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
        inj = FaultInjector().fail_writes("wal", times=1)
        assert inj.intercept_write("data", b"x") == (b"x", None)
        with pytest.raises(OSError):
            inj.intercept_write("wal", b"x")

    def test_torn_write_returns_prefix_and_crash(self):
        inj = FaultInjector().tear_write("wal", fraction=0.5)
        data, crash = inj.intercept_write("wal", b"0123456789")
        assert data == b"01234"
        assert isinstance(crash, SimulatedCrash)
        # One-shot: the next write is whole.
        assert inj.intercept_write("wal", b"ab") == (b"ab", None)

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
        # An append that fails is uncommitted frames at most: the next
        # append overwrites them, so only repetition degrades.
        pager.faults = FaultInjector().fail_writes("wal", times=None)
        with pytest.raises(OSError):
            pager.write_page(page, b"doomed-1")
        assert not pager.degraded
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
        # Degraded close leaves the WAL: reopening replays the commit.
        pager.close()
        assert os.path.exists(str(tmp_path / "p.sbt") + "-wal")
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
        tree = SBTree("sum", store, branching=4, leaf_capacity=4)
        tree.insert(5, Interval(0, 10))
        store.commit()
        committed = tree.to_table()
        tree.insert(7, Interval(5, 20))  # dirty frames only
        store.pager.faults = FaultInjector().fail_writes("wal", times=None)
        # A failed commit degrades at once: the WAL may hold any prefix
        # of it, which only a reopen (a new salt) reads safely.
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
        inj = FaultInjector().fail_fsyncs("wal", times=1)
        pager.faults = inj
        with pytest.warns(RuntimeWarning, match="degraded mode"):
            with pytest.raises(OSError):
                pager.commit()
        # Exactly one fsync attempt reached the injector: no retry loop.
        assert inj.fsync_calls == {"wal": 1}
        assert pager.fsync_failures == 1
        # The commit point was never reached.
        assert "after_commit_fsync" not in inj.hits
        simulate_crash(pager, power_loss="all")
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()


# ----------------------------------------------------------------------
# Write-ahead discipline
# ----------------------------------------------------------------------
class TestJournalWriteAhead:
    def test_journal_record_fsynced_before_page_overwrite(
        self, tmp_path, checkpoint_every_commit
    ):
        self.first_overwrite(tmp_path, reopened=False)

    def test_first_transaction_of_a_pager_syncs_the_journal_entry(
        self, tmp_path, checkpoint_every_commit
    ):
        self.first_overwrite(tmp_path, reopened=True)

    def first_overwrite(self, tmp_path, reopened):
        """The data file's first overwrite of a committed page is a
        checkpoint copy: it waits for the fsync that made its frame
        durable, and the new generation's header waits for the copies'
        fsync.  A pager's first frame creates the WAL: header and
        directory entry durable before it."""
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        if reopened:
            pager.close()
            pager = fast_pager(tmp_path / "p.sbt", journaled=True)
        inj = FaultInjector()
        pager.faults = inj
        pager.write_page(page, b"new")
        start = HEADER_SIZE + pager.wal_bytes - STRIDE
        pager.commit()
        created = [
            ("create", pager.wal_path), ("write", "wal", 0, HEADER_SIZE),
            ("fsync", "wal"), ("fsync", "dir"),
        ]
        assert inj.events == created * reopened + [
            ("write", "wal", start, STRIDE),  # the page: uncommitted
            ("write", "wal", start + STRIDE, STRIDE),  # page 0, the commit
            ("fsync", "wal"),  # the commit point
            ("write", "data", 0, PAGE_SIZE),  # the checkpoint, page order
            ("write", "data", page * PAGE_SIZE, PAGE_SIZE),
            ("fsync", "data"),
            ("write", "wal", 0, HEADER_SIZE),  # a new generation
            ("fsync", "wal"),
        ]
        assert inj.hits.get("after_wal_create", 0) == reopened
        assert assert_write_ahead(inj.events) == 2
        pager.close()
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"new"
        reopened.close()

    def test_every_overwrite_waits_for_its_barrier(
        self, tmp_path, monkeypatch
    ):
        """A transaction big enough to evict mid-way: many appends, not
        one fsync before its commit, no data write before the commit's
        fsync, and a checkpoint that orders every copy behind it."""
        path = str(tmp_path / "s.sbt")
        store = PagedNodeStore(
            path, "sum", page_size=PAGE_SIZE, journaled=True, buffer_capacity=8,
        )
        tree = SBTree("sum", store, branching=4, leaf_capacity=4)
        for i in range(40):
            tree.insert(i % 5 + 1, Interval(i * 3, i * 3 + 25))
        store.commit()
        inj = FaultInjector()
        store.pager.faults = inj
        for i in range(40, 70):
            tree.insert(i % 5 + 1, Interval(i * 3 - 60, i * 3))
        store.buffer.flush()
        assert store.buffer.stats.evictions > 0
        assert inj.write_calls["wal"] >= 2  # evictions and the flush...
        assert inj.fsync_calls == {}  # ...and no fsync among them
        monkeypatch.setattr(pager_module, "WAL_CHECKPOINT_BYTES", 0)
        store.commit()
        committed = SBTree(store=store).to_table()
        assert assert_write_ahead(inj.events) >= 10
        store.close()
        reopened = PagedNodeStore(path, journaled=True)
        assert SBTree(store=reopened).to_table() == committed
        reopened.close()

    def test_an_eviction_appends_its_victim_alone(self, tmp_path):
        pager, pages = committed_pager(
            tmp_path / "p.sbt", [b"p%d" % i for i in range(4)]
        )
        pool = BufferPool(pager, capacity=3)
        inj = FaultInjector()
        pager.faults = inj
        for page in pages[:3]:
            pool.write(page, b"dirty", None)
        pool.write(pages[3], b"dirty", None)  # evicts pages[0]
        # One frame, unsynced; the other dirty frames stay in the pool.
        assert inj.write_calls == {"wal": 1} and inj.fsync_calls == {}
        assert inj.events[-1][3] == STRIDE
        pool.flush()  # the other three, one append
        assert inj.write_calls == {"wal": 2} and inj.fsync_calls == {}
        assert inj.events[-1][3] == 3 * STRIDE
        simulate_crash(pager)

    @pytest.mark.parametrize(
        "point", ["before_commit_fsync", "before_page_write", "after_page_write"]
    )
    def test_crash_around_first_overwrite_recovers(
        self, tmp_path, point, checkpoint_every_commit
    ):
        """Before the commit fsync a process death keeps the commit frame
        (the write reached the file); from the first checkpoint copy on,
        the commit is durable whatever is lost."""
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.write_page(page, b"new")
        pager.faults = FaultInjector().crash_at(point, hit=1)
        with pytest.raises(SimulatedCrash):
            pager.commit()
        simulate_crash(pager)
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"new"
        reopened.close()


# ----------------------------------------------------------------------
# Torn / corrupt frames, unusable and legacy files
# ----------------------------------------------------------------------
class TestJournalRecords:
    def test_torn_record_append_recovers_cleanly(self, tmp_path):
        pager, (a, b) = committed_pager(tmp_path / "p.sbt", [b"aaa", b"bbb"])
        pager.write_page(a, b"a-new")  # frame 1: complete, uncommitted
        pager.faults = FaultInjector().tear_write("wal", fraction=0.4)
        with pytest.raises(SimulatedCrash):
            pager.write_page(b, b"b-new")  # frame 2: torn mid-append
        simulate_crash(pager)
        # The torn tail is the normal crash signature: no warning, and
        # both pages come back committed.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(a).rstrip(b"\x00") == b"aaa"
        assert reopened.read_page(b).rstrip(b"\x00") == b"bbb"
        reopened.close()

    def test_rollback_stops_at_last_valid_record(self, tmp_path):
        """Bit rot inside a committed frame: replay stops before it, so
        the transaction it belongs to (and any after it) is rolled back
        and the ones before it stand -- with a warning, because a frame
        that carries this generation's salt was not torn by a crash."""
        pager, (a, b) = committed_pager(tmp_path / "p.sbt", [b"aaa", b"bbb"])
        pager.write_page(a, b"a-new")
        pager.commit()
        pager.write_page(b, b"b-new")
        pager.commit()
        simulate_crash(pager)
        frames = wal_frames(pager)
        b_frame = [f for f in frames if f.page_id == b][-1]
        with open(pager.wal_path, "r+b") as fh:
            fh.seek(b_frame.offset + _FRAME_HEAD.size + 40)
            byte = fh.read(1)
            fh.seek(b_frame.offset + _FRAME_HEAD.size + 40)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.warns(RuntimeWarning, match="stops at the last valid"):
            reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(a).rstrip(b"\x00") == b"a-new"
        assert reopened.read_page(b).rstrip(b"\x00") == b"bbb"
        reopened.close()

    def test_bad_magic_warns_and_proceeds(self, tmp_path):
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.close()
        with open(pager.wal_path, "wb") as fh:
            fh.write(b"NOTAWAL!".ljust(HEADER_SIZE, b"\x01"))
        with pytest.warns(RuntimeWarning, match="bad WAL magic"):
            reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()
        assert not os.path.exists(pager.wal_path)

    def test_truncated_header_is_an_unstarted_transaction(self, tmp_path):
        """A WAL whose header never became durable holds no frame: no
        warning, no error even under ``strict=True``, just "nothing to
        replay"."""
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.close()
        before = sha256_of(pager.path)
        with open(pager.wal_path, "wb") as fh:
            fh.write(b"\x01\x02\x03")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened = fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()
        assert not os.path.exists(pager.wal_path)
        assert sha256_of(pager.path) == before

    def test_strict_mode_raises_and_keeps_journal(self, tmp_path):
        pager, _ = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.close()
        with open(pager.wal_path, "wb") as fh:
            fh.write(b"NOTAWAL!".ljust(HEADER_SIZE, b"\x01"))
        with pytest.raises(JournalError, match="bad WAL magic"):
            fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        # Left on disk for forensics / `repro fsck`.
        assert os.path.exists(pager.wal_path)

    @pytest.mark.parametrize("magic", [b"SBTRjrnl", b"SBTRjrn2", b"SBTRjrn3"])
    def test_journal_of_a_previous_format_is_refused(self, tmp_path, magic):
        """No reader of the rollback journal is left: a ``-journal``
        beside the file may hold pre-images its writer meant to restore,
        so it is refused -- strict or not, journaled or not -- never
        silently accepted, and left where it is."""
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.close()
        before = sha256_of(pager.path)
        journal = pager.path + "-journal"
        with open(journal, "wb") as fh:
            fh.write(magic + b"\x00\x02\x00\x00" + b"\x00" * 8)
        for kwargs in ({"journaled": True, "strict": True}, {"journaled": True}, {}):
            with pytest.raises(JournalError, match="rollback journal"):
                fast_pager(tmp_path / "p.sbt", **kwargs)
        assert os.path.exists(journal)
        assert sha256_of(pager.path) == before

    def test_damaged_hot_header_is_not_trusted(self, tmp_path):
        """A flipped bit in a header with committed frames behind it:
        not mistaken for a torn one (its frames still carry its salt)."""
        pager, (page,) = committed_pager(tmp_path / "p.sbt", [b"committed"])
        pager.write_page(page, b"uncommitted")
        simulate_crash(pager)
        with open(pager.wal_path, "r+b") as fh:
            fh.seek(30)  # inside the header's checksum
            fh.write(b"\x01")
        size = os.path.getsize(pager.path)
        with pytest.raises(JournalError, match="fails its checksum"):
            fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        assert os.path.getsize(pager.path) == size


# ----------------------------------------------------------------------
# Before the commit fsync: what may sit unsynced, and what that leaves
# ----------------------------------------------------------------------
class TestJournalBarrier:
    def crash_before_first_barrier(self, path):
        """Commit and checkpoint two pages, then die in the next commit
        before its fsync, with a fresh page allocated: the WAL's frames
        all unsynced."""
        pager, pages = checkpointed_pager(path, [b"aaa", b"bbb"])
        committed = sha256_of(pager.path)
        fresh = pager.allocate_page()  # no write at all until the commit
        assert fresh == len(pages) + 1
        pager.faults = FaultInjector().crash_at("before_commit_fsync")
        with pytest.raises(SimulatedCrash):
            pager.commit([(pages[0], b"a-new"), (pages[1], b"b-new")])
        simulate_crash(pager)
        return pager, committed

    @pytest.mark.parametrize(
        "shape", ["empty", "short-frame", "zeroed-tail", "torn-record", "whole"]
    )
    def test_crash_before_the_barrier_leaves_the_data_file_untouched(
        self, tmp_path, shape
    ):
        pager, committed = self.crash_before_first_barrier(tmp_path / "p.sbt")
        # A synced header, then one unsynced write of four frames: both
        # pages, the fresh one (empty) and page 0, flagged.  A power cut
        # may leave any of these; only "whole" holds the commit frame.
        assert pager.wal_bytes == 4 * STRIDE
        with open(pager.wal_path, "r+b") as fh:
            if shape == "empty":
                fh.truncate(HEADER_SIZE)
            elif shape == "short-frame":
                fh.truncate(HEADER_SIZE + STRIDE // 2)
            elif shape == "zeroed-tail":
                fh.seek(HEADER_SIZE + 2 * STRIDE)
                fh.write(bytes(2 * STRIDE))
            elif shape == "torn-record":
                fh.truncate(HEADER_SIZE + 3 * STRIDE + STRIDE // 2)
        # Whatever the WAL looks like, the data file was never touched.
        assert sha256_of(pager.path) == committed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened = fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        assert reopened.page_count == (4 if shape == "whole" else 3)
        assert reopened.read_page(1).rstrip(b"\x00") == (
            b"a-new" if shape == "whole" else b"aaa"
        )
        reopened.close()
        if shape != "whole":
            assert sha256_of(pager.path) == committed

    def test_fresh_pages_are_written_without_a_barrier(self, tmp_path):
        pager, _ = committed_pager(tmp_path / "p.sbt", [b"committed"])
        inj = FaultInjector()
        pager.faults = inj
        fresh = [pager.allocate_page() for _ in range(3)]
        pager.set_root(fresh[0])
        assert inj.write_calls == {} and inj.fsync_calls == {}  # not yet
        assert pager.read_page(fresh[1]) == bytes(pager.payload_size)
        pager.commit()
        # Written as empty pages, with page 0, in the commit's one write.
        assert inj.write_calls == {"wal": 1} and inj.fsync_calls == {"wal": 1}
        assert inj.events[0][3] == 4 * STRIDE
        pager.close()
        with Pager(pager.path) as reopened:
            assert reopened.read_page(fresh[2]) == bytes(reopened.payload_size)

    def test_page_freed_and_reallocated_inside_one_transaction(self, tmp_path):
        pager, (a, b) = checkpointed_pager(tmp_path / "p.sbt", [b"aaa", b"bbb"])
        committed = sha256_of(pager.path)
        inj = FaultInjector()
        pager.faults = inj
        pager.free_page(a)  # a frame holding the free-list link
        assert pager.allocate_page() == a  # ...read back from the WAL
        pager.write_pages([(a, b"a-again"), (b, b"b-new")])
        # A new WAL's header, the link, the set.
        assert inj.write_calls == {"wal": 1 + 1 + 1}
        simulate_crash(pager)
        assert assert_write_ahead(inj.events) == 0
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(a).rstrip(b"\x00") == b"aaa"
        assert reopened.read_page(b).rstrip(b"\x00") == b"bbb"
        reopened.close()
        assert sha256_of(pager.path) == committed

    def test_failed_journal_fsync_is_final(self, tmp_path):
        pager, (page,) = checkpointed_pager(tmp_path / "p.sbt", [b"committed"])
        committed = sha256_of(pager.path)
        pager.write_page(page, b"doomed")
        inj = FaultInjector().fail_fsyncs("wal", times=1)
        pager.faults = inj
        with pytest.warns(RuntimeWarning, match="degraded mode"):
            with pytest.raises(OSError):
                pager.commit()
        # One attempt, no retry, and no data write.
        assert inj.fsync_calls == {"wal": 1}
        assert "data" not in inj.write_calls
        assert pager.fsync_failures == 1
        # The next commit would be that retry: the pager refuses it.
        assert pager.degraded
        with pytest.raises(PagerDegradedError):
            pager.write_page(page, b"doomed again")
        with pytest.raises(PagerDegradedError):
            pager.commit()
        assert inj.fsync_calls == {"wal": 1}
        pager.close()  # leaves the WAL for the next open
        assert sha256_of(pager.path) == committed
        inj.lose_power("all")
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"committed"
        reopened.close()


# ----------------------------------------------------------------------
# Power loss: unsynced writes and directory operations may vanish
# ----------------------------------------------------------------------
class TestPowerLoss:
    def test_synced_writes_survive_and_unsynced_ones_do_not(self, tmp_path):
        pager, (a, b) = committed_pager(tmp_path / "p.sbt", [b"aaa", b"bbb"])
        inj = FaultInjector()
        pager.faults = inj
        pager.write_page(a, b"a-new")
        pager.commit()  # a-new's frame is on the platter
        pager.write_page(b, b"b-new")  # b-new's frame is not
        simulate_crash(pager, power_loss="all")
        assert inj.injected["power_loss"] == 1
        frames = wal_frames(pager)
        assert [f.page_id for f in frames if f.status == "ok"][-2:] == [a, 0]
        reopened = fast_pager(tmp_path / "p.sbt", journaled=True)
        assert reopened.read_page(a).rstrip(b"\x00") == b"a-new"
        assert reopened.read_page(b).rstrip(b"\x00") == b"bbb"
        reopened.close()

    def test_unsynced_journal_create_may_vanish(self, tmp_path):
        pager, _ = checkpointed_pager(tmp_path / "p.sbt", [b"committed"])
        committed = sha256_of(pager.path)
        pager.faults = FaultInjector().crash_at("after_wal_create")
        with pytest.raises(SimulatedCrash):
            pager.write_page(1, b"new")  # creates the WAL first
        assert os.path.exists(pager.wal_path)
        simulate_crash(pager, power_loss="all")
        assert not os.path.exists(pager.wal_path)
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
        assert not os.path.exists(pager.wal_path)
        assert inj.lose_power("all") == {"writes": 0, "dir_ops": 1}
        # The WAL is back; replaying it again repeats the checkpoint.
        assert os.path.exists(pager.wal_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened = fast_pager(tmp_path / "p.sbt", journaled=True, strict=True)
        assert reopened.read_page(page).rstrip(b"\x00") == b"new"
        reopened.close()
        assert not os.path.exists(pager.wal_path)

    def test_a_dropped_commit_write_rolls_the_commit_back_whole(self, tmp_path):
        """The commit write is durable only once fsynced: if the fsync
        fails and a power cut drops the write, the transaction is undone
        atomically -- none of its frames replays."""
        pager, (a, b) = checkpointed_pager(tmp_path / "p.sbt", [b"aaa", b"bbb"])
        committed = sha256_of(pager.path)
        inj = FaultInjector()
        pager.faults = inj
        pager.write_pages([(a, b"a-new"), (b, b"b-new")])
        inj.fail_fsyncs("wal", times=1)
        with pytest.warns(RuntimeWarning, match="degraded mode"):
            with pytest.raises(OSError):
                pager.commit()
        assert pager.degraded  # the WAL must not be appended to again
        assert inj.events[-1][:2] == ("write", "wal")
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

    def test_newest_keeps_each_files_last_write_only(self, tmp_path):
        path = tmp_path / "raw.bin"
        path.write_bytes(b"0" * 8)
        inj = FaultInjector()
        with open(str(path), "r+b") as handle:
            for offset, data in ((0, b"AA"), (2, b"BB"), (4, b"CC")):
                payload, _ = inj.intercept_write("data", data, handle, offset)
                handle.seek(offset)
                handle.write(payload)
        assert inj.lose_power("newest") == {"writes": 2, "dir_ops": 0}
        assert path.read_bytes() == b"0000CC00"

    def test_seeded_subsets_are_deterministic(self, tmp_path):
        def run(seed):
            base = tmp_path / f"run-{seed}-{len(os.listdir(tmp_path))}"
            base.mkdir()
            pager, pages = committed_pager(base / "p.sbt", [b"aaa", b"bbb", b"ccc"])
            pager.faults = FaultInjector()
            pager.write_pages([(p, b"new") for p in pages])
            pager.commit()
            pager.write_page(pages[0], b"newer")
            simulate_crash(pager, power_loss=seed)
            wal = None  # its salt is random: compare what it says
            if os.path.exists(pager.wal_path):
                with open(pager.wal_path, "rb") as handle:
                    header, *frames = scan_wal(handle)
                wal = header.verdict, tuple((f.status, f.page_id) for f in frames)
            return sha256_of(pager.path), wal

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
            store.close()
            assert set(inj.fsync_calls) == {"wal", "data", "dir"}
            # The WAL's creation and its removal by the clean close:
            # no commit in between touched the directory.
            assert inj.fsync_calls["dir"] == 2
            assert store.pager.stats.fsyncs == sum(inj.fsync_calls.values())
            for label, calls in inj.fsync_calls.items():
                assert registry.counter(f"pager.fsyncs.{label}").value == calls
            assert registry.counter("pager.wal_frames").value == (
                store.pager.stats.wal_frames
            )
            # A failed attempt counts too, and degrades the pager.
            crashed = PagedNodeStore(path, journaled=True, faults=inj)
            SBTree(store=crashed).insert(2, Interval(0, 9))
            crashed.commit()  # the WAL's header and entry, the commit
            SBTree(store=crashed).insert(3, Interval(0, 9))
            inj.fail_fsyncs("wal", times=1)
            with pytest.warns(RuntimeWarning, match="degraded mode"):
                with pytest.raises(OSError):
                    crashed.commit()
            assert crashed.pager.stats.fsyncs == 3 + 1
            simulate_crash(crashed)
            # A leftover WAL's recovery syncs are counted as well.
            before = dict(inj.fsync_calls)
            reopened = PagedNodeStore(path, journaled=True, faults=inj)
            assert reopened.pager.stats.fsyncs == 2  # copies, then a header
            assert inj.fsync_calls["data"] == before["data"] + 1
            assert registry.counter("pager.recoveries").value == 1
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
        assert os.path.exists(pager.wal_path)
        assert pager._wal.closed
        # Idempotent on already-closed handles.
        simulate_crash(pager)

    def test_accepts_a_store(self, tmp_path):
        store = PagedNodeStore(
            str(tmp_path / "s.sbt"), "sum", page_size=PAGE_SIZE, journaled=True,
        )
        simulate_crash(store)
        assert store.pager._file.closed
