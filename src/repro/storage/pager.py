"""File-backed page manager.

The SB-tree is a *disk-based* structure: every node occupies exactly one
fixed-size page.  The pager owns a single file laid out as::

    page 0          header: magic, version, geometry, root pointer,
                    free-list head, live-page count, metadata blob
    pages 1..N-1    node pages (or free pages linked through their
                    first 8 bytes)

Freed pages are chained into a free list and reused before the file is
extended.  Physical reads and writes are counted so benchmarks can
report true page I/O.

With ``journaled=True`` the pager additionally keeps a rollback journal
(``<path>-journal``), one file for the pager's life: its first
transaction creates it, every later one rewrites it from offset 0, only
a clean :meth:`Pager.close` or an open-time rollback removes it.  Before
a page is first overwritten after a commit its pre-image is written to
the journal; :meth:`commit` makes the data file durable, then zeroes the
journal header and fsyncs the journal (the commit point: three fsyncs
and no directory operation per commit); reopening beside a journal
whose header is live rolls every journaled page back and truncates the
pages added since, so the file always reflects a committed state.

**The barrier rule.**  No byte of a page that existed at the last commit
-- the header page included -- is overwritten in the data file before
its pre-image record *and* the journal header are fsynced (and, for the
transaction that created the journal, its directory entry synced).
That is one *journal barrier* (:meth:`Pager._journal_barrier`), paid per
*write-back set*, not per page: :meth:`Pager.write_pages` journals every
page of the set (plus ``journal_ahead``, pages the caller expects to
write later in the transaction) unsynced and runs the barrier once,
immediately before the set's first data-file write.  Pages created
after the last commit need no barrier: rollback truncates them away.  A
journal whose header is not live therefore proves the committed pages
hold no uncommitted byte, and rolls back to "drop the fresh pages".

**A reused file** (format v3, laid out beside :func:`scan_journal`) is
safe by two rules.  Every record ends with the header's per-transaction
*salt* (``os.urandom`` at open, +1 per commit): the intact records a
longer, earlier transaction left beyond this one's tail, and an append
that tore, read as a clean end.  And the header's first and last bytes
are non-zero only when all of it was written -- zeroing clears the first
byte first, writing sets the last byte last -- so any prefix of either
write reads "not live".

**The header page is deferred.**  ``allocate_page``, ``free_page``,
``set_root`` and ``set_meta`` only mark page 0 dirty; it is formatted,
journaled and written once per write-back set / ``commit`` / ``sync`` /
``close``, behind the same barrier as the set's data pages.

**A clean pager does not commit.**  With no open transaction, a clean
header and no unsynced data write, :meth:`commit` returns without I/O.

Failure handling
----------------
Every raw write and fsync is routed through a small I/O layer that

* consults an optional :class:`repro.faults.FaultInjector` (labeled
  crash points -- :data:`Pager.CRASH_POINTS` -- plus torn-write and
  I/O-error interception), which is how the crash-consistency harness
  in :mod:`repro.crashcheck` exercises the recovery path;
* retries transient ``OSError``\\ s with exponential backoff
  (``max_write_retries`` / ``retry_backoff``) -- *writes only*: a failed
  fsync is never retried, because after a failed fsync the kernel may
  already have dropped the dirty pages the retry would claim to sync
  (a failed *journal barrier* therefore degrades the pager at once: the
  next barrier would be exactly that retry);
* drops the pager into a read-only *degraded mode* after
  ``degrade_after`` consecutive retry-exhausted failures: further
  mutations raise :class:`PagerDegradedError`, reads keep working, and
  a journaled pager leaves its journal in place so the next open rolls
  back to the last commit instead of trusting half-written state (a
  failed journal *invalidation* degrades at once too).

Out-of-band events surface as ``pager.*`` counters through the active
:class:`repro.obs.MetricsRegistry` when collection is enabled.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import warnings
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Tuple, Union

from .. import obs

__all__ = [
    "Pager",
    "PagerStats",
    "PageCorruptionError",
    "PagerDegradedError",
    "JournalError",
    "JournalHeader",
    "JournalRecord",
    "scan_journal",
    "DEFAULT_PAGE_SIZE",
]

DEFAULT_PAGE_SIZE = 4096

_MAGIC = b"SBTRepro"
_VERSION = 1
#: magic(8) version(H) page_size(I) page_count(Q) free_head(q) root(q)
#: live_nodes(Q) meta_len(I)
_HEADER = struct.Struct("<8sHIQqqQI")
_FREE_LINK = struct.Struct("<q")
_CRC = struct.Struct("<I")

#: Sentinel for "no page".
NO_PAGE = -1

_JOURNAL_MAGIC = b"SBTRjrn3"
#: No writer is left for these (v2's file existed only while hot).
_LEGACY_JOURNAL_MAGICS = (b"SBTRjrnl", b"SBTRjrn2")
#: magic(8) page_size(I) base_count(Q) salt(Q), then crc32-of-those(I)
#: and a non-zero seal(B), the header's last byte.
_JOURNAL_FIELDS = struct.Struct("<8sIQQ")
_JOURNAL_HEADER = struct.Struct("<8sIQQIB")
#: A record: page_id(q), page_size image bytes, then this trailer --
#: crc32-of-id-and-image(I) salt(Q).
_JOURNAL_RECORD = struct.Struct("<q")
_JOURNAL_TRAILER = struct.Struct("<IQ")


def _journal_header(page_size: int, base_count: int, salt: int) -> bytes:
    fields = (_JOURNAL_MAGIC, page_size, base_count, salt)
    crc = zlib.crc32(_JOURNAL_FIELDS.pack(*fields))
    return _JOURNAL_HEADER.pack(*fields, crc, 0xA5)


def _journal_record(page_id: int, image: bytes, salt: int) -> bytes:
    body = _JOURNAL_RECORD.pack(page_id) + image
    return body + _JOURNAL_TRAILER.pack(zlib.crc32(body), salt)


class JournalHeader(NamedTuple):
    """``cold`` (nothing to undo: short, or first or last byte zero),
    ``hot`` (pre-images to restore, ``base_count`` pages to keep) or
    ``unusable`` (legacy or damaged; ``detail`` says which)."""

    verdict: str
    page_size: int = 0
    base_count: int = 0
    salt: int = 0
    detail: str = ""


class JournalRecord(NamedTuple):
    """``ok`` carries a pre-image; ``stale`` (another transaction's
    salt), ``torn`` (the file ends inside it) and ``corrupt`` (this
    transaction's salt, bad CRC) end the scan."""

    status: str
    page_id: int = -1
    image: bytes = b""


def _journal_verdict(raw: bytes) -> JournalHeader:
    if raw[:8] in _LEGACY_JOURNAL_MAGICS:
        return JournalHeader("unusable", detail=f"legacy journal format {raw[:8]!r}")
    if len(raw) < _JOURNAL_HEADER.size or not raw[0] or not raw[-1]:
        return JournalHeader("cold")
    magic, page_size, base_count, salt, crc, _ = _JOURNAL_HEADER.unpack(raw)
    if magic != _JOURNAL_MAGIC:
        return JournalHeader("unusable", detail=f"bad journal magic {magic!r}")
    if zlib.crc32(raw[:_JOURNAL_FIELDS.size]) != crc or page_size < 512:
        return JournalHeader("unusable", detail="journal header fails its checksum")
    return JournalHeader("hot", page_size, base_count, salt)


def scan_journal(handle) -> Iterator[Union[JournalHeader, JournalRecord]]:
    """The one journal reader (rollback, ``repro fsck``, the tests):
    yields the :class:`JournalHeader`, then -- for a hot one -- each
    :class:`JournalRecord` up to and including the first not ``ok``."""
    header = _journal_verdict(handle.read(_JOURNAL_HEADER.size))
    yield header
    if header.verdict != "hot":
        return
    body = _JOURNAL_RECORD.size + header.page_size
    size = body + _JOURNAL_TRAILER.size
    for raw in iter(lambda: handle.read(size), b""):
        if len(raw) < size:
            yield JournalRecord("torn")
            return
        (page_id,) = _JOURNAL_RECORD.unpack_from(raw)
        crc, salt = _JOURNAL_TRAILER.unpack_from(raw, body)
        if salt != header.salt:
            yield JournalRecord("stale")
            return
        if crc != zlib.crc32(raw[:body]):
            yield JournalRecord("corrupt", page_id)
            return
        yield JournalRecord("ok", page_id, raw[_JOURNAL_RECORD.size:body])


class PageCorruptionError(RuntimeError):
    """Raised when a page fails its checksum on read."""


class PagerDegradedError(RuntimeError):
    """Raised for writes after the pager entered read-only degraded mode."""


class JournalError(RuntimeError):
    """Raised (under ``strict=True``) when a leftover journal is unusable."""


@dataclass
class PagerStats:
    """Physical I/O counters.

    ``fsyncs`` counts every fsync the pager attempted -- journal, data
    file and directory alike (the ``pager.fsyncs.*`` counters split it
    by target): how many syncs does a commit cost?
    """

    physical_reads: int = 0
    physical_writes: int = 0
    fsyncs: int = 0

    def reset(self) -> None:
        self.physical_reads = self.physical_writes = self.fsyncs = 0

    def snapshot(self) -> "PagerStats":
        return PagerStats(self.physical_reads, self.physical_writes, self.fsyncs)

    def __sub__(self, other: "PagerStats") -> "PagerStats":
        return PagerStats(
            self.physical_reads - other.physical_reads,
            self.physical_writes - other.physical_writes,
            self.fsyncs - other.fsyncs,
        )


class Pager:
    """Fixed-size page file with a free list and a small metadata area.

    Each data page stores ``page_size - 4`` payload bytes followed by a
    CRC32 checksum, verified on every read.

    Parameters
    ----------
    faults:
        Optional :class:`repro.faults.FaultInjector` consulted at every
        crash point, write, and fsync.  Also assignable after
        construction (``pager.faults = injector``) so a harness can
        skip file-creation noise and target the workload alone.
    max_write_retries:
        How many times a raw write that raised ``OSError`` is retried
        before the failure propagates.
    retry_backoff:
        Base sleep (seconds) between retries; attempt *k* sleeps
        ``retry_backoff * 2**(k-1)``.  Zero disables sleeping (tests).
    degrade_after:
        Consecutive retry-exhausted write/fsync failures before the
        pager enters read-only degraded mode.
    """

    #: Labeled crash points, in protocol order.  The crash-consistency
    #: harness sweeps a :class:`~repro.faults.SimulatedCrash` through
    #: every one of these.
    CRASH_POINTS = (
        "before_journal_create",
        "after_journal_create",
        "before_journal_write",
        "after_journal_write",
        "before_journal_fsync",
        "after_journal_fsync",
        "before_page_write",
        "after_page_write",
        "before_header_write",
        "after_header_write",
        "before_commit_fsync",
        "after_commit_fsync",
        "before_journal_invalidate",
        "after_journal_invalidate",
    )

    def __init__(
        self,
        path: str,
        page_size: Optional[int] = None,
        *,
        journaled: bool = False,
        strict: bool = False,
        faults=None,
        max_write_retries: int = 3,
        retry_backoff: float = 0.002,
        degrade_after: int = 3,
    ) -> None:
        # ``None`` means "whatever the file says" (or the default for a
        # new file); an explicit size is checked against the file below.
        requested_size = page_size
        if page_size is None:
            page_size = DEFAULT_PAGE_SIZE
        if page_size < 512:
            raise ValueError("page size must be at least 512 bytes")
        self.path = os.fspath(path)
        self.journal_path = self.path + "-journal"
        self._directory = os.path.dirname(os.path.abspath(self.path))
        self.journaled = journaled
        self.strict = strict
        self.faults = faults
        self.max_write_retries = max_write_retries
        self.retry_backoff = retry_backoff
        self.degrade_after = degrade_after
        self.degraded = False
        self.write_retries = 0
        self.write_failures = 0
        self.fsync_failures = 0
        self._consecutive_failures = 0
        self._journaled_pages: set = set()
        self._journal_file = None  # opened by the first transaction
        self._journal_base_count: Optional[int] = None
        #: Journal bytes the open transaction wrote; its next record's place.
        self.journal_bytes = 0
        self._journal_salt = int.from_bytes(os.urandom(8), "little")
        #: Journal bytes (header, records) written since the last barrier.
        self._journal_unsynced = False
        #: The journal was created and its directory entry is not synced.
        self._journal_new = False
        #: Page 0 differs from what the data file holds.
        self._header_dirty = False
        #: Data-file bytes written since the last data fsync.
        self._data_unsynced = False
        #: Page ids freed by this process and not yet reallocated, kept
        #: so a double free is caught before it cycles the free list.
        self._freed: set = set()
        self.stats = PagerStats()
        # Reentrant: public methods nest (allocate -> write -> journal).
        self._mutex = threading.RLock()
        exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        self._file = open(self.path, "r+b" if exists else "w+b")
        if exists and os.path.exists(self.journal_path):
            # A crash left an unfinished transaction: roll it back
            # before trusting anything in the file.  A crash before the
            # very first commit rolls all the way back to an empty file,
            # which is then (re)created below.
            try:
                self._rollback_journal()
            except JournalError:
                self._release_handles()
                raise
            exists = os.path.getsize(self.path) > 0
        if exists:
            self._load_header()
            if requested_size is not None and requested_size != self.page_size:
                # Geometry comes from the file, not the argument.
                message = (
                    f"page file {self.path!r} uses page_size "
                    f"{self.page_size}; requested {requested_size} is ignored"
                )
                if strict:
                    self._release_handles()
                    raise ValueError(message)
                warnings.warn(message, stacklevel=2)
        else:
            self.page_size = page_size
            # Pin the pre-creation state (zero pages): until the first
            # commit, rollback erases the file entirely.  The barrier
            # runs before the file gets its first byte, so whenever a
            # journal header is *not* durable, page 0 on disk is a
            # committed header (what rollback then relies on).
            self.page_count = 0
            self._ensure_transaction()
            self._journal_barrier()
            self.page_count = 1  # the header page
            self._free_head = NO_PAGE
            self._root = NO_PAGE
            self.live_nodes = 0
            self._meta: Dict[str, str] = {}
            self._meta_blob = b""
            self._header_dirty = True

    # ------------------------------------------------------------------
    # Fault-aware raw I/O
    # ------------------------------------------------------------------
    def _hook(self, point: str) -> None:
        """Announce a labeled crash point to the fault injector, if any."""
        if self.faults is not None:
            self.faults.crash_point(point)

    def _guard_writable(self) -> None:
        if self.degraded:
            raise PagerDegradedError(
                f"pager for {self.path!r} is in read-only degraded mode "
                f"after {self._consecutive_failures} consecutive write "
                "failures; reopen the file to recover the last commit"
            )

    def _note_write_failure(self, what: str) -> None:
        self._consecutive_failures += 1
        if what == "fsync":
            self.fsync_failures += 1
            obs.count("pager.fsync_failures")
        else:
            self.write_failures += 1
            obs.count("pager.write_failures")
        if self._consecutive_failures >= self.degrade_after:
            self._degrade()

    def _degrade(self) -> None:
        if self.degraded:
            return
        self.degraded = True
        obs.count("pager.degraded")
        warnings.warn(
            f"pager for {self.path!r} entered read-only degraded mode "
            f"after {self._consecutive_failures} consecutive write "
            "failures",
            RuntimeWarning,
            stacklevel=5,
        )

    def _io_write(self, handle, offset: int, data: bytes, label: str) -> None:
        """One raw write: fault interception plus transient-error retries.

        Retries re-seek to *offset*, so a partial write is simply
        overwritten.
        """
        attempt = 0
        while True:
            try:
                if self.faults is not None:
                    payload, crash = self.faults.intercept_write(
                        label, data, handle=handle, offset=offset
                    )
                else:
                    payload, crash = data, None
                handle.seek(offset)
                handle.write(payload)
                if crash is not None:
                    # A torn write: the prefix must really reach the
                    # file before the simulated process death.
                    handle.flush()
                    raise crash
            except OSError:
                if attempt >= self.max_write_retries:
                    self._note_write_failure("write")
                    raise
                attempt += 1
                self.write_retries += 1
                obs.count("pager.write_retries")
                if self.retry_backoff:
                    time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
                continue
            self._consecutive_failures = 0
            return

    def _io_fsync(self, fd: int, label: str, path: str) -> None:
        """One fsync of *path* (``journal``, ``data`` or ``dir``), counted.
        Never retried: a failed fsync means the kernel may have dropped
        the dirty pages, so "try again" would lie."""
        self.stats.fsyncs += 1
        obs.count("pager.fsyncs." + label)
        try:
            if self.faults is not None:
                self.faults.intercept_fsync(label, path=path)
            os.fsync(fd)
        except OSError:
            self._note_write_failure("fsync")
            raise
        self._consecutive_failures = 0

    def _fsync_data(self) -> None:
        self._file.flush()
        self._io_fsync(self._file.fileno(), "data", self.path)
        self._data_unsynced = False

    def _fsync_dir(self) -> None:
        """Sync the journal's directory entry: after its creation and
        its removal (clean close, rollback), never in a steady-state
        commit.  Best-effort only where the platform cannot open
        directories; a failing sync propagates like any other."""
        try:
            fd = os.open(self._directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            self._io_fsync(fd, "dir", self._directory)
        finally:
            os.close(fd)

    def _release_handles(self) -> None:
        """Close the OS handles and nothing else: no header write-back,
        no commit, no journal cleanup.  What a degraded close, a failed
        open and :func:`repro.faults.simulate_crash` have in common."""
        for handle in (self._journal_file, self._file):
            if handle is not None and not handle.closed:
                try:
                    handle.close()
                except (OSError, ValueError):  # pragma: no cover - best effort
                    pass

    # ------------------------------------------------------------------
    # Rollback journal
    # ------------------------------------------------------------------
    def _capture_pre_image(self, page_id: int) -> None:
        """Write a page's current on-disk bytes to the journal, unsynced.

        Called before the first overwrite of a page in the current
        transaction.  Pages created after the last commit are skipped:
        rollback simply truncates them away.  The record (tagged with
        its own CRC32 and the transaction's salt) is *not* durable when
        this returns; whoever overwrites the page runs
        :meth:`_journal_barrier` first.  A pre-image is the on-disk
        bytes, independent of the payload that will replace them, so it
        can be captured for any page expected to be written later in
        the transaction.
        """
        if not self.journaled or page_id in self._journaled_pages:
            return
        self._ensure_transaction()
        if page_id >= self._journal_base_count:
            self._journaled_pages.add(page_id)
            return  # fresh page: nothing to restore
        self._file.seek(page_id * self.page_size)
        pre_image = self._file.read(self.page_size)
        record = _journal_record(
            page_id, pre_image.ljust(self.page_size, b"\x00"), self._journal_salt
        )
        self._hook("before_journal_write")
        self._io_write(self._journal_file, self.journal_bytes, record, "journal")
        self.journal_bytes += len(record)
        self._journal_unsynced = True
        self._hook("after_journal_write")
        self._journaled_pages.add(page_id)
        obs.count("pager.journal_records")

    def _ensure_transaction(self) -> None:
        """Pin the committed page count and write the journal header at
        offset 0, once per transaction; the pager's first transaction
        creates the file.  Nothing is synced: the first barrier makes
        the header (and a new journal's directory entry) durable.
        """
        if not self.journaled or self._journal_base_count is not None:
            return
        if self._journal_file is None:
            self._hook("before_journal_create")
            self._journal_file = open(self.journal_path, "w+b")
            if self.faults is not None:
                self.faults.note_create(self.journal_path)
            self._journal_new = True
            self._hook("after_journal_create")
        header = _journal_header(self.page_size, self.page_count, self._journal_salt)
        self._io_write(self._journal_file, 0, header, "journal")
        self._journal_base_count = self.page_count
        self.journal_bytes = len(header)
        self._journal_unsynced = True

    def _sync_journal(self) -> None:
        """Flush and fsync the journal (and a new journal's directory
        entry).  A failure is final -- the next attempt would be the
        fsync retry that "would lie" -- so the pager degrades at once.
        """
        try:
            self._journal_file.flush()
            self._io_fsync(
                self._journal_file.fileno(), "journal", self.journal_path
            )
            if self._journal_new:
                self._fsync_dir()
        except OSError:
            self._degrade()
            raise
        self._journal_new = self._journal_unsynced = False

    def _journal_barrier(self) -> None:
        """Make everything written to the journal durable, immediately
        before the first data-file write that depends on those bytes; a
        no-op when nothing was written since the last barrier.

        Nothing a failed barrier covered has been overwritten, and every
        earlier overwrite sits behind an earlier, successful barrier, so
        the next open still rolls back to the last commit.
        """
        if not self._journal_unsynced:
            return
        self._hook("before_journal_fsync")
        self._sync_journal()
        self._hook("after_journal_fsync")

    def _remove_journal(self) -> None:
        if self.faults is not None:
            self.faults.note_unlink(self.journal_path)
        os.remove(self.journal_path)
        self._fsync_dir()

    def _invalidate_journal(self) -> None:
        """Zero the journal header and fsync the zeros: the commit point.
        The records stay; the next salt disowns what it does not
        overwrite.  A failure is final, as a barrier's is: a later
        barrier would sync records a half-zeroed header may disown."""
        self._hook("before_journal_invalidate")
        try:
            self._io_write(
                self._journal_file, 0, bytes(_JOURNAL_HEADER.size), "journal"
            )
        except OSError:
            self._degrade()
            raise
        self._sync_journal()
        self._hook("after_journal_invalidate")
        self._journaled_pages.clear()
        self._journal_base_count = None
        self.journal_bytes = 0
        self._journal_salt = (self._journal_salt + 1) % (1 << 64)

    def commit(self) -> None:
        """Make the current state durable and invalidate the journal.

        The commit point is the fsync that follows zeroing the journal
        header: a crash before it rolls the transaction back on reopen,
        a crash after it keeps the transaction, a tear of the zeroing
        write keeps it too.  A pager with nothing to make durable -- no
        open transaction, a clean header, no data write since the last
        sync -- returns without I/O.
        """
        with self._mutex:
            self._guard_writable()
            if not self.dirty:
                return
            self.write_pages(())  # the header page, behind its barrier
            self._hook("before_commit_fsync")
            self._fsync_data()
            self._hook("after_commit_fsync")
            if self._journal_base_count is not None:
                self._invalidate_journal()
            obs.count("pager.commits")

    def in_transaction(self) -> bool:
        """Whether uncommitted (journaled) changes exist."""
        return self._journal_base_count is not None

    @property
    def dirty(self) -> bool:
        """Whether :meth:`commit` has anything to make durable."""
        return (
            self._journal_base_count is not None
            or self._header_dirty
            or self._data_unsynced
        )

    def _journal_problem(self, message: str) -> None:
        """An unusable leftover journal: warn, or raise under strict.

        Deleting a journal we cannot parse would silently accept a page
        file that may hold uncommitted writes, so the condition is
        always surfaced; ``strict=True`` refuses to proceed (and the
        journal is left on disk for forensics / ``repro fsck``).
        """
        obs.count("pager.journal_problems")
        if self.strict:
            raise JournalError(message)
        warnings.warn(
            f"{message}; the page file may be left in an uncommitted state",
            RuntimeWarning,
            stacklevel=4,
        )

    def _rollback_journal(self) -> None:
        """Undo what a leftover journal describes, then remove it.

        *Hot*: records are restored up to the last valid one (a stale
        salt or a torn tail is the normal end of a journal; a failed CRC
        under this transaction's salt is a real corruption and is warned
        about) and the file is cut back to the committed page count.

        *Cold* (header short, zeroed, or torn while being written or
        zeroed): either no barrier of the open transaction completed or
        its data fsync did, so no committed page holds an uncommitted
        byte and there is nothing to restore -- only fresh pages to
        drop, whose count the header page records.  The normal signature
        of a killed process, not a problem; a legacy or damaged header
        stays one.
        """
        obs.count("pager.rollbacks")
        with open(self.journal_path, "rb") as journal:
            records = scan_journal(journal)
            header = next(records)
            if header.verdict == "unusable":
                self._journal_problem(f"{header.detail} in {self.journal_path!r}")
            elif header.verdict == "cold":
                self._load_header()
                self._file.truncate(self.page_count * self.page_size)
                self._fsync_data()
            else:
                restored = 0
                for record in records:
                    if record.status == "ok":
                        self._file.seek(record.page_id * header.page_size)
                        self._file.write(record.image)
                        restored += 1
                    elif record.status == "corrupt":
                        warnings.warn(
                            f"journal record for page {record.page_id} fails "
                            "its checksum; rollback stops at the last valid "
                            "record",
                            RuntimeWarning,
                            stacklevel=4,
                        )
                        obs.count("pager.journal_problems")
                self._file.truncate(header.base_count * header.page_size)
                self._fsync_data()
                obs.count("pager.rollback_pages", restored)
        self._remove_journal()

    # ------------------------------------------------------------------
    # Header handling
    # ------------------------------------------------------------------
    def _load_header(self) -> None:
        self._file.seek(0)
        raw = self._file.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise PageCorruptionError("truncated header page")
        magic, version, page_size, page_count, free_head, root, live, meta_len = (
            _HEADER.unpack(raw)
        )
        if magic != _MAGIC:
            raise PageCorruptionError(f"bad magic in {self.path!r}")
        if version != _VERSION:
            raise PageCorruptionError(f"unsupported format version {version}")
        self.page_size = page_size
        self.page_count = page_count
        self._free_head = free_head
        self._root = root
        self.live_nodes = live
        self._meta_blob = self._file.read(meta_len)
        self._meta = {}
        for line in self._meta_blob.decode("utf-8").splitlines():
            key, _, value = line.partition("=")
            self._meta[key] = value

    def _touch_header(self) -> None:
        """Page 0 changed in memory; the next write-back set writes it."""
        self._guard_writable()
        self._header_dirty = True

    def _put_header(self) -> None:
        """Format page 0 and write it.  The caller ran the barrier."""
        payload = _HEADER.pack(
            _MAGIC,
            _VERSION,
            self.page_size,
            self.page_count,
            self._free_head,
            self._root,
            self.live_nodes,
            len(self._meta_blob),
        ) + self._meta_blob
        self._hook("before_header_write")
        self._data_unsynced = True
        self._io_write(
            self._file, 0, payload.ljust(self.page_size, b"\x00"), "data"
        )
        self._hook("after_header_write")
        self._header_dirty = False

    # ------------------------------------------------------------------
    # Root pointer and metadata
    # ------------------------------------------------------------------
    def get_root(self) -> Optional[int]:
        return None if self._root == NO_PAGE else self._root

    def set_root(self, page_id: int) -> None:
        with self._mutex:
            self._touch_header()
            self._root = page_id

    def get_meta(self, key: str) -> Optional[str]:
        return self._meta.get(key)

    def set_meta(self, key: str, value: str) -> None:
        with self._mutex:
            self._touch_header()
            meta = {**self._meta, key: value}
            blob = "\n".join(
                f"{k}={v}" for k, v in sorted(meta.items())
            ).encode("utf-8")
            # The blob is the only variable-size part of page 0, so this
            # is the one place its fit needs checking.
            if _HEADER.size + len(blob) > self.page_size:
                raise ValueError("metadata does not fit in the header page")
            self._meta, self._meta_blob = meta, blob

    # ------------------------------------------------------------------
    # Page I/O
    # ------------------------------------------------------------------
    @property
    def payload_size(self) -> int:
        """Usable bytes per page (page size minus the checksum)."""
        return self.page_size - _CRC.size

    def read_page(self, page_id: int) -> bytes:
        """Read and checksum-verify one page's payload."""
        with self._mutex:
            if not 1 <= page_id < self.page_count:
                raise ValueError(f"page {page_id} out of range")
            self._file.seek(page_id * self.page_size)
            raw = self._file.read(self.page_size)
            self.stats.physical_reads += 1
        payload, crc_raw = raw[: self.payload_size], raw[self.payload_size:]
        (expected,) = _CRC.unpack(crc_raw)
        if zlib.crc32(payload) != expected:
            raise PageCorruptionError(f"checksum mismatch on page {page_id}")
        return payload

    def write_page(self, page_id: int, payload: bytes) -> None:
        """Write one page's payload: a one-page write-back set."""
        self.write_pages(((page_id, payload),))

    def write_pages(
        self,
        pages: Iterable[Tuple[int, bytes]],
        journal_ahead: Iterable[int] = (),
    ) -> None:
        """Write one write-back set -- ``(page_id, payload)`` pairs, each
        payload getting its checksum appended -- plus the header page if
        it is dirty, behind a single journal barrier.

        ``journal_ahead`` names pages the caller expects to write later
        in this transaction (the pool's other dirty frames when it
        evicts one): if this set needs a barrier, their pre-images ride
        it, so those later writes need none of their own.  Ignored when
        the set needs no barrier (everything it overwrites is already
        durably journaled) and when not journaled.

        If a write fails part-way, an unknown prefix of the set reached
        the file; writing the set again is harmless.
        """
        pages = tuple(pages)
        with self._mutex:
            for page_id, payload in pages:
                if len(payload) > self.payload_size:
                    raise ValueError(
                        f"payload of {len(payload)} bytes exceeds page "
                        f"capacity {self.payload_size}"
                    )
                if not 1 <= page_id < self.page_count:
                    raise ValueError(f"page {page_id} out of range")
            self._guard_writable()
            if self.journaled:
                # Page 0 first: if rollback ever has to stop at a rotten
                # record, the header is the page it must not lose.
                if self._header_dirty:
                    self._capture_pre_image(0)
                for page_id, _ in pages:
                    self._capture_pre_image(page_id)
                if self._journal_unsynced:
                    # A barrier is due anyway: let it cover more.
                    for page_id in journal_ahead:
                        self._capture_pre_image(page_id)
                    self._journal_barrier()
            for page_id, payload in pages:
                self._put_page(page_id, payload)
            if self._header_dirty:
                self._put_header()

    def _put_page(self, page_id: int, payload: bytes) -> None:
        """The raw data-file write of one page.  The caller ran the
        barrier, or the page is fresh and needs none."""
        padded = payload.ljust(self.payload_size, b"\x00")
        self._hook("before_page_write")
        self._data_unsynced = True
        self._io_write(
            self._file,
            page_id * self.page_size,
            padded + _CRC.pack(zlib.crc32(padded)),
            "data",
        )
        self._hook("after_page_write")
        self.stats.physical_writes += 1

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate_page(self) -> int:
        """Pop a page from the free list, or extend the file."""
        with self._mutex:
            self._guard_writable()
            # Pin the committed page count before the file can grow, so
            # a rollback truncates freshly allocated pages away.
            self._ensure_transaction()
            if self._free_head != NO_PAGE:
                page_id = self._free_head
                payload = self.read_page(page_id)
                (self._free_head,) = _FREE_LINK.unpack(payload[: _FREE_LINK.size])
                self._freed.discard(page_id)
            else:
                # Extend the file.  The page is fresh, so no barrier:
                # rollback truncates it away.
                page_id = self.page_count
                self.page_count += 1
                self._put_page(page_id, b"")
            self.live_nodes += 1
            self._header_dirty = True
            return page_id

    def free_page(self, page_id: int) -> None:
        """Push a page onto the free list for reuse.

        Rejects the header page, out-of-range ids, and pages this
        process already freed (a double free would cycle the free list
        and silently hand the same page to two later allocations).
        """
        with self._mutex:
            if not 1 <= page_id < self.page_count:
                raise ValueError(
                    f"cannot free page {page_id}: valid data pages are "
                    f"1..{self.page_count - 1}"
                )
            if page_id in self._freed:
                raise ValueError(f"double free of page {page_id}")
            self._guard_writable()
            self.write_page(page_id, _FREE_LINK.pack(self._free_head))
            self._free_head = page_id
            self._freed.add(page_id)
            self.live_nodes -= 1
            self._header_dirty = True

    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Write the header page if it is dirty, then flush the OS file
        buffers to stable storage."""
        with self._mutex:
            self.write_pages(())
            self._fsync_data()

    def close(self) -> None:
        """Clean shutdown: persist the header, commit any transaction and
        remove the (now cold) journal, directory-synced.

        A degraded pager only closes its handles: the in-memory state
        can no longer be trusted to reach disk, so the journal (if any)
        is left in place and the next open rolls back to the last
        commit.
        """
        with self._mutex:
            if self._file.closed:
                return
            if self.degraded:
                self._release_handles()
                return
            if self.journaled:
                self.commit()
            else:
                self.write_pages(())  # the header page
            try:
                if self._journal_file is not None:
                    # Cold since the commit above: a closed store is one file.
                    self._journal_file.close()
                    self._remove_journal()
            finally:
                self._release_handles()

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
