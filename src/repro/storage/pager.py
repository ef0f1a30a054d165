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

Every pager keeps a redo write-ahead log beside the file
(``<path>-wal``), and the data file holds only *checkpointed* state:

* **Frames.**  A page write (an eviction mid-transaction, a write-back
  set) appends one unsynced frame per page to the WAL: page id, a commit
  flag, the page image (with its page CRC), a crc32 of all that and the
  generation's *salt*.
* **Commit** appends the remaining dirty pages and then page 0 with the
  commit flag, in one write, and fsyncs the WAL once: the commit point
  and the commit's only fsync.
* **Reads** check the WAL index (page -> offset of its newest frame,
  read back with ``os.pread``) before the data file.
* **Checkpoint.**  A commit that leaves the generation past
  :data:`WAL_CHECKPOINT_BYTES` ends by copying the newest image of every
  indexed page into the data file in page order, setting the file's
  length to the committed page count and fsyncing it; only then does it
  write a header with a new salt, and fsync that before any frame of the
  new generation exists (else a power cut could bring the old header
  back and replay an older generation over the newer checkpoint).
* **Open** replays whole committed transactions of the generation only
  -- the scan (:func:`scan_wal`) stops at the first short frame, other
  salt or bad CRC -- then checkpoints and starts a new generation.  A
  clean :meth:`Pager.close` checkpoints and removes the WAL, so a closed
  store is one file.

The WAL is created once per pager (its directory is synced then and on
removal, never in a steady-state commit) and reused across generations
without truncation.  A leftover ``<path>-journal`` (the rollback journal
of earlier releases) is refused with :class:`JournalError`.

``allocate_page``, ``free_page``, ``set_root`` and ``set_meta`` only
mark page 0 dirty; it is written once per commit.  With no frame since
the last commit and a clean header, :meth:`commit` returns without I/O,
so opening and closing a file without changing it writes nothing and
creates no WAL.

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
  already have dropped the dirty pages the retry would claim to sync;
* drops the pager into a read-only *degraded mode* after
  ``degrade_after`` consecutive retry-exhausted failures: further
  mutations raise :class:`PagerDegradedError`, reads keep working, and
  the WAL is left in place so the next open recovers the last commit.
  A failed commit, checkpoint or WAL creation degrades at once: what it
  left in the WAL only a reopen (a new salt) can read.

Out-of-band events surface as ``pager.*`` counters through the active
:class:`repro.obs.MetricsRegistry` when collection is enabled.
"""

from __future__ import annotations

import operator
import os
import struct
import threading
import time
import warnings
import zlib
from dataclasses import astuple, dataclass, replace
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Tuple, Union

from .. import obs

__all__ = [
    "Pager",
    "PagerStats",
    "PageCorruptionError",
    "PagerDegradedError",
    "JournalError",
    "WalHeader",
    "WalFrame",
    "scan_wal",
    "DEFAULT_PAGE_SIZE",
    "WAL_CHECKPOINT_BYTES",
]

DEFAULT_PAGE_SIZE = 4096

#: A commit that leaves its generation's frames past this many bytes
#: ends with a checkpoint.
WAL_CHECKPOINT_BYTES = 1 << 20

_MAGIC = b"SBTRepro"
_VERSION = 1
#: magic(8) version(H) page_size(I) page_count(Q) free_head(q) root(q)
#: live_nodes(Q) meta_len(I)
_HEADER = struct.Struct("<8sHIQqqQI")
_FREE_LINK = struct.Struct("<q")
_CRC = struct.Struct("<I")

#: Sentinel for "no page".
NO_PAGE = -1

_WAL_MAGIC = b"SBTR-WAL"
_WAL_VERSION = 1
#: magic(8) version(H) page_size(I) salt(Q) generation(Q), then the
#: crc32 of those (I).
_WAL_FIELDS = struct.Struct("<8sHIQQ")
_WAL_HEADER = struct.Struct("<8sHIQQI")
#: A frame: page_id(q) commit(B), page_size image bytes, then this
#: trailer -- crc32-of-head-and-image(I) salt(Q).
_FRAME_HEAD = struct.Struct("<qB")
_FRAME_TAIL = struct.Struct("<IQ")


def _new_salt() -> int:
    return int.from_bytes(os.urandom(8), "little")


def _wal_header(page_size: int, salt: int, generation: int) -> bytes:
    fields = _WAL_FIELDS.pack(_WAL_MAGIC, _WAL_VERSION, page_size, salt, generation)
    return fields + _CRC.pack(zlib.crc32(fields))


def _frame(page_id: int, image: bytes, commit: bool, salt: int) -> bytes:
    body = _FRAME_HEAD.pack(page_id, commit) + image
    return body + _FRAME_TAIL.pack(zlib.crc32(body), salt)


class WalHeader(NamedTuple):
    """``ok`` (a generation: its salt replays), ``cold`` (short, or torn
    while being rewritten: nothing to replay) or ``unusable`` (not a WAL
    of this format, or damaged; ``detail`` says which)."""

    verdict: str
    page_size: int = 0
    salt: int = 0
    generation: int = 0
    detail: str = ""


class WalFrame(NamedTuple):
    """``ok`` frames say where their image sits; ``torn`` (the file ends
    inside it), ``stale`` (another generation's salt) and ``corrupt``
    (this generation's salt, bad CRC) end the scan."""

    status: str
    offset: int
    page_id: int = -1
    commit: bool = False


def _wal_verdict(raw: bytes) -> WalHeader:
    if len(raw) < _WAL_HEADER.size:
        return WalHeader("cold", detail="short header")
    magic, version, page_size, salt, generation, crc = _WAL_HEADER.unpack(raw)
    if (magic, version) != (_WAL_MAGIC, _WAL_VERSION):
        return WalHeader("unusable", detail=f"bad WAL magic {magic!r} v{version}")
    if page_size < 512:
        return WalHeader("unusable", detail=f"implausible WAL page size {page_size}")
    if zlib.crc32(raw[:_WAL_FIELDS.size]) != crc:
        return WalHeader("cold", page_size, salt, generation, "torn header")
    return WalHeader("ok", page_size, salt, generation)


def _wal_frames(handle, header: WalHeader) -> Iterator[WalFrame]:
    size = _FRAME_HEAD.size + header.page_size + _FRAME_TAIL.size
    body = size - _FRAME_TAIL.size
    offset = _WAL_HEADER.size
    for raw in iter(lambda: handle.read(size), b""):
        if len(raw) < size:
            yield WalFrame("torn", offset)
            return
        crc, salt = _FRAME_TAIL.unpack_from(raw, body)
        if salt != header.salt:
            yield WalFrame("stale", offset)
            return
        page_id, commit = _FRAME_HEAD.unpack_from(raw)
        if crc != zlib.crc32(raw[:body]):
            yield WalFrame("corrupt", offset, page_id)
            return
        yield WalFrame("ok", offset, page_id, bool(commit))
        offset += size


def scan_wal(handle) -> Iterator[Union[WalHeader, WalFrame]]:
    """The one WAL reader (recovery, ``repro fsck``, the tests): yields
    the :class:`WalHeader`, then -- for a generation -- each
    :class:`WalFrame` up to and including the first not ``ok``."""
    header = _wal_verdict(handle.read(_WAL_HEADER.size))
    frames = _wal_frames(handle, header) if header.page_size else iter(())
    first = next(frames, None)
    if header.verdict == "cold" and first is not None and first.status == "ok":
        # A header torn while being rewritten disowns every frame behind
        # it; a frame that still carries its salt says it was damaged.
        header = header._replace(
            verdict="unusable", detail="WAL header fails its checksum"
        )
    yield header
    if header.verdict == "ok" and first is not None:
        yield first
        yield from frames


def _replay(frames) -> Tuple[Dict[int, int], int]:
    """What recovery applies of scanned frames: page -> offset of its
    newest frame in a whole committed transaction, and how many
    transactions that is."""
    index: Dict[int, int] = {}
    pending: Dict[int, int] = {}
    commits = 0
    for frame in frames:
        if frame.status != "ok":
            break
        pending[frame.page_id] = frame.offset
        if frame.commit:
            index.update(pending)
            pending.clear()
            commits += 1
    return index, commits


class PageCorruptionError(RuntimeError):
    """Raised when a page fails its checksum on read."""


class PagerDegradedError(RuntimeError):
    """Raised for writes after the pager entered read-only degraded mode."""


class JournalError(RuntimeError):
    """Raised for a leftover rollback journal, and (under ``strict=True``)
    for a leftover WAL that is unusable."""


@dataclass
class PagerStats:
    """Physical I/O counters: ``physical_writes`` are data-file page
    writes (checkpoint copies), ``fsyncs`` every fsync attempted -- WAL,
    data and directory, split by the ``pager.fsyncs.*`` counters -- and
    ``wal_frames`` WAL appends.  A page write is ``wal_frames +
    physical_writes``: evictions and commits are frames."""

    physical_reads: int = 0
    physical_writes: int = 0
    fsyncs: int = 0
    wal_frames: int = 0

    def reset(self) -> None:
        self.__init__()

    def snapshot(self) -> "PagerStats":
        return replace(self)

    def __sub__(self, other: "PagerStats") -> "PagerStats":
        return PagerStats(*map(operator.sub, astuple(self), astuple(other)))


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
        "before_wal_create",
        "after_wal_create",
        "before_wal_write",
        "after_wal_write",
        "before_commit_fsync",
        "after_commit_fsync",
        "before_page_write",
        "after_page_write",
        "before_checkpoint_fsync",
        "after_checkpoint_fsync",
        "before_wal_reset",
        "after_wal_reset",
    )

    def __init__(
        self,
        path: str,
        page_size: Optional[int] = None,
        *,
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
        self.wal_path = self.path + "-wal"
        legacy = self.path + "-journal"
        if os.path.exists(legacy):
            raise JournalError(
                f"{legacy!r} is a rollback journal, a format this release "
                "no longer reads: open the page file once with the release "
                "that wrote it, so that it rolls the journal back"
            )
        self._directory = os.path.dirname(os.path.abspath(self.path))
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
        self._wal = None  # opened by a leftover WAL or the first frame
        self._wal_fd = -1
        self._salt = 0
        self._generation = 0
        #: Where the next frame goes, and where the last commit's ended.
        self._wal_end = self._committed_end = 0
        #: page id -> WAL offset of its newest frame.
        self._index: Dict[int, int] = {}
        #: Commits since the last checkpoint.
        self.wal_commits = 0
        #: Pages allocated at the end of the file and never written.
        self._fresh: set = set()
        #: Page 0 differs from what the last commit holds.
        self._header_dirty = False
        #: Page ids freed by this process and not yet reallocated, kept
        #: so a double free is caught before it cycles the free list.
        self._freed: set = set()
        self.stats = PagerStats()
        # Reentrant: public methods nest (allocate -> read, free -> write).
        self._mutex = threading.RLock()
        self._file = open(self.path, "r+b" if os.path.exists(self.path) else "w+b")
        try:
            if os.path.exists(self.wal_path):
                self._open_wal(page_size)
            if self._index or os.path.getsize(self.path) > 0:
                self._load_header()
                if requested_size is not None and requested_size != self.page_size:
                    # Geometry comes from the file, not the argument.
                    message = (
                        f"page file {self.path!r} uses page_size "
                        f"{self.page_size}; requested {requested_size} is ignored"
                    )
                    if strict:
                        raise ValueError(message)
                    warnings.warn(message, stacklevel=2)
            else:
                self.page_size = page_size
                self.page_count = 1  # the header page
                self._free_head = NO_PAGE
                self._root = NO_PAGE
                self.live_nodes = 0
                self._meta: Dict[str, str] = {}
                self._meta_blob = b""
                self._header_dirty = True
            if self._wal is not None:
                self._recover()
        except BaseException:
            self._release_handles()
            raise

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

    def _or_degrade(self, step, *args) -> None:
        """Run a step whose failure leaves the WAL in a state only a
        reopen can read: any ``OSError`` degrades the pager at once."""
        try:
            step(*args)
        except OSError:
            self._degrade()
            raise

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
        """One fsync of *path* (``wal``, ``data`` or ``dir``), counted.
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

    def _fsync_dir(self) -> None:
        """Sync the WAL's directory entry: after its creation and its
        removal by a clean close, never in a steady-state commit.
        Best-effort only where the platform cannot open directories; a
        failing sync propagates like any other."""
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
        no commit, no checkpoint.  What a degraded close, a failed open
        and :func:`repro.faults.simulate_crash` have in common."""
        for handle in (self._wal, self._file):
            if handle is not None and not handle.closed:
                try:
                    handle.close()
                except (OSError, ValueError):  # pragma: no cover - best effort
                    pass

    # ------------------------------------------------------------------
    # Write-ahead log
    # ------------------------------------------------------------------
    @property
    def wal_bytes(self) -> int:
        """Frame bytes the current generation holds."""
        return max(0, self._wal_end - _WAL_HEADER.size)

    def _open_wal(self, page_size: int) -> None:
        """Index the committed frames of the WAL a previous pager left."""
        self._wal = open(self.wal_path, "r+b", buffering=0)
        self._wal_fd = self._wal.fileno()
        self.page_size = page_size
        header, *frames = scan_wal(self._wal)
        if header.verdict == "unusable":
            message = f"{header.detail} in {self.wal_path!r}"
            if self.strict:  # left on disk for ``repro fsck``
                raise JournalError(message)
            warnings.warn(
                f"{message}; its frames are discarded", RuntimeWarning, stacklevel=4
            )
            return
        if header.verdict != "ok":
            return
        self.page_size, self._generation = header.page_size, header.generation
        if frames and frames[-1].status == "corrupt":  # its salt: not torn
            warnings.warn(
                f"WAL frame at byte {frames[-1].offset} of {self.wal_path!r} "
                "fails its checksum; replay stops at the last valid frame "
                "before it", RuntimeWarning, stacklevel=4,
            )
        self._index, _ = _replay(frames)
        obs.count("pager.replayed_frames", len(self._index))

    def _recover(self) -> None:
        """Checkpoint what a leftover WAL committed, then start a new
        generation."""
        obs.count("pager.recoveries")
        if self._index:
            self._copy_back()
        self._reset_wal()

    def _create_wal(self) -> None:
        """Create the WAL -- or finish a creation cut short -- up to a
        durable header and directory entry."""
        if self._wal is None:
            self._hook("before_wal_create")
            self._wal = open(self.wal_path, "w+b", buffering=0)
            self._wal_fd = self._wal.fileno()
            if self.faults is not None:
                self.faults.note_create(self.wal_path)
            self._hook("after_wal_create")
        self._reset_wal()
        self._fsync_dir()

    def _sync_wal(self) -> None:
        self._io_fsync(self._wal_fd, "wal", self.wal_path)

    # State changes before each ``after_*`` hook: a harness that lets
    # the code run on past a simulated crash sees a consistent pager.
    def _append(self, frames, commit: bool = False) -> None:
        """Append ``(page_id, image)`` frames to the WAL in one unsynced
        write, the last flagged as a commit if *commit*."""
        if not self._wal_end:  # no durable WAL header yet
            self._or_degrade(self._create_wal)
        last = len(frames) - 1
        blob = b"".join(
            _frame(page_id, image, commit and n == last, self._salt)
            for n, (page_id, image) in enumerate(frames)
        )
        self._hook("before_wal_write")
        self._io_write(self._wal, self._wal_end, blob, "wal")
        size = len(blob) // len(frames)
        for page_id, _ in frames:
            self._index[page_id] = self._wal_end
            self._wal_end += size
            self._fresh.discard(page_id)
        self.stats.wal_frames += len(frames)
        obs.count("pager.wal_frames", len(frames))
        self._hook("after_wal_write")

    def _commit_frames(self, frames) -> None:
        self._append(frames, commit=True)
        self._hook("before_commit_fsync")
        self._sync_wal()
        self._committed_end = self._wal_end
        self._header_dirty = False
        self.wal_commits += 1
        self._hook("after_commit_fsync")

    def _copy_back(self) -> None:
        """Checkpoint steps 1-3: the newest image of every indexed page
        into the data file, in page order; the file's length set to the
        committed page count; the data file fsynced."""
        for page_id in sorted(self._index):
            image = os.pread(
                self._wal_fd, self.page_size,
                self._index[page_id] + _FRAME_HEAD.size,
            )
            self._hook("before_page_write")
            self._io_write(self._file, page_id * self.page_size, image, "data")
            self.stats.physical_writes += 1
            self._hook("after_page_write")
        self._file.truncate(self.page_count * self.page_size)
        self._hook("before_checkpoint_fsync")
        self._fsync_data()
        self._hook("after_checkpoint_fsync")

    def _reset_wal(self) -> None:
        """Checkpoint steps 4-5: a header with a new salt, durable before
        any frame of the new generation is written; an empty index."""
        salt, generation = _new_salt(), self._generation + 1
        self._hook("before_wal_reset")
        self._io_write(
            self._wal, 0, _wal_header(self.page_size, salt, generation), "wal"
        )
        self._sync_wal()
        self._salt, self._generation = salt, generation
        self._wal_end = self._committed_end = _WAL_HEADER.size
        self._index.clear()
        self.wal_commits = 0
        self._hook("after_wal_reset")

    def _checkpoint(self) -> None:
        self._copy_back()
        self._reset_wal()
        obs.count("pager.checkpoints")

    def _drop_wal(self) -> None:
        self._wal.close()
        if self.faults is not None:
            self.faults.note_unlink(self.wal_path)
        os.remove(self.wal_path)
        self._fsync_dir()

    def commit(self, pages: Iterable[Tuple[int, bytes]] = ()) -> None:
        """Write *pages* -- the final write-back set -- and the header
        page as one transaction, and make it durable: one WAL append of
        the pages, any page allocated and never written (as an empty
        page) and page 0 with the commit flag, then one WAL fsync -- the
        commit point.  A commit that leaves the generation past
        :data:`WAL_CHECKPOINT_BYTES` then checkpoints.  A pager with
        nothing to make durable returns without I/O.
        """
        pages = tuple(pages)
        with self._mutex:
            self._check(pages)
            self._guard_writable()
            if not (pages or self.dirty):
                return
            written = {page_id for page_id, _ in pages}
            frames = [(page_id, self._image(payload)) for page_id, payload in pages]
            frames += [
                (page_id, self._image(b""))
                for page_id in sorted(self._fresh - written)
            ]
            frames.append((0, self._header_image()))
            self._or_degrade(self._commit_frames, frames)
            if self.wal_bytes >= WAL_CHECKPOINT_BYTES:
                self._or_degrade(self._checkpoint)
            obs.count("pager.commits")

    @property
    def dirty(self) -> bool:
        """Whether :meth:`commit` has anything to make durable."""
        return self._header_dirty or self._wal_end != self._committed_end

    # ------------------------------------------------------------------
    # Header handling
    # ------------------------------------------------------------------
    def _load_header(self) -> None:
        """Read page 0 -- from the WAL if a committed frame holds it."""
        offset = self._index.get(0)
        if offset is None:
            self._file.seek(0)
            raw = self._file.read(_HEADER.size)
        else:
            raw = os.pread(self._wal_fd, self.page_size, offset + _FRAME_HEAD.size)
        if len(raw) < _HEADER.size:
            raise PageCorruptionError("truncated header page")
        magic, version, page_size, page_count, free_head, root, live, meta_len = (
            _HEADER.unpack_from(raw)
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
        self._meta_blob = (
            self._file.read(meta_len) if offset is None
            else raw[_HEADER.size:_HEADER.size + meta_len]
        )
        self._meta = {}
        for line in self._meta_blob.decode("utf-8").splitlines():
            key, _, value = line.partition("=")
            self._meta[key] = value

    def _touch_header(self) -> None:
        """Page 0 changed in memory; the next commit writes it."""
        self._guard_writable()
        self._header_dirty = True

    def _header_image(self) -> bytes:
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
        return payload.ljust(self.page_size, b"\x00")

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
        """Read and checksum-verify one page's payload: its newest WAL
        frame if it has one, else the data file."""
        with self._mutex:
            if not 1 <= page_id < self.page_count:
                raise ValueError(f"page {page_id} out of range")
            self.stats.physical_reads += 1
            if page_id in self._fresh:
                return bytes(self.payload_size)
            offset = self._index.get(page_id)
            if offset is None:
                self._file.seek(page_id * self.page_size)
                raw = self._file.read(self.page_size)
            else:
                raw = os.pread(
                    self._wal_fd, self.page_size, offset + _FRAME_HEAD.size
                )
        payload, crc_raw = raw[: self.payload_size], raw[self.payload_size:]
        (expected,) = _CRC.unpack(crc_raw)
        if zlib.crc32(payload) != expected:
            raise PageCorruptionError(f"checksum mismatch on page {page_id}")
        return payload

    def write_page(self, page_id: int, payload: bytes) -> None:
        """Write one page's payload: a one-page write-back set."""
        self.write_pages(((page_id, payload),))

    def _check(self, pages) -> None:
        for page_id, payload in pages:
            if len(payload) > self.payload_size:
                raise ValueError(
                    f"payload of {len(payload)} bytes exceeds page "
                    f"capacity {self.payload_size}"
                )
            if not 1 <= page_id < self.page_count:
                raise ValueError(f"page {page_id} out of range")

    def write_pages(self, pages: Iterable[Tuple[int, bytes]]) -> None:
        """Write one write-back set -- ``(page_id, payload)`` pairs, each
        payload getting its checksum appended -- as one WAL append of
        uncommitted frames, no fsync.  If the write fails part-way, the
        frames are uncommitted and the next append overwrites them;
        writing the set again is harmless.
        """
        pages = tuple(pages)
        with self._mutex:
            self._check(pages)
            self._guard_writable()
            if pages:
                self._append(
                    [(page_id, self._image(payload)) for page_id, payload in pages]
                )

    def _image(self, payload: bytes) -> bytes:
        padded = payload.ljust(self.payload_size, b"\x00")
        return padded + _CRC.pack(zlib.crc32(padded))

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate_page(self) -> int:
        """Pop a page from the free list, or extend the file."""
        with self._mutex:
            self._guard_writable()
            if self._free_head != NO_PAGE:
                page_id = self._free_head
                payload = self.read_page(page_id)
                (self._free_head,) = _FREE_LINK.unpack(payload[: _FREE_LINK.size])
                self._freed.discard(page_id)
            else:
                page_id = self.page_count
                self.page_count += 1
                self._fresh.add(page_id)  # an empty page until written
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
    def close(self) -> None:
        """Clean shutdown: commit, then checkpoint and remove the WAL,
        directory-synced.  A pager that never wrote a frame and holds a
        clean header closes without I/O.

        A degraded pager only closes its handles: the in-memory state
        can no longer be trusted to reach disk, so the WAL (if any) is
        left in place and the next open recovers the last commit.
        """
        with self._mutex:
            if self._file.closed:
                return
            if self.degraded:
                self._release_handles()
                return
            try:
                self.commit()
                if self._wal is not None:
                    if self._index:
                        self._copy_back()
                    self._drop_wal()
            finally:
                self._release_handles()

    def __enter__(self) -> "Pager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
