"""Deterministic fault injection for the storage layer.

The SB-tree is a *disk-based* index, so its correctness claims extend
to failure modes a real disk exhibits: torn page writes, transient and
permanent I/O errors, failed fsyncs, and crashes at arbitrary points in
the write-ahead-log protocol.  This module provides the controlled
versions of all of those:

* :class:`SimulatedCrash` -- the exception a "process death" raises at a
  named crash point.  It deliberately does *not* subclass
  :class:`OSError`, so the pager's retry machinery never swallows it.
* :class:`FaultInjector` -- a seedable, fully deterministic fault plan
  wrapped around the pager's file operations.  The pager consults it at
  labeled *crash points* (``before_wal_write``,
  ``before_commit_fsync``, ...) and around every raw ``write``/``fsync``
  it issues, letting tests and the :mod:`repro.crashcheck` harness
  inject:

  - a crash at the N-th hit of any named crash point,
  - a *delay* (:meth:`FaultInjector.slow_at`) at the N-th hit of any
    crash point, modeling a stalled disk or shard,
  - a *torn write* (only a prefix of the data reaches the file before
    the simulated crash) on the data file or the WAL,
  - transient or permanent :class:`OSError` on writes and fsyncs.

  Beyond the pager, the sharded service path
  (:class:`repro.sharding.ShardedTree`, :mod:`repro.service`) consults
  the same injector at the ``shard_apply`` / ``shard_apply:<i>`` crash
  points before a write batch touches a shard, so slow and failed
  applies are injectable end to end.

* :func:`simulate_crash` -- abandon a store/pager's file handles the way
  a dying process would (no commit, no header write-back, no
  checkpoint), so the recovery path can be exercised by reopening the
  file.
  With ``power_loss=`` it additionally loses what a dying *machine*
  loses: the injector remembers, per file, the writes issued since that
  file's last fsync and the WAL create/unlink not yet covered by a
  directory sync, and drops all or a seeded subset of them before the
  reopen -- the model under which a missing fsync is visible.
* :func:`derive_rng` -- deterministic child RNGs for the package's other
  randomized fault sources (the :mod:`repro.service.chaos` network
  proxy, the service client's retry jitter), so every chaos run is
  reproducible from one root seed.

Every injected fault is counted (:attr:`FaultInjector.injected`) and,
when :mod:`repro.obs` collection is enabled, mirrored into the active
:class:`~repro.obs.MetricsRegistry` under ``faults.*`` counters.

Determinism: with the same seed, the same fault plan, and the same
workload, the injector fires identically on every run -- there is no
wall-clock or PID dependence, which is what makes the crash-consistency
sweep in :mod:`repro.crashcheck` reproducible.
"""

from __future__ import annotations

import errno
import os
import random
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from . import obs

__all__ = [
    "FaultInjector",
    "SimulatedCrash",
    "derive_rng",
    "simulate_crash",
]


def derive_rng(seed: Any, *streams: Any) -> random.Random:
    """A deterministic child RNG for one named fault stream.

    Every randomized fault source in the package -- the network chaos
    proxy's per-connection plans, the service client's retry jitter --
    derives its generator here, so a run is reproducible from one root
    seed: ``derive_rng(seed, "conn", 3)`` yields the same stream on
    every run, independent of thread scheduling or wall clock.
    """
    key = ":".join(str(part) for part in (seed,) + streams)
    return random.Random(key)


class SimulatedCrash(RuntimeError):
    """A simulated process death, raised at a named crash point.

    Carries the crash point (or write/fsync label) it fired at, so the
    harness can report where a failing recovery originated.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


class _WriteFault:
    """One armed write/fsync fault: OSError for the next *times* calls."""

    __slots__ = ("label", "times", "errno_")

    def __init__(self, label: str, times: Optional[int], errno_: int) -> None:
        self.label = label
        self.times = times  # None means permanent
        self.errno_ = errno_

    def consume(self) -> bool:
        """Whether this fault fires now (and uses up one charge)."""
        if self.times is None:
            return True
        if self.times > 0:
            self.times -= 1
            return True
        return False

    @property
    def exhausted(self) -> bool:
        return self.times == 0


class FaultInjector:
    """A deterministic fault plan for one or more pagers.

    The same injector may be shared by several pagers (e.g. every view
    store of a warehouse): crash-point hit counts are global to the
    injector, which is exactly what a "crash between committing view N
    and view N+1" test needs.

    Arming methods may be chained::

        inj = FaultInjector(seed=7)
        inj.crash_at("before_commit_fsync", hit=2).fail_writes(times=1)
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        #: crash-point name -> number of times the point was reached.
        self.hits: Dict[str, int] = {}
        #: fault kind -> number of times it actually fired.
        self.injected: Dict[str, int] = {}
        #: write/fsync label -> number of intercepted calls.
        self.write_calls: Dict[str, int] = {}
        self.fsync_calls: Dict[str, int] = {}
        #: Every intercepted call in order: ``("write", label, offset,
        #: length)``, ``("fsync", label)``, ``("create" | "unlink", path)``
        #: -- what an ordering assertion (write-ahead!) is made against.
        self.events: List[Tuple] = []
        self._crash_points: Dict[str, int] = {}  # point -> hit number
        self._delays: Dict[str, Dict[int, float]] = {}  # point -> {hit: seconds}
        self._write_faults: list = []
        self._fsync_faults: list = []
        #: label -> (call number, fraction) for torn writes.
        self._torn: Dict[str, Tuple[int, float]] = {}
        self._disarmed = False
        #: path -> [(offset, length, bytes it replaced)] issued since the
        #: file's last fsync, oldest first (see :meth:`lose_power`).
        self._unsynced: Dict[str, List[Tuple[int, int, bytes]]] = {}
        #: path -> file length as of its last fsync.
        self._synced_size: Dict[str, int] = {}
        #: ("create" | "unlink", path, content at unlink) not yet covered
        #: by a sync of the path's directory, oldest first.
        self._dir_ops: List[Tuple[str, str, bytes]] = []

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def crash_at(self, point: str, hit: int = 1) -> "FaultInjector":
        """Raise :class:`SimulatedCrash` at the *hit*-th time *point* is reached."""
        if hit < 1:
            raise ValueError("hit numbers are 1-based")
        self._crash_points[point] = hit
        return self

    def slow_at(
        self, point: str, seconds: float, *, hit: int = 1
    ) -> "FaultInjector":
        """Sleep *seconds* at the *hit*-th time *point* is reached.

        Models a slow disk or a stalled shard apply rather than a dead
        one; the service layer uses it to prove that a slow shard delays
        only its own replies instead of hanging the server.
        """
        if hit < 1:
            raise ValueError("hit numbers are 1-based")
        if seconds < 0:
            raise ValueError("delay must be non-negative")
        self._delays.setdefault(point, {})[hit] = seconds
        return self

    def fail_writes(
        self,
        label: str = "data",
        *,
        times: Optional[int] = 1,
        errno_: int = errno.EIO,
    ) -> "FaultInjector":
        """Make the next *times* writes on *label* raise :class:`OSError`.

        ``times=None`` arms a *permanent* failure (every write fails),
        which is how the pager's degraded mode is exercised.
        """
        self._write_faults.append(_WriteFault(label, times, errno_))
        return self

    def fail_fsyncs(
        self,
        label: str = "data",
        *,
        times: Optional[int] = 1,
        errno_: int = errno.EIO,
    ) -> "FaultInjector":
        """Make the next *times* fsyncs on *label* raise :class:`OSError`."""
        self._fsync_faults.append(_WriteFault(label, times, errno_))
        return self

    def tear_write(
        self, label: str = "wal", *, call: Optional[int] = None,
        fraction: float = 0.5,
    ) -> "FaultInjector":
        """Tear the *call*-th write on *label*: write a prefix, then crash.

        ``call=None`` tears the next write.  ``fraction`` is the portion
        of the payload that reaches the file (at least one byte, at most
        all but one), modeling a torn page or a partial WAL append.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        target = self.write_calls.get(label, 0) + 1 if call is None else call
        self._torn[label] = (target, fraction)
        return self

    def disarm(self) -> "FaultInjector":
        """Stop injecting faults (counting continues)."""
        self._disarmed = True
        return self

    def rearm(self) -> "FaultInjector":
        self._disarmed = False
        return self

    # ------------------------------------------------------------------
    # Pager-facing interception
    # ------------------------------------------------------------------
    def crash_point(self, point: str) -> None:
        """Count a crash-point hit; delay and/or raise if this hit is armed."""
        count = self.hits.get(point, 0) + 1
        self.hits[point] = count
        if self._disarmed:
            return
        delay = self._delays.get(point, {}).pop(count, None)
        if delay is not None:
            self._record("delay")
            time.sleep(delay)
        if self._crash_points.get(point) == count:
            self._record("crash")
            raise SimulatedCrash(point)

    def intercept_write(
        self, label: str, data: bytes, handle: Any = None,
        offset: Optional[int] = None,
    ) -> Tuple[bytes, Optional[BaseException]]:
        """Decide one raw write's fate.

        Returns ``(bytes_to_write, exception_or_None)``: the caller must
        write the returned bytes, flush, then raise the exception if one
        is given (that is how a torn write leaves its prefix in the
        file).  I/O-error faults raise :class:`OSError` directly, before
        any bytes are written.

        A caller that passes the *handle* it is about to write through
        and the *offset* it will write at gets the write remembered as
        unsynced until that file's next fsync (:meth:`lose_power`).
        """
        count = self.write_calls.get(label, 0) + 1
        self.write_calls[label] = count
        crash: Optional[BaseException] = None
        torn = None if self._disarmed else self._torn.get(label)
        if torn is not None and torn[0] == count:
            del self._torn[label]
            keep = max(1, min(len(data) - 1, int(len(data) * torn[1])))
            self._record("torn_write")
            data, crash = data[:keep], SimulatedCrash(f"torn {label} write")
        elif not self._disarmed:
            for fault in self._write_faults:
                if fault.label == label and fault.consume():
                    self._record("io_error")
                    raise OSError(fault.errno_, f"injected {label} write error")
            self._write_faults = [
                f for f in self._write_faults if not f.exhausted
            ]
        self.events.append(("write", label, offset, len(data)))
        if handle is not None:
            self._remember_write(handle, offset, len(data))
        return data, crash

    def _remember_write(self, handle: Any, offset: int, length: int) -> None:
        size = handle.seek(0, os.SEEK_END)
        handle.seek(offset)
        replaced = handle.read(length)
        self._synced_size.setdefault(handle.name, size)
        self._unsynced.setdefault(handle.name, []).append(
            (offset, length, replaced)
        )

    def intercept_fsync(self, label: str, path: Optional[str] = None) -> None:
        """Count an fsync; raise :class:`OSError` if a fault is armed.

        A successful fsync of *path* makes its remembered writes durable
        (for a directory: the creates and unlinks of its entries).
        """
        self.fsync_calls[label] = self.fsync_calls.get(label, 0) + 1
        if not self._disarmed:
            for fault in self._fsync_faults:
                if fault.label == label and fault.consume():
                    self._record("fsync_error")
                    raise OSError(fault.errno_, f"injected {label} fsync error")
            self._fsync_faults = [
                f for f in self._fsync_faults if not f.exhausted
            ]
        self.events.append(("fsync", label))
        if path is None:
            return
        if label == "dir":
            self._dir_ops = [
                op for op in self._dir_ops if os.path.dirname(op[1]) != path
            ]
        elif self._unsynced.pop(path, None) is not None:
            self._synced_size[path] = os.path.getsize(path)

    def note_create(self, path: str) -> None:
        """*path* was just created (or truncated to empty)."""
        self.events.append(("create", path))
        self._unsynced.pop(path, None)
        self._synced_size[path] = 0
        self._dir_ops.append(("create", os.path.abspath(path), b""))

    def note_unlink(self, path: str) -> None:
        """*path* is about to be unlinked (call before removing it)."""
        self.events.append(("unlink", path))
        with open(path, "rb") as handle:
            self._dir_ops.append(
                ("unlink", os.path.abspath(path), handle.read())
            )
        self._unsynced.pop(path, None)
        self._synced_size.pop(path, None)

    # ------------------------------------------------------------------
    # Power loss
    # ------------------------------------------------------------------
    def lose_power(self, mode: Union[str, int] = "all") -> Dict[str, int]:
        """Drop unsynced state the way a power cut may; returns what was
        dropped as ``{"writes": n, "dir_ops": m}``.

        Call it with every handle closed.  ``"all"`` drops every write
        issued since its file's last fsync and every create/unlink not
        covered by a directory sync; ``"none"`` drops nothing;
        ``"newest"`` is ``"all"`` except that each file keeps its newest
        unsynced write (storage may persist unsynced writes in any order,
        so the last one can land without those before it); an integer
        seeds a subset: per file all, none, or a coin per write, and a
        coin per directory operation.  Dropped writes are undone newest
        first -- restoring the bytes each replaced, unless a later write
        that survives covers them -- and the file is cut back to its
        synced length or the end of its last surviving write, whichever
        is longer.
        """
        dropped = {"writes": 0, "dir_ops": 0}
        if mode == "none":
            return dropped
        rng = None if mode in ("all", "newest") else derive_rng(mode, "power_loss")
        for path in sorted(self._unsynced):
            writes = self._unsynced[path]
            if not os.path.exists(path):
                continue
            plan = mode if rng is None else rng.choice(("all", "none", "some"))
            length = self._synced_size[path]
            survivors: List[Tuple[int, int]] = []
            with open(path, "r+b") as handle:
                for n, (offset, size, replaced) in enumerate(reversed(writes)):
                    end = offset + size
                    if (plan == "none" or (plan == "newest" and n == 0)
                            or (plan == "some" and rng.random() < 0.5)):
                        survivors.append((offset, end))
                        length = max(length, end)
                        continue
                    dropped["writes"] += 1
                    if not any(lo <= offset and end <= hi for lo, hi in survivors):
                        handle.seek(offset)
                        handle.write(replaced.ljust(size, b"\x00"))
                handle.truncate(length)
        for op, path, content in reversed(self._dir_ops):
            if rng is not None and rng.random() < 0.5:
                continue
            dropped["dir_ops"] += 1
            if op == "unlink":
                with open(path, "wb") as handle:
                    handle.write(content)
            elif os.path.exists(path):
                os.remove(path)
        self._unsynced.clear()
        self._synced_size.clear()
        self._dir_ops.clear()
        if dropped["writes"] or dropped["dir_ops"]:
            self._record("power_loss")
        return dropped

    # ------------------------------------------------------------------
    def _record(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        obs.count(f"faults.{kind}")

    def reset_counts(self) -> None:
        """Clear hit/call counters (the armed plan is kept)."""
        self.hits.clear()
        self.write_calls.clear()
        self.fsync_calls.clear()
        self.events.clear()
        self.injected.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector seed={self.seed} armed="
            f"{sorted(self._crash_points)} injected={self.injected}>"
        )


def simulate_crash(
    store_or_pager: Any, power_loss: Union[str, int, None] = None
) -> None:
    """Abandon file handles the way a dying process would.

    Accepts a :class:`~repro.storage.store.PagedNodeStore` or a bare
    :class:`~repro.storage.pager.Pager`.  No header write-back, no
    commit, no checkpoint happens -- the next open of the same path
    sees exactly what a crash would have left behind (buffered bytes
    are handed to the OS, mirroring a process that died after its
    libc buffers were drained but before any further syscall).

    That keeps every byte ever written, so it cannot tell a synced write
    from an unsynced one.  ``power_loss`` (``"all"``, ``"none"`` or an
    integer seed) then has the pager's :class:`FaultInjector` drop
    unsynced writes and directory operations
    (:meth:`FaultInjector.lose_power`) before the reopen.
    """
    pager = getattr(store_or_pager, "pager", store_or_pager)
    pager._release_handles()
    if power_loss is not None and pager.faults is not None:
        pager.faults.lose_power(power_loss)
