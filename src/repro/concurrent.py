"""Thread-safe access to SB-trees (the paper's stated future work).

The paper's conclusion: "We also need to design concurrency control
algorithms for SB-trees and MSB-trees if we want to use them in OLTP
systems."  This module provides the simplest correct protocol: a fair
readers-writer lock around whole-tree operations.

Why tree-level locking is the right first step here: unlike a B-tree,
where an update touches one leaf path and latch coupling localizes
conflicts, an SB-tree update can *modify values at interior nodes on two
root-to-leaf paths* (the segment-tree feature), and its compaction can
restructure nodes far from either path.  Any reader concurrently
descending through an interior node whose value is being adjusted would
accumulate a torn sum.  A single reader-writer lock gives linearizable
lookups and updates with unbounded reader parallelism, which matches
the paper's warehouse workload (rare batched maintenance, many
analytical reads).

:class:`ReadWriteLock` is written from scratch (the stdlib has none):
writer-preferring to keep maintenance latency bounded under read-heavy
load.  Both acquire paths take an optional ``timeout`` so callers that
fan out over many locks (the sharded router of :mod:`repro.sharding`)
can bound their worst-case wait instead of hanging on one stuck shard;
the guard form raises :class:`LockTimeout` when the deadline passes.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from . import obs
from .core.intervals import Time
from .core.results import ConstantIntervalTable
from .core.sbtree import IntervalLike
from .obs import trace

__all__ = ["LockTimeout", "ReadWriteLock", "ConcurrentTree"]


class LockTimeout(TimeoutError):
    """A guarded lock acquisition exceeded its timeout."""


class ReadWriteLock:
    """A writer-preferring readers-writer lock.

    Any number of readers may hold the lock together; writers are
    exclusive.  Arriving writers block new readers, so a steady read
    stream cannot starve maintenance.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._readers_ok = threading.Condition(self._lock)
        self._writers_ok = threading.Condition(self._lock)
        self._active_readers = 0
        self._active_writer = False
        self._waiting_writers = 0

    # ------------------------------------------------------------------
    def acquire_read(self, timeout: Optional[float] = None) -> bool:
        """Acquire shared access; returns False if *timeout* expires."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._active_writer or self._waiting_writers:
                if deadline is None:
                    self._readers_ok.wait()
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._readers_ok.wait(remaining)
            self._active_readers += 1
            return True

    def release_read(self) -> None:
        with self._lock:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._writers_ok.notify()

    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        """Acquire exclusive access; returns False if *timeout* expires."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            self._waiting_writers += 1
            try:
                while self._active_writer or self._active_readers:
                    if deadline is None:
                        self._writers_ok.wait()
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    self._writers_ok.wait(remaining)
                self._active_writer = True
                return True
            finally:
                self._waiting_writers -= 1
                # A timed-out (or interrupted) writer must wake the
                # readers its waiting-writer flag was holding back, or
                # they would stall until the *next* writer releases.
                if not self._active_writer and not self._waiting_writers:
                    self._readers_ok.notify_all()

    def release_write(self) -> None:
        with self._lock:
            self._active_writer = False
            self._writers_ok.notify()
            self._readers_ok.notify_all()

    # ------------------------------------------------------------------
    class _Guard:
        def __init__(self, acquire, release, timeout=None):
            self._acquire = acquire
            self._release = release
            self._timeout = timeout

        def __enter__(self):
            if not self._acquire(self._timeout):
                raise LockTimeout(
                    f"lock not acquired within {self._timeout:.3f}s"
                )
            return self

        def __exit__(self, *exc):
            self._release()

    def read_locked(self, timeout: Optional[float] = None) -> "_Guard":
        """``with lock.read_locked(): ...`` shared-access context."""
        return self._Guard(self.acquire_read, self.release_read, timeout)

    def write_locked(self, timeout: Optional[float] = None) -> "_Guard":
        """``with lock.write_locked(): ...`` exclusive-access context."""
        return self._Guard(self.acquire_write, self.release_write, timeout)


class ConcurrentTree:
    """A linearizable wrapper around any tree-like index.

    Works with :class:`~repro.core.sbtree.SBTree`,
    :class:`~repro.core.msbtree.MSBTree`,
    :class:`~repro.core.fixed_window.FixedWindowTree` and
    :class:`~repro.core.dual.DualTreeAggregate` -- the wrapped object
    only needs the corresponding methods.  Reads run under the shared
    lock, mutations under the exclusive one.

    ``read_timeout`` / ``write_timeout`` (seconds) bound every lock
    acquisition; an expired wait raises :class:`LockTimeout` instead of
    hanging, which is what the sharded service layer relies on to turn
    a stuck shard into a structured error.
    """

    def __init__(
        self,
        tree: Any,
        lock: Optional[ReadWriteLock] = None,
        *,
        read_timeout: Optional[float] = None,
        write_timeout: Optional[float] = None,
    ) -> None:
        self.tree = tree
        self.lock = lock if lock is not None else ReadWriteLock()
        self.read_timeout = read_timeout
        self.write_timeout = write_timeout

    def _guarded(
        self, write: bool, op: str, fn: Callable, *args: Any, **kwargs: Any
    ) -> Any:
        """Run ``fn`` under the right lock; when observability or tracing
        is on, attribute the per-op I/O deltas *and* the time spent
        waiting for the lock."""
        lock = self.lock
        if not obs.ENABLED and not trace.TRACING:
            # Disabled fast path: two global flag loads and a direct
            # acquire/release, no guard or span objects.  The quickcheck
            # overhead gate keeps this within a small factor of the
            # hand-inlined equivalent.
            timeout = self.write_timeout if write else self.read_timeout
            acquired = (
                lock.acquire_write(timeout)
                if write
                else lock.acquire_read(timeout)
            )
            if not acquired:
                raise LockTimeout(f"lock not acquired within {timeout:.3f}s")
            try:
                return fn(*args, **kwargs)
            finally:
                if write:
                    lock.release_write()
                else:
                    lock.release_read()
        guard = (
            lock.write_locked(self.write_timeout)
            if write
            else lock.read_locked(self.read_timeout)
        )
        requested = time.perf_counter()
        with guard:
            waited_us = (time.perf_counter() - requested) * 1e6
            stores = obs.stores_of(self.tree)
            with trace.span(
                "tree." + op,
                stores,
                attrs={"lock_wait_us": round(waited_us, 1)},
            ):
                if not obs.ENABLED:
                    return fn(*args, **kwargs)
                with obs.Op(
                    op,
                    stores,
                    subject=type(self.tree).__name__,
                    lock_wait_us=waited_us,
                ):
                    return fn(*args, **kwargs)

    # ------------------------------------------------------------------
    # Reads (shared)
    # ------------------------------------------------------------------
    def lookup(self, t: Time) -> Any:
        return self._guarded(False, "lookup", self.tree.lookup, t)

    def lookup_final(self, t: Time) -> Any:
        return self._guarded(False, "lookup", self.tree.lookup_final, t)

    def range_query(self, interval: IntervalLike) -> ConstantIntervalTable:
        return self._guarded(
            False, "range_query", self.tree.range_query, interval
        )

    def steps(self, interval: IntervalLike) -> Tuple[List[Time], List[Any]]:
        # Explicit, like every read: __getattr__ would hand out the
        # tree's own method, which runs without the lock.
        return self._guarded(False, "range_query", self.tree.steps, interval)

    def to_table(self, **kwargs) -> ConstantIntervalTable:
        return self._guarded(False, "range_query", self.tree.to_table, **kwargs)

    def window_lookup(self, t: Time, w: Time) -> Any:
        return self._guarded(False, "mlookup", self.tree.window_lookup, t, w)

    @property
    def height(self) -> int:
        # Walks the leftmost path over the store's live nodes, which a
        # writer may be restructuring: shared lock, like any other read.
        with self.lock.read_locked(self.read_timeout):
            return self.tree.height

    # ------------------------------------------------------------------
    # Writes (exclusive)
    # ------------------------------------------------------------------
    def insert(self, value: Any, interval: IntervalLike) -> None:
        return self._guarded(True, "insert", self.tree.insert, value, interval)

    def delete(self, value: Any, interval: IntervalLike) -> None:
        return self._guarded(True, "delete", self.tree.delete, value, interval)

    def compact(self) -> None:
        return self._guarded(True, "compact", self.tree.compact)

    # ------------------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        # Passthrough for introspection (spec, kind, store, ...).  It
        # takes no lock: a *method* fetched here runs unlocked, so every
        # read or write a caller may run beside a writer needs an
        # explicit wrapper above.  Guard against infinite recursion when
        # ``self.tree`` does not exist yet: ``copy.copy`` / ``pickle``
        # probe dunder methods on a blank instance *before* ``__init__``
        # runs, and a plain ``self.tree`` here would re-enter
        # ``__getattr__`` forever.
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        try:
            tree = object.__getattribute__(self, "tree")
        except AttributeError:
            raise AttributeError(name) from None
        return getattr(tree, name)
