"""The traced run's spans, recorded by the benchmark's own wrappers.

A disabled :class:`Tracer` hands every object back unwrapped, so the
workloads run the same code traced and untraced.  Enabled, it wraps the
calls into each layer -- proxies for node stores, shard locks, the
service client and its reply futures; instance-level method wrappers
for trees, the sharded tree and the view catalog -- and records one
span per call: name, start, end, parent, request id.  Spans stay in
memory and are written out when the run ends.  A layer's *self* time is
its span minus the part its child spans cover.

The request id is the bench's own unit of work (the chunk or burst a
span ran under), set by the workload loop through :attr:`Tracer.request`;
server-side spans recorded on another thread carry the id of the burst
in flight.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.concurrent import LockTimeout

__all__ = ["Tracer", "summarise"]

_NODE_OPS = (
    "allocate", "read", "write", "free", "get_root", "set_root",
    "get_meta", "set_meta", "node_count",
)


class _ThreadSpans:
    """One thread's spans ``[name, start, end, parent, request]`` and its
    stack of open span indices."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.request = 0
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._register = threading.Lock()

    # -- recording -----------------------------------------------------
    def _mine(self) -> _ThreadSpans:
        mine = getattr(self._local, "spans", None)
        if mine is None:
            mine = self._local.spans = _ThreadSpans()
            with self._register:
                self._threads.append(mine)
        return mine

    def begin(self, name: str) -> None:
        mine = self._mine()
        parent = mine.stack[-1] if mine.stack else -1
        mine.stack.append(len(mine.spans))
        mine.spans.append([name, time.perf_counter(), 0.0, parent, self.request])

    def end(self) -> None:
        mine = self._mine()
        mine.spans[mine.stack.pop()][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end()

    def clear(self) -> None:
        """Forget the spans recorded so far (the set-up's); only called
        between phases, when no span is open on any thread."""
        for thread in self._threads:
            thread.spans.clear()

    # -- wrappers (identity when disabled) -----------------------------
    def methods(self, obj: Any, layer: str, names: Iterable[str]) -> Any:
        """Shadow bound methods of *obj* with span-recording wrappers."""
        if self.enabled:
            for name in names:
                setattr(obj, name, _Spanned(self, f"{layer}.{name}", getattr(obj, name)))
        return obj

    def store(self, store: Any) -> Any:
        return _StoreProxy(self, store) if self.enabled else store

    def locks(self, sharded: Any) -> Any:
        """Put a timing proxy over each ``shard.lock`` of a ShardedTree."""
        if self.enabled:
            for shard in sharded.shards:
                shard.lock = _LockProxy(self, shard.lock)
        return sharded

    def client(self, client: Any) -> Any:
        return _ClientProxy(self, client) if self.enabled else client

    # -- output --------------------------------------------------------
    def threads(self) -> List[List[list]]:
        return [t.spans for t in self._threads]

    def dump(self, path: str) -> int:
        count = 0
        with open(path, "w") as out:
            for tid, spans in enumerate(self.threads()):
                for i, (name, start, end, parent, request) in enumerate(spans):
                    out.write(json.dumps({
                        "id": f"{tid}:{i}",
                        "name": name,
                        "start": start,
                        "end": end,
                        "parent": f"{tid}:{parent}" if parent >= 0 else None,
                        "request": request,
                    }) + "\n")
                    count += 1
        return count


def summarise(threads: List[List[list]]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``count``, ``total`` seconds and ``self`` seconds
    (total minus the part covered by child spans).  A ``parent>child``
    key counts the child spans recorded directly under that parent."""
    out: Dict[str, Dict[str, float]] = {}

    def row(key: str) -> Dict[str, float]:
        return out.setdefault(key, {"count": 0, "total": 0.0, "self": 0.0})

    for spans in threads:
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
                edge = row(f"{spans[parent][0]}>{name}")
                edge["count"] += 1
                edge["total"] += end - start
        for (name, start, end, _, _), child in zip(spans, covered):
            mine = row(name)
            mine["count"] += 1
            mine["total"] += end - start
            mine["self"] += end - start - child
    return out


class _Spanned:
    """A bound method that records a span around each call."""

    __slots__ = ("_tracer", "_name", "_fn")

    def __init__(self, tracer: Tracer, name: str, fn) -> None:
        self._tracer = tracer
        self._name = name
        self._fn = fn

    def __call__(self, *args, **kwargs):
        tracer = self._tracer
        tracer.begin(self._name)
        try:
            return self._fn(*args, **kwargs)
        finally:
            tracer.end()


class _StoreProxy:
    """A duck-typed ``NodeStore`` around a ``PagedNodeStore``: one span
    per node operation (codec + pool + any page I/O) and per flush/commit."""

    def __init__(self, tracer: Tracer, inner: Any) -> None:
        self._inner = inner
        for op in _NODE_OPS:
            setattr(self, op, _Spanned(tracer, f"storage.store.{op}", getattr(inner, op)))
        self.flush = _Spanned(tracer, "storage.pager.flush", inner.flush)
        self.commit = _Spanned(tracer, "storage.pager.commit", inner.commit)

    def __getattr__(self, name: str) -> Any:
        # stats, pager, buffer, codec, default_branching, close, ...
        return getattr(self._inner, name)


class _Guard:
    def __init__(self, acquire, release, timeout: Optional[float]) -> None:
        self._acquire = acquire
        self._release = release
        self._timeout = timeout

    def __enter__(self) -> "_Guard":
        if not self._acquire(self._timeout):
            raise LockTimeout(f"lock not acquired within {self._timeout}s")
        return self

    def __exit__(self, *exc) -> None:
        self._release()


class _LockProxy:
    """Times the waits for, and the holds of, one shard's ReadWriteLock."""

    def __init__(self, tracer: Tracer, inner: Any) -> None:
        self._tracer = tracer
        self._inner = inner

    def _acquire(self, kind: str, acquire, timeout: Optional[float]) -> bool:
        tracer = self._tracer
        tracer.begin(f"concurrent.{kind}_wait")
        try:
            acquired = acquire(timeout)
        finally:
            tracer.end()
        if acquired:
            tracer.begin(f"concurrent.{kind}_hold")
        return acquired

    def acquire_read(self, timeout: Optional[float] = None) -> bool:
        return self._acquire("read", self._inner.acquire_read, timeout)

    def acquire_write(self, timeout: Optional[float] = None) -> bool:
        return self._acquire("write", self._inner.acquire_write, timeout)

    def release_read(self) -> None:
        self._inner.release_read()
        self._tracer.end()

    def release_write(self) -> None:
        self._inner.release_write()
        self._tracer.end()

    def read_locked(self, timeout: Optional[float] = None):
        return _Guard(self.acquire_read, self.release_read, timeout)

    def write_locked(self, timeout: Optional[float] = None):
        return _Guard(self.acquire_write, self.release_write, timeout)


class _ClientProxy:
    """Spans around ``ServiceClient.submit``/``flush`` and, through the
    futures it hands out, ``ReplyFuture.result``."""

    def __init__(self, tracer: Tracer, inner: Any) -> None:
        self._tracer = tracer
        self._inner = inner

    def submit(self, op: str, flush: bool = True, **fields: Any):
        future = self._tracer.call(
            "service.client.submit", self._inner.submit, op, flush, **fields
        )
        future.result = _Spanned(self._tracer, "service.client.result", future.result)
        return future

    def flush(self) -> None:
        self._tracer.call("service.client.flush", self._inner.flush)

    def __getattr__(self, name: str) -> Any:
        # client_id, next_seq, stats, close, and the depth-1 calls
        return getattr(self._inner, name)
