"""Request-scoped distributed tracing across the service stack.

The paper states every cost as node accesses *per operation*; since the
service layer, one client request fans out across the wire protocol,
group-commit batching, shard routing, per-shard locks, the tree, and
the pager -- and a per-operation record can no longer say where one
request's time and I/O went.  This module correlates all of those hops
under one **trace**:

* :class:`TraceContext` is the propagation token: ``trace_id`` names
  the request end to end, ``span_id`` the current hop, ``parent_id``
  the hop that caused it.  It rides inside the service protocol's JSON
  frames as a ``"trace"`` field (see :mod:`repro.service.protocol`).
* :func:`span` opens one **span**: a named, timed segment that
  snapshots the storage counters around itself (reusing the
  :class:`~repro.obs.Op` snapshot machinery), so every span carries its
  own I/O deltas -- node reads, buffer hits/misses, physical page I/Os.
  Span records are JSON lines on the active :class:`~repro.obs.TraceSink`,
  distinguishable from per-op records by their ``"span"`` key.
* **Head sampling** is decided once per trace at the root
  (:func:`new_trace`), deterministically (every k-th request for a
  sampling fraction 1/k, exactly like ``TraceSink``'s record
  sampling); a kept trace emits *all* of its spans, a dropped trace
  emits none and costs nothing downstream (the context simply is not
  created, so no wire field, no server spans, no snapshots).
* The **disabled path** is a flag, not a :func:`repro.obs.observed`
  swap, as a span is a block inside a method body: while :data:`TRACING`
  is ``False`` a call site pays one module-attribute check and one
  function call returning a shared null context manager, nothing else.

**Group commit** needs one extra piece: a flush applies facts from
*several* requests with one lock round per shard, so its shard/tree
spans belong to several traces at once.  :class:`SpanCollector`
records those spans once, trace-agnostically (local ids, relative
structure), and :meth:`SpanCollector.replay` re-emits them under each
participating request's trace with fresh span ids -- every request's
trace reconstructs into a complete rooted tree, at the cost of one
duplicate record per extra participant (batch sizes bound this).

Span taxonomy (DESIGN.md section 9 has the full table)::

    client.request            root: one client call, retries included
      server.request          the server-side dispatch of one frame
        service.flush         the group-commit flush that applied a write
          shard.apply         one shard's slice of a flushed batch
            tree.insert       the tree ops inside the shard write lock
        shard.lookup          fan-out: one shard's share of a read
          tree.lookup         the tree op under the shard read lock
        shard.range_query     (same shape for range / window reads)
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import TraceSink, _snapshot, get_sink

__all__ = [
    "TRACING",
    "TraceContext",
    "Span",
    "SpanCollector",
    "activated",
    "current",
    "disable",
    "emit_span",
    "enable",
    "is_enabled",
    "new_trace",
    "span",
    "wrap",
]

#: Fast-path guard: call sites check this one module attribute when
#: tracing is off.
TRACING = False

_state_lock = threading.Lock()
_sink: Optional[TraceSink] = None
_registry = None  # optional MetricsRegistry folding span.<name>.wall_us
_sample = 1.0
_trace_seen = 0

_tls = threading.local()

#: Process-unique id prefix: span ids stay unique when client and
#: server trace from different processes into files that are later
#: merged.
_ID_PREFIX = f"{os.getpid():x}"
_ids = itertools.count(1)


def _new_id() -> str:
    return f"{_ID_PREFIX}-{next(_ids):x}"


# ----------------------------------------------------------------------
# Contexts
# ----------------------------------------------------------------------
class TraceContext:
    """One hop of one trace: (trace_id, span_id, parent_id).

    Immutable by convention; derive the next hop with :meth:`child`.
    """

    __slots__ = ("trace_id", "span_id", "parent_id")

    def __init__(
        self, trace_id: str, span_id: str, parent_id: Optional[str] = None
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id

    def child(self) -> "TraceContext":
        """A fresh context one level below this one."""
        return TraceContext(self.trace_id, _new_id(), self.span_id)

    def to_wire(self) -> Dict[str, str]:
        """The JSON-frame form carried inside service requests."""
        return {"id": self.trace_id, "span": self.span_id}

    @classmethod
    def from_wire(cls, payload: Any) -> Optional["TraceContext"]:
        """Parse a request's ``"trace"`` field; None if absent/garbage."""
        if not isinstance(payload, dict):
            return None
        trace_id, span_id = payload.get("id"), payload.get("span")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        return cls(trace_id, span_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceContext {self.trace_id} span={self.span_id} "
            f"parent={self.parent_id}>"
        )


class _LocalContext:
    """A trace-agnostic context recording into a :class:`SpanCollector`."""

    __slots__ = ("collector", "local_id")

    def __init__(self, collector: "SpanCollector", local_id: int) -> None:
        self.collector = collector
        self.local_id = local_id

    def child(self) -> "_LocalContext":
        return _LocalContext(self.collector, self.collector._next_local())


# ----------------------------------------------------------------------
# Global switch
# ----------------------------------------------------------------------
def enable(
    sink: Optional[TraceSink] = None,
    *,
    sample: float = 1.0,
    registry=None,
) -> None:
    """Turn tracing on.

    ``sink`` receives span records (falls back to the sink registered
    with :func:`repro.obs.enable`); ``sample`` is the head-sampling
    fraction applied per trace at :func:`new_trace`; ``registry``, when
    given, additionally folds each span's duration into a
    ``span.<name>.wall_us`` histogram (what the ``stats`` service op
    and ``repro top`` read for the span breakdown).  Every call restarts
    the head-sampling sequence at position 1, so what one enabled
    period keeps does not depend on how many traces an earlier one drew.
    """
    global TRACING, _sink, _sample, _registry, _trace_seen
    if not 0.0 < sample <= 1.0:
        raise ValueError("sample must be within (0, 1]")
    with _state_lock:
        if sink is not None:
            _sink = sink
        _sample = sample
        _trace_seen = 0
        if registry is not None:
            _registry = registry
        TRACING = True


def disable(*, close_sink: bool = False) -> None:
    """Turn tracing off (in-flight spans finish silently)."""
    global TRACING, _sink, _registry
    with _state_lock:
        TRACING = False
        if close_sink and _sink is not None:
            _sink.close()
        _sink = None
        _registry = None


def is_enabled() -> bool:
    return TRACING


def _active_sink() -> Optional[TraceSink]:
    return _sink if _sink is not None else get_sink()


# ----------------------------------------------------------------------
# Trace roots and context activation
# ----------------------------------------------------------------------
def new_trace() -> Optional[TraceContext]:
    """Start a new trace at this call site, or None if head-sampled out.

    Deterministic: with ``sample=s``, the n-th call is kept iff
    ``int(n*s) != int((n-1)*s)`` -- every trace for 1.0, every tenth
    for 0.1 -- so replayed workloads trace the same requests.
    """
    global _trace_seen
    if not TRACING:
        return None
    with _state_lock:
        _trace_seen += 1
        n = _trace_seen
        kept = int(n * _sample) != int((n - 1) * _sample)
    if not kept:
        return None
    trace_id = _new_id()
    return TraceContext(trace_id, _new_id(), None)


def current() -> Optional[TraceContext]:
    """The context active on this thread (None outside any trace)."""
    ctx = getattr(_tls, "ctx", None)
    return ctx if isinstance(ctx, TraceContext) else None


class activated:
    """``with activated(ctx): ...`` -- make *ctx* current on this thread.

    The service server uses this to carry a request's context into the
    executor thread that runs its blocking tree operation.  Accepts
    None (no-op) so call sites need no branch.
    """

    __slots__ = ("_ctx", "_prev")

    def __init__(self, ctx) -> None:
        self._ctx = ctx

    def __enter__(self):
        self._prev = getattr(_tls, "ctx", None)
        if self._ctx is not None:
            _tls.ctx = self._ctx
        return self._ctx

    def __exit__(self, *exc) -> bool:
        _tls.ctx = self._prev
        return False


def wrap(ctx, fn: Callable, *args: Any) -> Callable[[], Any]:
    """A zero-arg callable running ``fn(*args)`` with *ctx* activated.

    This is the executor-dispatch shim: the event loop cannot set
    another thread's trace context, so it hands the pool a closure that
    activates it on arrival.
    """

    def run():
        with activated(ctx):
            return fn(*args)

    return run


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _NullSpan:
    """Shared no-op context manager: the disabled/unsampled fast path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass


_NULL = _NullSpan()

#: Snapshot delta fields, in `_snapshot` tuple order.
_DELTA_FIELDS = (
    "reads",
    "writes",
    "allocations",
    "frees",
    "hits",
    "misses",
    "evictions",
    "physical_reads",
    "physical_writes",
)


class Span:
    """One open span; created by :func:`span` only when a trace is live."""

    __slots__ = ("name", "stores", "attrs", "_ctx", "_prev", "_before", "_t0", "_ts")

    def __init__(self, name, stores, attrs, parent) -> None:
        self.name = name
        self.stores = stores
        self.attrs = dict(attrs) if attrs else {}
        self._ctx = parent.child()
        self._prev = parent

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to the span (e.g. a lock-wait time)."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        _tls.ctx = self._ctx
        self._ts = time.time()
        self._before = _snapshot(self.stores)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc) -> bool:
        wall_us = (time.perf_counter() - self._t0) * 1e6
        after = _snapshot(self.stores)
        _tls.ctx = self._prev
        deltas = tuple(a - b for a, b in zip(after, self._before))
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        ctx = self._ctx
        if isinstance(ctx, _LocalContext):
            ctx.collector._add(
                ctx.local_id,
                ctx_parent_local(self._prev),
                self.name,
                self._ts,
                wall_us,
                self.attrs,
                deltas,
            )
        else:
            _publish(
                ctx.trace_id,
                ctx.span_id,
                ctx.parent_id,
                self.name,
                self._ts,
                wall_us,
                self.attrs,
                deltas,
            )
        return False


def ctx_parent_local(ctx) -> Optional[int]:
    """The local id of a collector context (None for the recording root)."""
    if isinstance(ctx, _LocalContext):
        return ctx.local_id
    return None


def span(name: str, stores: Tuple[Any, ...] = (), attrs=None):
    """Open a span under the thread's current context; no-op otherwise.

    ``stores`` are node stores to snapshot around the span (same duck
    typing as :class:`~repro.obs.Op`); ``attrs`` is a dict of static
    attributes.  Returns a shared null context when tracing is off or
    this thread is outside any sampled trace, so instrumented code can
    call it unconditionally.
    """
    if not TRACING:
        return _NULL
    parent = getattr(_tls, "ctx", None)
    if parent is None:
        return _NULL
    return Span(name, stores, attrs, parent)


def _publish(
    trace_id: str,
    span_id: str,
    parent_id: Optional[str],
    name: str,
    ts: float,
    wall_us: float,
    attrs: Dict[str, Any],
    deltas: Tuple[int, ...],
    fold: bool = True,
) -> None:
    record: Dict[str, Any] = {
        "span": name,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "ts_us": round(ts * 1e6, 1),
        "wall_us": round(wall_us, 3),
    }
    for fieldname, value in zip(_DELTA_FIELDS, deltas):
        if value:
            record[fieldname] = value
    if attrs:
        record.update(attrs)
    sink = _active_sink()
    if sink is not None:
        sink.emit_raw(record)
    if fold:
        registry = _registry
        if registry is not None:
            registry.histogram(f"span.{name}.wall_us").record(wall_us)


def emit_span(
    ctx: TraceContext,
    name: str,
    wall_us: float,
    *,
    ts: Optional[float] = None,
    attrs: Optional[Dict[str, Any]] = None,
) -> None:
    """Emit one span record for an already-measured segment.

    For async code that cannot use the :func:`span` context manager
    (thread-local context would leak across interleaved tasks on the
    event loop): the caller times the segment itself and publishes it
    under *ctx* -- which is the span's own context, its parent being
    ``ctx.parent_id``.
    """
    if not TRACING:
        return
    _publish(
        ctx.trace_id,
        ctx.span_id,
        ctx.parent_id,
        name,
        ts if ts is not None else time.time(),
        wall_us,
        attrs or {},
        (),
    )


# ----------------------------------------------------------------------
# Group-commit fan-in: record once, replay per participating trace
# ----------------------------------------------------------------------
class SpanCollector:
    """Records spans trace-agnostically for later multi-trace replay.

    One group-commit flush applies facts from several requests with one
    write-lock round per shard; its shard/tree spans are recorded here
    *once* (local ids, parent structure, timings, I/O deltas) and then
    :meth:`replay`\\ ed under each sampled participant's trace with
    fresh span ids.  Thread-compatible, not thread-safe: one flush owns
    one collector on one executor thread.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self.spans: List[
            Tuple[int, Optional[int], str, float, float, Dict[str, Any], Tuple[int, ...]]
        ] = []

    def _next_local(self) -> int:
        return next(self._counter)

    def _add(
        self,
        local_id: int,
        parent_local: Optional[int],
        name: str,
        ts: float,
        wall_us: float,
        attrs: Dict[str, Any],
        deltas: Tuple[int, ...],
    ) -> None:
        self.spans.append(
            (local_id, parent_local, name, ts, wall_us, dict(attrs), deltas)
        )

    def recording(self) -> "activated":
        """Activate this collector as the thread's recording context."""
        return activated(_LocalContext(self, 0))

    def replay(self, parent: TraceContext, *, fold: bool = False) -> None:
        """Re-emit every recorded span under *parent*'s trace.

        Top-level recorded spans become children of ``parent.span_id``;
        nested structure is preserved via a fresh id per recorded span.
        ``fold`` controls whether durations also land in the span
        histograms of the registry -- the flush folds once (its first
        participant), not once per duplicate.
        """
        ids: Dict[int, str] = {}
        for local_id, parent_local, name, ts, wall_us, attrs, deltas in self.spans:
            span_id = ids.setdefault(local_id, _new_id())
            if parent_local is None or parent_local == 0:
                parent_id = parent.span_id
            else:
                parent_id = ids.setdefault(parent_local, _new_id())
            _publish(
                parent.trace_id,
                span_id,
                parent_id,
                name,
                ts,
                wall_us,
                attrs,
                deltas,
                fold=fold,
            )
