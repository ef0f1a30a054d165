"""Operation-level observability: metrics, per-op I/O deltas, tracing.

The paper states every cost in *node/page accesses per operation*
(``lookup`` O(h), ``insert`` O(h), ``rangeq`` O(h + r), Figure 23), but
the storage counters (:class:`~repro.core.nodestore.StoreStats`,
:class:`~repro.storage.buffer.BufferStats`,
:class:`~repro.storage.pager.PagerStats`) are process-lifetime totals.
This module closes the gap with three small pieces:

* :class:`MetricsRegistry` -- named :class:`Counter`\\ s and fixed-bucket
  :class:`Histogram`\\ s (latencies in microseconds by default);
* :class:`Op` -- a context manager that snapshots the storage counters
  around one tree operation and publishes the *deltas* (logical node
  reads/writes, buffer hits/misses, physical page I/Os) together with
  the wall time, so ``lookup``/``insert``/``delete``/``range_query``/
  ``compact``/``mlookup`` each report their individual cost;
* :class:`TraceSink` -- an optional JSON-lines sink with deterministic
  sampling, one record per operation.

Everything is guarded by the module-level :data:`ENABLED` flag: while it
is ``False`` (the default) an instrumented method pays exactly one
attribute check and one extra function call, nothing else.  Call
:func:`enable` (optionally with a registry and a sink) to start
collecting, :func:`disable` to stop, or use the :func:`collecting`
context manager for scoped measurement (what the benchmarks use instead
of ad-hoc counter resets).

Nested operations are attributed to the *outermost* one: ``compact``
internally runs a ``range_query``, and
:class:`~repro.concurrent.ConcurrentTree` wraps the plain tree methods,
but each logical operation produces exactly one record.

Two submodules extend this per-operation core across the whole stack:

* :mod:`repro.obs.trace` -- request-scoped distributed tracing
  (``TraceContext`` propagated through the service wire protocol,
  span records emitted to the same :class:`TraceSink`);
* :mod:`repro.obs.health` -- SB-tree structural-health gauges and the
  Prometheus-style text exposition behind ``repro stats --format
  prom`` and ``repro serve --metrics-port``.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "ENABLED",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Op",
    "OpRecord",
    "TraceSink",
    "collecting",
    "count",
    "disable",
    "enable",
    "get_registry",
    "get_sink",
    "is_enabled",
    "observed",
    "stores_of",
    "DEFAULT_LATENCY_BUCKETS_US",
]

#: Fast-path guard.  Instrumented methods check this single module
#: attribute and fall through to the undecorated code when it is False.
ENABLED = False

_state_lock = threading.Lock()
_registry: Optional["MetricsRegistry"] = None
_sink: Optional["TraceSink"] = None
_tls = threading.local()


# ----------------------------------------------------------------------
# Primitives: counters and fixed-bucket histograms
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A named point-in-time measurement (set, not accumulated).

    Tree-health telemetry (:mod:`repro.obs.health`) publishes structural
    facts -- height, occupancy, free-list length, open-journal bytes -- as
    gauges: the latest observation is the whole story, unlike counters.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


#: 1-2-5 decades from 1 microsecond to 5 seconds, plus an overflow
#: bucket: fixed at construction, so recording is one bisect + adds.
DEFAULT_LATENCY_BUCKETS_US: Tuple[float, ...] = tuple(
    m * 10**e for e in range(7) for m in (1, 2, 5)
) + (float("inf"),)


class Histogram:
    """A fixed-bucket histogram (upper-bound buckets, last is +inf).

    Tracks per-bucket counts plus count/total/min/max, so means and
    bucket-resolution quantiles come out without storing samples.
    Mutation is not internally locked; :class:`MetricsRegistry`
    serializes access when records arrive through :class:`Op`.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> None:
        chosen = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BUCKETS_US
        if chosen[-1] != float("inf"):
            chosen = chosen + (float("inf"),)
        if any(b >= a for b, a in zip(chosen, chosen[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.bounds = chosen
        self.counts = [0] * len(chosen)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def record(self, value: float) -> None:
        bounds = self.bounds
        lo, hi = 0, len(bounds) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1), interpolated within its bucket.

        The target rank is located in its bucket, then the value is
        linearly interpolated between the bucket's edges instead of
        reporting the upper edge outright -- at low counts the old
        upper-edge answer over-reported latencies by up to a full
        bucket width (2.5x with the default 1-2-5 decades).  The edges
        are clamped to the *observed* min and max, so the first bucket
        interpolates up from the smallest sample and the overflow
        bucket never reports infinity.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, (bound, n) in enumerate(zip(self.bounds, self.counts)):
            below = cumulative
            cumulative += n
            if cumulative >= target and n:
                lo = self.min if i == 0 else max(self.bounds[i - 1], self.min)
                hi = self.max if bound == float("inf") else min(bound, self.max)
                if hi <= lo:
                    return hi
                fraction = (target - below) / n
                return lo + (hi - lo) * fraction
        return self.max  # pragma: no cover - unreachable (inf bucket)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "bounds": [
                "inf" if bound == float("inf") else bound
                for bound in self.bounds
            ],
            "buckets": {
                ("inf" if bound == float("inf") else bound): n
                for bound, n in zip(self.bounds, self.counts)
                if n
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.1f}>"


# ----------------------------------------------------------------------
# Per-operation records
# ----------------------------------------------------------------------
#: Snapshot layout: logical reads/writes/allocations/frees, buffer
#: hits/misses/evictions, physical reads/writes.
_ZEROS = (0, 0, 0, 0, 0, 0, 0, 0, 0)


def _snapshot(stores: Tuple[Any, ...]) -> Tuple[int, ...]:
    """Capture the combined raw counters of one or more node stores."""
    if not stores:
        return _ZEROS
    r = w = al = fr = h = m = ev = pr = pw = 0
    for store in stores:
        st = store.stats
        r += st.reads
        w += st.writes
        al += st.allocations
        fr += st.frees
        buffer = getattr(store, "buffer", None)
        if buffer is not None:
            bs = buffer.stats
            h += bs.hits
            m += bs.misses
            ev += bs.evictions
        pager = getattr(store, "pager", None)
        if pager is not None:
            ps = pager.stats
            pr += ps.physical_reads
            pw += ps.physical_writes
    return (r, w, al, fr, h, m, ev, pr, pw)


@dataclass
class OpRecord:
    """One operation's attribution: I/O deltas plus wall time."""

    op: str
    subject: Optional[str] = None
    wall_us: float = 0.0
    reads: int = 0
    writes: int = 0
    allocations: int = 0
    frees: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    physical_reads: int = 0
    physical_writes: int = 0
    lock_wait_us: Optional[float] = None
    extra: Optional[Dict[str, Any]] = None
    #: How many effects a batched tree op applied (0: not a batch).
    effects: int = 0

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "op": self.op,
            "wall_us": round(self.wall_us, 3),
            "reads": self.reads,
            "writes": self.writes,
            "allocations": self.allocations,
            "frees": self.frees,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "physical_reads": self.physical_reads,
            "physical_writes": self.physical_writes,
        }
        if self.subject is not None:
            record["subject"] = self.subject
        if self.lock_wait_us is not None:
            record["lock_wait_us"] = round(self.lock_wait_us, 3)
        if self.effects:
            record["effects"] = self.effects
        if self.extra:
            record.update(self.extra)
        return record


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """A thread-safe collection of counters and histograms.

    Operation records land under a naming convention so generic
    primitives stay generic: ``op.<name>.count`` (counter),
    ``op.<name>.wall_us`` / ``op.<name>.lock_wait_us`` (histograms) and
    ``op.<name>.<delta>`` counters for each I/O delta.
    """

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

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- primitives ----------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter(name)
            return counter

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge(name)
            return gauge

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(name, bounds)
            return histogram

    # -- operation records ---------------------------------------------
    def record_op(self, record: OpRecord) -> None:
        """Fold one :class:`OpRecord` into the op.* metric family."""
        prefix = f"op.{record.op}."
        with self._lock:
            self._bump(prefix + "count", 1)
            self._observe(prefix + "wall_us", record.wall_us)
            for fieldname in self._DELTA_FIELDS:
                value = getattr(record, fieldname)
                if value:
                    self._bump(prefix + fieldname, value)
            if record.lock_wait_us is not None:
                self._observe(prefix + "lock_wait_us", record.lock_wait_us)
            if record.effects:
                self._bump(prefix + "effects", record.effects)

    def _bump(self, name: str, amount: int) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        counter.value += amount

    def _observe(self, name: str, value: float) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        histogram.record(value)

    # -- introspection -------------------------------------------------
    def op_names(self) -> List[str]:
        with self._lock:
            return sorted(
                name[len("op.") : -len(".count")]
                for name in self._counters
                if name.startswith("op.") and name.endswith(".count")
            )

    def op_summary(self, op: str) -> Dict[str, Any]:
        """Aggregate view of one operation: counts, latency, per-op I/O."""
        prefix = f"op.{op}."
        with self._lock:
            count_counter = self._counters.get(prefix + "count")
            count = count_counter.value if count_counter is not None else 0
            summary: Dict[str, Any] = {"op": op, "count": count}
            wall = self._histograms.get(prefix + "wall_us")
            summary["wall_us"] = wall.to_dict() if wall is not None else None
            lock_wait = self._histograms.get(prefix + "lock_wait_us")
            if lock_wait is not None:
                summary["lock_wait_us"] = lock_wait.to_dict()
            for fieldname in self._DELTA_FIELDS:
                counter = self._counters.get(prefix + fieldname)
                total = counter.value if counter is not None else 0
                summary[fieldname] = total
                summary[fieldname + "_per_op"] = total / count if count else 0.0
            effects = self._counters.get(prefix + "effects")
            if effects is not None:
                summary["effects"] = effects.value
        return summary

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            counters = {name: c.value for name, c in self._counters.items()}
            gauges = {name: g.value for name, g in self._gauges.items()}
            histograms = {name: h.to_dict() for name, h in self._histograms.items()}
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def render(self) -> str:
        """Per-operation text table (what ``python -m repro stats`` prints)."""
        from ..benchlib import format_table

        ops = self.op_names()
        if not ops:
            return "no operations recorded"
        headers = [
            "op",
            "count",
            "wall p50 us",
            "wall p95 us",
            "wall mean us",
            "reads/op",
            "writes/op",
            "hits/op",
            "misses/op",
            "phys rd/op",
            "phys wr/op",
            "lock p95 us",
        ]
        rows = []
        for op in ops:
            s = self.op_summary(op)
            wall = s["wall_us"] or {"p50": 0.0, "p95": 0.0, "mean": 0.0}
            lock_wait = s.get("lock_wait_us")
            rows.append(
                [
                    op,
                    s["count"],
                    wall["p50"],
                    wall["p95"],
                    wall["mean"],
                    s["reads_per_op"],
                    s["writes_per_op"],
                    s["hits_per_op"],
                    s["misses_per_op"],
                    s["physical_reads_per_op"],
                    s["physical_writes_per_op"],
                    lock_wait["p95"] if lock_wait else "-",
                ]
            )
        return format_table(headers, rows)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


# ----------------------------------------------------------------------
# Trace sink
# ----------------------------------------------------------------------
class TraceSink:
    """A JSON-lines sink for operation records, with sampling.

    ``sample`` keeps that deterministic fraction of records (1.0 keeps
    everything, 0.1 every tenth record): benchmark replays stay
    reproducible, unlike random sampling.
    """

    def __init__(self, target: Union[str, os.PathLike, Any], *, sample: float = 1.0) -> None:
        if not 0.0 < sample <= 1.0:
            raise ValueError("sample must be within (0, 1]")
        self._owns_file = isinstance(target, (str, os.PathLike))
        self._file = open(target, "a") if self._owns_file else target
        self._lock = threading.Lock()
        self._sample = sample
        self.seen = 0
        self.emitted = 0

    def emit(self, record: Union[OpRecord, Dict[str, Any]]) -> bool:
        """Write one record (subject to sampling); returns True if kept."""
        payload = record.to_dict() if isinstance(record, OpRecord) else dict(record)
        with self._lock:
            self.seen += 1
            kept = int(self.seen * self._sample) != int((self.seen - 1) * self._sample)
            if kept:
                self.emitted += 1
                self._file.write(
                    json.dumps(payload, sort_keys=True, separators=(",", ":"))
                    + "\n"
                )
        return kept

    def emit_raw(self, payload: Dict[str, Any]) -> None:
        """Write one record unconditionally (no per-record sampling).

        Span records (:mod:`repro.obs.trace`) use this: sampling for
        traces is decided *once per trace* at the root (head sampling),
        so a kept trace must emit every one of its spans -- per-record
        sampling here would tear span trees apart.
        """
        with self._lock:
            self.emitted += 1
            self._file.write(
                json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
            )

    def close(self) -> None:
        with self._lock:
            self._file.flush()
            if self._owns_file:
                self._file.close()

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Global switch
# ----------------------------------------------------------------------
def enable(
    registry: Optional[MetricsRegistry] = None,
    sink: Optional[TraceSink] = None,
) -> MetricsRegistry:
    """Turn collection on; returns the active registry."""
    global ENABLED, _registry, _sink
    with _state_lock:
        if registry is not None:
            _registry = registry
        elif _registry is None:
            _registry = MetricsRegistry()
        if sink is not None:
            _sink = sink
        ENABLED = True
        return _registry


def disable(*, close_sink: bool = False) -> None:
    """Turn collection off (the registry is kept for inspection)."""
    global ENABLED, _sink
    with _state_lock:
        ENABLED = False
        if close_sink and _sink is not None:
            _sink.close()
            _sink = None


def is_enabled() -> bool:
    return ENABLED


def count(name: str, amount: int = 1) -> None:
    """Bump a named counter on the active registry; no-op while disabled.

    The storage layer uses this for rare, out-of-band events (write
    retries, injected faults, degraded-mode entries) that have no
    surrounding :class:`Op`: one attribute check when collection is off.
    """
    if not ENABLED:
        return
    registry = _registry
    if registry is not None:
        registry.counter(name).inc(amount)


def get_registry() -> Optional[MetricsRegistry]:
    return _registry


def get_sink() -> Optional[TraceSink]:
    return _sink


@contextmanager
def collecting(
    sink: Optional[TraceSink] = None,
) -> Iterator[MetricsRegistry]:
    """Scoped collection into a fresh registry, restoring prior state.

    This is the benchmark-facing replacement for ad-hoc
    ``stats.reset()`` calls: deltas are scoped to the block instead of
    clobbering process-lifetime counters.
    """
    global ENABLED, _registry, _sink
    with _state_lock:
        previous = (ENABLED, _registry, _sink)
        registry = MetricsRegistry()
        _registry = registry
        if sink is not None:
            _sink = sink
        ENABLED = True
    try:
        yield registry
    finally:
        with _state_lock:
            ENABLED, _registry, _sink = previous


# ----------------------------------------------------------------------
# The Op context manager and method decorator
# ----------------------------------------------------------------------
class Op:
    """Attribute the storage-counter deltas of one operation.

    ``store`` is a node store or a tuple of them (a dual-tree aggregate
    sums over both of its stores).  After the block, :attr:`record`
    holds the :class:`OpRecord`; it is published to the active registry
    and sink only when this is the outermost in-flight Op on the thread,
    so wrappers (``compact`` -> ``range_query``,
    :class:`~repro.concurrent.ConcurrentTree` -> tree method) never
    double-count.
    """

    __slots__ = (
        "name",
        "subject",
        "stores",
        "lock_wait_us",
        "extra",
        "effects",
        "record",
        "_before",
        "_t0",
        "_outermost",
    )

    def __init__(
        self,
        name: str,
        store: Any = None,
        *,
        subject: Optional[str] = None,
        lock_wait_us: Optional[float] = None,
        extra: Optional[Dict[str, Any]] = None,
        effects: int = 0,
    ) -> None:
        self.name = name
        self.subject = subject
        self.effects = effects
        if store is None:
            self.stores: Tuple[Any, ...] = ()
        elif isinstance(store, (tuple, list)):
            self.stores = tuple(store)
        else:
            self.stores = (store,)
        self.lock_wait_us = lock_wait_us
        self.extra = extra
        self.record: Optional[OpRecord] = None

    def __enter__(self) -> "Op":
        depth = getattr(_tls, "depth", 0)
        _tls.depth = depth + 1
        self._outermost = depth == 0
        self._before = _snapshot(self.stores)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        wall_us = (time.perf_counter() - self._t0) * 1e6
        after = _snapshot(self.stores)
        before = self._before
        _tls.depth = getattr(_tls, "depth", 1) - 1
        self.record = OpRecord(
            op=self.name,
            subject=self.subject,
            wall_us=wall_us,
            reads=after[0] - before[0],
            writes=after[1] - before[1],
            allocations=after[2] - before[2],
            frees=after[3] - before[3],
            hits=after[4] - before[4],
            misses=after[5] - before[5],
            evictions=after[6] - before[6],
            physical_reads=after[7] - before[7],
            physical_writes=after[8] - before[8],
            lock_wait_us=self.lock_wait_us,
            extra=self.extra,
            effects=self.effects,
        )
        if self._outermost and exc[0] is None:
            registry, sink = _registry, _sink
            if registry is not None:
                registry.record_op(self.record)
            if sink is not None:
                sink.emit(self.record)
        return False


def stores_of(index: Any) -> Tuple[Any, ...]:
    """The node store(s) behind any index-like object, duck-typed.

    Understands dual-tree aggregates (``current``/``ended``), wrappers
    holding a ``tree``, and plain trees holding a ``store``.
    """
    current = getattr(index, "current", None)
    if current is not None and hasattr(index, "ended"):
        return (current.store, index.ended.store)
    tree = getattr(index, "tree", None)
    if tree is not None:
        return stores_of(tree)
    store = getattr(index, "store", None)
    return (store,) if store is not None else ()


def observed(
    name: str,
    stores: Optional[Callable[[Any], Any]] = None,
    effects: Optional[Callable[[Any], int]] = None,
) -> Callable:
    """Instrument a tree method: per-op deltas when enabled, no-op otherwise.

    ``stores`` maps the bound instance to its node store(s); the default
    reads ``self.store``.  ``effects`` marks a batched op: it maps the
    method's first argument to the number of effects the call applies,
    which the record carries (``op.<name>.effects``).  The undecorated
    function stays reachable via ``__wrapped__`` (used by the overhead
    microbenchmark).
    """

    def decorate(fn: Callable) -> Callable:
        store_of = stores if stores is not None else (lambda self: self.store)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if not ENABLED:
                return fn(self, *args, **kwargs)
            op = Op(
                name,
                store_of(self),
                subject=type(self).__name__,
                effects=effects(args[0]) if effects is not None else 0,
            )
            with op:
                return fn(self, *args, **kwargs)

        return wrapper

    return decorate
