"""Calibrated seconds: a frozen kernel that measures the machine, not the program.

The sandbox's clock is not steady: the same pure-Python loop runs 10-80 %
slower for seconds at a time (shared cores, shared caches).  Every timed
chunk of benchmark work is therefore bracketed by *slices* of a frozen
kernel -- one slice about every 20 ms of work, run in the bench process
while no workload thread runs -- and its duration is reported in
*calibrated seconds*::

    calibrated = raw * K_REF / mean(slice before the group, slice after it)

The kernel looks like the program's work (a field-by-field page codec
over slotted node objects, a bulk 4 KB struct pack/unpack, bisect with a
small list allocation per probe), so that whatever slows the program
slows the kernel by about the same factor.  It never
imports ``repro``: no change to the program can move it.  Editing the
kernel or ``K_REF`` re-baselines every timing and is a benchmark PR.
"""

from __future__ import annotations

import bisect
import statistics
import struct
import time
from typing import List, Tuple

__all__ = ["K_REF", "kernel", "Calibrator", "Phase"]

#: The kernel slice's median time (seconds) between chunks of real work
#: on the sandbox this benchmark was built on.  A constant of the
#: benchmark: calibrated seconds are seconds of *that* machine state.
K_REF = 0.0026

#: Raw seconds of work between two kernel slices.
SLICE_EVERY = 0.020


_HEADER = struct.Struct("<BBH")
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")
_BULK = struct.Struct("<500q")
_BULK_VALUES = tuple(range(500))
_SMALL = list(range(0, 3000, 3))


class _Node:
    __slots__ = ("node_id", "times", "values", "children")

    def __init__(self, node_id: int, times: list, values: list, children: list) -> None:
        self.node_id = node_id
        self.times = times
        self.values = values
        self.children = children


def _restore(x: float):
    return int(x) if x == int(x) else x


def _encode(node: _Node) -> bytes:
    parts = [_HEADER.pack(0, 0, len(node.values))]
    for t in node.times:
        parts.append(_F64.pack(float(t)))
    for v in node.values:
        parts.append(_F64.pack(float(v)))
    for c in node.children:
        parts.append(_I64.pack(c))
    return b"".join(parts)


def _decode(payload: bytes, node_id: int) -> _Node:
    _, _, count = _HEADER.unpack_from(payload, 0)
    offset = _HEADER.size
    times, values, children = [], [], []
    for _ in range(count - 1):
        times.append(_restore(_F64.unpack_from(payload, offset)[0]))
        offset += 8
    for _ in range(count):
        values.append(_restore(_F64.unpack_from(payload, offset)[0]))
        offset += 8
    for _ in range(count):
        children.append(_I64.unpack_from(payload, offset)[0])
        offset += 8
    return _Node(node_id, times, values, children)


_PAGES = [
    _encode(_Node(i, list(range(10, 171, 7)), list(range(24)), list(range(100, 124))))
    for i in range(64)
]


def kernel() -> float:
    """Run one frozen slice (~2.5 ms) and return its wall time in seconds.

    Three parts of about equal time, each a shape the program's hot
    paths have: a field-by-field page decode, bisect, update and
    re-encode (the node codec); a bulk 4 KB struct pack, slice and
    unpack (page I/O); a bisect over a small sorted list with one small
    list allocation per probe (tree descent)."""
    started = time.perf_counter()
    pages, find = _PAGES, bisect.bisect_right
    x = 12345
    acc = 0
    for _ in range(44):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 63
        node = _decode(pages[k], k)
        i = find(node.times, x % 170)
        node.values[i] += 1
        acc += node.children[i]
        pages[k] = _encode(node)
    pack, unpack = _BULK.pack, _BULK.unpack
    for i in range(135):
        page = pack(*_BULK_VALUES) + b"\0" * 96
        values = list(unpack(page[:4000]))
        values[i] = acc
        acc += values[7]
    keys = _SMALL
    for _ in range(2400):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += len([find(keys, x % 3000), x, acc])
    return time.perf_counter() - started


class Calibrator:
    """Owns the kernel cadence for one run; phases register chunks with it."""

    def __init__(self) -> None:
        for _ in range(5):  # warm the kernel's own caches
            kernel()
        self.slices: List[float] = []
        self._before = 0.0
        self._pending: List[Tuple["Phase", int]] = []
        self._since = 0.0
        self.settle()

    def phase(self, name: str) -> "Phase":
        """Start a phase: a fresh slice so no stale one brackets its first chunk."""
        self.settle()
        return Phase(name, self)

    def settle(self) -> None:
        """Run one slice and scale every chunk recorded since the last one."""
        after = kernel()
        self.slices.append(after)
        if self._pending:
            factor = K_REF / ((self._before + after) / 2.0)
            for phase, index in self._pending:
                phase.factor[index] = factor
            self._pending.clear()
        self._before = after
        self._since = 0.0

    def factor_of(self, slices: List[float]) -> float:
        """Scale factor for work that ran while *slices* were taken
        (a server subprocess starting up beside the bench process)."""
        self.slices.extend(slices)
        return K_REF / statistics.fmean(slices)

    def _record(self, phase: "Phase", index: int, raw: float, tick: bool) -> None:
        self._pending.append((phase, index))
        if tick:
            self._since += raw
            if self._since >= SLICE_EVERY:
                self.settle()

    # -- diagnostics ---------------------------------------------------
    def ratio(self) -> float:
        return statistics.fmean(self.slices) / K_REF

    def cv(self) -> float:
        return statistics.pstdev(self.slices) / statistics.fmean(self.slices)


class Phase:
    """One timed phase: a list of chunks, each with raw seconds, an op
    count and (once the closing slice ran) its calibration factor."""

    def __init__(self, name: str, calib: Calibrator) -> None:
        self.name = name
        self.calib = calib
        self.raw: List[float] = []
        self.ops: List[int] = []
        self.factor: List[float] = []

    def add(self, raw: float, ops: int, tick: bool = True) -> None:
        """Record one chunk.  ``tick=False`` is for chunks timed on a
        second thread: they share the group of the main thread's chunk
        and must not trigger a slice while that thread still runs."""
        self.raw.append(raw)
        self.ops.append(ops)
        self.factor.append(1.0)
        self.calib._record(self, len(self.raw) - 1, raw, tick)

    def close(self) -> "Phase":
        self.calib.settle()
        return self

    # -- results (valid after close) -----------------------------------
    def calibrated(self) -> List[float]:
        return [r * f for r, f in zip(self.raw, self.factor)]

    @property
    def total_ops(self) -> int:
        return sum(self.ops)

    def seconds(self, raw: bool = False) -> float:
        return sum(self.raw if raw else self.calibrated())

    def rate(self, raw: bool = False) -> float:
        return self.total_ops / self.seconds(raw)

    def chunk_ms(self, per_op: bool, raw: bool = False) -> List[float]:
        """Per-chunk latency samples in ms (divided by the chunk's ops
        when *per_op*); chunks with no ops carry no sample."""
        durations = self.raw if raw else self.calibrated()
        return [
            1000.0 * d / (n if per_op else 1)
            for d, n in zip(durations, self.ops)
            if n
        ]

    def segments(self, count: int = 10) -> List[float]:
        """Calibrated seconds of *count* contiguous groups of chunks."""
        durations = self.calibrated()
        size = -(-len(durations) // count)
        return [
            sum(durations[i:i + size]) for i in range(0, len(durations), size)
        ]
