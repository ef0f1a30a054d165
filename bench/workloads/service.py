"""The two service workloads: ``repro serve`` driven over TCP, writes
and reads apart (``svc_split``) and together (``svc_mixed``)."""

from __future__ import annotations

import itertools
import os
import re
import select
import signal
import subprocess
import sys
import threading
from typing import Any, Dict, List, Sequence, Tuple

from repro.service import ServerHandle, ServiceClient, ServiceError
from repro.service import protocol as wire

from .. import SRC, gen
from ..calib import SLICE_EVERY, kernel
from ..oracle import Oracle, coalesce
from .common import (
    BATCH, SCAN, SHARDS, Fact, Outcome, Run, as_pairs, build_sharded, chunked,
    dir_bytes, page_counts, pc, quiesce, reference_mismatches, store_counts,
)

CLIENT_ERRORS = (ServiceError, OSError, wire.ProtocolError)
PROBES = 5          # depth-1 lookups after every lookup burst


class _ServerProcess:
    """``python -m repro serve`` as a child on port 0 (server defaults:
    batch_max 64, batch_delay 2 ms, binary codec), seeded from a CSV.

    While the child starts, the bench process takes a kernel slice every
    20 ms: they measure the machine during the set-up."""

    sharded = None  # in another process: no counters to read

    def __init__(self, run: Run, directory: str, seed: Sequence[Fact]) -> None:
        csv_path = os.path.join(directory, "seed.csv")
        with open(csv_path, "w") as handle:
            handle.writelines(f"{v},{s},{e}\n" for v, s, e in seed)
        self.pages = os.path.join(directory, "pages")
        self._log = open(os.path.join(directory, "server.log"), "w")
        self.slices: List[float] = []
        self.started = pc()
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--kind", "sum",
             "--shards", str(SHARDS), "--lo", "0", "--hi", str(gen.SPAN),
             "--host", "127.0.0.1", "--port", "0",
             "--paged", self.pages, "--journal", "--csv", csv_path],
            stdout=subprocess.PIPE, stderr=self._log,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        self.pid = self._proc.pid
        try:
            self.port = self._await_banner()
        except BaseException:
            self.stop()
            raise

    def _await_banner(self) -> int:
        fd = self._proc.stdout.fileno()
        seen = b""
        while True:
            match = re.search(rb"serving .* on [\d.]+:(\d+) ", seen)
            if match:
                return int(match.group(1))
            if self._proc.poll() is not None:
                raise RuntimeError(f"repro serve exited ({self._proc.returncode})")
            if pc() - self.started > 120:
                raise TimeoutError("repro serve printed no banner in 120 s")
            if select.select([fd], [], [], SLICE_EVERY)[0]:
                seen += os.read(fd, 4096)
            else:
                self.slices.append(kernel())

    def stop(self) -> None:
        """SIGINT drains and commits; the child is reaped before we return."""
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGINT)
            try:
                self._proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()
        self._log.close()


class _ServerThread:
    """The traced run's server: the same stack hosted in-process via
    ``ServerHandle.start`` so the tracer's proxies are reachable."""

    def __init__(self, run: Run, directory: str, seed: Sequence[Fact]) -> None:
        self.pages = os.path.join(directory, "pages")
        os.makedirs(self.pages)
        self.pid = os.getpid()
        self.slices = [kernel()]
        self.started = pc()
        self.sharded, self.stores = build_sharded(run, self.pages, buffer_capacity=64)
        self.sharded.batch_insert(as_pairs(seed))
        self._handle = ServerHandle.start(
            self.sharded, batch_max=64, batch_delay=0.002, health_interval=5.0)
        self.port = self._handle.port

    def stop(self) -> None:
        self._handle.stop()
        self.sharded.close()


def _proc_stat(pid: int) -> Tuple[float, float]:
    """(CPU milliseconds, resident MB) of a process from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])      # utime + stime
    rss_pages = int(fields[21])
    return (
        1000.0 * ticks / os.sysconf("SC_CLK_TCK"),
        rss_pages * os.sysconf("SC_PAGE_SIZE") / 1e6,
    )


def _collect(futures: List[Any]) -> List[Any]:
    """Results in submission order; a failed request yields ``None``,
    which no oracle value equals."""
    out = []
    for future in futures:
        try:
            out.append(future.result())
        except CLIENT_ERRORS:
            out.append(None)
    return out


class _Traffic:
    """The client side of one service run: the timed phases, and the
    log of everything sent and received for the check afterwards."""

    def __init__(self, run: Run) -> None:
        self.write, self.ack, self.read, self.probe, self.rangeq = (
            run.calib.phase(name)
            for name in ("write", "ack", "read", "probe", "rangeq")
        )
        self.rounds: List[List[Fact]] = []      # facts of each write round, in order
        self.lookups: List[Tuple[int, Sequence[int], List[Any]]] = []
        self.tables: List[Tuple[int, Sequence[Tuple[int, int]], List[Any]]] = []
        self.write_failed = 0

    def close(self) -> None:
        for phase in (self.write, self.ack, self.read, self.probe, self.rangeq):
            phase.close()

    def write_round(
        self, client: Any, burst: Sequence[Fact], singles: Sequence[Fact], tick: bool
    ) -> None:
        """One 64-deep pipelined burst of inserts (the write phase),
        then depth-1 inserts (the ack-latency probes)."""
        t0 = pc()
        futures = [
            client.submit(
                "insert", flush=False, value=value, start=start, end=end,
                client=client.client_id, seq=client.next_seq())
            for value, start, end in burst
        ]
        client.flush()
        failed = _collect(futures).count(None)
        self.write.add(pc() - t0, len(burst) - failed, tick)
        for value, start, end in singles:
            t0 = pc()
            try:
                client.insert(value, start, end)
            except CLIENT_ERRORS:
                failed += 1
            else:
                self.ack.add(pc() - t0, 1, tick)
        self.write_failed += failed
        self.rounds.append(list(burst) + list(singles))

    def lookup_burst(self, client: Any, tag: int, ts: Sequence[int], tick: bool) -> None:
        t0 = pc()
        futures = [client.submit("lookup", flush=False, t=t) for t in ts]
        client.flush()
        got = _collect(futures)
        self.read.add(pc() - t0, len(ts) - got.count(None), tick)
        self.lookups.append((tag, ts, got))

    def rangeq_burst(
        self, client: Any, tag: int, windows: Sequence[Tuple[int, int]], tick: bool
    ) -> None:
        t0 = pc()
        futures = [
            client.submit("rangeq", flush=False, start=start, end=end)
            for start, end in windows
        ]
        client.flush()
        got = _collect(futures)
        self.rangeq.add(pc() - t0, sum(len(rows) for rows in got if rows), tick)
        self.tables.append((tag, windows, got))

    def probes(self, client: Any, tag: int, ts: Sequence[int], tick: bool) -> None:
        """Depth-1 lookups: one request in flight, one sample each."""
        got = []
        for t in ts:
            t0 = pc()
            try:
                got.append(client.lookup(t))
            except CLIENT_ERRORS:
                got.append(None)
            else:
                self.probe.add(pc() - t0, 1, tick)
        self.lookups.append((tag, ts, got))

    # -- the check, after the clock stopped -----------------------------
    def failed_reads(self, run: Run, oracle: Oracle) -> int:
        """Replay the write rounds into *oracle* (which holds the seed);
        a read tagged with round ``c`` ran beside that round's writes and
        must match the state before it plus some prefix of them, a read
        tagged past the last round must match the final state."""
        if run.corrupt:
            self.lookups[0][2][0] += 1
        failed = 0
        by_tag: Dict[int, Tuple[list, list]] = {}
        for tag, ts, got in self.lookups:
            by_tag.setdefault(tag, ([], []))[0].extend(zip(ts, got))
        for tag, windows, got in self.tables:
            by_tag.setdefault(tag, ([], []))[1].extend(zip(windows, got))
        for tag in range(len(self.rounds) + 1):
            beside = self.rounds[tag] if tag < len(self.rounds) else []
            points, tables = by_tag.get(tag, ([], []))
            for t, got in points:
                allowed = itertools.accumulate(
                    (v for v, s, e in beside if s <= t < e),
                    initial=oracle.value_at(t))
                failed += got not in set(allowed)
            for (start, end), rows in tables:
                failed += not _rows_match(oracle, rows, start, end, beside)
            for value, start, end in beside:
                oracle.add(value, start, end)
        return failed


def _rows_match(
    oracle: Oracle, rows: Any, start: int, end: int, beside: Sequence[Fact]
) -> bool:
    if rows is None:
        return False
    rows = coalesce(rows)
    if rows == oracle.rows(start, end):
        return True
    overlapping = [f for f in beside if f[1] < end and f[2] > start]
    matched = False
    for value, s, e in overlapping:      # try each longer prefix in turn
        oracle.add(value, s, e)
        matched = matched or rows == oracle.rows(start, end)
    for value, s, e in overlapping:
        oracle.add(-value, s, e)
    return matched


def _warm_up(client: ServiceClient) -> None:
    """Untimed: one pipelined burst of 64 wide range queries.  A durable
    server answers reads on a lazily grown thread pool, and runs up to
    2.5x faster while the pool is still small; 32 slow requests in
    flight grow it to its full size at once, so that every timed phase
    sees the server's steady state."""
    step = gen.SPAN // 80
    futures = [
        client.submit("rangeq", flush=False, start=i * step, end=i * step + gen.SPAN // 5)
        for i in range(BATCH)
    ]
    client.flush()
    for future in futures:
        future.result()


def _serve(run: Run, mixed: bool) -> Outcome:
    seeded = run.count(3_000)
    rounds = run.count(5_400 if not mixed else 5_600) // BATCH
    singles = 2                                 # depth-1 inserts per round
    facts = gen.ordered_facts(
        run.rng("facts"), seeded + rounds * (BATCH + singles))
    seed, stream = facts[:seeded], facts[seeded:]
    instants = gen.instants(run.rng("lookups"), run.count(16_000))
    windows = gen.windows(
        run.rng("windows"), run.count(4_000, SCAN), 2_000, gen.CUTS)
    probes = gen.instants(run.rng("probes"), PROBES * (len(instants) // BATCH))
    hosted = _ServerThread if run.tracer.enabled else _ServerProcess
    before = Oracle(seed)

    setup: List[float] = []
    setup_raw: List[float] = []
    failed = 0
    server = client = None
    clients: List[ServiceClient] = []

    def connect() -> ServiceClient:
        clients.append(ServiceClient("127.0.0.1", server.port, timeout=30.0))
        return clients[-1]

    try:
        for _ in range(run.setups):
            if server is not None:
                client.close()
                server.stop()
            server = hosted(run, run.scratch("serve"), seed)
            client = connect()
            got = client.lookup(probes[0])
            raw = pc() - server.started
            server.slices.append(kernel())
            failed += got != before.value_at(probes[0])
            setup_raw.append(raw)
            setup.append(raw * run.calib.factor_of(server.slices))

        _warm_up(client)
        run.tracer.clear()
        writer = run.tracer.client(client)
        reader = run.tracer.client(connect()) if mixed else writer
        stats0, (cpu0, _) = client.stats(), _proc_stat(server.pid)
        marks = [store_counts(server.stores)] if server.sharded else None
        quiesce()
        traffic = _Traffic(run)
        write_rounds = chunked(stream, BATCH + singles)
        if mixed:
            _mixed_rounds(run, traffic, writer, reader, write_rounds,
                          instants, windows, probes)
        else:
            for i, facts_ in enumerate(write_rounds):
                run.tracer.request = i
                traffic.write_round(writer, facts_[:BATCH], facts_[BATCH:], True)
            if marks:
                marks.append(store_counts(server.stores))
            quiesce()
            final = len(write_rounds)
            bursts = zip(chunked(instants), chunked(probes, PROBES))
            for i, (ts, probe) in enumerate(bursts):
                run.tracer.request = i
                traffic.lookup_burst(reader, final, ts, True)
                traffic.probes(reader, final, probe, True)
            if marks:
                marks.append(store_counts(server.stores))
            for i, chunk in enumerate(chunked(windows, SCAN)):
                run.tracer.request = i
                traffic.rangeq_burst(reader, final, chunk, True)
        traffic.close()
        stats1, (cpu1, rss) = client.stats(), _proc_stat(server.pid)
        counts = _server_counts(stats0, stats1)
        counts.update(server_cpu_ms=cpu1 - cpu0, server_rss_mb=rss)
        if marks:
            marks.append(store_counts(server.stores))
            sharded = server.sharded
            counts.update(page_counts(marks, [s.tree for s in sharded.shards]))
            counts.update(
                pieces=sum(sharded.pieces_applied),
                facts_applied=sharded.facts_applied,
            )
    finally:
        for connection in clients:
            connection.close()
        if server is not None:
            server.stop()

    failed += traffic.write_failed + traffic.failed_reads(run, before)
    reads = sum(len(ts) for _, ts, _ in traffic.lookups)
    scans = sum(len(ws) for _, ws, _ in traffic.tables)
    return Outcome(
        phases=dict(write=traffic.write, ack=traffic.ack, read=traffic.read,
                    probe=traffic.probe, rangeq=traffic.rangeq),
        setup=setup,
        setup_raw=setup_raw,
        attempted=run.setups + len(stream) + reads + scans,
        failed=failed + reference_mismatches(run, before, facts),
        facts=len(facts) - traffic.write_failed,
        bytes=dir_bytes(server.pages),
        counts=counts,
        flush_policy="journaled; server defaults batch_max=64, batch_delay=2ms, "
                     "one group commit per flush; binary codec",
        traffic=traffic,
    )


def _mixed_rounds(
    run: Run,
    traffic: _Traffic,
    writer: Any,
    reader: Any,
    write_rounds: List[Sequence[Fact]],
    instants: Sequence[int],
    windows: Sequence[Tuple[int, int]],
    probes: Sequence[int],
) -> None:
    """One writer and one reader connection, two client threads: in
    every round the reader alternates a lookup burst, five depth-1
    probes and a range-query burst until the writer's round is
    acknowledged.  Kernel slices run between rounds, when both stopped."""
    reads = zip(
        itertools.cycle(chunked(instants)),
        itertools.cycle(chunked(windows, SCAN)),
        itertools.cycle(chunked(probes, PROBES)),
    )

    def read_until(stop: threading.Event, tag: int, crashed: List[BaseException]) -> None:
        try:
            while not stop.is_set():
                ts, chunk, probe = next(reads)
                traffic.lookup_burst(reader, tag, ts, False)
                traffic.probes(reader, tag, probe, False)
                traffic.rangeq_burst(reader, tag, chunk, False)
        except BaseException as exc:  # surfaced on the main thread below
            crashed.append(exc)

    for tag, facts in enumerate(write_rounds):
        run.tracer.request = tag
        stop = threading.Event()
        crashed: List[BaseException] = []
        thread = threading.Thread(target=read_until, args=(stop, tag, crashed))
        thread.start()
        try:
            traffic.write_round(writer, facts[:BATCH], facts[BATCH:], False)
        finally:
            stop.set()
            thread.join()
        if crashed:
            raise crashed[0]
        run.calib.settle()


def _server_counts(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Deltas of the ``stats`` wire op's counters over the timed phases."""
    def delta(name: str) -> float:
        return after["counters"].get(name, 0) - before["counters"].get(name, 0)

    return {
        "server_flushes": delta("service.batch.flushes"),
        "server_commits": delta("service.batch.commits"),
        "server_fast_reads": delta("service.fast_reads"),
        "server_overload_rejected": delta("service.overload.rejected"),
        "server_errors": delta("service.errors"),
        "server_dedup_replays": delta("service.dedup.replays"),
    }


def svc_split(run: Run) -> Outcome:
    return _serve(run, mixed=False)


def svc_mixed(run: Run) -> Outcome:
    return _serve(run, mixed=True)
