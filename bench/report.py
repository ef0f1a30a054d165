"""Turn a workload's outcome into named metrics, and run the two kinds
of run: the untraced one that yields the end-to-end metrics and the
traced one that yields the per-layer metrics.
"""

from __future__ import annotations

import os
import platform
import shutil
import statistics
import time
from typing import Any, Dict, List, Optional

from . import ROOT
from .calib import K_REF, Calibrator, Phase
from .metrics import END_TO_END, PER_LAYER
from .trace import Tracer, summarise
from .workloads import WORKLOADS, Outcome, Run

__all__ = ["OUT", "TRACE_SCALE", "run_untraced", "run_traced", "environment"]

OUT = os.path.join(ROOT, "bench", "out")
#: The traced run repeats each workload at one third of the op count.
TRACE_SCALE = 1.0 / 3.0
SETUPS = 3

Metrics = Dict[str, float]


def _execute(
    workload: str, seed: int, scale: float, setups: int, traced: bool, corrupt: bool
):
    tracer = Tracer(enabled=traced)
    calib = Calibrator()
    out = os.path.join(OUT, f"{workload}-{os.getpid()}")
    run = Run(workload, seed, scale, setups, tracer, calib, out, corrupt)
    try:
        outcome = WORKLOADS[workload](run)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return outcome, tracer, calib


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(outcome: Outcome, raw: bool = False) -> Metrics:
    """The seven end-to-end metrics (``raw=True``: their uncalibrated twins)."""
    ph = outcome.phases
    return {
        "setup_s": statistics.median(outcome.setup_raw if raw else outcome.setup),
        "write_facts_per_s": ph["write"].rate(raw),
        "write_ack_p50_ms": statistics.median(ph["ack"].chunk_ms(False, raw)),
        "read_ops_per_s": ph["read"].rate(raw),
        "read_p50_ms": statistics.median(ph["probe"].chunk_ms(True, raw)),
        "rangeq_rows_per_s": ph["rangeq"].rate(raw),
        "bytes_per_fact": outcome.bytes / outcome.facts,
    }


def _phase_json(phase: Phase) -> Dict[str, Any]:
    return {
        "chunks": len(phase.raw),
        "ops": phase.total_ops,
        "calibrated_s": phase.seconds(),
        "raw_s": phase.seconds(raw=True),
        "segments_s": phase.segments(),
    }


def run_untraced(
    workload: str, seed: int, scale: float, corrupt: bool = False
) -> Dict[str, Any]:
    """One untraced run: the end-to-end metrics, tracing off."""
    started = time.time()
    outcome, _, calib = _execute(workload, seed, scale, SETUPS, False, corrupt)
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "metrics": end_to_end(outcome),
        "raw": end_to_end(outcome, raw=True),
        "ops_attempted": outcome.attempted,
        "ops_failed": outcome.failed,
        "samples": {
            "setup_s": len(outcome.setup),
            "write_ack_p50_ms": len(outcome.phases["ack"].raw),
            "read_p50_ms": len(outcome.phases["probe"].raw),
        },
        "phases": {
            name: _phase_json(outcome.phases[name])
            for name in ("write", "ack", "read", "probe", "rangeq")
        },
        "flush_policy": outcome.flush_policy,
        "calibration": {
            "k_ref_s": K_REF,
            "slices": len(calib.slices),
            "ratio": calib.ratio(),
            "cv": calib.cv(),
        },
        "wall_s": time.time() - started,
    }


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _protocol_replay(traffic: Any) -> Metrics:
    """Re-encode and re-decode the run's recorded request/reply mix
    through the wire codec the client negotiated (binary)."""
    from repro.service import protocol as wire

    requests: List[Dict[str, Any]] = []
    replies: List[Dict[str, Any]] = []
    ident = 0
    for facts in traffic.rounds:
        for value, start, end in facts:
            ident += 1
            request = {"op": "insert", "id": ident, "value": value, "start": start,
                       "end": end, "client": "bench-replay-0001", "seq": ident}
            requests.append(request)
            replies.append(wire.ok_reply({"applied": 1}, request))
    for _, ts, got in traffic.lookups:
        for t, value in zip(ts, got):
            ident += 1
            request = {"op": "lookup", "id": ident, "t": t}
            requests.append(request)
            replies.append(wire.ok_reply(value, request))
    for _, windows, got in traffic.tables:
        for (start, end), rows in zip(windows, got):
            ident += 1
            request = {"op": "rangeq", "id": ident, "start": start, "end": end}
            requests.append(request)
            replies.append(wire.ok_reply(rows, request))
    out: Metrics = {}
    for side, messages in (("request", requests), ("reply", replies)):
        t0 = time.perf_counter()
        frames = [wire.encode_frame(m, wire.CODEC_BINARY) for m in messages]
        t1 = time.perf_counter()
        for frame in frames:
            wire.decode_body(frame[4:])
        t2 = time.perf_counter()
        out[f"encode_{side}_us"] = 1e6 * (t1 - t0) / len(frames)
        out[f"decode_{side}_us"] = 1e6 * (t2 - t1) / len(frames)
        out[f"bytes_per_{side}"] = sum(map(len, frames)) / len(frames)
    return out


def per_layer(plain: Outcome, traced: Outcome, tracer: Tracer, calib: Calibrator) -> Metrics:
    """Every per-layer metric; a layer the workload does not exercise reads 0."""
    spans = summarise(tracer.threads())

    def span(name: str, key: str = "total") -> float:
        return spans.get(name, {}).get(key, 0.0)

    def mean(name: str) -> float:
        return _div(span(name), span(name, "count"))

    def children(parents: List[str], child: str) -> float:
        return sum(span(f"{parent}>{child}", "count") for parent in parents)

    c = traced.counts
    ph = traced.phases
    # (library and view runs use one phase under two names: a set holds it once)
    writes = sum(p.total_ops for p in {ph["write"], ph["ack"]})
    inserts = span("core.sbtree.insert", "count") + span("core.sbtree.delete", "count")
    lookups = span("core.sbtree.lookup", "count")
    rows = ph["rangeq"].total_ops
    point_reads = sum(p.total_ops for p in {ph["read"], ph["probe"]})
    write_s = sum(p.seconds(raw=True) for p in {ph["write"], ph["ack"]})
    all_ops = sum(p.total_ops for p in set(ph.values()))
    batches = span("sharding.batch_insert", "count")
    tree_writes = ["core.sbtree.insert", "core.sbtree.delete"]
    m: Metrics = dict.fromkeys((layer.name for layer in PER_LAYER), 0.0)

    traffic = traced.traffic
    if traffic is not None:
        wire_s = sum(p.seconds(raw=True) for p in set(ph.values()))
        replay = _protocol_replay(traffic)
        m.update({
            "service.client.submit_us_per_req": 1e6 * mean("service.client.submit"),
            "service.client.wait_share": _div(span("service.client.result"), wire_s),
            "service.client.retries": c["server_dedup_replays"],
            "service.client.errors": traffic.write_failed + sum(
                got.count(None) for _, _, got in traffic.lookups + traffic.tables),
            "service.client.write_ack_p90_ms": _percentile(ph["ack"].chunk_ms(False), 0.90),
            "service.client.read_p95_ms": _percentile(ph["probe"].chunk_ms(True), 0.95),
            "service.protocol.encode_us_per_frame":
                (replay["encode_request_us"] + replay["encode_reply_us"]) / 2,
            "service.protocol.decode_us_per_frame":
                (replay["decode_request_us"] + replay["decode_reply_us"]) / 2,
            "service.protocol.bytes_per_request": replay["bytes_per_request"],
            "service.protocol.bytes_per_reply": replay["bytes_per_reply"],
        })
        # The server process is the untraced run's: the traced one is hosted in ours.
        p = plain.counts
        plain_ops = sum(ph_.total_ops for ph_ in set(plain.phases.values()))
        plain_writes = sum(q.total_ops for q in {plain.phases["write"], plain.phases["ack"]})
        m.update({
            "service.server.facts_per_flush": _div(plain_writes, p["server_flushes"]),
            "service.server.flushes": p["server_flushes"],
            "service.server.commits": p["server_commits"],
            "service.server.fast_reads": p["server_fast_reads"],
            "service.server.overload_rejected": p["server_overload_rejected"],
            "service.server.errors": p["server_errors"],
            "service.server.cpu_ms_per_kop": _div(p["server_cpu_ms"], plain_ops / 1000.0),
            "service.server.rss_mb": p["server_rss_mb"],
        })
    if "pieces" in c:
        m.update({
            "sharding.pieces_per_fact": _div(c["pieces"], c["facts_applied"]),
            "sharding.batch_insert_self_us_per_fact":
                1e6 * _div(span("sharding.batch_insert", "self"), writes),
            "sharding.lookup_self_us":
                1e6 * _div(span("sharding.lookup", "self"), span("sharding.lookup", "count")),
            "concurrent.read_wait_us_per_read": 1e6 * mean("concurrent.read_wait"),
            "concurrent.write_wait_us_per_batch": 1e6 * _div(span("concurrent.write_wait"), batches),
            "concurrent.write_hold_ms_per_batch": 1e3 * _div(span("concurrent.write_hold"), batches),
        })
    if "nodes" in c:
        commits = span("storage.pager.commit", "count")
        m.update({
            "core.sbtree.node_reads_per_insert":
                _div(children(tree_writes, "storage.store.read"), inserts),
            "core.sbtree.node_writes_per_insert":
                _div(children(tree_writes, "storage.store.write"), inserts),
            "core.sbtree.node_reads_per_lookup":
                _div(children(["core.sbtree.lookup"], "storage.store.read"), lookups),
            "core.sbtree.node_reads_per_rangeq_row":
                _div(children(["core.sbtree.range_query"], "storage.store.read"), rows),
            "core.sbtree.allocations_per_kfact":
                _div(children(tree_writes, "storage.store.allocate"), inserts / 1000.0),
            "core.sbtree.height": c["height"],
            "core.sbtree.nodes": c["nodes"],
            "core.sbtree.self_us_per_insert": 1e6 * _div(
                span("core.sbtree.insert", "self") + span("core.sbtree.delete", "self"), inserts),
            "core.sbtree.self_us_per_lookup":
                1e6 * _div(span("core.sbtree.lookup", "self"), lookups),
            "storage.store.read_us_per_node": 1e6 * mean("storage.store.read"),
            "storage.store.write_us_per_node": 1e6 * mean("storage.store.write"),
            "storage.buffer.hit_rate":
                _div(c["buffer_hits"], c["buffer_hits"] + c["buffer_misses"]),
            "storage.buffer.evictions_per_kop": _div(c["buffer_evictions"], all_ops / 1000.0),
            "storage.buffer.dirty_writebacks_per_fact": _div(c["dirty_writebacks_write"], writes),
            "storage.pager.page_writes_per_fact": _div(c["page_writes_write"], writes),
            "storage.pager.page_reads_per_lookup": _div(c["page_reads_read"], point_reads),
            "storage.pager.commits_per_kfact": _div(commits, writes / 1000.0),
            "storage.pager.commit_ms": 1e3 * mean("storage.pager.commit"),
            "storage.pager.commit_share": _div(span("storage.pager.commit"), write_s),
        })
    if "events_consumed" in c:
        m.update({
            "warehouse.dynamic.insert_us_per_fact": 1e6 * mean("warehouse.dynamic.insert"),
            "warehouse.dynamic.refresh_ms_per_batch": 1e3 * mean("warehouse.dynamic.refresh"),
            "warehouse.dynamic.events_consumed_per_fact": _div(c["events_consumed"], writes),
            "warehouse.dynamic.save_ms": 1e3 * mean("warehouse.dynamic.save"),
            "warehouse.dynamic.save_share": _div(span("warehouse.dynamic.save"), write_s),
            "warehouse.dynamic.read_us": 1e6 * mean("warehouse.dynamic.read"),
            "warehouse.dynamic.log_retained": c["log_retained"],
        })

    # Tracing overhead: calibrated time per op, traced over untraced,
    # averaged over the phases (both runs do the same ops per phase,
    # but for the free-running reader of svc_mixed).
    ratios = [
        _div(_div(traced.phases[name].seconds(), traced.phases[name].total_ops),
             _div(plain.phases[name].seconds(), plain.phases[name].total_ops))
        for name in ("write", "read", "rangeq")
    ]
    m["bench.calib_ratio"] = calib.ratio()
    m["bench.calib_cv"] = calib.cv()
    m["bench.trace_overhead_ratio"] = statistics.fmean(ratios)
    for name, value in end_to_end(plain, raw=True).items():
        if f"bench.raw.{name}" in m:
            m[f"bench.raw.{name}"] = value
    return m


def run_traced(workload: str, seed: int, scale: float) -> Dict[str, Any]:
    """The traced run: an untraced pass and a traced pass at one third
    of the op count; writes ``bench/out/trace_<workload>.jsonl``."""
    started = time.time()
    scale *= TRACE_SCALE
    plain, _, calib = _execute(workload, seed, scale, 1, False, False)
    traced, tracer, _ = _execute(workload, seed, scale, 1, True, False)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace_{workload}.jsonl")
    spans = tracer.dump(path)
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "metrics": per_layer(plain, traced, tracer, calib),
        "ops_attempted": plain.attempted + traced.attempted,
        "ops_failed": plain.failed + traced.failed,
        "trace_file": os.path.relpath(path, ROOT),
        "spans": spans,
        "wall_s": time.time() - started,
    }


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (no subprocess; a plain
    export of the tree has none)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:])) as handle:
                return handle.read().strip()
        return head
    except OSError:
        return None


def environment() -> Dict[str, Any]:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "k_ref_s": K_REF,
        "units": {m.name: m.unit for m in END_TO_END},
    }
