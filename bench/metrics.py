"""The benchmark's contract as data: workloads, end-to-end metrics with
their bounds, and per-layer metrics with the end-to-end metric and
workload each one should move.  ``BENCHMARK.json`` is generated from
these tables (``python3 -m bench --check`` fails when they disagree).
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Tuple

__all__ = [
    "RUN_SECONDS", "COMMAND", "PATHS", "WORKLOADS", "END_TO_END",
    "PER_LAYER", "LIB", "SVC", "benchmark_json",
]

#: Op counts are sized so the timed phases of one run take about this
#: long on the sandbox the benchmark was built on; ``--seconds`` scales
#: every count linearly (counts, not a stopwatch, end a phase, so that
#: exact metrics repeat bit-for-bit for a fixed seed).
RUN_SECONDS = 12

COMMAND = ["python3", "-m", "bench"]
PATHS = ["bench"]

LIB = ("lib_random_fit", "lib_ordered_batch")
SVC = ("svc_split", "svc_mixed")

WORKLOADS: List[Tuple[str, str]] = [
    ("lib_random_fit",
     "one SBTree over a pool that holds the whole file, random arrival with 10% "
     "deletes: core.sbtree does the work; pager, sharding, locks and wire do none"),
    ("lib_ordered_batch",
     "4-shard journaled ShardedTree, pool of 32 pages per shard, near-ordered "
     "64-fact batch_insert+commit, cold random reads: the group-commit apply path "
     "without the wire"),
    ("svc_split",
     "repro serve subprocess on the lib_ordered_batch stream, pipelined writes then "
     "reads, never together: what client, codec, server and group commit cost alone"),
    ("svc_mixed",
     "same server with one writer and one reader connection running concurrently: "
     "reads beside writes through ReadWriteLock and the flush lock"),
    ("view_cascade",
     "DynamicCatalog 3-level DAG (doses -> by_patient -> total), 64-fact inserts each "
     "refreshed, periodic save: only warehouse.dynamic works"),
]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    definition: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "process start (or store creation) until the preloaded index answers "
             "its first verified read; median of the run's set-ups, calibrated"),
    EndToEnd("write_facts_per_s", "facts/s", "higher", 0.25,
             "facts durably acknowledged / calibrated write-phase time"),
    EndToEnd("write_ack_p50_ms", "ms", "lower", 0.2,
             "median calibrated time of one acknowledged unit: a 64-op chunk "
             "(lib_random_fit), a 64-fact batch_insert+commit (lib_ordered_batch), "
             "one depth-1 insert round trip (svc_*), a 64-fact insert+refresh (views)"),
    EndToEnd("read_ops_per_s", "ops/s", "higher", 0.25,
             "point reads completed / calibrated read-phase time"),
    EndToEnd("read_p50_ms", "ms", "lower", 0.25,
             "median point-read latency: 64-read chunk time / 64 in process, "
             "one depth-1 lookup round trip over the wire"),
    EndToEnd("rangeq_rows_per_s", "rows/s", "higher", 0.25,
             "constant-interval rows returned by range queries (views: group rows "
             "of all-keys reads) / calibrated time"),
    EndToEnd("bytes_per_fact", "bytes", "lower", 0.05,
             "size of all durable files after the final commit / facts held"),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str          # the end-to-end metric it should move
    where: Tuple[str, ...]  # the workloads it is measured on
    exact: bool = False  # repeats bit-for-bit for a fixed seed (lib_*, views)


_ALL = tuple(name for name, _ in WORKLOADS)
_TREES = LIB + SVC
_SHARDED = ("lib_ordered_batch",) + SVC
_VIEW = ("view_cascade",)

PER_LAYER: List[PerLayer] = [
    # service.client: spans around submit / flush / result
    PerLayer("service.client.submit_us_per_req", "us", "lower", "read_ops_per_s", SVC),
    PerLayer("service.client.wait_share", "ratio", "lower", "read_ops_per_s", SVC),
    PerLayer("service.client.retries", "count", "lower", "write_facts_per_s", SVC),
    PerLayer("service.client.errors", "count", "lower", "write_facts_per_s", SVC),
    PerLayer("service.client.write_ack_p90_ms", "ms", "lower", "write_ack_p50_ms", SVC),
    PerLayer("service.client.read_p95_ms", "ms", "lower", "read_p50_ms", SVC),
    # service.protocol: replay of the recorded request/reply mix
    PerLayer("service.protocol.encode_us_per_frame", "us", "lower", "read_ops_per_s", SVC),
    PerLayer("service.protocol.decode_us_per_frame", "us", "lower", "read_ops_per_s", SVC),
    PerLayer("service.protocol.bytes_per_request", "bytes", "lower", "read_ops_per_s", SVC),
    PerLayer("service.protocol.bytes_per_reply", "bytes", "lower", "read_ops_per_s", SVC),
    # service.server: stats-op deltas and /proc of the server process
    PerLayer("service.server.facts_per_flush", "facts", "higher", "write_facts_per_s", SVC),
    PerLayer("service.server.flushes", "count", "lower", "write_facts_per_s", SVC),
    PerLayer("service.server.commits", "count", "lower", "write_ack_p50_ms", SVC),
    PerLayer("service.server.fast_reads", "count", "higher", "read_ops_per_s", SVC),
    PerLayer("service.server.overload_rejected", "count", "lower", "write_facts_per_s", SVC),
    PerLayer("service.server.errors", "count", "lower", "write_facts_per_s", SVC),
    PerLayer("service.server.cpu_ms_per_kop", "ms", "lower", "write_facts_per_s", SVC),
    PerLayer("service.server.rss_mb", "MB", "lower", "setup_s", SVC),
    # sharding
    PerLayer("sharding.pieces_per_fact", "ratio", "lower", "write_facts_per_s", _SHARDED, True),
    PerLayer("sharding.batch_insert_self_us_per_fact", "us", "lower", "write_facts_per_s", _SHARDED),
    PerLayer("sharding.lookup_self_us", "us", "lower", "read_ops_per_s", _SHARDED),
    # concurrent: timing proxy over each shard.lock
    PerLayer("concurrent.read_wait_us_per_read", "us", "lower", "read_ops_per_s", _SHARDED),
    PerLayer("concurrent.write_wait_us_per_batch", "us", "lower", "write_facts_per_s", _SHARDED),
    PerLayer("concurrent.write_hold_ms_per_batch", "ms", "lower", "read_p50_ms", _SHARDED),
    # core.sbtree: node operations recorded directly under a tree op's span
    # (compare with the paper's O(h), O(h + r))
    PerLayer("core.sbtree.node_reads_per_insert", "count", "lower", "write_facts_per_s", _TREES, True),
    PerLayer("core.sbtree.node_writes_per_insert", "count", "lower", "write_facts_per_s", _TREES, True),
    PerLayer("core.sbtree.node_reads_per_lookup", "count", "lower", "read_ops_per_s", _TREES, True),
    PerLayer("core.sbtree.node_reads_per_rangeq_row", "count", "lower", "rangeq_rows_per_s", _TREES, True),
    PerLayer("core.sbtree.allocations_per_kfact", "count", "lower", "bytes_per_fact", _TREES, True),
    PerLayer("core.sbtree.height", "count", "lower", "read_ops_per_s", _TREES, True),
    PerLayer("core.sbtree.nodes", "count", "lower", "bytes_per_fact", _TREES, True),
    PerLayer("core.sbtree.self_us_per_insert", "us", "lower", "write_facts_per_s", _TREES),
    PerLayer("core.sbtree.self_us_per_lookup", "us", "lower", "read_ops_per_s", _TREES),
    # storage.store: proxy NodeStore around PagedNodeStore (node codec + pool)
    PerLayer("storage.store.read_us_per_node", "us", "lower", "read_ops_per_s", _TREES),
    PerLayer("storage.store.write_us_per_node", "us", "lower", "write_facts_per_s", _TREES),
    # storage.buffer: BufferStats
    PerLayer("storage.buffer.hit_rate", "ratio", "higher", "read_ops_per_s", _TREES, True),
    PerLayer("storage.buffer.evictions_per_kop", "count", "lower", "rangeq_rows_per_s", _TREES, True),
    PerLayer("storage.buffer.dirty_writebacks_per_fact", "count", "lower", "write_facts_per_s", _TREES, True),
    # storage.pager: PagerStats and commit spans
    PerLayer("storage.pager.page_writes_per_fact", "count", "lower", "write_facts_per_s", _TREES, True),
    PerLayer("storage.pager.page_reads_per_lookup", "count", "lower", "read_ops_per_s", _TREES, True),
    PerLayer("storage.pager.commits_per_kfact", "count", "lower", "write_ack_p50_ms", _TREES, True),
    PerLayer("storage.pager.commit_ms", "ms", "lower", "write_ack_p50_ms", _TREES),
    PerLayer("storage.pager.commit_share", "ratio", "lower", "write_facts_per_s", _TREES),
    # warehouse.dynamic
    PerLayer("warehouse.dynamic.insert_us_per_fact", "us", "lower", "write_facts_per_s", _VIEW),
    PerLayer("warehouse.dynamic.refresh_ms_per_batch", "ms", "lower", "write_ack_p50_ms", _VIEW),
    PerLayer("warehouse.dynamic.events_consumed_per_fact", "count", "lower", "write_facts_per_s", _VIEW, True),
    PerLayer("warehouse.dynamic.save_ms", "ms", "lower", "write_facts_per_s", _VIEW),
    PerLayer("warehouse.dynamic.save_share", "ratio", "lower", "write_facts_per_s", _VIEW),
    PerLayer("warehouse.dynamic.read_us", "us", "lower", "read_ops_per_s", _VIEW),
    PerLayer("warehouse.dynamic.log_retained", "count", "lower", "bytes_per_fact", _VIEW, True),
    # bench: diagnostics -- a moved raw twin with an unmoved calibrated
    # value is the machine, not the code
    PerLayer("bench.calib_ratio", "ratio", "lower", "setup_s", _ALL),
    PerLayer("bench.calib_cv", "ratio", "lower", "setup_s", _ALL),
    PerLayer("bench.trace_overhead_ratio", "ratio", "lower", "write_facts_per_s", _ALL),
    PerLayer("bench.raw.setup_s", "s", "lower", "setup_s", _ALL),
    PerLayer("bench.raw.write_facts_per_s", "facts/s", "higher", "write_facts_per_s", _ALL),
    PerLayer("bench.raw.write_ack_p50_ms", "ms", "lower", "write_ack_p50_ms", _ALL),
    PerLayer("bench.raw.read_ops_per_s", "ops/s", "higher", "read_ops_per_s", _ALL),
    PerLayer("bench.raw.read_p50_ms", "ms", "lower", "read_p50_ms", _ALL),
    PerLayer("bench.raw.rangeq_rows_per_s", "rows/s", "higher", "rangeq_rows_per_s", _ALL),
]


def benchmark_json() -> Dict[str, Any]:
    """The content of ``BENCHMARK.json`` (exactly the driver's keys)."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
