"""What the five workloads share: the run's inputs and outcome, chunking,
the public counters of the storage stack, and the read-checking gate."""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import ShardedTree
from repro.storage import PagedNodeStore

from .. import gen
from ..calib import Calibrator, Phase
from ..oracle import Oracle, coalesce, cross_check
from ..trace import Tracer

pc = time.perf_counter

BATCH = 64          # facts per write chunk, reads per read chunk
SCAN = 8            # range queries per chunk
SHARDS = 4
TREE_OPS = ("insert", "delete", "lookup", "range_query")
SHARD_OPS = ("batch_insert", "commit", "lookup", "range_query")

Fact = Tuple[int, int, int]


@dataclass
class Run:
    """One run's inputs: what to run, how big, and where."""

    workload: str
    seed: int
    scale: float        # 1.0 = the full run; --quick 0.1; the traced run 1/3
    setups: int         # set up this many times, report the median
    tracer: Tracer
    calib: Calibrator
    out: str            # this run's scratch directory (under bench/out)
    corrupt: bool = False   # self-test: spoil one collected reply

    def count(self, base: int, unit: int = BATCH) -> int:
        """*base* ops scaled, in whole chunks (never fewer than four)."""
        return max(4, round(base * self.scale / unit)) * unit

    def rng(self, purpose: str):
        return gen.rng_for(self.seed, self.workload, purpose)

    def scratch(self, name: str) -> str:
        path = os.path.join(self.out, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


@dataclass
class Outcome:
    """What a workload hands to :mod:`bench.report`."""

    phases: Dict[str, Phase]        # write, ack, read, probe, rangeq
    setup: List[float]              # calibrated seconds per set-up
    setup_raw: List[float]
    attempted: int
    failed: int
    facts: int                      # facts held after the final commit
    bytes: int                      # durable bytes after the final commit
    counts: Dict[str, float] = field(default_factory=dict)
    flush_policy: str = ""
    traffic: Optional[Any] = None   # service runs: the wire log (service._Traffic)


def quiesce() -> None:
    """Before a timed phase: collect garbage, then park what survives
    (the bench's own inputs and collected replies) outside the
    collector's reach.  GC stays enabled for the program's allocations."""
    gc.collect()
    gc.freeze()


def chunked(items: Sequence, size: int = BATCH) -> List[Sequence]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def dir_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
    )


def as_pairs(facts: Sequence[Fact]) -> List[Tuple[int, Tuple[int, int]]]:
    return [(value, (start, end)) for value, start, end in facts]


def reference_mismatches(run: Run, oracle: Oracle, facts: Sequence[Fact]) -> int:
    return cross_check(oracle, facts, gen.instants(run.rng("cross-check"), 200))


def check_reads(
    run: Run,
    oracle: Oracle,
    lookups: Sequence[int],
    replies: List[Any],
    windows: Sequence[Tuple[int, int]],
    tables: Sequence[Sequence],
) -> int:
    """Failed reads: replies that disagree with the oracle's final state."""
    if run.corrupt:
        replies[0] += 1
    failed = sum(got != oracle.value_at(t) for t, got in zip(lookups, replies))
    return failed + sum(
        coalesce(rows) != oracle.rows(start, end)
        for (start, end), rows in zip(windows, tables)
    )


# ----------------------------------------------------------------------
# Public counters of the storage stack, summed over stores
# ----------------------------------------------------------------------
def store_counts(stores: Sequence[Any]) -> Dict[str, int]:
    out = dict.fromkeys(
        ("hits", "misses", "evictions", "dirty_writebacks",
         "physical_reads", "physical_writes"), 0)
    for store in stores:
        for source in (store.buffer.stats, store.pager.stats):
            for key in out:
                out[key] += getattr(source, key, 0)
    return out


def page_counts(marks: List[Dict[str, int]], trees: Sequence[Any]) -> Dict[str, float]:
    """Page-level counts from marks taken after set-up, after the write
    phase and (where reads run on their own) after the lookup phase,
    plus the shape of the trees at the end."""
    write = {key: marks[1][key] - marks[0][key] for key in marks[0]}
    run = {key: marks[-1][key] - marks[0][key] for key in marks[0]}
    return {
        "page_writes_write": write["physical_writes"],
        "dirty_writebacks_write": write["dirty_writebacks"],
        "page_reads_read": (
            marks[2]["physical_reads"] - marks[1]["physical_reads"]
            if len(marks) > 2 else 0
        ),
        "buffer_hits": run["hits"],
        "buffer_misses": run["misses"],
        "buffer_evictions": run["evictions"],
        "height": max(tree.height for tree in trees),
        "nodes": sum(tree.node_count() for tree in trees),
    }


def build_sharded(run: Run, directory: str, buffer_capacity: int):
    """Four journaled page files under one ShardedTree, every layer
    behind the tracer's wrappers (which are the objects themselves when
    the run is untraced).  Returns the tree and its bare stores."""
    stores = [
        PagedNodeStore(
            os.path.join(directory, f"shard-{i}.sbt"), "sum",
            journaled=True, buffer_capacity=buffer_capacity)
        for i in range(SHARDS)
    ]
    sharded = ShardedTree(
        "sum", num_shards=SHARDS, span=(0, gen.SPAN),
        stores=[run.tracer.store(store) for store in stores])
    run.tracer.methods(sharded, "sharding", SHARD_OPS)
    run.tracer.locks(sharded)
    for shard in sharded.shards:
        run.tracer.methods(shard.tree, "core.sbtree", TREE_OPS)
    return sharded, stores
