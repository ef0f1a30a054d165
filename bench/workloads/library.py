"""The two library workloads: the tree alone, and the group-commit
apply path without the wire."""

from __future__ import annotations

import os
from typing import Any, List, Sequence, Tuple

from repro import SBTree
from repro.storage import PagedNodeStore

from .. import gen
from ..calib import Phase
from ..oracle import Oracle
from .common import (
    SCAN, TREE_OPS, Fact, Outcome, Run, as_pairs, build_sharded, check_reads,
    chunked, dir_bytes, page_counts, pc, quiesce, reference_mismatches,
    store_counts,
)

SEGMENTS = 10       # lib_random_fit flushes once per segment of its write phase


def library_reads(
    run: Run,
    index: Any,
    lookups: Sequence[int],
    windows: Sequence[Tuple[int, int]],
    stores: Sequence[Any],
    marks: List[dict],
) -> Tuple[Phase, Phase, List[Any], List[List[Fact]]]:
    """The read side of both library workloads: chunks of 64 lookups,
    then chunks of 8 range queries; the stores' counters are marked
    after each."""
    quiesce()
    read = run.calib.phase("read")
    replies: List[Any] = []
    for i, chunk in enumerate(chunked(lookups)):
        run.tracer.request = i
        t0 = pc()
        got = [index.lookup(t) for t in chunk]
        read.add(pc() - t0, len(chunk))
        replies.extend(got)
    read.close()
    marks.append(store_counts(stores))
    quiesce()
    rangeq = run.calib.phase("rangeq")
    tables: List[List[Fact]] = []
    for i, chunk in enumerate(chunked(windows, SCAN)):
        run.tracer.request = i
        t0 = pc()
        got = [index.range_query(window).rows for window in chunk]
        rangeq.add(pc() - t0, sum(map(len, got)))
        tables.extend(
            [(value, iv.start, iv.end) for value, iv in rows] for rows in got
        )
    rangeq.close()
    marks.append(store_counts(stores))
    return read, rangeq, replies, tables


def lib_random_fit(run: Run) -> Outcome:
    rng = run.rng("facts")
    preload = gen.random_facts(rng, run.count(6_000))
    ops = gen.churn_ops(rng, preload, run.count(16_000))
    lookups = gen.instants(run.rng("lookups"), run.count(40_000))
    windows = gen.windows(run.rng("windows"), run.count(6_400, SCAN), 4_000)
    before = Oracle(preload)

    setups: List[Phase] = []
    failed = 0
    tree = store = directory = None
    for _ in range(run.setups):
        if store is not None:
            store.close()
        directory = run.scratch("fit")
        ph = run.calib.phase("setup")
        t0 = pc()
        store = PagedNodeStore(
            os.path.join(directory, "tree.sbt"), "sum", buffer_capacity=1 << 20)
        tree = SBTree("sum", run.tracer.store(store))
        run.tracer.methods(tree, "core.sbtree", TREE_OPS)
        ph.add(pc() - t0, 0)
        for chunk in chunked(preload):
            t0 = pc()
            for value, start, end in chunk:
                tree.insert(value, (start, end))
            ph.add(pc() - t0, len(chunk))
        t0 = pc()
        tree.store.flush()
        got = tree.lookup(lookups[0])
        ph.add(pc() - t0, 1)
        failed += got != before.value_at(lookups[0])
        setups.append(ph.close())
    marks = [store_counts([store])]
    run.tracer.clear()

    quiesce()
    chunks = chunked(ops)
    per_segment = max(1, len(chunks) // SEGMENTS)
    write = run.calib.phase("write")
    for i, chunk in enumerate(chunks):
        run.tracer.request = i
        t0 = pc()
        for sign, (value, start, end) in chunk:
            if sign > 0:
                tree.insert(value, (start, end))
            else:
                tree.delete(value, (start, end))
        if (i + 1) % per_segment == 0 or i + 1 == len(chunks):
            tree.store.flush()
        write.add(pc() - t0, len(chunk))
    write.close()
    marks.append(store_counts([store]))

    read, rangeq, replies, tables = library_reads(
        run, tree, lookups, windows, [store], marks)
    counts = page_counts(marks, [tree])
    store.close()

    signed = preload + [(sign * v, s, e) for sign, (v, s, e) in ops]
    after = Oracle(signed)
    failed += check_reads(run, after, lookups, replies, windows, tables)
    return Outcome(
        phases=dict(write=write, ack=write, read=read, probe=read, rangeq=rangeq),
        setup=[ph.seconds() for ph in setups],
        setup_raw=[ph.seconds(raw=True) for ph in setups],
        attempted=run.setups + len(ops) + len(lookups) + len(windows),
        failed=failed + reference_mismatches(run, after, signed),
        facts=len(preload) + sum(sign for sign, _ in ops),
        bytes=dir_bytes(directory),
        counts=counts,
        flush_policy="not journaled; flush+fsync once per write segment",
    )


def lib_ordered_batch(run: Run) -> Outcome:
    preloaded = run.count(4_000)
    facts = gen.ordered_facts(run.rng("facts"), preloaded + run.count(10_000))
    preload, stream = facts[:preloaded], facts[preloaded:]
    lookups = gen.instants(run.rng("lookups"), run.count(36_000))
    windows = gen.windows(run.rng("windows"), run.count(7_200, SCAN), 4_000)
    before = Oracle(preload)

    setups: List[Phase] = []
    failed = 0
    sharded = stores = directory = None
    for _ in range(run.setups):
        if sharded is not None:
            sharded.close()
        directory = run.scratch("ordered")
        ph = run.calib.phase("setup")
        t0 = pc()
        sharded, stores = build_sharded(run, directory, buffer_capacity=32)
        ph.add(pc() - t0, 0)
        for chunk in chunked(as_pairs(preload)):
            t0 = pc()
            sharded.batch_insert(chunk)
            sharded.commit()
            ph.add(pc() - t0, len(chunk))
        t0 = pc()
        got = sharded.lookup(lookups[0])
        ph.add(pc() - t0, 1)
        failed += got != before.value_at(lookups[0])
        setups.append(ph.close())
    marks = [store_counts(stores)]
    run.tracer.clear()

    quiesce()
    commits = 0
    write = run.calib.phase("write")
    for i, chunk in enumerate(chunked(as_pairs(stream))):
        run.tracer.request = i
        t0 = pc()
        sharded.batch_insert(chunk)
        commits += sharded.commit()
        write.add(pc() - t0, len(chunk))
    write.close()
    marks.append(store_counts(stores))

    read, rangeq, replies, tables = library_reads(
        run, sharded, lookups, windows, stores, marks)
    counts = page_counts(marks, [shard.tree for shard in sharded.shards])
    counts.update(
        commits=commits,
        pieces=sum(sharded.pieces_applied),
        facts_applied=sharded.facts_applied,
    )
    sharded.close()

    after = Oracle(facts)
    failed += check_reads(run, after, lookups, replies, windows, tables)
    return Outcome(
        phases=dict(write=write, ack=write, read=read, probe=read, rangeq=rangeq),
        setup=[ph.seconds() for ph in setups],
        setup_raw=[ph.seconds(raw=True) for ph in setups],
        attempted=run.setups + len(stream) + len(lookups) + len(windows),
        failed=failed + reference_mismatches(run, after, facts),
        facts=len(facts),
        bytes=dir_bytes(directory),
        counts=counts,
        flush_policy="journaled; commit after every 64-fact batch_insert; "
                     "buffer pool 32 pages per shard",
    )
