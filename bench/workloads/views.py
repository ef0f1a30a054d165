"""``view_cascade``: the dynamic view DAG, refreshed batch by batch."""

from __future__ import annotations

import itertools
import os
from typing import Any, Dict, List

from repro.warehouse.dynamic import DynamicCatalog

from .. import gen
from ..calib import Phase
from ..oracle import Oracle
from .common import Outcome, Run, chunked, pc, quiesce, reference_mismatches

SAVE_EVERY = 32     # checkpoint every 32 batches
VIEW_OPS = ("insert", "refresh", "read", "save")


def view_cascade(run: Run) -> Outcome:
    preloaded = run.count(5_000)
    rng = run.rng("facts")
    facts = gen.ordered_facts(rng, preloaded + run.count(9_600))
    keyed = [(fact, gen.KEYS[rng.randrange(len(gen.KEYS))]) for fact in facts]
    preload, stream = keyed[:preloaded], keyed[preloaded:]
    lookups = gen.instants(run.rng("lookups"), run.count(320_000))
    scans = gen.instants(run.rng("scans"), run.count(64_000, 16))
    before = Oracle(fact for fact, _ in preload)

    setups: List[Phase] = []
    failed = 0
    catalog = directory = None
    for _ in range(run.setups):
        if catalog is not None:
            catalog.close()
        directory = run.scratch("views")
        ph = run.calib.phase("setup")
        t0 = pc()
        # A counting clock: staleness stamps in dynamic.json then repeat
        # byte for byte, which keeps bytes_per_fact an exact count.
        ticks = itertools.count()
        catalog = DynamicCatalog(directory, clock=lambda: next(ticks) * 1e-3)
        catalog.create_table("doses")
        catalog.create_view("by_patient", "doses", "sum", key="patient", lag="downstream")
        catalog.create_view("total", "by_patient", "sum", lag="downstream")
        run.tracer.methods(catalog, "warehouse.dynamic", VIEW_OPS)
        ph.add(pc() - t0, 0)
        for chunk in chunked(preload):
            t0 = pc()
            for (value, start, end), key in chunk:
                catalog.insert("doses", value, (start, end), patient=key)
            catalog.refresh()
            ph.add(pc() - t0, len(chunk))
        t0 = pc()
        catalog.save()
        got = catalog.read("total", lookups[0]).value
        ph.add(pc() - t0, 1)
        failed += (got or 0) != before.value_at(lookups[0])
        setups.append(ph.close())
    run.tracer.clear()

    quiesce()
    consumed = 0
    chunks = chunked(stream)
    write = run.calib.phase("write")
    for i, chunk in enumerate(chunks):
        run.tracer.request = i
        t0 = pc()
        for (value, start, end), key in chunk:
            catalog.insert("doses", value, (start, end), patient=key)
        consumed += sum(catalog.refresh().values())
        if (i + 1) % SAVE_EVERY == 0 or i + 1 == len(chunks):
            catalog.save()
        write.add(pc() - t0, len(chunk))
    write.close()

    quiesce()
    read = run.calib.phase("read")
    totals: List[Any] = []
    for i, chunk in enumerate(chunked(lookups)):
        run.tracer.request = i
        t0 = pc()
        got = [catalog.read("total", t).value for t in chunk]
        read.add(pc() - t0, len(chunk))
        totals.extend(got)
    read.close()
    quiesce()
    rangeq = run.calib.phase("rangeq")
    groups: List[Dict[str, Any]] = []
    for i, chunk in enumerate(chunked(scans, 16)):
        run.tracer.request = i
        t0 = pc()
        got = [catalog.read("by_patient", t).value for t in chunk]
        rangeq.add(pc() - t0, sum(map(len, got)))
        groups.extend(got)
    rangeq.close()
    stats = catalog.stats()
    catalog.close()

    if run.corrupt:
        totals[0] = (totals[0] or 0) + 1
    plain = [fact for fact, _ in keyed]
    after = Oracle(plain)
    per_key = {key: Oracle() for key in gen.KEYS}
    for (value, start, end), key in keyed:
        per_key[key].add(value, start, end)
    failed += sum((got or 0) != after.value_at(t) for t, got in zip(lookups, totals))
    failed += sum(
        not set(got) <= set(gen.KEYS)
        or any((got.get(key) or 0) != per_key[key].value_at(t) for key in gen.KEYS)
        for t, got in zip(scans, groups)
    )
    return Outcome(
        phases=dict(write=write, ack=write, read=read, probe=read, rangeq=rangeq),
        setup=[ph.seconds() for ph in setups],
        setup_raw=[ph.seconds(raw=True) for ph in setups],
        attempted=run.setups + len(stream) + len(lookups) + len(scans),
        failed=failed + reference_mismatches(run, after, plain),
        facts=len(keyed),
        bytes=os.path.getsize(os.path.join(directory, "dynamic.json")),
        counts={
            "events_consumed": consumed,
            "log_retained": stats["tables"]["doses"]["log_retained"],
        },
        flush_policy="refresh() after every 64-fact batch; save() (atomic "
                     "dynamic.json checkpoint) every 32 batches",
    )
