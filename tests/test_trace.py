"""Tests for request-scoped tracing (repro.obs.trace) end to end."""

import io
import json
import random
import threading

import pytest

from repro import obs
from repro.core.intervals import Interval
from repro.core.sbtree import SBTree
from repro.obs import trace
from repro.obs.overhead import run_overhead_gate
from repro.service import ServerHandle, ServiceClient


@pytest.fixture
def sink_buffer():
    """Tracing at sample=1.0 into an in-memory sink; always disabled after."""
    buf = io.StringIO()
    registry = obs.MetricsRegistry()
    trace.enable(obs.TraceSink(buf), sample=1.0, registry=registry)
    try:
        yield buf, registry
    finally:
        trace.disable()


def records(buf):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


def by_trace(recs):
    grouped = {}
    for rec in recs:
        grouped.setdefault(rec["trace_id"], []).append(rec)
    return grouped


def assert_single_rooted_tree(spans):
    """Every span chains to exactly one root within its own trace."""
    ids = {s["span_id"] for s in spans}
    assert len(ids) == len(spans), "span ids must be unique"
    roots = [s for s in spans if s["parent_id"] is None]
    orphans = [
        s
        for s in spans
        if s["parent_id"] is not None and s["parent_id"] not in ids
    ]
    assert len(roots) == 1, f"want one root, got {[r['span'] for r in roots]}"
    assert not orphans, f"orphan spans: {[o['span'] for o in orphans]}"


class TestTraceContext:
    def test_wire_roundtrip(self):
        ctx = trace.TraceContext("t1", "s1", None)
        parsed = trace.TraceContext.from_wire(ctx.to_wire())
        assert parsed.trace_id == "t1" and parsed.span_id == "s1"

    def test_from_wire_rejects_garbage(self):
        assert trace.TraceContext.from_wire(None) is None
        assert trace.TraceContext.from_wire("nope") is None
        assert trace.TraceContext.from_wire({"id": 7, "span": "s"}) is None
        assert trace.TraceContext.from_wire({"id": "t"}) is None

    def test_child_links_to_parent(self):
        ctx = trace.TraceContext("t1", "s1")
        child = ctx.child()
        assert child.trace_id == "t1"
        assert child.parent_id == "s1"
        assert child.span_id != "s1"


class TestSamplingAndDisabledPath:
    def test_disabled_span_is_shared_null(self):
        assert not trace.is_enabled()
        assert trace.span("x") is trace.span("y")
        assert trace.new_trace() is None

    def test_span_outside_any_trace_is_null(self, sink_buffer):
        assert trace.span("x") is trace.span("y")

    def test_head_sampling_is_deterministic(self):
        buf = io.StringIO()
        trace.enable(obs.TraceSink(buf), sample=0.25)
        try:
            kept = [trace.new_trace() is not None for _ in range(20)]
        finally:
            trace.disable()
        assert sum(kept) == 5
        # Evenly spread (every 4th), not front-loaded.
        assert kept[3] and kept[7] and not kept[0] and not kept[1]

    def test_enable_restarts_the_sampling_sequence(self):
        # ``_trace_seen`` is process-wide: without the reset, the second
        # enabled period would continue at position 4 and keep its first
        # trace -- and what a run traces would depend on what ran before.
        patterns = []
        for _ in range(2):
            trace.enable(obs.TraceSink(io.StringIO()), sample=0.25)
            try:
                patterns.append(
                    [trace.new_trace() is not None for _ in range(3)]
                )
            finally:
                trace.disable()
        assert patterns == [[False, False, False]] * 2
        trace.enable(obs.TraceSink(io.StringIO()), sample=0.25)
        try:
            kept = [trace.new_trace() is not None for _ in range(4)]
        finally:
            trace.disable()
        assert kept == [False, False, False, True]

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            trace.enable(sample=0.0)
        with pytest.raises(ValueError):
            trace.enable(sample=1.5)
        trace.disable()


class TestSpans:
    def test_nested_spans_share_trace_and_chain_parents(self, sink_buffer):
        buf, _ = sink_buffer
        ctx = trace.new_trace()
        with trace.activated(ctx):
            with trace.span("outer", attrs={"k": 1}):
                with trace.span("inner"):
                    pass
        recs = records(buf)
        inner = next(r for r in recs if r["span"] == "inner")
        outer = next(r for r in recs if r["span"] == "outer")
        assert inner["trace_id"] == outer["trace_id"] == ctx.trace_id
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] == ctx.span_id
        assert outer["k"] == 1
        assert outer["wall_us"] >= inner["wall_us"]

    def test_span_records_storage_deltas(self, sink_buffer):
        buf, _ = sink_buffer
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        for i in range(30):
            tree.insert(1, Interval(i, i + 3))
        ctx = trace.new_trace()
        with trace.activated(ctx):
            with trace.span("tree.lookup", stores=(tree.store,)):
                tree.lookup(15)
        rec = records(buf)[0]
        assert rec["reads"] > 0  # the lookup's node accesses, attributed

    def test_span_durations_fold_into_registry(self, sink_buffer):
        _, registry = sink_buffer
        ctx = trace.new_trace()
        with trace.activated(ctx):
            with trace.span("work"):
                pass
        hist = registry.to_dict()["histograms"]["span.work.wall_us"]
        assert hist["count"] == 1

    def test_exception_marks_span(self, sink_buffer):
        buf, _ = sink_buffer
        ctx = trace.new_trace()
        with trace.activated(ctx):
            with pytest.raises(RuntimeError):
                with trace.span("boom"):
                    raise RuntimeError("x")
        assert records(buf)[0]["error"] == "RuntimeError"


class TestSpanCollector:
    def test_replay_reparents_under_each_participant(self, sink_buffer):
        buf, _ = sink_buffer
        collector = trace.SpanCollector()
        with collector.recording():
            with trace.span("shard.apply"):
                with trace.span("tree.insert"):
                    pass
        assert records(buf) == []  # recording emits nothing yet
        parents = [trace.new_trace().child() for _ in range(2)]
        for parent in parents:
            collector.replay(parent)
        grouped = by_trace(records(buf))
        assert len(grouped) == 2
        for parent in parents:
            spans = grouped[parent.trace_id]
            assert {s["span"] for s in spans} == {"shard.apply", "tree.insert"}
            apply_rec = next(s for s in spans if s["span"] == "shard.apply")
            insert_rec = next(s for s in spans if s["span"] == "tree.insert")
            assert apply_rec["parent_id"] == parent.span_id
            assert insert_rec["parent_id"] == apply_rec["span_id"]

    def test_replay_folds_once(self, sink_buffer):
        _, registry = sink_buffer
        collector = trace.SpanCollector()
        with collector.recording():
            with trace.span("tree.insert"):
                pass
        for index in range(3):
            collector.replay(trace.new_trace().child(), fold=index == 0)
        hist = registry.to_dict()["histograms"]["span.tree.insert.wall_us"]
        assert hist["count"] == 1


class TestEndToEndPropagation:
    def test_concurrent_clients_produce_complete_span_trees(
        self, sink_buffer, open_shards
    ):
        """ISSUE acceptance: at sampling=1.0 every request's spans form
        one rooted tree from client send down to per-shard tree ops,
        with no orphans and no cross-request leakage under concurrency."""
        buf, registry = sink_buffer
        sharded = open_shards(num_shards=4, span=(0, 10_000),
                              branching=4, leaf_capacity=4)
        errors = []

        def drive(index, host, port):
            # One client.request root (trace.new_trace()) per call below.
            rng = random.Random(11 * 10_007 + index)
            try:
                with ServiceClient(host, port, timeout=10.0) as svc:
                    for _ in range(30):
                        s = rng.randint(0, 9_000)
                        e = s + rng.randint(1, 900)
                        op = rng.choice(
                            ("insert", "batch_insert", "lookup", "rangeq")
                        )
                        if op == "insert":
                            svc.insert(rng.randint(1, 100), s, e)
                        elif op == "batch_insert":
                            svc.batch_insert(
                                [[rng.randint(1, 100), s + k, e + k]
                                 for k in range(3)]
                            )
                        elif op == "lookup":
                            svc.lookup(s)
                        else:
                            svc.rangeq(s, e)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        with ServerHandle.start(
            sharded, batch_max=8, registry=registry
        ) as handle:
            workers = [
                threading.Thread(
                    target=drive, args=(i, handle.host, handle.port)
                )
                for i in range(3)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        assert not errors, errors
        assert trace.is_enabled()

        grouped = by_trace(records(buf))
        # One trace per client request: 3 connections x 30 calls.
        assert len(grouped) == 90
        insert_traces = lookup_traces = 0
        for spans in grouped.values():
            assert_single_rooted_tree(spans)
            root = next(s for s in spans if s["parent_id"] is None)
            assert root["span"] == "client.request"
            names = {s["span"] for s in spans}
            if root.get("op") in ("insert", "batch_insert"):
                insert_traces += 1
                assert "service.flush" in names
                assert "shard.apply" in names
                # The per-shard tree-op leaves, same trace_id throughout.
                assert "tree.insert" in names
            elif root.get("op") == "lookup":
                lookup_traces += 1
                assert "shard.lookup" in names and "tree.lookup" in names
            elif root.get("op") == "rangeq":
                assert "shard.range_query" in names
                assert "tree.range_query" in names
            # No cross-request leakage: every record already grouped by
            # trace_id, so a leaked span would appear as an orphan above.
        assert insert_traces > 0 and lookup_traces > 0

    def test_server_spans_absent_when_client_untraced(self, open_shards):
        buf = io.StringIO()
        sharded = open_shards(num_shards=2, span=(0, 100))
        with ServerHandle.start(sharded, batch_max=2) as handle:
            with ServiceClient(handle.host, handle.port) as svc:
                svc.insert(1, 10, 20)
                svc.lookup(15)
        assert buf.getvalue() == ""


class TestOverheadGate:
    def test_gate_runs_and_writes_bench_json(self, tmp_path):
        report = run_overhead_gate(
            facts=60, lookups=300, out_dir=str(tmp_path)
        )
        assert report["baseline_us_per_op"] > 0
        assert report["ratio_disabled"] > 0
        assert not trace.is_enabled() and not obs.is_enabled()
        payload = json.loads(
            (tmp_path / "BENCH_trace_overhead.json").read_text()
        )
        assert payload["extra"]["modes"] == [
            "baseline", "disabled", "traced_1pct",
        ]
        assert "ratio_disabled" in payload["extra"]

    def test_gate_refuses_to_run_under_instrumentation(self):
        trace.enable(sample=1.0)
        try:
            with pytest.raises(RuntimeError):
                run_overhead_gate(facts=10, lookups=10)
        finally:
            trace.disable()
