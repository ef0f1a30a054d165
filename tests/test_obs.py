"""Tests for the per-operation observability layer (:mod:`repro.obs`)."""

import io
import json

import pytest

from repro import ConcurrentTree, Interval, MSBTree, SBTree, obs
from repro.relation import TemporalRelation
from repro.storage import PagedNodeStore
from repro.warehouse import TemporalAggregateView
from repro.workloads import uniform

FACTS = uniform(400, horizon=10_000, max_duration=200, seed=29)


def paged_tree(path, buffer_capacity=64):
    store = PagedNodeStore(str(path), "sum", buffer_capacity=buffer_capacity)
    tree = SBTree(
        "sum",
        store,
        branching=min(16, store.default_branching),
        leaf_capacity=min(16, store.default_leaf_capacity),
    )
    return store, tree


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestCounter:
    def test_inc(self):
        counter = obs.Counter("x")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5


class TestHistogram:
    def test_bucket_assignment_and_moments(self):
        h = obs.Histogram("lat", bounds=[10, 20, 50])
        for v in (1, 10, 11, 19, 100):
            h.record(v)
        assert h.count == 5
        assert h.total == 141
        assert h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(141 / 5)
        # <=10: {1, 10}; <=20: {11, 19}; <=50: {}; inf: {100}
        assert h.counts == [2, 2, 0, 1]

    def test_quantiles_interpolate_within_buckets(self):
        h = obs.Histogram("lat", bounds=[10, 20, 50])
        for v in (1, 10, 11, 19, 100):
            h.record(v)
        # target = q * count; buckets hold {1,10} | {11,19} | {} | {100}
        assert h.quantile(0.4) == 10
        # The 3rd sample lands in (10, 20]: half of that bucket's mass,
        # so the estimate is the bucket midpoint -- not its upper edge.
        assert h.quantile(0.5) == pytest.approx(12.5)
        assert h.quantile(0.8) == 20
        # The overflow bucket is clamped to the observed max.
        assert h.quantile(1.0) == 100

    def test_quantile_clamps_to_observed_range(self):
        h = obs.Histogram("lat", bounds=[10, 20, 50])
        h.record(42)
        # One sample in (20, 50]: every quantile is that sample's
        # bucket, clamped between observed min and max.
        for q in (0.1, 0.5, 1.0):
            assert 20 < h.quantile(q) <= 42

    def test_to_dict_exposes_bucket_bounds(self):
        h = obs.Histogram("lat", bounds=[10, 20])
        h.record(5)
        h.record(1000)
        d = h.to_dict()
        assert d["bounds"] == [10, 20, "inf"]
        assert d["buckets"] == {10: 1, "inf": 1}

    def test_empty_histogram(self):
        h = obs.Histogram("lat")
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0
        d = h.to_dict()
        assert d["count"] == 0 and d["min"] == 0.0 and d["max"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            obs.Histogram("bad", bounds=[10, 10, 20])
        with pytest.raises(ValueError):
            obs.Histogram("lat").quantile(1.5)

    def test_default_bounds_cover_microseconds_to_seconds(self):
        h = obs.Histogram("lat")
        assert h.bounds[0] == 1
        assert h.bounds[-1] == float("inf")
        assert 5_000_000 in h.bounds  # 5s in us


class TestMetricsRegistry:
    def test_record_op_folds_counters_and_histograms(self):
        registry = obs.MetricsRegistry()
        registry.record_op(
            obs.OpRecord(op="lookup", wall_us=12.0, reads=3, hits=2, misses=1)
        )
        registry.record_op(
            obs.OpRecord(op="lookup", wall_us=18.0, reads=3, hits=3)
        )
        assert registry.op_names() == ["lookup"]
        summary = registry.op_summary("lookup")
        assert summary["count"] == 2
        assert summary["reads"] == 6
        assert summary["reads_per_op"] == 3.0
        assert summary["hits"] == 5
        assert summary["misses"] == 1
        assert summary["wall_us"]["count"] == 2
        assert summary["wall_us"]["mean"] == pytest.approx(15.0)

    def test_unknown_op_summary_is_zeroed(self):
        registry = obs.MetricsRegistry()
        summary = registry.op_summary("nope")
        assert summary["count"] == 0
        assert summary["reads_per_op"] == 0.0

    def test_render_and_reset(self):
        registry = obs.MetricsRegistry()
        assert registry.render() == "no operations recorded"
        registry.record_op(obs.OpRecord(op="insert", wall_us=5.0, writes=2))
        assert "insert" in registry.render()
        registry.reset()
        assert registry.op_names() == []


# ----------------------------------------------------------------------
# Per-op I/O attribution on a paged tree
# ----------------------------------------------------------------------
class TestPerOpAccounting:
    def test_cold_lookup_reads_exactly_height_pages(self, tmp_path):
        path = tmp_path / "t.sbt"
        store, tree = paged_tree(path)
        for value, interval in FACTS:
            tree.insert(value, interval)
        height = tree.height
        assert height >= 2
        store.close()

        # Reopen: the buffer pool is cold, so one lookup must fault in
        # exactly the root-to-leaf path -- h logical reads, h misses,
        # h physical page reads (the paper's O(h) lookup cost).
        store = PagedNodeStore(str(path))
        tree = SBTree("sum", store)
        with obs.collecting() as registry:
            tree.lookup(5000)
            summary = registry.op_summary("lookup")
            assert summary["count"] == 1
            assert summary["reads"] == height
            assert summary["misses"] == height
            assert summary["physical_reads"] == height
            assert summary["hits"] == 0
            assert store.stats.decodes == 0  # a miss probes the bytes

            # Warm repeat: all hits, no physical I/O; each page's second
            # use decodes it.
            tree.lookup(5000)
            summary = registry.op_summary("lookup")
            assert summary["count"] == 2
            assert summary["physical_reads"] == height  # unchanged
            assert summary["hits"] == height
            assert store.stats.decodes == height
        store.close()

    def test_insert_records_writes(self, tmp_path):
        store, tree = paged_tree(tmp_path / "t.sbt")
        with obs.collecting() as registry:
            tree.insert(1, Interval(10, 50))
            summary = registry.op_summary("insert")
            assert summary["count"] == 1
            assert summary["writes"] >= 1
        store.close()

    def test_compact_does_not_double_count_inner_ops(self, tmp_path):
        store, tree = paged_tree(tmp_path / "t.sbt")
        for value, interval in FACTS[:100]:
            tree.insert(value, interval)
        with obs.collecting() as registry:
            tree.compact()
            # compact() runs a whole-tree range query and a bulk load
            # internally; only the outermost op may be published.
            assert registry.op_summary("compact")["count"] == 1
            assert registry.op_summary("range_query")["count"] == 0
            assert registry.op_summary("bulk_load")["count"] == 0
        store.close()

    def test_memory_trees_record_logical_io_only(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        for value, interval in FACTS[:50]:
            tree.insert(value, interval)
        with obs.collecting() as registry:
            tree.lookup(5000)
            summary = registry.op_summary("lookup")
            assert summary["count"] == 1
            assert summary["reads"] == tree.height
            assert summary["physical_reads"] == 0
            assert summary["misses"] == 0

    def test_msb_tree_window_ops(self):
        tree = MSBTree("max", branching=4, leaf_capacity=4)
        tree.insert(5, Interval(0, 10))
        tree.insert(9, Interval(5, 25))
        with obs.collecting() as registry:
            assert tree.window_lookup(30, 25) == 9
            assert registry.op_summary("mlookup")["count"] == 1


# ----------------------------------------------------------------------
# Concurrency: lock-wait attribution, no double counting
# ----------------------------------------------------------------------
class TestConcurrentAccounting:
    def test_lock_wait_recorded_once_per_op(self):
        tree = ConcurrentTree(SBTree("sum", branching=4, leaf_capacity=4))
        tree.insert(2, Interval(0, 100))
        with obs.collecting() as registry:
            assert tree.lookup(50) == 2
            summary = registry.op_summary("lookup")
            # One op, not two: the wrapper suppresses the inner tree op.
            assert summary["count"] == 1
            assert summary["lock_wait_us"]["count"] == 1
            assert summary["lock_wait_us"]["min"] >= 0.0


# ----------------------------------------------------------------------
# Warehouse: per-view maintenance cost
# ----------------------------------------------------------------------
class TestViewMaintenanceAccounting:
    def test_view_maintenance_ops_are_named_per_view(self):
        rel = TemporalRelation("r")
        TemporalAggregateView("SumV", rel, "sum")
        with obs.collecting() as registry:
            rel.insert(3, Interval(0, 10))
            rel.insert(4, Interval(5, 20))
            assert registry.op_summary("view.SumV.maintain")["count"] == 2
            # The inner SB-tree insert is attributed to the view op only.
            assert registry.op_summary("insert")["count"] == 0

    def test_a_grouped_view_records_one_op_family(self):
        rel = TemporalRelation("r")
        TemporalAggregateView("flat", rel, "sum")
        TemporalAggregateView("g", rel, "sum", key_of=lambda row: row.payload["k"])
        with obs.collecting() as registry:
            rows = [
                rel.insert(i + 1, Interval(i, i + 10), k=key)
                for i, key in enumerate("abcab")
            ]
            rel.delete(rows[1])
            families = [op for op in registry.op_names() if op.startswith("view.")]
            counts = {op: registry.op_summary(op)["count"] for op in families}
        assert counts == {"view.flat.maintain": 6, "view.g.maintain": 6}


# ----------------------------------------------------------------------
# Trace sink
# ----------------------------------------------------------------------
class TestTraceSink:
    def test_json_lines_schema(self):
        buf = io.StringIO()
        sink = obs.TraceSink(buf)
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        with obs.collecting(sink=sink):
            tree.insert(1, Interval(0, 10))
            tree.lookup(5)
        lines = [line for line in buf.getvalue().splitlines() if line]
        assert len(lines) == 2
        for line in lines:
            record = json.loads(line)
            for key in (
                "op", "wall_us", "reads", "writes", "hits", "misses",
                "physical_reads", "physical_writes",
            ):
                assert key in record, key
            assert record["subject"] == "SBTree"
        assert [json.loads(line)["op"] for line in lines] == ["insert", "lookup"]

    def test_deterministic_sampling(self):
        buf = io.StringIO()
        sink = obs.TraceSink(buf, sample=0.3)
        for _ in range(100):
            sink.emit(obs.OpRecord(op="x"))
        assert sink.seen == 100
        assert sink.emitted == 30
        assert len(buf.getvalue().splitlines()) == 30

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            obs.TraceSink(io.StringIO(), sample=0.0)
        with pytest.raises(ValueError):
            obs.TraceSink(io.StringIO(), sample=1.5)

    def test_file_sink(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.TraceSink(path) as sink:
            sink.emit(obs.OpRecord(op="x", wall_us=1.0))
        assert json.loads(path.read_text())["op"] == "x"


# ----------------------------------------------------------------------
# The global switch
# ----------------------------------------------------------------------
class TestSwitch:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()

    def test_disabled_records_nothing(self):
        registry = obs.MetricsRegistry()
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(1, Interval(0, 10))  # obs off: must not touch registry
        assert registry.op_names() == []

    def test_wrapped_functions_expose_raw_callable(self):
        # The fast path's baseline: the undecorated method is reachable,
        # so overhead benchmarks can time it directly.
        assert hasattr(SBTree.lookup, "__wrapped__")
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(2, Interval(0, 10))
        assert SBTree.lookup.__wrapped__(tree, 5) == tree.lookup(5)

    def test_collecting_restores_prior_state(self):
        assert not obs.is_enabled()
        with obs.collecting() as registry:
            assert obs.is_enabled()
            assert obs.get_registry() is registry
        assert not obs.is_enabled()

    def test_collecting_is_exception_safe(self):
        with pytest.raises(RuntimeError):
            with obs.collecting():
                raise RuntimeError("boom")
        assert not obs.is_enabled()

    def test_enable_disable(self):
        registry = obs.enable(obs.MetricsRegistry())
        try:
            assert obs.is_enabled()
            tree = SBTree("sum", branching=4, leaf_capacity=4)
            tree.insert(1, Interval(0, 10))
            assert registry.op_summary("insert")["count"] == 1
        finally:
            obs.disable()
        assert not obs.is_enabled()
