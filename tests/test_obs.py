"""Tests for the per-operation observability layer (:mod:`repro.obs`)."""

import io
import json
import sys
import threading

import pytest

from repro import ConcurrentTree, Interval, MSBTree, SBTree, obs
from repro.storage import PagedNodeStore
from repro.warehouse import DynamicCatalog
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
        catalog = DynamicCatalog()
        catalog.create_table("r")
        catalog.create_view("SumV", "r", "sum")
        with obs.collecting() as registry:
            catalog.insert("r", 3, Interval(0, 10))
            catalog.refresh("SumV")
            catalog.insert("r", 4, Interval(5, 20))
            catalog.refresh("SumV")
            assert registry.op_summary("view.SumV.refresh")["count"] == 2
            # A refresh writes its batch: no per-fact SB-tree insert.
            assert registry.op_summary("insert")["count"] == 0
            assert registry.op_summary("insert_batch")["count"] == 2

    def test_a_grouped_view_records_one_op_family(self):
        catalog = DynamicCatalog()
        catalog.create_table("r")
        catalog.create_view("flat", "r", "sum")
        catalog.create_view("g", "r", "sum", key="k")
        with obs.collecting() as registry:
            rows = []
            for i, key in enumerate("abcab"):
                rows.append(catalog.insert("r", i + 1, Interval(i, i + 10), k=key))
                catalog.refresh()
            catalog.delete("r", rows[1])
            catalog.refresh()
            families = [op for op in registry.op_names() if op.startswith("view.")]
            counts = {op: registry.op_summary(op)["count"] for op in families}
        assert counts == {"view.flat.refresh": 6, "view.g.refresh": 6}


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
#: Every tree method :func:`repro.obs.observed` instruments.
OBSERVED_METHODS = {
    *(
        ("SBTree", name)
        for name in (
            "lookup", "steps", "range_query", "to_table", "insert", "delete",
            "insert_effect", "_insert_batch", "compact", "bulk_load",
        )
    ),
    *(
        ("MSBTree", name)
        for name in ("window_lookup", "extremum_over", "window_query")
    ),
    *(
        ("DualTreeAggregate", name)
        for name in ("insert", "delete", "window_lookup", "window_query")
    ),
    *(
        ("FixedWindowTree", name)
        for name in ("insert", "delete", "lookup", "range_query", "compact")
    ),
}


def assert_methods_are(version):
    """Each observed method's class attribute is its raw function or its
    wrapper, and the wrapper wraps that raw function."""
    for owner, name, raw, wrapped in obs._observed:
        assert wrapped.__wrapped__ is raw
        assert getattr(owner, name) is (raw if version == "raw" else wrapped), (
            f"{owner.__name__}.{name} is not {version}"
        )


class TestSwitch:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()

    def test_disabled_records_nothing(self):
        registry = obs.MetricsRegistry()
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(1, Interval(0, 10))  # obs off: must not touch registry
        assert registry.op_names() == []

    def test_collection_off_methods_are_their_raw_functions(self):
        # Instrumentation that is off is not in the call path: with
        # collection off each observed tree method is its undecorated
        # function, so a call pays nothing for the wrapper.
        assert {(owner.__name__, name) for owner, name, _, _ in obs._observed} == (
            OBSERVED_METHODS
        )
        assert_methods_are("raw")
        assert not hasattr(SBTree.lookup, "__wrapped__")

    def test_collecting_restores_prior_state(self, tmp_path):
        assert not obs.is_enabled()
        store, tree = paged_tree(tmp_path / "switch.sbt")
        tree.insert(2, Interval(0, 10))
        with obs.collecting() as registry:
            assert obs.is_enabled()
            assert obs.get_registry() is registry
            assert_methods_are("wrapped")
            assert tree.lookup(5) == 2
        assert registry.op_summary("lookup")["count"] == 1
        assert not obs.is_enabled()
        assert_methods_are("raw")
        store.close()

    def test_collecting_is_exception_safe(self):
        with pytest.raises(RuntimeError):
            with obs.collecting():
                raise RuntimeError("boom")
        assert not obs.is_enabled()
        assert_methods_are("raw")

    def test_nested_collecting_keeps_wrappers_until_the_outermost_exits(self):
        with obs.collecting() as outer:
            with obs.collecting():
                assert_methods_are("wrapped")
            assert_methods_are("wrapped")
            tree = SBTree("sum", branching=4, leaf_capacity=4)
            tree.insert(1, Interval(0, 10))
            assert outer.op_summary("insert")["count"] == 1
        assert not obs.is_enabled()
        assert_methods_are("raw")

    def test_enable_disable(self, tmp_path):
        store, tree = paged_tree(tmp_path / "switch.sbt")
        registry = obs.enable(obs.MetricsRegistry())
        try:
            assert obs.is_enabled()
            assert_methods_are("wrapped")
            tree.insert(1, Interval(0, 10))
            assert registry.op_summary("insert")["count"] == 1
            tree.lookup(5)
            assert registry.op_summary("lookup")["count"] == 1
        finally:
            obs.disable()
        assert not obs.is_enabled()
        assert_methods_are("raw")
        store.close()

    def test_switching_while_other_threads_call(self):
        # A swap is one class setattr: calls racing it answer right, and
        # each is recorded at most once; the raw methods are back after.
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        for i in range(200):
            tree.insert(1, Interval(i, i + 10))
        expected = [tree.lookup(t) for t in range(210)]
        calls, errors, stop = [0] * 4, [], threading.Event()

        def reader(k):
            try:
                while not stop.is_set():
                    for t in range(0, 210, 7):
                        assert tree.lookup(t) == expected[t]
                        calls[k] += 1
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(4)]
        recorded = 0
        try:
            for thread in threads:
                thread.start()
            for _ in range(200):
                with obs.collecting() as registry:
                    pass
                recorded += registry.op_summary("lookup")["count"]
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert 0 < sum(calls) and recorded <= sum(calls)
        assert_methods_are("raw")
