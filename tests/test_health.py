"""Tests for structural-health telemetry, Prometheus exposition, and top."""

import io
import json
import os
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.core.intervals import Interval
from repro.core.sbtree import SBTree
from repro.obs.health import (
    render_prom,
    record_health,
    sharded_health,
    start_metrics_http,
    tree_health,
)
from repro.service import ServerHandle, ServiceClient
from repro.service.top import render_top, run_top
from repro.sharding import ShardedTree


def small_tree(n=40):
    tree = SBTree("sum", branching=4, leaf_capacity=4)
    for i in range(n):
        tree.insert(1, Interval(i, i + 5))
    return tree


class TestTreeHealth:
    def test_counts_match_tree_structure(self):
        tree = small_tree()
        health = tree_health(tree)
        assert health["height"] == tree.height
        assert health["nodes"] == tree.store.node_count()
        assert health["leaf_nodes"] + health["interior_nodes"] == health["nodes"]
        assert health["leaf_intervals"] > 0
        assert health["interior_intervals"] > 0
        assert 0 < health["leaf_fill"] <= 1.0
        assert 0 < health["interior_fill"] <= 1.0

    def test_single_leaf_tree(self):
        tree = SBTree("sum", branching=4, leaf_capacity=8)
        tree.insert(1, Interval(0, 10))
        health = tree_health(tree)
        assert health["height"] == 1
        assert health["interior_nodes"] == 0
        assert health["interior_fill"] == 0.0

    def test_paged_tree_reports_storage_gauges(self, tmp_path):
        from repro.storage import PagedNodeStore

        path = str(tmp_path / "health.sbt")
        with PagedNodeStore(path, "sum") as store:
            tree = SBTree("sum", store, branching=4, leaf_capacity=4)
            for i in range(30):
                tree.insert(1, Interval(i, i + 3))
            health = tree_health(tree)
        assert health["page_count"] > 0
        assert health["free_pages"] >= 0
        assert (health["wal_bytes"], health["wal_commits_since_checkpoint"]) == (0, 0)
        assert 0.0 <= health["buffer_hit_rate"] <= 1.0

    def test_journal_gauges_follow_the_transaction_not_the_file(
        self, tmp_path, monkeypatch
    ):
        """The WAL gauges say what the current generation holds beyond
        the data file; a checkpoint empties them, not the file."""
        from repro.storage import PagedNodeStore
        from repro.storage import pager as pager_module

        path = str(tmp_path / "health.sbt")
        with PagedNodeStore(path, "sum") as store:
            tree = SBTree("sum", store, branching=4, leaf_capacity=4)
            for i in range(30):
                tree.insert(1, Interval(i, i + 3))
            store.commit()
            store.commit()  # clean: not a commit
            pending = tree_health(tree)
            assert pending["wal_bytes"] == store.pager.wal_bytes > 0
            assert pending["wal_commits_since_checkpoint"] == 1
            monkeypatch.setattr(pager_module, "WAL_CHECKPOINT_BYTES", 0)
            tree.insert(2, Interval(0, 9))
            store.commit()  # ...and checkpoints
            # The file keeps its high-water size; the gauges start over.
            assert os.path.getsize(path + "-wal") > pending["wal_bytes"]
            cold = tree_health(tree)
            assert (cold["wal_bytes"], cold["wal_commits_since_checkpoint"]) == (0, 0)


class TestShardedHealth:
    def test_report_shape_and_debt(self):
        sharded = ShardedTree("sum", num_shards=4, span=(0, 1000),
                              branching=4, leaf_capacity=4)
        facts = [(1, (i * 7 % 950, i * 7 % 950 + 40)) for i in range(60)]
        sharded.batch_insert(facts)
        health = sharded_health(sharded)
        assert health["facts"] == 60
        assert health["num_shards"] == 4
        assert health["pieces"] >= health["facts"]
        assert health["piece_skew"] >= 1.0
        assert health["compaction_debt"] >= 0.0
        assert len(health["shards"]) == 4
        assert [s["index"] for s in health["shards"]] == [0, 1, 2, 3]

    def test_empty_sharded_tree(self):
        sharded = ShardedTree("sum", num_shards=2, span=(0, 100))
        health = sharded_health(sharded)
        assert health["facts"] == 0
        assert health["piece_skew"] == 0.0
        assert health["compaction_debt"] == 0.0

    def test_record_health_publishes_gauges(self):
        sharded = ShardedTree("sum", num_shards=2, span=(0, 100),
                              branching=4, leaf_capacity=4)
        sharded.batch_insert([(1, (10, 60)), (2, (30, 90))])
        registry = obs.MetricsRegistry()
        record_health(registry, sharded_health(sharded))
        gauges = registry.to_dict()["gauges"]
        assert gauges["health.facts"] == 2.0
        assert gauges["health.num_shards"] == 2.0
        assert "health.shard.0.height" in gauges
        assert "health.shard.1.nodes" in gauges


class TestPromExposition:
    def test_renders_counters_gauges_histograms(self):
        registry = obs.MetricsRegistry()
        registry.counter("service.errors").inc(3)
        registry.gauge("health.facts").set(120.0)
        hist = registry.histogram("op.wall_us", bounds=(10.0, 100.0))
        hist.record(5.0)
        hist.record(50.0)
        hist.record(500.0)
        text = render_prom(registry)
        assert "# TYPE repro_service_errors counter" in text
        assert "repro_service_errors 3" in text
        assert "# TYPE repro_health_facts gauge" in text
        assert "repro_health_facts 120" in text
        assert "# TYPE repro_op_wall_us histogram" in text
        # Buckets must be cumulative and end at +Inf == count.
        assert 'repro_op_wall_us_bucket{le="10"} 1' in text
        assert 'repro_op_wall_us_bucket{le="100"} 2' in text
        assert 'repro_op_wall_us_bucket{le="+Inf"} 3' in text
        assert "repro_op_wall_us_count 3" in text
        assert text.endswith("\n")

    def test_name_sanitisation(self):
        registry = obs.MetricsRegistry()
        registry.counter("service.batch.flushes").inc()
        text = render_prom(registry)
        assert "repro_service_batch_flushes 1" in text


class TestMetricsHTTP:
    def test_serves_metrics_and_404s_elsewhere(self):
        registry = obs.MetricsRegistry()
        registry.counter("fsck.runs").inc(2)
        refreshed = []
        with start_metrics_http(
            registry, 0, extra=lambda: refreshed.append(1)
        ) as server:
            url = f"http://{server.host}:{server.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as resp:
                assert resp.status == 200
                assert "version=0.0.4" in resp.headers["Content-Type"]
                body = resp.read().decode("utf-8")
            assert "repro_fsck_runs 2" in body
            assert refreshed == [1]
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    f"http://{server.host}:{server.port}/nope", timeout=5
                )


def canned_stats(count=10, conns=2):
    return {
        "kind": "sum",
        "shards": {"num_shards": 2, "facts": 50},
        "counters": {
            "service.connections.opened": conns,
            "service.errors": 0,
            "service.batch.flushes": 4,
        },
        "ops": {
            "service.lookup": {
                "count": count,
                "wall_us": {"p50": 120.0, "p95": 900.0, "p99": 2500.0},
            },
        },
        "spans": {
            "tree.insert": {"count": 8, "mean": 45.0, "p95": 90.0},
        },
        "batch": {
            "max": 64, "pending": 3, "size": {"p50": 16.0},
            "oldest_wait_us": {"p50": 80.0, "p95": 1300.0},
        },
        "health": {
            "facts": 50,
            "pieces": 61,
            "piece_skew": 1.3,
            "compaction_debt": 0.4,
            "shards": [
                {"index": 0, "height": 2, "nodes": 5, "leaf_fill": 0.7},
                {"index": 1, "height": 2, "nodes": 4, "leaf_fill": 0.6,
                 "buffer_hit_rate": 0.9, "wal_bytes": 4129,
                 "wal_commits_since_checkpoint": 3},
            ],
        },
    }


class TestTopRendering:
    def test_first_frame_shows_dash_rates(self):
        text = render_top(canned_stats())
        assert "kind=sum shards=2 facts=50" in text
        assert "lookup" in text
        assert "-" in text  # no rate on the first frame
        assert "p50    120us" in text
        assert "span breakdown (traced requests):" in text
        assert "tree.insert" in text
        assert "facts/flush p50 16 (max 64)" in text
        assert "oldest wait p50 80us p95 1.30ms  pending 3" in text
        assert "piece-skew 1.30" in text
        assert "compaction-debt 0.40" in text
        assert "shard 1" in text and "buf-hit" in text
        assert "wal 4129B/3 commits" in text

    def test_rates_differenced_between_frames(self):
        prev = canned_stats(count=10)
        curr = canned_stats(count=30)
        text = render_top(curr, prev, dt=2.0)
        assert "10.0/s" in text

    def test_empty_stats_render(self):
        text = render_top({"kind": "sum"})
        assert "(no requests yet)" in text
        assert "(no health data)" in text


class TestRunTop:
    def test_polls_live_server(self, open_shards):
        sharded = open_shards(num_shards=2, span=(0, 1000),
                              branching=4, leaf_capacity=4)
        with ServerHandle.start(sharded, batch_max=4) as handle:
            with ServiceClient(handle.host, handle.port) as svc:
                svc.batch_insert([[1, 10, 60], [2, 100, 400]])
                svc.lookup(50)
            out = io.StringIO()
            status = run_top(
                handle.host, handle.port,
                interval=0.01, iterations=2, out=out,
            )
        assert status == 0
        text = out.getvalue()
        assert text.count("repro top --") == 2
        assert "facts=2" in text
        assert "group commit:" in text and "oldest wait p50" in text
        assert "shard health:" in text

    def test_unreachable_server_returns_2(self):
        import socket

        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        status = run_top("127.0.0.1", port, iterations=1, out=io.StringIO())
        assert status == 2


class TestStatsServiceOp:
    def test_stats_exposes_health_gauges_and_spans(self, open_shards):
        registry = obs.MetricsRegistry()
        sink = obs.TraceSink(io.StringIO())
        from repro.obs import trace

        trace.enable(sink, sample=1.0, registry=registry)
        try:
            sharded = open_shards(num_shards=2, span=(0, 1000),
                                  branching=4, leaf_capacity=4)
            with ServerHandle.start(
                sharded, batch_max=4, registry=registry
            ) as handle:
                with ServiceClient(handle.host, handle.port) as svc:
                    svc.batch_insert([[1, 10, 60], [3, 200, 700]])
                    svc.lookup(30)
                    stats = svc.stats()
        finally:
            trace.disable()
        assert stats["health"]["facts"] == 2
        assert stats["gauges"]["health.facts"] == 2.0
        assert "tree.insert" in stats["spans"]
        assert "client.request" in stats["spans"]
