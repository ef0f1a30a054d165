"""SB-tree structural-health telemetry and Prometheus-style exposition.

The paper's cost model only holds while the tree stays healthy: lookups
are O(h) *if* height tracks log n, range queries are O(h + r) *if*
compaction keeps the interior-interval population from outgrowing the
fact population, and the I/O-per-op numbers assume a working buffer
pool.  This module measures exactly those preconditions, periodically:

* :func:`tree_health` walks one tree (breadth-first through its store)
  and reports height, node counts, leaf/interior occupancy, interval
  populations, plus the storage-side gauges -- estimated free-list
  length, the open transaction's journal bytes, buffer hit ratio, page
  count;
* :func:`sharded_health` does that per shard of a
  :class:`~repro.sharding.ShardedTree` (under each shard's read lock)
  and adds the routing-level gauges: fact and piece counts, per-shard
  piece skew (max/mean), and **compaction debt** -- the ratio of
  interior intervals to facts, the quantity the paper's ``bmerge`` is
  there to keep bounded;
* :func:`record_health` publishes a health report as named
  :class:`~repro.obs.Gauge`\\ s on a registry (the service server does
  this on a timer and on every ``stats`` request);
* :func:`render_prom` renders a whole registry -- counters, gauges,
  histograms (as cumulative ``_bucket{le=...}`` series) -- in the
  Prometheus text exposition format, and :func:`start_metrics_http`
  serves it over HTTP (``repro serve --metrics-port``).

The walk reads nodes through the store's normal read path, so a poll
warms the buffer like any reader; it takes the shard read lock, so it
never observes a half-applied write.
"""

from __future__ import annotations

import http.server
import re
import threading
from typing import Any, Dict, List, Optional, Tuple

from . import MetricsRegistry

__all__ = [
    "tree_health",
    "sharded_health",
    "record_health",
    "render_prom",
    "start_metrics_http",
    "MetricsHTTPServer",
]


def tree_health(tree) -> Dict[str, Any]:
    """Structural and storage health of one tree, as a flat dict."""
    store = tree.store
    per_level: List[int] = []
    leaf_nodes = interior_nodes = 0
    leaf_intervals = interior_intervals = 0
    stack: List[Tuple[Any, int]] = [(store.get_root(), 0)]
    while stack:
        node_id, depth = stack.pop()
        while len(per_level) <= depth:
            per_level.append(0)
        per_level[depth] += 1
        node = store.read(node_id)
        if node.is_leaf:
            leaf_nodes += 1
            leaf_intervals += node.interval_count
        else:
            interior_nodes += 1
            interior_intervals += node.interval_count
            for child in node.children:
                stack.append((child, depth + 1))
    health: Dict[str, Any] = {
        "height": len(per_level),
        "nodes": leaf_nodes + interior_nodes,
        "leaf_nodes": leaf_nodes,
        "interior_nodes": interior_nodes,
        "leaf_intervals": leaf_intervals,
        "interior_intervals": interior_intervals,
        "leaf_fill": (
            leaf_intervals / (leaf_nodes * tree.l) if leaf_nodes else 0.0
        ),
        "interior_fill": (
            interior_intervals / (interior_nodes * tree.b)
            if interior_nodes
            else 0.0
        ),
    }
    pager = getattr(store, "pager", None)
    if pager is not None:
        live = store.node_count()
        health["page_count"] = pager.page_count
        # Every non-header page is either a live node or free-list
        # space; the difference is the free-list length without an
        # O(free) chain walk each poll (fsck does the exact audit).
        health["free_pages"] = max(0, pager.page_count - 1 - live)
        # The journal file outlives its transactions, so its size says
        # nothing: report whether one is open and what it has written.
        health["journal_hot"] = pager.in_transaction()
        health["journal_bytes"] = pager.journal_bytes
    buffer = getattr(store, "buffer", None)
    if buffer is not None:
        health["buffer_hit_rate"] = buffer.stats.hit_rate
    return health


def sharded_health(sharded) -> Dict[str, Any]:
    """Per-shard :func:`tree_health` plus routing-level skew and debt."""
    shards: List[Dict[str, Any]] = []
    total_interior = 0
    for index, shard in enumerate(sharded.shards):
        with shard.lock.read_locked(shard.read_timeout):
            entry = tree_health(shard.tree)
        entry["index"] = index
        entry["pieces"] = sharded.pieces_applied[index]
        total_interior += entry["interior_intervals"]
        shards.append(entry)
    pieces = [entry["pieces"] for entry in shards]
    mean_pieces = sum(pieces) / len(pieces) if pieces else 0.0
    facts = sharded.facts_applied
    return {
        "facts": facts,
        "pieces": sum(pieces),
        "num_shards": len(shards),
        # How unevenly the time partitioning spreads the write load:
        # 1.0 is perfectly even, k means the hottest shard holds k
        # times the mean.
        "piece_skew": (max(pieces) / mean_pieces) if mean_pieces else 0.0,
        # The paper's compaction target: interior intervals accumulate
        # with every insert and only bmerge removes them, so this ratio
        # growing past O(1) means range queries are paying for debt.
        "compaction_debt": (total_interior / facts) if facts else 0.0,
        "shards": shards,
    }


def record_health(registry: MetricsRegistry, health: Dict[str, Any]) -> None:
    """Publish a :func:`sharded_health` report as ``health.*`` gauges."""
    for key in ("facts", "pieces", "num_shards", "piece_skew", "compaction_debt"):
        if key in health:
            registry.gauge(f"health.{key}").set(float(health[key]))
    for entry in health.get("shards", ()):
        prefix = f"health.shard.{entry['index']}."
        for key, value in entry.items():
            if key != "index" and isinstance(value, (int, float)):
                registry.gauge(prefix + key).set(float(value))


def record_view_gauges(registry: MetricsRegistry, stats: Dict[str, Any]) -> None:
    """Publish a dynamic-view catalog's stats as ``service.views.*`` gauges.

    One gauge family per view -- ``staleness_s``, ``pending``, ``rows``,
    ``refreshes``, ``watermark`` (the highest source sequence consumed),
    ``quarantined`` (0/1) -- plus the catalog-wide
    ``service.views.count`` and ``service.views.quarantined``.  These
    are what the ``repro top`` staleness panel and the Prometheus
    exposition read.
    """
    views = stats.get("views", {})
    registry.gauge("service.views.count").set(float(len(views)))
    registry.gauge("service.views.quarantined").set(
        float(sum(1 for entry in views.values() if entry.get("quarantined")))
    )
    for name, entry in views.items():
        prefix = f"service.views.{name}."
        for key in ("staleness_s", "pending", "rows", "refreshes"):
            value = entry.get(key)
            if isinstance(value, (int, float)):
                registry.gauge(prefix + key).set(float(value))
        registry.gauge(prefix + "quarantined").set(
            1.0 if entry.get("quarantined") else 0.0
        )
        watermarks = entry.get("watermarks") or {}
        numeric = [v for v in watermarks.values() if isinstance(v, (int, float))]
        if numeric:
            registry.gauge(prefix + "watermark").set(float(max(numeric)))


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return "repro_" + _NAME_OK.sub("_", name)


def _prom_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def render_prom(registry: MetricsRegistry) -> str:
    """One registry in the Prometheus text format (version 0.0.4).

    Counters and gauges map directly; histograms become the cumulative
    ``<name>_bucket{le="..."}`` series plus ``_sum`` and ``_count``,
    with the overflow bucket as ``le="+Inf"``.
    """
    snapshot = registry.to_dict()
    lines: List[str] = []
    for name in sorted(snapshot["counters"]):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(snapshot['counters'][name])}")
    for name in sorted(snapshot.get("gauges", ())):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(snapshot['gauges'][name])}")
    histograms = snapshot["histograms"]
    for name in sorted(histograms):
        h = histograms[name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        bounds = [
            float("inf") if b == "inf" else float(b) for b in h["bounds"]
        ]
        buckets = {
            (float("inf") if k == "inf" else float(k)): v
            for k, v in h["buckets"].items()
        }
        cumulative = 0
        for bound in bounds:
            cumulative += buckets.get(bound, 0)
            le = "+Inf" if bound == float("inf") else _prom_value(bound)
            lines.append(f'{prom}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{prom}_sum {_prom_value(h['mean'] * h['count'])}")
        lines.append(f"{prom}_count {h['count']}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The /metrics endpoint
# ----------------------------------------------------------------------
class MetricsHTTPServer:
    """A background thread serving ``/metrics`` for one registry.

    Stdlib ``http.server`` on a daemon thread: GET ``/metrics`` renders
    :func:`render_prom` (plus anything the optional ``extra`` callback
    wants to refresh first -- the service server passes its health
    poll), anything else is 404.  ``close()`` shuts the listener down.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        extra=None,
    ) -> None:
        outer = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404, "try /metrics")
                    return
                if outer.extra is not None:
                    try:
                        outer.extra()
                    except Exception:  # noqa: BLE001 - keep serving
                        pass
                body = render_prom(outer.registry).encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-request noise
                pass

        self.registry = registry
        self.extra = extra
        self._httpd = http.server.ThreadingHTTPServer((host, port), Handler)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsHTTPServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def start_metrics_http(
    registry: MetricsRegistry,
    port: int,
    *,
    host: str = "127.0.0.1",
    extra=None,
) -> MetricsHTTPServer:
    """Serve ``/metrics`` for *registry* on ``host:port`` (0 = ephemeral)."""
    return MetricsHTTPServer(registry, host=host, port=port, extra=extra)
