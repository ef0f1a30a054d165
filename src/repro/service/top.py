"""``repro top`` -- a live terminal dashboard over a running service.

Polls the ``stats`` service op on an interval and renders, in place:

* **throughput** -- per-op request rates, differenced between polls
  (the ``stats`` op reports monotonic counts, so one snapshot pair
  gives exact rates with no server-side support);
* **latency** -- per-op p50/p95/p99 from the service histograms (bucket
  interpolation happens server-side in ``Histogram.to_dict``);
* **group commit** -- facts per flush, and how long the oldest write of
  a flush queued before the flush took it
  (``service.batch.oldest_wait_us``);
* **span breakdown** -- where traced requests spend their time, from
  the ``span.<name>.wall_us`` histograms (only present while tracing
  runs with a registry);
* **views** -- per-view staleness against the declared ``lag`` target,
  pending source events, row counts and refresh totals from the dynamic
  materialized-view catalog (panel appears once a view exists);
* **health** -- the :func:`repro.obs.health.sharded_health` report the
  ``stats`` op refreshes on every call: fact/piece counts, piece skew,
  compaction debt, and one line per shard (height, nodes, fill,
  buffer hit rate).

Rendering is pure (``render_top(stats, prev, dt) -> str``) so tests
drive it with canned snapshots; :func:`run_top` owns the poll loop and
terminal repaint (ANSI home-and-clear when stdout is a TTY).
"""

from __future__ import annotations

import sys
import time
from typing import Any, Dict, List, Optional

from .client import ServiceClient

__all__ = ["render_top", "run_top"]


def _rate(curr: int, prev: int, dt: Optional[float]) -> Optional[float]:
    if dt is None or dt <= 0:
        return None
    return max(0, curr - prev) / dt


def _fmt_us(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1e6:
        return f"{value / 1e6:.2f}s"
    if value >= 1e3:
        return f"{value / 1e3:.2f}ms"
    return f"{value:.0f}us"


def _op_rows(
    stats: Dict[str, Any],
    prev: Optional[Dict[str, Any]],
    dt: Optional[float],
) -> List[str]:
    rows = []
    ops = stats.get("ops", {})
    prev_ops = (prev or {}).get("ops", {})
    for name in sorted(ops):
        summary = ops[name]
        short = name[len("service."):] if name.startswith("service.") else name
        count = summary.get("count", 0)
        rate = _rate(count, prev_ops.get(name, {}).get("count", 0), dt)
        shown_rate = f"{rate:8.1f}/s" if rate is not None else f"{'-':>10}"
        wall = summary.get("wall_us") or {}
        rows.append(
            f"  {short:<14} {count:>8} {shown_rate}"
            f"  p50 {_fmt_us(wall.get('p50')):>8}"
            f"  p95 {_fmt_us(wall.get('p95')):>8}"
            f"  p99 {_fmt_us(wall.get('p99')):>8}"
        )
    return rows


def _span_rows(stats: Dict[str, Any]) -> List[str]:
    spans = stats.get("spans") or {}
    rows = []
    for name in sorted(spans, key=lambda n: -spans[n].get("mean", 0)):
        hist = spans[name]
        rows.append(
            f"  {name:<18} {hist.get('count', 0):>8}"
            f"  mean {_fmt_us(hist.get('mean')):>8}"
            f"  p95 {_fmt_us(hist.get('p95')):>8}"
        )
    return rows


def _replication_rows(stats: Dict[str, Any]) -> List[str]:
    """The replication panel: lag per replica, or this replica's lag.

    Returns no rows for a standalone primary (the server reports no
    replication section until a follower has ever subscribed).
    """
    repl = stats.get("replication")
    if not repl:
        return []
    if repl.get("role") == "replica":
        staleness = repl.get("staleness_s", -1.0)
        shown = (
            f"{staleness:.2f}s" if staleness is not None and staleness >= 0
            else "never"
        )
        return [
            f"  replica of {repl.get('primary', '?')}"
            f"  applied {repl.get('applied', 0)}"
            f"  head {repl.get('head', 0)}"
            f"  lag {repl.get('lag_commits', 0)} commits"
            f"  staleness {shown}"
            f"  {'connected' if repl.get('connected') else 'DISCONNECTED'}"
        ]
    rows = [
        f"  primary at commit {repl.get('commit', 0)}"
        f"  mode {'semi-sync' if repl.get('sync') else 'async'}"
        + ("  (promoted)" if repl.get("promoted") else "")
    ]
    replicas = repl.get("replicas") or []
    if not replicas:
        rows.append("  (no replicas subscribed)")
    for entry in replicas:
        rows.append(
            f"  {entry.get('name', '?'):<22}"
            f" acked {entry.get('acked', 0):>8}"
            f"  lag {entry.get('lag_commits', 0):>4} commits"
            f" / {entry.get('lag_s', 0.0):6.2f}s"
            f"  {'up' if entry.get('connected') else 'DOWN'}"
        )
    return rows


def _view_rows(stats: Dict[str, Any]) -> List[str]:
    """The materialized-view staleness panel: one line per dynamic view.

    Returns no rows while the catalog is empty (most deployments), so
    the panel only appears once someone has created a view.  Staleness
    is the age of the oldest base-table event not yet reflected in the
    view -- the quantity each view's ``lag`` target bounds.
    """
    views = (stats.get("views") or {}).get("views") or {}
    rows = []
    for name in sorted(views):
        entry = views[name]
        staleness = entry.get("staleness_s")
        shown = f"{staleness:7.2f}s" if staleness is not None else f"{'fresh':>8}"
        line = (
            f"  {name:<14} lag {str(entry.get('lag', '?')):<10}"
            f" stale {shown}"
            f"  pending {entry.get('pending', 0):>5}"
            f"  rows {entry.get('rows', 0):>6}"
            f"  refreshes {entry.get('refreshes', 0):>5}"
        )
        if entry.get("quarantined"):
            # Reads still serve the last-good state (degraded); the
            # operator unblocks refresh with `repro view repair`.
            line += "  QUARANTINED"
        rows.append(line)
    return rows


def _batch_rows(stats: Dict[str, Any]) -> List[str]:
    """Group commit: how big a flush is, and how long its oldest write
    sat in the queue before the flush took it (about one commit while
    writers outrun the disk, about nothing for a lone writer)."""
    batch = stats.get("batch")
    if not batch:
        return []
    size = batch.get("size") or {}
    wait = batch.get("oldest_wait_us") or {}
    return [
        f"  facts/flush p50 {size.get('p50', 0):.0f} (max {batch.get('max', '?')})"
        f"  oldest wait p50 {_fmt_us(wait.get('p50'))}"
        f" p95 {_fmt_us(wait.get('p95'))}"
        f"  pending {batch.get('pending', 0)}"
    ]


def _health_rows(stats: Dict[str, Any]) -> List[str]:
    health = stats.get("health") or {}
    if not health:
        return ["  (no health data)"]
    rows = [
        f"  facts {health.get('facts', 0)}"
        f"  pieces {health.get('pieces', 0)}"
        f"  piece-skew {health.get('piece_skew', 0.0):.2f}"
        f"  compaction-debt {health.get('compaction_debt', 0.0):.2f}"
    ]
    for shard in health.get("shards", ()):
        line = (
            f"  shard {shard['index']:<2} height {shard.get('height', 0)}"
            f"  nodes {shard.get('nodes', 0):>5}"
            f"  leaf-fill {shard.get('leaf_fill', 0.0):5.0%}"
        )
        if "buffer_hit_rate" in shard:
            line += f"  buf-hit {shard['buffer_hit_rate']:5.0%}"
        if "wal_bytes" in shard:
            line += (
                f"  wal {shard['wal_bytes']}B"
                f"/{shard['wal_commits_since_checkpoint']} commits"
            )
        rows.append(line)
    return rows


def render_top(
    stats: Dict[str, Any],
    prev: Optional[Dict[str, Any]] = None,
    dt: Optional[float] = None,
) -> str:
    """One full dashboard frame from a ``stats`` reply (pure function).

    ``prev``/``dt`` are the previous poll's reply and the seconds
    between the polls; rates show ``-`` on the first frame.
    """
    counters = stats.get("counters", {})
    header = (
        f"repro top -- kind={stats.get('kind', '?')}"
        f" shards={stats.get('shards', {}).get('num_shards', '?')}"
        f" facts={stats.get('shards', {}).get('facts', '?')}"
        f" conns={counters.get('service.connections.opened', 0)}"
        f" errors={counters.get('service.errors', 0)}"
        f" flushes={counters.get('service.batch.flushes', 0)}"
    )
    sections = [header, "", "ops:"]
    sections.extend(_op_rows(stats, prev, dt) or ["  (no requests yet)"])
    batch_rows = _batch_rows(stats)
    if batch_rows:
        sections.append("")
        sections.append("group commit:")
        sections.extend(batch_rows)
    span_rows = _span_rows(stats)
    if span_rows:
        sections.append("")
        sections.append("span breakdown (traced requests):")
        sections.extend(span_rows)
    repl_rows = _replication_rows(stats)
    if repl_rows:
        sections.append("")
        sections.append("replication:")
        sections.extend(repl_rows)
    view_rows = _view_rows(stats)
    if view_rows:
        sections.append("")
        sections.append("views (staleness vs lag target):")
        sections.extend(view_rows)
    sections.append("")
    sections.append("shard health:")
    sections.extend(_health_rows(stats))
    return "\n".join(sections)


def run_top(
    host: str,
    port: int,
    *,
    interval: float = 1.0,
    iterations: Optional[int] = None,
    out=None,
    timeout: float = 5.0,
) -> int:
    """Poll a server and repaint the dashboard until interrupted.

    ``iterations`` bounds the number of frames (None = run until ^C);
    returns 0 on a clean exit, 2 if the first poll cannot connect.
    """
    out = out if out is not None else sys.stdout
    clear = getattr(out, "isatty", lambda: False)()
    prev: Optional[Dict[str, Any]] = None
    prev_at: Optional[float] = None
    frame = 0
    try:
        with ServiceClient(host, port, timeout=timeout) as client:
            while iterations is None or frame < iterations:
                try:
                    stats = client.stats()
                except ConnectionError as exc:
                    if prev is None:
                        print(f"error: cannot poll {host}:{port}: {exc}",
                              file=sys.stderr)
                        return 2
                    raise
                now = time.monotonic()
                dt = now - prev_at if prev_at is not None else None
                text = render_top(stats, prev, dt)
                if clear:
                    out.write("\x1b[2J\x1b[H")
                out.write(text + "\n")
                out.flush()
                prev, prev_at = stats, now
                frame += 1
                if iterations is not None and frame >= iterations:
                    break
                time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
