"""Command-line interface for SB-tree page files.

Operate on the persistent index files produced by
:class:`repro.storage.PagedNodeStore`::

    python -m repro build  index.sbt --kind sum --csv facts.csv
    python -m repro inspect index.sbt
    python -m repro dump   index.sbt
    python -m repro lookup index.sbt 19
    python -m repro range  index.sbt 14 28
    python -m repro verify index.sbt
    python -m repro fsck   index.sbt --repair
    python -m repro compact index.sbt
    python -m repro stats  index.sbt --lookups 200
    python -m repro tql "SUM(value) OVER rx AT 19" --table rx=facts.csv
    python -m repro serve --kind sum --shards 4 --lo 0 --hi 100000 \
        --metrics-port 9095
    python -m repro top --port 7071

Under ``--trace FILE``, service commands additionally run request
tracing: ``serve`` hangs its server/flush/shard/tree spans below each
traced request, the client verbs (``view``, ``promote``, ``top``) open
one head-sampled trace per request (``--trace-sample`` is the sampling
fraction), and the span records land in the same JSON-lines FILE as the
per-op records.

Every subcommand accepts ``--trace FILE`` (plus ``--trace-sample``) to
record one JSON line per tree operation -- pages read, buffer
hits/misses, physical I/Os, wall time -- via :mod:`repro.obs`;
``stats`` runs a probe workload and prints the per-operation metrics
table.

CSV input for ``build`` has one fact per line: ``value,start,end``
(numbers; a header line is tolerated and skipped).  CSVs for ``tql``
need a header with at least ``value,start,end``; extra columns become
payload attributes usable in WHEN/PARTITION BY clauses.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import List, Optional

from . import obs
from .core.intervals import Interval, is_finite
from .core.msbtree import MSBTree
from .core.sbtree import SBTree
from .core.validate import TreeInvariantError, check_tree
from .core.values import AggregateKind
from .storage import PagedNodeStore

__all__ = ["main"]


def _number(text: str) -> float:
    value = float(text)
    return int(value) if value == int(value) else value


def _open_tree(path: str, buffer_capacity: int = 256):
    # Opening a missing path would create an empty page file; querying
    # commands must fail cleanly instead.
    if not os.path.exists(path):
        raise SystemExit(f"error: no such index file: {path}")
    store = PagedNodeStore(path, buffer_capacity=buffer_capacity)
    kind = store.get_meta("kind")
    if kind in ("min", "max") and store.get_meta("msb") == "1":
        return store, MSBTree(store=store)
    return store, SBTree(store=store)


def cmd_build(args: argparse.Namespace) -> int:
    store = PagedNodeStore(
        args.file, args.kind, page_size=args.page_size, buffer_capacity=256
    )
    tree_cls = MSBTree if args.msb else SBTree
    if args.msb:
        store.set_meta("msb", "1")
    branching = args.branching or min(
        store.default_branching_annotated if args.msb else store.default_branching,
        1024,
    )
    leaf_capacity = args.leaf_capacity or min(store.default_leaf_capacity, 1024)
    tree = tree_cls(
        args.kind, store, branching=branching, leaf_capacity=leaf_capacity
    )
    count = 0
    with open(args.csv, newline="") as handle:
        for row in csv.reader(handle):
            try:
                value, start, end = (_number(cell) for cell in row[:3])
            except (ValueError, IndexError):
                continue  # tolerate header and blank lines
            tree.insert(value, Interval(start, end))
            count += 1
    store.close()
    print(f"built {args.kind} tree over {count} facts -> {args.file}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    store, tree = _open_tree(args.file)
    pager = store.pager
    per_level: List[int] = []
    interior_fill: List[int] = []
    leaf_fill: List[int] = []

    def walk(node_id, depth):
        while len(per_level) <= depth:
            per_level.append(0)
        per_level[depth] += 1
        node = store.read(node_id)
        if node.is_leaf:
            leaf_fill.append(node.interval_count)
        else:
            interior_fill.append(node.interval_count)
            for child in node.children:
                walk(child, depth + 1)

    walk(store.get_root(), 0)
    print(f"file         : {args.file}")
    print(f"kind         : {tree.kind.value}")
    print(f"structure    : {'MSB-tree' if isinstance(tree, MSBTree) else 'SB-tree'}")
    print(f"branching    : b={tree.b} l={tree.l}")
    print(f"page size    : {pager.page_size} bytes")
    print(f"pages        : {pager.page_count} ({pager.page_count * pager.page_size / 1024:.0f} KiB)")
    print(f"live nodes   : {store.node_count()}")
    print(f"height       : {len(per_level)}")
    print(f"nodes/level  : {per_level}")
    if leaf_fill:
        print(f"leaf fill    : {sum(leaf_fill) / (len(leaf_fill) * tree.l):.0%}")
    if interior_fill:
        print(f"interior fill: {sum(interior_fill) / (len(interior_fill) * tree.b):.0%}")
    print(f"constant ivls: {len(tree.to_table())}")
    store.close()
    return 0


def cmd_dump(args: argparse.Namespace) -> int:
    store, tree = _open_tree(args.file)
    table = tree.to_table().finalized(tree.spec).coalesce()
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            table.to_csv(handle)
        print(f"wrote {len(table)} rows to {args.csv}")
        store.close()
        return 0
    rows = table.rows[: args.limit] if args.limit else table.rows
    print(f"{'value':>14}  valid")
    for value, interval in rows:
        shown = f"{value:.4g}" if isinstance(value, float) else str(value)
        print(f"{shown:>14}  {interval}")
    if args.limit and len(table.rows) > args.limit:
        print(f"... {len(table.rows) - args.limit} more rows")
    store.close()
    return 0


def cmd_lookup(args: argparse.Namespace) -> int:
    store, tree = _open_tree(args.file)
    t = _number(args.instant)
    if args.window is not None:
        if not isinstance(tree, MSBTree):
            print(
                "error: --window lookups need an MSB-tree file "
                "(build with --msb), or use a fixed-window tree",
                file=sys.stderr,
            )
            store.close()
            return 2
        value = tree.spec.finalize(tree.window_lookup(t, _number(args.window)))
    else:
        value = tree.lookup_final(t)
    print(value)
    store.close()
    return 0


def cmd_range(args: argparse.Namespace) -> int:
    store, tree = _open_tree(args.file)
    window = Interval(_number(args.start), _number(args.end))
    table = tree.range_query(window).coalesce(tree.spec.eq).finalized(tree.spec)
    for value, interval in table:
        shown = f"{value:.4g}" if isinstance(value, float) else str(value)
        print(f"{shown:>14}  {interval}")
    store.close()
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    store, tree = _open_tree(args.file)
    try:
        check_tree(tree)
    except TreeInvariantError as exc:
        print(f"INVALID: {exc}")
        store.close()
        return 1
    print(
        f"ok: {tree.kind.value} tree, height {tree.height}, "
        f"{store.node_count()} nodes, all invariants hold"
    )
    store.close()
    return 0


def cmd_fsck(args: argparse.Namespace) -> int:
    """Offline page-file audit (and optional repair).

    Unlike ``verify`` (which walks the *tree* through the normal read
    path), ``fsck`` works on the raw bytes: header sanity, a full
    checksum sweep, free-list audit (cycles, double links, bad ids),
    reachability/orphan analysis from the root, and write-ahead-log
    inspection (a pending WAL is audited as its replay will leave the
    file).  ``--repair`` settles the WAL, quarantines corrupt pages and
    rebuilds the free list; it never invents tree data.

    A ``.json`` path is audited as a dynamic-view catalog checkpoint
    (``dynamic.json``) instead: structure, change-log density, and
    per-view watermark/dependency consistency (``--repair`` does not
    apply -- recovery is the load path's ``.prev`` fallback).
    """
    import json as _json

    from .storage import fsck as run_fsck
    from .storage import fsck_dynamic

    if not os.path.exists(args.file):
        print(f"error: no such index file: {args.file}", file=sys.stderr)
        return 2
    if args.file.endswith(".json"):
        report = fsck_dynamic(args.file)
    else:
        report = run_fsck(args.file, repair=args.repair)
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _load_relation_csv(name: str, path: str):
    """Load a CSV into a relation.

    The first line is a header.  Columns ``value``, ``start`` and
    ``end`` are required; any further columns become tuple payload
    attributes (numeric strings are converted).
    """
    from .relation import TemporalRelation

    relation = TemporalRelation(name)
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        required = {"value", "start", "end"}
        header = set(reader.fieldnames or [])
        if not required <= header:
            raise SystemExit(
                f"error: {path} needs columns value,start,end (found {sorted(header)})"
            )
        for line in reader:
            payload = {}
            for key, raw in line.items():
                if key in required or raw is None:
                    continue
                try:
                    payload[key] = _number(raw)
                except ValueError:
                    payload[key] = raw
            relation.insert(
                _number(line["value"]),
                Interval(_number(line["start"]), _number(line["end"])),
                **payload,
            )
    return relation


def cmd_tql(args: argparse.Namespace) -> int:
    from .core.results import ConstantIntervalTable
    from .tql import TQLError, execute

    relations = {}
    for spec_text in args.table:
        name, _, path = spec_text.partition("=")
        if not path:
            print(f"error: --table expects name=path, got {spec_text!r}", file=sys.stderr)
            return 2
        relations[name] = _load_relation_csv(name, path)
    try:
        result = execute(args.statement, relations)
    except TQLError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def show_table(table, indent=""):
        for value, interval in table:
            shown = f"{value:.4g}" if isinstance(value, float) else str(value)
            print(f"{indent}{shown:>14}  {interval}")

    if isinstance(result, ConstantIntervalTable):
        show_table(result)
    elif isinstance(result, dict):
        for key, value in result.items():
            if isinstance(value, ConstantIntervalTable):
                print(f"{key}:")
                show_table(value, indent="  ")
            else:
                print(f"{key}: {value}")
    else:
        print(result)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Probe an index file and print per-operation metrics.

    Runs ``--lookups`` point lookups spread over the indexed span (cold
    buffer first, then warm), plus a handful of range queries, all under
    :mod:`repro.obs`, then prints the per-op table: count, wall-time
    percentiles, logical node reads, buffer hits/misses, physical page
    I/Os -- the paper's Figure-23 quantities, per operation.
    """
    was_enabled = obs.is_enabled()
    registry = obs.get_registry() if was_enabled else obs.enable(obs.MetricsRegistry())
    store, tree = _open_tree(args.file, buffer_capacity=args.buffer)

    # The probe span: the uppermost node's separators bound the data
    # span well enough, without a full-tree scan polluting the metrics.
    node = tree._root()
    while not node.times and not node.is_leaf:
        node = tree._read(node.children[0])
    finite = [t for t in node.times if is_finite(t)]
    lo, hi = (min(finite), max(finite)) if finite else (0, 1)
    span = (hi - lo) or 1
    probes = [lo + span * i / max(1, args.lookups - 1) for i in range(args.lookups)]

    for t in probes:
        tree.lookup(t)
    for i in range(args.ranges):
        start = lo + span * i / max(1, args.ranges)
        tree.range_query(Interval(start, min(hi, start + span / 10)))
    if isinstance(tree, MSBTree):
        for t in probes[:: max(1, len(probes) // 16)]:
            tree.window_lookup(t, span / 8)

    fmt = getattr(args, "format", "table")
    if fmt == "json":
        import json as _json

        from .obs.health import tree_health

        print(
            _json.dumps(
                {
                    "file": args.file,
                    "kind": tree.kind.value,
                    "health": tree_health(tree),
                    "metrics": registry.to_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
    elif fmt == "prom":
        from .obs.health import render_prom, tree_health

        for key, value in tree_health(tree).items():
            if isinstance(value, (int, float)):
                registry.gauge(f"health.{key}").set(float(value))
        print(render_prom(registry), end="")
    else:
        print(f"file   : {args.file}")
        print(f"kind   : {tree.kind.value}  height: {tree.height}  "
              f"nodes: {store.node_count()}  buffer: {args.buffer} frames")
        print()
        print(registry.render())
        print()
        bs, ps = store.buffer.stats, store.pager.stats
        print(
            f"totals : buffer hits={bs.hits} misses={bs.misses} "
            f"evictions={bs.evictions} hit-rate={bs.hit_rate:.1%} | "
            f"physical reads={ps.physical_reads} writes={ps.physical_writes} "
            f"fsyncs={ps.fsyncs}"
        )
    store.close()
    if not was_enabled:
        obs.disable()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the sharded temporal-aggregate service in the foreground.

    Builds a :class:`~repro.sharding.ShardedTree` (optionally with one
    persistent page file per shard under ``--paged DIR``, optionally
    seeded from a ``value,start,end`` CSV), binds the asyncio TCP
    server, and serves until SIGINT/SIGTERM, then drains gracefully.

    ``--csv`` seeds only a directory in which no shard file has a
    committed root.  Any root counts as data: a directory first served
    without ``--csv`` is never seeded later, and a multi-shard seed
    killed after some shards committed is not resumed on restart.
    """
    import asyncio
    import signal

    from .sharding import ShardedTree, ShardingError
    from .service.server import TemporalAggregateServer

    boundaries = None
    if args.boundaries:
        boundaries = [_number(b) for b in args.boundaries.split(",")]
    stores = None
    if args.paged:
        num = (len(boundaries) + 1) if boundaries is not None else args.shards
        os.makedirs(args.paged, exist_ok=True)
        stores = [
            PagedNodeStore(
                os.path.join(args.paged, f"shard-{i}.sbt"),
                args.kind,
                journaled=args.journal,
            )
            for i in range(num)
        ]
    # Decided before the trees exist (a new SBTree allocates a root): a
    # restart over page files that already hold a tree serves them as
    # they are -- seeding again would apply every fact a second time.
    seed = args.csv
    if seed and stores and any(s.get_root() is not None for s in stores):
        print(f"skipping --csv: {args.paged} already holds data")
        seed = None
    try:
        if boundaries is not None:
            sharded = ShardedTree(args.kind, boundaries, stores=stores)
        else:
            sharded = ShardedTree(
                args.kind,
                num_shards=args.shards,
                span=(_number(args.lo), _number(args.hi)),
                stores=stores,
            )
    except ShardingError as exc:
        raise SystemExit(f"error: {exc}")

    if seed:
        facts = []
        with open(seed, newline="") as handle:
            for row in csv.reader(handle):
                try:
                    value, start, end = (_number(cell) for cell in row[:3])
                except (ValueError, IndexError):
                    continue  # tolerate header and blank lines
                facts.append((value, Interval(start, end)))
        sharded.batch_insert(facts)
        print(f"seeded {len(facts)} facts from {args.csv}")

    server = TemporalAggregateServer(
        sharded,
        host=args.host,
        port=args.port,
        batch_max=args.batch_max,
        health_interval=args.health_interval,
        max_inflight=args.max_inflight,
        dedup_window=args.dedup_window,
        replica_of=args.replica_of,
        replica_name=args.replica_name,
        repl_sync=not args.repl_async,
        repl_ack_timeout=args.repl_ack_timeout,
        # Under --trace the CLI registry already folds span durations;
        # sharing it makes the stats op serve them too.
        registry=obs.get_registry() if obs.is_enabled() else None,
    )
    metrics_http = None
    if args.metrics_port is not None:
        from .obs.health import start_metrics_http

        metrics_http = start_metrics_http(
            server.registry,
            args.metrics_port,
            host=args.host,
            extra=server.refresh_health,
        )
        print(
            f"metrics on http://{metrics_http.host}:{metrics_http.port}/metrics",
            flush=True,
        )

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGINT, stop.set)
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except NotImplementedError:  # pragma: no cover - non-unix loops
            pass
        await server.start()
        role = (
            f"replica of {args.replica_of}" if args.replica_of else "primary"
        )
        print(
            f"serving {sharded.kind.value} over {sharded.num_shards} shards"
            f" on {server.host}:{server.port} ({role})",
            flush=True,
        )
        await stop.wait()
        print("draining...", flush=True)
        await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    finally:
        if metrics_http is not None:
            metrics_http.close()
        sharded.close()
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a running service (throughput, latency,
    span breakdown, per-shard health); ^C exits."""
    from .service.top import run_top

    return run_top(
        args.host,
        args.port,
        interval=args.interval,
        iterations=args.iterations,
    )


def cmd_view(args: argparse.Namespace) -> int:
    """Manage dynamic materialized views on a running service.

    Verbs: ``create`` declares a view over a base table or another
    view, ``insert`` feeds change rows into a base table, ``query``
    reads one or more views at an instant (with ``--pin`` for a
    consistent multi-view snapshot), ``stats`` dumps the catalog,
    ``refresh`` forces a refresh, ``drop`` removes a view, and
    ``repair`` clears a quarantined view and retries its refresh.
    """
    import json

    from .service.client import ServiceClient, ServiceError

    verb = args.view_command
    try:
        with ServiceClient(args.host, args.port, timeout=15.0) as svc:
            if verb == "create":
                result = svc.create_view(
                    args.name, args.over, args.agg,
                    key=args.key, lag=args.lag,
                )
                print(
                    f"created view {result['name']!r}"
                    f" over {', '.join(result['sources'])}"
                    f" agg={result['agg']}"
                    + (f" key={result['key']}" if result.get("key") else "")
                    + f" lag={result['lag']}"
                )
            elif verb == "insert":
                rows = []
                for spec in args.row:
                    parts = spec.split(",")
                    if len(parts) < 3:
                        raise SystemExit(
                            f"error: --row needs value,start,end[,key]: {spec!r}"
                        )
                    row = [_number(parts[0]), _number(parts[1]), _number(parts[2])]
                    if len(parts) > 3:
                        row.append(",".join(parts[3:]))
                    rows.append(row)
                applied = svc.table_insert(args.table, rows)
                print(f"applied {applied} rows to {args.table!r}")
            elif verb == "query":
                if len(args.name) > 1 or args.pin:
                    result = svc.query_views(
                        args.name, _number(args.at), pin=args.pin
                    )
                    for name in args.name:
                        reading = result["views"][name]
                        print(f"{name}: {json.dumps(reading, sort_keys=True)}")
                else:
                    reading = svc.query_view(
                        args.name[0], _number(args.at), key=args.key
                    )
                    print(json.dumps(reading, sort_keys=True))
            elif verb == "stats":
                print(json.dumps(svc.view_stats(), indent=2, sort_keys=True))
            elif verb == "refresh":
                result = svc.refresh_view(args.name)
                refreshed = result.get("refreshed") or {}
                shown = ", ".join(
                    f"{k}+{v}" for k, v in sorted(refreshed.items())
                ) or "(nothing stale)"
                print(f"refreshed: {shown} ({result.get('events', 0)} events)")
            elif verb == "repair":
                result = svc.repair_view(args.name)
                refreshed = result.get("refreshed") or {}
                shown = ", ".join(
                    f"{k}+{v}" for k, v in sorted(refreshed.items())
                ) or "(nothing stale)"
                was = (
                    "was quarantined"
                    if result.get("was_quarantined")
                    else "was not quarantined"
                )
                print(f"repaired {result['repaired']!r} ({was}): {shown}")
            else:  # drop
                result = svc.drop_view(args.name)
                print(f"dropped view {result['dropped']!r}")
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}")
    except ConnectionError as exc:
        raise SystemExit(f"error: cannot reach {args.host}:{args.port}: {exc}")
    return 0


def cmd_promote(args: argparse.Namespace) -> int:
    """Promote the replica at ``--host:--port`` to primary."""
    from .service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.host, args.port, timeout=15.0) as svc:
            result = svc._request("promote")
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}")
    except ConnectionError as exc:
        raise SystemExit(
            f"error: cannot reach {args.host}:{args.port}: {exc}"
        )
    if result.get("promoted"):
        print(f"promoted: now primary at commit {result.get('commit')}")
    else:
        print(
            f"already {result.get('role', 'primary')}"
            f" at commit {result.get('commit')}"
        )
    return 0


def cmd_readscale(args: argparse.Namespace) -> int:
    """Measure read scaling across replica counts (see
    :mod:`repro.service.readscale`); writes BENCH_service.json."""
    from .service.readscale import main as readscale_main

    return readscale_main(args)


def cmd_compact(args: argparse.Namespace) -> int:
    store, tree = _open_tree(args.file)
    before = store.node_count()
    tree.compact()
    store.flush()
    print(f"compacted: {before} -> {store.node_count()} nodes")
    store.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Inspect and query SB-tree / MSB-tree index files.",
    )
    # Options shared by every subcommand (repro.obs tracing).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace",
        metavar="FILE",
        help="append one JSON line per tree operation (wall time, node "
        "reads, buffer hits/misses, physical I/Os) to FILE",
    )
    common.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="FRACTION",
        help="keep this fraction of trace records (deterministic sampling)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser(
        "build", parents=[common], help="build an index from a CSV of facts"
    )
    p_build.add_argument("file")
    p_build.add_argument("--kind", required=True,
                         choices=[k.value for k in AggregateKind])
    p_build.add_argument("--csv", required=True, help="value,start,end per line")
    p_build.add_argument("--msb", action="store_true",
                         help="build an MSB-tree (MIN/MAX, windowed lookups)")
    p_build.add_argument("--page-size", type=int, default=4096)
    p_build.add_argument("--branching", type=int)
    p_build.add_argument("--leaf-capacity", type=int)
    p_build.set_defaults(fn=cmd_build)

    p_inspect = sub.add_parser("inspect", parents=[common], help="show file and tree statistics")
    p_inspect.add_argument("file")
    p_inspect.set_defaults(fn=cmd_inspect)

    p_dump = sub.add_parser("dump", parents=[common], help="print the aggregate's constant intervals")
    p_dump.add_argument("file")
    p_dump.add_argument("--limit", type=int, default=0)
    p_dump.add_argument("--csv", help="write value,start,end rows to a CSV file")
    p_dump.set_defaults(fn=cmd_dump)

    p_lookup = sub.add_parser("lookup", parents=[common], help="aggregate value at an instant")
    p_lookup.add_argument("file")
    p_lookup.add_argument("instant")
    p_lookup.add_argument("--window", help="cumulative window offset (MSB files)")
    p_lookup.set_defaults(fn=cmd_lookup)

    p_range = sub.add_parser("range", parents=[common], help="aggregate values over [start, end)")
    p_range.add_argument("file")
    p_range.add_argument("start")
    p_range.add_argument("end")
    p_range.set_defaults(fn=cmd_range)

    p_verify = sub.add_parser("verify", parents=[common], help="audit all structural invariants")
    p_verify.add_argument("file")
    p_verify.set_defaults(fn=cmd_verify)

    p_fsck = sub.add_parser(
        "fsck", parents=[common],
        help="offline integrity audit of the raw page file "
        "(checksums, free list, reachability, write-ahead log); a .json path "
        "is audited as a dynamic-view catalog checkpoint",
    )
    p_fsck.add_argument("file")
    p_fsck.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt pages and rebuild the free list",
    )
    p_fsck.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_fsck.set_defaults(fn=cmd_fsck)

    p_compact = sub.add_parser("compact", parents=[common], help="batch-compact the tree (bmerge)")
    p_compact.add_argument("file")
    p_compact.set_defaults(fn=cmd_compact)

    p_stats = sub.add_parser(
        "stats", parents=[common],
        help="probe the index and print per-operation I/O and latency metrics",
    )
    p_stats.add_argument("file")
    p_stats.add_argument(
        "--lookups", type=int, default=100,
        help="number of point lookups to probe with (default 100)",
    )
    p_stats.add_argument(
        "--ranges", type=int, default=8,
        help="number of range queries to probe with (default 8)",
    )
    p_stats.add_argument(
        "--buffer", type=int, default=64,
        help="buffer pool frames for the probe run (default 64)",
    )
    p_stats.add_argument(
        "--format", choices=["table", "json", "prom"], default="table",
        help="output format: human table, JSON (with histogram bucket "
        "bounds), or Prometheus text exposition",
    )
    p_stats.set_defaults(fn=cmd_stats)

    p_serve = sub.add_parser(
        "serve", parents=[common],
        help="run the sharded temporal-aggregate TCP service",
    )
    p_serve.add_argument("--kind", required=True,
                         choices=[k.value for k in AggregateKind])
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7071,
                         help="TCP port (0 picks an ephemeral port)")
    p_serve.add_argument("--shards", type=int, default=4,
                         help="number of time-range shards (default 4)")
    p_serve.add_argument("--lo", default="0",
                         help="span start for even shard boundaries")
    p_serve.add_argument("--hi", default="1000000",
                         help="span end for even shard boundaries")
    p_serve.add_argument("--boundaries",
                         help="explicit comma-separated shard cut points "
                         "(overrides --shards/--lo/--hi)")
    p_serve.add_argument("--csv", help="seed facts from value,start,end CSV")
    p_serve.add_argument("--paged", metavar="DIR",
                         help="persist each shard as DIR/shard-<i>.sbt")
    p_serve.add_argument("--journal", action="store_true",
                         help="journal shard page files (with --paged): "
                         "group commits become durable and the dedup "
                         "window survives restarts")
    p_serve.add_argument("--dedup-window", type=int, default=128,
                         help="remembered idempotency replies per client")
    p_serve.add_argument("--max-inflight", type=int, default=256,
                         help="admission-control bound on concurrent "
                         "requests (excess gets ERR_OVERLOADED)")
    p_serve.add_argument("--batch-max", type=int, default=64,
                         help="most facts one group-commit flush takes "
                         "(a flush starts whenever none is running)")
    p_serve.add_argument("--metrics-port", type=int, metavar="PORT",
                         help="serve Prometheus metrics on "
                         "http://HOST:PORT/metrics (0 picks a port)")
    p_serve.add_argument("--health-interval", type=float, default=5.0,
                         metavar="SECONDS",
                         help="tree-health gauge poll period "
                         "(0 disables; default 5)")
    p_serve.add_argument("--replica-of", metavar="HOST:PORT",
                         help="start as a read replica following the "
                         "primary at HOST:PORT: applies its journal "
                         "stream, serves watermark-tagged reads, and "
                         "rejects writes with a redirect")
    p_serve.add_argument("--replica-name",
                         help="stable follower identity reported to the "
                         "primary (default: this server's host:port)")
    p_serve.add_argument("--repl-async", action="store_true",
                         help="primary acks writes without waiting for "
                         "follower acks (default: semi-sync)")
    p_serve.add_argument("--repl-ack-timeout", type=float, default=10.0,
                         metavar="SECONDS",
                         help="semi-sync wait bound before degrading to "
                         "async (default 10)")
    p_serve.set_defaults(fn=cmd_serve)

    p_promote = sub.add_parser(
        "promote", parents=[common],
        help="promote a read replica to primary (seals its journal "
        "stream and starts accepting writes)",
    )
    p_promote.add_argument("--host", default="127.0.0.1")
    p_promote.add_argument("--port", type=int, required=True)
    p_promote.set_defaults(fn=cmd_promote)

    p_top = sub.add_parser(
        "top", parents=[common],
        help="live dashboard over a running service (throughput, "
        "latency percentiles, span breakdown, shard health)",
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, required=True)
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="poll period in seconds (default 1)")
    p_top.add_argument("--iterations", type=int, default=None,
                       help="render this many frames then exit "
                       "(default: run until ^C)")
    p_top.set_defaults(fn=cmd_top)

    p_view = sub.add_parser(
        "view", parents=[common],
        help="manage dynamic materialized views on a running service "
        "(create / insert / query / stats / refresh / drop / repair)",
    )
    view_common = argparse.ArgumentParser(add_help=False)
    view_common.add_argument("--host", default="127.0.0.1")
    view_common.add_argument("--port", type=int, required=True)
    view_sub = p_view.add_subparsers(dest="view_command", required=True)

    pv_create = view_sub.add_parser(
        "create", parents=[view_common],
        help="declare a view over a base table or another view",
    )
    pv_create.add_argument("name")
    pv_create.add_argument("--over", required=True,
                           help="source relation (base table or view)")
    pv_create.add_argument("--agg", default="sum",
                           choices=[k.value for k in AggregateKind])
    pv_create.add_argument("--key", default=None,
                           help="payload field to group by (omit for a "
                           "single ungrouped aggregate)")
    pv_create.add_argument("--lag", default="downstream",
                           help="freshness target: '5s', '1h', a number of "
                           "seconds, or 'downstream' (refresh only when a "
                           "dependent needs it; default)")
    pv_create.set_defaults(fn=cmd_view)

    pv_insert = view_sub.add_parser(
        "insert", parents=[view_common],
        help="append change rows to a base table (created on first use)",
    )
    pv_insert.add_argument("table")
    pv_insert.add_argument("--row", action="append", required=True,
                           metavar="VALUE,START,END[,KEY]",
                           help="one fact (repeatable); the optional "
                           "fourth field is the grouping key")
    pv_insert.set_defaults(fn=cmd_view)

    pv_query = view_sub.add_parser(
        "query", parents=[view_common],
        help="read one or more views at an instant",
    )
    pv_query.add_argument("name", nargs="+")
    pv_query.add_argument("--at", required=True, help="query instant")
    pv_query.add_argument("--key", default=None,
                          help="group key (single grouped view only)")
    pv_query.add_argument("--pin", action="store_true",
                          help="refresh all named views to one consistent "
                          "set of base watermarks before reading")
    pv_query.set_defaults(fn=cmd_view)

    pv_stats = view_sub.add_parser(
        "stats", parents=[view_common],
        help="dump the view catalog (watermarks, staleness, row counts)",
    )
    pv_stats.set_defaults(fn=cmd_view)

    pv_refresh = view_sub.add_parser(
        "refresh", parents=[view_common],
        help="force a refresh of one view (or every stale view)",
    )
    pv_refresh.add_argument("name", nargs="?", default=None)
    pv_refresh.set_defaults(fn=cmd_view)

    pv_drop = view_sub.add_parser(
        "drop", parents=[view_common],
        help="drop a view (refused while other views depend on it)",
    )
    pv_drop.add_argument("name")
    pv_drop.set_defaults(fn=cmd_view)

    pv_repair = view_sub.add_parser(
        "repair", parents=[view_common],
        help="clear a quarantined view and retry its refresh "
        "(node-local: run it against the node showing QUARANTINED)",
    )
    pv_repair.add_argument("name")
    pv_repair.set_defaults(fn=cmd_view)

    p_readscale = sub.add_parser(
        "readscale", parents=[common],
        help="benchmark aggregate read throughput against 0/1/2 read "
        "replicas under a write-saturated primary",
    )
    p_readscale.add_argument("--duration", type=float, default=6.0,
                             help="measured seconds per topology cell "
                             "(default 6)")
    p_readscale.add_argument("--readers", type=int, default=4,
                             help="reader processes per cell (default 4)")
    p_readscale.add_argument("--writers", type=int, default=2,
                             help="saturating writer processes (default 2)")
    p_readscale.add_argument("--seed", type=int, default=0)
    p_readscale.add_argument("--cells", type=int, nargs="*", default=None,
                             help="replica counts to sweep (default: 0 1 2)")
    p_readscale.add_argument("--out", dest="out_dir", metavar="DIR",
                             help="merge the read-scaling series into "
                             "DIR/BENCH_service.json (default: cwd)")
    p_readscale.add_argument("--min-speedup", type=float, default=0.0,
                             help="exit nonzero if the last cell's reads/s "
                             "is below this multiple of primary-only")
    p_readscale.add_argument("--views", action="store_true",
                             help="measure replica-served query_view reads "
                             "instead of lookup (recorded as the separate "
                             "view_read_scaling series)")
    p_readscale.set_defaults(fn=cmd_readscale)

    p_tql = sub.add_parser(
        "tql", parents=[common],
        help="run a TQL statement over CSV-backed relations",
    )
    p_tql.add_argument("statement", help="e.g. \"SUM(value) OVER r AT 19\"")
    p_tql.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=CSV",
        help="bind a relation name to a CSV file (repeatable); the CSV "
        "needs header columns value,start,end (+ payload columns)",
    )
    p_tql.set_defaults(fn=cmd_tql)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        from .obs import trace

        try:
            sink = obs.TraceSink(trace_path, sample=args.trace_sample)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"error: cannot open trace sink: {exc}")
        registry = obs.MetricsRegistry()
        obs.enable(registry, sink)
        # One flag drives both layers: per-op records (sampled per
        # record by the sink) and request tracing (head-sampled per
        # trace, span durations folded into the same registry).
        trace.enable(sink, sample=args.trace_sample, registry=registry)
        try:
            return args.fn(args)
        finally:
            trace.disable()
            obs.disable(close_sink=True)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
