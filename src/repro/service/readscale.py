"""``repro readscale`` -- read throughput scaling across read replicas.

Measures aggregate read throughput against the same write-saturated
primary in three topologies: primary-only, one replica, two replicas.
Each cell spawns real ``repro serve`` processes (through
:class:`~repro.service.process.ServeProcess`, so the servers run
journaled page files exactly like the failover drills), floods the
primary with deep-pipelined inserts, and then lets patient reader
processes hammer ``lookup`` for a fixed window.

The scaling mechanism being demonstrated is the one replicas exist
for: on a write-saturated primary every read queues behind hundreds of
in-flight writes -- the event loop, the group-commit batches, and the
shard write locks they hold through fsync -- and past the admission
ceiling reads are rejected outright with ``retry_after`` hints.  With
replicas the same reads route to follower processes that carry only
the (batched, cheap) journal-apply load and answer immediately.
Readers use the replica-aware
:class:`~repro.service.client.ServiceClient` routing, so the bench
also exercises the exact code path applications use.

Results land in ``BENCH_service.json`` as a ``read_scaling`` series
(replicas on the x axis, aggregate reads/s as the column) merged into
whatever the service load generator already wrote there.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from .. import benchlib
from .client import CircuitOpenError, ServiceClient, ServiceError, TransportError
from .process import SPAN, ServeProcess

__all__ = ["run_readscale", "main"]

#: Writes the background load keeps in flight per writer process --
#: comfortably past the server's default ``max_inflight`` (256) when
#: two writers run, which is the point: the primary must sit at its
#: admission ceiling for the cell to measure anything interesting.
_WRITE_DEPTH = 200

#: The base table and grouped view the ``--views`` mode reads.  The
#: catalog ships down the journal stream, so replica-routed
#: ``query_view`` reads exercise each replica's own catalog copy.
_VIEW_TABLE = "rs_obs"
_VIEW_NAME = "rs_by_k"
_VIEW_KEYS = ("a", "b", "c")


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _writer_child(args: argparse.Namespace) -> int:
    """Saturate the primary with pipelined inserts until terminated."""
    rng = random.Random(args.seed)
    lo, hi = SPAN
    pending: List[Any] = []
    try:
        with ServiceClient(
            "127.0.0.1", args.port, timeout=30.0, retries=0
        ) as svc:
            while True:
                while len(pending) < args.depth:
                    start = rng.randrange(lo, hi - 1)
                    end = rng.randrange(start + 1, hi)
                    pending.append(
                        svc.submit_insert(rng.randint(1, 9), start, end)
                    )
                future = pending.pop(0)
                try:
                    future.result()
                except (ServiceError, TransportError, OSError):
                    # Overload rejections and resets are expected here;
                    # the writer's only job is pressure, not delivery.
                    pass
    except (TransportError, OSError, KeyboardInterrupt):
        return 0
    return 0


def _reader_child(args: argparse.Namespace) -> int:
    """Run patient reads for ``--duration`` seconds, report JSON.

    Plain mode hammers ``lookup``; ``--views 1`` hammers ``query_view``
    against the drill's grouped view instead -- same replica-aware
    routing, so the cell measures replica-served *view* reads.
    """
    endpoints = [e for e in args.endpoints.split(",") if e]
    phost, _, pport = endpoints[0].rpartition(":")
    replicas = endpoints[1:] or None
    view_mode = bool(getattr(args, "views", 0))
    rng = random.Random(args.seed)
    lo, hi = SPAN
    reads = errors = 0
    deadline = time.monotonic() + args.duration
    with ServiceClient(
        phost,
        int(pport),
        timeout=10.0,
        retries=4,
        jitter_seed=args.seed,
        replicas=replicas,
    ) as svc:
        while time.monotonic() < deadline:
            try:
                if view_mode:
                    svc.query_view(
                        _VIEW_NAME,
                        rng.randrange(lo, hi),
                        key=rng.choice(_VIEW_KEYS),
                    )
                else:
                    svc.lookup(rng.randrange(lo, hi))
                reads += 1
            except (ServiceError, TransportError, CircuitOpenError, OSError):
                errors += 1
                time.sleep(0.02)
    payload = {"reads": reads, "errors": errors}
    if svc.last_staleness_s is not None:
        payload["last_staleness_s"] = svc.last_staleness_s
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
    return 0


def _spawn_child(mode: str, **flags: Any) -> subprocess.Popen:
    command = [sys.executable, "-m", "repro.service.readscale", mode]
    for name, value in flags.items():
        command += [f"--{name.replace('_', '-')}", str(value)]
    return subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )


# ----------------------------------------------------------------------
# One topology cell
# ----------------------------------------------------------------------
def _run_cell(
    replicas: int,
    *,
    duration: float,
    readers: int,
    writers: int,
    seed: int,
    workdir: str,
    views: bool = False,
) -> Dict[str, Any]:
    primary = ServeProcess(os.path.join(workdir, f"primary-r{replicas}"))
    followers = [
        ServeProcess(
            os.path.join(workdir, f"replica{i}-r{replicas}"),
            replica_of=primary.address,
        )
        for i in range(replicas)
    ]
    children: List[subprocess.Popen] = []
    try:
        primary.start()
        for follower in followers:
            follower.start()
        if replicas:
            primary.wait_subscribed(replicas)

        # Seed some facts so lookups traverse real leaves, and make
        # sure every replica has applied them before the clock starts.
        # In views mode the seed also declares the grouped view and
        # ingests its base table, both of which ship to the replicas.
        rng = random.Random(seed)
        lo, hi = SPAN
        with primary.client(timeout=10.0) as svc:
            for _ in range(200):
                start = rng.randrange(lo, hi - 1)
                svc.insert(rng.randint(1, 9), start, rng.randrange(start + 1, hi))
            if views:
                svc.create_view(
                    _VIEW_NAME, [_VIEW_TABLE], "sum", key="k",
                    lag="downstream",
                )
                rows = []
                for _ in range(200):
                    start = rng.randrange(lo, hi - 1)
                    rows.append([
                        rng.randint(1, 9),
                        start,
                        rng.randrange(start + 1, hi),
                        {"k": rng.choice(_VIEW_KEYS)},
                    ])
                svc.table_insert(_VIEW_TABLE, rows)
        if replicas:
            commit = primary.commit_seq()
            for follower in followers:
                follower.wait_applied(commit)

        for w in range(writers):
            children.append(
                _spawn_child(
                    "--writer-child",
                    port=primary.port,
                    seed=seed * 31 + w,
                    depth=_WRITE_DEPTH,
                )
            )
        time.sleep(0.5)  # let the write pipeline fill before measuring

        endpoints = ",".join(node.address for node in [primary] + followers)
        reader_procs = [
            _spawn_child(
                "--reader-child",
                endpoints=endpoints,
                duration=duration,
                seed=seed * 131 + r,
                views=1 if views else 0,
            )
            for r in range(readers)
        ]

        cell: Dict[str, Any] = {
            "replicas": replicas,
            "reads": 0,
            "read_errors": 0,
            "readers": readers,
        }
        for proc in reader_procs:
            out, _ = proc.communicate(timeout=duration + 60.0)
            report = json.loads(out.strip().splitlines()[-1])
            cell["reads"] += report["reads"]
            cell["read_errors"] += report["errors"]
            if "last_staleness_s" in report:
                cell["last_staleness_s"] = report["last_staleness_s"]
        cell["reads_per_s"] = round(cell["reads"] / duration, 2)
        try:
            with primary.client(timeout=5.0) as svc:
                counters = (svc.stats() or {}).get("counters", {})
            cell["primary_overload_rejections"] = counters.get(
                "service.overload.rejected", 0
            )
        except Exception:
            pass
        return cell
    finally:
        for proc in children:
            proc.terminate()
        for node in [primary] + followers:
            node.kill()
        for proc in children:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def _merge_bench(
    out_dir: str,
    series: benchlib.Series,
    extra: Dict[str, Any],
    name: str = "read_scaling",
) -> str:
    """Fold one scaling sweep into ``BENCH_service.json`` under *name*.

    The service bench file is shared with the load generator's latency
    sweep (and between the plain and ``--views`` read sweeps); when one
    already exists the series is added alongside whatever is there
    instead of clobbering it.
    """
    path = os.path.join(out_dir, "BENCH_service.json")
    bench = f"service.{name}"
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload[name] = series.to_dict(bench)
        records = [
            r
            for r in payload.get("records", [])
            if r.get("benchmark") != bench
        ]
        records.extend(series.to_records(bench))
        payload["records"] = records
        payload.setdefault("extra", {})[name] = extra
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path
    return benchlib.write_bench_json(
        out_dir, "service", series, extra={name: extra}
    )


def run_readscale(
    *,
    cells: Sequence[int] = (0, 1, 2),
    duration: float = 6.0,
    readers: int = 4,
    writers: int = 2,
    seed: int = 0,
    views: bool = False,
    out_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run the replica sweep and return ``{"cells": ..., "speedup": ...}``.

    *speedup* is the last cell's aggregate reads/s over the first
    cell's (conventionally 2 replicas over primary-only).  With
    ``views=True`` readers issue replica-routed ``query_view`` instead
    of ``lookup`` and the sweep lands in ``BENCH_service.json`` as the
    separate ``view_read_scaling`` series.
    """
    workdir = tempfile.mkdtemp(prefix="repro-readscale-")
    results: List[Dict[str, Any]] = []
    try:
        for replicas in cells:
            results.append(
                _run_cell(
                    replicas,
                    duration=duration,
                    readers=readers,
                    writers=writers,
                    seed=seed,
                    workdir=workdir,
                    views=views,
                )
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    baseline = results[0]["reads_per_s"]
    top = results[-1]["reads_per_s"]
    speedup = round(top / baseline, 2) if baseline else None
    series = benchlib.Series("replicas", [c["replicas"] for c in results])
    series.add("reads_per_s", [c["reads_per_s"] for c in results])
    summary: Dict[str, Any] = {
        "cells": results,
        "speedup": speedup,
        "duration_s": duration,
        "readers": readers,
        "writers": writers,
        "seed": seed,
        "views": views,
    }
    if out_dir is not None:
        summary["bench_path"] = _merge_bench(
            out_dir,
            series,
            {
                "cells": results,
                "read_speedup_vs_primary_only": speedup,
                "duration_s": duration,
                "readers": readers,
                "writers": writers,
            },
            name="view_read_scaling" if views else "read_scaling",
        )
    summary["series"] = series
    return summary


def main(args: argparse.Namespace) -> int:
    if getattr(args, "writer_child", False):
        return _writer_child(args)
    if getattr(args, "reader_child", False):
        return _reader_child(args)
    cells = tuple(getattr(args, "cells", None) or (0, 1, 2))
    views = bool(getattr(args, "views", False))
    summary = run_readscale(
        cells=cells,
        duration=getattr(args, "duration", 6.0),
        readers=getattr(args, "readers", 4),
        writers=getattr(args, "writers", 2),
        seed=getattr(args, "seed", 0),
        views=views,
        out_dir=getattr(args, "out_dir", None) or os.getcwd(),
    )
    print(summary["series"].render(with_exponents=False))
    mode = "view reads/s" if views else "reads/s"
    for cell in summary["cells"]:
        print(
            f"replicas={cell['replicas']}: {cell['reads_per_s']:.1f} {mode}"
            f" ({cell['reads']} reads, {cell['read_errors']} errors,"
            f" {cell.get('primary_overload_rejections', 0)}"
            " primary overload rejections)"
        )
    speedup = summary["speedup"]
    shown = f"{speedup:.2f}x" if speedup is not None else "inf"
    print(f"read speedup vs primary-only: {shown}")
    print(f"wrote {summary['bench_path']}")
    min_speedup = getattr(args, "min_speedup", 0.0)
    if min_speedup and (speedup is None or speedup < min_speedup):
        print(f"FAIL: speedup below required {min_speedup:.2f}x")
        return 1
    return 0


def _parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-readscale",
        description="Measure read throughput scaling across read replicas.",
    )
    parser.add_argument("--duration", type=float, default=6.0)
    parser.add_argument("--readers", type=int, default=4)
    parser.add_argument("--writers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default=None)
    parser.add_argument("--min-speedup", type=float, default=0.0)
    # "--views" alone turns the mode on; the harness's child spawner
    # passes an explicit 0/1 value through the same flag.
    parser.add_argument("--views", type=int, nargs="?", const=1, default=0,
                        help="measure replica-served query_view reads "
                        "instead of lookup (view_read_scaling series)")
    parser.add_argument(
        "--cells", type=int, nargs="*", default=None,
        help="replica counts to sweep (default: 0 1 2)",
    )
    # Internal child modes (spawned by the harness itself).
    parser.add_argument("--writer-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--reader-child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--port", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--depth", type=int, default=_WRITE_DEPTH,
                        help=argparse.SUPPRESS)
    parser.add_argument("--endpoints", default="", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(main(_parse_args()))
