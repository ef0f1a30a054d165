"""One-command sanity check: build a tree, print its stats, run tests.

``repro-quickcheck`` (or ``python -m repro.quickcheck``) exercises the
full happy path a fresh checkout should support:

1. build a small persistent SUM index in a temporary directory via the
   CLI (``repro build``),
2. run the per-operation accounting report over it (``repro stats``),
3. audit the freshly built page file offline (``repro fsck``),
4. run a quick crash-consistency sweep (first occurrence of every
   crash point on the commit workload, via :mod:`repro.crashcheck`),
5. boot the sharded TCP service on an ephemeral port, run a verified
   smoke workload through the blocking client, check its stats, and
   drain it cleanly (:mod:`repro.service`),
6. run the dynamic materialized-view stage: a 3-level view DAG (base
   table -> grouped view -> rollup) driven over the TCP service and
   checked against the recompute-from-scratch oracle after every tick,
7. run a bounded end-to-end resilience check (exactly-once writes
   through the chaos proxy against a SIGKILLed-and-restarted server,
   via ``repro-rescheck --quick``) and write ``BENCH_resilience.json``,
8. run the observability-overhead gate (tracing disabled vs. a
   hand-inlined baseline vs. tracing at 1% sampling; fails if the
   disabled path regresses) and write ``BENCH_trace_overhead.json``,
9. run the unit-test suite (``pytest -q``), unless ``--no-tests``.

Nothing here times the service or the views: speed is gated by
``python3 -m bench`` alone (``svc_split`` for the pipelined wire
path, ``view_cascade`` for incremental refresh).

``--quick`` bounds the run for CI: a smaller scratch index and no
pytest stage (CI runs the suite as its own job).

Exit status is non-zero as soon as any stage fails, so this doubles as
a cheap CI smoke target.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from typing import List, Optional

from . import cli
from .workloads import uniform

__all__ = ["main"]

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _stage(title: str) -> None:
    print(f"\n=== quickcheck: {title} ===", flush=True)


def _run_cli(argv: List[str]) -> int:
    print(f"$ repro {' '.join(argv)}", flush=True)
    return cli.main(argv)


def _service_smoke() -> int:
    """Boot a 4-shard server, drive it through the client, drain it."""
    import random

    from .core import reference
    from .service import ServerHandle, ServiceClient, ServiceError
    from .sharding import ShardedTree

    rng = random.Random(7)
    sharded = ShardedTree("sum", num_shards=4, span=(0, 10_000))
    facts = []
    with ServerHandle.start(sharded, batch_max=16, batch_delay=0.001) as handle:
        print(f"server up on {handle.host}:{handle.port}", flush=True)
        with ServiceClient(handle.host, handle.port, timeout=10.0) as svc:
            if not svc.ping():
                print("FAIL: ping")
                return 1
            batch = []
            for _ in range(120):
                s = rng.randint(0, 9_000)
                e = s + rng.randint(1, 900)
                v = rng.randint(1, 9)
                batch.append([v, s, e])
                facts.append((v, (s, e)))
            svc.batch_insert(batch)
            for _ in range(40):
                t = rng.randint(0, 10_000)
                got = svc.lookup(t)
                want = reference.instantaneous_value(facts, "sum", t)
                if got != want:
                    print(f"FAIL: lookup({t}) = {got}, oracle {want}")
                    return 1
            try:
                svc.window(5_000, 100)
            except ServiceError as exc:
                if exc.type != "unsupported":
                    print(f"FAIL: window error type {exc.type}")
                    return 1
            else:
                print("FAIL: sharded SUM window should be unsupported")
                return 1
            stats = svc.stats()
            shard_stats = stats["shards"]
            if shard_stats["facts"] != 120:
                print(f"FAIL: stats facts = {shard_stats['facts']}, want 120")
                return 1
            if stats["ops"]["service.lookup"]["count"] != 40:
                print("FAIL: stats op counts missing lookups")
                return 1
            print(
                f"verified 40 lookups over {shard_stats['facts']} facts,"
                f" {shard_stats['num_shards']} shards;"
                f" batch flushes={stats['counters'].get('service.batch.flushes')}",
                flush=True,
            )
    print("service drained cleanly", flush=True)
    return 0


def _views_check() -> int:
    """Drive a 3-level view DAG over TCP against the recompute oracle.

    Base table -> grouped view -> rollup, with the rollup checked
    against the recompute-from-scratch oracle after **every** tick of
    base-table changes.  Refresh *cost* is not measured here: that it
    beats recompute is ``bench``'s ``view_cascade`` ``write_facts_per_s``,
    and that it does not grow with history is counted, not timed, by
    ``test_refresh_cost_does_not_depend_on_history`` (``view_stats``'
    ``rows_examined`` / ``effects_applied``).
    """
    import random

    from .core import reference
    from .service import ServerHandle, ServiceClient
    from .sharding import ShardedTree

    rng = random.Random(23)
    horizon = 10_000
    facts = []
    sharded = ShardedTree("sum", num_shards=2, span=(0, horizon))
    with ServerHandle.start(sharded, view_tick=0.0) as handle:
        with ServiceClient(handle.host, handle.port, timeout=10.0) as svc:
            svc.create_view("by_patient", "doses", "sum",
                            key="patient", lag="downstream")
            svc.create_view("total", "by_patient", "sum", lag="downstream")
            for tick in range(6):
                rows = []
                for _ in range(30):
                    s = rng.randint(0, horizon - 200)
                    e = s + rng.randint(1, 150)
                    v = rng.randint(1, 9)
                    key = f"patient{rng.randrange(5)}"
                    rows.append([v, s, e, {"patient": key}])
                    facts.append((v, (s, e)))
                svc.table_insert("doses", rows)
                svc.refresh_view()
                for t in (horizon // 4, horizon // 2, 3 * horizon // 4):
                    got = svc.query_view("total", t)["value"]
                    want = reference.instantaneous_value(facts, "sum", t)
                    if (got or 0) != (want or 0):
                        print(f"FAIL: tick {tick}: total@{t} = {got},"
                              f" oracle {want}")
                        return 1
            stats = svc.view_stats()
            per_view = stats["views"]
            print(
                f"verified rollup vs oracle after 6 ticks"
                f" ({len(facts)} base facts);"
                f" by_patient groups={per_view['by_patient'].get('groups')}"
                f" refreshes={per_view['total'].get('refreshes')}",
                flush=True,
            )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-quickcheck", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--no-tests", action="store_true", help="skip the pytest stage"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="bounded CI variant: smaller scratch index, no pytest stage",
    )
    parser.add_argument(
        "-n", type=int, default=2000, help="tuples in the scratch index"
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default="",
        help="write BENCH_resilience.json and BENCH_trace_overhead.json "
        "under DIR",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.n = min(args.n, 1000)

    with tempfile.TemporaryDirectory(prefix="repro-quickcheck-") as scratch:
        csv_path = os.path.join(scratch, "facts.csv")
        with open(csv_path, "w", encoding="utf-8") as handle:
            for value, interval in uniform(args.n, seed=7):
                handle.write(f"{value},{interval.start},{interval.end}\n")
        path = os.path.join(scratch, "quickcheck.sbt")
        _stage(f"build a scratch SUM index ({args.n} tuples)")
        status = _run_cli(["build", path, "--kind", "sum", "--csv", csv_path])
        if status:
            return status
        _stage("per-operation accounting (repro stats)")
        status = _run_cli(["stats", path])
        if status:
            return status
        _stage("offline page-file audit (repro fsck)")
        status = _run_cli(["fsck", path])
        if status:
            return status

    _stage("crash-consistency sweep (commit workload, first hits)")
    from . import crashcheck

    status = crashcheck.main(["--workload", "commit", "--hits", "1"])
    if status:
        return status

    _stage("sharded service smoke (ephemeral port, verified workload)")
    status = _service_smoke()
    if status:
        return status

    _stage("dynamic view DAG over TCP (oracle check after every tick)")
    status = _views_check()
    if status:
        return status

    _stage("resilience check (chaos + server kill)")
    from . import rescheck

    rescheck_args = ["--quick"]
    if args.out:
        rescheck_args += ["--out", args.out]
    status = rescheck.main(rescheck_args)
    if status:
        return status

    _stage("observability-overhead gate (disabled path vs. baseline)")
    from .obs.overhead import render_report, run_overhead_gate

    report = run_overhead_gate(out_dir=args.out or None)
    print(render_report(report), flush=True)
    if args.out:
        print(f"wrote {os.path.join(args.out, 'BENCH_trace_overhead.json')}")
    if not report["ok"]:
        print("FAIL: instrumentation overhead on the disabled path")
        return 1

    if args.no_tests or args.quick:
        return 0

    _stage("unit tests (pytest -q)")
    env = dict(os.environ)
    src = os.path.join(_REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q"], cwd=_REPO_ROOT, env=env
    )
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
