"""End-to-end resilience checking for the service layer.

:mod:`repro.crashcheck` proves the *storage* contract (any crash
instant, reopening yields the last commit).  This harness proves the
*service* contract on top of it -- **every acked write is applied
exactly once, durably** -- with no mocks anywhere in the path:

1. The server is the product's own entry point, ``python -m repro
   serve``, in a *child process* (so it can be killed with ``SIGKILL``,
   not politely cancelled): a single-shard SB-tree on a journaled page
   file with idempotency dedup enabled
   (:class:`repro.service.process.ServeProcess` owns its command line).
2. A :class:`~repro.service.chaos.ChaosProxy` sits between the clients
   and the server, dropping, delaying, duplicating, and truncating
   frames and killing connections, all seeded and counted.
3. *Patient* exactly-once writers
   (:func:`repro.service.patient.run_patient_writes`) drive inserts
   through the proxy, retrying each write under its original
   idempotency key until it is acked.
4. Mid-run, the server process is SIGKILLed and ``repro serve`` is
   started again on the same port and directory -- the dedup window
   and the tree recover together from the journaled page file.
5. After the run, the page file is reopened directly (triggering
   WAL replay, exactly as crashcheck does) and the recovered
   tree must equal the :mod:`repro.core.reference` oracle over the
   *acked* facts -- every acked write present exactly once, every
   unacked duplicate absent -- and pass the full structural audit of
   :func:`repro.core.validate.check_tree`.

A double-applied retry shows up as a SUM mismatch; a lost acked write
shows up the same way; dedup state that failed to survive the restart
shows up as a double apply on the post-restart retries.  The summary
is written as ``BENCH_resilience.json``.

Run it from the command line (also installed as ``repro-rescheck``)::

    python -m repro.rescheck                # full chaos sweep + 1 kill
    python -m repro.rescheck --quick        # bounded variant for CI
    python -m repro.rescheck --seed 7 --writes 800 --kill-after 4

Exit status is non-zero if any acked write was lost or double-applied,
if any write never acked, or if the run injected fewer faults /
restarts than required.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from . import benchlib
from .core import reference
from .core.sbtree import SBTree
from .core.validate import check_tree
from .service.chaos import ChaosPlan, ChaosProxy
from .service.patient import PatientWriteResult, run_patient_writes
from .service.process import KIND, SPAN, ServeProcess
from .storage import PagedNodeStore

__all__ = ["RescheckResult", "run_rescheck", "main"]

#: Default chaos plan: duplication-heavy (duplicates are cheap to
#: inject and exercise both dedup directions), with enough drops,
#: delays, truncations, and kills to cover every retry path.
DEFAULT_PLAN = ChaosPlan(
    drop=0.01,
    delay=0.04,
    delay_range=(0.001, 0.015),
    duplicate=0.22,
    truncate=0.004,
    kill=0.002,
)


# ----------------------------------------------------------------------
# The view failover drill
# ----------------------------------------------------------------------
#: The view suite the ``--views`` drill declares on the primary: a
#: grouped SUM, an ungrouped SUM stacked on it (view-over-view), and a
#: COUNT, all over one shipped base table.
_VIEW_TABLE = "vr_obs"
_VIEW_SUITE = (
    ("vr_by_k", [_VIEW_TABLE], "sum", "k"),
    ("vr_total", ["vr_by_k"], "sum", None),
    ("vr_count", [_VIEW_TABLE], "count", None),
)


def _setup_views(
    primary: ServeProcess, seed: int
) -> List[Tuple[Any, Tuple[float, float], str]]:
    """Declare the drill's views and ingest acked base rows (no chaos).

    Goes straight to the primary -- the point is to verify *shipping*
    of the catalog down the (chaotic) replication link, so the writes
    themselves must be deterministic.  Returns the ingested rows for
    the recompute oracle.
    """
    rng = random.Random(seed + 31)
    rows: List[List[Any]] = []
    facts: List[Tuple[Any, Tuple[float, float], str]] = []
    for _ in range(40):
        value = rng.randint(1, 9)
        start = round(rng.uniform(SPAN[0], SPAN[1] - 600), 3)
        end = round(start + rng.uniform(1.0, 500.0), 3)
        key = rng.choice("abc")
        rows.append([value, start, end, {"k": key}])
        facts.append((value, (start, end), key))
    with primary.client(timeout=5.0, retries=3) as svc:
        for name, over, agg, key in _VIEW_SUITE:
            svc.create_view(name, over, agg, key=key, lag="downstream")
        svc.table_insert(_VIEW_TABLE, rows)
    return facts


def _verify_views(
    node: ServeProcess, facts: List[Tuple[Any, Tuple[float, float], str]]
) -> Tuple[bool, str, int]:
    """Every drill view on the promoted node vs the recompute oracle.

    Probes each view at the segment boundaries of the ingested rows
    (plus midpoints), where an off-by-one in replay or a double-applied
    shipped event is most visible.  ``lag="downstream"`` means each
    read refreshes on demand, so the readings reflect every applied
    event with no tick-timing dependence.
    """
    instants: List[float] = []
    for _, (start, end), _ in facts[:12]:
        instants.extend((start, (start + end) / 2.0))
    instants.append(float(SPAN[0]))
    checked = 0
    try:
        with node.client(timeout=5.0, retries=3) as svc:
            names = set((svc.view_stats().get("views") or {}))
            for name, _, agg, key_field in _VIEW_SUITE:
                if name not in names:
                    return (
                        False,
                        f"view {name!r} is missing from the promoted "
                        f"primary's catalog",
                        checked,
                    )
                keys = ("a", "b", "c") if key_field else (None,)
                for t in instants:
                    for key in keys:
                        got = svc.query_view(name, t, key=key)["value"]
                        want = reference.view_value(facts, agg, t, key)
                        if got != want:
                            return (
                                False,
                                f"view {name!r} at t={t} key={key!r}: "
                                f"promoted primary answered {got!r}, "
                                f"recompute oracle says {want!r}",
                                checked,
                            )
                        checked += 1
    except Exception as exc:  # noqa: BLE001 - report, don't crash the run
        return False, f"view verification failed: {exc!r}", checked
    return True, "", checked


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
@dataclass
class RescheckResult:
    """Outcome of one end-to-end resilience run."""

    ok: bool = False
    detail: str = ""
    seed: int = 0
    duration_s: float = 0.0
    injected: Dict[str, int] = field(default_factory=dict)
    total_injected: int = 0
    min_faults: int = 0
    restarts: int = 0
    proxy_connections: int = 0
    writes: Optional[PatientWriteResult] = None
    recovered_rows: int = 0
    replicas: int = 0
    failovers: int = 0
    repl_injected: Dict[str, int] = field(default_factory=dict)
    #: Pre-failover idempotency key replayed against the promoted
    #: primary: True iff it answered ``duplicate=true`` (exactly-once
    #: survived the failover).  None when no failover ran.
    failover_dedup_ok: Optional[bool] = None
    #: View failover drill: number of dynamic views verified against
    #: the recompute oracle on the promoted primary, and whether every
    #: probed reading matched.  None when the drill did not run.
    views_verified: int = 0
    views_ok: Optional[bool] = None
    view_drill: bool = False
    plan: Optional[ChaosPlan] = None
    log_paths: List[str] = field(default_factory=list)

    def extra(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "ok": self.ok,
            "detail": self.detail,
            "seed": self.seed,
            "kind": KIND,
            "duration_s": round(self.duration_s, 6),
            "faults": {
                "injected": dict(self.injected),
                "total": self.total_injected,
                "required": self.min_faults,
            },
            "server_restarts": self.restarts,
            "proxy_connections": self.proxy_connections,
            "recovered_rows": self.recovered_rows,
        }
        if self.replicas:
            payload["replication"] = {
                "replicas": self.replicas,
                "failovers": self.failovers,
                "repl_link_faults": dict(self.repl_injected),
                "failover_dedup_ok": self.failover_dedup_ok,
            }
            if self.view_drill:
                payload["replication"]["views"] = {
                    "verified": self.views_verified,
                    "ok": self.views_ok,
                }
        if self.writes is not None:
            payload["writes"] = self.writes.extra()
        return payload

    def series(self) -> benchlib.Series:
        series = benchlib.Series("run", [1])
        series.add("faults_injected", [self.total_injected])
        series.add("server_restarts", [self.restarts])
        if self.writes is not None:
            series.add("acked_writes", [self.writes.acked])
            series.add("attempts", [self.writes.attempts])
            series.add("duplicate_acks", [self.writes.duplicate_acks])
        return series

    def render(self) -> str:
        status = "OK" if self.ok else "FAILED"
        w = self.writes
        lines = [
            f"rescheck: {status} seed={self.seed}"
            f" duration={self.duration_s:.1f}s",
            f"  faults injected: {self.total_injected}"
            f" (need >= {self.min_faults}): "
            + ", ".join(
                f"{k}={v}" for k, v in sorted(self.injected.items())
            ),
            f"  server kills+restarts: {self.restarts}",
        ]
        if self.replicas:
            dedup = (
                "n/a" if self.failover_dedup_ok is None
                else ("OK" if self.failover_dedup_ok else "BROKEN")
            )
            lines.append(
                f"  replicas: {self.replicas},"
                f" failovers: {self.failovers},"
                f" repl-link faults: "
                + (
                    ", ".join(
                        f"{k}={v}"
                        for k, v in sorted(self.repl_injected.items())
                    )
                    or "none"
                )
                + f", cross-failover dedup: {dedup}"
            )
            if self.view_drill:
                shown = (
                    "n/a" if self.views_ok is None
                    else ("OK" if self.views_ok else "BROKEN")
                )
                lines.append(
                    f"  views: {self.views_verified} verified against the"
                    f" recompute oracle post-failover: {shown}"
                )
        if w is not None:
            lines.append(
                f"  writes: {w.acked} acked in {w.attempts} attempts,"
                f" {w.duplicate_acks} duplicate acks,"
                f" {w.transport_errors} transport errors,"
                f" {w.retryable_rejections} retryable rejections,"
                f" {w.unacked} unacked"
            )
        lines.append(
            f"  recovered tree: {self.recovered_rows} rows"
            + (f" -- {self.detail}" if self.detail else "")
        )
        if not self.ok:
            # Everything needed to reproduce and diagnose the red run
            # from the console alone: the seed, the exact chaos plan,
            # and where each child server wrote its output.
            plan = self.plan or DEFAULT_PLAN
            lines.append(
                f"  repro: --seed {self.seed}"
                f" --drop {plan.drop} --delay {plan.delay}"
                f" --duplicate {plan.duplicate} --truncate {plan.truncate}"
                f" --kill {plan.kill}"
                + (f" --replicas {self.replicas}" if self.replicas else "")
                + (" --views" if self.view_drill else "")
            )
            if self.log_paths:
                lines.append("  server logs:")
                lines.extend(f"    {path}" for path in self.log_paths)
        return "\n".join(lines)


def _verify_final(
    path: str, facts: List[Tuple[Any, Tuple[int, int]]]
) -> Tuple[bool, str, int]:
    """Reopen the page file (WAL replay) and diff vs the oracle."""
    try:
        store = PagedNodeStore(path, KIND, journaled=True)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the run
        return False, f"final reopen failed: {exc!r}", 0
    try:
        tree = SBTree(store=store)
        recovered = tree.to_table()
        want = reference.instantaneous_table(facts, KIND)
        if recovered != want:
            return (
                False,
                f"recovered table diverges from the acked-facts oracle "
                f"({len(facts)} acked facts, {len(recovered)} recovered "
                f"rows vs {len(want)} expected) -- an acked write was "
                f"lost or applied more than once",
                len(recovered),
            )
        check_tree(tree)
        return True, "", len(recovered)
    except Exception as exc:  # noqa: BLE001
        return False, f"recovered tree is unusable: {exc!r}", 0
    finally:
        try:
            store.close()
        except Exception:  # noqa: BLE001 - best effort
            pass


def run_rescheck(
    *,
    seed: int = 0,
    connections: int = 4,
    writes_per_connection: int = 250,
    plan: Optional[ChaosPlan] = None,
    kill_after: float = 2.5,
    restarts: int = 1,
    replicas: int = 0,
    views: bool = False,
    min_faults: int = 500,
    client_timeout: float = 0.4,
    give_up_after: float = 90.0,
    out_dir: Optional[str] = None,
) -> RescheckResult:
    """Run the full chaos + kill/restart + exactly-once verification.

    Returns a :class:`RescheckResult`; ``ok`` requires *all* of:

    * the recovered tree equals the acked-facts oracle (exactly once),
    * it passes the structural audit,
    * every write acked (no indeterminate outcomes left behind),
    * at least ``min_faults`` faults were injected,
    * the server was killed and restarted ``restarts`` times.

    With ``replicas > 0`` the kill schedule becomes a **failover**: the
    primary streams its journal to ``replicas`` followers through a
    second chaos proxy on the replication link, the primary is
    SIGKILLed mid-run and *never restarted*, replica 0 is promoted and
    the client proxy retargeted at it (a VIP flip), and the run
    verifies the *promoted* server's page file against the acked-facts
    oracle -- plus replays a pre-failover idempotency key against the
    new primary, which must answer ``duplicate=true``.

    With ``views=True`` (requires ``replicas > 0``) the run also
    declares a suite of dynamic views and ingests acked base-table
    rows on the primary before the chaos window opens; the catalog
    mutations ship down the (chaotic) replication link as view events,
    and after the failover every view on the promoted primary must
    answer the recompute oracle exactly -- a missing view, a lost
    shipped row, or a double-applied replay all show up as a mismatch.
    """
    plan = plan or DEFAULT_PLAN
    if views and replicas <= 0:
        raise ValueError("views=True requires replicas > 0")
    result = RescheckResult(
        seed=seed, min_faults=min_faults, plan=plan,
        replicas=replicas, view_drill=views,
    )
    # Not TemporaryDirectory: a red run must leave the child-server
    # logs behind for the repro block in render().
    workdir = tempfile.mkdtemp(prefix="repro-rescheck-")

    def child(name: str, **kwargs: Any) -> ServeProcess:
        log_path = os.path.join(workdir, f"{name}.log")
        result.log_paths.append(log_path)
        # Small group commits: many flushes for the kill to land between.
        return ServeProcess(
            os.path.join(workdir, name), batch_max=16,
            log_path=log_path, **kwargs,
        )

    started = time.perf_counter()
    primary = child("primary")
    proxy: Optional[ChaosProxy] = None
    repl_proxy: Optional[ChaosProxy] = None
    followers: List[ServeProcess] = []
    probe_key: Optional[Tuple[str, int]] = None
    probe_fact = (7, (SPAN[0] + 1, SPAN[0] + 2))
    view_problem: Optional[str] = None
    try:
        primary.start()
        if replicas > 0:
            # Chaos on the replication link too: followers subscribe to
            # the primary through their own fault-injecting proxy, with
            # an independent RNG stream.
            repl_proxy = ChaosProxy(
                "127.0.0.1", primary.port, plan=plan, seed=seed + 7919
            ).start()
            for i in range(replicas):
                followers.append(
                    child(
                        f"replica{i}",
                        replica_of=f"127.0.0.1:{repl_proxy.port}",
                    ).start()
                )
            primary.wait_subscribed(replicas)

        proxy = ChaosProxy(
            "127.0.0.1", primary.port, plan=plan, seed=seed
        ).start()

        if replicas > 0:
            # A probe write whose idempotency key we will replay against
            # the promoted primary after the failover.  Sent straight to
            # the primary (not through chaos) and confirmed applied on
            # replica 0 before the kill slot opens, so the replay below
            # tests the dedup window's survival, not the link's luck.
            probe_key = (f"failover-probe-{seed}", 1)
            with primary.client(
                timeout=2.0, retries=3, client_id=probe_key[0]
            ) as svc:
                svc.insert_result(
                    probe_fact[0], probe_fact[1][0], probe_fact[1][1],
                    seq=probe_key[1],
                )
            followers[0].wait_applied(primary.commit_seq())

        view_facts: List[Tuple[Any, Tuple[float, float], str]] = []
        if views and replicas > 0:
            # The catalog mutations themselves are acked before the
            # client-side chaos window opens, so the post-failover
            # oracle is exact; they still ship through the chaotic
            # replication link, which is the path under test.
            view_facts = _setup_views(primary, seed)
            followers[0].wait_applied(primary.commit_seq())

        writes_done = threading.Event()
        write_box: Dict[str, Any] = {}

        def drive() -> None:
            try:
                write_box["result"] = run_patient_writes(
                    proxy.host,
                    proxy.port,
                    connections=connections,
                    writes_per_connection=writes_per_connection,
                    span=SPAN,
                    seed=seed,
                    timeout=client_timeout,
                    give_up_after=give_up_after,
                )
            except BaseException as exc:  # noqa: BLE001
                write_box["error"] = exc
            finally:
                writes_done.set()

        writer = threading.Thread(target=drive, name="rescheck-drive", daemon=True)
        writer.start()

        if replicas > 0:
            # The failover schedule: SIGKILL the primary mid-run (it
            # stays dead), flip the client proxy to replica 0 -- the
            # stable-address move a VIP would make -- and promote it.
            # Writers see not_primary until the promotion lands and
            # wait it out under their original idempotency keys.
            if not writes_done.wait(timeout=kill_after):
                primary.kill()
                result.restarts += 1
                new_primary = followers[0].port
                proxy.retarget("127.0.0.1", new_primary)
                followers[0].promote()
                result.failovers += 1
                if repl_proxy is not None:
                    # Best effort: surviving replicas re-subscribe to
                    # the promoted primary (those too far behind its
                    # fresh log base are refused and would need a
                    # re-seed; the harness does not assert on them).
                    repl_proxy.retarget("127.0.0.1", new_primary)
        else:
            # The kill schedule: SIGKILL the server mid-run, start it
            # again on the same port and directory, `restarts` times.  The patient writers
            # ride through the outage; the dedup window rides through
            # it in the page file header.
            for _ in range(restarts):
                if writes_done.wait(timeout=kill_after):
                    break  # run finished before this kill slot
                primary.restart()
                result.restarts += 1

        writer.join()
        if "error" in write_box:
            raise write_box["error"]
        result.writes = write_box["result"]

        if replicas > 0 and result.failovers and probe_key is not None:
            # Exactly-once across the failover boundary: replaying the
            # pre-failover key against the promoted primary must be
            # answered from its dedup window, not applied again.
            try:
                with followers[0].client(
                    timeout=2.0, retries=3, client_id=probe_key[0]
                ) as svc:
                    replay = svc.insert_result(
                        probe_fact[0], probe_fact[1][0], probe_fact[1][1],
                        seq=probe_key[1],
                    )
                result.failover_dedup_ok = bool(replay.get("duplicate"))
            except Exception:  # noqa: BLE001 - counted as a failure below
                result.failover_dedup_ok = False

        if views and replicas > 0 and result.failovers:
            views_ok, view_problem, checked = _verify_views(
                followers[0], view_facts
            )
            result.views_ok = views_ok
            result.views_verified = checked

        result.proxy_connections = proxy.connections
        result.injected = dict(proxy.injected)
        if repl_proxy is not None:
            result.repl_injected = dict(repl_proxy.injected)
        result.total_injected = proxy.total_injected + sum(
            result.repl_injected.values()
        )
    finally:
        if proxy is not None:
            proxy.stop()
        if repl_proxy is not None:
            repl_proxy.stop()
        for node in [primary] + followers:
            node.kill()
        result.duration_s = time.perf_counter() - started

    # With a failover the survivor of record is the promoted replica:
    # its page file must contain every acked fact exactly once --
    # including the probe write, which the oracle therefore includes.
    survivor = primary
    facts = list(result.writes.facts)
    if replicas > 0 and result.failovers:
        survivor = followers[0]
        facts.append(probe_fact)
    ok, detail, rows = _verify_final(survivor.shard_path, facts)
    result.recovered_rows = rows
    problems: List[str] = []
    if not ok:
        problems.append(detail)
    if result.writes.unacked:
        problems.append(
            f"{result.writes.unacked} writes never acked (indeterminate)"
        )
    if result.total_injected < min_faults:
        problems.append(
            f"only {result.total_injected} faults injected"
            f" (need >= {min_faults}); raise probabilities or write count"
        )
    if replicas > 0:
        if result.failovers < 1:
            problems.append(
                "no failover happened (run finished too fast; "
                "lower --kill-after)"
            )
        elif result.failover_dedup_ok is not True:
            problems.append(
                "pre-failover idempotency key was NOT deduplicated by "
                "the promoted primary (exactly-once broken across "
                "failover)"
            )
        if not result.repl_injected:
            problems.append(
                "no faults were injected on the replication link"
            )
        if views:
            if result.views_ok is None and result.failovers:
                problems.append("view verification never ran")
            elif result.views_ok is False:
                problems.append(
                    view_problem
                    or "a view on the promoted primary diverged from "
                    "the recompute oracle"
                )
    elif result.restarts < restarts:
        problems.append(
            f"only {result.restarts}/{restarts} server kills happened"
            f" (run finished too fast; lower --kill-after)"
        )
    result.ok = not problems
    result.detail = "; ".join(problems)

    if out_dir is not None:
        benchlib.write_bench_json(
            out_dir, "resilience", result.series(), extra=result.extra()
        )
    if result.ok:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-rescheck",
        description="Drive exactly-once writes through a chaos proxy "
        "against a SIGKILLed-and-restarted server; verify no acked "
        "write is lost or double-applied.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--connections", type=int, default=4)
    parser.add_argument("--writes", type=int, default=250,
                        help="writes per connection")
    parser.add_argument("--kill-after", type=float, default=2.5,
                        help="seconds before each server SIGKILL")
    parser.add_argument("--restarts", type=int, default=1,
                        help="number of kill+restart cycles")
    parser.add_argument("--replicas", type=int, default=0,
                        help="run N journal-shipping read replicas, "
                        "SIGKILL the primary mid-run (no restart), "
                        "promote replica 0, and verify the promoted "
                        "server -- including dedup across the failover")
    parser.add_argument("--views", action="store_true",
                        help="with --replicas: declare dynamic views and "
                        "ingest base-table rows before the chaos window, "
                        "then verify every view on the promoted primary "
                        "against a recompute oracle after the failover")
    parser.add_argument("--min-faults", type=int, default=500,
                        help="fail unless at least this many faults injected")
    parser.add_argument("--drop", type=float, default=DEFAULT_PLAN.drop)
    parser.add_argument("--delay", type=float, default=DEFAULT_PLAN.delay)
    parser.add_argument("--duplicate", type=float,
                        default=DEFAULT_PLAN.duplicate)
    parser.add_argument("--truncate", type=float,
                        default=DEFAULT_PLAN.truncate)
    parser.add_argument("--kill", type=float, default=DEFAULT_PLAN.kill)
    parser.add_argument("--out", default=None,
                        help="directory for BENCH_resilience.json")
    parser.add_argument("--quick", action="store_true",
                        help="bounded variant for CI: fewer writes, "
                        "lower fault floor")
    args = parser.parse_args(argv)

    if args.views and args.replicas <= 0:
        parser.error("--views requires --replicas >= 1")

    kwargs: Dict[str, Any] = dict(
        seed=args.seed,
        connections=args.connections,
        writes_per_connection=args.writes,
        kill_after=args.kill_after,
        restarts=args.restarts,
        replicas=args.replicas,
        views=args.views,
        min_faults=args.min_faults,
        plan=ChaosPlan(
            drop=args.drop,
            delay=args.delay,
            duplicate=args.duplicate,
            truncate=args.truncate,
            kill=args.kill,
        ),
        out_dir=args.out,
    )
    if args.quick:
        kwargs.update(
            connections=3,
            writes_per_connection=60,
            min_faults=30,
            kill_after=1.0,
            give_up_after=45.0,
        )
    result = run_rescheck(**kwargs)
    print(result.render())
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
