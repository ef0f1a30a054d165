"""Systematic crash-consistency checking for journaled page files.

The write-ahead log's contract is simple to state and easy to get
wrong: *whatever instant the process dies at, reopening the file yields
exactly the last-committed aggregate*.  This harness proves it by
construction: it drives a journaled :class:`~repro.storage.PagedNodeStore`
through small insert / split / commit / compaction / batch workloads while a
:class:`~repro.faults.FaultInjector` kills the "process" (raises
:class:`~repro.faults.SimulatedCrash`) at a chosen occurrence of a
chosen :data:`~repro.storage.pager.Pager.CRASH_POINTS` entry; it then
abandons the file handles, reopens the file -- triggering WAL replay
-- and verifies the recovered tree against the brute-force
:mod:`repro.core.reference` oracle over the facts committed so far.
Every workload runs with :data:`CHECKPOINT_BYTES`-sized WAL generations,
so its commits checkpoint several times and the checkpoint's crash
points are swept like the commit's.

A crash *inside* ``commit()`` is the one genuinely ambiguous case: the
transaction is durable if and only if its commit frame reached the
file (under power loss: if the WAL fsync completed).  The harness
therefore accepts either the pre-commit or the post-commit fact set
there -- but never anything in between (atomicity), and the recovered
tree must additionally pass the full structural audit of
:func:`repro.core.validate.check_tree`.

Abandoning the handles keeps every byte the process ever wrote, so that
sweep cannot notice a *missing fsync*.  ``--power-loss`` runs the same
cases under the power-loss model of :func:`repro.faults.simulate_crash`:
at each crash the injector drops the writes issued since each file's
last fsync (WAL frames and headers, checkpoint copies) and the WAL
create/unlink no directory sync covered -- all of them, all but each
file's newest write (storage that persisted out of order), and a seeded
subset -- before the reopen, against the same oracle.  It is the proof
that the commit's one fsync and the checkpoint's ordering (data fsync,
then the new generation's header, fsynced before its first frame) are
each needed: skip any of them and this sweep fails.

The same discipline applies to the dynamic-view catalog: ``--catalog``
sweeps :meth:`repro.warehouse.dynamic.DynamicCatalog.save` instead,
crashing at every :data:`~repro.warehouse.dynamic.CATALOG_CRASH_POINTS`
entry (plus a torn temp-file write and an fsync failure) of every
checkpoint a workload takes, then reopening the catalog and verifying
it restored exactly the previous (or, past the rename, the new)
checkpoint and still resumes incremental refresh to oracle equivalence.

Run it from the command line (also installed as ``repro-crashcheck``)::

    python -m repro.crashcheck                 # full sweep, all workloads
    python -m repro.crashcheck --hits sample   # first/middle/last hit only
    python -m repro.crashcheck --workload split --verbose
    python -m repro.crashcheck --power-loss    # drop unsynced writes too
    python -m repro.crashcheck --catalog       # dynamic.json checkpoint sweep

Exit status is non-zero if any recovery diverged from the oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from . import obs
from .core import reference
from .core.intervals import Interval
from .core.sbtree import SBTree
from .core.validate import check_tree
from .faults import FaultInjector, SimulatedCrash, simulate_crash
from .storage import PagedNodeStore
from .storage import pager as pager_module
from .storage.pager import Pager
from .warehouse.dynamic import (
    CATALOG_CRASH_POINTS,
    CATALOG_WRITE_LABEL,
    DynamicCatalog,
)

__all__ = [
    "CrashCheckResult",
    "WORKLOADS",
    "CATALOG_WORKLOADS",
    "run_case",
    "run_catalog_case",
    "sweep",
    "sweep_all",
    "catalog_sweep",
    "catalog_sweep_all",
    "main",
]

#: Geometry shared by every workload: small pages and tiny fanout force
#: splits, evictions, and multi-page transactions within a few dozen
#: inserts.
_PAGE_SIZE = 512
_BUFFER_CAPACITY = 4
_BRANCHING = 4
_LEAF_CAPACITY = 4
_KIND = "sum"
#: The WAL generation size the sweep runs with: a few commits of these
#: small workloads each (1 MiB would never checkpoint before close).
CHECKPOINT_BYTES = 4096


@contextlib.contextmanager
def _small_generations():
    saved = pager_module.WAL_CHECKPOINT_BYTES
    pager_module.WAL_CHECKPOINT_BYTES = CHECKPOINT_BYTES
    try:
        yield
    finally:
        pager_module.WAL_CHECKPOINT_BYTES = saved


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class WorkloadContext:
    """Drives one tree while tracking the committed-facts oracle.

    ``committed`` holds the facts as of the last *completed* commit;
    ``commit_pending`` holds the fact set a commit was asked to make
    durable while that commit is still in flight (the ambiguous window).
    """

    def __init__(self, tree: SBTree, store: PagedNodeStore) -> None:
        self.tree = tree
        self.store = store
        self.committed: List[Tuple[int, Interval]] = []
        self.pending: List[Tuple[str, int, Interval]] = []
        self.commit_pending: Optional[List[Tuple[int, Interval]]] = None

    def live(self) -> List[Tuple[int, Interval]]:
        facts = list(self.committed)
        for op, value, interval in self.pending:
            if op == "+":
                facts.append((value, interval))
            else:
                facts.remove((value, interval))
        return facts

    def insert(self, value: int, interval: Interval) -> None:
        self.tree.insert(value, interval)
        self.pending.append(("+", value, interval))

    def delete(self, value: int, interval: Interval) -> None:
        self.tree.delete(value, interval)
        self.pending.append(("-", value, interval))

    def insert_batch(self, facts: Sequence[Tuple[int, Interval]]) -> None:
        self.tree.insert_batch(facts)
        self.pending.extend(("+", value, interval) for value, interval in facts)

    def commit(self) -> None:
        self.commit_pending = self.live()
        self.store.commit()
        self.committed = self.commit_pending
        self.commit_pending = None
        self.pending = []

    def compact(self) -> None:
        self.tree.compact()

    def oracles(self) -> List[List[Tuple[int, Interval]]]:
        """The fact sets the recovered file may legally equal."""
        accepted = [self.committed]
        if self.commit_pending is not None:
            accepted.append(self.commit_pending)
        return accepted


def _wl_insert(ctx: WorkloadContext) -> None:
    """Plain inserts with a mid-workload and a final commit."""
    for i in range(14):
        ctx.insert(i % 5 + 1, Interval(i * 3, i * 3 + 10))
        if i == 6:
            ctx.commit()
    ctx.commit()


def _wl_split(ctx: WorkloadContext) -> None:
    """Overlapping inserts dense enough to split leaves and the root."""
    for i in range(24):
        ctx.insert(i % 7 + 1, Interval(i * 2, i * 2 + 30))
    ctx.commit()
    for i in range(24, 40):
        ctx.insert(i % 7 + 1, Interval(i * 2, i * 2 + 30))
    ctx.commit()


def _wl_commit(ctx: WorkloadContext) -> None:
    """Many tiny transactions: the commit path is the hot path."""
    for i in range(10):
        ctx.insert(i + 1, Interval(i * 5, i * 5 + 12))
        ctx.commit()


def _wl_compact(ctx: WorkloadContext) -> None:
    """Inserts and deletions, then an explicit compaction pass."""
    facts = [(i % 4 + 1, Interval(i * 2, i * 2 + 20)) for i in range(20)]
    for value, interval in facts:
        ctx.insert(value, interval)
    ctx.commit()
    for value, interval in facts[::3]:
        ctx.delete(value, interval)
    ctx.compact()
    ctx.commit()


def _wl_batch(ctx: WorkloadContext) -> None:
    """The path the service runs: one ``insert_batch`` per transaction.

    The first batch cuts the lone root leaf into many and grows the
    root by more than one level; the second lands on several of those
    leaves.  Each transaction therefore allocates several pages and
    hands over one multi-page write-back set, with evictions under it.
    """
    ctx.insert_batch(
        [(i % 7 + 1, Interval(i * 2, i * 2 + 30)) for i in range(24)])
    ctx.commit()
    ctx.insert_batch(
        [(i % 5 + 1, Interval(i * 3, i * 3 + 9)) for i in range(16)])
    ctx.commit()


def _wl_turnover(ctx: WorkloadContext) -> None:
    """A WAL generation turning over under a transaction that evicts.

    One-fact commits until one of them checkpoints a generation of at
    least three transactions, then a transaction whose evictions write
    frames over that generation's before its commit: the frames a lost
    new-generation header would let replay run into.
    """
    in_generation = 0
    for i in range(40):
        ctx.insert(i % 5 + 1, Interval(i * 3, i * 3 + 10))
        ctx.commit()
        in_generation += 1
        if not ctx.store.pager.wal_bytes:  # that commit checkpointed
            if in_generation >= 3:
                break
            in_generation = 0
    for i in range(6):
        ctx.insert(i % 7 + 1, Interval(i * 2 + 1, i * 2 + 30))
    ctx.commit()


WORKLOADS: Dict[str, Callable[[WorkloadContext], None]] = {
    "insert": _wl_insert,
    "split": _wl_split,
    "commit": _wl_commit,
    "compact": _wl_compact,
    "batch": _wl_batch,
    "turnover": _wl_turnover,
}


# ----------------------------------------------------------------------
# One case: crash at (point, hit), recover, verify
# ----------------------------------------------------------------------
@dataclass
class CrashCheckResult:
    """Outcome of one crash-recovery case."""

    workload: str
    point: str
    hit: int
    crashed: bool
    ok: bool
    detail: str = ""
    #: ``None`` (process death), ``"all"`` or the subset seed.
    power_loss: Union[str, int, None] = None

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        crash = f"crash@hit {self.hit}" if self.crashed else "no crash (point exhausted)"
        if self.power_loss is not None:
            crash += f" +power loss ({self.power_loss})"
        tail = f" -- {self.detail}" if self.detail else ""
        return f"[{status}] {self.workload:8s} {self.point:24s} {crash}{tail}"


def _open(path: str, faults: Optional[FaultInjector] = None):
    store = PagedNodeStore(
        path,
        _KIND,
        page_size=_PAGE_SIZE,
        buffer_capacity=_BUFFER_CAPACITY,
        journaled=True,
        faults=faults,
    )
    if store.get_root() is None:
        tree = SBTree(
            _KIND, store, branching=_BRANCHING, leaf_capacity=_LEAF_CAPACITY
        )
    else:
        tree = SBTree(store=store)
    return store, tree


def _baseline(path: str, injector: FaultInjector) -> WorkloadContext:
    """An empty tree, committed and closed, then reopened under
    *injector*: the sweep targets the workload rather than file-creation
    noise, and the workload's first transaction is a pager's first --
    the one that creates the WAL every later one reuses."""
    for leftover in (path, path + "-wal"):
        if os.path.exists(leftover):
            os.remove(leftover)
    store, _ = _open(path)
    store.close()
    store, tree = _open(path, injector)
    return WorkloadContext(tree, store)


def run_case(
    path: str,
    workload: str,
    point: str,
    hit: int,
    power_loss: Union[str, int, None] = None,
) -> CrashCheckResult:
    """Run one workload with a crash armed at (point, hit) and verify.

    ``power_loss`` is handed to :func:`repro.faults.simulate_crash`:
    ``None`` keeps every written byte (a process death), ``"all"`` or a
    seed also drops unsynced writes and directory operations.

    Returns ``crashed=False`` when the workload finished before the
    point's *hit*-th occurrence -- the sweep uses that as its
    termination signal.
    """
    injector = FaultInjector(seed=hit)
    injector.crash_at(point, hit=hit)
    ctx = _baseline(path, injector)
    store = ctx.store
    crashed = False
    try:
        with _small_generations():
            WORKLOADS[workload](ctx)
        store.pager.faults = None
        store.close()
    except SimulatedCrash:
        crashed = True
        simulate_crash(store, power_loss=power_loss)

    ok, detail = _verify_recovery(path, ctx)
    # Registry counters (no-ops unless repro.obs is enabled): long
    # crash sweeps report progress like every other subsystem.
    obs.count("crashcheck.cases")
    if crashed:
        obs.count("crashcheck.faults_injected")
    if ok:
        obs.count("crashcheck.cases_passed")
    return CrashCheckResult(
        workload, point, hit, crashed, ok, detail, power_loss
    )


def _verify_recovery(path: str, ctx: WorkloadContext) -> Tuple[bool, str]:
    try:
        store, tree = _open(path)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        return False, f"reopen failed: {exc!r}"
    try:
        recovered = tree.to_table()
        for facts in ctx.oracles():
            if recovered == reference.instantaneous_table(facts, _KIND):
                check_tree(tree)
                return True, ""
        return False, (
            f"recovered table diverges from the committed oracle "
            f"({len(ctx.committed)} committed facts)"
        )
    except Exception as exc:  # noqa: BLE001
        return False, f"recovered tree is unusable: {exc!r}"
    finally:
        try:
            store.close()
        except Exception:  # noqa: BLE001 - best effort
            pass


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def _count_hits(path: str, workload: str) -> Dict[str, int]:
    """Dry run with a disarmed injector: how often is each point hit?"""
    counter = FaultInjector()
    ctx = _baseline(path, counter)
    with _small_generations():
        WORKLOADS[workload](ctx)
    hits = dict(counter.hits)  # before close() adds its own
    ctx.store.close()
    return hits


def _hit_schedule(total: int, hits: Union[str, int]) -> List[int]:
    if total <= 0:
        return []
    if hits == "all":
        return list(range(1, total + 1))
    if hits == "sample":  # first, middle, last occurrence
        return sorted({1, (total + 1) // 2, total})
    return list(range(1, min(int(hits), total) + 1))


def sweep(
    workload: str,
    workdir: str,
    *,
    hits: Union[str, int] = "all",
    verbose: bool = False,
    power_loss: bool = False,
) -> List[CrashCheckResult]:
    """Crash one workload at every crash point (and chosen occurrences).

    ``hits`` is ``"all"`` (every occurrence of every point -- the
    exhaustive sweep), ``"sample"`` (first/middle/last occurrence), or
    an integer (the first N occurrences).  With ``power_loss`` every
    case runs three times: losing all unsynced state, all of it but
    each file's newest write, and a seeded subset of it.
    """
    path = os.path.join(workdir, f"crashcheck-{workload}.sbt")
    occurrences = _count_hits(path, workload)
    results: List[CrashCheckResult] = []
    for point in Pager.CRASH_POINTS:
        for hit in _hit_schedule(occurrences.get(point, 0), hits):
            modes = ("all", "newest", 2 * hit) if power_loss else (None,)
            for mode in modes:
                result = run_case(path, workload, point, hit, mode)
                results.append(result)
                if verbose or not result.ok:
                    print(result, flush=True)
    return results


def sweep_all(
    workdir: str,
    *,
    workloads: Optional[Sequence[str]] = None,
    hits: Union[str, int] = "all",
    verbose: bool = False,
    power_loss: bool = False,
) -> List[CrashCheckResult]:
    """Run :func:`sweep` for every (or the selected) workload."""
    results: List[CrashCheckResult] = []
    for name in workloads or sorted(WORKLOADS):
        results.extend(
            sweep(name, workdir, hits=hits, verbose=verbose,
                  power_loss=power_loss)
        )
    return results


# ----------------------------------------------------------------------
# Dynamic-view catalog checkpoint sweep
# ----------------------------------------------------------------------
#: One fault plan per checkpoint: the three labeled crash points, a torn
#: temp-file write, and an injected fsync failure.
CATALOG_FAULT_PLANS: Tuple[Tuple[str, Optional[str]], ...] = tuple(
    ("crash", point) for point in CATALOG_CRASH_POINTS
) + (("torn", None), ("fsync", None))


class CatalogWorkloadContext:
    """Drives one :class:`DynamicCatalog` while tracking checkpoint oracles.

    ``completed`` is the base-table fact set as of the last checkpoint
    that finished; ``inflight`` is the fact set the in-flight checkpoint
    was serializing when the fault fired.  Unlike the pager's ambiguous
    commit window, the catalog's crash points pin down which of the two
    a recovery must restore: everything before the rename recovers
    ``completed``, everything after it recovers ``inflight``.
    """

    def __init__(
        self, directory: str, plan: Optional[Tuple[str, Optional[str], int]] = None,
        seed: int = 0,
    ) -> None:
        self.directory = directory
        self.plan = plan  # (kind, crash point or None, checkpoint number)
        self.injector = FaultInjector(seed=seed)
        if plan is not None:
            kind, point, ckpt = plan
            if kind == "crash":
                self.injector.crash_at(point, hit=ckpt)
            elif kind == "torn":
                self.injector.tear_write(CATALOG_WRITE_LABEL, call=ckpt)
            # "fsync" is armed lazily in save(): fail_fsyncs fires on the
            # *next* fsync, so it must not be live before checkpoint ckpt.
        self._ticks = 0.0
        self.catalog = DynamicCatalog(directory, clock=self._clock)
        self.facts: List[Tuple[Any, Any, Any, Tuple]] = []
        self.view_oracles: Dict[str, Tuple[str, bool]] = {}
        self.saves = 0
        self.completed: Optional[List] = None
        self.inflight: Optional[List] = None

    def _clock(self) -> float:
        self._ticks += 1.0
        return self._ticks

    def snapshot(self) -> List:
        return sorted(self.facts)

    def insert(self, value: int, start, end, k: int):
        row = self.catalog.insert("t", value, Interval(start, end), k=k)
        self.facts.append((value, start, end, (("k", k),)))
        return row

    def delete(self, row) -> None:
        self.catalog.delete("t", row)
        self.facts.remove(
            (row.value, row.valid.start, row.valid.end,
             tuple(sorted(row.payload.items())))
        )

    def view(self, name: str, over: str, kind: str, *, key: Optional[str] = None) -> None:
        self.catalog.create_view(name, over, kind, key=key)
        self.view_oracles[name] = (kind, key is not None)

    def baseline(self) -> None:
        """Fault-free first checkpoint; arms the injector for the rest."""
        self.catalog.refresh()
        self.catalog.save()
        self.completed = self.snapshot()
        self.catalog.faults = self.injector

    def save(self) -> None:
        self.saves += 1
        if (self.plan is not None and self.plan[0] == "fsync"
                and self.plan[2] == self.saves):
            self.injector.fail_fsyncs(CATALOG_WRITE_LABEL, times=1)
        entry = self.snapshot()
        self.inflight = entry
        self.catalog.save()
        self.completed = entry
        self.inflight = None


def _cwl_cat_ingest(ctx: CatalogWorkloadContext) -> None:
    """Append-only ingest into ungrouped sum/avg rollups."""
    ctx.catalog.create_table("t")
    ctx.view("s", "t", "sum")
    ctx.view("a", "t", "avg")
    ctx.insert(5, 0, 50, 0)
    ctx.baseline()
    for i in range(14):
        ctx.insert(i % 7 + 1, i * 4, i * 4 + 25, i % 3)
        ctx.insert(i % 5 + 2, i * 6 + 2, i * 6 + 30, (i + 1) % 3)
        if i % 2 == 0:
            ctx.catalog.refresh()
        ctx.save()


def _cwl_cat_dag(ctx: CatalogWorkloadContext) -> None:
    """A two-level DAG (sum over a grouped sum) plus a count, with deletes."""
    ctx.catalog.create_table("t")
    ctx.view("by_k", "t", "sum", key="k")
    ctx.view("total", "by_k", "sum")
    ctx.view("c", "t", "count")
    ctx.insert(3, 0, 40, 0)
    ctx.insert(4, 10, 60, 1)
    ctx.baseline()
    rows = []
    for i in range(14):
        rows.append(ctx.insert(i % 6 + 1, i * 3, i * 3 + 18, i % 3))
        if i % 4 == 3:
            ctx.delete(rows.pop(0))
        ctx.catalog.refresh()
        ctx.save()


def _cwl_cat_churn(ctx: CatalogWorkloadContext) -> None:
    """Heavy insert/delete churn with an unconsumed tail at most saves."""
    ctx.catalog.create_table("t")
    ctx.view("s", "t", "sum", key="k")
    ctx.view("a", "t", "avg")
    ctx.baseline()
    live = []
    for i in range(14):
        live.append(ctx.insert(i % 4 + 1, i * 2, i * 2 + 16, i % 2))
        live.append(ctx.insert(i % 3 + 5, i * 5, i * 5 + 11, (i + 1) % 2))
        if len(live) > 5:
            ctx.delete(live.pop(i % 3))
        if i % 3 != 2:
            ctx.catalog.refresh()
        ctx.save()


CATALOG_WORKLOADS: Dict[str, Callable[[CatalogWorkloadContext], None]] = {
    "cat-ingest": _cwl_cat_ingest,
    "cat-dag": _cwl_cat_dag,
    "cat-churn": _cwl_cat_churn,
}


def _catalog_facts(catalog: DynamicCatalog) -> List:
    return sorted(
        (row.value, row.valid.start, row.valid.end,
         tuple(sorted(row.payload.items())))
        for row in catalog.table("t")
    )


def _check_catalog_views(
    catalog: DynamicCatalog, facts: Sequence[Tuple], ctx: CatalogWorkloadContext
) -> str:
    """Every declared view against the brute-force oracle over *facts*."""
    rows = [
        (value, (start, end), dict(payload).get("k"))
        for value, start, end, payload in facts
    ]
    keys = {group for _, _, group in rows}
    probes = sorted(
        {start for _, start, _, _ in facts}
        | {(start + end) / 2.0 for _, start, end, _ in facts}
        | {-7.0}
    )
    for name, (kind, grouped) in ctx.view_oracles.items():
        view = catalog.view(name)
        for t in probes:
            for key in (keys if grouped else (None,)):
                got = view.value_at(t, key)
                want = reference.view_value(rows, kind, t, key)
                if got != want:
                    label = f" key={key!r}" if grouped else ""
                    return (
                        f"view {name!r}{label} at t={t}: "
                        f"recovered {got!r} != oracle {want!r}"
                    )
    return ""


def _verify_catalog_recovery(
    dirpath: str, ctx: CatalogWorkloadContext
) -> Tuple[bool, str]:
    try:
        catalog = DynamicCatalog(dirpath, clock=ctx._clock)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        return False, f"reopen failed: {exc!r}"
    # Which checkpoint must the recovery equal?  Deterministic: only a
    # crash *after* the rename makes the in-flight checkpoint durable.
    if (ctx.inflight is not None and ctx.plan is not None
            and ctx.plan[0] == "crash"
            and ctx.plan[1] == "view_ckpt:after_rename"):
        expected = ctx.inflight
    else:
        expected = ctx.completed
    try:
        recovered = _catalog_facts(catalog)
    except Exception as exc:  # noqa: BLE001
        return False, f"restored catalog is unusable: {exc!r}"
    if recovered != expected:
        return False, (
            f"restored base table holds {len(recovered)} facts; the "
            f"checkpoint oracle holds {len(expected)}"
        )
    if set(catalog.view_names()) != set(ctx.view_oracles):
        return False, (
            f"restored views {sorted(catalog.view_names())} != declared "
            f"{sorted(ctx.view_oracles)}"
        )
    try:
        catalog.refresh()
        error = _check_catalog_views(catalog, recovered, ctx)
        if error:
            return False, error
        # Resume incrementally: fresh ingest must flow through the
        # restored watermarks, not trip over the compacted prefix.
        horizon = max((end for _, _, end, _ in recovered), default=0)
        extra = [
            (9, horizon + 1, horizon + 20, 0),
            (4, horizon + 5, horizon + 30, 1),
            (7, horizon + 2, horizon + 15, 2),
        ]
        for value, start, end, k in extra:
            catalog.insert("t", value, Interval(start, end), k=k)
        catalog.refresh()
        resumed = sorted(
            recovered + [(v, s, e, (("k", k),)) for v, s, e, k in extra]
        )
        error = _check_catalog_views(catalog, resumed, ctx)
        if error:
            return False, "after resume: " + error
    except Exception as exc:  # noqa: BLE001
        return False, f"restored catalog is unusable: {exc!r}"
    return True, ""


def run_catalog_case(
    workdir: str, workload: str, kind: str, point: Optional[str], ckpt: int
) -> CrashCheckResult:
    """One catalog case: fault checkpoint *ckpt* per *kind*, recover, verify."""
    dirpath = os.path.join(workdir, f"crashcheck-{workload}")
    shutil.rmtree(dirpath, ignore_errors=True)
    ctx = CatalogWorkloadContext(dirpath, plan=(kind, point, ckpt), seed=ckpt)
    crashed = False
    try:
        CATALOG_WORKLOADS[workload](ctx)
        ctx.catalog.faults = None
    except (SimulatedCrash, OSError):
        # A dying process keeps no file handles to abandon here: the
        # checkpoint path opens and closes its temp file per save.
        crashed = True
    ok, detail = _verify_catalog_recovery(dirpath, ctx)
    obs.count("crashcheck.cases")
    if crashed:
        obs.count("crashcheck.faults_injected")
    if ok:
        obs.count("crashcheck.cases_passed")
    label = point if kind == "crash" else f"{CATALOG_WRITE_LABEL}:{kind}"
    return CrashCheckResult(workload, label, ckpt, crashed, ok, detail)


def _count_catalog_saves(workdir: str, workload: str) -> int:
    """Dry run with no faults armed: how many checkpoints does it take?"""
    dirpath = os.path.join(workdir, f"crashcheck-{workload}")
    shutil.rmtree(dirpath, ignore_errors=True)
    ctx = CatalogWorkloadContext(dirpath)
    CATALOG_WORKLOADS[workload](ctx)
    return ctx.saves


def catalog_sweep(
    workload: str,
    workdir: str,
    *,
    hits: Union[str, int] = "all",
    verbose: bool = False,
) -> List[CrashCheckResult]:
    """Fault one catalog workload at every plan and chosen checkpoint."""
    total = _count_catalog_saves(workdir, workload)
    results: List[CrashCheckResult] = []
    for kind, point in CATALOG_FAULT_PLANS:
        for ckpt in _hit_schedule(total, hits):
            result = run_catalog_case(workdir, workload, kind, point, ckpt)
            results.append(result)
            if verbose or not result.ok:
                print(result, flush=True)
    return results


def catalog_sweep_all(
    workdir: str,
    *,
    workloads: Optional[Sequence[str]] = None,
    hits: Union[str, int] = "all",
    verbose: bool = False,
) -> List[CrashCheckResult]:
    """Run :func:`catalog_sweep` for every (or the selected) workload."""
    results: List[CrashCheckResult] = []
    for name in workloads or sorted(CATALOG_WORKLOADS):
        results.extend(catalog_sweep(name, workdir, hits=hits, verbose=verbose))
    return results


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-crashcheck",
        description="Crash a journaled SB-tree at every labeled crash "
        "point and verify recovery against the reference oracle.",
    )
    parser.add_argument(
        "--workload",
        action="append",
        help="restrict to one workload (repeatable; default: all)",
    )
    parser.add_argument(
        "--catalog",
        action="store_true",
        help="sweep the dynamic-view catalog checkpoint path "
        "(dynamic.json) instead of the journaled page file",
    )
    parser.add_argument(
        "--power-loss",
        action="store_true",
        help="also drop, at each crash, the writes no fsync covered and "
        "the WAL create/unlink no directory sync covered (all of "
        "them, all but each file's newest write, and a seeded subset): "
        "catches a missing fsync",
    )
    parser.add_argument(
        "--hits",
        default="all",
        help="'all' (exhaustive), 'sample' (first/middle/last), or a "
        "number N (first N occurrences per crash point)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print every case, not just failures"
    )
    args = parser.parse_args(argv)
    hits: Union[str, int] = args.hits
    if hits not in ("all", "sample"):
        try:
            hits = int(hits)
        except ValueError:
            parser.error("--hits must be 'all', 'sample', or an integer")
    if args.catalog and args.power_loss:
        parser.error("--power-loss sweeps the page file, not the catalog")
    table = CATALOG_WORKLOADS if args.catalog else WORKLOADS
    for name in args.workload or ():
        if name not in table:
            parser.error(
                f"unknown workload {name!r} (choose from {sorted(table)})"
            )
    common: Dict[str, Any] = dict(
        workloads=args.workload, hits=hits, verbose=args.verbose
    )
    with tempfile.TemporaryDirectory(prefix="repro-crashcheck-") as workdir:
        if args.catalog:
            results = catalog_sweep_all(workdir, **common)
        else:
            results = sweep_all(workdir, power_loss=args.power_loss, **common)
    crashes = sum(r.crashed for r in results)
    failures = [r for r in results if not r.ok]
    points = {r.point for r in results if r.crashed}
    print(
        f"\ncrashcheck: {len(results)} cases, {crashes} injected crashes "
        f"across {len(points)} crash points, {len(failures)} failures"
    )
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
