"""Systematic crash-consistency checking for page files.

The write-ahead log's contract is simple to state and easy to get
wrong: *whatever instant the process dies at, reopening the file yields
exactly the last-committed aggregate*.  This harness proves it by
construction.  Each workload is a fixed list of the
:class:`~repro.oracle.OracleModel`'s steps (inserts, batches, deletes,
compaction, commits) on one paged SB-tree.  A dry run counts how often
the list reaches each :data:`~repro.storage.pager.Pager.CRASH_POINTS`
entry; then every case replays the list with the store's
:class:`~repro.faults.FaultInjector` armed to kill the "process" (raise
:class:`~repro.faults.SimulatedCrash`) at one occurrence of one point,
abandons the file handles, reopens the file -- WAL replay -- and judges
the recovery with the model's invariant: every route against
:mod:`repro.core.reference`, :func:`~repro.core.validate.check_tree`,
and the paper's cost bounds.  Every workload runs with
:data:`CHECKPOINT_BYTES`-sized WAL generations, so its commits
checkpoint several times and the checkpoint's crash points are swept
like the commit's.  A crash inside a commit may recover the commit's
facts or the last commit's, never anything in between.

Abandoning the handles keeps every byte the process ever wrote, so that
sweep cannot notice a *missing fsync*.  ``--power-loss`` runs each case
three times more, the injector dropping what no fsync covered -- all
of it, all but each file's newest write, a seeded subset
(:meth:`~repro.faults.FaultInjector.lose_power`).  Skip the commit's
fsync, or any step of the checkpoint's ordering, and it fails.

``--catalog`` sweeps :meth:`repro.warehouse.dynamic.DynamicCatalog.save`
instead, crashing at every
:data:`~repro.warehouse.dynamic.CATALOG_CRASH_POINTS` entry (plus a torn
temp-file write and an fsync failure) of every checkpoint a workload
takes, then checking the reopened catalog restored exactly the previous
(or, past the rename, the new) checkpoint, resumes refresh, and gives
each leaf view (one nothing consumes, so it keeps no rows) a consumer
that answers from the rows the leaf materializes for it.

Run it from the command line (also installed as ``repro-crashcheck``)::

    python -m repro.crashcheck                 # full sweep, all workloads
    python -m repro.crashcheck --hits sample   # first/middle/last hit only
    python -m repro.crashcheck --workload split --verbose
    python -m repro.crashcheck --power-loss    # drop unsynced writes too
    python -m repro.crashcheck --catalog       # dynamic.json checkpoint sweep

Exit status is non-zero if any recovery diverged from the oracle, or if
no case crashed at all.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from . import obs
from .core import reference
from .core.intervals import Interval
from .faults import FaultInjector, SimulatedCrash
from .oracle import OracleModel, Step
from .storage import fsck_dynamic
from .storage import pager as pager_module
from .storage.pager import Pager
from .warehouse.dynamic import (
    CATALOG_CRASH_POINTS,
    CATALOG_WRITE_LABEL,
    CHECKPOINT_NAME,
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

#: The model every workload runs on: one page file of 512-byte pages
#: behind a 4-frame pool, and SUM trees of tiny fanout, so splits,
#: evictions and multi-page transactions come within a few dozen inserts.
_KIND, _GEOMETRY, _FRAMES, _W = "sum", (4, 4), 4, 10
#: The WAL generation size the sweep runs with: a few commits of these
#: small workloads each (1 MiB would never checkpoint before close).
CHECKPOINT_BYTES = 4096


# ----------------------------------------------------------------------
# Workloads: fixed step lists of the oracle model's rules
# ----------------------------------------------------------------------
def _facts(count: int, values: int, stride: int, length: int, first: int = 0,
           shift: int = 0) -> List[Tuple[int, Interval]]:
    starts = [(i, i * stride + shift) for i in range(first, count)]
    return [(i % values + 1, Interval(start, start + length)) for i, start in starts]


def _each(facts: List[Tuple[int, Interval]], *after: Step) -> List[Step]:
    """One ``insert`` step per fact, each followed by *after*."""
    return [step for fact in facts for step in (("insert", fact),) + after]


COMMIT: Step = ("commit",)
#: One-fact commits before the ``turnover`` workload's last transaction.
_TURNOVER_COMMITS = 3

WORKLOADS: Dict[str, List[Step]] = {
    # Plain inserts with a mid-workload and a final commit.
    "insert": _each(_facts(7, 5, 3, 10)) + [COMMIT]
    + _each(_facts(14, 5, 3, 10, first=7)) + [COMMIT],
    # Overlapping inserts dense enough to split leaves and the root.
    "split": _each(_facts(24, 7, 2, 30)) + [COMMIT]
    + _each(_facts(40, 7, 2, 30, first=24)) + [COMMIT],
    # Many tiny transactions: the commit path is the hot path.
    "commit": _each(_facts(10, 10, 5, 12), COMMIT),
    # Inserts, deletes of every third fact (2k-th live once k are gone), compaction.
    "compact": _each(_facts(20, 4, 2, 20)) + [COMMIT]
    + [("delete", 2 * k) for k in range(7)] + [("compact", False), COMMIT],
    # The service's path, one ``insert_batch`` per transaction: the first
    # grows the lone root leaf by more than one level, the second lands on
    # several leaves; each allocates pages and evicts under its write-back.
    "batch": [("insert_batch", _facts(24, 7, 2, 30)), COMMIT,
              ("insert_batch", _facts(16, 5, 3, 9)), COMMIT],
    # A WAL generation turning over: the last one-fact commit checkpoints a
    # generation of all of them, then evictions write frames over its frames
    # before the next commit -- what a lost new header would let replay reach.
    "turnover": _each(_facts(_TURNOVER_COMMITS, 5, 3, 10), COMMIT)
    + _each(_facts(6, 7, 2, 29, shift=1)) + [COMMIT],
}


# ----------------------------------------------------------------------
# One case: crash at (point, hit), recover, judge
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
    #: ``None`` (process death), ``"all"``, ``"newest"`` or the subset seed.
    power_loss: Union[str, int, None] = None

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        crash = f"crash@hit {self.hit}" if self.crashed else "no crash (point exhausted)"
        if self.power_loss is not None:
            crash += f" +power loss ({self.power_loss})"
        tail = f" -- {self.detail}" if self.detail else ""
        return f"[{status}] {self.workload:8s} {self.point:24s} {crash}{tail}"


@contextlib.contextmanager
def _model(workdir: str) -> Iterator[OracleModel]:
    """An :class:`OracleModel` on one fresh page file under *workdir*,
    with :data:`CHECKPOINT_BYTES`-sized WAL generations."""
    saved = pager_module.WAL_CHECKPOINT_BYTES
    pager_module.WAL_CHECKPOINT_BYTES = CHECKPOINT_BYTES
    model = OracleModel()
    try:
        model.setup(_KIND, _GEOMETRY, "paged", _FRAMES, _W, directory=workdir)
        yield model
    finally:
        model.teardown()
        pager_module.WAL_CHECKPOINT_BYTES = saved


def run_case(path: str, workload: str, point: str, hit: int,
             power_loss: Union[str, int, None] = None) -> CrashCheckResult:
    """Replay *workload* in a fresh directory beside *path*, the store's
    injector armed to crash at *point*'s *hit*-th hit; on the crash,
    :meth:`OracleModel.crash` under *power_loss* (see
    :func:`repro.faults.simulate_crash`); then judge with the model's
    invariant.  ``crashed=False``: the list ended before that hit."""
    crashed, detail = False, ""
    with _model(os.path.dirname(path) or ".") as model:
        injector = model.stores[0].pager.faults.crash_at(point, hit=hit)
        try:
            try:
                for name, *arguments in WORKLOADS[workload]:
                    getattr(model, name)(*arguments)
            except SimulatedCrash:
                crashed = True
                model.crash(power_loss)
            finally:  # neither the invariant's reads nor the close may crash
                injector.disarm()
            model.answers_match_the_oracle()
        except Exception as exc:  # noqa: BLE001 - report, don't stop the sweep
            detail = f"{type(exc).__name__}: {exc}"
    # Registry counters (no-ops unless repro.obs is enabled): long
    # crash sweeps report progress like every other subsystem.
    obs.count("crashcheck.cases")
    if crashed:
        obs.count("crashcheck.faults_injected")
    ok = not detail
    if ok:
        obs.count("crashcheck.cases_passed")
    return CrashCheckResult(workload, point, hit, crashed, ok, detail, power_loss)


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def _count_hits(workdir: str, workload: str) -> Dict[str, int]:
    """Dry runs: each point's hits on the list every case replays, then
    the list again with the invariant checked after every step (whose
    reads evict dirty pages: that run's hits are not the cases')."""
    counts = []
    for checked in (False, True):
        with _model(workdir) as model:
            for name, *arguments in WORKLOADS[workload]:
                getattr(model, name)(*arguments)
                if checked:
                    model.answers_match_the_oracle()
            counts.append(dict(model.stores[0].pager.faults.hits))
    return counts[0]  # read before close adds its own


def _hit_schedule(total: int, hits: Union[str, int]) -> List[int]:
    if total <= 0:
        return []
    if hits == "all":
        return list(range(1, total + 1))
    if hits == "sample":  # first, middle, last occurrence
        return sorted({1, (total + 1) // 2, total})
    return list(range(1, min(int(hits), total) + 1))


def sweep(workload: str, workdir: str, *, hits: Union[str, int] = "all",
          verbose: bool = False, power_loss: bool = False) -> List[CrashCheckResult]:
    """Crash one workload at every crash point, at the occurrences
    *hits* picks: ``"all"``, ``"sample"`` (first/middle/last) or the
    first N.  With *power_loss* each case runs three times: losing all
    unsynced state, all but each file's newest write, a seeded subset."""
    path = os.path.join(workdir, f"crashcheck-{workload}.sbt")
    occurrences = _count_hits(workdir, workload)
    results: List[CrashCheckResult] = []
    for point in Pager.CRASH_POINTS:
        for hit in _hit_schedule(occurrences.get(point, 0), hits):
            for mode in ("all", "newest", 2 * hit) if power_loss else (None,):
                results.append(run_case(path, workload, point, hit, mode))
                if verbose or not results[-1].ok:
                    print(results[-1], flush=True)
    return results


def sweep_all(workdir: str, *, workloads: Optional[Sequence[str]] = None,
              hits: Union[str, int] = "all", verbose: bool = False,
              power_loss: bool = False) -> List[CrashCheckResult]:
    """Run :func:`sweep` for every (or the selected) workload."""
    return [
        result for name in workloads or sorted(WORKLOADS)
        for result in sweep(name, workdir, hits=hits, verbose=verbose,
                            power_loss=power_loss)
    ]


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


def _oracle_rows(facts: Sequence[Tuple]) -> Tuple[List, set, List]:
    """*facts* as ``reference.view_value`` rows, their groups, and the
    instants to probe: every start and midpoint, and one before all."""
    rows = [
        (value, (start, end), dict(payload).get("k"))
        for value, start, end, payload in facts
    ]
    probes = sorted(
        {start for _, start, _, _ in facts}
        | {(start + end) / 2.0 for _, start, end, _ in facts}
        | {-7.0}
    )
    return rows, {group for _, _, group in rows}, probes


def _check_catalog_views(
    catalog: DynamicCatalog, facts: Sequence[Tuple], ctx: CatalogWorkloadContext
) -> str:
    """Every declared view against the brute-force oracle over *facts*."""
    rows, keys, probes = _oracle_rows(facts)
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


def _check_leaf_consumers(
    catalog: DynamicCatalog, facts: Sequence[Tuple], ctx: CatalogWorkloadContext
) -> str:
    """A SUM over each restored leaf view against the oracle over
    *facts*: the sum, over the leaf's groups, of what each answers (no
    row where that is ``None``).  The leaf kept no rows; it materializes
    them from its trees for the consumer.  (Compared to within 1e-9: an
    AVG leaf's rows are floats, which the consumer's tree adds up.)"""
    rows, keys, probes = _oracle_rows(facts)
    for name, (kind, grouped) in ctx.view_oracles.items():
        if catalog.dependents_of(name):
            continue
        consumer = f"{name}_sum"
        catalog.create_view(consumer, name, "sum")
        for t in probes:
            want = sum(
                reference.view_value(rows, kind, t, key) or 0
                for key in (keys if grouped else (None,))
            )
            got = catalog.read(consumer, t).value
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9):
                return (
                    f"a consumer of leaf view {name!r} at t={t}: "
                    f"{got!r} != oracle {want!r}"
                )
    return ""


def _verify_catalog_recovery(
    dirpath: str, ctx: CatalogWorkloadContext
) -> Tuple[bool, str]:
    errors = fsck_dynamic(os.path.join(dirpath, CHECKPOINT_NAME)).errors()
    if errors:
        return False, "fsck: " + "; ".join(f"{f.code}: {f.message}" for f in errors)
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
        error = _check_leaf_consumers(catalog, resumed, ctx)
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
        description="Crash a paged SB-tree at every labeled crash "
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
        "(dynamic.json) instead of the page file",
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
        if hits < 1:
            parser.error(f"--hits must be at least 1, got {hits}")
    if args.catalog and args.power_loss:
        parser.error("--power-loss sweeps the page file, not the catalog")
    table = CATALOG_WORKLOADS if args.catalog else WORKLOADS
    for name in args.workload or ():
        if name not in table:
            parser.error(
                f"unknown workload {name!r} (choose from {sorted(table)})"
            )
    workloads = list(dict.fromkeys(args.workload or ())) or None
    common: Dict[str, Any] = dict(
        workloads=workloads, hits=hits, verbose=args.verbose
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
    if not crashes:
        print("crashcheck: no case crashed, so nothing was checked")
    return 1 if failures or not crashes else 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
