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
instead.  Each catalog workload is a fixed list of the
:class:`~repro.oracle.CatalogModel`'s steps.  A dry run judges each of
its saves (opened beside the live catalog, and the model's invariant);
then every case replays the list once per fault: a crash at every
:data:`~repro.warehouse.dynamic.CATALOG_CRASH_POINTS` entry, a torn
temp-file write and an fsync failure, of every checkpoint after the
first.  The model's ``crash`` then reopens the catalog, which
must pass ``fsck_dynamic`` and hold exactly the last completed
checkpoint (or, past the rename, the one in flight); it resumes with
fresh facts and gives each leaf view without a window (one nothing
consumes, so it keeps no rows) a SUM consumer, and the model's invariant
judges every view against :mod:`repro.core.reference`.

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
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from . import obs
from .core.intervals import Interval
from .faults import FaultInjector, SimulatedCrash
from .oracle import CatalogModel, OracleModel, Step
from .storage import pager as pager_module
from .storage.pager import Pager
from .warehouse.dynamic import ANY_WINDOW, CATALOG_CRASH_POINTS, CATALOG_WRITE_LABEL

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
    return _counted(
        CrashCheckResult(workload, point, hit, crashed, not detail, detail, power_loss)
    )


def _counted(result: CrashCheckResult) -> CrashCheckResult:
    """*result*, counted in the registry (no-ops unless repro.obs is
    enabled): long crash sweeps report progress like every other
    subsystem."""
    obs.count("crashcheck.cases")
    if result.crashed:
        obs.count("crashcheck.faults_injected")
    if result.ok:
        obs.count("crashcheck.cases_passed")
    return result


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


#: The catalog steps the workloads share.
REFRESH: Step = ("refresh",)
SAVE: Step = ("save",)
CHECK: Step = ("views_match_the_oracle",)
RESTORES: Step = ("check_restores",)


def _fact(value: int, start: int, end: int, k: int) -> Step:
    return ("insert", "t", value, (start, end), {"k": k})


def _cat_ingest() -> List[Step]:
    """Append-only ingest into ungrouped sum/avg rollups."""
    steps = [("create_table", "t"), ("create_view", "s", "t", "sum"),
             ("create_view", "a", "t", "avg"), _fact(5, 0, 50, 0), REFRESH, SAVE]
    for i in range(14):
        steps += [_fact(i % 7 + 1, i * 4, i * 4 + 25, i % 3),
                  _fact(i % 5 + 2, i * 6 + 2, i * 6 + 30, (i + 1) % 3)]
        steps += [REFRESH, SAVE] if i % 2 == 0 else [SAVE]
    return steps


def _cat_dag() -> List[Step]:
    """A two-level DAG (sum over a grouped sum) plus a count; every
    fourth fact deletes the oldest one the loop inserted (the third live
    row: the baseline's two come first)."""
    steps = [("create_table", "t"), ("create_view", "by_k", "t", "sum", "k"),
             ("create_view", "total", "by_k", "sum"), ("create_view", "c", "t", "count"),
             _fact(3, 0, 40, 0), _fact(4, 10, 60, 1), REFRESH, SAVE]
    for i in range(14):
        steps.append(_fact(i % 6 + 1, i * 3, i * 3 + 18, i % 3))
        if i % 4 == 3:
            steps.append(("delete", "t", 2))
        steps += [REFRESH, SAVE]
    return steps


def _cat_churn() -> List[Step]:
    """Heavy insert/delete churn with an unconsumed tail at most saves."""
    steps = [("create_table", "t"), ("create_view", "s", "t", "sum", "k"),
             ("create_view", "a", "t", "avg"), REFRESH, SAVE]
    live = 0
    for i in range(14):
        steps += [_fact(i % 4 + 1, i * 2, i * 2 + 16, i % 2),
                  _fact(i % 3 + 5, i * 5, i * 5 + 11, (i + 1) % 2)]
        live += 2
        if live > 5:
            steps.append(("delete", "t", i % 3))
            live -= 1
        steps += [REFRESH, SAVE] if i % 3 != 2 else [SAVE]
    return steps


def _cat_window() -> List[Step]:
    """The paper's Section 4 views.  Over ``t``, a fixed-window AVG
    (Figure 5's AvgDosage5) and a grouped SUM at any offset (dual
    pairs); every fourth fact deletes the second live row.  Over the
    insert-only ``m``, a fixed-window MAX (Figure 6's MaxDosage20) and
    a MAX at any offset (MSB-trees)."""
    steps = [("create_table", "t"), ("create_table", "m"),
             ("create_view", "avg5", "t", "avg", None, "downstream", 5),
             ("create_view", "cum", "t", "sum", "k", "downstream", ANY_WINDOW),
             ("create_view", "max20", "m", "max", None, "downstream", 20),
             ("create_view", "cmax", "m", "max", None, "downstream", ANY_WINDOW),
             _fact(3, 0, 40, 0), ("insert", "m", 2, (5, 30)), REFRESH, SAVE]
    for i in range(14):
        steps += [_fact(i % 6 + 1, i * 4, i * 4 + 20, i % 3),
                  ("insert", "m", i % 5 + 1, (i * 5, i * 5 + 12))]
        if i % 4 == 3:
            steps.append(("delete", "t", 1))
        steps += [REFRESH, SAVE] if i % 3 != 2 else [SAVE]
    return steps


#: Fixed step lists of the catalog model's rules; each one's first save
#: is the fault-free baseline, and the sweep faults each save after it.
CATALOG_WORKLOADS: Dict[str, List[Step]] = {
    "cat-ingest": _cat_ingest(),
    "cat-dag": _cat_dag(),
    "cat-churn": _cat_churn(),
    "cat-window": _cat_window(),
}


def _resume(model: CatalogModel) -> List[Step]:
    """What a recovered catalog must go on to do: refresh, take three
    facts past every one it holds and refresh them, and give every leaf
    view without a window (one nothing consumes, so it keeps no rows) a
    SUM consumer that answers from the rows the leaf materializes for
    it."""
    horizon = max((valid.end for _, _, valid, _ in model.tables["t"]), default=0)
    fresh = [_fact(9, horizon + 1, horizon + 20, 0), _fact(4, horizon + 5, horizon + 30, 1),
             _fact(7, horizon + 2, horizon + 15, 2)]
    leaves = [
        name for name in model.views
        if model.views[name][3] == 0
        and not any(name in view[0] for view in model.views.values())
    ]
    return [REFRESH, CHECK, *fresh, REFRESH, *(("add_consumer", name) for name in leaves),
            ("views_match_the_oracle", *model.views, *(f"{name}_sum" for name in leaves))]


def _dry_run(workdir: str, workload: str) -> int:
    """Replay *workload* with no fault armed, each save judged: a second
    catalog opened on it holds what the live one does, and the
    invariant holds.  Every case replays these saves before its fault.
    Returns how many saves follow the baseline."""
    steps = CATALOG_WORKLOADS[workload]
    with CatalogModel() as model:
        model.setup(workdir)
        model.replay(step for saved in steps for step in (
            (saved, RESTORES, CHECK) if saved == SAVE else (saved,)))
    return steps.count(SAVE) - 1


def run_catalog_case(
    workdir: str, workload: str, kind: str, point: Optional[str], ckpt: int
) -> CrashCheckResult:
    """One catalog case: replay *workload* in a fresh directory under
    *workdir*, faulting checkpoint *ckpt* (counted after the baseline)
    per *kind*; the process dies there (or at the end, if no fault
    fired), :meth:`CatalogModel.crash` reopens the catalog, and the
    model's invariant judges it as it resumes (:func:`_resume`)."""
    injector = FaultInjector(seed=ckpt)
    if kind == "crash":
        injector.crash_at(point, hit=ckpt)
    elif kind == "torn":
        injector.tear_write(CATALOG_WRITE_LABEL, call=ckpt)
    steps = CATALOG_WORKLOADS[workload]
    baseline = steps.index(SAVE) + 1
    crashed, detail = False, ""
    with CatalogModel() as model:
        try:
            model.setup(workdir)
            model.replay(steps[:baseline])
            model.catalog.faults = injector
            saves = 0
            try:
                for name, *arguments in steps[baseline:]:
                    saves += name == "save"
                    if kind == "fsync" and name == "save" and saves == ckpt:
                        # fail_fsyncs fires on the *next* fsync.
                        injector.fail_fsyncs(CATALOG_WRITE_LABEL, times=1)
                    getattr(model, name)(*arguments)
            except (SimulatedCrash, OSError):
                # A dying process keeps no file handles to abandon here: the
                # checkpoint path opens and closes its temp file per save.
                crashed = True
            model.crash((kind, point))
            model.replay(_resume(model))
        except Exception as exc:  # noqa: BLE001 - report, don't stop the sweep
            detail = f"{type(exc).__name__}: {exc}"
    label = point if kind == "crash" else f"{CATALOG_WRITE_LABEL}:{kind}"
    return _counted(CrashCheckResult(workload, label, ckpt, crashed, not detail, detail))


def catalog_sweep(
    workload: str,
    workdir: str,
    *,
    hits: Union[str, int] = "all",
    verbose: bool = False,
) -> List[CrashCheckResult]:
    """Fault one catalog workload at every plan and chosen checkpoint."""
    total = _dry_run(workdir, workload)
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
