"""Retired names stay retired: one table, one row per name.

Each row names something the code base deleted, a *probe* that looks
for it, and the *refusal* looking for it must meet now (the exception
the probe raises).  A probe that returns found the name back; the row
then fails with what replaced it.  The CI step "Retired verbs stay
retired" runs this file, so a deletion adds a row here, not a script.

Searches of the tree skip this file: it names every retired name.
"""

import ast
import functools
import importlib
import os
import re
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Type

import pytest

import repro
import repro.warehouse as warehouse
from repro import Interval, SBTree, obs
from repro.core.nodestore import MemoryNodeStore, NodeStore
from repro.relation import TemporalRelation
from repro.service import ServerHandle, ServiceClient, connection, protocol
from repro.service.groupcommit import GroupCommitter
from repro.service.server import TemporalAggregateServer
from repro.sharding import ShardedTree
from repro.storage import PagedNodeStore, Pager
from repro.storage import pager as pager_module
from repro.warehouse.dynamic import DynamicCatalog

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.abspath(__file__)


@dataclass(frozen=True)
class Retired:
    name: str
    probe: Callable[[], Any]
    refusal: Type[BaseException]
    instead: str


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _output(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run([sys.executable, "-m", *argv], capture_output=True,
                           text=True, cwd=ROOT, env=env, timeout=120)


def _listed(argv: tuple, pattern: str) -> str:
    """The lines of ``python -m ARGV`` matching *pattern*; LookupError
    if there are none."""
    hits = [line for line in _output(*argv).stdout.splitlines()
            if re.search(pattern, line)]
    if not hits:
        raise LookupError(pattern)
    return "\n".join(hits)


def _found(pattern: str, *paths: str) -> str:
    """``grep -rn`` for *pattern* under *paths* of the repository (this
    file and ``__pycache__`` skipped); LookupError if nothing matches."""
    hits = []
    for path in paths:
        path = os.path.join(ROOT, path)
        files = [path] if os.path.isfile(path) else [
            os.path.join(top, name)
            for top, dirs, names in os.walk(path)
            if "__pycache__" not in top
            for name in names
        ]
        for name in files:
            if os.path.abspath(name) == HERE:
                continue
            with open(name, encoding="utf-8", errors="ignore") as handle:
                hits += [f"{name}:{i}: {line.rstrip()}"
                         for i, line in enumerate(handle, 1) if re.search(pattern, line)]
    if not hits:
        raise LookupError(pattern)
    return "\n".join(hits)


def _exists(path: str) -> None:
    if not os.path.exists(os.path.join(ROOT, path)):
        raise FileNotFoundError(path)


def _member(name: str, collection) -> None:
    if name not in collection:
        raise LookupError(name)


def _serve_child_exit() -> None:
    """``rescheck --serve-child`` is an unrecognised argument: exit 2."""
    if _output("repro.rescheck", "--serve-child").returncode == 2:
        raise SystemExit(2)


def _journal_mode() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        Pager(os.path.join(scratch, "p.sbt"), journal_mode="delete").close()


def _journal_ahead() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        pager = Pager(os.path.join(scratch, "p.sbt"))
        try:
            pager.write_pages([], journal_ahead=())
        finally:
            pager.close()


def _unjournaled_pager() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        Pager(os.path.join(scratch, "p.sbt"), journaled=True).close()


def _leftover_files() -> list:
    """What closed page files leave in their directory beside
    themselves: a rollback journal or a WAL (LookupError if nothing)."""
    with tempfile.TemporaryDirectory() as scratch:
        pager = Pager(os.path.join(scratch, "p.sbt"))
        pager.close()
        store = PagedNodeStore(os.path.join(scratch, "s.sbt"), "sum")
        tree = SBTree("sum", store)
        for i in range(10):
            tree.insert_batch([(1, Interval(i, i + 5))])
            store.commit()
        store.close()
        store = PagedNodeStore(os.path.join(scratch, "d.sbt"), "sum")
        SBTree("sum", store).insert(1, Interval(0, 5))
        store.close()
        left = sorted(set(os.listdir(scratch)) - {"p.sbt", "s.sbt", "d.sbt"})
    if not left:
        raise LookupError("no -wal or -journal file")
    return left


def _open_shards(scratch: str, shards: int = 2) -> ShardedTree:
    return ShardedTree.open(scratch, "sum", num_shards=shards, span=(0, 100))


def _server_with_executor() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        sharded = _open_shards(scratch)
        try:
            with ThreadPoolExecutor(1) as pool:
                TemporalAggregateServer(sharded, executor=pool)
        finally:
            sharded.close()


def _in_memory_server() -> None:
    TemporalAggregateServer(ShardedTree("sum", [], stores=[MemoryNodeStore()]))


def _flush_timer() -> None:
    GroupCommitter(None, None, registry=obs.MetricsRegistry(), batch_delay=0.002)


@functools.lru_cache(maxsize=None)
def _served() -> tuple:
    """One ``insert`` after a ``ping``, then ten more, through a served
    two-shard tree: the server's counters, and the threads alive while
    the client was connected."""
    with tempfile.TemporaryDirectory() as scratch:
        sharded = _open_shards(scratch)
        with ServerHandle.start(sharded) as handle:
            with ServiceClient(handle.host, handle.port) as svc:
                assert svc.ping()
                threads = [thread.name for thread in threading.enumerate()]
                for i in range(11):
                    assert svc.insert(1, i, i + 5) == 1
                counters = svc.stats()["counters"]
        sharded.close()
    return counters, threads


def _coalesced_flushes() -> None:
    """A timer coalesces sequential writes: eleven inserts one at a time
    must be eleven flushes."""
    flushes = _served()[0]["service.batch.flushes"]
    if flushes == 11:
        raise LookupError(f"{flushes} flushes for 11 inserts")


def _write_handlers() -> set:
    with tempfile.TemporaryDirectory() as scratch:
        sharded = _open_shards(scratch, 1)
        try:
            handlers = set(TemporalAggregateServer(sharded)._handlers)
        finally:
            sharded.close()
    found = {"insert", "batch_insert"} & handlers
    if not found:
        raise LookupError("no insert or batch_insert handler")
    return found


def _parsed(path: str) -> ast.AST:
    with open(os.path.join(ROOT, path)) as source:
        return ast.parse(source.read())


def _own_tree_oracle() -> str:
    """The oracle machine's own model: LookupError while it imports
    ``OracleModel`` from :mod:`repro.oracle`."""
    imported = {
        alias.name for node in ast.walk(_parsed("tests/test_oracle_machine.py"))
        if isinstance(node, ast.ImportFrom) and node.module == "repro.oracle"
        for alias in node.names
    }
    if "OracleModel" in imported:
        raise LookupError("it imports repro.oracle.OracleModel")
    return "no repro.oracle.OracleModel import"


def _class_defined(path: str, name: str) -> None:
    classes = {node.name for node in ast.walk(_parsed(path)) if isinstance(node, ast.ClassDef)}
    if name not in classes:
        raise LookupError(name)


def _journal_flag_described() -> str:
    """``repro serve --help`` on ``--journal``: LookupError while the
    flag's entry says it is ignored."""
    lines = _output("repro", "serve", "--help").stdout.splitlines()
    for i, line in enumerate(lines):
        if "--journal" in line and "ignored" in " ".join(lines[i:i + 2]):
            raise LookupError("--journal is described as ignored")
    return "--journal is not described as ignored"


def _validate_hook() -> None:
    """A subscriber's ``validate`` vetoing a relation change: LookupError
    if the relation never asks it."""
    asked = []

    class Veto:
        def validate(self, event):
            asked.append(event)

        def __call__(self, event):
            pass

    relation = TemporalRelation("r")
    relation.subscribe(Veto())
    relation.delete(relation.insert(1, Interval(0, 5)))
    if not asked:
        raise LookupError("validate was never called")


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
WH = "src tests examples benchmarks README.md docs/API.md".split()
LOADS = "python3 -m bench is the one load driver, CI runs each gate as its own step"
ONE_CATALOG = "a named, durable set of views is a DynamicCatalog"
ONE_ENGINE = ("DynamicCatalog is the one view engine: a windowed or grouped view is "
              "create_view(window=, key=), read with read(w=, key=)")

RETIRED = [
    # -- verbs, modules and flags --------------------------------------
    *(Retired(f"repro {verb}", functools.partial(_listed, ("repro", "--help"), rf"\b{verb}\b"),
              LookupError, LOADS) for verb in ("loadgen", "viewbench", "readscale", "tql")),
    *(Retired(module, functools.partial(importlib.import_module, module), ImportError,
              f"{LOADS}; the catalog answers what TemporalQuery did")
      for module in ("repro.service.readscale", "repro.quickcheck", "repro.tql", "repro.query")),
    Retired("repro.TemporalQuery", lambda: repro.TemporalQuery, AttributeError,
            "a filtered, windowed or grouped aggregate is a catalog view"),
    Retired("repro.__all__ TemporalQuery", lambda: _member("TemporalQuery", repro.__all__),
            LookupError, "a filtered, windowed or grouped aggregate is a catalog view"),
    Retired("ServiceClient.submit_insert", lambda: ServiceClient.submit_insert,
            AttributeError, "writes are insert / batch_insert"),
    Retired("BENCH_service.json", lambda: _exists("BENCH_service.json"), FileNotFoundError,
            "nothing writes it"),
    Retired("rescheck --codec", functools.partial(_listed, ("repro.rescheck", "--help"), "--codec"),
            LookupError, "one wire format"),
    Retired("protocol.CODEC_JSON", lambda: protocol.CODEC_JSON, AttributeError,
            "one wire format"),
    Retired("rescheck --serve-child", _serve_child_exit, SystemExit,
            "repro serve is the only server process"),
    Retired("repro.core.store", lambda: importlib.import_module("repro.core.store"),
            ImportError, "it is repro.core.nodestore"),
    *(Retired(f"{cls.__name__}.probe", functools.partial(getattr, cls, "probe"), AttributeError,
              "a point lookup is one NodeStore.descend call")
      for cls in (NodeStore, MemoryNodeStore, PagedNodeStore)),
    Retired("the view-ship route", lambda: _found(
        r"_ship_view_event|apply_shipped|view_event|ship=", "src"), LookupError,
        "view DDL and table_insert are group-commit writes like insert"),
    # -- the catalog ---------------------------------------------------
    Retired("DynamicCatalog(retention=)", lambda: DynamicCatalog(retention="full"),
            TypeError, "refresh and DDL keep every log trimmed"),
    Retired("DynamicCatalog.compact", lambda: DynamicCatalog.compact, AttributeError,
            "refresh and DDL keep every log trimmed"),
    *(Retired(f"DynamicCatalog.{name}", functools.partial(getattr, DynamicCatalog, name),
              AttributeError, "reads use the ancestry _recount_readers records once per DDL")
      for name in ("_transitive_oldest", "_closure_with_lazy_ancestors")),
    Retired("DynamicCatalog.attach_table", lambda: DynamicCatalog.attach_table,
            AttributeError, "a catalog owns its tables"),
    Retired("DynamicCatalog(warehouse=)", lambda: DynamicCatalog(warehouse=object()),
            TypeError, "a catalog owns its tables"),
    Retired("repro.warehouse.manager",
            lambda: importlib.import_module("repro.warehouse.manager"), ImportError, ONE_CATALOG),
    Retired("repro.warehouse.TemporalWarehouse", lambda: warehouse.TemporalWarehouse,
            AttributeError, ONE_CATALOG),
    Retired("repro.warehouse.__all__ TemporalWarehouse",
            lambda: _member("TemporalWarehouse", warehouse.__all__), LookupError, ONE_CATALOG),
    Retired("a caller of TemporalWarehouse", lambda: _found("TemporalWarehouse", *WH),
            LookupError, ONE_CATALOG),
    Retired("repro.warehouse.grouped",
            lambda: importlib.import_module("repro.warehouse.grouped"), ImportError, ONE_ENGINE),
    Retired("repro.warehouse.GroupedAggregateView", lambda: warehouse.GroupedAggregateView,
            AttributeError, ONE_ENGINE),
    Retired("repro.warehouse.__all__ GroupedAggregateView",
            lambda: _member("GroupedAggregateView", warehouse.__all__), LookupError, ONE_ENGINE),
    Retired("DynamicCatalog.create_grouped_view", lambda: DynamicCatalog.create_grouped_view,
            AttributeError, ONE_ENGINE),
    Retired("a caller of GroupedAggregateView or create_grouped_view",
            lambda: _found("GroupedAggregateView|create_grouped_view",
                           "src", "tests", "examples", "benchmarks"),
            LookupError, ONE_ENGINE),
    Retired("repro.warehouse.view", lambda: importlib.import_module("repro.warehouse.view"),
            ImportError, ONE_ENGINE),
    Retired("repro.warehouse.TemporalAggregateView", lambda: warehouse.TemporalAggregateView,
            AttributeError, ONE_ENGINE),
    Retired("repro.warehouse.__all__ TemporalAggregateView",
            lambda: _member("TemporalAggregateView", warehouse.__all__), LookupError, ONE_ENGINE),
    Retired("a caller of TemporalAggregateView", lambda: _found("TemporalAggregateView", *WH),
            LookupError, ONE_ENGINE),
    Retired("_index_factory", lambda: _found("_index_factory", "src"), LookupError,
            "DynamicView picks a group's index once, per view"),
    Retired("TemporalRelation validate hook", _validate_hook, LookupError,
            "a view refuses what it cannot absorb when it refreshes"),
    # -- storage -------------------------------------------------------
    *(Retired(f"Pager crash point {point}",
              functools.partial(_member, point, Pager.CRASH_POINTS), LookupError,
              "every page file has a WAL")
      for point in ("before_journal_delete", "after_journal_delete")),
    Retired("Pager crash points naming the journal",
            lambda: _member(True, ["journal" in point for point in Pager.CRASH_POINTS]),
            LookupError, "every page file has a WAL"),
    Retired("Pager(journal_mode=)", _journal_mode, TypeError, "every page file has a WAL"),
    Retired("pager.scan_journal", lambda: pager_module.scan_journal, AttributeError,
            "repro.storage.pager.scan_wal reads a WAL"),
    Retired("Pager.write_pages(journal_ahead=)", _journal_ahead, TypeError,
            "every page file has a WAL"),
    Retired("a -wal or -journal file after close", _leftover_files, LookupError,
            "a clean close checkpoints and removes the WAL"),
    *(Retired(f"Pager.{name}", functools.partial(getattr, Pager, name), AttributeError,
              "every page file has a WAL") for name in ("sync", "_put_page", "_put_header")),
    Retired("Pager(journaled=)", _unjournaled_pager, TypeError, "every page file has a WAL"),
    Retired("a caller passing journaled=",
            lambda: _found(r"journaled=", "src", "tests", "examples", "benchmarks"),
            LookupError, "only PagedNodeStore accepts the inert keyword, for the frozen bench/"),
    Retired("SBTree._rangeq", lambda: SBTree._rangeq, AttributeError,
            "every range read is SBTree.steps"),
    Retired("SBTree._pieces", lambda: SBTree._pieces, AttributeError,
            "every range read is SBTree.steps"),
    # -- the service ---------------------------------------------------
    Retired("GroupCommitter.enqueue_inline", lambda: GroupCommitter.enqueue_inline,
            AttributeError, "there is no inline insert"),
    Retired("connection._InlineAck", lambda: connection._InlineAck, AttributeError,
            "there is no inline insert"),
    Retired("TemporalAggregateServer(executor=)", _server_with_executor, TypeError,
            "there is no inline insert"),
    Retired("service.fast_writes", lambda: _served()[0]["service.fast_writes"], KeyError,
            "there is no inline insert"),
    Retired("repro serve --batch-delay",
            functools.partial(_listed, ("repro", "serve", "--help"), "--batch-delay"),
            LookupError, "group commit has no timer"),
    Retired("repro serve --journal, described as doing something", _journal_flag_described,
            LookupError, "shard page files are always journaled"),
    Retired("GroupCommitter(batch_delay=)", _flush_timer, TypeError,
            "group commit has no timer"),
    Retired("the client's svc-client-reader thread",
            lambda: _member("svc-client-reader", _served()[1]), LookupError,
            "whoever waits for a reply reads the socket"),
    *(Retired(counter, lambda counter=counter: _served()[0][counter], KeyError,
              "group commit has no timer")
      for counter in ("service.batch.deadline_flushes", "service.batch.size_flushes")),
    Retired("a flush timer coalescing sequential writes", _coalesced_flushes, LookupError,
            "group commit has no timer"),
    Retired("a second storage mode in the service", lambda: _found(
        r"self\._durable|durable=|sharded\.durable|def durable|views: Optional",
        "src/repro/service", "src/repro/sharding.py"),
        LookupError, "the service branches on no durable flag and takes no views="),
    Retired("the in-memory server", _in_memory_server, ValueError,
            "the server refuses a store without a pager"),
    *(Retired(f"TemporalAggregateServer.{name}",
              functools.partial(getattr, TemporalAggregateServer, name), AttributeError,
              "a wake-up's writes are one burst, connection._serve_writes")
      for name in ("_op_insert", "_op_batch_insert", "_write_op")),
    Retired("an insert or batch_insert handler", _write_handlers, LookupError,
            "a wake-up's writes are one burst, connection._serve_writes"),
    # -- one oracle ----------------------------------------------------
    *(Retired(f"repro.crashcheck.{name}",
              functools.partial(getattr, importlib.import_module("repro.crashcheck"), name),
              AttributeError, "crash cases are step lists of repro.oracle's models")
      for name in ("WorkloadContext", "_verify_recovery", "_baseline",
                   "CatalogWorkloadContext", "_verify_catalog_recovery",
                   "_check_catalog_views")),
    Retired("the oracle machine's own model", _own_tree_oracle, LookupError,
            "every tree route is checked by repro.oracle.OracleModel"),
    Retired("the differential's own class Differential", functools.partial(
        _class_defined, "tests/test_view_refresh_differential.py", "Differential"),
        LookupError, "the differential is step lists of repro.oracle.CatalogModel"),
]


@pytest.mark.parametrize("row", RETIRED, ids=[row.name for row in RETIRED])
def test_a_retired_name_stays_retired(row):
    try:
        found = row.probe()
    except row.refusal:
        return
    pytest.fail(f"{row.name} is back ({found!r}): {row.instead}")
