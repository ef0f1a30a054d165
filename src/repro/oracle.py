"""One model that checks every route to a temporal aggregate.

:class:`OracleModel` keeps two lists of facts -- the live ones and those
of the last commit -- and reads both through :mod:`repro.core.reference`,
the executable semantics of PAPER.md §2.  Every step goes to all routes
at once:

* the SB-tree, on the backend chosen at setup: an in-memory store, one
  page file behind a small pool, or four page-file shards of a
  :class:`~repro.sharding.ShardedTree` (each page file with a
  :class:`~repro.faults.FaultInjector` attached);
* :class:`DualTreeAggregate` (SUM/COUNT/AVG) or :class:`MSBTree`
  (MIN/MAX);
* a :class:`FixedWindowTree` at the offset chosen at setup;
* the directly materialized view.

After every step each route must answer the point lookup, the coalesced
range query and the windowed lookup exactly as the oracle does, and
every tree must pass :func:`check_tree`.  A crash -- a process death, or
a power cut under each :meth:`FaultInjector.lose_power` mode -- reopens
the page files, which must hold exactly the committed facts, or, for a
crash inside a commit, exactly the facts that commit was making durable;
the in-memory routes are rebuilt from them.

The model also checks the paper's cost bounds (PAPER.md §1) as exact
node-access counts, read off ``StoreStats`` (and, on a page store,
``BufferStats`` / ``PagerStats``) around each call, at the tree's
current height h -- per shard on the sharded backend:

* ``lookup``, on every route and backend: h node reads; on a page store
  also h pool accesses (hits + misses), one page read per miss and at
  most one decode per access.  A clean shard is read once more through
  the event loop's ``lookup(t, wait=False)``, with the same answer and
  the same equalities;
* ``DualTreeAggregate.window_lookup``: h(T) + 2 h(T') reads;
* ``MSBTree.window_lookup``: at most 2h - 1 reads;
* ``steps(window)``: edges strictly increasing from the window's start
  to its end, each piece the oracle's value at its start, at most
  2h - 2 reads per tree plus one per piece (:func:`range_bound`), and on the
  sharded backend ``finalized_rows`` the finalized oracle rows;
* a per-fact ``insert`` / ``delete``: at most :func:`update_bound` reads
  per tree it reaches, and on a page store no node handed to the store
  whose page already holds the bytes it encodes to (a node is written
  only if it changed).

A failed check raises :class:`OracleMismatch`, never a bare ``assert``,
so it holds under ``python -O`` too.  ``tests/test_oracle_machine.py``
drives the model with hypothesis; :mod:`repro.crashcheck` replays fixed
step lists through it with a crash armed inside them;
:func:`replayed` runs any fixed step list.

:class:`CatalogModel` does the same for the view catalog
(:class:`~repro.warehouse.dynamic.DynamicCatalog`): its base tables'
facts, its view definitions and its checkpoints, checked against the
same reference.  ``tests/test_view_refresh_differential.py`` and
``crashcheck --catalog`` replay step lists through it.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import operator
import os
import pathlib
import shutil
import tempfile
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .core import (
    DualTreeAggregate,
    FixedWindowTree,
    Interval,
    MSBTree,
    NEG_INF,
    POS_INF,
    SBTree,
    check_tree,
    reference,
)
from .core.results import finalized_rows
from .faults import FaultInjector, simulate_crash
from .sharding import ShardedTree, WindowUnsupportedError, shard_path
from .storage import PagedNodeStore, fsck_dynamic
from .warehouse import MaterializedView
from .warehouse.dynamic import (
    ANY_WINDOW,
    CHECKPOINT_NAME,
    DynamicCatalog,
    _trees_of,
    parse_window,
)

__all__ = [
    "BACKENDS",
    "CUTS",
    "GEOMETRIES",
    "KINDS",
    "CatalogModel",
    "OracleMismatch",
    "OracleModel",
    "check",
    "costs",
    "durable",
    "Step",
    "range_bound",
    "replayed",
    "step_function",
    "tally",
    "update_bound",
]

KINDS = ("sum", "count", "avg", "min", "max")
BACKENDS = ("memory", "paged", "sharded")
GEOMETRIES = [(4, 4), (4, 6), (6, 4), (8, 8), (5, 7)]
#: The three cuts of the four shards.
CUTS = [50, 100, 150]


class OracleMismatch(AssertionError):
    """A route answered, cost or stored something the oracle does not
    allow.  An ``AssertionError``, so a test reports it as a failed check."""


def check(ok: Any, *detail: Any) -> None:
    """Raise :class:`OracleMismatch` with *detail* unless *ok*."""
    if not ok:
        raise OracleMismatch(*detail)


def _refuses(error: type, call: Callable[[], Any]) -> None:
    """``call()`` must raise *error*."""
    try:
        call()
    except error:
        return
    raise OracleMismatch(f"expected {error.__name__}")


def durable(model: "OracleModel") -> bool:
    return model.backend != "memory"


# ----------------------------------------------------------------------
# Cost bounds, in node reads at height h
# ----------------------------------------------------------------------
def tally(store: Any) -> List[int]:
    """What *store* has done so far: node reads, and on a page store the
    pool's hits and misses, the pager's page reads and the decodes."""
    counts = [store.stats.reads]
    if hasattr(store, "buffer"):
        counts += [
            store.buffer.stats.hits, store.buffer.stats.misses,
            store.pager.stats.physical_reads, store.stats.decodes,
        ]
    return counts


def costs(call: Callable[[], Any], *stores: Any) -> Tuple[Any, List[List[int]]]:
    """``call()`` and, per store, what it cost (:func:`tally` deltas)."""
    before = [tally(store) for store in stores]
    result = call()
    return result, [
        list(map(operator.sub, tally(store), then))
        for store, then in zip(stores, before)
    ]


def update_bound(tree: Any, h: int) -> int:
    """The most nodes one per-fact ``insert_effect`` reads on a tree of
    height h.

    * The descent reads the root and, per level below it, at most the
      two children whose intervals the effect covers partly: the ones
      holding its start and its end.  2h - 1.  It splits the root at
      most once, so what follows runs at height at most h + 1 = H.
    * SUM/COUNT/AVG then run ``imerge`` at most at those two endpoints.
      One ``imerge`` descends to the node storing the instant, depth d:
      d reads.  At a leaf (d = H) that is all; at an interior node the
      two edge walks to the leaves either side read H - d each, so
      d + 2(H - d) <= 2H - 1.  Then an underfull leaf's ``nmerge``
      reads at most both siblings on each of its H - 1 levels below the
      root, and the root's one child when it collapses: 2H - 1.  So
      4H - 2 per endpoint.
    MIN/MAX trees are compacted in batch and run no ``imerge``."""
    descent = 2 * h - 1
    return descent + 2 * (4 * (h + 1) - 2) if tree.spec.invertible else descent


def range_bound(heights: Sequence[int], pieces: int) -> int:
    """The most nodes ``steps(window)`` reads to return *pieces* rows
    from trees of these *heights* (one per shard it reads).

    In one tree the nodes a window meets form one contiguous run per
    level; the runs' first and last nodes are at most 2h - 1 over all
    levels (the root once).  Every other node lies inside the window, so all its children
    are read and inside it too: each such interior node has at least two,
    each such leaf gives at least two pieces (occupancy), hence the inner
    nodes number at most the inner leaves' pieces.  The first and last
    leaf give a piece each, at least one more than the inner leaves'.
    So one tree reads at most 2h - 2 nodes plus its own pieces."""
    return sum(2 * h - 2 for h in heights) + pieces


Fact = Tuple[Any, Interval]


def _table(facts: Sequence[Fact], kind: str, w: Optional[int]):
    """The oracle's table of *facts* over the whole time line:
    instantaneous, or cumulative at offset *w*."""
    if w is None:
        return reference.instantaneous_table(facts, kind, drop_initial=False)
    return reference.cumulative_table(facts, kind, w, drop_initial=False)


class OracleModel:
    """Every route, the facts they must agree on, and the checks.

    :meth:`setup` starts it; each rule (:meth:`insert`,
    :meth:`insert_batch`, :meth:`delete`, :meth:`compact`,
    :meth:`commit`, :meth:`reopen`, :meth:`crash`, :meth:`query`) is one
    step; :meth:`answers_match_the_oracle` is the invariant to check
    after each; :meth:`teardown` closes and removes the page files.
    """

    def setup(self, kind, geometry, backend, frames, w, *, directory=None):
        """SB-trees of *geometry* (branching, leaf capacity) on *backend*,
        page files behind *frames*-frame pools in a fresh directory under
        *directory* (default: the system's temporary directory), and a
        fixed-window tree at offset *w*."""
        self.kind, self.backend, self.frames, self.w = kind, backend, frames, w
        self.geometry = dict(branching=geometry[0], leaf_capacity=geometry[1])
        self.invertible = kind in ("sum", "count", "avg")
        self.live: List[Fact] = []
        self.committed: List[Fact] = []
        #: The facts a commit under way is making durable, else None.
        self.committing: Optional[List[Fact]] = None
        self.touched: List[Fact] = []
        self._oracle_of = None
        self.directory = tempfile.mkdtemp(prefix="oracle-model-", dir=directory)
        count = {"memory": 0, "paged": 1, "sharded": 4}[backend]
        self.paths = [shard_path(self.directory, i) for i in range(count)]
        if durable(self):
            # Created without an injector: power loss starts after this.
            for path in self.paths:
                with PagedNodeStore(path, kind, page_size=512) as store:
                    SBTree(kind, store, **self.geometry)
        self._open()
        self._rebuild()

    def _open(self) -> None:
        # A fresh injector per store: it remembers what no fsync covered.
        self.stores = [
            PagedNodeStore(path, buffer_capacity=self.frames, faults=FaultInjector())
            for path in self.paths
        ]
        self.rewrites = 0
        for store in self.stores:
            self._count_rewrites(store)
        if self.backend == "sharded":
            self.tree = ShardedTree(
                self.kind, CUTS, stores=self.stores, **self.geometry
            )
        else:
            self.tree = SBTree(self.kind, *self.stores, **self.geometry)

    def _count_rewrites(self, store: PagedNodeStore) -> None:
        """Count, in ``self.rewrites``, each node *store* is handed to
        write whose page already holds the bytes it encodes to.  (The
        batch path writes every node its items reach, changed or not.)"""
        write, write_all = store.write, store.write_all
        size = store.pager.payload_size

        def held(node):
            # A frame holds what was written (unpadded) or read (a page).
            frame = store.buffer._frames.get(node.node_id)
            if frame is not None:
                return frame.payload.ljust(size, b"\0")
            return store.pager.read_page(node.node_id)

        def count(nodes):
            encode = store.codec.encode
            self.rewrites += sum(
                encode(node).ljust(size, b"\0") == held(node) for node in nodes
            )

        def counted_write(node):
            count([node])
            write(node)

        def counted_write_all(nodes):
            count(nodes)
            write_all(nodes)

        store.write, store.write_all = counted_write, counted_write_all

    def _rebuild(self) -> None:
        """The in-memory routes, from the live facts."""
        windowed = DualTreeAggregate if self.invertible else MSBTree
        self.windowed = windowed(self.kind, **self.geometry)
        self.fixed = FixedWindowTree(self.kind, self.w, **self.geometry)
        self.view = MaterializedView(self.kind)
        for fact in self.live:
            for route in self.routes()[1:]:
                route.insert(*fact)

    def routes(self) -> list:
        return [self.tree, self.windowed, self.fixed, self.view]

    def trees(self) -> list:
        if self.backend == "sharded":
            trees = [shard.tree for shard in self.tree.shards]
        else:
            trees = [self.tree]
        if self.invertible:
            trees += [self.windowed.current, self.windowed.ended]
        else:
            trees.append(self.windowed)
        return trees + [self.fixed.tree]

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def apply(self, op: str, fact: Fact) -> None:
        """*op* of *fact* on every route; each tree that takes it per
        fact (every tree but the shards' on an insert, which takes the
        batched path) reads at most :func:`update_bound` nodes and writes
        a node only if it changed: no page is handed back the bytes it
        holds."""
        trees = self.trees()
        batched = self.backend == "sharded" and op == "insert"
        if batched:
            trees = trees[len(self.tree.shards):]
        heights = [tree.height for tree in trees]
        rewrites = self.rewrites
        _, spent = costs(
            lambda: [getattr(route, op)(*fact) for route in self.routes()],
            *[tree.store for tree in trees],
        )
        for tree, h, (reads, *_) in zip(trees, heights, spent):
            check(reads <= update_bound(tree, h), op, reads, h)
        if not batched:
            check(self.rewrites == rewrites, op, fact)

    def insert(self, fact: Fact) -> None:
        self.apply("insert", fact)
        self.live.append(fact)
        self.touched = [fact]

    def insert_batch(self, batch: List[Fact]) -> None:
        if self.backend == "sharded":
            check(self.tree.batch_insert(batch) == len(batch), batch)
        else:
            self.tree.insert_batch(batch)
        if not self.invertible:
            self.windowed.insert_batch(batch)
        for fact in batch:
            if self.invertible:
                self.windowed.insert(*fact)
            self.fixed.insert(*fact)
            self.view.insert(*fact)
        self.live += batch
        self.touched = batch

    def delete(self, i: int) -> None:
        """Delete live fact ``i mod n``; MIN/MAX must refuse it on every
        route, and the invariant then sees every answer unchanged."""
        fact = self.live[i % len(self.live)]
        if self.invertible:
            self.apply("delete", fact)
            del self.live[i % len(self.live)]
        else:
            for route in self.routes():
                _refuses(ValueError, functools.partial(route.delete, *fact))
        self.touched = [fact]

    def compact(self, bulk: bool) -> None:
        """``compact``, ``compact(bulk=True)`` and ``mbmerge`` wherever a
        route has them (a sharded tree and the dual pair have none)."""
        compacted = [self.fixed.tree]
        if self.backend != "sharded":
            self.tree.compact(bulk=bulk)
            compacted.append(self.tree)
        if not self.invertible:
            if bulk:
                self.windowed.compact(bulk=True)
            else:
                self.windowed.mbmerge()
            compacted.append(self.windowed)
        self.fixed.compact()
        for tree in compacted:
            check_tree(tree, check_compact=True)
        self.touched = []

    def commit(self) -> None:
        self.committing = list(self.live)
        if self.backend == "sharded":
            self.tree.commit()
        else:
            self.stores[0].commit()
        self.committed, self.committing = self.committing, None
        self.touched = []

    def reopen(self) -> None:
        for store in self.stores:
            store.close()
        self.committed = list(self.live)
        self._open()
        self.touched = []

    def crash(self, mode: Any) -> None:
        """The process dies (``mode`` None) or the power fails (a
        :meth:`FaultInjector.lose_power` mode), between steps or inside
        one; the page files reopen.  Inside a commit they may hold its
        facts (then it was durable) or the last commit's, nothing else:
        the invariant checks that against whichever they match."""
        stores, self.stores = self.stores, []
        for store in stores:
            simulate_crash(store, power_loss=mode)
        self._open()
        if self.committing is not None:
            table = _table(self.committing, self.kind, None)
            if self.tree.to_table(drop_initial=False) == table:
                self.committed = self.committing
            self.committing = None
        self.live = list(self.committed)
        self._rebuild()
        self.touched = []

    def query(self, t: int, w: int, lo: int, span: int) -> None:
        self._heights = {}
        self.check_instant(t, w)
        window = Interval(lo, lo + span)
        self.check_steps(window)

        def clipped(table):
            return table.restrict(window).coalesce()

        def got(table):
            return table.coalesce(self.tree.spec.eq)

        check(got(self.fixed.range_query(window)) == clipped(self.oracle(self.w)))
        check(self.windowed.window_query(window, w) == clipped(self.oracle(w)))
        if not self.invertible:
            check(got(self.windowed.range_query(window)) == clipped(self.oracle()))

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def oracle(self, w: Optional[int] = None):
        """The oracle's step function over the whole time line:
        instantaneous, or cumulative at offset *w*."""
        live = tuple(self.live)
        if self._oracle_of != live:
            self._oracle_of, self._oracle = live, {}
        if w not in self._oracle:
            self._oracle[w] = _table(live, self.kind, w)
        return self._oracle[w]

    def check_instant(self, t: int, w: int) -> None:
        """Every route's lookup at *t*, and its window ``[t - w, t]``
        (the fixed-window tree: at its own offset), at its cost bound."""
        want = self.oracle().value_at(t)
        if self.backend == "sharded":
            shard = self.tree.shards[self.tree.router.shard_of(t)].tree
            got = [self.check_lookup(shard, self.tree.lookup, t)]
            if not shard.store.dirty:
                # The event loop's route: never blocks, never writes.
                route = functools.partial(self.tree.lookup, wait=False)
                got.append(self.check_lookup(shard, route, t))
        else:
            got = [self.check_lookup(self.tree, self.tree.lookup, t)]
        current = self.windowed.current if self.invertible else self.windowed
        got += [self.check_lookup(current, self.windowed.lookup, t), self.view.lookup(t)]
        check(got == [want] * len(got), "lookup", t, got, want)
        check(self.tree.lookup_final(t) == self.tree.spec.finalize(want), t)
        fixed = self.check_lookup(self.fixed.tree, self.fixed.lookup, t)
        check(fixed == self.oracle(self.w).value_at(t), "fixed lookup", t, fixed)
        want = self.oracle(w).value_at(t)
        if self.invertible:
            # Two lookups of T' and one of T.
            ended = self.windowed.ended
            heights = [self.height(current), 2 * self.height(ended)]
            got, spent = costs(
                lambda: self.windowed.window_lookup(t, w), current.store, ended.store
            )
            check([reads for reads, *_ in spent] == heights, spent, heights)
        else:
            # The paths to t - w and to t: at most two nodes per level.
            got, [(reads,)] = costs(
                lambda: self.windowed.window_lookup(t, w), current.store
            )
            check(reads <= 2 * self.height(current) - 1, "MSB window", reads)
        check(got == want, "window lookup", t, w, got, want)
        if self.backend != "sharded":
            return
        if self.invertible:
            _refuses(WindowUnsupportedError, lambda: self.tree.window_lookup(t, w))
        else:
            check(self.tree.window_lookup(t, w) == want, "sharded window", t, w)

    def height(self, tree: Any) -> int:
        """*tree*'s height, read once per check (lookups leave it)."""
        if tree not in self._heights:
            self._heights[tree] = tree.height
        return self._heights[tree]

    def check_lookup(self, tree: Any, lookup: Callable[[int], Any], t: int) -> Any:
        """``lookup(t)``, one slot per level of *tree*: h node reads;
        on a page store h pool accesses, a page read per miss and at
        most one decode per access."""
        h, before = self.height(tree), tally(tree.store)
        got = lookup(t)
        reads, *paged = map(operator.sub, tally(tree.store), before)
        check(reads == h, "lookup reads", reads, h)
        if paged:
            hits, misses, page_reads, decodes = paged
            check((hits + misses, page_reads) == (h, misses), "lookup pages", paged)
            check(decodes <= h, "lookup decodes", paged)
        return got

    def check_steps(self, window: Interval) -> None:
        """The SB-tree's ``steps(window)``: a step function over exactly
        the window, the oracle's value on each piece, at most
        :func:`range_bound` node reads per tree it reads."""
        if self.backend == "sharded":
            trees = [
                self.tree.shards[i].tree for i in self.tree.router.overlapping(window)
            ]
        else:
            trees = [self.tree]
        heights = [self.height(tree) for tree in trees]
        (edges, values), spent = costs(
            lambda: self.tree.steps(window), *[tree.store for tree in trees]
        )
        check((edges[0], edges[-1]) == (window.start, window.end), "steps span", edges)
        check(all(a < b for a, b in zip(edges, edges[1:])), "steps order", edges)
        oracle = self.oracle()
        check(values == [oracle.value_at(start) for start in edges[:-1]], window)
        reads = sum(reads for reads, *_ in spent)
        check(reads <= range_bound(heights, len(values)), "steps reads", reads, heights)
        if self.backend == "sharded":
            spec = self.tree.spec
            table = oracle.restrict(window).coalesce(spec.eq).finalized(spec)
            check(finalized_rows(edges, values, spec) == [
                [value, piece.start, piece.end] for value, piece in table
            ])

    def answers_match_the_oracle(self) -> None:
        """The invariant: every route's tables, every tree's structure,
        and the lookups where the last step's facts begin and end."""
        self._heights = {}
        instantaneous, cumulative = self.oracle(), self.oracle(self.w)
        check(self.tree.to_table(drop_initial=False) == instantaneous, "tree table")
        check(self.view.to_table(drop_initial=False) == instantaneous, "view table")
        check(self.fixed.to_table(drop_initial=False) == cumulative, "fixed table")
        if self.invertible:
            got = self.windowed.window_table(self.w, drop_initial=False)
            check(got == cumulative, "dual window table")
        else:
            got = self.windowed.to_table(drop_initial=False)
            check(got == instantaneous, "MSB table")
        for tree in self.trees():
            check_tree(tree)
        # Where the last step's facts start and end, and where they
        # leave the window; the cuts, where a lookup changes shard.
        instants = set()
        for _, interval in self.touched:
            for t in (interval.start, interval.end, interval.end + self.w):
                instants.update((t - 1, t))
        if self.backend == "sharded":
            for cut in CUTS:
                instants.update((cut - 1, cut))
        for t in sorted(instants):
            self.check_instant(t, self.w)

    def teardown(self) -> None:
        for store in getattr(self, "stores", ()):
            store.close()
        if hasattr(self, "directory"):
            shutil.rmtree(self.directory, ignore_errors=True)


Step = Tuple[Any, ...]


@contextlib.contextmanager
def replayed(
    steps, *, kind="sum", backend="memory", geometry=(4, 4), frames=2, w=10
) -> Iterator[OracleModel]:
    """Run *steps* -- ``(rule, *arguments)`` -- through a model set up
    as given, checking the invariant after setup and every step."""
    model = OracleModel()
    try:
        model.setup(kind, geometry, backend, frames, w)
        model.answers_match_the_oracle()
        for name, *arguments in steps:
            getattr(model, name)(*arguments)
            model.answers_match_the_oracle()
        yield model
    finally:
        model.teardown()


# ----------------------------------------------------------------------
# The view catalog
# ----------------------------------------------------------------------
#: A base-table row: tuple id, value, valid interval, payload.
Row = Tuple[int, Any, Interval, Dict[str, Any]]
#: The plan of a crash that a checkpoint's rename has made durable.
AFTER_RENAME = ("crash", "view_ckpt:after_rename")
#: The offsets a view with ``window=ANY_WINDOW`` is read at.
OFFSETS = (0, 3, 12)


def _joined(pieces) -> List[List[Any]]:
    """``(value, start, end)`` pieces with equal neighbours joined."""
    out: List[List[Any]] = []
    for value, start, end in pieces:
        if out and out[-1][2] == start and out[-1][0] == value:
            out[-1][2] = end
        else:
            out.append([value, start, end])
    return out


def step_function(tree: Any) -> List[List[Any]]:
    """*tree*'s leaf pieces as ``[value, start, end]``, ``v0`` dropped and
    equal neighbours joined: what a catalog checkpoint holds of it."""
    return _joined(
        piece for piece in tree.leaf_pieces() if not tree.spec.is_initial(piece[0])
    )


def _rows(relation) -> List[Row]:
    return [(row.tuple_id, row.value, row.valid, dict(row.payload)) for row in relation]


def _held(catalog: DynamicCatalog) -> Dict[str, tuple]:
    """Per node, in order, what a checkpoint must give back of it: every
    row with its tuple id and the log; for a view also the watermarks,
    the persisted counters, and per group the tree's step function and
    the row index."""
    held: Dict[str, tuple] = {}
    for name in catalog.table_names() + catalog.view_names():
        node = catalog._node(name)
        held[name] = (_rows(node.relation), node.log.to_json())
    for name in catalog.view_names():
        view = catalog.view(name)
        trees = {
            group: ([step_function(tree) for tree in _trees_of(index)], view._index[group])
            for group, index in view._trees.items()
        }
        held[name] += (view.watermarks, view.refreshes, view.events_consumed,
                       view.quarantined, view.last_error, trees)
    return held


def _state_of(catalog: DynamicCatalog) -> Tuple[Dict, Dict]:
    """*catalog*'s base-table rows and view definitions, as
    :class:`CatalogModel` keeps them."""
    tables = {
        name: sorted(_rows(catalog.table(name)), key=operator.itemgetter(0))
        for name in catalog.table_names()
    }
    views = {
        view.name: (view.sources, view.spec.kind.value, view.key_field, view.window)
        for view in map(catalog.view, catalog.view_names())
    }
    return tables, views


def _close(got: Any, want: Any, approx: bool) -> bool:
    """Equal, or with *approx* within 1e-9 of *want*, relative or absolute."""
    if got == want or not approx or got is None or want is None:
        return got == want
    return abs(got - want) <= max(1e-9 * abs(want), 1e-9)


class CatalogModel:
    """A view catalog, the facts and views it must hold, and the checks.

    :meth:`setup` opens a :class:`DynamicCatalog` on a fresh directory.
    Each rule is one step: :meth:`create_table`, :meth:`create_view`,
    :meth:`add_consumer`, :meth:`drop_view`, :meth:`insert`,
    :meth:`delete`, :meth:`refresh`, :meth:`save`, :meth:`reopen` (the
    reopened catalog must hold what the closed one did) and
    :meth:`crash`.  :meth:`views_match_the_oracle` is the invariant, and
    :meth:`check_restores` checks a save; a step list may name either
    like a rule (:meth:`replay`).  :meth:`teardown` (or leaving a
    ``with`` block) removes the directory.

    The oracle of a view is :mod:`repro.core.reference` over the rows
    its sources hand it: the model's facts of a base table, and the
    output rows of a source view -- which, consumed, holds them, and
    must hold exactly its trees' step function, finalized, with the
    pieces whose internal value is ``v0`` or whose final value is
    ``None`` left out.  So every view is checked against the facts
    through the views below it.  A SUM/AVG/MIN/MAX view over float
    values is compared to within 1e-9: refresh folds a batch before
    adding it up, in another order than the reference does.  A view
    with a window (nothing consumes one) is read, at each instant and
    each instant plus its offset, against
    :func:`~repro.core.reference.cumulative_value`: a fixed window at
    its own offset, ``ANY_WINDOW`` at :data:`OFFSETS`.
    """

    def setup(self, directory: Optional[str] = None, **tree_args: Any) -> None:
        """A catalog of *tree_args* trees (as :class:`DynamicCatalog`
        takes them) in a fresh directory under *directory* (default:
        the system's temporary directory)."""
        self.directory = tempfile.mkdtemp(prefix="catalog-model-", dir=directory)
        self.tree_args = tree_args
        self.ticks = 0
        self.tables: Dict[str, List[Row]] = {}
        #: View name -> (sources, kind, key field, window), in creation
        #: order.
        self.views: Dict[str, Tuple[List[str], str, Optional[str], Any]] = {}
        #: What the last completed save made durable, what the one
        #: before it did (``.prev`` holds it), and what a save under way
        #: is writing (else None).
        self.saved = self._state()
        self.before: Optional[Tuple[Dict, Dict]] = None
        self.saving: Optional[Tuple[Dict, Dict]] = None
        self.catalog = self._open()

    def _clock(self) -> float:
        self.ticks += 1
        return float(self.ticks)

    def _open(self) -> DynamicCatalog:
        return DynamicCatalog(self.directory, clock=self._clock, **self.tree_args)

    def _state(self) -> Tuple[Dict, Dict]:
        return {name: list(rows) for name, rows in self.tables.items()}, dict(self.views)

    def replay(self, steps: Iterable[Step]) -> None:
        """Run *steps*, ``(rule, *arguments)`` each."""
        for name, *arguments in steps:
            getattr(self, name)(*arguments)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    def create_table(self, name: str) -> None:
        self.catalog.create_table(name)
        self.tables[name] = []

    def create_view(self, name: str, over: Any, kind: str, key: Optional[str] = None,
                    lag: Any = "downstream", window: Any = 0) -> None:
        self.catalog.create_view(name, over, kind, key=key, lag=lag, window=window)
        sources = [over] if isinstance(over, str) else list(over)
        self.views[name] = (sources, kind, key, parse_window(window))

    def add_consumer(self, leaf: str) -> None:
        """A SUM view over *leaf*, which nothing consumed: the leaf first
        materializes its output rows from its trees."""
        self.create_view(f"{leaf}_sum", leaf, "sum")

    def drop_view(self, name: str) -> None:
        self.catalog.drop_view(name)
        del self.views[name]

    def insert(self, table: str, value: Any, valid: Any,
               payload: Optional[Dict[str, Any]] = None) -> None:
        payload = dict(payload or {})
        row = self.catalog.insert(table, value, valid, **payload)
        if not isinstance(valid, Interval):
            valid = Interval(*valid)
        self.tables[table].append((row.tuple_id, value, valid, payload))

    def delete(self, table: str, i: int) -> None:
        """Delete the live row ``i mod n`` of *table*, in insertion order."""
        rows = self.tables[table]
        self.catalog.delete(table, rows.pop(i % len(rows))[0])

    def refresh(self) -> None:
        """Refresh every view: then none may have a record pending."""
        self.catalog.refresh()
        stale = [name for name in self.views if self._stale(name)]
        check(not stale, "stale after a refresh", stale)

    def save(self) -> None:
        self.saving = self._state()
        self.catalog.save()
        self.before, self.saved, self.saving = self.saved, self.saving, None

    def reopen(self) -> None:
        """Close (which saves) and open the catalog again."""
        live = self.catalog
        live.close()
        self.before, self.saved = self.saved, self._state()
        self.catalog = self._open()
        self._restores(live, self.catalog)

    def crash(self, plan: Optional[Tuple[str, Optional[str]]] = None) -> None:
        """The process dies, between steps or inside a save under *plan*
        -- a ``(fault, crash point)`` pair of
        ``crashcheck.CATALOG_FAULT_PLANS`` -- and the catalog reopens.
        The checkpoint must pass :func:`~repro.storage.fsck_dynamic`, and
        the catalog must hold what the last completed save made durable:
        the save in flight only after a crash past its rename
        (:data:`AFTER_RENAME`).  The invariant checks that.  Were the
        checkpoint torn, ``.prev`` must restore the save before it."""
        path = os.path.join(self.directory, CHECKPOINT_NAME)
        if os.path.exists(path):
            errors = fsck_dynamic(path).errors()
            check(not errors, "fsck", *(f"{f.code}: {f.message}" for f in errors))
        if self.saving is not None and plan == AFTER_RENAME:
            self.before, self.saved = self.saved, self.saving
        if os.path.exists(path + ".prev"):
            torn = tempfile.mkdtemp(prefix="torn-", dir=self.directory)
            shutil.copy(path + ".prev", os.path.join(torn, CHECKPOINT_NAME + ".prev"))
            data = pathlib.Path(path).read_bytes()
            pathlib.Path(torn, CHECKPOINT_NAME).write_bytes(data[: len(data) // 2])
            fallback = _state_of(DynamicCatalog(torn, **self.tree_args))
            shutil.rmtree(torn)
            check(fallback == self.before, "torn checkpoint fallback", fallback, self.before)
        tables, self.views = self.saved
        self.tables = {name: list(rows) for name, rows in tables.items()}
        self.saved, self.saving = self._state(), None
        self.catalog = self._open()

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def _stale(self, name: str) -> bool:
        """Whether a record is pending anywhere upstream of view *name*."""
        view = self.catalog.view(name)
        return self.catalog._oldest_unreflected(view) is not None

    def _rows_of(self, node: str) -> List[Row]:
        """The rows of *node*: the model's facts of a table, or a view's
        output rows."""
        if node in self.tables:
            return self.tables[node]
        return _rows(self.catalog.view(node).relation)

    def views_match_the_oracle(self, *fresh: str) -> None:
        """The invariant: every base table holds the model's rows, every
        view is the one declared, its trees are sound, it holds output
        rows iff a view consumes it (:meth:`check_rows`), and, unless a
        record is pending upstream of it, it answers as the reference
        does (:meth:`check_values`).  The views named in *fresh* may
        have none pending: a step list names the views it must read."""
        stale = [name for name in fresh if self._stale(name)]
        check(not stale, "stale", stale)
        catalog = self.catalog
        order = catalog.table_names() + catalog.view_names()
        check(order == [*self.tables, *self.views], "nodes", order)
        check(_state_of(catalog) == self._state(), "tables and views", _state_of(catalog))
        for name, (sources, kind, key, window) in self.views.items():  # sources first
            view = catalog.view(name)
            inputs = [row for src in sources for row in self._rows_of(src)]
            approx = kind != "count" and any(isinstance(row[1], float) for row in inputs)
            # Where an input starts or ends or a tree piece starts: the
            # oracle and the view may change only there.  And one instant
            # before them all and one after.
            ends = {t for _, _, valid, _ in inputs for t in (valid.start, valid.end)}
            for tree in (tree for index in view._trees.values() for tree in _trees_of(index)):
                check_tree(tree, check_compact=not approx and tree.spec.invertible)
                ends.update(start for _, start, _ in tree.leaf_pieces())
            ends = sorted(t for t in ends if NEG_INF < t < POS_INF) or [0]
            instants = [ends[0] - 1, *ends, ends[-1] + 1]
            self.check_rows(name, approx, instants)
            if self._stale(name):
                continue
            if window == 0:
                self.check_values(name, approx, instants)
            else:
                self.check_windows(name, approx, instants)

    def check_rows(self, name: str, approx: bool, instants: Sequence[Any]) -> None:
        """View *name* holds output rows iff a view consumes it.  Then a
        group's rows carry the group, are disjoint and indexed by start,
        and are its tree's step function, finalized, ``v0`` and ``None``
        left out: equal as pieces, or with *approx* at *instants*."""
        view = self.catalog.view(name)
        if not any(name in view[0] for view in self.views.values()):
            empty = all(index == ([], []) for index in view._index.values())
            check(len(view.relation) == 0 and empty and view.row_texts == {},
                  "rows nothing consumes", name)
            return
        spec, indexed = view.spec, []
        for group, tree in view._trees.items():
            starts, rows = view._index[group]
            payload = {} if view.key_field is None else {view.key_field: group}
            check(starts == [row.valid.start for row in rows], "row index", name, group)
            check(all(a.valid.end <= b.valid.start for a, b in zip(rows, rows[1:])),
                  "rows overlap", name, group)
            check(all(row.payload == payload for row in rows), "row payload", name, group)
            indexed += [row.tuple_id for row in rows]
            if not approx:
                want = _joined(
                    (spec.finalize(value), start, end)
                    for value, start, end in tree.leaf_pieces()
                    if not spec.is_initial(value) and spec.finalize(value) is not None
                )
                got = _joined((row.value, row.valid.start, row.valid.end) for row in rows)
                check(got == want, "rows", name, group, got, want)
                continue
            for t in instants:
                i = bisect.bisect_right(starts, t) - 1
                got = rows[i].value if i >= 0 and rows[i].valid.contains(t) else None
                want = tree.lookup_final(t)
                if spec.invertible and spec.kind.value != "avg":
                    got, want = got or 0, want or 0  # no row reads as 0
                check(_close(got, want, True), "row value", name, group, t, got, want)
        check(sorted(indexed) == sorted(row.tuple_id for row in view.relation),
              "indexed rows", name)

    def check_values(self, name: str, approx: bool, instants: Sequence[Any]) -> None:
        """View *name* read at each of *instants* against the reference
        over the rows its sources hold; a grouped view's read holds
        every group that has one.  With every change of either among
        *instants*, a view that reads right there is right everywhere."""
        view = self.catalog.view(name)
        spec, (sources, kind, key, _) = view.spec, self.views[name]
        # The rows each instant meets, by group.
        valid_at: List[Dict[Any, List[Fact]]] = [{} for _ in instants]
        for src in sources:
            for _, value, valid, payload in self._rows_of(src):
                group = None if key is None else payload.get(key)
                first = bisect.bisect_left(instants, valid.start)
                for groups in valid_at[first:bisect.bisect_left(instants, valid.end)]:
                    groups.setdefault(group, []).append((value, valid))
        for t, groups in zip(instants, valid_at):
            want = {
                group: spec.finalize(reference.instantaneous_value(facts, kind, t))
                for group, facts in groups.items()
            }
            got = self.catalog.read(name, t).value
            if key is None:
                got = {None: got}
            else:
                check(set(want) <= set(got), "groups", name, t, got)
            empty = spec.finalize(spec.v0)
            for group, value in got.items():
                check(_close(value, want.get(group, empty), approx), "read", name, group, t, value)

    def check_windows(self, name: str, approx: bool, instants: Sequence[Any]) -> None:
        """Windowed view *name* read at each of *instants*, and at each
        of them plus the offset, against the reference's cumulative
        value over the rows its sources hold, group by group: a fixed
        window at its offset, ``ANY_WINDOW`` at every one of
        :data:`OFFSETS`.  The cumulative value changes only where a row
        starts or where its end plus the offset falls."""
        view = self.catalog.view(name)
        spec, (sources, kind, key, window) = view.spec, self.views[name]
        facts: Dict[Any, List[Fact]] = {}
        for src in sources:
            for _, value, valid, payload in self._rows_of(src):
                group = None if key is None else payload.get(key)
                facts.setdefault(group, []).append((value, valid))
        for w in OFFSETS if window is ANY_WINDOW else (window,):
            for t in sorted({*instants, *(t + w for t in instants)}):
                got = self.catalog.read(name, t, w=w if window is ANY_WINDOW else None).value
                if key is None:
                    got = {None: got}
                check(set(facts) <= set(got), "groups", name, t, got)
                for group, value in got.items():
                    want = spec.finalize(
                        reference.cumulative_value(facts.get(group, ()), kind, t, w)
                    )
                    check(_close(value, want, approx), "window read", name, group, t, w,
                          value, want)

    def check_restores(self) -> None:
        """A second catalog opened on the last checkpoint holds what the
        live one does, if nothing changed since it was saved."""
        self._restores(self.catalog, self._open())

    def _restores(self, live: DynamicCatalog, restored: DynamicCatalog) -> None:
        """*restored*, opened on *live*'s last checkpoint, holds what *live*
        does (:func:`_held`)."""
        was, now = _held(live), _held(restored)
        check(list(now) == list(was), "restored nodes", list(now), list(was))
        for name, held in was.items():
            check(now[name] == held, "restored", name, now[name], held)

    def teardown(self) -> None:
        if hasattr(self, "directory"):
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "CatalogModel":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.teardown()
