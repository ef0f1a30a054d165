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
"""

from __future__ import annotations

import contextlib
import functools
import operator
import shutil
import tempfile
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from .core import (
    DualTreeAggregate,
    FixedWindowTree,
    Interval,
    MSBTree,
    SBTree,
    check_tree,
    reference,
)
from .core.results import finalized_rows
from .faults import FaultInjector, simulate_crash
from .sharding import ShardedTree, WindowUnsupportedError, shard_path
from .storage import PagedNodeStore
from .warehouse import MaterializedView

__all__ = [
    "BACKENDS",
    "CUTS",
    "GEOMETRIES",
    "KINDS",
    "OracleMismatch",
    "OracleModel",
    "check",
    "costs",
    "durable",
    "Step",
    "range_bound",
    "replayed",
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
        """``lookup(t)``, one probe per level of *tree*: h node reads;
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
