"""One model-based test for every route to a temporal aggregate.

A hypothesis state machine keeps two lists of facts as its model -- the
live ones and those of the last commit -- and reads both through
:mod:`repro.core.reference`, the executable semantics of PAPER.md §2.
Every step goes to all routes at once:

* the SB-tree, on the backend drawn at setup: an in-memory store, one
  page file behind a 1-, 2- or 3-frame pool, or four page-file shards of a
  :class:`~repro.sharding.ShardedTree` (each page file with a
  :class:`~repro.faults.FaultInjector` attached);
* :class:`DualTreeAggregate` (SUM/COUNT/AVG) or :class:`MSBTree`
  (MIN/MAX);
* a :class:`FixedWindowTree` at the offset drawn at setup;
* the directly materialized view.

After every step each route must answer the point lookup, the coalesced
range query and the windowed lookup exactly as the oracle does, and
every tree must pass :func:`check_tree`.  A crash -- a process death, or
a power cut under each :meth:`FaultInjector.lose_power` mode -- reopens
the page files, which must hold exactly the committed facts; the
in-memory routes are rebuilt from them.

The machine also checks the paper's cost bounds (PAPER.md §1) as exact
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
  per tree it reaches.

The named examples at the end are fixed step sequences through the same
machine.
"""

import contextlib
import functools
import operator
import shutil
import tempfile

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import (
    DualTreeAggregate,
    FixedWindowTree,
    Interval,
    MSBTree,
    SBTree,
    check_tree,
)
from repro.core import reference
from repro.core.results import finalized_rows
from repro.faults import FaultInjector, simulate_crash
from repro.sharding import ShardedTree, WindowUnsupportedError, shard_path
from repro.storage import PagedNodeStore
from repro.warehouse import MaterializedView

#: 1 under the default profile (100 examples), 5 under ``ci``.
SCALE = settings.default.max_examples / 100

KINDS = ("sum", "count", "avg", "min", "max")
BACKENDS = ("memory", "paged", "sharded")
GEOMETRIES = [(4, 4), (4, 6), (6, 4), (8, 8), (5, 7)]
#: The three cuts of the four shards.
CUTS = [50, 100, 150]

times = st.integers(0, 200) | st.sampled_from(CUTS)


def _fact(value, a, b):
    return value, Interval(min(a, b), max(a, b) + (a == b))


facts = st.builds(_fact, st.integers(-9, 9), times, times)
power_loss = st.sampled_from([None, "all", "newest"]) | st.integers(0, 99)


def durable(machine):
    return machine.backend != "memory"


# ----------------------------------------------------------------------
# Cost bounds, in node reads at height h
# ----------------------------------------------------------------------
def tally(store):
    """What *store* has done so far: node reads, and on a page store the
    pool's hits and misses, the pager's page reads and the decodes."""
    counts = [store.stats.reads]
    if hasattr(store, "buffer"):
        counts += [
            store.buffer.stats.hits, store.buffer.stats.misses,
            store.pager.stats.physical_reads, store.stats.decodes,
        ]
    return counts


def costs(call, *stores):
    """``call()`` and, per store, what it cost (:func:`tally` deltas)."""
    before = [tally(store) for store in stores]
    result = call()
    return result, [
        list(map(operator.sub, tally(store), then))
        for store, then in zip(stores, before)
    ]


def update_bound(tree, h):
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


def range_bound(heights, pieces):
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


class OracleMachine(RuleBasedStateMachine):
    #: What :meth:`start` draws the kind and the backend from.
    kinds, backends = KINDS, BACKENDS

    @initialize(
        data=st.data(),
        geometry=st.sampled_from(GEOMETRIES),
        frames=st.sampled_from([1, 2, 3]),
        w=st.integers(0, 40),
    )
    def start(self, data, geometry, frames, w):
        kind = data.draw(st.sampled_from(self.kinds), label="kind")
        backend = data.draw(st.sampled_from(self.backends), label="backend")
        self.setup(kind, geometry, backend, frames, w)

    def setup(self, kind, geometry, backend, frames, w):
        self.kind, self.backend, self.frames, self.w = kind, backend, frames, w
        self.geometry = dict(branching=geometry[0], leaf_capacity=geometry[1])
        self.invertible = kind in ("sum", "count", "avg")
        self.live, self.committed, self.touched = [], [], []
        self._oracle_of = None
        self.directory = tempfile.mkdtemp(prefix="oracle-machine-")
        count = {"memory": 0, "paged": 1, "sharded": 4}[backend]
        self.paths = [shard_path(self.directory, i) for i in range(count)]
        if durable(self):
            # Created without an injector: power loss starts after this.
            for path in self.paths:
                with PagedNodeStore(path, kind, page_size=512) as store:
                    SBTree(kind, store, **self.geometry)
        self._open()
        self._rebuild()

    def _open(self):
        # A fresh injector per store: it remembers what no fsync covered.
        self.stores = [
            PagedNodeStore(path, buffer_capacity=self.frames, faults=FaultInjector())
            for path in self.paths
        ]
        if self.backend == "sharded":
            self.tree = ShardedTree(
                self.kind, CUTS, stores=self.stores, **self.geometry
            )
        else:
            self.tree = SBTree(self.kind, *self.stores, **self.geometry)

    def _rebuild(self):
        """The in-memory routes, from the live facts."""
        windowed = DualTreeAggregate if self.invertible else MSBTree
        self.windowed = windowed(self.kind, **self.geometry)
        self.fixed = FixedWindowTree(self.kind, self.w, **self.geometry)
        self.view = MaterializedView(self.kind)
        for fact in self.live:
            for route in self.routes()[1:]:
                route.insert(*fact)

    def routes(self):
        return [self.tree, self.windowed, self.fixed, self.view]

    def trees(self):
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
    def apply(self, op, fact):
        """*op* of *fact* on every route; each tree that takes it per
        fact reads at most :func:`update_bound` nodes (every tree but the
        shards' on an insert, which takes the batched path)."""
        trees = self.trees()
        if self.backend == "sharded" and op == "insert":
            trees = trees[len(self.tree.shards):]
        heights = [tree.height for tree in trees]
        _, spent = costs(
            lambda: [getattr(route, op)(*fact) for route in self.routes()],
            *[tree.store for tree in trees],
        )
        for tree, h, (reads, *_) in zip(trees, heights, spent):
            assert reads <= update_bound(tree, h), (op, reads, h)

    @rule(fact=facts)
    def insert(self, fact):
        self.apply("insert", fact)
        self.live.append(fact)
        self.touched = [fact]

    @rule(batch=st.lists(facts, min_size=1, max_size=6))
    def insert_batch(self, batch):
        if self.backend == "sharded":
            assert self.tree.batch_insert(batch) == len(batch)
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

    @precondition(lambda self: self.live)
    @rule(i=st.integers(0, 10**6))
    def delete(self, i):
        """Delete live fact ``i mod n``; MIN/MAX must refuse it on every
        route, and the invariant then sees every answer unchanged."""
        fact = self.live[i % len(self.live)]
        if self.invertible:
            self.apply("delete", fact)
            del self.live[i % len(self.live)]
        else:
            for route in self.routes():
                with pytest.raises(ValueError):
                    route.delete(*fact)
        self.touched = [fact]

    @rule(bulk=st.booleans())
    def compact(self, bulk):
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

    @precondition(durable)
    @rule()
    def commit(self):
        if self.backend == "sharded":
            self.tree.commit()
        else:
            self.stores[0].commit()
        self.committed = list(self.live)
        self.touched = []

    @precondition(durable)
    @rule()
    def reopen(self):
        for store in self.stores:
            store.close()
        self.committed = list(self.live)
        self._open()
        self.touched = []

    @precondition(durable)
    @rule(mode=power_loss)
    def crash(self, mode):
        for store in self.stores:
            simulate_crash(store, power_loss=mode)
        self._open()
        self.live = list(self.committed)
        self._rebuild()
        self.touched = []

    @rule(t=times, w=st.integers(0, 60), lo=times, span=st.integers(1, 200))
    def query(self, t, w, lo, span):
        self._heights = {}
        self.check_instant(t, w)
        window = Interval(lo, lo + span)
        self.check_steps(window)

        def clipped(table):
            return table.restrict(window).coalesce()

        def got(table):
            return table.coalesce(self.tree.spec.eq)

        assert got(self.fixed.range_query(window)) == clipped(self.oracle(self.w))
        assert self.windowed.window_query(window, w) == clipped(self.oracle(w))
        if not self.invertible:
            assert got(self.windowed.range_query(window)) == clipped(self.oracle())

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def oracle(self, w=None):
        """The oracle's step function over the whole time line:
        instantaneous, or cumulative at offset *w*."""
        live = tuple(self.live)
        if self._oracle_of != live:
            self._oracle_of, self._oracle = live, {}
        if w not in self._oracle:
            self._oracle[w] = (
                reference.instantaneous_table(live, self.kind, drop_initial=False)
                if w is None
                else reference.cumulative_table(
                    live, self.kind, w, drop_initial=False
                )
            )
        return self._oracle[w]

    def check_instant(self, t, w):
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
        assert got == [want] * len(got)
        assert self.tree.lookup_final(t) == self.tree.spec.finalize(want)
        fixed = self.check_lookup(self.fixed.tree, self.fixed.lookup, t)
        assert fixed == self.oracle(self.w).value_at(t)
        want = self.oracle(w).value_at(t)
        if self.invertible:
            # Two lookups of T' and one of T.
            ended = self.windowed.ended
            heights = [self.height(current), 2 * self.height(ended)]
            got, spent = costs(
                lambda: self.windowed.window_lookup(t, w), current.store, ended.store
            )
            assert [reads for reads, *_ in spent] == heights
        else:
            # The paths to t - w and to t: at most two nodes per level.
            got, [(reads,)] = costs(
                lambda: self.windowed.window_lookup(t, w), current.store
            )
            assert reads <= 2 * self.height(current) - 1
        assert got == want
        if self.backend != "sharded":
            return
        if self.invertible:
            with pytest.raises(WindowUnsupportedError):
                self.tree.window_lookup(t, w)
        else:
            assert self.tree.window_lookup(t, w) == want

    def height(self, tree):
        """*tree*'s height, read once per check (lookups leave it)."""
        if tree not in self._heights:
            self._heights[tree] = tree.height
        return self._heights[tree]

    def check_lookup(self, tree, lookup, t):
        """``lookup(t)``, one probe per level of *tree*: h node reads;
        on a page store h pool accesses, a page read per miss and at
        most one decode per access."""
        h, before = self.height(tree), tally(tree.store)
        got = lookup(t)
        reads, *paged = map(operator.sub, tally(tree.store), before)
        assert reads == h, (reads, h)
        if paged:
            hits, misses, page_reads, decodes = paged
            assert (hits + misses, page_reads) == (h, misses), paged
            assert decodes <= h, paged
        return got

    def check_steps(self, window):
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
        assert (edges[0], edges[-1]) == (window.start, window.end)
        assert all(a < b for a, b in zip(edges, edges[1:])), edges
        oracle = self.oracle()
        assert values == [oracle.value_at(start) for start in edges[:-1]]
        reads = sum(reads for reads, *_ in spent)
        assert reads <= range_bound(heights, len(values)), (reads, heights)
        if self.backend == "sharded":
            spec = self.tree.spec
            table = oracle.restrict(window).coalesce(spec.eq).finalized(spec)
            assert finalized_rows(edges, values, spec) == [
                [value, piece.start, piece.end] for value, piece in table
            ]

    @invariant()
    def answers_match_the_oracle(self):
        self._heights = {}
        instantaneous, cumulative = self.oracle(), self.oracle(self.w)
        assert self.tree.to_table(drop_initial=False) == instantaneous
        assert self.view.to_table(drop_initial=False) == instantaneous
        assert self.fixed.to_table(drop_initial=False) == cumulative
        if self.invertible:
            got = self.windowed.window_table(self.w, drop_initial=False)
            assert got == cumulative
        else:
            assert self.windowed.to_table(drop_initial=False) == instantaneous
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

    def teardown(self):
        for store in getattr(self, "stores", ()):
            store.close()
        if hasattr(self, "directory"):
            shutil.rmtree(self.directory, ignore_errors=True)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", KINDS)
def test_oracle_machine(kind, backend):
    """The machine, once per kind and backend, so that every pair runs."""
    machine = type(
        "OracleMachine", (OracleMachine,), {"kinds": [kind], "backends": [backend]}
    )
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=max(1, int(10 * SCALE)), stateful_step_count=25, deadline=None
        ),
    )


# ----------------------------------------------------------------------
# Named examples: fixed step sequences through the same machine
# ----------------------------------------------------------------------
@contextlib.contextmanager
def replayed(
    steps, *, kind="sum", backend="memory", geometry=(4, 4), frames=2, w=10
):
    """Run *steps* -- ``(rule, *arguments)`` -- through a machine set up
    as given, checking the invariant after setup and every step."""
    machine = OracleMachine()
    try:
        machine.setup(kind, geometry, backend, frames, w)
        machine.answers_match_the_oracle()
        for name, *arguments in steps:
            getattr(machine, name)(*arguments)
            machine.answers_match_the_oracle()
        yield machine
    finally:
        machine.teardown()


def test_figure20_counterexample():
    """Figure 20: R1 = {<1,[10,20)>, <1,[20,30)>} and R2 = {<1,[10,30)>}
    have equal instantaneous SUMs but different cumulative SUMs at
    w = 10, so no single instantaneous index answers cumulative SUM."""
    r1 = [(1, Interval(10, 20)), (1, Interval(20, 30))]
    r2 = [(1, Interval(10, 30))]
    with replayed([("insert_batch", r1)]) as one:
        with replayed([("insert_batch", r2)]) as two:
            assert one.tree.to_table() == two.tree.to_table()
            assert one.windowed.current.to_table() == two.windowed.current.to_table()
            # The T' trees tell them apart.
            assert one.windowed.window_table(10) != two.windowed.window_table(10)
            assert one.windowed.window_lookup(25, 10) == 2  # both overlap [15, 25]
            assert two.windowed.window_lookup(25, 10) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_a_fact_ending_at_t_minus_w_is_out_of_the_window(kind):
    """The ``[end, inf)`` erratum: <2, [45, 55)> meets the window
    ``[54, 59]`` of t = 59, w = 5, but not ``[55, 60]``.  The fact crosses
    a cut, so a sharded MIN/MAX window reads two shards."""
    steps = [("insert", (2, Interval(45, 55)))]
    with replayed(steps, kind=kind, backend="sharded", w=5) as m:
        empty = reference.cumulative_value([], kind, 60, 5)
        assert m.windowed.window_lookup(59, 5) != empty
        assert m.windowed.window_lookup(60, 5) == empty
        assert m.fixed.lookup(59) != empty
        assert m.fixed.lookup(60) == empty


@pytest.mark.parametrize("kind", KINDS)
def test_facts_on_shard_cuts(kind):
    """Facts that start, end, span and join exactly at the cuts 50, 100
    and 150: the invariant looks up either side of every cut."""
    on_cuts = [
        (3, Interval(50, 80)),
        (4, Interval(20, 50)),
        (5, Interval(40, 110)),
        (6, Interval(50, 100)),
        (7, Interval(149, 150)),
        (8, Interval(150, 151)),
    ]
    steps = [("insert", fact) for fact in on_cuts[:3]]
    steps += [("insert_batch", on_cuts[3:]), ("delete", 2), ("commit",), ("reopen",)]
    steps += [("insert", (9, Interval(100, 150))), ("crash", "all")]
    with replayed(steps, kind=kind, backend="sharded", geometry=(4, 6)) as m:
        kept = on_cuts if kind in ("min", "max") else on_cuts[:2] + on_cuts[3:]
        assert m.live == kept


@pytest.mark.parametrize("mode", [None, "all", "newest", 7])
@pytest.mark.parametrize("backend", ["paged", "sharded"])
def test_a_crash_keeps_exactly_the_last_commit(backend, mode):
    """A committed fact, an uncommitted one, then a crash: the page files
    reopen to the first alone, whatever the power cut drops."""
    committed = (1, Interval(40, 60))
    steps = [("insert", committed), ("commit",), ("insert", (2, Interval(45, 120)))]
    with replayed(steps + [("crash", mode)], backend=backend) as m:
        assert m.live == [committed]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", KINDS)
def test_insert_all_then_delete_all(kind, backend):
    """Inserting facts and deleting them all again, newest first, leaves
    every tree one empty node (SUM/COUNT/AVG); MIN/MAX refuse each delete
    and keep every answer."""
    base = [_fact(v, (7 * v) % 200, (13 * v + 40) % 200) for v in range(1, 21)]
    steps = [("insert", fact) for fact in base] + [("delete", -1)] * len(base)
    with replayed(steps, kind=kind, backend=backend) as m:
        if kind in ("min", "max"):
            assert m.live == base
            return
        assert m.live == [] and m.tree.to_table().rows == []
        assert [tree.node_count() for tree in m.trees()] == [1] * len(m.trees())
        if backend == "sharded":
            assert m.tree.facts_applied == 0
            assert m.tree.pieces_applied == [0] * 4


@pytest.mark.parametrize("kind", ["min", "max"])
def test_a_wide_window_reads_annotations_not_leaves(kind):
    """Short facts whose extremum improves left to right, so no subtree
    a window covers can be pruned: the MSB-tree's window lookup must
    take each covered subtree's ``u`` and still read at most two nodes
    per level, where a scan would read every leaf in the window."""
    sign = 1 if kind == "max" else -1
    facts = [(sign * v, Interval(3 * v, 3 * v + 2)) for v in range(60)]
    steps = [("insert_batch", facts), ("query", 170, 60, 100, 80)]
    with replayed(steps, kind=kind, w=40) as m:
        assert m.windowed.height >= 3
