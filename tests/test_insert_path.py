"""The per-fact insert against the path it replaced.

``SBTree.insert_effect`` makes one descent that writes only the nodes it
changed and notes, on the way, which endpoints may now separate equal
values (``SBTree._merge_candidates``); ``imerge`` runs at those alone.
The path before it wrote every node it passed and ran ``imerge`` at both
finite endpoints of every effect.  That path is kept below as it was
(``EveryNode``).  The same random streams go into a tree of each kind --
all five aggregates and MSB-trees, over an in-memory store and over page
files behind a two-frame pool -- and the two trees must stay node for
node the same, with the same allocations and frees, and leave
byte-identical page files after close.

Values are integers.  Both paths compare neighbours exactly, and with
floats a parent value pushed down by ``nmerge`` could round two unequal
neighbours into equal ones.

The example budget follows the loaded hypothesis profile: tier-1 runs
the default, CI runs this file once more with
``--hypothesis-profile=ci --hypothesis-seed=0``.
"""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro import Interval, MSBTree, SBTree, check_tree
from repro.core.intervals import NEG_INF, POS_INF, is_finite
from repro.core.sbtree import as_interval
from repro.storage import PagedNodeStore

#: 1 under the default profile (100 examples), 5 under ``ci``.
SCALE = settings.default.max_examples / 100


def budget(examples: int) -> settings:
    return settings(max_examples=max(1, int(examples * SCALE)), deadline=None)


class EveryNode:
    """The per-fact path before merge candidates rode the descent:
    ``imerge`` at both finite endpoints after every effect, and every
    node the descent passes written, whether it changed or not."""

    def insert_effect(self, effect, interval):
        interval = as_interval(interval)
        root = self._root()
        self._insert(root, NEG_INF, POS_INF, effect, interval)
        if self._overflows(root):
            self._grow_root(root)
        if self._auto_compact:
            for t in (interval.start, interval.end):
                if is_finite(t):
                    self._imerge_at(t)

    def _insert(self, node, lo, hi, v, query):
        acc, eq = self.spec.acc, self.spec.eq
        if node.is_leaf:
            self._apply_to_leaf(node, lo, hi, v, query)
            self.store.write(node)
            return
        i = node.find(query.start)
        while i < node.interval_count:
            a, b = node.bounds(i, lo, hi)
            if a >= query.end:
                break
            if node.uvalues is not None:
                node.uvalues[i] = acc(v, node.uvalues[i])
            current = node.values[i]
            updated = acc(v, current)
            if eq(updated, current):
                i += 1
                continue
            if query.start <= a and b <= query.end:
                node.values[i] = updated
                i += 1
                continue
            child = self._read(node.children[i])
            self._insert(child, a, b, v, query)
            if self._overflows(child):
                self._split_child(node, i, child)
                i += 2
            else:
                i += 1
        self.store.write(node)


class EveryNodeSBTree(EveryNode, SBTree):
    pass


class EveryNodeMSBTree(EveryNode, MSBTree):
    pass


REFERENCE = {SBTree: EveryNodeSBTree, MSBTree: EveryNodeMSBTree}
INVERTIBLE = ("sum", "count", "avg")
ALL_KINDS = INVERTIBLE + ("min", "max")
TREES = [(SBTree, kind) for kind in ALL_KINDS] + [
    (MSBTree, "min"), (MSBTree, "max")]

instants = st.integers(min_value=0, max_value=300)
# Negative SUM/AVG values are deletions by another name.  A length of
# None runs the fact to +inf, like the dual tree's "ended before t" half.
values = st.integers(min_value=-4, max_value=6)
lengths = st.sampled_from([1, 2, 5, 40, 200, None])
short = st.sampled_from([1, 3, 40])


@st.composite
def facts(draw):
    start, length = draw(instants), draw(lengths)
    return draw(values), Interval(
        start, POS_INF if length is None else start + length)


def shape(tree):
    """Every node, depth first: id, leaf flag, times, values, children
    and u-values."""
    out, stack = [], [tree.store.get_root()]
    while stack:
        node = tree.store.read(stack.pop())
        out.append((
            node.node_id, node.is_leaf, list(node.times), list(node.values),
            list(node.children),
            None if node.uvalues is None else list(node.uvalues),
        ))
        stack.extend(reversed(node.children))
    return out


def assert_same(got, want):
    """Node for node the same trees, the one under test keeps every
    invariant, and both allocated and freed the same pages; returns the
    shape."""
    expected = shape(want)
    assert shape(got) == expected
    check_tree(got)
    assert (got.store.stats.allocations, got.store.stats.frees) == (
        want.store.stats.allocations, want.store.stats.frees)
    return expected


def drive(data, got, want, stores=()):
    """Draw a stream of operations and apply each to both trees."""
    spec = want.spec
    ops = ["insert", "insert", "separator", "zero", "batch", "compact"]
    if spec.invertible:
        ops += ["delete", "delete", "level", "level"]
    if stores:
        ops.append("commit")
    # A seeded preload of up to 150 facts grows the trees up to five
    # levels tall before the drawn stream starts.
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    live = [
        (rng.randint(-4, 6), Interval(start, start + rng.choice([1, 3, 8, 40])))
        for start in (rng.randrange(300) for _ in range(data.draw(st.integers(0, 150))))
    ]
    for fact in live:
        for tree in (got, want):
            tree.insert(*fact)
    current = assert_same(got, want)
    for op in data.draw(st.lists(st.sampled_from(ops), min_size=5, max_size=60)):
        stored = sorted({t for node in current for t in node[2]})
        if (op in ("separator", "level") and not stored) or (
            op == "delete" and not live
        ):
            op = "insert"
        call = ()
        if op == "insert":
            fact = data.draw(facts())
            live.append(fact)
            call = ("insert",) + fact
        elif op == "delete":
            fact = live.pop(data.draw(st.integers(0, len(live) - 1)))
            call = ("delete",) + fact
        elif op == "separator":
            # A fact that starts or ends exactly on a stored instant: a
            # leaf boundary or an interior separator.
            t, length = data.draw(st.sampled_from(stored)), data.draw(short)
            span = (t, t + length) if data.draw(st.booleans()) else (t - length, t)
            fact = (data.draw(values), Interval(*span))
            live.append(fact)
            call = ("insert",) + fact
        elif op == "level":
            # An effect that ends (or starts) on a stored instant and
            # makes its two sides equal: the merge the endpoint rule must
            # not miss, in a leaf or across an interior separator.
            t, length = data.draw(st.sampled_from(stored)), data.draw(short)
            left, right = want.lookup(t - 1), want.lookup(t)
            if data.draw(st.booleans()):
                effect = (spec.diff(right, left), Interval(t - length, t))
            else:
                effect = (spec.diff(left, right), Interval(t, t + length))
            call = ("insert_effect",) + effect
        elif op == "zero":
            call = ("insert_effect", spec.v0, data.draw(facts())[1])
        elif op == "batch":
            batch = data.draw(st.lists(facts(), max_size=6))
            live.extend(batch)
            call = ("insert_batch", batch)
        elif op == "compact":
            call = ("compact",)
        else:
            for store in stores:
                store.commit()
        if call:
            for tree in (got, want):
                getattr(tree, call[0])(*call[1:])
        current = assert_same(got, want)


@pytest.mark.parametrize("cls,kind", TREES)
@given(data=st.data())
@budget(25)
def test_per_fact_path_matches_the_every_node_path_in_memory(cls, kind, data):
    b, l = data.draw(st.integers(4, 8)), data.draw(st.integers(4, 8))
    drive(
        data,
        cls(kind, branching=b, leaf_capacity=l),
        REFERENCE[cls](kind, branching=b, leaf_capacity=l),
    )


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("cls,kind", TREES)
@given(data=st.data())
@budget(10)
def test_per_fact_path_matches_the_every_node_path_on_a_two_frame_pool(
    cls, kind, data
):
    # Two frames cannot hold a root-to-leaf path: a changed node left
    # unwritten loses its change when its frame is evicted, and one whose
    # frame stays clean never reaches the file.
    b, l = data.draw(st.integers(4, 8)), data.draw(st.integers(4, 8))
    with tempfile.TemporaryDirectory() as directory:
        paths = [os.path.join(directory, name) for name in ("got.sbt", "want.sbt")]
        stores = [
            PagedNodeStore(path, kind, page_size=512, buffer_capacity=2)
            for path in paths
        ]
        got = cls(kind, stores[0], branching=b, leaf_capacity=l)
        want = REFERENCE[cls](kind, stores[1], branching=b, leaf_capacity=l)
        drive(data, got, want, stores)
        for store in stores:
            store.close()
        assert read_bytes(paths[0]) == read_bytes(paths[1])


@pytest.mark.parametrize("kind", INVERTIBLE)
def test_a_fact_between_unequal_neighbours_runs_no_imerge(kind):
    # Past everything else, a fact adds two boundaries between unequal
    # values: neither endpoint is a candidate, so one descent is all it
    # reads.  Its deletion levels both sides again: both are.
    tree = SBTree(kind, branching=4, leaf_capacity=4)
    for start in range(0, 400, 7):
        tree.insert(start % 5 + 1, Interval(start, start + 3))
    height = tree.height
    calls = []
    imerge = tree._imerge_at
    tree._imerge_at = lambda t: (calls.append(t), imerge(t))
    before = tree.store.stats.snapshot()
    tree.insert(9, Interval(1_000, 1_010))
    assert calls == [] and (tree.store.stats - before).reads == height
    tree.delete(9, Interval(1_000, 1_010))
    assert calls == [1_000, 1_010]
    check_tree(tree)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_an_effect_that_changes_nothing_writes_nothing(kind):
    # The identity effect (0, (0, 0), NULL) is pruned at the root; on
    # MIN/MAX so is one the stored extremum dominates, at the leaf.
    tree = SBTree(kind, branching=4, leaf_capacity=4)
    for start in range(0, 400, 7):
        tree.insert(start % 5 + 1, Interval(start, start + 3))
    tree.insert(50, Interval(1_000, 1_100))
    noops = [(tree.spec.v0, Interval(5, 300))]
    if kind in ("min", "max"):
        noops.append((99 if kind == "min" else 1, Interval(1_010, 1_020)))
    for effect, interval in noops:
        before = tree.store.stats.snapshot()
        tree.insert_effect(effect, interval)
        assert (tree.store.stats - before).writes == 0
