"""``SBTree.insert_batch`` against one ``insert`` per fact.

The batched insert makes one pass over the tree for a whole list of
effects, cuts an overflowing node once into as many nodes as it needs and
writes every node it touched once, at the end.  Its trees therefore have
a different *shape* from the ones per-fact insertion builds; what must be
identical is every answer and every invariant.  Per-fact ``insert`` is
the paper's Section 3.3 algorithm, so it is the reference here: the same
facts go into a tree one by one and into another batch by batch, over an
in-memory store and over a journaled page file behind a three-frame
pool, for all five aggregates and for MSB-trees.

The example budget follows the loaded hypothesis profile: tier-1 runs
the default, CI runs this file once more with
``--hypothesis-profile=ci --hypothesis-seed=0``.
"""

import os
import random
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import Interval, MSBTree, SBTree, ShardedTree, check_tree
from repro.core import reference
from repro.core.intervals import NEG_INF, POS_INF
from repro.storage import PagedNodeStore

#: 1 under the default profile (100 examples), 5 under ``ci``.
SCALE = settings.default.max_examples / 100


def budget(examples: int, **kwargs) -> settings:
    return settings(
        max_examples=max(1, int(examples * SCALE)), deadline=None, **kwargs
    )


INVERTIBLE = ("sum", "count", "avg")
ALL_KINDS = INVERTIBLE + ("min", "max")
TREES = [(SBTree, kind) for kind in ALL_KINDS] + [
    (MSBTree, "min"), (MSBTree, "max")]
BRANCHING = (4, 5, 32)
SIZES = (0, 1, 2, 64)  # 3,000 has tests of its own below

times = st.integers(min_value=0, max_value=400)
# Negative SUM/AVG values are deletions by another name: they cancel
# earlier effects, empty leaves and drive nmerge.
values = st.integers(min_value=-4, max_value=6)


@st.composite
def facts_of(draw, size):
    facts = []
    for _ in range(size):
        start = draw(times)
        end = draw(st.sampled_from([1, 2, 5, 40, 200, None]))
        facts.append((
            draw(values),
            Interval(start, POS_INF if end is None else start + end),
        ))
    return facts


batches = st.lists(
    st.sampled_from(SIZES).flatmap(facts_of), min_size=1, max_size=5)


def pair(cls, kind, branching, store=None):
    """The reference tree (per-fact) and the tree under test (batched)."""
    return (
        cls(kind, branching=branching, leaf_capacity=branching),
        cls(kind, store, branching=branching, leaf_capacity=branching),
    )


def assert_same(got, want):
    """Equal step functions, and the batched tree keeps every invariant
    (balance, occupancy, compactness for SUM/COUNT/AVG, exact MSB ``u``)."""
    check_tree(got)
    if got.spec.invertible:
        # Both trees are compact, so they agree piece for piece.
        assert got.to_table(coalesced=False) == want.to_table(coalesced=False)
    assert got.to_table() == want.to_table()


def apply_both(got, want, facts):
    for value, interval in facts:
        want.insert(value, interval)
    got.insert_batch(facts)


# ----------------------------------------------------------------------
# The differential property, in memory and on pages
# ----------------------------------------------------------------------
@pytest.mark.parametrize("branching", BRANCHING)
@pytest.mark.parametrize("cls,kind", TREES)
@given(data=st.data())
@budget(25)
def test_batches_answer_like_per_fact_inserts(cls, kind, branching, data):
    want, got = pair(cls, kind, branching)
    for facts in data.draw(batches):
        apply_both(got, want, facts)
        assert_same(got, want)
        if cls is MSBTree:
            for t, w in data.draw(st.lists(st.tuples(times, times), max_size=6)):
                assert got.window_lookup(t, w) == want.window_lookup(t, w)


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(data=st.data())
@budget(15)
def test_batches_on_a_journaled_three_frame_pool(kind, data):
    # Three frames cannot hold one root-to-leaf path plus a sibling: every
    # batch has its nodes evicted under it, and some of them re-read.
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "batch.sbt")
        store = PagedNodeStore(
            path, kind, page_size=512, buffer_capacity=3)
        want, got = pair(SBTree, kind, 5, store)
        for facts in data.draw(batches):
            apply_both(got, want, facts)
            assert_same(got, want)
            if data.draw(st.booleans()):
                store.commit()
        store.commit()
        store.close()
        with PagedNodeStore(path) as reopened:
            assert_same(SBTree(store=reopened), want)


class BatchMachine(RuleBasedStateMachine):
    """Batches, single inserts and deletes interleaved on one SUM tree."""

    def __init__(self):
        super().__init__()
        self.want, self.got = pair(SBTree, "sum", 4)
        self.live = []

    @rule(facts=st.sampled_from(SIZES).flatmap(facts_of))
    def batch(self, facts):
        apply_both(self.got, self.want, facts)
        self.live.extend(facts)

    @rule(fact=facts_of(1))
    def single(self, fact):
        for tree in (self.got, self.want):
            tree.insert(*fact[0])
        self.live.extend(fact)

    @rule(data=st.data())
    def delete_as_a_batch(self, data):
        # Negated effects through the batch path: the dual of `batch`.
        count = data.draw(st.integers(0, min(8, len(self.live))))
        doomed = [
            self.live.pop(data.draw(st.integers(0, len(self.live) - 1)))
            for _ in range(count)
        ]
        for fact in doomed:
            self.want.delete(*fact)
        self.got.insert_effects([(-value, iv) for value, iv in doomed])

    @invariant()
    def same_answers(self):
        assert_same(self.got, self.want)


BatchMachine.TestCase.settings = budget(20, stateful_step_count=15)
TestBatchMachine = BatchMachine.TestCase


# ----------------------------------------------------------------------
# Named cases
# ----------------------------------------------------------------------
def near_ordered(count, seed=21, step=10):
    """A monotone clock with jitter; one interval in ten is long."""
    rng = random.Random(seed)
    facts = []
    for i in range(count):
        start = max(0, i * step + rng.randint(-3 * step, 3 * step))
        length = rng.randint(1, 4 * step) if rng.random() < 0.9 else 90 * step
        facts.append((rng.randint(1, 9), Interval(start, start + length)))
    return facts


@pytest.mark.parametrize("branching", BRANCHING)
@pytest.mark.parametrize("cls,kind", TREES)
def test_three_thousand_facts_into_an_empty_tree(cls, kind, branching):
    # One leaf takes every effect, is cut into hundreds of leaves, and
    # the root grows as many levels as that needs -- in one pass.
    facts = near_ordered(3_000)
    want, got = pair(cls, kind, branching)
    apply_both(got, want, facts)
    assert_same(got, want)
    # MIN/MAX prune most effects; even so a lone leaf became this tall.
    assert got.height >= (2 if branching == 32 else 4)
    for t in (0, 1_500, 15_000, 29_990, 31_000):
        assert got.lookup(t) == reference.instantaneous_value(facts, kind, t)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_an_empty_batch_touches_nothing(kind):
    tree = SBTree(kind)
    before = tree.store.stats.snapshot()
    tree.insert_batch([])
    tree.insert_effects(iter(()))
    delta = tree.store.stats - before
    assert (delta.reads, delta.writes, delta.allocations) == (0, 0, 0)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_duplicate_intervals_in_one_batch(kind):
    want, got = pair(SBTree, kind, 4)
    facts = [(v, Interval(10, 20)) for v in (3, 3, 5, 3, 1)] * 3
    apply_both(got, want, facts)
    assert_same(got, want)


@pytest.mark.parametrize("kind", INVERTIBLE)
def test_effects_that_cancel_across_a_shared_endpoint(kind):
    # [10, 20) and [20, 30) carry the same value, so 20 ends up between
    # equal neighbours inside one leaf (the in-leaf check); then a batch
    # that is its own inverse leaves no boundary behind at all.
    want, got = pair(SBTree, kind, 4)
    apply_both(got, want, [
        (5, Interval(10, 20)), (5, Interval(20, 30)), (2, Interval(0, 50))])
    assert_same(got, want)
    spec = got.spec
    undone = [(spec.effect(4), Interval(12, 18)),
              (spec.negated_effect(4), Interval(12, 18))]
    for effect, interval in undone:
        want.insert_effect(effect, interval)
    got.insert_effects(undone)
    assert_same(got, want)
    boundaries = [iv.start for _, iv in got.to_table(coalesced=False)]
    assert 20 not in boundaries and 12 not in boundaries


@pytest.mark.parametrize("side", ["ends", "starts"])
@pytest.mark.parametrize("kind", INVERTIBLE)
def test_an_endpoint_on_an_interior_separator(kind, side):
    want, got = pair(SBTree, kind, 4)
    apply_both(got, want, near_ordered(120))
    root = got.store.read(got.store.get_root())
    assert not root.is_leaf
    sep = root.times[len(root.times) // 2]
    rows = got.to_table(coalesced=False, drop_initial=False).rows
    (left, left_iv), (right, right_iv) = next(
        (a, b) for a, b in zip(rows, rows[1:]) if a[1].end == sep)
    # Level the two pieces that meet at the separator, with an effect
    # that ends (or starts) exactly on it: the leaf intervals that now
    # merge live in different subtrees of the root, so only the interior
    # node the effect passed through can have noted the endpoint
    # (imerge's interior case, after the batch).
    diff = got.spec.diff
    effects = [
        (diff(right, left), Interval(left_iv.start, sep)) if side == "ends"
        else (diff(left, right), Interval(sep, right_iv.end)),
        (got.spec.effect(1), Interval(sep - 400, sep + 400)),
    ]
    for effect, interval in effects:
        want.insert_effect(effect, interval)
    got.insert_effects(effects)
    assert_same(got, want)
    assert all(iv.end != sep for _, iv in got.to_table(coalesced=False))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_unbounded_effects(kind):
    # What the dual tree's "ended before t" half inserts: [end, inf).
    want, got = pair(SBTree, kind, 5)
    effects = [
        (want.spec.effect(value), Interval(interval.end, POS_INF))
        for value, interval in near_ordered(200)
    ] + [(want.spec.effect(3), Interval(NEG_INF, POS_INF)),
         (want.spec.effect(4), Interval(NEG_INF, 77))]
    for effect, interval in effects:
        want.insert_effect(effect, interval)
    got.insert_effects(effects)
    assert_same(got, want)


def test_negative_effects_that_empty_leaves():
    # Retract a contiguous third of the history in one batch: every
    # boundary in it becomes mergeable, leaves fall below the minimum
    # and nmerge borrows, merges and finally lowers the root.
    facts = near_ordered(400)
    want, got = pair(SBTree, "sum", 5)
    apply_both(got, want, facts)
    tall = got.height
    for doomed in (facts[100:250], facts[:100] + facts[250:]):
        for value, interval in doomed:
            want.delete(value, interval)
        got.insert_batch([(-value, interval) for value, interval in doomed])
        assert_same(got, want)
    assert got.height == 1 < tall and got.node_count() == 1


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_sharded_batches_split_at_the_cuts(kind):
    cuts = [100, 200, 300]
    rng = random.Random(7)
    facts = [
        (4, Interval(50, 100)),     # ends exactly on a cut
        (2, Interval(100, 200)),    # is exactly one shard
        (7, Interval(90, 310)),     # spans all four shards
        (3, Interval(150, 300)),    # spans three pieces' worth of two cuts
        (1, Interval(NEG_INF, 100)), (5, Interval(300, POS_INF)),
    ] + [
        (rng.randint(1, 9), Interval(s, s + rng.choice([1, 10, 100, 250])))
        for s in (rng.randrange(0, 400) for _ in range(120))
    ]
    sharded = ShardedTree(kind, cuts, branching=4)
    for i in range(0, len(facts), 32):
        assert sharded.batch_insert(facts[i:i + 32]) == len(facts[i:i + 32])
    sharded.check()
    assert sharded.to_table() == reference.instantaneous_table(facts, kind)
    pieces = sum(sharded.pieces_applied)
    assert pieces == sum(
        1 + sum(iv.start < cut < iv.end for cut in cuts) for _, iv in facts)


def test_a_piece_inside_one_shard_is_the_interval_itself():
    router = ShardedTree("sum", [100, 200]).router
    inside, spanning = Interval(120, 200), Interval(50, 250)
    assert [piece for _, piece in router.split(inside)][0] is inside
    assert list(router.split(spanning)) == [
        (0, Interval(50, 100)), (1, Interval(100, 200)), (2, Interval(200, 250))]
    assert list(router.split((0, 100))) == [(0, Interval(0, 100))]


# ----------------------------------------------------------------------
# What a batch costs (exact for a fixed stream)
# ----------------------------------------------------------------------
class CountingWrites:
    """Counts ``write`` / ``write_all`` per node id on a paged store
    (whose ``write_all`` is not a loop over ``write``)."""

    def __init__(self, store):
        self.per_node = Counter()
        write, write_all = store.write, store.write_all

        def counted(node):
            self.per_node[node.node_id] += 1
            write(node)

        def counted_all(nodes):
            self.per_node.update(node.node_id for node in nodes)
            write_all(nodes)

        store.write, store.write_all = counted, counted_all


def test_node_touches_per_fact_of_a_near_ordered_batch(tmp_path):
    facts = near_ordered(1_600 + 64)
    history, batch = facts[:-64], facts[-64:]

    def build(per_fact):
        store = PagedNodeStore(
            str(tmp_path / f"per-fact-{per_fact}.sbt"), "sum", page_size=512)
        tree = SBTree("sum", store, branching=8, leaf_capacity=8)
        if per_fact:
            for fact in history:
                tree.insert(*fact)
        else:
            for i in range(0, len(history), 64):
                tree.insert_batch(history[i:i + 64])
        assert tree.height >= 3
        return tree

    def cost(tree, apply):
        counting = CountingWrites(tree.store)
        before = tree.store.stats.snapshot()
        apply(tree)
        delta = tree.store.stats - before
        return (delta.reads + delta.writes) / len(batch), counting.per_node

    single, _ = cost(build(True), lambda t: [t.insert(*f) for f in batch])
    batched, per_node = cost(build(False), lambda t: t.insert_batch(batch))
    assert single > 5.0           # 8.27 for this stream at height 5
    assert batched <= 1.0
    # One write per node per batch: nothing on this stream needs a merge
    # after the pass, and the pass itself never writes a node twice.
    assert per_node and max(per_node.values()) == 1


def test_the_batch_is_one_observed_op_carrying_its_effect_count():
    from repro import obs

    tree = SBTree("sum", branching=4)
    with obs.collecting() as registry:
        tree.insert_batch(near_ordered(40))
        tree.insert_effects([(1, Interval(0, 5)), (2, Interval(3, 9))])
        tree.insert(1, Interval(1, 2))
        summary = registry.op_summary("insert_batch")
        counters = registry.to_dict()["counters"]
    assert summary["count"] == 2 and summary["effects"] == 42
    assert counters["op.insert_batch.effects"] == 42
    assert summary["writes"] == counters["op.insert_batch.writes"] > 0
    assert counters["op.insert.count"] == 1
