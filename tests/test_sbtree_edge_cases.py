"""Edge-case tests for the SB-tree beyond the paper's worked examples."""

import math
import random

import pytest

from repro import Interval, MemoryNodeStore, NEG_INF, POS_INF, SBTree, check_tree
from repro.core import reference
from repro.core.nodes import Node
from repro.core.values import spec_for


class TestConstruction:
    def test_capacities_validated(self):
        with pytest.raises(ValueError):
            SBTree("sum", branching=3)
        with pytest.raises(ValueError):
            SBTree("sum", branching=8, leaf_capacity=2)

    def test_new_tree_needs_kind(self):
        with pytest.raises(ValueError):
            SBTree(store=MemoryNodeStore())

    def test_store_without_kind_metadata_rejected(self):
        store = MemoryNodeStore()
        SBTree("sum", store)
        store._meta.clear()
        with pytest.raises(ValueError):
            SBTree(store=store)

    def test_reattach_to_memory_store(self):
        store = MemoryNodeStore()
        tree = SBTree("sum", store, branching=4, leaf_capacity=4)
        tree.insert(5, Interval(0, 10))
        again = SBTree(store=store)
        assert again.lookup(5) == 5
        assert again.b == 4

    def test_kind_mismatch_on_reattach(self):
        store = MemoryNodeStore()
        SBTree("sum", store)
        with pytest.raises(ValueError):
            SBTree("avg", store)


class TestEmptyTree:
    def test_lookup_everywhere_is_initial(self):
        tree = SBTree("sum")
        for t in (-1e12, 0, 1e12):
            assert tree.lookup(t) == 0
        assert SBTree("min").lookup(0) is None

    @pytest.mark.parametrize("kind", ["sum", "count", "avg", "min", "max"])
    def test_a_lookup_reads_the_root_leaf_once(self, kind):
        store = MemoryNodeStore()
        tree = SBTree(kind, store)
        before = store.stats.snapshot()
        assert tree.lookup(7) == tree.spec.v0
        assert (store.stats - before).reads == 1

    def test_to_table_empty(self):
        assert SBTree("count").to_table().rows == []

    def test_full_reconstruction_is_one_row(self):
        table = SBTree("sum").to_table(drop_initial=False)
        assert table.rows == [(0, Interval(NEG_INF, POS_INF))]

    def test_compact_on_empty(self):
        tree = SBTree("max")
        tree.compact()
        assert tree.node_count() == 1


class TestUnboundedEffects:
    def test_right_unbounded_effect(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert_effect(5, Interval(10, POS_INF))
        assert tree.lookup(9) == 0
        assert tree.lookup(10) == 5
        assert tree.lookup(1e15) == 5
        check_tree(tree)

    def test_left_unbounded_effect(self):
        tree = SBTree("count", branching=4, leaf_capacity=4)
        tree.insert_effect(1, Interval(NEG_INF, 10))
        assert tree.lookup(-1e15) == 1
        assert tree.lookup(10) == 0

    def test_whole_line_effect(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert_effect(7, Interval(NEG_INF, POS_INF))
        assert tree.lookup(0) == 7
        assert tree.node_count() == 1  # recorded at the root, no cuts
        tree.insert_effect(-7, Interval(NEG_INF, POS_INF))
        assert tree.lookup(0) == 0

    def test_unbounded_mixed_with_bounded(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        facts = [(1, Interval(i * 3, i * 3 + 5)) for i in range(30)]
        for v, i in facts:
            tree.insert(v, i)
        tree.insert_effect(100, Interval(40, POS_INF))
        assert tree.lookup(39) == reference.instantaneous_value(facts, "sum", 39)
        assert (
            tree.lookup(1000)
            == reference.instantaneous_value(facts, "sum", 1000) + 100
        )
        check_tree(tree)


class TestDegenerateUpdates:
    def test_zero_sum_insert_is_noop(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(3, Interval(0, 10))
        before = tree.to_table()
        tree.insert(0, Interval(2, 8))  # zero effect: no cuts created
        assert tree.to_table() == before
        assert tree.node_count() == 1

    def test_insert_exact_duplicate_then_delete_both(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(3, Interval(0, 10))
        tree.insert(3, Interval(0, 10))
        assert tree.lookup(5) == 6
        tree.delete(3, Interval(0, 10))
        tree.delete(3, Interval(0, 10))
        assert tree.to_table().rows == []

    def test_adjacent_intervals_do_not_merge_across_gap(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(3, Interval(0, 10))
        tree.insert(3, Interval(10, 20))  # touching, same value: coalesce
        assert tree.to_table().rows == [(3, Interval(0, 20))]

    def test_point_like_smallest_interval(self):
        tree = SBTree("count", branching=4, leaf_capacity=4)
        tree.insert(1, Interval(5, 6))
        assert tree.lookup(5) == 1
        assert tree.lookup(6) == 0
        assert tree.lookup(4) == 0

    def test_delete_never_inserted_goes_negative(self):
        # The structure faithfully records whatever effects it is given;
        # "deleting" an absent tuple yields negative values (the caller
        # owns base-table integrity, as in the paper's warehouse model).
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.delete(5, Interval(0, 10))
        assert tree.lookup(5) == -5
        check_tree(tree)


class TestFloatTimes:
    def test_float_boundaries(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(1, Interval(0.5, 2.75))
        tree.insert(2, Interval(1.25, 3.5))
        assert tree.lookup(0.5) == 1
        assert tree.lookup(1.3) == 3
        assert tree.lookup(2.75) == 2
        assert tree.lookup(3.5) == 0
        check_tree(tree)

    def test_nan_instant_rejected(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(1, Interval(0.5, 2.75))
        with pytest.raises(ValueError):
            tree.lookup(float("nan"))
        with pytest.raises(ValueError):
            tree.lookup_final(float("nan"))

    def test_negative_times(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(4, Interval(-100, -50))
        tree.insert(2, Interval(-75, 25))
        assert tree.lookup(-80) == 4
        assert tree.lookup(-60) == 6
        assert tree.lookup(0) == 2
        assert tree.to_table() == reference.instantaneous_table(
            [(4, Interval(-100, -50)), (2, Interval(-75, 25))], "sum"
        )


class TestDeepTrees:
    def test_many_disjoint_intervals(self):
        tree = SBTree("count", branching=4, leaf_capacity=4)
        n = 800
        for i in range(n):
            tree.insert(1, Interval(2 * i, 2 * i + 1))
        check_tree(tree)
        assert tree.height >= 4
        assert tree.lookup(2 * (n // 2)) == 1
        assert tree.lookup(2 * (n // 2) + 1) == 0
        # Tear it all down again.
        for i in range(n):
            tree.delete(1, Interval(2 * i, 2 * i + 1))
        assert tree.node_count() == 1

    def test_nested_intervals(self):
        # Concentric intervals exercise fully-covered interior updates at
        # every level.
        tree = SBTree("count", branching=4, leaf_capacity=4)
        n = 150
        facts = [(1, Interval(i, 2 * n - i)) for i in range(n)]
        for v, i in facts:
            tree.insert(v, i)
        check_tree(tree)
        assert tree.to_table() == reference.instantaneous_table(facts, "count")
        assert tree.lookup(n) == n

    def test_identical_heavy_overlap(self):
        tree = SBTree("count", branching=4, leaf_capacity=4)
        for _ in range(500):
            tree.insert(1, Interval(10, 20))
        assert tree.lookup(15) == 500
        assert tree.node_count() == 1  # one constant interval, no growth
        for _ in range(500):
            tree.delete(1, Interval(10, 20))
        assert tree.to_table().rows == []


class TestStatsAccounting:
    def test_store_stats_track_operations(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        before = tree.store.stats.snapshot()
        tree.insert(1, Interval(0, 10))
        delta = tree.store.stats - before
        assert delta.reads >= 1
        assert delta.writes >= 1

    def test_lookup_reads_equal_height(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        for i in range(200):
            tree.insert(1, Interval(i, i + 3))
        h = tree.height
        before = tree.store.stats.snapshot()
        tree.lookup(100)
        assert (tree.store.stats - before).reads == h


class TestRangeQueryEdges:
    def test_query_outside_data(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(5, Interval(100, 200))
        assert tree.range_query(Interval(0, 50)).rows == [(0, Interval(0, 50))]
        assert tree.range_query(Interval(300, 400)).rows == [(0, Interval(300, 400))]

    def test_query_exactly_one_constant_interval(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(5, Interval(100, 200))
        assert tree.range_query(Interval(100, 200)).rows == [(5, Interval(100, 200))]

    def test_query_single_instant_width(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(5, Interval(100, 200))
        got = tree.range_query(Interval(150, 151))
        assert got.rows == [(5, Interval(150, 151))]

    def test_query_accepts_tuples(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(5, (100, 200))
        assert tree.lookup(150) == 5
        assert len(tree.range_query((0, 300))) >= 1


# ----------------------------------------------------------------------
# Golden reference: the rebuild-every-piece leaf update the splice replaced
# ----------------------------------------------------------------------
def reference_apply_to_leaf(spec, node, lo, hi, v, query):
    """``SBTree._apply_to_leaf`` as it was before the leaf splice."""
    acc, eq = spec.acc, spec.eq
    s = max(query.start, lo)
    e = min(query.end, hi)
    pieces = []
    for i in range(node.interval_count):
        a, b = node.bounds(i, lo, hi)
        old = node.values[i]
        if b <= s or a >= e:
            pieces.append((a, b, old))
            continue
        updated = acc(v, old)
        if eq(updated, old):
            pieces.append((a, b, old))
            continue
        cut_lo, cut_hi = max(a, s), min(b, e)
        if a < cut_lo:
            pieces.append((a, cut_lo, old))
        pieces.append((cut_lo, cut_hi, updated))
        if cut_hi < b:
            pieces.append((cut_hi, b, old))
    node.times = [start for start, _, _ in pieces[1:]]
    node.values = [value for _, _, value in pieces]


class TestLeafSpliceGolden:
    """The splice must leave the very ``times``/``values`` the rebuild did
    (so pages, counters and splits cannot move)."""

    @staticmethod
    def _value(rng, kind):
        # Small value ranges so MIN/MAX effects are often dominated and
        # a SUM effect of 0 occurs: the ``eq(updated, old)`` pruning.
        if kind in ("min", "max"):
            return None if rng.random() < 0.2 else rng.randrange(0, 4)
        if kind == "avg":
            return (rng.randrange(-3, 4), rng.randrange(0, 3))
        return rng.randrange(-2, 3)

    @pytest.mark.parametrize("kind", ["sum", "count", "avg", "min", "max"])
    def test_splice_equals_rebuild_on_random_leaves(self, kind):
        spec = spec_for(kind)
        tree = SBTree(kind)
        rng = random.Random(f"leaf-splice-{kind}")
        shapes = set()
        for case in range(1500):
            n = rng.randrange(0, 12)
            times = sorted(rng.sample(range(10, 90), n))
            lo = NEG_INF if rng.random() < 0.2 else rng.randrange(0, 10)
            hi = POS_INF if rng.random() < 0.2 else rng.randrange(90, 100)
            values = [self._value(rng, kind) for _ in range(n + 1)]
            # The effect overlaps (lo, hi) -- the only way _insert gets
            # here -- but may stick out either side or both.
            cuts = sorted(rng.sample(range(-5, 105), 2))
            if rng.random() < 0.3:   # align with stored instants: full cover
                pool = times + [t for t in (lo, hi) if t not in (NEG_INF, POS_INF)]
                if len(pool) >= 2:
                    cuts = sorted(rng.sample(pool, 2))
            start = NEG_INF if rng.random() < 0.1 else cuts[0]
            end = POS_INF if rng.random() < 0.1 else cuts[1]
            if not (start < hi and end > lo):
                continue
            query = Interval(start, end)
            effect = self._value(rng, kind)
            if kind in ("min", "max") and effect is None:
                effect = 1
            got = Node(1, True, times=list(times), values=list(values))
            want = Node(2, True, times=list(times), values=list(values))
            tree._apply_to_leaf(got, lo, hi, effect, query)
            reference_apply_to_leaf(spec, want, lo, hi, effect, query)
            assert (got.times, got.values) == (want.times, want.values), (
                case, times, values, lo, hi, effect, query)
            shapes.add((
                start < lo, end > hi,                       # clipped by lo / hi
                len(want.values) - len(values),             # 0, +1 or +2 intervals
                start in times or start == lo,              # aligned left edge
            ))
        grown = {s[2] for s in shapes}
        assert grown == {0, 1, 2}
        assert {s[0] for s in shapes} == {True, False}
        assert {s[1] for s in shapes} == {True, False}

    def test_a_rejected_value_leaves_the_leaf_untouched(self):
        tree = SBTree("sum")
        node = Node(1, True, times=[10, 20], values=[1, 2, 3])
        with pytest.raises(TypeError):
            tree._apply_to_leaf(node, NEG_INF, POS_INF, "x", Interval(5, 25))
        assert (node.times, node.values) == ([10, 20], [1, 2, 3])


# ----------------------------------------------------------------------
# The per-fact insert does only necessary work: ``imerge`` only at an
# endpoint that may now separate equal values, a write only where a
# node changed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["sum", "count", "avg"])
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


@pytest.mark.parametrize("kind", ["sum", "count", "avg", "min", "max"])
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
