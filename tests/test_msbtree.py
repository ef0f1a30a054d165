"""Unit tests for the MSB-tree's u-annotation machinery (Section 4.3)."""

import pytest

from repro import Interval, MSBTree, SBTree, check_tree
from repro.core import reference
from repro.core.validate import TreeInvariantError


class TestConstruction:
    def test_only_min_max(self):
        for kind in ("sum", "count", "avg"):
            with pytest.raises(ValueError):
                MSBTree(kind)

    def test_interior_nodes_get_uvalues(self):
        msb = MSBTree("max", branching=4, leaf_capacity=4)
        for i in range(30):
            msb.insert(i % 5, Interval(i * 2, i * 2 + 3))
        root = msb.store.read(msb.store.get_root())
        assert not root.is_leaf
        assert root.uvalues is not None
        assert len(root.uvalues) == root.interval_count

    def test_leaves_have_no_uvalues(self):
        msb = MSBTree("max", branching=4, leaf_capacity=4)
        for i in range(30):
            msb.insert(i, Interval(i * 2, i * 2 + 3))
        root = msb.store.read(msb.store.get_root())
        leaf = msb.store.read(root.children[0])
        while not leaf.is_leaf:
            leaf = msb.store.read(leaf.children[0])
        assert leaf.uvalues is None

    def test_deletes_rejected(self):
        msb = MSBTree("max")
        with pytest.raises(ValueError):
            msb.delete(3, Interval(0, 10))


class TestUExactness:
    """The u invariant: acc(v_i, u_i) equals the true subtree extremum.

    ``check_tree`` audits this structurally; here we additionally verify
    the derived property the paper uses: a window fully covering an
    interior interval is answered exactly from the annotations.
    """

    def test_u_invariant_detects_corruption(self):
        msb = MSBTree("max", branching=4, leaf_capacity=4)
        for i in range(40):
            msb.insert(i, Interval(i, i + 10))
        root = msb.store.read(msb.store.get_root())
        root.uvalues[0] = 999  # corrupt an annotation
        msb.store.write(root)
        with pytest.raises(TreeInvariantError):
            check_tree(msb)

    def test_covered_interval_answered_from_annotations(self):
        msb = MSBTree("max", branching=4, leaf_capacity=4)
        # Decreasing values: new inserts still build structure (they beat
        # the empty NULL), and the global maximum lives on the left, so
        # intervals right of the window prune without descent.
        facts = [(1000 - i, Interval(i * 3, i * 3 + 9)) for i in range(80)]
        for value, interval in facts:
            msb.insert(value, interval)
        root = msb.store.read(msb.store.get_root())
        assert len(root.times) >= 2, "precondition: root holds >= 3 intervals"
        # Closed window [t1, t2] covers the root's second interval
        # [t1, t2) entirely: answered from (u, v), no descent; later
        # intervals carry smaller maxima and prune.
        lo, hi = root.times[0], root.times[1]
        before = msb.store.stats.snapshot()
        got = msb.window_lookup(hi, hi - lo)
        reads = (msb.store.stats - before).reads
        assert got == reference.cumulative_value(facts, "max", hi, hi - lo)
        assert reads == 1


class TestPruning:
    def test_minsert_prunes_dominated_effects(self):
        msb = MSBTree("max", branching=4, leaf_capacity=4)
        msb.insert(100, Interval(0, 1000))
        nodes_before = msb.node_count()
        # Dominated inserts must create no structure at all.
        for i in range(50):
            msb.insert(1, Interval(i * 10, i * 10 + 500))
        assert msb.node_count() == nodes_before

    def test_mlookup_prunes_unpromising_subtrees(self):
        msb = MSBTree("max", branching=4, leaf_capacity=4)
        # A tall spike at the left, low noise to the right.
        msb.insert(1000, Interval(0, 10))
        for i in range(100):
            msb.insert(i % 5, Interval(10 + i * 4, 10 + i * 4 + 6))
        before = msb.store.stats.snapshot()
        got = msb.window_lookup(500, 500)  # window covers everything
        reads = (msb.store.stats - before).reads
        assert got == 1000
        # Once the spike is in hand, the noisy right side is skipped;
        # far fewer reads than a full scan of ~50 nodes.
        assert reads <= msb.height + 2


class TestWindowQueries:
    def test_window_zero_equals_instantaneous(self):
        facts = [(3, Interval(0, 10)), (7, Interval(5, 20)), (1, Interval(15, 30))]
        msb = MSBTree("max", branching=4, leaf_capacity=4)
        for value, interval in facts:
            msb.insert(value, interval)
        for t in range(0, 35):
            assert msb.window_lookup(t, 0) == msb.lookup(t)

    def test_negative_offset_rejected(self):
        msb = MSBTree("max")
        with pytest.raises(ValueError):
            msb.window_lookup(10, -1)

    def test_nan_offset_rejected(self):
        msb = MSBTree("max")
        msb.insert(3, Interval(10, 60))
        msb.insert(2, Interval(0, 20))
        with pytest.raises(ValueError):
            msb.window_lookup(50, float("nan"))
        with pytest.raises(ValueError):
            msb.extremum_over(float("nan"), 50)

    def test_nan_instant_rejected(self):
        msb = MSBTree("max")
        msb.insert(5, Interval(0, 20))
        msb.insert(2, Interval(10, 60))
        with pytest.raises(ValueError):
            msb.window_lookup(float("nan"), 3)
        with pytest.raises(ValueError):
            msb.lookup(float("nan"))

    def test_instantaneous_queries_still_work(self):
        """An MSB-tree is also a plain SB-tree for its aggregate."""
        facts = [(i % 9, Interval(i, i + 12)) for i in range(60)]
        msb = MSBTree("max", branching=4, leaf_capacity=4)
        sb = SBTree("max", branching=4, leaf_capacity=4)
        for value, interval in facts:
            msb.insert(value, interval)
            sb.insert(value, interval)
        assert msb.to_table() == sb.to_table()
        for t in range(0, 80, 5):
            assert msb.lookup(t) == sb.lookup(t)


class TestSplitsPreserveU:
    def test_deep_tree_annotations_after_many_splits(self):
        msb = MSBTree("max", branching=4, leaf_capacity=4)
        facts = []
        for i in range(300):
            fact = (i % 13, Interval(i * 2, i * 2 + 5))
            facts.append(fact)
            msb.insert(*fact)
        assert msb.height >= 4  # several levels of u-annotated interiors
        check_tree(msb)
        for t in range(0, 650, 17):
            for w in (0, 10, 100):
                assert msb.window_lookup(t, w) == reference.cumulative_value(
                    facts, "max", t, w
                )

    def test_grow_root_initializes_u(self):
        msb = MSBTree("min", branching=4, leaf_capacity=4)
        for i in range(10):
            msb.insert(10 - i, Interval(i * 5, i * 5 + 7))
        root = msb.store.read(msb.store.get_root())
        if not root.is_leaf:
            assert root.uvalues is not None
        check_tree(msb)
