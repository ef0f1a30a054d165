"""Tests for bottom-up bulk loading and the rebuilt compact()."""

import pytest

from repro import (
    ConstantIntervalTable,
    Interval,
    MSBTree,
    NEG_INF,
    POS_INF,
    SBTree,
    check_tree,
)
from repro.core import reference
from repro.workloads import uniform


def full_table(tree):
    return tree.range_query(Interval(NEG_INF, POS_INF)).coalesce(tree.spec.eq)


class TestBulkLoad:
    def test_empty_table(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(1, Interval(0, 10))
        tree.bulk_load(ConstantIntervalTable())
        assert tree.node_count() == 1
        assert tree.to_table().rows == []

    def test_partial_table_rejected(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        with pytest.raises(ValueError):
            tree.bulk_load(ConstantIntervalTable([(1, Interval(0, 10))]))

    def test_msb_annotations_rebuilt(self):
        facts = [(i % 11, Interval(i * 2, i * 2 + 7)) for i in range(150)]
        msb = MSBTree("max", branching=4, leaf_capacity=4)
        for value, interval in facts:
            msb.insert(value, interval)
        msb.bulk_load(full_table(msb))
        check_tree(msb)  # audits u-exactness
        for t in range(0, 320, 13):
            for w in (0, 5, 80):
                assert msb.window_lookup(t, w) == reference.cumulative_value(
                    facts, "max", t, w
                )

    def test_packed_leaves_are_near_full(self):
        tree = SBTree("count", branching=8, leaf_capacity=8)
        for i in range(400):
            tree.insert(1, Interval(2 * i, 2 * i + 1))
        incremental_nodes = tree.node_count()
        tree.bulk_load(full_table(tree))
        check_tree(tree)
        # Bottom-up packing beats incrementally split ~half-full nodes.
        assert tree.node_count() < incremental_nodes

    def test_chunking_respects_minimums(self):
        # 9 intervals at l=8 must not leave a 1-interval tail leaf.
        chunks = SBTree._chunk(9, 8, 4)
        assert sum(chunks) == 9
        assert all(4 <= c <= 8 for c in chunks)
        assert SBTree._chunk(3, 8, 4) == [3]  # lone chunk may be small
        for total in range(1, 200):
            chunks = SBTree._chunk(total, 8, 4)
            assert sum(chunks) == total
            if len(chunks) > 1:
                assert all(4 <= c <= 8 for c in chunks)


class TestCompactUsesBulkLoad:
    def test_compact_is_linear_packed(self):
        facts = uniform(500, horizon=20_000, max_duration=400, seed=5)
        tree = SBTree("max", branching=8, leaf_capacity=8)
        for value, interval in facts:
            tree.insert(value, interval)
        table_before = tree.to_table()
        tree.compact()
        check_tree(tree, check_compact=True)
        assert tree.to_table() == table_before

    def test_compact_empty_tree(self):
        tree = SBTree("min", branching=4, leaf_capacity=4)
        tree.compact()
        assert tree.node_count() == 1
        assert tree.lookup(0) is None
