"""Unit tests for the fixed-window cumulative tree (Section 4.1)."""

import pytest

from repro import FixedWindowTree, Interval, POS_INF, SBTree, check_tree
from repro.workloads import PRESCRIPTIONS


def build(kind, w):
    tree = FixedWindowTree(kind, window=w, branching=4, leaf_capacity=4)
    for p in PRESCRIPTIONS:
        tree.insert(p.dosage, p.valid)
    return tree


class TestConstruction:
    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            FixedWindowTree("sum", window=-1)

    def test_nan_window_rejected(self):
        with pytest.raises(ValueError):
            FixedWindowTree("sum", window=float("nan"))

    def test_zero_window_is_instantaneous(self):
        fixed = build("sum", 0)
        plain = SBTree("sum", branching=4, leaf_capacity=4)
        for p in PRESCRIPTIONS:
            plain.insert(p.dosage, p.valid)
        assert fixed.to_table() == plain.to_table()

    def test_spec_exposed(self):
        assert build("avg", 5).spec.kind.value == "avg"


class TestEffectStretching:
    def test_contribution_extends_past_end(self):
        tree = FixedWindowTree("count", window=10, branching=4, leaf_capacity=4)
        tree.insert(1, Interval(0, 5))
        # Valid over [0, 5); within reach of windows ending in [0, 15).
        assert tree.lookup(0) == 1
        assert tree.lookup(14) == 1
        assert tree.lookup(15) == 0

    def test_infinite_end_not_stretched(self):
        tree = FixedWindowTree("sum", window=10, branching=4, leaf_capacity=4)
        tree.insert(3, Interval(5, POS_INF))
        assert tree.lookup(4) == 0
        assert tree.lookup(1e15) == 3

    def test_window_larger_than_history(self):
        tree = build("max", 1_000)
        # Every instant after day 5 sees the whole history's max.
        assert tree.lookup(900) == 4

    def test_deletion_symmetry(self):
        tree = build("avg", 5)
        before = tree.to_table()
        tree.insert(9, Interval(12, 60))
        tree.delete(9, Interval(12, 60))
        assert tree.to_table() == before
        check_tree(tree.tree)

    def test_minmax_deletion_rejected(self):
        tree = build("max", 5)
        with pytest.raises(ValueError):
            tree.delete(4, Interval(35, 45))

    def test_compact_minmax(self):
        tree = build("max", 20)
        table = tree.to_table()
        tree.compact()
        assert tree.to_table() == table
        check_tree(tree.tree, check_compact=True)


class TestQueries:
    def test_range_query_clipping(self):
        tree = build("avg", 5)
        got = tree.range_query(Interval(30, 40)).finalized(tree.spec).coalesce()
        assert got.value_at(32) == pytest.approx(1.75)

    def test_different_offsets_differ(self):
        """An index built for one offset cannot serve another (Section
        4.1's 'cannot be used for a different window offset')."""
        t5 = build("avg", 5)
        t0 = build("avg", 0)
        assert t5.to_table() != t0.to_table()
