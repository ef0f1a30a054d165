"""Unit tests for the dual SB-tree pair (Section 4.2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import DualTreeAggregate, Interval, NEG_INF, POS_INF
from repro.core import reference

times = st.integers(min_value=0, max_value=100)
values = st.integers(min_value=-9, max_value=9)


@st.composite
def intervals(draw):
    start = draw(times)
    return Interval(start, start + draw(st.integers(min_value=1, max_value=50)))


facts_lists = st.lists(st.tuples(values, intervals()), min_size=0, max_size=20)


class TestConstruction:
    def test_min_max_rejected(self):
        for kind in ("min", "max"):
            with pytest.raises(ValueError):
                DualTreeAggregate(kind)

    def test_negative_offset_rejected(self):
        dual = DualTreeAggregate("sum")
        with pytest.raises(ValueError):
            dual.window_lookup(10, -1)

    def test_nan_offset_rejected(self):
        dual = DualTreeAggregate("sum")
        dual.insert(3, Interval(10, 60))
        dual.insert(2, Interval(0, 20))
        assert dual.window_lookup(50, 5) == 3
        with pytest.raises(ValueError):
            dual.window_lookup(50, float("nan"))

    def test_nan_instant_rejected(self):
        dual = DualTreeAggregate("sum")
        dual.insert(3, Interval(10, 60))
        with pytest.raises(ValueError):
            dual.window_lookup(float("nan"), 5)
        with pytest.raises(ValueError):
            dual.lookup(float("nan"))


class TestEndedTreeSemantics:
    """lookup(T', t) aggregates tuples that ended at or before t."""

    def test_ended_tree_counts_finished_tuples(self):
        dual = DualTreeAggregate("count", branching=4, leaf_capacity=4)
        dual.insert(1, Interval(0, 10))
        dual.insert(1, Interval(5, 20))
        # Before any tuple ends: nothing in T'.
        assert dual.ended.lookup(9) == 0
        # The first tuple counts as "ended" from its end instant onward
        # (our [end, inf) erratum fix; the paper's (end, inf) would miss
        # the boundary instant).
        assert dual.ended.lookup(10) == 1
        assert dual.ended.lookup(20) == 2
        assert dual.ended.lookup(1_000_000) == 2

    def test_never_ending_tuples_skip_ended_tree(self):
        dual = DualTreeAggregate("sum", branching=4, leaf_capacity=4)
        dual.insert(5, Interval(0, POS_INF))
        assert dual.ended.to_table().rows == []
        # But the tuple is live forever in T.
        assert dual.window_lookup(1_000, 10) == 5

    def test_boundary_instant_semantics(self):
        """The precise boundary case behind the Figure 21 erratum.

        A tuple over [5, 15) and a window [15, 20] (t=20, w=5) do not
        intersect, so the tuple must not be counted at t=20 -- this is
        the case where the paper's (end, inf) construction miscounts.
        """
        dual = DualTreeAggregate("sum", branching=4, leaf_capacity=4)
        dual.insert(2, Interval(5, 15))
        assert dual.window_lookup(19, 5) == 2  # window [14,19] meets [5,15)
        assert dual.window_lookup(20, 5) == 0  # window [15,20] does not

    @given(facts=facts_lists, t=times)
    @settings(max_examples=40, deadline=None)
    def test_ended_plus_live_partition(self, facts, t):
        """Every bounded tuple is live at t, ended before t, or future."""
        dual = DualTreeAggregate("count", branching=4, leaf_capacity=4)
        for value, interval in facts:
            dual.insert(value, interval)
        live = dual.current.lookup(t)
        ended = dual.ended.lookup(t)
        future = sum(1 for _, i in facts if i.start > t)
        # not-yet-started = tuples with start > t... except those also
        # containing t is impossible; partition must cover everything.
        assert live + ended + future == len(facts)


class TestWindowQuery:
    def test_window_table_breakpoints(self):
        dual = DualTreeAggregate("sum", branching=4, leaf_capacity=4)
        dual.insert(1, Interval(0, 10))
        table = dual.window_table(5)
        # The tuple contributes over [0, 15): live in [0,10), in-window
        # ended during [10, 15).
        assert table.rows == [(1, Interval(0, 15))]

    def test_window_query_clipped(self):
        dual = DualTreeAggregate("sum", branching=4, leaf_capacity=4)
        dual.insert(1, Interval(0, 10))
        dual.insert(2, Interval(20, 30))
        got = dual.window_query(Interval(5, 25), 5)
        assert got.value_at(5) == 1
        assert got.value_at(14) == 1
        assert got.value_at(16) == 0
        assert got.value_at(21) == 2

class TestMaintenance:
    def test_delete_updates_both_trees(self):
        dual = DualTreeAggregate("sum", branching=4, leaf_capacity=4)
        dual.insert(5, Interval(0, 10))
        dual.insert(3, Interval(2, 8))
        dual.delete(5, Interval(0, 10))
        assert dual.current.to_table() == reference.instantaneous_table(
            [(3, Interval(2, 8))], "sum"
        )
        assert dual.ended.lookup(9) == 3  # only the remaining tuple's end
        assert dual.ended.lookup(7) == 0

    def test_full_roundtrip_empties_both_trees(self):
        dual = DualTreeAggregate("avg", branching=4, leaf_capacity=4)
        facts = [(i, Interval(i, i + 10)) for i in range(30)]
        for value, interval in facts:
            dual.insert(value, interval)
        for value, interval in facts:
            dual.delete(value, interval)
        assert dual.current.to_table().rows == []
        assert dual.ended.to_table().rows == []
        assert dual.current.node_count() == 1
        assert dual.ended.node_count() == 1

    def test_separate_stores(self):
        from repro import MemoryNodeStore

        s1, s2 = MemoryNodeStore(), MemoryNodeStore()
        dual = DualTreeAggregate("sum", s1, s2, branching=4, leaf_capacity=4)
        dual.insert(1, Interval(0, 10))
        assert s1.node_count() >= 1
        assert s2.node_count() >= 1
        assert dual.current.store is s1
        assert dual.ended.store is s2


class TestInstantaneousShortcut:
    def test_lookup_is_current_tree(self):
        dual = DualTreeAggregate("sum", branching=4, leaf_capacity=4)
        dual.insert(5, Interval(0, 10))
        assert dual.lookup(5) == 5
        assert dual.lookup(5) == dual.window_lookup(5, 0)
