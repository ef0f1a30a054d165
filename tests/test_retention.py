"""Tests for history retention (retain_after)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Interval, NEG_INF, SBTree, check_tree
from repro.core import reference
from repro.workloads import PRESCRIPTIONS, prescription_facts


class TestRetainAfter:
    def build(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        for p in PRESCRIPTIONS:
            tree.insert(p.dosage, p.valid)
        return tree

    def test_archives_old_history(self):
        tree = self.build()
        archived = tree.retain_after(30)
        # The archive holds Figure 3's first four rows (clipped at 30).
        assert [(v, (i.start, i.end)) for v, i in archived] == [
            (2, (5, 10)),
            (8, (10, 15)),
            (6, (15, 20)),
            (7, (20, 30)),
        ]

    def test_recent_history_intact(self):
        tree = self.build()
        expected = reference.instantaneous_table(prescription_facts(), "sum")
        tree.retain_after(30)
        for t in range(30, 55):
            try:
                want = expected.value_at(t)
            except KeyError:
                want = 0
            assert tree.lookup(t) == want

    def test_old_instants_become_initial(self):
        tree = self.build()
        tree.retain_after(30)
        for t in (-100, 5, 12, 29):
            assert tree.lookup(t) == 0

    def test_structure_stays_sound_and_maintainable(self):
        tree = self.build()
        tree.retain_after(30)
        check_tree(tree)
        tree.insert(5, Interval(35, 60))
        assert tree.lookup(36) == 13  # 8 (Figure 3) + 5
        check_tree(tree)

    def test_cutoff_must_be_finite(self):
        with pytest.raises(ValueError):
            self.build().retain_after(NEG_INF)

    def test_cutoff_beyond_all_data(self):
        tree = self.build()
        archived = tree.retain_after(1_000)
        assert len(archived) == 8  # the full Figure 3
        assert tree.to_table().rows == []
        assert tree.node_count() == 1

    @given(cutoff=st.integers(0, 60))
    @settings(max_examples=30, deadline=None)
    def test_archive_plus_rest_is_the_whole(self, cutoff):
        tree = self.build()
        whole = tree.range_query(Interval(NEG_INF, float("inf"))).coalesce(
            tree.spec.eq
        )
        archived = tree.retain_after(cutoff)
        kept = tree.to_table()
        for value, interval in archived:
            assert whole.value_at(interval.start) == value
        for value, interval in kept:
            assert whole.value_at(interval.start) == value


class TestRetainAfterUnderChurn:
    @given(
        cutoff=st.integers(10, 50),
        post_ops=st.lists(
            st.tuples(st.integers(-5, 9), st.integers(0, 80), st.integers(1, 40)),
            max_size=12,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_updates_after_retention_stay_consistent(self, cutoff, post_ops):
        """The retained tree remains a correct index for new effects.

        New effects may even reach back before the cutoff; the tree
        simply treats the erased region as having been empty.
        """
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        for p in PRESCRIPTIONS:
            tree.insert(p.dosage, p.valid)
        tree.retain_after(cutoff)
        # Model: original facts clipped at the cutoff...
        model = []
        for p in PRESCRIPTIONS:
            clipped = p.valid.intersection(Interval(cutoff, 10_000))
            if clipped is not None:
                model.append((p.dosage, clipped))
        # ...plus the new facts, unclipped.
        for value, start, length in post_ops:
            interval = Interval(start, start + length)
            tree.insert(value, interval)
            model.append((value, interval))
        check_tree(tree)
        assert tree.to_table() == reference.instantaneous_table(model, "sum")


class TestRetainAfterMSB:
    def test_annotations_rebuilt_after_retention(self):
        from repro import MSBTree
        from repro.core import reference

        msb = MSBTree("max", branching=4, leaf_capacity=4)
        facts = [(i % 9, Interval(i * 3, i * 3 + 12)) for i in range(60)]
        for value, interval in facts:
            msb.insert(value, interval)
        msb.retain_after(90)
        check_tree(msb)  # u-annotations audited
        clipped = [
            (v, Interval(max(i.start, 90), i.end))
            for v, i in facts
            if i.end > 90
        ]
        for t in range(90, 200, 7):
            for w in (0, 20):
                want = reference.cumulative_value(
                    clipped, "max", t, min(w, t - 90)
                )
                # Window clamped at the cutoff: history before 90 is gone.
                got = msb.window_lookup(t, w)
                if t - w >= 90:
                    assert got == reference.cumulative_value(clipped, "max", t, w)
