"""Tests for the warehouse layer: maintained views and direct
materialization."""

import pytest

from repro import Interval, SBTree
from repro.core import reference
from repro.relation import TemporalRelation
from repro.warehouse import (
    ANY_WINDOW,
    MaterializedView,
    TemporalAggregateView,
)
from repro.workloads import PRESCRIPTIONS, prescription_facts


def load_prescriptions(relation):
    rows = []
    for p in PRESCRIPTIONS:
        rows.append(relation.insert(p.dosage, p.valid, patient=p.patient))
    return rows


# ----------------------------------------------------------------------
# Maintained views
# ----------------------------------------------------------------------
class TestTemporalAggregateView:
    def test_instantaneous_view_tracks_relation(self):
        rel = TemporalRelation("prescription")
        view = TemporalAggregateView("SumDosage", rel, "sum")
        rows = load_prescriptions(rel)
        assert view.value_at(19) == 6
        rel.delete(rows[0])  # Amy leaves
        assert view.value_at(19) == 4
        assert view.table() == reference.instantaneous_table(
            rel.facts(), "sum"
        ).finalized(view.spec)

    def test_view_over_existing_contents(self):
        rel = TemporalRelation("prescription")
        load_prescriptions(rel)
        view = TemporalAggregateView("SumDosage", rel, "sum")  # replay
        assert view.value_at(19) == 6

    def test_fixed_window_view(self):
        rel = TemporalRelation("prescription")
        view = TemporalAggregateView("AvgDosage5", rel, "avg", window=5)
        load_prescriptions(rel)
        assert view.value_at(32) == pytest.approx(1.75)

    def test_any_window_view_sum(self):
        rel = TemporalRelation("prescription")
        view = TemporalAggregateView("CumSum", rel, "sum", window=ANY_WINDOW)
        load_prescriptions(rel)
        for w in (0, 5, 20):
            for t in (12, 19, 32, 50):
                assert view.value_at(t, w) == reference.cumulative_value(
                    prescription_facts(), "sum", t, w
                )

    def test_any_window_view_max(self):
        rel = TemporalRelation("prescription")
        view = TemporalAggregateView("CumMax", rel, "max", window=ANY_WINDOW)
        load_prescriptions(rel)
        assert view.value_at(50, 20) == 4
        assert view.value_at(67, 20) == 1

    def test_window_argument_validation(self):
        rel = TemporalRelation("r")
        fixed = TemporalAggregateView("v1", rel, "sum", window=5)
        with pytest.raises(ValueError):
            fixed.value_at(10, 7)  # fixed views answer only their offset
        anyw = TemporalAggregateView("v2", rel, "sum", window=ANY_WINDOW)
        with pytest.raises(ValueError):
            anyw.value_at(10)  # must pass an offset
        with pytest.raises(ValueError):
            TemporalAggregateView("v3", rel, "sum", window=-1)

    def test_min_view_rejects_deletion(self):
        rel = TemporalRelation("r")
        TemporalAggregateView("v", rel, "min")
        row = rel.insert(1, Interval(0, 10))
        with pytest.raises(ValueError):
            rel.delete(row)

    def test_value_of_extractor(self):
        rel = TemporalRelation("r")
        view = TemporalAggregateView(
            "doubled", rel, "sum", value_of=lambda row: row.payload["weight"] * 2
        )
        rel.insert(0, Interval(0, 10), weight=3)
        assert view.value_at(5) == 6

    def test_detach_stops_maintenance(self):
        rel = TemporalRelation("r")
        view = TemporalAggregateView("v", rel, "sum")
        rel.insert(1, Interval(0, 10))
        view.detach()
        rel.insert(1, Interval(0, 10))
        assert view.value_at(5) == 1

    def test_any_window_table(self):
        rel = TemporalRelation("prescription")
        view = TemporalAggregateView("CumAvg", rel, "avg", window=ANY_WINDOW)
        load_prescriptions(rel)
        table = view.table(5)
        assert table.value_at(32) == pytest.approx(1.75)

    def test_compact_all_backings(self):
        rel = TemporalRelation("r")
        views = [
            TemporalAggregateView("a", rel, "sum"),
            TemporalAggregateView("b", rel, "sum", window=ANY_WINDOW),
            TemporalAggregateView("c", rel, "max", window=ANY_WINDOW),
        ]
        rel.insert(3, Interval(0, 50))
        rel.insert(1, Interval(10, 20))
        for view in views:
            view.compact()
        assert views[0].value_at(15) == 4
        assert views[1].value_at(15, 0) == 4
        assert views[2].value_at(15, 0) == 3


# ----------------------------------------------------------------------
# Direct materialization comparator
# ----------------------------------------------------------------------
class TestMaterializedView:
    def test_matches_oracle(self):
        view = MaterializedView("sum")
        for value, interval in prescription_facts():
            view.insert(value, interval)
        assert view.to_table() == reference.instantaneous_table(
            prescription_facts(), "sum"
        )
        assert view.lookup(19) == 6

    def test_nan_instant_rejected(self):
        view = MaterializedView("sum")
        view.insert(3, Interval(0, 10))
        with pytest.raises(ValueError):
            view.lookup(float("nan"))

    def test_intro_example_touches_most_rows(self):
        """Section 1: inserting Gill [15, 45) updates 5 of the 8 rows."""
        view = MaterializedView("sum")
        for value, interval in prescription_facts():
            view.insert(value, interval)
        before = view.rows_touched
        view.insert(5, Interval(15, 45))
        # [15,20) [20,30) [30,35) [35,40) [40,45): five rows rewritten.
        assert view.rows_touched - before == 5

    def test_long_interval_touches_linear_rows(self):
        view = MaterializedView("sum")
        tree = SBTree("sum", branching=8, leaf_capacity=8)
        for i in range(100):
            view.insert(1, Interval(i * 10, i * 10 + 5))
            tree.insert(1, Interval(i * 10, i * 10 + 5))
        before = view.rows_touched
        span = Interval(0, 1000)
        view.insert(1, span)
        touched = view.rows_touched - before
        assert touched > 150  # every constant interval under the span
        stats = tree.store.stats.snapshot()
        tree.insert(1, span)
        node_touches = (tree.store.stats - stats).reads
        assert node_touches < 25  # O(height), the SB-tree advantage

    def test_delete_restores(self):
        view = MaterializedView("count")
        view.insert(1, Interval(0, 10))
        view.insert(1, Interval(5, 15))
        view.delete(1, Interval(5, 15))
        assert view.to_table() == reference.instantaneous_table(
            [(1, Interval(0, 10))], "count"
        )
        view.delete(1, Interval(0, 10))
        assert view.row_count == 1

    def test_random_against_oracle(self):
        import random

        rng = random.Random(3)
        view = MaterializedView("sum")
        facts = []
        for _ in range(200):
            start = rng.randrange(500)
            interval = Interval(start, start + rng.randrange(1, 100))
            value = rng.randint(-5, 5)
            facts.append((value, interval))
            view.insert(value, interval)
        assert view.to_table() == reference.instantaneous_table(facts, "sum")
