"""Tests for the warehouse layer: the catalog's windowed views and
direct materialization."""

import pytest

from repro import Interval, SBTree
from repro.core import reference
from repro.core.values import spec_for
from repro.warehouse import ANY_WINDOW, DynamicCatalog, MaterializedView
from repro.workloads import PRESCRIPTIONS, prescription_facts


def prescriptions(*views):
    """A catalog holding Figure 1's Prescription table and each of
    *views*, ``(name, kind, window)``, declared over it first."""
    catalog = DynamicCatalog()
    catalog.create_table("prescription")
    for name, kind, window in views:
        catalog.create_view(name, "prescription", kind, window=window)
    rows = [catalog.insert("prescription", p.dosage, p.valid, patient=p.patient)
            for p in PRESCRIPTIONS]
    return catalog, rows


# ----------------------------------------------------------------------
# Views, instantaneous and cumulative
# ----------------------------------------------------------------------
class TestCatalogViews:
    def test_instantaneous_view_tracks_relation(self):
        catalog, rows = prescriptions(("SumDosage", "sum", 0))
        assert catalog.read("SumDosage", 19).value == 6
        catalog.delete("prescription", rows[0])  # Amy leaves
        assert catalog.read("SumDosage", 19).value == 4
        view = catalog.view("SumDosage")
        assert view.table() == reference.instantaneous_table(
            catalog.table("prescription").facts(), "sum"
        ).finalized(view.spec)

    def test_view_over_existing_contents(self):
        catalog, _ = prescriptions()
        catalog.create_view("SumDosage", "prescription", "sum")  # seeded from the rows
        assert catalog.read("SumDosage", 19).value == 6

    def test_fixed_window_view(self):
        catalog, _ = prescriptions(("AvgDosage5", "avg", 5))
        assert catalog.read("AvgDosage5", 32).value == pytest.approx(1.75)

    def test_any_window_view_sum(self):
        catalog, _ = prescriptions(("CumSum", "sum", ANY_WINDOW))
        for w in (0, 5, 20):
            for t in (12, 19, 32, 50):
                assert catalog.read("CumSum", t, w=w).value == reference.cumulative_value(
                    prescription_facts(), "sum", t, w
                )

    def test_any_window_view_max(self):
        catalog, _ = prescriptions(("CumMax", "max", ANY_WINDOW))
        assert catalog.read("CumMax", 50, w=20).value == 4
        assert catalog.read("CumMax", 67, w=20).value == 1

    def test_window_argument_validation(self):
        catalog, _ = prescriptions(("v1", "sum", 5), ("v2", "sum", ANY_WINDOW))
        with pytest.raises(ValueError):
            catalog.read("v1", 10, w=7)  # a fixed window answers only its offset
        with pytest.raises(ValueError):
            catalog.read("v2", 10)  # must pass an offset
        for w in (-1, float("nan")):
            with pytest.raises(ValueError):
                catalog.read("v2", 10, w=w)
        for window in (-1, float("nan"), float("inf"), True, "5"):
            with pytest.raises(ValueError):
                catalog.create_view("v3", "prescription", "sum", window=window)
        assert "v3" not in catalog.view_names()

    def test_a_windowed_view_is_not_a_source(self):
        catalog, _ = prescriptions(("v1", "sum", 5), ("v2", "max", ANY_WINDOW))
        for source in ("v1", "v2"):
            with pytest.raises(ValueError, match="window"):
                catalog.create_view("over", source, "sum")
        assert catalog.view_names() == ["v1", "v2"]

    def test_min_view_rejects_deletion(self):
        catalog, rows = prescriptions(("v", "min", 0))
        catalog.refresh("v")
        marks = dict(catalog.view("v").watermarks)
        catalog.delete("prescription", rows[0])
        with pytest.raises(ValueError, match="Section 3.4"):
            catalog.refresh("v")
        assert catalog.view("v").watermarks == marks

    def test_drop_view_stops_maintenance(self):
        catalog, _ = prescriptions(("v", "sum", 0))
        catalog.refresh("v")
        catalog.drop_view("v")
        catalog.insert("prescription", 1, Interval(0, 10))
        assert catalog.stats()["tables"]["prescription"]["log_retained"] == 0
        assert "v" not in catalog.view_names()

    def test_any_window_table(self):
        catalog, _ = prescriptions(("CumAvg", "avg", ANY_WINDOW))
        catalog.refresh("CumAvg")
        table = catalog.view("CumAvg").table(w=5)
        assert table.value_at(32) == pytest.approx(1.75)
        assert table == reference.cumulative_table(
            prescription_facts(), "avg", 5).finalized(spec_for("avg")).coalesce()

    def test_every_backing_answers(self):
        catalog = DynamicCatalog()
        catalog.create_table("r")
        for name, kind, window in (("a", "sum", 0), ("b", "sum", ANY_WINDOW),
                                   ("c", "max", ANY_WINDOW), ("d", "max", 10)):
            catalog.create_view(name, "r", kind, window=window)
        catalog.insert("r", 3, Interval(0, 50))
        catalog.insert("r", 1, Interval(10, 20))
        assert catalog.read("a", 15).value == 4
        assert catalog.read("b", 15, w=0).value == 4
        assert catalog.read("c", 15, w=0).value == 3
        assert catalog.read("d", 55).value == 3


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
