"""Tests for the warehouse layer: maintained views, direct materialization,
the catalog, and persistence."""

import pytest

from repro import Interval, SBTree
from repro.core import reference
from repro.relation import TemporalRelation
from repro.warehouse import (
    ANY_WINDOW,
    MaterializedView,
    TemporalAggregateView,
    TemporalWarehouse,
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


# ----------------------------------------------------------------------
# Warehouse catalog
# ----------------------------------------------------------------------
class TestTemporalWarehouse:
    def test_catalog_roundtrip(self):
        wh = TemporalWarehouse()
        rel = wh.create_table("prescription")
        view = wh.create_view("SumDosage", "prescription", "sum")
        load_prescriptions(rel)
        assert wh.view("SumDosage") is view
        assert wh.table("prescription") is rel
        assert view.value_at(19) == 6

    def test_duplicate_names_rejected(self):
        wh = TemporalWarehouse()
        wh.create_table("t")
        with pytest.raises(ValueError):
            wh.create_table("t")
        wh.create_view("v", "t", "sum")
        with pytest.raises(ValueError):
            wh.create_view("v", "t", "sum")

    def test_drop_view_detaches(self):
        wh = TemporalWarehouse()
        rel = wh.create_table("t")
        view = wh.create_view("v", "t", "sum")
        wh.drop_view("v")
        rel.insert(1, Interval(0, 10))
        assert view.value_at(5) == 0

    def test_drop_view_removes_persistent_files(self, tmp_path):
        import os

        directory = str(tmp_path / "wh")
        with TemporalWarehouse(directory) as wh:
            rel = wh.create_table("t")
            wh.create_view("v", "t", "sum", persistent=True)
            wh.create_view("cum", "t", "avg", window=ANY_WINDOW, persistent=True)
            rel.insert(4, Interval(0, 10))
            for name, backings in (("v", 1), ("cum", 2)):
                paths = [f"{directory}/{name}.sbt"]
                if backings == 2:
                    paths.append(f"{directory}/{name}.ended.sbt")
                for path in paths:
                    assert os.path.exists(path)
                wh.drop_view(name)
                # Dropping closes and removes the page stores (and any
                # leftover WAL); nothing leaks on disk.
                for path in paths:
                    assert not os.path.exists(path)
                    assert not os.path.exists(path + "-wal")

    def test_dropped_view_leaves_no_wal_for_its_name(self, tmp_path):
        """A dropped persistent view whose store could not close cleanly
        still takes its WAL with it: left behind, the frames would
        replay into the next view of that name."""
        import os

        from repro.faults import FaultInjector

        directory = str(tmp_path / "wh")
        wh = TemporalWarehouse(directory)
        rel = wh.create_table("t")
        wh.create_table("u")
        view = wh.create_view("v", "t", "sum", persistent=True)
        rel.insert(4, Interval(0, 10))
        wh.checkpoint()  # committed into the WAL, nothing checkpointed
        pager = view.index.store.pager
        assert os.path.getsize(pager.wal_path) > 0
        pager.retry_backoff = 0.0
        pager.faults = FaultInjector().fail_writes("wal", times=None)
        rel.insert(5, Interval(2, 8))
        with pytest.warns(RuntimeWarning, match="degraded mode"):
            with pytest.raises(OSError):
                wh.checkpoint()
        wh.drop_view("v")  # a degraded store closes without a checkpoint
        assert os.listdir(directory) == []
        again = wh.create_view("v", "u", "sum", persistent=True)
        assert again.table().rows == []
        assert again.value_at(5) == 0
        wh.close()
        assert not [name for name in os.listdir(directory) if name.endswith("-wal")]

    def test_drop_table_refuses_while_views_depend(self):
        wh = TemporalWarehouse()
        rel = wh.create_table("t")
        wh.create_view("v", "t", "sum")
        with pytest.raises(ValueError, match="v"):
            wh.drop_table("t")
        wh.drop_view("v")
        wh.drop_table("t")
        with pytest.raises(KeyError):
            wh.table("t")
        # The relation object itself survives for anyone still holding it.
        rel.insert(1, Interval(0, 5))

    def test_drop_table_unknown(self):
        wh = TemporalWarehouse()
        with pytest.raises(KeyError):
            wh.drop_table("missing")

    def test_persistent_view_requires_directory(self):
        wh = TemporalWarehouse()
        wh.create_table("t")
        with pytest.raises(ValueError):
            wh.create_view("v", "t", "sum", persistent=True)

    def test_persistent_views_survive_reopen(self, tmp_path):
        directory = str(tmp_path / "wh")
        with TemporalWarehouse(directory) as wh:
            rel = wh.create_table("prescription")
            wh.create_view("SumDosage", "prescription", "sum", persistent=True)
            load_prescriptions(rel)
        # Reopen the page file directly: the index is all on disk.
        from repro.storage import PagedNodeStore

        with PagedNodeStore(f"{directory}/SumDosage.sbt") as store:
            tree = SBTree(store=store)
            assert tree.lookup(19) == 6

    def test_journaled_view_survives_crash(self, tmp_path):
        directory = str(tmp_path / "wh")
        wh = TemporalWarehouse(directory)
        rel = wh.create_table("prescription")
        view = wh.create_view(
            "SumDosage", "prescription", "sum", persistent=True
        )
        rows = load_prescriptions(rel)
        wh.checkpoint()  # durable snapshot
        committed = view.table()
        rel.insert(100, Interval(0, 1000))  # uncommitted
        store = view.index.store
        store.buffer.flush()
        store.pager._file.flush()
        store.pager._file.close()  # simulated crash

        from repro.storage import PagedNodeStore

        with PagedNodeStore(f"{directory}/SumDosage.sbt") as s:
            recovered = SBTree(store=s)
            assert (
                recovered.to_table().finalized(recovered.spec).coalesce()
                == committed
            )

    def test_persistent_msb_any_window_view(self, tmp_path):
        """ANY_WINDOW MIN/MAX views persist as a single MSB-tree file."""
        directory = str(tmp_path / "wh")
        with TemporalWarehouse(directory) as wh:
            rel = wh.create_table("t")
            view = wh.create_view(
                "worst", "t", "max", window=ANY_WINDOW, persistent=True
            )
            rel.insert(7, Interval(0, 10))
            rel.insert(3, Interval(20, 30))
            assert view.value_at(25, 20) == 7
        import os

        assert os.path.exists(f"{directory}/worst.sbt")
        assert not os.path.exists(f"{directory}/worst.ended.sbt")

    def test_double_close_is_safe(self, tmp_path):
        directory = str(tmp_path / "wh")
        wh = TemporalWarehouse(directory)
        rel = wh.create_table("t")
        wh.create_view("v", "t", "sum", persistent=True)
        rel.insert(1, Interval(0, 10))
        wh.close()
        wh.close()  # idempotent

    def test_persistent_any_window_view(self, tmp_path):
        directory = str(tmp_path / "wh")
        with TemporalWarehouse(directory) as wh:
            rel = wh.create_table("t")
            view = wh.create_view(
                "cum", "t", "avg", window=ANY_WINDOW, persistent=True
            )
            rel.insert(4, Interval(0, 10))
            rel.insert(2, Interval(5, 20))
            assert view.value_at(15, 10) == pytest.approx(3.0)
        import os

        assert os.path.exists(f"{directory}/cum.sbt")
        assert os.path.exists(f"{directory}/cum.ended.sbt")
