"""Tests for grouped (GROUP BY) catalog views: ``create_view(key=)``."""

import random

import pytest

from repro import Interval
from repro.core import reference
from repro.core.nodestore import MemoryNodeStore
from repro.warehouse import ANY_WINDOW, DynamicCatalog
from repro.workloads import PRESCRIPTIONS

KINDS = ("sum", "count", "avg", "min", "max")
KEYS = ("a", "b", "c")
TREES = dict(branching=4, leaf_capacity=4)


def check_grouped_against_per_key(kind, window):
    """A grouped view equals, key by key, an ungrouped view over a table
    of that key's rows: reads and ``table``, under inserts, and deletes
    for the kinds that take them.  A MIN/MAX view refuses a deletion
    when it refreshes, and its watermarks stay where they were."""
    rng = random.Random(f"{kind}-{window}")
    catalog = DynamicCatalog(**TREES)
    catalog.create_table("r")
    grouped = catalog.create_view("g", "r", kind, key="k", window=window)
    for key in KEYS:
        catalog.create_table(f"r_{key}")
        catalog.create_view(key, f"r_{key}", kind, window=window)
    live = []
    for _ in range(60):
        if live and grouped.spec.invertible and rng.random() < 0.3:
            row, twin = live.pop(rng.randrange(len(live)))
            catalog.delete("r", row)
            catalog.delete(f"r_{row.payload['k']}", twin)
            continue
        key = rng.choice(KEYS)
        value = rng.randint(1, 9)
        start = rng.randint(0, 80)
        valid = Interval(start, start + rng.randint(1, 30))
        live.append((catalog.insert("r", value, valid, k=key),
                     catalog.insert(f"r_{key}", value, valid)))
    catalog.refresh()
    assert set(grouped.keys()) == set(KEYS)
    offsets = (0, 3, 12) if window is ANY_WINDOW else (None,)
    label = f"{kind}, window={window!r}"
    for w in offsets:
        for key in KEYS:
            flat = catalog.view(key)
            assert list(grouped.table(key, w)) == list(flat.table(None, w)), label
            for t in range(-5, 125, 4):
                assert grouped.value_at(t, key, w) == flat.value_at(t, None, w), label
        assert grouped.values_at(50, w) == {
            key: catalog.view(key).value_at(50, None, w) for key in KEYS
        }, label
        empty = grouped.spec.finalize(grouped.spec.v0)
        assert catalog.read("g", 50, key="nobody", w=w).value == empty, label
        assert list(grouped.table("nobody", w)) == [], label
    if not grouped.spec.invertible:
        marks = dict(grouped.watermarks)
        catalog.delete("r", live[0][0])
        with pytest.raises(ValueError, match="Section 3.4"):
            catalog.refresh("g")
        assert grouped.watermarks == marks


@pytest.fixture()
def setup():
    catalog = DynamicCatalog(**TREES)
    catalog.create_table("prescription")
    catalog.create_view("DosageByPatient", "prescription", "sum", key="patient")
    rows = {}
    for p in PRESCRIPTIONS:
        rows[p.patient] = catalog.insert("prescription", p.dosage, p.valid,
                                         patient=p.patient)
    catalog.refresh()
    return catalog, catalog.view("DosageByPatient"), rows


def read(catalog, t, **kwargs):
    return catalog.read("DosageByPatient", t, **kwargs).value


class TestGroupedView:
    def test_per_group_values(self, setup):
        catalog, _, _ = setup
        assert read(catalog, 19, key="Amy") == 2
        assert read(catalog, 19, key="Fred") == 1
        assert read(catalog, 19, key="Dan") == 0  # ended at 15

    def test_unknown_key_is_empty_group(self, setup):
        catalog, _, _ = setup
        assert read(catalog, 19, key="Nobody") == 0

    def test_values_at_covers_all_groups(self, setup):
        catalog, _, _ = setup
        values = read(catalog, 19)
        assert set(values) == {p.patient for p in PRESCRIPTIONS}
        assert values["Ben"] == 3

    def test_group_table(self, setup):
        _, view, _ = setup
        table = view.table(key="Amy")
        assert [(v, (i.start, i.end)) for v, i in table] == [(2, (10, 40))]

    def test_incremental_updates(self, setup):
        catalog, _, rows = setup
        catalog.insert("prescription", 5, Interval(15, 45), patient="Amy")
        assert read(catalog, 19, key="Amy") == 7
        catalog.delete("prescription", rows["Amy"])
        assert read(catalog, 19, key="Amy") == 5

    def test_replay_on_creation(self):
        catalog = DynamicCatalog(**TREES)
        catalog.create_table("r")
        for p in PRESCRIPTIONS:
            catalog.insert("r", p.dosage, p.valid, patient=p.patient)
        catalog.create_view("late", "r", "count", key="patient")
        assert catalog.read("late", 19, key="Amy").value == 1

    def test_detach(self, setup):
        # drop_view detaches: the table keeps no record for the view.
        catalog, _, _ = setup
        catalog.drop_view("DosageByPatient")
        catalog.insert("prescription", 9, Interval(0, 100), patient="Amy")
        assert catalog.stats()["tables"]["prescription"]["log_retained"] == 0

    def test_min_group_rejects_deletion_atomically(self):
        catalog = DynamicCatalog(**TREES)
        catalog.create_table("r")
        view = catalog.create_view("worst", "r", "max", key="host")
        row = catalog.insert("r", 10, Interval(0, 50), host="a")
        catalog.insert("r", 4, Interval(0, 50), host="b")
        catalog.refresh()
        marks = dict(view.watermarks)
        catalog.delete("r", row)
        catalog.insert("r", 20, Interval(0, 50), host="b")
        with pytest.raises(ValueError, match="Section 3.4"):
            catalog.refresh("worst")
        # The refusal fired before any group took the batch.
        assert view.watermarks == marks
        assert view.value_at(10, "a") == 10 and view.value_at(10, "b") == 4

    def test_any_window_groups(self):
        catalog = DynamicCatalog(**TREES)
        catalog.create_table("r")
        catalog.create_view("cum", "r", "max", key="host", window=ANY_WINDOW)
        catalog.insert("r", 7, Interval(0, 10), host="a")
        catalog.insert("r", 3, Interval(20, 30), host="a")
        catalog.insert("r", 9, Interval(0, 10), host="b")
        assert catalog.read("cum", 25, key="a", w=20).value == 7  # [5,25] catches both
        assert catalog.read("cum", 25, key="a", w=5).value == 3
        assert catalog.read("cum", 25, key="b", w=20).value == 9

    def test_unknown_key_table_is_empty(self, setup):
        _, view, _ = setup
        table = view.table(key="Nobody")
        assert list(table) == []
        # Same domain semantics as any empty table: no instant covered.
        with pytest.raises(KeyError):
            table.value_at(19)

    def test_unknown_key_avg_finalizes(self):
        catalog = DynamicCatalog(**TREES)
        catalog.create_table("r")
        catalog.create_view("avg", "r", "avg", key="patient")
        # Finalized empty value, not the raw (sum, count) accumulator.
        assert catalog.read("avg", 19, key="Nobody").value is None

    def test_empty_view_values_at(self):
        catalog = DynamicCatalog(**TREES)
        catalog.create_table("r")
        catalog.create_view("empty", "r", "sum", key="patient")
        assert catalog.read("empty", 19).value == {}

    def test_unknown_key_window_validation(self, setup):
        # Argument checks must not hide behind lazily created groups:
        # an unknown key with a bad window raises like a known key.
        catalog, view, _ = setup
        with pytest.raises(ValueError):
            read(catalog, 19, key="Nobody", w=5)
        with pytest.raises(ValueError):
            view.table("Nobody", 5)
        catalog.create_view("cum2", "prescription", "sum", key="patient",
                            window=ANY_WINDOW)
        with pytest.raises(ValueError):
            catalog.read("cum2", 19, key="Nobody")  # ANY_WINDOW needs w
        assert catalog.read("cum2", 19, key="Nobody", w=5).value == 0

    def test_an_ungrouped_view_refuses_a_key(self):
        # It has no group to read: a key must not answer the empty one.
        catalog = DynamicCatalog(**TREES)
        catalog.create_table("r3")
        view = catalog.create_view("plain", "r3", "sum")
        catalog.insert("r3", 5, Interval(0, 10))
        with pytest.raises(ValueError, match="plain"):
            catalog.read("plain", 3, key="a")
        with pytest.raises(ValueError, match="plain"):
            view.table(key="a")
        assert catalog.read("plain", 3).value == 5 and len(list(view.table())) == 1

    def test_a_key_no_group_can_have_is_refused(self, setup):
        catalog, view, _ = setup
        for key in ([1], {"x": 1}, (1,)):
            with pytest.raises(ValueError, match="group key"):
                read(catalog, 19, key=key)
            with pytest.raises(ValueError, match="group key"):
                view.table(key=key)

    def test_matches_partitioned_query(self, setup):
        """Every group at every instant is the reference's answer over
        that key's rows; then every kind and window, key by key."""
        catalog, view, _ = setup
        rel = catalog.table("prescription")
        rows = [(row.value, row.valid, row.payload["patient"]) for row in rel]
        for t in range(0, 60, 3):
            assert read(catalog, t) == {
                key: reference.view_value(rows, "sum", t, key) for key in view.keys()
            }, t
        assert set(view.keys()) == {p.patient for p in PRESCRIPTIONS}
        for kind in KINDS:
            for window in (0, 5, ANY_WINDOW):
                check_grouped_against_per_key(kind, window)

    def test_a_store_is_refused_before_subscribing(self):
        """A view's trees are the catalog's, in memory: a view refuses a
        node store, grouped or not, and the refused declaration leaves
        no view and no table behind."""
        catalog = DynamicCatalog()
        for key in (None, "k"):
            for option in ("store", "ended_store"):
                with pytest.raises(TypeError, match=option):
                    catalog.create_view("g", "r", "sum", key=key, create_sources=True,
                                        **{option: MemoryNodeStore()})
        assert catalog.view_names() == [] and catalog.table_names() == []
