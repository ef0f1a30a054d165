"""Tests for grouped (GROUP BY) maintained views: ``key_of=``."""

import random

import pytest

from repro import Interval
from repro.core import reference
from repro.core.nodestore import MemoryNodeStore
from repro.relation import TemporalRelation
from repro.warehouse import ANY_WINDOW, TemporalAggregateView
from repro.workloads import PRESCRIPTIONS

KINDS = ("sum", "count", "avg", "min", "max")
KEYS = ("a", "b", "c")


def check_grouped_against_per_key(kind, window):
    """A grouped view equals, key by key, an ungrouped view of that
    key's rows: ``value_at`` and ``table``, under inserts, and deletes
    for the kinds that take them.  A MIN/MAX delete is vetoed before
    the relation changes, also for a key the view has never seen."""
    rng = random.Random(f"{kind}-{window}")
    rel = TemporalRelation("r")
    grouped = TemporalAggregateView(
        "g", rel, kind, key_of=lambda row: row.payload["k"], window=window,
        branching=4, leaf_capacity=4,
    )
    parts = {key: TemporalRelation(key) for key in KEYS}
    flat = {
        key: TemporalAggregateView(
            key, part, kind, window=window, branching=4, leaf_capacity=4
        )
        for key, part in parts.items()
    }
    live = []
    for _ in range(60):
        if live and grouped.spec.invertible and rng.random() < 0.3:
            row, twin = live.pop(rng.randrange(len(live)))
            rel.delete(row)
            parts[row.payload["k"]].delete(twin)
            continue
        key = rng.choice(KEYS)
        value = rng.randint(1, 9)
        start = rng.randint(0, 80)
        valid = Interval(start, start + rng.randint(1, 30))
        live.append((rel.insert(value, valid, k=key), parts[key].insert(value, valid)))
    if not grouped.spec.invertible:
        # A row the view never saw (restored silently) under a new key.
        rel.restore([(1000, 5, (0, 10), {"k": "new"})])
        for row in (live[0][0], rel.get(1000)):
            with pytest.raises(ValueError):
                rel.delete(row)
        assert len(rel) == len(live) + 1
        assert "new" not in grouped.keys()
    assert set(grouped.keys()) == set(KEYS)
    offsets = (0, 3, 12) if window is ANY_WINDOW else (None,)
    label = f"{kind}, window={window!r}"
    for w in offsets:
        for key in KEYS:
            assert list(grouped.table(w, key=key)) == list(flat[key].table(w)), label
            for t in range(-5, 125, 4):
                assert grouped.value_at(t, w, key=key) == flat[key].value_at(t, w), label
        assert grouped.values_at(50, w) == {
            key: view.value_at(50, w) for key, view in flat.items()
        }, label
        empty = grouped.spec.finalize(grouped.spec.v0)
        assert grouped.value_at(50, w, key="nobody") == empty, label
        assert list(grouped.table(w, key="nobody")) == [], label


@pytest.fixture()
def setup():
    rel = TemporalRelation("prescription")
    view = TemporalAggregateView(
        "DosageByPatient", rel, "sum",
        key_of=lambda row: row.payload["patient"],
        branching=4, leaf_capacity=4,
    )
    rows = {}
    for p in PRESCRIPTIONS:
        rows[p.patient] = rel.insert(p.dosage, p.valid, patient=p.patient)
    return rel, view, rows


class TestGroupedView:
    def test_per_group_values(self, setup):
        _, view, _ = setup
        assert view.value_at(19, key="Amy") == 2
        assert view.value_at(19, key="Fred") == 1
        assert view.value_at(19, key="Dan") == 0  # ended at 15

    def test_unknown_key_is_empty_group(self, setup):
        _, view, _ = setup
        assert view.value_at(19, key="Nobody") == 0

    def test_values_at_covers_all_groups(self, setup):
        _, view, _ = setup
        values = view.values_at(19)
        assert set(values) == {p.patient for p in PRESCRIPTIONS}
        assert values["Ben"] == 3

    def test_group_table(self, setup):
        _, view, _ = setup
        table = view.table(key="Amy")
        assert [(v, (i.start, i.end)) for v, i in table] == [(2, (10, 40))]

    def test_incremental_updates(self, setup):
        rel, view, rows = setup
        rel.insert(5, Interval(15, 45), patient="Amy")  # second Amy tuple
        assert view.value_at(19, key="Amy") == 7
        rel.delete(rows["Amy"])
        assert view.value_at(19, key="Amy") == 5

    def test_replay_on_creation(self):
        rel = TemporalRelation("r")
        for p in PRESCRIPTIONS:
            rel.insert(p.dosage, p.valid, patient=p.patient)
        view = TemporalAggregateView(
            "late", rel, "count",
            key_of=lambda row: row.payload["patient"],
            branching=4, leaf_capacity=4,
        )
        assert view.value_at(19, key="Amy") == 1

    def test_detach(self, setup):
        rel, view, _ = setup
        view.detach()
        rel.insert(9, Interval(0, 100), patient="Amy")
        assert view.value_at(19, key="Amy") == 2  # unchanged

    def test_min_group_rejects_deletion_atomically(self):
        rel = TemporalRelation("r")
        view = TemporalAggregateView(
            "worst", rel, "max",
            key_of=lambda row: row.payload["host"],
            branching=4, leaf_capacity=4,
        )
        row = rel.insert(10, Interval(0, 50), host="a")
        with pytest.raises(ValueError):
            rel.delete(row)
        # The veto fired before anything mutated.
        assert len(rel) == 1
        assert view.value_at(10, key="a") == 10

    def test_any_window_groups(self):
        rel = TemporalRelation("r")
        view = TemporalAggregateView(
            "cum", rel, "max",
            key_of=lambda row: row.payload["host"],
            window=ANY_WINDOW,
            branching=4, leaf_capacity=4,
        )
        rel.insert(7, Interval(0, 10), host="a")
        rel.insert(3, Interval(20, 30), host="a")
        rel.insert(9, Interval(0, 10), host="b")
        assert view.value_at(25, 20, key="a") == 7  # window [5,25] catches both
        assert view.value_at(25, 5, key="a") == 3
        assert view.value_at(25, 20, key="b") == 9

    def test_unknown_key_table_is_empty(self, setup):
        _, view, _ = setup
        table = view.table(key="Nobody")
        assert list(table) == []
        # Same domain semantics as any empty table: no instant covered.
        with pytest.raises(KeyError):
            table.value_at(19)

    def test_unknown_key_avg_finalizes(self):
        rel = TemporalRelation("r")
        view = TemporalAggregateView(
            "avg", rel, "avg",
            key_of=lambda row: row.payload["patient"],
            branching=4, leaf_capacity=4,
        )
        # Finalized empty value, not the raw (sum, count) accumulator.
        assert view.value_at(19, key="Nobody") is None

    def test_empty_view_values_at(self):
        rel = TemporalRelation("r")
        view = TemporalAggregateView(
            "empty", rel, "sum",
            key_of=lambda row: row.payload["patient"],
            branching=4, leaf_capacity=4,
        )
        assert view.values_at(19) == {}

    def test_unknown_key_window_validation(self, setup):
        # Argument checks must not hide behind lazily created groups:
        # an unknown key with a bad window raises like a known key.
        _, view, _ = setup
        with pytest.raises(ValueError):
            view.value_at(19, 5, key="Nobody")
        with pytest.raises(ValueError):
            view.table(5, key="Nobody")
        cum = TemporalAggregateView(
            "cum2", TemporalRelation("r2"), "sum",
            key_of=lambda row: row.payload["k"],
            window=ANY_WINDOW, branching=4, leaf_capacity=4,
        )
        with pytest.raises(ValueError):
            cum.value_at(19, key="Nobody")  # ANY_WINDOW needs w
        assert cum.value_at(19, 5, key="Nobody") == 0

    def test_an_ungrouped_view_refuses_a_key(self):
        # It has no group to read: a key must not answer the empty one.
        rel = TemporalRelation("r3")
        view = TemporalAggregateView("plain", rel, "sum",
                                     branching=4, leaf_capacity=4)
        rel.insert(5, Interval(0, 10))
        with pytest.raises(ValueError, match="plain"):
            view.value_at(3, key="a")
        with pytest.raises(ValueError, match="plain"):
            view.table(key="a")
        assert view.value_at(3) == 5 and len(list(view.table())) == 1

    def test_matches_partitioned_query(self, setup):
        """Every group at every instant is the reference's answer over
        that key's rows; then every kind and window, key by key."""
        rel, view, _ = setup
        rows = [(row.value, row.valid, row.payload["patient"]) for row in rel]
        for t in range(0, 60, 3):
            assert view.values_at(t) == {
                key: reference.view_value(rows, "sum", t, key) for key in view.keys()
            }, t
        assert set(view.keys()) == {p.patient for p in PRESCRIPTIONS}
        for kind in KINDS:
            for window in (0, 5, ANY_WINDOW):
                check_grouped_against_per_key(kind, window)

    def test_a_store_is_refused_before_subscribing(self):
        """A view is an in-memory index: every view, grouped or not,
        refuses a node store and subscribes nothing."""
        rel = TemporalRelation("r")
        for key_of in (None, lambda row: row.value):
            for option in ("store", "ended_store"):
                with pytest.raises(TypeError, match=option):
                    TemporalAggregateView(
                        "g", rel, "sum", key_of=key_of, **{option: MemoryNodeStore()}
                    )
        assert rel._subscribers == []
