"""Robustness tests for the crash-safe, replicated view catalog.

Covers the PR-10 surface end to end: bounded change-log retention under
sustained ingest (with restore-and-resume oracle equivalence), the
checkpoint corruption triple (truncation, trailing garbage, leftover
mid-rename temp) falling back to the retained ``.prev`` checkpoint --
or raising :class:`CatalogCheckpointError` in ``strict`` mode --
quarantine/tick isolation with degraded reads and ``repair``,
tree-checkpoint restore without log replay, bootstrapping new views
over compacted sources, the offline ``fsck_dynamic`` audit, a sampled
catalog crash sweep, and view DDL shipping down the replication
journal (replica-served ``query_view``, failover keeping the catalog,
``repair_view`` round-trip).
"""

import json
import os
import random
import time
from unittest import mock

import pytest

from repro.core import reference
from repro.crashcheck import catalog_sweep
from repro.oracle import CatalogModel
from repro.service.client import ServiceClient
from repro.service.server import ServerHandle
from repro.storage import fsck_dynamic
from repro.warehouse import checkpoint
from repro.warehouse.checkpoint import CHECKPOINT_NAME
from repro.warehouse.dynamic import CatalogCheckpointError, DynamicCatalog


def _facts(catalog, table="t"):
    return [
        (row.value, (row.valid.start, row.valid.end))
        for row in catalog.table(table)
    ]


REFRESH, CHECK = ("refresh",), ("views_match_the_oracle",)


def _retention_fact(i):
    """``(value, (start, end), payload)`` of the i-th fact of a stream
    over three keys."""
    start = i * 37 % 700
    return 1 + i % 5, (start, start + 1 + i % 40), {"k": f"k{i % 3}"}


def _ingest(cat, lo, hi):
    """Insert facts ``lo .. hi - 1`` of that stream into table ``t``."""
    for i in range(lo, hi):
        value, valid, payload = _retention_fact(i)
        cat.insert("t", value, valid, **payload)


def _kept_and_unread(stats):
    """Per node of a ``stats()`` reply: (records its log keeps, records
    its slowest consumer has not read -- 0 when no view consumes it)."""
    views = stats["views"]
    out = {}
    for name, node in {**stats["tables"], **views}.items():
        marks = [v["watermarks"][name] for v in views.values()
                 if name in v["sources"]]
        unread = node["head"] - min(marks) if marks else 0
        out[name] = (node["log_retained"], unread)
    return out


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Bounded retention
# ----------------------------------------------------------------------
class TestRetentionBound:
    def test_log_stays_bounded_under_sustained_ingest(self, tmp_path):
        """With every consumer caught up, each refresh drops the consumed
        prefix: the retained log never grows with total ingest."""
        batch = 25
        with CatalogModel() as model:
            model.setup(str(tmp_path))
            model.replay([("create_table", "t"), ("create_view", "v", "t", "sum")])
            retained = []
            for i in range(12 * batch):
                model.insert("t", 1 + i % 3, (i % 200, i % 200 + 10))
                if i % batch == batch - 1:
                    model.replay([REFRESH, ("save",)])
                    retained.append(model.catalog.stats()["tables"]["t"]["log_retained"])
            # O(unconsumed), not O(ingested): after a refresh the
            # consumed prefix is gone, regardless of how much history
            # the table has absorbed.
            assert max(retained) == 0
            # Restore and resume: the compacted catalog reopens from tree
            # checkpoints and keeps matching the oracle.
            model.reopen()
            assert model.catalog.stats()["tables"]["t"]["log_base"] == 12 * batch
            model.replay([("insert", "t", 7, (40, 90)), REFRESH, CHECK])

    def test_unconsumed_tail_is_kept(self):
        """A lagging consumer pins exactly its unread tail, on a table and
        on a view alike (``view_stats`` carries ``head`` and
        ``log_retained`` per view); a sink view keeps nothing, and emits
        nothing: it holds no rows."""
        cat = DynamicCatalog()
        cat.create_table("t")
        cat.create_view("fast", "t", "sum")
        cat.create_view("slow", "t", "count")
        cat.create_view("top", "fast", "sum")
        for i in range(10):
            cat.insert("t", 1, (i, i + 5))
        cat.refresh("fast")  # slow and top stay at watermark 0
        kept = _kept_and_unread(cat.stats())
        assert kept["t"] == (10, 10)
        assert kept["fast"][0] == kept["fast"][1] > 0  # top read none
        cat.refresh()  # now everyone is at head
        kept = _kept_and_unread(cat.stats())
        assert kept == {name: (0, 0) for name in ("t", "fast", "slow", "top")}
        for sink in ("slow", "top"):
            assert cat.stats()["views"][sink]["head"] == 0
            assert cat.stats()["views"][sink]["rows"] == 0

    def test_no_directory_keeps_only_unread_records(self):
        """A catalog without a directory never saves, so it cannot wait
        for a save to drop what its consumers have read: every refresh
        does.  (Every served catalog is one of these.)"""
        cat = DynamicCatalog()
        cat.create_table("t")
        cat.create_view("v", "t", "sum", key="k")
        cat.create_view("w", "v", "sum")
        for lo in range(0, 2_000, 50):
            _ingest(cat, lo, lo + 50)
            cat.refresh()
            kept = _kept_and_unread(cat.stats())
            assert kept == {name: (0, 0) for name in ("t", "v", "w")}, lo

    def test_served_catalog_keeps_only_unread_records(self, open_shards):
        handle = ServerHandle.start(
            open_shards(num_shards=1, span=(0, 1000)), view_tick=0.0
        )
        try:
            with ServiceClient(handle.host, handle.port, timeout=10.0) as svc:
                svc.create_view("v", "t", "sum", key="k", lag="downstream")
                svc.create_view("w", "v", "sum", lag="downstream")
                for lo in range(0, 2_000, 50):
                    rows = []
                    for i in range(lo, lo + 50):
                        value, (start, end), payload = _retention_fact(i)
                        rows.append([value, start, end, payload])
                    svc.table_insert("t", rows)
                    svc.refresh_view()
                    kept = _kept_and_unread(svc.view_stats())
                    assert kept == {n: (0, 0) for n in ("t", "v", "w")}, lo
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Checkpoint corruption
# ----------------------------------------------------------------------
def _seed_two_checkpoints(directory):
    """Two saves with data in between; returns (facts_at_prev, facts_now).

    No ``close()`` here: closing saves once more, which would rotate
    ``.prev`` up to the latest state and defeat the fallback tests.
    """
    cat = DynamicCatalog(directory)
    cat.create_table("t")
    cat.create_view("v", "t", "sum")
    cat.insert("t", 2, (0, 50))
    cat.refresh()
    cat.save()
    first = _facts(cat)
    cat.insert("t", 3, (10, 60))
    cat.refresh()
    cat.save()
    return first, _facts(cat)


def _dangle(path):
    """Make view ``v`` of the checkpoint at *path* consume a source the
    checkpoint does not hold: it still parses."""
    with open(path) as handle:
        payload = json.load(handle)
    payload["views"]["v"]["sources"] = ["gone"]
    with open(path, "w") as handle:
        json.dump(payload, handle)


def _opened(directory, **options):
    """The catalog a load of *directory* gives, or None when it refuses."""
    try:
        return DynamicCatalog(directory, **options)
    except CatalogCheckpointError:
        return None


#: Single-field edits of the checkpoint :func:`_seed_two_checkpoints`
#: saves last, each with the one error ``fsck`` reports for it.
EDITS = {
    "watermark-ahead": "watermark-ahead",
    "watermark-compacted": "watermark-compacted",
    "split-segment": "bad-tree-checkpoint",
    "overlapping-segment": "bad-tree-checkpoint",
    "duplicate-tuple-id": "bad-rows",
    "empty-row": "bad-rows",
    "log-density": "log-density",
    "dangling-order": "dangling-order",
    "duplicate-node": "duplicate-node",
    "dangling-source": "dangling-source",
    "bogus-window": "bad-view",
    "bogus-lag": "bad-view",
    "missing-trees": "bad-tree-checkpoint",
    "missing-sources": "bad-view",
}


def _edit(path, edit):
    """Apply one of :data:`EDITS` to the checkpoint at *path*; or, for
    ``prev-without-a-log``, tear it and drop a table's log from its
    ``.prev``, which still parses."""
    if edit == "prev-without-a-log":
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        path += ".prev"
    payload = json.load(open(path))
    table, view = payload["tables"]["t"], payload["views"]["v"]
    [[_, segments]] = view["trees"]
    if edit == "watermark-ahead":
        view["watermarks"]["t"] = table["log"]["head"] + 1
    elif edit == "watermark-compacted":
        view["watermarks"]["t"] = table["log"]["base"] - 1
    elif edit == "split-segment":
        segments[1:2] = [[5, 10, 30], [5, 30, 50]]
    elif edit == "overlapping-segment":
        segments[1:2] = [[5, 10, 52]]
    elif edit == "duplicate-tuple-id":
        table["rows"][1][0] = table["rows"][0][0]
    elif edit == "empty-row":
        table["rows"][0][3] = table["rows"][0][2]
    elif edit == "log-density":
        table["log"]["head"] += 1
    elif edit == "dangling-order":
        payload["order"].append("gone")
    elif edit == "duplicate-node":
        payload["tables"]["v"] = table
    elif edit == "dangling-source":
        view["sources"] = ["gone"]
    elif edit == "bogus-window":
        view["window"] = -1
    elif edit == "bogus-lag":
        view["lag"] = "soon"
    elif edit == "missing-trees":
        del view["trees"]
    elif edit == "missing-sources":
        del view["sources"]
    else:
        del table["log"]
    with open(path, "w") as handle:
        json.dump(payload, handle)


class TestCheckpointCorruption:
    def test_truncated_checkpoint_falls_back_to_prev(self, tmp_path):
        directory = str(tmp_path / "cat")
        first, _ = _seed_two_checkpoints(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        data = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        with DynamicCatalog(directory) as cat:
            # Last-good state: the .prev checkpoint, i.e. the first save.
            assert _facts(cat) == first
            want = reference.instantaneous_value(first, "sum", 20)
            assert cat.read("v", 20).value == want

    def test_trailing_garbage_falls_back_to_prev(self, tmp_path):
        directory = str(tmp_path / "cat")
        first, _ = _seed_two_checkpoints(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        with open(path, "ab") as handle:
            handle.write(b"\0\0garbage after the document")
        with DynamicCatalog(directory) as cat:
            assert _facts(cat) == first

    def test_leftover_temp_never_adopted(self, tmp_path):
        directory = str(tmp_path / "cat")
        _, current = _seed_two_checkpoints(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        for suffix in (".tmp", ".prev.tmp"):
            with open(path + suffix, "wb") as handle:
                handle.write(b'{"version": 2, "torn')
        with DynamicCatalog(directory) as cat:
            # The intact main checkpoint wins; the torn temps are swept.
            assert _facts(cat) == current
        assert not os.path.exists(path + ".tmp")
        assert not os.path.exists(path + ".prev.tmp")

    def test_strict_mode_raises_instead_of_falling_back(self, tmp_path):
        directory = str(tmp_path / "cat")
        _seed_two_checkpoints(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        with open(path, "wb") as handle:
            handle.write(b"not json at all")
        with pytest.raises(CatalogCheckpointError):
            DynamicCatalog(directory, strict=True)

    def test_an_inconsistent_checkpoint_is_a_corrupt_one(self, tmp_path):
        directory = str(tmp_path / "cat")
        first, now = _seed_two_checkpoints(directory)
        live = DynamicCatalog(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        _dangle(path)
        assert "dangling-source" in [f.code for f in fsck_dynamic(path).errors()]
        with pytest.raises(CatalogCheckpointError):
            DynamicCatalog(directory, strict=True)
        with DynamicCatalog(directory) as cat:
            assert _facts(cat) == first and cat.view("v").sources == ["t"]
        # Neither checkpoint restores: a live catalog keeps what it holds.
        for target in (path, path + ".prev"):
            _dangle(target)
        with pytest.raises(CatalogCheckpointError):
            live.load()
        assert _facts(live) == now and live.view_names() == ["v"]

    def test_a_fault_in_the_restore_code_is_not_a_corrupt_checkpoint(self, tmp_path, monkeypatch):
        # Only what a file can get wrong falls back to ``.prev``; a bug
        # while restoring a sound checkpoint surfaces.
        _seed_two_checkpoints(str(tmp_path / "cat"))
        bug = mock.Mock(side_effect=TypeError("restore bug"))
        monkeypatch.setattr(checkpoint, "_restore_trees", bug)
        with pytest.raises(TypeError, match="restore bug"):
            DynamicCatalog(str(tmp_path / "cat"))

    @pytest.mark.parametrize("value", ["2", [2, 1], None])
    def test_a_non_number_in_a_sum_tree_checkpoint_is_a_corrupt_file(self, tmp_path, value):
        directory = str(tmp_path / "cat")
        first, _ = _seed_two_checkpoints(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        payload = json.load(open(path))
        payload["views"]["v"]["trees"][0][1][0][0] = value
        with open(path, "w") as handle:
            json.dump(payload, handle)
        assert [f.code for f in fsck_dynamic(path).errors()] == ["bad-tree-checkpoint"]
        assert _facts(DynamicCatalog(directory)) == first

    def test_unknown_version_is_refused_not_guessed_at(self, tmp_path):
        directory = str(tmp_path / "cat")
        _seed_two_checkpoints(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        payload = json.load(open(path))
        payload["version"] = 1
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(CatalogCheckpointError, match="version 1"):
            DynamicCatalog(directory)
        report = fsck_dynamic(path)
        assert [f.code for f in report.errors()] == ["bad-version"]

    def test_both_checkpoints_corrupt_raises(self, tmp_path):
        directory = str(tmp_path / "cat")
        _seed_two_checkpoints(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        for target in (path, path + ".prev"):
            with open(target, "wb") as handle:
                handle.write(b"{broken")
        with pytest.raises(CatalogCheckpointError):
            DynamicCatalog(directory)


# ----------------------------------------------------------------------
# Quarantine and repair
# ----------------------------------------------------------------------
def _poison(view, exc):
    def bad_refresh(resolve, now):
        raise exc

    view.refresh = bad_refresh


class TestQuarantine:
    def test_tick_isolates_failing_view(self):
        clock = FakeClock()
        cat = DynamicCatalog(clock=clock)
        cat.create_table("t")
        cat.create_view("good", "t", "sum", lag=0)
        cat.create_view("bad", "t", "count", lag=0)
        _poison(cat.view("bad"), RuntimeError("disk on fire"))
        cat.insert("t", 5, (0, 10))
        clock.advance(1.0)
        errors = []
        cat.tick(on_error=lambda name, exc: errors.append((name, str(exc))))
        # The sibling refreshed; the failure was contained and reported.
        assert cat.read("good", 5).value == 5
        assert errors == [("bad", "disk on fire")]
        stats = cat.stats()
        assert stats["quarantined"] == 1
        assert stats["views"]["bad"]["quarantined"] is True
        assert "disk on fire" in stats["views"]["bad"]["last_error"]
        assert cat.quarantined_names() == ["bad"]
        # Subsequent ticks skip the quarantined view instead of
        # re-raising forever.
        clock.advance(1.0)
        cat.tick(on_error=lambda name, exc: errors.append((name, str(exc))))
        assert len(errors) == 1

    def test_degraded_reads_and_repair(self):
        clock = FakeClock()
        cat = DynamicCatalog(clock=clock)
        cat.create_table("t")
        cat.create_view("v", "t", "sum", lag=0)
        cat.insert("t", 5, (0, 10))
        clock.advance(1.0)
        cat.tick()
        view = cat.view("v")
        original_refresh = view.refresh
        _poison(view, RuntimeError("boom"))
        cat.insert("t", 2, (0, 10))
        clock.advance(1.0)
        cat.tick()
        # Quarantined: reads still serve the last good state, flagged.
        reading = cat.read("v", 5)
        assert reading.degraded is True
        assert reading.value == 5
        # Repair with the fault still present goes straight back into
        # quarantine and propagates the cause.
        with pytest.raises(RuntimeError, match="boom"):
            cat.repair("v")
        assert cat.view("v").quarantined is True
        # Fix the fault; repair clears the flag and catches up.
        view.refresh = original_refresh
        out = cat.repair("v")
        assert out["was_quarantined"] is True
        assert out["refreshed"].get("v", 0) >= 1
        reading = cat.read("v", 5)
        assert reading.degraded is False
        assert reading.value == 7

    @pytest.mark.parametrize("kind", ["sum", "avg"])
    def test_failed_refresh_leaves_no_trace(self, kind):
        """A batch with a record the aggregate cannot absorb is rejected
        while it is folded, before the first tree write: the quarantined
        view serves exactly its pre-batch state (it used to serve the
        records ahead of the bad one, and ``repair`` applied them twice).
        """
        clock = FakeClock()
        cat = DynamicCatalog(clock=clock)
        cat.create_table("u")
        cat.create_table("t")
        cat.create_view("v", ["u", "t"], kind, key="k", lag=0)
        cat.insert("t", 5, (0, 10), k="a")
        cat.insert("u", 1, (5, 15), k="b")
        clock.advance(1.0)
        cat.tick()
        view = cat.view("v")

        def state():
            return (
                dict(view.watermarks),
                {k: list(tree.leaf_pieces()) for k, tree in view._trees.items()},
                [(r.tuple_id, r.value, r.valid) for r in view.relation],
                {k: list(starts) for k, (starts, _) in view._index.items()},
                view.log.head,
                cat.read("v", 7).value,
            )

        before = state()
        assert before[0] == {"u": 1, "t": 1}
        cat.insert("u", 3, (0, 10), k="a")    # fine, and in the first source
        cat.insert("t", 2, (0, 10), k="a")    # fine, ahead of the bad one
        cat.insert("t", "x", (0, 10), k="c")  # not a number, in a new group
        clock.advance(1.0)
        cat.tick()
        assert view.quarantined and "TypeError" in view.last_error
        assert state() == before
        reading = cat.read("v", 7, key="a")
        assert reading.degraded is True
        assert reading.value == 5 and reading.as_of_watermark == {"u": 1, "t": 1}
        # The record is still in the log: repair fails the same way and
        # still applies nothing.
        with pytest.raises(TypeError):
            cat.repair("v")
        assert view.quarantined
        assert state() == before

    def test_a_tuple_group_key_is_refused_before_any_write(self, tmp_path):
        """A group key must come back from the checkpoint as itself; a
        tuple comes back as an unhashable list, and such a catalog could
        not be reopened.  Refresh refuses the key while it groups the
        batch, before the first tree write: the quarantined view keeps
        its last-good state, and the catalog reopens."""
        clock = FakeClock()
        directory = str(tmp_path / "cat")
        cat = DynamicCatalog(directory, clock=clock)
        cat.create_table("t")
        cat.create_view("v", "t", "sum", key="k", lag=0)
        cat.insert("t", 5, (0, 10), k="a")
        clock.advance(1.0)
        cat.tick()
        view = cat.view("v")

        def state():
            return (
                dict(view.watermarks),
                {k: list(tree.leaf_pieces()) for k, tree in view._trees.items()},
                [(r.tuple_id, r.value, r.valid) for r in view.relation],
            )

        before = state()
        cat.insert("t", 2, (0, 10), k="a")
        cat.insert("t", 1, (0, 5), k=("a", 1))
        clock.advance(1.0)
        cat.tick()
        assert view.quarantined and view.last_error.startswith("ValueError")
        assert "'k'" in view.last_error and "('a', 1)" in view.last_error
        assert state() == before
        # A view created over the compacted table meets the row itself.
        with pytest.raises(ValueError, match="group key"):
            cat.create_view("w", "t", "count", key="k")
        assert cat.view_names() == ["v"]
        cat.close()
        reopened = DynamicCatalog(directory, clock=clock)
        again = reopened.view("v")
        assert again.quarantined and dict(again.watermarks) == before[0]
        assert reopened.read("v", 7, key="a").value == 5

    def test_explicit_refresh_still_propagates(self):
        cat = DynamicCatalog()
        cat.create_table("t")
        cat.create_view("v", "t", "sum")
        _poison(cat.view("v"), RuntimeError("explicit"))
        cat.insert("t", 1, (0, 5))
        with pytest.raises(RuntimeError, match="explicit"):
            cat.refresh()
        # Explicit refreshes do not quarantine -- the caller saw it.
        assert cat.view("v").quarantined is False


# ----------------------------------------------------------------------
# Tree checkpoints and bootstrap over compacted logs
# ----------------------------------------------------------------------
class TestTreeCheckpointRestore:
    def test_avg_and_grouped_views_restore_without_replay(self, tmp_path):
        directory = str(tmp_path / "cat")
        rng = random.Random(11)
        with DynamicCatalog(directory) as cat:
            cat.create_table("t")
            cat.create_view("by_k", "t", "sum", key="k")
            cat.create_view("mean", "t", "avg")
            for _ in range(60):
                s = rng.randint(0, 400)
                cat.insert("t", rng.randint(1, 9), (s, s + rng.randint(1, 80)),
                           k=f"g{rng.randrange(3)}")
            cat.refresh()
            cat.save()
            facts = _facts(cat)
            want = {
                t: (cat.read("mean", t).value, cat.read("by_k", t).value)
                for t in (10, 150, 390)
            }
        with DynamicCatalog(directory) as cat:
            # The refresh dropped the consumed prefix: a restore that
            # relied on log replay could not produce these values.
            assert cat.stats()["tables"]["t"]["log_retained"] == 0
            assert cat.stats()["tables"]["t"]["log_base"] == 60
            assert _facts(cat) == facts
            for t, (mean, groups) in want.items():
                got = cat.read("mean", t).value
                assert (got or 0) == pytest.approx(mean or 0)
                assert cat.read("by_k", t).value == groups

    def test_new_view_bootstraps_over_compacted_source(self, tmp_path):
        with CatalogModel() as model:
            model.setup(str(tmp_path))
            model.replay([("create_table", "t"), ("create_view", "v", "t", "sum")]
                         + [("insert", "t", 1 + i % 4, (i * 5, i * 5 + 30)) for i in range(20)]
                         + [REFRESH])  # drops what v has read: all of it
            table = model.catalog.stats()["tables"]["t"]
            assert (table["log_base"], table["log_retained"]) == (20, 0)
            # The log prefix is gone; a new view cannot replay it and must
            # bootstrap from the relation's live rows instead, and it keeps
            # maintaining incrementally from there.
            model.replay([("create_view", "late", "t", "sum"),
                          ("create_view", "late_by_k", "t", "count"),
                          ("views_match_the_oracle", "late", "late_by_k"),
                          ("insert", "t", 10, (0, 200)), REFRESH, CHECK])


# ----------------------------------------------------------------------
# Retention follows the consumer set
# ----------------------------------------------------------------------
def _ingested(lo, hi):
    """Steps inserting facts ``lo .. hi - 1`` of the retention stream."""
    return [("insert", "t", *_retention_fact(i)) for i in range(lo, hi)]


class TestConsumerSetChanges:
    #: ``t`` and a grouped SUM ``v`` over it that nothing consumes.
    SINK = [("create_table", "t"), ("create_view", "v", "t", "sum", "k"),
            *_ingested(0, 30), REFRESH]

    def test_view_over_a_sink_view_bootstraps_from_its_rows(self, tmp_path):
        with CatalogModel() as model:
            model.setup(str(tmp_path))
            model.replay(self.SINK)
            stats = model.catalog.stats
            sink = stats()["views"]["v"]
            assert sink["log_retained"] == sink["head"] == sink["rows"] == 0
            model.create_view("w", "v", "sum")
            # v materialized its rows from its trees, logging none of them.
            source = stats()["views"]["v"]
            assert source["head"] == source["rows"] > 0
            assert source["log_retained"] == 0
            created = stats()["views"]["w"]
            assert created["pending"] == created["refreshes"] == 0
            model.replay([("views_match_the_oracle", "w"), *_ingested(30, 60), REFRESH, CHECK])

    def test_dropping_the_last_consumer_empties_the_tail(self):
        cat = DynamicCatalog()
        cat.create_table("t")
        cat.create_view("v", "t", "sum")
        for i in range(10):
            cat.insert("t", 1, (i, i + 5))
        assert cat.stats()["tables"]["t"]["log_retained"] == 10
        cat.drop_view("v")
        table = cat.stats()["tables"]["t"]
        assert table["log_retained"] == 0
        assert table["log_base"] == table["head"] == 10
        cat.insert("t", 1, (0, 5))
        assert cat.stats()["tables"]["t"]["log_retained"] == 0

    def test_new_consumer_of_a_reopened_sink_view(self, tmp_path):
        with CatalogModel() as model:
            model.setup(str(tmp_path))
            model.replay(self.SINK + [
                ("reopen",), ("insert", "t", 4, (100, 300), {"k": "k1"}),  # v must see it
                ("create_view", "w", "v", "sum"), REFRESH, CHECK,
            ])

    def test_view_over_an_unconsumed_table_is_complete_when_created(self, tmp_path):
        with CatalogModel() as model:
            model.setup(str(tmp_path))
            model.replay([("create_table", "t")] + [
                ("insert", "t", v, (s, s + 20)) for v, s in [(3, 0), (1, 5), (7, 12), (2, 30)]
            ] + [("delete", "t", 1)])  # the smallest value
            assert model.catalog.stats()["tables"]["t"]["log_retained"] == 0
            model.create_view("s", "t", "sum")
            assert model.catalog.stats()["views"]["s"]["pending"] == 0
            # A replay would veto the deletion; the live rows have none.
            model.replay([("create_view", "m", "t", "min"),
                          ("views_match_the_oracle", "s", "m")])


# ----------------------------------------------------------------------
# Offline audit (fsck_dynamic)
# ----------------------------------------------------------------------
class TestFsckDynamic:
    def test_clean_checkpoint(self, tmp_path):
        directory = str(tmp_path / "cat")
        _seed_two_checkpoints(directory)
        report = fsck_dynamic(os.path.join(directory, CHECKPOINT_NAME))
        assert report.ok
        assert report.errors() == []

    def test_corrupt_main_reports_prev_restorable(self, tmp_path):
        directory = str(tmp_path / "cat")
        _seed_two_checkpoints(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        with open(path, "wb") as handle:
            handle.write(b"{nope")
        report = fsck_dynamic(path)
        assert not report.ok
        codes = {f.code for f in report.findings}
        assert "bad-json" in codes
        assert "prev-restorable" in codes

    def test_watermark_past_head_detected(self, tmp_path):
        directory = str(tmp_path / "cat")
        _seed_two_checkpoints(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        payload = json.load(open(path))
        payload["views"]["v"]["watermarks"]["t"] = 999
        with open(path, "w") as handle:
            json.dump(payload, handle)
        report = fsck_dynamic(path)
        assert not report.ok
        assert any(f.code == "watermark-ahead" for f in report.findings)

    @pytest.mark.parametrize("edit", ["split", "v0", "overlap"])
    def test_a_tree_checkpoint_not_in_coalesced_form_is_an_error(self, tmp_path, edit):
        """A save re-uses the segments it wrote last time, so the file's
        must be the coalesced step function a full walk writes."""
        directory = str(tmp_path / "cat")
        _seed_two_checkpoints(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        payload = json.load(open(path))
        [[key, segments]] = payload["views"]["v"]["trees"]
        assert segments == [[2, 0, 10], [5, 10, 50], [3, 50, 60]]
        segments[1:2] = {
            "split": [[5, 10, 30], [5, 30, 50]],
            "v0": [[5, 10, 50], [0, 50, 55]],
            "overlap": [[5, 10, 52]],
        }[edit]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        report = fsck_dynamic(path)
        assert not report.ok
        assert [f.code for f in report.errors()] == ["bad-tree-checkpoint"]

    @pytest.mark.parametrize("edit", ["duplicate-id", "empty-interval"])
    def test_duplicate_tuple_ids_and_empty_rows_are_errors(self, tmp_path, edit):
        directory = str(tmp_path / "cat")
        _seed_two_checkpoints(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        payload = json.load(open(path))
        rows = payload["tables"]["t"]["rows"]
        assert [row[0] for row in rows] == [1, 2]
        if edit == "duplicate-id":
            rows[1][0] = 1
        else:
            rows[0][3] = rows[0][2]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        report = fsck_dynamic(path)
        assert not report.ok
        assert [f.code for f in report.errors()] == ["bad-rows"]

    @pytest.mark.parametrize("edit", [*EDITS, "prev-without-a-log"])
    def test_fsck_reports_exactly_what_a_load_refuses(self, tmp_path, edit):
        """One verdict: fsck is clean iff a strict load takes the file,
        and says ``.prev`` restores iff a non-strict load restores it."""
        directory = str(tmp_path / "cat")
        first, _ = _seed_two_checkpoints(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        _edit(path, edit)
        report = fsck_dynamic(path)
        assert report.ok == (_opened(directory, strict=True) is not None)
        fallback = _opened(directory)
        if edit in EDITS:
            assert [f.code for f in report.errors()] == [EDITS[edit]]
            assert _facts(fallback) == first
        else:
            assert report.has("prev-restorable") == (fallback is not None)

    def test_leftover_temp_is_a_warning_not_an_error(self, tmp_path):
        directory = str(tmp_path / "cat")
        _seed_two_checkpoints(directory)
        path = os.path.join(directory, CHECKPOINT_NAME)
        with open(path + ".tmp", "wb") as handle:
            handle.write(b"torn")
        report = fsck_dynamic(path)
        assert report.ok  # warnings do not fail the audit
        assert any(f.code == "leftover-temp" for f in report.findings)


# ----------------------------------------------------------------------
# Crash sweep (sampled -- the exhaustive sweep runs in CI via
# `python -m repro.crashcheck --catalog`)
# ----------------------------------------------------------------------
class TestCatalogCrashSweepSmoke:
    def test_sampled_sweep_recovers_everywhere(self, tmp_path):
        results = catalog_sweep("cat-dag", str(tmp_path), hits="sample")
        assert results, "sweep produced no cases"
        failed = [r for r in results if not r.ok]
        assert not failed, failed


# ----------------------------------------------------------------------
# View replication over the journal stream
# ----------------------------------------------------------------------
def _wait_applied(port, commit, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with ServiceClient("127.0.0.1", port, timeout=2.0) as svc:
            repl = (svc.stats() or {}).get("replication") or {}
            if repl.get("applied", -1) >= commit:
                return repl
        time.sleep(0.02)
    raise AssertionError(f"replica :{port} never applied commit {commit}")


def _wait_subscribed(primary, timeout=10.0):
    """Until the primary has registered its follower: a write acked
    before that is not in any stream, and ``stats()["replication"]`` of
    a primary nobody ever subscribed to is None."""
    deadline = time.monotonic() + timeout
    while not (primary.server.publisher.stats() or {}).get("replicas"):
        assert time.monotonic() < deadline, "the replica never subscribed"
        time.sleep(0.005)


class TestViewReplication:
    @pytest.fixture()
    def pair(self, open_shards):
        def tree():
            return open_shards(num_shards=2, span=(0, 1000), branching=4,
                               leaf_capacity=4)

        primary = ServerHandle.start(
            tree(), batch_max=8, repl_ack_timeout=5.0,
        )
        replica = ServerHandle.start(
            tree(), batch_max=8,
            replica_of=f"127.0.0.1:{primary.port}", replica_name="r1",
        )
        try:
            _wait_subscribed(primary)
            yield primary, replica
        finally:
            replica.stop()
            primary.stop()

    def test_catalog_ships_and_replica_serves_views(self, pair):
        primary, replica = pair
        with ServiceClient("127.0.0.1", primary.port, timeout=5.0) as svc:
            svc.create_view("by_k", ["obs"], "sum", key="k", lag="downstream")
            svc.table_insert(
                "obs", [[2, 10, 40, {"k": "a"}], [3, 20, 50, {"k": "b"}]]
            )
            commit = svc.stats()["replication"]["commit"]
            want = svc.query_view("by_k", 25, key="a")["value"]
        _wait_applied(replica.port, commit)

        with ServiceClient("127.0.0.1", replica.port, timeout=5.0) as svc:
            reading = svc.query_view("by_k", 25, key="a")
            assert reading["value"] == want == 2
            # Replica-served view reads are stamped like fact reads.
            assert svc.last_watermark == commit
            assert svc.last_staleness_s is not None
            assert svc.last_staleness_s >= 0
            assert "by_k" in svc.view_stats()["views"]

        # The client's replica routing reaches the view too.
        with ServiceClient(
            "127.0.0.1", primary.port, timeout=5.0,
            replicas=[f"127.0.0.1:{replica.port}"],
        ) as svc:
            assert svc.query_view("by_k", 25, key="b")["value"] == 3
            assert svc.last_watermark == commit

    def test_drop_ships_and_promotion_keeps_catalog(self, pair):
        primary, replica = pair
        with ServiceClient("127.0.0.1", primary.port, timeout=5.0) as svc:
            svc.create_view("keep", ["obs"], "sum", lag="downstream")
            svc.create_view("tmp", ["obs"], "count", lag="downstream")
            svc.table_insert("obs", [[4, 0, 100, {}]])
            svc.drop_view("tmp")
            commit = svc.stats()["replication"]["commit"]
        _wait_applied(replica.port, commit)

        with ServiceClient("127.0.0.1", replica.port, timeout=5.0) as svc:
            views = svc.view_stats()["views"]
            assert "keep" in views and "tmp" not in views
            # Promote: the catalog survives the role change wholesale.
            assert svc._request("promote")["promoted"] is True
            assert svc.query_view("keep", 50)["value"] == 4
            # repair_view round-trips against the promoted node.
            out = svc.repair_view("keep")
            assert out["repaired"] == "keep"
            assert out["was_quarantined"] is False

    def test_retried_ddl_replays_its_reply_and_applies_once_everywhere(
        self, pair
    ):
        """A ``create_view`` / ``drop_view`` retried after its reply was
        lost -- the same frame, key and all, sent again -- answers its
        original reply with ``duplicate: true`` (not ``already exists``
        / ``unknown view``), ships as one commit, and the promoted
        replica replays it too: its dedup window holds every DDL key."""
        primary, replica = pair

        def send(svc, op, seq, **fields):
            return svc._request(op, client="ddl", seq=seq, **fields)

        create = dict(name="v2", over=["obs"], agg="sum", key=None,
                      lag="downstream")
        with ServiceClient("127.0.0.1", primary.port, timeout=5.0) as svc:
            created = send(svc, "create_view", 1, **create)
            assert send(svc, "create_view", 1, **create) == dict(
                created, duplicate=True
            )
            assert send(svc, "table_insert", 2, table="obs",
                        rows=[[4, 0, 100]]) == {"applied": 1}
            dropped = send(svc, "drop_view", 3, view="v2")
            assert dropped == {"dropped": "v2"}
            assert send(svc, "drop_view", 3, view="v2") == dict(
                dropped, duplicate=True
            )
            # One commit per write that applied, none per duplicate.
            assert svc.stats()["replication"]["commit"] == 3
        _wait_applied(replica.port, 3)
        registry = replica.server.registry
        assert registry.counter("service.repl.batches_applied").value == 3
        assert replica.server.views.view_names() == []
        assert len(replica.server.views.table("obs")) == 1

        with ServiceClient("127.0.0.1", replica.port, timeout=5.0) as svc:
            assert svc._request("promote")["promoted"] is True
            assert send(svc, "create_view", 1, **create) == dict(
                created, duplicate=True
            )
            assert send(svc, "drop_view", 3, view="v2")["duplicate"] is True
            assert replica.server.views.view_names() == []
