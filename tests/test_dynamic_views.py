"""Tests for the dynamic materialized-view DAG (repro.warehouse.dynamic).

Covers the scheduler (lag parsing, cycle rejection, diamond refreshed
once per tick, ``downstream`` laziness, transitive staleness), the
incremental refresh path (oracle equivalence under inserts and deletes,
grouped cascades), watermark persistence across close/reopen, and the
full service integration: a 3-level DAG driven over TCP, the typed wire
codec for ``query_view``, pinned multi-view reads, and the ``repro
view`` CLI verbs.
"""

import random

import pytest

from repro.core import reference
from repro.oracle import CatalogModel
from repro.warehouse.dynamic import (
    DOWNSTREAM,
    CycleError,
    DynamicCatalog,
    ViewDependencyError,
    parse_lag,
)


class TestLagParsing:
    def test_units(self):
        assert parse_lag("5s") == 5.0
        assert parse_lag("500ms") == 0.5
        assert parse_lag("2m") == 120.0
        assert parse_lag("1h") == 3600.0
        assert parse_lag("1d") == 86400.0
        assert parse_lag(2.5) == 2.5
        assert parse_lag("0") == 0.0
        assert parse_lag("downstream") is DOWNSTREAM
        assert parse_lag(DOWNSTREAM) is DOWNSTREAM

    def test_rejects_junk(self):
        for bad in ("-1s", "fast", "", None, True, -3,
                    "nan", "nans", float("nan"), "1e400", "infs", float("inf")):
            with pytest.raises((ValueError, TypeError)):
                parse_lag(bad)


def test_a_nan_instant_is_refused_by_read_and_report():
    cat = DynamicCatalog()
    cat.create_table("t")
    cat.create_view("v", "t", "sum")
    cat.insert("t", 4, (0, 10))
    for read in (lambda t: cat.read("v", t), lambda t: cat.report(["v"], t)):
        assert read(5)
        with pytest.raises(ValueError):
            read(float("nan"))


class TestDagStructure:
    def test_cycle_rejected_at_create(self):
        cat = DynamicCatalog()
        cat.create_table("t")
        cat.create_view("a", "t", "sum")
        cat.create_view("b", "a", "sum")
        with pytest.raises(CycleError):
            cat.create_view("a2", ["b", "a2"], "sum", create_sources=True)
        with pytest.raises(CycleError):
            cat.create_view("self", "self", "sum", create_sources=True)
        # The failed creates left nothing behind.
        assert sorted(cat.view_names()) == ["a", "b"]

    def test_a_refused_view_creates_no_source_table(self):
        cat = DynamicCatalog()
        cat.create_table("t")
        cat.create_view("v", "t", "sum")
        with pytest.raises(ValueError):
            cat.create_view("m", ["new_src", "v"], "min", create_sources=True)
        for over, key in ((["new_src"], 5), (["new_src", 5], None)):
            with pytest.raises(ValueError, match="names must be strs"):
                cat.create_view("n", over, "sum", key=key, create_sources=True)
        cat.insert("t", 1, (0, 5), k=[1])  # a list is no group key
        cat.refresh()  # ``t``'s log is compacted: a new view bootstraps
        with pytest.raises(ValueError):  # and the bootstrap raises
            cat.create_view("g", ["t", "fresh"], "sum", key="k", create_sources=True)
        assert (cat.table_names(), cat.view_names()) == (["t"], ["v"])

    def test_unknown_source_rejected(self):
        cat = DynamicCatalog()
        with pytest.raises(ViewDependencyError):
            cat.create_view("v", "missing", "sum")

    def test_min_over_view_rejected(self):
        cat = DynamicCatalog()
        cat.create_table("t")
        cat.create_view("s", "t", "sum")
        # Refreshing a view retracts rows; MIN/MAX cannot absorb them.
        with pytest.raises(ValueError, match="MIN"):
            cat.create_view("m", "s", "min")
        cat.create_view("m_ok", "t", "min")  # over a base table is fine

    def test_drop_view_refused_with_dependents(self):
        cat = DynamicCatalog()
        cat.create_table("t")
        cat.create_view("a", "t", "sum")
        cat.create_view("b", "a", "sum")
        with pytest.raises(ViewDependencyError, match="b"):
            cat.drop_view("a")
        with pytest.raises(ViewDependencyError, match="'a'"):
            cat.drop_table("t")
        cat.drop_view("b")
        cat.drop_view("a")
        with pytest.raises(ViewDependencyError):
            cat.drop_table("missing")

    def test_duplicate_names_rejected(self):
        cat = DynamicCatalog()
        cat.create_table("t")
        with pytest.raises(ValueError):
            cat.create_table("t")
        cat.create_view("v", "t", "sum")
        with pytest.raises(ValueError):
            cat.create_view("v", "t", "sum")


class TestScheduler:
    def test_diamond_refreshes_once_per_tick(self):
        clock = FakeClock()
        cat = DynamicCatalog(clock=clock)
        cat.create_table("t")
        cat.create_view("left", "t", "sum", lag=0)
        cat.create_view("right", "t", "count", lag=0)
        cat.create_view("top", ["left", "right"], "sum", lag=0)
        cat.insert("t", 4, (0, 10))
        cat.insert("t", 2, (5, 20))
        clock.advance(1.0)
        cat.tick()
        stats = cat.stats()["views"]
        assert [stats[n]["refreshes"] for n in ("left", "right", "top")] == [1, 1, 1]
        # top = sum over left's sums and right's counts
        assert cat.read("top", 7).value == 4 + 2 + 2
        # A tick with nothing pending refreshes nobody.
        cat.tick()
        stats = cat.stats()["views"]
        assert [stats[n]["refreshes"] for n in ("left", "right", "top")] == [1, 1, 1]

    def test_downstream_refreshes_only_when_needed(self):
        clock = FakeClock()
        cat = DynamicCatalog(clock=clock)
        cat.create_table("t")
        cat.create_view("lazy", "t", "sum", lag="downstream")
        cat.insert("t", 3, (0, 10))
        clock.advance(100.0)
        cat.tick()
        assert cat.stats()["views"]["lazy"]["refreshes"] == 0
        # A read is a need: the view refreshes on demand.
        assert cat.read("lazy", 5).value == 3
        assert cat.stats()["views"]["lazy"]["refreshes"] == 1

    def test_downstream_pulled_by_dependent_tick(self):
        clock = FakeClock()
        cat = DynamicCatalog(clock=clock)
        cat.create_table("t")
        cat.create_view("lazy", "t", "sum", lag="downstream")
        cat.create_view("eager", "lazy", "sum", lag=0)
        cat.insert("t", 3, (0, 10))
        clock.advance(1.0)
        consumed = cat.tick()
        # The eager dependent's tick obliges the lazy ancestor to move.
        assert consumed.get("lazy") == 1
        assert cat.stats()["views"]["eager"]["refreshes"] == 1

    def test_numeric_lag_waits_out_its_budget(self):
        clock = FakeClock()
        cat = DynamicCatalog(clock=clock)
        cat.create_table("t")
        cat.create_view("hourly", "t", "sum", lag="1h")
        cat.insert("t", 3, (0, 10))
        clock.advance(10.0)
        assert cat.tick() == {}  # 10s old < 1h budget
        clock.advance(3600.0)
        assert cat.tick() == {"hourly": 1}

    def test_transitive_staleness_sees_through_fresh_intermediate(self):
        clock = FakeClock()
        cat = DynamicCatalog(clock=clock)
        cat.create_table("t")
        mid = cat.create_view("mid", "t", "sum", lag="1h")
        top = cat.create_view("top", "mid", "sum", lag="1h")
        cat.insert("t", 3, (0, 10))
        clock.advance(5.0)
        # Neither view has consumed the event; both are 5s stale --
        # top's staleness must not read 0 just because mid emitted
        # nothing yet.
        assert cat.staleness(mid) == pytest.approx(5.0)
        assert cat.staleness(top) == pytest.approx(5.0)
        cat.refresh()
        assert cat.staleness(top) == 0.0


class TestFreshness:
    """A read refreshes, and reports staleness, exactly when a record is
    pending somewhere upstream of the view: the ancestry it reads is
    rebuilt by every DDL verb and by ``load()``, and it looks through a
    numeric-lag middle view to the base table beneath."""

    def test_reads_after_ddl_load_quarantine_and_repair(self, tmp_path):
        clock = FakeClock()
        cat = DynamicCatalog(str(tmp_path), clock=clock)
        cat.create_table("t")
        cat.create_view("mid", "t", "sum", lag="1h")
        cat.create_view("top", "mid", "sum", lag="downstream")

        def reading(name="top"):
            got = cat.read(name, 5)
            return got.value, got.staleness_s, got.degraded

        cat.insert("t", 3, (0, 10))
        clock.advance(2.0)
        # mid waits out its hour; top refreshes, but sees through mid.
        assert reading() == (0, 2.0, False)
        cat.refresh("mid")
        assert reading() == (3, 0.0, False)
        cat.insert("t", 4, (0, 10))
        clock.advance(1.0)
        cat.create_table("u")
        assert reading() == (3, 1.0, False)
        cat.create_view("side", ["t", "u"], "count")
        assert reading("side") == (2, 0.0, False)
        cat.insert("u", 1, (0, 10))
        assert reading() == (3, 1.0, False)
        cat.drop_view("side")
        assert reading() == (3, 1.0, False)
        cat.drop_table("u")
        assert reading() == (3, 1.0, False)
        cat.close()
        cat = DynamicCatalog(str(tmp_path), clock=clock)  # load()
        assert reading() == (3, 1.0, False)
        mid = cat.view("mid")
        healthy = mid.refresh

        def poisoned(resolve, now):
            raise RuntimeError("boom")

        mid.refresh = poisoned
        clock.advance(3600.0)
        cat.tick()
        assert reading("mid") == (3, 3601.0, True)
        assert reading() == (3, 3601.0, False)
        mid.refresh = healthy
        cat.repair("mid")
        assert reading("mid") == (7, 0.0, False)
        assert reading() == (7, 0.0, False)


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def _refresh_cost(cat, value, valid, **payload):
    """Per view: what one refresh after inserting one fact into ``t``
    cost, counted."""
    before = cat.stats()["views"]
    cat.insert("t", value, valid, **payload)
    cat.refresh()
    after = cat.stats()["views"]
    return {
        name: {c: after[name][c] - before[name][c] for c in (
            "rows_examined", "rows_retracted", "rows_emitted",
            "effects_applied", "events_consumed")}
        for name in after
    }


class TestIncrementalCorrectness:
    def test_cascade_matches_oracle_under_inserts_and_deletes(self, tmp_path):
        """A grouped SUM under a SUM, through the catalog model: every
        view at every endpoint after each tenth step's refresh."""
        rng = random.Random(5)
        steps = [("create_table", "doses"),
                 ("create_view", "by_patient", "doses", "sum", "patient"),
                 ("create_view", "total", "by_patient", "sum")]
        live = 0
        for step in range(120):
            if live and rng.random() < 0.3:
                steps.append(("delete", "doses", rng.randrange(live)))
                live -= 1
            else:
                s = rng.randint(0, 900)
                e = s + rng.randint(1, 120)
                steps.append(("insert", "doses", rng.randint(1, 9), (s, e),
                              {"patient": f"p{rng.randrange(4)}"}))
                live += 1
            if step % 10 == 9:
                steps += [("refresh",), ("views_match_the_oracle",)]
        with CatalogModel() as model:
            model.setup(str(tmp_path))
            model.replay(steps)

    def test_refresh_cost_does_not_depend_on_history(self):
        """The same one-fact batch over 200 and over 20,000 output rows
        looks at the same rows and applies the same effects -- counted,
        not timed, so a linear term cannot hide in the noise."""
        def one_fact_batch(history):
            cat = DynamicCatalog()
            cat.create_table("t")
            cat.create_view("v", "t", "sum")
            cat.create_view("w", "v", "sum")
            cat.create_view("x", "w", "sum")  # a leaf: it keeps no rows
            for i in range(history):  # adjacent, never equal: one row each
                cat.insert("t", i % 7 + 1, (i, i + 1))
            cat.refresh()
            views = cat.stats()["views"]
            assert views["v"]["rows"] == views["w"]["rows"] == history
            assert views["x"]["rows"] == 0
            return _refresh_cost(cat, 5, (100, 102))  # cuts across two rows

        small, large = one_fact_batch(200), one_fact_batch(20_000)
        assert small == large
        assert large.pop("x") == {
            "rows_examined": 0, "rows_retracted": 0, "rows_emitted": 0,
            "effects_applied": 1, "events_consumed": 4,
        }
        for name, cost in large.items():
            # One affected span per view: the overlapped rows plus at
            # most one probe either side.
            assert cost["rows_examined"] <= cost["rows_retracted"] + 2, name
            assert cost["rows_retracted"] == 2, name
            # m records fold into at most 2m - 1 segments per group; the
            # four records v emits (two retractions, two re-emits) net to
            # the one segment that changed.
            assert cost["effects_applied"] <= 2 * cost["events_consumed"] - 1
        assert large["w"] == {
            "rows_examined": 2, "rows_retracted": 2, "rows_emitted": 2,
            "effects_applied": 1, "events_consumed": 4,
        }

    def test_a_row_two_spans_share_is_regenerated_once(self):
        """Two facts inside one 20-unit row of ``v``: both spans widen to
        that row, so it is retracted once and its five pieces are
        emitted once (merged before widening, the second span retracted
        and re-emitted a piece the first had just emitted)."""
        cat = DynamicCatalog()
        cat.create_table("t")
        cat.create_view("v", "t", "sum")
        cat.create_view("w", "v", "sum")
        cat.create_view("x", "w", "sum")  # so that ``w`` keeps rows
        cat.insert("t", 1, (0, 20))
        cat.refresh()
        cat.insert("t", 5, (2, 4))
        cost = _refresh_cost(cat, 7, (12, 14))
        assert cost["v"] == {
            "rows_examined": 1, "rows_retracted": 1, "rows_emitted": 5,
            "effects_applied": 2, "events_consumed": 2,
        }
        assert cost["w"] == {
            "rows_examined": 1, "rows_retracted": 1, "rows_emitted": 5,
            "effects_applied": 2, "events_consumed": 6,
        }
        assert [cat.read("w", t).value for t in (1, 3, 5, 13, 15)] == [1, 6, 1, 8, 1]

    def test_regeneration_covers_the_net_effect_not_the_records(self):
        """A fact that cuts into two 10-unit rows of a grouped ``v``
        makes ``v`` retract both and re-emit four: ``w``'s records span
        the 20 units of those rows, but their net effect spans only the
        fact's 10, and ``w`` (unit rows, from the other group) rebuilds
        only those."""
        cat = DynamicCatalog()
        cat.create_table("t")
        cat.create_view("v", "t", "sum", key="k")
        cat.create_view("w", "v", "sum")
        cat.create_view("x", "w", "sum")  # so that ``w`` keeps rows
        for i in range(20):
            cat.insert("t", i % 7 + 1, (i * 10, i * 10 + 10), k="a")
        for i in range(200):
            cat.insert("t", i % 5 + 1, (i, i + 1), k="b")
        cat.refresh()
        assert cat.stats()["views"]["w"]["rows"] == 200
        cost = _refresh_cost(cat, 5, (105, 115), k="a")
        assert cost["v"] == {
            "rows_examined": 2, "rows_retracted": 2, "rows_emitted": 4,
            "effects_applied": 1, "events_consumed": 1,
        }
        assert cost["w"] == {
            "rows_examined": 10, "rows_retracted": 10, "rows_emitted": 10,
            "effects_applied": 1, "events_consumed": 6,
        }

    @pytest.mark.parametrize("kind", ["sum", "max"])
    def test_tree_work_of_a_refresh_is_attributed_as_insert_ops(self, kind):
        """``repro.obs`` sees one ``insert_batch`` op per group tree a
        refresh touches; their ``effects`` sum to what the refresh
        applied -- folded segments or MIN/MAX records -- and the node
        writes land on them, not on per-effect ``insert`` ops."""
        from repro import obs

        cat = DynamicCatalog()
        cat.create_table("t")
        cat.create_view("v", "t", kind)
        for i in range(6):
            cat.insert("t", i + 1, (i * 3, i * 3 + 5))
        with obs.collecting() as registry:
            cat.refresh()
            summary = registry.op_summary("insert_batch")
            singles = registry.op_summary("insert")
        applied = cat.stats()["views"]["v"]["effects_applied"]
        assert summary["count"] == 1  # one ungrouped view, one tree
        assert summary["effects"] == applied > 0
        assert summary["writes"] >= 1
        assert singles["count"] == 0

    def test_grouped_read_by_key_and_unknown_key(self):
        cat = DynamicCatalog()
        cat.create_table("doses")
        cat.create_view("by_patient", "doses", "sum", key="patient")
        cat.insert("doses", 2, (0, 10), patient="amy")
        cat.insert("doses", 3, (5, 20), patient="bob")
        cat.refresh()
        assert cat.read("by_patient", 7, key="amy").value == 2
        assert cat.read("by_patient", 7, key="nobody").value in (0, None)
        both = cat.read("by_patient", 7).value
        assert both == {"amy": 2, "bob": 3}
        # A view without groups has no key to read: refused, not empty.
        cat.create_view("total", "doses", "sum")
        with pytest.raises(ValueError, match="total"):
            cat.read("total", 7, key="amy")
        assert cat.read("total", 7).value == 5

    @pytest.mark.parametrize("kind", ["sum", "count", "avg"])
    def test_keyed_and_whole_reads_match_the_reference_recompute(self, kind):
        rows = [(2, (0, 10), "amy"), (3, (5, 20), "bob"), (6, (8, 12), "amy")]
        cat = DynamicCatalog()
        cat.create_table("doses")
        cat.create_view("by_patient", "doses", kind, key="patient")
        cat.create_view("whole", "doses", kind)
        for value, interval, patient in rows:
            cat.insert("doses", value, interval, patient=patient)
        cat.refresh()
        for t in (-1, 0, 7, 9, 10, 15, 20):
            for key in ("amy", "bob"):
                assert cat.read("by_patient", t, key=key).value == (
                    reference.view_value(rows, kind, t, key)
                ), (t, key)
            assert cat.read("whole", t).value == (
                reference.view_value(rows, kind, t)
            ), t

    def test_avg_finalizes_through_cascade(self):
        cat = DynamicCatalog()
        cat.create_table("t")
        cat.create_view("mean", "t", "avg")
        cat.insert("t", 4, (0, 10))
        cat.insert("t", 2, (0, 10))
        cat.refresh()
        assert cat.read("mean", 5).value == pytest.approx(3.0)
        assert cat.read("mean", 50).value is None

    def test_pinned_report_is_consistent(self):
        cat = DynamicCatalog()
        cat.create_table("t")
        cat.create_view("a", "t", "sum", lag="1h")
        cat.create_view("b", "a", "sum", lag="1h")
        cat.insert("t", 3, (0, 10))
        out = cat.report(["a", "b"], 5, pin=True)
        assert out["pinned"] is True
        assert out["views"]["a"]["value"] == 3
        assert out["views"]["b"]["value"] == 3
        assert out["base_watermarks"] == {"t": 1}
        # Both views sit at the same base watermark after the pin.
        assert out["views"]["a"]["watermark"] == 1


class TestPersistence:
    def test_watermarks_survive_close_and_reopen(self, tmp_path):
        directory = str(tmp_path / "cat")
        with DynamicCatalog(directory) as cat:
            cat.create_table("doses")
            cat.create_view("by_patient", "doses", "sum", key="patient")
            cat.create_view("total", "by_patient", "sum")
            cat.insert("doses", 2, (0, 10), patient="amy")
            cat.insert("doses", 3, (5, 20), patient="bob")
            cat.refresh()
            before = cat.stats()["views"]

        with DynamicCatalog(directory) as cat:
            after = cat.stats()["views"]
            for name in ("by_patient", "total"):
                assert after[name]["watermarks"] == before[name]["watermarks"]
                assert after[name]["refreshes"] == before[name]["refreshes"]
                assert after[name]["pending"] == 0
            # Values come back without reconsuming anything.
            assert cat.read("total", 7).value == 5
            assert cat.refresh() == {}

    def test_resume_consumes_only_new_events(self, tmp_path):
        directory = str(tmp_path / "cat")
        with DynamicCatalog(directory) as cat:
            cat.create_table("t")
            cat.create_view("v", "t", "sum")
            cat.insert("t", 2, (0, 10))
            cat.refresh()

        with DynamicCatalog(directory) as cat:
            cat.insert("t", 5, (5, 20))
            consumed = cat.refresh()
            assert consumed == {"v": 1}  # just the new event
            assert cat.read("v", 7).value == 7

    def test_unbounded_intervals_roundtrip(self, tmp_path):
        from repro.core.intervals import POS_INF

        directory = str(tmp_path / "cat")
        with DynamicCatalog(directory) as cat:
            cat.create_table("t")
            cat.create_view("v", "t", "sum")
            cat.insert("t", 4, (10, POS_INF))
            cat.refresh()

        with DynamicCatalog(directory) as cat:
            assert cat.read("v", 10**9).value == 4


class TestServiceIntegration:
    @pytest.fixture()
    def handle(self, open_shards):
        from repro.service import ServerHandle

        sharded = open_shards(num_shards=2, span=(0, 10_000))
        with ServerHandle.start(sharded, view_tick=0.0) as handle:
            yield handle

    def test_three_level_dag_over_tcp_matches_oracle(self, handle):
        from repro.service import ServiceClient

        rng = random.Random(11)
        facts = []
        with ServiceClient(handle.host, handle.port, timeout=10.0) as svc:
            svc.create_view("by_patient", "doses", "sum",
                            key="patient", lag="downstream")
            svc.create_view("total", "by_patient", "sum", lag="downstream")
            for _ in range(4):
                rows = []
                for _ in range(25):
                    s = rng.randint(0, 9_000)
                    e = s + rng.randint(1, 400)
                    v = rng.randint(1, 9)
                    rows.append([v, s, e, {"patient": f"p{rng.randrange(4)}"}])
                    facts.append((v, (s, e)))
                assert svc.table_insert("doses", rows) == 25
                svc.refresh_view()
                for t in (2_000, 5_000, 8_000):
                    got = svc.query_view("total", t)
                    want = reference.instantaneous_value(facts, "sum", t)
                    assert (got["value"] or 0) == (want or 0)
                    assert got["staleness_s"] == 0.0

    def test_query_view_typed_codec_roundtrip(self, handle):
        from repro.service import ServiceClient

        with ServiceClient(handle.host, handle.port, timeout=10.0) as svc:
            svc.table_insert("doses", [[2, 0, 10, {"patient": "amy"}]])
            svc.create_view("one", "doses", "sum", lag="downstream")
            got = svc.query_view("one", 5)
            assert got["value"] == 2
            assert isinstance(got["watermark"], int)
            keyed = svc.create_view("by_p", "doses", "sum",
                                    key="patient", lag="downstream")
            assert keyed["key"] == "patient"
            got = svc.query_view("by_p", 5, key="amy")
            assert got["value"] == 2

    def test_pinned_multi_view_read_over_tcp(self, handle):
        from repro.service import ServiceClient

        with ServiceClient(handle.host, handle.port, timeout=10.0) as svc:
            svc.table_insert("doses", [[2, 0, 10, {"patient": "amy"}]])
            svc.create_view("by_p", "doses", "sum",
                            key="patient", lag="downstream")
            svc.create_view("total", "by_p", "sum", lag="downstream")
            out = svc.query_views(["by_p", "total"], 5, pin=True)
            assert out["pinned"] is True
            assert out["views"]["total"]["value"] == 2
            assert out["base_watermarks"] == {"doses": 1}

    def test_view_errors_surface_as_bad_request(self, handle):
        from repro.service import ServiceClient, ServiceError

        with ServiceClient(handle.host, handle.port, timeout=10.0) as svc:
            with pytest.raises(ServiceError):
                svc.query_view("missing", 5)
            svc.table_insert("doses", [[2, 0, 10]])
            svc.create_view("a", "doses", "sum")
            svc.create_view("b", "a", "sum")
            with pytest.raises(ServiceError):
                svc.drop_view("a")  # b still consumes it
            with pytest.raises(ServiceError):
                svc.create_view("c", ["c"], "sum")  # self-cycle

    def test_stats_and_top_panel_carry_views(self, handle):
        from repro.service import ServiceClient
        from repro.service.top import render_top

        with ServiceClient(handle.host, handle.port, timeout=10.0) as svc:
            # Declared first: a view over rows nobody consumed yet is
            # seeded from them when created, with no refresh to count.
            svc.create_view("v", "doses", "sum", lag="5s")
            svc.table_insert("doses", [[2, 0, 10]])
            svc.refresh_view("v")
            stats = svc.stats()
            per_view = stats["views"]["views"]
            assert per_view["v"]["refreshes"] == 1
            frame = render_top(stats)
            assert "views (staleness vs lag target):" in frame
            assert "v " in frame

    def test_view_stats_tell_each_views_window(self, handle):
        from repro.service import ServiceClient
        from repro.warehouse import ANY_WINDOW

        catalog = handle.server.views
        catalog.create_view("now", "doses", "sum", create_sources=True)
        catalog.create_view("fixed", "doses", "sum", window=5)
        catalog.create_view("cum", "doses", "max", window=ANY_WINDOW)
        want = {"now": 0, "fixed": 5, "cum": "any"}
        views = catalog.stats()["views"]
        assert {name: views[name]["window"] for name in want} == want
        with ServiceClient(handle.host, handle.port, timeout=10.0) as svc:
            views = svc.view_stats()["views"]
        assert {name: views[name]["window"] for name in want} == want

    def test_cli_view_verbs(self, handle, capsys):
        from repro.cli import main

        base = ["--host", handle.host, "--port", str(handle.port)]
        assert main(["view", "insert", "doses",
                     "--row", "2,0,10,amy", "--row", "3,5,20,bob",
                     *base]) == 0
        assert main(["view", "create", "by_key", "--over", "doses",
                     "--agg", "sum", "--key", "key", "--lag", "downstream",
                     *base]) == 0
        assert main(["view", "query", "by_key", "--at", "7",
                     "--key", "amy", *base]) == 0
        out = capsys.readouterr().out
        assert '"value": 2' in out
        assert main(["view", "stats", *base]) == 0
        assert main(["view", "refresh", *base]) == 0
        assert main(["view", "drop", "by_key", *base]) == 0
        with pytest.raises(SystemExit):
            main(["view", "drop", "by_key", *base])  # already gone
