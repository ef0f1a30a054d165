"""Differential test of the incremental view refresh against the oracle.

A seeded stream of inserts (and, for the invertible kinds, 30 % deletes)
runs through the 3-level DAG ``t -> mid -> {top, width}`` in batches of
1, 7, 64 and "everything at once", for all five aggregate kinds, grouped
and ungrouped, with integer and with float values, and with intervals
unbounded on either side.  At the end -- and once more after a close and
reopen in the middle of a batch, which rebuilds the sorted row index
from the checkpoint -- every ``read`` at every endpoint must equal
``core/reference.py``, every group tree must pass ``check_tree``, and
every view's output rows must be the step function its trees hold.
(What a reading reports besides its value -- watermarks, staleness,
the degraded flag -- is ``TestFreshness`` and ``TestScheduler`` in
``tests/test_dynamic_views.py``.)

What floats may and may not do.  SUM/COUNT/AVG refresh folds a batch
into its net effect before touching a tree, so the float records over a
region are summed in another order than record by record: answers may
differ from the oracle by round-off (hence ``approx``), and a residue
such as ``1e-17`` where the exact answer is 0 may or may not
materialize as an output row.  What they may not do is leave the region
they belong to: a segment of the net effect is the sum of the records
over it and of nothing else, so the error at an instant is bounded by
the magnitudes of the records that cover that instant, a fact alone in
a gap reads exactly its own value however large its batch mates are,
and an ``inf`` stays where it was inserted (``TestFoldIsLocal``, exact
against record-by-record application).  With integer effects nothing of
the sort exists and every comparison below is exact.

The last class proves these gates can fail: three mutations of the
refresh (a fold that never closes an effect, a fold that keeps one
running total and subtracts what closes, a regeneration that does not
widen to the rows it retracts) must each turn them red.
"""

import bisect
import dataclasses
import random
from fractions import Fraction

import pytest

from repro import Interval, NEG_INF, POS_INF, SBTree, check_tree
from repro.core import reference
from repro.core.values import spec_for
from repro.warehouse.dynamic import DynamicCatalog, DynamicView

KINDS = ["sum", "count", "avg", "min", "max"]
KEYS = ["amy", "bob", "cy"]
#: Batch size -> events in the stream (64 needs more than one batch;
#: one-record batches are the slowest, so that stream is the shortest).
STREAMS = {1: 40, 7: 70, 64: 200, None: 90}


def _events(rng, count, kind, floats):
    """``("insert", value, interval, key)`` / ``("delete", nth_live)``."""
    deletes = spec_for(kind).invertible
    live = 0
    for _ in range(count):
        if deletes and live and rng.random() < 0.3:
            live -= 1
            yield ("delete", rng.randrange(live + 1))
            continue
        start = rng.randrange(0, 200)
        end = start + rng.randrange(1, 60)
        edge = rng.random()
        if edge < 0.06:
            start = NEG_INF
        elif edge < 0.12:
            end = POS_INF
        value = rng.randrange(-5, 10)
        if floats:
            value = value + rng.randrange(1, 10) / 10
        live += 1
        yield ("insert", value, Interval(start, end), rng.choice(KEYS))


def _close(got, want, floats):
    if not floats or got is None or want is None:
        return got == want
    return got == pytest.approx(want, rel=1e-9, abs=1e-9)


class Differential:
    """One catalog, one stream, one oracle (the live facts per key).

    The clock moves one second per event; in the grouped runs ``mid``
    is on an hour's lag."""

    def __init__(self, directory, kind, grouped, floats):
        self.directory = str(directory)
        self.kind, self.grouped, self.floats = kind, grouped, floats
        self.spec = spec_for(kind)
        self.now = 0.0
        self.cat = self._open()
        self.cat.create_table("t")
        self.cat.create_view("mid", "t", kind, key="who" if grouped else None,
                             lag="1h" if grouped else "downstream")
        self.cat.create_view("top", "mid", "sum")
        self.cat.create_view("width", "mid", "count")
        self.live = []  # (tuple_id, group, value, interval)
        # Which views hold float sums (see the module docstring): ``mid``
        # over float sources unless it only counts them, ``top`` whenever
        # ``mid`` emits floats -- an AVG does even over integers.
        inexact = floats and kind != "count"
        self.approx = {"mid": inexact, "top": inexact or kind == "avg",
                       "width": False}

    def _open(self):
        # Capacity 4: a few dozen intervals already make a 3-level tree.
        return DynamicCatalog(self.directory,
                              clock=lambda: self.now,
                              branching=4, leaf_capacity=4)

    def apply(self, event):
        self.now += 1.0
        if event[0] == "delete":
            self.cat.delete("t", self.live.pop(event[1])[0])
        else:
            _, value, interval, who = event
            row = self.cat.insert("t", value, interval, who=who)
            group = who if self.grouped else None
            self.live.append((row.tuple_id, group, value, interval))

    def reopen(self):
        self.cat.close()
        self.cat = self._open()

    # ------------------------------------------------------------------
    def _instants(self):
        ends = {
            t for _, _, _, iv in self.live for t in (iv.start, iv.end)
            if NEG_INF < t < POS_INF
        }
        return sorted(ends | {-1, 300})

    def check_reads(self):
        """Every view at every endpoint against ``core/reference.py``."""
        groups = {}
        for _, group, value, interval in self.live:
            groups.setdefault(group, []).append((value, interval))
        mid_view = self.cat.view("mid")
        for t in self._instants():
            internal = {
                group: reference.instantaneous_value(facts, self.kind, t)
                for group, facts in groups.items()
            }
            final = {g: self.spec.finalize(v) for g, v in internal.items()}
            got = self.cat.read("mid", t).value
            if self.grouped:
                # A group whose facts were all deleted still has its tree.
                assert set(final) <= set(got) <= set(mid_view.keys())
                for group in got:
                    want = final.get(group, self.spec.finalize(self.spec.v0))
                    assert _close(got[group], want, self.approx["mid"]), (t, group)
            else:
                want = final.get(None, self.spec.finalize(self.spec.v0))
                assert _close(got, want, self.approx["mid"]), t
            # The upper views see one row per group whose internal value
            # is not v0 and whose final value exists.
            visible = [
                final[g] for g, v in internal.items()
                if not self.spec.is_initial(v) and final[g] is not None
            ]
            got = self.cat.read("top", t).value
            assert _close(got, sum(visible), self.approx["top"]), t
            if not self.approx["mid"]:  # a float residue row would count
                assert self.cat.read("width", t).value == len(visible), t

    def check_structure(self):
        """Trees are valid; rows are what the trees hold; index is sound."""
        for name in ("mid", "top", "width"):
            view = self.cat.view(name)
            exact = not self.approx[name]
            indexed = []
            for key, tree in view._trees.items():
                check_tree(tree, check_compact=exact and tree.spec.invertible)
                starts, rows = view._index[key]
                assert starts == [row.valid.start for row in rows]
                assert all(
                    a.valid.end <= b.valid.start for a, b in zip(rows, rows[1:])
                ), (name, key)
                indexed.extend(rows)
                self._check_rows(view, tree, starts, rows, exact)
            assert sorted(r.tuple_id for r in indexed) == sorted(
                r.tuple_id for r in view.relation
            )

    def _check_rows(self, view, tree, starts, rows, exact):
        spec = view.spec
        if exact:
            # Equal as step functions: regeneration does not coalesce
            # across span borders, so coalesce both sides by final value.
            def coalesced(pieces):
                out = []
                for value, start, end in pieces:
                    if out and out[-1][2] == start and out[-1][0] == value:
                        out[-1][2] = end
                    else:
                        out.append([value, start, end])
                return out

            want = coalesced(
                (spec.finalize(v), a, b) for v, a, b in tree.leaf_pieces()
                if not spec.is_initial(v) and spec.finalize(v) is not None
            )
            got = coalesced((r.value, r.valid.start, r.valid.end) for r in rows)
            assert got == want, view.name
            return
        for t in self._instants():
            i = bisect.bisect_right(starts, t) - 1
            got = rows[i].value if i >= 0 and rows[i].valid.contains(t) else None
            want = tree.lookup_final(t)
            if spec.invertible and spec.kind.value != "avg":
                # No row reads as 0 (and a residue row as nearly 0).
                got, want = got or 0, want or 0
            assert _close(got, want, True), (view.name, t)


def run_differential(directory, kind, grouped, batch, floats):
    rng = random.Random(f"{kind}-{grouped}-{batch}-{floats}")
    count = STREAMS[batch]
    diff = Differential(directory, kind, grouped, floats)
    size = batch or count
    for n, event in enumerate(_events(rng, count, kind, floats), 1):
        diff.apply(event)
        if n == count // 2 + 3:
            # Mid-batch for every size but 1: the reopened catalog has an
            # unconsumed tail and an index rebuilt from the checkpoint.
            diff.reopen()
        if n % size == 0:
            diff.cat.refresh()
            if n - size < count // 2 + 3 <= n:
                diff.check_reads()
                diff.check_structure()
    diff.cat.refresh()
    diff.check_reads()
    diff.check_structure()
    stats = diff.cat.stats()["views"]
    diff.cat.close()
    return stats


@pytest.mark.parametrize("floats", [False, True], ids=["int", "float"])
@pytest.mark.parametrize("batch", [1, 7, 64, None], ids=["b1", "b7", "b64", "all"])
@pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "single"])
@pytest.mark.parametrize("kind", KINDS)
def test_refresh_matches_the_oracle(tmp_path, kind, grouped, batch, floats):
    stats = run_differential(tmp_path, kind, grouped, batch, floats)
    for name, view in stats.items():
        # Folding never applies more than 2m - 1 segments for m records;
        # MIN/MAX apply one effect per record.
        assert view["effects_applied"] <= 2 * view["events_consumed"], name


INF = float("inf")
#: One batch each; within a batch at most two records overlap anywhere,
#: so float addition has no order to differ in.
LOCAL_CASES = {
    "lone-fact-in-a-gap": [
        (123456.78, (0, 10)), (0.05, (5, 20)), (7.0, (30, 40))],
    "small-outlives-large": [(1e9, (0, 10)), (0.01, (5, 20))],
    "absorbed-then-alone": [(1e20, (0, 10)), (1.0, (5, 20))],
    "inf-stays-put": [(INF, (0, 10)), (1.0, (5, 20)), (-2.5, (15, 25))],
    "unbounded": [
        (1e15, (NEG_INF, 10)), (0.1, (5, POS_INF)), (0.3, (50, 60))],
    "delete-in-the-batch": [
        (1e12, (0, 10)), (0.07, (20, 30)), ("delete", 0), (0.3, (25, 40))],
}


def _mixed_events(rng, count):
    """Inserts of magnitudes 1e-3 .. 1e13 over a sparse line, 30 % deletes."""
    live = 0
    for _ in range(count):
        if live and rng.random() < 0.3:
            live -= 1
            yield ("delete", rng.randrange(live + 1))
            continue
        start = rng.randrange(0, 600)
        value = rng.choice([1e-3, 1.0, 1e6, 1e12]) * rng.uniform(-10, 10)
        live += 1
        yield ("insert", value, Interval(start, start + rng.randrange(1, 25)))


def check_round_off_is_local(kind, seed, batch=16, count=160):
    """After every refresh and at every instant: the view's error against
    the exact (rational) answer is within the round-off of the events
    that cover that instant -- not of the batch, not of the history."""
    rng = random.Random(f"local-{kind}-{seed}")
    cat = DynamicCatalog(None)
    cat.create_table("t")
    cat.create_view("v", "t", kind, lag="downstream")
    live = []   # (row, value, interval)
    events = []  # (value, interval) of every insert and every delete
    for n, event in enumerate(_mixed_events(rng, count), 1):
        if event[0] == "delete":
            row, value, interval = live.pop(event[1])
            cat.delete("t", row.tuple_id)
        else:
            _, value, interval = event
            live.append((cat.insert("t", value, interval), value, interval))
        events.append((value, interval))
        if n % batch:
            continue
        cat.refresh()
        tree = cat.view("v")._trees[None]
        for t in sorted({t for _, iv in events for t in (iv.start, iv.end)}):
            over = [abs(v) for v, iv in events if iv.contains(t)]
            exact = sum(Fraction(v) for _, v, iv in live if iv.contains(t))
            holders = sum(1 for _, _, iv in live if iv.contains(t))
            got = tree.lookup(t)
            if kind == "avg":
                assert got[1] == holders, t
                got = got[0]
            bound = (len(over) + 8) * 2.0 ** -52 * sum(over)
            assert abs(Fraction(got) - exact) <= bound, (t, got, float(exact))


class TestFoldIsLocal:
    """A segment of the net effect is built from the records over it."""

    @pytest.mark.parametrize("kind", ["sum", "avg"])
    @pytest.mark.parametrize("case", LOCAL_CASES)
    def test_a_batch_equals_record_by_record_application(self, kind, case):
        cat = DynamicCatalog(None)
        cat.create_table("t")
        cat.create_view("v", "t", kind, lag="downstream")
        cat.create_view("top", "v", "sum", lag="downstream")
        per_record = SBTree(kind)
        rows = []
        for value, where in LOCAL_CASES[case]:
            if value == "delete":
                row = rows[where]
                cat.delete("t", row.tuple_id)
                per_record.delete(row.value, row.valid)
            else:
                rows.append(cat.insert("t", value, where))
                per_record.insert(value, Interval(*where))
        cat.refresh()
        want = list(per_record.to_table())
        assert list(cat.view("v")._trees[None].to_table()) == want
        # One level up every region holds one re-emitted row: exact too.
        spec = per_record.spec
        top = cat.view("top")._trees[None]
        for value, interval in want:
            for t in (interval.start, interval.end):
                if NEG_INF < t < POS_INF:
                    final = spec.finalize(per_record.lookup(t))
                    assert top.lookup(t) == (final or 0), t

    def test_a_fact_alone_in_a_gap_reads_its_own_value(self):
        cat = DynamicCatalog(None)
        cat.create_table("t")
        cat.create_view("v", "t", "sum", lag="downstream")
        for value, where in LOCAL_CASES["lone-fact-in-a-gap"]:
            cat.insert("t", value, where)
        assert cat.read("v", 35).value == 7.0
        assert cat.read("v", 12).value == 0.05
        assert cat.read("v", 22).value == 0 and cat.view("v").row_count() == 4

    @pytest.mark.parametrize("kind", ["sum", "avg"])
    @pytest.mark.parametrize("seed", range(3))
    def test_round_off_stays_under_the_records_that_caused_it(self, kind, seed):
        check_round_off_is_local(kind, seed)


def _fold_with_a_running_total(self, records):
    """The fold this PR first shipped: add at the start, subtract at the
    end, one prefix sum over the sorted endpoints."""
    spec = self.spec
    deltas = {}
    for record in records:
        opens, closes = spec.effect(record.value), spec.negated_effect(record.value)
        if record.kind == "delete":
            opens, closes = closes, opens
        deltas[record.start] = spec.acc(deltas.get(record.start, spec.v0), opens)
        deltas[record.end] = spec.acc(deltas.get(record.end, spec.v0), closes)
    segments, running = [], spec.v0
    instants = sorted(deltas)
    for t, following in zip(instants, instants[1:]):
        running = spec.acc(running, deltas[t])
        if spec.is_initial(running):
            continue
        if segments and segments[-1][2] == t and spec.eq(segments[-1][0], running):
            segments[-1][2] = following
        else:
            segments.append([running, t, following])
    return segments


class TestTheDifferentialCanFail:
    """ROADMAP: every gate proven able to fail."""

    def test_green_without_a_mutation(self, tmp_path):
        run_differential(tmp_path, "sum", True, 7, False)

    def test_red_when_the_fold_never_closes_an_effect(self, tmp_path, monkeypatch):
        fold = DynamicView._fold

        def open_ended(self, records):
            # The record's end lands at +inf, where the sweep stops: the
            # same as never taking it out of the sum.
            return fold(self, [
                dataclasses.replace(record, end=POS_INF) for record in records
            ])

        monkeypatch.setattr(DynamicView, "_fold", open_ended)
        with pytest.raises(AssertionError):
            run_differential(tmp_path, "sum", True, 7, False)

    def test_red_when_the_fold_keeps_a_running_total(self, monkeypatch):
        # Passes the oracle differential (its approx hides 1e-12 beside
        # values of similar size), which is why TestFoldIsLocal exists.
        monkeypatch.setattr(DynamicView, "_fold", _fold_with_a_running_total)
        with pytest.raises(AssertionError):
            check_round_off_is_local("sum", 0)
        with pytest.raises(AssertionError):
            TestFoldIsLocal().test_a_fact_alone_in_a_gap_reads_its_own_value()

    def test_red_when_regeneration_does_not_widen(self, tmp_path, monkeypatch):
        # Retract the overlapped rows but re-emit only the span the
        # records touched, not the span widened to cover those rows.
        monkeypatch.setattr(DynamicView, "_widen", lambda self, key, lo, hi: (lo, hi))
        with pytest.raises(AssertionError):
            run_differential(tmp_path, "sum", True, 7, False)
