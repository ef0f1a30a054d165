"""Differential test of the incremental view refresh against the oracle.

A seeded stream of inserts (and, for the invertible kinds, 30 % deletes)
runs through the 3-level DAG ``t -> mid -> {top, width}`` in batches of
1, 7, 64 and "everything at once", for all five aggregate kinds, grouped
and ungrouped, with integer and with float values, and with intervals
unbounded on either side.  Each run is a step list of
:class:`repro.oracle.CatalogModel`: its invariant is checked after the
batch holding a close and reopen in the middle of a batch (which rebuilds
the row index from the checkpoint) and at the end, and every save is
opened beside the live catalog, which it must restore (the saves
re-encode only what changed since the last one).  With float sums a
checkpoint must hold each tree as it is now, not as it was when its spans
were last walked (``test_float_sums_checkpoint_the_tree_as_it_is``).
(What a reading reports besides its value -- watermarks, staleness, the
degraded flag -- is ``TestFreshness`` and ``TestScheduler`` in
``tests/test_dynamic_views.py``.)

What floats may and may not do.  SUM/COUNT/AVG refresh folds a batch
into its net effect before touching a tree, so the float records over a
region are summed in another order than record by record: answers may
differ from the oracle by round-off (the model compares a view over
float values to within 1e-9), and a residue such as ``1e-17`` where the
exact answer is 0 may or may not materialize as an output row.  What
they may not do is leave the region they belong to: a segment of the net
effect is the sum of the records over it and of nothing else, so the
error at an instant is bounded by the magnitudes of the records that
cover that instant, a fact alone in a gap reads exactly its own value
however large its batch mates are, and an ``inf`` stays where it was
inserted (``TestFoldIsLocal``, exact against record-by-record
application).  With integer effects nothing of the sort exists and every
comparison is exact.

At the end of every run each leaf gains a SUM consumer, one in the live
catalog and one after a reopen, and must first materialize its rows
from its trees.

Windowed views (paper, Section 4) run the same way, each read at every
input endpoint and at each endpoint plus its offset against the
reference's cumulative value (``test_windowed_views_match_the_oracle``).

The last class proves these gates can fail: seven mutations of the
refresh (a fold that never closes an effect, a fold that keeps one
running total and subtracts what closes, a regeneration that does not
widen to the rows it retracts, a first consumer that finds no rows,
``T'`` over the paper's ``(end, inf)``, a fixed window that is not
stretched, ``T'`` left out of the checkpoint) must each turn them red.
"""

import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest

from repro import Interval, NEG_INF, POS_INF, SBTree
from repro.core.values import spec_for
from repro.oracle import CatalogModel, step_function
from repro.warehouse import checkpoint, dynamic
from repro.warehouse.dynamic import ANY_WINDOW, DynamicCatalog, DynamicView

KINDS = ["sum", "count", "avg", "min", "max"]
KEYS = ["amy", "bob", "cy"]
#: Batch size -> events in the stream (64 needs more than one batch;
#: one-record batches are the slowest, so that stream is the shortest).
STREAMS = {1: 40, 7: 70, 64: 200, None: 90}
REFRESH, REOPEN, CHECK = ("refresh",), ("reopen",), ("views_match_the_oracle",)
SAVE = [("save",), ("check_restores",)]


def _events(rng, count, kind, floats):
    """The model's ``insert`` and ``delete`` steps on table ``t``."""
    deletes = spec_for(kind).invertible
    live = 0
    for _ in range(count):
        if deletes and live and rng.random() < 0.3:
            live -= 1
            yield ("delete", "t", rng.randrange(live + 1))
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
        yield ("insert", "t", value, Interval(start, end), {"who": rng.choice(KEYS)})


def differential(kind, grouped, batch, floats):
    """One run's steps.  In the grouped runs ``mid`` is on an hour's lag."""
    rng = random.Random(f"{kind}-{grouped}-{batch}-{floats}")
    count = STREAMS[batch]
    size = batch or count
    middle = count // 2 + 3
    key, lag = ("who", "1h") if grouped else (None, "downstream")
    steps = [("create_table", "t"), ("create_view", "mid", "t", kind, key, lag),
             ("create_view", "top", "mid", "sum"), ("create_view", "width", "mid", "count")]
    for n, event in enumerate(_events(rng, count, kind, floats), 1):
        steps.append(event)
        if n == middle:
            # Mid-batch for every size but 1: the reopened catalog has an
            # unconsumed tail and an index rebuilt from the checkpoint.
            steps.append(REOPEN)
        if n % size == 0:
            steps += [REFRESH, *SAVE]
            if n - size < middle <= n:
                steps.append(CHECK)
    # The leaves gain consumers, one in the live catalog and one in a
    # reopened one, which answer at once, and keep refreshing with them.
    return steps + [
        REFRESH, CHECK, ("add_consumer", "top"), ("views_match_the_oracle", "top_sum"),
        REOPEN, ("add_consumer", "width"), ("views_match_the_oracle", "width_sum"),
        ("insert", "t", 3, Interval(10, 50), {"who": "amy"}),
        ("insert", "t", 4, Interval(40, POS_INF), {"who": "bob"}),
        REFRESH, CHECK,
    ]


def run_differential(directory, kind, grouped, batch, floats):
    """Replay one run (trees of capacity 4: a few dozen intervals
    already make a 3-level tree); the views' stats at the end."""
    with CatalogModel() as model:
        model.setup(str(directory), branching=4, leaf_capacity=4)
        model.replay(differential(kind, grouped, batch, floats))
        return model.catalog.stats()["views"]


@pytest.mark.parametrize("floats", [False, True], ids=["int", "float"])
@pytest.mark.parametrize("batch", [1, 7, 64, None], ids=["b1", "b7", "b64", "all"])
@pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "single"])
@pytest.mark.parametrize("kind", KINDS)
def test_refresh_matches_the_oracle(tmp_path, kind, grouped, batch, floats):
    stats = run_differential(tmp_path, kind, grouped, batch, floats)
    assert sorted(stats) == ["mid", "top", "top_sum", "width", "width_sum"]
    for name, view in stats.items():
        # Folding never applies more than 2m - 1 segments for m records;
        # MIN/MAX apply one effect per record.
        assert view["effects_applied"] <= 2 * view["events_consumed"], name


def windowed(kind, window, grouped):
    """One run of windowed views (paper, Section 4): a view with
    *window* over the table, grouped or not, and for SUM/COUNT/AVG one
    more over a consumed window-0 view (whose refresh retracts rows),
    under inserts and deletes in batches of 7 with a reopen mid-batch;
    every save restores, the invariant holds mid-way and at the end."""
    rng = random.Random(f"{kind}-{window!r}-{grouped}")
    key = "who" if grouped else None
    steps = [("create_table", "t"),
             ("create_view", "win", "t", kind, key, "downstream", window)]
    if spec_for(kind).invertible:
        steps += [("create_view", "mid", "t", "sum", key),
                  ("create_view", "over_mid", "mid", kind, key, "downstream", window)]
    for n, event in enumerate(_events(rng, 70, kind, False), 1):
        steps.append(event)
        if n == 38:
            steps.append(REOPEN)
        if n % 7 == 0:
            steps += [REFRESH, *SAVE]
        if n == 42:
            steps.append(CHECK)
    return steps + [REFRESH, CHECK, REOPEN, CHECK]


def run_windowed(directory, kind, window, grouped):
    with CatalogModel() as model:
        model.setup(str(directory), branching=4, leaf_capacity=4)
        model.replay(windowed(kind, window, grouped))


@pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "single"])
@pytest.mark.parametrize("window", [5, ANY_WINDOW], ids=["w5", "any"])
@pytest.mark.parametrize("kind", KINDS)
def test_windowed_views_match_the_oracle(tmp_path, kind, window, grouped):
    run_windowed(tmp_path, kind, window, grouped)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["sum", "avg"])
def test_float_sums_checkpoint_the_tree_as_it_is(tmp_path, kind, seed):
    """A node merge pushes sums down into its children, which moves a
    float sum by round-off -- also outside the spans the batch wrote.
    Each checkpoint must still hold every tree's step function as it is
    now (for these streams, a save that re-walked only the written spans
    keeps two segments that have become equal)."""
    rng = random.Random(f"floats-{kind}-{seed}")
    cat = DynamicCatalog(str(tmp_path), clock=lambda: 0.0,
                         branching=4, leaf_capacity=4)
    cat.create_table("t")
    view = cat.create_view("v", "t", kind)
    live = []
    for _ in range(60):
        for _ in range(rng.randrange(1, 6)):
            if live and rng.random() < 0.4:
                cat.delete("t", live.pop(rng.randrange(len(live))))
                continue
            start = rng.randrange(0, 100)
            value = rng.choice([0.1, 0.2, 0.3, 0.7, 1e-3, 3.3]) * rng.randrange(1, 5)
            row = cat.insert("t", value, (start, start + rng.randrange(1, 40)))
            live.append(row.tuple_id)
        cat.refresh()
        cat.save()
        with open(tmp_path / "dynamic.json") as handle:
            [(_, saved)] = json.load(handle)["views"]["v"]["trees"]
        want = [
            [list(value) if kind == "avg" else value, start, end]
            for value, start, end in step_function(view._trees[None])
        ]
        assert saved == want

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
        cat.create_view("top", "v", "sum")  # so that ``v`` holds rows
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

    def test_red_when_a_first_consumer_finds_no_rows(self, tmp_path, monkeypatch):
        # The DDL that gives a leaf its first consumer does not
        # materialize the leaf's rows from its trees.
        monkeypatch.setattr(DynamicView, "_materialize", lambda self: None)
        with pytest.raises(AssertionError):
            run_differential(tmp_path, "sum", True, 7, False)

    def test_red_when_regeneration_does_not_widen(self, tmp_path, monkeypatch):
        # Retract the overlapped rows but re-emit only the span the
        # records touched, not the span widened to cover those rows.
        monkeypatch.setattr(DynamicView, "_widen", lambda self, key, lo, hi: (lo, hi))
        with pytest.raises(AssertionError):
            run_differential(tmp_path, "sum", True, 7, False)

    def test_red_when_t_prime_takes_the_papers_open_interval(self, tmp_path, monkeypatch):
        # The paper's T' effect (end, inf): a fact ending at t - w still
        # counts at t (the pinned erratum is [end, inf)).
        monkeypatch.setattr(dynamic, "_ended", lambda records: [
            dataclasses.replace(record, start=math.nextafter(record.end, POS_INF),
                                end=POS_INF)
            for record in records if record.end != POS_INF
        ])
        with pytest.raises(AssertionError, match="window read"):
            run_windowed(tmp_path, "sum", ANY_WINDOW, True)

    def test_red_when_a_fixed_window_is_not_stretched(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dynamic, "stretched", lambda record, w: record)
        with pytest.raises(AssertionError, match="window read"):
            run_windowed(tmp_path, "max", 5, False)

    def test_red_when_t_prime_is_not_checkpointed(self, tmp_path, monkeypatch):
        entry = checkpoint._view_entry

        def without_ended(view):
            saved = entry(view)
            saved.pop("ended", None)
            return saved

        monkeypatch.setattr(checkpoint, "_view_entry", without_ended)
        with pytest.raises(AssertionError, match="restored"):
            run_windowed(tmp_path, "avg", ANY_WINDOW, False)
