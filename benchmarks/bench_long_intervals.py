"""Section 3.3's segment-tree claim: insertion cost vs valid-interval length.

An SB-tree insertion records a fully covering effect at an interior
interval and stops -- so the cost of inserting a tuple is O(h)
regardless of how long its valid interval is.  Structures without the
segment-tree feature (the directly materialized view; and, for
contrast, the two endpoints' leaf updates alone) pay proportionally to
the number of constant intervals covered.
"""

import pytest

from repro import Interval, SBTree
from repro.benchlib import Series, scaled, time_call
from repro.warehouse import MaterializedView
from repro.workloads import uniform

N = scaled(2000)
HORIZON = 100_000
BASE = uniform(N, horizon=HORIZON, max_duration=300, seed=51)


def _fresh_sb():
    tree = SBTree("sum", branching=32, leaf_capacity=32)
    for value, interval in BASE:
        tree.insert(value, interval)
    return tree


def test_insert_cost_flat_in_interval_length(report):
    lengths = [100, 1_000, 10_000, HORIZON - 2]
    sb = _fresh_sb()
    view = MaterializedView("sum")
    for value, interval in BASE:
        view.insert(value, interval)

    series = Series("interval_len", lengths)
    sb_reads, view_rows, sb_times, view_times = [], [], [], []
    for length in lengths:
        span = Interval(1, 1 + length)
        snapshot = sb.store.stats.snapshot()
        sb.insert(2, span)
        sb.delete(2, span)
        sb_reads.append((sb.store.stats - snapshot).reads / 2)
        before = view.rows_touched
        view.insert(2, span)
        view.delete(2, span)
        view_rows.append((view.rows_touched - before) / 2)
        sb_times.append(
            time_call(lambda: (sb.insert(2, span), sb.delete(2, span))) / 2
        )
        view_times.append(
            time_call(lambda: (view.insert(2, span), view.delete(2, span))) / 2
        )
    series.add("SB-tree node reads", sb_reads)
    series.add("view rows touched", view_rows)
    series.add("SB-tree s/op", sb_times)
    series.add("view s/op", view_times)
    report("Section 3.3 / insert cost vs valid-interval length", series.render(), series=series)
    # SB-tree cost is flat in the interval length...
    assert series.exponent("SB-tree node reads") < 0.25
    # ...the direct view's is essentially linear in covered intervals.
    assert series.exponent("view rows touched") > 0.6
    assert view_rows[-1] > 20 * sb_reads[-1]


def test_height_bounds_every_update(report):
    """On this workload no insert reads more than 3x height nodes: the
    first 200 facts of ``BASE`` inserted again into the b = l = 32 SUM
    tree that holds all 2,000 (seed 51, height 3).  3h is this
    workload's gate, not a general bound.  In general one insert reads
    at most 2h - 1 nodes on its two boundary paths, plus, at each
    endpoint that may now merge, an ``imerge`` descent and its
    ``nmerge`` sibling reads on a tree at most one level taller: 10h + 3
    in all (``update_bound`` in ``tests/test_oracle_machine.py``)."""
    sb = _fresh_sb()
    height = sb.height
    worst = 0
    for i, (value, interval) in enumerate(BASE[: scaled(200)]):
        snapshot = sb.store.stats.snapshot()
        sb.insert(value, interval)
        worst = max(worst, (sb.store.stats - snapshot).reads)
    report(
        "Section 3.3 / per-update node-read bound",
        f"height={height}  worst reads in {scaled(200)} updates={worst}  "
        f"bound=3*height={3 * height}",
    )
    assert worst <= 3 * height


@pytest.mark.parametrize("length", [100, 10_000, HORIZON - 2])
def test_benchmark_insert_by_length(benchmark, length):
    sb = _fresh_sb()
    span = Interval(1, 1 + length)

    def insert_and_undo():
        sb.insert(2, span)
        sb.delete(2, span)

    benchmark(insert_and_undo)
