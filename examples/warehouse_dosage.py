#!/usr/bin/env python3
"""A temporal data warehouse maintaining aggregate views incrementally.

The scenario of the paper's introduction: a warehouse stores the history
of prescriptions and keeps several temporal aggregate views fresh while
the source table keeps changing.  Each view is a TemporalAggregateView
over the one relation.  Views are backed by SB-trees (and an
MSB-tree) instead of materialized tables, so even insertions with very
long valid intervals are absorbed in a handful of node touches.

Also contrasts against direct materialization: the same update stream
is applied to a row-materialized view and the rows-touched counts are
compared (the paper's "more than half of SumDosage must be updated"
argument, quantified).

Run:  python examples/warehouse_dosage.py
"""

import random

from repro import Interval
from repro.relation import TemporalRelation
from repro.warehouse import ANY_WINDOW, MaterializedView, TemporalAggregateView
from repro.workloads import PRESCRIPTIONS


def main() -> None:
    prescriptions = TemporalRelation("prescription")

    # Three maintained views over the same base table.
    sum_view = TemporalAggregateView("SumDosage", prescriptions, "sum")
    avg5_view = TemporalAggregateView("AvgDosage5", prescriptions, "avg", window=5)
    cum_max = TemporalAggregateView(
        "CumMaxDosage", prescriptions, "max", window=ANY_WINDOW
    )

    print("Loading the Prescription table ...")
    rows = {}
    for p in PRESCRIPTIONS:
        rows[p.patient] = prescriptions.insert(p.dosage, p.valid, patient=p.patient)

    print(f"  SumDosage at day 19          : {sum_view.value_at(19)}")
    print(f"  AvgDosage5 at day 32         : {avg5_view.value_at(32):.2f}")
    print(f"  max dosage, 20-day window, day 50: {cum_max.value_at(50, 20)}")
    print(f"  max dosage, 7-day window, day 50 : {cum_max.value_at(50, 7)}")

    # ------------------------------------------------------------------
    # Source changes propagate automatically.
    # ------------------------------------------------------------------
    print("\nGill starts a long prescription <5, [15, 45)> ...")
    rows["Gill"] = prescriptions.insert(5, Interval(15, 45), patient="Gill")
    print(f"  SumDosage at day 19 is now   : {sum_view.value_at(19)}")

    print("Dan's prescription is retracted ...")
    try:
        prescriptions.delete(rows["Dan"])
    except ValueError as exc:
        # MIN/MAX aggregates are not incrementally maintainable under
        # deletions (paper, Section 3.4) -- the MAX view vetoes the
        # change.  Detach it first, then retract.
        print(f"  rejected: {exc}")
        cum_max.detach()
        prescriptions.delete(rows["Dan"])
        print("  retried after detaching the MAX view: ok")
    print(f"  SumDosage at day 12 is now   : {sum_view.value_at(12)}")

    print("\nSumDosage view contents (reconstructed from the SB-tree):")
    print(sum_view.table().pretty("sum_dosage"))

    # ------------------------------------------------------------------
    # The cost argument: SB-tree vs direct materialization under a
    # stream of long-interval updates.
    # ------------------------------------------------------------------
    print("\nReplaying 500 random updates (10% long intervals) into both")
    print("an SB-tree view and a directly materialized view ...")
    rng = random.Random(7)
    direct = MaterializedView("sum")
    for value, interval in prescriptions.facts():
        direct.insert(value, interval)  # start from the current contents
    direct.rows_touched = 0
    sb_stats_before = sum_view.index.store.stats.snapshot()
    for _ in range(500):
        start = rng.randrange(0, 5000)
        length = 4000 if rng.random() < 0.1 else rng.randrange(1, 50)
        value = rng.randint(1, 9)
        prescriptions.insert(value, Interval(start, start + length))
        direct.insert(value, Interval(start, start + length))
    sb_touches = (sum_view.index.store.stats - sb_stats_before).reads
    print(f"  direct view rows touched : {direct.rows_touched}")
    print(f"  SB-tree node reads       : {sb_touches}")
    print(f"  advantage                : {direct.rows_touched / sb_touches:.1f}x")

    agree = sum_view.table() == direct.to_table().finalized(direct.spec).coalesce()
    print(f"\nBoth representations agree: {agree}")
    assert agree


if __name__ == "__main__":
    main()
