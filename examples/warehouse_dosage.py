#!/usr/bin/env python3
"""A temporal data warehouse maintaining aggregate views incrementally.

The scenario of the paper's introduction: a warehouse stores the history
of prescriptions and keeps several temporal aggregate views fresh while
the source table keeps changing.  Each view lives in one
``DynamicCatalog`` over the prescription table.  Views are backed by
SB-trees (and MSB-trees) instead of materialized tables, so even
insertions with very long valid intervals are absorbed in a handful of
node touches.

Also contrasts against direct materialization: the same update stream
is applied to a row-materialized view and the rows-touched counts are
compared (the paper's "more than half of SumDosage must be updated"
argument, quantified).

Run:  python examples/warehouse_dosage.py
"""

import random

from repro import Interval, obs
from repro.warehouse import ANY_WINDOW, DynamicCatalog, MaterializedView
from repro.workloads import PRESCRIPTIONS


def main() -> None:
    catalog = DynamicCatalog()
    catalog.create_table("prescription")

    # Three maintained views over the same base table.
    catalog.create_view("SumDosage", "prescription", "sum")
    catalog.create_view("AvgDosage5", "prescription", "avg", window=5)
    catalog.create_view("CumMaxDosage", "prescription", "max", window=ANY_WINDOW)

    def read(view, t, **kwargs):
        return catalog.read(view, t, **kwargs).value

    print("Loading the Prescription table ...")
    rows = {}
    for p in PRESCRIPTIONS:
        rows[p.patient] = catalog.insert("prescription", p.dosage, p.valid,
                                         patient=p.patient)

    print(f"  SumDosage at day 19          : {read('SumDosage', 19)}")
    print(f"  AvgDosage5 at day 32         : {read('AvgDosage5', 32):.2f}")
    print(f"  max dosage, 20-day window, day 50: {read('CumMaxDosage', 50, w=20)}")
    print(f"  max dosage, 7-day window, day 50 : {read('CumMaxDosage', 50, w=7)}")

    # ------------------------------------------------------------------
    # Source changes propagate at the next read.
    # ------------------------------------------------------------------
    print("\nGill starts a long prescription <5, [15, 45)> ...")
    rows["Gill"] = catalog.insert("prescription", 5, Interval(15, 45), patient="Gill")
    print(f"  SumDosage at day 19 is now   : {read('SumDosage', 19)}")

    print("Dan's prescription is retracted ...")
    catalog.delete("prescription", rows["Dan"])
    try:
        catalog.refresh()
    except ValueError as exc:
        # MIN/MAX aggregates are not incrementally maintainable under
        # deletions (paper, Section 3.4) -- the MAX view refuses the
        # change when it refreshes.  Drop it; the others take it.
        print(f"  rejected: {exc}")
        catalog.drop_view("CumMaxDosage")
        print("  the MAX view is dropped: ok")
    print(f"  SumDosage at day 12 is now   : {read('SumDosage', 12)}")

    sum_view = catalog.view("SumDosage")
    print("\nSumDosage view contents (reconstructed from the SB-tree):")
    print(sum_view.table().pretty("sum_dosage"))

    # ------------------------------------------------------------------
    # The cost argument: SB-tree vs direct materialization under a
    # stream of long-interval updates, each refreshed as it arrives.
    # ------------------------------------------------------------------
    print("\nReplaying 500 random updates (10% long intervals) into both")
    print("an SB-tree view and a directly materialized view ...")
    rng = random.Random(7)
    direct = MaterializedView("sum")
    for value, interval in catalog.table("prescription").facts():
        direct.insert(value, interval)  # start from the current contents
    direct.rows_touched = 0
    with obs.collecting() as registry:
        for _ in range(500):
            start = rng.randrange(0, 5000)
            length = 4000 if rng.random() < 0.1 else rng.randrange(1, 50)
            value = rng.randint(1, 9)
            catalog.insert("prescription", value, Interval(start, start + length))
            catalog.refresh("SumDosage")
            direct.insert(value, Interval(start, start + length))
        sb_touches = registry.op_summary("insert_batch")["reads"]
    print(f"  direct view rows touched : {direct.rows_touched}")
    print(f"  SB-tree node reads       : {sb_touches}")
    print(f"  advantage                : {direct.rows_touched / sb_touches:.1f}x")

    agree = sum_view.table() == direct.to_table().finalized(direct.spec).coalesce()
    print(f"\nBoth representations agree: {agree}")
    assert agree


if __name__ == "__main__":
    main()
