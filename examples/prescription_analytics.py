#!/usr/bin/env python3
"""Temporal analytics with maintained views (TSQL2-style grouping).

The paper frames temporal aggregates as query-language constructs
(TQuel, TSQL2): aggregates grouped over time, partitioned by
attributes, or made cumulative.  Each shape here is an incrementally
maintained view of one ``DynamicCatalog`` over a prescriptions table,
and each answer is checked against the brute-force reference semantics
(``repro.core.reference``).

Run:  python examples/prescription_analytics.py
"""

from repro import Interval
from repro.core import reference
from repro.warehouse import DynamicCatalog
from repro.workloads import PRESCRIPTIONS


def main() -> None:
    catalog = DynamicCatalog()
    prescriptions = catalog.create_table("prescription")
    for p in PRESCRIPTIONS:
        catalog.insert("prescription", p.dosage, p.valid, patient=p.patient)

    def facts():
        return [(row.value, row.valid) for row in prescriptions]

    def read(view, t, **kwargs):
        return catalog.read(view, t, **kwargs).value

    # ------------------------------------------------------------------
    # Temporal grouping: one row per constant interval (SumDosage).
    # ------------------------------------------------------------------
    total = catalog.create_view("SumDosage", "prescription", "sum")
    print("Total daily dosage over time:")
    print(total.table().pretty("sum_dosage"))
    assert total.table() == reference.instantaneous_table(facts(), "sum")

    # ------------------------------------------------------------------
    # Attribute partitioning (TSQL2 GROUP BY patient + temporal grouping).
    # ------------------------------------------------------------------
    catalog.create_view("DosageByPatient", "prescription", "sum", key="patient")
    rows = [(row.value, row.valid, row.payload["patient"]) for row in prescriptions]
    print("\nPer-patient dosage at day 19:")
    for patient, value in read("DosageByPatient", 19).items():
        print(f"  {patient:>5}: {value}")
        assert value == reference.view_value(rows, "sum", 19, patient)

    # ------------------------------------------------------------------
    # Cumulative aggregates: the paper's AvgDosage5, window offset 5.
    # ------------------------------------------------------------------
    avg5 = catalog.create_view("AvgDosage5", "prescription", "avg", window=5)
    print("\nAvgDosage5 (average over prescriptions active in the last")
    print("five days), reproduced from Figure 5:")
    print(avg5.table().pretty("avg_dosage"))
    assert read("AvgDosage5", 32) == 1.75

    # ------------------------------------------------------------------
    # The views stay fresh as the base table changes.
    # ------------------------------------------------------------------
    print(f"\nSumDosage at day 19: {read('SumDosage', 19)}")
    catalog.insert("prescription", 5, Interval(15, 45), patient="Gill")
    print(f"After Gill's new prescription: {read('SumDosage', 19)}")
    one_shot = reference.instantaneous_value(facts(), "sum", 19)
    print(f"One-shot recomputation agrees: {one_shot}")
    assert read("SumDosage", 19) == one_shot
    assert read("DosageByPatient", 19, key="Gill") == 5


if __name__ == "__main__":
    main()
