#!/usr/bin/env python3
"""Temporal analytics with maintained views (TSQL2-style grouping).

The paper frames temporal aggregates as query-language constructs
(TQuel, TSQL2): aggregates grouped over time, partitioned by
attributes, or made cumulative.  Each shape here is an incrementally
maintained SB-tree view over a prescriptions table, and each answer is
checked against the brute-force reference semantics
(``repro.core.reference``).

Run:  python examples/prescription_analytics.py
"""

from repro import Interval
from repro.core import reference
from repro.relation import TemporalRelation
from repro.warehouse import TemporalAggregateView
from repro.workloads import PRESCRIPTIONS


def main() -> None:
    prescriptions = TemporalRelation("prescription")
    for p in PRESCRIPTIONS:
        prescriptions.insert(p.dosage, p.valid, patient=p.patient)

    def facts():
        return [(row.value, row.valid) for row in prescriptions]

    # ------------------------------------------------------------------
    # Temporal grouping: one row per constant interval (SumDosage).
    # ------------------------------------------------------------------
    total = TemporalAggregateView("SumDosage", prescriptions, "sum")
    print("Total daily dosage over time:")
    print(total.table().pretty("sum_dosage"))
    assert total.table() == reference.instantaneous_table(facts(), "sum")

    # ------------------------------------------------------------------
    # The aggregated quantity is any function of a tuple: here a tuple
    # under 2 units/day adds nothing to the sum.
    # ------------------------------------------------------------------
    heavy = TemporalAggregateView(
        "HeavyDosage", prescriptions, "sum",
        value_of=lambda row: row.value if row.value >= 2 else 0,
    )
    print("\nSumming only prescriptions of 2+ units/day:")
    print(heavy.table().pretty("sum_dosage"))

    # ------------------------------------------------------------------
    # Attribute partitioning (TSQL2 GROUP BY patient + temporal grouping).
    # ------------------------------------------------------------------
    per_patient = TemporalAggregateView(
        "DosageByPatient", prescriptions, "sum",
        key_of=lambda row: row.payload["patient"],
    )
    rows = [(row.value, row.valid, row.payload["patient"]) for row in prescriptions]
    print("\nPer-patient dosage at day 19:")
    for patient, value in per_patient.values_at(19).items():
        print(f"  {patient:>5}: {value}")
        assert value == reference.view_value(rows, "sum", 19, patient)

    # ------------------------------------------------------------------
    # Cumulative aggregates: the paper's AvgDosage5, window offset 5.
    # ------------------------------------------------------------------
    avg5 = TemporalAggregateView("AvgDosage5", prescriptions, "avg", window=5)
    print("\nAvgDosage5 (average over prescriptions active in the last")
    print("five days), reproduced from Figure 5:")
    print(avg5.table().pretty("avg_dosage"))
    assert avg5.value_at(32) == 1.75

    # ------------------------------------------------------------------
    # The views stay fresh as the base table changes.
    # ------------------------------------------------------------------
    print(f"\nSumDosage at day 19: {total.value_at(19)}")
    prescriptions.insert(5, Interval(15, 45), patient="Gill")
    print(f"After Gill's new prescription: {total.value_at(19)}")
    one_shot = reference.instantaneous_value(facts(), "sum", 19)
    print(f"One-shot recomputation agrees: {one_shot}")
    assert total.value_at(19) == one_shot
    assert per_patient.value_at(19, key="Gill") == 5


if __name__ == "__main__":
    main()
