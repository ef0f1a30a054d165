"""Tests for the smaller library extensions: partitioned materialization,
MSB interval extremum, table sampling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ConstantIntervalTable, Interval, MSBTree
from repro.core import reference
from repro.warehouse import DynamicCatalog
from repro.workloads import PRESCRIPTIONS


class TestPartitionedMaterialization:
    def test_grouped_matches_one_shot(self):
        """A grouped view, key by key, is what the reference computes in
        one shot over that key's rows."""
        catalog = DynamicCatalog(branching=4, leaf_capacity=4)
        catalog.create_table("prescription")
        catalog.create_view("x", "prescription", "sum", key="patient")
        for p in PRESCRIPTIONS:
            catalog.insert("prescription", p.dosage, p.valid, patient=p.patient)
        rows = [(row.value, row.valid, row.payload["patient"])
                for row in catalog.table("prescription")]
        assert catalog.read("x", 25).value == {
            p.patient: reference.view_value(rows, "sum", 25, p.patient)
            for p in PRESCRIPTIONS
        }


class TestExtremumOver:
    def build(self):
        msb = MSBTree("max", branching=4, leaf_capacity=4)
        for p in PRESCRIPTIONS:
            msb.insert(p.dosage, p.valid)
        return msb

    def test_known_intervals(self):
        msb = self.build()
        assert msb.extremum_over(10, 30) == 3
        assert msb.extremum_over(35, 44) == 4
        assert msb.extremum_over(46, 49) == 1
        assert msb.extremum_over(100, 200) is None

    def test_point_interval(self):
        msb = self.build()
        assert msb.extremum_over(37, 37) == 4  # same as lookup(37)
        assert msb.extremum_over(37, 37) == msb.lookup(37)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            self.build().extremum_over(10, 9)

    @given(
        facts=st.lists(
            st.tuples(
                st.integers(0, 9),
                st.tuples(st.integers(0, 100), st.integers(1, 40)),
            ),
            max_size=25,
        ),
        lo=st.integers(-10, 150),
        width=st.integers(0, 80),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_window_lookup(self, facts, lo, width):
        msb = MSBTree("min", branching=4, leaf_capacity=4)
        normalized = []
        for value, (start, length) in facts:
            interval = Interval(start, start + length)
            normalized.append((value, interval))
            msb.insert(value, interval)
        hi = lo + width
        assert msb.extremum_over(lo, hi) == msb.window_lookup(hi, width)
        assert msb.extremum_over(lo, hi) == reference.cumulative_value(
            normalized, "min", hi, width
        )


class TestTableSampling:
    def table(self):
        return ConstantIntervalTable(
            [(1, Interval(0, 10)), (2, Interval(10, 20))]
        )

    def test_sample_series(self):
        got = list(self.table().sample(0, 20, 5))
        assert got == [(0, 1), (5, 1), (10, 2), (15, 2)]

    def test_sample_outside_domain_yields_none(self):
        got = dict(self.table().sample(-5, 30, 5))
        assert got[-5] is None
        assert got[25] is None
        assert got[10] == 2

    def test_sample_step_validation(self):
        with pytest.raises(ValueError):
            list(self.table().sample(0, 10, 0))

    def test_span(self):
        assert self.table().span == Interval(0, 20)
        assert ConstantIntervalTable().span is None
