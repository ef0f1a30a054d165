"""Unit tests for constant-interval result tables and step-function merging."""

import pytest

from repro import ConstantIntervalTable, Interval, NEG_INF, POS_INF, spec_for
from repro.core.results import merge_step_functions, trim_initial


def table(*rows):
    return ConstantIntervalTable((v, Interval(a, b)) for v, a, b in rows)


class TestConstruction:
    def test_contiguity_enforced(self):
        with pytest.raises(ValueError):
            table((1, 0, 5), (2, 6, 10))

    def test_empty_ok(self):
        assert len(ConstantIntervalTable()) == 0


class TestQueries:
    def test_value_at(self):
        t = table((1, 0, 5), (2, 5, 10))
        assert t.value_at(0) == 1
        assert t.value_at(4) == 1
        assert t.value_at(5) == 2
        with pytest.raises(KeyError):
            t.value_at(10)
        with pytest.raises(KeyError):
            t.value_at(-1)

    def test_value_at_unbounded(self):
        t = ConstantIntervalTable([(9, Interval(NEG_INF, POS_INF))])
        assert t.value_at(-1e12) == 9

    def test_value_at_reads_log_r_row_starts(self):
        """A lookup is a binary search, not a scan of every row start:
        the dual-tree window query calls it for every edge of three
        tables, so a scan made that O(r^2)."""

        class CountedInterval(Interval):
            reads = 0

            @property
            def start(self):
                CountedInterval.reads += 1
                return self.__dict__["start"]

            @start.setter
            def start(self, value):
                self.__dict__["start"] = value

        n = 10_000
        t = ConstantIntervalTable((i, CountedInterval(i, i + 1)) for i in range(n))
        for probe in (0, 1, n // 2, n - 1):
            CountedInterval.reads = 0
            assert t.value_at(probe + 0.5) == probe
            assert CountedInterval.reads <= 16  # ceil(log2(10k)) + 1 + contains
        CountedInterval.reads = 0
        with pytest.raises(KeyError):
            t.value_at(n + 3)
        assert CountedInterval.reads <= 16

    def test_restrict(self):
        t = table((1, 0, 5), (2, 5, 10), (3, 10, 20))
        got = t.restrict(Interval(3, 12))
        assert got == table((1, 3, 5), (2, 5, 10), (3, 10, 12))

    def test_coalesce(self):
        t = table((1, 0, 5), (1, 5, 10), (2, 10, 12))
        assert t.coalesce() == table((1, 0, 10), (2, 10, 12))

    def test_mapped_and_finalized(self):
        t = ConstantIntervalTable([((7, 4), Interval(0, 5))])
        assert t.finalized(spec_for("avg")).rows[0][0] == pytest.approx(1.75)

    def test_pretty_output(self):
        text = table((1.5, 0, 5)).pretty("sum dosage")
        assert "sum dosage" in text
        assert "[0, 5)" in text
        assert "1.50" in text


class TestTrimInitial:
    def test_trims_edges_only(self):
        spec = spec_for("sum")
        t = table((0, 0, 5), (3, 5, 10), (0, 10, 15), (4, 15, 20), (0, 20, 25))
        got = trim_initial(t, spec)
        assert got == table((3, 5, 10), (0, 10, 15), (4, 15, 20))

    def test_all_initial(self):
        spec = spec_for("sum")
        assert len(trim_initial(table((0, 0, 5), (0, 5, 9)), spec)) == 0

    def test_min_max_null(self):
        spec = spec_for("min")
        t = table((None, 0, 5), (2, 5, 10))
        assert trim_initial(t, spec) == table((2, 5, 10))


class TestMergeStepFunctions:
    def test_pointwise_sum(self):
        f = table((1, 0, 10), (5, 10, 20))
        g = table((10, 0, 5), (20, 5, 20))
        merged = merge_step_functions(
            [f, g], lambda a, b: a + b, Interval(0, 20)
        )
        assert merged == table((11, 0, 5), (21, 5, 10), (25, 10, 20))

    def test_breakpoints_clipped_to_window(self):
        f = table((1, 0, 100))
        g = table((2, 0, 50), (3, 50, 100))
        merged = merge_step_functions(
            [f, g], lambda a, b: a * b, Interval(10, 40)
        )
        assert merged == table((2, 10, 40))

    def test_three_functions(self):
        f = table((1, 0, 10))
        g = table((2, 0, 10))
        h = table((4, 0, 4), (8, 4, 10))
        merged = merge_step_functions(
            [f, g, h], lambda a, b, c: a + b + c, Interval(0, 10)
        )
        assert merged == table((7, 0, 4), (11, 4, 10))


class TestCsvInterchange:
    def test_roundtrip(self):
        import io

        t = table((1, 0, 5), (2.5, 5, 10))
        buffer = io.StringIO()
        t.to_csv(buffer)
        buffer.seek(0)
        assert ConstantIntervalTable.from_csv(buffer) == t

    def test_infinite_endpoints_and_nulls(self):
        import io

        t = ConstantIntervalTable(
            [(None, Interval(NEG_INF, 5)), (3, Interval(5, POS_INF))]
        )
        buffer = io.StringIO()
        t.to_csv(buffer)
        buffer.seek(0)
        got = ConstantIntervalTable.from_csv(buffer)
        assert got == t

    def test_avg_pairs_rejected(self):
        import io

        t = ConstantIntervalTable([((7, 4), Interval(0, 5))])
        with pytest.raises(ValueError):
            t.to_csv(io.StringIO())

    def test_int_identity_preserved(self):
        import io

        t = table((5, 0, 10))
        buffer = io.StringIO()
        t.to_csv(buffer)
        buffer.seek(0)
        got = ConstantIntervalTable.from_csv(buffer)
        value, interval = got.rows[0]
        assert isinstance(value, int)
        assert isinstance(interval.start, int)


class TestFromBoundaries:
    def test_samples_each_piece(self):
        t = ConstantIntervalTable.from_boundaries(
            [5, 10], lambda x: "lo" if x < 5 else ("mid" if x < 10 else "hi"),
            lo=0, hi=20,
        )
        assert t == table(("lo", 0, 5), ("mid", 5, 10), ("hi", 10, 20))

    def test_unbounded_domain(self):
        t = ConstantIntervalTable.from_boundaries([0], lambda x: x >= 0)
        assert t.value_at(-100) is False
        assert t.value_at(100) is True
