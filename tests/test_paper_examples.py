"""Golden tests for the paper's worked examples (Figures 1-6, prose lookups).

Every expected value below is copied from the paper verbatim; these
tests pin the reproduction to the paper's own numbers.
"""

import pytest

from repro import (
    AggregateKind,
    DualTreeAggregate,
    FixedWindowTree,
    Interval,
    MSBTree,
    SBTree,
    check_tree,
)
from repro.warehouse import ANY_WINDOW, DynamicCatalog
from repro.workloads import PRESCRIPTIONS, prescription_facts


def build_tree(kind, b=4, l=4):
    tree = SBTree(kind, branching=b, leaf_capacity=l)
    for patient, dosage, valid in PRESCRIPTIONS:
        tree.insert(dosage, valid)
    return tree


def rows(table):
    return [(value, (interval.start, interval.end)) for value, interval in table]


def catalog_view(kind, window, b=4, l=4):
    """Figure 1's Prescription table in a catalog, under one view with
    *window*, refreshed."""
    catalog = DynamicCatalog(branching=b, leaf_capacity=l)
    catalog.create_table("prescription")
    view = catalog.create_view("v", "prescription", kind, window=window)
    for patient, dosage, valid in PRESCRIPTIONS:
        catalog.insert("prescription", dosage, valid, patient=patient)
    catalog.refresh()
    return catalog, view


class TestFigure3SumDosage:
    """SumDosage: instantaneous SUM over Prescription (Figure 3)."""

    EXPECTED = [
        (2, (5, 10)),
        (8, (10, 15)),
        (6, (15, 20)),
        (7, (20, 30)),
        (4, (30, 35)),
        (8, (35, 40)),
        (5, (40, 45)),
        (1, (45, 50)),
    ]

    def test_contents(self):
        tree = build_tree("sum")
        assert rows(tree.to_table()) == self.EXPECTED
        check_tree(tree)

    def test_contents_with_large_nodes(self):
        tree = build_tree("sum", b=32, l=48)
        assert rows(tree.to_table()) == self.EXPECTED

    def test_lookup_at_19_is_6(self):
        # Section 3.1's worked lookup: SumDosage at instant 19 is 6.
        tree = build_tree("sum")
        assert tree.lookup(19) == 6

    def test_value_at_15_20_is_6_per_intro(self):
        # Section 1: during [15, 20) Amy, Ben and Fred are active: 2+3+1.
        tree = build_tree("sum")
        for t in (15, 17, 19):
            assert tree.lookup(t) == 6
        # At time 20 Coy's prescription becomes active: value changes to 7.
        assert tree.lookup(20) == 7

    def test_range_query_14_28(self):
        # Section 3.2: rangeq over [14, 28) returns <8,[14,15)>, <6,[15,20)>,
        # <7,[20,28)>.
        tree = build_tree("sum")
        got = rows(tree.range_query(Interval(14, 28)))
        assert got == [(8, (14, 15)), (6, (15, 20)), (7, (20, 28))]

    def test_reconstruction_keeps_harmless_edges(self):
        # Section 3.2: the full reconstruction adds <0,(-inf,5)> and
        # <0,[50,inf)>.
        tree = build_tree("sum")
        full = tree.to_table(drop_initial=False)
        assert full.rows[0][0] == 0
        assert full.rows[0][1].start == float("-inf")
        assert full.rows[-1][0] == 0
        assert full.rows[-1][1].end == float("inf")


class TestFigure4AvgDosage:
    """AvgDosage: instantaneous AVG over Prescription (Figure 4)."""

    # Figure 4 as printed disagrees with the paper's own prose ("the
    # value of AvgDosage at time 32 is 4/3 = 1.33", Sections 4.1/4.2)
    # and with direct arithmetic over Figure 1; the values below follow
    # the prose (see DESIGN.md errata).
    EXPECTED = [
        (2.00, (5, 20)),
        (1.75, (20, 30)),
        (pytest.approx(4 / 3), (30, 35)),
        (2.00, (35, 40)),
        (2.50, (40, 45)),
        (1.00, (45, 50)),
    ]

    def test_contents(self):
        tree = build_tree("avg")
        table = tree.to_table().finalized(tree.spec).coalesce()
        assert rows(table) == self.EXPECTED

    def test_avg_at_32_is_4_thirds(self):
        # Section 4.1: the value of AvgDosage at time 32 is 4/3 = 1.33.
        tree = build_tree("avg")
        assert tree.lookup(32) == (4, 3)
        assert tree.lookup_final(32) == pytest.approx(4 / 3)


class TestFigure5AvgDosage5:
    """AvgDosage5: cumulative AVG with window offset 5 (Figure 5)."""

    # The fourth row of Figure 5 as extracted reads "2.50 [40, 50)",
    # which overlaps its neighbours; the SB-tree of Figure 18 (leaf
    # boundaries 45, 50) fixes it as 2.00 over [35,45) and 2.50 over
    # [45,50), matching direct arithmetic.
    EXPECTED = [
        (2.00, (5, 20)),
        (1.75, (20, 35)),
        (2.00, (35, 45)),
        (2.50, (45, 50)),
        (1.00, (50, 55)),
    ]

    @pytest.fixture()
    def fixed(self):
        tree = FixedWindowTree("avg", window=5, branching=4, leaf_capacity=4)
        for patient, dosage, valid in PRESCRIPTIONS:
            tree.insert(dosage, valid)
        return tree

    def test_contents_fixed_window(self, fixed):
        table = fixed.to_table().finalized(fixed.spec).coalesce()
        assert rows(table) == self.EXPECTED

    def test_avg5_at_32_is_175(self, fixed):
        # Section 1: the value of AvgDosage5 at time 32 is 1.75 (computed
        # over Amy, Ben, Coy, and Fred).
        assert fixed.lookup(32) == (7, 4)
        assert fixed.lookup_final(32) == pytest.approx(1.75)

    def test_avg5_at_19_is_2(self, fixed):
        # Section 4.2's worked example: the value at time 19 is <8, 4>.
        assert fixed.lookup(19) == (8, 4)

    def test_contents_dual_tree(self):
        dual = DualTreeAggregate("avg", branching=4, leaf_capacity=4)
        for patient, dosage, valid in PRESCRIPTIONS:
            dual.insert(dosage, valid)
        table = dual.window_table(5).finalized(dual.spec).coalesce()
        assert rows(table) == self.EXPECTED
        assert dual.window_lookup(19, 5) == (8, 4)
        assert dual.window_lookup(32, 5) == (7, 4)

    def test_contents_through_the_catalog(self):
        # The fixed window (Section 4.1) and the dual pair (4.2), each
        # read back as the view's table.  Row [20, 35) reads 1.75 from
        # its first instant: Dan's prescription, ending at 15 = 20 - 5,
        # is out of the window (T' takes [end, inf), the pinned erratum).
        _, fixed = catalog_view("avg", 5)
        assert rows(fixed.table()) == self.EXPECTED
        catalog, dual = catalog_view("avg", ANY_WINDOW)
        assert rows(dual.table(w=5)) == self.EXPECTED
        assert catalog.read("v", 20, w=5).value == 1.75
        assert catalog.read("v", 32, w=5).value == pytest.approx(1.75)

    def test_figure18_tree_through_the_catalog(self):
        # The view's one SB-tree is Figure 18's: <7, 4> at 32 (Section
        # 4.1), its breakpoints at the stretched ends 20, 45, 50, 55.
        catalog, view = catalog_view("avg", 5)
        [tree] = view._trees.values()
        assert tree.lookup(32) == (7, 4)
        assert {20, 45, 50, 55} <= {start for _, start, _ in tree.leaf_pieces()}
        assert catalog.read("v", 32).value == pytest.approx(1.75)

    def test_window_zero_is_instantaneous(self):
        dual = DualTreeAggregate("avg", branching=4, leaf_capacity=4)
        for patient, dosage, valid in PRESCRIPTIONS:
            dual.insert(dosage, valid)
        table = dual.window_table(0).finalized(dual.spec).coalesce()
        assert rows(table) == TestFigure4AvgDosage.EXPECTED


class TestFigure6MaxDosage20:
    """MaxDosage20: cumulative MAX with window offset 20 (Figure 6)."""

    EXPECTED = [
        (2, (5, 10)),
        (3, (10, 35)),
        (4, (35, 65)),
        (1, (65, 70)),
    ]

    def test_contents_fixed_window(self):
        tree = FixedWindowTree("max", window=20, branching=4, leaf_capacity=4)
        for patient, dosage, valid in PRESCRIPTIONS:
            tree.insert(dosage, valid)
        assert rows(tree.to_table()) == self.EXPECTED

    def test_contents_msb_tree(self):
        msb = MSBTree("max", branching=4, leaf_capacity=4)
        for patient, dosage, valid in PRESCRIPTIONS:
            msb.insert(dosage, valid)
        table = msb.window_query(Interval(0, 80), 20)
        interesting = [
            (value, span)
            for value, span in rows(table)
            if value is not None
        ]
        assert interesting == [
            (2, (5, 10)),
            (3, (10, 35)),
            (4, (35, 65)),
            (1, (65, 70)),
        ]

    def test_contents_through_the_catalog(self):
        # The fixed window (Section 4.1) and the MSB-tree (4.3).
        _, fixed = catalog_view("max", 20)
        assert rows(fixed.table()) == self.EXPECTED
        catalog, msb = catalog_view("max", ANY_WINDOW)
        assert rows(msb.table(w=20)) == self.EXPECTED
        assert catalog.read("v", 50, w=20).value == 4

    def test_max20_at_50_is_4(self):
        # Section 4.3's worked mlookup: MaxDosage20 at time 50 is 4.
        msb = MSBTree("max", branching=4, leaf_capacity=4)
        for patient, dosage, valid in PRESCRIPTIONS:
            msb.insert(dosage, valid)
        assert msb.window_lookup(50, 20) == 4


class TestSection33InsertExamples:
    """The Gill / Hal / Ida insertion narratives of Section 3.3."""

    def test_gill_insert_updates_whole_range(self):
        # Inserting <"Gill", 5, [15, 45)> raises SumDosage by 5 on the
        # third through seventh constant intervals of Figure 3.
        tree = build_tree("sum")
        tree.insert(5, Interval(15, 45))
        assert rows(tree.to_table()) == [
            (2, (5, 10)),
            (8, (10, 15)),
            (11, (15, 20)),
            (12, (20, 30)),
            (9, (30, 35)),
            (13, (35, 40)),
            (10, (40, 45)),
            (1, (45, 50)),
        ]
        check_tree(tree)

    def test_hal_insert_splits_leaf_interval(self):
        # Inserting <"Hal", 1, [24, 30)> divides [20, 30) into [20, 24)
        # with value 6 and [24, 30) with value 7... relative to the tree
        # that already contains Gill? No: Section 3.3 speaks of the
        # original Figure 9 tree where [20, 30) has value 7; adding one
        # more gives [20,24)->7, [24,30)->8.
        tree = build_tree("sum")
        tree.insert(1, Interval(24, 30))
        table = rows(tree.to_table())
        assert (7, (20, 24)) in table
        assert (8, (24, 30)) in table

    def test_hal_narrow_insert_makes_three_intervals(self):
        tree = build_tree("sum")
        tree.insert(1, Interval(24, 28))
        table = rows(tree.to_table())
        assert (7, (20, 24)) in table
        assert (8, (24, 28)) in table
        assert (7, (28, 30)) in table

    def test_ida_insert_then_delete_roundtrip(self):
        # Section 3.4: inserting <"Ida", 1, [17, 47)> and then deleting it
        # restores the aggregate (Figures 10 -> 11 -> compaction -> 10).
        tree = build_tree("sum")
        before = rows(tree.to_table())
        tree.insert(1, Interval(17, 47))
        after_insert = rows(tree.to_table())
        assert after_insert != before
        assert (6, (15, 17)) in after_insert
        assert (7, (17, 20)) in after_insert  # 6 + 1 inside [17, 47)
        tree.delete(1, Interval(17, 47))
        assert rows(tree.to_table()) == before
        check_tree(tree)

    def test_negative_insert_equals_delete(self):
        # Section 3.6: inserting <"Jay", -1, [17, 47)> has the same effect
        # as deleting <"Iva", 1, [17, 47)>.
        t1 = build_tree("sum")
        t1.insert(1, Interval(17, 47))
        t1.delete(1, Interval(17, 47))
        t2 = build_tree("sum")
        t2.insert(1, Interval(17, 47))
        t2.insert(-1, Interval(17, 47))
        assert rows(t1.to_table()) == rows(t2.to_table())


class TestFigure24Roundtrip:
    """Figure 24: insert all prescriptions, delete them in reverse order.

    The first and last snapshots are both empty SB-trees: a root-only
    leaf with the single interval (-inf, inf) and value v0.
    """

    def test_roundtrip_to_empty(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        for patient, dosage, valid in PRESCRIPTIONS:
            tree.insert(dosage, valid)
            check_tree(tree)
        for patient, dosage, valid in reversed(PRESCRIPTIONS):
            tree.delete(dosage, valid)
            check_tree(tree)
        assert tree.node_count() == 1
        root = tree.store.read(tree.store.get_root())
        assert root.is_leaf
        assert root.times == []
        assert root.values == [0]

    def test_roundtrip_all_kinds_invertible(self):
        for kind in ("sum", "count", "avg"):
            tree = SBTree(kind, branching=4, leaf_capacity=4)
            for patient, dosage, valid in PRESCRIPTIONS:
                tree.insert(dosage, valid)
            for patient, dosage, valid in PRESCRIPTIONS:
                tree.delete(dosage, valid)
            assert tree.node_count() == 1
            assert tree.to_table().rows == []


class TestMinMaxRestrictions:
    def test_min_max_reject_deletions(self):
        for kind in ("min", "max"):
            tree = build_tree(kind)
            with pytest.raises(ValueError):
                tree.delete(2, Interval(10, 40))

    def test_min_contents(self):
        tree = build_tree("min")
        tree.compact()
        table = rows(tree.to_table())
        # Hand-derived from Figure 2: min dosage per constant interval.
        assert table == [
            (2, (5, 10)),
            (1, (10, 50)),
        ]

    def test_max_contents(self):
        tree = build_tree("max")
        tree.compact()
        assert rows(tree.to_table()) == [
            (2, (5, 10)),
            (3, (10, 30)),
            (2, (30, 35)),
            (4, (35, 45)),
            (1, (45, 50)),
        ]
