"""Tests for the baseline algorithms: every one must match the oracle,
and all mutually agree with the SB-tree on identical inputs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Interval, SBTree
from repro.baselines import (
    AggregationTree,
    KOrderedAggregationTree,
    RedBlackTree,
    aggregation_tree,
    balanced_tree,
    bucket,
    endpoint_sort,
    merge_sort,
    naive,
)
from repro.core import reference
from repro.workloads import PRESCRIPTIONS, prescription_facts

times = st.integers(min_value=0, max_value=120)
values = st.integers(min_value=-9, max_value=9)


@st.composite
def intervals(draw):
    start = draw(times)
    return Interval(start, start + draw(st.integers(min_value=1, max_value=60)))


facts_lists = st.lists(st.tuples(values, intervals()), min_size=0, max_size=20)

ONE_SHOT_INVERTIBLE = [naive.compute, endpoint_sort.compute, balanced_tree.compute,
                       aggregation_tree.compute, bucket.compute]
ONE_SHOT_MINMAX = [naive.compute, merge_sort.compute, aggregation_tree.compute,
                   bucket.compute]


# ----------------------------------------------------------------------
# Red-black tree substrate
# ----------------------------------------------------------------------
class TestRedBlackTree:
    @given(keys=st.lists(st.integers(0, 10_000), max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_sorted_iteration_and_invariants(self, keys):
        tree = RedBlackTree()
        for k in keys:
            tree.insert(k, k * 2)
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == sorted(set(keys))
        assert len(tree) == len(set(keys))

    def test_duplicate_combination(self):
        tree = RedBlackTree()
        tree.insert(5, 10, combine=lambda a, b: a + b)
        tree.insert(5, 7, combine=lambda a, b: a + b)
        assert tree.get(5) == 17
        assert len(tree) == 1

    def test_get_default(self):
        tree = RedBlackTree()
        assert tree.get(42) is None
        assert tree.get(42, "missing") == "missing"

    def test_sorted_insertion_stays_balanced(self):
        tree = RedBlackTree()
        for k in range(1000):
            tree.insert(k, k)
        # A degenerate BST would have black height ~1; RB must be O(log n).
        assert tree.check_invariants() >= 5


# ----------------------------------------------------------------------
# One-shot algorithms vs the oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algo", ONE_SHOT_INVERTIBLE)
@pytest.mark.parametrize("kind", ["sum", "count", "avg"])
@given(facts=facts_lists)
@settings(max_examples=25, deadline=None)
def test_invertible_one_shots_match_oracle(algo, kind, facts):
    assert algo(facts, kind) == reference.instantaneous_table(facts, kind)


@pytest.mark.parametrize("algo", ONE_SHOT_MINMAX)
@pytest.mark.parametrize("kind", ["min", "max"])
@given(facts=facts_lists)
@settings(max_examples=25, deadline=None)
def test_minmax_one_shots_match_oracle(algo, kind, facts):
    assert algo(facts, kind) == reference.instantaneous_table(facts, kind)


@pytest.mark.parametrize("algo", ONE_SHOT_INVERTIBLE)
def test_one_shots_reproduce_figure3(algo):
    got = algo(prescription_facts(), "sum")
    assert [(v, (i.start, i.end)) for v, i in got] == [
        (2, (5, 10)),
        (8, (10, 15)),
        (6, (15, 20)),
        (7, (20, 30)),
        (4, (30, 35)),
        (8, (35, 40)),
        (5, (40, 45)),
        (1, (45, 50)),
    ]


@pytest.mark.parametrize("kind", ["sum", "avg", "min", "max"])
@given(facts=facts_lists)
@settings(max_examples=20, deadline=None)
def test_all_algorithms_mutually_agree(kind, facts):
    algos = ONE_SHOT_MINMAX
    if kind in ("sum", "avg"):
        # merge_sort is the MIN/MAX baseline, but it merges any kind.
        algos = ONE_SHOT_INVERTIBLE + [merge_sort.compute]
    tables = [algo(facts, kind) for algo in algos]
    for table in tables[1:]:
        assert table == tables[0]


def test_endpoint_sort_rejects_minmax():
    with pytest.raises(ValueError):
        endpoint_sort.compute([], "min")
    with pytest.raises(ValueError):
        balanced_tree.compute([], "max")


def test_endpoint_sort_first_marks_match_paper():
    """Appendix A: the first three combined marks for Prescription are
    <2,5>, <6,10>, <-2,15>."""
    from repro.core.values import spec_for

    spec = spec_for("sum")
    marks = endpoint_sort.generate_marks(
        [(v, i) for v, i in prescription_facts()], spec
    )
    marks.sort(key=lambda m: m[0])
    combined = []
    for t, e in marks:
        if combined and combined[-1][0] == t:
            combined[-1] = (t, spec.acc(combined[-1][1], e))
        else:
            combined.append((t, e))
    assert combined[:3] == [(5, 2), (10, 6), (15, -2)]


# ----------------------------------------------------------------------
# Aggregation tree (incremental)
# ----------------------------------------------------------------------
class TestAggregationTree:
    @given(facts=facts_lists, t=times)
    @settings(max_examples=40, deadline=None)
    def test_incremental_lookup(self, facts, t):
        tree = AggregationTree("sum")
        for value, interval in facts:
            tree.insert(value, interval)
        assert tree.lookup(t) == reference.instantaneous_value(facts, "sum", t)

    @given(facts=facts_lists)
    @settings(max_examples=30, deadline=None)
    def test_insert_then_delete_roundtrip(self, facts):
        tree = AggregationTree("sum")
        for value, interval in facts:
            tree.insert(value, interval)
        for value, interval in facts:
            tree.delete(value, interval)
        assert tree.to_table().rows == []

    def test_sorted_inserts_degenerate_depth(self):
        """The KS95 worst case: ordered arrivals build a spine."""
        tree = AggregationTree("count")
        n = 200
        for i in range(n):
            tree.insert(1, Interval(i, i + 5))
        balanced = SBTree("count", branching=8, leaf_capacity=8)
        assert tree.depth() > n / 2  # essentially linear
        for i in range(n):
            balanced.insert(1, Interval(i, i + 5))
        assert balanced.height < 8  # logarithmic

    def test_matches_sbtree_contents(self):
        tree = AggregationTree("avg")
        sb = SBTree("avg", branching=4, leaf_capacity=4)
        for p in PRESCRIPTIONS:
            tree.insert(p.dosage, p.valid)
            sb.insert(p.dosage, p.valid)
        assert tree.to_table() == sb.to_table()

    def test_lookup_outside_domain(self):
        tree = AggregationTree("sum", lo=0, hi=100)
        with pytest.raises(KeyError):
            tree.lookup(-1)


# ----------------------------------------------------------------------
# k-ordered aggregation tree
# ----------------------------------------------------------------------
class TestKOrderedAggregationTree:
    def test_results_match_oracle_for_ordered_stream(self):
        facts = [(1, Interval(i, i + 10)) for i in range(100)]
        tree = KOrderedAggregationTree("count", k=0)
        for value, interval in facts:
            tree.insert(value, interval)
        assert tree.to_table() == reference.instantaneous_table(facts, "count")

    def test_garbage_collection_bounds_memory(self):
        tree = KOrderedAggregationTree("count", k=2)
        unbounded = AggregationTree("count")
        for i in range(500):
            tree.insert(1, Interval(i, i + 5))
            unbounded.insert(1, Interval(i, i + 5))
        assert tree.live_node_count < 40
        assert unbounded.node_count > 500

    def test_k_disorder_tolerated(self):
        import random

        rng = random.Random(7)
        starts = list(range(200))
        # Perturb each position by at most k.
        k = 4
        for i in range(0, len(starts) - k, k):
            chunk = starts[i : i + k]
            rng.shuffle(chunk)
            starts[i : i + k] = chunk
        facts = [(1, Interval(s, s + 8)) for s in starts]
        tree = KOrderedAggregationTree("count", k=k)
        for value, interval in facts:
            tree.insert(value, interval)
        assert tree.to_table() == reference.instantaneous_table(facts, "count")

    def test_finalized_instants_not_indexable(self):
        tree = KOrderedAggregationTree("count", k=0)
        for i in range(50):
            tree.insert(1, Interval(i, i + 5))
        with pytest.raises(KeyError):
            tree.lookup(3)  # long since finalized and collected

    def test_order_violation_rejected(self):
        tree = KOrderedAggregationTree("count", k=0)
        for i in range(10):
            tree.insert(1, Interval(i * 10, i * 10 + 5))
        with pytest.raises(ValueError):
            tree.insert(1, Interval(0, 4))


# ----------------------------------------------------------------------
# Bucket algorithm specifics
# ----------------------------------------------------------------------
class TestBucketAlgorithm:
    @given(facts=facts_lists, nb=st.integers(min_value=1, max_value=9))
    @settings(max_examples=25, deadline=None)
    def test_bucket_count_does_not_change_results(self, facts, nb):
        got = bucket.compute(facts, "sum", num_buckets=nb)
        assert got == reference.instantaneous_table(facts, "sum")

    def test_long_tuples_go_to_meta_array(self):
        facts = [
            (1, Interval(0, 100)),  # spans everything -> meta
            (2, Interval(5, 9)),
            (3, Interval(91, 99)),
        ]
        lo, hi = 0, 100
        edges = [lo + i * 10.0 for i in range(10)] + [hi]
        buckets, meta = bucket.partition(facts, edges)
        assert len(meta) == 1
        assert meta[0][0] == 1
        assert sum(len(b) for b in buckets) == 2

    def test_parallel_map_fn(self):
        from concurrent.futures import ThreadPoolExecutor

        facts = prescription_facts()
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = bucket.compute(facts, "sum", num_buckets=4, map_fn=pool.map)
        assert got == reference.instantaneous_table(facts, "sum")
