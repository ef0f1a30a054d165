"""End-to-end warehouse maintenance throughput.

The paper's setting is a warehouse keeping *several* temporal aggregate
views fresh over one change stream.  This benchmark measures update
throughput as the number of maintained views of one ``DynamicCatalog``
grows (each change is refreshed into every view as it arrives, and each
additional view adds one O(log n) index maintenance per change), and
compares the all-views cost against recomputing any single aggregate
from scratch -- the incremental-vs-recompute argument of Section 1.
"""

import pytest

from repro.baselines import endpoint_sort
from repro.benchlib import Series, format_table, scaled, time_call
from repro.warehouse import ANY_WINDOW, DynamicCatalog
from repro.workloads import insert_delete_stream

OPS = insert_delete_stream(
    scaled(1200), delete_fraction=0.25, horizon=40_000, max_duration=2_000, seed=97
)


def _make_views(count):
    """A catalog over the table ``stream`` with a realistic mix of view
    shapes, cycled up to *count*."""
    shapes = [
        ("sum", 0),
        ("avg", 0),
        ("count", 7_000),
        ("sum", ANY_WINDOW),
        ("avg", ANY_WINDOW),
    ]
    catalog = DynamicCatalog(branching=32, leaf_capacity=32)
    catalog.create_table("stream")
    for i in range(count):
        kind, window = shapes[i % len(shapes)]
        catalog.create_view(f"v{i}", "stream", kind, window=window)
    return catalog


def _replay(catalog, ops=OPS):
    """Apply *ops* to ``stream``, each refreshed into every view."""
    live = {}
    for i, op in enumerate(ops):
        if op.is_insert:
            live[i] = catalog.insert("stream", op.value, op.interval)
        else:
            victim_key = next(
                k for k, row in live.items()
                if row.value == op.value and row.valid == op.interval
            )
            catalog.delete("stream", live.pop(victim_key))
        catalog.refresh()


def test_throughput_vs_view_count(report):
    counts = [0, 1, 2, 5, 10]
    series = Series("views", [c or 0.5 for c in counts])
    seconds, per_op_us = [], []
    for count in counts:
        catalog = _make_views(count)
        elapsed = time_call(lambda: _replay(catalog))
        seconds.append(elapsed)
        per_op_us.append(elapsed / len(OPS) * 1e6)
    series.add("replay s", seconds)
    series.add("us/op", per_op_us)
    report(
        "Warehouse / maintenance throughput vs view count",
        series.render(with_exponents=False),
        series=series,
    )
    # Cost grows roughly linearly in the number of views: the marginal
    # cost of the tenth view is in the same ballpark as the first's.
    marginal_first = seconds[1] - seconds[0]
    marginal_avg_at_ten = (seconds[-1] - seconds[0]) / 10
    assert marginal_avg_at_ten < 3 * marginal_first


def test_incremental_vs_recompute(report):
    """After history accumulates, one more update is far cheaper than a
    recomputation -- and recomputation needs the full base table, which
    the warehouse may not even retain (Section 1)."""
    catalog = DynamicCatalog(branching=32, leaf_capacity=32)
    catalog.create_table("stream")
    catalog.create_view("sum", "stream", "sum")
    _replay(catalog)
    facts = catalog.table("stream").facts()

    def update_once():
        row = catalog.insert("stream", 5, (100, 20_000))
        catalog.refresh()
        catalog.delete("stream", row)
        catalog.refresh()

    update = time_call(update_once)
    recompute = time_call(lambda: endpoint_sort.compute(facts, "sum"))
    report(
        "Warehouse / one incremental update vs full recomputation",
        format_table(
            ["approach", "seconds"],
            [
                ("incremental (insert+delete)", update),
                ("recompute from base table", recompute),
            ],
        ),
    )
    assert update < recompute


@pytest.mark.parametrize("views", [1, 5])
def test_benchmark_replay(benchmark, views):
    ops = OPS[: scaled(300)]

    benchmark(lambda: _replay(_make_views(views), ops))
