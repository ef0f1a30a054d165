"""Observability overhead: the disabled fast path must be ~free.

The per-operation accounting layer (:mod:`repro.obs`) wraps every public
tree operation.  Its contract is that when collection is disabled (the
default) the wrapper adds a single module-flag check per call, so the
library costs the same whether or not anyone ever looks at the metrics.
This benchmark measures three variants of a warm paged-SB-tree lookup
loop:

* ``raw``      -- the undecorated method (``lookup.__wrapped__``),
* ``disabled`` -- through the wrapper with collection off (the default),
* ``enabled``  -- through the wrapper with a live registry.

and asserts the disabled overhead stays under the 5% acceptance bound.
The enabled overhead is reported for information: it pays for two
counter snapshots, an :class:`~repro.obs.OpRecord`, and registry folds.
"""

import pytest

from repro import SBTree, obs
from repro.benchlib import format_table, scaled, time_call
from repro.storage import PagedNodeStore
from repro.workloads import uniform

N = scaled(1200)
HORIZON = 50_000
LOOKUPS = scaled(3000)
REPEAT = 5


def _warm_tree(path):
    store = PagedNodeStore(str(path), "sum", buffer_capacity=256)
    tree = SBTree(
        "sum",
        store,
        branching=min(32, store.default_branching),
        leaf_capacity=min(32, store.default_leaf_capacity),
    )
    for value, interval in uniform(N, horizon=HORIZON, max_duration=300, seed=17):
        tree.insert(value, interval)
    store.commit()
    for i in range(200):  # warm the buffer pool before timing
        tree.lookup(HORIZON * i // 200)
    return store, tree


def test_disabled_overhead_under_five_percent(report, tmp_path):
    assert not obs.is_enabled(), "collection must be off by default"
    store, tree = _warm_tree(tmp_path / "obs_overhead.sbt")
    probes = [HORIZON * i // LOOKUPS for i in range(LOOKUPS)]
    raw_lookup = SBTree.lookup.__wrapped__

    def run_raw():
        for t in probes:
            raw_lookup(tree, t)

    def run_wrapped():
        for t in probes:
            tree.lookup(t)

    raw = time_call(run_raw, repeat=REPEAT)
    disabled = time_call(run_wrapped, repeat=REPEAT)
    with obs.collecting() as registry:
        enabled = time_call(run_wrapped, repeat=REPEAT)
    assert not obs.is_enabled()

    disabled_overhead = disabled / raw - 1.0
    enabled_overhead = enabled / raw - 1.0
    per_lookup_us = disabled * 1e6 / LOOKUPS
    report(
        "Observability / lookup overhead (warm paged SB-tree)",
        format_table(
            ["variant", "seconds", "overhead vs raw"],
            [
                ("raw (__wrapped__)", raw, "-"),
                ("wrapper, disabled", disabled, f"{disabled_overhead:+.2%}"),
                ("wrapper, enabled", enabled, f"{enabled_overhead:+.2%}"),
            ],
        )
        + f"\nlookups={LOOKUPS}  ~{per_lookup_us:.1f}us per disabled lookup",
    )
    store.close()

    # The enabled run must actually have recorded every lookup...
    summary = registry.op_summary("lookup")
    assert summary["count"] == LOOKUPS * REPEAT
    # ...and the disabled fast path must stay within the acceptance bound.
    assert disabled_overhead < 0.05, (
        f"disabled observability overhead {disabled_overhead:.2%} >= 5%"
    )
