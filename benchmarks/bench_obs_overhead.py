"""Observability overhead: what collection costs while it is on.

The per-operation accounting layer (:mod:`repro.obs`) wraps every public
tree operation, but only while collection is on: with it off, each
instrumented class attribute *is* the raw method, so the disabled path
costs nothing.  That claim is an identity, not a timing, and
``tests/test_obs.py::TestSwitch`` holds it
(``test_collection_off_methods_are_their_raw_functions`` and the
install / restore checks beside it).  This benchmark times two variants
of a warm paged-SB-tree lookup loop:

* ``raw``      -- ``tree.lookup`` with collection off (the default),
* ``enabled``  -- the same call inside :func:`repro.obs.collecting`,
  through the installed wrapper.

and checks that the enabled run recorded every lookup.  The enabled
overhead is reported for information: it pays for two counter
snapshots, an :class:`~repro.obs.OpRecord`, and registry folds.
"""

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


def test_enabled_overhead_is_reported(report, tmp_path):
    assert not obs.is_enabled(), "collection must be off by default"
    store, tree = _warm_tree(tmp_path / "obs_overhead.sbt")
    probes = [HORIZON * i // LOOKUPS for i in range(LOOKUPS)]

    def run_lookups():
        for t in probes:
            tree.lookup(t)

    raw = time_call(run_lookups, repeat=REPEAT)
    with obs.collecting() as registry:
        enabled = time_call(run_lookups, repeat=REPEAT)
    assert not obs.is_enabled()

    enabled_overhead = enabled / raw - 1.0
    report(
        "Observability / lookup overhead (warm paged SB-tree)",
        format_table(
            ["variant", "seconds", "overhead vs raw"],
            [
                ("raw (collection off)", raw, "-"),
                ("wrapper, enabled", enabled, f"{enabled_overhead:+.2%}"),
            ],
        )
        + f"\nlookups={LOOKUPS}  ~{raw * 1e6 / LOOKUPS:.1f}us per raw lookup",
    )
    store.close()

    # The enabled run must actually have recorded every lookup.
    assert registry.op_summary("lookup")["count"] == LOOKUPS * REPEAT
