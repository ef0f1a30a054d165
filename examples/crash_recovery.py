#!/usr/bin/env python3
"""Crash-consistent warehouse indexes: journaling and recovery.

A warehouse keeps its SB-tree view on disk with a write-ahead log.
We commit a snapshot, apply more updates, then "crash" the process
state without committing -- and show that reopening the file recovers
exactly the committed snapshot, ready for further maintenance.

Run:  python examples/crash_recovery.py
"""

import os
import tempfile

from repro import Interval, SBTree, check_tree
from repro.faults import simulate_crash
from repro.storage import PagedNodeStore
from repro.workloads import PRESCRIPTIONS


def main() -> None:
    path = os.path.join(tempfile.mkdtemp(prefix="sbtree-"), "sum_dosage.sbt")

    # ------------------------------------------------------------------
    # Build and commit a durable snapshot.
    # ------------------------------------------------------------------
    print(f"Building an index at {path}")
    store = PagedNodeStore(path, "sum", buffer_capacity=64)
    tree = SBTree("sum", store, branching=8, leaf_capacity=8)
    for p in PRESCRIPTIONS:
        tree.insert(p.dosage, p.valid)
    store.commit()
    print(f"  committed snapshot: lookup(19) = {tree.lookup(19)}")

    # ------------------------------------------------------------------
    # Uncommitted work, then a simulated crash: dirty pages reach the
    # write-ahead log, but commit() is never called.
    # ------------------------------------------------------------------
    print("\nApplying uncommitted updates ...")
    tree.insert(100, Interval(0, 1000))
    tree.insert(50, Interval(10, 20))
    print(f"  in-flight value:    lookup(19) = {tree.lookup(19)}")
    store.buffer.flush()
    print(f"  WAL on disk:        {os.path.exists(path + '-wal')}")
    simulate_crash(store)  # no commit, no clean close
    print("  ... crash! (process state discarded)")

    # ------------------------------------------------------------------
    # Recovery: reopening replays the committed transactions only.
    # ------------------------------------------------------------------
    print("\nReopening the index file ...")
    with PagedNodeStore(path) as recovered_store:
        recovered = SBTree(store=recovered_store)
        print(f"  recovered:          lookup(19) = {recovered.lookup(19)}")
        check_tree(recovered)
        print("  structural invariants: ok")

        # The recovered tree accepts new (and this time committed) work.
        recovered.insert(5, Interval(15, 45))
        recovered_store.commit()
        print(f"  new committed work: lookup(19) = {recovered.lookup(19)}")
    print(f"  WAL removed by the clean close: {not os.path.exists(path + '-wal')}")

    print("\nDone.")


if __name__ == "__main__":
    main()
