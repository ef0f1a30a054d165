#!/usr/bin/env python3
"""Fleet telemetry: grouped views, arbitrary windows, history retention.

A fleet of machines reports load sessions (value = CPU load, valid
interval = session duration).  The warehouse, a ``DynamicCatalog``,
maintains:

* a fleet-wide instantaneous load SUM,
* a per-machine grouped view (TSQL2 GROUP BY host + temporal grouping),
* a fleet-wide cumulative MAX for operator-chosen windows (MSB-tree).

Old history is then retired from an SB-tree of the fleet load with
``retain_after`` -- the paper's Section 1 notes a warehouse may not even
keep the base data needed to recompute it, so the archive produced here
is the only remaining record.

Run:  python examples/fleet_telemetry.py
"""

import random

from repro import Interval, SBTree
from repro.warehouse import ANY_WINDOW, DynamicCatalog

HOSTS = ["web-1", "web-2", "db-1", "cache-1"]
DAY = 24 * 3600


def simulate(catalog, days=7, seed=3):
    rng = random.Random(seed)
    for day in range(days):
        for _ in range(200):
            host = rng.choice(HOSTS)
            start = day * DAY + rng.randrange(DAY)
            duration = max(60, int(rng.expovariate(1 / 1800)))
            load = rng.randint(1, 100)
            catalog.insert("sessions", load, Interval(start, start + duration),
                           host=host)


def main() -> None:
    catalog = DynamicCatalog()
    sessions = catalog.create_table("sessions")
    catalog.create_view("FleetLoad", "sessions", "sum")
    catalog.create_view("LoadByHost", "sessions", "sum", key="host")
    catalog.create_view("WorstLoad", "sessions", "max", window=ANY_WINDOW)

    print("Simulating a week of sessions for", len(HOSTS), "hosts ...")
    simulate(catalog)
    print(f"  {len(sessions)} live sessions")

    noon_day3 = 3 * DAY + 12 * 3600
    print(f"\nAt day-3 noon (t={noon_day3}):")
    print(f"  fleet-wide load SUM        : {catalog.read('FleetLoad', noon_day3).value}")
    for host, value in sorted(catalog.read("LoadByHost", noon_day3).value.items()):
        print(f"  {host:>8} load             : {value}")
    for label, w in [("1 hour", 3600), ("1 day", DAY), ("3 days", 3 * DAY)]:
        worst = catalog.read("WorstLoad", noon_day3, w=w).value
        print(f"  worst session, {label:>7} back: {worst}")

    # ------------------------------------------------------------------
    # Retention: archive everything before day 5 from an SB-tree of the
    # fleet load.
    # ------------------------------------------------------------------
    cutoff = 5 * DAY
    tree = SBTree("sum")
    tree.insert_batch(sessions.facts())
    before_nodes = tree.node_count()
    archive = tree.retain_after(cutoff)
    print(f"\nRetired history before day 5:")
    print(f"  archived constant intervals: {len(archive)}")
    print(f"  index nodes: {before_nodes} -> {tree.node_count()}")
    print(f"  old instants now read empty: lookup(day 1) = {tree.lookup(DAY)}")
    recent = 6 * DAY
    print(f"  recent history intact      : lookup(day 6) = {tree.lookup(recent)}")

    # The archive remains queryable as a plain table.
    mid_day2 = 2 * DAY + 12 * 3600
    print(f"  archive value at day-2 noon: {archive.value_at(mid_day2)}")


if __name__ == "__main__":
    main()
