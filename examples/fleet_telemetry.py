#!/usr/bin/env python3
"""Fleet telemetry: grouped views, arbitrary windows, history retention.

A fleet of machines reports load sessions (value = CPU load, valid
interval = session duration).  The warehouse maintains:

* a fleet-wide instantaneous load SUM,
* a per-machine grouped view (TSQL2 GROUP BY host + temporal grouping),
* a fleet-wide cumulative MAX for operator-chosen windows (MSB-tree).

Old history is then retired with ``retain_after`` -- the paper's
Section 1 notes a warehouse may not even keep the base data needed to
recompute it, so the archive produced here is the only remaining record.

Run:  python examples/fleet_telemetry.py
"""

import random

from repro import Interval, MSBTree, SBTree
from repro.relation import TemporalRelation
from repro.warehouse import ANY_WINDOW, TemporalAggregateView

HOSTS = ["web-1", "web-2", "db-1", "cache-1"]
DAY = 24 * 3600


def simulate(relation, days=7, seed=3):
    rng = random.Random(seed)
    for day in range(days):
        for _ in range(200):
            host = rng.choice(HOSTS)
            start = day * DAY + rng.randrange(DAY)
            duration = max(60, int(rng.expovariate(1 / 1800)))
            load = rng.randint(1, 100)
            relation.insert(load, Interval(start, start + duration), host=host)


def main() -> None:
    sessions = TemporalRelation("sessions")

    fleet_load = TemporalAggregateView("FleetLoad", sessions, "sum")
    per_host = TemporalAggregateView(
        "LoadByHost", sessions, "sum", key_of=lambda row: row.payload["host"]
    )
    worst = TemporalAggregateView("WorstLoad", sessions, "max", window=ANY_WINDOW)

    print("Simulating a week of sessions for", len(HOSTS), "hosts ...")
    simulate(sessions)
    print(f"  {len(sessions)} live sessions")

    noon_day3 = 3 * DAY + 12 * 3600
    print(f"\nAt day-3 noon (t={noon_day3}):")
    print(f"  fleet-wide load SUM        : {fleet_load.value_at(noon_day3)}")
    for host, value in sorted(per_host.values_at(noon_day3).items()):
        print(f"  {host:>8} load             : {value}")
    for label, w in [("1 hour", 3600), ("1 day", DAY), ("3 days", 3 * DAY)]:
        print(f"  worst session, {label:>7} back: {worst.value_at(noon_day3, w)}")

    # ------------------------------------------------------------------
    # Retention: archive everything before day 5.
    # ------------------------------------------------------------------
    cutoff = 5 * DAY
    tree: SBTree = fleet_load.index
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
