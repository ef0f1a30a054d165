#!/usr/bin/env python3
"""Serving fleet telemetry over the network: the sharded TCP service.

The same load-session telemetry as ``fleet_telemetry.py``, but instead
of querying the index in process, a 7-shard
:class:`~repro.sharding.ShardedTree` is served over TCP
(:mod:`repro.service`) and queried through the blocking client --
exactly what ``python -m repro serve`` does, here run in process on an
ephemeral port, over journaled page files in a temporary directory, so
the example is self-contained.

What it shows:

* sessions spanning shard boundaries are split transparently; lookups
  and range queries fan out and merge back into one step function,
* writes are group-committed (watch the batch flush counters),
* per-operation latency lands in the server's metrics registry, served
  to any client via the ``stats`` op.

Run:  python examples/serve_telemetry.py
"""

import random
import tempfile

from repro.service import ServerHandle, ServiceClient
from repro.sharding import ShardedTree

DAY = 24 * 3600
DAYS = 7


def simulate_sessions(rng, days=DAYS):
    """CPU load sessions: (load, start, end), many crossing midnight."""
    sessions = []
    for day in range(days):
        for _ in range(40):
            start = day * DAY + rng.randint(0, DAY - 1)
            duration = rng.randint(600, 10 * 3600)  # 10 min .. 10 h
            sessions.append((rng.randint(1, 8), start, start + duration))
    return sessions


def serve(sharded, sessions):
    with ServerHandle.start(sharded, batch_max=32) as srv:
        print(f"service up on {srv.host}:{srv.port} "
              f"({sharded.num_shards} day-shards)")
        with ServiceClient(srv.host, srv.port) as svc:
            applied = svc.batch_insert(sessions)
            print(f"ingested {applied} load sessions over {DAYS} days")

            noon_day3 = 3 * DAY + 12 * 3600
            print(f"fleet load at day-3 noon : {svc.lookup(noon_day3)}")

            # The step function around a shard boundary (midnight 3->4):
            midnight = 4 * DAY
            rows = svc.rangeq(midnight - 2 * 3600, midnight + 2 * 3600)
            print(f"load profile +/-2h around day-4 midnight "
                  f"({len(rows)} constant intervals):")
            for value, interval in rows[:6]:
                print(f"  {value:>4}  {interval}")
            if len(rows) > 6:
                print(f"  ... {len(rows) - 6} more")

            stats = svc.stats()
            shards = stats["shards"]
            print("per-shard pieces :",
                  [s["pieces"] for s in shards["shards"]])
            print(f"facts={shards['facts']} -> "
                  f"{sum(s['pieces'] for s in shards['shards'])} pieces "
                  "(midnight-crossing sessions were split)")
            flushes = stats["counters"].get("service.batch.flushes", 0)
            print(f"group commit     : {flushes} flushes for "
                  f"{stats['ops']['service.batch_insert']['count']} "
                  "write requests")
            lookup_ops = stats["ops"]["service.lookup"]
            print(f"lookup latency   : count={lookup_ops['count']} "
                  f"p95={lookup_ops['wall_us']['p95']:.0f}us")


def main():
    rng = random.Random(11)
    sessions = simulate_sessions(rng)

    # One shard per day: midnight-crossing sessions split at the cuts.
    with tempfile.TemporaryDirectory() as directory:
        sharded = ShardedTree.open(directory, "sum", num_shards=DAYS,
                                   span=(0, DAYS * DAY))
        try:
            serve(sharded, sessions)
        finally:
            sharded.close()
    print("drained cleanly")


if __name__ == "__main__":
    main()
