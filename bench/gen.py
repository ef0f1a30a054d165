"""Seeded inputs: the program only ever sees facts generated here.

Facts are SUM-kind ``(value, start, end)`` over ``[0, SPAN)``.  90 % of
the intervals are 1-200 long and 10 % are 10^3-10^5 long: long intervals
are the paper's section 1 motivating case and they cross shard cuts.
Two arrival orders, because arrival order decides index cost ("Disk-Based
Interval Indexes Under the Increasing Ending Time Assumption"):
uniformly random, and near-ordered (a monotone clock with +-500 jitter).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

__all__ = [
    "SPAN", "CUTS", "KEYS", "rng_for", "random_facts", "ordered_facts",
    "churn_ops", "instants", "windows",
]

Fact = Tuple[int, int, int]

#: The time line every workload uses; also ``repro serve``'s default --hi.
SPAN = 1_000_000
#: Shard cuts of four even shards over ``[0, SPAN)``.
CUTS = (250_000, 500_000, 750_000)
#: Group keys of the view workload.
KEYS = tuple(f"p{i:02d}" for i in range(16))

_LONGEST = 100_000
_JITTER = 500


def rng_for(seed: int, workload: str, purpose: str) -> random.Random:
    """An independent stream per (seed, workload, purpose)."""
    return random.Random(f"{seed}/{workload}/{purpose}")


def _length(rng: random.Random) -> int:
    if rng.random() < 0.9:
        return rng.randint(1, 200)
    return rng.randint(1_000, _LONGEST)


def random_facts(rng: random.Random, count: int) -> List[Fact]:
    """Uniformly random arrival: the tree's worst case."""
    facts = []
    for _ in range(count):
        length = _length(rng)
        start = rng.randrange(0, SPAN - length)
        facts.append((rng.randint(1, 9), start, start + length))
    return facts


def ordered_facts(rng: random.Random, count: int) -> List[Fact]:
    """Near-ordered arrival: starts follow a monotone clock that crosses
    the whole span (so every shard fills) with +-500 jitter."""
    step = (SPAN - _LONGEST) / count
    facts = []
    for i in range(count):
        start = max(0, int(i * step) + rng.randint(-_JITTER, _JITTER))
        facts.append((rng.randint(1, 9), start, start + _length(rng)))
    return facts


def churn_ops(
    rng: random.Random, live: Sequence[Fact], count: int
) -> List[Tuple[int, Fact]]:
    """*count* write ops over random arrival: ``(+1, fact)`` inserts a
    new fact, ``(-1, fact)`` deletes an earlier one (10 % of the ops)."""
    live = list(live)
    ops = []
    for _ in range(count):
        if live and rng.random() < 0.1:
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            ops.append((-1, live.pop()))
        else:
            fact = random_facts(rng, 1)[0]
            live.append(fact)
            ops.append((+1, fact))
    return ops


def instants(rng: random.Random, count: int) -> List[int]:
    return [rng.randrange(0, SPAN) for _ in range(count)]


def windows(
    rng: random.Random,
    count: int,
    width: int,
    cuts: Optional[Sequence[int]] = None,
) -> List[Tuple[int, int]]:
    """Query windows of one width; with *cuts*, none straddles a cut
    (a fan-out over shards is not atomic beside a writer, so a
    straddling window would have no single-prefix oracle)."""
    out = []
    while len(out) < count:
        start = rng.randrange(0, SPAN - width)
        if cuts and any(start < cut < start + width for cut in cuts):
            continue
        out.append((start, start + width))
    return out
