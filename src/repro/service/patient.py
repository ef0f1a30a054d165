"""Patient exactly-once write driver for the resilience harness.

``N`` writer threads each open one connection and retry every write
under its original idempotency key until it is acked; the harness
(:mod:`repro.rescheck`) verifies the final tree against the reference
oracle built from the merged acked ``facts`` list after the chaos run
ends.  The server's span is cut into one disjoint half-open band per
writer, so no two writers ever touch the same instants.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from .client import (
    CircuitOpenError,
    ServiceClient,
    ServiceError,
    TransportError,
)

__all__ = ["PatientWriteResult", "PatientWriters"]


def _bands(lo: int, hi: int, n: int) -> List[Tuple[int, int]]:
    """Cut ``[lo, hi)`` into *n* disjoint half-open bands of >= 2 units."""
    if hi - lo < 2 * n:
        raise ValueError(
            f"span [{lo}, {hi}) too narrow for {n} worker bands"
        )
    cuts = [lo + (hi - lo) * i // n for i in range(n + 1)]
    return [(cuts[i], cuts[i + 1]) for i in range(n)]


class PatientWriteResult:
    """What a patient (retry-until-acked) write run observed."""

    def __init__(self) -> None:
        self.facts: List[Tuple[Any, Tuple[int, int]]] = []  # acked only
        self.attempts = 0
        self.acked = 0
        self.duplicate_acks = 0
        self.transport_errors = 0
        self.retryable_rejections = 0
        self.circuit_opens = 0
        self.unacked = 0
        self.duration_s = 0.0

    def extra(self) -> Dict[str, Any]:
        return {
            "acked_writes": self.acked,
            "attempts": self.attempts,
            "duplicate_acks": self.duplicate_acks,
            "transport_errors": self.transport_errors,
            "retryable_rejections": self.retryable_rejections,
            "circuit_opens": self.circuit_opens,
            "unacked_writes": self.unacked,
            "duration_s": round(self.duration_s, 6),
        }


class _PatientWriter(threading.Thread):
    """One connection retrying each write (same idempotency key) to ack.

    Exactly-once is what makes patience safe: every attempt of one
    logical write carries the same ``(client, seq)`` key, so no matter
    how many times the chaos proxy eats the reply -- or the server dies
    and restarts between attempts -- the fact lands at most once, and
    the loop only moves on once it landed at least once.
    """

    #: Server errors a patient writer waits out rather than dying on
    #: (everything transient: overload, drain, deadline shed, injected
    #: faults, shard lock timeouts -- and ``not_primary``, which the
    #: failover harness produces in the window between retargeting
    #: writers at a replica and that replica's promotion completing).
    WAITABLE = frozenset(
        {
            "overloaded",
            "shutting_down",
            "deadline_exceeded",
            "timeout",
            "fault_injected",
            "not_primary",
        }
    )

    def __init__(
        self,
        index: int,
        host: str,
        port: int,
        band: Tuple[int, int],
        writes: int,
        seed: int,
        timeout: float,
        give_up_after: float,
    ) -> None:
        super().__init__(name=f"patient-{index}", daemon=True)
        self.index = index
        self.host = host
        self.port = port
        self.band = band
        self.writes = writes
        self.rng = random.Random(seed)
        self.timeout = timeout
        self.give_up_after = give_up_after
        self.result = PatientWriteResult()
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            client = ServiceClient(
                self.host,
                self.port,
                timeout=self.timeout,
                retries=0,  # the patient loop owns all retrying
                client_id=f"patient-{self.index}",
                jitter_seed=self.index,
                circuit_threshold=6,
                circuit_cooldown=min(0.25, self.timeout),
            )
            with client:
                self._loop(client)
        except BaseException as exc:  # surfaced by PatientWriters.join
            self.error = exc

    def _loop(self, client: ServiceClient) -> None:
        lo, hi = self.band
        res = self.result
        for _ in range(self.writes):
            width = max(1, (hi - lo) // 8)
            s = self.rng.randint(lo, max(lo, hi - 1 - width))
            e = min(s + self.rng.randint(1, width), hi)
            value = self.rng.randint(1, 100)
            seq = client.next_seq()  # ONE key for every attempt below
            deadline = time.monotonic() + self.give_up_after
            backoff = 0.01
            acked = False
            while time.monotonic() < deadline:
                res.attempts += 1
                try:
                    result = client.insert_result(value, s, e, seq=seq)
                except CircuitOpenError:
                    res.circuit_opens += 1
                except (TransportError, OSError):
                    res.transport_errors += 1
                except ServiceError as exc:
                    if exc.type not in self.WAITABLE:
                        raise
                    res.retryable_rejections += 1
                    if exc.retry_after:
                        backoff = max(backoff, float(exc.retry_after))
                else:
                    acked = True
                    res.acked += 1
                    if result.get("duplicate"):
                        res.duplicate_acks += 1
                    res.facts.append((value, (s, e)))
                    break
                time.sleep(backoff * (0.5 + 0.5 * self.rng.random()))
                backoff = min(backoff * 2, 0.25)
            if not acked:
                # Indeterminate: the write may or may not be applied.
                # The harness treats any unacked write as a run failure
                # (the oracle can no longer be exact).
                res.unacked += 1


class PatientWriters:
    """Fan out patient exactly-once writers; merge what they acked.

    ``start()`` launches one writer per connection, ``acked`` is the
    writers' shared progress (writes acked so far, in all), and
    ``join()`` waits for the run and merges the results.  It reads
    nothing back: the resilience harness verifies the final tree
    against the reference oracle built from the merged ``facts`` list
    after the chaos run ends.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connections: int = 4,
        writes_per_connection: int = 100,
        span: Tuple[int, int] = (0, 100_000),
        seed: int = 0,
        timeout: float = 1.0,
        give_up_after: float = 60.0,
    ) -> None:
        self._workers = [
            _PatientWriter(
                i,
                host,
                port,
                band,
                writes_per_connection,
                seed * 10_007 + i,
                timeout,
                give_up_after,
            )
            for i, band in enumerate(
                _bands(int(span[0]), int(span[1]), connections)
            )
        ]
        self._started = 0.0

    def start(self) -> "PatientWriters":
        self._started = time.perf_counter()
        for worker in self._workers:
            worker.start()
        return self

    @property
    def acked(self) -> int:
        return sum(worker.result.acked for worker in self._workers)

    def wait_acked(self, count: int) -> bool:
        """Block until *count* writes are acked in all.

        False if every writer stopped first (a run with that few writes,
        or one whose writers gave up or failed).
        """
        while self.acked < count:
            if not any(worker.is_alive() for worker in self._workers):
                return self.acked >= count
            time.sleep(0.001)
        return True

    def join(self) -> PatientWriteResult:
        for worker in self._workers:
            worker.join()
        merged = PatientWriteResult()
        merged.duration_s = time.perf_counter() - self._started
        for worker in self._workers:
            if worker.error is not None:
                raise worker.error
            res = worker.result
            merged.facts.extend(res.facts)
            merged.attempts += res.attempts
            merged.acked += res.acked
            merged.duplicate_acks += res.duplicate_acks
            merged.transport_errors += res.transport_errors
            merged.retryable_rejections += res.retryable_rejections
            merged.circuit_opens += res.circuit_opens
            merged.unacked += res.unacked
        return merged
