"""The group committer on its own: a fake ``apply``, a recording
``on_committed``, no server and no network.

Everything here was reachable before only through ``rescheck``'s chaos:
when a flush starts and what it takes, what a failed apply, a failed
*commit* and a failed publish do to waiters and to the dedup window, a
duplicate racing its original, and the drain.  A batch is held open by
parking the apply (``Harness.gate``), never by a clock: the committer
has none.
"""

import asyncio

import pytest

from repro import obs
from repro.core.intervals import Interval
from repro.service import protocol
from repro.service.groupcommit import (
    DEDUP_META_KEY,
    CommitFailed,
    Draining,
    GroupCommitter,
    applied_keys,
)


def fact(value, start=0, end=10):
    return (value, Interval(start, end))


class Harness:
    """A committer wired to an in-memory apply and publish log.  Its
    "catalog" answers a change ``{"name": n}`` with ``{"created": n}``
    and refuses one that also says ``"refuse": True``."""

    def __init__(self, **kwargs):
        self.registry = obs.MetricsRegistry()
        self.applied = []      # one (facts, meta) per successful apply
        self.published = []    # one [(facts, idem), ...] per on_committed
        self.fail = None       # raised by the next applies while set
        self.fail_once = False  # ... or by the next apply only
        self.gate = None       # an Event the apply waits on, when set
        self.entered = 0       # applies started (parked ones included)
        self.publish_fail = None  # raised by on_committed while set
        self.committer = GroupCommitter(
            self.apply, self.on_committed, registry=self.registry, **kwargs
        )

    async def apply(self, writes, collector):
        self.entered += 1
        if self.gate is not None:
            await self.gate.wait()
        for write in writes:
            if write.change is not None:
                write.result = (
                    protocol.ProtocolError("refused")
                    if write.change.get("refuse")
                    else {"created": write.change["name"]}
                )
        if self.fail is not None:
            exc = self.fail
            if self.fail_once:
                self.fail = None
            raise exc
        meta = self.committer.commit_meta(applied_keys(writes))
        self.applied.append(
            ([fact for write in writes for fact in write.facts], meta)
        )

    async def on_committed(self, writes):
        if self.publish_fail is not None:
            raise self.publish_fail
        self.published.append([(write.facts, write.idem) for write in writes])

    async def parked(self, flushes=1):
        """Yield until the *flushes*-th apply has started."""
        while self.entered < flushes:
            await asyncio.sleep(0)

    def count(self, name):
        return self.registry.counter(name).value


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=10))


class TestFlushPolicy:
    def test_writes_of_one_loop_iteration_are_one_flush(self):
        async def main():
            h = Harness()
            # What one wake-up of a full connection hands over: 32
            # request tasks, all on the ready queue before the flusher.
            got = await asyncio.gather(
                *(h.committer.submit([fact(i)]) for i in range(32))
            )
            assert got == [{"applied": 1}] * 32
            assert [len(facts) for facts, _ in h.applied] == [32]
            assert h.count("service.batch.flushes") == 1
            assert h.committer.stats()["batch"] == {"max": 64, "pending": 0}
            wait = h.registry.histogram("service.batch.oldest_wait_us")
            assert wait.count == 1 and wait.max < 50_000

        run(main())

    def test_lone_write_flushes_without_a_timer(self):
        def no_timers(*args, **kwargs):
            raise AssertionError("group commit scheduled a timer")

        async def main():
            h = Harness()
            assert await h.committer.submit([fact(9)]) == {"applied": 1}
            assert [len(facts) for facts, _ in h.applied] == [1]

        loop = asyncio.new_event_loop()
        loop.call_later = loop.call_at = no_timers
        try:
            loop.run_until_complete(main())  # no wait_for: it is a timer
        finally:
            loop.close()

    def test_writes_during_a_flush_form_exactly_one_next_batch(self):
        async def main():
            h = Harness()
            h.gate = asyncio.Event()
            first = asyncio.ensure_future(h.committer.submit([fact(0)]))
            await h.parked()
            rest = [
                asyncio.ensure_future(h.committer.submit([fact(i)]))
                for i in range(1, 6)
            ]
            await asyncio.sleep(0.01)
            assert h.entered == 1  # nothing overtakes the parked flush
            assert h.committer.stats()["batch"]["pending"] == 5
            h.gate.set()  # the only trigger the next batch gets
            await asyncio.gather(first, *rest)
            assert [[v for v, _ in facts] for facts, _ in h.applied] == [
                [0], [1, 2, 3, 4, 5],
            ]
            wait = h.registry.histogram("service.batch.oldest_wait_us")
            assert wait.count == 2 and wait.max >= 5_000  # sat out the gate

        run(main())

    def test_batch_max_bounds_a_flush_in_arrival_order(self):
        async def main():
            h = Harness(batch_max=8)
            await asyncio.gather(
                *(h.committer.submit([fact(i)]) for i in range(100))
            )
            assert [len(facts) for facts, _ in h.applied] == [8] * 12 + [4]
            assert [
                v for facts, _ in h.applied for v, _ in facts
            ] == list(range(100))

        run(main())

    def test_flushes_never_overlap(self):
        async def main():
            h = Harness(batch_max=4)
            running = []
            inner = h.apply

            async def slow_apply(writes, collector):
                running.append(+1)
                assert sum(running) == 1  # the dedup snapshots stay ordered
                for _ in range(3):
                    await asyncio.sleep(0)
                await inner(writes, collector)
                running.append(-1)

            h.committer._apply = slow_apply

            async def trickle(base):
                for i in range(10):
                    await h.committer.submit([fact(base + i)])

            await asyncio.gather(*(trickle(100 * k) for k in range(6)))
            assert sum(len(facts) for facts, _ in h.applied) == 60
            assert h.count("service.batch.flushes") == len(h.applied) > 1

        run(main())

    def test_one_request_larger_than_batch_max_is_one_flush(self):
        async def main():
            h = Harness(batch_max=2)
            result = await h.committer.submit([fact(i) for i in range(5)])
            assert result == {"applied": 5}
            assert [len(facts) for facts, _ in h.applied] == [5]

        run(main())

    def test_durable_flush_commits_the_window_with_its_own_keys(self):
        async def main():
            h = Harness(batch_max=1)
            await h.committer.submit([fact(1)], ("c", 1))
            (facts, meta), = h.applied
            # Dedup-before-ack: the commit's metadata already names the
            # key the batch is about to apply.
            assert '"c"' in meta[DEDUP_META_KEY]
            assert h.count("service.batch.commits") == 1
            # A fresh committer restored from that payload replays it.
            other = Harness()
            other.committer.load([meta[DEDUP_META_KEY]])
            assert other.committer.replay_for(("c", 1)) == {
                "applied": 1, "duplicate": True,
            }
            assert other.count("service.dedup.loaded") == 1

        run(main())


class TestFailures:
    def test_failed_apply_fails_every_waiter_and_frees_its_keys(self):
        async def main():
            h = Harness(batch_max=2)
            h.fail = RuntimeError("disk on fire")
            results = await asyncio.gather(
                h.committer.submit([fact(1)], ("c", 1)),
                h.committer.submit([fact(2)], ("c", 2)),
                return_exceptions=True,
            )
            assert all(r is h.fail for r in results)
            assert h.published == []  # nothing applied, nothing shipped
            assert h.committer.stats()["batch"]["pending"] == 0
            assert h.committer.replay_for(("c", 1)) is None
            # The keys are free: the retry applies as a fresh write, it
            # does not join a flight that no longer exists.
            h.fail = None
            assert await h.committer.submit([fact(1)], ("c", 1)) == {"applied": 1}
            assert len(h.applied) == 1
            assert h.count("service.dedup.joins") == 0

        run(main())

    def test_commit_failure_errors_waiters_but_remembers_and_publishes(self):
        async def main():
            h = Harness(batch_max=2)
            cause = OSError("fsync: EIO")
            h.fail = CommitFailed(str(cause))
            h.fail.__cause__ = cause
            results = await asyncio.gather(
                h.committer.submit([fact(1)], ("c", 1)),
                h.committer.submit([fact(2)]),
                return_exceptions=True,
            )
            # Waiters see the commit's own error ...
            assert results == [cause, cause]
            assert h.count("service.batch.commit_failures") == 1
            assert h.count("service.batch.commits") == 0
            # ... yet the batch is in memory: it still goes to followers,
            assert [idem for _, idem in h.published[0]] == [("c", 1), None]
            # and a retry of the key must replay, not apply twice.
            h.fail = None
            assert await h.committer.submit([fact(1)], ("c", 1)) == {
                "applied": 1, "duplicate": True,
            }
            assert h.applied == []

        run(main())


    def test_failed_publish_settles_its_waiters_and_the_flusher_goes_on(self):
        async def main():
            h = Harness(batch_max=2)
            h.publish_fail = RuntimeError("publisher is gone")
            writes = [
                asyncio.ensure_future(h.committer.submit([fact(1)], ("c", 1))),
                asyncio.ensure_future(h.committer.submit([fact(2)], ("c", 2))),
                asyncio.ensure_future(h.committer.submit([fact(3)])),
            ]
            # No timeout anywhere: an unsettled waiter would hang the run.
            results = await asyncio.gather(*writes, return_exceptions=True)
            assert all(r is h.publish_fail for r in results)
            assert h.count("service.batch.flush_errors") == 2  # 2 + 1 facts
            assert h.committer.stats()["batch"]["pending"] == 0
            assert h.committer._dedup_pending == {}
            # The facts are in the tree: a retry replays, never re-applies.
            assert await h.committer.submit([fact(1)], ("c", 1)) == {
                "applied": 1, "duplicate": True,
            }
            h.publish_fail = None
            assert await h.committer.submit([fact(4)], ("c", 4)) == {"applied": 1}
            assert [len(facts) for facts, _ in h.applied] == [2, 1, 1]
            assert len(h.published) == 1

        run(main())


class TestDuplicates:
    def test_duplicate_of_in_flight_key_joins_it(self):
        async def main():
            h = Harness(batch_max=1)
            h.gate = asyncio.Event()
            original = asyncio.ensure_future(
                h.committer.submit([fact(7)], ("c", 1))
            )
            await h.parked()  # the flush is now parked in apply
            assert h.committer.stats()["batch"]["pending"] == 0
            assert not original.done()
            duplicate = asyncio.ensure_future(
                h.committer.submit([fact(7)], ("c", 1))
            )
            await asyncio.sleep(0.01)
            assert not duplicate.done()  # joined, not re-enqueued
            h.gate.set()
            assert await original == {"applied": 1}
            assert await duplicate == {"applied": 1, "duplicate": True}
            assert len(h.applied) == 1  # applied exactly once
            assert h.count("service.dedup.joins") == 1
            assert h.count("service.dedup.replays") == 1

        run(main())

    def test_joiner_of_a_failed_original_reenters_as_fresh(self):
        async def main():
            h = Harness(batch_max=1)
            h.gate = asyncio.Event()
            h.fail, h.fail_once = RuntimeError("first try fails"), True
            original = asyncio.ensure_future(
                h.committer.submit([fact(7)], ("c", 1))
            )
            await h.parked()
            duplicate = asyncio.ensure_future(
                h.committer.submit([fact(7)], ("c", 1))
            )
            await asyncio.sleep(0.01)
            h.gate.set()
            with pytest.raises(RuntimeError):
                await original
            assert await duplicate == {"applied": 1}
            assert len(h.applied) == 1

        run(main())

    def test_joiner_of_an_original_whose_commit_failed_replays(self):
        """Applied in memory, not on disk: the key is remembered, so the
        duplicate must not apply the facts a second time."""
        async def main():
            h = Harness(batch_max=1)
            h.gate = asyncio.Event()
            h.fail, h.fail_once = CommitFailed("fsync failed"), True
            original = asyncio.ensure_future(
                h.committer.submit([fact(7)], ("c", 1))
            )
            await h.parked()
            duplicate = asyncio.ensure_future(
                h.committer.submit([fact(7)], ("c", 1))
            )
            await asyncio.sleep(0.01)
            h.gate.set()
            with pytest.raises(CommitFailed):
                await original
            assert await duplicate == {"applied": 1, "duplicate": True}
            assert h.entered == 1  # one apply: the original's

        run(main())

    def test_replay_of_applied_and_of_evicted_keys(self):
        async def main():
            h = Harness(batch_max=1, dedup_window=2)
            for seq in (1, 2, 3):
                await h.committer.submit([fact(seq), fact(seq)], ("c", seq))
            assert h.committer.replay_for(("c", 3)) == {
                "applied": 2, "duplicate": True,
            }
            # seq 1 fell out of the 2-entry window: still a duplicate.
            assert h.committer.replay_for(("c", 1)) == {
                "applied": 0, "duplicate": True, "evicted": True,
            }
            assert h.committer.replay_for(("c", 4)) is None
            assert h.count("service.dedup.evicted_replays") == 1
            assert h.committer.stats()["dedup"] == {"clients": 1, "entries": 2}

        run(main())

    def test_remember_feeds_a_followers_stream_into_the_window(self):
        async def main():
            h = Harness()
            entries = [(("c", 5), {"applied": 3})]
            meta = h.committer.commit_meta(entries)
            assert "5" in meta[DEDUP_META_KEY]
            assert h.committer.replay_for(("c", 5)) is None  # not yet
            h.committer.remember(entries)
            assert h.committer.replay_for(("c", 5)) == {
                "applied": 3, "duplicate": True,
            }

        run(main())


class TestDrain:
    def test_drain_flushes_the_rest_and_rejects_new_writes(self):
        async def main():
            h = Harness(batch_max=100)
            h.gate = asyncio.Event()
            running = asyncio.ensure_future(h.committer.submit([fact(0)]))
            await h.parked()
            waiting = asyncio.ensure_future(
                h.committer.submit([fact(1)], ("c", 1))
            )
            await asyncio.sleep(0)
            assert h.applied == []  # one mid-apply, one queued behind it
            assert h.committer.stats()["batch"]["pending"] == 1
            drained = asyncio.ensure_future(h.committer.drain())
            await asyncio.sleep(0.01)
            assert not drained.done()  # drain waits for both
            h.gate.set()
            await drained
            assert running.done() and await waiting == {"applied": 1}
            assert len(h.applied) == 2
            with pytest.raises(Draining):
                await h.committer.submit([fact(2)], ("c", 2))
            # An already-applied key still replays during the drain.
            assert await h.committer.submit([fact(1)], ("c", 1)) == {
                "applied": 1, "duplicate": True,
            }

        run(main())

    def test_serialized_orders_outsiders_against_flushes(self):
        async def main():
            h = Harness(batch_max=1)
            h.gate = asyncio.Event()
            write = asyncio.ensure_future(h.committer.submit([fact(1)]))
            await h.parked()
            order = []

            async def outsider():
                async with h.committer.serialized():
                    order.append(("outsider", len(h.published)))

            other = asyncio.ensure_future(outsider())
            await asyncio.sleep(0.01)
            assert order == []  # held out while the flush is mid-apply
            h.gate.set()
            await asyncio.gather(write, other)
            assert order == [("outsider", 1)]

        run(main())

    def test_batch_max_must_be_positive(self):
        with pytest.raises(ValueError):
            Harness(batch_max=0)
