"""The replication publisher on its own: fake stream writers, no
server and no network.

Before the split these paths were reachable only through ``rescheck``'s
failover drill: who a semi-sync ack waits for, what a dead link does to
the floor, when the primary gives up and degrades to async, and what a
truncated log refuses.
"""

import asyncio

import pytest

from repro import obs
from repro.service import protocol
from repro.service.replication import (
    Publisher,
    ReplicationError,
    decode_records,
)

LAYOUT = {"kind": "sum", "boundaries": [250, 500, 750]}


class FakeWriter:
    """The slice of ``asyncio.StreamWriter`` a stream uses."""

    def __init__(self):
        self.data = bytearray()
        self.closed = False

    def write(self, payload):
        self.data += payload

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    def messages(self):
        out, buf = [], bytes(self.data)
        while buf:
            length = protocol.decode_length(buf[:4])
            out.append(protocol.decode_body(buf[4:4 + length]))
            buf = buf[4 + length:]
        return out


def make(**kwargs):
    kwargs.setdefault("heartbeat", 0)  # no background task unless asked
    registry = obs.MetricsRegistry()
    return Publisher(base=0, layout=LAYOUT, registry=registry, **kwargs), registry


def subscribe(pub, name, from_commit=0):
    writer = FakeWriter()
    pub.subscribe(
        {"op": "subscribe_journal", "id": 1, "replica": name,
         "from_commit": from_commit},
        writer,
    )
    return writer


def ack(pub, name, commit):
    return pub.ack({"op": "journal_ack", "replica": name, "commit": commit})


def record(n):
    return [{"facts": [[n, 0, 10]]}]


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=10))


async def pending(awaitable, wait=0.03):
    """Start *awaitable*; assert it has not finished after *wait*."""
    task = asyncio.ensure_future(awaitable)
    await asyncio.sleep(wait)
    assert not task.done()
    return task


class TestStandalone:
    def test_publish_without_any_subscriber_encodes_nothing(self):
        async def main():
            pub, registry = make()

            def never():
                raise AssertionError("records consumed on a standalone primary")
                yield

            assert pub.publish(never()) == 1
            assert pub.publish(never()) == 2
            assert pub.head == 2
            await pub.replicated(2)  # returns at once: nobody to wait for
            assert pub.stats() is None
            assert registry.counter("service.repl.batches_shipped").value == 0
            # A follower that now asks for history is refused: it was
            # never retained.
            with pytest.raises(ReplicationError):
                subscribe(pub, "late", from_commit=0)

        run(main())


class TestSubscribe:
    def test_handshake_backlog_then_live_stream_are_gap_free(self):
        async def main():
            pub, registry = make()
            first = subscribe(pub, "r1")
            pub.publish(record(1))
            pub.publish(record(2))
            second = subscribe(pub, "r2", from_commit=1)
            pub.publish(record(3))
            handshake, *stream = second.messages()
            assert handshake["ok"] and handshake["id"] == 1
            assert handshake["result"]["commit"] == 2
            assert handshake["result"]["kind"] == "sum"
            assert handshake["result"]["boundaries"] == [250, 500, 750]
            # Backlog (commit 2) then the live commit 3: no gap, no repeat.
            assert [m["commit"] for m in stream] == [2, 3]
            assert decode_records(stream[1]["records"]) == record(3)
            assert {m["stream"] for m in stream} == {handshake["result"]["stream"]}
            assert [m["commit"] for m in first.messages()[1:]] == [1, 2, 3]
            # Every commit counts once, whatever its writes are.
            assert registry.counter("service.repl.batches_shipped").value == 3
            assert registry.counter("service.repl.subscribes").value == 2

        run(main())

    def test_malformed_subscriptions_are_protocol_errors(self):
        pub, _ = make()
        for request in (
            {"replica": ""},
            {"replica": 7},
            {"replica": "r", "from_commit": -1},
            {"replica": "r", "from_commit": True},
            {"replica": "r", "from_commit": "0"},
        ):
            with pytest.raises(protocol.ProtocolError):
                pub.subscribe(request, FakeWriter())
        assert pub.stats() is None  # none of them registered

    def test_truncated_log_refuses_a_stale_from_commit(self):
        async def main():
            pub, _ = make(log_cap=200)
            subscribe(pub, "r1")
            for n in range(20):
                pub.publish(record(n))
            assert pub.stats()["commit"] == 20
            with pytest.raises(ReplicationError, match="re-seed"):
                subscribe(pub, "r2", from_commit=0)
            # The tail is still served.
            tail = subscribe(pub, "r3", from_commit=19)
            assert [m["commit"] for m in tail.messages()[1:]] == [20]

        run(main())


class TestSemiSync:
    def test_ack_is_held_until_the_slowest_live_subscriber_acks(self):
        async def main():
            pub, _ = make()
            subscribe(pub, "fast")
            subscribe(pub, "slow")
            seq = pub.publish(record(1))
            waiter = await pending(pub.replicated(seq))
            ack(pub, "fast", seq)
            await asyncio.sleep(0.01)
            assert not waiter.done()  # one ack is not enough
            ack(pub, "slow", seq)
            await waiter
            replicas = {r["name"]: r for r in pub.stats()["replicas"]}
            assert replicas["slow"]["acked"] == seq
            assert replicas["slow"]["lag_commits"] == 0

        run(main())

    def test_async_mode_never_waits(self):
        async def main():
            pub, _ = make(sync=False)
            subscribe(pub, "r1")
            await pub.replicated(pub.publish(record(1)))

        run(main())

    def test_floor_holds_through_a_dead_link_until_the_follower_is_back(self):
        async def main():
            pub, _ = make(ack_timeout=5.0)
            link = subscribe(pub, "r1")
            link.close()  # the link died; the follower is expected back
            seq = pub.publish(record(1))
            waiter = await pending(pub.replicated(seq))
            # It resubscribes from what it had applied and catches up.
            again = subscribe(pub, "r1", from_commit=0)
            assert [m["commit"] for m in again.messages()[1:]] == [seq]
            await asyncio.sleep(0.01)
            assert not waiter.done()  # subscribed is not applied
            ack(pub, "r1", seq)
            await waiter

        run(main())

    def test_timeout_with_no_subscriber_left_degrades_then_rearms(self):
        async def main():
            pub, registry = make(ack_timeout=0.05)
            link = subscribe(pub, "r1")
            link.close()
            seq = pub.publish(record(1))
            await pub.replicated(seq)  # returns: the timeout fired
            assert registry.counter("service.repl.sync_timeouts").value == 1
            assert registry.counter("service.repl.subscriber_drops").value == 1
            assert pub.stats()["replicas"] == []
            # Degraded to async: later commits do not wait at all.
            started = asyncio.get_running_loop().time()
            await pub.replicated(pub.publish(record(2)))
            assert asyncio.get_running_loop().time() - started < 0.04
            assert registry.counter("service.repl.sync_timeouts").value == 1
            # A resubscribe re-arms the floor.
            subscribe(pub, "r1", from_commit=2)
            seq = pub.publish(record(3))
            waiter = await pending(pub.replicated(seq), wait=0.02)
            ack(pub, "r1", seq)
            await waiter

        run(main())

    def test_timeout_with_a_live_but_silent_subscriber_keeps_the_floor(self):
        async def main():
            pub, registry = make(ack_timeout=0.03)
            subscribe(pub, "wedged")
            await pub.replicated(pub.publish(record(1)))  # times out
            assert registry.counter("service.repl.sync_timeouts").value == 1
            assert registry.counter("service.repl.subscriber_drops").value == 0
            # Still subscribed, so the next commit waits (and times out) too.
            await pub.replicated(pub.publish(record(2)))
            assert registry.counter("service.repl.sync_timeouts").value == 2

        run(main())

    def test_acks_are_cumulative_validated_and_never_move_back(self):
        async def main():
            pub, _ = make()
            subscribe(pub, "r1")
            for n in range(3):
                pub.publish(record(n))
            assert ack(pub, "r1", 3)["ok"]
            ack(pub, "r1", 1)  # a reordered older ack
            assert pub.stats()["replicas"][0]["acked"] == 3
            assert ack(pub, "stranger", 9)["ok"]  # unknown name: ignored
            for bad in ({"replica": "", "commit": 1},
                        {"replica": "r1", "commit": -1},
                        {"replica": "r1", "commit": True}):
                with pytest.raises(protocol.ProtocolError):
                    pub.ack(bad)

        run(main())


class TestHeartbeatAndRebase:
    def test_heartbeats_carry_the_head_until_stopped(self):
        async def main():
            pub, _ = make(heartbeat=0.01)
            link = subscribe(pub, "r1")
            pub.publish(record(1))
            await asyncio.sleep(0.05)
            pub.stop()
            beats = [m for m in link.messages() if m.get("heartbeat")]
            assert beats and {m["commit"] for m in beats} == {1}
            seen = len(link.messages())
            await asyncio.sleep(0.03)
            assert len(link.messages()) == seen  # stopped

        run(main())

    def test_rebase_starts_a_fresh_stream_at_the_applied_watermark(self):
        async def main():
            pub, _ = make()
            old_stream = subscribe(pub, "r1").messages()[0]["result"]["stream"]
            pub.rebase(41)
            assert pub.head == 41 and pub.promoted
            assert pub.publish(record(1)) == 42
            stats = pub.stats()
            assert stats["role"] == "primary" and stats["promoted"]
            assert stats["stream"] != old_stream
            with pytest.raises(ReplicationError):
                subscribe(pub, "r2", from_commit=40)

        run(main())
