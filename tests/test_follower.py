"""The replication follower on its own, driven by an in-memory frame
stream: no server and no network.

Before the split, a gap, an idle link, a stalled heartbeat or a corrupt
batch could be produced only by the chaos proxy inside ``rescheck``.
"""

import asyncio
import base64

import pytest

from repro import obs
from repro.service import protocol
from repro.service.replication import (
    Follower,
    StreamRejected,
    StreamReset,
    encode_records,
)

LAYOUT = {"kind": "sum", "boundaries": [250, 500, 750]}


class FakeWriter:
    def __init__(self):
        self.data = bytearray()

    def write(self, payload):
        self.data += payload

    def is_closing(self):
        return False

    def acks(self):
        out, buf = [], bytes(self.data)
        while buf:
            length = protocol.decode_length(buf[:4])
            message = protocol.decode_body(buf[4:4 + length])
            assert message["op"] == "journal_ack" and message["replica"] == "r1"
            out.append(message["commit"])
            buf = buf[4 + length:]
        return out


class Rig:
    """A follower, the reader it consumes, and what it applied."""

    def __init__(self, applied=0, idle=5.0):
        self.registry = obs.MetricsRegistry()
        self.batches = []  # (records, commit) per apply call
        self.follower = Follower(
            "10.0.0.9:7071", self.apply, applied=applied, layout=LAYOUT,
            registry=self.registry, idle=idle, name="r1",
        )
        self.reader = asyncio.StreamReader()
        self.writer = FakeWriter()

    async def apply(self, records, commit):
        self.batches.append((records, commit))
        return sum(len(r.get("facts", ())) for r in records)

    def feed(self, *messages):
        for message in messages:
            self.reader.feed_data(protocol.encode_frame(message))

    async def consume(self):
        await self.follower.consume(self.reader, self.writer)

    async def consume_to_eof(self):
        self.reader.feed_eof()
        with pytest.raises(StreamReset, match="closed"):
            await self.consume()

    def count(self, name):
        return self.registry.counter(name).value


def handshake(commit=0, **overrides):
    result = {"stream": "s1", "commit": commit, **LAYOUT, "heartbeat_s": 0.5}
    result.update(overrides)
    return {"ok": True, "id": 1, "result": result}


def batch(commit, *values, blob=None):
    records = [{"facts": [[v, 0, 10]]} for v in values]
    return {"op": "journal_batch", "commit": commit, "stream": "s1",
            "records": blob if blob is not None else encode_records(records)}


def heartbeat(commit):
    return {"op": "journal_batch", "commit": commit, "heartbeat": True,
            "stream": "s1"}


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=10))


class TestApplyAndAck:
    def test_batches_apply_in_order_and_each_is_acked(self):
        async def main():
            rig = Rig()
            assert rig.follower.stats()["staleness_s"] == -1.0
            rig.feed(handshake(commit=2), batch(1, 5), batch(2, 6, 7),
                     {"ok": True, "result": {}})  # the primary's ack reply
            await rig.consume_to_eof()
            assert [commit for _, commit in rig.batches] == [1, 2]
            assert rig.batches[1][0] == [{"facts": [[6, 0, 10]]},
                                         {"facts": [[7, 0, 10]]}]
            assert rig.writer.acks() == [1, 2]
            assert rig.follower.applied == 2
            assert rig.count("service.repl.batches_applied") == 2
            assert rig.count("service.repl.facts_applied") == 3
            stats = rig.follower.stats()
            assert stats["role"] == "replica"
            assert stats["primary"] == "10.0.0.9:7071"
            assert (stats["applied"], stats["head"], stats["lag_commits"]) == (2, 2, 0)
            assert stats["staleness_s"] >= 0.0
            reply = {"ok": True, "result": 7}
            rig.follower.tag(reply)
            assert reply["watermark"] == 2 and reply["staleness_s"] >= 0.0

        run(main())

    def test_duplicate_commit_is_reacked_without_reapplying(self):
        async def main():
            rig = Rig(applied=4)
            rig.feed(handshake(commit=5), batch(4, 1), batch(3, 1), batch(5, 2))
            await rig.consume_to_eof()
            assert [commit for _, commit in rig.batches] == [5]
            assert rig.writer.acks() == [4, 4, 5]  # cumulative re-acks

        run(main())

    def test_primary_address_forms(self):
        rig_args = dict(applied=0, layout=LAYOUT,
                        registry=obs.MetricsRegistry(), idle=1.0)
        assert Follower(("h", "71"), None, **rig_args).primary_hint() == "h:71"
        assert Follower("::1:7071", None, **rig_args).primary_hint() == "::1:7071"
        for bad in ("no-port", ("h",), 7071, "h:port"):
            with pytest.raises(ValueError, match="host:port"):
                Follower(bad, None, **rig_args)


class TestResets:
    def test_gap_raises_the_reset(self):
        async def main():
            rig = Rig()
            rig.feed(handshake(commit=3), batch(1, 5), batch(3, 9))
            with pytest.raises(StreamReset, match="expected commit 2, got 3"):
                await rig.consume()
            assert rig.follower.applied == 1 and rig.writer.acks() == [1]

        run(main())

    def test_idle_link_raises_the_reset(self):
        async def main():
            rig = Rig(idle=0.05)
            rig.feed(handshake())
            with pytest.raises(StreamReset, match="idle"):
                await rig.consume()

        run(main())

    def test_a_frame_cut_mid_body_and_then_silence_is_idle_too(self):
        async def main():
            rig = Rig(idle=0.05)
            rig.reader.feed_data(protocol.encode_frame(batch(1, 5))[:-3])
            with pytest.raises(StreamReset, match="idle"):
                await rig.consume()
            assert rig.batches == []

        run(main())

    def test_an_unframeable_body_resets_after_the_frames_before_it(self):
        async def main():
            rig = Rig()
            rig.feed(handshake(commit=2), batch(1, 5))
            rig.reader.feed_data(b"\x00\x00\x00\x02{}")  # no 0xB1 magic
            rig.feed(batch(2, 6))  # the offset is lost: never applied
            with pytest.raises(StreamReset, match="unframeable"):
                await rig.consume()
            assert rig.follower.applied == 1 and rig.writer.acks() == [1]

        run(main())

    def test_stalled_heartbeat_raises_the_reset(self):
        async def main():
            rig = Rig(idle=0.05)
            rig.feed(handshake(commit=3))

            async def beat():
                # The link is never idle -- heartbeats keep coming -- but
                # they say the primary is at 3 and nothing else arrives.
                for _ in range(10):
                    rig.feed(heartbeat(3))
                    await asyncio.sleep(0.02)

            beats = asyncio.ensure_future(beat())
            with pytest.raises(StreamReset, match="stalled at commit 0 with head 3"):
                await rig.consume()
            beats.cancel()
            assert rig.follower.stats()["lag_commits"] == 3
            assert rig.writer.acks()[0] == 0  # heartbeats are acked

        run(main())

    def test_heartbeat_at_the_applied_commit_is_healthy(self):
        async def main():
            rig = Rig(applied=3)
            rig.feed(handshake(commit=3), *[heartbeat(3)] * 4)
            await rig.consume_to_eof()
            assert rig.writer.acks() == [3, 3, 3, 3]

        run(main())

    def test_corrupt_blob_is_counted_and_never_half_applied(self):
        async def main():
            rig = Rig()
            raw = bytearray(base64.b64decode(encode_records(
                [{"facts": [[1, 0, 10]]}, {"facts": [[2, 0, 10]]}])))
            raw[-2] ^= 0x40  # flip a bit in the *second* record's payload
            rig.feed(handshake(commit=1),
                     batch(1, blob=base64.b64encode(bytes(raw)).decode()))
            with pytest.raises(StreamReset, match="CRC"):
                await rig.consume()
            assert rig.batches == []  # the intact first record did not apply
            assert rig.follower.applied == 0 and rig.writer.acks() == []
            assert rig.count("service.repl.corrupt_batches") == 1

        run(main())

    def test_bad_commit_field_raises_the_reset(self):
        async def main():
            rig = Rig()
            rig.feed({"op": "journal_batch", "commit": "7", "records": ""})
            with pytest.raises(StreamReset, match="bad commit"):
                await rig.consume()

        run(main())

    def test_transient_error_reply_raises_the_reset(self):
        async def main():
            rig = Rig()
            rig.feed(protocol.error_reply(protocol.ERR_OVERLOADED, "busy"))
            with pytest.raises(StreamReset, match="overloaded"):
                await rig.consume()

        run(main())


class TestRejections:
    @pytest.mark.parametrize("overrides, match", [
        ({"kind": "max"}, "kind 'max'"),
        ({"boundaries": [100, 200]}, "boundaries differ"),
        ({"commit": 2}, "diverged history"),
    ])
    def test_mismatched_handshake_raises_the_rejection(self, overrides, match):
        async def main():
            rig = Rig(applied=5)
            rig.feed(handshake(**{"commit": 9, **overrides}), batch(6, 1))
            with pytest.raises(StreamRejected, match=match):
                await rig.consume()
            assert rig.batches == []  # nothing past the handshake ran

        run(main())

    @pytest.mark.parametrize("err_type", [
        protocol.ERR_NOT_PRIMARY, protocol.ERR_UNSUPPORTED,
        protocol.ERR_BAD_REQUEST,
    ])
    def test_refusal_from_upstream_raises_the_rejection(self, err_type):
        async def main():
            rig = Rig()
            rig.feed(protocol.error_reply(err_type, "no"))
            with pytest.raises(StreamRejected, match=err_type):
                await rig.consume()

        run(main())
