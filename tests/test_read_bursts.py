"""The frame loop at socket level: bursts, wake-ups and the two read routes.

Raw sockets and ``protocol.encode_frame`` only -- no ``ServiceClient`` --
so what is sent in one segment is exactly what the test says.  Every
test runs against what ``repro serve`` serves: journaled page files
(``ShardedTree.open``), committed once so their stores start clean.
The one-value ``paged`` parameter keeps the test ids the suite has
always printed for that backend.

Contracts pinned here that the parent commit already kept: one reply
per id, validation, deadline shedding, overload for exactly the
requests past the bound, silence on EOF mid-frame.  New with the burst
loop: lookups on a clean *paged* tree are answered on the event loop
(``service.fast_reads``), a burst's replies leave in one write, the
frames before unframeable input are answered before the hang-up, and
the loop neither waits for a writer nor writes a page for one.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.faults import FaultInjector
from repro.service import ServerHandle, protocol

NAN = float("nan")
FACTS = [(3, (10, 400)), (7, (200, 600)), (5, (550, 800)), (2, (0, 1000))]


def build(open_shards, kind, **options):
    sharded = open_shards(kind, num_shards=4, span=(0, 1000), branching=4,
                          leaf_capacity=4, **options)
    sharded.batch_insert(FACTS)
    sharded.commit()
    return sharded


@pytest.fixture(params=["paged"])
def served(open_shards):
    """A MAX server (sharded ``window`` is MIN/MAX-only) and its tree."""
    sharded = build(open_shards, "max")
    with ServerHandle.start(sharded, batch_max=8) as handle:
        yield handle, sharded


def connect(handle):
    sock = socket.create_connection((handle.host, handle.port), timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def frames_of(messages):
    return b"".join(protocol.encode_frame(m) for m in messages)


def read_replies(sock, count=None):
    """Decode replies until *count* arrived (or, with None, until EOF)."""
    buf = bytearray()
    replies = []
    while count is None or len(replies) < count:
        chunk = sock.recv(1 << 16)
        if not chunk:
            assert count is None, f"EOF after {len(replies)} of {count} replies"
            assert not buf, "EOF inside a reply frame"
            break
        buf += chunk
        while len(buf) >= 4:
            length = protocol.decode_length(bytes(buf[:4]))
            if len(buf) < 4 + length:
                break
            replies.append(protocol.decode_body(bytes(buf[4:4 + length])))
            del buf[:4 + length]
    return replies


def until(condition, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.002)


def body(reply):
    """What must not depend on how a frame arrived: the result, or the
    error's type (messages carry measured milliseconds)."""
    if reply["ok"]:
        return ("ok", repr(reply["result"]))
    return ("error", reply["error"]["type"])


def stats(sock):
    sock.sendall(protocol.encode_frame({"op": "stats", "id": "stats"}))
    (reply,) = read_replies(sock, 1)
    return reply["result"]


def counters(sock):
    return stats(sock)["counters"]


def mixed_burst(tag):
    """64 frames, every kind of request the loop routes differently.
    The insert lands in [900, 950), which no read of the burst touches,
    so replies do not depend on when its group commit runs."""
    kinds = [
        lambda i: {"op": "lookup", "t": (37 * i) % 800},
        lambda i: {"op": "rangeq", "start": (11 * i) % 400, "end": 450 + i},
        lambda i: {"op": "window", "t": (29 * i) % 800, "w": 50},
        lambda i: {"op": "ping"},
        lambda i: {"op": "insert", "value": 1, "start": 900, "end": 950,
                   "client": tag, "seq": i},
        lambda i: {"op": "lookup", "t": NAN},
        lambda i: {"op": "lookup", "t": 5, "deadline_ms": 0},
        lambda i: {"op": "rangeq", "start": 300, "end": 100},
    ]
    return [
        dict(kinds[i % len(kinds)](i), id=f"{tag}-{i}") for i in range(64)
    ]


class TestBursts:
    def test_one_sendall_of_mixed_frames_answers_each_id_once(self, served):
        handle, _ = served
        singles, burst = mixed_burst("one"), mixed_burst("all")
        with connect(handle) as sock:
            one_at_a_time = []
            for message in singles:
                sock.sendall(protocol.encode_frame(message))
                one_at_a_time.extend(read_replies(sock, 1))
        with connect(handle) as sock:
            sock.sendall(frames_of(burst))
            together = read_replies(sock, len(burst))
        by_id = {reply["id"]: reply for reply in together}
        assert sorted(by_id) == sorted(m["id"] for m in burst)
        assert len(by_id) == len(together)
        for message, single in zip(burst, one_at_a_time):
            assert body(by_id[message["id"]]) == body(single), message
        kinds = {body(reply)[1] for reply in together if not reply["ok"]}
        assert kinds == {protocol.ERR_BAD_REQUEST, protocol.ERR_DEADLINE}

    def test_a_burst_split_at_every_byte_offset_is_reassembled(self, served):
        handle, _ = served
        messages = [
            {"op": "lookup", "t": 250}, {"op": "rangeq", "start": 0, "end": 500},
            {"op": "ping"}, {"op": "window", "t": 600, "w": 100},
            {"op": "lookup", "t": 700},
        ]
        with connect(handle) as sock:
            expected = None
            payload = frames_of(dict(m, id=i) for i, m in enumerate(messages))
            for cut in range(1, len(payload)):
                sock.sendall(payload[:cut])
                time.sleep(0.0005)  # let the first segment be served alone
                sock.sendall(payload[cut:])
                replies = read_replies(sock, len(messages))
                got = sorted((r["id"], body(r)) for r in replies)
                expected = expected or got
                assert got == expected, f"split at byte {cut}"
        assert [b for _, b in expected] == [
            ("ok", "7"), ("ok", "[[2, 0, 10], [3, 10, 200], [7, 200, 500]]"),
            ("ok", "'pong'"), ("ok", "7"), ("ok", "5"),
        ]

    def test_eof_mid_frame_closes_silently(self, served):
        handle, _ = served
        with connect(handle) as sock:
            sock.sendall(protocol.encode_frame({"op": "lookup", "t": 250, "id": 1}))
            (whole,) = read_replies(sock, 1)
            torn = protocol.encode_frame({"op": "lookup", "t": 300, "id": 2})
            sock.sendall(torn[:-3])
            sock.shutdown(socket.SHUT_WR)
            assert read_replies(sock) == []  # no reply, no bad_request: EOF
        assert (whole["id"], body(whole)) == (1, ("ok", "7"))

    def test_a_half_closed_connection_still_gets_its_replies(self, served):
        handle, _ = served
        with connect(handle) as sock:
            sock.sendall(frames_of(
                {"op": "rangeq", "start": 0, "end": 500 + i, "id": i}
                for i in range(8)
            ))
            sock.shutdown(socket.SHUT_WR)
            replies = read_replies(sock)
        assert sorted(r["id"] for r in replies) == list(range(8))

    def test_garbage_mid_burst_answers_what_came_before_then_hangs_up(
        self, served
    ):
        handle, _ = served
        before = [
            {"op": "lookup", "t": 250, "id": "a"},
            {"op": "rangeq", "start": 0, "end": 500, "id": "b"},
            {"op": "ping", "id": "c"},
            {"op": "insert", "value": 1, "start": 900, "end": 950,
             "client": "g", "seq": 1, "id": "d"},
        ]
        garbage = (5).to_bytes(4, "big") + b"hello"
        after = protocol.encode_frame({"op": "ping", "id": "never"})
        with connect(handle) as sock:
            sock.sendall(frames_of(before) + garbage + after)
            replies = read_replies(sock)
        assert sorted(r["id"] for r in replies[:-1]) == ["a", "b", "c", "d"]
        assert all(r["ok"] for r in replies[:-1])
        last = replies[-1]
        assert "id" not in last
        assert body(last) == ("error", protocol.ERR_BAD_REQUEST)

    def test_a_read_burst_is_one_job_and_one_write(self, served, monkeypatch):
        handle, _ = served
        writes = []
        write = asyncio.StreamWriter.write

        def counting(self, data):
            writes.append(len(data))
            return write(self, data)

        with connect(handle) as sock:
            before = counters(sock)
            monkeypatch.setattr(asyncio.StreamWriter, "write", counting)
            sock.sendall(frames_of(
                {"op": "rangeq", "start": i, "end": 500 + i, "id": i}
                for i in range(24)
            ))
            replies = read_replies(sock, 24)
            monkeypatch.undo()
            after = counters(sock)
        assert all(r["ok"] for r in replies)
        assert after["service.read_bursts"] - before.get("service.read_bursts", 0) == 1
        assert len(writes) == 1


class TestAdmission:
    def test_overload_rejects_exactly_the_requests_past_the_bound(
        self, open_shards
    ):
        injector = FaultInjector()
        injector.slow_at("shard_apply", 0.01)
        sharded = build(open_shards, "sum", fault_injector=injector)
        lock = sharded.shards[0].lock
        with ServerHandle.start(sharded, max_inflight=8) as handle:
            with connect(handle) as sock:
                assert lock.acquire_write(1.0)  # the admitted reads park here
                try:
                    sock.sendall(frames_of(
                        {"op": "lookup", "t": 20 + i, "id": i} for i in range(32)
                    ))
                    rejected = read_replies(sock, 24)
                finally:
                    lock.release_write()
                admitted = read_replies(sock, 8)
                after = counters(sock)
        assert sorted(r["id"] for r in admitted) == list(range(8))
        assert all(r["ok"] and r["result"] == 5 for r in admitted)
        assert sorted(r["id"] for r in rejected) == list(range(8, 32))
        for reply in rejected:
            assert body(reply) == ("error", protocol.ERR_OVERLOADED)
            assert reply["error"]["retry_after"] > 0
        assert after["service.overload.rejected"] == 24
        assert after.get("service.fast_reads", 0) == 0


    @pytest.mark.parametrize("backend", ["paged"])  # keeps the test id
    def test_pipelined_inserts_hold_queue_slots_on_every_backend(
        self, open_shards, backend
    ):
        """One write route: an insert takes a queue slot and is counted
        in flight until its reply is written."""
        sharded = build(open_shards, "sum")
        before = sharded.facts_applied
        lock = sharded.shards[sharded.router.shard_of(900)].lock

        def insert(i):
            return {"op": "insert", "value": 1, "start": 900, "end": 950,
                    "id": i}

        with ServerHandle.start(sharded, batch_max=1000) as handle:
            server = handle.server
            flushes = server.registry.counter("service.batch.flushes")

            def inflight():  # in process: the stats op would queue
                return server.connections.stats()["inflight"]  # behind lock

            with connect(handle) as sock, connect(handle) as probe:
                assert lock.acquire_write(1.0)
                try:
                    # The first insert's flush parks in its apply, behind
                    # the shard's write lock; the other 99 arrive meanwhile.
                    sock.sendall(frames_of([insert(0)]))
                    until(lambda: flushes.value == 1)
                    sock.sendall(frames_of(insert(i) for i in range(1, 100)))
                    until(lambda: inflight() == 32)
                    time.sleep(0.05)  # room for a 33rd, were there no bound
                    pending = server.committer.stats()["batch"]["pending"]
                    assert pending == 31
                    assert inflight() == 32 >= pending
                finally:
                    lock.release_write()
                replies = read_replies(sock, 100)
                after = stats(probe)
        assert sorted(r["id"] for r in replies) == list(range(100))
        assert all(r["ok"] and r["result"] == {"applied": 1} for r in replies)
        assert sharded.facts_applied - before == 100
        assert after["ops"]["service.insert"]["count"] == 100


class TestTheLoop:
    def test_never_blocks_on_a_writer(self, served):
        handle, sharded = served
        index = sharded.router.shard_of(250)
        lock = sharded.shards[index].lock
        with connect(handle) as a, connect(handle) as b:
            assert counters(a)  # both connections are being served
            fast_before = counters(b).get("service.fast_reads", 0)
            assert lock.acquire_write(1.0)
            try:
                a.sendall(protocol.encode_frame(
                    {"op": "lookup", "t": 250, "id": "parked"}))
                a.settimeout(0.2)
                with pytest.raises(socket.timeout):
                    a.recv(1)
                started = time.perf_counter()
                b.sendall(protocol.encode_frame({"op": "ping", "id": "b"}))
                (pong,) = read_replies(b, 1)
                elapsed = time.perf_counter() - started
            finally:
                lock.release_write()
            a.settimeout(5.0)
            (parked,) = read_replies(a, 1)
            fast_after = counters(b).get("service.fast_reads", 0)
        assert pong["result"] == "pong" and elapsed < 0.05
        assert (parked["id"], parked["result"]) == ("parked", 7)
        assert fast_after == fast_before

    def test_never_writes_for_a_dirty_store(self, open_shards):
        sharded = build(open_shards, "sum")
        pagers = [shard.tree.store.pager for shard in sharded.shards]

        def lookups(sock, n=40):
            sock.sendall(frames_of(
                {"op": "lookup", "t": (i * 25) % 1000, "id": i} for i in range(n)
            ))
            return [r["result"] for r in
                    sorted(read_replies(sock, n), key=lambda r: r["id"])]

        def fast(sock):
            return counters(sock).get("service.fast_reads", 0)

        with ServerHandle.start(sharded) as handle, connect(handle) as sock:
            clean = lookups(sock)
            assert fast(sock) == 40
            # Behind the server's back: applied, not committed.
            sharded.batch_insert([(100, (0, 1000))])
            fsyncs = sum(p.stats.fsyncs for p in pagers)
            assert lookups(sock) == [value + 100 for value in clean]
            assert fast(sock) == 40
            assert sum(p.stats.fsyncs for p in pagers) == fsyncs
            sharded.commit()
            assert lookups(sock) == [value + 100 for value in clean]
            assert fast(sock) == 80

    def test_evicts_clean_frames_without_a_write(self, open_shards):
        """A pool far smaller than the tree: lookups on the loop miss,
        evict and ``pread`` -- and never write or sync."""
        sharded = build(open_shards, "sum", buffer_capacity=2)
        sharded.batch_insert([(1, (t, t + 7)) for t in range(0, 990, 5)])
        sharded.commit()
        pagers = [shard.tree.store.pager for shard in sharded.shards]
        pools = [shard.tree.store.buffer for shard in sharded.shards]
        with ServerHandle.start(sharded) as handle, connect(handle) as sock:
            before = [p.stats.snapshot() for p in pagers]
            evictions = sum(pool.stats.evictions for pool in pools)
            sock.sendall(frames_of(
                {"op": "lookup", "t": (i * 37) % 1000, "id": i} for i in range(200)
            ))
            replies = read_replies(sock, 200)
            assert all(r["ok"] for r in replies)
            assert counters(sock)["service.fast_reads"] == 200
            spent = [p.stats - b for p, b in zip(pagers, before)]
        assert sum(pool.stats.evictions for pool in pools) > evictions
        assert sum(s.physical_reads for s in spent) > 0
        assert sum(s.physical_writes for s in spent) == 0
        assert sum(s.fsyncs for s in spent) == 0


def test_concurrent_bursts_beside_writes_lose_no_reply(served):
    """More client threads than cores, each pipelining mixed bursts
    while inserts commit: every id is answered exactly once."""
    handle, _ = served
    failures = []

    def client(tag):
        try:
            with connect(handle) as sock:
                for round_ in range(6):
                    burst = mixed_burst(f"{tag}.{round_}")
                    sock.sendall(frames_of(burst))
                    replies = read_replies(sock, len(burst))
                    ids = sorted(r["id"] for r in replies)
                    assert ids == sorted(m["id"] for m in burst)
        except BaseException as exc:  # surfaced on the main thread below
            failures.append(exc)

    threads = [threading.Thread(target=client, args=(n,)) for n in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]


def test_take_frames_keeps_a_partial_frame_and_reports_garbage():
    messages = [{"op": "ping", "id": i} for i in range(3)]
    payload = frames_of(messages)
    for cut in range(len(payload) + 1):
        buf = bytearray(payload[:cut])
        first, error = protocol.take_frames(buf)
        assert error is None
        buf += payload[cut:]
        rest, error = protocol.take_frames(buf)
        assert error is None and not buf
        assert [m for m, _ in first + rest] == messages
    buf = bytearray(payload + (5).to_bytes(4, "big") + b"hello" + payload)
    frames, error = protocol.take_frames(buf)
    assert [m for m, _ in frames] == messages
    assert isinstance(error, protocol.ProtocolError)
    lengths = {length for _, length in frames}
    assert lengths == {len(protocol.encode_frame(messages[0])) - 4}
