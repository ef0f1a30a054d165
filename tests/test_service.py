"""Tests for the TCP service layer (repro.service)."""

import json
import random
import socket
import struct
import threading
import time

import pytest

from repro.core import reference
from repro.faults import FaultInjector
from repro.service import (
    ServerHandle,
    ServiceClient,
    ServiceError,
    TransportError,
    protocol,
)
from repro.sharding import WouldBlock


@pytest.fixture
def sum_server(open_shards):
    sharded = open_shards(num_shards=4, span=(0, 1000),
                          branching=4, leaf_capacity=4)
    with ServerHandle.start(sharded, batch_max=8) as handle:
        yield handle, sharded


def each_read_route(open_shards):
    """Serve a committed tree, which answers a lookup on the event loop,
    then one whose root pages are still uncommitted (dirty stores),
    which answers it in an executor burst.  Yields the handle, the tree,
    and whether lookups run on the loop."""
    for on_loop in (True, False):
        sharded = open_shards(num_shards=4, span=(0, 1000))
        if on_loop:
            sharded.commit()
        with ServerHandle.start(sharded, batch_max=8) as handle:
            yield handle, sharded, on_loop


def client_for(handle, **kwargs):
    return ServiceClient(handle.host, handle.port, timeout=5.0, **kwargs)


class TestProtocol:
    def test_frame_roundtrip(self):
        frame = protocol.encode_frame({"op": "ping", "id": 3})
        length = protocol.decode_length(frame[:4])
        assert length == len(frame) - 4
        assert protocol.decode_body(frame[4:]) == {"op": "ping", "id": 3}

    def test_infinite_endpoints_roundtrip(self):
        frame = protocol.encode_frame({"lo": float("-inf"), "hi": float("inf")})
        body = protocol.decode_body(frame[4:])
        assert body["lo"] == float("-inf")
        assert body["hi"] == float("inf")

    def test_oversized_frame_rejected(self):
        with pytest.raises(protocol.FrameTooLarge):
            protocol.decode_length(struct.pack(">I", protocol.MAX_FRAME + 1))

    def test_non_object_body_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(b"[1, 2, 3]")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_body(b"\xff\xfe")

    def test_replies_echo_id(self):
        assert protocol.ok_reply(1, {"id": 9}) == {"ok": True, "result": 1,
                                                   "id": 9}
        err = protocol.error_reply("bad_request", "nope", {"id": 9})
        assert err["id"] == 9 and err["ok"] is False


class TestServerBasics:
    def test_ping_and_roundtrip(self, sum_server):
        handle, _ = sum_server
        with client_for(handle) as svc:
            assert svc.ping()
            assert svc.insert(5, 10, 40) == 1
            assert svc.lookup(19) == 5
            assert svc.lookup(40) == 0
            rows = svc.rangeq(0, 100)
            assert (5, ) == tuple(
                value for value, iv in rows if iv.start == 10
            )

    def test_batch_insert_and_oracle(self, sum_server):
        handle, _ = sum_server
        rng = random.Random(2)
        facts = []
        with client_for(handle) as svc:
            batch = []
            for _ in range(60):
                s = rng.randint(0, 900)
                e = s + rng.randint(1, 80)
                v = rng.randint(1, 9)
                batch.append([v, s, e])
                facts.append((v, (s, e)))
            assert svc.batch_insert(batch) == 60
            assert svc.stats()["shards"]["facts"] == 60
            for t in [0, 250, 251, 499, 500, 750, 999]:
                assert svc.lookup(t) == reference.instantaneous_value(
                    facts, "sum", t
                )
            for value, iv in svc.rangeq(0, 1000):
                t = iv.start
                if t == float("-inf"):
                    continue
                assert value == reference.instantaneous_value(facts, "sum", t)

    def test_window_on_min_kind(self, open_shards):
        sharded = open_shards("min", num_shards=3, span=(0, 300))
        facts = []
        rng = random.Random(4)
        with ServerHandle.start(sharded) as handle:
            with client_for(handle) as svc:
                batch = []
                for _ in range(30):
                    s = rng.randint(0, 280)
                    e = s + rng.randint(1, 40)
                    v = rng.randint(1, 99)
                    batch.append([v, s, e])
                    facts.append((v, (s, e)))
                svc.batch_insert(batch)
                for _ in range(20):
                    t = rng.randint(0, 300)
                    w = rng.randint(0, 60)
                    assert svc.window(t, w) == reference.cumulative_value(
                        facts, "min", t, w
                    )

    def test_concurrent_clients(self, sum_server):
        """Many closed-loop clients on disjoint bands, all verified."""
        handle, _ = sum_server
        errors = []

        def worker(index):
            lo, hi = index * 250, (index + 1) * 250
            rng = random.Random(index)
            facts = []
            try:
                with client_for(handle) as svc:
                    for _ in range(40):
                        s = rng.randint(lo, hi - 10)
                        e = s + rng.randint(1, 9)
                        v = rng.randint(1, 9)
                        svc.insert(v, s, e)
                        facts.append((v, (s, e)))
                        t = rng.randint(lo, hi - 1)
                        got = svc.lookup(t)
                        want = reference.instantaneous_value(facts, "sum", t)
                        if got != want:
                            errors.append((t, got, want))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestStructuredErrors:
    def test_unknown_op(self, sum_server):
        handle, _ = sum_server
        with client_for(handle, retries=0) as svc:
            with pytest.raises(ServiceError) as info:
                svc._request("frobnicate")
            assert info.value.type == protocol.ERR_UNKNOWN_OP
            assert svc.ping()  # connection still usable

    def test_unknown_ops_share_one_registry_entry(self, sum_server):
        """Every op the server does not route counts as
        ``service.invalid``: names a client makes up add no metrics."""
        handle, _ = sum_server
        with client_for(handle, retries=0) as svc:
            futures = [svc.submit(f"nosuchop{i}", flush=False) for i in range(200)]
            svc.flush()
            for future in futures:
                with pytest.raises(ServiceError) as info:
                    future.result()
                assert info.value.type == protocol.ERR_UNKNOWN_OP
            ops = svc.stats()["ops"]
        assert list(ops) == ["service.invalid"]
        assert ops["service.invalid"]["count"] == 200

    def test_a_non_string_op_is_unknown_not_a_dropped_connection(self, sum_server):
        handle, _ = sum_server
        with socket.create_connection((handle.host, handle.port), 5) as sock:
            sock.sendall(protocol.encode_frame({"op": [1], "id": 1}))
            reply = protocol.recv_frame_blocking(sock)
            assert reply["id"] == 1
            assert reply["error"]["type"] == protocol.ERR_UNKNOWN_OP
            sock.sendall(protocol.encode_frame({"op": "ping", "id": 2}))
            assert protocol.recv_frame_blocking(sock)["result"] == "pong"

    def test_bad_arguments(self, sum_server):
        handle, _ = sum_server
        with client_for(handle, retries=0) as svc:
            with pytest.raises(ServiceError) as info:
                svc.insert(5, 40, 10)  # empty interval
            assert info.value.type == protocol.ERR_BAD_REQUEST
            with pytest.raises(ServiceError) as info:
                svc._request("lookup", t="nineteen")
            assert info.value.type == protocol.ERR_BAD_REQUEST
            assert svc.ping()

    def test_window_unsupported_on_sum(self, sum_server):
        handle, _ = sum_server
        with client_for(handle, retries=0) as svc:
            with pytest.raises(ServiceError) as info:
                svc.window(500, 100)
            assert info.value.type == protocol.ERR_UNSUPPORTED
            assert svc.ping()

    def test_malformed_json_gets_error_then_close(self, sum_server):
        handle, _ = sum_server
        with socket.create_connection((handle.host, handle.port), 5) as sock:
            garbage = b"this is not json"
            sock.sendall(struct.pack(">I", len(garbage)) + garbage)
            reply = protocol.recv_frame_blocking(sock)
            assert reply is not None and not reply["ok"]
            assert reply["error"]["type"] == protocol.ERR_BAD_REQUEST
            # The stream offset is untrusted now: server hangs up.
            assert protocol.recv_frame_blocking(sock) is None
        # And a fresh connection works fine.
        with client_for(handle) as svc:
            assert svc.ping()

    def test_non_object_body(self, sum_server):
        handle, _ = sum_server
        with socket.create_connection((handle.host, handle.port), 5) as sock:
            body = json.dumps([1, 2, 3]).encode()
            sock.sendall(struct.pack(">I", len(body)) + body)
            reply = protocol.recv_frame_blocking(sock)
            assert reply is not None
            assert reply["error"]["type"] == protocol.ERR_BAD_REQUEST

    def test_every_mapped_exception_has_one_wire_type(self, open_shards):
        """The single exception -> reply mapping, one row per class.

        Built without ``start()`` (no socket) as a replica of a made-up
        address so ``not_primary`` has a hint to carry.
        """
        from repro.concurrent import LockTimeout
        from repro.faults import SimulatedCrash
        from repro.service import server as server_mod
        from repro.sharding import ShardingError, WindowUnsupportedError

        sharded = open_shards(num_shards=2, span=(0, 100))
        server = server_mod.TemporalAggregateServer(
            sharded, replica_of="10.1.2.3:7071"
        )
        request = {"op": "insert", "id": 41}
        table = [
            (server_mod.DeadlineExpired("late"), protocol.ERR_DEADLINE),
            (server_mod.Draining("draining"), protocol.ERR_SHUTTING_DOWN),
            # A subclass of ShardingError: must not fall into bad_request.
            (WindowUnsupportedError("no window"), protocol.ERR_UNSUPPORTED),
            (ShardingError("bad split"), protocol.ERR_BAD_REQUEST),
            (protocol.ProtocolError("bad field"), protocol.ERR_BAD_REQUEST),
            (protocol.FrameTooLarge("huge"), protocol.ERR_BAD_REQUEST),
            (SimulatedCrash("pager.write"), protocol.ERR_FAULT),
            (LockTimeout("shard 1"), protocol.ERR_TIMEOUT),
            (server_mod.NotPrimary("replica"), protocol.ERR_NOT_PRIMARY),
            (server_mod.CommitFailed("disk"), protocol.ERR_SERVER),
            (RuntimeError("kaboom"), protocol.ERR_SERVER),
        ]
        for exc, want in table:
            reply = server._error_reply_for(exc, request, "trace-7")
            error = reply["error"]
            assert error["type"] == want, type(exc).__name__
            assert reply["ok"] is False and reply["id"] == 41
            assert str(exc) in error["message"]
            # Hints ride only on the types that define them.
            assert ("retry_after" in error) == (
                want == protocol.ERR_SHUTTING_DOWN
            )
            assert error.get("primary") == (
                "10.1.2.3:7071" if want == protocol.ERR_NOT_PRIMARY else None
            )
            assert error.get("trace_id") == (
                "trace-7" if want == protocol.ERR_SERVER else None
            )


class TestFaultInjection:
    def test_failed_shard_apply_is_structured_error(self, open_shards):
        """A crashing shard apply surfaces as ERR_FAULT, not a hang, and
        the shard state stays intact."""
        injector = FaultInjector()
        sharded = open_shards(num_shards=4, span=(0, 1000),
                              fault_injector=injector)
        with ServerHandle.start(sharded, batch_max=1) as handle:
            with client_for(handle, retries=0) as svc:
                svc.insert(3, 10, 20)  # hit 1 of shard_apply
                injector.crash_at("shard_apply", hit=2)
                started = time.monotonic()
                with pytest.raises(ServiceError) as info:
                    svc.insert(9, 30, 40)
                assert info.value.type == protocol.ERR_FAULT
                assert "shard_apply" in info.value.message
                assert time.monotonic() - started < 5.0  # no hang
                # Shard state intact: old fact present, failed one absent.
                assert svc.lookup(15) == 3
                assert svc.lookup(35) == 0
                assert svc.stats()["shards"]["facts"] == 1
                assert svc.ping()

    def test_slow_shard_delays_but_succeeds(self, open_shards):
        injector = FaultInjector()
        injector.slow_at("shard_apply", 0.25, hit=1)
        sharded = open_shards(num_shards=2, span=(0, 100),
                              fault_injector=injector)
        with ServerHandle.start(sharded, batch_max=1) as handle:
            with client_for(handle, retries=0) as svc:
                started = time.monotonic()
                assert svc.insert(4, 10, 20) == 1
                assert time.monotonic() - started >= 0.2
                assert svc.lookup(15) == 4
                assert injector.injected.get("delay") == 1

    def test_slow_shard_does_not_block_reads(self, open_shards):
        """While a write batch stalls in one shard, lookups on another
        connection keep answering (the delay holds a worker thread, not
        the event loop)."""
        injector = FaultInjector()
        injector.slow_at("shard_apply", 0.5, hit=2)
        sharded = open_shards(num_shards=2, span=(0, 100),
                              fault_injector=injector)
        with ServerHandle.start(sharded, batch_max=1) as handle:
            with client_for(handle) as svc:
                svc.insert(2, 10, 20)  # hit 1: fast

            stalled_done = threading.Event()

            def stalled_writer():
                with client_for(handle, retries=0) as writer:
                    writer.insert(5, 60, 70)  # hit 2: sleeps 0.5s
                stalled_done.set()

            thread = threading.Thread(target=stalled_writer, daemon=True)
            thread.start()
            time.sleep(0.1)  # let the slow apply start
            with client_for(handle) as reader:
                started = time.monotonic()
                assert reader.lookup(15) == 2
                assert time.monotonic() - started < 0.4
            assert stalled_done.wait(timeout=5)
            thread.join(timeout=5)


class TestLifecycle:
    def test_graceful_drain_completes_inflight(self, open_shards):
        sharded = open_shards(num_shards=2, span=(0, 100))
        handle = ServerHandle.start(sharded, batch_max=1)
        committer = handle.server.committer
        flushes = handle.server.registry.counter("service.batch.flushes")
        lock = sharded.shards[sharded.router.shard_of(10)].lock
        result = {}

        def write(svc, name):
            result[name] = svc.insert(7, 10, 20)

        def until(condition):
            deadline = time.monotonic() + 5
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.002)

        with client_for(handle) as first, client_for(handle) as second:
            # When stop() runs, one write is mid-apply (parked behind the
            # shard's write lock) and one is queued behind that flush.
            assert lock.acquire_write(1.0)
            try:
                threads = [threading.Thread(target=write, args=(first, "a"))]
                threads[0].start()
                until(lambda: flushes.value == 1)
                threads.append(threading.Thread(target=write, args=(second, "b")))
                threads[1].start()
                until(lambda: committer.stats()["batch"]["pending"] == 1)
                threads.append(threading.Thread(target=handle.stop))
                threads[2].start()
                until(lambda: committer.draining)
            finally:
                lock.release_write()
            for thread in threads:
                thread.join(timeout=5)
        assert result == {"a": 1, "b": 1}
        assert sharded.facts_applied == 2  # drain flushed what was accepted

    def test_connect_after_stop_fails(self, open_shards):
        sharded = open_shards(num_shards=2, span=(0, 100))
        handle = ServerHandle.start(sharded)
        handle.stop()
        with pytest.raises((TransportError, OSError)):
            with ServiceClient(handle.host, handle.port, timeout=0.5,
                               retries=0) as svc:
                svc.ping()

    def test_stats_content(self, sum_server):
        handle, sharded = sum_server
        lookups, ranges, inserts = 7, 5, 3
        with client_for(handle) as svc:
            for i in range(inserts):
                svc.insert(1, 10 * i, 10 * i + 10)
            for i in range(lookups):  # committed: answered on the loop
                svc.lookup(140 * i + 5)
            # Pipelined range reads: one executor burst.
            futures = [
                svc.submit("rangeq", flush=False, start=0, end=100 + i)
                for i in range(ranges)
            ]
            svc.flush()
            for future in futures:
                future.result()
            stats = svc.stats()
        assert stats["kind"] == "sum"
        assert stats["shards"]["num_shards"] == 4
        assert stats["shards"]["boundaries"] == [250, 500, 750]
        assert stats["counters"]["service.fast_reads"] == lookups
        assert stats["counters"]["service.read_bursts"] >= 1
        ops = stats["ops"]
        assert sorted(ops) == ["service.insert", "service.lookup", "service.rangeq"]
        for name, sent in (
            ("service.lookup", lookups),
            ("service.rangeq", ranges),
            ("service.insert", inserts),
        ):
            summary = ops[name]
            assert summary["op"] == name
            assert summary["count"] == summary["wall_us"]["count"] == sent
            for delta in (
                "reads", "writes", "allocations", "frees", "hits", "misses",
                "evictions", "physical_reads", "physical_writes",
            ):
                assert summary[delta] == 0
                assert summary[delta + "_per_op"] == 0.0
        assert stats["counters"]["service.batch.flushes"] >= 1
        assert stats["batch"]["max"] == 8
        assert stats["batch"]["oldest_wait_us"]["count"] == (  # per flush
            stats["counters"]["service.batch.flushes"]
        )
        assert "service.errors" not in stats["counters"]

    def test_request_ids_echoed(self, sum_server):
        handle, _ = sum_server
        with socket.create_connection((handle.host, handle.port), 5) as sock:
            sock.sendall(protocol.encode_frame({"op": "ping", "id": "a1"}))
            reply = protocol.recv_frame_blocking(sock)
            assert reply["id"] == "a1" and reply["result"] == "pong"


class TestServerErrors:
    """Unhandled server-side exceptions become structured replies."""

    @staticmethod
    def stub_lookup(sharded, on_loop, answer):
        """Replace ``sharded.lookup`` -- the one call both read routes
        make -- declining ``wait=False`` where the real one would."""
        def lookup(t, wait=True):
            if not (wait or on_loop):
                raise WouldBlock("store holds unwritten pages")
            return answer()

        sharded.lookup = lookup

    def test_unhandled_exception_is_server_error(self, open_shards):
        def explode():
            raise RuntimeError("kaboom")

        for handle, sharded, on_loop in each_read_route(open_shards):
            self.stub_lookup(sharded, on_loop, explode)
            with client_for(handle, retries=0) as svc:
                with pytest.raises(ServiceError) as info:
                    svc.lookup(5)
                assert info.value.type == protocol.ERR_SERVER
                assert "RuntimeError" in str(info.value)
                assert "kaboom" in str(info.value)
                # The connection survives: the error was a reply, not a drop.
                assert svc.ping()
                counters = svc.stats()["counters"]
                assert counters["service.errors"] >= 1
                assert counters.get("service.fast_reads", 0) == on_loop
                assert counters.get("service.read_bursts", 0) == (not on_loop)

    def test_unserializable_reply_is_server_error(self, open_shards):
        for handle, sharded, on_loop in each_read_route(open_shards):
            self.stub_lookup(sharded, on_loop, lambda: {1, 2, 3})  # no codec
            with client_for(handle, retries=0) as svc:
                with pytest.raises(ServiceError) as info:
                    svc.lookup(5)
                assert info.value.type == protocol.ERR_SERVER
                assert "not serializable" in str(info.value)
                assert svc.ping()
                counters = svc.stats()["counters"]
                assert counters.get("service.fast_reads", 0) == on_loop
                assert counters.get("service.read_bursts", 0) == (not on_loop)

    def test_server_error_carries_trace_id_when_tracing(self, sum_server):
        import io

        from repro import obs
        from repro.obs import trace

        handle, sharded = sum_server

        def explode(t, wait=True):
            raise RuntimeError("traced failure")

        sharded.lookup = explode
        buf = io.StringIO()
        trace.enable(obs.TraceSink(buf), sample=1.0)
        try:
            with client_for(handle, retries=0) as svc:
                with pytest.raises(ServiceError) as info:
                    svc.lookup(5)
        finally:
            trace.disable()
        assert info.value.type == protocol.ERR_SERVER
        assert info.value.trace_id is not None
        # The id in the error matches the trace the client emitted.
        emitted = {json.loads(line)["trace_id"]
                   for line in buf.getvalue().splitlines()}
        assert info.value.trace_id in emitted

    def test_error_without_tracing_has_no_trace_id(self, sum_server):
        handle, sharded = sum_server
        sharded.lookup = lambda t, wait=True: (_ for _ in ()).throw(ValueError("x"))
        with client_for(handle, retries=0) as svc:
            with pytest.raises(ServiceError) as info:
                svc.lookup(5)
        assert info.value.type == protocol.ERR_SERVER
        assert info.value.trace_id is None
