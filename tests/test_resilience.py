"""Tests for the resilience layer: exactly-once writes, overload
protection, chaos proxy, and the dedup window's persistence."""

import socket
import struct
import threading
import time

import pytest

from repro.core import reference
from repro.core.sbtree import SBTree
from repro.faults import FaultInjector, derive_rng, simulate_crash
from repro.service import (
    ChaosPlan,
    ChaosProxy,
    CircuitOpenError,
    DedupWindow,
    ServerHandle,
    ServiceClient,
    ServiceError,
    TransportError,
    protocol,
)
from repro.service import dedup as dedup_mod
from repro.sharding import ShardedTree
from repro.storage import PagedNodeStore


@pytest.fixture
def sum_server(open_shards):
    sharded = open_shards(num_shards=4, span=(0, 1000),
                          branching=4, leaf_capacity=4)
    with ServerHandle.start(sharded, batch_max=8) as handle:
        yield handle, sharded


def client_for(handle, **kwargs):
    kwargs.setdefault("timeout", 5.0)
    return ServiceClient(handle.host, handle.port, **kwargs)


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
# Dedup window unit behavior
# ----------------------------------------------------------------------
class TestDedupWindow:
    def test_miss_hit_stale(self):
        win = DedupWindow(per_client=2)
        assert win.lookup("c", 1) == (dedup_mod.MISS, None)
        win.record("c", 1, {"applied": 1})
        assert win.lookup("c", 1) == (dedup_mod.HIT, {"applied": 1})
        win.record("c", 2, {"applied": 1})
        win.record("c", 3, {"applied": 1})  # evicts seq 1 -> floor
        status, stored = win.lookup("c", 1)
        assert status == dedup_mod.STALE and stored is None
        assert win.lookup("c", 4) == (dedup_mod.MISS, None)

    def test_max_clients_eviction(self):
        win = DedupWindow(per_client=4, max_clients=2)
        for name in ("a", "b", "c"):
            win.record(name, 1, {"applied": 1})
        assert win.num_clients == 2
        assert win.lookup("a", 1) == (dedup_mod.MISS, None)  # forgotten

    def test_encode_load_roundtrip(self):
        win = DedupWindow(per_client=8, persist_per_client=8)
        for seq in range(1, 5):
            win.record("c", seq, {"applied": seq})
        payload = win.encode_with([(("d", 7), {"applied": 2})])
        restored = DedupWindow(per_client=8)
        assert restored.load([payload]) == 5
        assert restored.lookup("c", 3) == (dedup_mod.HIT, {"applied": 3})
        assert restored.lookup("d", 7) == (dedup_mod.HIT, {"applied": 2})

    def test_persist_cap_collapses_into_floor(self):
        win = DedupWindow(per_client=64, persist_per_client=2)
        for seq in range(1, 7):
            win.record("c", seq, {"applied": 1})
        restored = DedupWindow(per_client=64)
        restored.load([win.encode_with()])
        # Only the newest 2 survive verbatim; older seqs answer stale.
        assert restored.lookup("c", 6)[0] == dedup_mod.HIT
        assert restored.lookup("c", 5)[0] == dedup_mod.HIT
        assert restored.lookup("c", 2)[0] == dedup_mod.STALE

    def test_load_skips_malformed_payloads(self):
        win = DedupWindow()
        assert win.load(["not json", None, "", '{"v":1}', '{"v":1,"clients":3}']) == 0
        assert win.num_clients == 0


# ----------------------------------------------------------------------
# Exactly-once server behavior
# ----------------------------------------------------------------------
class TestExactlyOnce:
    def test_duplicate_insert_replayed(self, sum_server):
        handle, sharded = sum_server
        with client_for(handle) as svc:
            assert svc.insert(5, 10, 40, seq=1) == 1
            result = svc.insert_result(5, 10, 40, seq=1)
            assert result["duplicate"] is True
            assert svc.lookup(20) == 5  # applied once, not twice
        assert sharded.facts_applied == 1

    def test_duplicate_across_reconnects(self, sum_server):
        handle, sharded = sum_server
        with client_for(handle, client_id="fixed") as svc:
            assert svc.insert(3, 100, 200, seq=9) == 1
        # A fresh connection, same identity: the retry of a write whose
        # reply was lost while the socket died.
        with client_for(handle, client_id="fixed") as svc:
            result = svc.insert_result(3, 100, 200, seq=9)
            assert result["duplicate"] is True
            assert svc.lookup(150) == 3
        assert sharded.facts_applied == 1

    def test_window_eviction_still_deduplicates(self, open_shards):
        sharded = open_shards(num_shards=2, span=(0, 1000))
        with ServerHandle.start(sharded, batch_max=1, dedup_window=4) as handle:
            with client_for(handle, client_id="evict") as svc:
                for seq in range(1, 7):
                    svc.insert(1, seq * 10, seq * 10 + 5, seq=seq)
                # seq 1 has been evicted from the 4-entry window: the
                # retry is still answered as a duplicate via the floor.
                result = svc.insert_result(1, 10, 15, seq=1)
                assert result["duplicate"] is True
                assert result["applied"] == 0
                assert result.get("evicted") is True
        assert sharded.facts_applied == 6

    def test_bad_idempotency_fields_rejected(self, sum_server):
        handle, _ = sum_server
        with client_for(handle, retries=0) as svc:
            with pytest.raises(ServiceError) as err:
                svc._request("insert", value=1, start=0, end=5,
                             client="", seq=1)
            assert err.value.type == "bad_request"
            with pytest.raises(ServiceError) as err:
                svc._request("insert", value=1, start=0, end=5,
                             client="c", seq=0)
            assert err.value.type == "bad_request"

    def test_legacy_writes_without_key_still_work(self, sum_server):
        handle, sharded = sum_server
        with client_for(handle) as svc:
            assert svc._request("insert", value=2, start=0, end=9)["applied"] == 1
            assert svc._request("insert", value=2, start=0, end=9)["applied"] == 1
        assert sharded.facts_applied == 2  # no key -> no dedup


class TestDedupPersistence:
    @staticmethod
    def _paged_server(directory):
        """A one-shard server over ``directory``; returns its page file's
        store, path and the handle."""
        sharded = ShardedTree.open(str(directory), "sum", [])
        store = sharded.shards[0].tree.store
        return store, store.pager.path, ServerHandle.start(sharded, batch_max=4)

    def test_dedup_survives_crash_restart(self, tmp_path):
        store, _, handle = self._paged_server(tmp_path)
        with client_for(handle, client_id="crashy") as svc:
            assert svc.insert(7, 10, 50, seq=1) == 1  # acked => committed
        simulate_crash(store)  # die without any graceful shutdown
        handle.stop()

        sharded2 = ShardedTree.open(str(tmp_path), "sum", [])  # WAL replay
        with ServerHandle.start(sharded2, batch_max=4) as handle2:
            with client_for(handle2, client_id="crashy") as svc:
                result = svc.insert_result(7, 10, 50, seq=1)
                assert result["duplicate"] is True
                assert svc.lookup(20) == 7  # once, despite the retry
        assert sharded2.facts_applied == 0  # replay never touched the tree
        sharded2.close()

    def test_a_window_past_the_header_page_keeps_its_newest_clients(
        self, tmp_path
    ):
        """Two hundred writers, one write each, on the default 4 KiB
        pages: every write is acked, and the window that no longer fits
        the header keeps its most recently active clients in it."""
        store, _, handle = self._paged_server(tmp_path)
        for n in range(200):
            with client_for(handle, client_id=f"writer-{n:03d}") as svc:
                assert svc.insert_result(1, n, n + 10, seq=1) == {"applied": 1}
        left_out = handle.server.registry.gauge(
            "service.dedup.unpersisted_clients"
        ).value
        simulate_crash(store)
        handle.stop()
        assert 0 < left_out < 200

        sharded2 = ShardedTree.open(str(tmp_path), "sum", [])  # WAL replay
        with ServerHandle.start(sharded2, batch_max=4) as handle2:
            with client_for(handle2, client_id="writer-199") as svc:
                assert svc.insert_result(1, 199, 209, seq=1)["duplicate"] is True
                assert svc.lookup(205) == 4  # writers 196..199, once each
        assert sharded2.facts_applied == 0
        sharded2.close()

    def test_acked_writes_and_dedup_survive_graceful_restart(self, tmp_path):
        store, path, handle = self._paged_server(tmp_path)
        with client_for(handle, client_id="c") as svc:
            svc.insert(2, 0, 100, seq=1)
            svc.insert(4, 50, 150, seq=2)
        handle.stop()
        store.close()

        store2 = PagedNodeStore(path, "sum")
        tree = SBTree(store=store2)
        want = reference.instantaneous_table(
            [(2, (0, 100)), (4, (50, 150))], "sum"
        )
        assert tree.to_table() == want
        win = DedupWindow()
        assert win.load([store2.get_meta("service.dedup")]) == 2
        store2.close()

    def test_drain_flushes_and_commits_pending_batch(self, tmp_path):
        # A batch still waiting on the group-commit timer when stop()
        # begins must be applied and committed, not dropped.
        store, path, handle = self._paged_server(tmp_path)
        acked = []

        def write():
            with client_for(handle, client_id="drainer") as svc:
                acked.append(svc.insert(9, 10, 20, seq=1))

        # batch_max=4 is never reached; the write waits on the delay
        # timer while the drain races it.
        writer = threading.Thread(target=write)
        writer.start()
        time.sleep(0.05)
        handle.stop()
        writer.join(timeout=5)
        assert acked == [1]
        store.close()

        store2 = PagedNodeStore(path, "sum")
        tree = SBTree(store=store2)
        assert tree.to_table() == reference.instantaneous_table(
            [(9, (10, 20))], "sum"
        )
        store2.close()


# ----------------------------------------------------------------------
# Overload protection and deadlines
# ----------------------------------------------------------------------
class TestOverload:
    def test_deadline_zero_is_shed(self, sum_server):
        handle, _ = sum_server
        with client_for(handle, retries=0) as svc:
            with pytest.raises(ServiceError) as err:
                svc._request("lookup", t=5, deadline_ms=0)
            assert err.value.type == "deadline_exceeded"

    def test_generous_deadline_passes(self, sum_server):
        handle, _ = sum_server
        with client_for(handle, deadline_ms=30_000) as svc:
            assert svc.ping()
            assert svc._request("lookup", t=5, deadline_ms=30_000) == 0

    def test_malformed_deadline_rejected(self, sum_server):
        handle, _ = sum_server
        with client_for(handle, retries=0) as svc:
            with pytest.raises(ServiceError) as err:
                svc._request("ping", deadline_ms="soon")
            assert err.value.type == "bad_request"

    def test_overloaded_rejection_carries_retry_after(self, open_shards):
        injector = FaultInjector()
        injector.slow_at("shard_apply", 0.5)
        sharded = open_shards(num_shards=2, span=(0, 1000),
                              fault_injector=injector)
        with ServerHandle.start(sharded, batch_max=1,
                                max_inflight=1) as handle:
            blocker_done = []

            def blocker():
                with client_for(handle) as svc:
                    svc.insert(1, 0, 10)
                    blocker_done.append(True)

            thread = threading.Thread(target=blocker)
            thread.start()
            time.sleep(0.1)  # the slow apply now occupies the one slot
            with client_for(handle, retries=0) as svc:
                with pytest.raises(ServiceError) as err:
                    svc.ping()
                assert err.value.type == "overloaded"
                assert err.value.retry_after > 0
            thread.join(timeout=5)
            assert blocker_done == [True]

    def test_client_retries_overload_to_success(self, open_shards):
        injector = FaultInjector()
        injector.slow_at("shard_apply", 0.3)
        sharded = open_shards(num_shards=2, span=(0, 1000),
                              fault_injector=injector)
        with ServerHandle.start(sharded, batch_max=1,
                                max_inflight=1) as handle:
            thread = threading.Thread(
                target=lambda: client_for(handle).insert(1, 0, 10)
            )
            thread.start()
            time.sleep(0.1)
            # Retries ride out the overload window (retry_after floor).
            with client_for(handle, retries=8, retry_backoff=0.05) as svc:
                assert svc.ping()
            thread.join(timeout=5)


# ----------------------------------------------------------------------
# Client retry machinery
# ----------------------------------------------------------------------
class TestClientRetries:
    def test_backoff_is_capped_exponential_with_jitter(self):
        svc = ServiceClient(jitter_seed=7, client_id="t",
                            retry_backoff=0.1, retry_backoff_max=0.8)
        delays = [svc.backoff_delay(n) for n in range(1, 8)]
        for n, delay in enumerate(delays, start=1):
            ceiling = min(0.1 * 2 ** (n - 1), 0.8)
            assert 0.5 * ceiling <= delay <= ceiling
        assert max(delays) <= 0.8

    def test_retry_after_hint_beats_backoff_cap(self):
        # A server's retry_after is a statement about when capacity
        # returns; the client must honor it even past its own
        # retry_backoff_max ceiling instead of hammering early.
        svc = ServiceClient(jitter_seed=7, client_id="t",
                            retry_backoff=0.05, retry_backoff_max=0.4)
        delay = svc.backoff_delay(1, hint=3.0)
        assert delay >= 3.0
        # ...but never past the request's remaining deadline budget:
        # sleeping through the deadline guarantees ERR_DEADLINE.
        capped = svc.backoff_delay(1, hint=3.0, remaining_ms=250.0)
        assert capped <= 0.25
        assert svc.backoff_delay(1, hint=3.0, remaining_ms=0.0) == 0.0

    def test_jitter_is_deterministic_per_seed(self):
        a = ServiceClient(jitter_seed=3, client_id="x")
        b = ServiceClient(jitter_seed=3, client_id="x")
        c = ServiceClient(jitter_seed=4, client_id="x")
        seq_a = [a.backoff_delay(n) for n in range(1, 6)]
        seq_b = [b.backoff_delay(n) for n in range(1, 6)]
        seq_c = [c.backoff_delay(n) for n in range(1, 6)]
        assert seq_a == seq_b
        assert seq_a != seq_c

    def test_retry_budget_bounds_total_retry_time(self):
        # Many retries configured, tiny budget: the call must give up
        # once the budget is spent, not sleep through all 50 backoffs.
        port = _free_port()  # nothing listening
        svc = ServiceClient("127.0.0.1", port, timeout=0.5, retries=50,
                            retry_backoff=0.05, retry_budget=0.3,
                            jitter_seed=1, circuit_threshold=1000)
        started = time.monotonic()
        with pytest.raises(TransportError):
            svc._request("ping")
        elapsed = time.monotonic() - started
        assert elapsed < 2.0  # far below 50 exponential backoffs

    def test_circuit_breaker_opens_and_half_opens(self):
        port = _free_port()
        svc = ServiceClient("127.0.0.1", port, timeout=0.2, retries=0,
                            circuit_threshold=2, circuit_cooldown=0.15,
                            jitter_seed=1)
        for _ in range(2):
            with pytest.raises(TransportError):
                svc._request("ping")
        assert svc.circuit_open
        with pytest.raises(CircuitOpenError):
            svc._request("ping")
        time.sleep(0.2)  # cooldown over: one trial allowed (and fails)
        with pytest.raises(TransportError):
            try:
                svc._request("ping")
            except CircuitOpenError:
                pytest.fail("half-open trial should reach the socket")
            raise
        assert svc.circuit_open  # the failed trial re-opened it

    def test_half_open_admits_exactly_one_concurrent_trial(self):
        # Callers racing the cooldown expiry must not all be admitted
        # at once (a thundering herd into a server that was overloaded
        # moments ago): exactly one trial goes through, the rest keep
        # failing fast until it resolves.
        svc = ServiceClient("127.0.0.1", 1, timeout=0.2, retries=0,
                            circuit_threshold=1, circuit_cooldown=0.05,
                            jitter_seed=1)
        svc._note_failure()
        assert svc.circuit_open
        time.sleep(0.1)  # cooldown elapsed: the circuit is half-open
        admitted, rejected = [], []
        barrier = threading.Barrier(6)

        def probe():
            barrier.wait()
            try:
                svc._check_circuit()
                admitted.append(1)
            except CircuitOpenError:
                rejected.append(1)

        threads = [threading.Thread(target=probe) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert len(admitted) == 1
        assert len(rejected) == 5
        # The trial failing re-opens the circuit for a full cooldown...
        svc._note_failure()
        assert svc.circuit_open
        # ...and succeeding closes it for everyone.
        svc._note_success()
        svc._check_circuit()

    def test_circuit_closes_on_success(self, sum_server):
        handle, _ = sum_server
        with client_for(handle, circuit_threshold=2) as svc:
            svc._failures = 1
            assert svc.ping()
            assert svc._failures == 0


# ----------------------------------------------------------------------
# Protocol hardening
# ----------------------------------------------------------------------
class TestProtocolHardening:
    def test_negative_length_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_length(struct.pack(">I", protocol.MAX_FRAME + 9))

    def test_seeded_fuzz_never_kills_the_server(self, sum_server):
        handle, _ = sum_server
        rng = derive_rng(11, "fuzz")
        payloads = []
        for _ in range(80):
            choice = rng.random()
            if choice < 0.2:  # raw garbage bytes, bogus framing
                body = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
                payloads.append(struct.pack(">I", len(body)) + body)
            elif choice < 0.35:  # length prefix lies about the body
                payloads.append(struct.pack(">I", rng.randrange(2**31, 2**32)))
            elif choice < 0.5:  # valid JSON, not an object
                body = b"[1, 2, 3]"
                payloads.append(struct.pack(">I", len(body)) + body)
            elif choice < 0.65:  # object, but nonsense fields
                body = b'{"op": "insert", "value": {}, "seq": -5, "client": 4}'
                payloads.append(struct.pack(">I", len(body)) + body)
            elif choice < 0.85:  # binary magic, then garbage
                body = bytes([protocol.BINARY_MAGIC]) + bytes(
                    rng.randrange(256) for _ in range(rng.randrange(0, 30))
                )
                payloads.append(struct.pack(">I", len(body)) + body)
            else:  # a valid binary frame, truncated mid-body
                frame = protocol.encode_frame(
                    {"op": "insert", "id": 1, "value": 2,
                     "start": 0, "end": 10},
                    codec=protocol.CODEC_BINARY,
                )
                cut = rng.randrange(5, len(frame))
                payloads.append(frame[:cut])
        for payload in payloads:
            with socket.create_connection((handle.host, handle.port),
                                          timeout=2.0) as sock:
                try:
                    sock.sendall(payload)
                    sock.settimeout(1.0)
                    sock.recv(4096)  # error frame or hang-up; both fine
                except OSError:
                    pass
        # The server survived all of it and still answers.
        with client_for(handle) as svc:
            assert svc.ping()


# ----------------------------------------------------------------------
# Chaos proxy
# ----------------------------------------------------------------------
class TestChaosProxy:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ChaosPlan(drop=1.5)
        with pytest.raises(ValueError):
            ChaosPlan(delay_range=(0.5, 0.1))
        assert not ChaosPlan().active
        assert ChaosPlan(duplicate=0.1).active

    def test_transparent_when_inactive(self, sum_server):
        handle, _ = sum_server
        with ChaosProxy(handle.host, handle.port, plan=ChaosPlan(),
                        seed=1) as proxy:
            with ServiceClient(proxy.host, proxy.port, timeout=5.0) as svc:
                assert svc.ping()
                assert svc.insert(2, 10, 20) == 1
                assert svc.lookup(15) == 2
            assert proxy.total_injected == 0
            assert proxy.connections == 1

    def test_duplicated_frames_stay_exactly_once(self, sum_server):
        handle, sharded = sum_server
        plan = ChaosPlan(duplicate=0.6)
        facts = []
        with ChaosProxy(handle.host, handle.port, plan=plan, seed=5) as proxy:
            with ServiceClient(proxy.host, proxy.port, timeout=5.0,
                               retries=4, jitter_seed=5) as svc:
                rng = derive_rng(5, "workload")
                for i in range(30):
                    s = rng.randrange(0, 900)
                    e = s + rng.randrange(1, 80)
                    v = rng.randrange(1, 9)
                    svc.insert(v, s, e)
                    facts.append((v, (s, e)))
                for _ in range(15):
                    t = rng.randrange(0, 1000)
                    assert svc.lookup(t) == reference.instantaneous_value(
                        facts, "sum", t
                    )
            assert proxy.injected.get("duplicate", 0) > 0
        # Exactly once despite every duplicated request frame.
        assert sharded.facts_applied == len(facts)

    def test_duplicated_table_inserts_stay_exactly_once(self, sum_server):
        """A row is folded into a SUM view once however often its frame
        arrives: ``table_insert`` is a keyed group-commit write, so a
        duplicated frame replays the original reply."""
        handle, _ = sum_server
        plan = ChaosPlan(duplicate=0.6)
        facts = []
        with ChaosProxy(handle.host, handle.port, plan=plan, seed=5) as proxy:
            with ServiceClient(proxy.host, proxy.port, timeout=5.0,
                               retries=4, jitter_seed=5) as svc:
                svc.create_view("v", "obs", "sum", lag=0)
                rng = derive_rng(5, "workload")
                for _ in range(30):
                    s = rng.randrange(0, 900)
                    e = s + rng.randrange(1, 80)
                    v = rng.randrange(1, 9)
                    assert svc.table_insert("obs", [[v, s, e]]) == 1
                    facts.append((v, (s, e)))
                svc.refresh_view("v")
                instants = sorted(
                    {t for _, (s, e) in facts for t in (s, (s + e) / 2, e)}
                )
                wrong = [
                    t for t in instants
                    if (svc.query_view("v", t)["value"] or 0)
                    != (reference.instantaneous_value(facts, "sum", t) or 0)
                ]
            assert proxy.injected.get("duplicate", 0) > 0
        assert len(handle.server.views.table("obs")) == len(facts)
        assert len(instants) > 80 and wrong == []

    def test_stop_wakes_the_accept_thread(self):
        """An idle proxy's ``stop()`` returns at once, not after the
        accept thread's join timeout."""
        proxy = ChaosProxy("127.0.0.1", 1, plan=ChaosPlan()).start()
        started = time.monotonic()
        proxy.stop()
        assert time.monotonic() - started < 1.0
        assert not proxy._accept_thread.is_alive()

    def test_derive_rng_reproducible(self):
        assert derive_rng(3, "conn", 1).random() == derive_rng(3, "conn", 1).random()
        assert derive_rng(3, "conn", 1).random() != derive_rng(3, "conn", 2).random()
