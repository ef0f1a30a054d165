"""Tests for journal-shipping replication: the record codec, the
commit log, a live primary/replica pair, promotion, client routing,
and the failover drill's reporting."""

import base64
import time

import pytest

from repro.rescheck import RescheckResult
from repro.service import (
    CommitLog,
    ReplicationError,
    ServerHandle,
    ServiceClient,
    ServiceError,
    decode_records,
    encode_records,
    protocol,
    render_top,
)
from repro.service.chaos import ChaosPlan


# ----------------------------------------------------------------------
# Record blob codec
# ----------------------------------------------------------------------
class TestRecordCodec:
    def test_round_trip(self):
        records = [
            {"facts": [[5, 10, 20], [3, 15, 30]]},
            {"facts": [[1, 0, 100]], "idem": ["client-a", 7, {"applied": 1}]},
        ]
        assert decode_records(encode_records(records)) == records

    def test_empty_batch(self):
        assert decode_records(encode_records([])) == []

    def test_crc_corruption_rejects_whole_batch(self):
        blob = encode_records([{"facts": [[5, 10, 20]]}, {"facts": [[6, 1, 2]]}])
        raw = bytearray(base64.b64decode(blob))
        raw[-2] ^= 0xFF  # flip a byte inside the LAST record's payload
        with pytest.raises(ReplicationError, match="CRC"):
            decode_records(base64.b64encode(bytes(raw)).decode("ascii"))

    def test_truncated_blob_rejected(self):
        blob = encode_records([{"facts": [[5, 10, 20]]}])
        raw = base64.b64decode(blob)[:-3]
        with pytest.raises(ReplicationError, match="truncated"):
            decode_records(base64.b64encode(raw).decode("ascii"))

    def test_non_string_blob_rejected(self):
        with pytest.raises(ReplicationError):
            decode_records(12345)


# ----------------------------------------------------------------------
# Commit log
# ----------------------------------------------------------------------
class TestCommitLog:
    def test_append_numbers_from_base(self):
        log = CommitLog(base=10)
        assert log.head == 10
        assert log.append("aa", now=1.0) == 11
        assert log.append("bb", now=2.0) == 12
        assert log.head == 12
        assert [seq for seq, _, _ in log.since(10)] == [11, 12]
        assert [seq for seq, _, _ in log.since(11)] == [12]
        assert log.broadcast_time(12) == 2.0

    def test_skip_advances_head_without_retention(self):
        log = CommitLog()
        assert log.skip(now=1.0) == 1
        assert log.head == 1
        assert log.base == 1
        log.append("aa", now=2.0)
        with pytest.raises(ReplicationError):
            log.skip(now=3.0)  # a hole behind retained entries

    def test_truncation_bumps_base_and_refuses_stale_followers(self):
        log = CommitLog(cap_bytes=8)
        for i in range(4):
            log.append("x" * 4, now=float(i))
        assert log.truncations > 0
        assert log.base > 0
        with pytest.raises(ReplicationError, match="re-seed"):
            log.since(0)
        # The retained suffix still streams.
        assert log.since(log.base)


# ----------------------------------------------------------------------
# Live primary/replica pair
# ----------------------------------------------------------------------
def _wait_applied(port, commit, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with ServiceClient("127.0.0.1", port, timeout=2.0) as svc:
            repl = (svc.stats() or {}).get("replication") or {}
            if repl.get("applied", -1) >= commit:
                return repl
        time.sleep(0.02)
    raise AssertionError(f"replica :{port} never applied commit {commit}")


def _wait_subscribed(primary, timeout=10.0):
    """Until the primary has registered its follower: a write acked
    before that is not in any stream, and ``stats()["replication"]`` of
    a primary nobody ever subscribed to is None."""
    deadline = time.monotonic() + timeout
    while not (primary.server.publisher.stats() or {}).get("replicas"):
        assert time.monotonic() < deadline, "the replica never subscribed"
        time.sleep(0.005)


@pytest.fixture
def pair(open_shards):
    primary_tree, replica_tree = (
        open_shards(num_shards=2, span=(0, 1000), branching=4, leaf_capacity=4)
        for _ in range(2)
    )
    primary = ServerHandle.start(primary_tree, batch_max=8,
                                 repl_ack_timeout=5.0)
    replica = ServerHandle.start(
        replica_tree, batch_max=8,
        replica_of=f"127.0.0.1:{primary.port}",
        replica_name="test-replica",
    )
    try:
        _wait_subscribed(primary)
        yield primary, replica
    finally:
        replica.stop()
        primary.stop()


class TestPrimaryReplicaPair:
    def test_stream_applies_and_reads_carry_watermark(self, pair):
        primary, replica = pair
        with ServiceClient("127.0.0.1", primary.port, timeout=5.0) as svc:
            for value, start, end in [(5, 10, 20), (3, 15, 30), (2, 0, 100)]:
                svc.insert(value, start, end)
            commit = svc.stats()["replication"]["commit"]
            want = svc.lookup(17)
        repl = _wait_applied(replica.port, commit)
        assert repl["role"] == "replica"
        assert repl["lag_commits"] == 0
        with ServiceClient("127.0.0.1", replica.port, timeout=5.0) as svc:
            assert svc.lookup(17) == want == 5 + 3 + 2
            assert svc.last_watermark == commit
            assert svc.last_staleness_s is not None
            assert svc.last_staleness_s >= 0.0

    def test_replica_rejects_writes_with_redirect(self, pair):
        primary, replica = pair
        with ServiceClient("127.0.0.1", replica.port, timeout=5.0,
                           retries=0) as svc:
            with pytest.raises(ServiceError) as excinfo:
                svc.insert(1, 0, 10)
        assert excinfo.value.type == protocol.ERR_NOT_PRIMARY
        assert excinfo.value.primary == f"127.0.0.1:{primary.port}"

    def test_client_adopts_redirect_and_writes_land(self, pair):
        primary, replica = pair
        # Pointed at the replica, a retrying client follows the
        # redirect hint and the write lands on the primary.
        with ServiceClient("127.0.0.1", replica.port, timeout=5.0,
                           retries=2, jitter_seed=1) as svc:
            assert svc.insert(4, 0, 50) == 1
            assert svc.port == primary.port
        with ServiceClient("127.0.0.1", primary.port, timeout=5.0) as svc:
            assert svc.lookup(25) == 4

    def test_replica_aware_reads_route_to_replica(self, pair):
        primary, replica = pair
        with ServiceClient("127.0.0.1", primary.port, timeout=5.0) as svc:
            svc.insert(9, 100, 200)
            commit = svc.stats()["replication"]["commit"]
        _wait_applied(replica.port, commit)
        with ServiceClient(
            "127.0.0.1", primary.port, timeout=5.0,
            replicas=[f"127.0.0.1:{replica.port}"],
        ) as svc:
            assert svc.lookup(150) == 9
            assert svc.last_watermark == commit  # served by the replica
        # An unmeetable staleness bound sends the read to the primary
        # instead of returning an over-stale replica answer.
        with ServiceClient(
            "127.0.0.1", primary.port, timeout=5.0,
            replicas=[f"127.0.0.1:{replica.port}"],
            max_staleness_s=0.0,
        ) as svc:
            assert svc.lookup(150) == 9

    def test_primary_stats_track_replica_lag(self, pair):
        primary, replica = pair
        with ServiceClient("127.0.0.1", primary.port, timeout=5.0) as svc:
            svc.insert(1, 0, 10)
            repl = svc.stats()["replication"]
        assert repl["role"] == "primary"
        assert repl["sync"] is True
        names = [entry["name"] for entry in repl["replicas"]]
        assert "test-replica" in names

    def test_promotion_keeps_dedup_and_accepts_writes(self, pair):
        primary, replica = pair
        with ServiceClient("127.0.0.1", primary.port, timeout=5.0,
                           client_id="failover-probe") as svc:
            first = svc.insert_result(7, 300, 310, seq=1)
            assert not first.get("duplicate")
            commit = svc.stats()["replication"]["commit"]
        _wait_applied(replica.port, commit)

        primary.stop()  # the primary "dies"
        with ServiceClient("127.0.0.1", replica.port, timeout=5.0) as svc:
            reply = svc._request("promote")
            assert reply["promoted"] is True
            assert reply["role"] == "primary"
            assert svc.stats()["replication"]["promoted"] is True
        # The pre-failover idempotency key replays as a duplicate, and
        # new writes land on the promoted server.
        with ServiceClient("127.0.0.1", replica.port, timeout=5.0,
                           client_id="failover-probe") as svc:
            replay = svc.insert_result(7, 300, 310, seq=1)
            assert replay["duplicate"] is True
            # distinct seq: the auto-counter would collide with the
            # replayed seq=1 under this client id and dedup the write
            assert svc.insert(2, 300, 310, seq=2) == 1
            assert svc.lookup(305) == 9

    def test_promoting_a_primary_is_a_noop(self, pair):
        primary, _ = pair
        with ServiceClient("127.0.0.1", primary.port, timeout=5.0) as svc:
            reply = svc._request("promote")
        assert reply["promoted"] is False
        assert reply["role"] == "primary"


# ----------------------------------------------------------------------
# Reporting surfaces
# ----------------------------------------------------------------------
class TestReplicationReporting:
    def test_top_renders_primary_panel(self):
        stats = {
            "kind": "sum",
            "replication": {
                "role": "primary",
                "commit": 42,
                "sync": True,
                "promoted": False,
                "replicas": [
                    {"name": "r1", "acked": 40, "lag_commits": 2,
                     "lag_s": 0.5, "connected": True},
                    {"name": "r2", "acked": 10, "lag_commits": 32,
                     "lag_s": 9.0, "connected": False},
                ],
            },
        }
        frame = render_top(stats)
        assert "replication:" in frame
        assert "primary at commit 42" in frame
        assert "semi-sync" in frame
        assert "r1" in frame and "up" in frame
        assert "r2" in frame and "DOWN" in frame

    def test_top_renders_replica_panel(self):
        stats = {
            "kind": "sum",
            "replication": {
                "role": "replica",
                "primary": "127.0.0.1:7071",
                "applied": 40,
                "head": 42,
                "lag_commits": 2,
                "staleness_s": 0.25,
                "connected": True,
            },
        }
        frame = render_top(stats)
        assert "replica of 127.0.0.1:7071" in frame
        assert "lag 2 commits" in frame
        assert "staleness 0.25s" in frame

    def test_top_omits_panel_for_standalone_primary(self):
        assert "replication:" not in render_top({"kind": "sum"})

    def test_failed_rescheck_prints_repro_line_and_logs(self):
        result = RescheckResult()
        result.ok = False
        result.seed = 13
        result.replicas = 1
        result.detail = "boom"
        result.plan = ChaosPlan(drop=0.01, delay=0.1, duplicate=0.2,
                                truncate=0.005, kill=0.002)
        result.log_paths = ["/tmp/x/primary.log", "/tmp/x/replica0.log"]
        text = result.render()
        assert "repro: --seed 13 --drop 0.01" in text
        assert "--drop 0.01" in text
        assert "--replicas 1" in text
        assert "server logs:" in text
        assert "/tmp/x/replica0.log" in text

    def test_green_rescheck_omits_repro_block(self):
        result = RescheckResult()
        result.ok = True
        result.log_paths = ["/tmp/x/primary.log"]
        assert "repro:" not in result.render()
