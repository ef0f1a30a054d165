"""The write route at socket level: a wake-up's inserts are one burst.

Raw frames, as in ``test_read_bursts.py``: what one ``sendall`` carries
is one wake-up of the server's reader, so these tests say exactly which
writes share a burst.  A burst is one task that hands every request to
the group commit before it first suspends, waits for the batches they
joined and writes every reply at once -- and inside it each request
keeps its own admission, deadline, refusal, dedup and error reply.
Counters and the committer are read in process: a ``stats`` frame would
be a request of its own.
"""

import asyncio

import pytest

from repro.service import ServerHandle, protocol

from .test_read_bursts import body, build, connect, frames_of, read_replies


def insert(i, **fields):
    return dict({"op": "insert", "value": 1, "start": 900, "end": 950,
                 "id": i}, **fields)


@pytest.fixture
def served(open_shards):
    """A SUM server with the default flush size, and its tree."""
    sharded = build(open_shards, "sum")
    with ServerHandle.start(sharded) as handle:
        yield handle, sharded


def counter(handle, name):
    return handle.server.registry.counter(name).value


@pytest.fixture
def writes(monkeypatch):
    """Every ``StreamWriter.write`` the server makes while the test runs."""
    sizes = []
    write = asyncio.StreamWriter.write

    def counting(self, data):
        sizes.append(len(data))
        return write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counting)
    return sizes


def test_pipelined_inserts_are_one_burst_one_flush_and_one_write(
    served, writes
):
    handle, sharded = served
    before = sharded.facts_applied
    flushes = counter(handle, "service.batch.flushes")
    with connect(handle) as sock:
        sock.sendall(frames_of(insert(i) for i in range(24)))
        replies = read_replies(sock, 24)
    assert sorted(r["id"] for r in replies) == list(range(24))
    assert all(r["result"] == {"applied": 1} for r in replies)
    assert len(writes) == 1
    assert counter(handle, "service.write_bursts") == 1
    sizes = handle.server.registry.histogram("service.write_burst.size")
    assert (sizes.count, sizes.total) == (1, 24)
    assert counter(handle, "service.batch.flushes") - flushes == 1
    assert sharded.facts_applied - before == 24


def test_a_pipelined_round_of_64_inserts_is_two_reply_writes(served, writes):
    """The connection's 32 queue slots cut the round into two bursts."""
    handle, sharded = served
    before = sharded.facts_applied
    with connect(handle) as sock:
        sock.sendall(frames_of(insert(i) for i in range(64)))
        replies = read_replies(sock, 64)
    assert sorted(r["id"] for r in replies) == list(range(64))
    assert len(writes) == 2
    assert counter(handle, "service.write_bursts") == 2
    assert sharded.facts_applied - before == 64


def test_a_malformed_insert_gets_only_its_own_bad_request(served):
    handle, sharded = served
    before = sharded.facts_applied
    messages = [insert(0), insert(1, start=950, end=900), insert(2),
                insert(3, value=None), insert(4)]
    with connect(handle) as sock:
        sock.sendall(frames_of(messages))
        replies = {r["id"]: body(r) for r in read_replies(sock, 5)}
    bad = ("error", protocol.ERR_BAD_REQUEST)
    assert [replies[i] for i in range(5)] == [
        ("ok", "{'applied': 1}"), bad, ("ok", "{'applied': 1}"), bad,
        ("ok", "{'applied': 1}"),
    ]
    assert counter(handle, "service.write_bursts") == 1
    assert sharded.facts_applied - before == 3


def test_a_lapsed_deadline_sheds_one_insert_and_its_siblings_apply(served):
    handle, sharded = served
    before = sharded.facts_applied
    with connect(handle) as sock:
        sock.sendall(frames_of(
            [insert(0), insert(1, deadline_ms=0), insert(2, deadline_ms=60000)]
        ))
        replies = {r["id"]: body(r) for r in read_replies(sock, 3)}
    assert replies[1] == ("error", protocol.ERR_DEADLINE)
    assert replies[0] == replies[2] == ("ok", "{'applied': 1}")
    assert counter(handle, "service.deadline.shed") == 1
    assert sharded.facts_applied - before == 2


def test_one_key_twice_in_a_burst_applies_once_and_answers_both(served):
    handle, sharded = served
    before = sharded.facts_applied
    key = {"client": "twice", "seq": 1}
    with connect(handle) as sock:
        sock.sendall(frames_of([insert("a", **key), insert("b", **key)]))
        replies = {r["id"]: r["result"] for r in read_replies(sock, 2)}
    assert replies == {
        "a": {"applied": 1}, "b": {"applied": 1, "duplicate": True},
    }
    assert counter(handle, "service.dedup.joins") == 1
    assert sharded.facts_applied - before == 1


def test_a_replica_refuses_every_insert_of_a_burst(open_shards):
    primary_tree, replica_tree = (build(open_shards, "sum") for _ in range(2))
    before = replica_tree.facts_applied
    with ServerHandle.start(primary_tree) as primary, ServerHandle.start(
        replica_tree, replica_of=f"127.0.0.1:{primary.port}"
    ) as replica:
        with connect(replica) as sock:
            sock.sendall(frames_of(
                [insert(0), {"op": "batch_insert", "facts": [[1, 0, 5]],
                             "id": 1}, insert(2, client="r", seq=1)]
            ))
            replies = read_replies(sock, 3)
    assert sorted(r["id"] for r in replies) == [0, 1, 2]
    for reply in replies:
        assert body(reply) == ("error", protocol.ERR_NOT_PRIMARY)
    assert replica_tree.facts_applied == before


def test_max_inflight_rejects_exactly_the_writes_past_the_bound(open_shards):
    sharded = build(open_shards, "sum")
    before = sharded.facts_applied
    with ServerHandle.start(sharded, max_inflight=8) as handle:
        with connect(handle) as sock:
            sock.sendall(frames_of(insert(i) for i in range(32)))
            replies = read_replies(sock, 32)
        overloaded = counter(handle, "service.overload.rejected")
    admitted = sorted(r["id"] for r in replies if r["ok"])
    rejected = [r for r in replies if not r["ok"]]
    assert admitted == list(range(8))
    assert sorted(r["id"] for r in rejected) == list(range(8, 32))
    for reply in rejected:
        assert body(reply) == ("error", protocol.ERR_OVERLOADED)
        assert reply["error"]["retry_after"] > 0
    assert overloaded == 24
    assert sharded.facts_applied - before == 8


def test_a_batch_insert_shares_a_burst_with_inserts(served):
    handle, sharded = served
    before = sharded.facts_applied
    batch = {"op": "batch_insert", "id": 1,
             "facts": [[2, 900, 910], [2, 910, 920], [2, 920, 930]]}
    with connect(handle) as sock:
        sock.sendall(frames_of([insert(0), batch, insert(2)]))
        replies = {r["id"]: r["result"] for r in read_replies(sock, 3)}
    assert replies == {0: {"applied": 1}, 1: {"applied": 3}, 2: {"applied": 1}}
    assert counter(handle, "service.write_bursts") == 1
    assert counter(handle, "service.batch.flushes") == 1
    assert sharded.facts_applied - before == 5


def test_a_ping_between_inserts_keeps_their_order_at_the_committer(
    served, monkeypatch
):
    """The inserts before a task-route request are handed on first, as
    a burst of their own; the ones after it follow them."""
    handle, _ = served
    committer = handle.server.committer
    submitted = []
    submit = committer.submit

    def recording(facts, idem=None, sctx=None):
        submitted.append(facts[0][0])
        return submit(facts, idem, sctx)

    monkeypatch.setattr(committer, "submit", recording)
    with connect(handle) as sock:
        sock.sendall(frames_of(
            [insert(0, value=1), insert(1, value=2), {"op": "ping", "id": 2},
             insert(3, value=3)]
        ))
        replies = {r["id"]: body(r) for r in read_replies(sock, 4)}
    assert replies[2] == ("ok", "'pong'")
    assert submitted == [1, 2, 3]
    assert counter(handle, "service.write_bursts") == 2
