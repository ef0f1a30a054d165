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

from repro.service import DedupWindow, ServerHandle, dedup, protocol
from repro.service.groupcommit import DEDUP_META_KEY

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


@pytest.fixture
def jobs(served, monkeypatch):
    """The executor jobs and ``sharded.commit`` calls the server makes."""
    handle, sharded = served
    counts = {"jobs": 0, "commits": 0}
    submit, commit = handle.server._executor.submit, sharded.commit

    def counting_submit(*args, **kwargs):
        counts["jobs"] += 1
        return submit(*args, **kwargs)

    def counting_commit(*args, **kwargs):
        counts["commits"] += 1
        return commit(*args, **kwargs)

    monkeypatch.setattr(handle.server._executor, "submit", counting_submit)
    monkeypatch.setattr(sharded, "commit", counting_commit)
    return counts


def test_a_flush_of_facts_only_is_one_executor_job_and_one_commit(
    served, jobs
):
    handle, sharded = served
    with connect(handle) as sock:
        sock.sendall(frames_of(insert(i) for i in range(24)))
        read_replies(sock, 24)
    assert jobs == {"jobs": 1, "commits": 1}


def view_write(i, op, **fields):
    return dict({"op": op, "id": i, "client": "mix", "seq": i + 1}, **fields)


def test_view_writes_share_a_burst_and_a_flush_with_inserts(served, jobs):
    """Every mutating op is one kind of write: one wake-up mixing
    ``insert``, ``table_insert`` and ``create_view`` frames is one burst
    and one flush -- the catalog's job, then the tree's and its one
    commit -- answered in order, each applied once.  A change the
    catalog refuses gets its own ``bad_request``; its siblings apply."""
    handle, sharded = served
    before = sharded.facts_applied
    messages = [
        insert(0),
        view_write(1, "table_insert", table="obs",
                   rows=[[2, 900, 950, {"k": "a"}], [3, 920, 990]]),
        view_write(2, "create_view", name="tot", over=["obs"], agg="sum"),
        view_write(3, "create_view", name="tot", over=["obs"], agg="sum"),
        insert(4),
        view_write(5, "table_insert", table="tot", rows=[[1, 0, 5]]),
        view_write(6, "table_insert", table="obs", rows=[[4, 0, 10]]),
    ]
    with connect(handle) as sock:
        sock.sendall(frames_of(messages))
        replies = read_replies(sock, len(messages))
    assert [r["id"] for r in replies] == list(range(len(messages)))
    bad = ("error", protocol.ERR_BAD_REQUEST)
    assert [body(r) for r in replies] == [
        ("ok", "{'applied': 1}"),
        ("ok", "{'applied': 2}"),
        ("ok", repr({"name": "tot", "sources": ["obs"], "agg": "sum",
                     "key": None, "lag": "downstream"})),
        bad,  # the name is taken
        ("ok", "{'applied': 1}"),
        bad,  # a view given as a table
        ("ok", "{'applied': 1}"),
    ]
    assert counter(handle, "service.write_bursts") == 1
    assert counter(handle, "service.batch.flushes") == 1
    assert jobs == {"jobs": 2, "commits": 1}
    assert sharded.facts_applied - before == 2
    catalog = handle.server.views
    assert len(catalog.table("obs")) == 3
    assert catalog.read("tot", 930).value == 5
    # Applied keys replay; a refused key is remembered nowhere, in
    # memory or in the window the commit persisted.
    committer = handle.server.committer
    assert committer.replay_for(("mix", 2))["applied"] == 2
    assert committer.replay_for(("mix", 4)) is None
    persisted = DedupWindow()
    persisted.load(sharded.get_meta(DEDUP_META_KEY))
    assert persisted.lookup("mix", 2)[0] == dedup.HIT
    assert persisted.lookup("mix", 4)[0] == dedup.MISS


def test_a_flush_of_catalog_writes_only_commits_one_store(served):
    """The cost of one write route: a batch with no facts still commits
    its dedup keys and watermark -- into one store's header, one fsync
    -- where the old view route committed nothing."""
    handle, sharded = served
    stores = [shard.tree.store for shard in sharded.shards]
    before = [store.pager.stats.snapshot() for store in stores]
    rows = [[1, 0, 10]]
    with connect(handle) as sock:
        sock.sendall(frames_of(
            view_write(i, "table_insert", table="obs", rows=rows)
            for i in range(3)
        ))
        replies = read_replies(sock, 3)
    assert [body(r) for r in replies] == [("ok", "{'applied': 1}")] * 3
    spent = [store.pager.stats - mark for store, mark in zip(stores, before)]
    assert [delta.fsyncs for delta in spent] == [1, 0, 0, 0]
    assert counter(handle, "service.batch.commits") == 1
