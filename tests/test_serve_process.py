"""``python -m repro serve`` as a real child process.

The entry point users and ``bench`` start, driven through
:class:`repro.service.process.ServeProcess` -- the same helper the
``rescheck`` drills spawn their servers with -- but without chaos: a
handful of facts, one kill, one promotion.  ``rescheck`` keeps the
chaos.  The one storage mode (journaled page files, in a temporary
directory without ``--paged``) is checked on the bare command line.
"""

import contextlib
import os
import signal
import socket
import subprocess
import sys

import pytest

from repro import cli
from repro.core import reference
from repro.core.nodestore import MemoryNodeStore
from repro.service.client import ServiceClient, ServiceError
from repro.service.process import BATCH_MAX, ServeProcess
from repro.service.server import TemporalAggregateServer
from repro.sharding import ShardedTree

FACTS = [(4, (10, 40)), (7, (20, 60)), (2, (30, 35))]


def _child(tmp_path, name, **kwargs):
    return ServeProcess(
        str(tmp_path / name), log_path=str(tmp_path / f"{name}.log"), **kwargs
    )


def test_primary_survives_sigkill_with_data_and_dedup_window(tmp_path):
    want = reference.view_value(FACTS, "sum", 32)
    with _child(tmp_path, "primary").start() as primary:
        with primary.client(client_id="writer", retries=0) as svc:
            for seq, (value, (start, end)) in enumerate(FACTS, 1):
                acked = svc.insert_result(value, start, end, seq=seq)
                assert acked == {"applied": 1}
            assert svc.lookup(32) == want
            assert svc.stats()["batch"]["max"] == BATCH_MAX == 16
        primary.restart()  # SIGKILL; same port, same directory
        with primary.client(client_id="writer", retries=0) as svc:
            assert svc.lookup(32) == want
            value, (start, end) = FACTS[1]
            replay = svc.insert_result(value, start, end, seq=2)
            assert replay == {"applied": 1, "duplicate": True}
            assert svc.lookup(32) == want  # the replay applied nothing


def test_replica_follows_tags_reads_refuses_writes_until_promoted(
    tmp_path, capsys
):
    with _child(tmp_path, "primary").start() as primary:
        follower = _child(
            tmp_path, "replica", replica_of=primary.address
        )
        with follower.start():
            primary.wait_subscribed(1)
            with primary.client() as svc:
                for value, (start, end) in FACTS:
                    svc.insert(value, start, end)
            follower.wait_applied(primary.commit_seq())
            with follower.client(retries=0) as svc:
                assert svc.lookup(32) == reference.view_value(FACTS, "sum", 32)
                assert svc.last_watermark == primary.commit_seq()
                assert svc.last_staleness_s is not None
                with pytest.raises(ServiceError) as refused:
                    svc.insert(1, 0, 5)
                assert refused.value.type == "not_primary"
                assert refused.value.primary == primary.address

                primary.kill()
                assert cli.main(["promote", "--port", str(follower.port)]) == 0
                assert "promoted: now primary" in capsys.readouterr().out
                assert svc.insert(1, 0, 5) == 1
                assert svc.lookup(3) == 1


def test_restart_over_existing_pages_does_not_reseed(tmp_path):
    csv_path = tmp_path / "seed.csv"
    csv_path.write_text(
        "".join(f"{v},{s},{e}\n" for v, (s, e) in FACTS), encoding="utf-8"
    )
    want = reference.view_value(FACTS, "sum", 32)
    child = _child(tmp_path, "seeded")
    child.argv += ["--csv", str(csv_path)]
    log = tmp_path / "seeded.log"
    with child.start():
        with child.client() as svc:
            assert svc.lookup(32) == want
        child.stop()  # SIGINT: drain, commit, exit
        first = log.read_text().splitlines()
        # A fresh directory prints the seed line, then the banner.
        assert first[0] == f"seeded {len(FACTS)} facts from {csv_path}"
        assert first[1].startswith("serving sum over 1 shards on 127.0.0.1:")
        child.start()
        with child.client() as svc:
            assert svc.lookup(32) == want
            assert svc.stats()["shards"]["facts"] == 0  # nothing applied twice
    again = log.read_text().splitlines()[len(first):]
    assert again[0] == f"skipping --csv: {child.directory} already holds data"
    assert again[1].startswith("serving sum over 1 shards on 127.0.0.1:")


@contextlib.contextmanager
def _serving(tmp_path, *args, port=0):
    """``repro serve ARGS`` with its temporary directories under
    ``tmp_path / "tmp"``: yields the child and its output lines up to
    the banner -- or all of them, if it exits first -- and stops it with
    SIGINT on the way out."""
    (tmp_path / "tmp").mkdir(exist_ok=True)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--kind", "sum",
         "--lo", "0", "--hi", "1000", "--host", "127.0.0.1",
         "--port", str(port), "--health-interval", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
             "TMPDIR": str(tmp_path / "tmp")},
    )
    lines = []
    for line in proc.stdout:
        lines.append(line.rstrip("\n"))
        if line.startswith("serving "):
            break
    try:
        yield proc, lines
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        proc.wait(timeout=20)
        proc.stdout.close()


def _client(lines):
    return ServiceClient("127.0.0.1", int(lines[-1].split(":")[1].split()[0]))


def test_paged_directory_is_journaled_without_the_flag(tmp_path):
    with _serving(tmp_path, "--paged", str(tmp_path / "d")) as (_, lines):
        with _client(lines) as svc:
            assert svc.insert(3, 10, 20) == 1  # its commit starts the WAL
        assert (tmp_path / "d" / "shard-0.sbt-wal").exists()


def test_unpaged_server_journals_into_a_directory_removed_on_exit(tmp_path):
    with _serving(tmp_path, "--shards", "2") as (_, lines):
        scratch, = (tmp_path / "tmp").glob("repro-serve-*")
        assert str(scratch) in lines[0]
        with _client(lines) as svc:
            assert svc.insert(3, 10, 20) == 1
        assert (scratch / "shard-0.sbt-wal").exists()
    assert list((tmp_path / "tmp").iterdir()) == []


def test_failed_start_leaves_no_temporary_directory(tmp_path):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        with _serving(tmp_path, port=port) as (proc, lines):
            assert proc.wait(timeout=20) != 0
    assert "repro-serve-" in lines[0], lines  # it journaled somewhere ...
    assert list((tmp_path / "tmp").iterdir()) == []  # ... and removed it


def test_reopening_under_another_shard_layout_is_refused(tmp_path):
    layout = ("--paged", str(tmp_path / "d"), "--shards")
    with _serving(tmp_path, *layout, "4") as (_, lines), _client(lines) as svc:
        assert svc.insert(5, 100, 900) == 1
    with _serving(tmp_path, *layout, "2") as (proc, lines):
        # Served, shard 0 would answer [0, 500) from its one piece
        # [100, 250): lookup(300) would be 0.
        assert "[250, 500, 750]" in lines[-1] and "[500]" in lines[-1], lines
        assert proc.wait(timeout=20) != 0
    with _serving(tmp_path, *layout, "4") as (_, lines), _client(lines) as svc:
        assert (svc.lookup(300), svc.lookup(600)) == (5, 5)


def test_server_refuses_stores_without_a_wal():
    with pytest.raises(ValueError, match="page files only"):
        TemporalAggregateServer(ShardedTree("sum", [], stores=[MemoryNodeStore()]))
