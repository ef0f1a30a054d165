"""``python -m repro serve`` as a real child process.

The entry point users and ``bench`` start, driven through
:class:`repro.service.process.ServeProcess` -- the same helper the
``rescheck`` drills spawn their servers with -- but without chaos: a
handful of facts, one kill, one promotion.  ``rescheck`` keeps the
chaos.
"""

import pytest

from repro import cli
from repro.core import reference
from repro.service.client import ServiceError
from repro.service.process import ServeProcess

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
