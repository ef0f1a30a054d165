"""Crash-consistency tests: the :mod:`repro.crashcheck` harness over the
paged store, and every write of a library flush torn in turn."""

import os
import subprocess
import sys

import pytest

import repro
from repro import crashcheck
from repro.core import reference
from repro.core.intervals import Interval
from repro.core.sbtree import SBTree
from repro.core.validate import check_tree
from repro.faults import FaultInjector, SimulatedCrash, simulate_crash
from repro.sharding import ShardedTree
from repro.storage import PagedNodeStore
from repro.storage import pager as pager_module
from repro.storage.pager import Pager, scan_wal


# ----------------------------------------------------------------------
# The harness itself
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sample_sweeps(tmp_path_factory):
    """First/middle/last-occurrence sweep of every workload, run once."""
    workdir = tmp_path_factory.mktemp("crashcheck")
    return {
        name: crashcheck.sweep(name, str(workdir), hits="sample")
        for name in sorted(crashcheck.WORKLOADS)
    }


class TestCrashCheckSweep:
    @pytest.mark.parametrize("workload", sorted(crashcheck.WORKLOADS))
    def test_every_recovery_matches_the_oracle(self, sample_sweeps, workload):
        results = sample_sweeps[workload]
        assert results, "sweep produced no cases"
        failures = [r for r in results if not r.ok]
        assert not failures, "\n".join(str(r) for r in failures)
        assert any(r.crashed for r in results)

    def test_all_crash_points_exercised(self, sample_sweeps):
        crashed = {
            r.point
            for results in sample_sweeps.values()
            for r in results
            if r.crashed
        }
        assert crashed == set(Pager.CRASH_POINTS)

    def test_exhausted_point_finishes_without_crashing(self, tmp_path):
        result = crashcheck.run_case(
            str(tmp_path / "x.sbt"), "insert", "before_commit_fsync", hit=10_000
        )
        assert not result.crashed
        assert result.ok

    def test_hit_schedule(self):
        assert crashcheck._hit_schedule(5, "all") == [1, 2, 3, 4, 5]
        assert crashcheck._hit_schedule(5, "sample") == [1, 3, 5]
        assert crashcheck._hit_schedule(1, "sample") == [1]
        assert crashcheck._hit_schedule(4, 2) == [1, 2]
        assert crashcheck._hit_schedule(0, "all") == []

    def test_main_exits_zero_on_success(self, capsys):
        assert crashcheck.main(["--workload", "commit", "--hits", "1"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out

    def test_main_rejects_bad_hits(self):
        with pytest.raises(SystemExit):
            crashcheck.main(["--hits", "sometimes"])


# ----------------------------------------------------------------------
# The same sweep when the machine, not just the process, dies
# ----------------------------------------------------------------------
class TestPowerLossSweep:
    """Abandoning the handles keeps every written byte, so the sweep
    above cannot see a missing fsync.  Under power loss it can."""

    @pytest.mark.parametrize("workload", sorted(crashcheck.WORKLOADS))
    def test_every_recovery_matches_the_oracle(self, tmp_path, workload):
        results = crashcheck.sweep(
            workload, str(tmp_path), hits="sample", power_loss=True
        )
        failures = [r for r in results if not r.ok]
        assert not failures, "\n".join(str(r) for r in failures)
        assert {r.point for r in results if r.crashed} == set(Pager.CRASH_POINTS)
        # all unsynced state lost, and two seeded subsets, per case
        assert {type(r.power_loss) for r in results} == {str, int}

    def test_sweep_fails_without_the_journal_barrier(self, tmp_path, monkeypatch):
        """The mutation the sweep exists to catch: a commit that appends
        its frames and acknowledges without the WAL fsync -- the one
        barrier left, its commit point."""

        def unsynced_commit(self, frames):
            self._append(frames, commit=True)
            self._committed_end = self._wal_end
            self._header_dirty = False

        monkeypatch.setattr(Pager, "_commit_frames", unsynced_commit)
        for workload in ("commit", "batch"):
            blind = crashcheck.sweep(workload, str(tmp_path), hits="sample")
            assert all(r.ok for r in blind)  # process death alone cannot tell
            results = crashcheck.sweep(
                workload, str(tmp_path), hits="sample", power_loss=True
            )
            assert any(not r.ok for r in results), workload

    def test_sweep_fails_without_directory_syncs(self, tmp_path, monkeypatch):
        """The WAL's directory entry is made once, by a pager's first
        transaction.  Never synced, the whole file -- every later
        commit with it -- may vanish at any power cut."""
        monkeypatch.setattr(Pager, "_fsync_dir", lambda self: None)
        results = crashcheck.sweep(
            "commit", str(tmp_path), hits="sample", power_loss=True
        )
        assert any(not r.ok for r in results)

    def test_sweep_fails_when_the_checkpoint_resets_before_its_data_fsync(
        self, tmp_path, monkeypatch
    ):
        """A new generation disowns the frames of the last one: started
        before the copies it checkpointed are durable, a power cut loses
        commits that only those frames held."""

        def reset_first(self):
            monkeypatch.setattr(self, "_fsync_data", lambda: None, raising=False)
            self._copy_back()
            monkeypatch.delattr(self, "_fsync_data")
            self._reset_wal()
            self._fsync_data()

        monkeypatch.setattr(Pager, "_checkpoint", reset_first)
        blind = crashcheck.sweep("commit", str(tmp_path), hits="sample")
        assert all(r.ok for r in blind)
        results = crashcheck.sweep(
            "commit", str(tmp_path), hits="sample", power_loss=True
        )
        assert any(not r.ok for r in results)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sweep_fails_without_the_invalidation_fsync(self, tmp_path, monkeypatch):
        """The header that starts a generation is what invalidates the
        last one's frames.  Written but not fsynced before the first new
        frame, a power cut that keeps a later frame and drops the header
        replays part of the previous generation over the newer
        checkpoint; the ``turnover`` workload is the shape that needs."""
        reset = Pager._reset_wal

        def unsynced_header(self):
            monkeypatch.setattr(self, "_sync_wal", lambda: None, raising=False)
            reset(self)
            monkeypatch.delattr(self, "_sync_wal")

        monkeypatch.setattr(Pager, "_reset_wal", unsynced_header)
        blind = crashcheck.sweep("turnover", str(tmp_path), hits="sample")
        assert all(r.ok for r in blind)
        results = crashcheck.sweep(
            "turnover", str(tmp_path), hits="sample", power_loss=True
        )
        assert any(not r.ok for r in results)

    def test_sweep_fails_when_replay_runs_past_the_last_commit(
        self, tmp_path, monkeypatch
    ):
        """Replay that applies every intact frame, not whole committed
        transactions, resurrects evicted uncommitted pages."""
        open_wal = Pager._open_wal

        def replay_everything(self, page_size):
            open_wal(self, page_size)
            self._wal.seek(0)
            header, *frames = scan_wal(self._wal)
            for frame in frames if header.verdict == "ok" else ():
                if frame.status != "ok":
                    break
                self._index[frame.page_id] = frame.offset

        monkeypatch.setattr(Pager, "_open_wal", replay_everything)
        results = crashcheck.sweep("split", str(tmp_path), hits="sample")
        assert any(not r.ok for r in results)

    def test_sweep_fails_without_the_salt(self, tmp_path, monkeypatch):
        """Every generation writing the same salt is the reader not
        checking it: replay of a short generation runs on into the
        committed frames a longer, checkpointed one left beyond it."""
        monkeypatch.setattr(pager_module, "_new_salt", lambda: 7)
        results = crashcheck.sweep(
            "batch", str(tmp_path), hits="sample", power_loss=True
        )
        assert any(not r.ok for r in results)

    def test_main_power_loss_flag(self, capsys):
        assert crashcheck.main(
            ["--power-loss", "--workload", "commit", "--hits", "1"]
        ) == 0
        assert "0 failures" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            crashcheck.main(["--power-loss", "--catalog"])


class TestCrashCheckChecksSomething:
    """A green run must have crashed somewhere and judged the recovery."""

    @pytest.mark.parametrize("catalog", [[], ["--catalog"]])
    @pytest.mark.parametrize("hits", ["0", "-2"])
    def test_hits_below_one_are_refused(self, hits, catalog):
        with pytest.raises(SystemExit):
            crashcheck.main(catalog + ["--hits", hits])

    def test_a_run_that_crashes_nowhere_fails(self, monkeypatch, capsys):
        monkeypatch.setitem(crashcheck.WORKLOADS, "commit", [])
        assert crashcheck.main(["--workload", "commit", "--hits", "1"]) == 1
        assert "0 cases" in capsys.readouterr().out

    def test_a_repeated_workload_runs_once(self, capsys):
        argv = ["--workload", "commit", "--workload", "commit", "--hits", "1"]
        assert crashcheck.main(argv) == 0
        assert "crashcheck: 12 cases" in capsys.readouterr().out

    def test_turnover_checkpoints_a_generation_then_evicts_over_it(self, tmp_path):
        """The ``turnover`` list's shape: its one-fact commits end with
        one that checkpoints a generation of at least three transactions,
        and the transaction after it writes eviction frames into the new
        generation before its commit."""
        steps = crashcheck.WORKLOADS["turnover"]
        last = len(steps) - 1 - steps[-2::-1].index(crashcheck.COMMIT)
        with crashcheck._model(str(tmp_path)) as model:
            pager = model.stores[0].pager
            generations, in_generation = [], 0
            for name, *arguments in steps[:last]:
                getattr(model, name)(*arguments)
                if name == "commit":
                    in_generation += 1
                    if not pager.wal_bytes:  # that commit checkpointed
                        generations.append(in_generation)
                        in_generation = 0
            assert steps[last - 1] == crashcheck.COMMIT
            assert in_generation == 0 and generations[-1] >= 3, generations
            for name, *arguments in steps[last:-1]:
                getattr(model, name)(*arguments)
            assert pager.wal_bytes > 0

    def test_the_invariant_holds_under_python_O(self):
        """The model's checks raise, not assert: ``python -O`` keeps them."""
        script = (
            "from repro import Interval\n"
            "from repro.oracle import replayed\n"
            "with replayed([('insert', (1, Interval(0, 10)))]) as model:\n"
            "    model.live.append((2, Interval(5, 8)))\n"
            "    model.answers_match_the_oracle()\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1, result.stderr
        assert "repro.oracle.OracleMismatch" in result.stderr, result.stderr


# ----------------------------------------------------------------------
# Library page files: whoever opens a file, a flush is a commit
# ----------------------------------------------------------------------
def _recovered_table(path):
    """Reopen one page file directly (WAL replay included)."""
    store = PagedNodeStore(str(path))
    tree = SBTree(store=store)
    try:
        table = tree.to_table()
        check_tree(tree)
        return table
    finally:
        store.close()


def _scattered(first, count):
    """SUM facts in random-looking order over [0, 100000)."""
    return [
        (i % 7 + 1, Interval(i * 7919 % 100_000, i * 7919 % 100_000 + 300 + i % 1500))
        for i in range(first, first + count)
    ]


def _tear_every_write(build):
    """Tear each write a flush issues, one case per write.

    ``build(case)`` returns a fresh ``(store, flush, before, after)``:
    a store with work pending, the call that flushes it, and the facts
    of its last flush and of this one.  Each case crashes, reopens, and
    must hold exactly *after* if the torn write came past the commit
    point, else *before*.  Returns how many writes were torn.
    """
    store, flush, _, _ = build("count")
    counter = FaultInjector()
    store.pager.faults = counter
    flush()
    simulate_crash(store)
    cases = [
        (label, call)
        for label, total in sorted(counter.write_calls.items())
        for call in range(1, total + 1)
    ]
    for label, call in cases:
        store, flush, before, after = build(f"{label}-{call}")
        injector = FaultInjector().tear_write(label, call=call)
        store.pager.faults = injector
        with pytest.raises(SimulatedCrash):
            flush()
        simulate_crash(store)
        committed = "after_commit_fsync" in injector.hits
        expected = reference.instantaneous_table(after if committed else before, "sum")
        assert _recovered_table(store.pager.path) == expected, (label, call)
    return len(cases)


class TestLibraryFlush:
    """Page files no sharded opener made -- a default-constructed store
    -- have the same WAL as a shard's.  Each
    flush here checkpoints, so the sweeps tear the commit, every
    checkpoint copy and the new generation's header (and, for the
    reopened store, the WAL's creation)."""

    FIRST, SECOND = _scattered(0, 200), _scattered(200, 200)

    def test_a_default_store_torn_anywhere_in_a_flush_keeps_a_flush(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(pager_module, "WAL_CHECKPOINT_BYTES", 0)
        base = tmp_path / "base.sbt"
        with PagedNodeStore(str(base), "sum") as store:
            tree = SBTree("sum", store)
            for value, interval in self.FIRST:
                tree.insert(value, interval)
            store.flush()
        image = base.read_bytes()

        def build(case):
            path = tmp_path / f"{case}.sbt"
            path.write_bytes(image)
            store = PagedNodeStore(str(path))
            tree = SBTree(store=store)
            for value, interval in self.SECOND:
                tree.insert(value, interval)
            return store, store.flush, self.FIRST, self.FIRST + self.SECOND

        assert _tear_every_write(build) > 3

    @pytest.mark.parametrize("opener", ["store", "shard"])
    def test_a_flush_survives_a_crash(self, tmp_path, opener):
        """A process death (no power loss) right after ``flush()``
        reopens to the flushed state, whoever opened the file."""
        if opener == "store":
            store = PagedNodeStore(str(tmp_path / "t.sbt"), "sum")
            tree = SBTree("sum", store)
        else:
            sharded = ShardedTree.open(
                str(tmp_path), "sum", num_shards=1, span=(0, 1000)
            )
            tree = sharded.shards[0].tree
            store = tree.store
        tree.insert(50, Interval(0, 100))
        store.commit()
        tree.insert(50, Interval(0, 100))
        store.flush()
        simulate_crash(store)
        with PagedNodeStore(store.pager.path) as reopened:
            assert SBTree(store=reopened).lookup(10) == 100
