"""Crash-consistency tests: the :mod:`repro.crashcheck` harness over the
journaled page store, plus stateful multi-view checkpoint crashes for the
warehouse (a crash between committing view N and view N+1 must leave
every view individually recoverable to a committed snapshot)."""

import pytest

from repro import crashcheck
from repro.core import reference
from repro.core.intervals import Interval
from repro.core.sbtree import SBTree
from repro.core.validate import check_tree
from repro.faults import FaultInjector, SimulatedCrash, simulate_crash
from repro.storage import PagedNodeStore
from repro.storage import pager as pager_module
from repro.storage.pager import Pager, scan_wal
from repro.warehouse import TemporalWarehouse


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


# ----------------------------------------------------------------------
# Warehouse: multi-view checkpoint crashes (stateful)
# ----------------------------------------------------------------------
BASE_FACTS = [(2, Interval(0, 10)), (3, Interval(5, 20)), (1, Interval(8, 30))]
MORE_FACTS = [(4, Interval(12, 25)), (2, Interval(18, 40)), (5, Interval(3, 9))]

VIEW_KINDS = {"v1": "sum", "v2": "count"}


def _build_warehouse(directory):
    """Two journaled views over one table, checkpointed at BASE_FACTS,
    with MORE_FACTS maintained but not yet durable."""
    wh = TemporalWarehouse(str(directory))
    rel = wh.create_table("rx")
    for name, kind in VIEW_KINDS.items():
        wh.create_view(name, "rx", kind, persistent=True, journaled=True)
    for value, interval in BASE_FACTS:
        rel.insert(value, interval)
    wh.checkpoint()
    for value, interval in MORE_FACTS:
        rel.insert(value, interval)
    stores = [
        store
        for name in VIEW_KINDS
        for store in TemporalWarehouse._stores_of(wh.view(name))
    ]
    return wh, stores


def _oracle(name, which):
    facts = BASE_FACTS if which == "base" else BASE_FACTS + MORE_FACTS
    return reference.instantaneous_table(facts, VIEW_KINDS[name])


def _recovered_table(path):
    """Reopen one view's page file directly (journal rollback included)."""
    store = PagedNodeStore(str(path), journaled=True)
    tree = SBTree(store=store)
    try:
        table = tree.to_table()
        check_tree(tree)
        return table
    finally:
        store.close()


class TestWarehouseCheckpointCrash:
    @pytest.mark.parametrize(
        "point,hit,expected",
        [
            # Crash inside v1's own commit, before its frames are
            # written: nothing of the second batch survives anywhere.
            ("before_wal_write", 1, {"v1": "base", "v2": "base"}),
            # Once v1's commit frame is in the file a process death
            # keeps it (the fsync is the commit point against a power
            # cut): v1 has the new snapshot, v2 until its own frame
            # lands the old one.
            ("before_commit_fsync", 1, {"v1": "new", "v2": "base"}),
            # Right after v1's commit point, the fsync of its journal
            # (the WAL of a journaled pager).
            pytest.param(
                "after_commit_fsync",
                1,
                {"v1": "new", "v2": "base"},
                id="after_journal_commit_point-v1",
            ),
            ("before_wal_write", 2, {"v1": "new", "v2": "base"}),
            ("before_commit_fsync", 2, {"v1": "new", "v2": "new"}),
            ("after_commit_fsync", 2, {"v1": "new", "v2": "new"}),
        ],
    )
    def test_crash_between_view_commits(self, tmp_path, point, hit, expected):
        wh, stores = _build_warehouse(tmp_path)
        injector = FaultInjector().crash_at(point, hit=hit)
        for store in stores:
            store.pager.faults = injector  # shared: hit counts span views
        with pytest.raises(SimulatedCrash):
            wh.checkpoint()
        for store in stores:
            simulate_crash(store)
        for name, which in expected.items():
            recovered = _recovered_table(tmp_path / f"{name}.sbt")
            assert recovered == _oracle(name, which), (
                f"view {name} did not recover to its {which} snapshot "
                f"after a crash at {point} hit {hit}"
            )

    def test_every_checkpoint_crash_point_leaves_committed_views(self, tmp_path):
        """Mini-sweep: crash the two-view checkpoint at every occurrence
        of every crash point; each view must recover to one of its two
        committed snapshots -- never a blend."""
        wh, stores = _build_warehouse(tmp_path / "dry")
        counter = FaultInjector().disarm()
        for store in stores:
            store.pager.faults = counter
        wh.checkpoint()
        occurrences = dict(counter.hits)  # before close() adds its own hits
        for store in stores:
            store.pager.faults = None
        wh.close()
        assert occurrences, "checkpoint hit no crash points"

        legal = {
            name: (_oracle(name, "base"), _oracle(name, "new"))
            for name in VIEW_KINDS
        }
        case = 0
        for point, total in sorted(occurrences.items()):
            for hit in crashcheck._hit_schedule(total, "sample"):
                case += 1
                workdir = tmp_path / f"case-{case}"
                wh, stores = _build_warehouse(workdir)
                injector = FaultInjector(seed=case).crash_at(point, hit=hit)
                for store in stores:
                    store.pager.faults = injector
                with pytest.raises(SimulatedCrash):
                    wh.checkpoint()
                for store in stores:
                    simulate_crash(store)
                for name in VIEW_KINDS:
                    recovered = _recovered_table(workdir / f"{name}.sbt")
                    assert recovered in legal[name], (
                        f"view {name} recovered to an uncommitted blend "
                        f"after a crash at {point} hit {hit}"
                    )
