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
from repro.storage.pager import Pager
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
        """The mutation the sweep exists to catch: pre-images that are
        never made durable before the overwrite they protect.  Per-fact
        inserts and the batched insert's one write-back set alike."""
        monkeypatch.setattr(Pager, "_journal_barrier", lambda self: None)
        for workload in ("split", "batch"):
            blind = crashcheck.sweep(workload, str(tmp_path), hits="sample")
            assert all(r.ok for r in blind)  # process death alone cannot tell
            results = crashcheck.sweep(
                workload, str(tmp_path), hits="sample", power_loss=True
            )
            assert any(not r.ok for r in results), workload

    def test_sweep_fails_without_directory_syncs(self, tmp_path, monkeypatch):
        """The journal's directory entry is made once, by a pager's
        first transaction.  Never synced, the whole file -- every later
        transaction's pre-images with it -- may vanish at any power cut
        while the overwrites it covered survive."""
        monkeypatch.setattr(Pager, "_fsync_dir", lambda self: None)
        results = crashcheck.sweep(
            "commit", str(tmp_path), hits="sample", power_loss=True
        )
        assert any(not r.ok for r in results)

    def test_sweep_fails_without_the_invalidation_fsync(self, tmp_path, monkeypatch):
        """Zeros written but not fsynced: an acknowledged commit is
        rolled back when the power cut drops them."""
        invalidate = Pager._invalidate_journal

        def written_not_synced(self):
            with monkeypatch.context() as patch:
                patch.setattr(Pager, "_sync_journal", lambda self: None)
                invalidate(self)

        monkeypatch.setattr(Pager, "_invalidate_journal", written_not_synced)
        blind = crashcheck.sweep("commit", str(tmp_path), hits="sample")
        assert all(r.ok for r in blind)  # process death alone cannot tell
        results = crashcheck.sweep(
            "commit", str(tmp_path), hits="sample", power_loss=True
        )
        assert any(not r.ok for r in results)

    def test_sweep_fails_without_the_salt(self, tmp_path, monkeypatch):
        """Every transaction writing the same salt is the reader not
        checking it: a short transaction's rollback runs on into the
        valid records a longer one left beyond its tail."""
        commit = Pager.commit

        def same_salt(self):
            salt = self._journal_salt
            commit(self)
            self._journal_salt = salt

        monkeypatch.setattr(Pager, "commit", same_salt)
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
            # Crash inside v1's own commit, before its commit point:
            # nothing of the second batch survives anywhere.
            ("before_commit_fsync", 1, {"v1": "base", "v2": "base"}),
            ("before_journal_invalidate", 1, {"v1": "base", "v2": "base"}),
            # v1's journal invalidation is its commit point: crashing
            # right after it (or anywhere inside v2's commit) leaves v1
            # with the new snapshot and v2 rolled back to the old one.
            ("after_journal_invalidate", 1, {"v1": "new", "v2": "base"}),
            ("before_commit_fsync", 2, {"v1": "new", "v2": "base"}),
            ("after_commit_fsync", 2, {"v1": "new", "v2": "base"}),
            ("before_journal_invalidate", 2, {"v1": "new", "v2": "base"}),
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
