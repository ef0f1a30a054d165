"""Tests for the concurrency layer: the RW lock and the tree wrapper."""

import sys
import threading
import time

import pytest

from repro import Interval, SBTree, check_tree
from repro.concurrent import ConcurrentTree, LockTimeout, ReadWriteLock
from repro.core import reference


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = threading.Barrier(3, timeout=5)

        def reader():
            with lock.read_locked():
                inside.wait()  # all three readers inside together

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
        assert not any(t.is_alive() for t in threads)

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order = []
        writer_in = threading.Event()
        release_writer = threading.Event()

        def writer():
            with lock.write_locked():
                writer_in.set()
                release_writer.wait(timeout=5)
                order.append("writer-done")

        def reader():
            writer_in.wait(timeout=5)
            with lock.read_locked():
                order.append("reader")

        wt = threading.Thread(target=writer)
        rt = threading.Thread(target=reader)
        wt.start()
        rt.start()
        time.sleep(0.05)  # give the reader a chance to (wrongly) slip in
        release_writer.set()
        wt.join(timeout=5)
        rt.join(timeout=5)
        assert order == ["writer-done", "reader"]

    def test_writers_mutually_exclusive(self):
        lock = ReadWriteLock()
        counter = {"value": 0, "max_concurrent": 0, "current": 0}
        guard = threading.Lock()

        def writer():
            for _ in range(200):
                with lock.write_locked():
                    with guard:
                        counter["current"] += 1
                        counter["max_concurrent"] = max(
                            counter["max_concurrent"], counter["current"]
                        )
                    counter["value"] += 1
                    with guard:
                        counter["current"] -= 1

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert counter["value"] == 800
        assert counter["max_concurrent"] == 1

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        events = []
        reader_in = threading.Event()
        release_first_reader = threading.Event()

        def first_reader():
            with lock.read_locked():
                reader_in.set()
                release_first_reader.wait(timeout=5)

        def writer():
            reader_in.wait(timeout=5)
            with lock.write_locked():
                events.append("writer")

        def late_reader():
            time.sleep(0.05)  # arrive after the writer is queued
            with lock.read_locked():
                events.append("late-reader")

        threads = [
            threading.Thread(target=first_reader),
            threading.Thread(target=writer),
            threading.Thread(target=late_reader),
        ]
        for t in threads:
            t.start()
        time.sleep(0.1)
        release_first_reader.set()
        for t in threads:
            t.join(timeout=5)
        # Writer preference: the queued writer goes before the late reader.
        assert events == ["writer", "late-reader"]


class TestLockTimeouts:
    """The ``timeout=`` parameter on acquire_read/acquire_write."""

    def _hold_write(self, lock):
        """Acquire the write lock on a thread and return a release event."""
        held = threading.Event()
        release = threading.Event()

        def holder():
            with lock.write_locked():
                held.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=holder, daemon=True)
        thread.start()
        assert held.wait(timeout=5)
        return release, thread

    def test_read_timeout_expires(self):
        lock = ReadWriteLock()
        release, thread = self._hold_write(lock)
        started = time.monotonic()
        assert lock.acquire_read(timeout=0.05) is False
        assert time.monotonic() - started < 2.0
        release.set()
        thread.join(timeout=5)
        # And without contention the same call succeeds immediately.
        assert lock.acquire_read(timeout=0.05) is True
        lock.release_read()

    def test_write_timeout_expires(self):
        lock = ReadWriteLock()
        release, thread = self._hold_write(lock)
        assert lock.acquire_write(timeout=0.05) is False
        release.set()
        thread.join(timeout=5)
        assert lock.acquire_write(timeout=0.05) is True
        lock.release_write()

    def test_guard_raises_lock_timeout(self):
        lock = ReadWriteLock()
        release, thread = self._hold_write(lock)
        with pytest.raises(LockTimeout):
            with lock.read_locked(timeout=0.05):
                pass
        with pytest.raises(LockTimeout):
            with lock.write_locked(timeout=0.05):
                pass
        release.set()
        thread.join(timeout=5)
        # The failed acquires left no residue: both modes still work.
        with lock.write_locked(timeout=1.0):
            pass
        with lock.read_locked(timeout=1.0):
            pass

    def test_timed_out_writer_wakes_readers(self):
        """Regression: a writer that gives up must stop blocking readers.

        While a writer waits, ``_waiting_writers`` holds new readers out
        (writer preference).  If the writer times out as the *last*
        waiting writer, it has to wake the reader queue -- otherwise
        readers blocked on its account stall until the next unrelated
        release.
        """
        lock = ReadWriteLock()
        reader_in = threading.Event()
        release_reader = threading.Event()

        def long_reader():
            with lock.read_locked():
                reader_in.set()
                release_reader.wait(timeout=10)

        holder = threading.Thread(target=long_reader, daemon=True)
        holder.start()
        assert reader_in.wait(timeout=5)

        # A writer queues behind the active reader and times out.
        assert lock.acquire_write(timeout=0.05) is False

        # A late reader must now get in *without* the long reader
        # releasing anything (the timed-out writer is gone).
        got_in = threading.Event()

        def late_reader():
            if lock.acquire_read(timeout=1.0):
                got_in.set()
                lock.release_read()

        late = threading.Thread(target=late_reader, daemon=True)
        late.start()
        late.join(timeout=5)
        assert got_in.is_set(), "reader stalled behind a timed-out writer"
        release_reader.set()
        holder.join(timeout=5)

    def test_writer_preference_survives_timeouts(self):
        """Under reader/writer churn with timeouts in the mix, queued
        writers still run before late readers and no thread stalls."""
        lock = ReadWriteLock()
        events = []
        guard = threading.Lock()
        reader_in = threading.Event()
        release_first = threading.Event()

        def first_reader():
            with lock.read_locked():
                reader_in.set()
                release_first.wait(timeout=10)

        def patient_writer():
            reader_in.wait(timeout=5)
            with lock.write_locked(timeout=5.0):
                with guard:
                    events.append("writer")

        def impatient_writer():
            reader_in.wait(timeout=5)
            # Gives up long before the first reader releases.
            if lock.acquire_write(timeout=0.01):  # pragma: no cover
                lock.release_write()

        def late_reader():
            reader_in.wait(timeout=5)
            time.sleep(0.05)  # arrive after the writers are queued
            with lock.read_locked(timeout=5.0):
                with guard:
                    events.append("late-reader")

        threads = [
            threading.Thread(target=first_reader),
            threading.Thread(target=patient_writer),
            threading.Thread(target=impatient_writer),
            threading.Thread(target=late_reader),
        ]
        for t in threads:
            t.start()
        time.sleep(0.15)
        release_first.set()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        # Writer preference: the patient writer beat the late reader.
        assert events == ["writer", "late-reader"]

    def test_concurrent_tree_timeout_plumbing(self):
        """ConcurrentTree(read_timeout=...) surfaces LockTimeout."""
        tree = ConcurrentTree(
            SBTree("sum", branching=4, leaf_capacity=4), read_timeout=0.05
        )
        tree.insert(2, Interval(10, 40))
        assert tree.lookup(19) == 2  # uncontended reads are unaffected

        blocked = threading.Event()
        release = threading.Event()

        def writer():
            with tree.lock.write_locked():
                blocked.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        assert blocked.wait(timeout=5)
        with pytest.raises(LockTimeout):
            tree.lookup(19)
        with pytest.raises(LockTimeout):
            tree.height  # walks live nodes: a read like any other
        release.set()
        thread.join(timeout=5)
        assert tree.lookup(19) == 2
        assert tree.height == 1


class TestConcurrentTree:
    def test_passthrough_attributes(self):
        wrapped = ConcurrentTree(SBTree("sum", branching=4, leaf_capacity=4))
        assert wrapped.kind.value == "sum"
        assert wrapped.height == 1

    def test_stress_writers_and_readers(self):
        """Interleaved threads; the final tree equals the oracle and
        every concurrent read observed a structurally sane value."""
        tree = ConcurrentTree(SBTree("count", branching=4, leaf_capacity=4))
        n_writers, per_writer = 4, 60
        all_facts = [
            [
                (1, Interval(w * 1000 + i * 7, w * 1000 + i * 7 + 30))
                for i in range(per_writer)
            ]
            for w in range(n_writers)
        ]
        stop_reading = threading.Event()
        read_errors = []

        def writer(facts):
            for value, interval in facts:
                tree.insert(value, interval)

        def reader():
            while not stop_reading.is_set():
                value = tree.lookup(1500)
                if not isinstance(value, int) or value < 0:
                    read_errors.append(value)
                tree.range_query(Interval(0, 4000))

        writers = [threading.Thread(target=writer, args=(f,)) for f in all_facts]
        readers = [threading.Thread(target=reader) for _ in range(3)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(timeout=30)
        stop_reading.set()
        for t in readers:
            t.join(timeout=30)

        assert not read_errors
        flat = [fact for facts in all_facts for fact in facts]
        assert tree.to_table() == reference.instantaneous_table(flat, "count")
        check_tree(tree.tree)

    def test_stress_mixed_insert_delete(self):
        tree = ConcurrentTree(SBTree("sum", branching=4, leaf_capacity=4))
        barrier = threading.Barrier(3, timeout=10)

        def churn(offset):
            barrier.wait()
            for i in range(80):
                interval = Interval(offset + i * 3, offset + i * 3 + 40)
                tree.insert(2, interval)
                tree.delete(2, interval)

        threads = [threading.Thread(target=churn, args=(k * 500,)) for k in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        # Everything inserted was deleted: the tree must be empty again.
        assert tree.to_table().rows == []
        assert tree.tree.node_count() == 1

    def test_window_lookup_under_lock(self):
        from repro import MSBTree

        msb = ConcurrentTree(MSBTree("max", branching=4, leaf_capacity=4))
        msb.insert(5, Interval(0, 10))
        assert msb.window_lookup(15, 10) == 5

    def test_concurrent_access_to_paged_store(self, tmp_path):
        """The wrapper serializes all access, so even the (unsynchronized)
        paged store is safe behind it."""
        from repro.storage import PagedNodeStore

        with PagedNodeStore(str(tmp_path / "c.sbt"), "count", buffer_capacity=8) as store:
            tree = ConcurrentTree(SBTree("count", store, branching=6, leaf_capacity=6))
            barrier = threading.Barrier(4, timeout=10)

            def work(offset):
                barrier.wait()
                for i in range(50):
                    tree.insert(1, Interval(offset + i * 2, offset + i * 2 + 9))
                    tree.lookup(offset + i)

            threads = [threading.Thread(target=work, args=(k * 200,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert tree.lookup(1) in range(0, 10)  # sane value
            check_tree(tree.tree)
            facts = []
            for k in range(4):
                facts += [
                    (1, Interval(k * 200 + i * 2, k * 200 + i * 2 + 9))
                    for i in range(50)
                ]
            assert tree.to_table() == reference.instantaneous_table(facts, "count")

    def _readers_beside_a_writer(self, tmp_path, capacity, commit):
        """Readers under the shared lock receive the pool's live nodes
        while a writer mutates those same objects under the exclusive
        lock.  Every write covers the whole probed range with +1, so a
        range query must differ from the preloaded table by one constant
        on every row: a reader that saw a half-applied insert would not.
        Returns the store's and the pool's counters."""
        from repro.storage import PagedNodeStore

        probe = Interval(400, 2_600)
        rounds = 150
        with PagedNodeStore(
            str(tmp_path / "live.sbt"), "sum", page_size=512,
            buffer_capacity=capacity,
        ) as store:
            tree = ConcurrentTree(SBTree("sum", store, branching=5, leaf_capacity=6))
            facts = [(i % 7 + 1, Interval(i * 9, i * 9 + 20)) for i in range(330)]
            for value, interval in facts:
                tree.insert(value, interval)
            assert tree.height >= 4
            before = tree.range_query(probe).rows
            done = threading.Event()
            torn, reads = [], [0] * 5

            def reader(slot):
                finished = False
                while not finished:
                    finished = done.is_set()  # one last look after the writer
                    rows = tree.range_query(probe).rows
                    shifts = {
                        (after[0] - row[0], after[1] == row[1])
                        for after, row in zip(rows, before)
                    }
                    if len(rows) != len(before) or len(shifts) != 1:
                        torn.append(sorted(shifts))
                    for t, was in zip(instants[slot], before_levels[slot]):
                        level = tree.lookup(t)
                        if not 0 <= level - was <= rounds:
                            torn.append(level)
                    reads[slot] += 1

            # Each reader's instants spread over the probed range: their
            # lookups miss, probe page bytes and decode on a second use,
            # beside the other readers' and the writer's accesses.
            instants = [
                [1_000 + 97 * k + slot for k in range(8)] for slot in range(5)
            ]
            before_levels = [[tree.lookup(t) for t in ts] for ts in instants]
            readers = [threading.Thread(target=reader, args=(k,)) for k in range(5)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for t in readers:
                    t.start()
                for _ in range(rounds):
                    tree.insert(1, Interval(100, 2_900))
                    if commit:
                        store.commit()
                    time.sleep(0.001)  # writer preference would starve the readers
                done.set()
                for t in readers:
                    t.join(timeout=60)
            finally:
                done.set()
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in readers)
            assert not torn and min(reads) >= 5
            facts += [(1, Interval(100, 2_900))] * rounds
            assert tree.to_table() == reference.instantaneous_table(facts, "sum")
            check_tree(tree.tree)
            return store.stats.snapshot(), store.buffer.stats.snapshot()

    def test_readers_share_live_nodes_through_a_tiny_pool(self, tmp_path):
        """A 3-frame pool keeps evicting, so readers also race to fetch
        and decode the pages they share, and lookups read slots off
        bytes-only frames that another reader may be decoding."""
        nodes, pool = self._readers_beside_a_writer(
            tmp_path, capacity=3, commit=False
        )
        # Some lookup misses were probed, never decoded.
        assert 0 < nodes.decodes < pool.misses

    def test_readers_and_a_committing_writer_share_clean_nodes(self, tmp_path):
        """The pool holds the whole tree and every insert is committed,
        so what readers and the writer share are cached clean nodes:
        after the preload nothing is fetched and nothing is decoded."""
        nodes, pool = self._readers_beside_a_writer(
            tmp_path, capacity=1000, commit=True
        )
        assert nodes.decodes == pool.misses == 0

    def test_shared_lock_across_trees(self):
        """A dual-tree pair can share one lock for atomic updates."""
        from repro import DualTreeAggregate

        lock = ReadWriteLock()
        dual = ConcurrentTree(DualTreeAggregate("sum", branching=4, leaf_capacity=4), lock)
        dual.insert(3, Interval(0, 10))
        assert dual.window_lookup(12, 5) == 3


class TestWrapperProtocols:
    """Regression: ``__getattr__`` used to recurse infinitely when
    copy/pickle probed dunders on a blank instance (before ``__init__``
    had bound ``self.tree``)."""

    def make(self):
        tree = SBTree("sum", branching=4, leaf_capacity=4)
        tree.insert(2, Interval(10, 40))
        return ConcurrentTree(tree)

    def test_copy_copy_works(self):
        import copy

        wrapped = self.make()
        clone = copy.copy(wrapped)
        # A shallow copy shares the underlying tree and stays usable.
        assert clone.tree is wrapped.tree
        assert clone.lookup(19) == 2

    def test_missing_attribute_raises_cleanly(self):
        wrapped = self.make()
        with pytest.raises(AttributeError):
            wrapped.no_such_method
        assert not hasattr(wrapped, "definitely_not_there")

    def test_dunder_probe_on_blank_instance(self):
        # What copy.copy does internally: probe dunders on an instance
        # created without running __init__.  Must raise AttributeError,
        # not RecursionError.
        blank = ConcurrentTree.__new__(ConcurrentTree)
        with pytest.raises(AttributeError):
            blank.__deepcopy__
        with pytest.raises(AttributeError):
            blank.anything  # no self.tree yet either

    def test_delegation_still_works(self):
        wrapped = self.make()
        # Non-dunder attributes still delegate to the wrapped tree.
        assert wrapped.height == wrapped.tree.height
        assert wrapped.kind is wrapped.tree.kind
