"""Stateful crash-recovery testing of the write-ahead log.

The machine drives a pager behind a two-frame buffer pool
through random page writes, evictions, commits, checkpoints, clean
reopens and crashes -- a process death, or a power cut under each
:meth:`repro.faults.FaultInjector.lose_power` mode -- against a dict
model of the committed pages.  After every crash or reopen each page
must read back exactly as the last commit left it.  One WAL lives
through many generations, so frames of longer, shorter and equal
generations lie under each other in the same bytes.
"""

import os
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.faults import FaultInjector, simulate_crash
from repro.storage import BufferPool, Pager
from repro.storage import pager as pager_module

PAGES = 6
pages = st.integers(min_value=1, max_value=PAGES)
payloads = st.binary(max_size=40).map(lambda raw: raw + b"!")  # no trailing NUL
power_loss = st.sampled_from([None, "all", "newest"]) | st.integers(0, 99)


class JournalMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._dir = tempfile.mkdtemp(prefix="journal-machine-")
        self.path = os.path.join(self._dir, "p.sbt")
        pager = Pager(self.path, page_size=512)
        for page in range(1, PAGES + 1):
            pager.allocate_page()
        pager.close()
        self.committed = {page: b"" for page in range(1, PAGES + 1)}
        self.pending = {}
        self._open()

    def _open(self):
        # A fresh injector per pager: it remembers what no fsync covered.
        self.pager = Pager(self.path, faults=FaultInjector())
        self.pool = BufferPool(self.pager, capacity=2)
        self.pending = {}

    def _expect(self, page):
        return self.pending.get(page, self.committed[page])

    @rule(page=pages, payload=payloads)
    def write(self, page, payload):
        self.pool.write(page, payload, None)
        self.pending[page] = payload

    @rule(page=pages)
    def evict(self, page):
        """Admit *page*: with two frames, that evicts -- and writes back
        as an uncommitted frame -- whatever is least recently used."""
        assert self.pool.frame(page).payload.rstrip(b"\x00") == self._expect(page)

    @rule()
    def commit(self):
        self.pool.flush(commit=True)
        self.committed.update(self.pending)
        self.pending = {}

    @rule()
    def checkpoint(self):
        commits = self.pool.dirty or self.pager.dirty
        saved = pager_module.WAL_CHECKPOINT_BYTES
        pager_module.WAL_CHECKPOINT_BYTES = 0  # a commit now checkpoints
        try:
            self.commit()
        finally:
            pager_module.WAL_CHECKPOINT_BYTES = saved
        assert not commits or self.pager.wal_bytes == 0

    @rule(mode=power_loss)
    def crash(self, mode):
        simulate_crash(self.pager, power_loss=mode)
        self._open()

    @rule()
    def reopen(self):
        self.pool.flush()  # written back, not committed: close commits
        self.pager.close()
        self.committed.update(self.pending)
        self._open()

    @invariant()
    def pages_read_back_as_modelled(self):
        for page in range(1, PAGES + 1):
            if page not in self.pending:
                got = self.pager.read_page(page).rstrip(b"\x00")
                assert got == self.committed[page], page

    def teardown(self):
        try:
            self.pager.close()
        except ValueError:
            pass  # file already closed by a simulated crash


TestJournalMachine = JournalMachine.TestCase
TestJournalMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
