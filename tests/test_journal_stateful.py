"""Stateful crash-recovery testing: random commits and simulated crashes.

The machine drives a journaled SB-tree through random inserts, deletes,
commits, and crashes (abandoning the file handles without commit, or
losing power: a seeded subset of the unsynced writes goes too); the
model tracks the facts as of the last commit.  After every crash the
recovered tree must equal the committed model exactly.  One pager lives
through many commits, so the journal file is reused -- longer, shorter
and equal transactions over the same bytes -- not only created.
"""

import os
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro import Interval, SBTree, check_tree
from repro.core import reference
from repro.faults import FaultInjector, simulate_crash
from repro.storage import PagedNodeStore

times = st.integers(min_value=0, max_value=150)
values = st.integers(min_value=-5, max_value=9)
lengths = st.integers(min_value=1, max_value=60)


class JournalMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._dir = tempfile.mkdtemp(prefix="journal-machine-")
        self.path = os.path.join(self._dir, "t.sbt")
        self._open()
        self.committed = []  # facts as of the last commit
        self.pending = []  # facts applied since

    def _open(self):
        self.store = PagedNodeStore(
            self.path, "sum", page_size=1024, buffer_capacity=8, journaled=True,
            faults=FaultInjector(),  # remembers what no fsync covered
        )
        self.tree = SBTree(
            "sum", self.store, branching=6, leaf_capacity=6
        ) if self.store.get_root() is None else SBTree(store=self.store)

    @rule(value=values, start=times, length=lengths)
    def insert(self, value, start, length):
        interval = Interval(start, start + length)
        self.tree.insert(value, interval)
        self.pending.append(("+", value, interval))

    @precondition(lambda self: self.committed or self.pending)
    @rule(data=st.data())
    def delete_some_live_fact(self, data):
        live = self._live()
        if not live:
            return
        value, interval = data.draw(st.sampled_from(live))
        self.tree.delete(value, interval)
        self.pending.append(("-", value, interval))

    def _live(self):
        live = list(self.committed)
        for op, value, interval in self.pending:
            if op == "+":
                live.append((value, interval))
            else:
                live.remove((value, interval))
        return live

    @rule()
    def commit(self):
        self.store.commit()
        self.committed = self._live()
        self.pending = []

    @rule(
        facts=st.lists(st.tuples(values, times, lengths), min_size=1, max_size=4),
        power_loss=st.none() | st.integers(min_value=0, max_value=99),
    )
    def commits_then_crash(self, facts, power_loss):
        """k one-fact transactions over one journal file, then die inside
        the next -- with or without losing unsynced writes."""
        for value, start, length in facts:
            self.insert(value, start, length)
            self.commit()
        self.insert(*facts[0])
        self.crash_and_recover(power_loss)

    @rule()
    def crash_and_recover(self, power_loss=None):
        # Push everything to the file, then abandon without commit.
        self.store.buffer.flush()
        simulate_crash(self.store, power_loss=power_loss)
        self._open()
        self.pending = []
        expected = reference.instantaneous_table(self.committed, "sum")
        assert self.tree.to_table() == expected
        check_tree(self.tree)

    @rule(t=times)
    def lookup_reflects_all_applied_ops(self, t):
        assert self.tree.lookup(t) == reference.instantaneous_value(
            self._live(), "sum", t
        )

    def teardown(self):
        try:
            self.store.close()
        except ValueError:
            pass  # file already closed by a simulated crash


TestJournalMachine = JournalMachine.TestCase
TestJournalMachine.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
