"""Stateful model-based testing of the pager (allocate/write/free/reopen)
and of the buffer pool's write-back bookkeeping above it."""

import os
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.storage import BufferPool, Pager

payloads = st.binary(min_size=0, max_size=400)


class PagerMachine(RuleBasedStateMachine):
    """The model is a dict page_id -> payload plus a free set."""

    def __init__(self):
        super().__init__()
        self._dir = tempfile.mkdtemp(prefix="pager-machine-")
        self.path = os.path.join(self._dir, "pages.db")
        self.pager = Pager(self.path, page_size=512)
        self.model = {}

    @rule(payload=payloads)
    def allocate_and_write(self, payload):
        page_id = self.pager.allocate_page()
        assert page_id not in self.model, "allocator handed out a live page"
        self.pager.write_page(page_id, payload)
        self.model[page_id] = payload

    @precondition(lambda self: self.model)
    @rule(data=st.data(), payload=payloads)
    def overwrite(self, data, payload):
        page_id = data.draw(st.sampled_from(sorted(self.model)))
        self.pager.write_page(page_id, payload)
        self.model[page_id] = payload

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def free(self, data):
        page_id = data.draw(st.sampled_from(sorted(self.model)))
        self.pager.free_page(page_id)
        del self.model[page_id]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def read_matches_model(self, data):
        page_id = data.draw(st.sampled_from(sorted(self.model)))
        stored = self.pager.read_page(page_id)
        expected = self.model[page_id]
        assert stored[: len(expected)] == expected
        assert stored[len(expected):] == b"\x00" * (len(stored) - len(expected))

    @rule(key=st.sampled_from(["alpha", "beta"]), value=st.text(
        alphabet=st.characters(blacklist_characters="\n=", min_codepoint=32,
                               max_codepoint=126), max_size=20))
    def set_meta(self, key, value):
        self.pager.set_meta(key, value)
        assert self.pager.get_meta(key) == value

    @rule()
    def reopen(self):
        self.pager.close()
        self.pager = Pager(self.path)
        for page_id, expected in self.model.items():
            assert self.pager.read_page(page_id)[: len(expected)] == expected

    @invariant()
    def live_count_matches_model(self):
        assert self.pager.live_nodes == len(self.model)

    def teardown(self):
        self.pager.close()


TestPagerMachine = PagerMachine.TestCase
TestPagerMachine.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)


class BufferPoolMachine(RuleBasedStateMachine):
    """A 3-frame pool over 8 pages, so writes, reads, discards, flushes
    and commits interleave with evictions.  The model is the payload last
    written through the pool per page (a discard forgets it: a dirty
    frame's bytes go with it)."""

    pages = st.integers(min_value=0, max_value=7)

    def __init__(self):
        super().__init__()
        self._dir = tempfile.mkdtemp(prefix="pool-machine-")
        self.pager = Pager(
            os.path.join(self._dir, "pages.db"), page_size=512
        )
        self.page_ids = [self.pager.allocate_page() for _ in range(8)]
        self.pool = BufferPool(self.pager, capacity=3)
        self.model = {}

    @rule(k=pages, payload=payloads)
    def write(self, k, payload):
        self.pool.write(self.page_ids[k], payload, node=None)
        self.model[self.page_ids[k]] = payload

    @rule(k=pages)
    def read(self, k):
        page_id = self.page_ids[k]
        stored = self.pool.frame(page_id).payload
        expected = self.model.get(page_id)
        if expected is not None:
            assert stored[: len(expected)] == expected
            assert stored[len(expected):].strip(b"\x00") == b""

    @rule(k=pages)
    def discard(self, k):
        self.pool.discard(self.page_ids[k])
        self.model.pop(self.page_ids[k], None)

    @rule(commit=st.booleans())
    def flush(self, commit):
        self.pool.flush(commit=commit)
        assert not self.pool.dirty

    @invariant()
    def dirty_count_matches_a_scan(self):
        frames = self.pool._frames.values()
        assert self.pool._dirty_frames == sum(frame.dirty for frame in frames)
        assert self.pool.dirty == any(frame.dirty for frame in frames)

    def teardown(self):
        self.pager.close()
        shutil.rmtree(self._dir, ignore_errors=True)


TestBufferPoolMachine = BufferPoolMachine.TestCase
TestBufferPoolMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
